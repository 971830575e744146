//! Property-based invariants across the stack: possible-world mass
//! conservation in the exact oracle, range/complement bounds on estimates,
//! and storage-operator algebra on random tables.

use std::collections::HashMap;

use hyper_repro::prelude::*;
use hyper_repro::storage::{col, lit, ops, DataType, Field, Schema, Table};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random discrete SCMs: z → b → y with z → y (confounded chain).
// ---------------------------------------------------------------------

fn arb_prob() -> impl Strategy<Value = f64> {
    // Bounded away from 0/1 so every observed tuple has positive mass.
    (5u32..=95).prop_map(|p| p as f64 / 100.0)
}

#[derive(Debug, Clone)]
struct ScmSpec {
    pz: f64,
    pb: [f64; 2],
    py: [f64; 4],
    n: usize,
    seed: u64,
}

fn arb_scm() -> impl Strategy<Value = ScmSpec> {
    (
        arb_prob(),
        [arb_prob(), arb_prob()],
        [arb_prob(), arb_prob(), arb_prob(), arb_prob()],
        200usize..800,
        0u64..1000,
    )
        .prop_map(|(pz, pb, py, n, seed)| ScmSpec {
            pz,
            pb,
            py,
            n,
            seed,
        })
}

fn build(spec: &ScmSpec) -> (Scm, Database) {
    let mut scm = Scm::new();
    scm.add_node(
        "z",
        DataType::Int,
        &[],
        hyper_repro::causal::Mechanism::CategoricalPrior(vec![
            (Value::Int(0), 1.0 - spec.pz),
            (Value::Int(1), spec.pz),
        ]),
    )
    .unwrap();
    let mut bt = HashMap::new();
    for z in 0..2i64 {
        bt.insert(
            vec![Value::Int(z)],
            vec![
                (Value::Int(0), 1.0 - spec.pb[z as usize]),
                (Value::Int(1), spec.pb[z as usize]),
            ],
        );
    }
    scm.add_node(
        "b",
        DataType::Int,
        &["z"],
        hyper_repro::causal::Mechanism::DiscreteCpd {
            table: bt,
            default: vec![(Value::Int(0), 1.0)],
        },
    )
    .unwrap();
    let mut yt = HashMap::new();
    for z in 0..2i64 {
        for b in 0..2i64 {
            let p = spec.py[(2 * z + b) as usize];
            yt.insert(
                vec![Value::Int(z), Value::Int(b)],
                vec![(Value::Int(0), 1.0 - p), (Value::Int(1), p)],
            );
        }
    }
    scm.add_node(
        "y",
        DataType::Int,
        &["z", "b"],
        hyper_repro::causal::Mechanism::DiscreteCpd {
            table: yt,
            default: vec![(Value::Int(0), 1.0)],
        },
    )
    .unwrap();
    let table = scm.sample("d", spec.n, spec.seed).unwrap();
    let mut db = Database::new();
    db.add_table(table).unwrap();
    (scm, db)
}

fn parse_whatif(text: &str) -> hyper_repro::query::WhatIfQuery {
    match parse_query(text).unwrap() {
        HypotheticalQuery::WhatIf(q) => q,
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact oracle conserves probability mass: the expected counts of
    /// `y = 0` and `y = 1` after any update sum to the number of tuples.
    #[test]
    fn oracle_mass_conservation(spec in arb_scm()) {
        let (scm, db) = build(&spec);
        let data = db.table("d").unwrap();
        let q0 = parse_whatif("Use d Update(b) = 1 Output Count(Post(y) = 0)");
        let q1 = parse_whatif("Use d Update(b) = 1 Output Count(Post(y) = 1)");
        let c0 = exact_whatif(&scm, data, &q0).unwrap();
        let c1 = exact_whatif(&scm, data, &q1).unwrap();
        prop_assert!((c0 + c1 - spec.n as f64).abs() < 1e-6,
            "mass {c0} + {c1} != {}", spec.n);
    }

    /// Oracle counts are bounded by the scope size, and bounded below by 0.
    #[test]
    fn oracle_counts_in_range(spec in arb_scm()) {
        let (scm, db) = build(&spec);
        let data = db.table("d").unwrap();
        let q = parse_whatif(
            "Use d When z = 0 Update(b) = 1 Output Count(Post(y) = 1) For Pre(z) = 0");
        let c = exact_whatif(&scm, data, &q).unwrap();
        let z0 = data.column_by_name("z").unwrap().iter()
            .filter(|v| *v == Value::Int(0)).count() as f64;
        prop_assert!(c >= -1e-9 && c <= z0 + 1e-9, "count {c} not in [0, {z0}]");
    }

    /// The estimator's Count output respects the same bounds.
    #[test]
    fn estimator_counts_in_range(spec in arb_scm()) {
        let (scm, db) = build(&spec);
        let graph = scm.to_causal_graph("d");
        let engine = HyperSession::new(db.clone(), Some(&graph))
            .with_config(EngineConfig { n_trees: 8, max_depth: 6, ..EngineConfig::hyper() });
        let r = engine
            .whatif_text("Use d Update(b) = 1 Output Count(Post(y) = 1)")
            .unwrap();
        prop_assert!(r.value >= -1e-9 && r.value <= spec.n as f64 + 1e-9);
    }

    /// Avg outputs stay within the observed domain of the outcome.
    #[test]
    fn estimator_avg_in_domain(spec in arb_scm()) {
        let (scm, db) = build(&spec);
        let graph = scm.to_causal_graph("d");
        let engine = HyperSession::new(db.clone(), Some(&graph))
            .with_config(EngineConfig { n_trees: 8, max_depth: 6, ..EngineConfig::hyper() });
        let r = engine
            .whatif_text("Use d Update(b) = 0 Output Avg(Post(y))")
            .unwrap();
        prop_assert!(r.value >= 0.0 && r.value <= 1.0, "avg y = {}", r.value);
    }
}

// ---------------------------------------------------------------------
// One fitted model per update column: update values are applied at
// evaluation, so a shared model must answer exactly like a fresh fit.
// ---------------------------------------------------------------------

/// An update binding of the template `Update(b) = <mode>(v)`.
#[derive(Debug, Clone)]
enum UpdateBinding {
    Set(i64),
    Scale(f64),
    Shift(f64),
}

fn arb_binding() -> impl Strategy<Value = UpdateBinding> {
    (0u32..3, 0i64..2, -20i64..=20).prop_map(|(mode, level, k)| match mode {
        0 => UpdateBinding::Set(level),
        1 => UpdateBinding::Scale(k as f64 / 10.0),
        _ => UpdateBinding::Shift(k as f64 / 10.0),
    })
}

/// The prepared template and bindings for one [`UpdateBinding`] mode.
fn bound_template(b: &UpdateBinding) -> (WhatIf, Bindings) {
    let base = WhatIf::over("d");
    let (template, value): (WhatIf, Value) = match b {
        UpdateBinding::Set(v) => (base.set_param("b", "v"), Value::Int(*v)),
        UpdateBinding::Scale(v) => (base.scale_param("b", "v"), Value::Float(*v)),
        UpdateBinding::Shift(v) => (base.shift_param("b", "v"), Value::Float(*v)),
    };
    let template = template
        .when(HExpr::attr("z").eq(1))
        .output_count(HExpr::post("y").eq(1));
    (template, Bindings::new().set("v", value))
}

fn isolated_session(db: &Database, graph: &CausalGraph) -> HyperSession {
    HyperSession::builder(db.clone())
        .graph(graph.clone())
        .config(EngineConfig {
            n_trees: 8,
            max_depth: 6,
            ..EngineConfig::hyper()
        })
        .share_artifacts(false)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every `Set`/`Scale`/`Shift` binding evaluated on a session that
    /// already holds the model fitted for `b` — by an earlier binding of
    /// another mode and value — is bit-identical to the value a fresh
    /// session trains for that binding alone.
    #[test]
    fn shared_model_matches_fresh_fit(
        spec in arb_scm(),
        bindings in prop::collection::vec(arb_binding(), 1..5),
    ) {
        let (scm, db) = build(&spec);
        let graph = scm.to_causal_graph("d");
        let shared = isolated_session(&db, &graph);
        let (warm, warm_bind) = bound_template(&UpdateBinding::Shift(0.5));
        shared.prepare(warm).unwrap().execute_whatif_with(&warm_bind).unwrap();
        for b in &bindings {
            let (template, bind) = bound_template(b);
            let reused = shared
                .prepare(template.clone())
                .unwrap()
                .execute_whatif_with(&bind)
                .unwrap()
                .value;
            let fresh = isolated_session(&db, &graph)
                .prepare(template)
                .unwrap()
                .execute_whatif_with(&bind)
                .unwrap()
                .value;
            prop_assert_eq!(reused.to_bits(), fresh.to_bits(), "{:?}: {} vs {}", b, reused, fresh);
        }
        prop_assert_eq!(shared.stats().estimator_misses, 1);
    }
}

// ---------------------------------------------------------------------
// Storage-operator algebra on random tables.
// ---------------------------------------------------------------------

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..5, 0i64..4, -100i64..100), 1..60).prop_map(|rows| {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("h", DataType::Int),
            Field::new("x", DataType::Int),
        ])
        .unwrap();
        let mut t = hyper_repro::storage::TableBuilder::new("t", schema);
        for (g, h, x) in rows {
            t.push(vec![g.into(), h.into(), x.into()]).unwrap();
        }
        t.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// σ_a(σ_b(T)) = σ_{a∧b}(T).
    #[test]
    fn filter_composition(t in arb_table(), k in 0i64..5) {
        let a = col("g").eq(lit(k));
        let b = col("x").ge(lit(0));
        let sequential = ops::filter::filter(&ops::filter::filter(&t, &a).unwrap(), &b).unwrap();
        let combined = ops::filter::filter(&t, &a.clone().and(b.clone())).unwrap();
        prop_assert_eq!(sequential.num_rows(), combined.num_rows());
    }

    /// Global SUM equals the sum of per-group SUMs (decomposability,
    /// Definition 6 of the paper).
    #[test]
    fn sum_decomposes_over_groups(t in arb_table()) {
        use hyper_repro::storage::{AggExpr, AggFunc};
        let global = ops::aggregate::aggregate(
            &t, &[], &[AggExpr::new(AggFunc::Sum, Some(col("x")), "s")]).unwrap();
        let grouped = ops::aggregate::aggregate(
            &t, &["g".into()], &[AggExpr::new(AggFunc::Sum, Some(col("x")), "s")]).unwrap();
        let total: f64 = (0..grouped.num_rows())
            .map(|i| grouped.column(1).f64_at(i).unwrap())
            .sum();
        prop_assert!((global.column(0).f64_at(0).unwrap() - total).abs() < 1e-9);
    }

    /// Self-join on the key column g: every output row satisfies the key
    /// equality, and the count equals Σ_g n_g².
    #[test]
    fn join_count_identity(t in arb_table()) {
        let mut renamed = Vec::new();
        for f in t.schema().fields() {
            renamed.push(format!("r_{}", f.name));
        }
        let right = hyper_repro::storage::plan::rename(&t, &renamed).unwrap();
        let joined = ops::join::hash_join(&t, &right, &["g".into()], &["r_g".into()]).unwrap();
        let mut counts: HashMap<i64, usize> = HashMap::new();
        for v in t.column_by_name("g").unwrap().iter() {
            *counts.entry(v.as_i64().unwrap()).or_insert(0) += 1;
        }
        let expected: usize = counts.values().map(|c| c * c).sum();
        prop_assert_eq!(joined.num_rows(), expected);
    }

    /// Gather with all indices is the identity.
    #[test]
    fn gather_identity(t in arb_table()) {
        let idx: Vec<usize> = (0..t.num_rows()).collect();
        let g = t.gather(&idx);
        for c in 0..t.num_columns() {
            prop_assert_eq!(g.column(c), t.column(c));
        }
    }
}
