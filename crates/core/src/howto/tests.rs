//! The how-to's batched candidate evaluation against one-at-a-time
//! evaluation: over random how-tos, every candidate value of
//! `HowToContext::prepare` has the bits of `evaluate_planned` on that
//! candidate alone, and a how-to that fails returns the first error of
//! the one-at-a-time pass in (attribute, candidate) order.

use hyper_causal::{CausalGraph, EdgeKind};
use hyper_query::{parse_query, HowToQuery, HypotheticalQuery, UpdateSpec};
use hyper_runtime::HyperRuntime;
use hyper_storage::{DataType, Database, Field, Schema, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::candidates::generate_candidates;
use super::optimizer::{candidate_whatif, template_and_baseline, HowToContext};
use crate::config::{EngineConfig, EstimatorKind, HowToOptions};
use crate::error::Result;
use crate::hexpr::bind_hexpr;
use crate::session::cache::{ArtifactCache, CacheBudget};
use crate::whatif::{evaluate_planned, plan_whatif};

/// Table `t`: a confounder `c`, the update candidates `a` (Int), `b`
/// (Float with `-0.0`) and `s` (nullable Str), and outcomes `y` (Float)
/// and `ok` (Str).
fn random_db(rng: &mut StdRng) -> Database {
    let schema = Schema::new(vec![
        Field::new("c", DataType::Int),
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Float),
        Field::nullable("s", DataType::Str),
        Field::new("y", DataType::Float),
        Field::new("ok", DataType::Str),
    ])
    .unwrap();
    let mut t = TableBuilder::new("t", schema);
    for _ in 0..rng.gen_range(150..400) {
        let c: i64 = rng.gen_range(0..3);
        let a: i64 = (c + rng.gen_range(0..3i64)) % 4;
        let b = [0.5, 1.5, -0.0, 2.5][rng.gen_range(0..4usize)];
        let s = match rng.gen_range(0..10) {
            0 => Value::Null,
            k => ["x", "y", "z"][k % 3].into(),
        };
        let y = a as f64 + 0.5 * b + 0.3 * c as f64 + f64::from(s == "x".into())
            - rng.gen_range(0..4) as f64 * 0.25;
        let ok = if y + rng.gen_range(0..3) as f64 > 3.0 {
            "Good"
        } else {
            "Bad"
        };
        t.push(vec![c.into(), a.into(), b.into(), s, y.into(), ok.into()])
            .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

/// `c` confounds every update candidate and the outcomes; without `s`,
/// planning an update of `s` under the graph's backdoor mode fails.
fn random_graph(with_s: bool) -> CausalGraph {
    let mut g = CausalGraph::new();
    let node = |g: &mut CausalGraph, a: &str| g.node("t", a);
    let (c, y, ok) = (node(&mut g, "c"), node(&mut g, "y"), node(&mut g, "ok"));
    let mut causes = vec![node(&mut g, "a"), node(&mut g, "b")];
    if with_s {
        causes.push(node(&mut g, "s"));
    }
    for cause in causes.into_iter().chain([c]) {
        g.add_edge(cause, y, EdgeKind::Intra).unwrap();
        g.add_edge(cause, ok, EdgeKind::Intra).unwrap();
        if cause != c {
            g.add_edge(c, cause, EdgeKind::Intra).unwrap();
        }
    }
    g
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// A random how-to over `t`: one to three attributes, numeric and
/// categorical, with a Count, Sum or Avg objective, and maybe a `When`,
/// a `For` and `Limit`s whose sets hold values no row has and values of
/// another type than the column's.
fn random_howto(rng: &mut StdRng) -> String {
    let mut attrs = vec!["a", "b", "s"];
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.gen_range(0..i + 1));
    }
    attrs.truncate(rng.gen_range(1..4));
    let when = pick(rng, &["", "When c <> 0", "When s = 'y'"]);
    let mut limits: Vec<&str> = Vec::new();
    if attrs.contains(&"s") && rng.gen_bool(0.5) {
        limits.push("Post(s) In ('x', 'w', 2)");
    }
    if attrs.contains(&"a") && rng.gen_bool(0.5) {
        limits.push(pick(
            rng,
            &["Post(a) In (0, 2.5, 'q')", "1 <= Post(a) <= 3"],
        ));
    }
    let limit = if limits.is_empty() {
        String::new()
    } else {
        format!("Limit {}", limits.join(" And "))
    };
    let objective = pick(
        rng,
        &[
            "ToMaximize Count(Post(ok) = 'Good')",
            "ToMaximize Sum(Post(y))",
            "ToMinimize Avg(Post(y))",
            "ToMaximize Count(Post(y) > 2)",
        ],
    );
    let scope = pick(
        rng,
        &[
            "",
            "For Pre(c) < 2",
            "For Post(y) > 1",
            "For Pre(s) = 'z' And Post(y) > 0.5",
        ],
    );
    format!(
        "Use t {when} HowToUpdate {} {limit} {objective} {scope}",
        attrs.join(", ")
    )
}

/// `peer_tests`' market with few distinct prices: `price` has a
/// same-value edge to `rating` grouped by `category`, so an update of
/// `price` carries a peer summary and one of `brand` does not.
fn market() -> (Database, CausalGraph) {
    let mut rng = StdRng::seed_from_u64(17);
    let schema = Schema::new(vec![
        Field::new("pid", DataType::Int),
        Field::new("category", DataType::Str),
        Field::new("brand", DataType::Str),
        Field::new("price", DataType::Float),
        Field::new("rating", DataType::Float),
    ])
    .unwrap();
    let mut t = TableBuilder::with_key("product", schema, &["pid"]).unwrap();
    for pid in 0..300i64 {
        let cat = ["a", "b", "c"][rng.gen_range(0..3usize)];
        let brand = ["asus", "vaio", "hp"][rng.gen_range(0..3usize)];
        let price = 300.0 + 100.0 * rng.gen_range(0..4) as f64;
        let rating = 3.0 + rng.gen_range(0..3) as f64 * 0.5;
        t.push(vec![
            pid.into(),
            cat.into(),
            brand.into(),
            price.into(),
            rating.into(),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    let mut g = CausalGraph::new();
    let (price, rating) = (g.node("product", "price"), g.node("product", "rating"));
    g.add_edge(price, rating, EdgeKind::Intra).unwrap();
    let group_by = "category".into();
    g.add_edge(price, rating, EdgeKind::SameValue { group_by })
        .unwrap();
    (db, g)
}

fn howto(text: &str) -> HowToQuery {
    match parse_query(text).unwrap() {
        HypotheticalQuery::HowTo(q) => q,
        _ => panic!("expected a how-to: {text}"),
    }
}

/// Every candidate's value from its own plan through `evaluate_planned`,
/// over a cache of its own, in (attribute, candidate) order; the first
/// error stops the pass.
fn one_at_a_time(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &HowToQuery,
    opts: &HowToOptions,
) -> Result<Vec<Vec<f64>>> {
    let runtime = HyperRuntime::global();
    let cache = ArtifactCache::new(CacheBudget::unbounded(), None, None);
    let (view, view_key) = cache.view(db, &q.use_clause)?;
    let schema = view.table.schema();
    let when = (q.when.as_ref())
        .map(|w| bind_hexpr(w, schema, hyper_query::Temporal::Pre)?.eval_mask(&view.table))
        .transpose()?;
    let candidates = generate_candidates(&view, when.as_deref(), q, opts.buckets)?;
    let (template, _) = template_and_baseline(q, &view)?;
    let mut values = Vec::with_capacity(candidates.len());
    for cands in &candidates {
        let mut attr_values = Vec::with_capacity(cands.len());
        for c in cands {
            let update = UpdateSpec {
                attr: c.attr.clone(),
                func: c.func.clone(),
            };
            let wq = candidate_whatif(&template, vec![update])?;
            let plan = plan_whatif(db, graph, config, &wq, &view, view_key.as_str())?;
            attr_values.push(evaluate_planned(config, &view, &plan, &cache, runtime)?.value);
        }
        values.push(attr_values);
    }
    Ok(values)
}

/// Compare the batched pass with the one-at-a-time pass on one how-to;
/// returns whether the how-to evaluated.
fn check(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    text: &str,
    buckets: usize,
) -> bool {
    let q = howto(text);
    let opts = HowToOptions {
        buckets,
        max_attrs_updated: None,
    };
    let cache = ArtifactCache::new(CacheBudget::unbounded(), None, None);
    let runtime = HyperRuntime::global();
    let batched = HowToContext::prepare(db, graph, config, &q, &opts, &cache, runtime);
    let alone = one_at_a_time(db, graph, config, &q, &opts);
    match (batched, alone) {
        (Ok(ctx), Ok(values)) => {
            let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
                v.iter()
                    .map(|a| a.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&ctx.values), bits(&values), "{text} under {config:?}");
            assert_eq!(ctx.whatif_evals, values.iter().map(Vec::len).sum::<usize>());
            true
        }
        (Err(batched), Err(alone)) => {
            assert_eq!(batched.to_string(), alone.to_string(), "{text}");
            false
        }
        (batched, alone) => panic!(
            "{text} under {config:?}: batched {:?}, one at a time {:?}",
            batched.map(|c| c.values),
            alone
        ),
    }
}

#[test]
fn batched_candidates_equal_one_at_a_time_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xca7d);
    let small = |config: EngineConfig| EngineConfig {
        n_trees: 4,
        max_depth: 6,
        ..config
    };
    let (mut evaluated, mut failed) = (0, 0);
    for case in 0..60 {
        let db = random_db(&mut rng);
        let text = random_howto(&mut rng);
        let graph = random_graph(case % 10 != 0);
        let (config, graph) = match case % 3 {
            0 => (small(EngineConfig::hyper()), Some(&graph)),
            1 => (small(EngineConfig::hyper_nb()), None),
            _ => {
                let cells = EngineConfig {
                    estimator: EstimatorKind::Cells,
                    ..EngineConfig::hyper_nb()
                };
                (cells, Some(&graph))
            }
        };
        if check(&db, graph, &config, &text, rng.gen_range(1..5)) {
            evaluated += 1;
        } else {
            failed += 1;
        }
    }
    assert!(evaluated >= 40, "{evaluated} how-tos evaluated");
    assert!(failed >= 1, "no how-to failed");
}

/// An attribute with a peer summary evaluates its candidates one at a
/// time inside the batch, beside an attribute without one; the graph has
/// no node for `brand`, so under its backdoor mode the `brand` plan fails
/// and the how-to returns that failure.
#[test]
fn peer_summary_market_matches_one_at_a_time() {
    let (db, graph) = market();
    let small = EngineConfig {
        n_trees: 4,
        ..EngineConfig::hyper_nb()
    };
    let queries = [
        "Use product HowToUpdate price, brand ToMaximize Avg(Post(rating))",
        "Use product When brand = 'asus' HowToUpdate brand, price \
         ToMaximize Count(Post(rating) > 3.4) For Pre(category) <> 'c'",
    ];
    for text in queries {
        for kind in [EstimatorKind::Forest, EstimatorKind::Cells] {
            let config = EngineConfig {
                estimator: kind,
                ..small.clone()
            };
            assert!(check(&db, Some(&graph), &config, text, 3), "{text}");
        }
        let by_graph = EngineConfig {
            n_trees: 4,
            ..EngineConfig::hyper()
        };
        assert!(!check(&db, Some(&graph), &by_graph, text, 3), "{text}");
    }
}
