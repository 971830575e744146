//! Property: after an arbitrary [`DeltaBatch`], every query answered by
//! a refreshed session is **bit-identical** to a cold rebuild on the
//! post-delta database — touched and untouched blocks, append-only and
//! deleting deltas, with and without a causal graph, and regardless of
//! which artifact tiers (local / shared / disk) served the survivors.
//!
//! This is the safety contract of block-scoped causal invalidation: the
//! survival analysis may keep or drop whatever it likes, but answers
//! must never drift from the from-scratch oracle.

use std::collections::HashMap;

use hyper_repro::prelude::*;
use hyper_repro::storage::DataType;
use proptest::prelude::*;

/// The three query shapes exercised per case: a filtered view (survives
/// when the delta misses the predicate), a full-table view (invalidated
/// by any touch), and a deterministic fast-path query (no estimator).
const QUERIES: [&str; 3] = [
    "Use (Select b, y From t Where z = 0) Update(b) = Pre(b) + 1 Output Avg(Post(y))",
    "Use t Update(b) = Pre(b) + 1 Output Avg(Post(y))",
    "Use t Update(y) = Pre(y) * 2 Output Avg(Post(y))",
];

#[derive(Debug, Clone)]
struct DeltaSpec {
    /// Base-table rows.
    n: usize,
    /// Appended rows (0 = delete-only / no-op deltas allowed).
    appends: usize,
    /// Raw delete indices, reduced mod the base size.
    deletes: Vec<usize>,
    seed: u64,
    with_graph: bool,
    with_disk: bool,
}

fn arb_spec() -> impl Strategy<Value = DeltaSpec> {
    (
        20usize..60,
        0usize..8,
        proptest::collection::vec(0usize..1000, 0..5),
        0u64..10_000,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(n, appends, deletes, seed, with_graph, with_disk)| DeltaSpec {
                n,
                appends,
                deletes,
                seed,
                with_graph,
                with_disk,
            },
        )
}

/// A z → b → y chain with the z → y confounding edge — the smallest
/// graph where backdoor adjustment is non-trivial.
fn chain_scm() -> Scm {
    let mut scm = Scm::new();
    scm.add_node(
        "z",
        DataType::Int,
        &[],
        hyper_repro::causal::Mechanism::CategoricalPrior(vec![
            (Value::Int(0), 0.5),
            (Value::Int(1), 0.5),
        ]),
    )
    .unwrap();
    let mut bt = HashMap::new();
    for z in 0..2i64 {
        bt.insert(
            vec![Value::Int(z)],
            vec![
                (Value::Int(0), 0.3 + 0.4 * z as f64),
                (Value::Int(1), 0.7 - 0.4 * z as f64),
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
            yt.insert(
                vec![Value::Int(z), Value::Int(b)],
                vec![
                    (Value::Int(0), 0.2 + 0.2 * z as f64 + 0.3 * b as f64),
                    (Value::Int(1), 0.8 - 0.2 * z as f64 - 0.3 * b as f64),
                ],
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
    scm
}

fn build_session(
    db: Database,
    graph: Option<CausalGraph>,
    disk: Option<&std::path::Path>,
) -> HyperSession {
    let config = if graph.is_some() {
        EngineConfig::hyper()
    } else {
        EngineConfig::hyper_nb()
    };
    let mut b = HyperSession::builder(db).maybe_graph(graph).config(config);
    if let Some(dir) = disk {
        b = b.persist_dir(dir);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn refreshed_answers_equal_cold_rebuild_bit_for_bit(spec in arb_spec()) {
        let scm = chain_scm();
        let base = scm.sample("t", spec.n, spec.seed).unwrap();
        let mut db = Database::new();
        db.add_table(base).unwrap();
        let graph = spec.with_graph.then(|| scm.to_causal_graph("t"));

        let disk_dir = spec.with_disk.then(|| {
            std::env::temp_dir().join(format!(
                "hyper_prop_ingest_{}_{}",
                std::process::id(),
                spec.seed
            ))
        });
        let session = build_session(db.clone(), graph.clone(), disk_dir.as_deref());

        // Warm every artifact so refresh has something to keep or drop.
        for q in QUERIES {
            session.whatif_text(q).unwrap();
        }

        // An arbitrary delta: sampled appends (same schema, fresh seed)
        // plus deletes folded into range.
        let mut delta = DeltaBatch::new();
        if spec.appends > 0 {
            delta = delta.append(scm.sample("t", spec.appends, spec.seed ^ 0x9E37).unwrap());
        }
        let mut deletes: Vec<usize> = spec.deletes.iter().map(|&i| i % spec.n).collect();
        deletes.sort_unstable();
        deletes.dedup();
        if !deletes.is_empty() {
            delta = delta.delete("t", deletes);
        }
        if delta.is_empty() {
            delta = delta.delete("t", vec![0]);
        }

        let out = session.refresh(&delta).unwrap();
        prop_assert_eq!(out.report.data_version, 1);

        // The oracle: a cold, tier-free session over the post-delta
        // database (no shared store, no disk — nothing to inherit from).
        let post = delta.apply(session.database()).unwrap();
        let cold = {
            let config = if graph.is_some() {
                EngineConfig::hyper()
            } else {
                EngineConfig::hyper_nb()
            };
            HyperSession::builder(post)
                .maybe_graph(graph.clone())
                .config(config)
                .share_artifacts(false)
                .build()
        };

        for q in QUERIES {
            let warm = out.session.whatif_text(q).unwrap();
            let oracle = cold.whatif_text(q).unwrap();
            prop_assert_eq!(
                warm.value.to_bits(),
                oracle.value.to_bits(),
                "query {} drifted after refresh: warm {} vs cold {}",
                q, warm.value, oracle.value
            );
        }

        if let Some(dir) = disk_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// A delta that changes a view makes a new view, with its own support
/// index: cell ids numbered over the old rows are never applied to the
/// new ones. Deleting leading rows shifts every later row, so stale ids
/// would put rows in the wrong cells.
#[test]
fn ingest_that_changes_the_view_rebuilds_its_support_index() {
    let scm = chain_scm();
    let mut db = Database::new();
    db.add_table(scm.sample("t", 400, 77).unwrap()).unwrap();
    let graph = scm.to_causal_graph("t");
    let queries = [
        "Use t When z = 0 Update(b) = 1 Output Avg(Post(y))",
        "Use t Update(b) = Pre(b) + 1 Output Count(Post(y) = 1)",
        "Use (Select b, y, z From t Where z = 1) When b = 0 Update(b) = 1 Output Sum(Post(y))",
    ];
    let session = build_session(db, Some(graph.clone()), None);
    for q in queries {
        session.whatif_text(q).unwrap();
    }

    let delta = DeltaBatch::new()
        .append(scm.sample("t", 25, 78).unwrap())
        .delete("t", (0..40).collect::<Vec<_>>());
    let out = session.refresh(&delta).unwrap();
    let cold = HyperSession::builder(delta.apply(session.database()).unwrap())
        .graph(graph)
        .config(EngineConfig::hyper())
        .share_artifacts(false)
        .build();
    for q in queries {
        let warm = out.session.whatif_text(q).unwrap().value;
        let oracle = cold.whatif_text(q).unwrap().value;
        assert_eq!(warm.to_bits(), oracle.to_bits(), "{q}: {warm} vs {oracle}");
    }
}
