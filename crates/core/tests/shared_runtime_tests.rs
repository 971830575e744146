//! Integration tests for the shared execution runtime: the process-wide
//! artifact store (cross-session sharing, single-flight under
//! contention, the two-level cache's accounting) and the persistent
//! worker pool (nested fan-out, worker-count-independent results).
//!
//! Every test uses a dataset `(n, seed)` pair unique within this binary:
//! the shared store is keyed by *content* fingerprints, so tests over
//! equal data would otherwise observe each other's artifacts.

mod common;

use common::{confounded_db, credit_db};
use hyper_core::{CacheBudget, HyperSession, QueryOutcome};
use hyper_runtime::HyperRuntime;

const WHATIF: &str = "Use d Update(b) = 1 Output Count(Post(y) = 1)";

/// Two sessions over the same `(db, graph)` — here not even sharing
/// `Arc`s: the second session's database is generated independently with
/// equal content — share one view build and one estimator training.
#[test]
fn two_sessions_share_one_view_build() {
    let (db1, _, graph1) = confounded_db(1501, 31);
    let (db2, _, graph2) = confounded_db(1501, 31);

    let s1 = HyperSession::builder(db1).graph(graph1).build();
    let r1 = s1.whatif_text(WHATIF).unwrap();
    let a = s1.stats();
    assert_eq!(a.view_misses, 1, "first session builds the view");
    assert_eq!(a.estimator_misses, 1, "first session trains");
    assert_eq!(a.view_shared_hits, 0);

    let s2 = HyperSession::builder(db2).graph(graph2).build();
    let r2 = s2.whatif_text(WHATIF).unwrap();
    let b = s2.stats();
    assert_eq!(b.view_misses, 0, "second session builds nothing");
    assert_eq!(b.view_shared_hits, 1, "…the view came from the store");
    assert_eq!(b.estimator_misses, 0, "second session trains nothing");
    assert_eq!(b.estimator_shared_hits, 1);
    assert_eq!(r1.value, r2.value, "shared artifacts, identical answers");

    // Total builds across both sessions: exactly one per artifact.
    assert_eq!(a.view_misses + b.view_misses, 1);
    assert_eq!(a.estimator_misses + b.estimator_misses, 1);
}

/// Hammer one key from two sessions × two threads each: the shared
/// store's single-flight admits exactly one build process-wide; everyone
/// else records a shared hit (or a local hit on their second access).
#[test]
fn single_flight_across_sessions_under_contention() {
    let (db, _, graph) = confounded_db(1502, 32);
    let sessions: Vec<HyperSession> = (0..2)
        .map(|_| {
            HyperSession::builder(db.clone())
                .graph(graph.clone())
                .build()
        })
        .collect();

    let mut values = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in &sessions {
            for _ in 0..2 {
                handles.push(scope.spawn(move || s.whatif_text(WHATIF).unwrap().value));
            }
        }
        for h in handles {
            values.push(h.join().unwrap());
        }
    });
    assert!(values.windows(2).all(|w| w[0] == w[1]));

    let (mut views_built, mut estimators_trained, mut shared_hits) = (0, 0, 0);
    for s in &sessions {
        let st = s.stats();
        views_built += st.view_misses;
        estimators_trained += st.estimator_misses;
        shared_hits += st.view_shared_hits + st.estimator_shared_hits;
    }
    assert_eq!(views_built, 1, "one view build process-wide");
    assert_eq!(estimators_trained, 1, "one training process-wide");
    assert!(shared_hits >= 1, "the non-builders hit the shared store");
}

/// An artifact evicted from the session's LRU tier is re-served by the
/// shared store — eviction bounds session memory without forcing
/// retraining, and the accounting keeps the two tiers distinguishable.
#[test]
fn local_eviction_falls_back_to_shared_store() {
    let (db, _, graph) = credit_db(1503, 33);
    let session = HyperSession::builder(db)
        .graph(graph)
        .cache_budget(CacheBudget::estimators(1))
        .build();
    let q = |attr: &str| format!("Use d Update({attr}) = 1 Output Count(Post(credit) = 'Good')");

    session.whatif_text(&q("status")).unwrap();
    // `edu` is a root: its model has a feature set of its own.
    session.whatif_text(&q("edu")).unwrap(); // evicts `status` locally
    let mid = session.stats();
    assert_eq!(mid.estimator_misses, 2);
    assert_eq!(mid.estimator_evictions, 1);
    assert_eq!(mid.estimators_cached, 1, "local tier respects its budget");

    session.whatif_text(&q("status")).unwrap();
    let done = session.stats();
    assert_eq!(done.estimator_misses, 2, "no retraining after eviction");
    assert_eq!(
        done.estimator_shared_hits, 1,
        "the evicted estimator came back from the shared tier"
    );
}

/// Block decompositions are shared per `(db, graph)` too.
#[test]
fn block_decomposition_is_shared_across_sessions() {
    let (db, _, graph) = confounded_db(1504, 34);
    let s1 = HyperSession::builder(db.clone())
        .graph(graph.clone())
        .build();
    let s2 = HyperSession::builder(db).graph(graph).build();
    s1.block_decomposition().unwrap();
    s2.block_decomposition().unwrap();
    assert_eq!(s1.stats().block_misses, 1);
    assert_eq!(s2.stats().block_misses, 0);
    assert_eq!(s2.stats().block_shared_hits, 1);
}

/// Isolated sessions never touch the process-wide store.
#[test]
fn isolated_sessions_do_not_share() {
    let (db, _, graph) = confounded_db(1505, 35);
    let s1 = HyperSession::builder(db.clone())
        .graph(graph.clone())
        .share_artifacts(false)
        .build();
    s1.whatif_text(WHATIF).unwrap();
    let s2 = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .build();
    s2.whatif_text(WHATIF).unwrap();
    let (a, b) = (s1.stats(), s2.stats());
    assert_eq!(a.view_misses + b.view_misses, 2, "each built its own view");
    assert_eq!(a.view_shared_hits + b.view_shared_hits, 0);
    assert_eq!(a.estimator_shared_hits + b.estimator_shared_hits, 0);
}

/// The full nested-fan-out stack — `execute_batch` → how-to candidate
/// evaluation → forest training — drains one fixed worker pool without
/// deadlocking, and matches the sequential answers.
#[test]
fn nested_batch_howto_training_does_not_deadlock() {
    let (db, _, graph) = credit_db(1506, 36);
    let howtos = [
        "Use d HowToUpdate status ToMaximize Count(Post(credit) = 'Good')",
        "Use d HowToUpdate income ToMaximize Count(Post(credit) = 'Good')",
    ];

    let pooled = HyperSession::builder(db.clone())
        .graph(graph.clone())
        .runtime(HyperRuntime::with_workers(2))
        .share_artifacts(false)
        .build();
    let batch = pooled.execute_batch(&howtos);

    let sequential = HyperSession::builder(db)
        .graph(graph)
        .runtime(HyperRuntime::with_workers(0))
        .share_artifacts(false)
        .build();
    for (text, out) in howtos.iter().zip(batch) {
        let (QueryOutcome::HowTo(got), QueryOutcome::HowTo(want)) =
            (out.unwrap(), sequential.execute(*text).unwrap())
        else {
            panic!("expected how-to outcomes");
        };
        assert_eq!(got.objective, want.objective, "query `{text}` diverged");
        assert_eq!(got.chosen, want.chosen);
    }
}

/// What-if values are bit-identical whatever the session's worker count:
/// training derives every tree's randomness from `(seed, tree index)`,
/// and candidate fan-out only reorders independent work.
#[test]
fn results_are_worker_count_independent() {
    let (db, _, graph) = credit_db(1507, 37);
    let q = "Use d Update(status) = 1 Output Count(Post(credit) = 'Good')";
    let mut values = Vec::new();
    for workers in [0usize, 1, 3] {
        let s = HyperSession::builder(db.clone())
            .graph(graph.clone())
            .runtime(HyperRuntime::with_workers(workers))
            .share_artifacts(false)
            .build();
        values.push(s.whatif_text(q).unwrap().value);
    }
    assert_eq!(values[0].to_bits(), values[1].to_bits());
    assert_eq!(values[0].to_bits(), values[2].to_bits());
}
