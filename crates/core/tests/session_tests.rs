//! Session-layer integration tests: prepared queries must hit the view and
//! estimator caches on re-execution, batch execution must agree exactly
//! with sequential execution, caching must not change any result, and the
//! shared cache must be safe to hammer from many threads.

mod common;

use std::sync::Arc;

use common::{confounded_db, credit_db, three_cause_db};
use hyper_core::{CacheBudget, EngineConfig, HowToOptions, HyperSession, Provenance, QueryOutcome};
use hyper_query::{Bindings, HExpr, WhatIf};

const WHATIF: &str = "Use d Update(b) = 1 Output Count(Post(y) = 1)";

#[test]
fn second_execution_of_a_prepared_whatif_is_all_cache_hits() {
    let (db, _, graph) = confounded_db(800, 7);
    let session = HyperSession::builder(db).graph(graph).build();

    let prepared = session.prepare(WHATIF).unwrap();
    let after_prepare = session.stats();
    assert_eq!(after_prepare.view_misses, 1, "prepare builds the view once");
    assert_eq!(after_prepare.estimator_misses, 0, "prepare does not train");
    assert_eq!(after_prepare.queries_prepared, 1);

    let first = prepared.execute_whatif().unwrap();
    let mid = session.stats();
    assert_eq!(mid.view_misses, 1, "execution reuses the prepared view");
    assert_eq!(mid.estimator_misses, 1, "first execution trains once");
    assert_eq!(mid.estimator_hits, 0);

    let second = prepared.execute_whatif().unwrap();
    let done = session.stats();
    assert_eq!(second.value, first.value, "cached estimator, same answer");
    assert_eq!(done.view_misses, 1, "second execution builds no view");
    assert_eq!(done.estimator_misses, 1, "second execution trains nothing");
    assert!(
        done.estimator_hits > 0,
        "second execution hits the estimator cache"
    );
    assert_eq!(done.views_cached, 1);
    assert_eq!(done.estimators_cached, 1);
    assert_eq!(done.queries_executed, 2);
}

#[test]
fn ad_hoc_text_shares_the_prepared_query_caches() {
    let (db, _, graph) = confounded_db(600, 11);
    let session = HyperSession::builder(db).graph(graph).build();

    let prepared = session.prepare(WHATIF).unwrap();
    let a = prepared.execute_whatif().unwrap();
    // The same query as ad-hoc text resolves to the same artifacts.
    let b = session.whatif_text(WHATIF).unwrap();
    assert_eq!(a.value, b.value);
    let stats = session.stats();
    assert_eq!(stats.view_misses, 1);
    assert_eq!(stats.estimator_misses, 1);
    assert!(stats.view_hits >= 1);
    assert!(stats.estimator_hits >= 1);
}

/// A session over `(db, graph)`: isolated (a cold reference that neither
/// reads nor feeds the shared store) or sharing.
fn session_over(
    db: &Arc<hyper_storage::Database>,
    graph: &Arc<hyper_causal::CausalGraph>,
    opts: &HowToOptions,
    share: bool,
) -> HyperSession {
    HyperSession::builder(Arc::clone(db))
        .graph(Arc::clone(graph))
        .howto_options(opts.clone())
        .share_artifacts(share)
        .build()
}

#[test]
fn caching_does_not_change_results() {
    let (db, _, graph) = confounded_db(700, 3);
    let (db, graph) = (Arc::new(db), Arc::new(graph));
    let opts = HowToOptions::default();
    let shared = || session_over(&db, &graph, &opts, true);
    let cold = session_over(&db, &graph, &opts, false);
    // A cold, isolated session builds the view and trains the estimator.
    let reference = cold.whatif_text(WHATIF).unwrap();
    assert_eq!(cold.stats().view_misses, 1);
    assert_eq!(cold.stats().estimator_misses, 1);

    // A sharing session builds them again and publishes them; a second
    // sharing session is served by the shared store, then by its own
    // local tier.
    let first = shared();
    let built = first.whatif_text(WHATIF).unwrap();
    assert_eq!(first.stats().estimator_misses, 1);
    let second = shared();
    let shared_hit = second.whatif_text(WHATIF).unwrap();
    assert_eq!(second.stats().estimator_misses, 0);
    assert_eq!(second.stats().estimator_shared_hits, 1);
    let local_hit = second.whatif_text(WHATIF).unwrap();
    assert_eq!(second.stats().estimator_hits, 1);

    for (what, r) in [
        ("built", &built),
        ("shared hit", &shared_hit),
        ("local hit", &local_hit),
    ] {
        assert_eq!(
            r.value.to_bits(),
            reference.value.to_bits(),
            "{what}: the cache must be semantically invisible"
        );
        assert_eq!(r.backdoor, reference.backdoor, "{what}");
    }
}

#[test]
fn execute_batch_matches_sequential_execution_exactly() {
    let (db, _, graph) = credit_db(900, 5);
    let queries: Vec<String> = vec![
        "Use d Update(status) = 1 Output Count(Post(credit) = 'Good')".into(),
        "Use d Update(income) = 1 Output Count(Post(credit) = 'Good')".into(),
        "Use d When edu = 0 Update(status) = 1 Output Count(Post(credit) = 'Good')".into(),
        "Use d Update(status) = 0 Output Count(Post(credit) = 'Bad')".into(),
        "Use d Update(income) = 0 Output Count(Post(credit) = 'Good') For Pre(age) = 1".into(),
        // Repeats: exercise cache hits inside the batch itself.
        "Use d Update(status) = 1 Output Count(Post(credit) = 'Good')".into(),
    ];

    // Isolated sessions: this test pins down *local* cache accounting
    // (cross-session sharing has its own suite in shared_runtime_tests).
    let sequential_session = HyperSession::builder(db.clone())
        .graph(graph.clone())
        .share_artifacts(false)
        .build();
    let sequential: Vec<f64> = queries
        .iter()
        .map(|q| match sequential_session.execute(q).unwrap() {
            QueryOutcome::WhatIf(r) => r.value,
            QueryOutcome::HowTo(_) => unreachable!(),
        })
        .collect();

    let batch_session = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .build();
    let batch = batch_session.execute_batch(&queries);
    assert_eq!(batch.len(), queries.len());
    for (i, (seq, out)) in sequential.iter().zip(&batch).enumerate() {
        match out {
            Ok(QueryOutcome::WhatIf(r)) => {
                assert_eq!(
                    r.value, *seq,
                    "query {i} diverged between batch and sequential"
                )
            }
            other => panic!("query {i}: unexpected outcome {other:?}"),
        }
    }
    // All six queries share one relevant view.
    let stats = batch_session.stats();
    assert_eq!(stats.view_misses, 1);
    assert_eq!(stats.queries_executed, queries.len() as u64);
}

#[test]
fn batch_reports_per_query_errors_without_failing_the_rest() {
    let (db, _, graph) = confounded_db(300, 2);
    let session = HyperSession::builder(db).graph(graph).build();
    let out = session.execute_batch(&[
        WHATIF,
        "Use d utter nonsense",
        "Use ghost_table Update(b) = 1 Output Count(*)",
    ]);
    assert!(out[0].is_ok());
    assert!(out[1].is_err(), "parse error surfaces in its slot");
    assert!(out[2].is_err(), "unknown table surfaces in its slot");
}

#[test]
fn concurrent_prepared_executions_agree() {
    let (db, _, graph) = confounded_db(500, 13);
    let session = HyperSession::builder(db).graph(graph).build();
    let prepared = session.prepare(WHATIF).unwrap();
    let reference = prepared.execute_whatif().unwrap().value;

    let prepared = Arc::new(prepared);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let p = Arc::clone(&prepared);
            scope.spawn(move || {
                let r = p.execute_whatif().unwrap();
                assert_eq!(r.value, reference);
            });
        }
    });
    let stats = session.stats();
    assert_eq!(
        stats.estimator_misses, 1,
        "one training even under contention"
    );
    assert!(stats.estimator_hits >= 8);
}

#[test]
fn cold_concurrent_identical_queries_build_each_artifact_once() {
    // Eight copies of the same query hitting an empty cache from parallel
    // workers: the single-flight slots must hand seven of them the one
    // view/estimator the eighth builds. Isolated from the process-wide
    // store, so the session's own tier is the single-flight point and
    // every waiter counts as a local hit (with the store attached, a
    // waiter that reaches the shared slot before the builder installs
    // the model locally counts as a shared hit instead).
    let (db, _, graph) = confounded_db(600, 17);
    let session = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .build();
    let queries = vec![WHATIF; 8];
    let out = session.execute_batch(&queries);
    let mut values = Vec::new();
    for o in out {
        match o.unwrap() {
            QueryOutcome::WhatIf(r) => values.push(r.value),
            QueryOutcome::HowTo(_) => unreachable!(),
        }
    }
    assert!(
        values.windows(2).all(|w| w[0] == w[1]),
        "all equal: {values:?}"
    );
    let stats = session.stats();
    assert_eq!(
        stats.view_misses, 1,
        "view built exactly once under contention"
    );
    assert_eq!(stats.estimator_misses, 1, "estimator trained exactly once");
    assert_eq!(stats.estimator_hits, 7);
}

#[test]
fn howto_through_a_session_reuses_one_view_and_matches_a_cold_session() {
    let (db, _, graph) = credit_db(800, 9);
    let (db, graph) = (Arc::new(db), Arc::new(graph));
    let text = "Use d HowToUpdate status, income ToMaximize Count(Post(credit) = 'Good')";
    let opts = HowToOptions {
        buckets: 3,
        max_attrs_updated: Some(1),
    };
    let shared = || session_over(&db, &graph, &opts, true);
    let cold = session_over(&db, &graph, &opts, false);
    let reference = cold.howto_text(text).unwrap();

    let session = shared();
    let cached = session.howto_text(text).unwrap();
    let stats = session.stats();
    assert_eq!(
        stats.view_misses, 1,
        "all candidate what-ifs share the session's relevant view"
    );
    // The candidates evaluate on the view the how-to resolved once; only
    // the joint re-evaluation of a non-empty choice looks it up again.
    assert_eq!(
        stats.view_hits,
        u64::from(!cached.chosen.is_empty()),
        "{} candidate what-ifs",
        cached.whatif_evals
    );

    // A second session is served by the shared store and trains nothing.
    let other = shared();
    let shared_hit = other.howto_text(text).unwrap();
    assert_eq!(other.stats().estimator_misses, 0);
    assert!(other.stats().estimator_shared_hits > 0);

    // Re-running the same how-to hits the per-attribute estimator cache.
    let before = session.stats().estimator_misses;
    let rerun = session.howto_text(text).unwrap();
    assert_eq!(
        session.stats().estimator_misses,
        before,
        "second how-to trains no new estimators"
    );

    for (what, r) in [
        ("built", &cached),
        ("shared hit", &shared_hit),
        ("local hit", &rerun),
    ] {
        assert_eq!(
            r.objective.to_bits(),
            reference.objective.to_bits(),
            "{what}"
        );
        assert_eq!(r.baseline.to_bits(), reference.baseline.to_bits(), "{what}");
        assert_eq!(
            format!("{:?}", r.chosen),
            format!("{:?}", reference.chosen),
            "{what}"
        );
    }
}

#[test]
fn block_decomposition_is_computed_once() {
    let (db, _, graph) = confounded_db(200, 1);
    let session = HyperSession::builder(db).graph(graph).build();
    let a = session.block_decomposition().unwrap();
    let b = session.block_decomposition().unwrap();
    assert!(Arc::ptr_eq(&a, &b), "same shared decomposition");
    let stats = session.stats();
    assert_eq!(stats.block_misses, 1);
    assert!(stats.block_hits >= 1);
}

#[test]
fn sessions_with_different_configs_do_not_share_estimators() {
    let (db, _, graph) = confounded_db(600, 21);
    let session = HyperSession::builder(db)
        .graph(graph)
        .config(EngineConfig::hyper())
        .build();
    let hyper = session.whatif_text(WHATIF).unwrap();
    // Reconfiguring returns a fresh session (and fresh cache) — the Indep
    // baseline must not see HypeR's cached estimator.
    let session = session.with_config(EngineConfig::indep());
    assert_eq!(session.stats().estimator_hits, 0);
    assert_eq!(session.stats().estimator_misses, 0);
    let indep = session.whatif_text(WHATIF).unwrap();
    assert!(indep.backdoor.is_empty());
    assert!(!hyper.backdoor.is_empty());
}

#[test]
fn string_literal_case_differences_do_not_share_cache_entries() {
    // Value comparison is case-sensitive, so `= 'Good'` and `= 'GOOD'`
    // are different queries: the cache must key them separately. Update
    // attributes are keyed by resolved column, so their case folds into
    // one entry.
    let (db, _, graph) = credit_db(600, 8);
    let session = HyperSession::builder(db).graph(graph).build();
    let good = session
        .whatif_text("Use d Update(status) = 1 Output Count(Post(credit) = 'Good')")
        .unwrap();
    let shouty = session
        .whatif_text("Use d Update(status) = 1 Output Count(Post(credit) = 'GOOD')")
        .unwrap();
    assert!(good.value > 0.0);
    assert_eq!(shouty.value, 0.0, "no row has credit == 'GOOD'");
    assert_eq!(
        session.stats().estimator_misses,
        2,
        "literal-case variants train separate estimators"
    );

    // Attribute-name case variants agree in value (the engine resolves
    // attributes case-insensitively), and the estimator key holds the
    // resolved update column, so the variant reuses the `status` model.
    let upper = session
        .whatif_text("Use d Update(STATUS) = 1 Output Count(Post(credit) = 'Good')")
        .unwrap();
    assert_eq!(upper.value, good.value);
    assert_eq!(session.stats().estimator_misses, 2);
    assert_eq!(
        session.stats().views_cached,
        1,
        "same `Use d` clause, one view"
    );

    // Table lookup is case-sensitive, and the cache must not change that:
    // `Use D` fails identically on this warm session and on a cold one.
    let warm_err = session
        .whatif_text("Use D Update(status) = 1 Output Count(Post(credit) = 'Good')")
        .unwrap_err();
    let (db2, _, graph2) = credit_db(600, 8);
    let cold_err = HyperSession::builder(db2)
        .graph(graph2)
        .build()
        .whatif_text("Use D Update(status) = 1 Output Count(Post(credit) = 'Good')")
        .unwrap_err();
    assert_eq!(
        warm_err.to_string(),
        cold_err.to_string(),
        "cache warmth must not change query semantics"
    );
}

/// The acceptance scenario of the typed-builder redesign: one prepared
/// parameterized query swept over ≥ 20 bindings costs exactly one view
/// build, one estimator training and zero text parses — the binding
/// changes the update function, which is applied at evaluation.
#[test]
fn parameterized_sweep_reuses_view_and_never_parses() {
    let (db, _, graph) = confounded_db(700, 7);
    let session = HyperSession::builder(db).graph(graph).build();

    let template = WhatIf::over("d")
        .scale_param("b", "mult")
        .output_count(HExpr::post("y").eq(1));
    let prepared = session.prepare(template).unwrap();
    assert_eq!(prepared.params(), &["mult".to_string()]);
    assert_eq!(session.stats().view_misses, 1, "prepare builds the view");

    // A template with unbound parameters refuses plain execution.
    assert!(prepared.execute().is_err());
    // …and unbinding errors name the missing parameter.
    let err = prepared.execute_with(&Bindings::new()).unwrap_err();
    assert!(err.to_string().contains("mult"), "{err}");

    let mut values = Vec::new();
    for i in 0..24 {
        let mult = 1.01 + 0.02 * i as f64;
        let r = prepared
            .execute_whatif_with(&Bindings::new().set("mult", mult))
            .unwrap();
        values.push(r.value);
    }
    let stats = session.stats();
    assert_eq!(stats.view_misses, 1, "whole sweep shares one view");
    assert_eq!(stats.texts_parsed, 0, "no text was ever parsed");
    assert_eq!(
        stats.estimator_misses, 1,
        "every binding shares the one model fitted over `b`"
    );
    assert_eq!(stats.queries_executed, 24);

    // Re-running a binding is a pure cache hit.
    let again = prepared
        .execute_whatif_with(&Bindings::new().set("mult", 1.01))
        .unwrap();
    assert_eq!(again.value, values[0]);
    let done = session.stats();
    assert_eq!(done.estimator_misses, 1, "no new training on a re-run");
    assert!(done.estimator_hits >= 1);
}

/// A builder-made query and its parsed rendering share cache entries:
/// preparing/executing both moves only hit counters after the first build.
#[test]
fn built_and_parsed_queries_share_cache_entries() {
    let (db, _, graph) = confounded_db(600, 5);
    let session = HyperSession::builder(db).graph(graph).build();

    let built = WhatIf::over("d")
        .set("b", 1)
        .output_count(HExpr::post("y").eq(1))
        .build()
        .unwrap();
    let text = hyper_query::HypotheticalQuery::WhatIf(built.clone()).to_string();

    let a = session.prepare(built).unwrap().execute_whatif().unwrap();
    let warm = session.stats();
    assert_eq!(warm.view_misses, 1);
    assert_eq!(warm.estimator_misses, 1);
    assert_eq!(warm.texts_parsed, 0, "builder input parses nothing");

    // The rendered text parses to the same IR → same QueryKey → pure hits.
    let b = session.whatif_text(&text).unwrap();
    assert_eq!(a.value, b.value);
    let done = session.stats();
    assert_eq!(done.view_misses, 1, "no extra view build for the text form");
    assert!(done.view_hits > warm.view_hits, "view_hits incremented");
    assert_eq!(done.estimator_misses, 1, "no retraining for the text form");
    assert!(done.estimator_hits >= 1);
    assert_eq!(done.texts_parsed, 1);
}

/// `explain()` is deterministic in everything but cache provenance: a
/// cold report and a warm report agree after normalization, and the
/// provenance markers move from miss/would-build to hit.
#[test]
fn explain_is_stable_across_cache_warmth_except_provenance() {
    let (db, _, graph) = confounded_db(500, 3);
    let session = HyperSession::builder(db).graph(graph).build();

    let cold = session.explain(WHATIF).unwrap();
    assert_eq!(cold.view.provenance, Provenance::Miss, "cold view is built");
    let est = cold.estimator.as_ref().expect("probabilistic what-if");
    assert_eq!(
        est.provenance,
        Provenance::WouldBuild,
        "explain never trains"
    );
    assert_eq!(
        session.stats().estimator_misses,
        0,
        "explain trained nothing"
    );
    let blocks = cold.blocks.as_ref().expect("graph + single table");
    assert!(blocks.count > 0);
    assert!(!cold.adjustment.is_empty(), "FromGraph chose an adjustment");
    assert_eq!(cold.view.source_tables, vec!["d".to_string()]);

    // Execute for real, then explain again on the warm cache.
    session.whatif_text(WHATIF).unwrap();
    let warm = session.explain(WHATIF).unwrap();
    assert_eq!(warm.view.provenance, Provenance::Hit);
    assert_eq!(warm.estimator.as_ref().unwrap().provenance, Provenance::Hit);
    assert_eq!(warm.blocks.as_ref().unwrap().provenance, Provenance::Hit);
    assert_eq!(
        cold.normalized(),
        warm.normalized(),
        "everything but provenance is identical"
    );
    assert_ne!(cold, warm, "provenance itself did change");

    // The rendered report mentions the provenance markers.
    let text = warm.to_string();
    assert!(text.contains("[hit]"), "{text}");
}

/// Deterministic what-ifs (every Post reference updated) explain without
/// an estimator section.
#[test]
fn explain_reports_deterministic_fast_path() {
    let (db, _, graph) = confounded_db(300, 2);
    let session = HyperSession::builder(db).graph(graph).build();
    let report = session
        .explain("Use d Update(b) = 1 Output Count(Post(b) = 1)")
        .unwrap();
    assert!(report.deterministic);
    assert!(report.estimator.is_none());
    assert!(report.adjustment.is_empty());
}

/// A how-to explain surfaces the optimizer plan without enumerating or
/// evaluating any candidate.
#[test]
fn explain_describes_howto_plans() {
    let (db, _, graph) = credit_db(400, 6);
    let session = HyperSession::builder(db).graph(graph).build();
    let report = session
        .explain("Use d HowToUpdate status, income ToMaximize Count(Post(credit) = 'Good')")
        .unwrap();
    let plan = report.howto.expect("how-to plan");
    assert_eq!(plan.update_attrs, vec!["status", "income"]);
    assert_eq!(session.stats().estimator_misses, 0, "nothing was evaluated");
}

/// A `CacheBudget` caps the estimator store with LRU eviction; evicted
/// estimators retrain on their next use.
#[test]
fn cache_budget_evicts_least_recently_used_estimators() {
    let (db, _, graph) = credit_db(500, 4);
    // Isolated: with the shared store attached, an evicted estimator is
    // re-served from the process-wide tier instead of retraining (covered
    // in shared_runtime_tests); this test pins down the local LRU.
    let session = HyperSession::builder(db)
        .graph(graph)
        .cache_budget(CacheBudget::estimators(2))
        .share_artifacts(false)
        .build();
    let q = |attr: &str, v: i64| {
        format!("Use d Update({attr}) = {v} Output Count(Post(credit) = 'Good')")
    };

    // `status` and `income` adjust for each other here: one feature set,
    // one model. `age` and `edu` are roots, so each is a feature set of
    // its own.
    session.whatif_text(&q("status", 1)).unwrap();
    session.whatif_text(&q("age", 1)).unwrap();
    // Touch the first estimator so `age` becomes least-recent…
    session.whatif_text(&q("status", 1)).unwrap();
    // …then overflow the budget with a third attribute: `age` is
    // evicted. (Another `status` value would not do: it shares the
    // `status` model.)
    session.whatif_text(&q("edu", 1)).unwrap();

    let stats = session.stats();
    assert_eq!(stats.estimator_misses, 3);
    assert_eq!(stats.estimator_evictions, 1);
    assert_eq!(stats.estimators_cached, 2);

    // The survivor still hits, for any update value; the evicted query
    // retrains.
    session.whatif_text(&q("status", 1)).unwrap();
    session.whatif_text(&q("status", 0)).unwrap();
    assert_eq!(session.stats().estimator_misses, 3);
    session.whatif_text(&q("age", 1)).unwrap();
    let done = session.stats();
    assert_eq!(done.estimator_misses, 4, "evicted estimator retrained");
    assert_eq!(done.estimators_cached, 2);

    // Eviction must never change answers: a fresh unbounded session agrees.
    let (db2, _, graph2) = credit_db(500, 4);
    let unbounded = HyperSession::builder(db2).graph(graph2).build();
    assert_eq!(
        unbounded.whatif_text(&q("age", 1)).unwrap().value,
        session.whatif_text(&q("age", 1)).unwrap().value
    );
}

#[test]
fn prepare_rejects_invalid_queries_eagerly() {
    let (db, _, graph) = confounded_db(100, 4);
    let session = HyperSession::builder(db).graph(graph).build();
    assert!(
        session.prepare("Use d nonsense").is_err(),
        "parse error at prepare"
    );
    assert!(
        session
            .prepare("Use d Update(nope) = 1 Output Count(*)")
            .is_err(),
        "unknown update attribute caught at prepare, not execute"
    );
    assert!(
        session
            .prepare("Use ghost Update(b) = 1 Output Count(*)")
            .is_err(),
        "unknown table caught at prepare"
    );
}

/// A how-to template with `Param(…)` Limit bounds sweeps candidate grids
/// through `Bindings`: the relevant view is built once at prepare time and
/// shared by every bound combination — only the optimizer (candidate
/// enumeration + candidate evaluation) re-runs per binding.
#[test]
fn howto_limit_bound_sweep_rebuilds_only_the_optimizer() {
    use hyper_query::{Bound, HowTo};
    use hyper_storage::AggFunc;

    let (db, _, graph) = credit_db(3_000, 11);
    let session = HyperSession::builder(db)
        .graph(graph)
        .howto_options(HowToOptions {
            buckets: 3,
            ..HowToOptions::default()
        })
        .build();

    let template = HowTo::maximize(AggFunc::Avg, "income")
        .over("d")
        .update("age")
        .limit_range_bounds("edu", Some(Bound::param("lo")), None)
        .build();
    // A parameterized limit over a non-updated attr still fails validation.
    assert!(template.is_err(), "limit on non-updated attribute rejected");

    let template = HowTo::maximize(AggFunc::Avg, "income")
        .over("d")
        .update("age")
        .limit_range_bounds("age", Some(Bound::param("lo")), Some(Bound::param("hi")));
    let prepared = session.prepare(template).unwrap();
    assert_eq!(
        prepared.params(),
        &["lo".to_string(), "hi".to_string()],
        "limit bounds surface as template parameters"
    );
    assert_eq!(session.stats().view_misses, 1, "prepare builds the view");

    // Unbound execution refuses and names the parameters.
    let err = prepared.execute().unwrap_err();
    assert!(err.to_string().contains("lo"), "{err}");

    // Two-bound sweep: each binding re-keys only the optimizer work.
    let tight = prepared
        .execute_with(&Bindings::new().set("lo", 0.0).set("hi", 0.4))
        .unwrap();
    let wide = prepared
        .execute_with(&Bindings::new().set("lo", 0.0).set("hi", 1.0))
        .unwrap();
    let (QueryOutcome::HowTo(tight), QueryOutcome::HowTo(wide)) = (tight, wide) else {
        panic!("expected how-to results");
    };
    let stats = session.stats();
    assert_eq!(stats.view_misses, 1, "whole sweep shares one view build");
    assert_eq!(stats.texts_parsed, 0, "no text round-trips");
    assert!(
        wide.candidates >= tight.candidates,
        "wider bounds admit at least as many candidates ({} vs {})",
        wide.candidates,
        tight.candidates
    );
    for u in tight.chosen.iter().chain(&wide.chosen) {
        let hyper_query::UpdateFunc::Set(v) = &u.func else {
            panic!("bucketized candidates are Set updates")
        };
        let x = v.as_f64().unwrap();
        assert!((0.0..=1.0).contains(&x), "chosen update within bounds: {x}");
    }

    // Re-running a binding hits the estimator cache (no new training).
    let before = session.stats().estimator_misses;
    prepared
        .execute_with(&Bindings::new().set("lo", 0.0).set("hi", 0.4))
        .unwrap();
    assert_eq!(
        session.stats().estimator_misses,
        before,
        "repeated bound binding retrains nothing"
    );
}

/// Objective constants accept `Param(…)` end-to-end: one prepared how-to
/// template sweeps objective targets with a single view build and zero
/// parses, and an unresolved objective parameter is rejected by name.
#[test]
fn parameterized_objective_constant_sweeps_targets() {
    use hyper_query::{HOp, HowTo};

    let (db, _, graph) = credit_db(1_200, 13);
    let session = HyperSession::builder(db)
        .graph(graph)
        .howto_options(HowToOptions {
            buckets: 2,
            ..HowToOptions::default()
        })
        .build();

    let template = HowTo::maximize_count_param("credit", HOp::Eq, "target")
        .over("d")
        .update("status");
    let prepared = session.prepare(template).unwrap();
    assert_eq!(
        prepared.params(),
        &["target".to_string()],
        "the objective constant surfaces as a template parameter"
    );
    assert_eq!(session.stats().view_misses, 1, "prepare builds the view");

    // Unbound execution refuses and names the parameter.
    let err = prepared.execute().unwrap_err();
    assert!(err.to_string().contains("target"), "{err}");

    let good = prepared
        .execute_with(&Bindings::new().set("target", "Good"))
        .unwrap();
    let bad = prepared
        .execute_with(&Bindings::new().set("target", "Bad"))
        .unwrap();
    let (QueryOutcome::HowTo(good), QueryOutcome::HowTo(bad)) = (good, bad) else {
        panic!("expected how-to results");
    };
    // Maximizing Good-credit count and maximizing Bad-credit count pull
    // the objective in opposite directions off the same baseline data.
    assert!(good.objective >= good.baseline);
    assert!(bad.objective >= bad.baseline);
    let stats = session.stats();
    assert_eq!(stats.view_misses, 1, "the sweep shares one view build");
    assert_eq!(stats.texts_parsed, 0, "no text round-trips");

    // The parsed form of the template produces the same prepared params.
    let parsed = session
        .prepare("Use d HowToUpdate status ToMaximize Count(Post(credit) = Param(target))")
        .unwrap();
    assert_eq!(parsed.params(), &["target".to_string()]);
}

/// Tracing attributes phase-level time without changing any result: a
/// traced session returns bit-identical answers and accumulates
/// exclusive-time totals that partition the attributed total.
#[test]
fn tracing_attributes_phases_and_preserves_results() {
    let (db, _, graph) = confounded_db(600, 5);
    let (db, graph) = (Arc::new(db), Arc::new(graph));
    let plain = HyperSession::builder(Arc::clone(&db))
        .graph(Arc::clone(&graph))
        .share_artifacts(false)
        .build();
    let traced = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .tracing(true)
        .build();

    let a = plain.whatif_text(WHATIF).unwrap();
    let b = traced.whatif_text(WHATIF).unwrap();
    assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "tracing must not perturb results"
    );

    let off = plain.stats();
    assert_eq!(off.traced_queries, 0);
    assert_eq!(off.trace_total_ns, 0);

    let on = traced.stats();
    assert_eq!(on.traced_queries, 1);
    assert!(on.trace_total_ns > 0);
    assert!(
        on.phase_ns(hyper_trace::Phase::ForestTrain) > 0,
        "training time attributed: {on:?}"
    );
    assert_eq!(on.phase_count(hyper_trace::Phase::Execute), 1);
    // Exclusive times partition each traced query's tree, so the phase
    // totals sum exactly to the attributed total.
    let sum: u64 = on.trace_phase_ns.iter().sum();
    assert_eq!(sum, on.trace_total_ns, "phases partition the total");
    // `set_tracing(false)` stops accumulation.
    traced.set_tracing(false);
    traced.whatif_text(WHATIF).unwrap();
    assert_eq!(traced.stats().traced_queries, 1);
}

/// `explain_analyze` executes under a dedicated trace and reports phase
/// durations that sum to the attributed total and (single-threaded)
/// track the measured wall time; `normalized()` clears the measurement.
#[test]
fn explain_analyze_reports_phase_timings() {
    use hyper_trace::Phase;
    let (db, _, graph) = confounded_db(500, 9);
    let session = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .runtime(hyper_runtime::HyperRuntime::with_workers(0))
        .build();

    let cold = session.explain_analyze(WHATIF).unwrap();
    let t = cold.timings.as_ref().expect("analyze measures");
    assert!(t.total_ns() > 0);
    assert!(t.phase_ns(Phase::ForestTrain) > 0, "{t:?}");
    let sum: u64 = t.phases.iter().map(|p| p.self_ns).sum();
    assert_eq!(sum, t.total_ns(), "phases sum to the attributed total");
    // Single-threaded runtime: the attributed total is the traced wall
    // time minus only the instants outside the root span — within slop.
    assert!(t.total_ns() <= t.wall_ns, "{t:?}");
    let slop = (t.wall_ns / 5).max(5_000_000);
    assert!(
        t.wall_ns - t.total_ns() < slop,
        "attributed {} vs wall {}",
        t.total_ns(),
        t.wall_ns
    );
    // Post-execution provenance: the analyzed run trained the estimator.
    assert_eq!(cold.estimator.as_ref().unwrap().provenance, Provenance::Hit);
    // The measurement is not part of the plan.
    assert!(cold.normalized().timings.is_none());
    // A warm analyze attributes (almost) no training time.
    let warm = session.explain_analyze(WHATIF).unwrap();
    let wt = warm.timings.as_ref().unwrap();
    assert!(wt.phase_ns(Phase::ForestTrain) < t.phase_ns(Phase::ForestTrain));
    // The rendered report carries the timings section.
    let text = warm.to_string();
    assert!(text.contains("timings:"), "{text}");
    assert!(text.contains("cache_lookup"), "{text}");
}

/// An isolated session over `db`/`graph` under `config`: no shared store,
/// so its counters see only its own work.
fn isolated(
    db: hyper_storage::Database,
    graph: hyper_causal::CausalGraph,
    config: EngineConfig,
) -> HyperSession {
    HyperSession::builder(db)
        .graph(graph)
        .config(config)
        .share_artifacts(false)
        .build()
}

/// The estimator is keyed and fitted on the feature set, not the update
/// order: `Update(a) And Update(b)` and `Update(b) And Update(a)` train
/// one model and answer with the same bits.
#[test]
fn update_order_does_not_change_the_model() {
    let (db, _, graph) = three_cause_db(900, 61);
    let session = isolated(db, graph, EngineConfig::hyper());
    let ab = session
        .whatif_text("Use d Update(a) = 2 And Update(b) = 0 Output Count(Post(y) = 1)")
        .unwrap();
    let ba = session
        .whatif_text("Use d Update(b) = 0 And Update(a) = 2 Output Count(Post(y) = 1)")
        .unwrap();
    assert_eq!(ab.value.to_bits(), ba.value.to_bits());
    let stats = session.stats();
    assert_eq!(stats.estimator_misses, 1, "one training for both orders");
    assert_eq!(stats.estimator_hits, 1);
}

/// Single-attribute what-ifs whose update and adjustment columns make up
/// the same set share one training, and each answers exactly as a fresh
/// session that only ever ran it. Under HypeR-NB every cause of `y` is
/// adjusted for the other two, so all three — and their joint update —
/// have the feature set `{a, b, c}`.
#[test]
fn what_ifs_over_one_feature_set_share_one_training() {
    let queries = [
        "Use d Update(a) = 2 Output Count(Post(y) = 1)",
        "Use d Update(b) = 0 Output Count(Post(y) = 1)",
        "Use d Update(c) = 1 Output Count(Post(y) = 1)",
        "Use d Update(c) = 1 And Update(a) = 0 Output Count(Post(y) = 1)",
    ];
    let (db, _, graph) = three_cause_db(900, 62);
    let session = isolated(db.clone(), graph.clone(), EngineConfig::hyper_nb());
    for q in queries {
        let shared = session.whatif_text(q).unwrap();
        let fresh = isolated(db.clone(), graph.clone(), EngineConfig::hyper_nb())
            .whatif_text(q)
            .unwrap();
        assert_eq!(shared.value.to_bits(), fresh.value.to_bits(), "{q}");
    }
    let stats = session.stats();
    assert_eq!(stats.estimator_misses, 1, "one training for four what-ifs");
    assert_eq!(stats.estimator_hits, 3);
    assert_eq!(stats.estimators_cached, 1);
}

/// `explain` reads the estimator key from the same plan execution uses:
/// once `Update(savings)` has trained the model of German-Syn's feature
/// set, `explain` of `Update(status)` — the same set — reports a hit, and
/// executing it trains nothing.
#[test]
fn explain_reports_a_hit_for_a_shared_feature_set() {
    let data = hyper_datasets::german_syn_extended(1_000, 63);
    let session = isolated(data.db, data.graph, EngineConfig::hyper());
    let q = |attr: &str| {
        format!("Use german_syn Update({attr}) = 2 Output Count(Post(credit) = 'Good')")
    };
    let cold = session.explain(q("status")).unwrap().estimator.unwrap();
    assert_eq!(cold.provenance, Provenance::WouldBuild);
    session.whatif_text(&q("savings")).unwrap();
    let warm = session.explain(q("status")).unwrap().estimator.unwrap();
    assert_eq!(warm.provenance, Provenance::Hit, "{}", warm.key);
    assert_eq!(warm.key, cold.key);
    session.whatif_text(&q("status")).unwrap();
    assert_eq!(session.stats().estimator_misses, 1);
}

/// A concrete prepared what-if is planned once, at `prepare`: repeated
/// executions open no planning span and answer with the bits of an
/// ad-hoc query of the same text. A template is planned per binding, so
/// each binding answers like its own concrete query.
#[test]
fn prepared_whatif_plans_once_and_templates_plan_per_binding() {
    use hyper_trace::Phase;
    let (db, _, graph) = credit_db(1_200, 71);
    let session = HyperSession::builder(db)
        .graph(graph)
        .share_artifacts(false)
        .tracing(true)
        .build();
    const TEXT: &str = "Use d Update(status) = 1 Output Count(Post(credit) = 'Good')";

    let prepared = session.prepare(TEXT).unwrap();
    let plans = session.stats().phase_count(Phase::Plan);
    assert!(plans > 0, "prepare plans the query");
    let mut values = Vec::new();
    for _ in 0..50 {
        values.push(prepared.execute_whatif().unwrap().value);
        // A concrete query ignores bindings, as binding would.
        let with = prepared.execute_whatif_with(&Bindings::new().set("unused", 1));
        values.push(with.unwrap().value);
    }
    assert_eq!(
        session.stats().phase_count(Phase::Plan),
        plans,
        "executions of a prepared what-if plan nothing"
    );
    let adhoc = session.whatif_text(TEXT).unwrap().value;
    for v in values {
        assert_eq!(v.to_bits(), adhoc.to_bits());
    }

    // `For Pre(age) < Param(a)` selects a different scope per binding.
    let template = session
        .prepare(
            "Use d Update(status) = 1 Output Count(Post(credit) = 'Good') \
             For Pre(age) < Param(a)",
        )
        .unwrap();
    let concrete = |a: i64| {
        session
            .whatif_text(&format!(
                "Use d Update(status) = 1 Output Count(Post(credit) = 'Good') \
                 For Pre(age) < {a}"
            ))
            .unwrap()
            .value
    };
    let at = |a: i64| {
        template
            .execute_whatif_with(&Bindings::new().set("a", a))
            .unwrap()
            .value
    };
    let (one, two) = (at(1), at(2));
    assert_eq!(one.to_bits(), concrete(1).to_bits());
    assert_eq!(two.to_bits(), concrete(2).to_bits(), "re-planned at a=2");
    assert_ne!(one.to_bits(), two.to_bits(), "the scopes differ");
}

/// `PreparedQuery::explain` reports the plan its handle executes: the
/// same adjustment set and estimator key as a session explain of the
/// text.
#[test]
fn prepared_explain_agrees_with_session_explain() {
    let (db, _, graph) = credit_db(800, 73);
    let session = isolated(db, graph, EngineConfig::hyper());
    for text in [
        "Use d Update(status) = 1 Output Count(Post(credit) = 'Good') For Pre(age) = 1",
        "Use d Update(income) = 1 Output Count(Post(income) = 1)",
    ] {
        let prepared = session.prepare(text).unwrap();
        let from_handle = prepared.explain().unwrap();
        let from_text = session.explain(text).unwrap();
        assert_eq!(from_handle.normalized(), from_text.normalized(), "{text}");
        assert_eq!(
            prepared
                .explain_with(&Bindings::new())
                .unwrap()
                .normalized(),
            from_handle.normalized()
        );
    }
}
