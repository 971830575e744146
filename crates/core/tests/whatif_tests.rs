//! What-if engine integration tests: the estimator must track the exact
//! possible-world oracle, the variants must behave as the paper describes
//! (Fig. 10: HypeR ≈ ground truth, Indep biased by confounding).

mod common;

use common::{confounded_db, credit_db};
use hyper_core::{exact_whatif, EngineConfig, HyperSession};
use hyper_query::{parse_query, HypotheticalQuery, WhatIfQuery};

fn whatif(text: &str) -> WhatIfQuery {
    match parse_query(text).unwrap() {
        HypotheticalQuery::WhatIf(q) => q,
        _ => panic!("expected what-if"),
    }
}

const N: usize = 20_000;

#[test]
fn estimator_tracks_oracle_on_count_query() {
    let (db, scm, graph) = confounded_db(N, 7);
    let q = whatif("Use d Update(b) = 1 Output Count(Post(y) = 1)");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let session = HyperSession::new(db.clone(), Some(&graph));
    let est = session.whatif(&q).unwrap();
    // Exact interventional: P(y=1 | do(b=1)) = 0.66 → count ≈ 0.66·N.
    let rel_err = (est.value - exact).abs() / exact;
    assert!(
        rel_err < 0.05,
        "estimate {} vs oracle {exact} (rel err {rel_err:.3})",
        est.value
    );
    assert!((exact / N as f64 - 0.66).abs() < 0.01);
}

#[test]
fn indep_baseline_is_confounded() {
    let (db, scm, graph) = confounded_db(N, 11);
    let q = whatif("Use d Update(b) = 1 Output Count(Post(y) = 1)");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();

    let hyper = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let indep = HyperSession::new(db.clone(), None)
        .with_config(EngineConfig::indep())
        .whatif(&q)
        .unwrap();

    let hyper_err = (hyper.value - exact).abs() / exact;
    let indep_err = (indep.value - exact).abs() / exact;
    // Indep estimates P(y=1 | b=1) ≈ 0.7224 instead of 0.66: ~9.5% high.
    assert!(hyper_err < 0.05, "HypeR err {hyper_err:.3}");
    assert!(
        indep_err > 0.05,
        "Indep must be visibly biased, err {indep_err:.3}"
    );
    assert!(indep.value > hyper.value, "confounding inflates Indep here");
}

#[test]
fn nb_variant_matches_hyper_when_all_attrs_are_safe() {
    // In the confounded model, conditioning on everything except b, y is
    // exactly {z} — the true backdoor set — so NB agrees with HypeR.
    let (db, scm, graph) = confounded_db(N, 13);
    let q = whatif("Use d Update(b) = 1 Output Count(Post(y) = 1)");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let nb = HyperSession::new(db.clone(), None)
        .with_config(EngineConfig::hyper_nb())
        .whatif(&q)
        .unwrap();
    let err = (nb.value - exact).abs() / exact;
    assert!(err < 0.05, "NB err {err:.3}");
    assert_eq!(nb.backdoor, vec!["z".to_string()]);
    let hyper = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    assert_eq!(hyper.backdoor, vec!["z".to_string()]);
}

#[test]
fn sampled_variant_stays_accurate() {
    let (db, scm, graph) = confounded_db(N, 17);
    let q = whatif("Use d Update(b) = 1 Output Count(Post(y) = 1)");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let sampled = HyperSession::new(db.clone(), Some(&graph))
        .with_config(EngineConfig::hyper_sampled(4_000))
        .whatif(&q)
        .unwrap();
    assert_eq!(sampled.trained_rows, 4_000);
    let err = (sampled.value - exact).abs() / exact;
    assert!(err < 0.08, "sampled err {err:.3}");
}

#[test]
fn when_clause_restricts_update_set() {
    let (db, scm, graph) = confounded_db(N, 19);
    // Update only z=0 rows; z=1 rows keep observational behaviour.
    let q = whatif("Use d When z = 0 Update(b) = 1 Output Count(Post(y) = 1)");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let rel = (est.value - exact).abs() / exact;
    assert!(rel < 0.05, "estimate {} vs oracle {exact}", est.value);
    // The oracle itself: z=0 rows contribute P(y=1|z=0,do(b=1)) = 0.5 each;
    // z=1 rows contribute their observed y.
    assert!(est.n_updated_rows < est.n_view_rows);
}

#[test]
fn for_clause_pre_conditions_select_scope() {
    let (db, scm, graph) = confounded_db(N, 23);
    let q = whatif("Use d Update(b) = 1 Output Count(Post(y) = 1) For Pre(z) = 1");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    // All scoped rows have z=1: P(y=1 | z=1, do(b=1)) = 0.9.
    let n_z1 = est.n_scope_rows as f64;
    assert!((exact / n_z1 - 0.9).abs() < 0.02);
    let rel = (est.value - exact).abs() / exact;
    assert!(rel < 0.05);
}

#[test]
fn avg_aggregate_tracks_oracle() {
    let (db, scm, graph) = credit_db(N, 29);
    let q = whatif("Use d Update(status) = 1 Output Avg(Post(income))");
    // income is NOT a descendant of status → avg income unchanged.
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    assert!(
        (est.value - exact).abs() < 0.03,
        "estimate {} vs oracle {exact}",
        est.value
    );
}

#[test]
fn count_on_string_outcome() {
    let (db, scm, graph) = credit_db(N, 31);
    let q = whatif("Use d Update(status) = 1 Output Count(Post(credit) = 'Good')");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let rel = (est.value - exact).abs() / exact;
    assert!(rel < 0.05, "estimate {} vs oracle {exact}", est.value);
}

#[test]
fn deterministic_path_when_post_refers_to_updated_attr() {
    let (db, _, graph) = confounded_db(1000, 37);
    // Post(b) is fully determined by the update: no estimation needed.
    let q = whatif("Use d Update(b) = 1 Output Count(Post(b) = 1)");
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    assert_eq!(est.value, 1000.0);
    assert_eq!(est.trained_rows, 0, "deterministic fast path");
}

#[test]
fn count_star_with_post_free_for_is_plain_count() {
    let (db, _, graph) = confounded_db(1000, 41);
    let q = whatif("Use d Update(b) = 1 Output Count(*) For Pre(z) = 0");
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let z0 = db
        .table("d")
        .unwrap()
        .column_by_name("z")
        .unwrap()
        .iter()
        .filter(|v| *v == hyper_storage::Value::Int(0))
        .count();
    assert_eq!(est.value, z0 as f64);
}

#[test]
fn scale_and_shift_updates_apply() {
    let (db, _, graph) = confounded_db(500, 43);
    let q = whatif("Use d Update(b) = 2 * Pre(b) Output Avg(Post(b))");
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let mean_b: f64 = db
        .table("d")
        .unwrap()
        .column_by_name("b")
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .sum::<f64>()
        / 500.0;
    assert!((est.value - 2.0 * mean_b).abs() < 1e-9);
}

#[test]
fn unknown_attribute_is_a_validation_error() {
    let (db, _, graph) = confounded_db(100, 47);
    let q = whatif("Use d Update(ghost) = 1 Output Count(Post(y) = 1)");
    assert!(HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .is_err());
}

#[test]
fn from_graph_mode_without_graph_errors() {
    let (db, _, _) = confounded_db(100, 53);
    let q = whatif("Use d Update(b) = 1 Output Count(Post(y) = 1)");
    let err = HyperSession::new(db.clone(), None).whatif(&q).unwrap_err();
    assert!(matches!(err, hyper_core::EngineError::Causal(_)));
}

#[test]
fn engine_execute_dispatches_by_query_kind() {
    let (db, _, graph) = confounded_db(2000, 59);
    let session = HyperSession::new(db.clone(), Some(&graph));
    let out = session
        .execute("Use d Update(b) = 1 Output Count(Post(y) = 1)")
        .unwrap();
    assert!(matches!(out, hyper_core::QueryOutcome::WhatIf(_)));
}

#[test]
fn multi_update_tracks_oracle() {
    // Update two causally independent attributes simultaneously.
    let (db, scm, graph) = credit_db(N, 71);
    let q = whatif(
        "Use d Update(income) = 1 And Update(status) = 1
         Output Count(Post(credit) = 'Good')",
    );
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let rel = (est.value - exact).abs() / exact;
    assert!(rel < 0.05, "estimate {} vs oracle {exact}", est.value);
}

#[test]
fn multi_update_on_connected_attrs_rejected() {
    // edu → income: connected, so a joint update must be rejected.
    let (db, _, graph) = credit_db(1000, 73);
    let q = whatif(
        "Use d Update(edu) = 1 And Update(income) = 1
         Output Count(Post(credit) = 'Good')",
    );
    let err = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap_err();
    assert!(matches!(err, hyper_core::EngineError::Unsupported(_)));
}

#[test]
fn avg_with_post_condition_in_for_tracks_oracle() {
    let (db, scm, graph) = confounded_db(N, 79);
    // Average of y over rows whose post-update y is 1 is trivially 1 — use
    // the reverse: average of z over rows with post y = 1? z isn't post.
    // Instead: Avg(Post(y)) restricted by a post condition on y is a
    // degenerate check; use Sum with a post condition.
    let q = whatif("Use d Update(b) = 1 Output Sum(Post(y)) For Post(y) = 1");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let est = HyperSession::new(db.clone(), Some(&graph))
        .whatif(&q)
        .unwrap();
    let rel = (est.value - exact).abs() / exact.max(1.0);
    assert!(rel < 0.05, "estimate {} vs oracle {exact}", est.value);
}

#[test]
fn cells_estimator_is_nearly_exact_on_discrete_data() {
    // The cell estimator IS the empirical adjustment formula: on discrete
    // data it should match the oracle even more tightly than the forest.
    let (db, scm, graph) = confounded_db(N, 83);
    let q = whatif("Use d Update(b) = 1 Output Count(Post(y) = 1)");
    let exact = exact_whatif(&scm, db.table("d").unwrap(), &q).unwrap();
    let cells = HyperSession::new(db.clone(), Some(&graph))
        .with_config(EngineConfig {
            estimator: hyper_core::EstimatorKind::Cells,
            ..EngineConfig::hyper()
        })
        .whatif(&q)
        .unwrap();
    let rel = (cells.value - exact).abs() / exact;
    assert!(
        rel < 0.02,
        "cells estimator err {rel:.4} (should be ~exact)"
    );
}

#[test]
fn cells_estimator_handles_unseen_update_values() {
    // Setting b to a value never observed jointly with some z: the marginal
    // fallback must keep the estimate finite and in range.
    let (db, _, graph) = confounded_db(2000, 89);
    let q = whatif("Use d Update(b) = 7 Output Count(Post(y) = 1)");
    let cells = HyperSession::new(db.clone(), Some(&graph))
        .with_config(EngineConfig {
            estimator: hyper_core::EstimatorKind::Cells,
            ..EngineConfig::hyper()
        })
        .whatif(&q)
        .unwrap();
    assert!(cells.value >= 0.0 && cells.value <= 2000.0);
}
