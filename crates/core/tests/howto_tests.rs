//! How-to engine integration tests: the IP optimizer must agree with the
//! exhaustive Opt-HowTo baseline (§5.4), respect Limit constraints, and
//! support the lexicographic multi-objective extension.
// These tests deliberately run through the deprecated `HyperEngine` shim:
// they double as coverage that the shim still delegates to the same
// evaluation pipeline the `HyperSession` API uses.
#![allow(deprecated)]

mod common;

use std::sync::Arc;

use common::{credit_db, three_cause_db};
use hyper_core::{EngineConfig, HowToOptions, HyperEngine, HyperSession};
use hyper_query::{parse_query, HowToQuery, HypotheticalQuery, UpdateFunc};

fn howto(text: &str) -> HowToQuery {
    match parse_query(text).unwrap() {
        HypotheticalQuery::HowTo(q) => q,
        _ => panic!("expected how-to"),
    }
}

const N: usize = 8_000;

#[test]
fn ip_matches_bruteforce_optimum() {
    let (db, _, graph) = credit_db(N, 3);
    // Maximize average income by updating its causes age/edu.
    let q = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(income))");
    let engine = HyperEngine::new(&db, Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: None,
    });
    let ip = engine.howto(&q).unwrap();
    let brute = engine.howto_bruteforce(&q).unwrap();
    assert!(
        (ip.objective - brute.objective).abs() < 1e-6,
        "IP {} vs brute force {}",
        ip.objective,
        brute.objective
    );
    // Setting age and edu to their maxima maximizes income probability.
    assert_eq!(ip.chosen.len(), 2);
    assert!(ip.objective > ip.baseline);
}

#[test]
fn budget_of_one_attribute_is_respected() {
    let (db, _, graph) = credit_db(N, 5);
    let q = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(income))");
    let engine = HyperEngine::new(&db, Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: Some(1),
    });
    let ip = engine.howto(&q).unwrap();
    assert_eq!(ip.chosen.len(), 1);
    let brute = engine.howto_bruteforce(&q).unwrap();
    assert!((ip.objective - brute.objective).abs() < 1e-6);
    // edu has the larger coefficient on income (0.25 vs 0.2 per level), but
    // age spans 3 levels (max effect 0.4): age to its max wins.
    assert!(ip.chosen[0].attr.eq_ignore_ascii_case("age"));
}

#[test]
fn limit_in_set_restricts_candidates() {
    let (db, _, graph) = credit_db(N, 7);
    let q = howto(
        "Use d HowToUpdate edu Limit Post(edu) In (0)
         ToMaximize Avg(Post(income))",
    );
    let engine = HyperEngine::new(&db, Some(&graph));
    let r = engine.howto(&q).unwrap();
    assert_eq!(r.candidates, 1);
    // Forcing edu to 0 can only hurt average income: optimizer keeps the
    // best between no-change (0 delta) and the forced candidate.
    assert!(r.objective <= r.baseline + 1e-9 || r.chosen.is_empty());
}

#[test]
fn range_limit_bounds_candidates() {
    let (db, _, graph) = credit_db(N, 11);
    let q = howto(
        "Use d HowToUpdate age Limit 0 <= Post(age) <= 1
         ToMaximize Avg(Post(income))",
    );
    let engine = HyperEngine::new(&db, Some(&graph)).with_howto_options(HowToOptions {
        buckets: 4,
        max_attrs_updated: None,
    });
    let r = engine.howto(&q).unwrap();
    for u in &r.chosen {
        let UpdateFunc::Set(v) = &u.func else {
            panic!()
        };
        let x = v.as_f64().unwrap();
        assert!((0.0..=1.0).contains(&x), "candidate {x} out of range");
    }
}

#[test]
fn minimization_direction() {
    let (db, _, graph) = credit_db(N, 13);
    let q = howto("Use d HowToUpdate age, edu ToMinimize Avg(Post(income))");
    let engine = HyperEngine::new(&db, Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: None,
    });
    let r = engine.howto(&q).unwrap();
    assert!(r.objective <= r.baseline + 1e-9);
    let brute = engine.howto_bruteforce(&q).unwrap();
    assert!((r.objective - brute.objective).abs() < 1e-6);
}

#[test]
fn lexicographic_two_objectives() {
    let (db, _, graph) = credit_db(N, 17);
    // First maximize income, then (subject to that) maximize status.
    let q1 = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(income))");
    let q2 = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(status))");
    let engine = HyperEngine::new(&db, Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: None,
    });
    let lex = engine.howto_lexicographic(&[q1.clone(), q2]).unwrap();
    assert_eq!(lex.achieved.len(), 2);
    // The primary objective must match the single-objective optimum. The
    // lexicographic solver may pick a different tie-breaking update set, so
    // compare jointly-evaluated values with a small relative tolerance.
    let single = engine.howto(&q1).unwrap();
    let rel = (lex.achieved[0] - single.objective).abs() / single.objective.abs().max(1e-9);
    assert!(
        rel < 0.02,
        "lexicographic primary {} vs single {}",
        lex.achieved[0],
        single.objective
    );
}

#[test]
fn lexicographic_rejects_mismatched_scaffolding() {
    let (db, _, graph) = credit_db(1000, 19);
    let q1 = howto("Use d HowToUpdate age ToMaximize Avg(Post(income))");
    let q2 = howto("Use d HowToUpdate edu ToMaximize Avg(Post(status))");
    let engine = HyperEngine::new(&db, Some(&graph));
    assert!(engine.howto_lexicographic(&[q1, q2]).is_err());
}

#[test]
fn render_reports_no_change_attributes() {
    let (db, _, graph) = credit_db(N, 23);
    let q = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(income))");
    let engine = HyperEngine::new(&db, Some(&graph)).with_howto_options(HowToOptions {
        buckets: 2,
        max_attrs_updated: Some(1),
    });
    let r = engine.howto(&q).unwrap();
    let rendered = r.render(&["age".into(), "edu".into()]);
    assert!(rendered.contains("no change"), "{rendered}");
}

#[test]
fn objective_attr_must_not_be_updated() {
    let (db, _, graph) = credit_db(1000, 29);
    let q = howto("Use d HowToUpdate income ToMaximize Avg(Post(income))");
    assert!(HyperEngine::new(&db, Some(&graph)).howto(&q).is_err());
}

#[test]
fn indep_config_changes_howto_choice_or_value() {
    // Not a strict invariant, but the configs must at least run end-to-end
    // and produce a well-formed result.
    let (db, _, graph) = credit_db(N, 31);
    let q = howto("Use d HowToUpdate status ToMaximize Count(Post(credit) = 'Good')");
    let hyper = HyperEngine::new(&db, Some(&graph)).howto(&q).unwrap();
    let indep = HyperEngine::new(&db, None)
        .with_config(EngineConfig::indep())
        .howto(&q)
        .unwrap();
    assert!(hyper.objective >= hyper.baseline);
    assert!(indep.objective >= indep.baseline);
}

/// Candidate values share the model of their attribute: the IP trains one
/// estimator per attribute plus one for the chosen joint update, and
/// Opt-HowTo one per distinct attribute subset it enumerates — not one
/// per value combination.
#[test]
fn trainings_follow_attribute_subsets_not_candidate_values() {
    let (db, _, graph) = three_cause_db(3_000, 37);
    let (db, graph) = (Arc::new(db), Arc::new(graph));
    let q = howto("Use d HowToUpdate a, b, c ToMaximize Count(Post(y) = 1)");
    let session = || {
        HyperSession::builder(Arc::clone(&db))
            .graph(Arc::clone(&graph))
            .howto_options(HowToOptions {
                buckets: 3,
                max_attrs_updated: None,
            })
            .share_artifacts(false)
            .build()
    };

    let s = session();
    let ip = s.howto(&q).unwrap();
    assert_eq!(ip.chosen.len(), 3, "every cause raises y: {:?}", ip.chosen);
    assert!(
        ip.whatif_evals > 4,
        "{} candidate evaluations",
        ip.whatif_evals
    );
    assert_eq!(
        s.stats().estimator_misses,
        3 + 1,
        "one model per attribute, plus the joint (a, b, c) check"
    );

    let s = session();
    let brute = s.howto_bruteforce(&q).unwrap();
    assert!(brute.whatif_evals > 7, "{} evaluations", brute.whatif_evals);
    assert_eq!(
        s.stats().estimator_misses,
        7,
        "one model per non-empty subset of {{a, b, c}}"
    );
    assert!((ip.objective - brute.objective).abs() < 1e-6);
}

/// Attributes whose adjustment sets complete one feature set share one
/// model: on German-Syn-ext each of `status`, `savings`, `housing` and
/// `credit_amount` is adjusted for the other three, so the IP trains once
/// for all its candidates and the joint re-evaluation of its choice.
#[test]
fn attributes_over_one_feature_set_train_once() {
    let data = hyper_datasets::german_syn_extended(2_000, 38);
    let session = HyperSession::builder(data.db)
        .graph(data.graph)
        .howto_options(HowToOptions {
            buckets: 3,
            max_attrs_updated: None,
        })
        .share_artifacts(false)
        .build();
    let r = session
        .howto_text(
            "Use german_syn HowToUpdate status, savings, housing, credit_amount \
             ToMaximize Count(Post(credit) = 'Good')",
        )
        .unwrap();
    assert!(r.whatif_evals > 4, "{} evaluations", r.whatif_evals);
    assert_eq!(session.stats().estimator_misses, 1);
}
