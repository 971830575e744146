//! How-to engine integration tests: the IP optimizer must agree with the
//! exhaustive Opt-HowTo baseline (§5.4), respect Limit constraints, and
//! support the lexicographic multi-objective extension.

mod common;

use std::sync::Arc;

use common::{credit_db, three_cause_db};
use hyper_core::{EngineConfig, HowToOptions, HyperSession};
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
    let session = HyperSession::new(db.clone(), Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: None,
    });
    let ip = session.howto(&q).unwrap();
    let brute = session.howto_bruteforce(&q).unwrap();
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
    let session = HyperSession::new(db.clone(), Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: Some(1),
    });
    let ip = session.howto(&q).unwrap();
    assert_eq!(ip.chosen.len(), 1);
    let brute = session.howto_bruteforce(&q).unwrap();
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
    let session = HyperSession::new(db.clone(), Some(&graph));
    let r = session.howto(&q).unwrap();
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
    let session = HyperSession::new(db.clone(), Some(&graph)).with_howto_options(HowToOptions {
        buckets: 4,
        max_attrs_updated: None,
    });
    let r = session.howto(&q).unwrap();
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
    let session = HyperSession::new(db.clone(), Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: None,
    });
    let r = session.howto(&q).unwrap();
    assert!(r.objective <= r.baseline + 1e-9);
    let brute = session.howto_bruteforce(&q).unwrap();
    assert!((r.objective - brute.objective).abs() < 1e-6);
}

#[test]
fn lexicographic_two_objectives() {
    let (db, _, graph) = credit_db(N, 17);
    // First maximize income, then (subject to that) maximize status.
    let q1 = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(income))");
    let q2 = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(status))");
    let session = HyperSession::new(db.clone(), Some(&graph)).with_howto_options(HowToOptions {
        buckets: 3,
        max_attrs_updated: None,
    });
    let lex = session.howto_lexicographic(&[q1.clone(), q2]).unwrap();
    assert_eq!(lex.achieved.len(), 2);
    // The primary objective must match the single-objective optimum. The
    // lexicographic solver may pick a different tie-breaking update set, so
    // compare jointly-evaluated values with a small relative tolerance.
    let single = session.howto(&q1).unwrap();
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
    let session = HyperSession::new(db.clone(), Some(&graph));
    assert!(session.howto_lexicographic(&[q1, q2]).is_err());
}

#[test]
fn render_reports_no_change_attributes() {
    let (db, _, graph) = credit_db(N, 23);
    let q = howto("Use d HowToUpdate age, edu ToMaximize Avg(Post(income))");
    let session = HyperSession::new(db.clone(), Some(&graph)).with_howto_options(HowToOptions {
        buckets: 2,
        max_attrs_updated: Some(1),
    });
    let r = session.howto(&q).unwrap();
    let rendered = r.render(&["age".into(), "edu".into()]);
    assert!(rendered.contains("no change"), "{rendered}");
}

#[test]
fn objective_attr_must_not_be_updated() {
    let (db, _, graph) = credit_db(1000, 29);
    let q = howto("Use d HowToUpdate income ToMaximize Avg(Post(income))");
    assert!(HyperSession::new(db.clone(), Some(&graph))
        .howto(&q)
        .is_err());
}

#[test]
fn indep_config_changes_howto_choice_or_value() {
    // Not a strict invariant, but the configs must at least run end-to-end
    // and produce a well-formed result.
    let (db, _, graph) = credit_db(N, 31);
    let q = howto("Use d HowToUpdate status ToMaximize Count(Post(credit) = 'Good')");
    let hyper = HyperSession::new(db.clone(), Some(&graph))
        .howto(&q)
        .unwrap();
    let indep = HyperSession::new(db.clone(), None)
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
/// `credit_amount` is adjusted for the other three, so every solver trains
/// once for all its candidates: the IP with the joint re-evaluation of its
/// choice, Opt-HowTo over every combination, and the lexicographic solver
/// over each objective's candidates.
#[test]
fn attributes_over_one_feature_set_train_once() {
    let data = hyper_datasets::german_syn_extended(2_000, 38);
    let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
    let q = howto(
        "Use german_syn HowToUpdate status, savings, housing, credit_amount \
         ToMaximize Count(Post(credit) = 'Good')",
    );
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
    let r = s.howto(&q).unwrap();
    assert!(r.whatif_evals > 4, "{} evaluations", r.whatif_evals);
    assert_eq!(s.stats().estimator_misses, 1, "IP");

    let s = session();
    let brute = s.howto_bruteforce(&q).unwrap();
    assert!(
        brute.whatif_evals > 16,
        "{} evaluations",
        brute.whatif_evals
    );
    assert_eq!(s.stats().estimator_misses, 1, "Opt-HowTo");

    let s = session();
    let lex = s.howto_lexicographic(&[q.clone(), q]).unwrap();
    assert!(
        lex.result.whatif_evals > 8,
        "{} evaluations",
        lex.result.whatif_evals
    );
    assert_eq!(s.stats().estimator_misses, 1, "lexicographic");
}

/// A small table whose candidate domains hit every typed min/max corner:
/// an Int column with NULLs, a Float column whose zero class is first
/// seen as `-0.0`, a string column with NULLs, and a Bool column.
fn domain_corner_db() -> hyper_storage::Database {
    use hyper_storage::{DataType, Database, Field, Schema, TableBuilder, Value};
    let schema = Schema::new(vec![
        Field::nullable("i", DataType::Int),
        Field::nullable("f", DataType::Float),
        Field::nullable("s", DataType::Str),
        Field::new("b", DataType::Bool),
        Field::new("y", DataType::Float),
    ])
    .unwrap();
    let mut t = TableBuilder::new("d", schema);
    for i in 0..40i64 {
        let int = if i % 7 == 3 {
            Value::Null
        } else {
            Value::Int((i * 5) % 11 - 4)
        };
        let float = match i {
            0 => Value::Float(-0.0),
            1 => Value::Float(0.0),
            _ if i % 9 == 4 => Value::Null,
            _ => Value::Float(((i * 3) % 13) as f64 * 0.75),
        };
        let s = if i % 8 == 5 {
            Value::Null
        } else {
            ["lo", "mid", "hi"][i as usize % 3].into()
        };
        t.push(vec![
            int,
            float,
            s,
            Value::Bool(i % 2 == 0),
            Value::Float(i as f64 / 10.0),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

/// Candidate lists and L1 costs, pinned bit for bit: the values, their
/// order and every `l1_cost` were captured before candidate domains read
/// min/max with a typed kernel instead of a frequency map.
#[test]
fn candidate_lists_and_costs_are_pinned() {
    use hyper_core::howto::candidates::generate_candidates;
    let db = domain_corner_db();
    let listed = |text: &str, when: Option<&[bool]>| -> Vec<String> {
        let q = howto(text);
        let view = hyper_core::build_relevant_view(&db, &q.use_clause).unwrap();
        generate_candidates(&view, when, &q, 4)
            .unwrap()
            .iter()
            .flatten()
            .map(|c| format!("{} {:?} {:#x}", c.attr, c.func, c.l1_cost.to_bits()))
            .collect()
    };
    let when: Vec<bool> = (0..40).map(|i| i % 4 != 0).collect();
    let all = listed("Use d HowToUpdate i, f, s, b ToMaximize Avg(Post(y))", None);
    let limited = listed(
        "Use d HowToUpdate i, f, s Limit 0 <= Post(f) <= 5 And L1(Pre(i), Post(i)) <= 4 \
         And Post(s) In ('lo', 'zz') ToMaximize Avg(Post(y))",
        Some(&when),
    );
    // The Float domain's minimum is the zero class as first seen: -0.0.
    let zero = listed(
        "Use d HowToUpdate f Limit Post(f) <= 0 ToMaximize Avg(Post(y))",
        None,
    );
    assert_eq!(zero, ["f Set(Float(-0.0)) 0x401099999999999a"]);
    assert_eq!(
        all,
        [
            "i Set(Float(-2.75)) 0x400d4ccccccccccd",
            "i Set(Float(-0.25)) 0x40054ccccccccccd",
            "i Set(Float(2.25)) 0x4005333333333333",
            "i Set(Float(4.75)) 0x400c333333333333",
            "f Set(Float(1.125)) 0x400b333333333333",
            "f Set(Float(3.375)) 0x4003400000000000",
            "f Set(Float(5.625)) 0x4002cccccccccccd",
            "f Set(Float(7.875)) 0x400a733333333333",
            "s Set(Str(\"hi\")) 0x3fe7333333333333",
            "s Set(Str(\"lo\")) 0x3fe599999999999a",
            "s Set(Str(\"mid\")) 0x3fe7333333333333",
            "b Set(Bool(false)) 0x3fe0000000000000",
            "b Set(Bool(true)) 0x3fe0000000000000",
        ]
    );
    assert_eq!(
        limited,
        [
            "i Set(Float(-2.75)) 0x400d888888888889",
            "i Set(Float(-0.25)) 0x4005cccccccccccd",
            "i Set(Float(2.25)) 0x4005aaaaaaaaaaab",
            "i Set(Float(4.75)) 0x400baaaaaaaaaaab",
            "f Set(Float(0.625)) 0x400c800000000000",
            "f Set(Float(1.875)) 0x400719999999999a",
            "f Set(Float(3.125)) 0x4003d55555555555",
            "f Set(Float(4.375)) 0x4002d55555555555",
            "s Set(Str(\"lo\")) 0x3fe6666666666666",
            "s Set(Str(\"zz\")) 0x3ff0000000000000",
        ]
    );
}

/// Student-Syn's per-student view, with the participation averages.
const STUDENT_VIEW: &str = "
    Use (Select S.sid, S.age, S.country, S.attendance,
            Avg(P.discussion) As discussion,
            Avg(P.announcements) As announcements,
            Avg(P.hand_raised) As hand_raised,
            Avg(P.assignment) As assignment,
            Avg(P.grade) As grade
     From student As S, participation As P
     Where S.sid = P.sid
     Group By S.sid, S.age, S.country, S.attendance)";

/// `attendance` causes `assignment`, `discussion` and `announcements`, so
/// no update may change it together with any of them (§3.1). With a
/// budget of two attributes both solvers must answer, each updating at
/// most one attribute of a connected pair, and agree on the objective;
/// the IP and the lexicographic solver carry a `Σ δ ≤ 1` constraint per
/// connected pair, and Opt-HowTo skips the connected combinations.
#[test]
fn connected_attributes_are_not_updated_together() {
    let data = hyper_datasets::student_syn(2_000, 5, 4);
    let session = HyperSession::builder(data.db)
        .graph(data.graph)
        .howto_options(HowToOptions {
            buckets: 4,
            max_attrs_updated: Some(2),
        })
        .share_artifacts(false)
        .build();
    let q = howto(&format!(
        "{STUDENT_VIEW} HowToUpdate attendance, assignment, discussion, announcements \
         ToMaximize Avg(Post(grade))"
    ));
    let ip = session.howto(&q).unwrap();
    let brute = session.howto_bruteforce(&q).unwrap();
    assert!(
        (ip.objective - brute.objective).abs() < 1e-6,
        "IP {} vs Opt-HowTo {}",
        ip.objective,
        brute.objective
    );
    let lex = session
        .howto_lexicographic(std::slice::from_ref(&q))
        .unwrap();
    for (solver, r) in [
        ("IP", &ip),
        ("Opt-HowTo", &brute),
        ("lexicographic", &lex.result),
    ] {
        let attrs: Vec<&str> = r.chosen.iter().map(|u| u.attr.as_str()).collect();
        assert!(
            !(attrs.contains(&"attendance") && attrs.len() > 1),
            "{solver} updates connected attributes: {attrs:?}"
        );
        assert!(r.objective > r.baseline, "{solver}: {r:?}");
    }
    // Each attribute has `candidates / 4` candidates; Opt-HowTo evaluates
    // every candidate, then every in-budget combination of up to two
    // attributes except attendance with one of the other three.
    let per_attr = brute.candidates / 4;
    let combos = 4 * per_attr + 3 * per_attr * per_attr;
    assert_eq!(brute.whatif_evals, brute.candidates + combos);
}

/// German-Syn's four updatable attributes are siblings, joined by no
/// causal path, so no combination is excluded: Opt-HowTo evaluates all
/// `(candidates + 1)^4 - 1` of them, and both solvers may update all four
/// attributes together (the pinned how-to of `tests/golden_bits.rs`).
#[test]
fn sibling_attributes_add_no_constraint() {
    let data = hyper_datasets::german_syn_extended(3_000, 1);
    let session = HyperSession::builder(data.db)
        .graph(data.graph)
        .howto_options(HowToOptions {
            buckets: 4,
            max_attrs_updated: None,
        })
        .share_artifacts(false)
        .build();
    let q = howto(
        "Use german_syn HowToUpdate status, savings, housing, credit_amount \
         ToMaximize Count(Post(credit) = 'Good')",
    );
    let ip = session.howto(&q).unwrap();
    assert_eq!(ip.chosen.len(), 4, "IP: {ip:?}");
    let brute = session.howto_bruteforce(&q).unwrap();
    assert_eq!(brute.chosen.len(), 4, "Opt-HowTo: {brute:?}");
    assert_eq!(brute.candidates, 16);
    assert_eq!(brute.whatif_evals, brute.candidates + 5usize.pow(4) - 1);
}
