//! Cross-crate integration tests: full pipelines from query text through
//! parsing, view construction, causal estimation, and optimization, on the
//! generated workloads.

use hyper_repro::prelude::*;
use hyper_repro::storage::csv;

#[test]
fn figure4_pipeline_on_simulated_amazon() {
    let data = hyper_repro::datasets::amazon(600, 8, 11);
    let engine = HyperSession::new(data.db.clone(), Some(&data.graph));
    let r = engine
        .whatif_text(
            "Use (Select T1.pid, T1.category, T1.price, T1.brand, T1.quality,
                     Avg(sentiment) As senti, Avg(T2.rating) As rtng
              From product As T1, review As T2
              Where T1.pid = T2.pid
              Group By T1.pid, T1.category, T1.price, T1.brand, T1.quality)
         When brand = 'Asus'
         Update(price) = 1.1 * Pre(price)
         Output Avg(Post(rtng))
         For Pre(category) = 'Laptop'",
        )
        .unwrap();
    assert!(
        r.value >= 1.0 && r.value <= 5.0,
        "rating in range: {}",
        r.value
    );
    assert!(r.n_scope_rows > 0);
    assert!(r.n_updated_rows > 0);
    // The graph-derived backdoor must include quality (the confounder of
    // price → rating in Figure 2).
    assert!(
        r.backdoor.iter().any(|c| c == "quality"),
        "backdoor {:?}",
        r.backdoor
    );
}

#[test]
fn whatif_is_deterministic_for_a_fixed_config() {
    let data = hyper_repro::datasets::german_syn(5000, 2);
    let engine = HyperSession::new(data.db.clone(), Some(&data.graph));
    let q = "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')";
    let a = engine.whatif_text(q).unwrap();
    let b = engine.whatif_text(q).unwrap();
    assert_eq!(a.value, b.value, "seeded estimation must be reproducible");
}

#[test]
fn german_syn_estimate_tracks_structural_ground_truth() {
    let data = hyper_repro::datasets::german_syn(20_000, 4);
    let engine = HyperSession::new(data.db.clone(), Some(&data.graph));
    let est = engine
        .whatif_text("Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')")
        .unwrap();
    // Ground truth: replay do(status = 3) through the structural equations.
    let scm = data.scm.as_ref().unwrap();
    let (_, post) = scm
        .sample_paired(
            "g",
            40_000,
            123,
            &[Intervention::new(
                "status",
                InterventionOp::Set(Value::Int(3)),
            )],
            None,
        )
        .unwrap();
    let p_good = post
        .column_by_name("credit")
        .unwrap()
        .iter()
        .filter(|v| v.as_str() == Some("Good"))
        .count() as f64
        / post.num_rows() as f64;
    let est_p = est.value / est.n_view_rows as f64;
    assert!(
        (est_p - p_good).abs() < 0.05,
        "estimated share {est_p:.3} vs ground truth {p_good:.3}"
    );
}

#[test]
fn student_multirelation_view_and_blocks() {
    let data = hyper_repro::datasets::student_syn(400, 5, 9);
    let engine = HyperSession::new(data.db.clone(), Some(&data.graph));
    // One block per student.
    let blocks = engine.block_decomposition().unwrap();
    assert_eq!(blocks.num_blocks(), 400);

    let r = engine
        .whatif_text(
            "Use (Select S.sid, S.age, S.country, S.attendance,
                     Avg(P.assignment) As assignment, Avg(P.grade) As grade
              From student As S, participation As P
              Where S.sid = P.sid
              Group By S.sid, S.age, S.country, S.attendance)
             Update(attendance) = 95
             Output Avg(Post(grade))",
        )
        .unwrap();
    assert_eq!(r.n_view_rows, 400);
    // Raising attendance to 95 must raise the average grade.
    let baseline: f64 = {
        let t = data.db.table("participation").unwrap();
        let g = t.column_by_name("grade").unwrap();
        g.iter().map(|v| v.as_f64().unwrap()).sum::<f64>() / g.len() as f64
    };
    assert!(
        r.value > baseline,
        "attendance→95 should raise grades: {} vs {baseline}",
        r.value
    );
}

#[test]
fn howto_pipeline_ip_vs_bruteforce_on_german_syn() {
    let data = hyper_repro::datasets::german_syn(4000, 6);
    let engine =
        HyperSession::new(data.db.clone(), Some(&data.graph)).with_howto_options(HowToOptions {
            buckets: 3,
            max_attrs_updated: Some(1),
        });
    let text = "Use german_syn
                HowToUpdate status, housing
                ToMaximize Count(Post(credit) = 'Good')";
    let ip = engine.howto_text(text).unwrap();
    let q = match parse_query(text).unwrap() {
        HypotheticalQuery::HowTo(q) => q,
        _ => unreachable!(),
    };
    let brute = engine.howto_bruteforce(&q).unwrap();
    assert!((ip.objective - brute.objective).abs() < 1e-9);
    // Status dominates housing in the credit equation.
    assert_eq!(ip.chosen.len(), 1);
    assert!(ip.chosen[0].attr.eq_ignore_ascii_case("status"));
    assert!(
        brute.whatif_evals > ip.whatif_evals,
        "brute force works harder"
    );
}

#[test]
fn execute_dispatch_and_error_paths() {
    let data = hyper_repro::datasets::german_syn(1000, 8);
    let engine = HyperSession::new(data.db.clone(), Some(&data.graph));
    let out = engine
        .execute("Use german_syn Update(status) = 1 Output Count(Post(credit) = 'Good')")
        .unwrap();
    assert!(matches!(out, QueryOutcome::WhatIf(_)));
    // Parse errors surface cleanly.
    assert!(engine.execute("Use german_syn nonsense").is_err());
    // Kind mismatch.
    assert!(engine
        .howto_text("Use german_syn Update(status) = 1 Output Count(*)")
        .is_err());
}

#[test]
fn prepared_queries_and_batches_through_the_umbrella_crate() {
    let data = hyper_repro::datasets::german_syn(4000, 3);
    let session = HyperSession::builder(data.db).graph(data.graph).build();
    let q = "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')";

    let prepared = session.prepare(q).unwrap();
    let a = prepared.execute_whatif().unwrap();
    let b = prepared.execute_whatif().unwrap();
    assert_eq!(a.value, b.value);
    let stats = session.stats();
    assert_eq!(stats.view_misses, 1);
    assert_eq!(stats.estimator_misses, 1);
    assert!(stats.estimator_hits >= 1, "second run came from the cache");

    // A batch over variations of the same scenario shares the view.
    let batch = session.execute_batch(&[
        "Use german_syn Update(status) = 1 Output Count(Post(credit) = 'Good')",
        "Use german_syn Update(status) = 2 Output Count(Post(credit) = 'Good')",
        q, // already cached: free
    ]);
    assert!(batch.iter().all(|r| r.is_ok()));
    match &batch[2] {
        Ok(QueryOutcome::WhatIf(r)) => assert_eq!(r.value, a.value),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(
        session.stats().view_misses,
        1,
        "one view for the whole session"
    );
}

#[test]
fn csv_round_trip_of_generated_data() {
    let data = hyper_repro::datasets::german_syn(500, 10);
    let table = data.db.table("german_syn").unwrap();
    let text = csv::to_csv(table);
    let back = csv::from_csv("german_syn", table.schema().clone(), &text).unwrap();
    assert_eq!(back.num_rows(), table.num_rows());
    assert_eq!(
        back.fingerprint(),
        table.fingerprint(),
        "CSV round-trip preserves full content"
    );
}

#[test]
fn variants_run_on_the_same_query() {
    let data = hyper_repro::datasets::german_syn(6000, 12);
    let q = "Use german_syn Update(savings) = 3 Output Count(Post(credit) = 'Good')";

    let hyper = HyperSession::new(data.db.clone(), Some(&data.graph))
        .whatif_text(q)
        .unwrap();
    let nb = HyperSession::new(data.db.clone(), None)
        .with_config(EngineConfig::hyper_nb())
        .whatif_text(q)
        .unwrap();
    let sampled = HyperSession::new(data.db.clone(), Some(&data.graph))
        .with_config(EngineConfig::hyper_sampled(2000))
        .whatif_text(q)
        .unwrap();
    let indep = HyperSession::new(data.db.clone(), None)
        .with_config(EngineConfig::indep())
        .whatif_text(q)
        .unwrap();

    for (name, r) in [
        ("hyper", &hyper),
        ("nb", &nb),
        ("sampled", &sampled),
        ("indep", &indep),
    ] {
        assert!(
            r.value >= 0.0 && r.value <= 6000.0,
            "{name} out of range: {}",
            r.value
        );
    }
    // NB conditions on more attributes than HypeR.
    assert!(nb.backdoor.len() >= hyper.backdoor.len());
    assert!(indep.backdoor.is_empty());
    assert_eq!(sampled.trained_rows, 2000);
}
