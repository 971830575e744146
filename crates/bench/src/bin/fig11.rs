//! **Figure 11**: running time vs query complexity on Student-Syn —
//! (a) number of attributes in the `For` operator of a Count what-if,
//! (b) number of attributes in the `HowToUpdate` operator (HypeR IP vs
//! Opt-HowTo enumeration).
//!
//! ```sh
//! cargo run --release -p hyper-bench --bin fig11 [--quick]
//! ```

//! Times *cold* queries, as the paper's figures do: every timed call runs
//! on a fresh isolated session, so it pays its own view build and
//! training — a shared session cache would collapse the repeated runs
//! into cache hits.

use std::sync::Arc;

use hyper_bench::{cold_session, pad_with_noise, print_table, secs, time_avg, Flags};
use hyper_core::{EngineConfig, HowToOptions};

fn main() {
    let flags = Flags::parse();
    let students = flags.size(1_000, 10_000, 10_000);
    let data = hyper_datasets::student_syn(students, 5, 11);

    // Pad the student relation with extra root attributes so the sweeps
    // have enough attributes to add.
    let mut db = data.db.clone();
    let mut graph = data.graph.clone();
    pad_with_noise(&mut db, &mut graph, "student", 10, 42);
    let (db, graph) = (Arc::new(db), Arc::new(graph));

    let view = "
        Use (Select S.sid, S.age, S.country, S.attendance,
                S.pad_0, S.pad_1, S.pad_2, S.pad_3, S.pad_4,
                S.pad_5, S.pad_6, S.pad_7, S.pad_8, S.pad_9,
                Avg(P.assignment) As assignment, Avg(P.grade) As grade
         From student As S, participation As P
         Where S.sid = P.sid
         Group By S.sid, S.age, S.country, S.attendance,
                S.pad_0, S.pad_1, S.pad_2, S.pad_3, S.pad_4,
                S.pad_5, S.pad_6, S.pad_7, S.pad_8, S.pad_9)";

    // -------- (a) what-if: attributes in For --------
    let reps = if flags.quick { 1 } else { 2 };
    let config = EngineConfig::hyper();
    let whatif = |q: &hyper_query::WhatIfQuery| {
        cold_session(&db, &graph, &config)
            .build()
            .whatif(q)
            .expect("query evaluates")
    };
    let mut rows = Vec::new();
    for k in [0usize, 2, 5, 8, 10] {
        let mut conds: Vec<String> = (0..k).map(|i| format!("Pre(pad_{i}) >= 0")).collect();
        conds.insert(0, "Post(grade) > 60".into());
        let q = format!(
            "{view}
             Update(attendance) = 90
             Output Count(*)
             For {}",
            conds.join(" And ")
        );
        let parsed = match hyper_query::parse_query(&q).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(w) => w,
            _ => unreachable!(),
        };
        let d = time_avg(reps, || whatif(&parsed));
        let r = whatif(&parsed);
        rows.push(vec![
            k.to_string(),
            d.as_secs_f64().to_string()[..6.min(d.as_secs_f64().to_string().len())].to_string(),
            r.backdoor.len().to_string(),
        ]);
    }
    print_table(
        &format!("Fig 11a: what-if time vs #attributes in For ({students} students)"),
        &["For attrs", "time (s)", "regressor features"],
        &rows,
    );
    println!("expected shape: time grows with the For attribute count (each");
    println!("adds a conditioning feature to the regressor).");

    // -------- (b) how-to: attributes in HowToUpdate --------
    let attrs_pool: Vec<String> = (0..10).map(|i| format!("pad_{i}")).collect();
    let counts: &[usize] = if flags.quick {
        &[2, 4]
    } else {
        &[2, 4, 6, 8, 10]
    };
    let mut rows = Vec::new();
    for &k in counts {
        let attrs = attrs_pool[..k].join(", ");
        let q = format!(
            "{view}
             HowToUpdate {attrs}
             ToMaximize Avg(Post(grade))"
        );
        let parsed = match hyper_query::parse_query(&q).unwrap() {
            hyper_query::HypotheticalQuery::HowTo(h) => h,
            _ => unreachable!(),
        };
        let opts = HowToOptions {
            buckets: 3,
            max_attrs_updated: None,
        };
        let session = || {
            cold_session(&db, &graph, &config)
                .howto_options(opts.clone())
                .build()
        };
        let (ip, ip_d) = hyper_bench::time(|| session().howto(&parsed).expect("IP solves"));
        // Opt-HowTo enumerates (buckets+1)^k combinations — cap the sweep
        // where it stays tractable, mirroring the paper's ">90 minutes for
        // 10 attributes" observation without burning the harness budget.
        let brute_cell = if (4usize).pow(k as u32) <= 300 || flags.full {
            let (b, d) =
                hyper_bench::time(|| session().howto_bruteforce(&parsed).expect("enumerates"));
            format!("{} ({} evals)", secs(d), b.whatif_evals)
        } else {
            let evals = (4usize).pow(k as u32);
            format!("skipped (~{evals} evals)")
        };
        rows.push(vec![
            k.to_string(),
            format!("{} ({} evals)", secs(ip_d), ip.whatif_evals),
            brute_cell,
        ]);
    }
    print_table(
        "Fig 11b: how-to time vs #attributes in HowToUpdate",
        &["attrs", "HypeR (IP)", "Opt-HowTo (enumeration)"],
        &rows,
    );
    println!("expected shape: HypeR grows linearly in the candidate count;");
    println!("Opt-HowTo explodes exponentially (paper: 4 min at 5 attrs,");
    println!(">90 min at 10).");
}
