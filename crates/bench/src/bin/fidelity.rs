//! The paper-fidelity driver: reruns the experiments of the paper's §5,
//! prints the tables each one reports, and checks the claims the paper
//! draws from them.
//!
//! ```sh
//! cargo run --release -p hyper-bench --bin fidelity -- [--full] [experiment…]
//! ```
//!
//! With no experiment named, every experiment runs (about 15 s at the
//! default scale on 2 vCPUs); `--full` runs at the paper's scale (1M-row
//! German-Syn). Each claim prints one `PASS` or `FAIL` line with the values
//! it was checked on. Claims check deterministic quantities only (shares,
//! qualities, counts), never timings, so a `FAIL` means the engine's
//! answers moved. An experiment that panics fails as one claim. The
//! process exits 1 if any claim fails and 2 on an unknown argument.
//!
//! Every session is a fresh, isolated one from [`cold_session`] over one
//! `Arc`'d dataset: no artifact leaks from one experiment into the next,
//! and each timed call pays its own view build and training.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hyper_bench::{
    cold_session, ground_truth, howto_query, pad_with_noise, print_table, secs, time, time_avg,
    variants, whatif_query,
};
use hyper_causal::CausalGraph;
use hyper_core::{EngineConfig, HowToOptions, HowToResult, HyperSession, WhatIfResult};
use hyper_datasets::Dataset;
use hyper_query::{parse_query, UpdateFunc, WhatIfQuery};
use hyper_storage::{ColumnStats, Database, Value};

/// One checked statement, with the values it was checked on.
struct Claim {
    name: String,
    measured: String,
    pass: bool,
}

fn claim(name: impl Into<String>, pass: bool, measured: String) -> Claim {
    Claim {
        name: name.into(),
        measured,
        pass,
    }
}

/// An experiment's run: given `--full`, it prints its tables and returns
/// its claims.
type Run = fn(bool) -> Vec<Claim>;

/// An experiment: its name, its paper figure and its run.
type Experiment = (&'static str, &'static str, Run);

/// The experiments, in run order.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", "Table 1, what-if runtime per dataset", table1),
    ("fig6", "Fig. 6, output and time vs sample size", fig6),
    ("fig7", "Fig. 7, the what-if query templates", fig7),
    ("fig8", "Fig. 8, attribute importance", fig8),
    ("fig9", "Fig. 9, how-to vs bucket count", fig9),
    ("fig10", "Fig. 10 and §5.4, quality vs truth", fig10),
    ("fig11", "Fig. 11, runtime vs query complexity", fig11),
    ("fig12", "Fig. 12, runtime vs dataset size", fig12),
    ("usecases", "§5.3, the use cases", usecases),
];

/// Parse `[--full] [experiment…]` into `--full` and the experiments to
/// run, in table order (all of them when none is named).
fn parse_args<'a>(
    args: &[String],
    experiments: &'a [Experiment],
) -> Result<(bool, Vec<&'a Experiment>), String> {
    let mut full = false;
    let mut names = Vec::new();
    for arg in args {
        if arg == "--full" {
            full = true;
        } else if experiments.iter().any(|e| e.0 == arg) {
            names.push(arg.as_str());
        } else {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    let selected = experiments
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.0))
        .collect();
    Ok((full, selected))
}

/// Run the experiments `args` select and return the exit code: 0 when
/// every claim passes, 1 when one fails, 2 on a bad argument.
fn run(args: &[String], experiments: &[Experiment]) -> u8 {
    let (full, selected) = match parse_args(args, experiments) {
        Ok(parsed) => parsed,
        Err(msg) => {
            let names: Vec<&str> = experiments.iter().map(|e| e.0).collect();
            eprintln!(
                "fidelity: {msg}\nusage: fidelity [--full] [experiment…]\nexperiments: {}",
                names.join(" ")
            );
            return 2;
        }
    };
    let mut claims = Vec::new();
    for (name, figure, run) in selected {
        println!("\n######## {name}: {figure}");
        // A panicking experiment (a query the engine rejects) fails as one
        // claim, and the experiments after it still run.
        let found = std::panic::catch_unwind(|| run(full))
            .unwrap_or_else(|_| vec![claim(format!("{name} runs"), false, "it panicked".into())]);
        for c in &found {
            let verdict = if c.pass { "PASS" } else { "FAIL" };
            println!("{verdict} {}: {}", c.name, c.measured);
        }
        claims.extend(found);
    }
    let failed = claims.iter().filter(|c| !c.pass).count();
    println!(
        "\n{} of {} claims pass",
        claims.len() - failed,
        claims.len()
    );
    u8::from(failed > 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args, EXPERIMENTS))
}

/// A cold HypeR session over `data`, with the data's total row count.
fn hyper_session(data: Dataset) -> (HyperSession, f64) {
    let n = data.total_rows() as f64;
    let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
    (cold_session(&db, &graph, &EngineConfig::hyper()).build(), n)
}

/// `q` on a fresh isolated session: a cold what-if.
fn cold_whatif(
    db: &Arc<Database>,
    graph: &Arc<CausalGraph>,
    config: &EngineConfig,
    q: &WhatIfQuery,
) -> WhatIfResult {
    let session = cold_session(db, graph, config).build();
    session.whatif(q).expect("query evaluates")
}

/// A fresh isolated session for how-to queries: `buckets` candidates per
/// attribute, at most `max_attrs_updated` attributes updated.
fn howto_session(
    db: &Arc<Database>,
    graph: &Arc<CausalGraph>,
    config: &EngineConfig,
    buckets: usize,
    max_attrs_updated: Option<usize>,
) -> HyperSession {
    let opts = HowToOptions {
        buckets,
        max_attrs_updated,
    };
    cold_session(db, graph, config).howto_options(opts).build()
}

/// Scores a `credit` value 1 when it is `Good`, for a ground-truth share.
fn is_good(v: &Value) -> f64 {
    f64::from(u8::from(v.as_str() == Some("Good")))
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

/// **Table 1**: average runtime of a Count what-if per dataset, for
/// HypeR, HypeR-NB and Indep. The last German-Syn row also reports
/// HypeR(-NB)-sampled in parentheses, as in the paper.
fn table1(full: bool) -> Vec<Claim> {
    struct Case {
        label: String,
        data: Dataset,
        query: &'static str,
    }
    let big_n = if full { 1_000_000 } else { 200_000 };
    let big = if full { "1M" } else { "200k" };
    let (adult_n, students) = (32_000, 10_000);
    let german_syn = "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')";
    let cases = [
        Case {
            label: format!("Adult [31] (15 att, {adult_n} rows)"),
            data: hyper_datasets::adult(adult_n, 1),
            query: "Use adult Update(marital) = 'Married' Output Count(Post(income) = '>50K')",
        },
        Case {
            label: "German [20] (21 att, 1k rows)".into(),
            data: hyper_datasets::german(2),
            query: "Use german Update(status) = 3 Output Count(Post(credit) = 'Good')",
        },
        Case {
            label: "Amazon [27] (5,3 att, 3k products)".into(),
            data: hyper_datasets::amazon(3_000, 9, 3),
            query: "Use (Select T1.pid, T1.category, T1.price, T1.brand, T1.quality,
                           Avg(T2.rating) As rtng
                    From product As T1, review As T2
                    Where T1.pid = T2.pid
                    Group By T1.pid, T1.category, T1.price, T1.brand, T1.quality)
                    When category = 'Laptop'
                    Update(price) = 0.8 * Pre(price)
                    Output Count(Post(rtng) > 4)",
        },
        Case {
            label: format!("Student-syn (3,6 att, {students}/{} rows)", students * 5),
            data: hyper_datasets::student_syn(students, 5, 4),
            query: "Use (Select S.sid, S.age, S.country, S.attendance,
                           Avg(P.assignment) As assignment, Avg(P.grade) As grade
                    From student As S, participation As P
                    Where S.sid = P.sid
                    Group By S.sid, S.age, S.country, S.attendance)
                    Update(attendance) = 90
                    Output Count(Post(grade) > 70)",
        },
        Case {
            label: "German-Syn (20k)".into(),
            data: hyper_datasets::german_syn(20_000, 5),
            query: german_syn,
        },
        Case {
            label: format!("German-Syn ({big})"),
            data: hyper_datasets::german_syn(big_n, 6),
            query: german_syn,
        },
    ];

    let mut rows = Vec::new();
    let last = cases.len() - 1;
    for (ci, case) in cases.into_iter().enumerate() {
        let mut cells = vec![case.label, case.data.total_rows().to_string()];
        let (db, graph) = (Arc::new(case.data.db), Arc::new(case.data.graph));
        let parsed = whatif_query(case.query);
        // A fresh isolated session per repetition: Table 1 reports
        // per-query evaluation time, so repeated runs must not hit a cache.
        let cold = |config: &EngineConfig| cold_whatif(&db, &graph, config, &parsed);
        for (vname, config) in variants() {
            let mut cell = secs(time_avg(2, || cold(&config)));
            // The paper reports the sampled variant in (..) on the big row.
            if ci == last && vname != "Indep" {
                let sampled = EngineConfig {
                    sample_cap: Some(100_000),
                    ..config.clone()
                };
                cell = format!("{cell} ({})", secs(time_avg(2, || cold(&sampled))));
            }
            cells.push(cell);
        }
        rows.push(cells);
    }
    print_table(
        "Table 1: avg runtime of a Count what-if per dataset",
        &["dataset", "rows", "HypeR", "HypeR-NB", "Indep"],
        &rows,
    );
    Vec::new()
}

/// **Figure 6**: effect of the HypeR-sampled sample size on (a) query
/// output stability and (b) running time, on German-Syn.
fn fig6(full: bool) -> Vec<Claim> {
    let n = if full { 1_000_000 } else { 200_000 };
    let data = hyper_datasets::german_syn(n, 7);
    let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
    let query =
        whatif_query("Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')");
    let share_of = |config: &EngineConfig| {
        let (r, d) = time(|| cold_whatif(&db, &graph, config, &query));
        (r.value / r.n_view_rows as f64, d)
    };
    let (full_share, full_time) = share_of(&EngineConfig::hyper());

    // (a) Output (as a share) per sample size across seeds: mean ± std.
    let seeds = [1, 2, 3, 4, 5];
    let mut rows = Vec::new();
    let mut time_rows = Vec::new();
    let mut spread = Vec::new();
    for cap in [1_000, 10_000, 50_000, 100_000, 200_000] {
        if cap >= n {
            continue;
        }
        let mut outputs = Vec::new();
        let mut elapsed = Duration::ZERO;
        for seed in seeds {
            let (share, d) = share_of(&EngineConfig {
                seed,
                ..EngineConfig::hyper_sampled(cap)
            });
            outputs.push(share);
            elapsed += d;
        }
        let mean = outputs.iter().sum::<f64>() / outputs.len() as f64;
        let var =
            outputs.iter().map(|o| (o - mean) * (o - mean)).sum::<f64>() / outputs.len() as f64;
        let std = var.sqrt();
        rows.push(vec![
            cap.to_string(),
            format!("{mean:.4}"),
            format!("{std:.4}"),
            format!("{:.2}%", 100.0 * std / mean),
        ]);
        time_rows.push(vec![cap.to_string(), secs(elapsed / seeds.len() as u32)]);
        spread.push((cap, std / mean));
    }
    print_table(
        &format!("Fig 6a: HypeR-sampled output vs sample size (n = {n})"),
        &["sample", "mean share", "std", "std/mean"],
        &rows,
    );
    let full_time = secs(full_time);
    println!("  full HypeR reference: share {full_share:.4} in {full_time}");
    print_table(
        "Fig 6b: running time vs sample size",
        &["sample", "avg time"],
        &time_rows,
    );
    println!("  full (no sampling): {full_time}");

    let ((small, at_small), (large, at_large)) = (spread[0], spread[spread.len() - 1]);
    vec![claim(
        "fig6: sampled std/mean at the largest sample is ≤ 1% and below the smallest sample's",
        at_large <= 0.01 && at_large < at_small,
        format!(
            "{:.2}% at {large}, {:.2}% at {small}",
            100.0 * at_large,
            100.0 * at_small
        ),
    )]
}

/// **Figure 7**: the two what-if query templates of the real-world use
/// cases, parsed, rendered back, and executed once each.
fn fig7(_: bool) -> Vec<Claim> {
    // 7a: "What fraction of individuals will have good credit if B is
    // updated to b?" 7b: "How many individuals with attribute A = a will
    // have income ≥ 50K if B is updated to b?"
    let templates = [
        (
            "7a",
            "German",
            hyper_datasets::german(1),
            "Use german
             Update(status) = 3
             Output Count(Post(credit) = 'Good')
             For Pre(age) = 1",
            "have good credit",
        ),
        (
            "7b",
            "Adult",
            hyper_datasets::adult(8000, 2),
            "Use adult
             Update(marital) = 'Married'
             Output Count(*)
             For Post(income) = '>50K' And Pre(sex) = 'Female'",
            "expected above 50K",
        ),
    ];
    let mut claims = Vec::new();
    for (tag, name, data, template, outcome) in templates {
        println!("\n== Fig {tag}: {name} what-if template ==");
        let parsed = parse_query(template);
        if let Ok(q) = &parsed {
            println!("  parsed ✓  rendered: {q}");
        }
        let result = hyper_session(data).0.whatif_text(template);
        if let Ok(r) = &result {
            let (value, scoped) = (r.value, r.n_scope_rows);
            println!("  executed ✓  {value:.0} of {scoped} scoped individuals {outcome}");
        }
        let round_trips = parsed
            .as_ref()
            .is_ok_and(|q| parse_query(&q.to_string()).as_ref() == Ok(q));
        claims.push(claim(
            format!("fig{tag}: the {name} template parses, round-trips and evaluates"),
            round_trips && result.is_ok(),
            format!(
                "round-trips: {round_trips}, evaluation: {}",
                result.map_or_else(|e| e.to_string(), |_| "ok".into())
            ),
        ));
    }
    claims
}

/// One Fig 8 table: the share of `output` after setting each attribute of
/// `table` to its domain minimum and maximum. Returns each max − min gap.
fn min_max_gaps(
    title: &str,
    (data, table): (Dataset, &str),
    output: &str,
    attrs: &[(&str, &str, &str)],
) -> Vec<f64> {
    let (session, n) = hyper_session(data);
    let share = |attr: &str, v: &str| {
        let q = format!("Use {table} Update({attr}) = {v} Output {output}");
        session.whatif_text(&q).expect("query evaluates").value / n
    };
    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    for &(attr, min, max) in attrs {
        let (lo, hi) = (share(attr, min), share(attr, max));
        rows.push(vec![
            attr.to_string(),
            format!("{lo:.3}"),
            format!("{hi:.3}"),
            format!("{:+.3}", hi - lo),
        ]);
        gaps.push(hi - lo);
    }
    print_table(title, &["attribute", "min", "max", "gap"], &rows);
    gaps
}

/// **Figure 8**: what-if output when each attribute is set to its domain
/// minimum vs maximum: (a) German credit, (b) Adult income. A larger gap
/// means a more important attribute.
fn fig8(_: bool) -> Vec<Claim> {
    let german = min_max_gaps(
        "Fig 8a: German — share with good credit when attribute set to min/max",
        (hyper_datasets::german(1), "german"),
        "Count(Post(credit) = 'Good')",
        &[
            ("status", "0", "3"),
            ("credit_history", "0", "3"),
            ("housing", "0", "2"),
            ("investment", "0", "3"),
        ],
    );
    // Categorical attributes use their weakest and strongest levels.
    let adult = min_max_gaps(
        "Fig 8b: Adult — share with income > 50K when attribute set to min/max",
        (hyper_datasets::adult(32_000, 2), "adult"),
        "Count(Post(income) = '>50K')",
        &[
            ("marital", "'Never-married'", "'Married'"),
            ("occupation", "0", "3"),
            ("education", "0", "3"),
            ("class", "'Private'", "'Self-emp'"),
        ],
    );
    let (strong, weak) = (german[0].min(german[1]), german[2].max(german[3]));
    let next = adult[1..].iter().copied().fold(f64::MIN, f64::max);
    let above_class = adult[..3].iter().copied().fold(f64::MAX, f64::min);
    vec![
        claim(
            "fig8a: the smaller status/credit_history gap exceeds the larger housing/investment gap",
            strong > weak,
            format!("{strong:.3} vs {weak:.3}"),
        ),
        claim(
            "fig8b: marital has the largest gap and class the smallest",
            adult[0] > next && adult[3] < above_class,
            format!(
                "marital {:.3} vs next {next:.3}; class {:.3} vs next {above_class:.3}",
                adult[0], adult[3]
            ),
        ),
    ]
}

/// **Figure 9**: effect of the bucket count on how-to quality and runtime,
/// on the continuous German-Syn variant: HypeR's IP against Opt-discrete
/// (enumeration at the same buckets), with quality as a ratio to the best
/// ground truth on a fine grid (the Opt-HowTo stand-in).
fn fig9(_: bool) -> Vec<Claim> {
    let n = 20_000;
    let data = hyper_datasets::german_syn_continuous(n, 9);
    let scm = data.scm.expect("German-Syn has an SCM");
    let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
    let q = howto_query(
        "Use german_syn
         HowToUpdate credit_amount
         Limit 100 <= Post(credit_amount) <= 10000
         ToMaximize Count(Post(credit) = 'Good')",
    );

    // Ground-truth objective for a candidate amount, via the structural
    // equations; the reference optimum scans a fine grid (the paper's
    // continuous Opt-HowTo).
    let truth_of = |amount: f64| {
        let amount = Value::Float(amount);
        ground_truth(
            &scm,
            50_000,
            1234,
            "credit_amount",
            amount,
            "credit",
            is_good,
        )
    };
    let opt_truth = (0..64)
        .map(|i| truth_of(100.0 + (10_000.0 - 100.0) * (i as f64 + 0.5) / 64.0))
        .fold(f64::MIN, f64::max);
    println!("reference Opt-HowTo (fine grid ground truth): {opt_truth:.4}");

    // Quality: the chosen update under the true structural equations, as a
    // ratio to the fine-grid optimum; no change scores the observed share.
    let credit = db
        .table("german_syn")
        .and_then(|t| t.column_by_name("credit"));
    let credit = credit.expect("German-Syn has a credit column");
    let observed = credit.iter().map(|v| is_good(&v)).sum::<f64>() / credit.len() as f64;
    let quality = |r: &HowToResult| {
        let amount = r.chosen.first().and_then(|u| match &u.func {
            UpdateFunc::Set(v) => v.as_f64(),
            _ => None,
        });
        amount.map_or(observed, truth_of) / opt_truth
    };

    let mut rows = Vec::new();
    let (mut equal, mut lowest) = (0, f64::MAX);
    let buckets = [1, 2, 4, 6, 8, 10];
    for k in buckets {
        // Each solver runs cold on its own session, so the second does not
        // inherit the first one's view or fitted estimator.
        let session = || howto_session(&db, &graph, &EngineConfig::hyper(), k, None);
        let (ip, ip_time) = time(|| session().howto(&q).expect("how-to evaluates"));
        let (brute, brute_time) = time(|| {
            session()
                .howto_bruteforce(&q)
                .expect("brute force evaluates")
        });
        let (ip_quality, brute_quality) = (quality(&ip), quality(&brute));
        equal += usize::from(ip_quality == brute_quality);
        if k >= 4 {
            lowest = lowest.min(ip_quality);
        }
        rows.push(vec![
            k.to_string(),
            format!("{ip_quality:.3}"),
            format!("{brute_quality:.3}"),
            secs(ip_time),
            secs(brute_time),
        ]);
    }
    print_table(
        &format!("Fig 9: how-to vs bucket count (German-Syn-continuous, {n} rows)"),
        &[
            "buckets",
            "HypeR quality",
            "Opt-discrete quality",
            "HypeR time",
            "Opt-discrete time",
        ],
        &rows,
    );
    vec![claim(
        "fig9: IP quality equals Opt-discrete's at every bucket count and is ≥ 0.9 at ≥ 4 buckets",
        equal == buckets.len() && lowest >= 0.9,
        format!(
            "equal at {equal} of {} counts; lowest at ≥ 4 buckets {lowest:.3}",
            buckets.len()
        ),
    )]
}

/// **Figure 10**: what-if output vs structural-equation ground truth for
/// every engine variant, on (a) German-Syn and (b) Student-Syn, plus the
/// §5.4 how-to quality checks.
fn fig10(full: bool) -> Vec<Claim> {
    let gt_n = if full { 200_000 } else { 100_000 };

    // ---------------- (a) German-Syn ----------------
    let n = if full { 1_000_000 } else { 100_000 };
    let data = hyper_datasets::german_syn(n, 3);
    let scm = data.scm.expect("German-Syn has an SCM");
    let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
    let mut configs = variants();
    configs.insert(1, ("HypeR-sampled", EngineConfig::hyper_sampled(50_000)));
    let sessions: Vec<HyperSession> = configs
        .iter()
        .map(|(_, config)| cold_session(&db, &graph, config).build())
        .collect();
    let mut rows = Vec::new();
    // Per variant, each attribute's absolute error relative to the truth.
    let mut relative = vec![Vec::new(); sessions.len()];
    let mut absolute = vec![0.0; sessions.len()];
    let attrs = [
        ("status", 3),
        ("savings", 3),
        ("housing", 2),
        ("credit_amount", 3),
    ];
    for (attr, max) in attrs {
        let truth = ground_truth(&scm, gt_n, 97, attr, Value::Int(max), "credit", is_good);
        let query = whatif_query(&format!(
            "Use german_syn Update({attr}) = {max} Output Count(Post(credit) = 'Good')"
        ));
        let mut cells = vec![attr.to_string(), format!("{truth:.3}")];
        for (i, session) in sessions.iter().enumerate() {
            let r = session.whatif(&query).expect("query evaluates");
            let share = r.value / r.n_view_rows as f64;
            cells.push(format!("{share:.3}"));
            relative[i].push((share - truth).abs() / truth);
            absolute[i] += (share - truth).abs();
        }
        rows.push(cells);
    }
    print_table(
        &format!("Fig 10a: German-Syn ({n}) — share good credit after do(attr := max)"),
        &[
            "attribute",
            "GroundTruth",
            "HypeR",
            "HypeR-sampled",
            "HypeR-NB",
            "Indep",
        ],
        &rows,
    );
    let worst: Vec<f64> = relative
        .iter()
        .map(|errs| errs.iter().copied().fold(0.0, f64::max))
        .collect();
    let worst_of_three: Vec<String> = configs[..3]
        .iter()
        .zip(&worst)
        .map(|((name, _), w)| format!("{name} {:.1}%", 100.0 * w))
        .collect();
    let mae = |i: usize| absolute[i] / attrs.len() as f64;
    let mut claims = vec![
        claim(
            "fig10a: HypeR, HypeR-sampled and HypeR-NB are each within 5% of ground truth on every attribute",
            worst[..3].iter().all(|&w| w <= 0.05),
            format!("worst relative error {}", worst_of_three.join(", ")),
        ),
        claim(
            "fig10a: Indep's mean absolute error exceeds HypeR's",
            mae(3) > mae(0),
            format!("{:.4} vs {:.4}", mae(3), mae(0)),
        ),
    ];

    // ---------------- (b) Student-Syn ----------------
    let students = 10_000;
    let sdata = hyper_datasets::student_syn(students, 5, 4);
    let sscm = sdata.scm.expect("Student-Syn has a flat SCM");
    let (sdb, sgraph) = (Arc::new(sdata.db), Arc::new(sdata.graph));
    let configs = variants();
    let sessions: Vec<HyperSession> = configs
        .iter()
        .map(|(_, config)| cold_session(&sdb, &sgraph, config).build())
        .collect();
    let mut rows = Vec::new();
    let mut summed = vec![0.0; sessions.len()];
    for attr in [
        "assignment",
        "attendance",
        "announcements",
        "hand_raised",
        "discussion",
    ] {
        let grade = |v: &Value| v.as_f64().unwrap_or(0.0);
        let truth = ground_truth(&sscm, gt_n, 98, attr, Value::Float(95.0), "grade", grade);
        let query = whatif_query(&format!(
            "{STUDENT_VIEW} Update({attr}) = 95 Output Avg(Post(grade))"
        ));
        let mut cells = vec![attr.to_string(), format!("{truth:.2}")];
        for (i, session) in sessions.iter().enumerate() {
            let r = session.whatif(&query).expect("query evaluates");
            cells.push(format!("{:.2}", r.value));
            summed[i] += (r.value - truth).abs();
        }
        rows.push(cells);
    }
    print_table(
        &format!("Fig 10b: Student-Syn ({students} students) — avg grade after do(attr := 95)"),
        &["attribute", "GroundTruth", "HypeR", "HypeR-NB", "Indep"],
        &rows,
    );
    claims.push(claim(
        "fig10b: HypeR's summed absolute error is below HypeR-NB's and Indep's",
        summed[0] < summed[1] && summed[0] < summed[2],
        format!("{:.1} vs {:.1} and {:.1}", summed[0], summed[1], summed[2]),
    ));

    // ---------------- §5.4 how-to quality ----------------
    let hdata = hyper_datasets::german_syn(20_000, 5);
    let (hdb, hgraph) = (Arc::new(hdata.db), Arc::new(hdata.graph));
    let session = howto_session(&hdb, &hgraph, &EngineConfig::hyper(), 4, Some(2));
    let q = howto_query(
        "Use german_syn
         HowToUpdate status, savings, housing, credit_amount
         ToMaximize Count(Post(credit) = 'Good')",
    );
    let ip = session.howto(&q).expect("how-to evaluates");
    let brute = session.howto_bruteforce(&q).expect("brute force evaluates");
    println!("\n== §5.4: German-Syn how-to (maximize good credit, ≤2 attrs) ==");
    println!(
        "  HypeR (IP):      {}  → objective {:.0}",
        ip.render(&q.update_attrs),
        ip.objective
    );
    println!("  Opt-HowTo:       objective {:.0}", brute.objective);
    claims.push(claim(
        "§5.4: the IP's objective equals Opt-HowTo's",
        (ip.objective - brute.objective).abs() < 1e-6,
        format!("{:.0} vs {:.0}", ip.objective, brute.objective),
    ));

    let session = howto_session(&sdb, &sgraph, &EngineConfig::hyper(), 4, Some(1));
    let q = howto_query(&format!(
        "{STUDENT_VIEW}
         HowToUpdate attendance, assignment, discussion, announcements
         ToMaximize Avg(Post(grade))"
    ));
    let s = session.howto(&q).expect("how-to evaluates");
    println!("\n== §5.4: Student-Syn how-to (maximize avg grade, budget 1) ==");
    println!(
        "  chosen: {}  → avg grade {:.2} (baseline {:.2})",
        s.render(&q.update_attrs),
        s.objective,
        s.baseline
    );
    let chosen: Vec<&str> = s.chosen.iter().map(|u| u.attr.as_str()).collect();
    claims.push(claim(
        "§5.4: Student-Syn with budget 1 chooses attendance",
        chosen == ["attendance"],
        format!("chose [{}]", chosen.join(", ")),
    ));
    claims
}

/// **Figure 11**: running time vs query complexity on Student-Syn: (a)
/// attributes in the `For` operator of a Count what-if, (b) attributes in
/// `HowToUpdate` (HypeR's IP vs Opt-HowTo enumeration).
fn fig11(full: bool) -> Vec<Claim> {
    let students = 10_000;
    let data = hyper_datasets::student_syn(students, 5, 11);
    // Extra root attributes on the student relation give the sweeps
    // attributes to add without changing the causal story.
    let (mut db, mut graph) = (data.db, data.graph);
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
    let config = EngineConfig::hyper();

    // -------- (a) what-if: attributes in For --------
    let mut rows = Vec::new();
    let (mut for_attrs, mut features) = (Vec::new(), Vec::new());
    for k in [0usize, 2, 5, 8, 10] {
        let mut conds: Vec<String> = (0..k).map(|i| format!("Pre(pad_{i}) >= 0")).collect();
        conds.insert(0, "Post(grade) > 60".into());
        let q = whatif_query(&format!(
            "{view} Update(attendance) = 90 Output Count(*) For {}",
            conds.join(" And ")
        ));
        let d = time_avg(2, || cold_whatif(&db, &graph, &config, &q));
        let r = cold_whatif(&db, &graph, &config, &q);
        rows.push(vec![k.to_string(), secs(d), r.backdoor.len().to_string()]);
        for_attrs.push(k);
        features.push(r.backdoor.len());
    }
    print_table(
        &format!("Fig 11a: what-if time vs #attributes in For ({students} students)"),
        &["For attrs", "time", "regressor features"],
        &rows,
    );

    // -------- (b) how-to: attributes in HowToUpdate --------
    let pads: Vec<String> = (0..10).map(|i| format!("pad_{i}")).collect();
    let buckets = 3;
    let mut rows = Vec::new();
    let (mut ip_evals, mut ip_expected, mut brute_ok, mut brute_evals) =
        (Vec::new(), Vec::new(), true, Vec::new());
    for k in [2, 4, 6, 8, 10] {
        let q = howto_query(&format!(
            "{view} HowToUpdate {} ToMaximize Avg(Post(grade))",
            pads[..k].join(", ")
        ));
        let session = || howto_session(&db, &graph, &config, buckets, None);
        let (ip, ip_d) = time(|| session().howto(&q).expect("IP solves"));
        // Opt-HowTo enumerates (buckets+1)^k combinations: below full
        // scale the sweep stops where that stays tractable, as the paper's
        // ">90 minutes for 10 attributes" suggests.
        let combos = (buckets + 1).pow(k as u32);
        let brute_cell = if combos <= 300 || full {
            let (b, d) = time(|| session().howto_bruteforce(&q).expect("enumerates"));
            brute_ok &= b.whatif_evals >= combos;
            brute_evals.push(format!("{} ≥ {combos}", b.whatif_evals));
            format!("{} ({} evals)", secs(d), b.whatif_evals)
        } else {
            format!("skipped (~{combos} evals)")
        };
        rows.push(vec![
            k.to_string(),
            format!("{} ({} evals)", secs(ip_d), ip.whatif_evals),
            brute_cell,
        ]);
        ip_evals.push(ip.whatif_evals);
        ip_expected.push(k * buckets + 1);
    }
    print_table(
        "Fig 11b: how-to time vs #attributes in HowToUpdate",
        &["attrs", "HypeR (IP)", "Opt-HowTo (enumeration)"],
        &rows,
    );
    vec![
        claim(
            "fig11a: the regressor has one feature per For attribute",
            features == for_attrs,
            format!("{features:?} features for {for_attrs:?} For attributes"),
        ),
        claim(
            "fig11b: the IP runs k·buckets + 1 what-if evaluations",
            ip_evals == ip_expected,
            format!("{ip_evals:?} vs {ip_expected:?}"),
        ),
        claim(
            "fig11b: Opt-HowTo runs at least (buckets+1)^k evaluations wherever it runs",
            brute_ok,
            brute_evals.join(", "),
        ),
    ]
}

const WHATIF_QUERIES: &[&str] = &[
    "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')",
    "Use german_syn Update(savings) = 3 Output Count(Post(credit) = 'Good')",
    "Use german_syn Update(housing) = 2 Output Count(Post(credit) = 'Good')",
    "Use german_syn When age = 2 Update(status) = 0 Output Count(Post(credit) = 'Bad')",
    "Use german_syn When sex = 1 Update(savings) = 0 Output Count(Post(credit) = 'Good')",
];

/// **Figure 12**: running time vs dataset size on German-Syn: (a) what-if,
/// HypeR vs HypeR-sampled vs Indep, averaged over five queries; (b)
/// how-to, HypeR vs HypeR-sampled vs Opt-HowTo. Every timed call runs on
/// a fresh isolated session.
fn fig12(full: bool) -> Vec<Claim> {
    let sizes: &[usize] = if full {
        &[10_000, 100_000, 250_000, 500_000, 1_000_000]
    } else {
        &[10_000, 50_000, 100_000, 200_000]
    };
    let cap = 100_000;

    // -------- (a) what-if --------
    let queries: Vec<_> = WHATIF_QUERIES.iter().map(|q| whatif_query(q)).collect();
    let mut rows = Vec::new();
    for &n in sizes {
        let data = hyper_datasets::german_syn(n, 21);
        let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
        let mut cells = vec![n.to_string()];
        for config in [
            EngineConfig::hyper(),
            EngineConfig::hyper_sampled(cap),
            EngineConfig::indep(),
        ] {
            let mut total = Duration::ZERO;
            for q in &queries {
                let (_, d) = time(|| cold_whatif(&db, &graph, &config, q));
                total += d;
            }
            cells.push(secs(total / queries.len() as u32));
        }
        rows.push(cells);
    }
    print_table(
        "Fig 12a: what-if time vs dataset size (avg of 5 queries)",
        &["rows", "HypeR", "HypeR-sampled", "Indep"],
        &rows,
    );

    // -------- (b) how-to --------
    let q = howto_query(
        "Use german_syn HowToUpdate status, housing ToMaximize Count(Post(credit) = 'Good')",
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let data = hyper_datasets::german_syn(n, 22);
        let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
        let session = |config: &EngineConfig| howto_session(&db, &graph, config, 3, None);
        let mut cells = vec![n.to_string()];
        for config in [EngineConfig::hyper(), EngineConfig::hyper_sampled(cap)] {
            let (_, d) = time(|| session(&config).howto(&q).expect("how-to evaluates"));
            cells.push(secs(d));
        }
        // Opt-HowTo on the same (small) candidate space, also cold.
        let (_, d) = time(|| {
            session(&EngineConfig::hyper())
                .howto_bruteforce(&q)
                .expect("enumerates")
        });
        cells.push(secs(d));
        rows.push(cells);
    }
    print_table(
        "Fig 12b: how-to time vs dataset size",
        &["rows", "HypeR", "HypeR-sampled", "Opt-HowTo"],
        &rows,
    );
    Vec::new()
}

/// **§5.3 use cases** on the three simulated real-world datasets: status
/// and credit history dominate German credit, marital status dominates
/// Adult income, and cheaper laptops rate higher on Amazon.
fn usecases(full: bool) -> Vec<Claim> {
    // ---------------- German ----------------
    let (session, n) = hyper_session(hyper_datasets::german(1));
    let share = |q: &str| session.whatif_text(q).expect("query evaluates").value / n;
    let hi_status = share("Use german Update(status) = 3 Output Count(Post(credit) = 'Good')");
    let hi_history =
        share("Use german Update(credit_history) = 3 Output Count(Post(credit) = 'Good')");
    let lo_status = share("Use german Update(status) = 0 Output Count(Post(credit) = 'Good')");
    let both = share(
        "Use german Update(status) = 3 And Update(credit_history) = 3
         Output Count(Post(credit) = 'Good')",
    );
    println!("== German (§5.3) ==");
    println!("  share good credit after do(status = max):          {hi_status:.2}");
    println!("  share good credit after do(credit_history = max):  {hi_history:.2}");
    println!("  share good credit after do(status = min):          {lo_status:.2}");
    println!("  do(status = max AND credit_history = max):         {both:.2}");

    // ---------------- Adult ----------------
    let (session, n) = hyper_session(hyper_datasets::adult(32_000, 2));
    let share = |q: &str| session.whatif_text(q).expect("query evaluates").value / n;
    let married =
        share("Use adult Update(marital) = 'Married' Output Count(Post(income) = '>50K')");
    let never =
        share("Use adult Update(marital) = 'Never-married' Output Count(Post(income) = '>50K')");
    println!("\n== Adult (§5.3) ==");
    println!("  share >50K if everyone married:   {married:.2}");
    println!("  share >50K if everyone unmarried: {never:.2}");

    // ---------------- Amazon ----------------
    let amazon = hyper_datasets::amazon(if full { 3_000 } else { 2_000 }, 9, 7);
    let laptops = hyper_storage::ops::filter::filter(
        amazon.db.table("product").expect("table exists"),
        &hyper_storage::col("category").eq(hyper_storage::lit("Laptop")),
    )
    .expect("filter evaluates");
    let stats = ColumnStats::compute(&laptops, "price").expect("stats compute");
    let (session, _) = hyper_session(amazon);
    let view = "
        Use (Select T1.pid, T1.category, T1.price, T1.brand, T1.quality,
                Avg(T2.rating) As rtng
         From product As T1, review As T2
         Where T1.pid = T2.pid And T1.category = 'Laptop'
         Group By T1.pid, T1.category, T1.price, T1.brand, T1.quality)";
    let mut rows = Vec::new();
    let mut shares = Vec::new();
    for pct in [80.0, 60.0, 40.0] {
        let price = stats.percentile(pct).expect("numeric percentiles");
        let q = format!("{view} Update(price) = {price} Output Count(Post(rtng) > 4)");
        let r = session.whatif_text(&q).expect("query evaluates");
        let rated = 100.0 * r.value / r.n_scope_rows as f64;
        rows.push(vec![
            format!("{pct}th"),
            format!("{price:.0}"),
            format!("{rated:.1}%"),
        ]);
        shares.push(rated);
    }
    print_table(
        "Amazon (§5.3): laptops with expected avg rating > 4 at price levels",
        &["percentile", "price", "share > 4"],
        &rows,
    );

    let rated: Vec<String> = shares.iter().map(|s| format!("{s:.1}%")).collect();
    vec![
        claim(
            "usecases: German do(status = max) and do(credit_history = max) each give > 0.81 good credit, the joint update at least as much",
            hi_status > 0.81 && hi_history > 0.81 && both >= hi_status.max(hi_history),
            format!("{hi_status:.3}, {hi_history:.3}, joint {both:.3}"),
        ),
        claim(
            "usecases: Adult's married share of > 50K exceeds the never-married share",
            married > never,
            format!("{married:.3} vs {never:.3}"),
        ),
        claim(
            "usecases: Amazon laptops rated > 4 rise strictly as price falls",
            shares.windows(2).all(|w| w[0] < w[1]),
            format!("{} at the 80th/60th/40th percentile price", rated.join(" < ")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_selects_named_experiments_in_table_order() {
        let (full, selected) = parse_args(&args(&["fig9", "--full", "fig6"]), EXPERIMENTS).unwrap();
        assert!(full);
        let names: Vec<&str> = selected.iter().map(|e| e.0).collect();
        assert_eq!(names, ["fig6", "fig9"]);
        let (full, selected) = parse_args(&[], EXPERIMENTS).unwrap();
        assert!(!full);
        assert_eq!(selected.len(), EXPERIMENTS.len());
    }

    #[test]
    fn parser_rejects_unknown_flags_and_names() {
        for bad in ["--ful", "--quick", "fig13", "-h"] {
            assert!(parse_args(&args(&[bad]), EXPERIMENTS).is_err(), "{bad}");
            assert_eq!(run(&args(&["fig7", bad]), EXPERIMENTS), 2, "{bad}");
        }
    }

    fn holds(_: bool) -> Vec<Claim> {
        vec![claim("holds", true, "1 vs 0".into())]
    }

    fn breaks(_: bool) -> Vec<Claim> {
        vec![
            claim("holds", true, "1 vs 0".into()),
            claim("breaks", false, "0 vs 1".into()),
        ]
    }

    fn panics(_: bool) -> Vec<Claim> {
        panic!("an engine error")
    }

    #[test]
    fn a_failing_claim_makes_the_driver_exit_non_zero() {
        let table: [Experiment; 3] = [
            ("good", "claims that hold", holds),
            ("bad", "a claim that fails", breaks),
            ("crash", "an experiment that panics", panics),
        ];
        assert_eq!(run(&args(&["good"]), &table), 0);
        assert_eq!(run(&args(&["bad"]), &table), 1);
        assert_eq!(run(&args(&["crash", "good"]), &table), 1);
        assert_eq!(run(&[], &table), 1);
    }
}
