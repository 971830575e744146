//! **Table 1**: average runtime (seconds) of a Count what-if query per
//! dataset, for HypeR, HypeR-NB and Indep. The final German-Syn row also
//! reports HypeR(-NB)-sampled in parentheses, as in the paper.
//!
//! ```sh
//! cargo run --release -p hyper-bench --bin table1 [--quick|--full]
//! ```

use std::sync::Arc;

use hyper_bench::{cold_session, print_table, secs, time_avg, variants, Flags};
use hyper_core::EngineConfig;

fn main() {
    let flags = Flags::parse();
    let reps = if flags.quick { 1 } else { 2 };
    // (name, db, graph, count what-if query)
    struct Case {
        label: String,
        data: hyper_datasets::Dataset,
        query: String,
    }
    let big_n = flags.size(20_000, 200_000, 1_000_000);

    let adult_n = flags.size(4_000, 32_000, 32_000);
    let student_n = flags.size(1_000, 10_000, 10_000);
    let amazon_products = flags.size(500, 3_000, 3_000);

    let cases = [
        Case {
            label: format!("Adult [31] (15 att, {adult_n} rows)"),
            data: hyper_datasets::adult(adult_n, 1),
            query: "Use adult Update(marital) = 'Married'
                    Output Count(Post(income) = '>50K')"
                .into(),
        },
        Case {
            label: "German [20] (21 att, 1k rows)".into(),
            data: hyper_datasets::german(2),
            query: "Use german Update(status) = 3
                    Output Count(Post(credit) = 'Good')"
                .into(),
        },
        Case {
            label: format!("Amazon [27] (5,3 att, {amazon_products}k products)"),
            data: hyper_datasets::amazon(amazon_products, 9, 3),
            query: "Use (Select T1.pid, T1.category, T1.price, T1.brand, T1.quality,
                           Avg(T2.rating) As rtng
                    From product As T1, review As T2
                    Where T1.pid = T2.pid
                    Group By T1.pid, T1.category, T1.price, T1.brand, T1.quality)
                    When category = 'Laptop'
                    Update(price) = 0.8 * Pre(price)
                    Output Count(Post(rtng) > 4)"
                .into(),
        },
        Case {
            label: format!("Student-syn (3,6 att, {student_n}/{} rows)", student_n * 5),
            data: hyper_datasets::student_syn(student_n, 5, 4),
            query: "Use (Select S.sid, S.age, S.country, S.attendance,
                           Avg(P.assignment) As assignment, Avg(P.grade) As grade
                    From student As S, participation As P
                    Where S.sid = P.sid
                    Group By S.sid, S.age, S.country, S.attendance)
                    Update(attendance) = 90
                    Output Count(Post(grade) > 70)"
                .into(),
        },
        Case {
            label: "German-Syn (20k)".into(),
            data: hyper_datasets::german_syn(20_000, 5),
            query: "Use german_syn Update(status) = 3
                    Output Count(Post(credit) = 'Good')"
                .into(),
        },
        Case {
            label: format!("German-Syn ({})", human(big_n)),
            data: hyper_datasets::german_syn(big_n, 6),
            query: "Use german_syn Update(status) = 3
                    Output Count(Post(credit) = 'Good')"
                .into(),
        },
    ];

    let mut rows = Vec::new();
    let last = cases.len() - 1;
    for (ci, case) in cases.into_iter().enumerate() {
        let mut cells = vec![case.label, case.data.total_rows().to_string()];
        let (db, graph) = (Arc::new(case.data.db), Arc::new(case.data.graph));
        let parsed = match hyper_query::parse_query(&case.query).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(w) => w,
            _ => unreachable!(),
        };
        // A fresh isolated session per repetition: Table 1 reports
        // per-query evaluation time, so repeated runs must not hit a cache.
        let cold = |config: &EngineConfig| {
            cold_session(&db, &graph, config)
                .build()
                .whatif(&parsed)
                .expect("query evaluates")
        };
        for (vname, config) in variants() {
            let d = time_avg(reps, || cold(&config));
            let mut cell = secs(d);
            // The paper reports the sampled variant in (..) on the big row.
            if ci == last && vname != "Indep" {
                let sampled = EngineConfig {
                    sample_cap: Some(100_000),
                    ..config.clone()
                };
                let ds = time_avg(reps, || cold(&sampled));
                cell = format!("{cell} ({})", secs(ds));
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
    println!("\nexpected shape: Indep < HypeR < HypeR-NB on every dataset;");
    println!("sampled (…) times flat once rows exceed the 100k training cap.");
}

fn human(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000 {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}
