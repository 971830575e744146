//! **Figure 12**: running time vs dataset size on German-Syn, averaged over
//! several queries — (a) what-if: HypeR vs HypeR-sampled vs Indep,
//! (b) how-to: HypeR vs HypeR-sampled vs Opt-HowTo.
//!
//! ```sh
//! cargo run --release -p hyper-bench --bin fig12 [--quick|--full]
//! ```

//! Every timed call runs on a fresh isolated session, so each query pays
//! its own view build and training.

use std::sync::Arc;

use hyper_bench::{cold_session, print_table, secs, time, Flags};
use hyper_core::{EngineConfig, HowToOptions};

const WHATIF_QUERIES: &[&str] = &[
    "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')",
    "Use german_syn Update(savings) = 3 Output Count(Post(credit) = 'Good')",
    "Use german_syn Update(housing) = 2 Output Count(Post(credit) = 'Good')",
    "Use german_syn When age = 2 Update(status) = 0 Output Count(Post(credit) = 'Bad')",
    "Use german_syn When sex = 1 Update(savings) = 0 Output Count(Post(credit) = 'Good')",
];

fn main() {
    let flags = Flags::parse();
    let sizes: Vec<usize> = if flags.quick {
        vec![5_000, 20_000]
    } else if flags.full {
        vec![10_000, 100_000, 250_000, 500_000, 1_000_000]
    } else {
        vec![10_000, 50_000, 100_000, 200_000]
    };
    let cap = 100_000;

    // -------- (a) what-if --------
    let mut rows = Vec::new();
    for &n in &sizes {
        let data = hyper_datasets::german_syn(n, 21);
        let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
        let mut cells = vec![n.to_string()];
        for (label, config) in [
            ("HypeR", EngineConfig::hyper()),
            ("HypeR-sampled", EngineConfig::hyper_sampled(cap)),
            ("Indep", EngineConfig::indep()),
        ] {
            // Cold queries: each pays its own view build + training, as
            // the figure's per-query times require.
            let mut total = std::time::Duration::ZERO;
            for q in WHATIF_QUERIES {
                let parsed = match hyper_query::parse_query(q).unwrap() {
                    hyper_query::HypotheticalQuery::WhatIf(w) => w,
                    _ => unreachable!(),
                };
                let (_, d) = time(|| {
                    cold_session(&db, &graph, &config)
                        .build()
                        .whatif(&parsed)
                        .expect("query evaluates")
                });
                total += d;
            }
            let _ = label;
            cells.push(secs(total / WHATIF_QUERIES.len() as u32));
        }
        rows.push(cells);
    }
    print_table(
        "Fig 12a: what-if time vs dataset size (avg of 5 queries)",
        &["rows", "HypeR", "HypeR-sampled", "Indep"],
        &rows,
    );
    println!("expected shape: HypeR and Indep grow ~linearly; HypeR-sampled");
    println!("flattens once rows exceed the 100k training cap.");

    // -------- (b) how-to --------
    let howto = "Use german_syn
                 HowToUpdate status, housing
                 ToMaximize Count(Post(credit) = 'Good')";
    let q = match hyper_query::parse_query(howto).unwrap() {
        hyper_query::HypotheticalQuery::HowTo(h) => h,
        _ => unreachable!(),
    };
    let opts = HowToOptions {
        buckets: 3,
        max_attrs_updated: None,
    };
    let mut rows = Vec::new();
    for &n in &sizes {
        let data = hyper_datasets::german_syn(n, 22);
        let (db, graph) = (Arc::new(data.db), Arc::new(data.graph));
        let session = |config: &EngineConfig| {
            cold_session(&db, &graph, config)
                .howto_options(opts.clone())
                .build()
        };
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
    println!("expected shape: all grow with data size (what-if evaluations");
    println!("dominate); Opt-HowTo is a constant factor slower at fixed");
    println!("candidate count, and the sampled variant flattens past the cap.");
}
