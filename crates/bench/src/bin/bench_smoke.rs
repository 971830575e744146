//! Reduced-iteration benchmark smoke run: times the storage-layer
//! microbenchmarks (filter scan, table encode, forest train/predict —
//! vectorized vs `Value`-per-cell) and the session-layer cold vs prepared
//! what-if on German-Syn 10k, then scales the same data path to
//! German-Syn **1M** (`HYPER_BENCH_ROWS` overrides the big-row count for
//! CI time budgets) and writes a machine-readable throughput summary.
//!
//! Used by the CI `bench-smoke` job to track the perf trajectory: each
//! run produces a `BENCH_10.json` artifact (override the path with
//! `--out <path>` or the `BENCH_OUT` environment variable). Iteration
//! counts are deliberately small — this guards against order-of-magnitude
//! regressions, not microsecond drift. Gates enforced: the ≥3×
//! vectorization speedups over the `Value`-per-cell baselines (PR 3), the
//! ≥2× cold-what-if speedup over the PR-3 sequential-sort-training
//! measurement (28.9 ms) delivered by parallel histogram/cell-based
//! forest training (PR 4), the ≥3× warm-start speedup of a simulated
//! process restart recovering its artifacts from a populated persist
//! directory instead of retraining (PR 5), the hyper-serve HTTP
//! throughput floor — ≥100 queries/sec sustained over 8 persistent
//! connections with zero shed requests (PR 6) — the ≥3× speedup of
//! a block-scoped delta refresh over a from-scratch rebuild after a 1%
//! append, with the untouched-block what-if required to be a pure cache
//! hit (PR 7) — and the PR-8 scaling gates: the big-row cold what-if
//! must stay within 1.5× linear scaling of the 10k cold what-if (≤150×
//! at the full 1M), the morsel-parallel filter must beat the sequential
//! scan ≥1.5× when the global runtime has ≥2 workers (auto-skipped on
//! 1-core runners, where the parity property tests still cover
//! correctness). Serve entries report `p50_us`/`p99_us` tail latency
//! alongside throughput, at both 10k and the big-row scale point.
//!
//! `forest_train_german_1m` fits a 16-tree forest over the big table on
//! the global pool and on a zero-worker runtime — asserted
//! bit-identical — and the pool's fit is gated ≥2× over the zero-worker
//! fit when the pool has ≥2 workers (auto-skipped on 1-core runners).
//! On those 1-core runners the
//! morsel-parallel filter is instead asserted to cost ≤1.05× the
//! sequential scan (the zero-worker fast path must not allocate morsel
//! state it cannot use).
//!
//! PR-10 additions (observability): the prepared what-if is re-timed
//! with phase tracing enabled — asserted bit-identical to the untraced
//! value and gated ≤1.05× its cost (interleaved best-of-3 on both
//! sides) — the disabled path is gated within 1.05× of the committed
//! `BENCH_9.json` prepared entry when that file is present, the serve
//! run scrapes `GET /metrics` and fails on malformed Prometheus
//! exposition or missing latency/phase series, and the summary gains a
//! `phases` object exporting per-phase self time per traced query.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use hyper_bench::storage_baseline::{
    encode_row_reference, encoder_columns, filter_row_reference, german_predicate,
};
use hyper_bench::{cold_session, time_avg};
use hyper_core::{EngineConfig, HyperSession, SharedArtifactStore};
use hyper_ingest::DeltaBatch;
use hyper_ml::{ForestParams, Matrix, RandomForest, RegressionTree, TableEncoder, TreeParams};
use hyper_runtime::HyperRuntime;
use hyper_storage::ops::{filter, matching_rows_on};
use hyper_storage::{TableBuilder, Value, DEFAULT_MORSEL_ROWS};
// The one shared, properly interpolating percentile implementation
// (nearest-rank on 50 samples used to read essentially the max for p99;
// the interpolated estimator does not).
use hyper_trace::percentile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The PR-3 training path, kept alive as a hardware-independent baseline:
/// sequential trees, per-node sort-based split search over raw features,
/// one shared RNG stream. The histogram/cell trainer is gated against
/// this live measurement in addition to the absolute PR-3 cold-what-if
/// constant below.
fn forest_train_row_reference(x: &Matrix, y: &[f64], n_trees: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(0);
    let mut tree_params = TreeParams::default();
    if tree_params.max_features.is_none() && x.cols() > 3 {
        tree_params.max_features = Some((x.cols() as f64).sqrt().ceil() as usize);
    }
    let n = x.rows();
    let mut nodes = 0usize;
    for _ in 0..n_trees {
        let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
        nodes += RegressionTree::fit_indices(x, y, idx, &tree_params, &mut rng)
            .unwrap()
            .num_nodes();
    }
    nodes
}

const N: usize = 10_000;

/// Cold what-if on German-Syn 10k as measured at the PR-3 head on the
/// reference container (sequential per-node-sort forest training
/// dominating); the histogram/cell refactor must hold ≥2× against it.
const PR3_COLD_WHATIF_US: f64 = 28_900.0;

struct Entry {
    name: &'static str,
    micros: f64,
    baseline_micros: Option<f64>,
    /// Extra per-entry JSON fields (e.g. `p50_us`/`p99_us` tail latency
    /// on the serve entries).
    extra: Vec<(&'static str, f64)>,
}

impl Entry {
    fn new(name: &'static str, micros: f64, baseline_micros: Option<f64>) -> Self {
        Entry {
            name,
            micros,
            baseline_micros,
            extra: Vec::new(),
        }
    }
}

fn secs_to_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One steady-state serving window against a fresh snapshot registry:
/// snapshot the scenario, start a server, warm the tenant (snapshot
/// load and estimator training happen here, outside the measured
/// window), then drive `connections` persistent clients for
/// `requests_per_conn` pipelined what-ifs each, recording
/// client-observed per-request latency.
struct ServeRun {
    qps: f64,
    shed: u64,
    /// Wall-clock per completed request (`elapsed / total`) — the
    /// throughput-derived figure the PR-6/PR-7 history tracked.
    mean_us: f64,
    /// Client-observed request latency percentiles: each in-flight
    /// request is timed from write to response on its own connection,
    /// so with `c` connections p50 ≈ `c × mean_us` under fair service.
    p50_us: f64,
    p99_us: f64,
}

fn serve_run(
    db: &hyper_storage::Database,
    graph: &hyper_causal::CausalGraph,
    tag: &str,
    query_text: &str,
    connections: usize,
    requests_per_conn: usize,
) -> ServeRun {
    let registry =
        std::env::temp_dir().join(format!("hyper_bench_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&registry).ok();
    std::fs::create_dir_all(&registry).unwrap();
    hyper_store::Snapshot::new(db.clone(), Some(graph.clone()))
        .save(registry.join("t0.hypr"))
        .unwrap();
    let server = hyper_serve::Server::start(
        &registry,
        hyper_serve::ServeConfig {
            workers: 2,
            queue_depth: 64,
            ..hyper_serve::ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    // One warm request loads the snapshot and trains the estimator so the
    // measured window is steady-state serving, not cold setup.
    let mut warm = hyper_serve::Client::connect(addr).unwrap();
    let warm_response = warm.query("/query", "t0", query_text, &[]).unwrap();
    assert_eq!(warm_response.status, 200, "warmup must succeed");

    let serve_start = std::time::Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = hyper_serve::Client::connect(addr).unwrap();
                    let mut lat = Vec::with_capacity(requests_per_conn);
                    for _ in 0..requests_per_conn {
                        let t0 = std::time::Instant::now();
                        let response = client.query("/query", "t0", query_text, &[]).unwrap();
                        assert_eq!(response.status, 200, "steady-state request failed");
                        lat.push(secs_to_us(t0.elapsed()));
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("serve client thread"))
            .collect()
    });
    let serve_elapsed = serve_start.elapsed();
    let total_requests = (connections * requests_per_conn) as f64;
    let shed = server.stats().total(|c| &c.shed);
    // Scrape `/metrics` while the server is still up: the exposition
    // must validate (every sample typed, every value parseable) and the
    // per-tenant latency quantiles this load generated must be present.
    // A malformed line or a missing series fails the bench — and with
    // it the CI bench-smoke job.
    let metrics = warm.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200, "/metrics must answer inline");
    let text = metrics.text().expect("/metrics body is UTF-8");
    hyper_serve::metrics::validate(text)
        .unwrap_or_else(|e| panic!("malformed /metrics exposition: {e}"));
    for series in [
        "hyper_serve_latency_seconds{tenant=\"t0\",route=\"query\",stage=\"queue_wait\",quantile=\"0.5\"}",
        "hyper_serve_latency_seconds{tenant=\"t0\",route=\"query\",stage=\"queue_wait\",quantile=\"0.99\"}",
        "hyper_serve_latency_seconds{tenant=\"t0\",route=\"query\",stage=\"execute\",quantile=\"0.5\"}",
        "hyper_serve_latency_seconds{tenant=\"t0\",route=\"query\",stage=\"execute\",quantile=\"0.99\"}",
        "hyper_session_traced_queries_total{tenant=\"t0\"}",
        "hyper_serve_uptime_seconds",
        // At least one per-phase series must be exported. Which phases
        // fire depends on cache state — earlier bench sections already
        // trained this estimator through the process-wide artifact
        // store, so ForestTrain may legitimately be absent here (the
        // cold-process serve integration test pins that one exactly).
        "hyper_session_phase_seconds_total{tenant=\"t0\",phase=\"",
    ] {
        assert!(
            text.contains(series),
            "/metrics is missing required series {series}"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&registry).ok();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ServeRun {
        qps: total_requests / serve_elapsed.as_secs_f64(),
        shed,
        mean_us: secs_to_us(serve_elapsed) / total_requests,
        p50_us: percentile(&latencies_us, 50.0),
        p99_us: percentile(&latencies_us, 99.0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_10.json".to_string());
    let reps: usize = std::env::var("BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    // The big-row scale point. Defaults to the full 1M; CI sets
    // HYPER_BENCH_ROWS to a smaller count to stay inside its time budget
    // (the scaling gate below adjusts proportionally).
    let big_rows: usize = std::env::var("HYPER_BENCH_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
        .max(N);

    let data = hyper_datasets::german_syn(N, 1);
    let t = data.db.table("german_syn").unwrap().clone();
    let pred = german_predicate();
    let enc = TableEncoder::fit(&t, &encoder_columns()).unwrap();
    let x = enc.encode_table(&t).unwrap();
    let y: Vec<f64> = (0..x.rows()).map(|i| x.get(i, 0)).collect();
    let forest = RandomForest::fit(
        &x,
        &y,
        &ForestParams {
            n_trees: 16,
            ..ForestParams::default()
        },
    )
    .unwrap();

    let mut entries: Vec<Entry> = Vec::new();

    // Storage: filter scan.
    let vec_t = time_avg(reps, || filter(&t, &pred).unwrap().num_rows());
    let ref_t = time_avg(reps, || filter_row_reference(&t, &pred).num_rows());
    entries.push(Entry::new(
        "filter_scan_german_10k",
        secs_to_us(vec_t),
        Some(secs_to_us(ref_t)),
    ));

    // Storage: table encode.
    let vec_t = time_avg(reps, || enc.encode_table(&t).unwrap().rows());
    let ref_t = time_avg(reps, || encode_row_reference(&enc, &t).rows());
    entries.push(Entry::new(
        "table_encode_german_10k",
        secs_to_us(vec_t),
        Some(secs_to_us(ref_t)),
    ));

    // ML: batch forest prediction.
    let pred_t = time_avg(reps, || forest.predict(&x).len());
    entries.push(Entry::new(
        "forest_predict_german_10k",
        secs_to_us(pred_t),
        None,
    ));

    // ML: histogram/cell-based parallel forest training (the cold-what-if
    // dominator this run exists to watch) vs the PR-3 sequential
    // sort-based path, measured live on this machine.
    let train_t = time_avg(reps, || {
        RandomForest::fit(
            &x,
            &y,
            &ForestParams {
                n_trees: 16,
                ..ForestParams::default()
            },
        )
        .unwrap()
        .num_trees()
    });
    let train_ref_t = time_avg(reps.clamp(1, 3), || forest_train_row_reference(&x, &y, 16));
    entries.push(Entry::new(
        "forest_train_german_10k",
        secs_to_us(train_t),
        Some(secs_to_us(train_ref_t)),
    ));

    // Session: cold what-if (a fresh isolated session per call) vs
    // prepared over a warm cache.
    let q = match hyper_query::parse_query(
        "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')",
    )
    .unwrap()
    {
        hyper_query::HypotheticalQuery::WhatIf(q) => q,
        _ => unreachable!(),
    };
    let config = EngineConfig::hyper();
    let db = Arc::new(data.db.clone());
    let graph = Arc::new(data.graph.clone());
    let cold_reps = reps.clamp(1, 3);
    let cold_t = time_avg(cold_reps, || {
        cold_session(&db, &graph, &config)
            .build()
            .whatif(&q)
            .unwrap()
    });
    let session = HyperSession::builder(Arc::clone(&db))
        .graph(Arc::clone(&graph))
        .config(config)
        .build();
    let prepared = session.prepare(&q).unwrap();
    prepared.execute().unwrap(); // warm
    let warm_t = time_avg(reps, || prepared.execute_whatif().unwrap());
    entries.push(Entry::new(
        "whatif_prepared_german_10k",
        secs_to_us(warm_t),
        Some(secs_to_us(cold_t)),
    ));
    entries.push(Entry::new(
        "whatif_cold_german_10k",
        secs_to_us(cold_t),
        Some(PR3_COLD_WHATIF_US),
    ));

    // Tracing overhead (PR 10): the same prepared what-if with
    // phase tracing enabled vs disabled, interleaved best-of-3 on both
    // sides so a scheduler hiccup cannot charge one side only. The
    // traced path allocates one `TraceTree` and records a handful of
    // spans per query; the gate below requires ≤1.05× the disabled
    // path. The traced value must also stay *bit-identical* — tracing
    // observes the computation, never participates in it.
    let overhead_reps = (reps * 20).max(100);
    let untraced_value = prepared.execute_whatif().unwrap().value;
    session.set_tracing(true);
    let traced_value = prepared.execute_whatif().unwrap().value;
    assert_eq!(
        traced_value.to_bits(),
        untraced_value.to_bits(),
        "tracing must not perturb results"
    );
    session.set_tracing(false);
    let (mut untraced_us, mut traced_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        untraced_us = untraced_us.min(secs_to_us(time_avg(overhead_reps, || {
            prepared.execute_whatif().unwrap()
        })));
        session.set_tracing(true);
        traced_us = traced_us.min(secs_to_us(time_avg(overhead_reps, || {
            prepared.execute_whatif().unwrap()
        })));
        session.set_tracing(false);
    }
    let mut e = Entry::new("whatif_prepared_traced_german_10k", traced_us, None);
    e.extra = vec![("untraced_mean_us", untraced_us)];
    entries.push(e);

    // Phase breakdown of the prepared path, from the traced runs above:
    // cumulative per-phase exclusive time out of the session's
    // stabilized snapshot, exported into the JSON so future perf PRs
    // can see *which phase* moved, not just the total.
    let phase_snapshot = session.snapshot();

    // Warm start: the first what-if of a "restarted" process — in-memory
    // artifact store cleared, session rebuilt over a persist directory
    // populated by a previous life — vs the full-retrain cold path. The
    // restarted process deserializes the relevant view and the fitted
    // forest from `HYPR1` artifact files instead of rebuilding them.
    let persist = std::env::temp_dir().join(format!("hyper_bench_warm_{}", std::process::id()));
    std::fs::remove_dir_all(&persist).ok();
    let restarted_session = || {
        HyperSession::builder(Arc::clone(&db))
            .graph(Arc::clone(&graph))
            .config(EngineConfig::hyper())
            .persist_dir(&persist)
            .build()
    };
    // One cold run with persistence on populates the artifact files.
    SharedArtifactStore::global().clear();
    restarted_session().whatif(&q).unwrap();
    let warm_t = time_avg(cold_reps, || {
        SharedArtifactStore::global().clear(); // drop all in-memory state
        let session = restarted_session();
        let r = session.whatif(&q).unwrap();
        let stats = session.stats();
        assert_eq!(stats.estimator_misses, 0, "warm start must not retrain");
        assert!(
            stats.estimator_disk_hits > 0,
            "estimator must come from disk"
        );
        r
    });
    std::fs::remove_dir_all(&persist).ok();
    entries.push(Entry::new(
        "warm_start_german_10k",
        secs_to_us(warm_t),
        Some(secs_to_us(cold_t)),
    ));

    // Ingest: block-scoped delta refresh vs a from-scratch rebuild. The
    // session serves a working set of four filtered what-if templates
    // over young applicants (`age = 0/1/< 2/< 1`); then a 1% append of
    // senior applicants (every row has age = 2) lands. No filter admits
    // any appended row, so every view, block, and estimator survives the
    // refresh and the whole working set re-serves as pure cache hits —
    // zero view rebuilds, zero retrains. Restoring service through
    // `refresh` is gated ≥3× faster than the pre-ingest alternative: a
    // cold session over the post-delta database rebuilding every view
    // and retraining every estimator from scratch.
    const UNTOUCHED_TEXTS: [&str; 4] = [
        "Use (Select status, credit From german_syn Where age = 0) \
         Update(status) = 3 Output Count(Post(credit) = 'Good')",
        "Use (Select status, credit From german_syn Where age = 1) \
         Update(status) = 3 Output Count(Post(credit) = 'Good')",
        "Use (Select status, credit From german_syn Where age < 2) \
         Update(status) = 3 Output Count(Post(credit) = 'Good')",
        "Use (Select savings, credit From german_syn Where age < 1) \
         Update(savings) = 0 Output Count(Post(credit) = 'Good')",
    ];
    for text in UNTOUCHED_TEXTS {
        session.whatif_text(text).unwrap();
    }
    let mut appends = TableBuilder::new("german_syn", t.schema().clone());
    for i in 0..(N / 100) as i64 {
        appends = appends
            .row(vec![
                Value::Int(2),
                Value::Int(i % 2),
                Value::Int(i % 4),
                Value::Int((i / 2) % 4),
                Value::Int(i % 3),
                Value::Int((i / 3) % 4),
                Value::Str(if i % 4 == 0 { "Bad" } else { "Good" }.into()),
            ])
            .unwrap();
    }
    let delta = DeltaBatch::new().append(appends.build());
    let refresh_t = time_avg(cold_reps, || {
        let out = session.refresh(&delta).unwrap();
        assert!(
            out.report.views_kept >= UNTOUCHED_TEXTS.len(),
            "every non-matching filtered view must survive the append"
        );
        let before = out.session.stats();
        let mut sum = 0.0;
        for text in UNTOUCHED_TEXTS {
            sum += out.session.whatif_text(text).unwrap().value;
        }
        let after = out.session.stats();
        assert_eq!(
            (after.view_misses, after.estimator_misses),
            (before.view_misses, before.estimator_misses),
            "untouched-block what-ifs after a delta refresh must be pure cache hits"
        );
        sum
    });
    let post = Arc::new(delta.apply(session.database()).unwrap());
    let rebuild_t = time_avg(cold_reps, || {
        let cold = HyperSession::builder(Arc::clone(&post))
            .graph(data.graph.clone())
            .config(EngineConfig::hyper())
            .share_artifacts(false)
            .build();
        let mut sum = 0.0;
        for text in UNTOUCHED_TEXTS {
            sum += cold.whatif_text(text).unwrap().value;
        }
        sum
    });
    entries.push(Entry::new(
        "delta_refresh_german_10k",
        secs_to_us(refresh_t),
        Some(secs_to_us(rebuild_t)),
    ));

    // Serving: sustained queries/sec through the full HTTP + admission
    // stack — 8 persistent connections pipelining the prepared what-if
    // against a snapshot tenant. The queue (depth 64) can never fill at
    // 8 sequential connections, so any shed request is a server bug, and
    // the gate below requires zero. Carried forward from PR 6 next to the
    // big-row entry below so the two scale points stay comparable.
    const SERVE_TEXT: &str =
        "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')";
    let serve_10k = serve_run(&data.db, &data.graph, "10k", SERVE_TEXT, 8, 50);
    let mut e = Entry::new("serve_qps_german_10k", serve_10k.mean_us, None);
    e.extra = vec![("p50_us", serve_10k.p50_us), ("p99_us", serve_10k.p99_us)];
    entries.push(e);

    // ---------------------------------------------------------------
    // The big-row scale point (German-Syn 1M by default): the same data
    // path — filter scan, forest train and predict, cold what-if,
    // serving — at 100× the rows. Same generator, same query, only the
    // row count moves.
    drop((x, y, forest));
    let big = hyper_datasets::german_syn(big_rows, 1);
    let (big_db, big_graph) = (Arc::new(big.db), Arc::new(big.graph));
    let bt = big_db.table("german_syn").unwrap().clone();
    let big_reps = reps.clamp(1, 2);

    // Storage: morsel-parallel filter vs the same scan forced into a
    // single morsel (= the sequential path through identical code). On
    // a multi-core runner the parallel side must win ≥1.5× (gated
    // below); on 1-core runners both sides degrade to the same
    // sequential scan and the gate auto-skips.
    let rt = HyperRuntime::global();
    let seq_sel = matching_rows_on(rt, &bt, &pred, bt.num_rows().max(1)).unwrap();
    let par_sel = matching_rows_on(rt, &bt, &pred, DEFAULT_MORSEL_ROWS).unwrap();
    assert_eq!(
        seq_sel, par_sel,
        "morsel-parallel selection diverged from sequential"
    );
    drop((seq_sel, par_sel));
    let par_t = time_avg(reps, || {
        matching_rows_on(rt, &bt, &pred, DEFAULT_MORSEL_ROWS)
            .unwrap()
            .len()
    });
    let seq_t = time_avg(reps, || {
        matching_rows_on(rt, &bt, &pred, bt.num_rows().max(1))
            .unwrap()
            .len()
    });
    entries.push(Entry::new(
        "filter_scan_german_1m",
        secs_to_us(par_t),
        Some(secs_to_us(seq_t)),
    ));

    // Forest training at the big scale point: the same 16-tree fit on
    // the global pool and on a zero-worker runtime. Each tree derives its
    // RNG from (seed, tree index), so the two forests must be
    // bit-identical; with ≥2 workers the pool must win ≥2× (gated below).
    let train_cols = encoder_columns();
    let big_enc = TableEncoder::fit(&bt, &train_cols).unwrap();
    let xm = big_enc.encode_table(&bt).unwrap();
    let big_y_age = TableEncoder::target_vector(&bt, "age").unwrap();
    let train_params = ForestParams {
        n_trees: 16,
        ..ForestParams::default()
    };
    let rt0 = HyperRuntime::with_workers(0);
    let pool_train_t = time_avg(big_reps, || {
        RandomForest::fit_on(rt, &xm, &big_y_age, &train_params)
            .unwrap()
            .num_trees()
    });
    let seq_train_t = time_avg(big_reps, || {
        RandomForest::fit_on(&rt0, &xm, &big_y_age, &train_params)
            .unwrap()
            .num_trees()
    });
    let pool_forest = RandomForest::fit_on(rt, &xm, &big_y_age, &train_params).unwrap();
    let seq_forest = RandomForest::fit_on(&rt0, &xm, &big_y_age, &train_params).unwrap();
    for i in [0, bt.num_rows() / 2, bt.num_rows() - 1] {
        assert_eq!(
            seq_forest.predict_row(xm.row(i)).to_bits(),
            pool_forest.predict_row(xm.row(i)).to_bits(),
            "forest fitted on the global pool diverged from the zero-worker fit at row {i}"
        );
    }
    drop((xm, pool_forest, seq_forest));
    entries.push(Entry::new(
        "forest_train_german_1m",
        secs_to_us(pool_train_t),
        Some(secs_to_us(seq_train_t)),
    ));

    // ML: encode + batch-predict at the big scale point (the morsel
    // fan-out paths).
    let big_x = enc.encode_table(&bt).unwrap();
    let big_y: Vec<f64> = (0..big_x.rows()).map(|i| big_x.get(i, 0)).collect();
    let big_forest = RandomForest::fit(
        &big_x,
        &big_y,
        &ForestParams {
            n_trees: 16,
            ..ForestParams::default()
        },
    )
    .unwrap();
    let big_pred_t = time_avg(big_reps, || big_forest.predict(&big_x).len());
    entries.push(Entry::new(
        "forest_predict_german_1m",
        secs_to_us(big_pred_t),
        None,
    ));
    drop((big_x, big_y, big_forest));

    // Session: cold what-if at the big scale point. Gated below against
    // 1.5× linear scaling of the 10k measurement (≤150× at the full 1M).
    let big_cold_t = time_avg(big_reps, || {
        cold_session(&big_db, &big_graph, &EngineConfig::hyper())
            .build()
            .whatif(&q)
            .unwrap()
    });
    entries.push(Entry::new(
        "whatif_cold_german_1m",
        secs_to_us(big_cold_t),
        None,
    ));

    // Serving at the big scale point: fewer requests (each response is
    // the same size; the tenant just carries 100× the rows), with tail
    // latency recorded alongside throughput.
    let serve_1m = serve_run(&big_db, &big_graph, "1m", SERVE_TEXT, 4, 25);
    let mut e = Entry::new("serve_qps_german_1m", serve_1m.mean_us, None);
    e.extra = vec![("p50_us", serve_1m.p50_us), ("p99_us", serve_1m.p99_us)];
    entries.push(e);

    // Render JSON by hand (no serde in the offline workspace).
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"mean_us\": {:.1}",
            e.name, e.micros
        );
        if let Some(b) = e.baseline_micros {
            let _ = write!(
                json,
                ", \"baseline_mean_us\": {:.1}, \"speedup\": {:.2}",
                b,
                b / e.micros
            );
        }
        for (key, v) in &e.extra {
            let _ = write!(json, ", \"{key}\": {v:.1}");
        }
        json.push('}');
        if i + 1 < entries.len() {
            json.push(',');
        }
        json.push('\n');
    }
    // Per-phase exclusive time accumulated by the traced prepared runs:
    // where the warm path actually spends its microseconds.
    json.push_str("  ],\n  \"phases\": {\n");
    let traced = phase_snapshot.traced_queries.max(1) as f64;
    let active: Vec<hyper_core::Phase> = hyper_core::Phase::ALL
        .into_iter()
        .filter(|&p| phase_snapshot.phase_ns(p) > 0 || phase_snapshot.phase_count(p) > 0)
        .collect();
    for (i, phase) in active.iter().enumerate() {
        let _ = write!(
            json,
            "    \"{}\": {{\"self_us_per_query\": {:.2}, \"spans\": {}}}",
            phase.name(),
            phase_snapshot.phase_ns(*phase) as f64 / 1_000.0 / traced,
            phase_snapshot.phase_count(*phase),
        );
        if i + 1 < active.len() {
            json.push(',');
        }
        json.push('\n');
    }
    let _ = write!(
        json,
        "  }},\n  \"serve_qps\": {:.1},\n  \"serve_shed\": {},\n  \"serve_qps_1m\": {:.1},\n  \"serve_shed_1m\": {},\n  \"rows\": {N},\n  \"big_rows\": {big_rows},\n  \"workers\": {},\n  \"reps\": {reps},\n  \"issue\": 10\n}}\n",
        serve_10k.qps,
        serve_10k.shed,
        serve_1m.qps,
        serve_1m.shed,
        HyperRuntime::global().workers(),
    );

    std::fs::write(&out_path, &json).expect("write benchmark summary");
    println!("{json}");
    println!("wrote {out_path}");

    // Guard the acceptance criteria: vectorized filter/encode must stay
    // well ahead of the Value-per-cell baselines (PR 3), and cold what-if
    // must hold ≥2× over the PR-3 training path (this PR's headline).
    for e in &entries {
        if let Some(b) = e.baseline_micros {
            let speedup = b / e.micros;
            if (e.name.starts_with("filter_scan_german_10k") || e.name.starts_with("table_encode"))
                && speedup < 3.0
            {
                eprintln!("REGRESSION: {} speedup {speedup:.2} < 3.0", e.name);
                std::process::exit(1);
            }
            // Hardware-independent gate: histogram/cell training vs the
            // live sequential sort-based reference on the same machine.
            if e.name == "forest_train_german_10k" && speedup < 2.0 {
                eprintln!("REGRESSION: {} speedup {speedup:.2} < 2.0", e.name);
                std::process::exit(1);
            }
            // Absolute gate from the acceptance criterion. The constant
            // was measured on the reference container; current headroom
            // is ~7x, so moderate runner variance cannot trip it, but a
            // much slower CI machine would need this constant revisited.
            if e.name == "whatif_cold_german_10k" && speedup < 2.0 {
                eprintln!(
                    "REGRESSION: cold what-if {:.1}us is less than 2x faster than \
                     the PR-3 baseline {PR3_COLD_WHATIF_US:.1}us ({speedup:.2}x)",
                    e.micros
                );
                std::process::exit(1);
            }
            // Warm-start gate: a restarted process recovering artifacts
            // from the persist directory must beat full retraining by
            // ≥3× (both sides measured live on this machine).
            if e.name == "warm_start_german_10k" && speedup < 3.0 {
                eprintln!(
                    "REGRESSION: warm start {:.1}us is less than 3x faster than \
                     retraining {b:.1}us ({speedup:.2}x)",
                    e.micros
                );
                std::process::exit(1);
            }
            // Delta-refresh gate (PR 7): running the block-scoped
            // survival analysis and re-serving the untouched what-if
            // must beat a from-scratch session over the post-delta
            // database by ≥3× (both sides measured live).
            if e.name == "delta_refresh_german_10k" && speedup < 3.0 {
                eprintln!(
                    "REGRESSION: delta refresh {:.1}us is less than 3x faster than \
                     a cold rebuild {b:.1}us ({speedup:.2}x)",
                    e.micros
                );
                std::process::exit(1);
            }
        }
    }
    // Tracing-overhead gate (PR 10): phase tracing on the prepared
    // what-if path may cost at most 5% over the disabled path (both
    // sides best-of-3 interleaved above). The disabled path itself is
    // one relaxed atomic load per query.
    let overhead = traced_us / untraced_us;
    if overhead > 1.05 {
        eprintln!(
            "REGRESSION: traced prepared what-if {traced_us:.1}us is {overhead:.3}x the \
             disabled path {untraced_us:.1}us (> 1.05x)"
        );
        std::process::exit(1);
    }

    // Continuity with the committed PR-9 summary: the disabled-path
    // prepared what-if must not regress more than 5% against the
    // recorded BENCH_9 mean (measured on the same reference container).
    // A big *improvement* is reported, not failed — that is a signal to
    // refresh the recorded baseline, not a defect.
    if let Ok(prev) = std::fs::read_to_string("BENCH_9.json") {
        let prev_prepared = prev
            .find("\"whatif_prepared_german_10k\", \"mean_us\": ")
            .and_then(|i| {
                let rest = &prev[i + "\"whatif_prepared_german_10k\", \"mean_us\": ".len()..];
                rest[..rest.find(',')?].trim().parse::<f64>().ok()
            });
        if let Some(prev_us) = prev_prepared {
            let prepared_us = entries
                .iter()
                .find(|e| e.name == "whatif_prepared_german_10k")
                .map(|e| e.micros)
                .unwrap();
            let ratio = prepared_us / prev_us;
            if ratio > 1.05 {
                eprintln!(
                    "REGRESSION: prepared what-if {prepared_us:.1}us is {ratio:.3}x the \
                     BENCH_9 baseline {prev_us:.1}us (> 1.05x)"
                );
                std::process::exit(1);
            }
            if ratio < 0.95 {
                eprintln!(
                    "note: prepared what-if {prepared_us:.1}us beats the BENCH_9 baseline \
                     {prev_us:.1}us by more than 5% — consider refreshing the baseline"
                );
            }
        } else {
            eprintln!("note: BENCH_9.json present but its prepared entry did not parse");
        }
    } else {
        eprintln!("note: BENCH_9.json not found; continuity gate skipped");
    }

    // Serving gates (PR 6): 8 persistent connections must sustain a qps
    // floor through the full HTTP + admission stack, and the 64-deep
    // queue must shed nothing at this well-under-capacity load. The
    // floor is deliberately coarse (steady-state per-request cost is
    // ~100x under it on the reference container) — this catches "the
    // server serializes everything" or "keep-alive broke", not jitter.
    if serve_10k.qps < 100.0 {
        eprintln!(
            "REGRESSION: serve qps {:.1} < 100 at 8 connections",
            serve_10k.qps
        );
        std::process::exit(1);
    }
    if serve_10k.shed != 0 || serve_1m.shed != 0 {
        eprintln!(
            "REGRESSION: requests shed at a load far under queue capacity \
             (10k: {}, 1m: {})",
            serve_10k.shed, serve_1m.shed
        );
        std::process::exit(1);
    }

    // Scaling gate (PR 8): the big-row cold what-if must stay within
    // 1.5× linear scaling of the 10k cold what-if — ≤150× at the full
    // 1M (both sides measured live on this machine, so the gate is
    // hardware-independent and adjusts when CI shrinks the big-row
    // count through HYPER_BENCH_ROWS).
    let cold_10k_us = entries
        .iter()
        .find(|e| e.name == "whatif_cold_german_10k")
        .map(|e| e.micros)
        .unwrap();
    let big_cold_us = entries
        .iter()
        .find(|e| e.name == "whatif_cold_german_1m")
        .map(|e| e.micros)
        .unwrap();
    let allowed = 1.5 * (big_rows as f64 / N as f64) * cold_10k_us;
    if big_cold_us > allowed {
        eprintln!(
            "REGRESSION: cold what-if at {big_rows} rows took {big_cold_us:.0}us, over the \
             1.5x-linear-scaling allowance of {allowed:.0}us ({:.0}x the 10k {cold_10k_us:.0}us)",
            big_cold_us / cold_10k_us
        );
        std::process::exit(1);
    }

    // Parallel-filter gate (PR 8): with ≥2 workers in the global pool,
    // the morsel-parallel scan must beat the single-morsel sequential
    // scan ≥1.5×. On 1-core runners (0 or 1 workers) both sides run the
    // same sequential code and the gate auto-skips — bit-parity is
    // still asserted above and property-tested in crates/storage.
    let workers = HyperRuntime::global().workers();
    if workers >= 2 {
        let par = entries
            .iter()
            .find(|e| e.name == "filter_scan_german_1m")
            .unwrap();
        let speedup = par.baseline_micros.unwrap() / par.micros;
        if speedup < 1.5 {
            eprintln!(
                "REGRESSION: morsel-parallel filter speedup {speedup:.2} < 1.5 \
                 with {workers} workers"
            );
            std::process::exit(1);
        }
    } else {
        // Zero-worker fast path (PR 9): with no pool, the morsel entry
        // points must route straight to the sequential scan without
        // allocating any morsel state — the parallel-named call may not
        // cost more than ~5% over the sequential one.
        // Only meaningful at scale: under ~100k rows the scan is
        // sub-millisecond and timing noise alone exceeds the 5% margin
        // (CI runs 200k, where the gate is stable).
        if big_rows >= 100_000 {
            let par = entries
                .iter()
                .find(|e| e.name == "filter_scan_german_1m")
                .unwrap();
            let ratio = par.baseline_micros.unwrap() / par.micros;
            if ratio < 0.95 {
                eprintln!(
                    "REGRESSION: morsel filter costs {:.2}x the sequential scan \
                     with {workers} workers (zero-worker fast path broken)",
                    1.0 / ratio
                );
                std::process::exit(1);
            }
        }
        eprintln!("note: parallel-filter gate skipped ({workers} workers in the global pool)");
    }

    // Parallel forest-training gate: with ≥2 workers, the fit on
    // the global pool must beat the zero-worker fit ≥2× (both sides
    // measured live over the same targets; the forests are asserted
    // bit-identical above). On 1-core runners both sides run the same
    // sequential loop and the gate auto-skips — bit-identity across
    // worker counts is still property-tested in crates/ml.
    if workers >= 2 {
        let e = entries
            .iter()
            .find(|e| e.name == "forest_train_german_1m")
            .unwrap();
        let speedup = e.baseline_micros.unwrap() / e.micros;
        if speedup < 2.0 {
            eprintln!(
                "REGRESSION: parallel forest training speedup {speedup:.2} < 2.0 \
                 with {workers} workers"
            );
            std::process::exit(1);
        }
    } else {
        eprintln!("note: forest-training gate skipped ({workers} workers in the global pool)");
    }
}
