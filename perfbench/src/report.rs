//! The result line: end-to-end metrics of the untraced window, or the
//! per-layer breakdown of the traced pass, as one JSON object.

use hyper_core::{Phase, SessionStats, NUM_PHASES};

use crate::measure::{median, percentile_of, Window};

/// Every per-layer metric, with its unit. Each workload prints all of
/// them; a layer that does not run in a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_ms", "ms"),
    ("query.texts_parsed_per_query", "count"),
    ("core.plan_ms", "ms"),
    ("core.cache_lookup_ms", "ms"),
    ("core.view_hit_ratio", "ratio"),
    ("core.estimator_hit_ratio", "ratio"),
    ("core.view_build_ms", "ms"),
    ("core.execute_self_ms", "ms"),
    ("core.trainings_per_query", "count"),
    ("causal.block_decomp_ms", "ms"),
    ("ml.encoder_fit_ms", "ms"),
    ("ml.forest_train_ms", "ms"),
    ("ml.predict_ms", "ms"),
    ("ml.trainings_streamed_per_query", "count"),
    ("howto.candidates_per_query", "count"),
    ("howto.whatif_evals_per_query", "count"),
    ("runtime.workers", "count"),
    ("runtime.cpu_util", "ratio"),
    ("store.snapshot_load_ms", "ms"),
    ("ingest.write_p50_ms", "ms"),
    ("ingest.refresh_ms", "ms"),
    ("ingest.views_kept_ratio", "ratio"),
    ("ingest.estimators_kept_ratio", "ratio"),
    ("serve.read_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.execute_p50_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Session counters accumulated over a window, possibly across many
/// sessions (the how-to builds one per operation).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub phase_ns: [u64; NUM_PHASES],
    pub texts_parsed: u64,
    pub view_hits: u64,
    pub view_misses: u64,
    pub estimator_hits: u64,
    pub estimator_misses: u64,
    pub trainings_streamed: u64,
}

impl Tally {
    /// The counters one session gained between two snapshots.
    pub fn between(a: &SessionStats, b: &SessionStats) -> Tally {
        let view_hits = |s: &SessionStats| s.view_hits + s.view_shared_hits + s.view_disk_hits;
        let estimator_hits =
            |s: &SessionStats| s.estimator_hits + s.estimator_shared_hits + s.estimator_disk_hits;
        Tally {
            phase_ns: std::array::from_fn(|i| b.trace_phase_ns[i] - a.trace_phase_ns[i]),
            texts_parsed: b.texts_parsed - a.texts_parsed,
            view_hits: view_hits(b) - view_hits(a),
            view_misses: b.view_misses - a.view_misses,
            estimator_hits: estimator_hits(b) - estimator_hits(a),
            estimator_misses: b.estimator_misses - a.estimator_misses,
            trainings_streamed: b.trainings_streamed - a.trainings_streamed,
        }
    }

    /// Everything one fresh session did over its lifetime.
    pub fn of(s: &SessionStats) -> Tally {
        Tally::between(&SessionStats::default(), s)
    }

    pub fn add(&mut self, o: &Tally) {
        for (a, b) in self.phase_ns.iter_mut().zip(o.phase_ns) {
            *a += b;
        }
        self.texts_parsed += o.texts_parsed;
        self.view_hits += o.view_hits;
        self.view_misses += o.view_misses;
        self.estimator_hits += o.estimator_hits;
        self.estimator_misses += o.estimator_misses;
        self.trainings_streamed += o.trainings_streamed;
    }

    fn phase_ms(&self, phase: Phase, per: f64) -> f64 {
        self.phase_ns[phase as usize] as f64 / 1e6 / per
    }
}

/// Share of lookups that hit; 1.0 when the window made no lookup (nothing
/// was rebuilt).
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer values by name; unset metrics print as 0.
#[derive(Debug, Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// Fill the session-level layers from `tally`: phase self time per
    /// traced operation, counters per operation.
    pub fn session(&mut self, t: &Tally, ops: f64, traced_ops: f64) {
        let traced = traced_ops.max(1.0);
        self.set("query.parse_ms", t.phase_ms(Phase::Parse, traced));
        self.set("query.texts_parsed_per_query", t.texts_parsed as f64 / ops);
        self.set("core.plan_ms", t.phase_ms(Phase::Plan, traced));
        self.set(
            "core.cache_lookup_ms",
            t.phase_ms(Phase::CacheLookup, traced),
        );
        self.set("core.view_hit_ratio", hit_ratio(t.view_hits, t.view_misses));
        self.set(
            "core.estimator_hit_ratio",
            hit_ratio(t.estimator_hits, t.estimator_misses),
        );
        self.set("core.view_build_ms", t.phase_ms(Phase::ViewBuild, traced));
        self.set("core.execute_self_ms", t.phase_ms(Phase::Execute, traced));
        self.set("core.trainings_per_query", t.estimator_misses as f64 / ops);
        self.set(
            "causal.block_decomp_ms",
            t.phase_ms(Phase::BlockDecomp, traced),
        );
        self.set("ml.encoder_fit_ms", t.phase_ms(Phase::EncoderFit, traced));
        self.set("ml.forest_train_ms", t.phase_ms(Phase::ForestTrain, traced));
        self.set("ml.predict_ms", t.phase_ms(Phase::Predict, traced));
        self.set(
            "ml.trainings_streamed_per_query",
            t.trainings_streamed as f64 / ops,
        );
    }
}

/// The six end-to-end metrics of one workload.
pub struct EndToEnd<'a> {
    pub setup_s: &'a [f64],
    pub window: &'a Window,
    pub peak_rss_mib: f64,
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Print a readable table of `metrics` on stdout, then the result line.
fn emit(w: &Window, metrics: &[Metric]) {
    println!(
        "# window {:.2} s, {} queries ({} failed) in {} latency samples, process cpu {:.2} s, host steal {:.2} cpu-s",
        w.wall_s,
        w.attempted,
        w.failed,
        w.lat_ms.len(),
        w.cpu_s,
        w.steal_s
    );
    for m in metrics {
        println!(
            "# {:<34} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.attempted,
        w.failed,
        body.join(", ")
    );
}

/// Print the end-to-end result.
pub fn emit_end_to_end(e: &EndToEnd) {
    let w = e.window;
    let n = w.lat_ms.len();
    let setups: Vec<String> = e.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("# setup_s samples: {}", setups.join(" "));
    let completed = w.attempted - w.failed;
    let metrics = [
        Metric {
            name: "setup_s",
            value: median(e.setup_s),
            unit: "s",
            samples: e.setup_s.len(),
        },
        Metric {
            name: "query_p50_ms",
            value: percentile_of(&w.lat_ms, 50.0),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "query_p90_ms",
            value: percentile_of(&w.lat_ms, 90.0),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "queries_per_s",
            value: completed as f64 / w.wall_s,
            unit: "1/s",
            samples: completed as usize,
        },
        Metric {
            name: "cpu_ms_per_query",
            value: w.cpu_s * 1e3 / (completed.max(1) as f64),
            unit: "ms",
            samples: completed as usize,
        },
        Metric {
            name: "peak_rss_mb",
            value: e.peak_rss_mib,
            unit: "MiB",
            samples: 1,
        },
    ];
    emit(w, &metrics);
}

/// Print the per-layer result of a traced pass.
pub fn emit_layers(layers: &Layers, window: &Window) {
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers
                .0
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
            unit,
            samples: window.lat_ms.len(),
        })
        .collect();
    emit(window, &metrics);
}
