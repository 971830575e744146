//! The library workloads: warm what-if over German-Syn and cold how-to
//! over German-Syn-ext, each driving `HyperSession` directly.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hyper_causal::CausalGraph;
use hyper_core::{
    EngineConfig, HowToOptions, HowToResult, HyperSession, SessionStats, SharedArtifactStore,
};
use hyper_runtime::HyperRuntime;
use hyper_storage::Database;
use hyper_store::Snapshot;

use crate::measure::{closed_loop, median, ms_since, peak_rss_mib, Window};
use crate::report::{emit_end_to_end, emit_layers, EndToEnd, Layers, Tally};
use crate::{over_budget, wrong, Ctx, SETUPS_AFTER, SETUPS_BEFORE};

/// The what-if of the warm workload (the paper's Table 1 shape).
const WHATIF: &str = "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')";

/// The how-to of `howto_10k`: four attributes to update, one objective.
const HOWTO: &str = "Use german_syn HowToUpdate status, savings, housing, credit_amount \
                     ToMaximize Count(Post(credit) = 'Good')";

/// Buckets per continuous attribute in the how-to candidate enumeration.
const HOWTO_BUCKETS: usize = 4;

/// Queries per latency sample (see [`Window`]): each group takes about
/// 0.2 s, long enough for the hypervisor's pauses to average out inside
/// it, and short enough that a window of the benchmark's length holds 100
/// groups even when a busy host slows the queries by half, instead of
/// running past its length to collect them.
const WARM_GROUP: u64 = 10;
const HOWTO_GROUP: u64 = 2;

/// A scenario loaded from its snapshot.
pub struct Loaded {
    db: Arc<Database>,
    graph: Arc<CausalGraph>,
}

impl Loaded {
    /// `Snapshot::load`, timed into `load_ms`.
    pub fn load(path: &Path, load_ms: &mut Vec<f64>) -> Result<Loaded, String> {
        let t0 = Instant::now();
        let snap = Snapshot::load(path).map_err(|e| format!("snapshot load: {e}"))?;
        load_ms.push(ms_since(t0));
        let graph = snap.graph.ok_or("the input snapshot has no causal graph")?;
        Ok(Loaded {
            db: Arc::new(snap.database),
            graph: Arc::new(graph),
        })
    }

    /// A session over the loaded scenario.
    pub fn session(&self, share_artifacts: bool, tracing: bool) -> HyperSession {
        HyperSession::builder(Arc::clone(&self.db))
            .graph(Arc::clone(&self.graph))
            .config(EngineConfig::hyper())
            .howto_options(HowToOptions {
                buckets: HOWTO_BUCKETS,
                max_attrs_updated: None,
            })
            .share_artifacts(share_artifacts)
            .tracing(tracing)
            .build()
    }
}

/// Layers every workload reports: runtime size and utilisation, and the
/// bench-side `Snapshot::load` time.
pub fn common_layers(layers: &mut Layers, w: &Window, load_ms: &[f64]) {
    layers.set("runtime.workers", HyperRuntime::global().workers() as f64);
    layers.set("runtime.cpu_util", w.cpu_s / w.wall_s);
    layers.set("store.snapshot_load_ms", median(load_ms));
}

/// Time `n` set-ups and keep the state of the last. Each starts after the
/// previous state is dropped and the process-wide shared artifact store is
/// emptied, so that every set-up builds its own artifacts.
pub fn timed_setups<T>(
    setup_s: &mut Vec<f64>,
    n: usize,
    setup: &mut impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut state = None;
    for _ in 0..n {
        drop(state.take());
        SharedArtifactStore::global().clear();
        let t0 = Instant::now();
        let next = setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(next);
    }
    Ok(state.expect("at least one set-up"))
}

/// The traced-to-untraced latency ratio: the median, over traced (even)
/// groups, of a group's latency divided by the mean of the untraced groups
/// just before and after it. Comparing each traced group with its
/// neighbours cancels the drift of a shared host's speed, which on a busy
/// host moves the medians of the two halves apart by several percent.
fn trace_overhead(w: &Window) -> f64 {
    let ratios: Vec<f64> = w
        .lat_ms
        .windows(3)
        .zip(&w.group[1..])
        .filter(|(_, g)| *g % 2 == 0)
        .map(|(t, _)| t[1] / ((t[0] + t[2]) / 2.0))
        .collect();
    median(&ratios)
}

/// The most tracing may slow the warm what-if ([`trace_overhead`]).
const MAX_TRACE_OVERHEAD: f64 = 1.05;

/// Print the end-to-end result, or, in trace mode, the per-layer one;
/// `extra` adds workload-specific layers.
fn finish(
    ctx: &Ctx,
    w: &Window,
    setup_s: &[f64],
    load_ms: &[f64],
    peak_rss_mib: f64,
    tally: &Tally,
    extra: impl FnOnce(&mut Layers),
) {
    if ctx.trace {
        let traced = w.group.iter().filter(|g| *g % 2 == 0).count();
        let mut layers = Layers::default();
        common_layers(&mut layers, w, load_ms);
        // Every group of a library workload has the same size.
        let group_size = w.attempted as f64 / w.lat_ms.len() as f64;
        layers.session(tally, w.attempted as f64, traced as f64 * group_size);
        layers.set("trace.overhead_ratio", trace_overhead(w));
        extra(&mut layers);
        emit_layers(&layers, w);
    } else {
        emit_end_to_end(&EndToEnd {
            setup_s,
            window: w,
            peak_rss_mib,
        });
    }
}

/// A query of a valid text over valid data returned an error: there is no
/// answer to check, so the run fails like on a wrong one.
fn failed(what: &str, e: impl std::fmt::Display) -> ! {
    wrong(&format!("{what} returned an error: {e}"))
}

/// Fail the run unless `value` is bit-identical to `expected`.
pub fn expect_bits(value: f64, expected: f64, what: &str) {
    if value.to_bits() != expected.to_bits() {
        wrong(&format!("{what}: got {value:?}, expected {expected:?}"));
    }
}

/// A cold operation must train its own estimator and never be served by
/// the process-wide shared artifact store.
fn expect_cold(stats: &SessionStats) {
    if stats.estimator_misses == 0
        || stats.view_shared_hits + stats.estimator_shared_hits + stats.block_shared_hits != 0
    {
        wrong(&format!(
            "a cold operation reused artifacts (estimator misses {}, shared hits {}/{}/{})",
            stats.estimator_misses,
            stats.view_shared_hits,
            stats.estimator_shared_hits,
            stats.block_shared_hits
        ));
    }
}

/// `whatif_warm_200k`: one session, one prepared what-if, every artifact
/// cached. In trace mode even groups run traced, odd ones untraced.
pub fn whatif_warm(ctx: &Ctx) -> Result<(), String> {
    let (mut setup_s, mut load_ms, mut first) = (Vec::new(), Vec::new(), None);
    let mut setup = || {
        let loaded = Loaded::load(&ctx.snapshot, &mut load_ms)?;
        let session = loaded.session(true, false);
        let prepared = session.prepare(WHATIF).map_err(|e| e.to_string())?;
        let value = prepared.execute_whatif().map_err(|e| e.to_string())?.value;
        expect_bits(
            value,
            *first.get_or_insert(value),
            "warm-up of a repeated set-up",
        );
        Ok((session, prepared, value))
    };
    let (session, prepared, expected) = timed_setups(&mut setup_s, SETUPS_BEFORE, &mut setup)?;

    let before = session.snapshot();
    let w = closed_loop(ctx.seconds, WARM_GROUP, |g| {
        if ctx.trace {
            session.set_tracing(g % 2 == 0);
        }
        let r = prepared
            .execute_whatif()
            .unwrap_or_else(|e| failed("warm what-if", e));
        expect_bits(r.value, expected, "warm what-if");
    });
    let tally = Tally::between(&before, &session.snapshot());
    if tally.estimator_misses != 0 {
        wrong(&format!(
            "the warm window trained {} estimator(s)",
            tally.estimator_misses
        ));
    }
    if ctx.trace && trace_overhead(&w) > MAX_TRACE_OVERHEAD {
        over_budget(&format!(
            "tracing slowed the warm what-if by {:.3}x, more than {MAX_TRACE_OVERHEAD}x",
            trace_overhead(&w)
        ));
    }
    let peak = peak_rss_mib();
    drop((session, prepared));
    timed_setups(&mut setup_s, SETUPS_AFTER, &mut setup)?;
    finish(ctx, &w, &setup_s, &load_ms, peak, &tally, |_| {});
    Ok(())
}

/// `howto_10k`: every operation answers the how-to on a fresh,
/// non-sharing session — candidate fan-out, per-candidate training and
/// the IP.
pub fn howto(ctx: &Ctx) -> Result<(), String> {
    let (mut setup_s, mut load_ms, mut first) = (Vec::new(), Vec::new(), None);
    let mut setup = || {
        let loaded = Loaded::load(&ctx.snapshot, &mut load_ms)?;
        let session = loaded.session(false, false);
        let r = session.howto_text(HOWTO).map_err(|e| e.to_string())?;
        expect_cold(&session.stats());
        expect_same_howto(&r, first.get_or_insert_with(|| r.clone()));
        Ok((loaded, r))
    };
    let (loaded, expected) = timed_setups(&mut setup_s, SETUPS_BEFORE, &mut setup)?;

    let mut tally = Tally::default();
    let (mut candidates, mut evals) = (0usize, 0usize);
    let w = closed_loop(ctx.seconds, HOWTO_GROUP, |g| {
        let s = loaded.session(false, ctx.trace && g % 2 == 0);
        let r = s.howto_text(HOWTO).unwrap_or_else(|e| failed("how-to", e));
        expect_same_howto(&r, &expected);
        let stats = s.stats();
        expect_cold(&stats);
        tally.add(&Tally::of(&stats));
        candidates += r.candidates;
        evals += r.whatif_evals;
    });
    let peak = peak_rss_mib();
    drop(loaded);
    timed_setups(&mut setup_s, SETUPS_AFTER, &mut setup)?;
    finish(ctx, &w, &setup_s, &load_ms, peak, &tally, |layers| {
        let ops = w.attempted as f64;
        layers.set("howto.candidates_per_query", candidates as f64 / ops);
        layers.set("howto.whatif_evals_per_query", evals as f64 / ops);
    });
    Ok(())
}

/// Fail the run unless two how-to answers choose the same updates with a
/// bit-identical objective.
fn expect_same_howto(got: &HowToResult, expected: &HowToResult) {
    if got.chosen != expected.chosen {
        wrong(&format!(
            "how-to chose {:?}, expected {:?}",
            got.chosen, expected.chosen
        ));
    }
    expect_bits(got.objective, expected.objective, "how-to objective");
}
