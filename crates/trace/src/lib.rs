//! Phase-level tracing and latency histograms for the HypeR engine.
//!
//! Two independent primitives, both hand-rolled over `std` (this crate
//! has zero dependencies and sits at the bottom of the workspace stack):
//!
//! * **Spans** — a per-query [`TraceTree`] records how long each typed
//!   [`Phase`] of the pipeline took. Instrumentation sites call
//!   [`span`]`(Phase::…)` and hold the returned guard for the duration
//!   of the work; a tree is installed around a query with [`with_trace`],
//!   or, where only the per-phase totals are read, a reused totals-only
//!   trace with [`with_totals`]. When no tree is installed anywhere in the process
//!   a span site costs **one relaxed atomic load** (see [`enabled`]) —
//!   tracing must never perturb results, only observe them.
//!
//!   Durations are accounted as **self time**: a span's nested child
//!   spans (on the same thread) are subtracted from it, so the
//!   per-phase totals of a single-threaded query partition the root
//!   span exactly — they sum to the measured total. Work fanned out
//!   over `hyper-runtime` workers is attributed to the same tree via
//!   [`current_context`]/[`TraceContext::with`] (the pool captures the
//!   submitter's context and installs it around each task), so on a
//!   multi-worker pool the per-phase totals are CPU-time-like sums
//!   that can exceed the wall-clock root.
//!
//! * **Histograms** — [`LatencyHistogram`] is a lock-free log-bucketed
//!   (HDR-style) histogram: `record` costs two relaxed atomic
//!   fetch-adds, buckets have ≤ 1/16 relative width, and read-side
//!   [`HistogramSnapshot`]s are mergeable and expose
//!   p50/p90/p99/p999. `hyper-serve` keeps one per tenant × route ×
//!   (queue-wait | execute).
//!
//! [`percentile`] is the one shared exact-percentile implementation
//! (linear interpolation between order statistics) used by the serve
//! tests and the benchmarks.
//!
//! ```
//! use hyper_trace::{span, with_trace, Phase, TraceTree};
//!
//! let tree = TraceTree::new();
//! let out = with_trace(&tree, || {
//!     let _q = span(Phase::Execute);
//!     {
//!         let _t = span(Phase::ForestTrain);
//!         // ... train ...
//!     }
//!     42
//! });
//! assert_eq!(out, 42);
//! let snap = tree.snapshot();
//! assert_eq!(snap.count(Phase::ForestTrain), 1);
//! assert!(snap.total_ns() >= snap.self_ns(Phase::ForestTrain));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------- phases

/// A typed pipeline phase. Every expensive stage of the query path has
/// exactly one id; instrumentation sites never invent string labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Query-text parsing (`parse_query`).
    Parse = 0,
    /// Planning: resolving the `Use` clause, cache keys, backdoor sets.
    Plan = 1,
    /// Building a relevant view (scan + filter + project).
    ViewBuild = 2,
    /// Prop.-1 block decomposition of the causal graph over the view.
    BlockDecomp = 3,
    /// Fitting the feature encoder over training columns.
    EncoderFit = 4,
    /// Random-forest training.
    ForestTrain = 5,
    /// Batch model prediction (§3.3 dedup + predict).
    Predict = 6,
    /// Artifact-cache lookups (local → shared → disk tiers).
    CacheLookup = 7,
    /// Time between admission and execution start (serve-side).
    QueueWait = 8,
    /// End-to-end query execution (the root span of a traced query).
    Execute = 9,
    /// Loading a tenant snapshot (+ delta-log replay) from disk.
    SnapshotLoad = 10,
    /// Applying a delta: survival analysis + artifact adoption.
    Refresh = 11,
}

/// Number of [`Phase`] variants (array sizes, iteration).
pub const NUM_PHASES: usize = 12;

impl Phase {
    /// Every phase, in id order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Parse,
        Phase::Plan,
        Phase::ViewBuild,
        Phase::BlockDecomp,
        Phase::EncoderFit,
        Phase::ForestTrain,
        Phase::Predict,
        Phase::CacheLookup,
        Phase::QueueWait,
        Phase::Execute,
        Phase::SnapshotLoad,
        Phase::Refresh,
    ];

    /// Stable snake_case name (metric labels, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::ViewBuild => "view_build",
            Phase::BlockDecomp => "block_decomp",
            Phase::EncoderFit => "encoder_fit",
            Phase::ForestTrain => "forest_train",
            Phase::Predict => "predict",
            Phase::CacheLookup => "cache_lookup",
            Phase::QueueWait => "queue_wait",
            Phase::Execute => "execute",
            Phase::SnapshotLoad => "snapshot_load",
            Phase::Refresh => "refresh",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ----------------------------------------------------------------- spans

/// Count of live trace scopes anywhere in the process. Zero means every
/// span site degrades to this one relaxed load — the entire disabled
/// cost of tracing.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// True when at least one [`with_trace`]/[`TraceContext::with`] scope is
/// live somewhere in the process. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// One recorded span: phase, nesting depth on its thread, start offset
/// from the tree's creation, and inclusive duration.
#[derive(Debug, Clone, Copy)]
pub struct SpanEntry {
    /// The phase.
    pub phase: Phase,
    /// Nesting depth on the recording thread (root = 0).
    pub depth: u32,
    /// Start, in nanoseconds since the tree was created.
    pub start_ns: u64,
    /// Inclusive wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// Ordered-span cap per tree: enough for any real query's span list
/// while bounding a runaway loop's memory.
const MAX_SPANS: usize = 4096;

struct TraceData {
    /// Exclusive (self) nanoseconds per phase.
    self_ns: [AtomicU64; NUM_PHASES],
    /// Completed spans per phase.
    counts: [AtomicU64; NUM_PHASES],
    /// The ordered span list, kept unless only the totals are read
    /// ([`with_totals`]).
    ordered: Option<Ordered>,
}

/// A trace's ordered span list.
struct Ordered {
    /// Spans in completion order, capped at [`MAX_SPANS`] (totals keep
    /// counting).
    spans: Mutex<Vec<SpanEntry>>,
    /// Offset origin for [`SpanEntry::start_ns`].
    epoch: Instant,
}

impl TraceData {
    fn new(ordered: bool) -> TraceData {
        TraceData {
            self_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            ordered: ordered.then(|| Ordered {
                spans: Mutex::new(Vec::new()),
                epoch: Instant::now(),
            }),
        }
    }
}

/// A per-query trace: per-phase self-time totals plus an ordered span
/// list. Clones share the underlying data; install one around a unit of
/// work with [`with_trace`].
#[derive(Clone)]
pub struct TraceTree {
    data: Arc<TraceData>,
}

impl Default for TraceTree {
    fn default() -> TraceTree {
        TraceTree::new()
    }
}

impl std::fmt::Debug for TraceTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceTree").finish_non_exhaustive()
    }
}

impl TraceTree {
    /// An empty tree.
    pub fn new() -> TraceTree {
        TraceTree {
            data: Arc::new(TraceData::new(true)),
        }
    }

    /// A read-side copy of everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let spans = self.data.ordered.as_ref().map(|o| o.spans.lock());
        TraceSnapshot {
            spans: spans.map_or_else(Vec::new, |s| s.unwrap_or_else(|e| e.into_inner()).clone()),
            ..self.totals()
        }
    }

    /// The per-phase totals recorded so far, with an empty span list:
    /// everything a fold into cumulative counters reads, without copying
    /// the ordered spans.
    pub fn totals(&self) -> TraceSnapshot {
        let d = &self.data;
        TraceSnapshot {
            self_ns: std::array::from_fn(|i| d.self_ns[i].load(Ordering::Relaxed)),
            counts: std::array::from_fn(|i| d.counts[i].load(Ordering::Relaxed)),
            spans: Vec::new(),
        }
    }
}

/// An immutable copy of a [`TraceTree`]'s contents.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    self_ns: [u64; NUM_PHASES],
    counts: [u64; NUM_PHASES],
    /// Ordered span list (capped at 4096 entries; totals are uncapped).
    pub spans: Vec<SpanEntry>,
}

impl TraceSnapshot {
    /// Exclusive (self) nanoseconds attributed to `phase`.
    pub fn self_ns(&self, phase: Phase) -> u64 {
        self.self_ns[phase.idx()]
    }

    /// Completed spans of `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.idx()]
    }

    /// Sum of self time over every phase. For a single-threaded traced
    /// query this equals the root span's inclusive duration exactly (the
    /// self times partition it); with pool workers it is a CPU-time-like
    /// sum that can exceed the wall clock.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// `(phase, self_ns, count)` for every phase with at least one span,
    /// in phase-id order.
    pub fn phases(&self) -> Vec<(Phase, u64, u64)> {
        Phase::ALL
            .iter()
            .filter(|p| self.counts[p.idx()] > 0 || self.self_ns[p.idx()] > 0)
            .map(|&p| (p, self.self_ns[p.idx()], self.counts[p.idx()]))
            .collect()
    }
}

/// One open span frame on a thread's stack.
struct Frame {
    phase: Phase,
    start: Instant,
    /// Inclusive nanoseconds of already-closed direct children.
    child_ns: u64,
}

struct ThreadCtx {
    data: Arc<TraceData>,
    stack: Vec<Frame>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    /// The frame stack of the last scope to end on this thread, empty,
    /// for the next scope to reuse.
    static SPARE_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// The totals-only trace of the last [`with_totals`] on this thread,
    /// for the next one to reset and reuse.
    static SPARE_TOTALS: RefCell<Option<Arc<TraceData>>> = const { RefCell::new(None) };
}

/// Run `f` under a trace that keeps per-phase totals only, and return
/// them with `f`'s result: the read of a caller that only folds
/// [`TraceTree::totals`]. No ordered span list is kept (so a span records
/// no start offset and takes no lock), and the trace is reused by the
/// thread's next call once nothing else holds it, so a traced query
/// allocates nothing of its own. Nests like [`with_trace`].
pub fn with_totals<T>(f: impl FnOnce() -> T) -> (T, TraceSnapshot) {
    let mut spare = SPARE_TOTALS.with(|s| s.borrow_mut().take());
    let data = match spare.as_mut().and_then(Arc::get_mut) {
        Some(data) => {
            for n in data.self_ns.iter_mut().chain(&mut data.counts) {
                *n.get_mut() = 0;
            }
            spare.expect("a spare trace")
        }
        None => Arc::new(TraceData::new(false)),
    };
    let (out, data) = install(data, f);
    let tree = TraceTree { data };
    let totals = tree.totals();
    SPARE_TOTALS.with(|s| *s.borrow_mut() = Some(tree.data));
    (out, totals)
}

/// Install `tree` as the current thread's trace for the duration of `f`.
/// Nestable (the previous trace is restored on exit) and unwind-safe
/// (restored on panic too).
pub fn with_trace<T>(tree: &TraceTree, f: impl FnOnce() -> T) -> T {
    let ctx = TraceContext {
        data: Arc::clone(&tree.data),
    };
    ctx.with(f)
}

/// A capturable handle to the current thread's installed trace, for
/// carrying attribution across threads (the runtime pool captures one at
/// submit time and installs it around each task).
#[derive(Clone)]
pub struct TraceContext {
    data: Arc<TraceData>,
}

impl TraceContext {
    /// Run `f` with this trace installed, unless the current thread
    /// already has one — then `f` runs directly and its spans nest into
    /// the live stack. This is the worker-pool entry point: the
    /// submitting caller (which participates in its own job and already
    /// carries the trace) keeps proper span nesting, while pool worker
    /// threads get the context installed fresh.
    pub fn attach<T>(&self, f: impl FnOnce() -> T) -> T {
        let present = CURRENT.with(|c| c.borrow().is_some());
        if present {
            f()
        } else {
            self.with(f)
        }
    }

    /// Run `f` with this trace installed on the current thread.
    pub fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        install(Arc::clone(&self.data), f).0
    }
}

/// Run `f` with `data` installed as the current thread's trace, and hand
/// `data` back. The previous trace is restored on exit, on unwinding too.
fn install<T>(data: Arc<TraceData>, f: impl FnOnce() -> T) -> (T, Arc<TraceData>) {
    struct Scope {
        prev: Option<ThreadCtx>,
        ended: bool,
    }
    impl Scope {
        /// Restore the previous trace; the ended one's data. Its emptied
        /// frame stack is kept for the thread's next scope.
        fn end(&mut self) -> Option<Arc<TraceData>> {
            self.ended = true;
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
            let ended = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), self.prev.take()));
            ended.map(|mut ended| {
                ended.stack.clear();
                SPARE_STACK.with(|s| *s.borrow_mut() = ended.stack);
                ended.data
            })
        }
    }
    impl Drop for Scope {
        fn drop(&mut self) {
            if !self.ended {
                self.end();
            }
        }
    }
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let mut stack = SPARE_STACK.with(|s| std::mem::take(&mut *s.borrow_mut()));
    stack.reserve(8);
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ThreadCtx { data, stack }));
    let mut scope = Scope { prev, ended: false };
    let out = f();
    let data = scope.end().expect("the installed trace is current");
    (out, data)
}

/// The current thread's trace context, if any. Costs one relaxed load
/// when no trace is active anywhere.
pub fn current_context() -> Option<TraceContext> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|ctx| TraceContext {
            data: Arc::clone(&ctx.data),
        })
    })
}

/// Open a span of `phase` on the current thread's trace. Hold the
/// returned guard for the duration of the work; dropping it records the
/// elapsed time. When tracing is disabled ([`enabled`] is false) this is
/// a single relaxed atomic load and the guard is inert.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            armed: false,
            phase,
        };
    }
    let armed = CURRENT.with(|c| {
        let mut c = c.borrow_mut();
        match c.as_mut() {
            Some(ctx) => {
                ctx.stack.push(Frame {
                    phase,
                    start: Instant::now(),
                    child_ns: 0,
                });
                true
            }
            None => false,
        }
    });
    SpanGuard { armed, phase }
}

/// Guard returned by [`span`]; records on drop.
pub struct SpanGuard {
    armed: bool,
    phase: Phase,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        CURRENT.with(|c| {
            let mut c = c.borrow_mut();
            let Some(ctx) = c.as_mut() else { return };
            // Pop frames until ours surfaces: a mismatched pop means a
            // guard outlived its scope discipline; recover rather than
            // corrupt the stack.
            let Some(frame) = ctx.stack.pop() else { return };
            debug_assert_eq!(frame.phase as usize, self.phase as usize);
            let dur_ns = frame.start.elapsed().as_nanos() as u64;
            let depth = ctx.stack.len() as u32;
            let self_ns = dur_ns.saturating_sub(frame.child_ns);
            ctx.data.self_ns[frame.phase.idx()].fetch_add(self_ns, Ordering::Relaxed);
            ctx.data.counts[frame.phase.idx()].fetch_add(1, Ordering::Relaxed);
            if let Some(parent) = ctx.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let Some(ordered) = &ctx.data.ordered else {
                return;
            };
            let start_ns = frame
                .start
                .saturating_duration_since(ordered.epoch)
                .as_nanos() as u64;
            let mut spans = ordered.spans.lock().unwrap_or_else(|e| e.into_inner());
            if spans.len() < MAX_SPANS {
                spans.push(SpanEntry {
                    phase: frame.phase,
                    depth,
                    start_ns,
                    dur_ns,
                });
            }
        });
    }
}

// ------------------------------------------------------------ histogram

/// Linear sub-buckets per power-of-two group: relative bucket width is
/// at most 1/16 (6.25%).
const SUB_BUCKETS: u64 = 16;

/// Total bucket count: 16 unit buckets for values 0..16, then 16
/// sub-buckets for each value exponent 4..=63.
pub const HISTOGRAM_BUCKETS: usize = (SUB_BUCKETS as usize) * 61;

/// Bucket index of `v` (any u64; typically nanoseconds).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // ≥ 4
        let group = exp - 3;
        let mantissa = ((v >> (exp - 4)) & (SUB_BUCKETS - 1)) as usize;
        group * SUB_BUCKETS as usize + mantissa
    }
}

/// Inclusive lower bound and width of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let sb = SUB_BUCKETS as usize;
    if idx < sb {
        (idx as u64, 1)
    } else {
        let group = idx / sb;
        let mantissa = (idx % sb) as u64;
        let width = 1u64 << (group - 1);
        ((SUB_BUCKETS + mantissa) << (group - 1), width)
    }
}

/// A lock-free log-bucketed latency histogram. `record` is two relaxed
/// atomic adds; buckets have ≤ 1/16 relative width, so any quantile read
/// from a snapshot is within one bucket width (≤ 6.25% relative) of the
/// exact order statistic. Values are plain `u64`s — the engine records
/// nanoseconds.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram").finish_non_exhaustive()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value. Two relaxed atomic fetch-adds; never blocks.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A mergeable read-side copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], mergeable across
/// histograms (routes, tenants, shards) and queryable for quantiles.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Fold `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a value estimate, linearly
    /// interpolated inside the containing bucket — guaranteed within one
    /// bucket width of the exact order statistic. Returns 0.0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target order statistic, 1-based.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (low, width) = bucket_bounds(idx);
                // Interpolate by rank position inside this bucket.
                let frac = (target - seen) as f64 / c as f64;
                return low as f64 + (width as f64 - 1.0).max(0.0) * frac;
            }
            seen += c;
        }
        let (low, width) = bucket_bounds(self.buckets.len() - 1);
        (low + width) as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

// ----------------------------------------------------------- percentile

/// Exact percentile over an **ascending-sorted** slice, with linear
/// interpolation between adjacent order statistics (the "type 7"
/// estimator): `p` is in percent (`50.0` = median). On small samples
/// this interpolates instead of snapping to the nearest rank — p99 of 50
/// requests reads between the 49th and 50th order statistics rather
/// than just the max-ish tail. Returns 0.0 on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    if frac == 0.0 || lo + 1 >= sorted.len() {
        return sorted[lo.min(sorted.len() - 1)];
    }
    sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        // No trace is installed on *this* thread (other tests may hold
        // scopes on theirs), so the guard must be inert and the context
        // absent.
        let g = span(Phase::Execute);
        assert!(!g.armed);
        drop(g);
        assert!(current_context().is_none());
    }

    #[test]
    fn self_time_partitions_the_root_span() {
        let tree = TraceTree::new();
        with_trace(&tree, || {
            let _root = span(Phase::Execute);
            {
                let _t = span(Phase::ForestTrain);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _p = span(Phase::Predict);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let s = tree.snapshot();
        assert_eq!(s.count(Phase::Execute), 1);
        assert_eq!(s.count(Phase::ForestTrain), 1);
        assert_eq!(s.count(Phase::Predict), 1);
        // The root's inclusive duration is the sum of every self time
        // (single-threaded), and each child's self time sits under it.
        let root = s
            .spans
            .iter()
            .find(|e| e.phase == Phase::Execute)
            .expect("root span recorded");
        assert_eq!(root.depth, 0);
        assert_eq!(s.total_ns(), root.dur_ns);
        assert!(s.self_ns(Phase::ForestTrain) >= 1_000_000);
        assert!(s.self_ns(Phase::Execute) <= root.dur_ns);
        // The totals-only read agrees on every total and copies no span.
        let t = tree.totals();
        assert_eq!(t.phases(), s.phases());
        assert!(t.spans.is_empty());
    }

    #[test]
    fn totals_only_traces_reset_between_calls() {
        let (_, first) = with_totals(|| {
            let _q = span(Phase::Execute);
            let _p = span(Phase::Plan);
        });
        let (inner, second) = with_totals(|| {
            let _q = span(Phase::Execute);
            let (_, inner) = with_totals(|| {
                let _s = span(Phase::Predict);
            });
            let _p = span(Phase::Plan);
            inner
        });
        for totals in [&first, &second] {
            assert_eq!(totals.count(Phase::Execute), 1);
            assert_eq!(totals.count(Phase::Plan), 1);
            assert!(totals.spans.is_empty(), "no ordered spans are kept");
        }
        assert_eq!(
            second.count(Phase::Predict),
            0,
            "the nested call counts its own"
        );
        assert_eq!(inner.count(Phase::Predict), 1);
        assert_eq!(inner.count(Phase::Execute), 0);
        assert!(current_context().is_none());
    }

    /// A totals-only trace still held elsewhere (a captured context) is
    /// not reset under its holder: the next call takes a fresh one.
    #[test]
    fn a_held_totals_trace_is_not_reused() {
        let (ctx, _) = with_totals(|| {
            let _q = span(Phase::Execute);
            current_context().expect("installed")
        });
        let tree = TraceTree {
            data: Arc::clone(&ctx.data),
        };
        let (_, next) = with_totals(|| {
            let _p = span(Phase::Plan);
        });
        assert_eq!(next.count(Phase::Execute), 0);
        assert_eq!(tree.totals().count(Phase::Execute), 1);
        assert_eq!(tree.totals().count(Phase::Plan), 0);
    }

    #[test]
    fn nested_traces_restore_the_outer_tree() {
        let outer = TraceTree::new();
        let inner = TraceTree::new();
        with_trace(&outer, || {
            with_trace(&inner, || {
                let _s = span(Phase::Parse);
            });
            let _s = span(Phase::Plan);
        });
        assert_eq!(inner.snapshot().count(Phase::Parse), 1);
        assert_eq!(outer.snapshot().count(Phase::Parse), 0);
        assert_eq!(outer.snapshot().count(Phase::Plan), 1);
        assert!(current_context().is_none());
    }

    #[test]
    fn context_carries_across_threads() {
        let tree = TraceTree::new();
        with_trace(&tree, || {
            let ctx = current_context().expect("context is installed");
            std::thread::scope(|s| {
                s.spawn(move || {
                    ctx.with(|| {
                        let _s = span(Phase::ForestTrain);
                    });
                });
            });
        });
        assert_eq!(tree.snapshot().count(Phase::ForestTrain), 1);
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Values below 16 get unit buckets.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, 1));
        }
        // Power-of-two group starts.
        for (v, idx) in [(16u64, 16usize), (32, 32), (64, 48), (1 << 20, 16 * 17)] {
            assert_eq!(bucket_index(v), idx, "v={v}");
            let (low, _w) = bucket_bounds(idx);
            assert_eq!(low, v, "v={v}");
        }
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 65_535, 1 << 30, u64::MAX] {
            let idx = bucket_index(v);
            let (low, width) = bucket_bounds(idx);
            assert!(low <= v, "v={v} low={low}");
            assert!(
                v - low < width || width == 0,
                "v={v} low={low} width={width}"
            );
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum(), 0);
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p999(), 0.0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in [10u64, 100, 1000] {
            a.record(v);
        }
        for v in [10u64, 50_000] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 5);
        assert_eq!(m.sum(), 10 + 100 + 1000 + 10 + 50_000);
        // The merged p50 is the 3rd of 5 values (100), within one bucket.
        let p50 = m.p50();
        assert!((96.0..=104.0).contains(&p50), "p50={p50}");
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in ns
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        for (q, exact) in [(0.5, 500_000.0), (0.9, 900_000.0), (0.99, 990_000.0)] {
            let est = s.quantile(q);
            let err = (est - exact).abs() / exact;
            assert!(err <= 1.0 / 16.0, "q={q} est={est} exact={exact}");
        }
    }

    #[test]
    fn percentile_interpolates_small_samples() {
        let sorted: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        // Nearest-rank would answer 50 (the max-ish tail); interpolation
        // reads between the 49th and 50th order statistics.
        let p99 = percentile(&sorted, 99.0);
        assert!((p99 - 49.51).abs() < 1e-9, "p99={p99}");
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 100.0), 50.0);
        assert_eq!(percentile(&sorted, 50.0), 25.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
