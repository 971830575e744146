//! The owned, shareable HypeR session: prepare-once / execute-many
//! hypothetical reasoning over a fixed database and causal model.
//!
//! [`HyperSession`] is the one entry point of the engine: every what-if
//! and how-to evaluates through a session. A session *owns* its
//! database and graph (behind [`Arc`]s), is `Send + Sync + Clone`, and
//! keeps an [`ArtifactCache`] of the expensive intermediates of the
//! paper's computation strategy (§3.3): relevant views, the block
//! decomposition (Prop. 1), and fitted causal estimators. The intended
//! workload — many small parameter-varying hypothetical queries over one
//! fixed scenario — pays the view build and estimator training once and
//! reuses them across:
//!
//! * repeated [`PreparedQuery::execute`] calls,
//! * ad-hoc [`HyperSession::execute`] / [`HyperSession::whatif_text`] calls,
//! * parallel [`HyperSession::execute_batch`] fan-out, and
//! * candidate enumeration inside how-to optimization, whose hundreds of
//!   candidate what-if queries all share one relevant view, and whose
//!   candidate values of one attribute share one fitted estimator.
//!
//! Queries enter as text, as parsed ASTs, or through the typed
//! [`WhatIf`]/[`HowTo`] builders — all three share cache entries, because
//! keys are derived structurally from the IR ([`hyper_query::QueryKey`]).
//! Templates with `Param(…)` placeholders are prepared once and executed
//! per [`Bindings`]; [`HyperSession::explain`] reports the plan with cache
//! provenance.
//!
//! Sessions sit on the shared execution runtime: parallel paths
//! (`execute_batch`, how-to candidate fan-out, forest training) draw from
//! a persistent [`HyperRuntime`] worker pool instead of spawning threads,
//! and the [`ArtifactCache`] is a thin LRU tier over the process-wide
//! [`SharedArtifactStore`] (see [`shared`]), so sessions over
//! content-equal `(database, graph)` pairs build each artifact once
//! process-wide. [`SessionBuilder::share_artifacts`] and
//! [`SessionBuilder::runtime`] control both.
//!
//! ```no_run
//! use hyper_core::{EngineConfig, HyperSession};
//! use hyper_query::{Bindings, HExpr, WhatIf};
//! # fn demo(db: hyper_storage::Database, g: hyper_causal::CausalGraph)
//! # -> hyper_core::Result<()> {
//! let session = HyperSession::builder(db)
//!     .graph(g)
//!     .config(EngineConfig::hyper())
//!     .build();
//! let q = session.prepare(
//!     WhatIf::over("product")
//!         .when(HExpr::attr("brand").eq("Asus"))
//!         .scale_param("price", "mult")
//!         .output_avg_post("rating")
//!         .filter(HExpr::pre("category").eq("Laptop")),
//! )?;
//! let first = q.execute_whatif_with(&Bindings::new().set("mult", 1.1))?;
//! let again = q.execute_whatif_with(&Bindings::new().set("mult", 1.1))?;
//! assert_eq!(first.value, again.value); // second run: pure cache hits
//! assert!(session.stats().estimator_hits > 0);
//! # Ok(()) }
//! ```

pub mod cache;
pub mod explain;
pub mod refresh;
pub mod shared;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use hyper_causal::{BlockDecomposition, CausalGraph};
use hyper_query::{
    parse_query, validate_howto, validate_whatif, Bindings, HowTo, HowToQuery, HypotheticalQuery,
    QueryKey, WhatIf, WhatIfQuery,
};
use hyper_runtime::HyperRuntime;
use hyper_storage::Database;
use hyper_trace::{Phase, TraceSnapshot, TraceTree, NUM_PHASES};

use crate::config::{EngineConfig, HowToOptions};
use crate::error::{EngineError, Result};
use crate::howto::baseline::evaluate_howto_bruteforce;
use crate::howto::multi::{evaluate_howto_lexicographic, LexicographicResult};
use crate::howto::optimizer::evaluate_howto;
use crate::howto::HowToResult;
use crate::view::RelevantView;
use crate::whatif::{evaluate_whatif, evaluate_whatif_on_view, WhatIfResult};

pub use cache::{ArtifactCache, CacheBudget, KeyedCache};
pub use explain::{
    BlockPlan, EstimatorPlan, ExplainReport, HowToPlan, PhaseTiming, Provenance, QueryKind,
    QueryTimings, ViewPlan,
};
pub use refresh::{RefreshOutcome, RefreshReport};
pub use shared::{SharedArtifactStore, SharedStoreStats};

/// Outcome of executing hypothetical query text: either kind of result.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// What-if result.
    WhatIf(WhatIfResult),
    /// How-to result.
    HowTo(HowToResult),
}

/// Snapshot of a session's cache and execution counters.
///
/// Hits/misses are cumulative over the session's lifetime; `*_cached` are
/// the current number of distinct artifacts held.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Relevant-view cache hits served by this session's local tier.
    pub view_hits: u64,
    /// Relevant-view cache misses — views this session actually built.
    pub view_misses: u64,
    /// Views served by the process-wide [`SharedArtifactStore`] (another
    /// session — or a racing thread of this one — built them).
    pub view_shared_hits: u64,
    /// Views recovered from the disk tier
    /// ([`SessionBuilder::persist_dir`]) instead of being rebuilt.
    pub view_disk_hits: u64,
    /// Relevant views evicted under a [`CacheBudget`] (local tier only;
    /// the shared tier evicts only under its byte budget).
    pub view_evictions: u64,
    /// Fitted-estimator cache hits served by the local tier.
    pub estimator_hits: u64,
    /// Fitted-estimator cache misses — estimators this session trained.
    pub estimator_misses: u64,
    /// Estimators served by the shared store.
    pub estimator_shared_hits: u64,
    /// Estimators deserialized from the disk tier — warm starts that
    /// skipped training entirely.
    pub estimator_disk_hits: u64,
    /// Fitted estimators evicted under a [`CacheBudget`] (local tier).
    pub estimator_evictions: u64,
    /// Block-decomposition cache hits served by the local tier.
    pub block_hits: u64,
    /// Block-decomposition cache misses (at most 1 per session).
    pub block_misses: u64,
    /// Block decompositions served by the shared store.
    pub block_shared_hits: u64,
    /// Block decompositions recovered from the disk tier.
    pub block_disk_hits: u64,
    /// Distinct relevant views currently cached.
    pub views_cached: usize,
    /// Distinct fitted estimators currently cached.
    pub estimators_cached: usize,
    /// Queries prepared via [`HyperSession::prepare`].
    pub queries_prepared: u64,
    /// Queries executed (ad-hoc, prepared, and batch items).
    pub queries_executed: u64,
    /// Query *texts* parsed by this session. Typed-builder inputs and
    /// re-executions of prepared queries never parse, so a parameter sweep
    /// over one `PreparedQuery` leaves this unchanged.
    pub texts_parsed: u64,
    /// Relevant views dropped by [`HyperSession::refresh`] because a
    /// delta touched their source blocks (survivors migrate instead and
    /// keep serving without a rebuild).
    pub views_invalidated: u64,
    /// Fitted estimators dropped by [`HyperSession::refresh`] — each one
    /// is a retraining the next query on that key will pay.
    pub estimators_invalidated: u64,
    /// Prop.-1 blocks of the pre-delta decomposition whose content
    /// fingerprint no longer occurs post-delta (the causally *touched*
    /// blocks; untouched blocks keep their artifacts alive).
    pub blocks_invalidated: u64,
    /// Delta refreshes this session lineage has been through.
    pub refreshes: u64,
    /// The data version this session serves: the number of delta batches
    /// applied since the base snapshot (0 = the snapshot itself).
    pub data_version: u64,
    /// Always 0: no estimator trains from a stream. The benchmark report
    /// still reads it as `ml.trainings_streamed_per_query`; the benchmark
    /// change that retires that metric removes this field.
    pub trainings_streamed: u64,
    /// Cumulative **exclusive** (self) time per [`Phase`], in nanoseconds,
    /// across every traced query this session lineage ran. Zero unless
    /// tracing was enabled ([`SessionBuilder::tracing`] /
    /// [`HyperSession::set_tracing`]). Indexed by `Phase as usize`; use
    /// [`SessionStats::phase_ns`] for named access. Self times partition
    /// each traced query's span tree, so the per-phase entries of one
    /// query sum exactly to that query's [`SessionStats::trace_total_ns`]
    /// contribution — `train_ns` can never exceed `total_ns` in a
    /// consistent snapshot.
    pub trace_phase_ns: [u64; NUM_PHASES],
    /// Cumulative spans entered per [`Phase`] across traced queries
    /// (indexed by `Phase as usize`).
    pub trace_phase_counts: [u64; NUM_PHASES],
    /// Sum of `trace_phase_ns` — total attributed time across traced
    /// queries. On multi-worker runtimes this is CPU-time-like (parallel
    /// phase work sums), not wall clock.
    pub trace_total_ns: u64,
    /// Queries (and refreshes) that ran with tracing enabled.
    pub traced_queries: u64,
}

impl SessionStats {
    /// Cumulative exclusive time spent in `phase`, in nanoseconds.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.trace_phase_ns[phase as usize]
    }

    /// Cumulative spans entered for `phase`.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.trace_phase_counts[phase as usize]
    }
}

/// Execution counters shared across a session's refresh lineage (a
/// refreshed session continues its predecessor's counts, exactly like
/// the cache counters behind [`ArtifactCache`]).
#[derive(Debug, Default)]
struct ExecCounters {
    queries_prepared: AtomicU64,
    queries_executed: AtomicU64,
    texts_parsed: AtomicU64,
    views_invalidated: AtomicU64,
    estimators_invalidated: AtomicU64,
    blocks_invalidated: AtomicU64,
    refreshes: AtomicU64,
    /// Per-phase exclusive-time totals folded in from traced queries
    /// (indexed by `Phase as usize`).
    phase_ns: [AtomicU64; NUM_PHASES],
    /// Per-phase span counts from traced queries.
    phase_counts: [AtomicU64; NUM_PHASES],
    trace_total_ns: AtomicU64,
    traced_queries: AtomicU64,
}

struct SessionInner {
    db: Arc<Database>,
    graph: Option<Arc<CausalGraph>>,
    config: EngineConfig,
    howto_opts: HowToOptions,
    cache_budget: CacheBudget,
    share_artifacts: bool,
    persist_dir: Option<std::path::PathBuf>,
    runtime: HyperRuntime,
    cache: ArtifactCache,
    exec: Arc<ExecCounters>,
    /// Number of delta batches applied since the base snapshot.
    data_version: u64,
    /// Phase-level tracing switch (see [`HyperSession::set_tracing`]).
    tracing: AtomicBool,
}

/// Builder for [`HyperSession`].
pub struct SessionBuilder {
    db: Arc<Database>,
    graph: Option<Arc<CausalGraph>>,
    config: EngineConfig,
    howto_opts: HowToOptions,
    cache_budget: CacheBudget,
    share_artifacts: bool,
    persist_dir: Option<std::path::PathBuf>,
    shared_budget_bytes: Option<usize>,
    runtime: Option<HyperRuntime>,
    tracing: bool,
}

impl SessionBuilder {
    /// Start a builder over the given database.
    pub fn new(db: impl Into<Arc<Database>>) -> SessionBuilder {
        SessionBuilder {
            db: db.into(),
            graph: None,
            config: EngineConfig::default(),
            howto_opts: HowToOptions::default(),
            cache_budget: CacheBudget::default(),
            share_artifacts: true,
            persist_dir: None,
            shared_budget_bytes: None,
            runtime: None,
            tracing: false,
        }
    }

    /// Attach the schema-level causal graph (required for
    /// [`crate::BackdoorMode::FromGraph`], i.e. plain HypeR).
    pub fn graph(mut self, graph: impl Into<Arc<CausalGraph>>) -> SessionBuilder {
        self.graph = Some(graph.into());
        self
    }

    /// Attach an optional graph (convenience for variant sweeps).
    pub fn maybe_graph(mut self, graph: Option<impl Into<Arc<CausalGraph>>>) -> SessionBuilder {
        self.graph = graph.map(Into::into);
        self
    }

    /// Override the engine configuration.
    pub fn config(mut self, config: EngineConfig) -> SessionBuilder {
        self.config = config;
        self
    }

    /// Override the how-to options.
    pub fn howto_options(mut self, opts: HowToOptions) -> SessionBuilder {
        self.howto_opts = opts;
        self
    }

    /// Bound the artifact cache: at most `budget.max_views` relevant views
    /// and `budget.max_estimators` fitted estimators are kept, evicting the
    /// least-recently-used entry past a cap. Unbounded by default — set
    /// this for long-lived sessions serving many distinct query shapes,
    /// which accumulate one estimator per distinct (view, feature set,
    /// output, `For` clause), the feature set being the updated and
    /// adjustment columns together.
    pub fn cache_budget(mut self, budget: CacheBudget) -> SessionBuilder {
        self.cache_budget = budget;
        self
    }

    /// Participate in the process-wide [`SharedArtifactStore`] (the
    /// default). Sessions over content-equal `(database, graph)` pairs
    /// then share relevant views, block decompositions, and fitted
    /// estimators, each built exactly once process-wide (single-flight);
    /// [`SessionStats`] distinguishes shared hits from local ones. Pass
    /// `false` for a fully isolated session — e.g. to benchmark cold
    /// paths or keep a tenant's cache lifetime strictly session-scoped.
    pub fn share_artifacts(mut self, share: bool) -> SessionBuilder {
        self.share_artifacts = share;
        self
    }

    /// Run this session's parallel work — [`HyperSession::execute_batch`]
    /// fan-out, how-to candidate evaluation, and estimator (forest)
    /// training — on the given runtime instead of
    /// [`HyperRuntime::global`]. Training results are
    /// worker-count-independent, so sessions with different runtimes can
    /// still share fitted estimators through the shared store.
    pub fn runtime(mut self, runtime: HyperRuntime) -> SessionBuilder {
        self.runtime = Some(runtime);
        self
    }

    /// Enable phase-level tracing (off by default). Traced sessions wrap
    /// each query in a [`hyper_trace`] span tree rooted at
    /// [`Phase::Execute`] and fold the per-phase **exclusive** durations
    /// into the cumulative [`SessionStats`] timing counters. The cost is
    /// one span per instrumented phase boundary (two `Instant` reads and
    /// a few thread-local bumps); disabled sessions pay a single relaxed
    /// atomic load per query. Tracing never changes results — the
    /// bit-identity property suites run with it on.
    pub fn tracing(mut self, on: bool) -> SessionBuilder {
        self.tracing = on;
        self
    }

    /// Persist artifacts under `dir`, adding a **disk tier** below the
    /// shared in-memory store: relevant views, fitted estimators, and
    /// block decompositions are spilled as checksummed `HYPR1` files
    /// when built and recovered by deserialization (single-flight, with
    /// [`SessionStats::estimator_disk_hits`] and friends counting the
    /// recoveries) instead of being rebuilt. A restarted process pointed
    /// at the same directory answers its first what-if at warm-cache
    /// speed — no CSV re-ingest, no retraining (see
    /// `examples/warm_start.rs`).
    ///
    /// Artifact files embed the session's `(database, graph)` content
    /// fingerprints and their own checksums; a stale directory (different
    /// data), a truncated file, or a flipped byte reads as a typed error
    /// and is treated as a cache miss, then overwritten by the rebuild.
    pub fn persist_dir(mut self, dir: impl Into<std::path::PathBuf>) -> SessionBuilder {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Cap the **process-wide** [`SharedArtifactStore`]'s approximate
    /// footprint at `bytes` (0 = unbounded). Exceeding the budget evicts
    /// globally least-recently-used artifacts across all shards; when
    /// the building session also set [`SessionBuilder::persist_dir`],
    /// evicted artifacts re-serve from the disk tier instead of
    /// retraining. The budget is a store-level setting — the last
    /// session to set it wins — exposed here for convenience next to
    /// the per-session [`SessionBuilder::cache_budget`].
    pub fn shared_budget_bytes(mut self, bytes: usize) -> SessionBuilder {
        self.shared_budget_bytes = Some(bytes);
        self
    }

    /// Finish: an owned, shareable session with an empty local artifact
    /// cache, attached to its `(db, graph)` shard of the shared store
    /// unless [`SessionBuilder::share_artifacts`]`(false)` was set, and
    /// to a disk tier when [`SessionBuilder::persist_dir`] was set.
    pub fn build(self) -> HyperSession {
        if let Some(bytes) = self.shared_budget_bytes {
            SharedArtifactStore::global().set_budget_bytes(bytes);
        }
        // Fingerprints key the shared store and the disk tier; a fully
        // isolated session (no sharing, no persistence) must not pay the
        // whole-database hash for keys nothing will read.
        let fingerprints = (self.share_artifacts || self.persist_dir.is_some()).then(|| {
            (
                self.db.fingerprint(),
                self.graph.as_ref().map_or(0, |g| g.fingerprint()),
            )
        });
        let shared = if self.share_artifacts {
            let (db_fp, graph_fp) = fingerprints.expect("computed when sharing");
            Some(SharedArtifactStore::global().shard(db_fp, graph_fp))
        } else {
            None
        };
        let disk = self.persist_dir.as_deref().map(|dir| {
            let (db_fp, graph_fp) = fingerprints.expect("computed when persisting");
            Arc::new(crate::persist::DiskTier::new(dir, db_fp, graph_fp))
        });
        HyperSession {
            inner: Arc::new(SessionInner {
                db: self.db,
                graph: self.graph,
                config: self.config,
                howto_opts: self.howto_opts,
                cache: ArtifactCache::new(self.cache_budget, shared, disk),
                cache_budget: self.cache_budget,
                share_artifacts: self.share_artifacts,
                persist_dir: self.persist_dir,
                runtime: self
                    .runtime
                    .unwrap_or_else(|| HyperRuntime::global().clone()),
                exec: Arc::new(ExecCounters::default()),
                data_version: 0,
                tracing: AtomicBool::new(self.tracing),
            }),
        }
    }
}

/// Anything [`HyperSession::prepare`] / [`HyperSession::execute`] /
/// [`HyperSession::explain`] accepts as a query: raw text (parsed by the
/// session, counted in [`SessionStats::texts_parsed`]), an already-parsed
/// AST, or an unfinished [`WhatIf`] / [`HowTo`] builder (finished — and
/// validated — on entry).
pub enum QueryInput {
    /// Query text to parse.
    Text(String),
    /// A ready AST (from the parser, the builders, or constructed by hand;
    /// boxed — query ASTs are large relative to the text variant).
    Ast(Box<HypotheticalQuery>),
}

/// Conversion into [`QueryInput`]. Implemented for `&str`/`String`
/// (parsed), the query ASTs (used as-is), and the typed builders
/// (validated by their `build()`).
pub trait IntoQuery {
    /// Convert into a query input. Builder inputs surface their
    /// validation errors here.
    fn into_query_input(self) -> Result<QueryInput>;
}

impl IntoQuery for &str {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Text(self.to_string()))
    }
}

impl IntoQuery for &String {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Text(self.clone()))
    }
}

impl IntoQuery for String {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Text(self))
    }
}

impl IntoQuery for HypotheticalQuery {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(self)))
    }
}

impl IntoQuery for &HypotheticalQuery {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(self.clone())))
    }
}

impl IntoQuery for WhatIfQuery {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(HypotheticalQuery::WhatIf(self))))
    }
}

impl IntoQuery for &WhatIfQuery {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(HypotheticalQuery::WhatIf(
            self.clone(),
        ))))
    }
}

impl IntoQuery for HowToQuery {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(HypotheticalQuery::HowTo(self))))
    }
}

impl IntoQuery for &HowToQuery {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(HypotheticalQuery::HowTo(
            self.clone(),
        ))))
    }
}

impl IntoQuery for WhatIf {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(HypotheticalQuery::WhatIf(
            self.build()?,
        ))))
    }
}

impl IntoQuery for HowTo {
    fn into_query_input(self) -> Result<QueryInput> {
        Ok(QueryInput::Ast(Box::new(HypotheticalQuery::HowTo(
            self.build()?,
        ))))
    }
}

/// An owned, cache-backed HypeR session. Cheap to clone (clones share the
/// cache), `Send + Sync`, safe to use from many threads at once.
#[derive(Clone)]
pub struct HyperSession {
    inner: Arc<SessionInner>,
}

impl std::fmt::Debug for HyperSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HyperSession")
            .field("tables", &self.inner.db.tables().len())
            .field("graph", &self.inner.graph.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

impl HyperSession {
    /// Builder over the given database.
    pub fn builder(db: impl Into<Arc<Database>>) -> SessionBuilder {
        SessionBuilder::new(db)
    }

    /// Session with the default (plain HypeR) configuration. The graph is
    /// cloned into the session; use [`HyperSession::builder`] with
    /// [`SessionBuilder::graph`] to share an existing `Arc`.
    pub fn new(db: impl Into<Arc<Database>>, graph: Option<&CausalGraph>) -> HyperSession {
        let mut b = SessionBuilder::new(db);
        b.graph = graph.map(|g| Arc::new(g.clone()));
        b.build()
    }

    /// Replace the configuration, returning a session over the same
    /// database/graph with a **fresh, empty local cache** (estimator keys
    /// include the configuration, so any shared-store entries that still
    /// apply keep applying).
    pub fn with_config(self, config: EngineConfig) -> HyperSession {
        self.rebuilder().config(config).build()
    }

    /// Replace the how-to options, returning a session over the same
    /// database/graph with a fresh, empty local cache.
    pub fn with_howto_options(self, opts: HowToOptions) -> HyperSession {
        self.rebuilder().howto_options(opts).build()
    }

    /// A builder carrying every setting of this session, for a new session
    /// with a fresh, empty local cache.
    fn rebuilder(&self) -> SessionBuilder {
        SessionBuilder {
            db: Arc::clone(&self.inner.db),
            graph: self.inner.graph.clone(),
            config: self.inner.config.clone(),
            howto_opts: self.inner.howto_opts.clone(),
            cache_budget: self.inner.cache_budget,
            share_artifacts: self.inner.share_artifacts,
            persist_dir: self.inner.persist_dir.clone(),
            shared_budget_bytes: None,
            runtime: Some(self.inner.runtime.clone()),
            tracing: self.inner.tracing.load(Ordering::Relaxed),
        }
    }

    /// The bound database.
    pub fn database(&self) -> &Database {
        &self.inner.db
    }

    /// The bound causal graph, if any.
    pub fn graph(&self) -> Option<&CausalGraph> {
        self.inner.graph.as_deref()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The active how-to options.
    pub fn howto_options(&self) -> &HowToOptions {
        &self.inner.howto_opts
    }

    /// The worker pool this session's parallel paths run on (the global
    /// runtime unless overridden via [`SessionBuilder::runtime`]).
    pub fn runtime(&self) -> &HyperRuntime {
        &self.inner.runtime
    }

    /// Is phase-level tracing on for this session?
    pub fn tracing_enabled(&self) -> bool {
        self.inner.tracing.load(Ordering::Relaxed)
    }

    /// Toggle phase-level tracing at runtime (see
    /// [`SessionBuilder::tracing`]). Queries already in flight keep the
    /// setting they started with.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracing.store(on, Ordering::Relaxed);
    }

    /// Run `f` under a fresh trace rooted at `root` when tracing is on,
    /// folding the resulting span tree into the cumulative counters.
    /// No-op passthrough when tracing is off **or** the thread already
    /// carries a trace (a nested entry point — e.g. `execute` delegating
    /// to `whatif`, or a batch item on a worker — keeps attributing to
    /// the enclosing query's tree instead of starting its own).
    fn traced<T>(&self, root: Phase, f: impl FnOnce() -> T) -> T {
        if !self.inner.tracing.load(Ordering::Relaxed) || hyper_trace::current_context().is_some() {
            return f();
        }
        let tree = TraceTree::new();
        let out = hyper_trace::with_trace(&tree, || {
            let _root = hyper_trace::span(root);
            f()
        });
        self.fold_trace(&tree.snapshot());
        out
    }

    /// Fold one traced query's per-phase exclusive times and span counts
    /// into the lineage-cumulative counters behind [`SessionStats`].
    pub(crate) fn fold_trace(&self, snap: &TraceSnapshot) {
        let exec = &self.inner.exec;
        for phase in Phase::ALL {
            let ns = snap.self_ns(phase);
            if ns != 0 {
                exec.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
            }
            let n = snap.count(phase);
            if n != 0 {
                exec.phase_counts[phase as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
        exec.trace_total_ns
            .fetch_add(snap.total_ns(), Ordering::Relaxed);
        exec.traced_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of cache and execution counters. Equivalent to
    /// [`HyperSession::snapshot`]; kept as the familiar short name.
    pub fn stats(&self) -> SessionStats {
        self.snapshot()
    }

    /// A **consistent** snapshot of cache and execution counters.
    ///
    /// The counters live in independent atomics (and two map-size
    /// gauges), so a single naive pass over them can observe a torn set
    /// while another thread is mid-update — e.g. a view miss already
    /// counted but `views_cached` not yet grown, or `queries_executed`
    /// ahead of the estimator counters it implies. This accessor
    /// re-reads until two consecutive passes agree, so the returned set
    /// reflects one quiescent instant whenever the session is not under
    /// *continuous* concurrent mutation (under sustained load it falls
    /// back to the freshest pass after a bounded number of attempts —
    /// every individual counter is still exact and monotone).
    ///
    /// `/stats` reporting in `hyper-serve` and the assertions in the
    /// integration tests read through here.
    pub fn snapshot(&self) -> SessionStats {
        let mut prev = self.read_stats_once();
        for _ in 0..8 {
            let next = self.read_stats_once();
            if next == prev {
                return next;
            }
            prev = next;
        }
        prev
    }

    fn read_stats_once(&self) -> SessionStats {
        let c = &self.inner.cache.counters;
        SessionStats {
            view_hits: c.view_hits.load(Ordering::Relaxed),
            view_misses: c.view_misses.load(Ordering::Relaxed),
            view_shared_hits: c.view_shared_hits.load(Ordering::Relaxed),
            view_disk_hits: c.view_disk_hits.load(Ordering::Relaxed),
            view_evictions: c.view_evictions.load(Ordering::Relaxed),
            estimator_hits: c.estimator_hits.load(Ordering::Relaxed),
            estimator_misses: c.estimator_misses.load(Ordering::Relaxed),
            estimator_shared_hits: c.estimator_shared_hits.load(Ordering::Relaxed),
            estimator_disk_hits: c.estimator_disk_hits.load(Ordering::Relaxed),
            estimator_evictions: c.estimator_evictions.load(Ordering::Relaxed),
            block_hits: c.block_hits.load(Ordering::Relaxed),
            block_misses: c.block_misses.load(Ordering::Relaxed),
            block_shared_hits: c.block_shared_hits.load(Ordering::Relaxed),
            block_disk_hits: c.block_disk_hits.load(Ordering::Relaxed),
            views_cached: self.inner.cache.cached_views(),
            estimators_cached: self.inner.cache.cached_estimators(),
            queries_prepared: self.inner.exec.queries_prepared.load(Ordering::Relaxed),
            queries_executed: self.inner.exec.queries_executed.load(Ordering::Relaxed),
            texts_parsed: self.inner.exec.texts_parsed.load(Ordering::Relaxed),
            views_invalidated: self.inner.exec.views_invalidated.load(Ordering::Relaxed),
            estimators_invalidated: self
                .inner
                .exec
                .estimators_invalidated
                .load(Ordering::Relaxed),
            blocks_invalidated: self.inner.exec.blocks_invalidated.load(Ordering::Relaxed),
            refreshes: self.inner.exec.refreshes.load(Ordering::Relaxed),
            data_version: self.inner.data_version,
            trainings_streamed: 0,
            trace_phase_ns: std::array::from_fn(|i| {
                self.inner.exec.phase_ns[i].load(Ordering::Relaxed)
            }),
            trace_phase_counts: std::array::from_fn(|i| {
                self.inner.exec.phase_counts[i].load(Ordering::Relaxed)
            }),
            trace_total_ns: self.inner.exec.trace_total_ns.load(Ordering::Relaxed),
            traced_queries: self.inner.exec.traced_queries.load(Ordering::Relaxed),
        }
    }

    /// Parse `text`, counting the parse in
    /// [`SessionStats::texts_parsed`].
    fn parse_text(&self, text: &str) -> Result<HypotheticalQuery> {
        let _span = hyper_trace::span(Phase::Parse);
        self.inner.exec.texts_parsed.fetch_add(1, Ordering::Relaxed);
        Ok(parse_query(text)?)
    }

    /// Resolve any [`IntoQuery`] input to an AST, parsing only text inputs.
    fn resolve_input(&self, input: impl IntoQuery) -> Result<HypotheticalQuery> {
        match input.into_query_input()? {
            QueryInput::Text(text) => self.parse_text(&text),
            QueryInput::Ast(q) => Ok(*q),
        }
    }

    /// Validate, resolve the `Use` clause, and plan a query once, returning
    /// a handle that can be executed many times. Accepts text (parsed
    /// here — never again), a typed [`WhatIf`]/[`HowTo`] builder, or an
    /// AST. The relevant view is built (or fetched) here, so the first
    /// [`PreparedQuery::execute`] only pays estimator training, and later
    /// ones only mask evaluation.
    ///
    /// A prepared query may contain `Param(name)` placeholders; execute it
    /// with [`PreparedQuery::execute_with`], supplying a [`Bindings`] map
    /// per call. The view (and its cache entry) is shared across every
    /// binding; the estimator re-keys only when resolved output or `For`
    /// literals differ — update values are applied at evaluation and never
    /// retrain.
    pub fn prepare(&self, input: impl IntoQuery) -> Result<PreparedQuery> {
        self.traced(Phase::Execute, || self.prepare_inner(input))
    }

    fn prepare_inner(&self, input: impl IntoQuery) -> Result<PreparedQuery> {
        let query = self.resolve_input(input)?;
        let use_clause = match &query {
            HypotheticalQuery::WhatIf(q) => &q.use_clause,
            HypotheticalQuery::HowTo(q) => &q.use_clause,
        };
        let (view, view_key) = self.inner.cache.view(&self.inner.db, use_clause)?;
        let cols = view.column_names();
        match &query {
            HypotheticalQuery::WhatIf(q) => validate_whatif(q, Some(&cols))?,
            HypotheticalQuery::HowTo(q) => validate_howto(q, Some(&cols))?,
        }
        self.inner
            .exec
            .queries_prepared
            .fetch_add(1, Ordering::Relaxed);
        let params = query.param_names();
        Ok(PreparedQuery {
            session: self.clone(),
            text: query.to_string(),
            query,
            params,
            view,
            view_key,
        })
    }

    /// Evaluate a query; returns either result kind. Accepts the same
    /// inputs as [`HyperSession::prepare`] (text is parsed once, builders
    /// and ASTs skip parsing entirely).
    pub fn execute(&self, input: impl IntoQuery) -> Result<QueryOutcome> {
        self.traced(Phase::Execute, || match self.resolve_input(input)? {
            HypotheticalQuery::WhatIf(q) => Ok(QueryOutcome::WhatIf(self.whatif(&q)?)),
            HypotheticalQuery::HowTo(q) => Ok(QueryOutcome::HowTo(self.howto(&q)?)),
        })
    }

    /// Evaluate many queries concurrently over the shared artifact cache,
    /// preserving input order in the output. Queries fan out across the
    /// session's persistent [`HyperRuntime`] worker pool — no threads are
    /// spawned per batch, and nested fan-outs (a batch of how-to queries,
    /// each evaluating candidates, each training a forest) all draw from
    /// the same fixed pool. Results are identical to executing each query
    /// sequentially (estimator training is seeded and deterministic, and
    /// cached artifacts are immutable once built).
    pub fn execute_batch<S: AsRef<str> + Sync>(&self, queries: &[S]) -> Vec<Result<QueryOutcome>> {
        let n = queries.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<OnceLock<Result<QueryOutcome>>> = (0..n).map(|_| OnceLock::new()).collect();
        self.traced(Phase::Execute, || {
            self.inner.runtime.for_each_parallel(n, |i| {
                let r = self.execute(queries[i].as_ref());
                let _ = slots[i].set(r);
            });
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every batch slot is filled"))
            .collect()
    }

    /// Evaluate a parsed what-if query through the artifact cache.
    pub fn whatif(&self, q: &WhatIfQuery) -> Result<WhatIfResult> {
        self.inner
            .exec
            .queries_executed
            .fetch_add(1, Ordering::Relaxed);
        self.traced(Phase::Execute, || {
            evaluate_whatif(
                &self.inner.db,
                self.graph(),
                &self.inner.config,
                q,
                &self.inner.cache,
                &self.inner.runtime,
            )
        })
    }

    /// Evaluate a parsed how-to query via the IP formulation; the candidate
    /// what-if evaluations share the session caches.
    pub fn howto(&self, q: &HowToQuery) -> Result<HowToResult> {
        self.inner
            .exec
            .queries_executed
            .fetch_add(1, Ordering::Relaxed);
        self.traced(Phase::Execute, || {
            evaluate_howto(
                &self.inner.db,
                self.graph(),
                &self.inner.config,
                q,
                &self.inner.howto_opts,
                &self.inner.cache,
                &self.inner.runtime,
            )
        })
    }

    /// Evaluate a how-to query by exhaustive enumeration (Opt-HowTo).
    pub fn howto_bruteforce(&self, q: &HowToQuery) -> Result<HowToResult> {
        self.inner
            .exec
            .queries_executed
            .fetch_add(1, Ordering::Relaxed);
        self.traced(Phase::Execute, || {
            evaluate_howto_bruteforce(
                &self.inner.db,
                self.graph(),
                &self.inner.config,
                q,
                &self.inner.howto_opts,
                &self.inner.cache,
                &self.inner.runtime,
            )
        })
    }

    /// Lexicographic multi-objective how-to (§4.3 extension).
    pub fn howto_lexicographic(&self, qs: &[HowToQuery]) -> Result<LexicographicResult> {
        self.inner
            .exec
            .queries_executed
            .fetch_add(1, Ordering::Relaxed);
        self.traced(Phase::Execute, || {
            evaluate_howto_lexicographic(
                &self.inner.db,
                self.graph(),
                &self.inner.config,
                qs,
                &self.inner.howto_opts,
                &self.inner.cache,
                &self.inner.runtime,
            )
        })
    }

    /// Parse and evaluate what-if text.
    pub fn whatif_text(&self, text: &str) -> Result<WhatIfResult> {
        self.traced(Phase::Execute, || match self.parse_text(text)? {
            HypotheticalQuery::WhatIf(q) => self.whatif(&q),
            HypotheticalQuery::HowTo(_) => Err(EngineError::Query(
                "expected a what-if query, got a how-to query".into(),
            )),
        })
    }

    /// Parse and evaluate how-to text.
    pub fn howto_text(&self, text: &str) -> Result<HowToResult> {
        self.traced(Phase::Execute, || match self.parse_text(text)? {
            HypotheticalQuery::HowTo(q) => self.howto(&q),
            HypotheticalQuery::WhatIf(_) => Err(EngineError::Query(
                "expected a how-to query, got a what-if query".into(),
            )),
        })
    }

    /// The block-independent decomposition of the bound database under the
    /// bound causal graph (Prop. 1/Example 7), computed once and cached.
    pub fn block_decomposition(&self) -> Result<Arc<BlockDecomposition>> {
        let graph = self.graph().ok_or_else(|| {
            EngineError::Causal("block decomposition requires a causal graph".into())
        })?;
        self.inner.cache.blocks(&self.inner.db, graph)
    }
}

/// A query validated and planned once against a session; execute it as
/// many times as needed. Cheap to clone; clones share the session and the
/// resolved view. `Send + Sync`, so prepared queries can be executed from
/// worker threads directly.
///
/// A prepared query may be a *template* containing `Param(name)`
/// placeholders; [`PreparedQuery::execute_with`] resolves them against a
/// [`Bindings`] map per call, keeping the relevant view (and, for how-to,
/// the block decomposition) shared across the whole sweep while the
/// estimator re-keys only when resolved output or `For` literals differ.
#[derive(Clone)]
pub struct PreparedQuery {
    session: HyperSession,
    text: String,
    query: HypotheticalQuery,
    params: Vec<String>,
    view: Arc<RelevantView>,
    view_key: QueryKey,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("text", &self.text)
            .field("params", &self.params)
            .field("view_rows", &self.view.table.num_rows())
            .finish()
    }
}

impl PreparedQuery {
    /// The canonical query text (the rendering of the prepared AST; for
    /// text inputs this is the normalized form of what was parsed).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The prepared query AST.
    pub fn query(&self) -> &HypotheticalQuery {
        &self.query
    }

    /// Names of unbound `Param(…)` placeholders (empty for a concrete
    /// query).
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Rows in the resolved relevant view.
    pub fn view_rows(&self) -> usize {
        self.view.table.num_rows()
    }

    /// The session this query was prepared against.
    pub fn session(&self) -> &HyperSession {
        &self.session
    }

    /// Execute the prepared query (which must be concrete — see
    /// [`PreparedQuery::execute_with`] for templates).
    ///
    /// What-if queries skip parsing and view resolution (the view was
    /// resolved at prepare time) and fetch the fitted estimator from the
    /// session cache — training it on the first call only, which is where
    /// nearly all the latency lives. Per-execution work that remains:
    /// re-validating against the view schema, binding the `When`/`For`
    /// masks, and backdoor-set selection (all linear scans, no training).
    /// How-to queries reuse the session caches for their candidate
    /// what-if evaluations.
    pub fn execute(&self) -> Result<QueryOutcome> {
        if !self.params.is_empty() {
            return Err(EngineError::Query(format!(
                "prepared query has unbound parameter(s) [{}]; use execute_with(bindings)",
                self.params.join(", ")
            )));
        }
        self.execute_query(&self.query)
    }

    /// Resolve the template's `Param(…)` placeholders against `bindings`
    /// and execute. No parsing and no view resolution happens here — a
    /// sweep of N bindings over one prepared query costs one view build
    /// total, plus one estimator training per *distinct* resolved output
    /// and `For` clause (a sweep over update values alone trains once).
    pub fn execute_with(&self, bindings: &Bindings) -> Result<QueryOutcome> {
        let bound = self.query.bind(bindings).map_err(EngineError::from)?;
        self.execute_query(&bound)
    }

    /// Execute and expect a what-if result, resolving placeholders first.
    pub fn execute_whatif_with(&self, bindings: &Bindings) -> Result<WhatIfResult> {
        match self.execute_with(bindings)? {
            QueryOutcome::WhatIf(r) => Ok(r),
            QueryOutcome::HowTo(_) => Err(EngineError::Query(
                "expected a what-if query, got a how-to query".into(),
            )),
        }
    }

    /// Explain this prepared query's plan (see [`HyperSession::explain`]);
    /// templates must be resolved with [`PreparedQuery::explain_with`].
    pub fn explain(&self) -> Result<explain::ExplainReport> {
        self.session.explain(&self.query)
    }

    /// Explain the plan of this template resolved against `bindings`.
    pub fn explain_with(&self, bindings: &Bindings) -> Result<explain::ExplainReport> {
        let bound = self.query.bind(bindings).map_err(EngineError::from)?;
        self.session.explain(bound)
    }

    fn execute_query(&self, query: &HypotheticalQuery) -> Result<QueryOutcome> {
        let inner = &self.session.inner;
        inner.exec.queries_executed.fetch_add(1, Ordering::Relaxed);
        self.session
            .traced(Phase::Execute, || self.execute_query_inner(query))
    }

    fn execute_query_inner(&self, query: &HypotheticalQuery) -> Result<QueryOutcome> {
        let inner = &self.session.inner;
        match query {
            HypotheticalQuery::WhatIf(q) => Ok(QueryOutcome::WhatIf(evaluate_whatif_on_view(
                &inner.db,
                self.session.graph(),
                &inner.config,
                q,
                &self.view,
                self.view_key.as_str(),
                &inner.cache,
                &inner.runtime,
            )?)),
            HypotheticalQuery::HowTo(q) => Ok(QueryOutcome::HowTo(evaluate_howto(
                &inner.db,
                self.session.graph(),
                &inner.config,
                q,
                &inner.howto_opts,
                &inner.cache,
                &inner.runtime,
            )?)),
        }
    }

    /// Execute and expect a what-if result.
    pub fn execute_whatif(&self) -> Result<WhatIfResult> {
        match self.execute()? {
            QueryOutcome::WhatIf(r) => Ok(r),
            QueryOutcome::HowTo(_) => Err(EngineError::Query(
                "expected a what-if query, got a how-to query".into(),
            )),
        }
    }

    /// Execute and expect a how-to result.
    pub fn execute_howto(&self) -> Result<HowToResult> {
        match self.execute()? {
            QueryOutcome::HowTo(r) => Ok(r),
            QueryOutcome::WhatIf(_) => Err(EngineError::Query(
                "expected a how-to query, got a what-if query".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_types_are_send_sync_and_clone() {
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send_sync_clone::<HyperSession>();
        assert_send_sync_clone::<PreparedQuery>();
        assert_send_sync_clone::<SessionStats>();
    }

    #[test]
    fn stats_is_the_consistent_snapshot() {
        let session = HyperSession::builder(hyper_storage::Database::new())
            .share_artifacts(false)
            .build();
        // Idle sessions: two passes must agree immediately, and the two
        // accessors are the same set.
        assert_eq!(session.stats(), session.snapshot());
        assert_eq!(session.snapshot(), session.snapshot());
    }
}
