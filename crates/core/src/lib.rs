//! # hyper-core
//!
//! The HypeR engine — the primary contribution of *"HypeR: Hypothetical
//! Reasoning With What-If and How-To Queries Using a Probabilistic Causal
//! Approach"* (SIGMOD 2022), reproduced in Rust:
//!
//! * **What-if queries** (§3): expected aggregate values over possible
//!   worlds under a probabilistic relational causal model, computed by
//!   backdoor adjustment with a random-forest conditional estimator
//!   ([`whatif`]), an exact possible-world oracle for discrete models
//!   ([`whatif::exact`]), and the block-decomposition optimization.
//! * **How-to queries** (§4): optimization over candidate what-if queries
//!   via bucketized candidate updates and a 0-1 Integer Program
//!   ([`howto`]), with the exhaustive Opt-HowTo baseline and the
//!   lexicographic multi-objective extension.
//! * **Variants** of the paper's evaluation: plain HypeR, HypeR-NB (no
//!   background graph), HypeR-sampled, and the correlational Indep
//!   baseline ([`config`]).
//!
//! ## Sessions: prepare once, execute many
//!
//! The entry point is [`HyperSession`] — an owned, `Send + Sync`, cheaply
//! cloneable handle over `Arc<Database>` + `Arc<CausalGraph>` that caches
//! the expensive intermediates of the paper's §3.3 computation strategy
//! (relevant views, the Prop.-1 block decomposition, fitted estimators)
//! across queries, prepared executions, and threads.
//! [`HyperSession::prepare`] accepts query text, a parsed AST, or the
//! typed [`WhatIf`](hyper_query::WhatIf) / [`HowTo`](hyper_query::HowTo)
//! builders — all three produce the same IR and key into the same cache
//! entries:
//!
//! ```no_run
//! use hyper_core::{CacheBudget, EngineConfig, HyperSession};
//! use hyper_query::{Bindings, HExpr, WhatIf};
//! # fn demo(db: hyper_storage::Database, g: hyper_causal::CausalGraph)
//! # -> hyper_core::Result<()> {
//! let session = HyperSession::builder(db)
//!     .graph(g)
//!     .config(EngineConfig::hyper())
//!     .cache_budget(CacheBudget::estimators(512)) // LRU-bounded
//!     .build();
//!
//! // A typed, parameterized template: validated and view-resolved once.
//! let q = session.prepare(
//!     WhatIf::over("product")
//!         .when(HExpr::attr("brand").eq("Asus"))
//!         .scale_param("price", "mult")
//!         .output_avg_post("rating")
//!         .filter(HExpr::pre("category").eq("Laptop")),
//! )?;
//!
//! // Sweep the multiplier: one view build for the whole sweep, one
//! // estimator training per distinct binding, zero parses.
//! for i in 0..50 {
//!     let mult = 1.0 + 0.01 * i as f64;
//!     let r = q.execute_whatif_with(&Bindings::new().set("mult", mult))?;
//!     println!("x{mult:.2} -> {:.3}", r.value);
//! }
//! assert_eq!(session.stats().view_misses, 1);
//! assert_eq!(session.stats().texts_parsed, 0);
//!
//! // explain(): the plan (view source/size, block count, adjustment set,
//! // estimator config) plus per-artifact cache provenance — no training.
//! println!("{}", q.explain_with(&Bindings::new().set("mult", 1.1))?);
//!
//! // Text still works everywhere, including parallel batches over the
//! // shared cache.
//! let results = session.execute_batch(&[
//!     "Use product Update(price) = 0.9 * Pre(price) Output Avg(Post(rating))",
//!     "Use product Update(price) = 1.1 * Pre(price) Output Avg(Post(rating))",
//! ]);
//! assert!(results.iter().all(|r| r.is_ok()));
//! # Ok(()) }
//! ```
//!
//! ## The shared execution runtime
//!
//! Two process-wide facilities sit underneath every session:
//!
//! * **[`HyperRuntime`](hyper_runtime::HyperRuntime)** — one persistent
//!   worker pool (fixed threads, shared injector queue) that
//!   [`HyperSession::execute_batch`], how-to candidate evaluation, and
//!   random-forest training all route through. Fan-outs nest freely —
//!   a batch of how-to queries, each evaluating candidates, each
//!   training trees, still runs on the same fixed thread count — and
//!   seeded results are bit-identical whatever the worker count (every
//!   tree derives its RNG from `(seed, tree index)`). Sessions use the
//!   global pool by default; [`SessionBuilder::runtime`] installs a
//!   private one.
//! * **[`SharedArtifactStore`]** — a process-wide store of relevant
//!   views, block decompositions, and fitted estimators, sharded by
//!   `(database fingerprint, graph fingerprint)` *content* hashes. Each
//!   session's [`ArtifactCache`] is a thin local tier (LRU budget,
//!   per-session counters) over its shard: a local miss resolves through
//!   the shared store single-flight **across sessions**, so N tenant
//!   sessions over one dataset pay for each artifact once process-wide
//!   (see `examples/multi_session.rs`). [`SessionStats`] separates local
//!   hits, shared hits, and real builds;
//!   [`SessionBuilder::share_artifacts`]`(false)` opts a session out.
//!
//! ## The three-tier artifact cache
//!
//! With a persist directory configured, artifact resolution runs through
//! three tiers, each consulted only when the tier above misses:
//!
//! ```text
//!   ArtifactCache (per session)     local LRU tier — CacheBudget-bounded,
//!        │ miss                     plain hits
//!        ▼
//!   SharedArtifactStore shard       in-memory, process-wide, single-flight
//!        │ miss                     across sessions; byte-budgeted LRU
//!        ▼                          (SessionBuilder::shared_budget_bytes)
//!   persist_dir artifact files      checksummed HYPR1 files keyed by the
//!        │ miss                     full cache key + shard fingerprints;
//!        ▼                          survive restarts
//!   build / train                   spills back to disk on completion
//! ```
//!
//! [`SessionBuilder::persist_dir`] enables the disk tier: artifacts are
//! spilled as `hyper-store` `HYPR1` files when built and recovered by
//! deserialization after a restart — a reloaded forest predicts
//! bit-identically, so a restarted process answers its first what-if at
//! warm-cache speed with **zero** estimator builds
//! ([`SessionStats::estimator_disk_hits`]; `examples/warm_start.rs`
//! asserts exactly that, and `bench_smoke` gates the warm start at ≥3×
//! faster than retraining). Stale directories (different data), hash
//! collisions, truncated files, and flipped bytes all read as typed
//! errors and fall back to a rebuild — never a panic, never a wrong
//! artifact. When the shared tier's byte budget evicts an artifact whose
//! builder had persistence enabled, the next request re-serves it from
//! disk instead of retraining.
//!
//! ```no_run
//! use hyper_core::HyperSession;
//! # fn demo(db: std::sync::Arc<hyper_storage::Database>,
//! #          g: std::sync::Arc<hyper_causal::CausalGraph>) -> hyper_core::Result<()> {
//! // Two tenants over the same data: the second session's first query
//! // reuses the first session's view and estimator via the shared store.
//! let a = HyperSession::builder(db.clone()).graph(g.clone()).build();
//! let b = HyperSession::builder(db).graph(g).build();
//! a.whatif_text("Use d Update(b) = 1 Output Count(Post(y) = 1)")?;
//! b.whatif_text("Use d Update(b) = 1 Output Count(Post(y) = 1)")?;
//! assert_eq!(b.stats().view_misses, 0);
//! assert_eq!(b.stats().view_shared_hits, 1);
//! assert_eq!(b.stats().estimator_shared_hits, 1);
//! # Ok(()) }
//! ```
//!
//! ## Incremental writes: refresh with block-scoped invalidation
//!
//! Sessions are immutable snapshots over `Arc<Database>`, so writes are
//! modeled as a transition: [`HyperSession::refresh`] takes a typed
//! [`DeltaBatch`](hyper_ingest::DeltaBatch) (appends and/or deletes
//! against named tables), applies it transactionally, and returns a
//! [`RefreshOutcome`] — a new session over the post-delta database plus
//! a [`RefreshReport`] saying exactly which cached artifacts survived.
//! Invalidation is *causal*, not wholesale: a relevant view is kept when
//! its source relations are untouched, or when its `Use` filter provably
//! admits none of the appended/deleted rows **and** the Prop.-1 block
//! decomposition kept its per-block content fingerprints (a graph with
//! only intra-tuple edges makes every tuple a singleton block, so an
//! append-only delta passes the block guard without recomputing the
//! decomposition at all). Estimators survive exactly when the view they
//! were trained over survives. Surviving artifacts are adopted into the
//! new session's cache tiers, so re-serving them is a pure cache hit —
//! `tests/prop_ingest.rs` property-checks bit-for-bit parity against a
//! cold rebuild, and the `bench_smoke` `delta_refresh_german_10k` gate
//! holds refresh + re-serving the untouched working set ≥3× faster than
//! a from-scratch session. Each refresh bumps
//! [`SessionStats::data_version`], which [`ExplainReport`] carries so
//! answers correlate with the data they were computed over.
//!
//! ## Observability: phase tracing and timing counters
//!
//! Every layer of the query path is instrumented with `hyper-trace`
//! spans, keyed by a fixed [`Phase`] taxonomy:
//!
//! | phase | recorded where |
//! |---|---|
//! | `parse` | query-text parsing ([`SessionStats::texts_parsed`] sites) |
//! | `plan` | validation, expression binding, masks, adjustment-set selection |
//! | `view_build` | [`build_relevant_view`] |
//! | `block_decomp` | Prop.-1 decomposition computation |
//! | `encoder_fit` | feature-encoder fitting (`hyper-ml`) |
//! | `forest_train` | estimator training, resident and streamed |
//! | `predict` | forest inference during mask evaluation |
//! | `cache_lookup` | [`ArtifactCache`] tiered fetches (lookup overhead only) |
//! | `queue_wait` / `execute` | `hyper-serve` admission queue vs. work |
//! | `snapshot_load` | disk-tier artifact recovery, server snapshot loads |
//! | `refresh` | [`HyperSession::refresh`] root span |
//! | `paged_io` | out-of-core chunk reads (`hyper-store` paging) |
//!
//! Tracing is **per session** ([`SessionBuilder::tracing`], default off)
//! and attributes **exclusive** time: nested spans subtract, so the
//! per-phase totals of one traced query partition its root span exactly
//! — phases always sum to the attributed total, and parallel fan-outs
//! (morsel workers, batch items) are credited to the query that spawned
//! them via trace-context propagation through the
//! [`HyperRuntime`](hyper_runtime::HyperRuntime) pool.
//!
//! **Overhead contract**: with tracing off, the entire cost is one
//! relaxed atomic load per potential span — `bench_smoke` gates the
//! traced prepared what-if path at ≤ 1.05× the untraced one. Tracing
//! never changes results; the bit-identity property suites run with it
//! enabled.
//!
//! Cumulative per-phase totals surface in the [`SessionStats`] timing
//! fields ([`SessionStats::phase_ns`]), per-query measurements in
//! [`HyperSession::explain_analyze`] (`EXPLAIN ANALYZE`-style:
//! [`ExplainReport::timings`]), and over HTTP as per-tenant latency
//! percentiles in `hyper-serve`'s `/stats` and Prometheus `/metrics`.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod hexpr;
pub mod howto;
pub(crate) mod persist;
pub mod session;
pub mod view;
pub mod whatif;

pub use config::{BackdoorMode, EngineConfig, EstimatorKind, HowToOptions};
pub use error::{EngineError, Result};
pub use howto::multi::LexicographicResult;
pub use howto::HowToResult;
pub use hyper_trace::{Phase, NUM_PHASES};
pub use session::{
    ArtifactCache, BlockPlan, CacheBudget, EstimatorPlan, ExplainReport, HowToPlan, HyperSession,
    IntoQuery, KeyedCache, PhaseTiming, PreparedQuery, Provenance, QueryInput, QueryKind,
    QueryOutcome, QueryTimings, RefreshOutcome, RefreshReport, SessionBuilder, SessionStats,
    SharedArtifactStore, SharedStoreStats, ViewPlan,
};
pub use view::{build_relevant_view, ColumnOrigin, RelevantView, ViewProvenance};
pub use whatif::exact::exact_whatif;
pub use whatif::WhatIfResult;
