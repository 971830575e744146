//! # HypeR — hypothetical reasoning with what-if and how-to queries
//!
//! A Rust reproduction of *"HypeR: Hypothetical Reasoning With What-If and
//! How-To Queries Using a Probabilistic Causal Approach"* (SIGMOD 2022).
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`storage`] | in-memory relational engine (typed columnar tables, joins, group-by, stats, content fingerprints) |
//! | [`causal`]  | causal graphs, ground graphs, blocks, backdoor sets, SCMs |
//! | [`ml`]      | regression forests (parallel histogram training over one cell layout), encoders |
//! | [`ip`]      | simplex LP + branch-and-bound 0-1 ILP + enumeration oracle |
//! | [`query`]   | the extended SQL language (`Use`/`When`/`Update`/`Output`/`For`, `HowToUpdate`/`Limit`/`ToMaximize`) |
//! | [`runtime`] | the shared execution runtime: one persistent worker pool for every parallel path |
//! | [`store`]   | durable `HYPR1` binary snapshots: tables, databases, graphs, fitted models; the disk-tier artifact files; the `HYPD1` delta append log |
//! | [`ingest`]  | typed [`DeltaBatch`](ingest::DeltaBatch) write batches and per-block content fingerprints — the incremental write path |
//! | [`core`]    | the HypeR engine: sessions, prepared queries, the three-tier artifact cache (local LRU → shared in-memory → disk) |
//! | [`serve`]   | the multi-tenant HTTP query server: hand-rolled HTTP/1.1, tenant snapshot registry, admission control with fairness and load shedding |
//! | [`datasets`] | workload generators (German, German-Syn, Adult, Amazon, Student-Syn) |
//!
//! ## Quickstart
//!
//! The entry point is a [`HyperSession`](core::HyperSession): an owned,
//! thread-safe handle over a database and its causal graph that caches the
//! expensive intermediates (relevant views, block decompositions, fitted
//! estimators) across queries. Queries are composed either as text or with
//! the typed builders ([`WhatIf`](query::WhatIf) / [`HowTo`](query::HowTo)
//! — both yield the same validated IR and share cache entries), may carry
//! `Param(name)` placeholders bound per execution, and can be `explain`ed
//! before (or after) running:
//!
//! ```
//! use hyper_repro::prelude::*;
//!
//! // Figure 1's toy Amazon database with the Figure 2 causal graph.
//! let data = hyper_repro::datasets::amazon::amazon_figure1();
//! let session = HyperSession::builder(data.db).graph(data.graph).build();
//!
//! // The Figure 4 scenario as a typed, parameterized template: the
//! // relevant view is an embedded select, the price multiplier is a
//! // named placeholder. No query text is ever parsed.
//! let view = hyper_repro::query::parse_select(
//!     "Select T1.pid, T1.category, T1.price, T1.brand,
//!             Avg(sentiment) As senti, Avg(T2.rating) As rtng
//!      From product As T1, review As T2
//!      Where T1.pid = T2.pid
//!      Group By T1.pid, T1.category, T1.price, T1.brand",
//! ).unwrap();
//! let template = WhatIf::over_select(view)
//!     .when(HExpr::attr("brand").eq("Asus"))
//!     .scale_param("price", "mult")
//!     .output_avg_post("rtng")
//!     .filter(HExpr::pre("category").eq("Laptop"));
//!
//! // Prepared once: validated and view-resolved here, executed many
//! // times with different bindings — the view build is paid once.
//! let prepared = session.prepare(template).unwrap();
//! for mult in [0.9, 1.0, 1.1] {
//!     let r = prepared
//!         .execute_whatif_with(&Bindings::new().set("mult", mult))
//!         .unwrap();
//!     assert!(r.value >= 1.0 && r.value <= 5.0);
//! }
//! assert_eq!(session.stats().view_misses, 1);
//! assert_eq!(session.stats().texts_parsed, 0);
//!
//! // explain(): the structured plan — view source + size, block count,
//! // adjustment set, estimator config — with per-artifact cache
//! // provenance (hit / miss / would-build). Nothing is trained.
//! let report = session
//!     .explain("Use product Update(price) = 500 Output Count(Post(price) > 400)")
//!     .unwrap();
//! assert!(report.deterministic);
//! println!("{report}");
//!
//! // Ad-hoc text and parallel batches share the same cache. Batches (and
//! // how-to candidate evaluation, and forest training) fan out over one
//! // persistent process-wide worker pool — never per-call threads.
//! let outcomes = session.execute_batch(&[
//!     "Use product Update(price) = 0.9 * Pre(price) Output Count(*)",
//!     "Use product Update(price) = 1.2 * Pre(price) Output Count(*)",
//! ]);
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//! ```
//!
//! ## Multi-tenant serving: the shared artifact store
//!
//! Sessions are the unit of *tenancy* (own config, stats, cache budget),
//! not the unit of *work*: relevant views, block decompositions, and
//! fitted estimators live in a process-wide
//! [`SharedArtifactStore`](core::SharedArtifactStore) keyed by content
//! fingerprints of `(database, graph)`. Many sessions over one dataset —
//! even loaded independently, without shared `Arc`s — build each artifact
//! once, single-flight, process-wide (`examples/multi_session.rs` runs
//! four concurrent tenants and asserts exactly one view build):
//!
//! ```
//! use hyper_repro::prelude::*;
//! let data = hyper_repro::datasets::amazon::amazon(200, 3, 5);
//! let db = std::sync::Arc::new(data.db);
//! let graph = std::sync::Arc::new(data.graph);
//!
//! let tenant_a = HyperSession::builder(db.clone()).graph(graph.clone()).build();
//! let tenant_b = HyperSession::builder(db).graph(graph).build();
//! let q = "Use product Update(price) = 500 Output Count(Post(price) > 400)";
//! tenant_a.execute(q).unwrap();
//! tenant_b.execute(q).unwrap();
//! // Tenant B re-used A's artifacts through the shared store.
//! assert_eq!(tenant_b.stats().view_misses, 0);
//! assert_eq!(tenant_b.stats().view_shared_hits, 1);
//! // Opt out per session with `.share_artifacts(false)`; scale the
//! // worker pool with `.runtime(HyperRuntime::with_workers(n))`.
//! ```
//!
//! ## Durability: snapshots and the three-tier cache
//!
//! Scenario state outlives a process. [`store::Snapshot`] serializes a
//! whole database + causal graph to one checksummed, versioned `HYPR1`
//! file (`hyper-snapshot save/inspect/load` is the CLI over it), and
//! `SessionBuilder::persist_dir` adds a **disk tier** under the shared
//! store, making artifact resolution three-tiered:
//!
//! ```text
//! local LRU tier (per session)  →  shared in-memory store (process-wide)
//!                               →  disk tier (persist_dir, survives restarts)
//!                               →  build / train (spills back to disk)
//! ```
//!
//! Fitted estimators, relevant views, and block decompositions are
//! spilled as fingerprint-validated artifact files when built and
//! recovered by deserialization after a restart — reloaded forests
//! predict bit-identically, so a restarted process answers its first
//! what-if at warm-cache speed with zero retraining
//! (`examples/warm_start.rs` asserts it end to end, and `hyper-core`'s
//! `persist_tests::warm_start_after_simulated_restart` asserts that a
//! restarted session neither retrains nor rebuilds its view). Corrupt,
//! truncated, or stale-data files read as typed
//! [`StoreError`](store::StoreError)s and fall back to a rebuild. The
//! shared tier itself can be byte-budgeted
//! (`SessionBuilder::shared_budget_bytes`), with evictions re-serving
//! from the disk tier.
//!
//! ## Serving: HTTP, admission control, and tenancy over the wire
//!
//! The [`serve`] crate turns all of the above into a network service:
//! the `hyper-serve` binary serves a *registry directory* of
//! `<tenant>.hypr` snapshot files over hand-rolled HTTP/1.1 (`std::net`
//! only — the workspace is offline). Each tenant's snapshot is loaded
//! lazily on its first request behind a single-flight lock, its session
//! cached for the life of the process, and repeat query texts ride the
//! prepared-template path. In front of the engine sits an admission
//! layer: a bounded queue with one lane per tenant drained round-robin
//! by a fixed executor pool, so one tenant's burst cannot starve
//! another; a full queue sheds typed `503 + Retry-After` responses
//! without touching the engine, and per-request deadlines answer `504`
//! while the executor finishes in the background (warming the caches —
//! a timeout never poisons a session).
//!
//! ```text
//! POST /query    {"tenant": "...", "query": "...", "bindings": {...}}
//! POST /explain  same body — the static plan with cache provenance
//! POST /ingest   {"tenant": "...", "table": "...", "rows": [...], "deletes": [...]}
//! GET  /stats    server + per-tenant admission counters + SessionStats
//! GET  /health   liveness (served inline, even under saturation)
//! ```
//!
//! `POST /ingest` is the write path: a typed
//! [`DeltaBatch`](ingest::DeltaBatch) (appends and/or deletes against
//! one table) is applied through
//! [`HyperSession::refresh`](core::HyperSession::refresh), which swaps
//! in a post-delta session MVCC-style while keeping — as pure cache hits — every relevant view
//! whose filter provably admits none of the changed rows and every
//! estimator trained over a surviving view. The answer is the
//! invalidation report (`views_kept`, `estimators_invalidated`,
//! `blocks_invalidated`, …) plus a `data_version` counter that also
//! appears in `/stats` and `/explain`, so answers correlate with the
//! data they were computed over. Before the swap, the encoded delta is
//! fsync'd onto a `HYPD1` append log beside the tenant's snapshot and
//! replayed on restart: an acknowledged ingest survives a crash.
//!
//! Responses render floats in shortest-round-trip form, so a client
//! re-parsing `value` recovers the library-path `f64` bit-for-bit — the
//! serve test suite asserts equality with `==`, not a tolerance.
//! Because sessions share the process-wide artifact store, tenants
//! serving content-identical snapshots share views and estimators
//! across the wire too (`examples/serve_tenants.rs` boots a server with
//! two tenants over one dataset and asserts via `/stats` that the
//! second trained nothing). See `crates/serve/README.md` for the full
//! protocol and the failure-mode table.
//!
//! ## Execution model: morsels, determinism, and forest training
//!
//! Every data-parallel path in the workspace follows one morsel-driven
//! execution model (see `crates/storage/src/lib.rs` for the full
//! contract). Tables are processed as **morsels** — fixed row ranges of
//! [`DEFAULT_MORSEL_ROWS`](storage::DEFAULT_MORSEL_ROWS) rows — fanned
//! out over the process-wide [`HyperRuntime`](runtime::HyperRuntime)
//! worker pool and merged back **in morsel order**. Morsel boundaries
//! depend only on the row count and the morsel size, never on how many
//! workers happen to drain them, and any fold whose result depends on
//! operation order (float accumulation, group first-occurrence order,
//! join match order) runs sequentially over the merged stream. The
//! result: filter, expression evaluation, group-by aggregation, hash
//! join, table encoding, and forest prediction are all **bit-identical**
//! (`f64::to_bits`-level) to their sequential runs regardless of worker
//! count — property-tested across worker counts and morsel sizes in
//! `crates/storage/tests/prop_morsel.rs` and
//! `crates/ml/tests/morsel_parity.rs`.
//!
//! Forest **training** is deterministic the same way. Every forest fits
//! through one cell layout: pass one sorts each encoded feature column
//! to fix its bin boundaries, pass two numbers the joint cells (rows
//! sharing a bin vector), and the per-tree fits run over per-cell
//! statistics on the worker pool, each tree seeded by its index.
//! Estimators fit from the relevant view's §3.3 support index
//! ([`ml::RandomForest::fit_on_cells`]) unless a peer summary or a
//! sample cap needs the row matrix: only one representative row per
//! support cell is encoded and binned, and the forest is
//! **bit-identical** to [`ml::RandomForest::fit_on`] over the expanded
//! matrix for any worker count (property-tested in
//! `crates/ml/tests/prop_cells_train.rs`). When continuous features
//! leave too many cells, trees fit row-wise over per-row bins derived
//! from the same splits.
//!
//! A prepared what-if pays only its evaluation per execution.
//! [`HyperSession::prepare`](core::HyperSession::prepare) resolves the
//! relevant view and, for a concrete query (no `Param(…)`), plans it
//! against that view once: validation, column binding, the backdoor
//! search and the estimator key. Each
//! [`execute`](core::PreparedQuery::execute) then evaluates the
//! `When`/`For` masks and the cached estimator from the plan the handle
//! holds; the plan drops with the handle. A template is planned per
//! binding, like an ad-hoc query.

pub use hyper_causal as causal;
pub use hyper_core as core;
pub use hyper_datasets as datasets;
pub use hyper_ingest as ingest;
pub use hyper_ip as ip;
pub use hyper_ml as ml;
pub use hyper_query as query;
pub use hyper_runtime as runtime;
pub use hyper_serve as serve;
pub use hyper_storage as storage;
pub use hyper_store as store;

/// Common imports for applications.
pub mod prelude {
    pub use hyper_causal::{BlockDecomposition, CausalGraph, Intervention, InterventionOp, Scm};
    pub use hyper_core::{
        exact_whatif, BackdoorMode, CacheBudget, EngineConfig, ExplainReport, HowToOptions,
        HowToResult, HyperSession, IntoQuery, Phase, PreparedQuery, Provenance, QueryOutcome,
        QueryTimings, RefreshOutcome, RefreshReport, SessionBuilder, SessionStats,
        SharedArtifactStore, WhatIfResult,
    };
    pub use hyper_datasets::Dataset;
    pub use hyper_ingest::{DeltaBatch, TableDelta};
    pub use hyper_query::{
        parse_query, Bindings, HExpr, HowTo, HypotheticalQuery, QueryKey, WhatIf,
    };
    pub use hyper_runtime::HyperRuntime;
    pub use hyper_serve::{ServeConfig, Server};
    pub use hyper_storage::{AggFunc, Database, Table, Value};
    pub use hyper_store::{Snapshot, SnapshotRegistry, StoreError};
}
