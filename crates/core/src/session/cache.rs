//! The session artifact cache.
//!
//! HypeR's §3.3/§5 computation strategy produces three expensive,
//! *query-independent or query-family-independent* artifacts:
//!
//! 1. **relevant views** — one per distinct `Use` clause; building one may
//!    join and aggregate the whole database,
//! 2. **block decompositions** (Prop. 1) — one per (database, graph) pair,
//!    i.e. exactly one per session,
//! 3. **fitted causal estimators** — one per (view, update columns,
//!    output, adjustment set, estimator configuration); training the random
//!    forest dominates what-if latency. The update *functions* are not part
//!    of the key: they are applied at evaluation, so every candidate value
//!    of a how-to attribute or binding of a parameter sweep shares one
//!    model.
//!
//! The cache keys each artifact by a canonical [`QueryKey`] fingerprint
//! derived *structurally from the IR* (not from rendered text), so a query
//! assembled with the typed builders and the same query parsed from text
//! resolve to the same entries. Each artifact is wrapped in an [`Arc`] so
//! concurrent executions share it without copying, and hits/misses are
//! counted for [`super::SessionStats`]. All entries are `Send + Sync`,
//! which is what lets [`super::HyperSession::execute_batch`] fan work
//! across threads over one shared cache.
//!
//! Concurrency: each key has a *single-flight* slot — when several threads
//! miss the same key at once, exactly one builds the artifact (holding only
//! that key's init lock, never the whole map) and the rest wait for it, so
//! an expensive estimator is never trained twice and every miss counter
//! increment corresponds to one real build. A failed build caches nothing;
//! the next requester retries. That holds for panics too: the locks only
//! guard a write-once [`OnceLock`] whose state stays consistent across an
//! unwinding builder, so lock poisoning is deliberately recovered from
//! rather than propagated.
//!
//! Eviction: by default the cache grows without bound; a [`CacheBudget`]
//! (see [`super::SessionBuilder::cache_budget`]) caps the number of views
//! and/or estimators, evicting the least-recently-used filled entry when a
//! build pushes a store over its cap. Eviction only drops the cache's own
//! `Arc` — executions already holding the artifact keep it alive — and a
//! later request for an evicted key simply rebuilds (one more miss).
//!
//! Three-tier layout:
//!
//! ```text
//! local LRU tier   (per session, CacheBudget-bounded, plain hits)
//!       ↓ miss
//! shared in-memory tier   (process-wide SharedArtifactStore shard,
//!       ↓ miss             single-flight across sessions, shared hits)
//! disk tier   (SessionBuilder::persist_dir artifact files,
//!       ↓ miss             single-flight reads, disk hits)
//! build / train
//! ```
//!
//! A local hit never leaves the session; a local miss consults the
//! session's shared shard (single-flight across *sessions*), and a shared
//! miss — with persistence enabled — tries the disk tier before building.
//! The resolution is recorded as a real build
//! ([`super::SessionStats::view_misses`]), a shared hit
//! ([`super::SessionStats::view_shared_hits`]), or a disk hit
//! ([`super::SessionStats::view_disk_hits`]) before installing the `Arc`
//! in the local tier, where the LRU budget applies as before. Freshly
//! built artifacts are spilled to the disk tier at build time, so a
//! restarted process (or an artifact evicted from the shared tier under
//! its byte budget) recovers them by deserialization instead of
//! rebuilding. A corrupt, truncated, or stale artifact file reads as a
//! typed error and is treated as a miss — never a panic, never a wrong
//! artifact (files carry the full key and shard fingerprints, verified on
//! load). Sessions built with
//! [`super::SessionBuilder::share_artifacts`]`(false)` skip the shared
//! tier, and sessions without a persist directory skip the disk tier;
//! with neither, the cache behaves exactly like the original
//! single-level design.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use hyper_causal::{BlockDecomposition, CausalGraph};
use hyper_query::{key as qkey, QueryKey, UseClause, WhatIfQuery};
use hyper_storage::Database;

use crate::config::EngineConfig;
use crate::error::Result;
use crate::persist::{DiskArtifact, DiskTier};
use crate::session::shared::{FetchOutcome, SharedCache, SharedShard};
use crate::view::{build_relevant_view, RelevantView};
use crate::whatif::estimator::CausalEstimator;

/// A size budget for the artifact cache: the maximum number of entries kept
/// per artifact kind (`None` = unbounded). Exceeding a cap evicts the
/// least-recently-used entry.
///
/// Estimators are the store that grows with workload variety — one per
/// distinct (view, update-column list, output, `For`, adjustment set) —
/// so [`CacheBudget::estimators`] is the common configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum relevant views kept (`None` = unbounded).
    pub max_views: Option<usize>,
    /// Maximum fitted estimators kept (`None` = unbounded).
    pub max_estimators: Option<usize>,
}

impl CacheBudget {
    /// No limits (the default).
    pub fn unbounded() -> CacheBudget {
        CacheBudget::default()
    }

    /// Cap only the estimator store.
    pub fn estimators(max: usize) -> CacheBudget {
        CacheBudget {
            max_views: None,
            max_estimators: Some(max),
        }
    }

    /// Cap both stores.
    pub fn new(max_views: usize, max_estimators: usize) -> CacheBudget {
        CacheBudget {
            max_views: Some(max_views),
            max_estimators: Some(max_estimators),
        }
    }
}

/// Layout tag of [`ArtifactCache::estimator_key`]. Bump it whenever the
/// key's facets change meaning (the estimator payload carries its own
/// layout byte in `crate::persist`).
const ESTIMATOR_KEY_FORMAT: &str = "m2:";

/// Cache hit/miss/eviction counters, exposed through
/// [`super::SessionStats`].
#[derive(Debug, Default)]
pub(crate) struct CacheCounters {
    pub view_hits: AtomicU64,
    pub view_misses: AtomicU64,
    pub view_shared_hits: AtomicU64,
    pub view_disk_hits: AtomicU64,
    pub view_evictions: AtomicU64,
    pub estimator_hits: AtomicU64,
    pub estimator_misses: AtomicU64,
    pub estimator_shared_hits: AtomicU64,
    pub estimator_disk_hits: AtomicU64,
    pub estimator_evictions: AtomicU64,
    pub block_hits: AtomicU64,
    pub block_misses: AtomicU64,
    pub block_shared_hits: AtomicU64,
    pub block_disk_hits: AtomicU64,
}

/// The counter set of one artifact kind, bundled so the tiered fetch
/// paths stay readable.
struct TierCounters<'a> {
    hits: &'a AtomicU64,
    misses: &'a AtomicU64,
    shared_hits: &'a AtomicU64,
    disk_hits: &'a AtomicU64,
    evictions: &'a AtomicU64,
}

/// One cache entry: a write-once cell plus the per-key init lock that
/// serializes builders without blocking other keys, and an LRU stamp.
struct Slot<T> {
    cell: OnceLock<Arc<T>>,
    init: Mutex<()>,
    /// Logical timestamp of the last hit or build (for LRU eviction).
    last_used: AtomicU64,
}

impl<T> Default for Slot<T> {
    fn default() -> Slot<T> {
        Slot {
            cell: OnceLock::new(),
            init: Mutex::new(()),
            last_used: AtomicU64::new(0),
        }
    }
}

/// A keyed single-flight cache of immutable artifacts with an optional
/// LRU entry cap: concurrent first requests for one key run its builder
/// once, and a build that pushes the map over its cap evicts the
/// least-recently-used other entry. The session's artifact tiers are
/// built on it; it is public so other per-key stores (such as a server's
/// prepared-template map) get the same single-flight and LRU behaviour.
pub struct KeyedCache<T> {
    map: RwLock<HashMap<String, Arc<Slot<T>>>>,
    cap: Option<usize>,
    clock: AtomicU64,
}

impl<T> KeyedCache<T> {
    /// An empty cache keeping at most `cap` built entries (`None` =
    /// unbounded; `Some(0)` is clamped to 1).
    pub fn new(cap: Option<usize>) -> KeyedCache<T> {
        KeyedCache {
            map: RwLock::new(HashMap::new()),
            // A cap of 0 would evict the entry just built before anyone
            // else could share it; clamp to ≥ 1.
            cap: cap.map(|c| c.max(1)),
            clock: AtomicU64::new(1),
        }
    }

    fn touch(&self, slot: &Slot<T>) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// True when `key` is present and built (no side effects, no counter
    /// movement).
    fn peek(&self, key: &str) -> bool {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .is_some_and(|slot| slot.cell.get().is_some())
    }

    /// Fetch `key`, building via `build` on first use. `hits`/`misses` are
    /// bumped so that exactly one miss is recorded per successful build;
    /// `evictions` counts LRU entries dropped to honor the cap. A failed
    /// build records nothing and leaves no entry behind.
    pub fn get_or_build(
        &self,
        key: &str,
        hits: &AtomicU64,
        misses: &AtomicU64,
        evictions: &AtomicU64,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        // Fast path: filled slot under the read lock.
        if let Some(slot) = self.map.read().unwrap_or_else(|e| e.into_inner()).get(key) {
            if let Some(v) = slot.cell.get() {
                self.touch(slot);
                hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(v));
            }
        }
        // Get-or-create this key's slot (brief write lock; no building).
        let slot = {
            let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        // Serialize builders per key; re-check after acquiring. A builder
        // that panicked poisons this mutex but leaves the OnceLock empty
        // and consistent — recover and retry rather than propagate.
        let _guard = slot.init.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = slot.cell.get() {
            self.touch(&slot);
            hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(v));
        }
        let built = match build() {
            Ok(v) => Arc::new(v),
            Err(e) => {
                // A failed build leaves nothing behind: drop this key's
                // still-empty slot, so keys that never build (say, invalid
                // query texts from clients) cannot grow the map.
                let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
                if map
                    .get(key)
                    .is_some_and(|s| Arc::ptr_eq(s, &slot) && s.cell.get().is_none())
                {
                    map.remove(key);
                }
                return Err(e);
            }
        };
        slot.cell
            .set(Arc::clone(&built))
            .unwrap_or_else(|_| unreachable!("init lock held"));
        self.touch(&slot);
        misses.fetch_add(1, Ordering::Relaxed);
        if self.cap.is_some() {
            self.evict_over_cap(key, evictions);
        }
        Ok(built)
    }

    /// Drop least-recently-used *filled* entries until the store is within
    /// its cap again, never evicting `just_built` (it is the newest entry;
    /// guarding by key keeps the build that triggered eviction shareable).
    fn evict_over_cap(&self, just_built: &str, evictions: &AtomicU64) {
        let Some(cap) = self.cap else { return };
        let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
        loop {
            let filled = map.values().filter(|s| s.cell.get().is_some()).count();
            if filled <= cap {
                return;
            }
            let victim: Option<String> = map
                .iter()
                .filter(|(k, s)| s.cell.get().is_some() && k.as_str() != just_built)
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                    evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }

    /// Fetch `key` if locally present (LRU touch, no counter movement —
    /// the caller decides what a hit means).
    fn get_if_present(&self, key: &str) -> Option<Arc<T>> {
        let map = self.map.read().unwrap_or_else(|e| e.into_inner());
        let slot = map.get(key)?;
        let v = slot.cell.get()?;
        self.touch(slot);
        Some(Arc::clone(v))
    }

    /// Install an already-built artifact (fetched from the shared tier)
    /// under `key`, honoring the LRU cap. Racing installs of the same key
    /// keep the first value; both point at the same shared artifact
    /// anyway.
    fn insert(&self, key: &str, value: Arc<T>, evictions: &AtomicU64) {
        let slot = {
            let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        let _ = slot.cell.set(value);
        self.touch(&slot);
        if self.cap.is_some() {
            self.evict_over_cap(key, evictions);
        }
    }

    /// Number of *built* entries (unfilled race slots don't count).
    pub fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|slot| slot.cell.get().is_some())
            .count()
    }

    /// True when no entry is built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry. A build in flight finishes into its own detached
    /// slot: its caller gets the value, but the cache does not keep it, so
    /// nothing built before the clear is served after it.
    pub fn clear(&self) {
        self.map.write().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Every built entry as `(key, value)` — the survivor scan a delta
    /// refresh runs over the local tier. No LRU touch: enumerating the
    /// cache must not reorder eviction recency.
    fn entries(&self) -> Vec<(String, Arc<T>)> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter_map(|(k, slot)| slot.cell.get().map(|v| (k.clone(), Arc::clone(v))))
            .collect()
    }
}

/// Per-session store of session artifacts — relevant views, the block
/// decomposition, and fitted estimators — optionally layered over a
/// shard of the process-wide [`super::SharedArtifactStore`].
pub struct ArtifactCache {
    views: KeyedCache<RelevantView>,
    estimators: KeyedCache<CausalEstimator>,
    blocks: KeyedCache<BlockDecomposition>,
    /// The session's `(db, graph)` shard of the shared store; `None` for
    /// isolated sessions.
    shared: Option<Arc<SharedShard>>,
    /// The session's disk tier; `None` without a persist directory.
    disk: Option<Arc<DiskTier>>,
    /// Behind an `Arc` so a delta-refreshed session continues its
    /// predecessor's cumulative [`super::SessionStats`] rather than
    /// resetting them.
    pub(crate) counters: Arc<CacheCounters>,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("views", &self.views.len())
            .field("estimators", &self.estimators.len())
            .field("shared", &self.shared.is_some())
            .field("disk", &self.disk)
            .field("counters", &self.counters)
            .finish()
    }
}

impl ArtifactCache {
    /// An empty cache honoring `budget`, layered over `shared` when the
    /// session participates in cross-session sharing and over `disk`
    /// when it persists artifacts.
    pub(crate) fn new(
        budget: CacheBudget,
        shared: Option<Arc<SharedShard>>,
        disk: Option<Arc<DiskTier>>,
    ) -> ArtifactCache {
        Self::with_counters(budget, shared, disk, Arc::new(CacheCounters::default()))
    }

    /// An empty cache that keeps counting into an existing counter set —
    /// how [`super::HyperSession::refresh`] hands the post-delta session
    /// its predecessor's cumulative statistics.
    pub(crate) fn with_counters(
        budget: CacheBudget,
        shared: Option<Arc<SharedShard>>,
        disk: Option<Arc<DiskTier>>,
        counters: Arc<CacheCounters>,
    ) -> ArtifactCache {
        ArtifactCache {
            views: KeyedCache::new(budget.max_views),
            estimators: KeyedCache::new(budget.max_estimators),
            blocks: KeyedCache::new(None),
            shared,
            disk,
            counters,
        }
    }

    /// Tiered fetch shared by all three artifact kinds: local tier first
    /// (a plain hit), then the shared shard (single-flight across
    /// sessions), then — inside the single-flight builder — the disk
    /// tier, then the real build (spilled to disk on success). Exactly
    /// one of `misses`/`shared_hits`/`disk_hits` moves per call that
    /// leaves the local tier, and the fetched `Arc` is installed locally
    /// so the LRU budget and later local hits behave exactly as without
    /// the extra tiers.
    ///
    /// `valid` re-checks a *disk-recovered* artifact against live
    /// context (view/database dimensions) the context-free decoder
    /// cannot know; a failing artifact is a plain miss — it never enters
    /// the memory tiers, and the rebuild overwrites its file.
    #[allow(clippy::too_many_arguments)]
    fn fetch_tiered<T: DiskArtifact>(
        local: &KeyedCache<T>,
        shared: Option<&SharedShard>,
        select: fn(&SharedShard) -> &SharedCache<T>,
        disk: Option<&DiskTier>,
        key: &str,
        c: &TierCounters<'_>,
        valid: impl Fn(&T) -> bool,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        if let Some(v) = local.get_if_present(key) {
            c.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        // The builder the memory tiers run on a miss: recover from disk
        // when possible (any invalid file is a miss), otherwise build and
        // spill. `from_disk` reports which happened — the distinction
        // only affects counters, never the value.
        let from_disk = Cell::new(false);
        let wrapped = || {
            if let Some(d) = disk {
                if let Some(v) = d.load::<T>(key) {
                    if valid(&v) {
                        from_disk.set(true);
                        return Ok(v);
                    }
                }
            }
            let v = build()?;
            if let Some(d) = disk {
                d.store(key, &v);
            }
            Ok(v)
        };
        let v = match shared {
            Some(shard) => {
                let (v, outcome) = shard.fetch(select, key, T::approx_bytes, wrapped)?;
                match outcome {
                    FetchOutcome::Built if from_disk.get() => {
                        c.disk_hits.fetch_add(1, Ordering::Relaxed)
                    }
                    FetchOutcome::Built => c.misses.fetch_add(1, Ordering::Relaxed),
                    FetchOutcome::Shared => c.shared_hits.fetch_add(1, Ordering::Relaxed),
                };
                v
            }
            None => {
                // Isolated session: the local tier itself is the
                // single-flight point. Count the build outcome ourselves
                // so a disk recovery is a disk hit, not a miss.
                let built = AtomicU64::new(0);
                let v = local.get_or_build(key, c.hits, &built, c.evictions, wrapped)?;
                if built.load(Ordering::Relaxed) > 0 {
                    if from_disk.get() {
                        c.disk_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        c.misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return Ok(v);
            }
        };
        local.insert(key, Arc::clone(&v), c.evictions);
        Ok(v)
    }

    /// Canonical key of a `Use` clause: a structural fingerprint of the
    /// AST ([`QueryKey::of_use`]), identical whether the clause was parsed
    /// from text or assembled with the typed builders.
    ///
    /// Deliberately **no case folding**: string-literal comparison is
    /// case-sensitive (`'Asus'` ≠ `'ASUS'`), and so is table lookup
    /// (`Use D` must fail identically on a cold and a warm cache when the
    /// table is named `d`). Spelling an identifier differently therefore
    /// costs at most a duplicate cache entry — never a wrong answer.
    pub fn view_key(use_clause: &UseClause) -> QueryKey {
        QueryKey::of_use(use_clause)
    }

    /// Fingerprint of everything a fitted estimator depends on: the view it
    /// was trained over, the resolved update *columns* in update order
    /// (feature order shapes the forest), the output (ψ and Y), the `For`
    /// clause (whose pre-conjuncts feed the adjustment set), the resolved
    /// adjustment columns, and the estimator-relevant configuration.
    ///
    /// Two query parts are deliberately absent. The update *functions*
    /// are applied at evaluation time (Eqs. 35–40 reduce the post-update
    /// conditional to a pre-update one queried at `f(b)`), so every value
    /// of a how-to candidate or a swept parameter shares one model, and
    /// `Update(status)` and `Update(STATUS)` resolve to the same column.
    /// The `When` clause only masks rows at evaluation time (§3.3).
    ///
    /// The key opens, after the view key, with [`ESTIMATOR_KEY_FORMAT`]:
    /// an estimator file spilled under an older key layout hashes to
    /// another file name and is simply never read.
    pub(crate) fn estimator_key(
        view_key: &str,
        update_cols: &[usize],
        q: &WhatIfQuery,
        backdoor_cols: &[usize],
        config: &EngineConfig,
    ) -> String {
        use std::fmt::Write as _;
        let mut key = String::with_capacity(view_key.len() + 128);
        key.push_str(view_key);
        key.push('\u{1f}');
        key.push_str(ESTIMATOR_KEY_FORMAT);
        let _ = write!(key, "{update_cols:?}");
        key.push('\u{1f}');
        qkey::write_output(&mut key, &q.output);
        key.push('\u{1f}');
        if let Some(fc) = &q.for_clause {
            qkey::write_expr(&mut key, fc);
        }
        key.push('\u{1f}');
        let _ = write!(key, "{backdoor_cols:?}");
        key.push('\u{1f}');
        let _ = write!(
            key,
            "{:?}|{:?}|{:?}|{}|{}|{}|{}",
            config.backdoor,
            config.estimator,
            config.sample_cap,
            config.n_trees,
            config.max_depth,
            config.seed,
            config.peer_summaries,
        );
        // Same case discipline as `view_key` for the output and `For`
        // parts: exact text, no folding (`Post(color) = 'Red'` ≠ `= 'red'`).
        key
    }

    /// The relevant view for `use_clause`, building and caching it on first
    /// use. Returns the shared view and its canonical key.
    pub(crate) fn view(
        &self,
        db: &Database,
        use_clause: &UseClause,
    ) -> Result<(Arc<RelevantView>, QueryKey)> {
        // Exclusive-time accounting: a miss's build opens its own
        // `ViewBuild` span, so this span's self time is lookup overhead.
        let _span = hyper_trace::span(hyper_trace::Phase::CacheLookup);
        let key = Self::view_key(use_clause);
        let c = &self.counters;
        fn shard_views(s: &SharedShard) -> &SharedCache<RelevantView> {
            &s.views
        }
        let view = Self::fetch_tiered(
            &self.views,
            self.shared.as_deref(),
            shard_views,
            self.disk.as_deref(),
            key.as_str(),
            &TierCounters {
                hits: &c.view_hits,
                misses: &c.view_misses,
                shared_hits: &c.view_shared_hits,
                disk_hits: &c.view_disk_hits,
                evictions: &c.view_evictions,
            },
            // Views carry no raw indices into external state: origins are
            // length-checked at decode and the table's fingerprint is
            // re-validated, so no live-context check remains.
            |_| true,
            || build_relevant_view(db, use_clause),
        )?;
        Ok((view, key))
    }

    /// The fitted estimator for `key`, fitting via `fit` on a miss.
    /// `valid` vets a disk-recovered estimator against the live view
    /// (see [`fetch_tiered`](Self::fetch_tiered)); pass
    /// `CausalEstimator::fits_view` bound to the query's view.
    pub(crate) fn estimator(
        &self,
        key: &str,
        valid: impl Fn(&CausalEstimator) -> bool,
        fit: impl FnOnce() -> Result<CausalEstimator>,
    ) -> Result<Arc<CausalEstimator>> {
        let _span = hyper_trace::span(hyper_trace::Phase::CacheLookup);
        let c = &self.counters;
        fn shard_estimators(s: &SharedShard) -> &SharedCache<CausalEstimator> {
            &s.estimators
        }
        Self::fetch_tiered(
            &self.estimators,
            self.shared.as_deref(),
            shard_estimators,
            self.disk.as_deref(),
            key,
            &TierCounters {
                hits: &c.estimator_hits,
                misses: &c.estimator_misses,
                shared_hits: &c.estimator_shared_hits,
                disk_hits: &c.estimator_disk_hits,
                evictions: &c.estimator_evictions,
            },
            valid,
            fit,
        )
    }

    /// The session's block decomposition (Prop. 1), computed once per
    /// (database, graph) pair — which a session fixes at construction
    /// (and which is exactly what the shared shard is keyed by).
    pub(crate) fn blocks(
        &self,
        db: &Database,
        graph: &CausalGraph,
    ) -> Result<Arc<BlockDecomposition>> {
        let _span = hyper_trace::span(hyper_trace::Phase::CacheLookup);
        let c = &self.counters;
        let build = || {
            let _span = hyper_trace::span(hyper_trace::Phase::BlockDecomp);
            BlockDecomposition::compute(db, graph).map_err(crate::error::EngineError::from)
        };
        fn shard_blocks(s: &SharedShard) -> &SharedCache<BlockDecomposition> {
            &s.blocks
        }
        Self::fetch_tiered(
            &self.blocks,
            self.shared.as_deref(),
            shard_blocks,
            self.disk.as_deref(),
            "",
            &TierCounters {
                hits: &c.block_hits,
                misses: &c.block_misses,
                shared_hits: &c.block_shared_hits,
                disk_hits: &c.block_disk_hits,
                evictions: &AtomicU64::new(0),
            },
            // A disk-recovered decomposition must reference only rows the
            // live database actually has (untrusted indices would
            // otherwise panic during block-wise evaluation).
            |b: &BlockDecomposition| {
                let sizes: Vec<usize> = db.tables().iter().map(|t| t.num_rows()).collect();
                b.fits_tables(&sizes)
            },
            build,
        )
    }

    /// Is the view for `key` currently cached — locally, in the shared
    /// shard, or as a disk-tier file? (Explain provenance; no counter
    /// movement; disk presence is a file check, validation still happens
    /// on load.)
    pub(crate) fn has_view(&self, key: &str) -> bool {
        self.views.peek(key)
            || self
                .shared
                .as_ref()
                .is_some_and(|shard| shard.views.peek(key))
            || self
                .disk
                .as_ref()
                .is_some_and(|d| d.has(hyper_store::ArtifactKind::View, key))
    }

    /// Is the estimator for `key` currently cached (any tier)?
    pub(crate) fn has_estimator(&self, key: &str) -> bool {
        self.estimators.peek(key)
            || self
                .shared
                .as_ref()
                .is_some_and(|shard| shard.estimators.peek(key))
            || self
                .disk
                .as_ref()
                .is_some_and(|d| d.has(hyper_store::ArtifactKind::Estimator, key))
    }

    /// Is the block decomposition cached (any tier)?
    pub(crate) fn has_blocks(&self) -> bool {
        self.blocks.peek("")
            || self
                .shared
                .as_ref()
                .is_some_and(|shard| shard.blocks.peek(""))
            || self
                .disk
                .as_ref()
                .is_some_and(|d| d.has(hyper_store::ArtifactKind::Blocks, ""))
    }

    /// Number of distinct cached views (diagnostics).
    pub(crate) fn cached_views(&self) -> usize {
        self.views.len()
    }

    /// Number of distinct cached estimators (diagnostics).
    pub(crate) fn cached_estimators(&self) -> usize {
        self.estimators.len()
    }

    /// Every locally cached view as `(key, view)` — the survivor scan of
    /// a delta refresh.
    pub(crate) fn view_entries(&self) -> Vec<(String, Arc<RelevantView>)> {
        self.views.entries()
    }

    /// Every locally cached estimator as `(key, estimator)`.
    pub(crate) fn estimator_entries(&self) -> Vec<(String, Arc<CausalEstimator>)> {
        self.estimators.entries()
    }

    /// The locally cached block decomposition, if built (LRU-touching is
    /// harmless here — the blocks store is uncapped).
    pub(crate) fn cached_blocks(&self) -> Option<Arc<BlockDecomposition>> {
        self.blocks.get_if_present("")
    }

    /// Install a delta-surviving artifact in **every** tier of this (new)
    /// cache: the local tier, the session's shared shard (so sibling
    /// sessions over the post-delta data inherit it without rebuilding),
    /// and the disk tier (under the post-delta shard fingerprints).
    /// Counters don't move — adoption is migration, not a hit.
    fn adopt<T: DiskArtifact>(
        &self,
        local: &KeyedCache<T>,
        select: fn(&SharedShard) -> &SharedCache<T>,
        evictions: &AtomicU64,
        key: &str,
        value: Arc<T>,
    ) {
        if let Some(shard) = self.shared.as_deref() {
            shard.insert_prebuilt(select, key, Arc::clone(&value), T::approx_bytes(&value));
        }
        if let Some(d) = self.disk.as_deref() {
            d.store(key, &*value);
        }
        local.insert(key, value, evictions);
    }

    /// Adopt a surviving relevant view (see [`ArtifactCache::adopt`]).
    pub(crate) fn adopt_view(&self, key: &str, view: Arc<RelevantView>) {
        fn shard_views(s: &SharedShard) -> &SharedCache<RelevantView> {
            &s.views
        }
        self.adopt(
            &self.views,
            shard_views,
            &self.counters.view_evictions,
            key,
            view,
        );
    }

    /// Adopt a surviving fitted estimator (see [`ArtifactCache::adopt`]).
    pub(crate) fn adopt_estimator(&self, key: &str, est: Arc<CausalEstimator>) {
        fn shard_estimators(s: &SharedShard) -> &SharedCache<CausalEstimator> {
            &s.estimators
        }
        self.adopt(
            &self.estimators,
            shard_estimators,
            &self.counters.estimator_evictions,
            key,
            est,
        );
    }

    /// Adopt the freshly computed post-delta block decomposition, so the
    /// refreshed session's first block-wise evaluation is a local hit.
    pub(crate) fn adopt_blocks(&self, blocks: Arc<BlockDecomposition>) {
        fn shard_blocks(s: &SharedShard) -> &SharedCache<BlockDecomposition> {
            &s.blocks
        }
        let none = AtomicU64::new(0);
        self.adopt(&self.blocks, shard_blocks, &none, "", blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::{ArtifactCache, CacheBudget};
    use hyper_query::UseClause;

    #[test]
    fn view_keys_are_exact_text() {
        // Literal and identifier case differences both produce distinct
        // keys: spelling differences can only cost a duplicate entry,
        // never serve the wrong artifact (table lookup and string-value
        // comparison are case-sensitive).
        let a = ArtifactCache::view_key(&UseClause::Table("german_syn".into()));
        let b = ArtifactCache::view_key(&UseClause::Table("GERMAN_SYN".into()));
        assert_ne!(a, b);
        assert_eq!(
            a,
            ArtifactCache::view_key(&UseClause::Table("german_syn".into()))
        );
    }

    #[test]
    fn lru_eviction_honors_cap_and_recency() {
        use super::KeyedCache;
        use std::sync::atomic::{AtomicU64, Ordering};

        let cache: KeyedCache<u32> = KeyedCache::new(Some(2));
        let (h, m, e) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let get = |key: &str, v: u32| cache.get_or_build(key, &h, &m, &e, || Ok(v)).unwrap();
        get("a", 1);
        get("b", 2);
        get("a", 1); // refresh `a`: `b` is now least recent
        get("c", 3); // evicts `b`
        assert_eq!(cache.len(), 2);
        assert_eq!(e.load(Ordering::Relaxed), 1);
        assert!(cache.peek("a") && cache.peek("c") && !cache.peek("b"));
        // Rebuilding the evicted key is a plain miss.
        let misses_before = m.load(Ordering::Relaxed);
        get("b", 2);
        assert_eq!(m.load(Ordering::Relaxed), misses_before + 1);
    }

    #[test]
    fn clear_detaches_builds_in_flight() {
        use super::KeyedCache;
        use std::sync::atomic::{AtomicU64, Ordering};

        let cache: KeyedCache<u32> = KeyedCache::new(Some(4));
        let (h, m, e) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        cache.get_or_build("a", &h, &m, &e, || Ok(1)).unwrap();
        // A clear that lands while "b" is being built: the builder's
        // caller still gets its value, but the cache keeps neither entry.
        let b = cache
            .get_or_build("b", &h, &m, &e, || {
                cache.clear();
                Ok(2)
            })
            .unwrap();
        assert_eq!(*b, 2);
        assert!(cache.is_empty(), "nothing built before the clear is kept");
        // The next request builds afresh.
        let misses = m.load(Ordering::Relaxed);
        assert_eq!(*cache.get_or_build("b", &h, &m, &e, || Ok(3)).unwrap(), 3);
        assert_eq!(m.load(Ordering::Relaxed), misses + 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_builds_leave_no_slot_behind() {
        use super::KeyedCache;
        use crate::error::EngineError;
        use std::sync::atomic::{AtomicU64, Ordering};

        let cache: KeyedCache<u32> = KeyedCache::new(Some(4));
        let (h, m, e) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        // Far more distinct failing keys than the cap: none may stay in
        // the map, built or not.
        for i in 0..100 {
            let key = format!("bad {i}");
            let r =
                cache.get_or_build(&key, &h, &m, &e, || Err(EngineError::Query("parse".into())));
            assert!(r.is_err());
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.map.read().unwrap().len(), 0, "no empty slots kept");
        assert_eq!(m.load(Ordering::Relaxed), 0);
        // A key that failed once builds and caches normally afterwards.
        assert_eq!(
            *cache.get_or_build("bad 0", &h, &m, &e, || Ok(7)).unwrap(),
            7
        );
        assert!(cache.peek("bad 0"));
        assert_eq!(cache.map.read().unwrap().len(), 1);
    }

    #[test]
    fn zero_cap_is_clamped_to_one() {
        let budget = CacheBudget {
            max_views: Some(0),
            max_estimators: Some(0),
        };
        let cache = ArtifactCache::new(budget, None, None);
        // Nothing to assert beyond construction not panicking and the store
        // still holding the most recent entry after a build; exercised via
        // the estimator store in session tests.
        assert_eq!(cache.cached_views(), 0);
    }
}
