//! The process-wide shared artifact store.
//!
//! Relevant views and Prop.-1 block decompositions depend only on the
//! `(database, causal graph)` pair, and fitted estimators key every other
//! input (query parts, adjustment set, estimator configuration) into
//! their cache string — so none of them is inherently *session* state.
//! This module hoists them to process scope: a [`SharedArtifactStore`]
//! holds one `SharedShard` per `(database fingerprint, graph
//! fingerprint)` pair, and every [`super::ArtifactCache`] whose session
//! opted in (the default) resolves misses through its shard.
//!
//! That is the multi-tenant shape what-if serving needs: N concurrent
//! sessions over one dataset — per-tenant configs, bounded per-session
//! LRU budgets, independent [`super::SessionStats`] — paying for **one**
//! view build and **one** estimator training per distinct artifact,
//! process-wide. Keys are *content* fingerprints
//! ([`hyper_storage::Database::fingerprint`] /
//! [`hyper_causal::CausalGraph::fingerprint`]), so sessions share whether
//! they clone one `Arc<Database>` or loaded equal data independently.
//!
//! Concurrency is single-flight per key, across sessions: when many
//! sessions (or many threads of one session) miss the same key at once,
//! exactly one builds while the rest wait and record a *shared hit*
//! ([`super::SessionStats::view_shared_hits`] and friends). A failed or
//! panicking build caches nothing; the next requester retries.
//!
//! ## The byte budget
//!
//! By default the shared tier is unbounded — one entry per *distinct*
//! artifact, with per-session `CacheBudget`s bounding the local tiers.
//! Processes cycling through many datasets can instead set a global
//! byte budget ([`SharedArtifactStore::set_budget_bytes`], or
//! [`super::SessionBuilder::shared_budget_bytes`]): every entry carries
//! an approximate byte size recorded when it is built, and exceeding the
//! budget evicts globally least-recently-used entries **across all
//! shards** until the store fits again. Eviction only drops the store's
//! `Arc` — sessions already holding an artifact keep it — and when the
//! building session had persistence enabled the artifact was already
//! spilled to its disk tier at build time, so an evicted entry re-serves
//! from disk instead of retraining. [`SharedArtifactStore::clear`]
//! reclaims everything wholesale.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};

use hyper_causal::BlockDecomposition;

use crate::error::Result;
use crate::view::RelevantView;
use crate::whatif::estimator::CausalEstimator;

/// How a shared-store fetch was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchOutcome {
    /// This caller ran the builder (counts as a miss for its session —
    /// or a disk hit, when the builder recovered the artifact from the
    /// persist directory instead of building it).
    Built,
    /// The artifact already existed — or another session/thread was
    /// building it and this caller waited (a shared hit either way).
    Shared,
}

/// One single-flight slot: a write-once cell plus the per-key init lock
/// that serializes builders without blocking other keys, stamped for LRU
/// eviction under a byte budget.
struct SharedSlot<T> {
    cell: OnceLock<Arc<T>>,
    init: Mutex<()>,
    /// Approximate artifact footprint, recorded at build.
    bytes: AtomicUsize,
    /// Logical timestamp of the last hit or build (store-wide clock).
    last_used: AtomicU64,
}

impl<T> Default for SharedSlot<T> {
    fn default() -> SharedSlot<T> {
        SharedSlot {
            cell: OnceLock::new(),
            init: Mutex::new(()),
            bytes: AtomicUsize::new(0),
            last_used: AtomicU64::new(0),
        }
    }
}

/// A keyed, single-flight cache shared across sessions.
pub(crate) struct SharedCache<T> {
    map: RwLock<HashMap<String, Arc<SharedSlot<T>>>>,
}

impl<T> Default for SharedCache<T> {
    fn default() -> SharedCache<T> {
        SharedCache {
            map: RwLock::new(HashMap::new()),
        }
    }
}

impl<T> SharedCache<T> {
    /// Fetch `key`, building via `build` if absent; reports whether this
    /// caller performed the build and how many bytes the build added
    /// (`size_of` prices a freshly built artifact). `clock` stamps LRU
    /// recency when the store enforces a byte budget.
    pub(crate) fn get_or_build(
        &self,
        key: &str,
        clock: Option<&AtomicU64>,
        size_of: impl FnOnce(&T) -> usize,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<(Arc<T>, FetchOutcome, usize)> {
        let touch = |slot: &SharedSlot<T>| {
            if let Some(clock) = clock {
                let now = clock.fetch_add(1, Ordering::Relaxed);
                slot.last_used.store(now, Ordering::Relaxed);
            }
        };
        if let Some(slot) = self.map.read().unwrap_or_else(|e| e.into_inner()).get(key) {
            if let Some(v) = slot.cell.get() {
                touch(slot);
                return Ok((Arc::clone(v), FetchOutcome::Shared, 0));
            }
        }
        let slot = {
            let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        // Serialize builders per key; a panicked builder poisons only
        // this lock and leaves the cell empty — recover and retry.
        let _guard = slot.init.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = slot.cell.get() {
            touch(&slot);
            return Ok((Arc::clone(v), FetchOutcome::Shared, 0));
        }
        let built = Arc::new(build()?);
        let bytes = size_of(&built);
        slot.bytes.store(bytes, Ordering::Relaxed);
        slot.cell
            .set(Arc::clone(&built))
            .unwrap_or_else(|_| unreachable!("init lock held"));
        touch(&slot);
        Ok((built, FetchOutcome::Built, bytes))
    }

    /// Install an already-built artifact (survivor migration after a
    /// delta refresh). Returns the bytes newly charged; a concurrently
    /// built entry wins and the insert is then a free no-op.
    pub(crate) fn insert_prebuilt(
        &self,
        key: &str,
        value: Arc<T>,
        bytes: usize,
        clock: Option<&AtomicU64>,
    ) -> usize {
        let slot = {
            let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        let _guard = slot.init.lock().unwrap_or_else(|e| e.into_inner());
        if slot.cell.get().is_some() {
            return 0;
        }
        slot.bytes.store(bytes, Ordering::Relaxed);
        slot.cell
            .set(value)
            .unwrap_or_else(|_| unreachable!("init lock held"));
        if let Some(clock) = clock {
            let now = clock.fetch_add(1, Ordering::Relaxed);
            slot.last_used.store(now, Ordering::Relaxed);
        }
        bytes
    }

    /// True when `key` is present and built (no side effects).
    pub(crate) fn peek(&self, key: &str) -> bool {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .is_some_and(|slot| slot.cell.get().is_some())
    }

    /// Number of built entries.
    fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|slot| slot.cell.get().is_some())
            .count()
    }

    /// Recorded bytes across built entries.
    fn bytes(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|slot| slot.cell.get().is_some())
            .map(|slot| slot.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Every built entry as an eviction candidate: `(last_used, key,
    /// bytes)`.
    fn candidates(&self) -> Vec<(u64, String, usize)> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(_, slot)| slot.cell.get().is_some())
            .map(|(k, slot)| {
                (
                    slot.last_used.load(Ordering::Relaxed),
                    k.clone(),
                    slot.bytes.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Drop a built entry, returning the bytes it accounted for (0 when
    /// absent or lost to a race).
    fn remove(&self, key: &str) -> usize {
        let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
        match map.get(key) {
            Some(slot) if slot.cell.get().is_some() => {
                let bytes = slot.bytes.load(Ordering::Relaxed);
                map.remove(key);
                bytes
            }
            _ => 0,
        }
    }
}

/// The shared artifacts of one `(database, graph)` pair, plus a handle
/// back to the store for budget accounting.
pub(crate) struct SharedShard {
    pub(crate) views: SharedCache<RelevantView>,
    pub(crate) estimators: SharedCache<CausalEstimator>,
    pub(crate) blocks: SharedCache<BlockDecomposition>,
    store: Weak<StoreInner>,
    /// This shard's `(db_fp, graph_fp)` key — used to detect whether the
    /// shard is still attached to the store (a `clear()` detaches it).
    key: (u64, u64),
}

/// Which of a shard's caches an eviction victim lives in.
#[derive(Clone, Copy)]
enum CacheKind {
    View,
    Estimator,
    Blocks,
}

impl SharedShard {
    /// Fetch through one of this shard's caches, stamping recency and
    /// charging freshly built bytes against the store's budget.
    pub(crate) fn fetch<T>(
        &self,
        cache: impl FnOnce(&SharedShard) -> &SharedCache<T>,
        key: &str,
        size_of: impl FnOnce(&T) -> usize,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<(Arc<T>, FetchOutcome)> {
        let store = self.store.upgrade();
        let clock = store.as_deref().map(|s| &s.clock);
        let (v, outcome, bytes) = cache(self).get_or_build(key, clock, size_of, build)?;
        self.charge(store.as_ref(), bytes);
        Ok((v, outcome))
    }

    /// Install an already-built artifact into one of this shard's caches
    /// (survivor migration after a delta refresh), charging any newly
    /// stored bytes against the store's budget exactly like a build.
    pub(crate) fn insert_prebuilt<T>(
        &self,
        cache: impl FnOnce(&SharedShard) -> &SharedCache<T>,
        key: &str,
        value: Arc<T>,
        bytes: usize,
    ) {
        let store = self.store.upgrade();
        let clock = store.as_deref().map(|s| &s.clock);
        let charged = cache(self).insert_prebuilt(key, value, bytes, clock);
        self.charge(store.as_ref(), charged);
    }

    /// Charge freshly stored bytes against the store's budget — but only
    /// while this shard is still attached: after a `clear()`, surviving
    /// sessions keep building into their detached shard, but those
    /// entries are invisible to the eviction scan — charging for them
    /// would permanently overcommit the budget and thrash the attached
    /// shards' entries.
    fn charge(&self, store: Option<&Arc<StoreInner>>, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let Some(s) = store else { return };
        let attached = {
            let shards = s.shards.lock().unwrap_or_else(|e| e.into_inner());
            shards
                .get(&self.key)
                .is_some_and(|cur| std::ptr::eq(Arc::as_ptr(cur), self))
        };
        if attached {
            s.total_bytes.fetch_add(bytes, Ordering::Relaxed);
            s.enforce_budget();
        }
    }
}

/// Counts of distinct artifacts held by the process-wide store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStoreStats {
    /// Distinct `(database, graph)` shards.
    pub shards: usize,
    /// Relevant views held, across shards.
    pub views: usize,
    /// Fitted estimators held, across shards.
    pub estimators: usize,
    /// Block decompositions held, across shards.
    pub blocks: usize,
    /// Approximate bytes held, across shards (recorded at build time).
    pub approx_bytes: usize,
    /// Configured byte budget (0 = unbounded).
    pub budget_bytes: usize,
    /// Entries evicted to honor the byte budget, over the store's
    /// lifetime.
    pub evictions: u64,
}

struct StoreInner {
    shards: Mutex<HashMap<(u64, u64), Arc<SharedShard>>>,
    /// Store-wide LRU clock (ticks on every shared fetch).
    clock: AtomicU64,
    /// Approximate bytes across all attached shards.
    total_bytes: AtomicUsize,
    /// Byte budget; 0 means unbounded.
    budget_bytes: AtomicUsize,
    /// Budget evictions performed.
    evictions: AtomicU64,
}

impl StoreInner {
    /// Subtract freed bytes without ever underflowing: `clear()` may
    /// have reset the counter to zero while an evictor still held a
    /// stale `freed` amount, and a wrapped counter would read as
    /// permanently over budget.
    fn release_bytes(&self, freed: usize) {
        let _ = self
            .total_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                Some(t.saturating_sub(freed))
            });
    }

    /// Evict globally least-recently-used entries until the recorded
    /// total fits the budget again. One scan per enforcement pass
    /// collects every candidate (stamp, bytes) sorted oldest-first, then
    /// evicts down the list — evicting K entries costs one store walk,
    /// not K. The newest entry always survives (evicting the artifact
    /// that triggered enforcement would thrash): with one candidate
    /// left, enforcement stops even over budget.
    fn enforce_budget(self: &Arc<StoreInner>) {
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        // Bounded passes: racing inserts re-trigger their own
        // enforcement, so there is no need to chase them here.
        for _ in 0..4 {
            if self.total_bytes.load(Ordering::Relaxed) <= budget {
                return;
            }
            let mut victims: Vec<(u64, Arc<SharedShard>, CacheKind, String, usize)> = {
                let shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
                shards
                    .values()
                    .flat_map(|shard| {
                        [
                            (CacheKind::View, shard.views.candidates()),
                            (CacheKind::Estimator, shard.estimators.candidates()),
                            (CacheKind::Blocks, shard.blocks.candidates()),
                        ]
                        .into_iter()
                        .flat_map(|(kind, cands)| {
                            let shard = Arc::clone(shard);
                            cands.into_iter().map(move |(stamp, key, bytes)| {
                                (stamp, Arc::clone(&shard), kind, key, bytes)
                            })
                        })
                        .collect::<Vec<_>>()
                    })
                    .collect()
            };
            if victims.len() <= 1 {
                return;
            }
            victims.sort_by_key(|(stamp, ..)| *stamp);
            victims.pop(); // the newest entry always survives
            let mut evicted_any = false;
            for (_, shard, kind, key, _) in victims {
                if self.total_bytes.load(Ordering::Relaxed) <= budget {
                    return;
                }
                let freed = match kind {
                    CacheKind::View => shard.views.remove(&key),
                    CacheKind::Estimator => shard.estimators.remove(&key),
                    CacheKind::Blocks => shard.blocks.remove(&key),
                };
                if freed > 0 {
                    self.release_bytes(freed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted_any = true;
                }
            }
            if !evicted_any {
                // Every remove lost a race; nothing more to do here.
                return;
            }
        }
    }
}

/// Process-wide store of session-independent artifacts, sharded by
/// `(database fingerprint, graph fingerprint)`. See the module docs.
pub struct SharedArtifactStore {
    inner: Arc<StoreInner>,
}

impl Default for SharedArtifactStore {
    fn default() -> SharedArtifactStore {
        SharedArtifactStore {
            inner: Arc::new(StoreInner {
                shards: Mutex::new(HashMap::new()),
                clock: AtomicU64::new(1),
                total_bytes: AtomicUsize::new(0),
                budget_bytes: AtomicUsize::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }
}

static GLOBAL: OnceLock<SharedArtifactStore> = OnceLock::new();

impl SharedArtifactStore {
    /// The process-wide store (created on first use).
    pub fn global() -> &'static SharedArtifactStore {
        GLOBAL.get_or_init(SharedArtifactStore::default)
    }

    /// The shard for a `(database, graph)` fingerprint pair, created
    /// empty on first request.
    pub(crate) fn shard(&self, db_fp: u64, graph_fp: u64) -> Arc<SharedShard> {
        let mut shards = self.inner.shards.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(shards.entry((db_fp, graph_fp)).or_insert_with(|| {
            Arc::new(SharedShard {
                views: SharedCache::default(),
                estimators: SharedCache::default(),
                blocks: SharedCache::default(),
                store: Arc::downgrade(&self.inner),
                key: (db_fp, graph_fp),
            })
        }))
    }

    /// Cap the store's approximate footprint. When an insert pushes the
    /// recorded total past the budget, globally least-recently-used
    /// entries (across every shard and artifact kind) are dropped until
    /// it fits; `0` restores the unbounded default. Sizes are
    /// approximate — typed buffer lengths, not allocator truth — so
    /// treat the budget as a watermark, not a hard ceiling.
    pub fn set_budget_bytes(&self, bytes: usize) {
        self.inner.budget_bytes.store(bytes, Ordering::Relaxed);
        self.inner.enforce_budget();
    }

    /// Snapshot of the store's size.
    pub fn stats(&self) -> SharedStoreStats {
        let shards = self.inner.shards.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = SharedStoreStats {
            shards: shards.len(),
            budget_bytes: self.inner.budget_bytes.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            ..SharedStoreStats::default()
        };
        for shard in shards.values() {
            s.views += shard.views.len();
            s.estimators += shard.estimators.len();
            s.blocks += shard.blocks.len();
            s.approx_bytes += shard.views.bytes() + shard.estimators.bytes() + shard.blocks.bytes();
        }
        s
    }

    /// Drop every shard. Existing sessions hold their shard by `Arc` and
    /// keep their artifacts; *new* sessions start against empty shards.
    /// Use this to reclaim memory after retiring a dataset (byte
    /// accounting resets with the shards).
    pub fn clear(&self) {
        self.inner
            .shards
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.inner.total_bytes.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for SharedArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SharedArtifactStore")
            .field("shards", &s.shards)
            .field("views", &s.views)
            .field("estimators", &s.estimators)
            .field("blocks", &s.blocks)
            .field("approx_bytes", &s.approx_bytes)
            .field("budget_bytes", &s.budget_bytes)
            .field("evictions", &s.evictions)
            .finish()
    }
}
