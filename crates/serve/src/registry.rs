//! Tenant sessions over a [`SnapshotRegistry`]: lazy, single-flight
//! snapshot loading and a per-tenant prepared-query template cache.
//!
//! The registry directory maps tenant ids to `HYPR1` snapshot files
//! (see [`hyper_store::registry`]). Nothing is loaded at boot: a
//! tenant's snapshot is decoded and its [`HyperSession`] built on the
//! **first request that names it**, behind a per-tenant single-flight
//! lock — N concurrent first requests cause exactly one load (asserted
//! by the integration tests via the per-tenant `snapshot_loads`
//! counter). A failed load caches nothing; the next request retries.
//!
//! Loaded sessions participate in the process-wide shared artifact
//! store by default, so tenants whose snapshots hold content-identical
//! `(database, graph)` pairs share relevant views, block
//! decompositions, and fitted estimators — visible in `/stats` as
//! `*_shared_hits`. When the server is configured with a persist
//! directory, sessions also warm-start from the disk tier.
//!
//! Repeat queries hit the **prepared path**: each tenant keeps a
//! [`KeyedCache`] from raw query text to its [`PreparedQuery`], so a query
//! text seen before skips parsing and view resolution entirely. A
//! concrete what-if also skips planning (the handle holds its plan) and
//! goes straight to the estimator cache; a template's `Bindings` are
//! applied, and the bound query planned, per execution. Concurrent first
//! requests for one text prepare it once, and past the per-tenant cap
//! the least-recently-used template is dropped. An ingest clears the
//! cache, so the next read of a text re-prepares and re-plans it against
//! the refreshed session.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use hyper_core::{
    EngineConfig, EngineError, HyperSession, KeyedCache, PreparedQuery, RefreshReport,
    Result as CoreResult,
};
use hyper_ingest::DeltaBatch;
use hyper_store::{AppendLog, SnapshotRegistry};

/// Cap on distinct prepared templates kept per tenant. Past it the
/// least-recently-used template is evicted (artifact-level caches keep
/// the expensive state, so a re-prepare is cheap).
const MAX_PREPARED_PER_TENANT: usize = 256;

/// One loaded tenant: its current session version, the prepared-template
/// cache, and the durable delta log behind `POST /ingest`.
///
/// The session sits behind a `RwLock` so ingest can swap in the
/// refreshed version while queries keep cloning the current one (a
/// [`HyperSession`] is an `Arc` handle — clones are cheap and in-flight
/// executions simply finish against the version they started with,
/// MVCC-style).
pub struct Tenant {
    id: String,
    session: RwLock<HyperSession>,
    prepared: KeyedCache<PreparedQuery>,
    /// Serializes ingests for this tenant and owns the append-log path.
    /// Queries are never blocked by this lock.
    ingest: Mutex<PathBuf>,
}

impl Tenant {
    /// The tenant id (the snapshot file stem).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The tenant's current session version (an owned `Arc` handle;
    /// later ingests do not retroactively change it).
    pub fn session(&self) -> HyperSession {
        self.session
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Apply a delta batch: refresh the session with causal
    /// invalidation, append the batch to the durable `HYPD1` log, and
    /// swap the refreshed session in. Ingests for one tenant are
    /// serialized; concurrent queries keep serving the prior version
    /// until the swap.
    ///
    /// Ordering: the log append happens only after the refresh has
    /// validated and applied the delta, and the in-memory swap happens
    /// only after the append has been fsync'd — a crash can lose the
    /// in-flight batch but never acknowledge one it didn't persist.
    pub fn ingest(&self, delta: &DeltaBatch) -> CoreResult<RefreshReport> {
        let log_path = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let out = self.session().refresh(delta)?;
        let log = AppendLog::open(&*log_path).map_err(|e| EngineError::Storage(e.to_string()))?;
        log.append(&delta.to_bytes())
            .map_err(|e| EngineError::Storage(e.to_string()))?;
        *self.session.write().unwrap_or_else(|e| e.into_inner()) = out.session;
        // Prepared templates captured the old session, view and plan;
        // drop them so the next prepare binds and plans against the
        // refreshed one. A prepare racing this swap finishes into a slot
        // the clear detached, so its template is never cached.
        self.prepared.clear();
        Ok(out.report)
    }

    /// The prepared query for `text`, preparing (parse + validate +
    /// view resolution + planning) only on first sight of this exact text. Concurrent
    /// first requests for one text wait for a single prepare; other texts
    /// are never blocked by it.
    pub fn prepared(&self, text: &str) -> CoreResult<Arc<PreparedQuery>> {
        // Template hits and misses are not reported; the session's
        // `texts_parsed` counter already shows every prepare.
        let uncounted = AtomicU64::new(0);
        self.prepared
            .get_or_build(text, &uncounted, &uncounted, &uncounted, || {
                self.session().prepare(text)
            })
    }

    /// Number of distinct templates currently cached.
    pub fn prepared_cached(&self) -> usize {
        self.prepared.len()
    }
}

/// Per-tenant single-flight slot: the init lock serializes loaders, the
/// cell is written once, and the loads counter records how many actual
/// snapshot decodes happened (1 in the happy path, +1 per failed retry).
#[derive(Default)]
struct TenantSlot {
    init: Mutex<()>,
    cell: OnceLock<Arc<Tenant>>,
    loads: AtomicU64,
}

/// Lazily-loaded tenant sessions over a snapshot registry directory.
pub struct Tenants {
    registry: SnapshotRegistry,
    persist_dir: Option<PathBuf>,
    slots: Mutex<HashMap<String, Arc<TenantSlot>>>,
}

/// Why a tenant could not be resolved.
#[derive(Debug)]
pub enum TenantError {
    /// The id is not in the registry (HTTP 404).
    Unknown(String),
    /// The snapshot exists but failed to load/validate (HTTP 500; the
    /// next request retries).
    Load(String),
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::Unknown(id) => write!(f, "unknown tenant `{id}`"),
            TenantError::Load(msg) => write!(f, "tenant snapshot failed to load: {msg}"),
        }
    }
}

impl Tenants {
    /// Wrap a scanned registry. `persist_dir` adds the disk artifact
    /// tier to every tenant session (artifacts spill there and restarted
    /// servers warm-start from it).
    pub fn new(registry: SnapshotRegistry, persist_dir: Option<PathBuf>) -> Tenants {
        Tenants {
            registry,
            persist_dir,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying path registry.
    pub fn registry(&self) -> &SnapshotRegistry {
        &self.registry
    }

    /// True when `id` is a registered tenant (loaded or not).
    pub fn contains(&self, id: &str) -> bool {
        self.registry.contains(id)
    }

    /// The already-loaded tenant, if any (never triggers a load).
    pub fn loaded(&self, id: &str) -> Option<Arc<Tenant>> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.get(id).and_then(|s| s.cell.get().cloned())
    }

    /// Ids of tenants whose sessions are currently loaded, sorted.
    /// Never triggers a load.
    pub fn loaded_ids(&self) -> Vec<String> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut ids: Vec<String> = slots
            .iter()
            .filter(|(_, s)| s.cell.get().is_some())
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        ids
    }

    /// Snapshot decodes performed for `id` so far (0 = not yet loaded).
    pub fn snapshot_loads(&self, id: &str) -> u64 {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.get(id).map_or(0, |s| s.loads.load(Ordering::Relaxed))
    }

    /// Total snapshot decodes across tenants.
    pub fn total_snapshot_loads(&self) -> u64 {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots
            .values()
            .map(|s| s.loads.load(Ordering::Relaxed))
            .sum()
    }

    /// Resolve `id` to its loaded tenant, loading the snapshot and
    /// building the session on first touch (single-flight: concurrent
    /// callers for the same tenant block on one load).
    pub fn tenant(&self, id: &str) -> Result<Arc<Tenant>, TenantError> {
        if !self.registry.contains(id) {
            return Err(TenantError::Unknown(id.to_string()));
        }
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(slots.entry(id.to_string()).or_default())
        };
        if let Some(t) = slot.cell.get() {
            return Ok(Arc::clone(t));
        }
        let _guard = slot.init.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = slot.cell.get() {
            return Ok(Arc::clone(t));
        }
        slot.loads.fetch_add(1, Ordering::Relaxed);
        let snapshot = {
            // No-op unless an ambient trace context is installed (e.g. a
            // traced query triggering a lazy first-touch load).
            let _span = hyper_trace::span(hyper_trace::Phase::SnapshotLoad);
            self.registry
                .load(id)
                .map_err(|e| TenantError::Load(e.to_string()))?
        };
        // Plain HypeR needs the causal graph; graphless snapshots fall
        // back to HypeR-NB (canonical adjustment set, no graph needed).
        let config = if snapshot.graph.is_some() {
            EngineConfig::hyper()
        } else {
            EngineConfig::hyper_nb()
        };
        // Tenant sessions serve with tracing on: per-phase self-time
        // lands in `SessionStats` and surfaces on `/stats` and
        // `/metrics`. The cost is one relaxed load plus a small
        // allocation per query; results are bit-identical either way.
        let mut builder = HyperSession::builder(snapshot.database)
            .maybe_graph(snapshot.graph)
            .config(config)
            .tracing(true);
        if let Some(dir) = &self.persist_dir {
            builder = builder.persist_dir(dir.join(id));
        }
        let mut session = builder.build();
        // Replay the sidecar delta log (if any) over the snapshot: the
        // loaded session resumes at the latest ingested version, with
        // `data_version` = the number of intact log records.
        let log_path = self.registry.delta_log_path(id);
        if log_path.exists() {
            let log = AppendLog::open(&log_path).map_err(|e| TenantError::Load(e.to_string()))?;
            for payload in log.replay().map_err(|e| TenantError::Load(e.to_string()))? {
                let delta = DeltaBatch::from_bytes(&payload)
                    .map_err(|e| TenantError::Load(format!("delta log replay: {e}")))?;
                session = session
                    .refresh(&delta)
                    .map_err(|e| TenantError::Load(format!("delta log replay: {e}")))?
                    .session;
            }
        }
        let tenant = Arc::new(Tenant {
            id: id.to_string(),
            session: RwLock::new(session),
            prepared: KeyedCache::new(Some(MAX_PREPARED_PER_TENANT)),
            ingest: Mutex::new(log_path),
        });
        slot.cell
            .set(Arc::clone(&tenant))
            .unwrap_or_else(|_| unreachable!("slot is written under its init lock"));
        Ok(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_storage::{DataType, Database, Field, Schema, TableBuilder};
    use hyper_store::Snapshot;

    fn registry_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hyper_serve_registry_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = Database::new();
        let t = TableBuilder::with_key(
            "items",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("price", DataType::Float),
            ])
            .unwrap(),
            &["id"],
        )
        .unwrap()
        .rows((0..50).map(|i| vec![i.into(), (i as f64).into()]))
        .unwrap()
        .build();
        db.add_table(t).unwrap();
        Snapshot::new(db, None).save(dir.join("t0.hypr")).unwrap();
        dir
    }

    #[test]
    fn concurrent_first_touch_loads_once() {
        let dir = registry_dir("once");
        let tenants = Arc::new(Tenants::new(SnapshotRegistry::open(&dir).unwrap(), None));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let tenants = Arc::clone(&tenants);
                s.spawn(move || {
                    tenants.tenant("t0").unwrap();
                });
            }
        });
        assert_eq!(tenants.snapshot_loads("t0"), 1, "single-flight load");
        assert!(matches!(
            tenants.tenant("nope"),
            Err(TenantError::Unknown(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeat_query_text_reuses_the_prepared_template() {
        let dir = registry_dir("prepared");
        let tenants = Tenants::new(SnapshotRegistry::open(&dir).unwrap(), None);
        let t = tenants.tenant("t0").unwrap();
        let q = "Use items Update(price) = 2.0 * Pre(price) Output Count(Post(price) > 10)";
        let a = t.prepared(q).unwrap();
        let b = t.prepared(q).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same text → same template");
        assert_eq!(t.session().snapshot().texts_parsed, 1);
        assert_eq!(t.prepared_cached(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
