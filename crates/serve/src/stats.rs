//! Server-side counters: what the admission layer did to every request,
//! per tenant and in aggregate — the server half of `/stats` (the other
//! half is each tenant session's consistent
//! [`SessionStats`](hyper_core::SessionStats) snapshot).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hyper_trace::{HistogramSnapshot, LatencyHistogram, Phase};

use crate::json::Json;

/// The admitted routes — everything that takes a queue slot and runs on
/// an executor. Inline routes (`/stats`, `/health`, `/metrics`) are not
/// here on purpose: they never queue, so they have no queue-wait to
/// measure, and measuring them would perturb exactly the signal they
/// exist to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /query`.
    Query,
    /// `POST /explain`.
    Explain,
    /// `POST /ingest`.
    Ingest,
}

impl Route {
    /// Every admitted route, in label order.
    pub const ALL: [Route; 3] = [Route::Query, Route::Explain, Route::Ingest];

    /// The metric/JSON label for this route.
    pub fn name(self) -> &'static str {
        match self {
            Route::Query => "query",
            Route::Explain => "explain",
            Route::Ingest => "ingest",
        }
    }
}

/// The two latency stages of one admitted route, split at the moment an
/// executor pops the job: time spent waiting in the admission queue vs
/// time spent executing. Recording is two relaxed atomic adds per
/// stage — always on, never sampled.
#[derive(Debug, Default)]
pub struct RouteLatency {
    /// Admission-to-pop wait, in nanoseconds.
    pub queue_wait: LatencyHistogram,
    /// Pop-to-answer execution time, in nanoseconds.
    pub execute: LatencyHistogram,
}

/// Admission counters for one tenant (or, summed, for the server).
/// All counters are cumulative except [`TenantCounters::in_flight`],
/// which is a gauge of requests admitted but not yet answered.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Requests refused with 503 because the queue was full.
    pub shed: AtomicU64,
    /// Admitted requests whose caller gave up with a 504 before the
    /// executor finished (the execution still completes and populates
    /// caches — the session is never poisoned).
    pub timeouts: AtomicU64,
    /// Admitted requests executed to completion (any status).
    pub completed: AtomicU64,
    /// Completed requests that answered 2xx.
    pub ok: AtomicU64,
    /// Admitted requests currently queued or executing.
    pub in_flight: AtomicU64,
    /// Per-route queue-wait/execute histograms, indexed by `Route`.
    pub latency: [RouteLatency; 3],
}

impl TenantCounters {
    /// The latency histograms for `route`.
    pub fn latency(&self, route: Route) -> &RouteLatency {
        &self.latency[route as usize]
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let mut latency = BTreeMap::new();
        for route in Route::ALL {
            let l = self.latency(route);
            let (queue_wait, execute) = (l.queue_wait.snapshot(), l.execute.snapshot());
            if queue_wait.count() == 0 && execute.count() == 0 {
                continue;
            }
            latency.insert(
                route.name().to_string(),
                Json::obj([
                    ("queue_wait", histogram_json(&queue_wait)),
                    ("execute", histogram_json(&execute)),
                ]),
            );
        }
        vec![
            ("accepted", self.accepted.load(Ordering::Relaxed).into()),
            ("shed", self.shed.load(Ordering::Relaxed).into()),
            ("timeouts", self.timeouts.load(Ordering::Relaxed).into()),
            ("completed", self.completed.load(Ordering::Relaxed).into()),
            ("ok", self.ok.load(Ordering::Relaxed).into()),
            ("in_flight", self.in_flight.load(Ordering::Relaxed).into()),
            ("latency", Json::obj_sorted(latency)),
        ]
    }
}

/// Render one histogram snapshot (values recorded in nanoseconds) as a
/// percentile object in microseconds.
pub fn histogram_json(h: &HistogramSnapshot) -> Json {
    let us = |ns: f64| ns / 1_000.0;
    let mean = if h.count() == 0 {
        0.0
    } else {
        h.sum() as f64 / h.count() as f64
    };
    Json::obj([
        ("count", h.count().into()),
        ("mean_us", us(mean).into()),
        ("p50_us", us(h.p50()).into()),
        ("p90_us", us(h.p90()).into()),
        ("p99_us", us(h.p99()).into()),
        ("p999_us", us(h.p999()).into()),
    ])
}

/// All server counters: global request/connection totals plus one
/// [`TenantCounters`] per tenant id that has been seen on `/query` or
/// `/explain`. Only *registered* tenants get an entry — requests naming
/// unknown tenants are counted globally (`not_found`), so hostile
/// traffic cannot grow the map without bound.
#[derive(Debug)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections currently open.
    pub connections_open: AtomicU64,
    /// Requests parsed off connections (any path).
    pub requests: AtomicU64,
    /// Malformed HTTP requests answered with a typed 4xx.
    pub malformed: AtomicU64,
    /// Requests for unknown paths or unknown tenants (404s).
    pub not_found: AtomicU64,
    /// When the stats (and therefore the server) came up.
    pub started: Instant,
    per_tenant: Mutex<BTreeMap<String, Arc<TenantCounters>>>,
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats {
            connections: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            started: Instant::now(),
            per_tenant: Mutex::new(BTreeMap::new()),
        }
    }
}

impl ServerStats {
    /// Time since the server came up.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The counters for `tenant`, created on first touch.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantCounters> {
        let mut map = self.per_tenant.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(tenant.to_string()).or_default())
    }

    /// Per-tenant counters snapshot, sorted by tenant id.
    pub fn tenants(&self) -> Vec<(String, Arc<TenantCounters>)> {
        let map = self.per_tenant.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Sum a counter across tenants.
    pub fn total(&self, pick: impl Fn(&TenantCounters) -> &AtomicU64) -> u64 {
        let map = self.per_tenant.lock().unwrap_or_else(|e| e.into_inner());
        map.values().map(|c| pick(c).load(Ordering::Relaxed)).sum()
    }

    /// The `"server"` object of the `/stats` response.
    pub fn server_json(&self, queue_len: usize, queue_capacity: usize, workers: usize) -> Json {
        Json::obj([
            (
                "connections",
                self.connections.load(Ordering::Relaxed).into(),
            ),
            (
                "connections_open",
                self.connections_open.load(Ordering::Relaxed).into(),
            ),
            ("requests", self.requests.load(Ordering::Relaxed).into()),
            ("malformed", self.malformed.load(Ordering::Relaxed).into()),
            ("not_found", self.not_found.load(Ordering::Relaxed).into()),
            ("accepted", self.total(|c| &c.accepted).into()),
            ("shed", self.total(|c| &c.shed).into()),
            ("timeouts", self.total(|c| &c.timeouts).into()),
            ("completed", self.total(|c| &c.completed).into()),
            ("in_flight", self.total(|c| &c.in_flight).into()),
            ("queue_len", queue_len.into()),
            ("queue_capacity", queue_capacity.into()),
            ("workers", workers.into()),
        ])
    }

    /// One tenant's `/stats` entry: admission counters plus (when the
    /// tenant's session is loaded) its consistent session snapshot.
    pub fn tenant_json(
        &self,
        tenant: &str,
        loaded: Option<(u64, hyper_core::SessionStats)>,
    ) -> Json {
        let counters = self.tenant(tenant);
        let mut fields = counters.to_json();
        match loaded {
            Some((snapshot_loads, s)) => {
                fields.push(("loaded", true.into()));
                fields.push(("snapshot_loads", snapshot_loads.into()));
                fields.push(("session", session_json(&s)));
            }
            None => fields.push(("loaded", false.into())),
        }
        Json::obj(fields)
    }
}

/// Render a consistent [`SessionStats`](hyper_core::SessionStats)
/// snapshot (taken via `HyperSession::snapshot()`).
pub fn session_json(s: &hyper_core::SessionStats) -> Json {
    // Phase totals come from the same stabilized snapshot as the cache
    // counters, so a query landing mid-read never shows torn totals
    // (e.g. a phase sum exceeding `trace_total_ns`).
    let mut phases = BTreeMap::new();
    for phase in Phase::ALL {
        let (ns, n) = (s.phase_ns(phase), s.phase_count(phase));
        if ns == 0 && n == 0 {
            continue;
        }
        phases.insert(
            phase.name().to_string(),
            Json::obj([("self_ns", ns.into()), ("count", n.into())]),
        );
    }
    Json::obj([
        ("view_hits", s.view_hits.into()),
        ("view_misses", s.view_misses.into()),
        ("view_shared_hits", s.view_shared_hits.into()),
        ("view_disk_hits", s.view_disk_hits.into()),
        ("view_evictions", s.view_evictions.into()),
        ("estimator_hits", s.estimator_hits.into()),
        ("estimator_misses", s.estimator_misses.into()),
        ("estimator_shared_hits", s.estimator_shared_hits.into()),
        ("estimator_disk_hits", s.estimator_disk_hits.into()),
        ("estimator_evictions", s.estimator_evictions.into()),
        ("block_hits", s.block_hits.into()),
        ("block_misses", s.block_misses.into()),
        ("block_shared_hits", s.block_shared_hits.into()),
        ("block_disk_hits", s.block_disk_hits.into()),
        ("views_cached", s.views_cached.into()),
        ("estimators_cached", s.estimators_cached.into()),
        ("queries_prepared", s.queries_prepared.into()),
        ("queries_executed", s.queries_executed.into()),
        ("texts_parsed", s.texts_parsed.into()),
        ("views_invalidated", s.views_invalidated.into()),
        ("estimators_invalidated", s.estimators_invalidated.into()),
        ("blocks_invalidated", s.blocks_invalidated.into()),
        ("refreshes", s.refreshes.into()),
        ("data_version", s.data_version.into()),
        ("traced_queries", s.traced_queries.into()),
        ("trace_total_ns", s.trace_total_ns.into()),
        ("phases", Json::obj_sorted(phases)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_counters_are_shared_and_summed() {
        let stats = ServerStats::default();
        stats.tenant("a").accepted.fetch_add(2, Ordering::Relaxed);
        stats.tenant("b").accepted.fetch_add(3, Ordering::Relaxed);
        stats.tenant("a").shed.fetch_add(1, Ordering::Relaxed);
        assert_eq!(stats.total(|c| &c.accepted), 5);
        assert_eq!(stats.total(|c| &c.shed), 1);
        let names: Vec<String> = stats.tenants().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
        let json = stats.server_json(0, 8, 2).render();
        assert!(json.contains("\"accepted\":5"));
        assert!(json.contains("\"queue_capacity\":8"));
    }

    #[test]
    fn session_json_carries_eviction_and_block_disk_counters() {
        let s = hyper_core::SessionStats {
            view_evictions: 3,
            estimator_evictions: 5,
            block_disk_hits: 7,
            ..Default::default()
        };
        let json = session_json(&s).render();
        assert!(json.contains("\"view_evictions\":3"), "{json}");
        assert!(json.contains("\"estimator_evictions\":5"), "{json}");
        assert!(json.contains("\"block_disk_hits\":7"), "{json}");
    }
}
