//! Server-side counters, and the one declaration of every integer series
//! that `/stats` and `/metrics` expose.
//!
//! The counters are what the admission layer did to every request, per
//! tenant and in aggregate — the server half of `/stats` (the other half
//! is each tenant session's consistent [`SessionStats`] snapshot). The
//! series tables ([`SERVER_SERIES`] and its siblings) name each integer
//! series once; both surfaces render from them. Uptime, latency, the
//! per-phase times, `loaded`, `snapshot_loads` and `trace_total_ns` are
//! labeled, not integers, or read from elsewhere, and keep their own
//! renderers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hyper_core::SessionStats;
use hyper_trace::{HistogramSnapshot, LatencyHistogram, Phase};

use crate::admission::Admission;
use crate::json::Json;
use crate::metrics::MetricsWriter;

/// One integer series read from a `T`.
#[derive(Debug)]
pub struct Series<T> {
    /// The `/stats` key, which is also the name of the field (or method)
    /// of `T` that the series reads.
    pub key: &'static str,
    /// The Prometheus `# TYPE`: `counter` (cumulative) or `gauge` (a
    /// current level).
    pub kind: &'static str,
    /// Reads the current value.
    pub read: fn(&T) -> u64,
}

const fn counter<T>(key: &'static str, read: fn(&T) -> u64) -> Series<T> {
    let kind = "counter";
    Series { key, kind, read }
}

const fn gauge<T>(key: &'static str, read: fn(&T) -> u64) -> Series<T> {
    let kind = "gauge";
    Series { key, kind, read }
}

/// The series read from one documented type, and the prefix of their
/// `/metrics` family names.
#[derive(Debug)]
pub struct SeriesTable<T: 'static> {
    /// Family-name prefix: `hyper_serve` or `hyper_session`.
    pub prefix: &'static str,
    /// Path of the type read; a family's `# HELP` names `<path>::<key>`.
    pub path: &'static str,
    /// The series, in `/stats` order.
    pub series: &'static [Series<T>],
}

impl<T> SeriesTable<T> {
    /// The `/metrics` family name of `s`: `<prefix>_<key>`, plus `_total`
    /// for a counter.
    pub fn family(&self, s: &Series<T>) -> String {
        let total = if s.kind == "counter" { "_total" } else { "" };
        format!("{}_{}{total}", self.prefix, s.key)
    }

    /// The `/stats` fields of `of`: every key with its value.
    pub fn fields<'a>(&'a self, of: &'a T) -> impl Iterator<Item = (&'static str, Json)> + 'a {
        self.series
            .iter()
            .map(move |s| (s.key, (s.read)(of).into()))
    }

    /// Write every series as one `/metrics` family, with one sample per
    /// `(labels, value)` row.
    pub fn write<'l, L: AsRef<[(&'l str, &'l str)]>>(
        &self,
        w: &mut MetricsWriter,
        rows: &[(L, &T)],
    ) {
        for s in self.series {
            let (name, help) = (self.family(s), format!("See {}::{}.", self.path, s.key));
            w.header(&name, s.kind, &help);
            for (labels, of) in rows {
                w.sample(&name, labels.as_ref(), (s.read)(of) as f64);
            }
        }
    }
}

/// The server-wide counters.
pub const SERVER_SERIES: SeriesTable<ServerStats> = SeriesTable {
    prefix: "hyper_serve",
    path: "hyper_serve::ServerStats",
    series: &[
        counter("connections", |s| s.connections.load(Relaxed)),
        gauge("connections_open", |s| s.connections_open.load(Relaxed)),
        counter("requests", |s| s.requests.load(Relaxed)),
        counter("malformed", |s| s.malformed.load(Relaxed)),
        counter("not_found", |s| s.not_found.load(Relaxed)),
    ],
};

/// The admission queue's state, read when rendered.
pub const QUEUE_SERIES: SeriesTable<Admission> = SeriesTable {
    prefix: "hyper_serve",
    path: "hyper_serve::Admission",
    series: &[
        gauge("queue_len", |a| a.queue_len() as u64),
        gauge("queue_capacity", |a| a.queue_capacity() as u64),
        gauge("workers", |a| a.workers() as u64),
    ],
};

/// One tenant's admission counters; `/metrics` labels them by tenant,
/// and the `/stats` server object sums them over tenants.
pub const TENANT_SERIES: SeriesTable<TenantCounters> = SeriesTable {
    prefix: "hyper_serve",
    path: "hyper_serve::TenantCounters",
    series: &[
        counter("accepted", |c| c.accepted.load(Relaxed)),
        counter("shed", |c| c.shed.load(Relaxed)),
        counter("timeouts", |c| c.timeouts.load(Relaxed)),
        counter("completed", |c| c.completed.load(Relaxed)),
        counter("ok", |c| c.ok.load(Relaxed)),
        gauge("in_flight", |c| c.in_flight.load(Relaxed)),
    ],
};

/// A loaded tenant session's counters, read from one consistent
/// snapshot; `/metrics` labels them by tenant.
pub const SESSION_SERIES: SeriesTable<SessionStats> = SeriesTable {
    prefix: "hyper_session",
    path: "hyper_core::SessionStats",
    series: &[
        counter("view_hits", |s| s.view_hits),
        counter("view_misses", |s| s.view_misses),
        counter("view_shared_hits", |s| s.view_shared_hits),
        counter("view_disk_hits", |s| s.view_disk_hits),
        counter("view_evictions", |s| s.view_evictions),
        counter("estimator_hits", |s| s.estimator_hits),
        counter("estimator_misses", |s| s.estimator_misses),
        counter("estimator_shared_hits", |s| s.estimator_shared_hits),
        counter("estimator_disk_hits", |s| s.estimator_disk_hits),
        counter("estimator_evictions", |s| s.estimator_evictions),
        counter("block_hits", |s| s.block_hits),
        counter("block_misses", |s| s.block_misses),
        counter("block_shared_hits", |s| s.block_shared_hits),
        counter("block_disk_hits", |s| s.block_disk_hits),
        gauge("views_cached", |s| s.views_cached as u64),
        gauge("estimators_cached", |s| s.estimators_cached as u64),
        counter("queries_prepared", |s| s.queries_prepared),
        counter("queries_executed", |s| s.queries_executed),
        counter("texts_parsed", |s| s.texts_parsed),
        counter("views_invalidated", |s| s.views_invalidated),
        counter("estimators_invalidated", |s| s.estimators_invalidated),
        counter("blocks_invalidated", |s| s.blocks_invalidated),
        counter("refreshes", |s| s.refreshes),
        gauge("data_version", |s| s.data_version),
        counter("traced_queries", |s| s.traced_queries),
    ],
};

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
        map.values().map(|c| pick(c).load(Relaxed)).sum()
    }

    /// The `"server"` object of the `/stats` response: the server
    /// counters, every tenant series summed over tenants, and the queue
    /// state.
    pub fn server_json(&self, admission: &Admission) -> Json {
        let tenants = self.tenants();
        let totals = TENANT_SERIES.series.iter().map(|s| {
            let total: u64 = tenants.iter().map(|(_, c)| (s.read)(c)).sum();
            (s.key, total.into())
        });
        Json::obj(
            SERVER_SERIES
                .fields(self)
                .chain(totals)
                .chain(QUEUE_SERIES.fields(admission)),
        )
    }

    /// One tenant's `/stats` entry: admission counters plus (when the
    /// tenant's session is loaded) its consistent session snapshot.
    pub fn tenant_json(&self, tenant: &str, loaded: Option<(u64, SessionStats)>) -> Json {
        let counters = self.tenant(tenant);
        let mut latency = BTreeMap::new();
        for route in Route::ALL {
            let l = counters.latency(route);
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
        let mut fields: Vec<_> = TENANT_SERIES.fields(&counters).collect();
        fields.push(("latency", Json::obj_sorted(latency)));
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

/// Render a consistent [`SessionStats`] snapshot (taken via
/// `HyperSession::snapshot()`).
pub fn session_json(s: &SessionStats) -> Json {
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
    Json::obj(SESSION_SERIES.fields(s).chain([
        ("trace_total_ns", s.trace_total_ns.into()),
        ("phases", Json::obj_sorted(phases)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_counters_are_shared_and_summed() {
        let stats = ServerStats::default();
        stats.tenant("a").accepted.fetch_add(2, Relaxed);
        stats.tenant("b").accepted.fetch_add(3, Relaxed);
        stats.tenant("a").shed.fetch_add(1, Relaxed);
        stats.tenant("a").ok.fetch_add(1, Relaxed);
        stats.tenant("b").ok.fetch_add(3, Relaxed);
        assert_eq!(stats.total(|c| &c.accepted), 5);
        assert_eq!(stats.total(|c| &c.shed), 1);
        let names: Vec<String> = stats.tenants().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
        let admission = Admission::start(2, 8);
        let json = stats.server_json(&admission).render();
        admission.close();
        admission.join();
        assert!(json.contains("\"accepted\":5"), "{json}");
        assert!(json.contains("\"ok\":4"), "{json}");
        assert!(json.contains("\"queue_capacity\":8"), "{json}");
        assert!(json.contains("\"workers\":2"), "{json}");
    }

    /// The top-level `field: value` pairs of a struct's `{:?}` text.
    fn debug_fields(text: &str) -> Vec<(String, String)> {
        let body = &text[text.find('{').unwrap() + 1..text.rfind('}').unwrap()];
        let (mut fields, mut depth, mut start) = (Vec::new(), 0, 0);
        for (i, c) in body.char_indices() {
            match c {
                '{' | '[' | '(' => depth += 1,
                '}' | ']' | ')' => depth -= 1,
                ',' if depth == 0 => {
                    fields.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        fields.push(&body[start..]);
        fields
            .iter()
            .filter_map(|f| f.split_once(": "))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect()
    }

    /// `table` reads every field of `of` but the `unread` ones, each
    /// exactly once and under its own name. The fields of `of` must hold
    /// distinct values, so a series reading the wrong field fails too.
    fn assert_reads_every_field<T: std::fmt::Debug>(
        table: &SeriesTable<T>,
        of: &T,
        unread: &[&str],
    ) {
        let fields = debug_fields(&format!("{of:?}"));
        for name in unread {
            assert!(fields.iter().any(|(k, _)| k == name), "no field {name}");
        }
        let mut expect: Vec<(String, String)> = fields
            .into_iter()
            .filter(|(k, _)| !unread.contains(&k.as_str()))
            .collect();
        let mut read: Vec<(String, String)> = table
            .series
            .iter()
            .map(|s| (s.key.to_string(), (s.read)(of).to_string()))
            .collect();
        expect.sort();
        read.sort();
        assert_eq!(read, expect, "{}", table.path);
    }

    #[test]
    fn every_integer_field_is_one_series() {
        // Literals without `..Default`: a new field fails to compile here
        // until it is named, then fails the walk until a series reads it.
        let session = SessionStats {
            view_hits: 1,
            view_misses: 2,
            view_shared_hits: 3,
            view_disk_hits: 4,
            view_evictions: 5,
            estimator_hits: 6,
            estimator_misses: 7,
            estimator_shared_hits: 8,
            estimator_disk_hits: 9,
            estimator_evictions: 10,
            block_hits: 11,
            block_misses: 12,
            block_shared_hits: 13,
            block_disk_hits: 14,
            views_cached: 15,
            estimators_cached: 16,
            queries_prepared: 17,
            queries_executed: 18,
            texts_parsed: 19,
            views_invalidated: 20,
            estimators_invalidated: 21,
            blocks_invalidated: 22,
            refreshes: 23,
            data_version: 24,
            trainings_streamed: 25,
            trace_phase_ns: Default::default(),
            trace_phase_counts: Default::default(),
            trace_total_ns: 26,
            traced_queries: 27,
        };
        // The phase arrays and their sum have labeled renderers; the
        // always-0 `trainings_streamed` is on neither surface.
        let unread = [
            "trace_phase_ns",
            "trace_phase_counts",
            "trace_total_ns",
            "trainings_streamed",
        ];
        assert_reads_every_field(&SESSION_SERIES, &session, &unread);

        let tenant = TenantCounters {
            accepted: AtomicU64::new(1),
            shed: AtomicU64::new(2),
            timeouts: AtomicU64::new(3),
            completed: AtomicU64::new(4),
            ok: AtomicU64::new(5),
            in_flight: AtomicU64::new(6),
            latency: Default::default(),
        };
        assert_reads_every_field(&TENANT_SERIES, &tenant, &["latency"]);

        let server = ServerStats {
            connections: AtomicU64::new(1),
            connections_open: AtomicU64::new(2),
            requests: AtomicU64::new(3),
            malformed: AtomicU64::new(4),
            not_found: AtomicU64::new(5),
            started: Instant::now(),
            per_tenant: Mutex::default(),
        };
        assert_reads_every_field(&SERVER_SERIES, &server, &["started", "per_tenant"]);
    }
}
