//! The HTTP server: accept loop, connection handling, routing, and the
//! JSON protocol over the admission layer.
//!
//! Thread model: one accept thread, one OS thread per live connection
//! (connections are expected to be few and persistent — clients
//! keep-alive and pipeline requests), and a fixed executor pool (see
//! [`crate::admission`]) that runs all engine work. Connection threads
//! never touch the engine directly: they parse, route, admit, and wait
//! on a [`ResponseSlot`] with the
//! configured request timeout.
//!
//! Routes:
//!
//! | method + path   | handled | answer |
//! |-----------------|---------|--------|
//! | `POST /query`   | admitted| query result (what-if or how-to) |
//! | `POST /explain` | admitted| static plan with cache provenance |
//! | `POST /ingest`  | admitted| delta applied + invalidation report |
//! | `GET /stats`    | inline  | server + per-tenant counters and latency percentiles |
//! | `GET /health`   | inline  | liveness, uptime, loaded tenants and their versions |
//! | `GET /metrics`  | inline  | Prometheus text exposition (see [`crate::metrics`]) |
//!
//! `/stats`, `/health`, and `/metrics` bypass admission deliberately:
//! they must stay answerable while the queue is saturated, or the
//! operator is blind exactly when they need to look.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyper_core::{EngineError, QueryOutcome, RefreshReport};
use hyper_ingest::DeltaBatch;
use hyper_query::Bindings;
use hyper_storage::{DataType, Table, TableBuilder, Value};
use hyper_store::SnapshotRegistry;

use crate::admission::{Admission, Job, Outcome, Rejected, ResponseSlot};
use crate::http::{self, Request, MAX_BODY_BYTES};
use crate::json::{self, Json};
use crate::metrics::MetricsWriter;
use crate::registry::{TenantError, Tenants};
use crate::stats::{Route, ServerStats};

/// Server knobs. `Default` is sized for the CI container: 2 executors,
/// a 64-deep queue, 30-second request timeout.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Executor threads running engine work (`--workers`).
    pub workers: usize,
    /// Bounded admission queue depth (`--queue-depth`); offers beyond it
    /// are shed with 503.
    pub queue_depth: usize,
    /// Per-request deadline (`--request-timeout-ms`); expiry answers 504
    /// while the executor finishes in the background.
    pub request_timeout: Duration,
    /// Optional disk artifact tier handed to every tenant session.
    pub persist_dir: Option<PathBuf>,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout for idle keep-alive connections.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            persist_dir: None,
            max_body_bytes: MAX_BODY_BYTES,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

struct Inner {
    tenants: Tenants,
    stats: Arc<ServerStats>,
    admission: Admission,
    shutdown: AtomicBool,
    request_timeout: Duration,
    max_body_bytes: usize,
    idle_timeout: Duration,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// aborts ungracefully (the listener closes but executors are not
/// drained); call `shutdown()` for the orderly path.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Scan `registry_dir` for tenant snapshots and start serving.
    /// Snapshots are *not* loaded here — each loads on first request.
    pub fn start(registry_dir: impl Into<PathBuf>, config: ServeConfig) -> std::io::Result<Server> {
        let registry = SnapshotRegistry::open(registry_dir.into())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let inner = Arc::new(Inner {
            tenants: Tenants::new(registry, config.persist_dir.clone()),
            admission: Admission::start(config.workers, config.queue_depth, Arc::clone(&stats)),
            stats,
            shutdown: AtomicBool::new(false),
            request_timeout: config.request_timeout,
            max_body_bytes: config.max_body_bytes,
            idle_timeout: config.idle_timeout,
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("hyper-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_inner))?;
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tenant registry (for assertions in tests/examples).
    pub fn tenants(&self) -> &Tenants {
        &self.inner.tenants
    }

    /// The server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Graceful shutdown: stop accepting, refuse new admissions with
    /// 503, drain every admitted job to its answer, then return.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.admission.close();
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.inner.admission.join();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        inner.stats.connections.fetch_add(1, Ordering::Relaxed);
        inner.stats.connections_open.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::clone(inner);
        // Connection threads are detached: they exit on client EOF, on a
        // fatal parse error, or when the idle timeout trips.
        let _ = std::thread::Builder::new()
            .name("hyper-serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &inner);
                inner.stats.connections_open.fetch_sub(1, Ordering::Relaxed);
            });
    }
}

fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(inner.idle_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match http::read_request(&mut reader, inner.max_body_bytes) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                // Hostile or broken bytes: answer the typed status when
                // one applies, then drop the connection — never the
                // accept loop.
                if let Some((code, reason)) = e.status() {
                    inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    let body = Json::obj([("error", e.to_string().into())]).render();
                    let _ = http::write_response(
                        &mut writer,
                        code,
                        reason,
                        "application/json",
                        body.as_bytes(),
                        false,
                        &[],
                    );
                }
                return;
            }
        };
        inner.stats.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive && !inner.shutdown.load(Ordering::SeqCst);
        // `/metrics` is the one non-JSON route: Prometheus text, served
        // inline like `/stats` so it stays answerable under saturation.
        let (status, content_type, body, retry_after) =
            if request.method == "GET" && request.path == "/metrics" {
                (200, "text/plain; version=0.0.4", metrics_text(inner), false)
            } else {
                let (outcome, retry_after) = route(inner, &request);
                (
                    outcome.status,
                    "application/json",
                    outcome.body.render(),
                    retry_after,
                )
            };
        let extra: &[(&str, &str)] = if retry_after {
            &[("Retry-After", "1")]
        } else {
            &[]
        };
        if http::write_response(
            &mut writer,
            status,
            reason_phrase(status),
            content_type,
            body.as_bytes(),
            keep_alive,
            extra,
        )
        .is_err()
            || !keep_alive
        {
            let _ = writer.flush();
            return;
        }
    }
}

/// Dispatch one parsed request. The bool is "attach `Retry-After`".
fn route(inner: &Arc<Inner>, request: &Request) -> (Outcome, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => admit(inner, request, Mode::Execute),
        ("POST", "/explain") => admit(inner, request, Mode::Explain),
        ("POST", "/ingest") => admit_ingest(inner, request),
        ("GET", "/stats") => (stats_outcome(inner), false),
        ("GET", "/health") => (health_outcome(inner), false),
        ("GET" | "POST", "/query" | "/explain" | "/ingest" | "/stats" | "/health" | "/metrics") => {
            (
                Outcome {
                    status: 405,
                    body: Json::obj([("error", "method not allowed for this path".into())]),
                },
                false,
            )
        }
        _ => {
            inner.stats.not_found.fetch_add(1, Ordering::Relaxed);
            (
                Outcome {
                    status: 404,
                    body: Json::obj([("error", format!("no such path: {}", request.path).into())]),
                },
                false,
            )
        }
    }
}

#[derive(Clone, Copy)]
enum Mode {
    Execute,
    Explain,
}

/// Parse the protocol body, admit the engine work, wait with a deadline.
fn admit(inner: &Arc<Inner>, request: &Request, mode: Mode) -> (Outcome, bool) {
    let (tenant_id, query_text, bindings, timeout) = match parse_protocol(&request.body) {
        Ok(parts) => parts,
        Err(msg) => {
            inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
            return (
                Outcome {
                    status: 400,
                    body: Json::obj([("error", msg.into())]),
                },
                false,
            );
        }
    };
    let work_inner = Arc::clone(inner);
    let work_tenant = tenant_id.clone();
    let route = match mode {
        Mode::Execute => Route::Query,
        Mode::Explain => Route::Explain,
    };
    submit_and_wait(
        inner,
        &tenant_id,
        route,
        timeout,
        Box::new(move || execute(&work_inner, &work_tenant, &query_text, &bindings, mode)),
    )
}

/// Parse, validate, and admit a `POST /ingest` body. The delta is
/// materialized on the executor (it needs the tenant's schema), so a
/// hostile body costs JSON parsing here, never engine work.
fn admit_ingest(inner: &Arc<Inner>, request: &Request) -> (Outcome, bool) {
    let (tenant_id, table, rows, deletes) = match parse_ingest(&request.body) {
        Ok(parts) => parts,
        Err(msg) => {
            inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
            return (
                Outcome {
                    status: 400,
                    body: Json::obj([("error", msg.into())]),
                },
                false,
            );
        }
    };
    let work_inner = Arc::clone(inner);
    let work_tenant = tenant_id.clone();
    submit_and_wait(
        inner,
        &tenant_id,
        Route::Ingest,
        None,
        Box::new(move || execute_ingest(&work_inner, &work_tenant, &table, &rows, &deletes)),
    )
}

/// Shared admission tail: refuse unknown tenants before taking a queue
/// slot, submit the work, and wait with the (possibly tightened)
/// deadline.
fn submit_and_wait(
    inner: &Arc<Inner>,
    tenant_id: &str,
    route: Route,
    timeout: Option<Duration>,
    work: Box<dyn FnOnce() -> Outcome + Send>,
) -> (Outcome, bool) {
    // Unknown tenants are refused before admission — a hostile id costs
    // a map lookup, not a queue slot, and never creates counters.
    if !inner.tenants.contains(tenant_id) {
        inner.stats.not_found.fetch_add(1, Ordering::Relaxed);
        return (
            Outcome {
                status: 404,
                body: Json::obj([("error", format!("unknown tenant `{tenant_id}`").into())]),
            },
            false,
        );
    }
    let counters = inner.stats.tenant(tenant_id);
    let slot = Arc::new(ResponseSlot::new());
    let job = Job {
        tenant: tenant_id.to_string(),
        slot: Arc::clone(&slot),
        counters: Arc::clone(&counters),
        work,
        route,
        admitted: Instant::now(),
    };
    match inner.admission.submit(job) {
        Ok(()) => {}
        Err(Rejected::QueueFull { depth }) => {
            counters.shed.fetch_add(1, Ordering::Relaxed);
            return (
                Outcome {
                    status: 503,
                    body: Json::obj([
                        ("error", "overloaded: admission queue is full".into()),
                        ("queue_depth", depth.into()),
                    ]),
                },
                true,
            );
        }
        Err(Rejected::ShuttingDown) => {
            return (
                Outcome {
                    status: 503,
                    body: Json::obj([("error", "server is shutting down".into())]),
                },
                false,
            );
        }
    }
    // A request may tighten (never loosen) the server deadline.
    let timeout = timeout
        .unwrap_or(inner.request_timeout)
        .min(inner.request_timeout);
    match slot.wait(timeout) {
        Some(outcome) => (outcome, false),
        None => {
            counters.timeouts.fetch_add(1, Ordering::Relaxed);
            (
                Outcome {
                    status: 504,
                    body: Json::obj([(
                        "error",
                        format!(
                            "deadline of {}ms exceeded; execution continues and will warm the cache",
                            timeout.as_millis()
                        )
                        .into(),
                    )]),
                },
                false,
            )
        }
    }
}

/// Extract `(tenant, query, bindings, timeout override)` from a protocol
/// body.
type Protocol = (String, String, Bindings, Option<Duration>);

fn parse_protocol(body: &[u8]) -> Result<Protocol, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let tenant = doc
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or("missing string field `tenant`")?
        .to_string();
    let query = doc
        .get("query")
        .and_then(Json::as_str)
        .ok_or("missing string field `query`")?
        .to_string();
    let mut bindings = Bindings::new();
    if let Some(b) = doc.get("bindings") {
        let fields = b
            .as_obj()
            .ok_or("`bindings` must be an object of scalars")?;
        for (name, value) in fields {
            let v = value
                .to_value()
                .ok_or_else(|| format!("binding `{name}` must be a scalar"))?;
            bindings.insert(name.clone(), v);
        }
    }
    let timeout = match doc.get("timeout_ms") {
        None => None,
        Some(t) => {
            let ms = t
                .as_i64()
                .filter(|&ms| ms > 0)
                .ok_or("`timeout_ms` must be a positive integer")?;
            Some(Duration::from_millis(ms as u64))
        }
    };
    Ok((tenant, query, bindings, timeout))
}

/// `(tenant, table, rows, deletes)` of a `POST /ingest` body:
/// `{"tenant": "...", "table": "...", "rows": [[...], ...],
/// "deletes": [i, ...]}` with at least one of `rows`/`deletes`
/// non-empty. Row values stay as JSON here — typing them needs the
/// tenant's schema, which lives on the executor side.
type IngestParts = (String, String, Vec<Vec<Json>>, Vec<usize>);

fn parse_ingest(body: &[u8]) -> Result<IngestParts, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let tenant = doc
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or("missing string field `tenant`")?
        .to_string();
    let table = doc
        .get("table")
        .and_then(Json::as_str)
        .ok_or("missing string field `table`")?
        .to_string();
    let mut rows = Vec::new();
    if let Some(r) = doc.get("rows") {
        let Json::Arr(items) = r else {
            return Err("`rows` must be an array of arrays".to_string());
        };
        for (i, item) in items.iter().enumerate() {
            match item {
                Json::Arr(vals) => rows.push(vals.clone()),
                _ => return Err(format!("`rows[{i}]` must be an array of scalars")),
            }
        }
    }
    let mut deletes = Vec::new();
    if let Some(d) = doc.get("deletes") {
        let Json::Arr(items) = d else {
            return Err("`deletes` must be an array of row indices".to_string());
        };
        for (i, item) in items.iter().enumerate() {
            let idx = item
                .as_i64()
                .filter(|&v| v >= 0)
                .ok_or_else(|| format!("`deletes[{i}]` must be a non-negative integer"))?;
            deletes.push(idx as usize);
        }
    }
    if rows.is_empty() && deletes.is_empty() {
        return Err("ingest body must carry `rows` and/or `deletes`".to_string());
    }
    Ok((tenant, table, rows, deletes))
}

/// The ingest work — runs on an executor thread, serialized per tenant
/// by the tenant's ingest lock.
fn execute_ingest(
    inner: &Arc<Inner>,
    tenant_id: &str,
    table: &str,
    rows: &[Vec<Json>],
    deletes: &[usize],
) -> Outcome {
    let tenant = match inner.tenants.tenant(tenant_id) {
        Ok(t) => t,
        Err(e @ TenantError::Unknown(_)) => {
            return Outcome {
                status: 404,
                body: Json::obj([("error", e.to_string().into())]),
            }
        }
        Err(e @ TenantError::Load(_)) => {
            return Outcome {
                status: 500,
                body: Json::obj([("error", e.to_string().into())]),
            }
        }
    };
    let mut delta = DeltaBatch::new();
    if !rows.is_empty() {
        // Type the JSON rows against the *current* session's schema for
        // the target table.
        let session = tenant.session();
        let appends = match rows_to_table(session.database().table(table).ok(), table, rows) {
            Ok(t) => t,
            Err(msg) => {
                return Outcome {
                    status: 400,
                    body: Json::obj([("error", msg.into())]),
                }
            }
        };
        delta = delta.append(appends);
    }
    if !deletes.is_empty() {
        delta = delta.delete(table, deletes.to_vec());
    }
    match tenant.ingest(&delta) {
        Ok(report) => Outcome {
            status: 200,
            body: refresh_json(&report),
        },
        Err(e) => engine_error(&e),
    }
}

/// Build an append table from JSON rows, typed by the target table's
/// schema (integers widen into `Float` columns, mirroring
/// `Table::append_rows`).
fn rows_to_table(source: Option<&Table>, name: &str, rows: &[Vec<Json>]) -> Result<Table, String> {
    let source = source.ok_or_else(|| format!("unknown table `{name}`"))?;
    let schema = source.schema().clone();
    let mut typed = Vec::with_capacity(rows.len());
    for (ri, row) in rows.iter().enumerate() {
        if row.len() != schema.len() {
            return Err(format!(
                "rows[{ri}] has {} value(s); table `{name}` has {} column(s)",
                row.len(),
                schema.len()
            ));
        }
        let mut vals = Vec::with_capacity(row.len());
        for (ci, v) in row.iter().enumerate() {
            let field = schema.field(ci);
            let value = match (v, field.data_type) {
                (Json::Int(i), DataType::Float) => Value::Float(*i as f64),
                _ => v.to_value().ok_or_else(|| {
                    format!("rows[{ri}] column `{}` must be a scalar", field.name)
                })?,
            };
            vals.push(value);
        }
        typed.push(vals);
    }
    TableBuilder::new(name, schema)
        .rows(typed)
        .map_err(|e| e.to_string())
        .map(TableBuilder::build)
}

/// Render a refresh report: what the delta touched and what survived.
pub fn refresh_json(r: &RefreshReport) -> Json {
    Json::obj([
        ("status", "applied".into()),
        ("data_version", r.data_version.into()),
        (
            "touched_relations",
            Json::Arr(
                r.touched_relations
                    .iter()
                    .map(|t| t.as_str().into())
                    .collect(),
            ),
        ),
        ("views_kept", r.views_kept.into()),
        ("views_invalidated", r.views_invalidated.into()),
        ("estimators_kept", r.estimators_kept.into()),
        ("estimators_invalidated", r.estimators_invalidated.into()),
        ("blocks_invalidated", r.blocks_invalidated.into()),
    ])
}

/// The engine work — runs on an executor thread.
fn execute(
    inner: &Arc<Inner>,
    tenant_id: &str,
    text: &str,
    bindings: &Bindings,
    mode: Mode,
) -> Outcome {
    let tenant = match inner.tenants.tenant(tenant_id) {
        Ok(t) => t,
        Err(e @ TenantError::Unknown(_)) => {
            return Outcome {
                status: 404,
                body: Json::obj([("error", e.to_string().into())]),
            }
        }
        Err(e @ TenantError::Load(_)) => {
            return Outcome {
                status: 500,
                body: Json::obj([("error", e.to_string().into())]),
            }
        }
    };
    let prepared = match tenant.prepared(text) {
        Ok(p) => p,
        Err(e) => return engine_error(&e),
    };
    match mode {
        Mode::Execute => match prepared.execute_with(bindings) {
            Ok(outcome) => Outcome {
                status: 200,
                body: outcome_json(&outcome),
            },
            Err(e) => engine_error(&e),
        },
        Mode::Explain => match prepared.explain_with(bindings) {
            Ok(report) => Outcome {
                status: 200,
                body: explain_json(&report),
            },
            Err(e) => engine_error(&e),
        },
    }
}

fn engine_error(e: &EngineError) -> Outcome {
    // The caller's fault (bad query) is a 400; the server's (storage,
    // model, solver) is a 500.
    let status = match e {
        EngineError::Query(_) | EngineError::Unsupported(_) | EngineError::Plan(_) => 400,
        EngineError::Storage(_)
        | EngineError::Causal(_)
        | EngineError::Ml(_)
        | EngineError::Ip(_) => 500,
    };
    Outcome {
        status,
        body: Json::obj([("error", e.to_string().into())]),
    }
}

/// Render a query outcome. Floats use shortest-round-trip formatting, so
/// a client parsing `value` recovers the library result bit-for-bit.
pub fn outcome_json(outcome: &QueryOutcome) -> Json {
    match outcome {
        QueryOutcome::WhatIf(w) => Json::obj([
            ("kind", "whatif".into()),
            ("value", w.value.into()),
            ("view_rows", w.n_view_rows.into()),
            ("scope_rows", w.n_scope_rows.into()),
            ("updated_rows", w.n_updated_rows.into()),
            ("trained_rows", w.trained_rows.into()),
            (
                "backdoor",
                Json::Arr(w.backdoor.iter().map(|c| c.as_str().into()).collect()),
            ),
            ("elapsed_us", (w.elapsed.as_micros() as u64).into()),
        ]),
        QueryOutcome::HowTo(h) => Json::obj([
            ("kind", "howto".into()),
            ("objective", h.objective.into()),
            ("baseline", h.baseline.into()),
            (
                "chosen",
                Json::Arr(
                    h.chosen
                        .iter()
                        .map(|u| {
                            Json::obj([
                                ("attr", u.attr.as_str().into()),
                                ("update", u.func.to_string().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("candidates", h.candidates.into()),
            ("whatif_evals", h.whatif_evals.into()),
            ("elapsed_us", (h.elapsed.as_micros() as u64).into()),
        ]),
    }
}

fn explain_json(r: &hyper_core::ExplainReport) -> Json {
    let kind = match r.kind {
        hyper_core::QueryKind::WhatIf => "whatif",
        hyper_core::QueryKind::HowTo => "howto",
    };
    let view = Json::obj([
        (
            "source_tables",
            Json::Arr(
                r.view
                    .source_tables
                    .iter()
                    .map(|t| t.as_str().into())
                    .collect(),
            ),
        ),
        ("rows", r.view.rows.into()),
        ("columns", r.view.columns.into()),
        ("provenance", r.view.provenance.to_string().into()),
    ]);
    let blocks = r.blocks.as_ref().map_or(Json::Null, |b| {
        Json::obj([
            ("count", b.count.into()),
            ("provenance", b.provenance.to_string().into()),
        ])
    });
    let estimator = r.estimator.as_ref().map_or(Json::Null, |e| {
        Json::obj([
            ("kind", format!("{:?}", e.kind).into()),
            ("n_trees", e.n_trees.into()),
            ("max_depth", e.max_depth.into()),
            ("provenance", e.provenance.to_string().into()),
        ])
    });
    let howto = r.howto.as_ref().map_or(Json::Null, |h| {
        Json::obj([
            (
                "update_attrs",
                Json::Arr(h.update_attrs.iter().map(|a| a.as_str().into()).collect()),
            ),
            ("buckets", h.buckets.into()),
            ("limits", h.limits.into()),
        ])
    });
    Json::obj([
        ("kind", kind.into()),
        ("query", r.query.as_str().into()),
        ("data_version", r.data_version.into()),
        ("deterministic", r.deterministic.into()),
        ("view", view),
        ("blocks", blocks),
        (
            "adjustment",
            Json::Arr(r.adjustment.iter().map(|c| c.as_str().into()).collect()),
        ),
        ("estimator", estimator),
        ("howto", howto),
    ])
}

fn stats_outcome(inner: &Arc<Inner>) -> Outcome {
    let mut tenants = std::collections::BTreeMap::new();
    // Every *registered* tenant appears, loaded or not; per-tenant
    // session stats use the torn-read-free snapshot accessor.
    let ids: Vec<String> = inner
        .tenants
        .registry()
        .tenants()
        .map(str::to_string)
        .collect();
    for id in &ids {
        let loaded = inner
            .tenants
            .loaded(id)
            .map(|t| (inner.tenants.snapshot_loads(id), t.session().snapshot()));
        tenants.insert(id.clone(), inner.stats.tenant_json(id, loaded));
    }
    let body = Json::obj([
        (
            "server",
            inner.stats.server_json(
                inner.admission.queue_len(),
                inner.admission.queue_capacity(),
                inner.admission.workers(),
            ),
        ),
        ("tenants", Json::obj_sorted(tenants)),
    ]);
    Outcome { status: 200, body }
}

/// `GET /health`: liveness plus enough shape to tell a fresh process
/// from a warmed one — uptime, how many of the registered tenants have
/// actually loaded, and each loaded tenant's current data version.
fn health_outcome(inner: &Arc<Inner>) -> Outcome {
    let loaded = inner.tenants.loaded_ids();
    let mut versions = std::collections::BTreeMap::new();
    for id in &loaded {
        if let Some(t) = inner.tenants.loaded(id) {
            versions.insert(id.clone(), t.session().snapshot().data_version.into());
        }
    }
    Outcome {
        status: 200,
        body: Json::obj([
            ("status", "ok".into()),
            (
                "uptime_ms",
                (inner.stats.uptime().as_millis() as u64).into(),
            ),
            ("tenants", inner.tenants.registry().len().into()),
            ("tenants_loaded", loaded.len().into()),
            ("data_versions", Json::obj_sorted(versions)),
        ]),
    }
}

/// Render the whole `/metrics` exposition: server totals, queue state,
/// per-tenant admission counters, queue-wait/execute latency summaries
/// per tenant × route, and per-tenant session phase timings.
fn metrics_text(inner: &Arc<Inner>) -> String {
    const NS: f64 = 1e-9;
    let mut w = MetricsWriter::new();

    w.header(
        "hyper_serve_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
    );
    w.sample(
        "hyper_serve_uptime_seconds",
        &[],
        inner.stats.uptime().as_secs_f64(),
    );
    let server: [(&str, &str, u64); 5] = [
        (
            "hyper_serve_connections_total",
            "Connections accepted.",
            inner.stats.connections.load(Ordering::Relaxed),
        ),
        (
            "hyper_serve_requests_total",
            "HTTP requests parsed (any path).",
            inner.stats.requests.load(Ordering::Relaxed),
        ),
        (
            "hyper_serve_malformed_total",
            "Malformed requests answered with a typed 4xx.",
            inner.stats.malformed.load(Ordering::Relaxed),
        ),
        (
            "hyper_serve_not_found_total",
            "Requests for unknown paths or unknown tenants.",
            inner.stats.not_found.load(Ordering::Relaxed),
        ),
        (
            "hyper_serve_snapshot_loads_total",
            "Tenant snapshot decodes performed.",
            inner.tenants.total_snapshot_loads(),
        ),
    ];
    for (name, help, value) in server {
        w.header(name, "counter", help);
        w.sample(name, &[], value as f64);
    }
    w.header(
        "hyper_serve_queue_len",
        "gauge",
        "Jobs waiting in the admission queue.",
    );
    w.sample(
        "hyper_serve_queue_len",
        &[],
        inner.admission.queue_len() as f64,
    );
    w.header(
        "hyper_serve_queue_capacity",
        "gauge",
        "Admission queue depth limit.",
    );
    w.sample(
        "hyper_serve_queue_capacity",
        &[],
        inner.admission.queue_capacity() as f64,
    );

    let tenants = inner.stats.tenants();
    type AdmissionMetric = (
        &'static str,
        &'static str,
        fn(&crate::stats::TenantCounters) -> u64,
    );
    let admission: [AdmissionMetric; 6] = [
        ("hyper_serve_accepted_total", "Requests admitted.", |c| {
            c.accepted.load(Ordering::Relaxed)
        }),
        ("hyper_serve_shed_total", "Requests shed with 503.", |c| {
            c.shed.load(Ordering::Relaxed)
        }),
        (
            "hyper_serve_timeouts_total",
            "Requests whose caller timed out with 504.",
            |c| c.timeouts.load(Ordering::Relaxed),
        ),
        (
            "hyper_serve_completed_total",
            "Admitted requests executed to completion.",
            |c| c.completed.load(Ordering::Relaxed),
        ),
        (
            "hyper_serve_ok_total",
            "Completed requests that answered 2xx.",
            |c| c.ok.load(Ordering::Relaxed),
        ),
        (
            "hyper_serve_in_flight",
            "Requests admitted but not yet answered.",
            |c| c.in_flight.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, pick) in admission {
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        w.header(name, kind, help);
        for (tenant, counters) in &tenants {
            w.sample(name, &[("tenant", tenant)], pick(counters) as f64);
        }
    }

    w.header(
        "hyper_serve_latency_seconds",
        "summary",
        "Admitted request latency, split into queue-wait and execute \
         stages at the executor pop.",
    );
    for (tenant, counters) in &tenants {
        for route in Route::ALL {
            let latency = counters.latency(route);
            for (stage, hist) in [
                ("queue_wait", &latency.queue_wait),
                ("execute", &latency.execute),
            ] {
                let snap = hist.snapshot();
                if snap.count() == 0 {
                    continue;
                }
                let labels = |q: &'static str| {
                    [
                        ("tenant", tenant.as_str()),
                        ("route", route.name()),
                        ("stage", stage),
                        ("quantile", q),
                    ]
                };
                w.sample(
                    "hyper_serve_latency_seconds",
                    &labels("0.5"),
                    snap.p50() * NS,
                );
                w.sample(
                    "hyper_serve_latency_seconds",
                    &labels("0.9"),
                    snap.p90() * NS,
                );
                w.sample(
                    "hyper_serve_latency_seconds",
                    &labels("0.99"),
                    snap.p99() * NS,
                );
                w.sample(
                    "hyper_serve_latency_seconds",
                    &labels("0.999"),
                    snap.p999() * NS,
                );
                let base = [
                    ("tenant", tenant.as_str()),
                    ("route", route.name()),
                    ("stage", stage),
                ];
                w.sample(
                    "hyper_serve_latency_seconds_sum",
                    &base,
                    snap.sum() as f64 * NS,
                );
                w.sample(
                    "hyper_serve_latency_seconds_count",
                    &base,
                    snap.count() as f64,
                );
            }
        }
    }

    // Session-level phase timings for loaded tenants, from the same
    // stabilized snapshot `/stats` uses.
    let loaded: Vec<(String, hyper_core::SessionStats)> = inner
        .tenants
        .loaded_ids()
        .into_iter()
        .filter_map(|id| {
            let t = inner.tenants.loaded(&id)?;
            Some((id, t.session().snapshot()))
        })
        .collect();
    w.header(
        "hyper_session_data_version",
        "gauge",
        "Current data version of a loaded tenant session.",
    );
    for (tenant, s) in &loaded {
        w.sample(
            "hyper_session_data_version",
            &[("tenant", tenant)],
            s.data_version as f64,
        );
    }
    w.header(
        "hyper_session_traced_queries_total",
        "counter",
        "Queries that ran under a phase trace.",
    );
    for (tenant, s) in &loaded {
        w.sample(
            "hyper_session_traced_queries_total",
            &[("tenant", tenant)],
            s.traced_queries as f64,
        );
    }
    w.header(
        "hyper_session_phase_seconds_total",
        "counter",
        "Exclusive (self) time attributed to each engine phase.",
    );
    for (tenant, s) in &loaded {
        for phase in hyper_core::Phase::ALL {
            let (ns, n) = (s.phase_ns(phase), s.phase_count(phase));
            if ns == 0 && n == 0 {
                continue;
            }
            let labels = [("tenant", tenant.as_str()), ("phase", phase.name())];
            w.sample("hyper_session_phase_seconds_total", &labels, ns as f64 * NS);
        }
    }
    w.header(
        "hyper_session_phase_spans_total",
        "counter",
        "Spans recorded for each engine phase.",
    );
    for (tenant, s) in &loaded {
        for phase in hyper_core::Phase::ALL {
            let (ns, n) = (s.phase_ns(phase), s.phase_count(phase));
            if ns == 0 && n == 0 {
                continue;
            }
            let labels = [("tenant", tenant.as_str()), ("phase", phase.name())];
            w.sample("hyper_session_phase_spans_total", &labels, n as f64);
        }
    }
    w.finish()
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}
