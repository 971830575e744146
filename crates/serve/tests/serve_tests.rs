//! End-to-end tests for hyper-serve: each test boots a real server on an
//! OS-assigned port, talks to it over real TCP, and (where applicable)
//! compares responses against the library path on the same snapshot —
//! **bit-for-bit**, not within a tolerance: the server renders floats
//! with shortest-round-trip formatting, so `f64::to_bits` must agree.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hyper_core::{EngineConfig, HyperSession, QueryOutcome};
use hyper_serve::stats::{SeriesTable, QUEUE_SERIES, SERVER_SERIES, SESSION_SERIES, TENANT_SERIES};
use hyper_serve::{Client, Json, ServeConfig, Server};
use hyper_store::Snapshot;

const WHATIF: &str = "Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')";
const WHATIF_PARAM: &str =
    "Use german_syn Update(status) = Param(s) Output Count(Post(credit) = 'Good')";
const HOWTO: &str = "Use german_syn HowToUpdate savings ToMaximize Count(Post(credit) = 'Good')";

/// Build a registry directory holding one german-syn tenant per seed.
fn registry_dir(tag: &str, rows: usize, seeds: &[u64]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hyper_serve_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for (i, &seed) in seeds.iter().enumerate() {
        let data = hyper_datasets::german_syn(rows, seed);
        Snapshot::new(data.db, Some(data.graph))
            .save(dir.join(format!("t{i}.hypr")))
            .unwrap();
    }
    dir
}

/// The library path over the same snapshot file the server serves.
fn library_session(dir: &std::path::Path, tenant: &str) -> HyperSession {
    let snapshot = Snapshot::load(dir.join(format!("{tenant}.hypr"))).unwrap();
    HyperSession::builder(snapshot.database)
        .maybe_graph(snapshot.graph)
        .config(EngineConfig::hyper())
        .build()
}

fn start(dir: &std::path::Path, config: ServeConfig) -> Server {
    Server::start(dir, config).expect("server starts")
}

#[test]
fn multi_tenant_responses_match_the_library_bit_for_bit() {
    let dir = registry_dir("parity", 900, &[1, 2]);
    let server = start(&dir, ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    for tenant in ["t0", "t1"] {
        let lib = library_session(&dir, tenant);

        // Plain what-if.
        let response = client.query("/query", tenant, WHATIF, &[]).unwrap();
        assert_eq!(response.status, 200, "{:?}", response.json());
        let body = response.json().unwrap();
        let expect = lib.whatif_text(WHATIF).unwrap();
        let got = body.get("value").and_then(Json::as_f64).unwrap();
        assert_eq!(
            got.to_bits(),
            expect.value.to_bits(),
            "{tenant}: server {got} vs library {}",
            expect.value
        );
        assert_eq!(
            body.get("view_rows").and_then(Json::as_i64).unwrap() as usize,
            expect.n_view_rows
        );
        assert_eq!(
            body.get("updated_rows").and_then(Json::as_i64).unwrap() as usize,
            expect.n_updated_rows
        );

        // Parameterized what-if: bindings travel the wire.
        for s in [0i64, 2] {
            let response = client
                .query("/query", tenant, WHATIF_PARAM, &[("s", Json::Int(s))])
                .unwrap();
            assert_eq!(response.status, 200);
            let got = response
                .json()
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap();
            let prepared = lib.prepare(WHATIF_PARAM).unwrap();
            let expect = prepared
                .execute_whatif_with(&hyper_query::Bindings::new().set("s", s))
                .unwrap();
            assert_eq!(got.to_bits(), expect.value.to_bits(), "{tenant} s={s}");
        }

        // How-to: objective, baseline, and the chosen updates all match.
        let response = client.query("/query", tenant, HOWTO, &[]).unwrap();
        assert_eq!(response.status, 200, "{:?}", response.json());
        let body = response.json().unwrap();
        let expect = lib.howto_text(HOWTO).unwrap();
        assert_eq!(
            body.get("objective")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            expect.objective.to_bits()
        );
        assert_eq!(
            body.get("baseline")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            expect.baseline.to_bits()
        );
        let chosen = match body.get("chosen").unwrap() {
            Json::Arr(items) => items
                .iter()
                .map(|u| {
                    format!(
                        "{}={}",
                        u.get("attr").and_then(Json::as_str).unwrap(),
                        u.get("update").and_then(Json::as_str).unwrap()
                    )
                })
                .collect::<Vec<_>>(),
            other => panic!("chosen should be an array, got {other:?}"),
        };
        let expect_chosen: Vec<String> = expect
            .chosen
            .iter()
            .map(|u| format!("{}={}", u.attr, u.func))
            .collect();
        assert_eq!(chosen, expect_chosen, "{tenant}");

        // Explain mirrors the library plan.
        let response = client.query("/explain", tenant, WHATIF, &[]).unwrap();
        assert_eq!(response.status, 200);
        let body = response.json().unwrap();
        let report = lib.prepare(WHATIF).unwrap().explain().unwrap();
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("whatif"));
        assert_eq!(
            body.get("deterministic").and_then(Json::as_bool),
            Some(report.deterministic)
        );
        assert_eq!(
            body.get("view").unwrap().get("rows").and_then(Json::as_i64),
            Some(report.view.rows as i64)
        );
    }

    // The two tenants were generated with different seeds: their answers
    // must differ, or the server is routing every tenant to one session.
    let v0 = client
        .query("/query", "t0", WHATIF, &[])
        .unwrap()
        .json()
        .unwrap()
        .get("value")
        .and_then(Json::as_f64)
        .unwrap();
    let v1 = client
        .query("/query", "t1", WHATIF, &[])
        .unwrap()
        .json()
        .unwrap()
        .get("value")
        .and_then(Json::as_f64)
        .unwrap();
    assert_ne!(v0.to_bits(), v1.to_bits(), "tenants must be isolated");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_first_requests_load_each_snapshot_once() {
    let dir = registry_dir("singleflight", 600, &[3]);
    let server = start(
        &dir,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(8));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let response = client.query("/query", "t0", WHATIF, &[]).unwrap();
                assert_eq!(response.status, 200, "{:?}", response.json());
            });
        }
    });

    assert_eq!(
        server.tenants().snapshot_loads("t0"),
        1,
        "8 concurrent first requests must trigger exactly one snapshot load"
    );

    // /stats agrees and includes the loaded session's counters.
    let mut client = Client::connect(addr).unwrap();
    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let t0 = stats.get("tenants").unwrap().get("t0").unwrap();
    assert_eq!(t0.get("loaded").and_then(Json::as_bool), Some(true));
    assert_eq!(t0.get("snapshot_loads").and_then(Json::as_i64), Some(1));
    assert_eq!(t0.get("accepted").and_then(Json::as_i64), Some(8));
    assert_eq!(t0.get("ok").and_then(Json::as_i64), Some(8));
    assert_eq!(t0.get("in_flight").and_then(Json::as_i64), Some(0));
    assert_eq!(
        t0.get("session")
            .unwrap()
            .get("texts_parsed")
            .and_then(Json::as_i64),
        Some(1),
        "identical query text parses once; 7 requests ride the template"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturation_sheds_with_typed_503_and_retry_after() {
    let dir = registry_dir("shed", 1500, &[4]);
    // One executor, queue of one: at most 2 requests in the house; a
    // 12-wide simultaneous burst of *distinct* texts (each trains a fresh
    // estimator) must shed.
    let server = start(
        &dir,
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    let ok = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let barrier = Barrier::new(12);
    std::thread::scope(|scope| {
        for i in 0..12 {
            let (ok, shed, barrier) = (&ok, &shed, &barrier);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let text = format!(
                    "Use german_syn Update(status) = {} Output Count(Post(credit) = 'Good')",
                    i % 4
                );
                barrier.wait();
                let response = client.query("/query", "t0", &text, &[]).unwrap();
                match response.status {
                    200 => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    503 => {
                        shed.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(
                            response.header("retry-after"),
                            Some("1"),
                            "shed responses carry Retry-After"
                        );
                        let body = response.json().unwrap();
                        let msg = body.get("error").and_then(Json::as_str).unwrap();
                        assert!(msg.contains("queue"), "{msg}");
                    }
                    other => panic!("only 200 or 503 are acceptable, got {other}"),
                }
            });
        }
    });
    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    assert_eq!(ok + shed, 12);
    assert!(ok >= 1, "at least one request must be served");
    assert!(shed >= 1, "a 12-wide burst into capacity 2 must shed");

    // The server is alive and consistent after the storm: /health inline,
    // /stats books every shed, and a fresh query succeeds.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("GET", "/health", None).unwrap().status, 200);
    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let t0 = stats.get("tenants").unwrap().get("t0").unwrap();
    assert_eq!(t0.get("shed").and_then(Json::as_i64), Some(shed as i64));
    assert_eq!(t0.get("accepted").and_then(Json::as_i64), Some(ok as i64));
    let response = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(response.status, 200);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_requests_answer_typed_4xx_and_never_kill_the_server() {
    let dir = registry_dir("malformed", 300, &[5]);
    let server = start(&dir, ServeConfig::default());
    let addr = server.addr();

    // Hostile bytes on the wire → 400, connection dropped, server fine.
    let mut raw = Client::connect(addr).unwrap();
    let response = raw.send_raw(b"EXPLODE !!! nonsense\r\n\r\n").unwrap();
    assert_eq!(response.status, 400);

    // Unsupported HTTP version → 400.
    let mut raw = Client::connect(addr).unwrap();
    let response = raw.send_raw(b"GET /health HTTP/2.0\r\n\r\n").unwrap();
    assert_eq!(response.status, 400);

    // POST without Content-Length → 411.
    let mut raw = Client::connect(addr).unwrap();
    let response = raw
        .send_raw(b"POST /query HTTP/1.1\r\nHost: h\r\n\r\n")
        .unwrap();
    assert_eq!(response.status, 411);

    // Oversized declared body → 413.
    let mut raw = Client::connect(addr).unwrap();
    let response = raw
        .send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .unwrap();
    assert_eq!(response.status, 413);

    let mut client = Client::connect(addr).unwrap();
    // Bad JSON body → 400 (connection stays usable: protocol errors are
    // not framing errors).
    let response = client
        .request("POST", "/query", Some(&Json::Str("not an object".into())))
        .unwrap();
    assert_eq!(response.status, 400);
    // Missing fields → 400.
    let response = client
        .request(
            "POST",
            "/query",
            Some(&Json::obj([("tenant", "t0".into())])),
        )
        .unwrap();
    assert_eq!(response.status, 400);
    // Non-scalar binding → 400.
    let response = client
        .query("/query", "t0", WHATIF_PARAM, &[("s", Json::Arr(vec![]))])
        .unwrap();
    assert_eq!(response.status, 400);
    // Unparseable query text → 400 from the engine, typed.
    let response = client
        .query("/query", "t0", "Use nonsense !!!", &[])
        .unwrap();
    assert_eq!(response.status, 400);
    // Unknown tenant → 404 without loading anything.
    let response = client.query("/query", "intruder", WHATIF, &[]).unwrap();
    assert_eq!(response.status, 404);
    // Unknown path → 404; wrong method on a real path → 405.
    assert_eq!(client.request("GET", "/nope", None).unwrap().status, 404);
    assert_eq!(client.request("GET", "/query", None).unwrap().status, 405);

    // After all of that: still healthy, still serving.
    assert_eq!(client.request("GET", "/health", None).unwrap().status, 200);
    let response = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(response.status, 200);
    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let malformed = stats
        .get("server")
        .unwrap()
        .get("malformed")
        .and_then(Json::as_i64)
        .unwrap();
    assert!(
        malformed >= 5,
        "typed failures are counted, got {malformed}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timeout_answers_504_and_the_session_is_not_poisoned() {
    // Big enough that the cold path (snapshot load + view + training)
    // takes several milliseconds: the 1ms deadline below must stay
    // unmeetable even when parallel suite load perturbs scheduling.
    let dir = registry_dir("timeout", 12_000, &[6]);
    let server = start(&dir, ServeConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // A 1ms deadline on a cold tenant (snapshot load + view + training)
    // cannot be met: the caller gets a typed 504 while the executor
    // finishes in the background and warms every cache.
    let body = Json::obj([
        ("tenant", "t0".into()),
        ("query", WHATIF.into()),
        ("timeout_ms", Json::Int(1)),
    ]);
    let response = client.request("POST", "/query", Some(&body)).unwrap();
    assert_eq!(response.status, 504, "{:?}", response.json());

    // The same query with a sane deadline succeeds on the same session
    // and still matches the library bit-for-bit.
    let response = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(response.status, 200, "{:?}", response.json());
    let got = response
        .json()
        .unwrap()
        .get("value")
        .and_then(Json::as_f64)
        .unwrap();
    let expect = library_session(&dir, "t0").whatif_text(WHATIF).unwrap();
    assert_eq!(got.to_bits(), expect.value.to_bits());

    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let t0 = stats.get("tenants").unwrap().get("t0").unwrap();
    assert_eq!(t0.get("timeouts").and_then(Json::as_i64), Some(1));
    assert_eq!(t0.get("snapshot_loads").and_then(Json::as_i64), Some(1));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let dir = registry_dir("drain", 1500, &[7]);
    let server = start(
        &dir,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query("/query", "t0", WHATIF, &[]).unwrap()
    });

    // Wait until the request is admitted (queued or executing). Poll the
    // monotonic `accepted` counter, not the `in_flight` gauge: a request
    // admitted and finished between two polls leaves the gauge at zero…
    let counters = server.stats().tenant("t0");
    let start = Instant::now();
    while counters.accepted.load(Ordering::Relaxed) == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "request was never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // …then shut down, normally mid-execution. shutdown() blocks until the
    // admitted job drains, and the waiting client must still get its
    // full, correct answer.
    server.shutdown();

    let response = in_flight.join().expect("client thread");
    assert_eq!(response.status, 200, "in-flight work drains to an answer");
    let got = response
        .json()
        .unwrap()
        .get("value")
        .and_then(Json::as_f64)
        .unwrap();
    let expect = library_session(&dir, "t0").whatif_text(WHATIF).unwrap();
    assert_eq!(got.to_bits(), expect.value.to_bits());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_is_served_inline_and_health_reports_tenant_count() {
    let dir = registry_dir("inline", 300, &[8, 9]);
    let server = start(&dir, ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let health = client.request("GET", "/health", None).unwrap();
    assert_eq!(health.status, 200);
    let body = health.json().unwrap();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(body.get("tenants").and_then(Json::as_i64), Some(2));
    assert!(body.get("uptime_ms").and_then(Json::as_i64).is_some());
    assert_eq!(body.get("tenants_loaded").and_then(Json::as_i64), Some(0));

    // Both registered tenants appear in /stats before any load.
    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    for t in ["t0", "t1"] {
        let entry = stats.get("tenants").unwrap().get(t).unwrap();
        assert_eq!(entry.get("loaded").and_then(Json::as_bool), Some(false));
    }
    let srv = stats.get("server").unwrap();
    assert_eq!(srv.get("queue_capacity").and_then(Json::as_i64), Some(64));
    assert_eq!(srv.get("workers").and_then(Json::as_i64), Some(2));

    // Touch one tenant, then /health shows it loaded with its version.
    let r = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(r.status, 200, "{:?}", r.json());
    let body = client
        .request("GET", "/health", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(body.get("tenants_loaded").and_then(Json::as_i64), Some(1));
    assert_eq!(
        body.get("data_versions")
            .and_then(|v| v.get("t0"))
            .and_then(Json::as_i64),
        Some(0),
        "fresh tenant serves at data_version 0"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// 20 German-Syn rows, all age = 2 (columns: age, sex, status, savings,
/// housing, credit_amount, credit — declaration order).
fn age_two_rows() -> Vec<Vec<Json>> {
    (0..20)
        .map(|i: i64| {
            vec![
                Json::Int(2),
                Json::Int(i % 2),
                Json::Int(3),
                Json::Int(i % 4),
                Json::Int(i % 3),
                Json::Int(3 - i % 4),
                Json::Str(if i % 3 == 0 { "Bad" } else { "Good" }.into()),
            ]
        })
        .collect()
}

/// A cold library session over `tenant`'s snapshot with `rows` appended
/// to `german_syn`: the data a server answers over after ingesting them.
fn post_delta_session(dir: &std::path::Path, tenant: &str, rows: &[Vec<Json>]) -> HyperSession {
    let snapshot = Snapshot::load(dir.join(format!("{tenant}.hypr"))).unwrap();
    let source = snapshot.database.table("german_syn").unwrap();
    let mut b = hyper_storage::TableBuilder::new("german_syn", source.schema().clone());
    for row in rows {
        let vals: Vec<hyper_storage::Value> = row.iter().map(|v| v.to_value().unwrap()).collect();
        b = b.row(vals).unwrap();
    }
    let delta = hyper_ingest::DeltaBatch::new().append(b.build());
    let db = delta.apply(&snapshot.database).unwrap();
    HyperSession::builder(db)
        .maybe_graph(snapshot.graph)
        .config(EngineConfig::hyper())
        .build()
}

#[test]
fn ingest_invalidates_causally_and_survives_restart() {
    let dir = registry_dir("ingest", 600, &[11]);
    let server = start(&dir, ServeConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // A filtered view the delta will NOT touch (it admits only age = 0;
    // the delta appends age = 2 rows) and the full-table view it WILL.
    const UNTOUCHED: &str = "Use (Select status, credit From german_syn Where age = 0) \
         Update(status) = 3 Output Count(Post(credit) = 'Good')";
    let untouched_before = {
        let r = client.query("/query", "t0", UNTOUCHED, &[]).unwrap();
        assert_eq!(r.status, 200, "{:?}", r.json());
        r.json()
            .unwrap()
            .get("value")
            .and_then(Json::as_f64)
            .unwrap()
    };
    let r = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(r.status, 200);
    let misses_before = {
        let stats = client
            .request("GET", "/stats", None)
            .unwrap()
            .json()
            .unwrap();
        let s = stats
            .get("tenants")
            .unwrap()
            .get("t0")
            .unwrap()
            .get("session")
            .unwrap()
            .clone();
        (
            s.get("view_misses").and_then(Json::as_i64).unwrap(),
            s.get("estimator_misses").and_then(Json::as_i64).unwrap(),
        )
    };

    let rows = age_two_rows();
    let r = client.ingest("t0", "german_syn", &rows, &[]).unwrap();
    assert_eq!(r.status, 200, "{:?}", r.json());
    let report = r.json().unwrap();
    assert_eq!(report.get("status").and_then(Json::as_str), Some("applied"));
    assert_eq!(report.get("data_version").and_then(Json::as_i64), Some(1));
    assert!(
        report.get("views_kept").and_then(Json::as_i64).unwrap() >= 1,
        "the non-matching filtered view survives: {report:?}"
    );
    assert!(
        report
            .get("views_invalidated")
            .and_then(Json::as_i64)
            .unwrap()
            >= 1,
        "the full-table view is invalidated: {report:?}"
    );

    // The untouched-block query re-serves from cache: the same value,
    // zero new view builds, zero retrains.
    let r = client.query("/query", "t0", UNTOUCHED, &[]).unwrap();
    assert_eq!(r.status, 200, "{:?}", r.json());
    let untouched_after = r
        .json()
        .unwrap()
        .get("value")
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(untouched_after.to_bits(), untouched_before.to_bits());
    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let s = stats
        .get("tenants")
        .unwrap()
        .get("t0")
        .unwrap()
        .get("session")
        .unwrap()
        .clone();
    assert_eq!(
        s.get("view_misses").and_then(Json::as_i64),
        Some(misses_before.0),
        "no view rebuild after refresh"
    );
    assert_eq!(
        s.get("estimator_misses").and_then(Json::as_i64),
        Some(misses_before.1),
        "no retraining after refresh"
    );
    assert_eq!(s.get("data_version").and_then(Json::as_i64), Some(1));
    assert_eq!(s.get("refreshes").and_then(Json::as_i64), Some(1));

    // The touched full-table query matches a cold library session built
    // on the post-delta database — bit-for-bit.
    let expect = post_delta_session(&dir, "t0", &rows)
        .whatif_text(WHATIF)
        .unwrap();
    let r = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(r.status, 200);
    let got = r
        .json()
        .unwrap()
        .get("value")
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(got.to_bits(), expect.value.to_bits(), "post-delta parity");

    // Malformed ingests are typed 400s.
    let r = client.ingest("t0", "no_such_table", &rows, &[]).unwrap();
    assert_eq!(r.status, 400, "{:?}", r.json());
    let r = client.ingest("t0", "german_syn", &[], &[]).unwrap();
    assert_eq!(r.status, 400, "empty delta is refused");

    // Restart on the same directory: the delta log replays over the
    // snapshot and the server resumes at the ingested version.
    server.shutdown();
    let server = start(&dir, ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let r = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(r.status, 200, "{:?}", r.json());
    let got = r
        .json()
        .unwrap()
        .get("value")
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(got.to_bits(), expect.value.to_bits(), "replay parity");
    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let s = stats
        .get("tenants")
        .unwrap()
        .get("t0")
        .unwrap()
        .get("session")
        .unwrap()
        .clone();
    assert_eq!(s.get("data_version").and_then(Json::as_i64), Some(1));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A prepared query text holds the plan of the data it was prepared
/// over; an ingest that adds rows to its view must re-plan it, so the
/// next read of the same text answers over the appended rows.
#[test]
fn ingest_replans_the_next_read_of_a_prepared_text() {
    let dir = registry_dir("replan", 600, &[13]);
    let server = start(&dir, ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    // The view admits age = 2, the age of every appended row.
    const TEXT: &str = "Use (Select status, savings, credit From german_syn Where age = 2) \
         Update(status) = 3 Output Count(Post(credit) = 'Good')";
    let read = |client: &mut Client| {
        let r = client.query("/query", "t0", TEXT, &[]).unwrap();
        assert_eq!(r.status, 200, "{:?}", r.json());
        let body = r.json().unwrap();
        (
            body.get("value").and_then(Json::as_f64).unwrap(),
            body.get("view_rows").and_then(Json::as_i64).unwrap(),
        )
    };
    let (before, rows_before) = read(&mut client);
    let rows = age_two_rows();
    let r = client.ingest("t0", "german_syn", &rows, &[]).unwrap();
    assert_eq!(r.status, 200, "{:?}", r.json());

    let (after, rows_after) = read(&mut client);
    assert_eq!(rows_after, rows_before + rows.len() as i64, "new view rows");
    let expect = post_delta_session(&dir, "t0", &rows)
        .whatif_text(TEXT)
        .unwrap();
    assert_eq!(expect.n_view_rows as i64, rows_after);
    assert_eq!(after.to_bits(), expect.value.to_bits(), "post-delta parity");
    assert_ne!(after.to_bits(), before.to_bits(), "the answer moved");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_exposition_is_valid_and_carries_latency_and_phase_series() {
    let dir = registry_dir("metrics", 600, &[12]);
    let server = start(&dir, ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    // Drive every admitted route once so each family has samples.
    let r = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(r.status, 200, "{:?}", r.json());
    let r = client.query("/query", "t0", WHATIF, &[]).unwrap();
    assert_eq!(r.status, 200);
    let r = client.query("/explain", "t0", WHATIF, &[]).unwrap();
    assert_eq!(r.status, 200);
    let rows = vec![vec![
        Json::Int(2),
        Json::Int(1),
        Json::Int(3),
        Json::Int(0),
        Json::Int(1),
        Json::Int(2),
        Json::Str("Good".into()),
    ]];
    let r = client.ingest("t0", "german_syn", &rows, &[]).unwrap();
    assert_eq!(r.status, 200, "{:?}", r.json());

    // Closed-loop load: 4 clients, one request in flight each, can never
    // fill the 64-deep queue, so every answer is 200 and /stats books no
    // shed (checked below). The scrape that follows must still validate.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 10;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = Client::connect(server.addr()).unwrap();
                for _ in 0..REQUESTS {
                    let r = client.query("/query", "t0", WHATIF, &[]).unwrap();
                    assert_eq!(r.status, 200, "{:?}", r.json());
                }
            });
        }
    });

    let response = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(response.status, 200);
    assert!(
        response
            .header("content-type")
            .unwrap()
            .contains("text/plain"),
        "Prometheus scrapes expect text/plain"
    );
    let text = response.text().unwrap();
    let families = hyper_serve::metrics::validate(text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    for family in [
        "hyper_serve_uptime_seconds",
        "hyper_serve_requests_total",
        "hyper_serve_accepted_total",
        "hyper_serve_latency_seconds",
        "hyper_session_phase_seconds_total",
        "hyper_session_data_version",
    ] {
        assert!(families.iter().any(|f| f == family), "missing {family}");
    }
    // Per-tenant quantiles for both stages of the query route.
    for stage in ["queue_wait", "execute"] {
        for q in ["0.5", "0.99"] {
            let series = format!(
                "hyper_serve_latency_seconds{{tenant=\"t0\",route=\"query\",stage=\"{stage}\",quantile=\"{q}\"}}"
            );
            assert!(text.contains(&series), "missing series {series}\n{text}");
        }
    }
    assert!(
        text.contains("route=\"ingest\",stage=\"execute\""),
        "ingest latency is recorded"
    );
    // Tracing is on for tenant sessions: phase self-time shows up.
    assert!(
        text.contains("hyper_session_phase_seconds_total{tenant=\"t0\",phase=\"forest_train\"}"),
        "{text}"
    );
    assert!(text.contains("hyper_session_data_version{tenant=\"t0\"} 1"));

    // Wrong method on /metrics is a 405, like every other route.
    assert_eq!(
        client.request("POST", "/metrics", None).unwrap().status,
        405
    );

    // /stats carries the matching percentile objects and phase totals.
    let stats = client
        .request("GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let t0 = stats.get("tenants").unwrap().get("t0").unwrap();
    assert_eq!(t0.get("shed").and_then(Json::as_i64), Some(0));
    let query_latency = t0.get("latency").unwrap().get("query").unwrap();
    for stage in ["queue_wait", "execute"] {
        let h = query_latency.get(stage).unwrap();
        let count = h.get("count").and_then(Json::as_i64).unwrap();
        assert!(count >= (2 + CLIENTS * REQUESTS) as i64, "{stage}: {count}");
        let p50 = h.get("p50_us").and_then(Json::as_f64).unwrap();
        let p99 = h.get("p99_us").and_then(Json::as_f64).unwrap();
        assert!(p50 >= 0.0 && p99 >= p50, "{stage}: p50={p50} p99={p99}");
    }
    let session = t0.get("session").unwrap();

    // Every declared integer series is on both surfaces.
    let server_object = stats.get("server").unwrap();
    assert_on_both(&SERVER_SERIES, server_object, &families, text);
    assert_on_both(&QUEUE_SERIES, server_object, &families, text);
    assert_on_both(&TENANT_SERIES, t0, &families, text);
    // The server object sums every tenant series.
    assert_on_both(&TENANT_SERIES, server_object, &families, text);
    assert_on_both(&SESSION_SERIES, session, &families, text);
    assert!(
        session
            .get("traced_queries")
            .and_then(Json::as_i64)
            .unwrap()
            >= 3
    );
    let phases = session.get("phases").unwrap();
    let train = phases.get("forest_train").unwrap();
    assert!(train.get("self_ns").and_then(Json::as_i64).unwrap() > 0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every series of `table` has its key in the `/stats` `object` and its
/// family in the `/metrics` exposition `text`, typed as declared.
fn assert_on_both<T>(table: &SeriesTable<T>, object: &Json, families: &[String], text: &str) {
    for s in table.series {
        let (key, family) = (s.key, table.family(s));
        assert!(
            object.get(key).and_then(Json::as_i64).is_some(),
            "/stats lacks {key}"
        );
        assert!(families.contains(&family), "/metrics lacks {family}");
        let typed = format!("# TYPE {family} {}\n", s.kind);
        assert!(text.contains(&typed), "/metrics lacks `{typed}`");
    }
}

/// Outcome rendering itself is exercised against the engine types here
/// (the servers above cover it end-to-end; this pins the float path).
#[test]
fn outcome_json_renders_floats_shortest_round_trip() {
    let outcome = QueryOutcome::WhatIf(hyper_core::WhatIfResult {
        value: 0.1 + 0.2,
        n_view_rows: 3,
        n_scope_rows: 2,
        n_updated_rows: 1,
        backdoor: vec!["z".to_string()],
        trained_rows: 3,
        elapsed: Duration::from_micros(7),
    });
    let rendered = hyper_serve::outcome_json(&outcome).render();
    assert!(
        rendered.contains("\"value\":0.30000000000000004"),
        "{rendered}"
    );
    let back = hyper_serve::json::parse(&rendered).unwrap();
    assert_eq!(
        back.get("value").and_then(Json::as_f64).unwrap().to_bits(),
        (0.1f64 + 0.2).to_bits()
    );
}
