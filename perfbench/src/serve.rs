//! `serve_rw_200k`: `hyper-serve` over a German-Syn snapshot, driven by two
//! persistent connections in a closed loop with 5% writes.

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hyper_core::Phase;
use hyper_serve::{Client, ClientResponse, Json, Route, ServeConfig, Server};
use hyper_storage::Schema;
use hyper_store::SnapshotRegistry;

use crate::library::{common_layers, expect_bits, timed_setups, Loaded};
use crate::measure::{ms_since, peak_rss_mib, percentile_of, WindowClock};
use crate::report::{emit_end_to_end, emit_layers, EndToEnd, Layers, Tally};
use crate::{wrong, Ctx, SETUPS_AFTER, SETUPS_BEFORE};

const TENANT: &str = "t0";
const TABLE: &str = "german_syn";

/// The two read templates, issued alternately on each connection. Their
/// views project different columns of the same rows (`age < 2`), so both
/// cost the same and the latency distribution has one mode; every appended
/// row has `age = 2`, so writes never touch either view.
const READS: [&str; 2] = [
    "Use (Select status, credit From german_syn Where age < 2) \
     Update(status) = 3 Output Count(Post(credit) = 'Good')",
    "Use (Select savings, credit From german_syn Where age < 2) \
     Update(savings) = 3 Output Count(Post(credit) = 'Good')",
];

const CONNECTIONS: usize = 2;
/// Every `WRITE_EVERY`-th request on connection 0 is a write.
const WRITE_EVERY: u64 = 10;
/// Requests per latency sample on one connection, about 0.35 s. A whole
/// number of write periods, so every group of a connection holds the same
/// mix.
const GROUP: u64 = 3 * WRITE_EVERY;
const ROWS_PER_WRITE: u64 = 10;

/// One request answered with 200.
struct Sample {
    write: bool,
    /// Client-observed latency.
    ms: f64,
    /// `(views kept, views dropped, estimators kept, estimators dropped)`
    /// of a write's refresh report.
    kept: [u64; 4],
}

/// What one connection did in the timed window.
#[derive(Default)]
struct Conn {
    samples: Vec<Sample>,
    /// Mean per-request latency of each group answered in full.
    group_ms: Vec<f64>,
    attempted: u64,
    /// Requests refused (503), timed out (504) or lost with the connection.
    failed: u64,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 64,
        ..ServeConfig::default()
    }
}

/// A read's answer as the server rendered it.
fn read_value(r: &ClientResponse) -> Result<f64, String> {
    r.json()?
        .get("value")
        .and_then(Json::as_f64)
        .ok_or_else(|| "reply has no numeric `value`".to_string())
}

/// The refresh report fields of a write reply.
fn write_report(r: &ClientResponse) -> Result<[u64; 4], String> {
    let doc = r.json()?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_i64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("ingest reply has no `{k}`"))
    };
    Ok([
        field("views_kept")?,
        field("views_invalidated")?,
        field("estimators_kept")?,
        field("estimators_invalidated")?,
    ])
}

/// A deterministic 64-bit mix (SplitMix64), for the appended rows.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rows of write number `n`: `age = 2`, every other attribute drawn
/// from the seed within German-Syn's domains.
fn write_rows(schema: &Schema, seed: u64, n: u64) -> Result<Vec<Vec<Json>>, String> {
    (0..ROWS_PER_WRITE)
        .map(|r| {
            let mut z = mix(seed ^ mix(n * ROWS_PER_WRITE + r));
            schema
                .fields()
                .iter()
                .map(|f| {
                    z = mix(z);
                    let pick = |levels: u64| Json::Int((z % levels) as i64);
                    Ok(match f.name.as_str() {
                        "age" => Json::Int(2),
                        "sex" => pick(2),
                        "status" | "savings" | "credit_amount" => pick(4),
                        "housing" => pick(3),
                        "credit" => Json::Str(["Good", "Bad"][(z % 2) as usize].into()),
                        other => return Err(format!("unexpected column `{other}`")),
                    })
                })
                .collect()
        })
        .collect()
}

/// A server that is shut down in order when dropped.
struct Running(Option<Server>);

impl Running {
    fn server(&self) -> &Server {
        self.0.as_ref().expect("running until dropped")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// What both connections of the timed window share.
struct Load<'a> {
    server: &'a Server,
    clock: WindowClock,
    /// Groups started so far, over both connections.
    groups: AtomicU64,
    /// Writes issued so far; numbers each write's rows.
    writes: AtomicU64,
    schema: &'a Schema,
    seed: u64,
    /// The library's answer for each read template.
    expected: [f64; 2],
}

impl Load<'_> {
    /// One connection's closed loop until the shared clock runs out.
    fn connection(&self, conn: usize) -> Result<Conn, String> {
        let connect = || Client::connect(self.server.addr()).map_err(|e| e.to_string());
        let mut client = connect()?;
        let mut out = Conn::default();
        let mut reads = 0usize;
        while self.clock.more(self.groups.fetch_add(1, Ordering::Relaxed)) {
            let group_start = Instant::now();
            let mut group_ok = true;
            for i in 0..GROUP {
                let write = conn == 0 && i % WRITE_EVERY == WRITE_EVERY - 1;
                out.attempted += 1;
                let t0 = Instant::now();
                let (reply, template) = if write {
                    let n = self.writes.fetch_add(1, Ordering::Relaxed);
                    let rows = write_rows(self.schema, self.seed, n)?;
                    (client.ingest(TENANT, TABLE, &rows, &[]), None)
                } else {
                    let t = reads % READS.len();
                    reads += 1;
                    (client.query("/query", TENANT, READS[t], &[]), Some(t))
                };
                let ms = ms_since(t0);
                let r = match reply {
                    Ok(r) if r.status == 200 => r,
                    // Shedding and timeouts are the server's documented
                    // answers to overload: counted, not wrong.
                    Ok(r) if !write && (r.status == 503 || r.status == 504) => {
                        eprintln!("read answered {}", r.status);
                        out.failed += 1;
                        group_ok = false;
                        continue;
                    }
                    Ok(r) => wrong(&format!(
                        "{} answered {}: {:?}",
                        if write { "an ingest" } else { "a read" },
                        r.status,
                        r.text()
                    )),
                    Err(e) => {
                        eprintln!("request failed: {e}");
                        out.failed += 1;
                        group_ok = false;
                        client = connect()?;
                        continue;
                    }
                };
                let mut kept = [0; 4];
                match template {
                    Some(t) => expect_bits(read_value(&r)?, self.expected[t], "served what-if"),
                    None => {
                        kept = write_report(&r)?;
                        if kept[0] < READS.len() as u64 {
                            wrong(&format!(
                                "an ingest kept {} view(s); both read views must survive",
                                kept[0]
                            ));
                        }
                    }
                }
                out.samples.push(Sample { write, ms, kept });
            }
            if group_ok {
                out.group_ms.push(ms_since(group_start) / GROUP as f64);
            }
        }
        Ok(out)
    }
}

/// `perfbench reference <snapshot>`: time `Snapshot::load` a few times and
/// answer each read template with the library on the loaded snapshot.
/// Prints the load times in ms, then the answers' bit patterns.
pub fn reference(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("reference takes <snapshot>".into());
    };
    let mut load_ms = Vec::new();
    for _ in 1..REFERENCE_LOADS {
        Loaded::load(Path::new(path), &mut load_ms)?;
    }
    let session = Loaded::load(Path::new(path), &mut load_ms)?.session(false, false);
    let bits: Vec<String> = READS
        .iter()
        .map(|text| {
            let value = session.whatif_text(text).map_err(|e| e.to_string())?.value;
            Ok(format!("{:x}", value.to_bits()))
        })
        .collect::<Result<_, String>>()?;
    let loads: Vec<String> = load_ms.iter().map(f64::to_string).collect();
    println!("{}", loads.join(" "));
    println!("{}", bits.join(" "));
    Ok(())
}

/// Snapshot loads the reference process times.
const REFERENCE_LOADS: usize = 3;

/// Parse what [`reference`] printed.
fn parse_reference(out: &str) -> Result<(Vec<f64>, [f64; 2]), String> {
    let bad = || format!("unexpected reference output {out:?}");
    let mut lines = out.lines();
    let load_ms = lines
        .next()
        .ok_or_else(bad)?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| bad()))
        .collect::<Result<Vec<f64>, String>>()?;
    let values = lines
        .next()
        .ok_or_else(bad)?
        .split_whitespace()
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|_| bad())
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let expected = values.try_into().map_err(|_| bad())?;
    Ok((load_ms, expected))
}

/// One read on a fresh connection, as the set-up's warm-up.
fn query(server: &Server, text: &str) -> Result<f64, String> {
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let r = client
        .query("/query", TENANT, text, &[])
        .map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("warm-up answered {}: {:?}", r.status, r.text()));
    }
    read_value(&r)
}

pub fn serve_rw(ctx: &Ctx) -> Result<(), String> {
    // The registry holds only the snapshot: set-ups do not write, so no
    // delta log exists outside the timed window.
    let registry = ctx.data.join("registry");
    std::fs::create_dir_all(&registry).map_err(|e| e.to_string())?;
    std::fs::copy(&ctx.snapshot, registry.join(format!("{TENANT}.hypr")))
        .map_err(|e| format!("copy snapshot: {e}"))?;

    // The library's answers for the read texts on the initial snapshot,
    // and the bench-side `Snapshot::load` times, come from a child process,
    // so that this process holds only the server and its clients.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("reference")
        .arg(&ctx.snapshot)
        .output()
        .map_err(|e| format!("reference process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference process exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let (load_ms, expected) = parse_reference(&String::from_utf8_lossy(&out.stdout))?;

    let mut setup_s = Vec::new();
    let mut setup = || {
        let running = Running(Some(
            Server::start(&registry, serve_config()).map_err(|e| e.to_string())?,
        ));
        // Set-up ends when each read template has answered once.
        for (text, want) in READS.iter().zip(expected) {
            expect_bits(
                query(running.server(), text)?,
                want,
                "served what-if at set-up",
            );
        }
        Ok(running)
    };
    let running = timed_setups(&mut setup_s, SETUPS_BEFORE, &mut setup)?;
    let server = running.server();

    let tenant = server
        .tenants()
        .loaded(TENANT)
        .ok_or("the tenant did not load")?;
    let schema = tenant
        .session()
        .database()
        .table(TABLE)
        .map_err(|e| e.to_string())?
        .schema()
        .clone();
    let before = tenant.session().snapshot();
    let shed_before = server.stats().total(|c| &c.shed);
    let load = Load {
        server,
        clock: WindowClock::start(ctx.seconds),
        groups: AtomicU64::new(0),
        writes: AtomicU64::new(0),
        schema: &schema,
        seed: ctx.seed,
        expected,
    };
    let per_conn: Vec<Result<Conn, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let load = &load;
                s.spawn(move || load.connection(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let (mut samples, mut group_ms, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0, 0);
    for c in per_conn {
        let c = c?;
        samples.extend(c.samples);
        group_ms.extend(c.group_ms);
        attempted += c.attempted;
        failed += c.failed;
    }
    if group_ms.is_empty() {
        return Err(format!(
            "no request group was answered in full ({failed} failed)"
        ));
    }
    let groups = (0..group_ms.len() as u64).collect();
    let w = load.clock.finish(group_ms, groups, attempted, failed);
    let peak = peak_rss_mib();

    let tally = Tally::between(&before, &tenant.session().snapshot());
    if tally.estimator_misses != 0 {
        wrong(&format!(
            "serve reads retrained {} estimator(s) across writes",
            tally.estimator_misses
        ));
    }
    // The server's counters are read before it stops.
    let layers = ctx.trace.then(|| {
        let mut layers = Layers::default();
        common_layers(&mut layers, &w, &load_ms);
        // Tenant sessions always trace, so every operation is traced.
        let ops = w.attempted as f64;
        layers.session(&tally, ops, ops);
        serve_layers(&mut layers, server, &samples, &tally, shed_before);
        layers
    });
    drop((tenant, running));
    // Later set-ups must not replay the window's writes.
    let log = SnapshotRegistry::open(&registry)
        .map_err(|e| e.to_string())?
        .delta_log_path(TENANT);
    std::fs::remove_file(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    timed_setups(&mut setup_s, SETUPS_AFTER, &mut setup)?;

    match layers {
        Some(layers) => emit_layers(&layers, &w),
        None => emit_end_to_end(&EndToEnd {
            setup_s: &setup_s,
            window: &w,
            peak_rss_mib: peak,
        }),
    }
    Ok(())
}

/// The serve and ingest layers of the window.
fn serve_layers(
    layers: &mut Layers,
    server: &Server,
    samples: &[Sample],
    tally: &Tally,
    shed_before: u64,
) {
    let lat = |write: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.write == write)
            .map(|s| s.ms)
            .collect()
    };
    let (reads, writes) = (lat(false), lat(true));
    let kept: [u64; 4] = samples.iter().fold([0; 4], |mut acc, s| {
        for (a, k) in acc.iter_mut().zip(s.kept) {
            *a += k;
        }
        acc
    });
    let ratio = |kept: u64, dropped: u64| kept as f64 / (kept + dropped).max(1) as f64;
    let counters = server.stats().tenant(TENANT);
    let latency = counters.latency(Route::Query);
    let read_p50 = percentile_of(&reads, 50.0);
    let queue_p50 = latency.queue_wait.snapshot().p50() / 1e6;
    let exec_p50 = latency.execute.snapshot().p50() / 1e6;

    layers.set("ingest.write_p50_ms", percentile_of(&writes, 50.0));
    layers.set(
        "ingest.refresh_ms",
        tally.phase_ns[Phase::Refresh as usize] as f64 / 1e6 / (writes.len().max(1) as f64),
    );
    layers.set("ingest.views_kept_ratio", ratio(kept[0], kept[1]));
    layers.set("ingest.estimators_kept_ratio", ratio(kept[2], kept[3]));
    layers.set("serve.read_p50_ms", read_p50);
    layers.set("serve.queue_wait_p50_ms", queue_p50);
    layers.set("serve.execute_p50_ms", exec_p50);
    layers.set("serve.overhead_ms", read_p50 - queue_p50 - exec_p50);
    layers.set(
        "serve.shed",
        (server.stats().total(|c| &c.shed) - shed_before) as f64,
    );
}
