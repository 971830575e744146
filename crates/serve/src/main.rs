//! `hyper-serve` — serve a registry of HypeR snapshots over HTTP.
//!
//! ```text
//! hyper-serve --registry DIR [--addr HOST:PORT] [--workers N]
//!             [--queue-depth N] [--request-timeout-ms MS]
//!             [--persist-dir DIR]
//! ```
//!
//! Endpoints: `POST /query`, `/explain`, `/ingest`; `GET /stats`,
//! `/health`, `/metrics`.
//!
//! The process serves until stdin reaches EOF or the process receives a
//! termination signal, then drains in-flight requests and exits.

use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

use hyper_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: hyper-serve --registry DIR [options]

Serve every <tenant>.hypr snapshot in DIR over HTTP.

options:
  --addr HOST:PORT          bind address (default 127.0.0.1:7878)
  --workers N               executor threads running engine work (default 2)
  --queue-depth N           admission queue depth; overflow sheds 503 (default 64)
  --request-timeout-ms MS   per-request deadline, answered 504 (default 30000)
  --persist-dir DIR         disk artifact tier for warm starts (default off)

endpoints: POST /query, POST /explain, POST /ingest,
           GET /stats, GET /health, GET /metrics
The server runs until stdin closes, then drains in-flight work."
    );
    std::process::exit(2);
}

fn parse_args() -> (String, ServeConfig) {
    let mut registry = None;
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value\n");
                usage()
            })
        };
        match arg.as_str() {
            "--registry" => registry = Some(value("--registry")),
            "--addr" => config.addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--queue-depth" => match value("--queue-depth").parse() {
                Ok(n) if n > 0 => config.queue_depth = n,
                _ => usage(),
            },
            "--request-timeout-ms" => match value("--request-timeout-ms").parse() {
                Ok(ms) if ms > 0 => config.request_timeout = Duration::from_millis(ms),
                _ => usage(),
            },
            "--persist-dir" => config.persist_dir = Some(value("--persist-dir").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}\n");
                usage();
            }
        }
    }
    match registry {
        Some(r) => (r, config),
        None => {
            eprintln!("error: --registry is required\n");
            usage();
        }
    }
}

fn main() -> ExitCode {
    let (registry, config) = parse_args();
    let server = match Server::start(&registry, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tenants: Vec<String> = server
        .tenants()
        .registry()
        .tenants()
        .map(str::to_string)
        .collect();
    eprintln!(
        "hyper-serve listening on http://{} — {} tenant(s): {}",
        server.addr(),
        tenants.len(),
        if tenants.is_empty() {
            "(none)".to_string()
        } else {
            tenants.join(", ")
        }
    );
    eprintln!("serving until stdin closes; then draining in-flight requests");
    // Block until the operator (or the supervising process) closes
    // stdin — the simplest portable signal available without libc.
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    eprintln!("stdin closed; draining…");
    server.shutdown();
    eprintln!("drained; goodbye");
    ExitCode::SUCCESS
}
