//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload whatif_warm_200k --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Run from the repository root. Three closed-loop workloads over the
//! public API (each client waits for its reply before sending the next
//! request):
//!
//! - `whatif_warm_200k` — German-Syn 200k, one session, one prepared
//!   what-if; every artifact is cached, so an operation is the evaluation.
//! - `howto_10k` — German-Syn-ext 10k, a four-attribute how-to with 4
//!   buckets on a fresh non-sharing session per operation: candidate
//!   fan-out, per-candidate training and the IP.
//! - `serve_rw_200k` — `hyper-serve` over a German-Syn 200k snapshot with
//!   2 executors and a 64-deep queue, 2 persistent connections; reads
//!   alternate two filtered what-ifs of equal cost and every 10th request
//!   on connection 0 ingests 10 rows (5% writes) that fall outside both
//!   views. It runs with `MALLOC_ARENA_MAX=1`.
//!
//! The inputs are generated from `--seed` by a child process (`perfbench
//! gen ...`), which writes a `HYPR1` snapshot under `.perfbench_data/` in
//! the working directory; the generator's memory therefore never shows in
//! this process's peak RSS. For the same reason `serve_rw_200k` takes the
//! library's reference answers from a second child (`perfbench reference
//! ...`). Set-up — `Snapshot::load`, building the
//! session or server, one warm-up operation per query text — is timed
//! several times before the timed window and several times after it, and
//! reported as the median. The window of `--seconds` measures the workload;
//! every answer is checked bit-for-bit against a reference, and a wrong
//! answer, a library error or a server reply other than 200 (503 and 504
//! on reads excepted: those count as failed) exits with code 3 without
//! printing a result. Latency percentiles are taken over groups of
//! consecutive queries on one client, each timed as a whole and divided by
//! its size (see [`measure::Window`]); throughput and CPU time count
//! queries. Peak RSS is read at the end of the window.
//!
//! With `--trace 0` the last stdout line holds the end-to-end metrics of an
//! untraced window: `setup_s`, `query_p50_ms`, `query_p90_ms`,
//! `queries_per_s`, `cpu_ms_per_query` and `peak_rss_mb`. With `--trace 1`
//! even groups run traced and odd ones untraced, and the line holds the
//! per-layer breakdown (see [`report::PER_LAYER`]); phase times are
//! exclusive self time per traced operation, summed over threads, and a
//! layer that does not run in a workload reads 0. Serve tenants always
//! trace, so its two modes run the same window and its
//! `trace.overhead_ratio` reads 0.
//!
//! Exit codes: 0 with a result line, 1 on an error, 2 on bad arguments, 3
//! on a wrong answer, 4 when tracing slows `whatif_warm_200k` by more than
//! 5%.

mod library;
mod measure;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::{exit, Command};
use std::sync::OnceLock;

/// Set-ups timed before the window and after it; `setup_s` is the median
/// of all of them. Spreading them over the run keeps one slow moment of a
/// shared machine from setting the median.
pub const SETUPS_BEFORE: usize = 5;
pub const SETUPS_AFTER: usize = 4;

/// What a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's storage directory.
    pub data: PathBuf,
    /// The generated input snapshot.
    pub snapshot: PathBuf,
}

struct Workload {
    name: &'static str,
    /// `german_syn` or `german_syn_ext`.
    dataset: &'static str,
    rows: usize,
    /// `MALLOC_ARENA_MAX` the workload runs under, when not the default.
    arena_max: Option<&'static str>,
    run: fn(&Ctx) -> Result<(), String>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "whatif_warm_200k",
        arena_max: None,
        dataset: "german_syn",
        rows: 200_000,
        run: library::whatif_warm,
    },
    Workload {
        name: "howto_10k",
        arena_max: None,
        dataset: "german_syn_ext",
        rows: 10_000,
        run: library::howto,
    },
    Workload {
        name: "serve_rw_200k",
        // With glibc's default per-thread arenas, peak RSS of the threaded
        // server swings by a quarter between identical runs; one arena
        // makes it repeat. The library workloads keep the default: one
        // arena slows the how-to's parallel training by about a third.
        arena_max: Some("1"),
        dataset: "german_syn",
        rows: 200_000,
        run: serve::serve_rw,
    },
];

/// The storage directory, removed on every exit path.
static DATA: OnceLock<PathBuf> = OnceLock::new();

fn cleanup() {
    if let Some(dir) = DATA.get() {
        std::fs::remove_dir_all(dir).ok();
        if let Some(parent) = dir.parent() {
            // Only succeeds when no other run is using it.
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// A wrong answer: report it and exit non-zero without a result line.
pub fn wrong(msg: &str) -> ! {
    eprintln!("perfbench: WRONG ANSWER: {msg}");
    cleanup();
    exit(3)
}

/// A limit the program must keep, other than correctness, was broken:
/// report it and exit non-zero without a result line.
pub fn over_budget(msg: &str) -> ! {
    eprintln!("perfbench: OVER BUDGET: {msg}");
    cleanup();
    exit(4)
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    exit(2)
}

/// `perfbench gen <dataset> <rows> <seed> <path>`: generate a scenario and
/// save it as a snapshot.
fn generate(args: &[String]) -> Result<(), String> {
    let [dataset, rows, seed, path] = args else {
        return Err("gen takes <dataset> <rows> <seed> <path>".into());
    };
    let rows: usize = rows.parse().map_err(|_| "bad row count")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let data = match dataset.as_str() {
        "german_syn" => hyper_datasets::german_syn(rows, seed),
        "german_syn_ext" => hyper_datasets::german_syn_extended(rows, seed),
        other => return Err(format!("unknown dataset {other}")),
    };
    hyper_store::Snapshot::new(data.db, Some(data.graph))
        .save(path)
        .map_err(|e| format!("save snapshot: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let opt = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let name = opt("--workload");
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage());
    let seed: u64 = opt("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = opt("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match opt("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };

    if let Some(arenas) = workload.arena_max {
        if std::env::var("MALLOC_ARENA_MAX").ok().as_deref() != Some(arenas) {
            // The allocator reads the variable at start-up: run the
            // workload in a child that has it.
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let status = Command::new(exe)
                .args(args)
                .env("MALLOC_ARENA_MAX", arenas)
                .status()
                .map_err(|e| format!("workload process: {e}"))?;
            exit(status.code().unwrap_or(1));
        }
    }

    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let data = cwd
        .join(".perfbench_data")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    DATA.set(data.clone()).expect("set once");
    let snapshot = data.join("input.hypr");

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("gen")
        .arg(workload.dataset)
        .arg(workload.rows.to_string())
        .arg(seed.to_string())
        .arg(&snapshot)
        .status()
        .map_err(|e| format!("input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator exited with {status}"));
    }

    println!(
        "# workload {name} seed {seed} dataset {} rows {} trace {} storage {} nproc {} runtime.workers {} setups {SETUPS_BEFORE}+{SETUPS_AFTER}",
        workload.dataset,
        workload.rows,
        trace as u8,
        data.display(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        hyper_runtime::HyperRuntime::global().workers(),
    );
    (workload.run)(&Ctx {
        seed,
        seconds,
        trace,
        data,
        snapshot,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => generate(&args[1..]),
        Some("reference") => serve::reference(&args[1..]),
        _ => run(&args),
    };
    cleanup();
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}
