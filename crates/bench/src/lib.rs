//! # hyper-bench
//!
//! The experiment harness. The `fidelity` binary reruns the paper's
//! evaluation (§5), prints the rows and series each table or figure
//! reports, and checks the claims they support: one `PASS`/`FAIL` line
//! per claim, and a non-zero exit if any fails. The `bench_smoke` binary
//! is the timing summary. `fidelity [--full] [experiment…]` runs the named
//! experiments, or all of them; `--full` runs at the paper's scale (e.g.
//! 1M-row German-Syn).
//!
//! | experiment | reproduces | claims |
//! |------------|------------|--------|
//! | `table1`   | Table 1 — what-if runtime per dataset and variant | none (timings) |
//! | `fig6`     | Fig. 6 — HypeR-sampled quality and runtime vs sample size | std/mean ≤ 1% at the largest sample |
//! | `fig7`     | Fig. 7 — the two what-if templates | parse, round-trip, evaluate |
//! | `fig8`     | Fig. 8 — per-attribute min/max what-if output (German, Adult) | attribute importance order |
//! | `fig9`     | Fig. 9 — how-to quality/runtime vs bucket count | IP = Opt-discrete, ≥ 0.9 at ≥ 4 buckets |
//! | `fig10`    | Fig. 10 and §5.4 — what-if output vs ground truth per variant; how-to quality | HypeR tracks the truth; IP = Opt-HowTo |
//! | `fig11`    | Fig. 11 — runtime vs query complexity (For / HowToUpdate) | feature and evaluation counts |
//! | `fig12`    | Fig. 12 — runtime vs dataset size | none (timings) |
//! | `usecases` | §5.3 qualitative narratives | German, Adult and Amazon findings |

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use hyper_causal::{CausalGraph, Intervention, InterventionOp, Scm};
use hyper_core::{EngineConfig, HyperSession, SessionBuilder};
use hyper_query::{parse_query, HowToQuery, HypotheticalQuery, WhatIfQuery};
use hyper_storage::{DataType, Database, Field, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Time a closure `reps` times and return the mean duration.
pub fn time_avg<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let (_, d) = time(&mut f);
        total += d;
    }
    total / reps.max(1) as u32
}

/// Render a monospace table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Ground truth of a `do(attr := value)` intervention on a flat SCM: the
/// mean of `score` over the post-intervention `out_col` (an indicator
/// `score` gives a share).
pub fn ground_truth(
    scm: &Scm,
    n: usize,
    seed: u64,
    attr: &str,
    value: Value,
    out_col: &str,
    score: impl Fn(&Value) -> f64,
) -> f64 {
    let (_, post) = scm
        .sample_paired(
            "gt",
            n,
            seed,
            &[Intervention::new(attr, InterventionOp::Set(value))],
            None,
        )
        .expect("valid intervention");
    let col = post.column_by_name(out_col).expect("column exists");
    col.iter().map(|v| score(&v)).sum::<f64>() / col.len() as f64
}

/// Parse a query text that must be a what-if.
pub fn whatif_query(text: &str) -> WhatIfQuery {
    match parse_query(text).expect("query parses") {
        HypotheticalQuery::WhatIf(q) => q,
        HypotheticalQuery::HowTo(_) => panic!("expected a what-if query: {text}"),
    }
}

/// Parse a query text that must be a how-to.
pub fn howto_query(text: &str) -> HowToQuery {
    match parse_query(text).expect("query parses") {
        HypotheticalQuery::HowTo(q) => q,
        HypotheticalQuery::WhatIf(_) => panic!("expected a how-to query: {text}"),
    }
}

/// Append `k` independent noise attributes (`pad_0 … pad_{k-1}`) to a table
/// and register them as root nodes of the graph — used by the Fig-11 query
/// complexity sweeps, which vary attribute counts without changing the
/// causal story.
pub fn pad_with_noise(
    db: &mut Database,
    graph: &mut CausalGraph,
    table: &str,
    k: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = db.table(table).expect("table exists").num_rows();
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(k);
    for _ in 0..k {
        columns.push((0..n).map(|_| Value::Int(rng.gen_range(0..4))).collect());
    }
    let t = db.table_mut(table).expect("table exists");
    for (i, col) in columns.into_iter().enumerate() {
        let name = format!("pad_{i}");
        t.add_column(Field::new(name.clone(), DataType::Int), col)
            .expect("fresh column");
        graph.node(table, &name);
    }
}

/// Shared `Value`-per-cell baselines for the CI smoke run
/// (`bin/bench_smoke.rs`): the reference loops its speedup gates measure
/// against.
pub mod storage_baseline {
    use hyper_ml::{Matrix, TableEncoder};
    use hyper_storage::{col, lit, Expr, Table};

    /// The benchmark predicate over German-Syn: string equality
    /// (dictionary fast path) plus integer comparisons.
    pub fn german_predicate() -> Expr {
        col("credit")
            .eq(lit("Good"))
            .and(col("status").ge(lit(2)))
            .or(col("savings").eq(lit(0)))
    }

    /// The feature columns both encode benchmarks fit over.
    pub fn encoder_columns() -> Vec<String> {
        ["status", "savings", "housing", "credit"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// The seed's `Value`-per-cell filter: bind once, evaluate the
    /// predicate row by row through the compatibility cell API, gather
    /// survivors.
    pub fn filter_row_reference(t: &Table, pred: &Expr) -> Table {
        let bound = pred.bind(t.schema()).unwrap();
        let mut keep = Vec::new();
        for i in 0..t.num_rows() {
            if bound.eval_predicate_at(t, i).unwrap() {
                keep.push(i);
            }
        }
        t.gather(&keep)
    }

    /// The seed's per-row encode loop: materialize each row's feature
    /// cells as `Value`s, encode, push into the matrix — the
    /// `Value`-per-cell baseline the speedup gates compare against.
    pub fn encode_row_reference(enc: &TableEncoder, t: &Table) -> Matrix {
        let idxs: Vec<usize> = enc
            .columns()
            .iter()
            .map(|c| t.schema().index_of(c).unwrap())
            .collect();
        let mut m = Matrix::zeros(0, 0);
        let mut buf = Vec::with_capacity(idxs.len());
        for i in 0..t.num_rows() {
            buf.clear();
            for &c in &idxs {
                buf.push(t.column(c).value(i));
            }
            m.push_row(&enc.encode_values(&buf).unwrap()).unwrap();
        }
        m
    }
}

/// The engine variants of §5 (HypeR-sampled is added per-experiment with
/// the experiment's sample cap).
pub fn variants() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("HypeR", EngineConfig::hyper()),
        ("HypeR-NB", EngineConfig::hyper_nb()),
        ("Indep", EngineConfig::indep()),
    ]
}

/// A builder for a fresh, isolated session (graph dropped for NB/Indep,
/// as in the paper's setup). It neither reads nor feeds the process-wide
/// shared store, so the first query of each session built from it pays
/// its own view build and training: build one per timed call to time a
/// cold query.
pub fn cold_session(
    db: &Arc<Database>,
    graph: &Arc<CausalGraph>,
    config: &EngineConfig,
) -> SessionBuilder {
    let g = match config.backdoor {
        hyper_core::BackdoorMode::FromGraph => Some(Arc::clone(graph)),
        _ => None,
    };
    HyperSession::builder(Arc::clone(db))
        .maybe_graph(g)
        .config(config.clone())
        .share_artifacts(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_adds_columns_and_nodes() {
        let data = hyper_datasets::german_syn(100, 1);
        let mut db = data.db.clone();
        let mut graph = data.graph.clone();
        let before = db.table("german_syn").unwrap().num_columns();
        pad_with_noise(&mut db, &mut graph, "german_syn", 3, 7);
        assert_eq!(db.table("german_syn").unwrap().num_columns(), before + 3);
        assert!(graph.node_id("german_syn", "pad_2").is_ok());
    }

    #[test]
    fn ground_truth_gives_shares_and_means() {
        let data = hyper_datasets::german_syn_extended(100, 2);
        let scm = data.scm.unwrap();
        let status = || Value::Int(3);
        let good = |v: &Value| f64::from(u8::from(v.as_str() == Some("Good")));
        let share = ground_truth(&scm, 2000, 3, "status", status(), "credit", good);
        assert!((0.0..=1.0).contains(&share));
        let rate = |v: &Value| v.as_f64().unwrap_or(0.0);
        let mean = ground_truth(&scm, 2000, 3, "status", status(), "interest_rate", rate);
        assert!(mean > 0.0);
    }

    #[test]
    fn query_helpers_check_the_kind() {
        let q = whatif_query("Use t Update(a) = 1 Output Count(*)");
        assert_eq!(q.updates.len(), 1);
        let h = howto_query("Use t HowToUpdate a ToMaximize Avg(Post(b))");
        assert_eq!(h.update_attrs, ["a"]);
        let what_if = "Use t Update(a) = 1 Output Count(*)";
        assert!(std::panic::catch_unwind(|| howto_query(what_if)).is_err());
    }
}
