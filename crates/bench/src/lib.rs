//! # hyper-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§5), printing the same rows/series the paper reports, and
//! the `bench_smoke` timing harness. Binaries accept `--full` to run at
//! the paper's full scale (e.g. 1M-row German-Syn) and `--quick` for smoke
//! runs.
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1`   | Table 1 — what-if runtime per dataset and variant |
//! | `fig6`     | Fig. 6 — HypeR-sampled quality and runtime vs sample size |
//! | `fig8`     | Fig. 8 — per-attribute min/max what-if output (German, Adult) |
//! | `fig9`     | Fig. 9 — how-to quality/runtime vs bucket count |
//! | `fig10`    | Fig. 10 — what-if output vs ground truth per variant |
//! | `fig11`    | Fig. 11 — runtime vs query complexity (For / HowToUpdate) |
//! | `fig12`    | Fig. 12 — runtime vs dataset size |
//! | `usecases` | §5.3 qualitative narratives |

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use hyper_causal::{CausalGraph, Scm};
use hyper_core::{EngineConfig, HyperSession, SessionBuilder};
use hyper_storage::{DataType, Database, Field, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Command-line scale flags shared by the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// Run at the paper's full scale (slow).
    pub full: bool,
    /// Smoke-test scale.
    pub quick: bool,
}

impl Flags {
    /// Parse from `std::env::args`.
    pub fn parse() -> Flags {
        let args: Vec<String> = std::env::args().collect();
        Flags {
            full: args.iter().any(|a| a == "--full"),
            quick: args.iter().any(|a| a == "--quick"),
        }
    }

    /// Pick a size by scale: `(quick, default, full)`.
    pub fn size(&self, quick: usize, default: usize, full: usize) -> usize {
        if self.full {
            full
        } else if self.quick {
            quick
        } else {
            default
        }
    }
}

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

/// Ground truth for a `do(attr := value)` intervention on a flat SCM:
/// the post-update share of rows satisfying `pred` over `out_col`.
pub fn ground_truth_share(
    scm: &Scm,
    n: usize,
    seed: u64,
    attr: &str,
    value: Value,
    pred: impl Fn(&Value) -> bool,
    out_col: &str,
) -> f64 {
    let (_, post) = scm
        .sample_paired(
            "gt",
            n,
            seed,
            &[hyper_causal::Intervention::new(
                attr,
                hyper_causal::InterventionOp::Set(value),
            )],
            None,
        )
        .expect("valid intervention");
    let col = post.column_by_name(out_col).expect("column exists");
    col.iter().filter(|v| pred(v)).count() as f64 / col.len() as f64
}

/// Ground truth mean of `out_col` under a `do(attr := value)` intervention.
pub fn ground_truth_mean(
    scm: &Scm,
    n: usize,
    seed: u64,
    attr: &str,
    value: Value,
    out_col: &str,
) -> f64 {
    let (_, post) = scm
        .sample_paired(
            "gt",
            n,
            seed,
            &[hyper_causal::Intervention::new(
                attr,
                hyper_causal::InterventionOp::Set(value),
            )],
            None,
        )
        .expect("valid intervention");
    let col = post.column_by_name(out_col).expect("column exists");
    col.iter().map(|v| v.as_f64().unwrap_or(0.0)).sum::<f64>() / col.len() as f64
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
    /// cells, encode, push into the matrix. (Deliberately exercises the
    /// deprecated cell API — it *is* the `Value`-per-cell baseline the
    /// speedup gates compare against.)
    #[allow(deprecated)]
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
                buf.push(t.get(i, c));
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

/// Build a session for a dataset + config (graph dropped for NB/Indep, as
/// in the paper's setup).
pub fn session_for(db: &Database, graph: &CausalGraph, config: &EngineConfig) -> HyperSession {
    let g = match config.backdoor {
        hyper_core::BackdoorMode::FromGraph => Some(graph.clone()),
        _ => None,
    };
    HyperSession::builder(db.clone())
        .maybe_graph(g)
        .config(config.clone())
        .build()
}

/// A builder for a fresh, isolated session (graph dropped for NB/Indep,
/// as in [`session_for`]). It neither reads nor feeds the process-wide
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
    fn flags_defaults() {
        let f = Flags {
            full: false,
            quick: false,
        };
        assert_eq!(f.size(1, 2, 3), 2);
        assert_eq!(
            Flags {
                full: true,
                quick: false
            }
            .size(1, 2, 3),
            3
        );
        assert_eq!(
            Flags {
                full: false,
                quick: true
            }
            .size(1, 2, 3),
            1
        );
    }

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
    fn ground_truth_helpers_run() {
        let data = hyper_datasets::german_syn_extended(100, 2);
        let scm = data.scm.unwrap();
        let share = ground_truth_share(
            &scm,
            2000,
            3,
            "status",
            Value::Int(3),
            |v| v.as_str() == Some("Good"),
            "credit",
        );
        assert!((0.0..=1.0).contains(&share));
        let mean = ground_truth_mean(&scm, 2000, 3, "status", Value::Int(3), "interest_rate");
        assert!(mean > 0.0);
    }
}
