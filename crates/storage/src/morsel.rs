//! Morsel-driven parallel execution over columnar tables.
//!
//! A **morsel** is a fixed-size contiguous range of a table's rows (the
//! Leis et al. "Morsel-Driven Parallelism" unit of scheduling, also the
//! execution model behind DuckDB's vectorized engine). The hot operators
//! — filter, hash join, group-by aggregation, and vectorized expression
//! evaluation — split their input into morsels, evaluate each morsel as
//! an independent task over a [`HyperRuntime`] worker pool, and merge the
//! per-morsel results **in morsel order**.
//!
//! ## The determinism contract
//!
//! Every morsel-parallel path in this crate is **bit-identical**
//! (`f64::to_bits`-level) to its sequential counterpart, for any worker
//! count and any morsel size:
//!
//! * morsel boundaries depend only on `(row_count, morsel_rows)`, never
//!   on the worker count ([`HyperRuntime::for_each_chunked`]);
//! * per-morsel results are merged in morsel order, so concatenated
//!   selections, columns, and join match lists reproduce the sequential
//!   row order exactly;
//! * order-sensitive folds (float aggregate sums, group first-occurrence
//!   order) run over the merged stream in global row order — the
//!   parallel phase only precomputes per-row inputs (selection vectors,
//!   evaluated columns, encoded group keys), never reassociates a float
//!   reduction.
//!
//! The zero-worker runtime degrades to a sequential loop in morsel
//! order, so `workers ∈ {0, 1, N}` all produce the same bytes — this is
//! property-tested in `tests/prop_morsel.rs`.

use std::ops::Range;
use std::sync::OnceLock;

use hyper_runtime::HyperRuntime;

use crate::column::Column;
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::table::Table;
use crate::value::DataType;

/// Default rows per morsel. A multiple of 64 (so sliced null bitmaps copy
/// whole words) sized to keep a handful of columns' worth of payload in
/// cache per task while amortizing the one queue push per morsel.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Tables with at least this many rows take the morsel-parallel path by
/// default (when the runtime has background workers); smaller inputs
/// aren't worth the scheduling overhead.
pub const PARALLEL_ROW_THRESHOLD: usize = 2 * DEFAULT_MORSEL_ROWS;

/// Should an operator over `rows` rows go morsel-parallel on `rt`?
pub fn should_parallelize(rows: usize, rt: &HyperRuntime) -> bool {
    rows >= PARALLEL_ROW_THRESHOLD && rt.workers() > 0
}

/// Run `f(morsel_index, row_range)` once per morsel over the runtime and
/// return the results **in morsel order**, whatever order the tasks ran
/// in. This is the merge-in-morsel-order primitive every parallel
/// operator builds on.
pub fn for_each_morsel<T, F>(rt: &HyperRuntime, rows: usize, morsel_rows: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let morsel_rows = morsel_rows.max(1);
    let count = rows.div_ceil(morsel_rows);
    let slots: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    rt.for_each_chunked(rows, morsel_rows, |range| {
        let m = range.start / morsel_rows;
        let v = f(m, range);
        let set = slots[m].set(v);
        debug_assert!(set.is_ok(), "each morsel runs exactly once");
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every morsel slot is filled"))
        .collect()
}

/// Morsel-parallel [`BoundExpr::eval_selection`]: per-morsel selection
/// vectors (global indices) concatenated in morsel order — bit-identical
/// to the sequential whole-table selection.
pub fn eval_selection_morsels(
    rt: &HyperRuntime,
    expr: &BoundExpr,
    table: &Table,
    morsel_rows: usize,
) -> Result<Vec<usize>> {
    // With no background workers every morsel would run inline on this
    // thread anyway; the whole-table evaluation is bit-identical (see the
    // determinism contract above; `tests/prop_morsel.rs` checks it at 0
    // workers) and skips the per-morsel slot allocation, which costs
    // time on a 1-core host.
    if table.num_rows() == 0 || rt.workers() == 0 {
        return expr.eval_selection(table);
    }
    let parts = for_each_morsel(rt, table.num_rows(), morsel_rows, |_, r| {
        expr.eval_selection_range(table, r.start, r.end - r.start)
    });
    let mut keep = Vec::new();
    for part in parts {
        keep.extend(part?);
    }
    Ok(keep)
}

/// Morsel-parallel [`BoundExpr::eval_column`]: per-morsel columns
/// concatenated in morsel order. Integer arithmetic that overflows in any
/// morsel widens the whole concatenation to floats, reproducing the
/// sequential whole-column promotion, so the result is bit-identical to
/// the sequential evaluation.
pub fn eval_column_morsels(
    rt: &HyperRuntime,
    expr: &BoundExpr,
    table: &Table,
    morsel_rows: usize,
) -> Result<Column> {
    // Same zero-worker fast path as `eval_selection_morsels`:
    // bit-identical by contract, no morsel-slot allocation.
    if table.num_rows() == 0 || rt.workers() == 0 {
        return expr.eval_column(table);
    }
    let parts = for_each_morsel(rt, table.num_rows(), morsel_rows, |_, r| {
        expr.eval_column_range(table, r.start, r.end - r.start)
    });
    let mut chunks = Vec::with_capacity(parts.len());
    for part in parts {
        chunks.push(part?);
    }
    concat_chunks(chunks)
}

/// Concatenate per-morsel result columns in order. Mixed `Int`/`Float`
/// chunks (an arithmetic overflow promoted one morsel) widen to `Float`,
/// matching the sequential whole-column promotion; every other mix is a
/// type error, which cannot happen for chunks of one expression.
pub(crate) fn concat_chunks(chunks: Vec<Column>) -> Result<Column> {
    let has_float = chunks.iter().any(|c| c.data_type() == DataType::Float);
    let has_int = chunks.iter().any(|c| c.data_type() == DataType::Int);
    let mut iter = chunks.into_iter();
    let mut out = iter.next().expect("at least one chunk");
    if has_float && has_int && out.data_type() == DataType::Int {
        let mut widened = Column::with_capacity(DataType::Float, out.len());
        widened.append_column(&out)?;
        out = widened;
    }
    for c in iter {
        out.append_column(&c)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::nullable("s", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..n {
            let s: Value = if i % 5 == 0 {
                Value::Null
            } else {
                ["a", "b", "c"][i % 3].into()
            };
            b.push(vec![Value::Int(i as i64), s]).unwrap();
        }
        b.build()
    }

    #[test]
    fn parallel_selection_matches_sequential() {
        let t = table(100);
        let pred = col("x").ge(lit(17)).and(col("s").eq(lit("a")));
        let bound = pred.bind(t.schema()).unwrap();
        let seq = bound.eval_selection(&t).unwrap();
        for workers in [0, 3] {
            let rt = HyperRuntime::with_workers(workers);
            for morsel_rows in [1, 7, 64, 1000] {
                let par = eval_selection_morsels(&rt, &bound, &t, morsel_rows).unwrap();
                assert_eq!(par, seq, "workers={workers} morsel_rows={morsel_rows}");
            }
        }
    }

    #[test]
    fn parallel_eval_column_widens_like_sequential() {
        // A column whose arithmetic overflows only in one morsel must
        // still widen the whole concatenation to Float.
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..50 {
            let v = if i == 37 { i64::MAX } else { i };
            b.push(vec![Value::Int(v)]).unwrap();
        }
        let t = b.build();
        let e = col("x").plus(lit(1));
        let bound = e.bind(t.schema()).unwrap();
        let seq = bound.eval_column(&t).unwrap();
        assert_eq!(seq.data_type(), DataType::Float);
        let rt = HyperRuntime::with_workers(2);
        let par = eval_column_morsels(&rt, &bound, &t, 8).unwrap();
        assert_eq!(par.data_type(), DataType::Float);
        assert_eq!(par, seq);
    }
}
