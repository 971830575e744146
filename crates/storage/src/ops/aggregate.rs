//! Group-by aggregation with the decomposable aggregates HypeR supports
//! (`Count`, `Sum`, `Avg` — Definition 6 of the paper) plus `Min`/`Max`
//! for statistics.

use std::collections::HashMap;
use std::fmt;

use hyper_runtime::HyperRuntime;

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::expr::Expr;
use crate::morsel::{self, DEFAULT_MORSEL_ROWS};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`; counts `true`s when the input expression
    /// is boolean (the paper writes `Count(Credit = Good)`), otherwise counts
    /// non-NULL values.
    Count,
    /// Sum of numeric values (NULLs skipped).
    Sum,
    /// Arithmetic mean of numeric values (NULLs skipped).
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// Parse a (case-insensitive) function name.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" | "AVERAGE" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// An aggregate expression `func(input) AS alias`. `input = None` means `*`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input expression; `None` for `COUNT(*)`.
    pub input: Option<Expr>,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// Construct an aggregate expression.
    pub fn new(func: AggFunc, input: Option<Expr>, alias: impl Into<String>) -> Self {
        AggExpr {
            func,
            input,
            alias: alias.into(),
        }
    }

    /// Output column type. `Min`/`Max` preserve the evaluated input's type
    /// (they return observed values verbatim); `Count` is integer, the
    /// arithmetic aggregates are float.
    fn output_type(&self, evaluated_input: Option<&Column>) -> DataType {
        match self.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Min | AggFunc::Max => evaluated_input.map_or(DataType::Int, Column::data_type),
            _ => DataType::Float,
        }
    }
}

/// Incremental accumulator for one (group, aggregate) pair.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Fold one input value (already the evaluated aggregate argument; pass
    /// `Value::Int(1)` per row for `COUNT(*)`).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match self.func {
            AggFunc::Count => match v {
                Value::Null => {}
                Value::Bool(true) => self.count += 1,
                Value::Bool(false) => {}
                _ => self.count += 1,
            },
            AggFunc::Sum | AggFunc::Avg => {
                if !v.is_null() {
                    let x = v.as_f64().ok_or_else(|| {
                        StorageError::TypeError(format!("{} expects numeric, got {v}", self.func))
                    })?;
                    self.sum += x;
                    self.count += 1;
                }
            }
            AggFunc::Min => {
                if !v.is_null() {
                    let replace = match &self.min {
                        None => true,
                        Some(cur) => v.sql_cmp(cur).is_some_and(|o| o.is_lt()),
                    };
                    if replace {
                        self.min = Some(v.clone());
                    }
                }
            }
            AggFunc::Max => {
                if !v.is_null() {
                    let replace = match &self.max {
                        None => true,
                        Some(cur) => v.sql_cmp(cur).is_some_and(|o| o.is_gt()),
                    };
                    if replace {
                        self.max = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Final value of the aggregate.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Group `input` by the named columns and compute the aggregates.
///
/// With an empty `group_by`, produces exactly one row (global aggregates),
/// even over an empty input.
///
/// Vectorized: every aggregate input expression is evaluated once over the
/// whole table ([`crate::BoundExpr::eval_column`]), group keys are hashed
/// as typed `(tag, bits)` parts straight off the column buffers, and the
/// output's group columns are a typed `gather` of each group's first row.
///
/// Large inputs go morsel-parallel over the global [`HyperRuntime`]: the
/// agg-input columns and flattened group-key parts are produced per morsel
/// in parallel, but the accumulator fold runs over the merged stream in
/// global row order, so float sums and first-occurrence group order are
/// bit-identical to the sequential path (see [`crate::morsel`]).
pub fn aggregate(input: &Table, group_by: &[String], aggs: &[AggExpr]) -> Result<Table> {
    let rt = HyperRuntime::global();
    if morsel::should_parallelize(input.num_rows(), rt) {
        aggregate_on(rt, input, group_by, aggs, DEFAULT_MORSEL_ROWS)
    } else {
        // One morsel spanning the whole table: the plain sequential fold.
        aggregate_on(rt, input, group_by, aggs, input.num_rows().max(1))
    }
}

/// [`aggregate`] on a caller-chosen runtime and morsel size (the parity
/// tests drive this across worker counts and morsel sizes).
pub fn aggregate_on(
    rt: &HyperRuntime,
    input: &Table,
    group_by: &[String],
    aggs: &[AggExpr],
    morsel_rows: usize,
) -> Result<Table> {
    let morsel_rows = morsel_rows.max(1);
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|c| input.schema().index_of(c))
        .collect::<Result<_>>()?;
    // Evaluate each aggregate's input over all rows, morsel-parallel.
    let input_cols: Vec<Option<Column>> = aggs
        .iter()
        .map(|a| {
            a.input
                .as_ref()
                .map(|e| {
                    let bound = e.bind(input.schema())?;
                    morsel::eval_column_morsels(rt, &bound, input, morsel_rows)
                })
                .transpose()
        })
        .collect::<Result<_>>()?;

    // Output schema: group columns then aggregate aliases.
    let mut fields: Vec<Field> = group_idx
        .iter()
        .map(|&i| input.schema().field(i).clone())
        .collect();
    for (a, col) in aggs.iter().zip(&input_cols) {
        fields.push(Field::nullable(
            a.alias.clone(),
            a.output_type(col.as_ref()),
        ));
    }
    let schema = Schema::new(fields)?;

    // Encode the group key of every row as typed `(tag, bits)` parts —
    // one flat buffer per morsel, produced in parallel.
    let group_cols: Vec<&Column> = group_idx.iter().map(|&c| input.column(c)).collect();
    let n = input.num_rows();
    let ppr = group_cols.len() * 2; // u64 parts per row
    let key_bufs: Vec<Vec<u64>> = if group_cols.is_empty() {
        Vec::new()
    } else {
        morsel::for_each_morsel(rt, n, morsel_rows, |_, r| {
            let mut buf = Vec::with_capacity(r.len() * ppr);
            for i in r {
                for c in &group_cols {
                    c.write_key_part(i, &mut buf);
                }
            }
            buf
        })
    };

    // Group states keyed by typed parts; first-occurrence order preserved
    // for deterministic output, with a representative row per group. This
    // fold runs sequentially in global row order — float sums are
    // order-sensitive, and this is what makes the parallel path
    // bit-identical to the sequential one.
    let mut states: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut reps: Vec<usize> = Vec::new();
    let mut accs: Vec<Vec<Accumulator>> = Vec::new();

    let fold = |slot: usize, i: usize, accs: &mut Vec<Vec<Accumulator>>| -> Result<()> {
        for (a, col) in accs[slot].iter_mut().zip(&input_cols) {
            match col {
                Some(c) => a.update(&c.value(i))?,
                None => a.update(&Value::Int(1))?,
            }
        }
        Ok(())
    };

    if group_cols.is_empty() {
        if n > 0 {
            reps.push(0);
            accs.push(aggs.iter().map(|a| Accumulator::new(a.func)).collect());
            for i in 0..n {
                fold(0, i, &mut accs)?;
            }
        }
    } else {
        for (m, buf) in key_bufs.iter().enumerate() {
            let base = m * morsel_rows;
            for (local, key) in buf.chunks(ppr).enumerate() {
                let i = base + local;
                let slot = match states.get(key) {
                    Some(&s) => s,
                    None => {
                        reps.push(i);
                        accs.push(aggs.iter().map(|a| Accumulator::new(a.func)).collect());
                        states.insert(key.to_vec(), accs.len() - 1);
                        accs.len() - 1
                    }
                };
                fold(slot, i, &mut accs)?;
            }
        }
    }

    if reps.is_empty() && group_by.is_empty() && !aggs.is_empty() {
        // Global aggregate over empty input: COUNT = 0, others NULL.
        accs.push(aggs.iter().map(|a| Accumulator::new(a.func)).collect());
    }

    // Assemble output columns: gathered group columns + aggregate results.
    let mut columns: Vec<Column> = group_cols.iter().map(|c| c.gather(&reps)).collect();
    for (k, (a, col)) in aggs.iter().zip(&input_cols).enumerate() {
        let mut out_col = Column::with_capacity(a.output_type(col.as_ref()), accs.len());
        for group in &accs {
            out_col.push(&group[k].finish())?;
        }
        columns.push(out_col);
    }
    Ok(Table::from_columns(
        format!("agg({})", input.name()),
        schema,
        columns,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("brand", DataType::Str),
            Field::new("rating", DataType::Int),
        ])
        .unwrap();
        let mut t = crate::table::TableBuilder::new("r", schema);
        for (b, r) in [("asus", 4), ("asus", 2), ("hp", 3), ("hp", 5), ("vaio", 2)] {
            t.push(vec![b.into(), r.into()]).unwrap();
        }
        t.build()
    }

    #[test]
    fn group_by_with_avg_and_count() {
        let t = table();
        let out = aggregate(
            &t,
            &["brand".into()],
            &[
                AggExpr::new(AggFunc::Avg, Some(col("rating")), "avg_r"),
                AggExpr::new(AggFunc::Count, None, "n"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        // First group (insertion order) is asus.
        assert_eq!(out.column(0).value(0), Value::str("asus"));
        assert_eq!(out.column(1).value(0), Value::Float(3.0));
        assert_eq!(out.column(2).value(0), Value::Int(2));
    }

    #[test]
    fn global_aggregates() {
        let t = table();
        let out = aggregate(
            &t,
            &[],
            &[
                AggExpr::new(AggFunc::Sum, Some(col("rating")), "s"),
                AggExpr::new(AggFunc::Min, Some(col("rating")), "lo"),
                AggExpr::new(AggFunc::Max, Some(col("rating")), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).value(0), Value::Float(16.0));
        assert_eq!(out.column(1).value(0), Value::Int(2));
        assert_eq!(out.column(2).value(0), Value::Int(5));
    }

    #[test]
    fn count_of_boolean_counts_trues() {
        let t = table();
        let out = aggregate(
            &t,
            &[],
            &[AggExpr::new(
                AggFunc::Count,
                Some(col("rating").ge(lit(3))),
                "good",
            )],
        )
        .unwrap();
        assert_eq!(out.column(0).value(0), Value::Int(3));
    }

    #[test]
    fn empty_input_global_aggregate() {
        let t = Table::new(
            "e",
            Schema::new(vec![Field::new("x", DataType::Int)]).unwrap(),
        );
        let out = aggregate(
            &t,
            &[],
            &[
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Avg, Some(col("x")), "m"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).value(0), Value::Int(0));
        assert_eq!(out.column(1).value(0), Value::Null);
    }

    #[test]
    fn empty_input_grouped_aggregate_is_empty() {
        let t = Table::new(
            "e",
            Schema::new(vec![
                Field::new("g", DataType::Str),
                Field::new("x", DataType::Int),
            ])
            .unwrap(),
        );
        let out = aggregate(
            &t,
            &["g".into()],
            &[AggExpr::new(AggFunc::Count, None, "n")],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn sum_type_error_on_strings() {
        let t = table();
        let err = aggregate(
            &t,
            &[],
            &[AggExpr::new(AggFunc::Sum, Some(col("brand")), "s")],
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::TypeError(_)));
    }

    #[test]
    fn avg_decomposition_matches_definition6() {
        // Avg(D) = (1/|D|) * Σ_i Sum(D_i): the decomposable-aggregate law the
        // block optimization relies on (Example 8 of the paper).
        let t = table();
        let full = aggregate(
            &t,
            &[],
            &[AggExpr::new(AggFunc::Avg, Some(col("rating")), "m")],
        )
        .unwrap();
        let m = full.column(0).value(0).as_f64().unwrap();

        let blocks = [vec![0usize, 1], vec![2, 3], vec![4]];
        let n = t.num_rows() as f64;
        let mut recombined = 0.0;
        for b in &blocks {
            let part = t.gather(b);
            let s = aggregate(
                &part,
                &[],
                &[AggExpr::new(AggFunc::Sum, Some(col("rating")), "s")],
            )
            .unwrap();
            recombined += s.column(0).value(0).as_f64().unwrap() / n;
        }
        assert!((m - recombined).abs() < 1e-12);
    }
}
