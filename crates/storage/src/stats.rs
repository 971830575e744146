//! Per-column domain statistics: distinct values, min/max, percentiles.
//!
//! HypeR needs these for (a) "update attribute to its domain min/max"
//! experiments (Fig. 8), (b) percentile-based updates (the Amazon use case),
//! and (c) bucketizing continuous attributes before the how-to IP (§4.3).

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::Column;
use crate::error::Result;
use crate::table::Table;
use crate::value::{canonical_f64_bits, Value};

/// Summary of one column's observed domain.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Number of non-NULL values.
    pub count: usize,
    /// Number of NULLs.
    pub null_count: usize,
    /// Distinct non-NULL values with their frequencies, sorted by value.
    pub distinct: Vec<(Value, usize)>,
    /// Minimum (total order), if any non-NULL value exists.
    pub min: Option<Value>,
    /// Maximum.
    pub max: Option<Value>,
    /// Mean of numeric values, if the column is numeric.
    pub mean: Option<f64>,
}

impl ColumnStats {
    /// Compute statistics for the named column of `table`, straight off the
    /// typed buffers (dictionary codes for strings, canonical bits for
    /// floats). Every field equals what one pass of [`Value`]s would give:
    /// `distinct` holds one entry per value class of [`Value`]'s strict
    /// `Eq` (`-0.0` and `0.0` share a class, as do all NaNs), carrying the
    /// class's first value in row order, sorted by [`Value`]'s `Ord`;
    /// `mean` sums in row order.
    pub fn compute(table: &Table, column: &str) -> Result<ColumnStats> {
        let idx = table.schema().index_of(column)?;
        let col = table.column(idx);
        let nulls = col.nulls();
        let valid = |i: &usize| !nulls.is_null(*i);
        let rows = 0..col.len();
        let (distinct, sum): (Vec<(Value, usize)>, Option<f64>) = match col {
            Column::Int { values, .. } => {
                let mut freq: HashMap<i64, usize> = HashMap::new();
                let mut sum = 0.0;
                for i in rows.filter(valid) {
                    *freq.entry(values[i]).or_insert(0) += 1;
                    sum += values[i] as f64;
                }
                let mut d: Vec<(i64, usize)> = freq.into_iter().collect();
                d.sort_unstable_by_key(|&(v, _)| v);
                (
                    d.into_iter().map(|(v, c)| (Value::Int(v), c)).collect(),
                    Some(sum),
                )
            }
            Column::Float { values, .. } => {
                // Keyed by canonical bits, holding the first value seen.
                let mut freq: HashMap<u64, (f64, usize)> = HashMap::new();
                let mut sum = 0.0;
                for i in rows.filter(valid) {
                    let x = values[i];
                    freq.entry(canonical_f64_bits(x)).or_insert((x, 0)).1 += 1;
                    sum += x;
                }
                let mut d: Vec<(f64, usize)> = freq.into_values().collect();
                d.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                (
                    d.into_iter().map(|(v, c)| (Value::Float(v), c)).collect(),
                    Some(sum),
                )
            }
            Column::Bool { values, .. } => {
                let mut freq = [0usize; 2];
                let mut sum = 0.0;
                for i in rows.filter(valid) {
                    freq[usize::from(values[i])] += 1;
                    sum += if values[i] { 1.0 } else { 0.0 };
                }
                let d = [false, true]
                    .into_iter()
                    .filter(|&b| freq[usize::from(b)] > 0)
                    .map(|b| (Value::Bool(b), freq[usize::from(b)]))
                    .collect();
                (d, Some(sum))
            }
            Column::Str { codes, dict, .. } => {
                let mut freq = vec![0usize; dict.len()];
                for i in rows.filter(valid) {
                    freq[codes[i] as usize] += 1;
                }
                // Dictionary codes are canonical: one code per string.
                let mut d: Vec<(&Arc<str>, usize)> = freq
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, c)| c > 0)
                    .map(|(code, c)| (dict.get(code as u32), c))
                    .collect();
                d.sort_unstable_by(|a, b| a.0.cmp(b.0));
                (
                    d.into_iter()
                        .map(|(s, c)| (Value::Str(Arc::clone(s)), c))
                        .collect(),
                    None,
                )
            }
        };
        let null_count = col.null_count();
        let count = col.len() - null_count;
        Ok(ColumnStats {
            name: column.to_string(),
            count,
            null_count,
            min: distinct.first().map(|(v, _)| v.clone()),
            max: distinct.last().map(|(v, _)| v.clone()),
            mean: sum.filter(|_| count > 0).map(|s| s / count as f64),
            distinct,
        })
    }

    /// The `(min, max)` that [`ColumnStats::compute`] reports for `col`,
    /// read in one pass with no frequency map: `None` when every value is
    /// NULL. Floats compare as `compute`'s classes do — `-0.0` and `0.0`
    /// are one class, as are all NaNs, each standing as its first value in
    /// row order — ordered by `total_cmp`.
    pub fn min_max(col: &Column) -> Option<(Value, Value)> {
        let nulls = col.nulls();
        let valid = |i: &usize| !nulls.is_null(*i);
        let rows = 0..col.len();
        match col {
            Column::Int { values, .. } => {
                let mut valid_values = rows.filter(valid).map(|i| values[i]);
                let first = valid_values.next()?;
                let (lo, hi) =
                    valid_values.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x)));
                Some((Value::Int(lo), Value::Int(hi)))
            }
            Column::Float { values, .. } => {
                let (mut zero, mut nan) = (None, None);
                let mut ends: Option<(f64, f64)> = None;
                for x in rows.filter(valid).map(|i| values[i]) {
                    if x == 0.0 {
                        zero.get_or_insert(x);
                    } else if x.is_nan() {
                        nan.get_or_insert(x);
                    } else {
                        ends = Some(ends.map_or((x, x), |(lo, hi)| {
                            (
                                if x.total_cmp(&lo).is_lt() { x } else { lo },
                                if x.total_cmp(&hi).is_gt() { x } else { hi },
                            )
                        }));
                    }
                }
                let (lo, hi) = ends.unzip();
                let classes = [lo, hi, zero, nan].into_iter().flatten();
                let min = classes.clone().min_by(f64::total_cmp)?;
                let max = classes.max_by(f64::total_cmp)?;
                Some((Value::Float(min), Value::Float(max)))
            }
            Column::Bool { values, .. } => {
                let mut seen = [false; 2];
                for i in rows.filter(valid) {
                    seen[usize::from(values[i])] = true;
                }
                let lo = seen.iter().position(|&s| s)?;
                let hi = seen.iter().rposition(|&s| s)?;
                Some((Value::Bool(lo == 1), Value::Bool(hi == 1)))
            }
            Column::Str { codes, dict, .. } => {
                let mut seen = vec![false; dict.len()];
                for i in rows.filter(valid) {
                    seen[codes[i] as usize] = true;
                }
                let present = (0..dict.len() as u32)
                    .filter(|&c| seen[c as usize])
                    .map(|c| dict.get(c));
                let lo = present.clone().min()?;
                let hi = present.max()?;
                Some((Value::Str(Arc::clone(lo)), Value::Str(Arc::clone(hi))))
            }
        }
    }

    /// Number of distinct non-NULL values.
    pub fn num_distinct(&self) -> usize {
        self.distinct.len()
    }

    /// The distinct values only (sorted).
    pub fn domain(&self) -> Vec<Value> {
        self.distinct.iter().map(|(v, _)| v.clone()).collect()
    }

    /// Empirical `p`-th percentile (0 ≤ p ≤ 100) of a numeric column using
    /// the nearest-rank method; `None` for non-numeric or empty columns.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mut xs: Vec<f64> = Vec::with_capacity(self.count);
        for (v, n) in &self.distinct {
            let x = v.as_f64()?;
            for _ in 0..*n {
                xs.push(x);
            }
        }
        // `distinct` is value-sorted, so xs is already ascending.
        let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
        Some(xs[rank.clamp(1, xs.len()) - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::nullable("x", DataType::Float),
            Field::new("c", DataType::Str),
        ])
        .unwrap();
        let mut t = crate::table::TableBuilder::new("t", schema);
        for x in [10.0, 20.0, 20.0, 40.0, 100.0] {
            t.push(vec![x.into(), "a".into()]).unwrap();
        }
        t.push(vec![Value::Null, "b".into()]).unwrap();
        t.build()
    }

    #[test]
    fn basic_stats() {
        let s = ColumnStats::compute(&table(), "x").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.num_distinct(), 4);
        assert_eq!(s.min, Some(Value::Float(10.0)));
        assert_eq!(s.max, Some(Value::Float(100.0)));
        assert!((s.mean.unwrap() - 38.0).abs() < 1e-12);
    }

    #[test]
    fn categorical_stats_have_no_mean() {
        let s = ColumnStats::compute(&table(), "c").unwrap();
        assert_eq!(s.mean, None);
        assert_eq!(s.num_distinct(), 2);
        assert_eq!(s.min, Some(Value::str("a")));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = ColumnStats::compute(&table(), "x").unwrap();
        assert_eq!(s.percentile(50.0), Some(20.0));
        assert_eq!(s.percentile(80.0), Some(40.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(1.0), Some(10.0));
    }

    /// The one-pass-over-[`Value`]s statistics the typed
    /// [`ColumnStats::compute`] must reproduce.
    fn compute_by_values(table: &Table, column: &str) -> ColumnStats {
        let col = table.column_by_name(column).unwrap();
        let mut freq: HashMap<Value, usize> = HashMap::new();
        let (mut null_count, mut numeric, mut sum) = (0usize, 0usize, 0.0f64);
        for v in col.iter() {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            if let Some(x) = v.as_f64() {
                sum += x;
                numeric += 1;
            }
            *freq.entry(v).or_insert(0) += 1;
        }
        let mut distinct: Vec<(Value, usize)> = freq.into_iter().collect();
        distinct.sort_by(|a, b| a.0.cmp(&b.0));
        let count = col.len() - null_count;
        ColumnStats {
            name: column.to_string(),
            count,
            null_count,
            min: distinct.first().map(|(v, _)| v.clone()),
            max: distinct.last().map(|(v, _)| v.clone()),
            mean: (numeric == count && count > 0).then(|| sum / count as f64),
            distinct,
        }
    }

    /// A value with its float payload bits, so `-0.0`/`0.0` and NaN
    /// payloads compare exactly.
    fn exact(v: &Value) -> (String, Option<u64>) {
        let bits = match v {
            Value::Float(x) => Some(x.to_bits()),
            _ => None,
        };
        (format!("{v:?}"), bits)
    }

    #[test]
    fn typed_stats_match_the_value_pass() {
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
        let schema = Schema::new(vec![
            Field::nullable("i", DataType::Int),
            Field::nullable("f", DataType::Float),
            Field::nullable("b", DataType::Bool),
            Field::nullable("s", DataType::Str),
            Field::nullable("g", DataType::Float),
        ])
        .unwrap();
        let mut t = crate::table::TableBuilder::new("t", schema);
        let fs = [
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Null,
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(neg_nan),
            Value::Float(-7.25),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Float(0.1),
        ];
        for (k, f) in fs.iter().enumerate() {
            let k = k as i64;
            let null_every = |m: i64| k % m == m - 1;
            t.push(vec![
                if null_every(4) {
                    Value::Null
                } else {
                    Value::Int((k * 37) % 5 - 2)
                },
                f.clone(),
                if null_every(3) {
                    Value::Null
                } else {
                    Value::Bool(k % 2 == 0)
                },
                if null_every(5) {
                    Value::Null
                } else {
                    Value::str(["b", "a", "c"][(k % 3) as usize])
                },
                // An all-NULL column.
                Value::Null,
            ])
            .unwrap();
        }
        let t = t.build();
        for c in ["i", "f", "b", "s", "g"] {
            let (got, want) = (
                ColumnStats::compute(&t, c).unwrap(),
                compute_by_values(&t, c),
            );
            assert_eq!(
                (got.count, got.null_count),
                (want.count, want.null_count),
                "{c}"
            );
            let entries = |s: &ColumnStats| -> Vec<_> {
                s.distinct.iter().map(|(v, n)| (exact(v), *n)).collect()
            };
            assert_eq!(entries(&got), entries(&want), "{c}: distinct");
            assert_eq!(
                got.min.as_ref().map(exact),
                want.min.as_ref().map(exact),
                "{c}"
            );
            assert_eq!(
                got.max.as_ref().map(exact),
                want.max.as_ref().map(exact),
                "{c}"
            );
            assert_eq!(
                got.mean.map(f64::to_bits),
                want.mean.map(f64::to_bits),
                "{c}"
            );
        }
        // The float column folds `-0.0` into `0.0` (first seen: `-0.0`)
        // and both NaNs into one class (first seen: the positive one).
        let f = ColumnStats::compute(&t, "f").unwrap();
        assert_eq!(f.num_distinct(), 6);
        assert!(f.distinct.iter().any(|(v, n)| {
            matches!(v, Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()) && *n == 2
        }));
        assert!(f.mean.unwrap().is_nan());
    }

    #[test]
    fn typed_min_max_matches_compute() {
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let columns: Vec<(DataType, Vec<Value>)> = vec![
            (
                DataType::Int,
                vec![Value::Null, 3.into(), (-4).into(), Value::Null, 9.into()],
            ),
            (DataType::Int, vec![Value::Int(7)]),
            (DataType::Int, vec![Value::Null, Value::Null]),
            (
                DataType::Float,
                vec![Value::Float(-0.0), 2.5.into(), Value::Null, 0.0.into()],
            ),
            (
                DataType::Float,
                vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(0.0)],
            ),
            (DataType::Float, vec![Value::Float(-0.0), (-1.0).into()]),
            (
                DataType::Float,
                vec![f64::NAN.into(), 1.0.into(), nan2.into(), Value::Null],
            ),
            (
                DataType::Float,
                vec![nan2.into(), neg_nan.into(), 5.0.into()],
            ),
            (
                DataType::Float,
                vec![neg_nan.into(), f64::NAN.into(), (-3.0).into()],
            ),
            (
                DataType::Float,
                vec![f64::NEG_INFINITY.into(), f64::INFINITY.into(), Value::Null],
            ),
            (DataType::Float, vec![Value::Float(1.5)]),
            (DataType::Float, vec![Value::Null]),
            (DataType::Bool, vec![true.into(), Value::Null, false.into()]),
            (DataType::Bool, vec![true.into(), true.into()]),
            (DataType::Bool, vec![Value::Null, false.into()]),
            (DataType::Bool, vec![Value::Null]),
            (
                DataType::Str,
                vec!["m".into(), Value::Null, "b".into(), "z".into()],
            ),
            (DataType::Str, vec![Value::Null]),
        ];
        for (k, (dt, values)) in columns.into_iter().enumerate() {
            let schema = Schema::new(vec![Field::nullable("v", dt)]).unwrap();
            let mut t = crate::table::TableBuilder::new("t", schema);
            for v in values {
                t.push(vec![v]).unwrap();
            }
            let t = t.build();
            let want = ColumnStats::compute(&t, "v").unwrap();
            let got = ColumnStats::min_max(t.column(0));
            assert_eq!(
                got.as_ref().map(|(lo, hi)| (exact(lo), exact(hi))),
                want.min
                    .as_ref()
                    .zip(want.max.as_ref())
                    .map(|(lo, hi)| (exact(lo), exact(hi))),
                "column {k}"
            );
        }
    }

    #[test]
    fn unknown_column_errors() {
        assert!(ColumnStats::compute(&table(), "nope").is_err());
    }
}
