//! Feature encoding: map relational rows to numeric feature vectors.
//!
//! Numeric columns pass through; categorical (string/bool) columns are
//! one-hot encoded over the categories observed at fit time. The encoder is
//! reused at prediction time to encode hypothetical rows consistently.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

use hyper_runtime::HyperRuntime;
use hyper_storage::{Column, DataType, Table, Value, DEFAULT_MORSEL_ROWS, PARALLEL_ROW_THRESHOLD};

use crate::error::{MlError, Result};
use crate::matrix::Matrix;

/// How one input column maps to feature dimensions. Public so fitted
/// encoders can be serialized ([`TableEncoder::parts`] /
/// [`TableEncoder::from_parts`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnEncoding {
    /// Pass the numeric value through (NULL → column mean seen at fit).
    Numeric {
        /// Mean observed at fit time, imputed for NULLs.
        mean: f64,
    },
    /// One-hot over observed categories; unseen categories encode to all
    /// zeros.
    OneHot {
        /// Fitted categories, one feature dimension each (sorted).
        categories: Vec<Value>,
    },
}

/// Fitted table→matrix encoder.
#[derive(Debug, Clone)]
pub struct TableEncoder {
    columns: Vec<String>,
    encodings: Vec<ColumnEncoding>,
    width: usize,
}

impl TableEncoder {
    /// Fit an encoder over the named columns of `table`. Statistics come
    /// straight off the typed buffers: numeric means are slice sums, and
    /// string categories are the dictionary codes observed in the column
    /// (no per-cell `Value` hashing).
    pub fn fit(table: &Table, columns: &[String]) -> Result<TableEncoder> {
        let _span = hyper_trace::span(hyper_trace::Phase::EncoderFit);
        let mut encodings = Vec::with_capacity(columns.len());
        let mut width = 0usize;
        for name in columns {
            let idx = table.schema().index_of(name)?;
            let col = table.column(idx);
            let non_null = col.len() - col.null_count();
            let numeric = matches!(
                col.data_type(),
                DataType::Int | DataType::Float | DataType::Bool
            );
            if numeric && non_null > 0 {
                let mut sum = 0.0;
                for i in 0..col.len() {
                    if let Some(x) = col.f64_at(i) {
                        sum += x;
                    }
                }
                encodings.push(ColumnEncoding::Numeric {
                    mean: sum / non_null as f64,
                });
                width += 1;
            } else {
                let mut cats: Vec<Value> = match col.as_str() {
                    Some((codes, dict, nulls)) => {
                        // Observed codes only — a gathered column shares a
                        // dictionary that may be a superset of its rows.
                        let mut seen = vec![false; dict.len()];
                        for (i, &c) in codes.iter().enumerate() {
                            if !nulls.is_null(i) {
                                seen[c as usize] = true;
                            }
                        }
                        seen.iter()
                            .enumerate()
                            .filter(|(_, &s)| s)
                            .map(|(c, _)| Value::Str(std::sync::Arc::clone(dict.get(c as u32))))
                            .collect()
                    }
                    None => {
                        let mut seen: HashMap<Value, ()> = HashMap::new();
                        let mut cats = Vec::new();
                        for v in col.iter() {
                            if !v.is_null() && seen.insert(v.clone(), ()).is_none() {
                                cats.push(v);
                            }
                        }
                        cats
                    }
                };
                cats.sort();
                width += cats.len();
                encodings.push(ColumnEncoding::OneHot { categories: cats });
            }
        }
        Ok(TableEncoder {
            columns: columns.to_vec(),
            encodings,
            width,
        })
    }

    /// Number of output features.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Encoded width contributed by each input column, in order.
    pub fn column_widths(&self) -> Vec<usize> {
        self.encodings
            .iter()
            .map(|e| match e {
                ColumnEncoding::Numeric { .. } => 1,
                ColumnEncoding::OneHot { categories } => categories.len(),
            })
            .collect()
    }

    /// The input column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The fitted state — input column names and their per-column
    /// encodings — exposed for serialization.
    pub fn parts(&self) -> (&[String], &[ColumnEncoding]) {
        (&self.columns, &self.encodings)
    }

    /// Reassemble a fitted encoder from its [`TableEncoder::parts`]. The
    /// derived output width is recomputed; column and encoding counts
    /// must agree.
    pub fn from_parts(
        columns: Vec<String>,
        encodings: Vec<ColumnEncoding>,
    ) -> Result<TableEncoder> {
        if columns.len() != encodings.len() {
            return Err(MlError::InvalidInput(format!(
                "{} column name(s) but {} encoding(s)",
                columns.len(),
                encodings.len()
            )));
        }
        let width = encodings
            .iter()
            .map(|e| match e {
                ColumnEncoding::Numeric { .. } => 1,
                ColumnEncoding::OneHot { categories } => categories.len(),
            })
            .sum();
        Ok(TableEncoder {
            columns,
            encodings,
            width,
        })
    }

    /// Approximate memory footprint in bytes (category values dominate).
    pub fn approx_bytes(&self) -> usize {
        let cats: usize = self
            .encodings
            .iter()
            .map(|e| match e {
                ColumnEncoding::Numeric { .. } => 8,
                ColumnEncoding::OneHot { categories } => categories.len() * 32,
            })
            .sum();
        cats + self.columns.iter().map(|c| c.len() + 24).sum::<usize>()
    }

    /// Encode one logical row given as values aligned with `columns()`.
    pub fn encode_values(&self, values: &[Value]) -> Result<Vec<f64>> {
        if values.len() != self.encodings.len() {
            return Err(MlError::InvalidInput(format!(
                "expected {} values, got {}",
                self.encodings.len(),
                values.len()
            )));
        }
        let mut out = Vec::with_capacity(self.width);
        for (v, enc) in values.iter().zip(&self.encodings) {
            match enc {
                ColumnEncoding::Numeric { mean } => {
                    out.push(v.as_f64().unwrap_or(*mean));
                }
                ColumnEncoding::OneHot { categories } => {
                    for c in categories {
                        out.push(if v == c { 1.0 } else { 0.0 });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Encode every row of `table` (must contain the fitted columns).
    ///
    /// The feature matrix is filled **column-wise** off the typed buffers:
    /// numeric features are slice reads with mean imputation, and one-hot
    /// features over string columns resolve each fitted category to a
    /// dictionary code once, then compare codes per row — no per-cell
    /// `Value` materialization or hashing. Large inputs fill disjoint row
    /// slabs morsel-parallel over the global [`HyperRuntime`]; every cell
    /// is computed the same way regardless of worker count, so the matrix
    /// is bit-identical to the sequential encode.
    pub fn encode_table(&self, table: &Table) -> Result<Matrix> {
        let cols: Vec<&Column> = self
            .columns
            .iter()
            .map(|c| table.column_by_name(c))
            .collect::<hyper_storage::Result<_>>()?;
        self.encode_columns(&cols)
    }

    /// Encode typed columns positionally aligned with [`TableEncoder::
    /// columns`] (the no-schema variant of [`TableEncoder::encode_table`],
    /// used when callers assemble hypothetical post-update columns).
    pub fn encode_columns(&self, cols: &[&Column]) -> Result<Matrix> {
        let n = cols.first().map_or(0, |c| c.len());
        let rt = HyperRuntime::global();
        let morsel_rows = if n >= PARALLEL_ROW_THRESHOLD && rt.workers() > 0 {
            DEFAULT_MORSEL_ROWS
        } else {
            n.max(1) // one slab: the plain sequential fill
        };
        self.encode_columns_on(rt, cols, morsel_rows)
    }

    /// [`TableEncoder::encode_columns`] on a caller-chosen runtime and
    /// morsel size (the parity tests drive this across worker counts).
    pub fn encode_columns_on(
        &self,
        rt: &HyperRuntime,
        cols: &[&Column],
        morsel_rows: usize,
    ) -> Result<Matrix> {
        if cols.len() != self.encodings.len() {
            return Err(MlError::InvalidInput(format!(
                "expected {} columns, got {}",
                self.encodings.len(),
                cols.len()
            )));
        }
        let n = cols.first().map_or(0, |c| c.len());
        if cols.iter().any(|c| c.len() != n) {
            return Err(MlError::InvalidInput("ragged input columns".into()));
        }
        let width = self.width;
        let mut m = Matrix::zeros(n, width);
        if n == 0 || width == 0 {
            return Ok(m);
        }
        // Resolve one-hot dictionary slots once, shared by every morsel.
        let slot_maps: Vec<Option<Vec<Option<usize>>>> = cols
            .iter()
            .zip(&self.encodings)
            .map(|(&col, enc)| match (enc, col.as_str()) {
                (ColumnEncoding::OneHot { categories }, Some((_, dict, _))) => {
                    let mut slot_of_code: Vec<Option<usize>> = vec![None; dict.len()];
                    for (k, cat) in categories.iter().enumerate() {
                        if let Some(code) = cat.as_str().and_then(|s| dict.code_of(s)) {
                            slot_of_code[code as usize] = Some(k);
                        }
                    }
                    Some(slot_of_code)
                }
                _ => None,
            })
            .collect();

        // Fill disjoint row slabs, one morsel each. Each cell's value
        // depends only on its own row, so the parallel fill is
        // bit-identical to the sequential one.
        let morsel_rows = morsel_rows.max(1);
        let slabs: Vec<Mutex<&mut [f64]>> = m
            .data_mut()
            .chunks_mut(morsel_rows * width)
            .map(Mutex::new)
            .collect();
        rt.for_each_chunked(n, morsel_rows, |rows| {
            let mut slab = slabs[rows.start / morsel_rows].lock().expect("slab lock");
            let mut offset = 0usize;
            for ((&col, enc), slots) in cols.iter().zip(&self.encodings).zip(&slot_maps) {
                match enc {
                    ColumnEncoding::Numeric { mean } => {
                        fill_numeric(&mut slab, width, col, rows.clone(), offset, *mean);
                        offset += 1;
                    }
                    ColumnEncoding::OneHot { categories } => {
                        fill_one_hot(
                            &mut slab,
                            width,
                            col,
                            rows.clone(),
                            offset,
                            categories,
                            slots.as_deref(),
                        );
                        offset += categories.len();
                    }
                }
            }
        });
        drop(slabs);
        Ok(m)
    }

    /// Extract a numeric target column.
    pub fn target_vector(table: &Table, column: &str) -> Result<Vec<f64>> {
        let idx = table.schema().index_of(column)?;
        table
            .column(idx)
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| MlError::InvalidInput(format!("non-numeric target value {v}")))
            })
            .collect()
    }
}

/// Fill feature column `j` for the rows in `rows` into a row slab whose
/// first element is `rows.start`'s feature 0.
fn fill_numeric(
    out: &mut [f64],
    width: usize,
    col: &Column,
    rows: Range<usize>,
    j: usize,
    mean: f64,
) {
    match col.as_float() {
        Some((values, nulls)) if !nulls.any_null() => {
            for (local, i) in rows.enumerate() {
                out[local * width + j] = values[i];
            }
        }
        _ => {
            for (local, i) in rows.enumerate() {
                out[local * width + j] = col.f64_at(i).unwrap_or(mean);
            }
        }
    }
}

/// One-hot fill for the rows in `rows`; `slot_of_code` is the fitted
/// dictionary-code → category-slot map when `col` is a string column.
fn fill_one_hot(
    out: &mut [f64],
    width: usize,
    col: &Column,
    rows: Range<usize>,
    offset: usize,
    categories: &[Value],
    slot_of_code: Option<&[Option<usize>]>,
) {
    if let (Some((codes, _, nulls)), Some(slots)) = (col.as_str(), slot_of_code) {
        for (local, i) in rows.enumerate() {
            if nulls.is_null(i) {
                continue;
            }
            if let Some(k) = slots[codes[i] as usize] {
                out[local * width + offset + k] = 1.0;
            }
        }
    } else {
        // Fallback for non-string one-hot columns (e.g. re-typed
        // inputs): strict Value comparison, as in `encode_values`.
        for (local, i) in rows.enumerate() {
            let v = col.value(i);
            for (k, cat) in categories.iter().enumerate() {
                if v == *cat {
                    out[local * width + offset + k] = 1.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_storage::{DataType, Field, Schema, TableBuilder};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("color", DataType::Str),
            Field::nullable("score", DataType::Float),
        ])
        .unwrap();
        TableBuilder::new("t", schema)
            .rows([
                vec![30.into(), "red".into(), 1.0.into()],
                vec![40.into(), "blue".into(), Value::Null],
                vec![50.into(), "red".into(), 3.0.into()],
            ])
            .unwrap()
            .build()
    }

    #[test]
    fn mixed_encoding_width() {
        let enc =
            TableEncoder::fit(&table(), &["age".into(), "color".into(), "score".into()]).unwrap();
        // age (1) + color one-hot (2) + score (1) = 4.
        assert_eq!(enc.width(), 4);
        let m = enc.encode_table(&table()).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        // Row 0: age=30, blue=0, red=1, score=1.0 (categories sorted).
        assert_eq!(m.row(0), &[30.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn null_numeric_imputes_mean() {
        let enc = TableEncoder::fit(&table(), &["score".into()]).unwrap();
        let m = enc.encode_table(&table()).unwrap();
        assert_eq!(m.get(1, 0), 2.0, "NULL imputed with mean of {{1, 3}}");
    }

    #[test]
    fn unseen_category_encodes_to_zeros() {
        let enc = TableEncoder::fit(&table(), &["color".into()]).unwrap();
        let v = enc.encode_values(&["green".into()]).unwrap();
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn value_arity_checked() {
        let enc = TableEncoder::fit(&table(), &["color".into()]).unwrap();
        assert!(enc.encode_values(&["red".into(), 1.into()]).is_err());
    }

    #[test]
    fn target_vector_extraction() {
        let y = TableEncoder::target_vector(&table(), "age").unwrap();
        assert_eq!(y, vec![30.0, 40.0, 50.0]);
        assert!(TableEncoder::target_vector(&table(), "color").is_err());
    }

    #[test]
    fn empty_table_keeps_width() {
        let t = table();
        let enc = TableEncoder::fit(&t, &["age".into(), "color".into()]).unwrap();
        let empty = t.gather(&[]);
        let m = enc.encode_table(&empty).unwrap();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 3);
    }
}
