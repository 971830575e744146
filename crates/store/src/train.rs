//! Streaming forest training over out-of-core tables: the
//! [`hyper_ml::stream`] adapter for [`PagedTable`].
//!
//! [`PagedTrainSource`] streams a paged table's chunks through a fitted
//! [`TableEncoder`], decoding **only** the encoder's feature columns
//! ([`PagedTable::scan_projected`], with one reused byte buffer for the
//! whole scan) and yielding encoded morsels to
//! [`hyper_ml::StreamedLayout::build`]. Because per-row encodings depend
//! only on their own row and chunks arrive in global row order, the
//! concatenated chunks equal the resident encode bit for bit — so a
//! forest trained through this source is bit-identical to
//! [`hyper_ml::RandomForest::fit_on`], which reads the collected table's
//! matrix as a single chunk of the same layout (the property suite in
//! `tests/prop_stream_train.rs` drives this across worker counts, chunk
//! sizes, and budgets).
//!
//! [`fit_encoder_paged`] and [`target_vector_paged`] cover the two other
//! resident inputs training needs — the encoder statistics and the
//! target vector — with the same chunk-at-a-time discipline: the only
//! O(rows) state that ever exists is the target vector (8 B/row) and
//! the layout's per-row cell ids (4 B/row), never the dense matrix.

use hyper_ml::{Matrix, MlError, TableEncoder, TrainChunkSource};

use crate::error::{Result, StoreError};
use crate::paging::PagedTable;

/// [`TrainChunkSource`] over a [`PagedTable`]: column-projected chunk
/// decode + chunk-wise encode, restartable for the binner's two passes.
pub struct PagedTrainSource<'a> {
    paged: &'a PagedTable,
    encoder: &'a TableEncoder,
}

impl<'a> PagedTrainSource<'a> {
    /// Stream `paged`'s chunks through `encoder` (which must have been
    /// fitted on the same columns — see [`fit_encoder_paged`]).
    pub fn new(paged: &'a PagedTable, encoder: &'a TableEncoder) -> PagedTrainSource<'a> {
        PagedTrainSource { paged, encoder }
    }
}

impl TrainChunkSource for PagedTrainSource<'_> {
    fn num_rows(&self) -> usize {
        self.paged.num_rows()
    }

    fn num_cols(&self) -> usize {
        self.encoder.width()
    }

    fn for_each_chunk(
        &mut self,
        f: &mut dyn FnMut(&Matrix) -> hyper_ml::Result<()>,
    ) -> hyper_ml::Result<()> {
        let keep: Vec<&str> = self.encoder.columns().iter().map(String::as_str).collect();
        let mut inner: hyper_ml::Result<()> = Ok(());
        let scan = self.paged.scan_projected(&keep, |_, _, t| {
            let mut run = || -> hyper_ml::Result<()> {
                let m = self.encoder.encode_table(t)?;
                f(&m)
            };
            if let Err(e) = run() {
                inner = Err(e);
                return Err(StoreError::Query("training stream aborted".into()));
            }
            Ok(())
        });
        match (scan, inner) {
            (_, Err(e)) => Err(e),
            (Err(e), Ok(())) => Err(MlError::Storage(e.to_string())),
            (Ok(()), Ok(())) => Ok(()),
        }
    }
}

/// Fit a [`TableEncoder`] over the named columns of a paged table,
/// chunk-at-a-time with column-projected decodes — bit-identical to
/// `TableEncoder::fit` over the collected table (numeric means
/// accumulate in global row order).
pub fn fit_encoder_paged(paged: &PagedTable, columns: &[String]) -> Result<TableEncoder> {
    let keep: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut state = TableEncoder::fit_begin(columns);
    paged.scan_projected(&keep, |_, _, t| {
        state
            .observe(t)
            .map_err(|e| StoreError::Query(format!("encoder fit failed: {e}")))
    })?;
    state
        .finish()
        .map_err(|e| StoreError::Query(format!("encoder fit failed: {e}")))
}

/// Collect one numeric column of a paged table into a resident vector
/// (the training target), decoding only that column per chunk.
pub fn target_vector_paged(paged: &PagedTable, column: &str) -> Result<Vec<f64>> {
    let mut y = Vec::with_capacity(paged.num_rows());
    paged.scan_projected(&[column], |_, _, t| {
        let chunk = TableEncoder::target_vector(t, column)
            .map_err(|e| StoreError::Query(format!("target extraction failed: {e}")))?;
        y.extend(chunk);
        Ok(())
    })?;
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_ml::{ForestParams, RandomForest, StreamedLayout, MAX_BINS};
    use hyper_runtime::HyperRuntime;
    use hyper_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
    use std::path::PathBuf;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hyper_train_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::nullable("b", DataType::Str),
            Field::new("wide", DataType::Float),
            Field::new("y", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..n {
            let s: Value = if i % 9 == 0 {
                Value::Null
            } else {
                ["p", "q", "r"][i % 3].into()
            };
            b.push(vec![
                Value::Int((i % 4) as i64),
                s,
                Value::Float(i as f64), // never referenced by training
                Value::Float((i % 5) as f64 * 0.5),
            ])
            .unwrap();
        }
        b.build()
    }

    #[test]
    fn paged_streaming_forest_matches_resident_trainer() {
        let dir = test_dir("stream");
        let t = table(800);
        let cols: Vec<String> = vec!["a".into(), "b".into()];
        // Budget far below one chunk: nothing can stay resident.
        let paged = PagedTable::spill(&t, &dir, 64, 16).unwrap();

        let enc = fit_encoder_paged(&paged, &cols).unwrap();
        let resident_enc = TableEncoder::fit(&t, &cols).unwrap();
        assert_eq!(enc.parts().1, resident_enc.parts().1);

        let y = target_vector_paged(&paged, "y").unwrap();
        assert_eq!(y, TableEncoder::target_vector(&t, "y").unwrap());

        let mut src = PagedTrainSource::new(&paged, &enc);
        let layout = StreamedLayout::build(&mut src, MAX_BINS, 800 / 4)
            .unwrap()
            .expect("discrete features are cell-trainable");
        let params = ForestParams {
            n_trees: 5,
            seed: 3,
            ..Default::default()
        };
        let rt = HyperRuntime::with_workers(0);
        let streamed = layout.fit_forest(&rt, &y, &params).unwrap();

        let x = resident_enc.encode_table(&t).unwrap();
        let resident = RandomForest::fit_on(&rt, &x, &y, &params).unwrap();
        for i in [0usize, 7, 311] {
            assert_eq!(
                resident.predict_row(x.row(i)).to_bits(),
                streamed.predict_row(x.row(i)).to_bits()
            );
        }
        paged.remove_files().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn projected_scan_skips_unreferenced_columns() {
        let dir = test_dir("proj");
        let t = table(300);
        let paged = PagedTable::spill(&t, &dir, 100, u64::MAX).unwrap();
        let mut rows = 0usize;
        paged
            .scan_projected(&["a"], |_, _, chunk| {
                assert_eq!(chunk.num_columns(), 1);
                rows += chunk.num_rows();
                Ok(())
            })
            .unwrap();
        assert_eq!(rows, 300);
        paged.remove_files().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
