//! The cell layout every forest trains through, built in two passes over
//! a chunked source of encoded rows.
//!
//! A [`TrainChunkSource`] yields encoded feature rows in global row order,
//! one chunk at a time. A resident [`Matrix`] is a source with a single
//! chunk — the [`RandomForest::fit_on`] route. `hyper-store`'s
//! `PagedTrainSource` streams an out-of-core table morsel by morsel, so
//! its dense encoded matrix (8 B × width per row) never exists. Either
//! way the layout is built by reading the source twice:
//!
//! 1. **Pass one** merges each feature's *exact* distinct-value set
//!    across chunks (sorted by `total_cmp`, deduplicated) and derives the
//!    split thresholds from it. An approximate quantile sketch would be
//!    cheaper but could pick different thresholds; exactness is what
//!    makes the layout independent of the chunking. On a streamed source
//!    a feature with more than [`STREAM_DISTINCT_CAP`] distinct values
//!    aborts the build (`None`) — its distinct set alone would approach
//!    O(rows) — and the caller materializes the matrix instead. A
//!    resident matrix already holds every value, so it has no cap.
//! 2. **Pass two** bins each row against the fixed splits and numbers the
//!    joint cells (rows sharing one bin vector, which no split can
//!    separate) in first-occurrence row order. More than `max_cells`
//!    cells declines the layout: continuous features keep the row-wise
//!    trainer, which reuses the resident matrix's bins from this pass.
//!
//! Trees then fit over per-cell statistics
//! ([`StreamedLayout::fit_forest`]): one O(rows) bootstrap accumulation
//! per tree plus an O(cells) tree build. Peak resident footprint is
//! O(bins × features + cells) for the layout plus O(rows) for the per-row
//! cell ids (4 B/row) and the caller's target vectors (8 B/row each).
//!
//! ## Determinism contract
//!
//! The layout depends only on the concatenated rows, never on how they
//! are chunked: the distinct sets (hence splits) and the first-occurrence
//! cell ids are the same for one chunk or many, and each tree's RNG
//! derives from `(seed, tree_index)`. So a forest fitted over a streamed
//! source is **bit-identical** (`f64::to_bits`) to
//! [`RandomForest::fit_on`] over the collected matrix, for any worker
//! count and any chunk size. `hyper-store`'s `prop_stream_train` suite
//! checks this across workers × chunk sizes × paging budgets.

use std::collections::HashMap;

use hyper_runtime::HyperRuntime;
use rand::Rng;

use crate::error::{MlError, Result};
use crate::forest::{grow_trees, ForestParams, RandomForest};
use crate::hist::{bin_value, splits_from_distinct, BinnedFeature, BinnedMatrix, CellIndex};
use crate::matrix::Matrix;
use crate::tree::RegressionTree;

/// Pass-one cap on tracked distinct values per feature of a streamed
/// source. Beyond this the distinct set itself approaches O(rows)
/// resident bytes, so [`StreamedLayout::build`] declines and the caller
/// trains on the materialized matrix instead.
pub const STREAM_DISTINCT_CAP: usize = 1 << 16;

/// A restartable source of encoded feature chunks in global row order.
///
/// [`StreamedLayout::build`] calls [`TrainChunkSource::for_each_chunk`]
/// twice (pass one and pass two); both scans must yield the same chunks
/// in the same order. Concatenated chunk rows must equal the rows of the
/// matrix the resident encoder would produce, bit for bit — per-row
/// encodings depend only on their own row, so chunk-wise encoding
/// satisfies this by construction.
pub trait TrainChunkSource {
    /// Total rows across all chunks.
    fn num_rows(&self) -> usize;
    /// Encoded feature width (columns of every yielded chunk).
    fn num_cols(&self) -> usize;
    /// Stream every encoded chunk in row order.
    fn for_each_chunk(&mut self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()>;
}

/// A resident matrix is a source with one chunk: itself.
impl TrainChunkSource for &Matrix {
    fn num_rows(&self) -> usize {
        self.rows()
    }

    fn num_cols(&self) -> usize {
        self.cols()
    }

    fn for_each_chunk(&mut self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
        f(self)
    }
}

/// Counters from one layout build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStreamStats {
    /// Chunks read across both passes.
    pub chunks_streamed: u64,
    /// Peak resident bytes of the builder (distinct sets, splits, cell
    /// ids, cell bins, and the one in-flight chunk — never the dense
    /// matrix).
    pub peak_resident_bytes: u64,
}

/// The cell layout: a splits-only [`BinnedMatrix`] plus the joint
/// [`CellIndex`] — everything cell-mode forest fitting needs, with no
/// dense matrix and no per-row bin vectors.
pub struct StreamedLayout {
    binned: BinnedMatrix,
    cells: CellIndex,
    rows: usize,
    stats: TrainStreamStats,
}

/// What one layout attempt over a source produced.
pub(crate) enum Attempt {
    /// Every row maps to one of at most `max_cells` joint cells.
    Cells(StreamedLayout),
    /// More joint cells than the cap. When the source was one chunk,
    /// pass two's per-row bins, for the row-wise trainer.
    Rows(Option<BinnedMatrix>),
    /// A feature passed the distinct cap in pass one.
    TooManyDistinct,
}

impl StreamedLayout {
    /// Build the layout from two streaming passes over `source`.
    ///
    /// Returns `Ok(None)` when the source is empty or the workload is not
    /// cell-trainable under the caps — some feature exceeds
    /// [`STREAM_DISTINCT_CAP`] distinct values, or the joint cells exceed
    /// `max_cells` — in which case the caller should materialize the
    /// matrix and use [`RandomForest::fit_on`]. `max_bins` is clamped to
    /// `2..=`[`crate::hist::MAX_BINS`].
    pub fn build<S: TrainChunkSource + ?Sized>(
        source: &mut S,
        max_bins: usize,
        max_cells: usize,
    ) -> Result<Option<StreamedLayout>> {
        if source.num_rows() == 0 {
            return Ok(None);
        }
        let _span = hyper_trace::span(hyper_trace::Phase::ForestTrain);
        Ok(
            match Self::attempt(source, max_bins, max_cells, STREAM_DISTINCT_CAP)? {
                Attempt::Cells(layout) => Some(layout),
                Attempt::Rows(_) | Attempt::TooManyDistinct => None,
            },
        )
    }

    /// Both passes over `source`, with pass one's per-feature distinct
    /// sets capped at `distinct_cap` values.
    pub(crate) fn attempt<S: TrainChunkSource + ?Sized>(
        source: &mut S,
        max_bins: usize,
        max_cells: usize,
        distinct_cap: usize,
    ) -> Result<Attempt> {
        let max_bins = max_bins.clamp(2, crate::hist::MAX_BINS);
        let n = source.num_rows();
        let d = source.num_cols();
        let mut stats = TrainStreamStats::default();
        let Some(features) = split_pass(source, max_bins, distinct_cap, &mut stats)? else {
            return Ok(Attempt::TooManyDistinct);
        };
        let splits_bytes: u64 = features.iter().map(|f| f.splits().len() as u64 * 8).sum();

        // Pass two: bin each chunk against the fixed splits, column by
        // column, and number the joint cells in first-occurrence row order.
        let mut key = vec![0u8; d];
        let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut cell_of_row: Vec<u32> = Vec::with_capacity(n);
        let mut cell_bins: Vec<Vec<u8>> = vec![Vec::new(); d];
        let mut chunk_bins: Vec<Vec<u8>> = vec![Vec::new(); d];
        let mut chunk_rows = 0;
        let mut too_many_cells = false;
        source.for_each_chunk(&mut |chunk| {
            check_width(chunk, d)?;
            stats.chunks_streamed += 1;
            if too_many_cells {
                return Ok(());
            }
            chunk_rows = chunk.rows();
            for (f, bins) in chunk_bins.iter_mut().enumerate() {
                let splits = features[f].splits();
                bins.clear();
                bins.extend((0..chunk_rows).map(|i| bin_value(splits, chunk.get(i, f))));
            }
            for i in 0..chunk_rows {
                for (k, bins) in key.iter_mut().zip(&chunk_bins) {
                    *k = bins[i];
                }
                let id = match ids.get(key.as_slice()) {
                    Some(&id) => id,
                    None if ids.len() == max_cells => {
                        too_many_cells = true;
                        return Ok(());
                    }
                    None => {
                        let id = ids.len() as u32;
                        ids.insert(key.clone(), id);
                        for (bins, &k) in cell_bins.iter_mut().zip(&key) {
                            bins.push(k);
                        }
                        id
                    }
                };
                cell_of_row.push(id);
            }
            let resident = splits_bytes
                + cell_of_row.len() as u64 * 4
                + ids.len() as u64 * (d as u64 + 48)
                + (ids.len() * d) as u64
                + (chunk_rows * d) as u64 * 9;
            stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
            Ok(())
        })?;
        if too_many_cells {
            // A source read as one chunk leaves every row's bins behind:
            // the row-wise trainer's input, binned once.
            let binned = (chunk_rows == n).then(|| {
                let features = features.into_iter().zip(chunk_bins);
                let features = features.map(|(f, bins)| f.with_bins(bins)).collect();
                BinnedMatrix::from_features(features, n)
            });
            return Ok(Attempt::Rows(binned));
        }
        if cell_of_row.len() != n {
            return Err(MlError::InvalidInput(format!(
                "source streamed {} rows, declared {n}",
                cell_of_row.len()
            )));
        }
        let num_cells = ids.len();
        Ok(Attempt::Cells(StreamedLayout {
            binned: BinnedMatrix::from_features(features, n),
            cells: CellIndex::from_parts(cell_of_row, cell_bins, num_cells),
            rows: n,
            stats,
        }))
    }

    /// Rows covered by the layout.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Distinct joint cells.
    pub fn num_cells(&self) -> usize {
        self.cells.num_cells()
    }

    /// Counters from the build.
    pub fn stats(&self) -> TrainStreamStats {
        self.stats
    }

    /// Fit a forest over the layout: each tree accumulates its bootstrap
    /// into per-cell `(count, Σy, Σy²)` statistics and fits over the
    /// cells. One layout can fit several forests (e.g. a numerator and a
    /// denominator model over different targets).
    pub fn fit_forest(
        &self,
        runtime: &HyperRuntime,
        y: &[f64],
        params: &ForestParams,
    ) -> Result<RandomForest> {
        params.check(self.rows, y)?;
        let _span = hyper_trace::span(hyper_trace::Phase::ForestTrain);
        let tree_params = params.tree_params(self.binned.cols());
        let n = self.rows;
        let cell_of_row = self.cells.cell_of_row();
        grow_trees(runtime, params, |rng| {
            let mut stats = vec![(0u32, 0.0f64, 0.0f64); self.cells.num_cells()];
            let mut add = |r: usize| {
                let slot = &mut stats[cell_of_row[r] as usize];
                let yv = y[r];
                slot.0 += 1;
                slot.1 += yv;
                slot.2 += yv * yv;
            };
            if params.bootstrap {
                for _ in 0..n {
                    add(rng.gen_range(0..n));
                }
            } else {
                (0..n).for_each(add);
            }
            RegressionTree::fit_cells(&self.binned, &self.cells, &stats, &tree_params, rng)
        })
    }
}

/// Pass one: each feature's exact distinct-value set, merged chunk by
/// chunk, turned into split thresholds. `None` when a feature passes
/// `distinct_cap` values.
fn split_pass<S: TrainChunkSource + ?Sized>(
    source: &mut S,
    max_bins: usize,
    distinct_cap: usize,
    stats: &mut TrainStreamStats,
) -> Result<Option<Vec<BinnedFeature>>> {
    let d = source.num_cols();
    let mut distinct: Vec<Vec<f64>> = vec![Vec::new(); d];
    let mut chunk_vals: Vec<f64> = Vec::new();
    let mut merged: Vec<f64> = Vec::new();
    let mut overflow = false;
    source.for_each_chunk(&mut |chunk| {
        check_width(chunk, d)?;
        stats.chunks_streamed += 1;
        if overflow {
            return Ok(());
        }
        for (j, dj) in distinct.iter_mut().enumerate() {
            chunk_vals.clear();
            chunk_vals.extend((0..chunk.rows()).map(|i| chunk.get(i, j)));
            chunk_vals.sort_unstable_by(f64::total_cmp);
            chunk_vals.dedup_by(|a, b| a.total_cmp(b).is_eq());
            merge_distinct(dj, &chunk_vals, &mut merged);
            std::mem::swap(dj, &mut merged);
            if dj.len() > distinct_cap {
                overflow = true;
                break;
            }
        }
        let resident = distinct.iter().map(|v| v.len() as u64 * 8).sum::<u64>()
            + (chunk.rows() * d) as u64 * 8;
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
        Ok(())
    })?;
    if overflow {
        return Ok(None);
    }
    Ok(Some(
        distinct
            .iter()
            .map(|dv| BinnedFeature::from_splits(splits_from_distinct(dv, max_bins)))
            .collect(),
    ))
}

/// Every chunk must be exactly as wide as the source declares: a
/// narrower one would read past its rows (`Matrix::get` indexes the flat
/// row-major buffer).
fn check_width(chunk: &Matrix, d: usize) -> Result<()> {
    if chunk.cols() != d {
        return Err(MlError::InvalidInput(format!(
            "chunk has {} columns, source declares {d}",
            chunk.cols()
        )));
    }
    Ok(())
}

/// Merge two `total_cmp`-sorted deduplicated runs into `out` (cleared
/// first), keeping the result sorted and deduplicated.
fn merge_distinct(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].total_cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::TableEncoder;
    use hyper_storage::{DataType, Field, Schema, Table, TableBuilder, Value};

    fn sample(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::nullable("c", DataType::Float),
            Field::new("y", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..n {
            let c: Value = if i % 6 == 0 {
                Value::Null
            } else {
                Value::Float((i % 2) as f64 * 0.5)
            };
            b.push(vec![
                Value::Int((i % 4) as i64),
                ["u", "v", "w"][i % 3].into(),
                c,
                Value::Float((i % 4) as f64 + 0.25),
            ])
            .unwrap();
        }
        b.build()
    }

    /// The encoded features and target of `sample(n)`.
    fn encoded(n: usize) -> (Matrix, Vec<f64>) {
        let t = sample(n);
        let cols: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let enc = TableEncoder::fit(&t, &cols).unwrap();
        let y = TableEncoder::target_vector(&t, "y").unwrap();
        (enc.encode_table(&t).unwrap(), y)
    }

    /// A resident matrix served in `chunk_rows`-row chunks; from pass
    /// `narrow_from` on (counting from 0), every chunk loses its last
    /// column.
    struct Chunked<'a> {
        x: &'a Matrix,
        chunk_rows: usize,
        pass: usize,
        narrow_from: usize,
    }

    impl<'a> Chunked<'a> {
        fn new(x: &'a Matrix, chunk_rows: usize) -> Chunked<'a> {
            Chunked {
                x,
                chunk_rows,
                pass: 0,
                narrow_from: usize::MAX,
            }
        }
    }

    impl TrainChunkSource for Chunked<'_> {
        fn num_rows(&self) -> usize {
            self.x.rows()
        }

        fn num_cols(&self) -> usize {
            self.x.cols()
        }

        fn for_each_chunk(&mut self, f: &mut dyn FnMut(&Matrix) -> Result<()>) -> Result<()> {
            let width = if self.pass >= self.narrow_from {
                self.x.cols() - 1
            } else {
                self.x.cols()
            };
            self.pass += 1;
            let mut start = 0;
            while start < self.x.rows() {
                let end = (start + self.chunk_rows).min(self.x.rows());
                let data = (start..end).flat_map(|i| self.x.row(i)[..width].iter().copied());
                f(&Matrix::from_vec(end - start, width, data.collect())?)?;
                start = end;
            }
            Ok(())
        }
    }

    #[test]
    fn layout_is_independent_of_chunking() {
        let (x, y) = encoded(500);
        let params = ForestParams {
            n_trees: 7,
            seed: 42,
            ..Default::default()
        };
        let rt = HyperRuntime::with_workers(0);
        let resident = RandomForest::fit_on(&rt, &x, &y, &params).unwrap();
        for chunk_rows in [1usize, 7, 4096] {
            let mut src = Chunked::new(&x, chunk_rows);
            let layout = StreamedLayout::build(&mut src, crate::hist::MAX_BINS, 500 / 4)
                .unwrap()
                .expect("discrete features stay cell-trainable");
            let streamed = layout.fit_forest(&rt, &y, &params).unwrap();
            for i in [0, 3, 499] {
                assert_eq!(
                    resident.predict_row(x.row(i)).to_bits(),
                    streamed.predict_row(x.row(i)).to_bits(),
                    "chunk_rows={chunk_rows} row={i}"
                );
            }
            assert_eq!(resident.num_trees(), streamed.num_trees());
            assert!(layout.stats().chunks_streamed >= 2);
            assert!(layout.stats().peak_resident_bytes > 0);
        }
    }

    #[test]
    fn cell_cap_overflow_falls_back_to_none() {
        let (x, _) = encoded(200);
        // A 1-cell cap cannot hold the joint distinct cells.
        let layout = StreamedLayout::build(&mut &x, crate::hist::MAX_BINS, 1).unwrap();
        assert!(layout.is_none());
    }

    #[test]
    fn empty_source_is_none() {
        let x = Matrix::zeros(0, 3);
        assert!(StreamedLayout::build(&mut &x, 255, 64).unwrap().is_none());
    }

    #[test]
    fn distinct_cap_binds_streamed_sources_only() {
        // One feature with more distinct values than the streaming cap,
        // but few bins and so few cells.
        let n = STREAM_DISTINCT_CAP + 10;
        let x = Matrix::from_vec(n, 1, (0..n).map(|i| i as f64).collect()).unwrap();
        assert!(StreamedLayout::build(&mut &x, 8, n).unwrap().is_none());
        match StreamedLayout::attempt(&mut &x, 8, n, usize::MAX).unwrap() {
            Attempt::Cells(layout) => assert_eq!(layout.num_cells(), 8),
            _ => panic!("a resident matrix has no distinct cap"),
        }
    }

    #[test]
    fn narrower_chunk_in_pass_two_is_rejected() {
        let (x, _) = encoded(50);
        let mut src = Chunked {
            narrow_from: 1,
            ..Chunked::new(&x, 16)
        };
        match StreamedLayout::build(&mut src, crate::hist::MAX_BINS, 50) {
            Err(MlError::InvalidInput(msg)) => assert!(msg.contains("columns"), "{msg}"),
            other => panic!(
                "expected InvalidInput, got {:?}",
                other.map(|l| l.is_some())
            ),
        }
    }

    #[test]
    fn merge_distinct_keeps_sorted_dedup() {
        let mut out = Vec::new();
        merge_distinct(&[1.0, 3.0, 5.0], &[0.0, 3.0, 9.0], &mut out);
        assert_eq!(out, vec![0.0, 1.0, 3.0, 5.0, 9.0]);
        merge_distinct(&[], &[2.0], &mut out);
        assert_eq!(out, vec![2.0]);
    }
}
