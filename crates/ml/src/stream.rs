//! The cell layout every forest trains through, built in two passes over
//! encoded rows.
//!
//! The rows come in one of three forms:
//!
//! - **A resident matrix**: a [`Matrix`] is a [`TrainChunkSource`] with a
//!   single chunk — the [`RandomForest::fit_on`] route.
//! - **A streamed source**: a [`TrainChunkSource`] yields encoded feature
//!   rows in global row order, one chunk at a time. `hyper-store`'s
//!   `PagedTrainSource` streams an out-of-core table morsel by morsel, so
//!   its dense encoded matrix (8 B × width per row) never exists.
//! - **Support cells** ([`StreamedLayout::from_cells`],
//!   [`RandomForest::fit_on_cells`]): one encoded representative row per
//!   cell of identical raw rows, plus each row's cell id — the §3.3
//!   support index of `hyper-core`'s relevant view. Every row encodes
//!   like its representative, so both passes read the representatives
//!   alone (the distinct sets, hence the splits, are the same), and rows
//!   reach the layout through one `u32` remap each. Cells numbered in
//!   first-occurrence row order number the layout's joint cells in
//!   first-occurrence order too, so the layout equals the one built from
//!   the expanded matrix.
//!
//! Either way the layout is built by reading the rows twice:
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
//! are chunked or whether they arrive as support cells: the distinct sets
//! (hence splits) and the first-occurrence cell ids are the same for one
//! chunk, many, or the representatives of the cells, and each tree's RNG
//! derives from `(seed, tree_index)`. So a forest fitted over a streamed
//! source or over support cells is **bit-identical** (`f64::to_bits`) to
//! [`RandomForest::fit_on`] over the collected matrix, for any worker
//! count and any chunk size. `hyper-store`'s `prop_stream_train` suite
//! checks this across workers × chunk sizes × paging budgets; this
//! module's tests check the support-cell form over shuffled rows, cells
//! sharing a bin, and the cell cap.

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
        let mut stats = TrainStreamStats::default();
        let Some(features) = split_pass(source, max_bins, distinct_cap, &mut stats)? else {
            return Ok(Attempt::TooManyDistinct);
        };
        let pass = cell_pass(source, &features, max_cells, &mut stats)?;
        if pass.too_many_cells {
            // A source read as one chunk leaves every row's bins behind:
            // the row-wise trainer's input, binned once.
            let binned = (pass.chunk_rows == n).then(|| {
                let features = features.into_iter().zip(pass.chunk_bins);
                let features = features.map(|(f, bins)| f.with_bins(bins)).collect();
                BinnedMatrix::from_features(features, n)
            });
            return Ok(Attempt::Rows(binned));
        }
        if pass.cell_of_row.len() != n {
            return Err(MlError::InvalidInput(format!(
                "source streamed {} rows, declared {n}",
                pass.cell_of_row.len()
            )));
        }
        Ok(Attempt::Cells(StreamedLayout {
            binned: BinnedMatrix::from_features(features, n),
            cells: CellIndex::from_parts(pass.cell_of_row, pass.cell_bins, pass.num_cells),
            rows: n,
            stats,
        }))
    }

    /// Build the layout from support cells: `reps` holds one encoded row
    /// per cell (cell `c`'s representative is row `c`), and
    /// `cell_of_row[i]` is the cell of row `i`. Cells must be numbered in
    /// first-occurrence row order — the first row of cell `c + 1` comes
    /// after the first row of cell `c` — and every cell must hold a row;
    /// anything else is an `InvalidInput` error.
    ///
    /// Both passes read the representatives only: every row of a cell
    /// encodes, and so bins, exactly like its representative, so the
    /// distinct sets (hence splits) are those of the expanded rows, and
    /// numbering bin vectors in representative order is numbering them in
    /// first-occurrence row order. The layout is therefore the one
    /// [`StreamedLayout::build`] derives from the expanded matrix, found
    /// in O(cells) binning plus one `u32` remap per row. Returns
    /// `Ok(None)` when `cell_of_row` is empty or the joint cells exceed
    /// `max_cells`.
    pub fn from_cells(
        reps: &Matrix,
        cell_of_row: &[u32],
        max_bins: usize,
        max_cells: usize,
    ) -> Result<Option<StreamedLayout>> {
        if cell_of_row.is_empty() {
            return Ok(None);
        }
        let _span = hyper_trace::span(hyper_trace::Phase::ForestTrain);
        Ok(
            match Self::attempt_cells(reps, cell_of_row, max_bins, max_cells)? {
                Attempt::Cells(layout) => Some(layout),
                Attempt::Rows(_) | Attempt::TooManyDistinct => None,
            },
        )
    }

    /// [`StreamedLayout::from_cells`], keeping the per-row bins when the
    /// joint cells exceed `max_cells` (each row takes its
    /// representative's), for the row-wise trainer.
    pub(crate) fn attempt_cells(
        reps: &Matrix,
        cell_of_row: &[u32],
        max_bins: usize,
        max_cells: usize,
    ) -> Result<Attempt> {
        check_first_occurrence(cell_of_row, reps.rows())?;
        let max_bins = max_bins.clamp(2, crate::hist::MAX_BINS);
        let n = cell_of_row.len();
        let mut stats = TrainStreamStats::default();
        let mut source = reps;
        let features = split_pass(&mut source, max_bins, usize::MAX, &mut stats)?
            .expect("a resident matrix has no distinct cap");
        let pass = cell_pass(&mut source, &features, max_cells, &mut stats)?;
        if pass.too_many_cells {
            let features = features.into_iter().zip(pass.chunk_bins);
            let features = features
                .map(|(f, rep_bins)| {
                    f.with_bins(cell_of_row.iter().map(|&c| rep_bins[c as usize]).collect())
                })
                .collect();
            return Ok(Attempt::Rows(Some(BinnedMatrix::from_features(
                features, n,
            ))));
        }
        // Pass two numbered the representatives' bin vectors: the layout
        // cell of each support cell.
        let remap = pass.cell_of_row;
        let cell_of_row = cell_of_row.iter().map(|&c| remap[c as usize]).collect();
        Ok(Attempt::Cells(StreamedLayout {
            binned: BinnedMatrix::from_features(features, n),
            cells: CellIndex::from_parts(cell_of_row, pass.cell_bins, pass.num_cells),
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

/// What pass two found.
struct CellPass {
    /// Cell id of each row streamed before the cap was hit.
    cell_of_row: Vec<u32>,
    /// Per-feature bin id of each cell (`cell_bins[f][cell]`).
    cell_bins: Vec<Vec<u8>>,
    num_cells: usize,
    /// Per-feature bins of the last chunk read (of every row, for a
    /// one-chunk source).
    chunk_bins: Vec<Vec<u8>>,
    chunk_rows: usize,
    /// The joint cells passed `max_cells`; the pass stopped there.
    too_many_cells: bool,
}

/// Pass two: bin each chunk against the fixed splits, column by column,
/// and number the joint cells in first-occurrence row order, stopping at
/// the first cell past `max_cells`.
fn cell_pass<S: TrainChunkSource + ?Sized>(
    source: &mut S,
    features: &[BinnedFeature],
    max_cells: usize,
    stats: &mut TrainStreamStats,
) -> Result<CellPass> {
    let d = source.num_cols();
    let splits_bytes: u64 = features.iter().map(|f| f.splits().len() as u64 * 8).sum();
    let mut key = vec![0u8; d];
    let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut pass = CellPass {
        cell_of_row: Vec::with_capacity(source.num_rows()),
        cell_bins: vec![Vec::new(); d],
        num_cells: 0,
        chunk_bins: vec![Vec::new(); d],
        chunk_rows: 0,
        too_many_cells: false,
    };
    source.for_each_chunk(&mut |chunk| {
        check_width(chunk, d)?;
        stats.chunks_streamed += 1;
        if pass.too_many_cells {
            return Ok(());
        }
        let chunk_rows = chunk.rows();
        pass.chunk_rows = chunk_rows;
        for (f, bins) in pass.chunk_bins.iter_mut().enumerate() {
            let splits = features[f].splits();
            bins.clear();
            bins.extend((0..chunk_rows).map(|i| bin_value(splits, chunk.get(i, f))));
        }
        for i in 0..chunk_rows {
            for (k, bins) in key.iter_mut().zip(&pass.chunk_bins) {
                *k = bins[i];
            }
            let id = match ids.get(key.as_slice()) {
                Some(&id) => id,
                None if ids.len() == max_cells => {
                    pass.too_many_cells = true;
                    return Ok(());
                }
                None => {
                    let id = ids.len() as u32;
                    ids.insert(key.clone(), id);
                    for (bins, &k) in pass.cell_bins.iter_mut().zip(&key) {
                        bins.push(k);
                    }
                    id
                }
            };
            pass.cell_of_row.push(id);
        }
        let resident = splits_bytes
            + pass.cell_of_row.len() as u64 * 4
            + ids.len() as u64 * (d as u64 + 48)
            + (ids.len() * d) as u64
            + (chunk_rows * d) as u64 * 9;
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
        Ok(())
    })?;
    pass.num_cells = ids.len();
    Ok(pass)
}

/// Support cells must be numbered in first-occurrence row order, each of
/// the `reps` cells holding at least one row: cell `c` may first appear
/// only once cells `0..c` have.
fn check_first_occurrence(cell_of_row: &[u32], reps: usize) -> Result<()> {
    let mut seen = 0usize;
    for (i, &c) in cell_of_row.iter().enumerate() {
        let c = c as usize;
        if c == seen && c < reps {
            seen += 1;
        } else if c > seen || c >= reps {
            return Err(MlError::InvalidInput(format!(
                "row {i} is in cell {c}, but only cells 0..{seen} of {reps} have appeared"
            )));
        }
    }
    if seen != reps {
        return Err(MlError::InvalidInput(format!(
            "{reps} representatives, but rows fill only {seen} cells"
        )));
    }
    Ok(())
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

    /// The support cells of `x`'s rows, numbered in first-occurrence
    /// order by exact bits: one representative row per cell and the cell
    /// of each row.
    fn support_cells(x: &Matrix) -> (Matrix, Vec<u32>) {
        let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut reps = Matrix::zeros(0, 0);
        let cells = (0..x.rows())
            .map(|i| {
                let key = x.row(i).iter().map(|v| v.to_bits()).collect();
                let next = ids.len() as u32;
                *ids.entry(key).or_insert_with(|| {
                    reps.push_row(x.row(i)).unwrap();
                    next
                })
            })
            .collect();
        (reps, cells)
    }

    /// `x` with its rows in a seeded random order, and `y` to match.
    fn shuffled(x: &Matrix, y: &[f64], seed: u64) -> (Matrix, Vec<f64>) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<usize> = (0..x.rows()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let data = order.iter().flat_map(|&i| x.row(i).iter().copied());
        let xs = Matrix::from_vec(x.rows(), x.cols(), data.collect()).unwrap();
        (xs, order.iter().map(|&i| y[i]).collect())
    }

    /// `fit_on_cells` over `x`'s support cells predicts every row of `x`
    /// with the bits of `fit_on` over `x` itself.
    fn assert_cells_fit_matches(x: &Matrix, y: &[f64], what: &str) {
        let params = ForestParams {
            n_trees: 6,
            seed: 17,
            ..Default::default()
        };
        let rt = HyperRuntime::with_workers(0);
        let (reps, cells) = support_cells(x);
        let resident = RandomForest::fit_on(&rt, x, y, &params).unwrap();
        let from_cells = RandomForest::fit_on_cells(&rt, &reps, &cells, y, &params).unwrap();
        for i in 0..x.rows() {
            assert_eq!(
                resident.predict_row(x.row(i)).to_bits(),
                from_cells.predict_row(x.row(i)).to_bits(),
                "{what}: row {i}"
            );
        }
    }

    #[test]
    fn cells_fit_matches_the_expanded_matrix_over_shuffled_rows() {
        let (x, y) = encoded(600);
        for seed in [1, 2, 3] {
            let (xs, ys) = shuffled(&x, &y, seed);
            assert_cells_fit_matches(&xs, &ys, &format!("shuffle {seed}"));
        }
        // The layouts agree cell for cell: same count, same row cells.
        let (xs, _) = shuffled(&x, &y, 4);
        let (reps, cells) = support_cells(&xs);
        let cap = 600 / 4;
        let expanded = StreamedLayout::build(&mut &xs, crate::hist::MAX_BINS, cap)
            .unwrap()
            .unwrap();
        let layout = StreamedLayout::from_cells(&reps, &cells, crate::hist::MAX_BINS, cap)
            .unwrap()
            .unwrap();
        assert_eq!(layout.rows(), 600);
        assert_eq!(layout.num_cells(), expanded.num_cells());
        assert_eq!(layout.cells.cell_of_row(), expanded.cells.cell_of_row());
        for f in 0..xs.cols() {
            assert_eq!(layout.cells.cell_bins(f), expanded.cells.cell_bins(f));
            assert_eq!(
                layout.binned.feature(f).splits(),
                expanded.binned.feature(f).splits()
            );
        }
    }

    #[test]
    fn support_cells_sharing_a_bin_share_a_layout_cell() {
        // 600 distinct values thin to MAX_BINS bins, so several support
        // cells fall into one layout cell; a second, binary feature keeps
        // the joint cells under the cap.
        let n = 4000;
        let data = (0..n).flat_map(|i| [((i * 7) % 600) as f64 / 7.0, (i % 2) as f64]);
        let x = Matrix::from_vec(n, 2, data.collect()).unwrap();
        let y: Vec<f64> = (0..n).map(|i| ((i * 7) % 600) as f64 / 100.0).collect();
        let (reps, cells) = support_cells(&x);
        assert_eq!(reps.rows(), 600);
        let layout = StreamedLayout::from_cells(&reps, &cells, crate::hist::MAX_BINS, n / 4)
            .unwrap()
            .expect("binned cells stay under the cap");
        assert!(layout.num_cells() < reps.rows(), "{}", layout.num_cells());
        let (xs, ys) = shuffled(&x, &y, 9);
        assert_cells_fit_matches(&xs, &ys, "wide feature");
    }

    #[test]
    fn cells_decline_exactly_where_the_expanded_matrix_does() {
        let (x, _) = encoded(500);
        let (reps, cells) = support_cells(&x);
        let joint = StreamedLayout::build(&mut &x, crate::hist::MAX_BINS, 500)
            .unwrap()
            .unwrap()
            .num_cells();
        for cap in [joint - 1, joint, joint + 1] {
            let expanded = StreamedLayout::build(&mut &x, crate::hist::MAX_BINS, cap).unwrap();
            let layout = StreamedLayout::from_cells(&reps, &cells, crate::hist::MAX_BINS, cap);
            assert_eq!(
                layout.unwrap().is_some(),
                expanded.is_some(),
                "cap {cap} of {joint}"
            );
            assert_eq!(expanded.is_some(), cap >= joint);
        }
        // Above the forest's cap (continuous values with repeats), both
        // fit row-wise over the same per-row bins.
        let n = 400;
        let data = (0..n).map(|i| ((i * 37) % 300) as f64 / 3.0);
        let x = Matrix::from_vec(n, 1, data.collect()).unwrap();
        let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let (reps, cells) = support_cells(&x);
        assert!(
            StreamedLayout::from_cells(&reps, &cells, crate::hist::MAX_BINS, n / 4)
                .unwrap()
                .is_none()
        );
        assert_cells_fit_matches(&x, &y, "row-wise");
    }

    #[test]
    fn cells_out_of_first_occurrence_order_are_rejected() {
        let reps = Matrix::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        for cells in [&[1u32, 0, 1][..], &[0, 2, 1], &[0, 0, 0]] {
            match StreamedLayout::from_cells(&reps, cells, crate::hist::MAX_BINS, 64) {
                Err(MlError::InvalidInput(_)) => {}
                other => panic!("{cells:?}: {:?}", other.map(|l| l.is_some())),
            }
        }
        assert!(StreamedLayout::from_cells(&reps, &[0, 1, 0], 255, 64)
            .unwrap()
            .is_some());
        assert!(StreamedLayout::from_cells(&reps, &[], 255, 64)
            .unwrap()
            .is_none());
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
