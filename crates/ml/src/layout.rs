//! The cell layout every forest trains through, built in two passes over
//! encoded rows.
//!
//! The rows come in one of two forms:
//!
//! - **A matrix** ([`CellLayout::from_matrix`]): the
//!   [`RandomForest::fit_on`] route.
//! - **Support cells** ([`CellLayout::from_cells`],
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
//! 1. **Pass one** sorts and deduplicates each feature column (by
//!    `total_cmp`) and derives the split thresholds from its exact
//!    distinct values.
//! 2. **Pass two** bins each row against the fixed splits and numbers the
//!    joint cells (rows sharing one bin vector, which no split can
//!    separate) in first-occurrence row order. More than `max_cells`
//!    cells declines the layout: continuous features keep the row-wise
//!    trainer, which reuses the per-row bins from this pass.
//!
//! Trees then fit over per-cell statistics ([`CellLayout::fit_forest`]):
//! one O(rows) bootstrap accumulation per tree plus an O(cells) tree
//! build.
//!
//! ## Determinism contract
//!
//! The layout depends only on the rows, never on whether they arrive as
//! a matrix or as support cells: the distinct sets (hence splits) and the
//! first-occurrence cell ids are the same, and each tree's RNG derives
//! from `(seed, tree_index)`. So a forest fitted over support cells is
//! **bit-identical** (`f64::to_bits`) to [`RandomForest::fit_on`] over the
//! expanded matrix, for any worker count. This module's tests check the
//! support-cell form over shuffled rows, cells sharing a bin, and the
//! cell cap; `tests/prop_cells_train.rs` checks it across worker counts
//! under tracing.

use std::collections::HashMap;

use hyper_runtime::HyperRuntime;
use rand::Rng;

use crate::error::{MlError, Result};
use crate::forest::{grow_trees, ForestParams, RandomForest};
use crate::hist::{bin_value, splits_from_distinct, BinnedFeature, BinnedMatrix, CellIndex};
use crate::matrix::Matrix;
use crate::tree::RegressionTree;

/// The cell layout: a splits-only [`BinnedMatrix`] plus the joint
/// [`CellIndex`] — everything cell-mode forest fitting needs, with no
/// per-row bin vectors.
pub(crate) struct CellLayout {
    binned: BinnedMatrix,
    cells: CellIndex,
}

/// What binning the rows produced.
pub(crate) enum Binning {
    /// Every row maps to one of at most `max_cells` joint cells.
    Cells(CellLayout),
    /// More joint cells than the cap: every row's bins, for the row-wise
    /// trainer.
    Rows(BinnedMatrix),
}

impl CellLayout {
    /// Both passes over the rows of `x`. `max_bins` is clamped to
    /// `2..=`[`crate::hist::MAX_BINS`].
    pub(crate) fn from_matrix(x: &Matrix, max_bins: usize, max_cells: usize) -> Binning {
        let n = x.rows();
        let features = split_pass(x, max_bins);
        let bins = bin_pass(x, &features);
        match number_cells(&bins, n, max_cells) {
            Some((cell_of_row, cell_bins, num_cells)) => Binning::Cells(CellLayout {
                binned: BinnedMatrix::from_features(features, n),
                cells: CellIndex::from_parts(cell_of_row, cell_bins, num_cells),
            }),
            None => Binning::Rows(with_row_bins(features, bins, n)),
        }
    }

    /// Both passes over support cells: `reps` holds one encoded row per
    /// cell (cell `c`'s representative is row `c`), and `cell_of_row[i]`
    /// is the cell of row `i`. Cells must be numbered in first-occurrence
    /// row order — the first row of cell `c + 1` comes after the first row
    /// of cell `c` — and every cell must hold a row; anything else is an
    /// `InvalidInput` error.
    ///
    /// Both passes read the representatives only: every row of a cell
    /// encodes, and so bins, exactly like its representative, so the
    /// distinct sets (hence splits) are those of the expanded rows, and
    /// numbering bin vectors in representative order is numbering them in
    /// first-occurrence row order. The result is therefore the one
    /// [`CellLayout::from_matrix`] derives from the expanded matrix, found
    /// in O(cells) binning plus one `u32` remap per row; above
    /// `max_cells` each row takes its representative's bins.
    pub(crate) fn from_cells(
        reps: &Matrix,
        cell_of_row: &[u32],
        max_bins: usize,
        max_cells: usize,
    ) -> Result<Binning> {
        check_first_occurrence(cell_of_row, reps.rows())?;
        let n = cell_of_row.len();
        let features = split_pass(reps, max_bins);
        let rep_bins = bin_pass(reps, &features);
        Ok(match number_cells(&rep_bins, reps.rows(), max_cells) {
            // Pass two numbered the representatives' bin vectors: the
            // layout cell of each support cell.
            Some((remap, cell_bins, num_cells)) => {
                let cell_of_row = cell_of_row.iter().map(|&c| remap[c as usize]).collect();
                Binning::Cells(CellLayout {
                    binned: BinnedMatrix::from_features(features, n),
                    cells: CellIndex::from_parts(cell_of_row, cell_bins, num_cells),
                })
            }
            None => {
                let bins = rep_bins
                    .iter()
                    .map(|rb| cell_of_row.iter().map(|&c| rb[c as usize]).collect())
                    .collect();
                Binning::Rows(with_row_bins(features, bins, n))
            }
        })
    }

    /// Fit a forest over the layout: each tree accumulates its bootstrap
    /// into per-cell `(count, Σy, Σy²)` statistics and fits over the
    /// cells. The caller has checked `y` against the rows.
    pub(crate) fn fit_forest(
        &self,
        runtime: &HyperRuntime,
        y: &[f64],
        params: &ForestParams,
    ) -> Result<RandomForest> {
        let tree_params = params.tree_params(self.binned.cols());
        let n = self.binned.rows();
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

/// Pass one: each feature's exact distinct-value set (sorted by
/// `total_cmp`, deduplicated), turned into split thresholds.
fn split_pass(x: &Matrix, max_bins: usize) -> Vec<BinnedFeature> {
    let max_bins = max_bins.clamp(2, crate::hist::MAX_BINS);
    let mut distinct: Vec<f64> = Vec::with_capacity(x.rows());
    (0..x.cols())
        .map(|j| {
            distinct.clear();
            distinct.extend((0..x.rows()).map(|i| x.get(i, j)));
            distinct.sort_unstable_by(f64::total_cmp);
            distinct.dedup_by(|a, b| a.total_cmp(b).is_eq());
            BinnedFeature::from_splits(splits_from_distinct(&distinct, max_bins))
        })
        .collect()
}

/// Pass two, first half: the bin of every row under each feature's
/// splits (`bins[f][row]`).
fn bin_pass(x: &Matrix, features: &[BinnedFeature]) -> Vec<Vec<u8>> {
    features
        .iter()
        .enumerate()
        .map(|(f, feature)| {
            let splits = feature.splits();
            (0..x.rows())
                .map(|i| bin_value(splits, x.get(i, f)))
                .collect()
        })
        .collect()
}

/// Pass two, second half: number the joint cells of the first `rows` rows
/// of `bins` in first-occurrence row order. Returns each row's cell, each
/// feature's bin per cell (`cell_bins[f][cell]`) and the cell count, or
/// `None` at the first cell past `max_cells`.
fn number_cells(
    bins: &[Vec<u8>],
    rows: usize,
    max_cells: usize,
) -> Option<(Vec<u32>, Vec<Vec<u8>>, usize)> {
    let mut key = vec![0u8; bins.len()];
    let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut cell_of_row = Vec::with_capacity(rows);
    let mut cell_bins = vec![Vec::new(); bins.len()];
    for i in 0..rows {
        for (k, b) in key.iter_mut().zip(bins) {
            *k = b[i];
        }
        let id = match ids.get(key.as_slice()) {
            Some(&id) => id,
            None if ids.len() == max_cells => return None,
            None => {
                let id = ids.len() as u32;
                ids.insert(key.clone(), id);
                for (cb, &k) in cell_bins.iter_mut().zip(&key) {
                    cb.push(k);
                }
                id
            }
        };
        cell_of_row.push(id);
    }
    Some((cell_of_row, cell_bins, ids.len()))
}

/// The splits-only `features` with every row's `bins` attached: the
/// row-wise trainer's input.
fn with_row_bins(features: Vec<BinnedFeature>, bins: Vec<Vec<u8>>, n: usize) -> BinnedMatrix {
    let features = features.into_iter().zip(bins);
    BinnedMatrix::from_features(features.map(|(f, b)| f.with_bins(b)).collect(), n)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::TableEncoder;
    use crate::hist::MAX_BINS;
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

    /// The cell layout of a binning, or `None` when it fell back to rows.
    fn cell_layout(b: Binning) -> Option<CellLayout> {
        match b {
            Binning::Cells(layout) => Some(layout),
            Binning::Rows(_) => None,
        }
    }

    fn layout_of(x: &Matrix, max_cells: usize) -> Option<CellLayout> {
        cell_layout(CellLayout::from_matrix(x, MAX_BINS, max_cells))
    }

    fn layout_of_cells(reps: &Matrix, cells: &[u32], max_cells: usize) -> Option<CellLayout> {
        cell_layout(CellLayout::from_cells(reps, cells, MAX_BINS, max_cells).unwrap())
    }

    #[test]
    fn cell_cap_overflow_falls_back_to_rows() {
        let (x, _) = encoded(200);
        // A 1-cell cap cannot hold the joint distinct cells.
        match CellLayout::from_matrix(&x, MAX_BINS, 1) {
            Binning::Rows(binned) => {
                assert_eq!(binned.rows(), 200);
                assert_eq!(binned.feature(0).bins().len(), 200);
            }
            Binning::Cells(_) => panic!("a 1-cell cap must decline"),
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
        let expanded = layout_of(&xs, cap).unwrap();
        let layout = layout_of_cells(&reps, &cells, cap).unwrap();
        assert_eq!(layout.binned.rows(), 600);
        assert_eq!(layout.cells.num_cells(), expanded.cells.num_cells());
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
        let layout =
            layout_of_cells(&reps, &cells, n / 4).expect("binned cells stay under the cap");
        assert!(
            layout.cells.num_cells() < reps.rows(),
            "{}",
            layout.cells.num_cells()
        );
        let (xs, ys) = shuffled(&x, &y, 9);
        assert_cells_fit_matches(&xs, &ys, "wide feature");
    }

    #[test]
    fn cells_decline_exactly_where_the_expanded_matrix_does() {
        let (x, _) = encoded(500);
        let (reps, cells) = support_cells(&x);
        let joint = layout_of(&x, 500).unwrap().cells.num_cells();
        for cap in [joint - 1, joint, joint + 1] {
            let expanded = layout_of(&x, cap);
            let layout = layout_of_cells(&reps, &cells, cap);
            assert_eq!(layout.is_some(), expanded.is_some(), "cap {cap} of {joint}");
            assert_eq!(expanded.is_some(), cap >= joint);
        }
        // Above the forest's cap (continuous values with repeats), both
        // fit row-wise over the same per-row bins.
        let n = 400;
        let data = (0..n).map(|i| ((i * 37) % 300) as f64 / 3.0);
        let x = Matrix::from_vec(n, 1, data.collect()).unwrap();
        let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let (reps, cells) = support_cells(&x);
        assert!(layout_of_cells(&reps, &cells, n / 4).is_none());
        assert_cells_fit_matches(&x, &y, "row-wise");
    }

    #[test]
    fn cells_out_of_first_occurrence_order_are_rejected() {
        let reps = Matrix::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        for cells in [&[1u32, 0, 1][..], &[0, 2, 1], &[0, 0, 0]] {
            match CellLayout::from_cells(&reps, cells, MAX_BINS, 64) {
                Err(MlError::InvalidInput(_)) => {}
                Err(e) => panic!("{cells:?}: {e}"),
                Ok(_) => panic!("{cells:?} was accepted"),
            }
        }
        assert!(layout_of_cells(&reps, &[0, 1, 0], 64).is_some());
    }
}
