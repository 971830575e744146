//! Random-forest regression: bagged CART trees with feature subsampling.
//!
//! The reproduction's stand-in for the paper's sklearn
//! `RandomForestRegressor` (§5, "Implementation and setup"): HypeR trains
//! one of these per conditional-probability estimate — it dominates cold
//! what-if latency, so training is the engine's hottest cold path.
//!
//! Every fit goes through one cell layout
//! (`layout.rs`'s `CellLayout`), built from the feature matrix or from
//! its support cells: each feature is binned once into at most
//! [`MAX_BINS`] histogram bins, and rows sharing one bin vector collapse
//! into weighted cells. Over HypeR's discrete adjustment sets a view has
//! a few hundred cells, so each tree costs one O(rows) bootstrap
//! accumulation plus an O(cells) build. When the cells exceed the cap
//! (continuous features), trees fit row-wise over per-row bins
//! ([`crate::hist::BinnedMatrix`]) derived from the same splits, with
//! per-node histogram split search.
//!
//! Trees train concurrently over a [`hyper_runtime::HyperRuntime`] worker
//! pool. Each tree derives its own RNG from `(seed, tree_index)`, so a
//! fitted forest is **bit-identical for a fixed seed regardless of worker
//! count** — including the zero-worker sequential fallback.

use std::sync::OnceLock;

use hyper_runtime::HyperRuntime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{MlError, Result};
use crate::hist::MAX_BINS;
use crate::layout::{Binning, CellLayout};
use crate::matrix::Matrix;
use crate::tree::{RegressionTree, TreeParams};

/// Derive the per-tree RNG seed: a SplitMix64 scramble of the forest seed
/// and the tree index, so tree streams are independent and assignment of
/// trees to worker threads cannot change any tree's randomness.
fn tree_seed(seed: u64, tree: usize) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tree as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The joint-cell cap of a resident fit over `rows` rows: above it, trees
/// fit row-wise.
fn cell_cap(rows: usize) -> usize {
    (rows / 4).max(64)
}

/// Hyper-parameters for the forest.
#[derive(Debug, Clone)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (feature subsampling defaults to √d when the
    /// tree's `max_features` is `None`).
    pub tree: TreeParams,
    /// Bootstrap sample (with replacement) per tree.
    pub bootstrap: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 20,
            tree: TreeParams::default(),
            bootstrap: true,
            seed: 0,
        }
    }
}

impl ForestParams {
    /// Reject a fit over `rows` feature rows with targets `y` that cannot
    /// produce a forest.
    pub(crate) fn check(&self, rows: usize, y: &[f64]) -> Result<()> {
        if rows == 0 {
            return Err(MlError::InvalidInput("empty training set".into()));
        }
        if rows != y.len() {
            return Err(MlError::InvalidInput(format!(
                "x has {rows} rows, y has {}",
                y.len()
            )));
        }
        if self.n_trees == 0 {
            return Err(MlError::InvalidInput("n_trees must be ≥ 1".into()));
        }
        Ok(())
    }

    /// Per-tree parameters over `d` features: unless set, feature
    /// subsampling defaults to ⌈√d⌉ above three features.
    pub(crate) fn tree_params(&self, d: usize) -> TreeParams {
        let mut tree = self.tree.clone();
        if tree.max_features.is_none() && d > 3 {
            tree.max_features = Some((d as f64).sqrt().ceil() as usize);
        }
        tree
    }
}

/// Fit `params.n_trees` trees in parallel over `runtime`; tree `t` draws
/// from its own RNG seeded by `(params.seed, t)`.
pub(crate) fn grow_trees<F>(
    runtime: &HyperRuntime,
    params: &ForestParams,
    fit_tree: F,
) -> Result<RandomForest>
where
    F: Fn(&mut StdRng) -> Result<RegressionTree> + Sync,
{
    let slots: Vec<OnceLock<Result<RegressionTree>>> =
        (0..params.n_trees).map(|_| OnceLock::new()).collect();
    runtime.for_each_parallel(params.n_trees, |t| {
        let mut rng = StdRng::seed_from_u64(tree_seed(params.seed, t));
        let _ = slots[t].set(fit_tree(&mut rng));
    });
    let trees = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every tree slot is filled"))
        .collect::<Result<Vec<_>>>()?;
    Ok(RandomForest { trees })
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fit on `(x, y)` over the process-wide [`HyperRuntime`].
    pub fn fit(x: &Matrix, y: &[f64], params: &ForestParams) -> Result<RandomForest> {
        Self::fit_on(HyperRuntime::global(), x, y, params)
    }

    /// Fit on `(x, y)`, training trees in parallel over `runtime`. The
    /// result depends only on `(x, y, params)` — never on the runtime's
    /// worker count (each tree's randomness is derived from
    /// `(params.seed, tree_index)`).
    ///
    /// `x` is binned into a cell layout with a cap of `max(rows / 4, 64)`
    /// joint cells. Above the cap, trees fit row-wise over the per-row
    /// bins the layout's second pass already derived — no column is
    /// sorted twice.
    pub fn fit_on(
        runtime: &HyperRuntime,
        x: &Matrix,
        y: &[f64],
        params: &ForestParams,
    ) -> Result<RandomForest> {
        params.check(x.rows(), y)?;
        let _span = hyper_trace::span(hyper_trace::Phase::ForestTrain);
        let binning = CellLayout::from_matrix(x, MAX_BINS, cell_cap(x.rows()));
        Self::fit_binning(runtime, binning, y, params)
    }

    /// Fit on rows given as support cells: `reps` holds one encoded row
    /// per cell and `cell_of_row[i]` is the cell of row `i`, numbered in
    /// first-occurrence row order with every cell holding a row (anything
    /// else is an `InvalidInput` error). The forest is bit-identical to [`RandomForest::fit_on`] over the
    /// expanded matrix (row `i` = `reps` row `cell_of_row[i]`), under the
    /// same cell cap, but only the representatives are ever binned: above
    /// the cap each row takes its representative's bins.
    pub fn fit_on_cells(
        runtime: &HyperRuntime,
        reps: &Matrix,
        cell_of_row: &[u32],
        y: &[f64],
        params: &ForestParams,
    ) -> Result<RandomForest> {
        params.check(cell_of_row.len(), y)?;
        let _span = hyper_trace::span(hyper_trace::Phase::ForestTrain);
        let n = cell_of_row.len();
        let binning = CellLayout::from_cells(reps, cell_of_row, MAX_BINS, cell_cap(n))?;
        Self::fit_binning(runtime, binning, y, params)
    }

    /// Fit over a binning: per cell, or row-wise over per-row bins above
    /// the cell cap.
    fn fit_binning(
        runtime: &HyperRuntime,
        binning: Binning,
        y: &[f64],
        params: &ForestParams,
    ) -> Result<RandomForest> {
        match binning {
            Binning::Cells(layout) => layout.fit_forest(runtime, y, params),
            Binning::Rows(binned) => {
                let n = binned.rows();
                let tree_params = params.tree_params(binned.cols());
                grow_trees(runtime, params, |rng| {
                    let idx: Vec<u32> = if params.bootstrap {
                        let mut idx: Vec<u32> =
                            (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
                        // Ascending order makes every histogram pass walk
                        // the bin buffers forward (the multiset, not the
                        // order, defines the fitted tree).
                        idx.sort_unstable();
                        idx
                    } else {
                        (0..n as u32).collect()
                    };
                    RegressionTree::fit_binned(&binned, y, idx, &tree_params, rng)
                })
            }
        }
    }

    /// Mean prediction across trees for one sample.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let s: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
        s / self.trees.len() as f64
    }

    /// Batch prediction. Large batches split row ranges across the global
    /// [`HyperRuntime`]'s workers (prediction is read-only per tree, so
    /// this is pure fan-out); each row's mean-over-trees is computed
    /// identically either way, so the output is bit-identical to the
    /// sequential loop.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let rt = HyperRuntime::global();
        let morsel_rows = if x.rows() >= hyper_storage::PARALLEL_ROW_THRESHOLD && rt.workers() > 0 {
            hyper_storage::DEFAULT_MORSEL_ROWS
        } else {
            x.rows().max(1) // one range: the plain sequential loop
        };
        self.predict_on(rt, x, morsel_rows)
    }

    /// [`RandomForest::predict`] on a caller-chosen runtime and morsel
    /// size (the parity tests drive this across worker counts).
    pub fn predict_on(&self, rt: &HyperRuntime, x: &Matrix, morsel_rows: usize) -> Vec<f64> {
        let n = x.rows();
        if n == 0 {
            return Vec::new();
        }
        let _span = hyper_trace::span(hyper_trace::Phase::Predict);
        let morsel_rows = morsel_rows.max(1);
        let mut out = vec![0.0f64; n];
        let slabs: Vec<std::sync::Mutex<&mut [f64]>> = out
            .chunks_mut(morsel_rows)
            .map(std::sync::Mutex::new)
            .collect();
        rt.for_each_chunked(n, morsel_rows, |rows| {
            let mut slab = slabs[rows.start / morsel_rows].lock().expect("slab lock");
            for (local, i) in rows.enumerate() {
                slab[local] = self.predict_row(x.row(i));
            }
        });
        drop(slabs);
        out
    }

    /// Mean prediction clamped to `[0, 1]`, for probability targets (the
    /// paper regresses indicator targets to estimate probabilities).
    pub fn predict_proba_row(&self, row: &[f64]) -> f64 {
        self.predict_row(row).clamp(0.0, 1.0)
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, exposed for serialization.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Reassemble a forest from fitted trees (the inverse of
    /// [`RandomForest::trees`]). All trees must expect the same feature
    /// width; predictions of the reassembled forest are bit-identical to
    /// the original's (the mean is summed in tree order).
    pub fn from_trees(trees: Vec<RegressionTree>) -> Result<RandomForest> {
        let Some(first) = trees.first() else {
            return Err(MlError::InvalidInput("forest has no trees".into()));
        };
        let width = first.n_features();
        if trees.iter().any(|t| t.n_features() != width) {
            return Err(MlError::InvalidInput(
                "forest trees disagree on feature width".into(),
            ));
        }
        Ok(RandomForest { trees })
    }

    /// Approximate memory footprint in bytes (arena nodes), for the
    /// byte-budgeted shared-artifact eviction policy.
    pub fn approx_bytes(&self) -> usize {
        const NODE_BYTES: usize = 40; // enum tag + 4 words, rounded up
        self.trees.iter().map(|t| t.num_nodes() * NODE_BYTES).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mse, r2};

    /// Noisy quadratic regression task.
    fn quadratic(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(-2.0..2.0);
            rows.push(vec![x]);
            y.push(x * x + 0.1 * rng.gen_range(-1.0..1.0));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn beats_constant_baseline_on_quadratic() {
        let (x, y) = quadratic(600, 1);
        let forest = RandomForest::fit(&x, &y, &ForestParams::default()).unwrap();
        let (xt, yt) = quadratic(200, 2);
        let pred = forest.predict(&xt);
        let mean = yt.iter().sum::<f64>() / yt.len() as f64;
        let baseline = mse(&vec![mean; yt.len()], &yt);
        let model = mse(&pred, &yt);
        assert!(
            model < baseline / 4.0,
            "forest mse {model} vs baseline {baseline}"
        );
        assert!(r2(&pred, &yt) > 0.8);
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = quadratic(200, 3);
        let p = ForestParams {
            seed: 9,
            ..Default::default()
        };
        let f1 = RandomForest::fit(&x, &y, &p).unwrap();
        let f2 = RandomForest::fit(&x, &y, &p).unwrap();
        assert_eq!(f1.predict_row(&[0.5]), f2.predict_row(&[0.5]));
    }

    #[test]
    fn bit_identical_across_worker_counts() {
        let (x, y) = quadratic(400, 11);
        let p = ForestParams {
            seed: 42,
            ..Default::default()
        };
        let sequential = HyperRuntime::with_workers(0);
        let parallel = HyperRuntime::with_workers(3);
        let f0 = RandomForest::fit_on(&sequential, &x, &y, &p).unwrap();
        let f3 = RandomForest::fit_on(&parallel, &x, &y, &p).unwrap();
        let (xt, _) = quadratic(100, 12);
        let p0 = f0.predict(&xt);
        let p3 = f3.predict(&xt);
        assert_eq!(p0, p3, "seeded training must not depend on worker count");
    }

    #[test]
    fn probability_clamping() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let f = RandomForest::fit(&x, &y, &ForestParams::default()).unwrap();
        let p = f.predict_proba_row(&[2.5]);
        assert!((0.0..=1.0).contains(&p));
    }

    /// Three discrete features (4 × 3 × 2 joint cells) with a noisy
    /// additive target: far under the cell cap, so trees fit per cell.
    fn discrete(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let (a, b, c) = (
                rng.gen_range(0..4) as f64,
                rng.gen_range(0..3) as f64,
                rng.gen_range(0..2) as f64,
            );
            rows.push(vec![a, b, c]);
            y.push(0.5 * a + b - c + rng.gen_range(-1.0..1.0));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    /// Pinned prediction bits for one cell-mode and one row-wise fit.
    /// The constants were captured from the trainer before it moved onto
    /// a single cell layout; binning, cell ids, bootstrap order and the
    /// per-tree RNG must all stay exactly as they were.
    #[test]
    fn golden_prediction_bits() {
        let bits = |f: &RandomForest, probes: &[Vec<f64>]| -> Vec<u64> {
            probes.iter().map(|p| f.predict_row(p).to_bits()).collect()
        };

        let (x, y) = discrete(2000, 5);
        let cells = RandomForest::fit(&x, &y, &ForestParams::default()).unwrap();
        let probes = [
            vec![0.0, 0.0, 0.0],
            vec![3.0, 2.0, 1.0],
            vec![1.0, 1.0, 0.0],
            vec![2.0, 0.0, 1.0],
        ];
        assert_eq!(
            bits(&cells, &probes),
            [
                0x3fa2fe0528aa7b0b,
                0x4003f3884786da5e,
                0x3ff958db4e11bfb2,
                0x3fb613ba8f734b6b,
            ],
            "cell-mode fit"
        );

        let (x, y) = quadratic(600, 1);
        let rows = RandomForest::fit(&x, &y, &ForestParams::default()).unwrap();
        let probes = [vec![-1.5], vec![-0.3], vec![0.0], vec![0.7], vec![1.9]];
        assert_eq!(
            bits(&rows, &probes),
            [
                0x40018970fbd01b23,
                0x3fb5117e30907682,
                0x3f73694df0fdd766,
                0x3fde42ddcd65ac35,
                0x400d0ad1e17b9a55,
            ],
            "row-wise fit"
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(RandomForest::fit(&x, &[1.0, 2.0], &ForestParams::default()).is_err());
        let p = ForestParams {
            n_trees: 0,
            ..Default::default()
        };
        assert!(RandomForest::fit(&x, &[1.0], &p).is_err());
    }
}
