//! Histogram binning of feature matrices for fast tree training.
//!
//! CART split search over raw features costs a sort per (node, feature).
//! HypeR's feature matrices come off typed columnar storage — dictionary
//! codes one-hot encoded to {0, 1} and small discrete numeric domains —
//! so almost every feature has a handful of distinct values. Binning each
//! feature **once per forest** into at most [`MAX_BINS`] ordered bins
//! turns each node's split search into one O(rows-in-node) histogram
//! accumulation plus an O(bins) boundary scan, shared by every tree.
//!
//! Bin boundaries are midpoints between adjacent *distinct* feature
//! values, exactly the thresholds exhaustive CART would consider — so for
//! features with ≤ [`MAX_BINS`] distinct values (every dictionary-coded
//! or one-hot feature) the binned search examines the identical candidate
//! split set. Features with more distinct values (continuous columns)
//! keep every `distinct/MAX_BINS`-quantile boundary, the standard
//! histogram-gradient-boosting approximation.

/// Maximum number of bins per feature; bin ids fit in a `u8`.
pub const MAX_BINS: usize = 255;

/// One binned feature: a per-row bin id plus the real-valued thresholds
/// between adjacent bins (`splits()[b]` separates bin `b` from bin
/// `b + 1`; a tree split "bin ≤ b" is the predicate `value ≤ splits[b]`).
///
/// Fields are private to preserve the invariant the unchecked training
/// loops rely on: every bin id is `< num_bins()`, and `bins().len()`
/// equals the source matrix's row count.
pub struct BinnedFeature {
    /// Per-row bin id, ascending in feature value.
    bins: Vec<u8>,
    /// Candidate thresholds, one between each adjacent bin pair.
    splits: Vec<f64>,
}

impl BinnedFeature {
    /// A splits-only view with **no per-row bins**, for the cell layout
    /// (`crate::layout`): cell-mode tree fitting reads only
    /// `num_bins()` / `splits()` plus the [`CellIndex`], never the
    /// per-row bin ids, so the dense bin vector need not exist.
    pub(crate) fn from_splits(splits: Vec<f64>) -> BinnedFeature {
        BinnedFeature {
            bins: Vec::new(),
            splits,
        }
    }

    /// Attach per-row bin ids (each `< num_bins()`) to a splits-only view.
    pub(crate) fn with_bins(self, bins: Vec<u8>) -> BinnedFeature {
        BinnedFeature { bins, ..self }
    }

    /// Number of bins (`splits().len() + 1`, or 1 for a constant feature).
    pub fn num_bins(&self) -> usize {
        self.splits.len() + 1
    }

    /// Per-row bin ids (ascending in feature value).
    pub fn bins(&self) -> &[u8] {
        &self.bins
    }

    /// Candidate thresholds between adjacent bins.
    pub fn splits(&self) -> &[f64] {
        &self.splits
    }
}

/// A feature matrix binned column-wise: the immutable, share-everything
/// input to binned tree fitting. Built once per forest; every tree reads
/// the same bins through its own bootstrap index set.
pub struct BinnedMatrix {
    n_rows: usize,
    /// One binned view per feature, in matrix column order.
    features: Vec<BinnedFeature>,
}

impl BinnedMatrix {
    /// Assemble from binned features — the cell layout's constructor.
    pub(crate) fn from_features(features: Vec<BinnedFeature>, n_rows: usize) -> BinnedMatrix {
        BinnedMatrix { n_rows, features }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn cols(&self) -> usize {
        self.features.len()
    }

    /// The binned view of feature `j`.
    pub fn feature(&self, j: usize) -> &BinnedFeature {
        &self.features[j]
    }
}

/// The joint-cell decomposition of a binned matrix: rows sharing the same
/// bin vector across every feature are indistinguishable to a tree (the
/// split predicates cannot separate them), so training only needs
/// per-cell statistics. This is the paper's §3.3 support-index insight
/// applied to *fitting*: over HypeR's discrete adjustment sets a 10k-row
/// view collapses to a few hundred cells, and each forest tree fits over
/// the cells in microseconds after one O(rows) weighted pass.
///
/// Built only when the distinct-cell count stays under the requested cap
/// (the forest's cell layout declines otherwise — continuous
/// features keep the row-wise path).
pub struct CellIndex {
    /// Cell id of each row.
    cell_of_row: Vec<u32>,
    /// Per-feature bin id of each cell (`cell_bins[f][cell]`).
    cell_bins: Vec<Vec<u8>>,
    num_cells: usize,
}

impl CellIndex {
    /// Assemble from pre-computed parts (the layout's pass two numbers
    /// cells in first-occurrence row order; see `crate::layout`).
    pub(crate) fn from_parts(
        cell_of_row: Vec<u32>,
        cell_bins: Vec<Vec<u8>>,
        num_cells: usize,
    ) -> CellIndex {
        CellIndex {
            cell_of_row,
            cell_bins,
            num_cells,
        }
    }

    /// Number of distinct cells.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Cell id of each row.
    pub fn cell_of_row(&self) -> &[u32] {
        &self.cell_of_row
    }

    /// Bin id of each cell under feature `f` (aligned with cell ids).
    pub fn cell_bins(&self, f: usize) -> &[u8] {
        &self.cell_bins[f]
    }
}

/// Thresholds for a feature whose sorted (by `total_cmp`), deduplicated
/// distinct values are `distinct` (the layout's pass one).
pub(crate) fn splits_from_distinct(distinct: &[f64], max_bins: usize) -> Vec<f64> {
    let m = distinct.len();
    if m <= 1 {
        Vec::new()
    } else if m <= max_bins {
        (0..m - 1)
            .map(|i| midpoint(distinct[i], distinct[i + 1]))
            .collect()
    } else {
        // Quantile thinning over the distinct values: boundary k sits
        // between distinct values ⌊k·m/max_bins⌋−1 and ⌊k·m/max_bins⌋.
        let mut cuts = Vec::with_capacity(max_bins - 1);
        for k in 1..max_bins {
            let pos = k * m / max_bins;
            if pos == 0 || pos >= m {
                continue;
            }
            cuts.push(midpoint(distinct[pos - 1], distinct[pos]));
        }
        cuts.dedup_by(|a, b| a.total_cmp(b).is_eq());
        cuts
    }
}

/// The bin id of `v` under `splits`: the number of splits below it.
pub(crate) fn bin_value(splits: &[f64], v: f64) -> u8 {
    splits.partition_point(|s| *s < v) as u8
}

/// Midpoint that can never round onto either endpoint into a degenerate
/// threshold: the result must be *strictly* between `lo` and `hi`, or the
/// boundary falls back to `lo` itself (a threshold of `lo` still
/// separates the pair, since bin assignment tests `split < value`).
/// Rounding the average onto `hi` is common for adjacent floats; landing
/// on it would fuse the two values into one bin and silently delete
/// their candidate split.
fn midpoint(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if mid > lo && mid < hi {
        mid
    } else {
        lo
    }
}

/// Bin a non-empty `x` as the row-wise trainer sees it: a zero-cell cap
/// declines every layout and hands back its per-row bins.
#[cfg(test)]
pub(crate) fn bin_matrix(x: &crate::matrix::Matrix, max_bins: usize) -> BinnedMatrix {
    use crate::layout::{Binning, CellLayout};
    match CellLayout::from_matrix(x, max_bins, 0) {
        Binning::Rows(binned) => binned,
        Binning::Cells(_) => panic!("a zero-cell cap declines a non-empty matrix's layout"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn bin_column(values: &[f64], max_bins: usize) -> BinnedFeature {
        let x = Matrix::from_vec(values.len(), 1, values.to_vec()).unwrap();
        bin_matrix(&x, max_bins).features.remove(0)
    }

    #[test]
    fn small_domain_bins_are_exact_distinct_values() {
        let vals = [2.0, 0.0, 1.0, 2.0, 0.0];
        let f = bin_column(&vals, 255);
        assert_eq!(f.num_bins(), 3);
        assert_eq!(f.splits, vec![0.5, 1.5]);
        assert_eq!(f.bins, vec![2, 0, 1, 2, 0]);
    }

    #[test]
    fn adjacent_floats_stay_separable() {
        // lo and its immediate successor: the arithmetic midpoint rounds
        // onto one endpoint, so the threshold must fall back to `lo` and
        // the two values must still land in different bins.
        let lo = 1.0f64;
        let hi = f64::from_bits(lo.to_bits() + 1);
        let f = bin_column(&[lo, hi, lo], 255);
        assert_eq!(f.num_bins(), 2);
        assert_eq!(f.bins(), &[0, 1, 0]);
        let t = f.splits()[0];
        assert!(lo <= t && t < hi, "threshold {t} separates {lo} from {hi}");
    }

    #[test]
    fn constant_feature_has_one_bin() {
        let f = bin_column(&[7.0; 10], 255);
        assert_eq!(f.num_bins(), 1);
        assert!(f.splits.is_empty());
        assert!(f.bins.iter().all(|&b| b == 0));
    }

    #[test]
    fn wide_domain_thins_to_quantile_boundaries() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let f = bin_column(&vals, 8);
        assert_eq!(f.num_bins(), 8);
        // Bins are ordered and balanced-ish.
        let mut counts = [0usize; 8];
        for &b in &f.bins {
            counts[b as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c >= 100));
        // Bin order respects value order.
        assert!(f.bins.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn matrix_binning_is_column_aligned() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![2.0, 10.0], vec![1.0, 20.0]]).unwrap();
        let b = bin_matrix(&x, 255);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.feature(0).bins(), &[0, 1, 0]);
        assert_eq!(b.feature(1).bins(), &[0, 0, 1]);
    }
}
