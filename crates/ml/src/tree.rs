//! CART regression trees: variance-reduction splits on numeric features.
//!
//! This is the base learner of the random forest the paper uses to estimate
//! conditional probabilities (their sklearn `RandomForestRegressor`).
//!
//! A fitted tree is one flat arena of 24-byte nodes, root first. A node
//! holds one `f64` (a split's threshold or a leaf's value), a `u32` feature
//! index with a sentinel for leaves, and its two children's `u32` arena
//! indices. Prediction walks from the root, stepping to the left child
//! when `x <= threshold` and to the right one otherwise, by indexing the
//! child pair with `!(x <= threshold)`: a NaN feature value compares false
//! and goes right. Serialization goes through the tagged [`TreeNode`]
//! form, not the arena's bytes, so the arena layout is free to change.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::error::{MlError, Result};
use crate::hist::{BinnedMatrix, CellIndex};
use crate::matrix::Matrix;

/// Hyper-parameters for a regression tree.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features examined per split (`None` = all).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_leaf: 2,
            min_samples_split: 4,
            max_features: None,
        }
    }
}

/// One arena node, 24 bytes: a split's threshold or a leaf's value, the
/// split feature ([`LEAF`] for a leaf), and the two children's arena
/// indices (unused for a leaf). The walk picks `children[!(x <= t)]`, so a
/// NaN feature value, for which `x <= t` is false, goes right.
#[derive(Debug, Clone, Copy)]
struct Node {
    value: f64,
    feature: u32,
    children: [u32; 2],
}

/// The `feature` of a leaf node.
const LEAF: u32 = u32::MAX;

/// Bytes one arena node occupies (the unit of a forest's footprint).
pub(crate) const NODE_BYTES: usize = std::mem::size_of::<Node>();

impl Node {
    fn leaf(value: f64) -> Node {
        Node {
            value,
            feature: LEAF,
            children: [0, 0],
        }
    }

    fn split(feature: usize, threshold: f64, left: usize, right: usize) -> Node {
        let index = |i: usize, what: &str| u32::try_from(i).expect(what);
        let feature = index(feature, "a split feature below 2^32");
        assert_ne!(feature, LEAF, "the leaf sentinel is not a feature");
        Node {
            value: threshold,
            feature,
            children: [
                index(left, "an arena below 2^32 nodes"),
                index(right, "an arena below 2^32 nodes"),
            ],
        }
    }
}

/// A flattened tree node, exposed for serialization
/// ([`RegressionTree::export_nodes`] / [`RegressionTree::from_nodes`]).
/// Node 0 is the root; children always carry larger indices than their
/// parent (the arena reserves the parent slot before recursing), which is
/// what makes an imported arena trivially acyclic to validate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeNode {
    /// Terminal node carrying the predicted value.
    Leaf {
        /// Mean target of the training rows that reached this leaf.
        value: f64,
    },
    /// Internal split: rows with `row[feature] <= threshold` go left.
    Split {
        /// Feature index examined.
        feature: u32,
        /// Split threshold (`<=` goes left).
        threshold: f64,
        /// Arena index of the left child.
        left: u32,
        /// Arena index of the right child.
        right: u32,
    },
}

/// A fitted regression tree: a flat arena of 24-byte nodes, root first.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

/// Per-tree scratch state for the binned builder, allocated once and
/// reused by every node.
struct BinnedCtx {
    /// `(count, Σy)` per bin of the feature currently scanned.
    hist: Vec<(u32, f64)>,
    /// Staging buffer for the in-place stable partition.
    scratch: Vec<u32>,
    /// True when every target is 0 or 1 (then Σy² ≡ Σy).
    y_is_binary: bool,
}

impl RegressionTree {
    /// Fit a tree on `(x, y)`; `rng` drives feature subsampling (pass any
    /// seeded rng; unused when `max_features` is `None`).
    pub fn fit(x: &Matrix, y: &[f64], params: &TreeParams, rng: &mut StdRng) -> Result<Self> {
        if x.rows() == 0 {
            return Err(MlError::InvalidInput("empty training set".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::InvalidInput(format!(
                "x has {} rows, y has {}",
                x.rows(),
                y.len()
            )));
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: x.cols(),
        };
        let idx: Vec<u32> = (0..x.rows() as u32).collect();
        tree.build(x, y, idx, 0, params, rng);
        Ok(tree)
    }

    /// Fit using only the sample indices in `idx` (bootstrap support).
    pub fn fit_indices(
        x: &Matrix,
        y: &[f64],
        idx: Vec<u32>,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if idx.is_empty() {
            return Err(MlError::InvalidInput("empty bootstrap sample".into()));
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: x.cols(),
        };
        tree.build(x, y, idx, 0, params, rng);
        Ok(tree)
    }

    /// Fit using histogram-binned features (see [`crate::hist`]): split
    /// search per node is one histogram accumulation over the node's rows
    /// plus a bin-boundary scan, instead of a sort per feature. For
    /// features whose distinct values all fit in the bin budget the
    /// candidate split set is identical to the exhaustive search of
    /// [`RegressionTree::fit_indices`]. This is the random forest's
    /// training path; the binned matrix is built once and shared by every
    /// tree.
    pub fn fit_binned(
        data: &BinnedMatrix,
        y: &[f64],
        mut idx: Vec<u32>,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if idx.is_empty() {
            return Err(MlError::InvalidInput("empty bootstrap sample".into()));
        }
        if y.len() != data.rows() {
            return Err(MlError::InvalidInput(format!(
                "binned data has {} rows, y has {}",
                data.rows(),
                y.len()
            )));
        }
        // Validated once so the per-node loops can skip bounds checks.
        if idx.iter().any(|&i| i as usize >= data.rows()) {
            return Err(MlError::InvalidInput("bootstrap index out of range".into()));
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: data.cols(),
        };
        let mut ctx = BinnedCtx {
            // The split argmin never needs per-bin Σy²: both children's
            // squared sums add up to the node's, which is constant across
            // candidate splits, so minimizing child SSE equals maximizing
            // `Σl²/nl + Σr²/nr`.
            hist: Vec::new(),
            scratch: vec![0u32; idx.len()],
            // For indicator targets (Count queries, Avg denominators)
            // y² = y, so children's Σy² come free from their Σy.
            y_is_binary: y.iter().all(|&v| v == 0.0 || v == 1.0),
        };
        let sum: f64 = idx.iter().map(|&i| y[i as usize]).sum();
        let sumsq: f64 = if ctx.y_is_binary {
            sum
        } else {
            idx.iter().map(|&i| y[i as usize] * y[i as usize]).sum()
        };
        tree.build_binned(data, y, &mut idx, (sum, sumsq), 0, params, rng, &mut ctx);
        Ok(tree)
    }

    /// One node of the binned builder. `idx` is this node's row multiset
    /// (kept in ascending order so histogram reads walk memory forward,
    /// and partitioned in place — no per-node allocation); `sum`/`sumsq`
    /// are Σy and Σy² over `idx`, computed by the parent.
    #[allow(clippy::too_many_arguments)]
    fn build_binned(
        &mut self,
        data: &BinnedMatrix,
        y: &[f64],
        idx: &mut [u32],
        (sum, sumsq): (f64, f64),
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
        ctx: &mut BinnedCtx,
    ) -> usize {
        let n = idx.len();
        let mean = sum / n as f64;

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::leaf(mean));
            nodes.len() - 1
        };

        if depth >= params.max_depth || n < params.min_samples_split || data.cols() == 0 {
            return make_leaf(&mut self.nodes);
        }
        let sse = sumsq - sum * sum / n as f64;
        if sse < 1e-12 {
            return make_leaf(&mut self.nodes);
        }

        // Candidate features (same subsampling contract as the exhaustive
        // path: shuffle + truncate under `max_features`).
        let mut features: Vec<usize> = (0..data.cols()).collect();
        if let Some(k) = params.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(data.cols()));
        }

        // Best split: (feature, last bin of the left child, gain term,
        // left count, left sum) — the left stats seed the child's node
        // statistics without another pass.
        let mut best: Option<(usize, u8, f64, u32, f64)> = None;
        for &f in &features {
            let feat = data.feature(f);
            let nb = feat.num_bins();
            if nb < 2 {
                continue;
            }
            ctx.hist.clear();
            ctx.hist.resize(nb, (0, 0.0));
            let bins = feat.bins();
            let hist = &mut ctx.hist[..];
            for &i in idx.iter() {
                // SAFETY: `i < data.rows() == bins.len() == y.len()` was
                // validated in `fit_binned`, and every bin id is
                // `< num_bins()` by `BinnedMatrix` construction (fields
                // are private; `hist` was just resized to `num_bins()`).
                unsafe {
                    let b = *bins.get_unchecked(i as usize) as usize;
                    let slot = hist.get_unchecked_mut(b);
                    slot.0 += 1;
                    slot.1 += *y.get_unchecked(i as usize);
                }
            }
            let mut left_n = 0u32;
            let mut left_sum = 0.0;
            for (b, &(c, s)) in hist.iter().enumerate().take(nb - 1) {
                left_n += c;
                left_sum += s;
                let right_n = n as u32 - left_n;
                if left_n == 0 {
                    continue; // no data below this boundary
                }
                if right_n == 0 {
                    break; // nothing right of it either
                }
                if (left_n as usize) < params.min_samples_leaf
                    || (right_n as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let right_sum = sum - left_sum;
                let gain =
                    left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n as f64;
                if best.is_none_or(|(_, _, g, _, _)| gain > g) {
                    best = Some((f, b as u8, gain, left_n, left_sum));
                }
            }
        }

        match best {
            Some((feature, split_bin, gain, left_n, left_sum)) if sumsq - gain < sse - 1e-12 => {
                // Stable in-place partition through the shared scratch
                // buffer: left rows compact forward, right rows stage in
                // scratch and copy back behind them. Both children keep
                // ascending row order.
                let bins = data.feature(feature).bins();
                let mut l = 0usize;
                let mut r = 0usize;
                for k in 0..n {
                    let i = idx[k];
                    if bins[i as usize] <= split_bin {
                        idx[l] = i;
                        l += 1;
                    } else {
                        ctx.scratch[r] = i;
                        r += 1;
                    }
                }
                debug_assert_eq!(l, left_n as usize);
                idx[l..].copy_from_slice(&ctx.scratch[..r]);
                let (left_idx, right_idx) = idx.split_at_mut(l);

                let right_sum = sum - left_sum;
                let (left_sq, right_sq) = if ctx.y_is_binary {
                    (left_sum, right_sum)
                } else {
                    // One pass over the smaller child; the sibling's Σy²
                    // falls out by subtraction.
                    let (small, small_is_left) = if left_idx.len() <= right_idx.len() {
                        (&*left_idx, true)
                    } else {
                        (&*right_idx, false)
                    };
                    let small_sq: f64 = small.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
                    if small_is_left {
                        (small_sq, sumsq - small_sq)
                    } else {
                        (sumsq - small_sq, small_sq)
                    }
                };
                let threshold = data.feature(feature).splits()[split_bin as usize];
                let slot = self.nodes.len();
                self.nodes.push(Node::leaf(mean)); // placeholder
                let left = self.build_binned(
                    data,
                    y,
                    left_idx,
                    (left_sum, left_sq),
                    depth + 1,
                    params,
                    rng,
                    ctx,
                );
                let right = self.build_binned(
                    data,
                    y,
                    right_idx,
                    (right_sum, right_sq),
                    depth + 1,
                    params,
                    rng,
                    ctx,
                );
                self.nodes[slot] = Node::split(feature, threshold, left, right);
                slot
            }
            _ => make_leaf(&mut self.nodes),
        }
    }

    /// Fit over the joint-cell decomposition of a binned matrix
    /// (see [`crate::hist::CellIndex`]): `stats[c]` carries this tree's
    /// bootstrap `(row count, Σy, Σy²)` for cell `c`. Split search and
    /// leaf means are computed from the weighted cells — identical to the
    /// row-wise fit up to floating-point summation order — so node cost
    /// scales with the number of *cells*, not rows.
    pub(crate) fn fit_cells(
        data: &BinnedMatrix,
        cells: &CellIndex,
        stats: &[(u32, f64, f64)],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let m = cells.num_cells();
        if stats.len() != m {
            return Err(MlError::InvalidInput(format!(
                "cell stats cover {} cells, index has {m}",
                stats.len()
            )));
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: data.cols(),
        };
        let mut ctx = BinnedCtx {
            hist: Vec::new(),
            scratch: vec![0u32; m],
            y_is_binary: false, // Σy² is already per-cell; no shortcut needed
        };
        let mut ids: Vec<u32> = (0..m as u32).collect();
        let n: u32 = stats.iter().map(|s| s.0).sum();
        if n == 0 {
            return Err(MlError::InvalidInput("empty bootstrap sample".into()));
        }
        let sum: f64 = stats.iter().map(|s| s.1).sum();
        let sumsq: f64 = stats.iter().map(|s| s.2).sum();
        tree.build_cells(
            data,
            cells,
            stats,
            &mut ids,
            (n, sum, sumsq),
            0,
            params,
            rng,
            &mut ctx,
        );
        Ok(tree)
    }

    /// One node of the cell builder: `ids` is the node's cell set,
    /// `(n, sum, sumsq)` its bootstrap row count, Σy and Σy².
    #[allow(clippy::too_many_arguments)]
    fn build_cells(
        &mut self,
        data: &BinnedMatrix,
        cells: &CellIndex,
        stats: &[(u32, f64, f64)],
        ids: &mut [u32],
        (n, sum, sumsq): (u32, f64, f64),
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
        ctx: &mut BinnedCtx,
    ) -> usize {
        let mean = sum / n as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::leaf(mean));
            nodes.len() - 1
        };

        if depth >= params.max_depth || (n as usize) < params.min_samples_split || data.cols() == 0
        {
            return make_leaf(&mut self.nodes);
        }
        let sse = sumsq - sum * sum / n as f64;
        if sse < 1e-12 {
            return make_leaf(&mut self.nodes);
        }

        let mut features: Vec<usize> = (0..data.cols()).collect();
        if let Some(k) = params.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(data.cols()));
        }

        // Best split: (feature, left's last bin, gain, left rows, Σy_l,
        // Σy²_l).
        let mut best: Option<(usize, u8, f64, u32, f64, f64)> = None;
        for &f in &features {
            let feat = data.feature(f);
            let nb = feat.num_bins();
            if nb < 2 {
                continue;
            }
            ctx.hist.clear();
            ctx.hist.resize(nb, (0, 0.0));
            // Per-bin Σy² only exists in cell mode; small, keep local.
            let mut hist_sq = vec![0.0f64; nb];
            let bin_of_cell = cells.cell_bins(f);
            for &c in ids.iter() {
                let (cnt, s, q) = stats[c as usize];
                let b = bin_of_cell[c as usize] as usize;
                ctx.hist[b].0 += cnt;
                ctx.hist[b].1 += s;
                hist_sq[b] += q;
            }
            let mut left_n = 0u32;
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for (b, (&(c, s), &q)) in ctx.hist.iter().zip(&hist_sq).enumerate().take(nb - 1) {
                left_n += c;
                left_sum += s;
                left_sq += q;
                let right_n = n - left_n;
                if left_n == 0 {
                    continue;
                }
                if right_n == 0 {
                    break;
                }
                if (left_n as usize) < params.min_samples_leaf
                    || (right_n as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let right_sum = sum - left_sum;
                let gain =
                    left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n as f64;
                if best.is_none_or(|(_, _, g, _, _, _)| gain > g) {
                    best = Some((f, b as u8, gain, left_n, left_sum, left_sq));
                }
            }
        }

        match best {
            Some((feature, split_bin, gain, left_n, left_sum, left_sq))
                if sumsq - gain < sse - 1e-12 =>
            {
                let bin_of_cell = cells.cell_bins(feature);
                let total = ids.len();
                let mut l = 0usize;
                let mut r = 0usize;
                for k in 0..total {
                    let c = ids[k];
                    if bin_of_cell[c as usize] <= split_bin {
                        ids[l] = c;
                        l += 1;
                    } else {
                        ctx.scratch[r] = c;
                        r += 1;
                    }
                }
                ids[l..].copy_from_slice(&ctx.scratch[..r]);
                let (left_ids, right_ids) = ids.split_at_mut(l);
                let threshold = data.feature(feature).splits()[split_bin as usize];
                let slot = self.nodes.len();
                self.nodes.push(Node::leaf(mean)); // placeholder
                let left = self.build_cells(
                    data,
                    cells,
                    stats,
                    left_ids,
                    (left_n, left_sum, left_sq),
                    depth + 1,
                    params,
                    rng,
                    ctx,
                );
                let right = self.build_cells(
                    data,
                    cells,
                    stats,
                    right_ids,
                    (n - left_n, sum - left_sum, sumsq - left_sq),
                    depth + 1,
                    params,
                    rng,
                    ctx,
                );
                self.nodes[slot] = Node::split(feature, threshold, left, right);
                slot
            }
            _ => make_leaf(&mut self.nodes),
        }
    }

    fn build(
        &mut self,
        x: &Matrix,
        y: &[f64],
        mut idx: Vec<u32>,
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> usize {
        let n = idx.len();
        let mean = idx.iter().map(|&i| y[i as usize]).sum::<f64>() / n as f64;

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::leaf(mean));
            nodes.len() - 1
        };

        if depth >= params.max_depth || n < params.min_samples_split || x.cols() == 0 {
            return make_leaf(&mut self.nodes);
        }
        // Pure node?
        let sse: f64 = idx
            .iter()
            .map(|&i| {
                let d = y[i as usize] - mean;
                d * d
            })
            .sum();
        if sse < 1e-12 {
            return make_leaf(&mut self.nodes);
        }

        // Candidate features.
        let mut features: Vec<usize> = (0..x.cols()).collect();
        if let Some(k) = params.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(x.cols()));
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &f in &features {
            idx.sort_unstable_by(|&a, &b| x.get(a as usize, f).total_cmp(&x.get(b as usize, f)));
            // Prefix sums for O(n) split scan.
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let total_sum: f64 = idx.iter().map(|&i| y[i as usize]).sum();
            let total_sq: f64 = idx.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
            for split in 1..n {
                let yi = y[idx[split - 1] as usize];
                left_sum += yi;
                left_sq += yi * yi;
                let (xl, xr) = (
                    x.get(idx[split - 1] as usize, f),
                    x.get(idx[split] as usize, f),
                );
                if xl == xr {
                    continue; // cannot split between equal values
                }
                if split < params.min_samples_leaf || n - split < params.min_samples_leaf {
                    continue;
                }
                let nl = split as f64;
                let nr = (n - split) as f64;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                // Weighted SSE of children.
                let child_sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.is_none_or(|(_, _, s)| child_sse < s) {
                    best = Some((f, (xl + xr) / 2.0, child_sse));
                }
            }
        }

        match best {
            None => make_leaf(&mut self.nodes),
            Some((feature, threshold, child_sse)) if child_sse < sse - 1e-12 => {
                let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = idx
                    .iter()
                    .partition(|&&i| x.get(i as usize, feature) <= threshold);
                // Reserve a slot for this split node before recursing.
                let slot = self.nodes.len();
                self.nodes.push(Node::leaf(mean)); // placeholder
                let left = self.build(x, y, left_idx, depth + 1, params, rng);
                let right = self.build(x, y, right_idx, depth + 1, params, rng);
                self.nodes[slot] = Node::split(feature, threshold, left, right);
                slot
            }
            _ => make_leaf(&mut self.nodes),
        }
    }

    /// Predict one sample.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        // The root is the first node created for the full index set. Because
        // we reserve split slots before recursing, the root is node 0.
        let mut node = &self.nodes[0];
        while node.feature != LEAF {
            // False for a NaN, which so goes right.
            let left = row[node.feature as usize] <= node.value;
            node = &self.nodes[node.children[usize::from(!left)] as usize];
        }
        node.value
    }

    /// Predict a batch.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// `(feature, threshold)` of every split node, in arena order.
    pub(crate) fn splits(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        (self.nodes.iter())
            .filter(|n| n.feature != LEAF)
            .map(|n| (n.feature as usize, n.value))
    }

    /// Flatten the fitted arena for serialization. The exact `f64` bit
    /// patterns of thresholds and leaf values are preserved, so a tree
    /// rebuilt with [`RegressionTree::from_nodes`] predicts bit-identically.
    pub fn export_nodes(&self) -> Vec<TreeNode> {
        self.nodes
            .iter()
            .map(|n| match n.feature {
                LEAF => TreeNode::Leaf { value: n.value },
                feature => TreeNode::Split {
                    feature,
                    threshold: n.value,
                    left: n.children[0],
                    right: n.children[1],
                },
            })
            .collect()
    }

    /// Rebuild a tree from a flattened arena (the inverse of
    /// [`RegressionTree::export_nodes`]). Validates the structural
    /// invariants — non-empty, every split's feature within
    /// `n_features`, and every child index in range **and greater than
    /// its parent's** (which guarantees the walk from the root
    /// terminates) — so untrusted input can produce an error but never a
    /// panic or an infinite prediction loop.
    pub fn from_nodes(nodes: Vec<TreeNode>, n_features: usize) -> Result<RegressionTree> {
        if nodes.is_empty() {
            return Err(MlError::InvalidInput("tree has no nodes".into()));
        }
        let len = nodes.len();
        let mut arena = Vec::with_capacity(len);
        for (i, n) in nodes.into_iter().enumerate() {
            arena.push(match n {
                TreeNode::Leaf { value } => Node::leaf(value),
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let (f, l, r) = (feature as usize, left as usize, right as usize);
                    if f >= n_features || feature == LEAF {
                        return Err(MlError::InvalidInput(format!(
                            "node {i} splits on feature {f} but the tree has {n_features}"
                        )));
                    }
                    if l <= i || r <= i || l >= len || r >= len {
                        return Err(MlError::InvalidInput(format!(
                            "node {i} has out-of-order child indices ({l}, {r}) in a \
                             {len}-node arena"
                        )));
                    }
                    Node::split(f, threshold, l, r)
                }
            });
        }
        Ok(RegressionTree {
            nodes: arena,
            n_features,
        })
    }

    /// Expected feature-vector width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fits_step_function_exactly() {
        // y = 1 if x > 0.5 else 0 — one split suffices.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng()).unwrap();
        assert_eq!(tree.predict_row(&[0.2]), 0.0);
        assert_eq!(tree.predict_row(&[0.9]), 1.0);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let params = TreeParams {
            max_depth: 1,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &params, &mut rng()).unwrap();
        // depth 1 → at most 3 nodes (1 split + 2 leaves).
        assert!(tree.num_nodes() <= 3);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let y = vec![7.0; 4];
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng()).unwrap();
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict_row(&[100.0]), 7.0);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let y = vec![0.0, 0.0, 10.0];
        let params = TreeParams {
            min_samples_leaf: 2,
            min_samples_split: 2,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &params, &mut rng()).unwrap();
        // A split would need a leaf of size 1 on one side for best fit at
        // x=1.5; with min leaf 2 the only legal split (at 0.5 or 1.5) keeps
        // ≥2 per side — at n=3 no split satisfies both sides ≥2.
        assert_eq!(tree.num_nodes(), 1);
    }

    #[test]
    fn two_feature_interaction() {
        // y = 1 iff x0 > 0.5 and x1 > 0.5.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f64 / 20.0, j as f64 / 20.0);
                rows.push(vec![a, b]);
                y.push(if a > 0.5 && b > 0.5 { 1.0 } else { 0.0 });
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng()).unwrap();
        assert!(tree.predict_row(&[0.9, 0.9]) > 0.9);
        assert!(tree.predict_row(&[0.9, 0.1]) < 0.1);
        assert!(tree.predict_row(&[0.1, 0.9]) < 0.1);
    }

    /// Fitted trees (exhaustive, binned and cell builders) survive an
    /// `export_nodes`/`from_nodes` round trip node for node and bit for
    /// bit, and predict identically after it.
    #[test]
    fn exported_arenas_round_trip() {
        use crate::forest::{ForestParams, RandomForest};
        let mut r = rng();
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64 * 0.3, (i * 37 % 101) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|v| v[0] * v[1] - v[2] / 50.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut trees = vec![RegressionTree::fit(&x, &y, &TreeParams::default(), &mut r).unwrap()];
        // Cell mode (discrete) and row-wise binned (101 distinct values in
        // the third feature push the cells over the cap).
        for cols in [2, 3] {
            let sub: Vec<Vec<f64>> = rows.iter().map(|v| v[..cols].to_vec()).collect();
            let sub = Matrix::from_rows(&sub).unwrap();
            let forest = RandomForest::fit(&sub, &y, &ForestParams::default()).unwrap();
            trees.extend(forest.trees().iter().cloned());
        }
        for tree in &trees {
            assert!(tree.num_nodes() > 1);
            let nodes = tree.export_nodes();
            let back = RegressionTree::from_nodes(nodes.clone(), tree.n_features()).unwrap();
            let again = back.export_nodes();
            assert_eq!(nodes.len(), again.len());
            for (a, b) in nodes.iter().zip(&again) {
                let key = |n: &TreeNode| match *n {
                    TreeNode::Leaf { value } => (0, value.to_bits(), 0, 0, 0),
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => (1, threshold.to_bits(), feature, left, right),
                };
                assert_eq!(key(a), key(b));
            }
            for row in &rows {
                let row = &row[..tree.n_features()];
                assert_eq!(
                    tree.predict_row(row).to_bits(),
                    back.predict_row(row).to_bits()
                );
            }
        }
    }

    /// A NaN feature value fails every `<=` test, so it goes right at
    /// every split, as it did before the compact arena.
    #[test]
    fn nan_routes_right() {
        let nodes = vec![
            TreeNode::Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { value: -1.0 },
            TreeNode::Split {
                feature: 0,
                threshold: f64::INFINITY,
                left: 3,
                right: 4,
            },
            TreeNode::Leaf { value: 2.0 },
            TreeNode::Leaf { value: 3.0 },
        ];
        let tree = RegressionTree::from_nodes(nodes, 2).unwrap();
        assert_eq!(tree.predict_row(&[0.0, 0.0]), -1.0);
        assert_eq!(tree.predict_row(&[0.0, 1.0]), 2.0);
        assert_eq!(
            tree.predict_row(&[0.0, f64::NAN]),
            2.0,
            "NaN > 0.5 goes right"
        );
        assert_eq!(
            tree.predict_row(&[f64::NAN, 1.0]),
            3.0,
            "not even NaN <= inf"
        );
        assert_eq!(tree.predict_row(&[f64::NAN, f64::NAN]), 3.0);
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        assert_eq!(tree.predict_row(&[nan2, -0.0]), -1.0);
    }

    #[test]
    fn the_leaf_sentinel_is_not_a_feature() {
        let nodes = vec![
            TreeNode::Split {
                feature: u32::MAX,
                threshold: 0.0,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { value: 0.0 },
            TreeNode::Leaf { value: 1.0 },
        ];
        assert!(RegressionTree::from_nodes(nodes, usize::MAX).is_err());
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(RegressionTree::fit(&x, &[1.0, 2.0], &TreeParams::default(), &mut rng()).is_err());
        let empty = Matrix::zeros(0, 1);
        assert!(RegressionTree::fit(&empty, &[], &TreeParams::default(), &mut rng()).is_err());
    }
}
