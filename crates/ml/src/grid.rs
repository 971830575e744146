//! Split-bin keys: which of a forest's split intervals a row falls in.
//!
//! A tree walk sends a row right at a split on feature `f` with threshold
//! `t` iff `!(x_f <= t)`. Over the forest's distinct non-NaN thresholds
//! on `f`, sorted `t_1 < … < t_m`, that test holds for a prefix: the
//! thresholds below `x_f` (all of them when `x_f` is NaN, which fails
//! every `<=`). So the prefix length `k_f`, the count of thresholds with
//! `!(x_f <= t)`, fixes the direction of every split on `f` in every tree.
//! A NaN threshold fails `<=` whatever the row holds, so it sends every
//! row right and takes no part in the key.
//!
//! The **split-bin key** of a row is `k_f` for each feature the forest
//! splits on. Two rows with equal keys take the same path through every
//! tree and so predict the same bits: [`RandomForest::predict_keyed`]
//! walks the trees once per distinct key. The grid is read off the
//! trees' own split nodes, so it holds for any forest, fitted or
//! reassembled with [`RandomForest::from_trees`].
//!
//! [`RandomForest::predict_keyed`]: crate::RandomForest::predict_keyed
//! [`RandomForest::from_trees`]: crate::RandomForest::from_trees

use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::tree::RegressionTree;

/// The distinct non-NaN split thresholds of a set of trees, per feature.
#[derive(Debug)]
pub(crate) struct SplitGrid {
    /// `(feature, thresholds)` for every feature with at least one
    /// non-NaN threshold, ascending by feature; thresholds ascending and
    /// distinct under `==` (so `-0.0` and `0.0` are one threshold).
    features: Vec<(usize, Vec<f64>)>,
}

impl SplitGrid {
    /// The grid of `trees`' split nodes.
    pub(crate) fn of(trees: &[RegressionTree]) -> SplitGrid {
        // Forests split a feature at few distinct thresholds, many times
        // over: insert each into its feature's sorted list unless present.
        let mut by_feature: Vec<Vec<f64>> = Vec::new();
        for (f, t) in trees.iter().flat_map(RegressionTree::splits) {
            if t.is_nan() {
                continue;
            }
            if by_feature.len() <= f {
                by_feature.resize_with(f + 1, Vec::new);
            }
            let ts = &mut by_feature[f];
            let at = ts.partition_point(|&s| s < t);
            if ts.get(at) != Some(&t) {
                ts.insert(at, t);
            }
        }
        let features = (by_feature.into_iter().enumerate())
            .filter(|(_, ts)| !ts.is_empty())
            .collect();
        SplitGrid { features }
    }

    /// The split-bin key of `row`: per split feature, the number of its
    /// thresholds `t` with `!(row[f] <= t)`.
    pub(crate) fn key_into(&self, row: &[f64], out: &mut Vec<u32>) {
        for (f, ts) in &self.features {
            let x = row[*f];
            // `t` sends `x` right iff `x <= t` fails (for a NaN too).
            let right = |&t: &f64| {
                let left = x <= t;
                !left
            };
            out.push(ts.partition_point(right) as u32);
        }
    }

    /// Group the rows of `x` by split-bin key: the key slot of every row,
    /// slots numbered in first-occurrence order, and the first row of
    /// each slot.
    pub(crate) fn distinct_keys(&self, x: &Matrix) -> (Vec<u32>, Vec<usize>) {
        let n = x.rows();
        let mut firsts: Vec<usize> = Vec::new();
        let mut slot = |i: usize, known: &mut u32| {
            if *known == u32::MAX {
                *known = firsts.len() as u32;
                firsts.push(i);
            }
            *known
        };
        // Keys as mixed-radix numbers when they fit a `u64`; a key space
        // of at most `max(n, 4096)` renumbers through a direct table.
        let space = (self.features.iter()).try_fold(1u64, |space, (_, ts)| {
            space.checked_mul(ts.len() as u64 + 1)
        });
        let mut key = Vec::with_capacity(self.features.len());
        let mut number = |i: usize| -> u64 {
            key.clear();
            self.key_into(x.row(i), &mut key);
            (key.iter().zip(&self.features)).fold(0, |acc, (&k, (_, ts))| {
                acc * (ts.len() as u64 + 1) + u64::from(k)
            })
        };
        let slots = match space {
            Some(space) if space <= n.max(1 << 12) as u64 => {
                let mut slot_of = vec![u32::MAX; space as usize];
                (0..n)
                    .map(|i| slot(i, &mut slot_of[number(i) as usize]))
                    .collect()
            }
            Some(_) => {
                let mut slot_of: HashMap<u64, u32> = HashMap::new();
                (0..n)
                    .map(|i| slot(i, slot_of.entry(number(i)).or_insert(u32::MAX)))
                    .collect()
            }
            None => {
                let mut slot_of: HashMap<Vec<u32>, u32> = HashMap::new();
                (0..n)
                    .map(|i| {
                        let mut key = Vec::with_capacity(self.features.len());
                        self.key_into(x.row(i), &mut key);
                        slot(i, slot_of.entry(key).or_insert(u32::MAX))
                    })
                    .collect()
            }
        };
        (slots, firsts)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::forest::{ForestParams, RandomForest};
    use crate::tree::TreeNode;

    /// Every value a key must place exactly: each threshold, its two
    /// neighbours, the signed zeros, the infinities and two NaNs.
    fn probe_values(grid: &SplitGrid, f: usize) -> Vec<f64> {
        let mut vals = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
        ];
        if let Some((_, ts)) = grid.features.iter().find(|(g, _)| *g == f) {
            for &t in ts {
                vals.extend([t, t.next_down(), t.next_up()]);
            }
        }
        vals
    }

    /// Rows over `width` features drawing every feature from its probe
    /// values, each followed by a twin drawing, per feature, another probe
    /// value with the same count of thresholds below it: equal keys must
    /// predict equal bits, rows share a key slot iff their keys are equal,
    /// and the keyed batch must equal the row-at-a-time batch bit for bit.
    fn check_keys(forest: &RandomForest, width: usize, pairs: usize, seed: u64) {
        let grid = SplitGrid::of(forest.trees());
        let probes: Vec<Vec<f64>> = (0..width).map(|f| probe_values(&grid, f)).collect();
        let bin = |f: usize, x: f64| {
            (grid.features.iter())
                .find(|(g, _)| *g == f)
                .map_or(0, |(_, ts)| {
                    ts.iter().filter(|&&t| x.is_nan() || x > t).count()
                })
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data: Vec<f64> = Vec::with_capacity(2 * pairs * width);
        for _ in 0..pairs {
            let row: Vec<f64> = (0..width)
                .map(|f| probes[f][rng.gen_range(0..probes[f].len())])
                .collect();
            let twin: Vec<f64> = (row.iter().enumerate())
                .map(|(f, &x)| {
                    let same: Vec<f64> = (probes[f].iter().copied())
                        .filter(|&y| bin(f, y) == bin(f, x))
                        .collect();
                    same[rng.gen_range(0..same.len())]
                })
                .collect();
            data.extend(row.into_iter().chain(twin));
        }
        let x = Matrix::from_vec(2 * pairs, width, data).unwrap();
        let key = |i: usize| {
            let mut key = Vec::new();
            grid.key_into(x.row(i), &mut key);
            key
        };
        let mut by_key: HashMap<Vec<u32>, u64> = HashMap::new();
        for i in 0..x.rows() {
            let bits = forest.predict_row(x.row(i)).to_bits();
            if let Some(prev) = by_key.insert(key(i), bits) {
                assert_eq!(prev, bits, "row {i}: {:?} shares a key", x.row(i));
            }
        }
        let (slots, firsts) = grid.distinct_keys(&x);
        assert_eq!(firsts.len(), by_key.len(), "one slot per distinct key");
        for (i, &s) in slots.iter().enumerate() {
            assert_eq!(key(i), key(firsts[s as usize]), "row {i} in slot {s}");
        }
        let keyed: Vec<u64> = forest
            .predict_keyed(&x)
            .iter()
            .map(|p| p.to_bits())
            .collect();
        let walked: Vec<u64> = forest.predict(&x).iter().map(|p| p.to_bits()).collect();
        assert_eq!(keyed, walked);
    }

    #[test]
    fn equal_keys_predict_equal_bits_on_a_fitted_forest() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|_| {
                vec![
                    rng.gen_range(0..4) as f64,
                    rng.gen_range(0..8) as f64 * 0.25 - 1.0,
                    rng.gen_range(0..2) as f64,
                ]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] - r[1] * r[2]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let forest = RandomForest::fit(&x, &y, &ForestParams::default()).unwrap();
        check_keys(&forest, 3, 2000, 1);
    }

    /// A reassembled forest with thresholds no trainer produces: the
    /// signed zeros as separate thresholds, infinities, a NaN threshold
    /// (which sends every row right) and a feature no split reads.
    #[test]
    fn equal_keys_predict_equal_bits_on_arbitrary_thresholds() {
        let split = |feature: u32, threshold: f64, left: u32, right: u32| TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        let leaf = |value: f64| TreeNode::Leaf { value };
        let a = vec![
            split(0, -0.0, 1, 2),
            split(1, f64::NAN, 3, 4),
            split(0, 0.0, 5, 6),
            leaf(1.0),
            split(1, f64::INFINITY, 7, 8),
            leaf(2.0),
            split(1, 2.5, 9, 10),
            leaf(3.0),
            leaf(4.0),
            leaf(5.0),
            leaf(6.0),
        ];
        let b = vec![
            split(1, f64::NEG_INFINITY, 1, 2),
            leaf(0.25),
            split(0, 7.0, 3, 4),
            leaf(0.5),
            split(1, 2.5, 5, 6),
            leaf(0.75),
            leaf(1.5),
        ];
        let trees = [a, b]
            .into_iter()
            .map(|nodes| RegressionTree::from_nodes(nodes, 3).unwrap())
            .collect();
        let forest = RandomForest::from_trees(trees).unwrap();
        let grid = SplitGrid::of(forest.trees());
        let thresholds: Vec<(usize, Vec<u64>)> = (grid.features.iter())
            .map(|(f, ts)| (*f, ts.iter().map(|t| t.to_bits()).collect()))
            .collect();
        assert_eq!(
            thresholds,
            [
                (0, vec![(-0.0f64).to_bits(), 7.0f64.to_bits()]),
                (
                    1,
                    [f64::NEG_INFINITY, 2.5, f64::INFINITY]
                        .map(f64::to_bits)
                        .to_vec()
                ),
            ],
            "NaN dropped, the signed zeros one threshold"
        );
        check_keys(&forest, 3, 1000, 2);
    }

    /// One chain tree splitting each of `width` features at `per`
    /// thresholds (`f + j/per`, j = 0..per), every leaf a distinct value.
    fn chain_forest(width: usize, per: usize) -> RandomForest {
        let mut nodes = Vec::new();
        for f in 0..width {
            for j in 0..per {
                let here = nodes.len() as u32;
                nodes.push(TreeNode::Split {
                    feature: f as u32,
                    threshold: f as f64 + j as f64 / per as f64,
                    left: here + 1,
                    right: here + 2,
                });
                nodes.push(TreeNode::Leaf { value: here as f64 });
            }
        }
        nodes.push(TreeNode::Leaf { value: -1.0 });
        let tree = RegressionTree::from_nodes(nodes, width).unwrap();
        RandomForest::from_trees(vec![tree]).unwrap()
    }

    /// Key spaces past the direct table (21^4 keys) and past a `u64`
    /// (16^20 keys) take the hashed slots.
    #[test]
    fn wide_key_spaces_are_keyed_exactly() {
        check_keys(&chain_forest(4, 20), 4, 500, 3);
        check_keys(&chain_forest(20, 15), 20, 200, 4);
    }

    #[test]
    fn a_forest_of_leaves_has_one_key() {
        let forest = RandomForest::from_trees(vec![RegressionTree::from_nodes(
            vec![TreeNode::Leaf { value: 0.5 }],
            2,
        )
        .unwrap()])
        .unwrap();
        let x = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![-3.0, 0.0]]).unwrap();
        let grid = SplitGrid::of(forest.trees());
        assert_eq!(grid.distinct_keys(&x), (vec![0, 0], vec![0]));
        assert_eq!(forest.predict_keyed(&x), [0.5, 0.5]);
        assert!(forest.predict_keyed(&Matrix::zeros(0, 2)).is_empty());
    }
}
