//! Codecs for fitted models: random forests and table encoders.
//!
//! Forest trees serialize their flattened arenas with exact `f64` bit
//! patterns for thresholds and leaf values, so a reloaded forest predicts
//! **bit-identically** to the fitted original — the invariant the
//! warm-start acceptance test pins down. Decoding re-validates the arena
//! through [`RegressionTree::from_nodes`] (in-range features, forward
//! child indices), so hostile bytes cannot build a tree whose prediction
//! walk fails to terminate.

use hyper_ml::{ColumnEncoding, RandomForest, RegressionTree, TableEncoder, TreeNode};

use crate::codec::{ByteReader, ByteWriter};
use crate::error::{Result, StoreError};

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// Encode a fitted regression tree (arena order preserved).
pub fn encode_tree(w: &mut ByteWriter, tree: &RegressionTree) {
    w.write_u64(tree.n_features() as u64);
    let nodes = tree.export_nodes();
    w.write_u64(nodes.len() as u64);
    for n in nodes {
        match n {
            TreeNode::Leaf { value } => {
                w.write_u8(0);
                w.write_f64(value);
            }
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                w.write_u8(1);
                w.write_u32(feature);
                w.write_f64(threshold);
                w.write_u32(left);
                w.write_u32(right);
            }
        }
    }
}

/// Decode a fitted regression tree, re-validating the arena invariants.
pub fn decode_tree(r: &mut ByteReader<'_>) -> Result<RegressionTree> {
    let n_features = r.read_u64("tree feature width")? as usize;
    let nnodes = r.read_len(9, "tree node count")?;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        nodes.push(match r.read_u8("tree node tag")? {
            0 => TreeNode::Leaf {
                value: r.read_f64("leaf value")?,
            },
            1 => TreeNode::Split {
                feature: r.read_u32("split feature")?,
                threshold: r.read_f64("split threshold")?,
                left: r.read_u32("left child")?,
                right: r.read_u32("right child")?,
            },
            t => return Err(corrupt(format!("invalid tree-node tag {t}"))),
        });
    }
    RegressionTree::from_nodes(nodes, n_features).map_err(|e| corrupt(format!("invalid tree: {e}")))
}

/// Encode a fitted random forest.
pub fn encode_forest(w: &mut ByteWriter, forest: &RandomForest) {
    w.write_u64(forest.num_trees() as u64);
    for t in forest.trees() {
        encode_tree(w, t);
    }
}

/// Decode a fitted random forest (bit-identical predictions).
pub fn decode_forest(r: &mut ByteReader<'_>) -> Result<RandomForest> {
    let n = r.read_len(17, "forest tree count")?;
    let mut trees = Vec::with_capacity(n);
    for _ in 0..n {
        trees.push(decode_tree(r)?);
    }
    RandomForest::from_trees(trees).map_err(|e| corrupt(format!("invalid forest: {e}")))
}

/// Encode a fitted table encoder (column names + per-column encodings).
pub fn encode_encoder(w: &mut ByteWriter, enc: &TableEncoder) {
    let (columns, encodings) = enc.parts();
    w.write_u64(columns.len() as u64);
    for c in columns {
        w.write_str(c);
    }
    for e in encodings {
        match e {
            ColumnEncoding::Numeric { mean } => {
                w.write_u8(0);
                w.write_f64(*mean);
            }
            ColumnEncoding::OneHot { categories } => {
                w.write_u8(1);
                w.write_u64(categories.len() as u64);
                for v in categories {
                    w.write_value(v);
                }
            }
        }
    }
}

/// Decode a fitted table encoder.
pub fn decode_encoder(r: &mut ByteReader<'_>) -> Result<TableEncoder> {
    let n = r.read_len(8, "encoder column count")?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        columns.push(r.read_string("encoder column name")?);
    }
    let mut encodings = Vec::with_capacity(n);
    for _ in 0..n {
        encodings.push(match r.read_u8("encoding tag")? {
            0 => ColumnEncoding::Numeric {
                mean: r.read_f64("numeric mean")?,
            },
            1 => {
                let k = r.read_len(1, "category count")?;
                let mut categories = Vec::with_capacity(k);
                for _ in 0..k {
                    categories.push(r.read_value("category")?);
                }
                ColumnEncoding::OneHot { categories }
            }
            t => return Err(corrupt(format!("invalid encoding tag {t}"))),
        });
    }
    TableEncoder::from_parts(columns, encodings)
        .map_err(|e| corrupt(format!("invalid encoder: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_ml::{ForestParams, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn training_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-3.0..3.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b]);
            y.push(a.abs() + b + 0.05 * rng.gen_range(-1.0..1.0));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn forest_round_trip_is_bit_identical() {
        let (x, y) = training_data(500, 7);
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestParams {
                n_trees: 8,
                seed: 3,
                ..ForestParams::default()
            },
        )
        .unwrap();
        let mut w = ByteWriter::new();
        encode_forest(&mut w, &forest);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_forest(&mut r).unwrap();
        assert!(r.is_at_end());
        let (xt, _) = training_data(200, 8);
        let p0 = forest.predict(&xt);
        let p1 = back.predict(&xt);
        assert_eq!(
            p0.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            p1.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "round-tripped forest must predict bit-identically"
        );
    }

    #[test]
    fn hostile_tree_bytes_cannot_loop() {
        // A split pointing back at itself must be rejected.
        let mut w = ByteWriter::new();
        w.write_u64(1); // n_features
        w.write_u64(1); // one node
        w.write_u8(1); // split
        w.write_u32(0);
        w.write_f64(0.5);
        w.write_u32(0); // left = self
        w.write_u32(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            decode_tree(&mut r).unwrap_err(),
            StoreError::Corrupt(_)
        ));
    }

    #[test]
    fn encoder_round_trip() {
        let enc = TableEncoder::from_parts(
            vec!["a".into(), "b".into()],
            vec![
                ColumnEncoding::Numeric { mean: 0.25 },
                ColumnEncoding::OneHot {
                    categories: vec!["x".into(), "y".into()],
                },
            ],
        )
        .unwrap();
        let mut w = ByteWriter::new();
        encode_encoder(&mut w, &enc);
        let bytes = w.into_bytes();
        let back = decode_encoder(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.width(), enc.width());
        assert_eq!(back.parts().1, enc.parts().1);
    }
}
