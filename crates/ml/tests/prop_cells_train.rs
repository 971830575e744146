//! Property suite for forest training from support cells.
//!
//! Every estimator fits through [`RandomForest::fit_on_cells`]: one
//! encoded representative per support cell (rows with identical raw
//! feature values) plus each row's cell id. The contract under test is
//! that this fit is bit-identical (`f64::to_bits` on predictions) to the
//! untraced [`RandomForest::fit_on`] over the expanded matrix, for every
//! worker count in {0, 1, 3} (sequential, one worker, oversubscribed),
//! over random tables with NULLs in a dictionary-encoded feature.
//!
//! The cell fit runs inside an installed [`hyper_trace`] context, while
//! the reference stays untraced: recording `ForestTrain` spans (on the
//! caller and, via the pool's context capture, on worker threads) must
//! not perturb a single prediction bit. The suite asserts the spans
//! really fired, so a silently disabled trace can't turn this check into
//! a no-op.

use std::collections::HashMap;

use proptest::prelude::*;

use hyper_ml::{ForestParams, RandomForest, TableEncoder};
use hyper_runtime::HyperRuntime;
use hyper_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use hyper_trace::{with_trace, Phase, TraceTree};

/// Per-row seeds: (int feature, string NULL?, string pick, float pick,
/// target pick). Domains are small so the joint cells stay under the
/// trainer's cell cap and both fits take the cell route.
type RowSpec = (u8, bool, u8, u8, u8);

fn build_table(rows: &[RowSpec]) -> Table {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::nullable("b", DataType::Str),
        Field::new("c", DataType::Float),
        Field::new("y", DataType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new("t", schema);
    for &(a, b_null, b_pick, c_pick, y_pick) in rows {
        let s: Value = if b_null {
            Value::Null
        } else {
            ["p", "q", "r"][b_pick as usize % 3].into()
        };
        b.push(vec![
            Value::Int(a as i64 % 4),
            s,
            Value::Float((c_pick % 3) as f64 * 0.25 - 0.5),
            Value::Float((y_pick % 7) as f64 * 1.5 - 2.0),
        ])
        .unwrap();
    }
    b.build()
}

/// The support cells of `t` over `cols`, numbered in first-occurrence
/// order: the first row of each distinct raw value combination, and the
/// cell of every row.
fn support_cells(t: &Table, cols: &[String]) -> (Vec<usize>, Vec<u32>) {
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| t.schema().index_of(c).unwrap())
        .collect();
    let mut ids: HashMap<Vec<Value>, u32> = HashMap::new();
    let mut firsts = Vec::new();
    let cells = (0..t.num_rows())
        .map(|i| {
            let key: Vec<Value> = idx.iter().map(|&c| t.column(c).value(i)).collect();
            let next = ids.len() as u32;
            *ids.entry(key).or_insert_with(|| {
                firsts.push(i);
                next
            })
        })
        .collect();
    (firsts, cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Traced cell fit == untraced expanded-matrix fit, bit for bit,
    /// across worker counts.
    #[test]
    fn cell_training_is_bit_identical_to_the_expanded_matrix(
        rows in prop::collection::vec(
            (0u8..4, any::<bool>(), 0u8..3, 0u8..3, 0u8..7),
            20..90,
        ),
        seed in 0u64..1000,
    ) {
        let t = build_table(&rows);
        let n = t.num_rows();
        let cols: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let params = ForestParams { n_trees: 4, seed, ..Default::default() };

        let enc = TableEncoder::fit(&t, &cols).unwrap();
        let x = enc.encode_table(&t).unwrap();
        let y = TableEncoder::target_vector(&t, "y").unwrap();
        let reference =
            RandomForest::fit_on(&HyperRuntime::with_workers(0), &x, &y, &params).unwrap();

        let (firsts, cells) = support_cells(&t, &cols);
        let reps = enc.encode_table(&t.gather(&firsts)).unwrap();
        prop_assert!(reps.rows() < n, "{} cells over {} rows", reps.rows(), n);

        for workers in [0usize, 1, 3] {
            let rt = HyperRuntime::with_workers(workers);
            let trace = TraceTree::new();
            let forest = with_trace(&trace, || {
                RandomForest::fit_on_cells(&rt, &reps, &cells, &y, &params)
            })
            .unwrap();
            let spans = trace.snapshot().count(Phase::ForestTrain);
            prop_assert!(
                spans > 0,
                "cell fit recorded no ForestTrain spans (workers={})",
                workers
            );
            for i in 0..n {
                prop_assert_eq!(
                    reference.predict_row(x.row(i)).to_bits(),
                    forest.predict_row(x.row(i)).to_bits(),
                    "row {} diverged (workers={})",
                    i, workers
                );
            }
        }
    }
}
