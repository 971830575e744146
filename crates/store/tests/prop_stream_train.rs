//! Property suite for streaming forest training over paged tables.
//!
//! Every forest trains through one cell layout
//! ([`hyper_ml::StreamedLayout`]); [`hyper_ml::RandomForest::fit_on`] reads
//! its resident matrix as a single chunk. So the contract under test is
//! **chunking invariance**: a forest trained through the out-of-core
//! pipeline — [`hyper_store::fit_encoder_paged`] +
//! [`hyper_store::PagedTrainSource`] + [`hyper_ml::StreamedLayout`] — is
//! bit-identical (`f64::to_bits` on predictions) to the one-chunk fit over
//! the collected resident table, for every combination of
//!
//! * worker count ∈ {0, 1, 3} (sequential, one worker, oversubscribed),
//! * spill chunk size ∈ {1, 7, 4096} (degenerate, ragged, one-chunk),
//! * paging budget ∈ {16 B, unbounded} (16 B is smaller than any single
//!   column, so nothing can stay resident),
//!
//! over random tables with NULLs in a dictionary-encoded feature (whose
//! spilled chunks share the source dictionary `Arc`).
//!
//! The streamed fit runs inside an installed [`hyper_trace`] context,
//! while the resident reference stays untraced: recording `ForestTrain`
//! spans (on the caller and, via the pool's context capture, on worker
//! threads) must not perturb a single prediction bit. The suite asserts
//! the spans really fired, so a silently-disabled trace can't turn this
//! check into a no-op.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use hyper_ml::{ForestParams, RandomForest, StreamedLayout, TableEncoder, MAX_BINS};
use hyper_runtime::HyperRuntime;
use hyper_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use hyper_store::{fit_encoder_paged, target_vector_paged, PagedTable, PagedTrainSource};
use hyper_trace::{with_trace, Phase, TraceTree};

/// Per-row seeds: (int feature, string NULL?, string pick, float pick,
/// target pick). Domains are small so the joint cells stay under the
/// trainer's cell cap and both paths take the cell route.
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

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hyper_prop_stream_{tag}_{}_{n}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streamed == resident, bit for bit, across workers × chunk sizes
    /// × budgets.
    #[test]
    fn streamed_training_is_bit_identical_to_resident(
        rows in prop::collection::vec(
            (0u8..4, any::<bool>(), 0u8..3, 0u8..3, 0u8..7),
            20..90,
        ),
        seed in 0u64..1000,
    ) {
        let t = build_table(&rows);
        let n = t.num_rows();
        let cols: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let params = ForestParams { n_trees: 3, seed, ..Default::default() };

        // Resident reference (worker-count independence of `fit_on` is
        // covered by hyper-ml's own tests; 0 workers is the baseline).
        let resident_enc = TableEncoder::fit(&t, &cols).unwrap();
        let x = resident_enc.encode_table(&t).unwrap();
        let y = TableEncoder::target_vector(&t, "y").unwrap();
        let reference =
            RandomForest::fit_on(&HyperRuntime::with_workers(0), &x, &y, &params).unwrap();

        for chunk_rows in [1usize, 7, 4096] {
            for budget in [16u64, u64::MAX] {
                let dir = unique_dir("case");
                let paged = PagedTable::spill(&t, &dir, chunk_rows, budget).unwrap();

                let enc = fit_encoder_paged(&paged, &cols).unwrap();
                prop_assert_eq!(enc.parts().1, resident_enc.parts().1);
                let yp = target_vector_paged(&paged, "y").unwrap();
                prop_assert_eq!(&yp, &y);

                let mut src = PagedTrainSource::new(&paged, &enc);
                let layout = StreamedLayout::build(&mut src, MAX_BINS, (n / 4).max(64))
                    .unwrap()
                    .expect("small discrete domains stay cell-trainable");

                for workers in [0usize, 1, 3] {
                    let rt = HyperRuntime::with_workers(workers);
                    let trace = TraceTree::new();
                    let streamed =
                        with_trace(&trace, || layout.fit_forest(&rt, &yp, &params)).unwrap();
                    let spans = trace.snapshot().count(Phase::ForestTrain);
                    prop_assert!(
                        spans > 0,
                        "streamed fit recorded no ForestTrain spans (workers={})",
                        workers
                    );
                    for i in [0, n / 2, n - 1] {
                        prop_assert_eq!(
                            reference.predict_row(x.row(i)).to_bits(),
                            streamed.predict_row(x.row(i)).to_bits(),
                            "row {} diverged (workers={}, chunk={}, budget={})",
                            i, workers, chunk_rows, budget
                        );
                    }
                }
                paged.remove_files().unwrap();
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
