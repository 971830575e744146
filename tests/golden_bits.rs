//! Pinned `f64::to_bits` of a what-if answer whose estimator trains both
//! a numerator and a denominator forest (an `Avg` output with a post
//! `For` condition). The forest-level pins (one cell-mode fit, one
//! row-wise fit) live with the trainer in `crates/ml/src/forest.rs`.
//!
//! The constants were captured from the trainer before it moved onto a
//! single cell layout; any change to binning, cell ids, bootstrap order
//! or the per-tree RNG shows up here as a changed bit pattern.

use hyper_repro::prelude::*;

#[test]
fn avg_whatif_value_bits_are_pinned() {
    let data = hyper_repro::datasets::german_syn(20_000, 3);
    let session = HyperSession::builder(data.db.clone())
        .graph(data.graph.clone())
        .build();
    let r = session
        .whatif_text(
            "Use german_syn When age = 1 Update(status) = 3 \
             Output Avg(Post(credit_amount)) For Post(credit) = 'Good'",
        )
        .unwrap();
    assert_eq!(session.stats().estimator_misses, 1);
    assert_eq!(
        r.value.to_bits(),
        0x3ffb1a291687faa8,
        "value {:?} = {:#018x}",
        r.value,
        r.value.to_bits()
    );
}
