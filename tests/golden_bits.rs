//! Pinned `f64::to_bits` of three kinds of answer:
//!
//! - a what-if whose estimator trains both a numerator and a denominator
//!   forest (an `Avg` output with a post `For` condition);
//! - a four-attribute how-to (candidate enumeration and L1 costing, the
//!   baseline objective, one training per attribute, the IP and the joint
//!   re-evaluation of the chosen updates).
//!
//! - a what-if whose ψ/Y targets are inexact, non-dyadic floats (an
//!   `Avg` over the continuous `credit_amount`), so a forest's leaf sums
//!   depend on the order in which it adds its cells.
//!
//! The forest-level pins (one cell-mode fit, one row-wise fit) live with
//! the trainer in `crates/ml/src/forest.rs`.
//!
//! A what-if value is the correctly rounded exact sum of its per-row
//! contributions (`ExactSum` in `hyper-core`), so it does not depend on
//! row order. The what-if value and the how-to `objective` (the joint
//! what-if of the chosen updates) were re-pinned when the sums became
//! exact, and `hyper-core`'s
//! `whatif::estimator::tests::golden_parts_equal_the_oracle_sums` shows
//! both equal to an independent big-integer oracle's rounding of the
//! same contributions. The chosen updates and the integer `baseline` did
//! not move. The what-if value was re-pinned once more when estimators
//! became keyed and fitted on their feature set in view-column order
//! (its `status` update no longer leads its features); the how-to
//! `objective` kept its bits, as its joint update's columns already lead
//! theirs. Any change to binning, cell ids, bootstrap order, the
//! per-tree RNG or the sums shows up here as a changed bit pattern. CI
//! also runs this file with `HYPER_RUNTIME_WORKERS=0`, the zero-worker
//! lane of the runtime.

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
        0x3ffb21fb8a90c67d,
        "value {:?} = {:#018x}",
        r.value,
        r.value.to_bits()
    );
}

#[test]
fn howto_answer_bits_are_pinned() {
    let data = hyper_repro::datasets::german_syn_extended(3_000, 1);
    let session = HyperSession::builder(data.db.clone())
        .graph(data.graph.clone())
        .config(EngineConfig::hyper())
        .howto_options(HowToOptions {
            buckets: 4,
            max_attrs_updated: None,
        })
        .share_artifacts(false)
        .build();
    let r = session
        .howto_text(
            "Use german_syn HowToUpdate status, savings, housing, credit_amount \
             ToMaximize Count(Post(credit) = 'Good')",
        )
        .unwrap();
    let chosen: Vec<String> = r.chosen.iter().map(|u| u.to_string()).collect();
    assert_eq!(
        chosen,
        [
            "Update(status) = 2.625",
            "Update(savings) = 2.625",
            "Update(housing) = 1.75",
            "Update(credit_amount) = 2.625",
        ]
    );
    assert_eq!(
        r.objective.to_bits(),
        0x40a6aa1ba174f5d7,
        "objective {:?} = {:#018x}",
        r.objective,
        r.objective.to_bits()
    );
    assert_eq!(
        r.baseline.to_bits(),
        0x409fac0000000000,
        "baseline {:?} = {:#018x}",
        r.baseline,
        r.baseline.to_bits()
    );
    assert_eq!((r.candidates, r.whatif_evals), (16, 17));
}

/// The estimator's features are its feature set in view-column order, so
/// a what-if whose update column already leads that order (`status`
/// precedes its adjustment set `savings, housing, credit_amount` in the
/// German-Syn-ext view) fits the same forest as when features were
/// ordered update-first, and keeps its bits; the how-to `objective`
/// above is such a value.
#[test]
fn leading_update_column_keeps_its_bits() {
    let data = hyper_repro::datasets::german_syn_extended(3_000, 1);
    let session = HyperSession::builder(data.db.clone())
        .graph(data.graph.clone())
        .share_artifacts(false)
        .build();
    let r = session
        .whatif_text(
            "Use german_syn Update(status) = 2.625 \
             Output Count(Post(credit) = 'Good')",
        )
        .unwrap();
    assert_eq!(r.backdoor, ["savings", "housing", "credit_amount"]);
    assert_eq!(
        r.value.to_bits(),
        0x40a4d3e2b6d47151,
        "value {:?} = {:#018x}",
        r.value,
        r.value.to_bits()
    );
}

/// Count targets are 0/1 and the `Avg` pin above averages an integer, so
/// their sums are exact in any order. Here Y is a continuous amount: a
/// change in the order in which a forest numbers (and so adds) its
/// support cells moves these bits.
#[test]
fn inexact_targets_keep_their_bits() {
    let data = hyper_repro::datasets::german_syn_continuous(4_000, 7);
    let session = HyperSession::builder(data.db.clone())
        .graph(data.graph.clone())
        .share_artifacts(false)
        .build();
    let r = session
        .whatif_text(
            "Use german_syn When age = 1 Update(status) = 3 \
             Output Avg(Post(credit_amount))",
        )
        .unwrap();
    assert_eq!(r.backdoor, ["age", "sex"]);
    assert_eq!(session.stats().estimator_misses, 1);
    assert_eq!(
        r.value.to_bits(),
        0x40b266aadb53f1f4,
        "value {:?} = {:#018x}",
        r.value,
        r.value.to_bits()
    );
}
