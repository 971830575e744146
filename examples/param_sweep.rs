//! Parameterized scenario sweep through the typed query-builder API.
//!
//! Builds the German-Syn credit workload, prepares ONE parameterized
//! what-if template (`Update(status) = Param(level)`), explains its plan,
//! then sweeps the binding over the whole domain — the relevant view and
//! the estimator are built once for the entire sweep and nothing is ever
//! parsed: a binding changes only the update function, which is applied
//! when the one fitted model is evaluated.
//!
//! ```sh
//! cargo run --release --example param_sweep
//! ```

use hyper_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = hyper_repro::datasets::german_syn(10_000, 1);
    let session = HyperSession::builder(data.db).graph(data.graph).build();

    // "If everyone's checking-account status were set to <level>, how many
    // people would have good credit?" — status level is a placeholder.
    let template = WhatIf::over("german_syn")
        .set_param("status", "level")
        .output_count(HExpr::post("credit").eq("Good"));
    let prepared = session.prepare(template)?;

    // The plan before anything runs: cold view (miss), estimator
    // would-build, adjustment set chosen from the causal graph.
    println!(
        "{}",
        prepared.explain_with(&Bindings::new().set("level", 1))?
    );

    println!("status sweep over one prepared template:");
    for level in 0..=4 {
        let r = prepared.execute_whatif_with(&Bindings::new().set("level", level))?;
        println!(
            "  status = {level}: expected good-credit count = {:8.1}  ({:?})",
            r.value, r.elapsed
        );
    }

    // Re-binding a seen value is answered from the cache.
    let again = prepared.execute_whatif_with(&Bindings::new().set("level", 2))?;
    println!(
        "  status = 2 (re-bound): {:8.1}  ({:?})",
        again.value, again.elapsed
    );

    let stats = session.stats();
    println!(
        "\nsession stats: view misses = {}, texts parsed = {}, \
         estimators trained = {}, estimator hits = {}",
        stats.view_misses, stats.texts_parsed, stats.estimator_misses, stats.estimator_hits,
    );
    assert_eq!(stats.view_misses, 1, "one view for the whole sweep");
    assert_eq!(stats.texts_parsed, 0, "no SQL text anywhere");
    assert_eq!(
        stats.estimator_misses, 1,
        "one training for the whole sweep"
    );
    Ok(())
}
