//! The **Opt-HowTo** baseline (§5.1): "compute the optimal solution by
//! enumerating all possible updates, evaluating what-if query output for
//! each update and choosing the one that returns the optimal result."
//!
//! Deliberately exhaustive — Figures 9b and 11b measure its exponential
//! runtime against the IP formulation. Combinations over the budget, or
//! updating a causally connected attribute pair (§3.1), are skipped.

use std::time::Instant;

use hyper_causal::CausalGraph;
use hyper_query::{HowToQuery, ObjectiveDirection, UpdateSpec};
use hyper_runtime::HyperRuntime;
use hyper_storage::Database;

use crate::config::{EngineConfig, HowToOptions};
use crate::error::Result;
use crate::howto::optimizer::{candidate_whatif, HowToContext};
use crate::howto::HowToResult;
use crate::session::cache::ArtifactCache;
use crate::whatif::evaluate_whatif;

/// Exhaustively search all candidate-update combinations through a
/// session's artifact cache: all enumerated combinations reuse one
/// relevant view, and every combination over the same feature set reuses
/// that set's one estimator.
pub(crate) fn evaluate_howto_bruteforce(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &HowToQuery,
    opts: &HowToOptions,
    cache: &ArtifactCache,
    runtime: &HyperRuntime,
) -> Result<HowToResult> {
    let started = Instant::now();
    let mut ctx = HowToContext::prepare(db, graph, config, q, opts, cache, runtime)?;
    let maximize = q.objective.direction == ObjectiveDirection::Maximize;

    // Mixed-radix enumeration over (no-change + candidates) per attribute.
    let radices: Vec<usize> = ctx.candidates.iter().map(|c| c.len() + 1).collect();
    let mut digits = vec![0usize; radices.len()];
    let mut best: Option<(Vec<UpdateSpec>, f64)> = Some((Vec::new(), ctx.baseline));

    loop {
        // Assemble the combination (digit 0 = no change).
        let updates: Vec<UpdateSpec> = digits
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .map(|(i, &d)| {
                let c = &ctx.candidates[i][d - 1];
                UpdateSpec {
                    attr: c.attr.clone(),
                    func: c.func.clone(),
                }
            })
            .collect();
        let n_updated = updates.len();
        let within_budget = opts.max_attrs_updated.is_none_or(|b| n_updated <= b);
        // Causally connected attributes cannot be updated together (§3.1).
        let feasible = within_budget && !ctx.updates_connected(|i| digits[i] > 0);
        if feasible && !updates.is_empty() {
            let wq = candidate_whatif(&ctx.whatif_template, updates.clone())?;
            let r = evaluate_whatif(db, graph, config, &wq, cache, runtime)?;
            ctx.whatif_evals += 1;
            let better = match &best {
                None => true,
                Some((_, b)) => {
                    if maximize {
                        r.value > *b + 1e-12
                    } else {
                        r.value < *b - 1e-12
                    }
                }
            };
            if better {
                best = Some((updates, r.value));
            }
        }
        // Increment.
        let mut i = 0;
        loop {
            if i == digits.len() {
                let (chosen, objective) = best.expect("baseline is always present");
                return Ok(HowToResult {
                    chosen,
                    objective,
                    baseline: ctx.baseline,
                    candidates: ctx.candidates.iter().map(Vec::len).sum(),
                    whatif_evals: ctx.whatif_evals,
                    elapsed: started.elapsed(),
                });
            }
            digits[i] += 1;
            if digits[i] < radices[i] {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}
