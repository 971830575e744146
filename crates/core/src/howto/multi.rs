//! Preferential multi-objective how-to optimization (§4.3 "Extension to
//! preferential multi-objective optimization", Example 11): solve the IP
//! for the most-preferred objective, then re-solve for each subsequent
//! objective with the previously achieved values pinned as constraints.

use std::time::Instant;

use hyper_causal::CausalGraph;
use hyper_ip::{solve_ilp, Model, Sense};
use hyper_query::{HowToQuery, ObjectiveDirection, UpdateSpec};
use hyper_runtime::HyperRuntime;
use hyper_storage::Database;

use crate::config::{EngineConfig, HowToOptions};
use crate::error::{EngineError, Result};
use crate::howto::optimizer::HowToContext;
use crate::howto::HowToResult;
use crate::session::cache::ArtifactCache;

/// Result of a lexicographic optimization: the final chosen updates plus
/// the achieved value of every objective, in preference order.
#[derive(Debug, Clone)]
pub struct LexicographicResult {
    /// The solution.
    pub result: HowToResult,
    /// Achieved objective values, most-preferred first.
    pub achieved: Vec<f64>,
}

/// Solve a sequence of how-to queries sharing `Use`/`When`/`HowToUpdate`/
/// `Limit` but with different objectives, ordered most-preferred first.
/// The per-objective candidate evaluations share a session's artifact
/// cache.
pub(crate) fn evaluate_howto_lexicographic(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    queries: &[HowToQuery],
    opts: &HowToOptions,
    cache: &ArtifactCache,
    runtime: &HyperRuntime,
) -> Result<LexicographicResult> {
    let started = Instant::now();
    let Some(first) = queries.first() else {
        return Err(EngineError::Plan("no objectives given".into()));
    };
    for q in queries.iter().skip(1) {
        if q.use_clause != first.use_clause
            || q.when != first.when
            || q.update_attrs != first.update_attrs
            || q.limits != first.limits
        {
            return Err(EngineError::Plan(
                "lexicographic objectives must share Use/When/HowToUpdate/Limit".into(),
            ));
        }
    }

    // Candidate values per objective.
    let mut contexts: Vec<HowToContext> = Vec::with_capacity(queries.len());
    for q in queries {
        contexts.push(HowToContext::prepare(
            db, graph, config, q, opts, cache, runtime,
        )?);
    }
    let candidates = &contexts[0].candidates;

    // Shared variable layout.
    let n_attr = candidates.len();
    let mut achieved: Vec<f64> = Vec::with_capacity(queries.len());
    // Constraints accumulated from already-optimized objectives:
    // Σ δ·coef_k {≥ or ≤} achieved_delta_k.
    let mut pinned: Vec<(Vec<f64>, ObjectiveDirection, f64)> = Vec::new();
    let mut final_solution: Option<Vec<f64>> = None;

    for (k, q) in queries.iter().enumerate() {
        let maximize = q.objective.direction == ObjectiveDirection::Maximize;
        let mut model = if maximize {
            Model::maximize()
        } else {
            Model::minimize()
        };
        let mut var_map: Vec<Vec<usize>> = Vec::with_capacity(n_attr);
        let mut flat_coefs: Vec<f64> = Vec::new();
        for (i, cands) in candidates.iter().enumerate() {
            let mut vars = Vec::with_capacity(cands.len());
            for (j, c) in cands.iter().enumerate() {
                let delta = contexts[k].values[i][j] - contexts[k].baseline;
                flat_coefs.push(delta);
                vars.push(model.add_binary(format!("d{k}_{}_{j}", c.attr), delta));
            }
            var_map.push(vars);
        }
        for (i, vars) in var_map.iter().enumerate() {
            if !vars.is_empty() {
                model
                    .add_constraint(
                        format!("one_{i}"),
                        vars.iter().map(|&v| (v, 1.0)).collect(),
                        Sense::Le,
                        1.0,
                    )
                    .map_err(EngineError::from)?;
            }
        }
        contexts[0].exclude_connected(&mut model, &var_map)?;
        if let Some(budget) = opts.max_attrs_updated {
            model
                .add_constraint(
                    "budget",
                    var_map.iter().flatten().map(|&v| (v, 1.0)).collect(),
                    Sense::Le,
                    budget as f64,
                )
                .map_err(EngineError::from)?;
        }
        // Pin previous objectives (within a small tolerance).
        for (coefs, dir, value) in &pinned {
            let sparse: Vec<(usize, f64)> = coefs
                .iter()
                .enumerate()
                .filter(|(_, c)| c.abs() > 0.0)
                .map(|(i, c)| (i, *c))
                .collect();
            let (sense, rhs) = match dir {
                ObjectiveDirection::Maximize => (Sense::Ge, value - 1e-9),
                ObjectiveDirection::Minimize => (Sense::Le, value + 1e-9),
            };
            model
                .add_constraint("pin", sparse, sense, rhs)
                .map_err(EngineError::from)?;
        }

        let sol = solve_ilp(&model).map_err(EngineError::from)?;
        let delta_value: f64 = flat_coefs.iter().zip(&sol.values).map(|(c, x)| c * x).sum();
        achieved.push(contexts[k].baseline + delta_value);
        pinned.push((flat_coefs, q.objective.direction, delta_value));
        final_solution = Some(sol.values);
    }

    // Decode the final solution.
    let values = final_solution.expect("at least one objective");
    let mut chosen = Vec::new();
    let mut idx = 0usize;
    for cands in candidates {
        for c in cands {
            if values[idx] > 0.5 {
                chosen.push(UpdateSpec {
                    attr: c.attr.clone(),
                    func: c.func.clone(),
                });
            }
            idx += 1;
        }
    }
    // Report per-objective *joint* what-if values of the final solution
    // (the per-step `achieved` values above steer the constraints in
    // linearized form; joint values are what the user observes).
    let mut whatif_evals: usize = contexts.iter().map(|c| c.whatif_evals).sum();
    if !chosen.is_empty() {
        for (k, ctx) in contexts.iter().enumerate() {
            let wq =
                crate::howto::optimizer::candidate_whatif(&ctx.whatif_template, chosen.clone())?;
            achieved[k] =
                crate::whatif::evaluate_whatif(db, graph, config, &wq, cache, runtime)?.value;
            whatif_evals += 1;
        }
    }
    Ok(LexicographicResult {
        result: HowToResult {
            chosen,
            objective: achieved.last().copied().unwrap_or_default(),
            baseline: contexts[0].baseline,
            candidates: candidates.iter().map(Vec::len).sum(),
            whatif_evals,
            elapsed: started.elapsed(),
        },
        achieved,
    })
}
