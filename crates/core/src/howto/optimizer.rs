//! The IP-based how-to optimizer (§4.3).
//!
//! One binary δ per candidate update value; `Σ_j δ_ij ≤ 1` per attribute;
//! optional budget on the number of updated attributes; objective
//! coefficients are the (linearized) what-if effects of each candidate.

use std::time::Instant;

use hyper_causal::CausalGraph;
use hyper_ip::{solve_ilp, Direction, Model, Sense};
use hyper_query::{
    validate_howto, HExpr, HowToQuery, ObjectiveDirection, OutputArg, OutputSpec, Temporal,
    UpdateSpec, WhatIf, WhatIfQuery,
};
use hyper_runtime::HyperRuntime;
use hyper_storage::Database;

use std::sync::{Arc, OnceLock};

use crate::config::{EngineConfig, HowToOptions};
use crate::error::{EngineError, Result};
use crate::hexpr::bind_hexpr;
use crate::howto::candidates::{generate_candidates, Candidate};
use crate::howto::HowToResult;
use crate::session::cache::ArtifactCache;
use crate::view::{build_relevant_view, RelevantView};
use crate::whatif::evaluate_whatif_maybe_cached;

/// Shared pre-processing for the optimizer, the brute-force baseline, and
/// the lexicographic extension.
pub(crate) struct HowToContext {
    pub candidates: Vec<Vec<Candidate>>,
    pub baseline: f64,
    /// The Definition-7 what-if *template*: an unfinished [`WhatIf`]
    /// builder carrying the shared `Use`/`When`/`Output`/`For` clauses;
    /// each candidate adds its update list and `build()`s (which
    /// re-validates) to obtain a complete query.
    pub whatif_template: WhatIf,
    pub whatif_evals: usize,
    /// Per-attribute per-candidate what-if values.
    pub values: Vec<Vec<f64>>,
}

/// Build the Definition-7 candidate what-if query for a set of updates.
pub(crate) fn candidate_whatif(template: &WhatIf, updates: Vec<UpdateSpec>) -> Result<WhatIfQuery> {
    Ok(template.clone().updates(updates).build()?)
}

impl HowToContext {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prepare(
        db: &Database,
        graph: Option<&CausalGraph>,
        config: &EngineConfig,
        q: &HowToQuery,
        opts: &HowToOptions,
        cache: Option<&ArtifactCache>,
        runtime: &HyperRuntime,
    ) -> Result<HowToContext> {
        // Every candidate what-if shares this view; inside a session it is
        // also shared with every other query over the same `Use` clause.
        let view = match cache {
            Some(c) => c.view(db, &q.use_clause)?.0,
            None => Arc::new(build_relevant_view(db, &q.use_clause)?),
        };
        let cols = view.column_names();
        validate_howto(q, Some(&cols))?;
        let schema = view.table.schema();

        // When mask for candidate costing (typed-column scan, no row
        // materialization).
        let when_mask = match &q.when {
            Some(w) => bind_hexpr(w, schema, Temporal::Pre)?.eval_mask(&view.table)?,
            None => vec![true; view.table.num_rows()],
        };

        let candidates = generate_candidates(&view, &when_mask, q, opts.buckets)?;

        // The Definition-7 what-if template: same Use/When/For, Output from
        // the objective. A predicate objective (`Count(Post(credit) =
        // 'Good')`) becomes a boolean output expression. Kept as a typed
        // [`WhatIf`] builder so each candidate's query is assembled — and
        // re-validated — through the same path API callers use. An
        // objective constant still carrying a `Param(…)` placeholder
        // cannot be evaluated — templates must be resolved through
        // `Bindings` (e.g. `PreparedQuery::execute_with`) first.
        let output_expr = match &q.objective.predicate {
            Some((op, constant)) => {
                let value = match constant {
                    hyper_query::ObjectiveConst::Lit(v) => v.clone(),
                    hyper_query::ObjectiveConst::Param(name) => {
                        return Err(EngineError::Query(format!(
                            "unresolved parameter `Param({name})` in the how-to objective; \
                             supply Bindings before evaluation"
                        )))
                    }
                };
                hyper_query::HExpr::binary(
                    *op,
                    hyper_query::HExpr::post(q.objective.attr.clone()),
                    hyper_query::HExpr::Lit(value),
                )
            }
            None => hyper_query::HExpr::post(q.objective.attr.clone()),
        };
        let output_spec = OutputSpec {
            agg: q.objective.agg,
            arg: OutputArg::Expr(output_expr),
        };
        let whatif_template = WhatIf::over_clause(q.use_clause.clone())
            .maybe_when(q.when.clone())
            .output(output_spec.agg, output_spec.arg.clone())
            .maybe_filter(q.for_clause.clone());

        // Baseline: objective with no hypothetical update. Evaluated
        // deterministically (identity update on the first attribute would
        // need numeric types; instead evaluate with an empty candidate by
        // updating nothing: When ∩ S handled by a no-op update) over the
        // already-materialized view.
        let baseline = evaluate_identity_objective(&view, &q.for_clause, &output_spec)?;

        // Assemble every candidate's what-if query, then evaluate. The
        // candidates fan out over the session's persistent worker pool.
        // All candidates of one attribute share one fitted estimator (it
        // is keyed on the update column, not the value), and the cache's
        // single-flight slot makes the first of them train it while the
        // rest wait. So the list is interleaved round-robin — candidate j
        // of every attribute before candidate j + 1 — and the first
        // workers start one training per attribute instead of queueing
        // behind one attribute's slot. Values are identical to a
        // sequential pass in any order (training is seeded and
        // order-independent). Nesting is safe — a batch of how-to queries
        // and the forest trainers below them all draw from the same fixed
        // pool.
        let mut flat: Vec<(usize, usize, WhatIfQuery)> = Vec::new();
        let rounds = candidates.iter().map(Vec::len).max().unwrap_or(0);
        for j in 0..rounds {
            for (i, cands) in candidates.iter().enumerate() {
                let Some(c) = cands.get(j) else { continue };
                let wq = candidate_whatif(
                    &whatif_template,
                    vec![UpdateSpec {
                        attr: c.attr.clone(),
                        func: c.func.clone(),
                    }],
                )?;
                flat.push((i, j, wq));
            }
        }
        let whatif_evals = flat.len();
        let mut values: Vec<Vec<f64>> = candidates.iter().map(|c| vec![0.0; c.len()]).collect();
        let slots: Vec<OnceLock<Result<f64>>> = (0..flat.len()).map(|_| OnceLock::new()).collect();
        runtime.for_each_parallel(flat.len(), |k| {
            let r = evaluate_whatif_maybe_cached(db, graph, config, &flat[k].2, cache, runtime)
                .map(|r| r.value);
            let _ = slots[k].set(r);
        });
        for ((i, j, _), slot) in flat.iter().zip(slots) {
            values[*i][*j] = slot.into_inner().expect("every candidate slot is filled")?;
        }

        Ok(HowToContext {
            candidates,
            baseline,
            whatif_template,
            whatif_evals,
            values,
        })
    }
}

/// Evaluate the objective aggregate with no update applied.
fn evaluate_identity_objective(
    view: &RelevantView,
    for_clause: &Option<HExpr>,
    output: &OutputSpec,
) -> Result<f64> {
    // With an empty When set (`When FALSE` is unexpressible) the cleanest
    // identity evaluation reuses the deterministic path: an update on a
    // fresh attribute is impossible, so instead evaluate the aggregate over
    // the view under `post = pre`. The ψ/Y decomposition is the shared
    // what-if one, so the baseline can never diverge from candidate
    // evaluation.
    use hyper_storage::AggFunc;

    let schema = view.table.schema().clone();
    let (pre_conj, post_conj) = match for_clause {
        Some(fc) => crate::hexpr::split_pre_post(fc, Temporal::Pre),
        None => (Vec::new(), Vec::new()),
    };
    let pre = crate::hexpr::conjoin(&pre_conj)
        .map(|e| bind_hexpr(&e, &schema, Temporal::Pre))
        .transpose()?;
    let (psi_expr, y_expr) = crate::whatif::output_decomposition(output, &post_conj)?;
    let psi = psi_expr
        .as_ref()
        .map(|e| bind_hexpr(e, &schema, Temporal::Post))
        .transpose()?;
    let y = y_expr
        .as_ref()
        .map(|e| bind_hexpr(e, &schema, Temporal::Post))
        .transpose()?;

    let table = &view.table;
    let mut total = 0.0;
    let mut count = 0.0;
    for i in 0..table.num_rows() {
        if let Some(p) = &pre {
            if !p.eval_bool_at(table, table, i)? {
                continue;
            }
        }
        let sat = match &psi {
            Some(p) => p.eval_bool_at(table, table, i)?,
            None => true,
        };
        if !sat {
            continue;
        }
        count += 1.0;
        total += match &y {
            Some(yv) => yv
                .eval_at(table, table, i)?
                .as_f64()
                .ok_or_else(|| EngineError::Plan("objective attribute is not numeric".into()))?,
            None => 1.0,
        };
    }
    Ok(match output.agg {
        AggFunc::Avg => {
            if count == 0.0 {
                0.0
            } else {
                total / count
            }
        }
        _ => total,
    })
}

/// Solve a how-to query with the IP formulation (uncached single-shot
/// path; sessions share their artifact cache across the candidate
/// what-if evaluations via `evaluate_howto_cached`).
pub fn evaluate_howto(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &HowToQuery,
    opts: &HowToOptions,
) -> Result<HowToResult> {
    evaluate_howto_cached(db, graph, config, q, opts, None, HyperRuntime::global())
}

/// Solve a how-to query with the IP formulation, optionally resolving
/// views and estimators through a session's artifact cache; candidate
/// what-ifs fan out over `runtime`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_howto_cached(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &HowToQuery,
    opts: &HowToOptions,
    cache: Option<&ArtifactCache>,
    runtime: &HyperRuntime,
) -> Result<HowToResult> {
    let started = Instant::now();
    let ctx = HowToContext::prepare(db, graph, config, q, opts, cache, runtime)?;

    // Build the IP (Eqs. 7–9).
    let maximize = q.objective.direction == ObjectiveDirection::Maximize;
    let mut model = if maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let mut var_map: Vec<Vec<usize>> = Vec::with_capacity(ctx.candidates.len());
    for (i, cands) in ctx.candidates.iter().enumerate() {
        let mut vars = Vec::with_capacity(cands.len());
        for (j, c) in cands.iter().enumerate() {
            let delta = ctx.values[i][j] - ctx.baseline;
            vars.push(model.add_binary(format!("d_{}_{j}", c.attr), delta));
        }
        var_map.push(vars);
    }
    if model.variables.is_empty() {
        return Err(EngineError::Plan(
            "no feasible candidate updates under the Limit constraints".into(),
        ));
    }
    for (i, vars) in var_map.iter().enumerate() {
        if vars.is_empty() {
            continue;
        }
        model
            .add_constraint(
                format!("one_per_attr_{i}"),
                vars.iter().map(|&v| (v, 1.0)).collect(),
                Sense::Le,
                1.0,
            )
            .map_err(EngineError::from)?;
    }
    if let Some(budget) = opts.max_attrs_updated {
        let coefs: Vec<(usize, f64)> = var_map.iter().flatten().map(|&v| (v, 1.0)).collect();
        model
            .add_constraint("attr_budget", coefs, Sense::Le, budget as f64)
            .map_err(EngineError::from)?;
    }

    let solution = solve_ilp(&model).map_err(EngineError::from)?;

    // Direction sanity: for maximization a no-update solution (all δ = 0,
    // objective 0) is always feasible, so the solver can only improve on
    // the baseline; symmetric for minimization.
    debug_assert!(
        (maximize && model.direction == Direction::Maximize)
            || (!maximize && model.direction == Direction::Minimize)
    );

    let mut chosen = Vec::new();
    for (i, vars) in var_map.iter().enumerate() {
        for (j, &v) in vars.iter().enumerate() {
            if solution.values[v] > 0.5 {
                let c = &ctx.candidates[i][j];
                chosen.push(UpdateSpec {
                    attr: c.attr.clone(),
                    func: c.func.clone(),
                });
            }
        }
    }

    // The IP objective is the *linearized* (additive-effects) prediction;
    // report the joint what-if value of the chosen combination instead, so
    // the result is directly comparable to Opt-HowTo.
    let mut whatif_evals = ctx.whatif_evals;
    let objective = if chosen.is_empty() {
        ctx.baseline
    } else {
        let wq = candidate_whatif(&ctx.whatif_template, chosen.clone())?;
        whatif_evals += 1;
        evaluate_whatif_maybe_cached(db, graph, config, &wq, cache, runtime)?.value
    };

    Ok(HowToResult {
        chosen,
        objective,
        baseline: ctx.baseline,
        candidates: ctx.candidates.iter().map(Vec::len).sum(),
        whatif_evals,
        elapsed: started.elapsed(),
    })
}
