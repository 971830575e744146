//! The IP-based how-to optimizer (§4.3).
//!
//! One binary δ per candidate update value; `Σ_j δ_ij ≤ 1` per attribute;
//! `Σ δ ≤ 1` over the candidates of each causally connected attribute pair
//! (§3.1: connected attributes cannot be updated together); optional
//! budget on the number of updated attributes; objective coefficients are
//! the (linearized) what-if effects of each candidate.

use std::time::Instant;

use hyper_causal::CausalGraph;
use hyper_ip::{solve_ilp, Direction, Model, Sense};
use hyper_query::{
    validate_howto, HExpr, HowToQuery, ObjectiveDirection, OutputArg, OutputSpec, Temporal,
    UpdateFunc, UpdateSpec, WhatIf, WhatIfQuery,
};
use hyper_runtime::HyperRuntime;
use hyper_storage::Database;

use std::collections::HashMap;

use crate::config::{EngineConfig, HowToOptions};
use crate::error::{EngineError, Result};
use crate::hexpr::{bind_hexpr, resolve_column};
use crate::howto::candidates::{generate_candidates, Candidate};
use crate::howto::HowToResult;
use crate::session::cache::ArtifactCache;
use crate::view::RelevantView;
use crate::whatif::{
    connected_pairs, evaluate_candidates, evaluate_whatif, plan_whatif, WhatIfQueryPlan,
};

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
    /// Attribute pairs `(i, j)`, `i < j`, joined by a causal path: no
    /// solution may update both.
    pub connected: Vec<(usize, usize)>,
}

/// Build the Definition-7 candidate what-if query for a set of updates.
pub(crate) fn candidate_whatif(template: &WhatIf, updates: Vec<UpdateSpec>) -> Result<WhatIfQuery> {
    Ok(template.clone().updates(updates).build()?)
}

impl HowToContext {
    pub(crate) fn prepare(
        db: &Database,
        graph: Option<&CausalGraph>,
        config: &EngineConfig,
        q: &HowToQuery,
        opts: &HowToOptions,
        cache: &ArtifactCache,
        runtime: &HyperRuntime,
    ) -> Result<HowToContext> {
        // Every candidate what-if shares this view, and so does every other
        // query of the session over the same `Use` clause.
        let (view, view_key) = cache.view(db, &q.use_clause)?;
        let cols = view.column_names();
        validate_howto(q, Some(&cols))?;
        let schema = view.table.schema();

        // When mask for candidate costing (typed-column scan, no row
        // materialization); without a When clause, S is every row.
        let when_mask = q
            .when
            .as_ref()
            .map(|w| bind_hexpr(w, schema, Temporal::Pre)?.eval_mask(&view.table))
            .transpose()?;

        let candidates = generate_candidates(&view, when_mask.as_deref(), q, opts.buckets)?;
        let connected = match graph {
            Some(g) => {
                let cols = (q.update_attrs.iter())
                    .map(|a| resolve_column(schema, a))
                    .collect::<Result<Vec<_>>>()?;
                connected_pairs(&view, g, &cols)
            }
            None => Vec::new(),
        };

        let (whatif_template, baseline) = template_and_baseline(q, &view)?;

        // Plan one what-if per attribute. Validation, ψ/Y binding, the
        // backdoor search and the estimator key depend on the attribute,
        // never on the candidate's value, so every candidate evaluates a
        // copy of its attribute's plan holding its own update function. A
        // plan that fails is reported in place of each of its candidates.
        let mut attr_plans: Vec<Option<Result<WhatIfQueryPlan>>> =
            Vec::with_capacity(candidates.len());
        for cands in &candidates {
            attr_plans.push(match cands.first() {
                None => None,
                Some(c) => {
                    let wq = candidate_whatif(
                        &whatif_template,
                        vec![UpdateSpec {
                            attr: c.attr.clone(),
                            func: c.func.clone(),
                        }],
                    )?;
                    let plan = plan_whatif(db, graph, config, &wq, &view, view_key.as_str());
                    Some(plan)
                }
            });
        }

        // All candidates of one attribute share one fitted estimator (it is
        // keyed on the feature set, not the value), and attributes whose
        // adjustment sets complete the same feature set share it too — on
        // German-Syn every attribute of a how-to does. So the attributes
        // are grouped by estimator key and each group is evaluated in one
        // batch (`evaluate_candidates`): its estimator is fitted once, on
        // the caller with the whole pool under its trees, and every
        // candidate of the group is predicted in one pass. Each value is
        // `to_bits`-equal to evaluating its candidate alone, and the first
        // error in (attribute, candidate) order is returned.
        let funcs: Vec<Vec<UpdateFunc>> = (candidates.iter())
            .map(|cands| cands.iter().map(|c| c.func.clone()).collect())
            .collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of_key: HashMap<&str, usize> = HashMap::new();
        let mut results: Vec<Vec<Result<f64>>> = candidates.iter().map(|_| Vec::new()).collect();
        for (i, planned) in attr_plans.iter().enumerate() {
            match planned {
                None => {}
                Some(Err(e)) => results[i] = funcs[i].iter().map(|_| Err(e.clone())).collect(),
                Some(Ok(plan)) => match plan.estimator_key.as_deref() {
                    Some(key) => {
                        let g = *group_of_key.entry(key).or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        });
                        groups[g].push(i);
                    }
                    None => groups.push(vec![i]),
                },
            }
        }
        for group in &groups {
            let attrs: Vec<(&WhatIfQueryPlan, &[UpdateFunc])> = (group.iter())
                .map(|&i| match &attr_plans[i] {
                    Some(Ok(plan)) => (plan, funcs[i].as_slice()),
                    _ => unreachable!("only planned attributes are grouped"),
                })
                .collect();
            let batch = evaluate_candidates(config, &view, &attrs, cache, runtime);
            for (&i, values) in group.iter().zip(batch) {
                results[i] = values;
            }
        }
        let values = (results.into_iter())
            .map(|values| values.into_iter().collect::<Result<Vec<f64>>>())
            .collect::<Result<Vec<_>>>()?;
        // Logical evaluations, one per candidate, however they were batched.
        let whatif_evals = funcs.iter().map(Vec::len).sum();

        Ok(HowToContext {
            candidates,
            baseline,
            whatif_template,
            whatif_evals,
            values,
            connected,
        })
    }

    /// Add `Σ δ ≤ 1` over the candidates of each connected attribute pair
    /// to `model`, whose variables for attribute `i` are `var_map[i]`.
    pub(crate) fn exclude_connected(
        &self,
        model: &mut Model,
        var_map: &[Vec<usize>],
    ) -> Result<()> {
        for &(i, j) in &self.connected {
            let coefs: Vec<(usize, f64)> = var_map[i]
                .iter()
                .chain(&var_map[j])
                .map(|&v| (v, 1.0))
                .collect();
            if !coefs.is_empty() {
                model
                    .add_constraint(format!("connected_{i}_{j}"), coefs, Sense::Le, 1.0)
                    .map_err(EngineError::from)?;
            }
        }
        Ok(())
    }

    /// Does the combination updating the attributes where `updated[i]`
    /// holds update a connected pair?
    pub(crate) fn updates_connected(&self, updated: impl Fn(usize) -> bool) -> bool {
        self.connected
            .iter()
            .any(|&(i, j)| updated(i) && updated(j))
    }
}

/// The Definition-7 what-if template of `q` and its baseline: the
/// objective with no update.
pub(crate) fn template_and_baseline(q: &HowToQuery, view: &RelevantView) -> Result<(WhatIf, f64)> {
    // The template: same Use/When/For, Output from the objective. A
    // predicate objective (`Count(Post(credit) = 'Good')`) becomes a
    // boolean output expression. Kept as a typed [`WhatIf`] builder so
    // each candidate's query is assembled — and re-validated — through
    // the same path API callers use. An objective constant still carrying
    // a `Param(…)` placeholder cannot be evaluated — templates must be
    // resolved through `Bindings` (e.g. `PreparedQuery::execute_with`)
    // first.
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
            HExpr::binary(
                *op,
                HExpr::post(q.objective.attr.clone()),
                HExpr::Lit(value),
            )
        }
        None => HExpr::post(q.objective.attr.clone()),
    };
    let output_spec = OutputSpec {
        agg: q.objective.agg,
        arg: OutputArg::Expr(output_expr),
    };
    let template = WhatIf::over_clause(q.use_clause.clone())
        .maybe_when(q.when.clone())
        .output(output_spec.agg, output_spec.arg.clone())
        .maybe_filter(q.for_clause.clone());

    // Evaluated deterministically over the already-materialized view.
    let baseline = evaluate_identity_objective(view, &q.for_clause, &output_spec)?;
    Ok((template, baseline))
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

    // Column at a time, each expression over the rows the previous ones
    // keep (ψ over the `For` scope, Y over the ψ rows), so no expression
    // is evaluated, or can fail, on a row the aggregate skips. `None`
    // stands for every row.
    let table = &view.table;
    let mut rows: Option<Vec<usize>> = None;
    for p in [&pre, &psi].into_iter().flatten() {
        let mask = p.eval_mask_rows(table, rows.as_deref())?;
        let kept = (0..mask.len())
            .filter(|&k| mask[k])
            .map(|k| rows.as_ref().map_or(k, |r| r[k]))
            .collect();
        rows = Some(kept);
    }
    let n = rows.as_ref().map_or(table.num_rows(), Vec::len);
    let values = y
        .as_ref()
        .map(|yv| yv.eval_numbers(table, rows.as_deref()))
        .transpose()?;
    let mut total = 0.0;
    let mut count = 0.0;
    for k in 0..n {
        count += 1.0;
        total += match &values {
            Some(v) => {
                v[k].ok_or_else(|| EngineError::Plan("objective attribute is not numeric".into()))?
            }
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

/// Solve a how-to query with the IP formulation, resolving views and
/// estimators through a session's artifact cache; candidate what-ifs fan
/// out over `runtime`.
pub(crate) fn evaluate_howto(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &HowToQuery,
    opts: &HowToOptions,
    cache: &ArtifactCache,
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
    ctx.exclude_connected(&mut model, &var_map)?;
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
        evaluate_whatif(db, graph, config, &wq, cache, runtime)?.value
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
