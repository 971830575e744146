//! Probabilistic what-if query evaluation (paper §3).
//!
//! The semantics (Definition 5) is an expectation over possible worlds
//! weighted by the post-update distribution. The evaluator here follows the
//! paper's computation strategy (§3.3):
//!
//! 1. build the relevant view (`Use`),
//! 2. select the update set `S` (`When`) on pre-update values,
//! 3. split `For` into pre and post conjuncts (§A.2.1),
//! 4. reduce post-update probabilities to pre-update conditionals through
//!    the backdoor criterion (Eq. 1, Eqs. 35–40) and estimate them with a
//!    regression model trained on `D`,
//! 5. sum per-tuple contributions — iterating only over value combinations
//!    with support (§3.3's index optimization).

pub mod estimator;
pub mod exact;
pub(crate) mod exact_sum;
pub(crate) mod support;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyper_causal::CausalGraph;
use hyper_query::{validate_whatif, HExpr, OutputArg, Temporal, UpdateFunc, WhatIfQuery};
use hyper_runtime::HyperRuntime;
use hyper_storage::{AggFunc, Database, Value};

use crate::config::{BackdoorMode, EngineConfig};
use crate::error::{EngineError, Result};
use crate::hexpr::{bind_hexpr, conjoin, resolve_column, split_pre_post, BoundHExpr};
use crate::session::cache::ArtifactCache;
use crate::view::RelevantView;

use estimator::{feature_set, CausalEstimator, EstimatorSpec, PeerSummary};
use exact_sum::ExactSum;

/// Result of a what-if query.
#[derive(Debug, Clone)]
pub struct WhatIfResult {
    /// The expected value of the output aggregate (Definition 5).
    pub value: f64,
    /// Rows in the relevant view.
    pub n_view_rows: usize,
    /// Rows satisfying the pre-update `For` conditions.
    pub n_scope_rows: usize,
    /// Rows in the update set `S` (satisfying `When`).
    pub n_updated_rows: usize,
    /// View columns used as the backdoor adjustment set.
    pub backdoor: Vec<String>,
    /// Rows the estimator was trained on (≤ view rows under sampling).
    pub trained_rows: usize,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
}

/// Apply an update function to a pre-update value.
pub fn apply_update(func: &UpdateFunc, pre: &Value) -> Result<Value> {
    match func {
        UpdateFunc::Set(v) => Ok(v.clone()),
        UpdateFunc::Scale(c) => {
            let x = pre.as_f64().ok_or_else(|| {
                EngineError::Plan(format!("cannot scale non-numeric value {pre}"))
            })?;
            Ok(Value::Float(x * c))
        }
        UpdateFunc::Shift(c) => {
            let x = pre.as_f64().ok_or_else(|| {
                EngineError::Plan(format!("cannot shift non-numeric value {pre}"))
            })?;
            Ok(Value::Float(x + c))
        }
        UpdateFunc::Param { name, .. } => Err(EngineError::Query(format!(
            "unresolved parameter `Param({name})` in Update; bind it before evaluation"
        ))),
    }
}

/// Error out early (with the offending name) when a query still carries
/// unresolved `Param(…)` placeholders.
fn reject_unresolved_params(q: &WhatIfQuery) -> Result<()> {
    let names = q.param_names();
    if names.is_empty() {
        Ok(())
    } else {
        Err(EngineError::Query(format!(
            "query has {} unresolved parameter(s) [{}]; supply Bindings \
             (e.g. PreparedQuery::execute_with) before evaluation",
            names.len(),
            names.join(", ")
        )))
    }
}

/// Decompose the `Output` operator into ψ (the post-world predicate) and Y
/// (the post-world value expression) per §3.3/§A.2.1, folding the post
/// conjuncts of the `For` clause into ψ. Shared by evaluation, by
/// [`plan_whatif`] (which backs `HyperSession::explain`), and by the
/// how-to optimizer's identity-objective baseline.
pub(crate) fn output_decomposition(
    output: &hyper_query::OutputSpec,
    post_conj: &[HExpr],
) -> Result<(Option<HExpr>, Option<HExpr>)> {
    match (&output.agg, &output.arg) {
        (AggFunc::Count, OutputArg::Star) => Ok((conjoin(post_conj), None)),
        (AggFunc::Count, OutputArg::Expr(e)) => {
            let mut parts = post_conj.to_vec();
            parts.insert(0, e.clone());
            Ok((conjoin(&parts), None))
        }
        (AggFunc::Sum | AggFunc::Avg, OutputArg::Expr(e)) => {
            Ok((conjoin(post_conj), Some(e.clone())))
        }
        (agg, OutputArg::Star) => Err(EngineError::Unsupported(format!(
            "{agg}(*) is not a valid Output"
        ))),
        (agg, _) => Err(EngineError::Unsupported(format!(
            "aggregate {agg} is not supported in Output (Count/Sum/Avg only)"
        ))),
    }
}

/// The static plan of a what-if query over an already-resolved view:
/// everything `HyperSession::explain` reports without executing — update
/// columns, whether the deterministic fast path applies, the chosen
/// adjustment set, and the estimator cache key — plus the bound
/// expressions evaluation needs. Evaluation ([`evaluate_planned`]) runs
/// from this plan alone, so `explain` and execution cannot disagree about
/// which estimator a query uses, and a prepared query plans once.
#[derive(Debug, Clone)]
pub(crate) struct WhatIfQueryPlan {
    /// Chosen backdoor adjustment columns (names, view schema order).
    pub backdoor: Vec<String>,
    /// The estimator cache key; `None` when every post reference is an
    /// updated attribute (the deterministic fast path: no estimator is
    /// trained).
    pub estimator_key: Option<String>,
    /// Resolved updates, in update order.
    updates: Vec<(usize, UpdateFunc)>,
    /// The bound `When` predicate (the update set `S`), if any.
    when: Option<BoundHExpr>,
    /// The bound `For` pre-conjuncts (the scope), if any.
    scope: Option<BoundHExpr>,
    /// The output aggregate.
    agg: AggFunc,
    /// ψ (post-world predicate) and Y (post value), shared (not
    /// deep-cloned) with the estimator fitted from this plan.
    psi: Option<Arc<BoundHExpr>>,
    y: Option<Arc<BoundHExpr>>,
    /// Backdoor adjustment columns (view schema order).
    backdoor_cols: Vec<usize>,
    /// The cross-tuple peer summary the estimator carries, if any.
    peer: Option<PeerSummary>,
}

impl WhatIfQueryPlan {
    /// This plan of a single-attribute update, with the update's function
    /// replaced by `func`. Nothing else in a plan depends on the function
    /// (the estimator is keyed on its feature set, and the update is
    /// applied at evaluation), so a how-to plans each attribute once and
    /// evaluates every candidate value from a copy.
    pub(crate) fn with_func(&self, func: UpdateFunc) -> WhatIfQueryPlan {
        debug_assert_eq!(self.updates.len(), 1, "a single-attribute plan");
        let mut plan = self.clone();
        plan.updates[0].1 = func;
        plan
    }
}

/// Compute the static plan of `q` over `view` (no masks, no training).
pub(crate) fn plan_whatif(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &WhatIfQuery,
    view: &RelevantView,
    view_key: &str,
) -> Result<WhatIfQueryPlan> {
    let _span = hyper_trace::span(hyper_trace::Phase::Plan);
    reject_unresolved_params(q)?;
    let cols = view.column_names();
    validate_whatif(q, Some(&cols))?;
    let schema = view.table.schema().clone();

    let mut updates: Vec<(usize, UpdateFunc)> = Vec::with_capacity(q.updates.len());
    for u in &q.updates {
        updates.push((resolve_column(&schema, &u.attr)?, u.func.clone()));
    }
    check_multi_update_validity(view, graph, &updates)?;

    let (pre_conj, post_conj) = match &q.for_clause {
        Some(fc) => split_pre_post(fc, Temporal::Pre),
        None => (Vec::new(), Vec::new()),
    };
    let when = q
        .when
        .as_ref()
        .map(|w| bind_hexpr(w, &schema, Temporal::Pre))
        .transpose()?;
    let scope = conjoin(&pre_conj)
        .map(|e| bind_hexpr(&e, &schema, Temporal::Pre))
        .transpose()?;
    let (psi_expr, y_expr) = output_decomposition(&q.output, &post_conj)?;
    let bind_post = |e: &Option<HExpr>| {
        e.as_ref()
            .map(|e| bind_hexpr(e, &schema, Temporal::Post).map(Arc::new))
            .transpose()
    };
    let psi = bind_post(&psi_expr)?;
    let y = bind_post(&y_expr)?;

    let post_cols: HashSet<usize> = psi
        .iter()
        .flat_map(|e| e.post_columns())
        .chain(y.iter().flat_map(|e| e.post_columns()))
        .collect();
    let update_col_set: HashSet<usize> = updates.iter().map(|(c, _)| *c).collect();
    let needs_estimation = post_cols.iter().any(|c| !update_col_set.contains(c));
    let mut plan = WhatIfQueryPlan {
        backdoor: Vec::new(),
        estimator_key: None,
        updates,
        when,
        scope,
        agg: q.output.agg,
        psi,
        y,
        backdoor_cols: Vec::new(),
        peer: None,
    };
    if !needs_estimation {
        return Ok(plan);
    }

    // `For` pre-conditions add conditioning features (§5.5: "adding
    // conditions involving Pre values … increases the number of attributes
    // used to train the regressor"); attributes already in the backdoor set
    // are deduplicated, which is why the paper observes *faster* evaluation
    // when the added attribute was in the backdoor set.
    let for_pre_cols: HashSet<usize> = plan.scope.iter().flat_map(|e| e.pre_columns()).collect();
    plan.backdoor_cols = select_backdoor_columns(
        db,
        view,
        graph,
        config,
        &plan.updates,
        &post_cols,
        &for_pre_cols,
    )?;
    let update_cols = column_indices(&plan.updates);
    // Optional cross-tuple peer summary (ψ of §2.2).
    plan.peer = if config.peer_summaries {
        PeerSummary::detect(view, graph, &update_cols)?
    } else {
        None
    };
    plan.estimator_key = Some(ArtifactCache::estimator_key(
        view_key,
        &feature_set(&update_cols, &plan.backdoor_cols),
        &update_cols,
        plan.peer.as_ref(),
        q,
        config,
    ));
    plan.backdoor = plan
        .backdoor_cols
        .iter()
        .map(|&c| schema.field(c).name.clone())
        .collect();
    Ok(plan)
}

/// Evaluate a what-if query, resolving the relevant view and the fitted
/// estimator through a session's artifact cache.
pub(crate) fn evaluate_whatif(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &WhatIfQuery,
    cache: &ArtifactCache,
    runtime: &HyperRuntime,
) -> Result<WhatIfResult> {
    let (view, view_key) = cache.view(db, &q.use_clause)?;
    evaluate_whatif_on_view(
        db,
        graph,
        config,
        q,
        &view,
        view_key.as_str(),
        cache,
        runtime,
    )
}

/// Core what-if evaluation over an already-resolved relevant view
/// (§3.3 steps 2–5): [`plan_whatif`], then [`evaluate_planned`].
/// `view_key` is the cache key of `view`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_whatif_on_view(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &WhatIfQuery,
    view: &Arc<RelevantView>,
    view_key: &str,
    cache: &ArtifactCache,
    runtime: &HyperRuntime,
) -> Result<WhatIfResult> {
    let started = Instant::now();
    let plan = plan_whatif(db, graph, config, q, view, view_key)?;
    let mut result = evaluate_planned(config, view, &plan, cache, runtime)?;
    result.elapsed = started.elapsed();
    Ok(result)
}

/// Evaluate a what-if over `view` from its plan (built by [`plan_whatif`]
/// over the same view). The fitted estimator is fetched from / inserted
/// into `cache` under the plan's estimator key.
pub(crate) fn evaluate_planned(
    config: &EngineConfig,
    view: &Arc<RelevantView>,
    plan: &WhatIfQueryPlan,
    cache: &ArtifactCache,
    runtime: &HyperRuntime,
) -> Result<WhatIfResult> {
    let started = Instant::now();
    let n = view.table.num_rows();
    let (when_mask, scope_mask) = plan_masks(view, plan)?;
    let rows_in = |mask: &Option<Vec<bool>>| {
        mask.as_ref()
            .map_or(n, |m| m.iter().filter(|&&b| b).count())
    };
    let n_scope = rows_in(&scope_mask);
    let n_updated = rows_in(&when_mask);

    let Some(key) = &plan.estimator_key else {
        // Fast path: post values are fully determined by the update
        // functions, so there is nothing probabilistic to estimate.
        let value = deterministic_eval(
            view,
            &plan.updates,
            when_mask.as_deref(),
            scope_mask.as_deref(),
            &plan.psi,
            &plan.y,
            plan.agg,
        )?;
        return Ok(WhatIfResult {
            value,
            n_view_rows: n,
            n_scope_rows: n_scope,
            n_updated_rows: n_updated,
            backdoor: Vec::new(),
            trained_rows: 0,
            elapsed: started.elapsed(),
        });
    };
    let est = plan_estimator(config, view, plan, key, cache, runtime)?;
    let value = est.evaluate(
        view,
        &plan.updates,
        when_mask.as_deref(),
        scope_mask.as_deref(),
    )?;

    Ok(WhatIfResult {
        value,
        n_view_rows: n,
        n_scope_rows: n_scope,
        n_updated_rows: n_updated,
        backdoor: plan.backdoor.clone(),
        trained_rows: est.trained_rows(),
        elapsed: started.elapsed(),
    })
}

/// The `When` (update set) and `For`-pre (scope) masks of a plan; `None`
/// holds on every row.
type Masks = (Option<Vec<bool>>, Option<Vec<bool>>);

/// The `When` (update set) and `For`-pre (scope) masks of `plan` over
/// `view`; an absent clause holds on every row and builds none (and opens
/// no span, so an unmasked execution records no planning).
fn plan_masks(view: &RelevantView, plan: &WhatIfQueryPlan) -> Result<Masks> {
    if plan.when.is_none() && plan.scope.is_none() {
        return Ok((None, None));
    }
    let _span = hyper_trace::span(hyper_trace::Phase::Plan);
    let mask = |e: &Option<BoundHExpr>| e.as_ref().map(|e| e.eval_mask(&view.table)).transpose();
    Ok((mask(&plan.when)?, mask(&plan.scope)?))
}

/// The fitted estimator of `plan`, under its estimator key `key`.
///
/// The fitted model depends on the feature set, never on the update
/// functions (Eqs. 35–40): those are applied at evaluation. Fitted
/// estimators are cached under the plan's key (view, feature set, output,
/// `For`, estimator config): a repeated prepared query — or any query over
/// the same feature set with other updates — skips training entirely. The
/// `fits_view` vet applies to disk-recovered estimators (untrusted bytes
/// whose indices the context-free decoder cannot range-check); a failing
/// artifact is a plain miss and the fit runs.
fn plan_estimator(
    config: &EngineConfig,
    view: &Arc<RelevantView>,
    plan: &WhatIfQueryPlan,
    key: &str,
    cache: &ArtifactCache,
    runtime: &HyperRuntime,
) -> Result<Arc<CausalEstimator>> {
    let fit = || {
        let update_cols = column_indices(&plan.updates);
        let spec = EstimatorSpec {
            update_cols: &update_cols,
            backdoor_cols: &plan.backdoor_cols,
            peer: plan.peer.clone(),
            sample_cap: config.sample_cap,
            n_trees: config.n_trees,
            max_depth: config.max_depth,
            seed: config.seed,
            kind: config.estimator,
            runtime,
        };
        CausalEstimator::fit(view, &spec, &plan.psi, &plan.y, plan.agg)
    };
    cache.estimator(key, |e| e.fits_view(view), fit)
}

/// The values of single-attribute candidate updates: for each `(plan,
/// functions)` of `attrs`, the value of the plan with each function in
/// place of its update's, `to_bits`-equal to [`evaluate_planned`] of that
/// candidate alone (errors included).
///
/// The plans must come from one template (the same `Use`, `When`, `For`
/// and output over `view`) and share one estimator key, as a how-to's
/// attributes whose adjustment sets complete the same feature set do. The
/// masks are then evaluated and the estimator resolved once, and
/// [`CausalEstimator::evaluate_candidates`] evaluates every candidate in
/// one batch. Plans without an estimator (the deterministic fast path)
/// evaluate one candidate at a time.
pub(crate) fn evaluate_candidates(
    config: &EngineConfig,
    view: &Arc<RelevantView>,
    attrs: &[(&WhatIfQueryPlan, &[UpdateFunc])],
    cache: &ArtifactCache,
    runtime: &HyperRuntime,
) -> Vec<Vec<Result<f64>>> {
    let Some(&(plan, _)) = attrs.first() else {
        return Vec::new();
    };
    let Some(key) = &plan.estimator_key else {
        let one = |p: &WhatIfQueryPlan, f: &UpdateFunc| {
            evaluate_planned(config, view, &p.with_func(f.clone()), cache, runtime).map(|r| r.value)
        };
        return (attrs.iter())
            .map(|&(p, funcs)| funcs.iter().map(|f| one(p, f)).collect())
            .collect();
    };
    debug_assert!(attrs
        .iter()
        .all(|(p, _)| p.estimator_key == plan.estimator_key));
    let resolved = plan_masks(view, plan).and_then(|masks| {
        let est = plan_estimator(config, view, plan, key, cache, runtime)?;
        Ok((masks, est))
    });
    match resolved {
        Ok(((when, scope), est)) => {
            let cols: Vec<(usize, &[UpdateFunc])> = (attrs.iter())
                .map(|&(p, funcs)| (p.updates[0].0, funcs))
                .collect();
            est.evaluate_candidates(view, &cols, when.as_deref(), scope.as_deref())
        }
        Err(e) => (attrs.iter())
            .map(|(_, funcs)| funcs.iter().map(|_| Err(e.clone())).collect())
            .collect(),
    }
}

/// Evaluate when every post reference is an updated attribute: post values
/// are deterministic functions of pre values. Post values for the updated
/// columns are materialized once per column (scoped `When` rows only);
/// everything else reads the typed view columns in place — no per-row
/// `Row` clones. Sums are exact ([`ExactSum`]) and counts are integers,
/// so the value does not depend on row order, like an estimated one.
fn deterministic_eval(
    view: &RelevantView,
    update_cols: &[(usize, UpdateFunc)],
    when: Option<&[bool]>,
    scope: Option<&[bool]>,
    psi: &Option<Arc<BoundHExpr>>,
    y: &Option<Arc<BoundHExpr>>,
    agg: AggFunc,
) -> Result<f64> {
    let table = &view.table;
    let n = table.num_rows();
    // Post values of each updated column; `None` where post = pre.
    let mut post_vals: Vec<(usize, Vec<Option<Value>>)> = Vec::with_capacity(update_cols.len());
    for (c, f) in update_cols {
        let src = table.column(*c);
        let mut vals: Vec<Option<Value>> = vec![None; n];
        for (i, slot) in vals.iter_mut().enumerate() {
            if holds(scope, i) && holds(when, i) {
                *slot = Some(apply_update(f, &src.value(i))?);
            }
        }
        post_vals.push((*c, vals));
    }
    let post_at = |i: usize, c: usize| -> Value {
        for (uc, vals) in &post_vals {
            if *uc == c {
                if let Some(v) = &vals[i] {
                    return v.clone();
                }
            }
        }
        table.column(c).value(i)
    };

    let mut total = ExactSum::default();
    let mut satisfied = 0u64;
    for i in (0..n).filter(|&i| holds(scope, i)) {
        let mut get = |t: Temporal, c: usize| match t {
            Temporal::Pre => table.column(c).value(i),
            Temporal::Post => post_at(i, c),
        };
        let sat = match psi {
            Some(p) => match p.eval_with(&mut get)? {
                Value::Bool(b) => b,
                Value::Null => false,
                v => {
                    return Err(EngineError::Plan(format!(
                        "predicate evaluated to non-boolean {v}"
                    )))
                }
            },
            None => true,
        };
        if !sat {
            continue;
        }
        satisfied += 1;
        match (agg, y) {
            (AggFunc::Count, _) => {}
            (_, Some(yv)) => {
                total.add(
                    yv.eval_with(&mut get)?.as_f64().ok_or_else(|| {
                        EngineError::Plan("Output expression is not numeric".into())
                    })?,
                );
            }
            _ => unreachable!("validated in caller"),
        }
    }
    Ok(match agg {
        AggFunc::Count => satisfied as f64,
        AggFunc::Avg if satisfied == 0 => 0.0,
        AggFunc::Avg => total.round() / satisfied as f64,
        _ => total.round(),
    })
}

/// `mask[i]`, where an absent mask holds on every row.
#[inline]
pub(crate) fn holds(mask: Option<&[bool]>, i: usize) -> bool {
    mask.is_none_or(|m| m[i])
}

/// The column indices of resolved updates, in update order.
fn column_indices(update_cols: &[(usize, UpdateFunc)]) -> Vec<usize> {
    update_cols.iter().map(|(c, _)| *c).collect()
}

/// Reject multi-updates whose attributes are causally connected (§3.1:
/// "provided there are no paths from any Bi[t] to any Bj[t']").
fn check_multi_update_validity(
    view: &RelevantView,
    graph: Option<&CausalGraph>,
    update_cols: &[(usize, UpdateFunc)],
) -> Result<()> {
    if update_cols.len() < 2 {
        return Ok(());
    }
    let Some(g) = graph else { return Ok(()) };
    let cols = column_indices(update_cols);
    match connected_pairs(view, g, &cols).first() {
        None => Ok(()),
        Some(&(i, j)) => {
            let node = |k: usize| {
                let o = &view.origins[cols[k]];
                g.node_info(
                    g.node_id(&o.relation, &o.attribute)
                        .expect("a connected node"),
                )
            };
            Err(EngineError::Unsupported(format!(
                "updated attributes `{}` and `{}` are causally connected; \
                 multi-attribute updates require independent attributes",
                node(i),
                node(j)
            )))
        }
    }
}

/// The pairs `(i, j)`, `i < j`, of view columns `cols` whose graph nodes
/// are causally connected: a directed path runs from one to the other.
/// Such a pair cannot be updated together (§3.1); a column with no graph
/// node connects to nothing.
pub(crate) fn connected_pairs(
    view: &RelevantView,
    graph: &CausalGraph,
    cols: &[usize],
) -> Vec<(usize, usize)> {
    let nodes: Vec<Option<usize>> = cols
        .iter()
        .map(|&c| {
            let o = &view.origins[c];
            graph.node_id(&o.relation, &o.attribute).ok()
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            if let (Some(a), Some(b)) = (nodes[i], nodes[j]) {
                if graph.has_path(a, b) || graph.has_path(b, a) {
                    pairs.push((i, j));
                }
            }
        }
    }
    pairs
}

/// Choose the adjustment columns per the configured [`BackdoorMode`],
/// augmented with `For` pre-condition attributes (except under `Indep`,
/// which the paper describes as not using additional attributes).
#[allow(clippy::too_many_arguments)]
fn select_backdoor_columns(
    db: &Database,
    view: &RelevantView,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    update_cols: &[(usize, UpdateFunc)],
    post_cols: &HashSet<usize>,
    for_pre_cols: &HashSet<usize>,
) -> Result<Vec<usize>> {
    let schema = view.table.schema();
    let update_set: HashSet<usize> = update_cols.iter().map(|(c, _)| *c).collect();

    // Columns that are primary keys of their source relation are never
    // conditioning features.
    let is_key = |c: usize| -> bool {
        let o = &view.origins[c];
        if o.aggregated.is_some() {
            return false;
        }
        db.table(&o.relation).ok().is_some_and(|t| {
            t.primary_key()
                .iter()
                .any(|&k| t.schema().field(k).name == o.attribute)
        })
    };

    // Descendants of updated attributes must never be conditioned on (they
    // would block the effect being measured); computable only with a graph.
    let descendant_cols: HashSet<usize> = match graph {
        Some(g) => {
            let mut out = HashSet::new();
            for &(bc, _) in update_cols {
                let bo = &view.origins[bc];
                if let Ok(b_node) = g.node_id(&bo.relation, &bo.attribute) {
                    for d in g.descendants(b_node) {
                        let info = g.node_info(d);
                        for (c, o) in view.origins.iter().enumerate() {
                            if o.relation == info.relation && o.attribute == info.attribute {
                                out.insert(c);
                            }
                        }
                    }
                }
            }
            out
        }
        None => HashSet::new(),
    };
    let extra_for: Vec<usize> = for_pre_cols
        .iter()
        .copied()
        .filter(|c| {
            !update_set.contains(c)
                && !post_cols.contains(c)
                && !descendant_cols.contains(c)
                && !is_key(*c)
        })
        .collect();

    match config.backdoor {
        BackdoorMode::None => Ok(Vec::new()),
        BackdoorMode::Canonical => {
            let mut out: Vec<usize> = (0..schema.len())
                .filter(|c| !update_set.contains(c) && !post_cols.contains(c) && !is_key(*c))
                .collect();
            for c in extra_for {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            out.sort_unstable();
            Ok(out)
        }
        BackdoorMode::FromGraph => {
            let g = graph.ok_or_else(|| {
                EngineError::Causal(
                    "BackdoorMode::FromGraph requires a causal graph; use \
                     EngineConfig::hyper_nb() when none is available"
                        .into(),
                )
            })?;
            let mut chosen: HashSet<usize> = HashSet::new();
            for &(bc, _) in update_cols {
                let bo = &view.origins[bc];
                let b_node = g.node_id(&bo.relation, &bo.attribute)?;
                for &yc in post_cols {
                    if update_set.contains(&yc) {
                        continue;
                    }
                    let yo = &view.origins[yc];
                    let Ok(y_node) = g.node_id(&yo.relation, &yo.attribute) else {
                        continue; // post attr outside the model: no adjustment
                    };
                    let set =
                        hyper_causal::minimal_backdoor_set(g, b_node, y_node).ok_or_else(|| {
                            EngineError::Causal(format!(
                                "no valid backdoor set for {} → {}",
                                g.node_info(b_node),
                                g.node_info(y_node)
                            ))
                        })?;
                    for node in set {
                        let info = g.node_info(node);
                        // Map the graph node back to a view column.
                        for (c, o) in view.origins.iter().enumerate() {
                            if o.relation == info.relation
                                && o.attribute == info.attribute
                                && !update_set.contains(&c)
                                && !post_cols.contains(&c)
                                && !is_key(c)
                            {
                                chosen.insert(c);
                            }
                        }
                    }
                }
            }
            for c in extra_for {
                chosen.insert(c);
            }
            let mut out: Vec<usize> = chosen.into_iter().collect();
            out.sort_unstable();
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests;
