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
use crate::view::{build_relevant_view, RelevantView};

use estimator::{CausalEstimator, EstimatorSpec, PeerSummary};

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
/// adjustment set, and the estimator cache key. Mirrors the decisions
/// [`evaluate_whatif_on_view`] makes (through the same helpers).
#[derive(Debug, Clone)]
pub(crate) struct WhatIfQueryPlan {
    /// False when every post reference is an updated attribute (the
    /// deterministic fast path: no estimator is trained).
    pub needs_estimation: bool,
    /// Chosen backdoor adjustment columns (names, view schema order).
    pub backdoor: Vec<String>,
    /// The estimator cache key, when estimation is needed.
    pub estimator_key: Option<String>,
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

    let mut update_cols: Vec<(usize, UpdateFunc)> = Vec::with_capacity(q.updates.len());
    for u in &q.updates {
        update_cols.push((resolve_column(&schema, &u.attr)?, u.func.clone()));
    }
    check_multi_update_validity(view, graph, &update_cols)?;

    let (pre_conj, post_conj) = match &q.for_clause {
        Some(fc) => split_pre_post(fc, Temporal::Pre),
        None => (Vec::new(), Vec::new()),
    };
    let pre_bound = conjoin(&pre_conj)
        .map(|e| bind_hexpr(&e, &schema, Temporal::Pre))
        .transpose()?;
    let (psi_expr, y_expr) = output_decomposition(&q.output, &post_conj)?;
    let psi = psi_expr
        .as_ref()
        .map(|e| bind_hexpr(e, &schema, Temporal::Post))
        .transpose()?;
    let y = y_expr
        .as_ref()
        .map(|e| bind_hexpr(e, &schema, Temporal::Post))
        .transpose()?;

    let post_cols: HashSet<usize> = psi
        .iter()
        .flat_map(|e| e.post_columns())
        .chain(y.iter().flat_map(|e| e.post_columns()))
        .collect();
    let update_col_set: HashSet<usize> = update_cols.iter().map(|(c, _)| *c).collect();
    let needs_estimation = post_cols.iter().any(|c| !update_col_set.contains(c));
    if !needs_estimation {
        return Ok(WhatIfQueryPlan {
            needs_estimation: false,
            backdoor: Vec::new(),
            estimator_key: None,
        });
    }

    let for_pre_cols: HashSet<usize> = pre_bound.iter().flat_map(|e| e.pre_columns()).collect();
    let backdoor_cols = select_backdoor_columns(
        db,
        view,
        graph,
        config,
        &update_cols,
        &post_cols,
        &for_pre_cols,
    )?;
    let estimator_key = ArtifactCache::estimator_key(
        view_key,
        &column_indices(&update_cols),
        q,
        &backdoor_cols,
        config,
    );
    Ok(WhatIfQueryPlan {
        needs_estimation: true,
        backdoor: backdoor_cols
            .iter()
            .map(|&c| schema.field(c).name.clone())
            .collect(),
        estimator_key: Some(estimator_key),
    })
}

/// Evaluate a what-if query against `db` under `config`, optionally with a
/// causal `graph` (required for [`BackdoorMode::FromGraph`]).
///
/// This is the uncached single-shot path: the relevant view is built and
/// the estimator trained from scratch. Sessions
/// ([`crate::HyperSession::whatif`]) go through
/// `evaluate_whatif_cached` instead and reuse both artifacts.
pub fn evaluate_whatif(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &WhatIfQuery,
) -> Result<WhatIfResult> {
    let view = Arc::new(build_relevant_view(db, &q.use_clause)?);
    evaluate_whatif_on_view(
        db,
        graph,
        config,
        q,
        &view,
        "",
        None,
        HyperRuntime::global(),
    )
}

/// Evaluate a what-if query, resolving the relevant view and the fitted
/// estimator through a session's artifact cache.
pub(crate) fn evaluate_whatif_cached(
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
        Some(cache),
        runtime,
    )
}

/// Dispatch helper for call sites (the how-to optimizers) that may or may
/// not run inside a session.
pub(crate) fn evaluate_whatif_maybe_cached(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &WhatIfQuery,
    cache: Option<&ArtifactCache>,
    runtime: &HyperRuntime,
) -> Result<WhatIfResult> {
    match cache {
        Some(c) => evaluate_whatif_cached(db, graph, config, q, c, runtime),
        None => {
            let view = Arc::new(build_relevant_view(db, &q.use_clause)?);
            evaluate_whatif_on_view(db, graph, config, q, &view, "", None, runtime)
        }
    }
}

/// Core what-if evaluation over an already-resolved relevant view
/// (§3.3 steps 2–5). `view_key` is the cache key of `view` (empty outside
/// a session); when `cache` is present the fitted estimator is fetched
/// from / inserted into it under a fingerprint derived from `view_key`.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
pub(crate) fn evaluate_whatif_on_view(
    db: &Database,
    graph: Option<&CausalGraph>,
    config: &EngineConfig,
    q: &WhatIfQuery,
    view: &Arc<RelevantView>,
    view_key: &str,
    cache: Option<&ArtifactCache>,
    runtime: &HyperRuntime,
) -> Result<WhatIfResult> {
    let started = Instant::now();
    // Planning: validation, expression binding, mask evaluation, and
    // adjustment-set selection (dropped before estimator training).
    let plan_span = hyper_trace::span(hyper_trace::Phase::Plan);
    reject_unresolved_params(q)?;
    let cols = view.column_names();
    validate_whatif(q, Some(&cols))?;
    let schema = view.table.schema().clone();
    let n = view.table.num_rows();

    // Update columns and their post values.
    let mut update_cols: Vec<(usize, UpdateFunc)> = Vec::with_capacity(q.updates.len());
    for u in &q.updates {
        update_cols.push((resolve_column(&schema, &u.attr)?, u.func.clone()));
    }
    check_multi_update_validity(view, graph, &update_cols)?;

    // Masks.
    let when_bound = q
        .when
        .as_ref()
        .map(|w| bind_hexpr(w, &schema, Temporal::Pre))
        .transpose()?;
    let when_mask = match &when_bound {
        Some(w) => w.eval_mask(&view.table)?,
        None => vec![true; n],
    };

    let (pre_conj, post_conj) = match &q.for_clause {
        Some(fc) => split_pre_post(fc, Temporal::Pre),
        None => (Vec::new(), Vec::new()),
    };
    let pre_bound = conjoin(&pre_conj)
        .map(|e| bind_hexpr(&e, &schema, Temporal::Pre))
        .transpose()?;
    let scope_mask = match &pre_bound {
        Some(p) => p.eval_mask(&view.table)?,
        None => vec![true; n],
    };

    // Output decomposition: ψ (post-world predicate) and Y (post value).
    let (psi_expr, y_expr) = output_decomposition(&q.output, &post_conj)?;
    // ψ and Y are shared (not deep-cloned) with the estimator fitted from
    // this query.
    let psi: Option<Arc<BoundHExpr>> = psi_expr
        .as_ref()
        .map(|e| bind_hexpr(e, &schema, Temporal::Post).map(Arc::new))
        .transpose()?;
    let y: Option<Arc<BoundHExpr>> = y_expr
        .as_ref()
        .map(|e| bind_hexpr(e, &schema, Temporal::Post).map(Arc::new))
        .transpose()?;

    let n_scope = scope_mask.iter().filter(|&&b| b).count();
    let n_updated = when_mask.iter().filter(|&&b| b).count();

    // Fast path: nothing probabilistic to estimate.
    let post_cols: HashSet<usize> = psi
        .iter()
        .flat_map(|e| e.post_columns())
        .chain(y.iter().flat_map(|e| e.post_columns()))
        .collect();
    let update_col_set: HashSet<usize> = update_cols.iter().map(|(c, _)| *c).collect();
    let needs_estimation = post_cols.iter().any(|c| !update_col_set.contains(c));

    if !needs_estimation {
        // Post values are fully determined by the update functions.
        let value = deterministic_eval(
            view,
            &update_cols,
            &when_mask,
            &scope_mask,
            &psi,
            &y,
            q.output.agg,
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
    }

    // `For` pre-conditions add conditioning features (§5.5: "adding
    // conditions involving Pre values … increases the number of attributes
    // used to train the regressor"); attributes already in the backdoor set
    // are deduplicated, which is why the paper observes *faster* evaluation
    // when the added attribute was in the backdoor set.
    let for_pre_cols: HashSet<usize> = pre_bound.iter().flat_map(|e| e.pre_columns()).collect();

    // Backdoor adjustment set over view columns.
    let backdoor_cols = select_backdoor_columns(
        db,
        view,
        graph,
        config,
        &update_cols,
        &post_cols,
        &for_pre_cols,
    )?;
    drop(plan_span);

    // The fitted model depends on the update columns, never on the
    // functions (Eqs. 35–40): those are applied at evaluation.
    let fit_cols = column_indices(&update_cols);

    // Optional cross-tuple peer summary (ψ of §2.2).
    let peer = if config.peer_summaries {
        PeerSummary::detect(view, graph, &fit_cols)?
    } else {
        None
    };

    let spec = EstimatorSpec {
        update_cols: &fit_cols,
        backdoor_cols: &backdoor_cols,
        peer,
        sample_cap: config.sample_cap,
        n_trees: config.n_trees,
        max_depth: config.max_depth,
        seed: config.seed,
        kind: config.estimator,
        runtime,
    };
    // Inside a session, fitted estimators are cached under a fingerprint of
    // (view, update columns, output, adjustment set, estimator config): a
    // repeated prepared query — or any query updating the same columns
    // with other functions — skips training entirely.
    let est: Arc<CausalEstimator> = match cache {
        Some(c) => {
            let key = ArtifactCache::estimator_key(view_key, &fit_cols, q, &backdoor_cols, config);
            // The `fits_view` vet applies to disk-recovered estimators
            // (untrusted bytes whose indices the context-free decoder
            // cannot range-check); a failing artifact is a plain miss
            // and this closure refits.
            c.estimator(
                &key,
                |e| e.fits_view(view),
                || CausalEstimator::fit(view, &spec, &psi, &y, q.output.agg),
            )?
        }
        None => Arc::new(CausalEstimator::fit(view, &spec, &psi, &y, q.output.agg)?),
    };
    let value = est.evaluate(view, &update_cols, &when_mask, &scope_mask)?;

    Ok(WhatIfResult {
        value,
        n_view_rows: n,
        n_scope_rows: n_scope,
        n_updated_rows: n_updated,
        backdoor: backdoor_cols
            .iter()
            .map(|&c| schema.field(c).name.clone())
            .collect(),
        trained_rows: est.trained_rows(),
        elapsed: started.elapsed(),
    })
}

/// Evaluate when every post reference is an updated attribute: post values
/// are deterministic functions of pre values. Post values for the updated
/// columns are materialized once per column (scoped `When` rows only);
/// everything else reads the typed view columns in place — no per-row
/// `Row` clones.
fn deterministic_eval(
    view: &RelevantView,
    update_cols: &[(usize, UpdateFunc)],
    when_mask: &[bool],
    scope_mask: &[bool],
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
            if scope_mask[i] && when_mask[i] {
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

    let mut total = 0.0;
    let mut denom = 0.0;
    for (i, &scoped) in scope_mask.iter().enumerate() {
        if !scoped {
            continue;
        }
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
        denom += 1.0;
        match (agg, y) {
            (AggFunc::Count, _) => total += 1.0,
            (_, Some(yv)) => {
                total += yv
                    .eval_with(&mut get)?
                    .as_f64()
                    .ok_or_else(|| EngineError::Plan("Output expression is not numeric".into()))?;
            }
            _ => unreachable!("validated in caller"),
        }
    }
    Ok(match agg {
        AggFunc::Avg => {
            if denom == 0.0 {
                0.0
            } else {
                total / denom
            }
        }
        _ => total,
    })
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
    let nodes: Vec<Option<usize>> = update_cols
        .iter()
        .map(|(c, _)| {
            let o = &view.origins[*c];
            g.node_id(&o.relation, &o.attribute).ok()
        })
        .collect();
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            if let (Some(a), Some(b)) = (nodes[i], nodes[j]) {
                if g.has_path(a, b) || g.has_path(b, a) {
                    return Err(EngineError::Unsupported(format!(
                        "updated attributes `{}` and `{}` are causally connected; \
                         multi-attribute updates require independent attributes",
                        g.node_info(a),
                        g.node_info(b)
                    )));
                }
            }
        }
    }
    Ok(())
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
