//! The regression-based causal estimator behind what-if queries.
//!
//! Implements the computation of Propositions 2/4/5 with the reductions of
//! Eqs. (35)–(40): post-update conditionals `Pr_{D,U}(ψ | B = b, C = c)`
//! equal pre-update conditionals `Pr_D(ψ | B = f(b), C = c)` under the
//! backdoor criterion, and those are estimated from `D` with a single
//! regression model (§A.4's homogeneity assumption) — a random forest, as
//! in the paper's implementation.
//!
//! The reduction is what lets one fitted model serve every update
//! function over the same attributes: `f` enters only as the point the
//! model is queried at. So [`CausalEstimator`] is the fitted model alone,
//! and the update functions are passed to [`CausalEstimator::evaluate`]
//! per query.
//!
//! Evaluation follows §3.3's "iterating only over combinations with
//! non-zero support": the view's `SupportIndex` numbers the distinct raw
//! feature combinations (cells) once, and [`CausalEstimator::evaluate_parts`]
//! builds post-update features and predicts once per cell (refined by the
//! `When` bit and any peer summary), not once per row. The per-row float
//! sums still fold in row order, so the value is bit-identical to a
//! row-at-a-time pass.

use std::collections::HashMap;
use std::sync::Arc;

use hyper_causal::{CausalGraph, EdgeKind};
use hyper_ml::{ForestParams, Matrix, RandomForest, TableEncoder, TreeParams};
use hyper_query::UpdateFunc;
use hyper_storage::{AggFunc, Column, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::{EngineError, Result};
use crate::hexpr::BoundHExpr;
use crate::view::RelevantView;
use crate::whatif::apply_update;

/// Cross-tuple summary feature (the distribution-preserving ψ of §2.2):
/// the mean of an updated attribute over *peer* rows sharing a grouping
/// value (e.g. mean competitor price within the product's category).
#[derive(Debug, Clone)]
pub struct PeerSummary {
    /// The updated column being summarized.
    pub update_col: usize,
    /// The view column defining peer groups.
    pub group_col: usize,
}

impl PeerSummary {
    /// Detect whether the causal graph declares a same-value edge from an
    /// updated attribute, and whether its grouping attribute is a view
    /// column; returns the summary spec if so.
    pub fn detect(
        view: &RelevantView,
        graph: Option<&CausalGraph>,
        update_cols: &[usize],
    ) -> Result<Option<PeerSummary>> {
        let Some(g) = graph else { return Ok(None) };
        for &uc in update_cols {
            let o = &view.origins[uc];
            let Ok(node) = g.node_id(&o.relation, &o.attribute) else {
                continue;
            };
            for e in g.out_edges(node) {
                if let EdgeKind::SameValue { group_by } = &e.kind {
                    // Find the grouping attribute among view columns.
                    for (c, co) in view.origins.iter().enumerate() {
                        if co.relation == o.relation
                            && co.attribute.eq_ignore_ascii_case(group_by)
                            && co.aggregated.is_none()
                        {
                            return Ok(Some(PeerSummary {
                                update_col: uc,
                                group_col: c,
                            }));
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Per-row peer means of `values` (leave-one-out within each group).
    /// Groups are keyed by the typed column's `(tag, bits)` key parts — no
    /// `Value` materialization or hashing.
    fn peer_means(&self, groups: &Column, values: &[f64]) -> Vec<f64> {
        let mut buf: Vec<u64> = Vec::with_capacity(2);
        let keys: Vec<[u64; 2]> = (0..groups.len())
            .map(|i| {
                buf.clear();
                groups.write_key_part(i, &mut buf);
                [buf[0], buf[1]]
            })
            .collect();
        let mut sum: HashMap<[u64; 2], (f64, usize)> = HashMap::new();
        for (k, v) in keys.iter().zip(values) {
            let e = sum.entry(*k).or_insert((0.0, 0));
            e.0 += *v;
            e.1 += 1;
        }
        keys.iter()
            .zip(values)
            .map(|(k, v)| {
                let (s, c) = sum[k];
                if c <= 1 {
                    *v // singleton group: fall back to own value
                } else {
                    (s - v) / (c - 1) as f64
                }
            })
            .collect()
    }
}

/// Everything needed to fit the estimator.
pub struct EstimatorSpec<'a> {
    /// Updated columns, in update order (the functions are not needed to
    /// fit: they are applied at evaluation).
    pub update_cols: &'a [usize],
    /// Backdoor adjustment columns.
    pub backdoor_cols: &'a [usize],
    /// Optional cross-tuple summary feature.
    pub peer: Option<PeerSummary>,
    /// Training-row cap (HypeR-sampled).
    pub sample_cap: Option<usize>,
    /// Forest size.
    pub n_trees: usize,
    /// Tree depth.
    pub max_depth: usize,
    /// Seed.
    pub seed: u64,
    /// Regression family.
    pub kind: crate::config::EstimatorKind,
    /// Worker pool forest training fans out over (results are
    /// worker-count-independent, so sharing fitted estimators across
    /// sessions with different runtimes is safe).
    pub runtime: &'a hyper_runtime::HyperRuntime,
}

/// Empirical cell-mean table over encoded feature combinations: the
/// §3.3 support-index computation executed literally. `skip` is the number
/// of leading encoded dimensions occupied by the update attributes; the
/// marginal table conditions only on the remaining (backdoor) dimensions
/// and is the fallback for post-update combinations with zero support.
pub(crate) struct CellTable {
    pub(crate) cells: HashMap<Vec<u64>, (f64, u32)>,
    pub(crate) marginal: HashMap<Vec<u64>, (f64, u32)>,
    pub(crate) global: f64,
    pub(crate) skip: usize,
}

impl CellTable {
    fn fit(x: &hyper_ml::Matrix, y: &[f64], skip: usize) -> CellTable {
        let mut cells: HashMap<Vec<u64>, (f64, u32)> = HashMap::new();
        let mut marginal: HashMap<Vec<u64>, (f64, u32)> = HashMap::new();
        let mut total = 0.0;
        for (i, &yi) in y.iter().enumerate().take(x.rows()) {
            let row = x.row(i);
            let key: Vec<u64> = row.iter().map(|f| f.to_bits()).collect();
            let mkey: Vec<u64> = row[skip.min(row.len())..]
                .iter()
                .map(|f| f.to_bits())
                .collect();
            let e = cells.entry(key).or_insert((0.0, 0));
            e.0 += yi;
            e.1 += 1;
            let m = marginal.entry(mkey).or_insert((0.0, 0));
            m.0 += yi;
            m.1 += 1;
            total += yi;
        }
        CellTable {
            cells,
            marginal,
            global: if x.rows() > 0 {
                total / x.rows() as f64
            } else {
                0.0
            },
            skip,
        }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let key: Vec<u64> = row.iter().map(|f| f.to_bits()).collect();
        if let Some((s, c)) = self.cells.get(&key) {
            return s / *c as f64;
        }
        let mkey: Vec<u64> = row[self.skip.min(row.len())..]
            .iter()
            .map(|f| f.to_bits())
            .collect();
        if let Some((s, c)) = self.marginal.get(&mkey) {
            return s / *c as f64;
        }
        self.global
    }
}

/// Either regression family, behind one prediction interface.
pub(crate) enum FittedModel {
    Forest(RandomForest),
    Cells(CellTable),
}

impl FittedModel {
    /// Batch prediction over a feature matrix (the forest walks every tree
    /// per row without re-dispatching through the enum per cell).
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        match self {
            FittedModel::Forest(m) => m.predict(x),
            FittedModel::Cells(m) => (0..x.rows()).map(|i| m.predict_row(x.row(i))).collect(),
        }
    }
}

/// A fitted causal estimator: the model of one what-if query family over
/// a fixed set of update *attributes*. It holds no update functions —
/// every query that updates the same columns (in the same order) with the
/// same output, `For` clause and adjustment set shares it, and supplies
/// its own functions to [`CausalEstimator::evaluate`]. Fields are
/// crate-visible so `crate::persist` can serialize a fitted estimator for
/// the disk cache tier.
pub struct CausalEstimator {
    pub(crate) agg: AggFunc,
    pub(crate) feature_cols: Vec<usize>,
    /// The updated columns, in update order: the leading feature columns.
    pub(crate) update_cols: Vec<usize>,
    pub(crate) encoder: TableEncoder,
    /// Main model: E[target | features] where target is `1{ψ}` (Count),
    /// `Y·1{ψ}` (Sum/Avg numerator).
    pub(crate) model: FittedModel,
    /// Denominator model for Avg when ψ exists: E[1{ψ} | features].
    pub(crate) denom_model: Option<FittedModel>,
    /// ψ and Y bound expressions for unaffected-row evaluation — shared
    /// with the caller via `Arc`, so a fit never deep-clones either tree.
    pub(crate) psi: Option<Arc<BoundHExpr>>,
    pub(crate) y: Option<Arc<BoundHExpr>>,
    /// Peer summary state: pre-update peer means per row + post-update peer
    /// means per row (computed at fit time over the whole view).
    pub(crate) peer: Option<(PeerSummary, Vec<f64>, Vec<f64>)>,
    pub(crate) trained_rows: usize,
}

impl CausalEstimator {
    /// Fit the estimator on the relevant view. Training targets are
    /// evaluated per row straight off the typed columns, and the feature
    /// matrix is filled column-wise ([`TableEncoder::encode_table`]).
    pub fn fit(
        view: &RelevantView,
        spec: &EstimatorSpec<'_>,
        psi: &Option<Arc<BoundHExpr>>,
        y: &Option<Arc<BoundHExpr>>,
        agg: AggFunc,
    ) -> Result<CausalEstimator> {
        // Covers the whole fit (target evaluation, sampling, encoding);
        // the nested `EncoderFit`/`ForestTrain` spans from `hyper-ml`
        // subtract their own time, leaving the glue here.
        let _span = hyper_trace::span(hyper_trace::Phase::ForestTrain);
        let table = &view.table;
        let n = table.num_rows();
        if n == 0 {
            return Err(EngineError::Plan("relevant view is empty".into()));
        }

        // Feature columns: updates first, then backdoor set.
        let mut feature_cols: Vec<usize> = spec.update_cols.to_vec();
        feature_cols.extend_from_slice(spec.backdoor_cols);
        let names: Vec<String> = feature_cols
            .iter()
            .map(|&c| table.schema().field(c).name.clone())
            .collect();
        let encoder = TableEncoder::fit(table, &names)?;

        // Peer summary features (pre and post variants).
        let peer = match &spec.peer {
            Some(p) => {
                let update_col = table.column(p.update_col);
                let pre_vals: Vec<f64> = (0..n)
                    .map(|i| update_col.f64_at(i).unwrap_or(0.0))
                    .collect();
                let pre_means = p.peer_means(table.column(p.group_col), &pre_vals);
                // Post values of the updated column (the update applies to
                // every row for summary purposes only when it actually
                // applies — the caller recomputes exact post means below in
                // evaluate(); here we seed with pre means).
                Some((p.clone(), pre_means.clone(), pre_means))
            }
            None => None,
        };

        // Targets on observed rows: ψ and Y evaluated with post = pre,
        // reading cells off the typed columns (no row clones).
        let mut target = Vec::with_capacity(n);
        let mut denom_target = Vec::with_capacity(n);
        for i in 0..n {
            let sat = match psi {
                Some(p) => p.eval_bool_at(table, table, i)?,
                None => true,
            };
            let base = match (agg, y) {
                (AggFunc::Count, _) => {
                    if sat {
                        1.0
                    } else {
                        0.0
                    }
                }
                (_, Some(yv)) => {
                    let val = yv.eval_at(table, table, i)?.as_f64().ok_or_else(|| {
                        EngineError::Plan("Output expression is not numeric".into())
                    })?;
                    if sat {
                        val
                    } else {
                        0.0
                    }
                }
                _ => {
                    return Err(EngineError::Plan(
                        "Sum/Avg output requires a value expression".into(),
                    ))
                }
            };
            target.push(base);
            denom_target.push(if sat { 1.0 } else { 0.0 });
        }

        // Feature matrix (with optional peer column appended).
        let mut x = encoder.encode_table(table)?;
        if let Some((_, pre_means, _)) = &peer {
            x = x
                .with_appended_column(pre_means)
                .map_err(EngineError::from)?;
        }

        // Sampling (HypeR-sampled): train on a random subset.
        let train_idx: Vec<u32> = match spec.sample_cap {
            Some(cap) if cap < n => {
                let mut rng = StdRng::seed_from_u64(spec.seed);
                let mut idx: Vec<u32> = (0..n as u32).collect();
                idx.shuffle(&mut rng);
                idx.truncate(cap);
                idx
            }
            _ => (0..n as u32).collect(),
        };
        let trained_rows = train_idx.len();
        let (xt, yt, dt) = subset(&x, &target, &denom_target, &train_idx)?;

        // Leading encoded dimensions occupied by the update attributes (for
        // the cell estimator's marginal fallback).
        let update_dims: usize = encoder
            .column_widths()
            .iter()
            .take(spec.update_cols.len())
            .sum();
        let fit_model = |targets: &[f64]| -> Result<FittedModel> {
            Ok(match spec.kind {
                crate::config::EstimatorKind::Forest => {
                    let params = ForestParams {
                        n_trees: spec.n_trees,
                        tree: TreeParams {
                            max_depth: spec.max_depth,
                            ..TreeParams::default()
                        },
                        bootstrap: true,
                        seed: spec.seed,
                    };
                    FittedModel::Forest(
                        RandomForest::fit_on(spec.runtime, &xt, targets, &params)
                            .map_err(EngineError::from)?,
                    )
                }
                crate::config::EstimatorKind::Cells => {
                    FittedModel::Cells(CellTable::fit(&xt, targets, update_dims))
                }
            })
        };
        let model = fit_model(&yt)?;
        let denom_model = if agg == AggFunc::Avg && psi.is_some() {
            Some(fit_model(&dt)?)
        } else {
            None
        };

        Ok(CausalEstimator {
            agg,
            feature_cols,
            update_cols: spec.update_cols.to_vec(),
            encoder,
            model,
            denom_model,
            psi: psi.clone(),
            y: y.clone(),
            peer,
            trained_rows,
        })
    }

    /// Rows used for training.
    pub fn trained_rows(&self) -> usize {
        self.trained_rows
    }

    /// Do this estimator's column references and peer-state dimensions
    /// fit `view`? Estimators fitted in-process fit by construction;
    /// this guards estimators deserialized from a persist directory,
    /// whose indices are untrusted bytes — a mismatch must surface as a
    /// typed error at the fetch site, never an out-of-bounds panic at
    /// evaluation time.
    pub(crate) fn fits_view(&self, view: &RelevantView) -> bool {
        let ncols = view.table.num_columns();
        let nrows = view.table.num_rows();
        let cols_ok = self.feature_cols.iter().all(|&c| c < ncols)
            && self.update_cols.iter().all(|&c| c < ncols);
        let exprs_ok = [&self.psi, &self.y].into_iter().all(|e| {
            e.as_ref().is_none_or(|b| {
                b.pre_columns()
                    .into_iter()
                    .chain(b.post_columns())
                    .all(|c| c < ncols)
            })
        });
        let peer_ok = self.peer.as_ref().is_none_or(|(p, pre, post)| {
            p.update_col < ncols && p.group_col < ncols && pre.len() == nrows && post.len() == nrows
        });
        cols_ok && exprs_ok && peer_ok
    }

    /// Evaluate the query value over the view for the update `updates`
    /// (column, function) — the columns must be this estimator's update
    /// columns, in order — given the update (`when`) and scope (`for`-pre)
    /// masks.
    pub fn evaluate(
        &self,
        view: &RelevantView,
        updates: &[(usize, UpdateFunc)],
        when_mask: &[bool],
        scope_mask: &[bool],
    ) -> Result<f64> {
        let (numerator, denominator) = self.evaluate_parts(view, updates, when_mask, scope_mask)?;
        Ok(match self.agg {
            AggFunc::Avg => {
                if denominator == 0.0 {
                    0.0
                } else {
                    numerator / denominator
                }
            }
            _ => numerator,
        })
    }

    /// Decomposable parts of the query value: `(numerator, denominator)`.
    ///
    /// For `Count`/`Sum` the numerator *is* the result; for `Avg` the result
    /// is their ratio. Both parts are sums over scoped tuples, so they can
    /// be accumulated per independent block and recombined (Definition 6's
    /// `g = Sum`, Proposition 1).
    ///
    /// Evaluation runs over the §3.3 support, not the rows:
    /// 1. One pass over the scoped rows adds every unaffected row's
    ///    deterministic contribution (typed-column reads) and gives each
    ///    affected row a key — its cell in the view's `SupportIndex`
    ///    over the feature columns, its `When` bit, and its post-update
    ///    peer mean — that fixes its post-update features. The first row
    ///    with each key represents it.
    /// 2. The post-update feature columns are assembled and encoded for
    ///    the representatives only, deduplicated by encoded bits, and
    ///    predicted in **one batch** per model.
    /// 3. A second pass adds each affected row's prediction in row order,
    ///    so the float sums fold exactly as a row-at-a-time pass would.
    pub fn evaluate_parts(
        &self,
        view: &RelevantView,
        updates: &[(usize, UpdateFunc)],
        when_mask: &[bool],
        scope_mask: &[bool],
    ) -> Result<(f64, f64)> {
        self.check_updates(updates)?;
        let table = &view.table;
        let peer_post = self.peer_post_means(table, updates, when_mask)?;
        let support = view.support_index(&self.feature_cols)?;

        // Pass one. Without peer features a key is `2 · cell + When bit`,
        // a direct index; the post peer mean refines it through a map.
        let mut reps: Vec<usize> = Vec::new();
        let mut row_keys: Vec<u32> = Vec::new();
        let mut key_of_cell: Vec<u32> = vec![u32::MAX; 2 * support.cells()];
        let mut key_of_peer: HashMap<(usize, u64), u32> = HashMap::new();
        let mut parts =
            self.fold_unaffected(table, when_mask, scope_mask, peer_post.as_deref(), |i| {
                let cell_key = 2 * support.cell(i) + usize::from(when_mask[i]);
                let mut new_key = || {
                    reps.push(i);
                    reps.len() as u32 - 1
                };
                let key = match &peer_post {
                    None => {
                        let slot = &mut key_of_cell[cell_key];
                        if *slot == u32::MAX {
                            *slot = new_key();
                        }
                        *slot
                    }
                    Some(post) => *key_of_peer
                        .entry((cell_key, post[i].to_bits()))
                        .or_insert_with(new_key),
                };
                row_keys.push(key);
            })?;
        if reps.is_empty() {
            return Ok(parts);
        }

        // Step two, over the representatives only.
        let predicted =
            self.predict_rows(table, updates, when_mask, peer_post.as_deref(), &reps)?;

        // Pass two: affected rows in row order.
        for &key in &row_keys {
            predicted.add(predicted.slot_of_row[key as usize], &mut parts);
        }
        Ok(parts)
    }

    /// Row-at-a-time reference for [`CausalEstimator::evaluate_parts`]:
    /// assembles, encodes and deduplicates the post-update features of
    /// every affected row.
    #[cfg(test)]
    pub(crate) fn evaluate_parts_rowwise(
        &self,
        view: &RelevantView,
        updates: &[(usize, UpdateFunc)],
        when_mask: &[bool],
        scope_mask: &[bool],
    ) -> Result<(f64, f64)> {
        self.check_updates(updates)?;
        let table = &view.table;
        let peer_post = self.peer_post_means(table, updates, when_mask)?;
        let mut affected: Vec<usize> = Vec::new();
        let mut parts =
            self.fold_unaffected(table, when_mask, scope_mask, peer_post.as_deref(), |i| {
                affected.push(i)
            })?;
        if affected.is_empty() {
            return Ok(parts);
        }
        let predicted =
            self.predict_rows(table, updates, when_mask, peer_post.as_deref(), &affected)?;
        for &slot in &predicted.slot_of_row {
            predicted.add(slot, &mut parts);
        }
        Ok(parts)
    }

    /// Reject updates of columns other than this estimator's update
    /// columns (in order).
    fn check_updates(&self, updates: &[(usize, UpdateFunc)]) -> Result<()> {
        if updates.iter().map(|(c, _)| c).eq(&self.update_cols) {
            return Ok(());
        }
        Err(EngineError::Plan(format!(
            "estimator fitted for update columns {:?} cannot evaluate an update of {:?}",
            self.update_cols,
            updates.iter().map(|(c, _)| *c).collect::<Vec<_>>()
        )))
    }

    /// Post-update peer means per view row (summary features see the
    /// updated world); `None` without a peer summary.
    fn peer_post_means(
        &self,
        table: &Table,
        updates: &[(usize, UpdateFunc)],
        when_mask: &[bool],
    ) -> Result<Option<Vec<f64>>> {
        let Some((p, _, _)) = &self.peer else {
            return Ok(None);
        };
        let update_col = table.column(p.update_col);
        let func = func_of(updates, p.update_col).expect("peer summary over an updated column");
        let mut post_vals = Vec::with_capacity(table.num_rows());
        for (i, &updated) in when_mask.iter().enumerate() {
            let v = if updated {
                apply_update(func, &update_col.value(i))?
            } else {
                update_col.value(i)
            };
            post_vals.push(v.as_f64().unwrap_or(0.0));
        }
        Ok(Some(p.peer_means(table.column(p.group_col), &post_vals)))
    }

    /// Walk the scoped rows in order: fold each unaffected row's
    /// deterministic contribution (post = pre) into `(numerator,
    /// denominator)` and hand each affected row — updated, or moved
    /// through a changed peer mean — to `on_affected`.
    fn fold_unaffected(
        &self,
        table: &Table,
        when_mask: &[bool],
        scope_mask: &[bool],
        peer_post: Option<&[f64]>,
        mut on_affected: impl FnMut(usize),
    ) -> Result<(f64, f64)> {
        let mut numerator = 0.0;
        let mut denominator = 0.0;
        for i in 0..table.num_rows() {
            if !scope_mask[i] {
                continue;
            }
            let peer_changed = match (&self.peer, peer_post) {
                (Some((_, pre_means, _)), Some(post_means)) => {
                    (pre_means[i] - post_means[i]).abs() > 1e-12
                }
                _ => false,
            };
            if when_mask[i] || peer_changed {
                on_affected(i);
                continue;
            }
            let sat = match &self.psi {
                Some(p) => p.eval_bool_at(table, table, i)?,
                None => true,
            };
            if sat {
                match (self.agg, &self.y) {
                    (AggFunc::Count, _) => {
                        numerator += 1.0;
                        denominator += 1.0;
                    }
                    (_, Some(yv)) => {
                        numerator += yv.eval_at(table, table, i)?.as_f64().ok_or_else(|| {
                            EngineError::Plan("Output expression is not numeric".into())
                        })?;
                        denominator += 1.0;
                    }
                    _ => unreachable!(),
                }
            }
        }
        Ok((numerator, denominator))
    }

    /// Predict the post-update world of `rows`: assemble their post-update
    /// feature columns, encode them, deduplicate the encoded feature
    /// combinations, and batch-predict the distinct ones once per model.
    fn predict_rows(
        &self,
        table: &Table,
        updates: &[(usize, UpdateFunc)],
        when_mask: &[bool],
        peer_post: Option<&[f64]>,
        rows: &[usize],
    ) -> Result<Predictions> {
        // Non-updated features are a typed gather; updated features are
        // rebuilt with the update applied where `When` holds (re-typed, as
        // e.g. scaling an integer column produces floats). When a `Set`
        // update mixes value types within one column (e.g. a string
        // literal over a numeric column, or peer-affected rows keeping
        // their pre values), no single column type fits — fall back to
        // per-row encoding, which handles heterogeneous values exactly
        // like the row-oriented evaluator did.
        let mut feat_cols: Vec<Column> = Vec::with_capacity(self.feature_cols.len());
        let mut post_value_cols: Vec<Option<Vec<Value>>> = vec![None; self.feature_cols.len()];
        let mut typed_ok = true;
        for (k, &c) in self.feature_cols.iter().enumerate() {
            let src = table.column(c);
            match func_of(updates, c) {
                None => feat_cols.push(src.gather(rows)),
                Some(func) => {
                    // Typed kernel first: the common numeric / in-dictionary
                    // updates build the post column straight off the typed
                    // buffers. Falls back to per-row `Value`s when the
                    // update mixes types or touches NULLs.
                    if let Some(col) = post_update_column(src, func, rows, when_mask) {
                        feat_cols.push(col);
                        continue;
                    }
                    let mut post_vals = Vec::with_capacity(rows.len());
                    for &i in rows {
                        let v = src.value(i);
                        post_vals.push(if when_mask[i] {
                            apply_update(func, &v)?
                        } else {
                            v
                        });
                    }
                    match Column::from_values_inferred(&post_vals) {
                        Ok(col) => feat_cols.push(col),
                        Err(_) => {
                            typed_ok = false;
                            feat_cols.push(src.gather(rows)); // placeholder
                        }
                    }
                    post_value_cols[k] = Some(post_vals);
                }
            }
        }
        let mut x = if typed_ok {
            let col_refs: Vec<&Column> = feat_cols.iter().collect();
            self.encoder.encode_columns(&col_refs)?
        } else {
            let mut m = Matrix::zeros(0, 0);
            let mut buf: Vec<Value> = Vec::with_capacity(self.feature_cols.len());
            for (row, &i) in rows.iter().enumerate() {
                buf.clear();
                for (k, &c) in self.feature_cols.iter().enumerate() {
                    buf.push(match &post_value_cols[k] {
                        Some(vals) => vals[row].clone(),
                        // Update columns the typed kernel handled have no
                        // materialized values; recompute the post value.
                        None => match func_of(updates, c) {
                            Some(func) if when_mask[i] => {
                                apply_update(func, &table.column(c).value(i))?
                            }
                            _ => table.column(c).value(i),
                        },
                    });
                }
                m.push_row(&self.encoder.encode_values(&buf)?)
                    .map_err(EngineError::from)?;
            }
            m
        };
        if let Some(post_means) = peer_post {
            let peer_vals: Vec<f64> = rows.iter().map(|&i| post_means[i]).collect();
            x = x
                .with_appended_column(&peer_vals)
                .map_err(EngineError::from)?;
        }

        // Deduplicate encoded feature combinations, then batch-predict the
        // unique rows once per model. Keys are borrowed slices into one
        // flat bit-pattern buffer (filled before the map exists, so the
        // borrows are stable) — no per-row allocation, one hash per row
        // via the entry API.
        let width = x.cols();
        let mut flat: Vec<u64> = Vec::with_capacity(x.rows() * width);
        for k in 0..x.rows() {
            flat.extend(x.row(k).iter().map(|f| f.to_bits()));
        }
        let mut unique: HashMap<&[u64], usize> = HashMap::new();
        let mut slot_of_row: Vec<usize> = Vec::with_capacity(rows.len());
        let mut unique_x = Matrix::zeros(0, 0);
        for k in 0..x.rows() {
            let next = unique_x.rows();
            let slot = match unique.entry(&flat[k * width..(k + 1) * width]) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(next);
                    unique_x.push_row(x.row(k)).map_err(EngineError::from)?;
                    next
                }
            };
            slot_of_row.push(slot);
        }
        let mut nums = self.model.predict(&unique_x);
        if self.agg == AggFunc::Count {
            for v in &mut nums {
                *v = v.clamp(0.0, 1.0);
            }
        }
        let dens: Option<Vec<f64>> = self.denom_model.as_ref().map(|m| {
            let mut d = m.predict(&unique_x);
            for v in &mut d {
                *v = v.clamp(0.0, 1.0);
            }
            d
        });
        Ok(Predictions {
            nums,
            dens,
            slot_of_row,
        })
    }
}

/// Batch predictions for a list of rows, one slot per distinct encoded
/// feature combination.
struct Predictions {
    /// Numerator model predictions (clamped to `[0, 1]` for Count).
    nums: Vec<f64>,
    /// Avg denominator model predictions (clamped), when that model
    /// exists; otherwise every row counts 1.
    dens: Option<Vec<f64>>,
    /// Each input row's slot.
    slot_of_row: Vec<usize>,
}

impl Predictions {
    /// Add the contribution of the prediction at `slot` to the running
    /// `(numerator, denominator)`.
    fn add(&self, slot: usize, parts: &mut (f64, f64)) {
        parts.0 += self.nums[slot];
        parts.1 += self.dens.as_ref().map_or(1.0, |d| d[slot]);
    }
}

/// The function `updates` applies to column `c`, if any.
fn func_of(updates: &[(usize, UpdateFunc)], c: usize) -> Option<&UpdateFunc> {
    updates.iter().find(|(uc, _)| *uc == c).map(|(_, f)| f)
}

/// Typed fast path for assembling a post-update feature column over the
/// `affected` rows: numeric scale/shift/set and in-dictionary string
/// sets map the typed buffers directly — no per-row [`Value`]
/// materialization. Returns `None` (caller falls back to the exact
/// per-row path) when the source has NULLs, the update would change the
/// column's type in a way the typed path can't express, or the set
/// string is not already interned. Where it applies, it produces a
/// column the feature encoder reads identically to the fallback's
/// (numeric encodings compare by `f64`, one-hot strings by content).
fn post_update_column(
    src: &Column,
    func: &UpdateFunc,
    affected: &[usize],
    when_mask: &[bool],
) -> Option<Column> {
    use hyper_storage::NullBitmap;
    if src.nulls().any_null() {
        return None;
    }
    let all_valid = NullBitmap::all_valid(affected.len());
    let numeric_map = |f: &dyn Fn(f64) -> f64| -> Option<Column> {
        matches!(
            src,
            Column::Int { .. } | Column::Float { .. } | Column::Bool { .. }
        )
        .then(|| Column::Float {
            values: affected
                .iter()
                .map(|&i| {
                    let x = src.f64_at(i).expect("no NULLs checked above");
                    if when_mask[i] {
                        f(x)
                    } else {
                        x
                    }
                })
                .collect(),
            nulls: all_valid.clone(),
        })
    };
    match (func, src) {
        (UpdateFunc::Scale(c), _) => numeric_map(&|x| x * c),
        (UpdateFunc::Shift(c), _) => numeric_map(&|x| x + c),
        (UpdateFunc::Set(Value::Int(v)), Column::Int { values, .. }) => Some(Column::Int {
            values: affected
                .iter()
                .map(|&i| if when_mask[i] { *v } else { values[i] })
                .collect(),
            nulls: all_valid,
        }),
        (UpdateFunc::Set(val), _) if val.as_f64().is_some() => {
            let v = val.as_f64().expect("checked");
            numeric_map(&|_| v)
        }
        (UpdateFunc::Set(Value::Str(s)), Column::Str { codes, dict, .. }) => {
            let code = dict.code_of(s)?;
            Some(Column::Str {
                codes: affected
                    .iter()
                    .map(|&i| if when_mask[i] { code } else { codes[i] })
                    .collect(),
                dict: Arc::clone(dict),
                nulls: all_valid,
            })
        }
        _ => None,
    }
}

fn subset(
    x: &hyper_ml::Matrix,
    y: &[f64],
    d: &[f64],
    idx: &[u32],
) -> Result<(hyper_ml::Matrix, Vec<f64>, Vec<f64>)> {
    let mut xs = hyper_ml::Matrix::zeros(0, 0);
    let mut ys = Vec::with_capacity(idx.len());
    let mut ds = Vec::with_capacity(idx.len());
    for &i in idx {
        xs.push_row(x.row(i as usize)).map_err(EngineError::from)?;
        ys.push(y[i as usize]);
        ds.push(d[i as usize]);
    }
    Ok((xs, ys, ds))
}

#[cfg(test)]
mod tests;
