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
//! model is queried at. Nor does the model depend on which of its inputs
//! are updated: it regresses ψ on the feature set `B ∪ C`, kept in
//! view-column order. So [`CausalEstimator`] is the fitted model alone,
//! and the updates are passed to [`CausalEstimator::evaluate`] per query.
//!
//! Training targets (`1{ψ}`, `Y·1{ψ}`) come from the unmodified world
//! (post = pre), so [`CausalEstimator::fit`] builds them column at a time
//! over the typed columns ([`BoundHExpr::eval_mask`],
//! [`BoundHExpr::eval_numbers`]). Features are fitted from the same §3.3
//! support that evaluation iterates: a forest encodes one representative
//! row per support cell and trains over the cells
//! ([`RandomForest::fit_on_cells`]), bit-identical to training on the
//! encoded view matrix. The matrix route remains for what the cells
//! cannot express: a peer summary (per-row peer means), a binding sample
//! cap (a random subset of rows) and the cell estimator.
//!
//! Evaluation follows §3.3's "iterating only over combinations with
//! non-zero support": the view's `SupportIndex` numbers the distinct raw
//! feature combinations (cells) once, and [`CausalEstimator::evaluate_parts`]
//! groups the affected rows by cell, keys the cells by their projection
//! class over the non-updated features (refined by whatever the update
//! leaves varying), and assembles, encodes and predicts once per key: once
//! per distinct post-update row, not once per row or per cell. Both parts
//! of the value are exact sums rounded once (`ExactSum`), so they do not
//! depend on row order or grouping: each key adds `count × prediction` in
//! one step, and a what-if with no `When`, no `For` and no peer summary
//! takes its cells and counts from the index without visiting a row. The
//! unaffected rows' ψ/Y stay row at a time (`fold_unaffected`): they are
//! usually few, and a whole-view column pass would cost more than it saves
//! where every row is updated.
//!
//! A how-to evaluates many single-attribute `Set`s over the same masks:
//! `CausalEstimator::evaluate_candidates` groups, folds and keys once,
//! and predicts every candidate's keys in one batch that walks a forest
//! once per distinct split-bin key ([`RandomForest::predict_keyed`]):
//! candidates that set different values often fall between the same split
//! thresholds. Each candidate's value keeps the bits of
//! [`CausalEstimator::evaluate`] on that update alone.

use std::collections::HashMap;
use std::sync::Arc;

use hyper_causal::{CausalGraph, EdgeKind};
use hyper_ml::{ForestParams, Matrix, RandomForest, TableEncoder, TreeParams};
use hyper_query::UpdateFunc;
use hyper_storage::{AggFunc, Column, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::EstimatorKind;
use crate::error::{EngineError, Result};
use crate::hexpr::BoundHExpr;
use crate::view::RelevantView;
use crate::whatif::exact_sum::ExactSum;
use crate::whatif::support::SupportIndex;
use crate::whatif::{apply_update, holds};

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
    /// `Value` materialization or hashing. Each group's sum is exact
    /// ([`ExactSum`]) and each leave-one-out mean is its exact quotient
    /// rounded once, so a mean does not depend on the order of the rows.
    fn peer_means(&self, groups: &Column, values: &[f64]) -> Vec<f64> {
        let mut buf: Vec<u64> = Vec::with_capacity(2);
        let keys: Vec<[u64; 2]> = (0..groups.len())
            .map(|i| {
                buf.clear();
                groups.write_key_part(i, &mut buf);
                [buf[0], buf[1]]
            })
            .collect();
        let mut sum: HashMap<[u64; 2], (ExactSum, u32)> = HashMap::new();
        for (k, v) in keys.iter().zip(values) {
            let e = sum.entry(*k).or_default();
            e.0.add(*v);
            e.1 += 1;
        }
        keys.iter()
            .zip(values)
            .map(|(k, v)| {
                let (s, c) = &sum[k];
                if *c <= 1 {
                    *v // singleton group: fall back to own value
                } else {
                    let mut rest = s.clone();
                    rest.add(-v);
                    rest.round_div(c - 1)
                }
            })
            .collect()
    }
}

/// Everything needed to fit the estimator. The model's features are the
/// *set* of updated and adjustment columns, in view-column order: the
/// regression of ψ on `B ∪ C` (Eqs. 35–40) does not depend on which of
/// its inputs a query updates, so one fit serves every update over the
/// same feature set.
pub struct EstimatorSpec<'a> {
    /// Updated columns, in any order. The functions are not needed to
    /// fit (they are applied at evaluation), and the columns matter only
    /// to the cell estimator, whose marginal fallback conditions on the
    /// other features.
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

/// Where [`CausalEstimator::fit`] reads its training features from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrainRows {
    /// One encoded representative per cell of the view's `SupportIndex`
    /// over the feature columns, plus each row's cell id.
    Support,
    /// The encoded view matrix (with any peer column), sampled when a cap
    /// binds.
    Matrix,
}

impl TrainRows {
    /// The route `spec` takes over a view of `rows` rows: the support
    /// cells for a forest with no peer summary whose sample cap (if any)
    /// does not bind, else the matrix.
    pub(crate) fn for_spec(spec: &EstimatorSpec<'_>, rows: usize) -> TrainRows {
        let cap_binds = spec.sample_cap.is_some_and(|cap| cap < rows);
        if spec.kind == EstimatorKind::Forest && spec.peer.is_none() && !cap_binds {
            TrainRows::Support
        } else {
            TrainRows::Matrix
        }
    }
}

/// Empirical cell-mean table over encoded feature combinations: the
/// §3.3 support-index computation executed literally. The marginal table
/// conditions only on the encoded dimensions in `marginal_dims` (those of
/// the non-updated features) and is the fallback for post-update
/// combinations with zero support.
pub(crate) struct CellTable {
    pub(crate) cells: HashMap<Vec<u64>, (f64, u32)>,
    pub(crate) marginal: HashMap<Vec<u64>, (f64, u32)>,
    pub(crate) global: f64,
    /// Encoded dimensions the marginal table is keyed on, ascending.
    pub(crate) marginal_dims: Vec<usize>,
}

impl CellTable {
    fn fit(x: &hyper_ml::Matrix, y: &[f64], marginal_dims: Vec<usize>) -> CellTable {
        let mut cells: HashMap<Vec<u64>, (f64, u32)> = HashMap::new();
        let mut marginal: HashMap<Vec<u64>, (f64, u32)> = HashMap::new();
        let mut total = 0.0;
        for (i, &yi) in y.iter().enumerate().take(x.rows()) {
            let row = x.row(i);
            let key: Vec<u64> = row.iter().map(|f| f.to_bits()).collect();
            let mkey: Vec<u64> = marginal_dims.iter().map(|&d| row[d].to_bits()).collect();
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
            marginal_dims,
        }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let key: Vec<u64> = row.iter().map(|f| f.to_bits()).collect();
        if let Some((s, c)) = self.cells.get(&key) {
            return s / *c as f64;
        }
        let mkey: Vec<u64> = self
            .marginal_dims
            .iter()
            .map(|&d| row[d].to_bits())
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

    /// [`FittedModel::predict`], walking a forest once per distinct
    /// split-bin key ([`RandomForest::predict_keyed`]): for batches whose
    /// rows repeat keys, as many candidates' rows do.
    fn predict_keyed(&self, x: &Matrix) -> Vec<f64> {
        match self {
            FittedModel::Forest(m) => m.predict_keyed(x),
            FittedModel::Cells(_) => self.predict(x),
        }
    }
}

/// A fitted causal estimator: the regression of one output over a fixed
/// *feature set* — updated attributes and adjustment set together, in
/// view-column order. It holds no update functions and no update list:
/// every query with the same output and `For` clause whose updated and
/// adjustment columns make up the same set shares it (`Update(A)` over
/// `{B, C}` and `Update(B)` over `{A, C}` alike), and supplies its own
/// updates to [`CausalEstimator::evaluate`]. Fields are crate-visible so
/// `crate::persist` can serialize a fitted estimator for the disk cache
/// tier.
pub struct CausalEstimator {
    pub(crate) agg: AggFunc,
    /// The feature columns, ascending (view-column order).
    pub(crate) feature_cols: Vec<usize>,
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
    /// evaluated column at a time ([`BoundHExpr::eval_mask`],
    /// [`BoundHExpr::eval_numbers`]); the features are encoded along one
    /// of two routes (`TrainRows::for_spec`):
    ///
    /// - **From the support cells**, for a forest with no peer summary
    ///   and no binding sample cap. Rows sharing a cell of the view's
    ///   `SupportIndex` over the feature columns hold identical raw
    ///   features, so they encode identically: only each cell's first row
    ///   is gathered and encoded, and the forest fits over those
    ///   representatives plus each row's cell id
    ///   ([`RandomForest::fit_on_cells`]). Per-row work is the ψ/Y targets
    ///   and one `u32` cell id; the same index then serves evaluation.
    /// - **From the encoded matrix** ([`TableEncoder::encode_table`]),
    ///   otherwise: a peer summary appends per-row peer means, which are
    ///   not a function of the feature cells; a binding sample cap trains
    ///   on a random subset of rows, not on whole cells; and the cell
    ///   estimator ([`EstimatorKind::Cells`]) keys its table on encoded
    ///   rows.
    ///
    /// Both routes fit the same forest bit for bit: the cells reproduce
    /// the layout [`RandomForest::fit_on`] derives from the matrix, and
    /// continuous features, whose cells exceed the layout's cap, fit
    /// row-wise over their representatives' bins.
    pub fn fit(
        view: &RelevantView,
        spec: &EstimatorSpec<'_>,
        psi: &Option<Arc<BoundHExpr>>,
        y: &Option<Arc<BoundHExpr>>,
        agg: AggFunc,
    ) -> Result<CausalEstimator> {
        let rows = TrainRows::for_spec(spec, view.table.num_rows());
        Self::fit_via(view, spec, psi, y, agg, rows)
    }

    /// [`CausalEstimator::fit`] along a given route; `TrainRows::Matrix`
    /// serves every spec.
    pub(crate) fn fit_via(
        view: &RelevantView,
        spec: &EstimatorSpec<'_>,
        psi: &Option<Arc<BoundHExpr>>,
        y: &Option<Arc<BoundHExpr>>,
        agg: AggFunc,
        rows: TrainRows,
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

        let feature_cols = feature_set(spec.update_cols, spec.backdoor_cols);
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

        // Targets on observed rows (Eqs. 35–40): ψ and Y evaluated with
        // post = pre, column at a time over the typed columns. Y must be
        // numeric on every row, ψ-satisfying or not.
        let sat = psi.as_ref().map(|p| p.eval_mask(table)).transpose()?;
        let sat_at = |i: usize| sat.as_ref().is_none_or(|m| m[i]);
        let denom_target: Vec<f64> = (0..n).map(|i| if sat_at(i) { 1.0 } else { 0.0 }).collect();
        let target: Vec<f64> = match (agg, y) {
            (AggFunc::Count, _) => denom_target.clone(),
            (_, Some(yv)) => yv
                .eval_numbers(table, None)?
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    let v = v.ok_or_else(|| {
                        EngineError::Plan("Output expression is not numeric".into())
                    })?;
                    Ok(if sat_at(i) { v } else { 0.0 })
                })
                .collect::<Result<_>>()?,
            _ => {
                return Err(EngineError::Plan(
                    "Sum/Avg output requires a value expression".into(),
                ))
            }
        };

        let params = ForestParams {
            n_trees: spec.n_trees,
            tree: TreeParams {
                max_depth: spec.max_depth,
                ..TreeParams::default()
            },
            bootstrap: true,
            seed: spec.seed,
        };
        let with_denom = agg == AggFunc::Avg && psi.is_some();
        let (model, denom_model) = if rows == TrainRows::Support {
            debug_assert_eq!(TrainRows::for_spec(spec, n), TrainRows::Support);
            // Every row encodes like the first row of its support cell:
            // encode those alone and fit over the cells.
            let support = view.support_index(&feature_cols)?;
            let reps: Vec<usize> = support.first_rows().iter().map(|&i| i as usize).collect();
            let cols: Vec<Column> = feature_cols
                .iter()
                .map(|&c| table.column(c).gather(&reps))
                .collect();
            let x = encoder.encode_columns(&cols.iter().collect::<Vec<_>>())?;
            let fit = |targets: &[f64]| -> Result<FittedModel> {
                let forest = RandomForest::fit_on_cells(
                    spec.runtime,
                    &x,
                    support.cell_ids(),
                    targets,
                    &params,
                )?;
                Ok(FittedModel::Forest(forest))
            };
            let model = fit(&target)?;
            (model, with_denom.then(|| fit(&denom_target)).transpose()?)
        } else {
            // Feature matrix (with optional peer column appended).
            let mut x = encoder.encode_table(table)?;
            if let Some((_, pre_means, _)) = &peer {
                x = x
                    .with_appended_column(pre_means)
                    .map_err(EngineError::from)?;
            }

            // Sampling (HypeR-sampled): train on a random subset; without a
            // binding cap, on the encoded matrix and targets as they are.
            let sampled = match spec.sample_cap {
                Some(cap) if cap < n => {
                    let mut rng = StdRng::seed_from_u64(spec.seed);
                    let mut idx: Vec<u32> = (0..n as u32).collect();
                    idx.shuffle(&mut rng);
                    idx.truncate(cap);
                    Some(subset(&x, &target, &denom_target, &idx)?)
                }
                _ => None,
            };
            let (xt, yt, dt) = match &sampled {
                Some((xs, ys, ds)) => (xs, ys, ds),
                None => (&x, &target, &denom_target),
            };

            // Encoded dimensions of the non-updated features, and the peer
            // column after them (the cell estimator's marginal fallback).
            let mut marginal_dims: Vec<usize> = Vec::new();
            let mut offset = 0;
            for (c, width) in feature_cols.iter().zip(encoder.column_widths()) {
                if !spec.update_cols.contains(c) {
                    marginal_dims.extend(offset..offset + width);
                }
                offset += width;
            }
            if peer.is_some() {
                marginal_dims.push(offset);
            }
            let fit = |targets: &[f64]| -> Result<FittedModel> {
                Ok(match spec.kind {
                    EstimatorKind::Forest => FittedModel::Forest(RandomForest::fit_on(
                        spec.runtime,
                        xt,
                        targets,
                        &params,
                    )?),
                    EstimatorKind::Cells => {
                        FittedModel::Cells(CellTable::fit(xt, targets, marginal_dims.clone()))
                    }
                })
            };
            let model = fit(yt)?;
            (model, with_denom.then(|| fit(dt)).transpose()?)
        };
        let trained_rows = spec.sample_cap.map_or(n, |cap| cap.min(n));

        Ok(CausalEstimator {
            agg,
            feature_cols,
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
        let cols_ok = self.feature_cols.iter().all(|&c| c < ncols);
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
    /// (column, function), given the update (`when`) and scope (`for`-pre)
    /// masks. An absent mask holds on every row. Any update whose columns
    /// are all features of this estimator is accepted, in any order: the
    /// model is queried at the post-update feature values, whichever of
    /// them changed (with a peer summary, its column must be updated).
    pub fn evaluate(
        &self,
        view: &RelevantView,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
        scope: Option<&[bool]>,
    ) -> Result<f64> {
        Ok(self.value_of(self.evaluate_parts(view, updates, when, scope)?))
    }

    /// The query value of its `(numerator, denominator)` parts.
    fn value_of(&self, (numerator, denominator): (f64, f64)) -> f64 {
        match self.agg {
            AggFunc::Avg => {
                if denominator == 0.0 {
                    0.0
                } else {
                    numerator / denominator
                }
            }
            _ => numerator,
        }
    }

    /// The values of many single-column `Set` updates over the same masks:
    /// for each `(column, functions)` of `attrs`, every function a `Set`,
    /// the value of updating that column alone by each function,
    /// `to_bits`-equal to [`CausalEstimator::evaluate`] of that update
    /// (errors included).
    ///
    /// Without a peer summary, the affected groups and the unaffected fold
    /// do not depend on the update, and under a `Set` neither do the keys:
    /// every value sets the column to one point, so the projection classes
    /// over the other features are the keys whatever the value. So the
    /// support, groups and fold are computed once, and per column the
    /// classes and their gathered representatives once; each `Set`
    /// encodes those representatives with its value. The rows of every
    /// candidate are predicted in one batch that walks each forest once
    /// per distinct split-bin key ([`RandomForest::predict_keyed`]), and
    /// each candidate adds its keys' `count × prediction` to its own copy
    /// of the fold. With a peer summary, whose means move with the value,
    /// each update is evaluated on its own.
    pub(crate) fn evaluate_candidates(
        &self,
        view: &RelevantView,
        attrs: &[(usize, &[UpdateFunc])],
        when: Option<&[bool]>,
        scope: Option<&[bool]>,
    ) -> Vec<Vec<Result<f64>>> {
        debug_assert!(
            (attrs.iter().flat_map(|(_, funcs)| *funcs)).all(|f| matches!(f, UpdateFunc::Set(_)))
        );
        if self.peer.is_some() {
            let one =
                |col: usize, f: &UpdateFunc| self.evaluate(view, &[(col, f.clone())], when, scope);
            return (attrs.iter())
                .map(|&(col, funcs)| funcs.iter().map(|f| one(col, f)).collect())
                .collect();
        }
        let table = &view.table;
        // What `evaluate_parts` computes before it reads the update.
        let shared = view.support_index(&self.feature_cols).and_then(|support| {
            let mut fold = Parts::default();
            let groups = self.affected_groups(table, &support, when, scope, &mut fold)?;
            Ok((support, groups, fold))
        });

        // Per candidate: its error, or the row range of its representatives
        // in the stacked batch `rows` and their counts in `totals`.
        let mut out: Vec<Vec<std::result::Result<std::ops::Range<usize>, EngineError>>> =
            Vec::with_capacity(attrs.len());
        let mut rows: Vec<f64> = Vec::new();
        let mut totals: Vec<u64> = Vec::new();
        for &(col, funcs) in attrs {
            let first = funcs.first().map(|f| [(col, f.clone())]);
            let checked = first.as_ref().map_or(Ok(()), |u| self.check_updates(u));
            let (support, groups, _) = match checked.and(shared.as_ref().map_err(Clone::clone)) {
                Ok(shared) => shared,
                Err(e) => {
                    out.push(funcs.iter().map(|_| Err(e.clone())).collect());
                    continue;
                }
            };
            let Some(first) = first.filter(|_| !groups.is_empty()) else {
                // No affected row: every value is the fold alone.
                out.push(funcs.iter().map(|_| Ok(0..0)).collect());
                continue;
            };
            let (reps, counts) = match self.key_groups(table, support, &first, when, None, groups) {
                Ok(keyed) => keyed,
                Err(e) => {
                    out.push(funcs.iter().map(|_| Err(e.clone())).collect());
                    continue;
                }
            };
            // The kept columns are gathered once; each candidate encodes the
            // representatives with its own value.
            let kept = self.gather_kept(table, &first, &reps);
            let mut ranges = Vec::with_capacity(funcs.len());
            for f in funcs {
                let updates = [(col, f.clone())];
                match self.encode_post(table, &updates, when, None, &reps, &kept) {
                    Ok(x) => rows.extend((0..x.rows()).flat_map(|i| x.row(i).iter().copied())),
                    Err(e) => {
                        ranges.push(Err(e));
                        continue;
                    }
                }
                let start = totals.len();
                totals.extend(&counts);
                ranges.push(Ok(start..totals.len()));
            }
            out.push(ranges);
        }

        let width = self.encoder.width();
        let batch = Matrix::from_vec(totals.len(), width, rows).expect("whole encoded rows");
        let predicted = self.predict_encoded(&batch, FittedModel::predict_keyed);
        (out.into_iter())
            .map(|ranges| {
                (ranges.into_iter())
                    .map(|range| {
                        let range = range?;
                        let (_, _, fold) = shared.as_ref().map_err(Clone::clone)?;
                        let mut parts = fold.clone();
                        for k in range {
                            predicted.add(k, totals[k], &mut parts);
                        }
                        Ok(self.value_of(parts.round()))
                    })
                    .collect()
            })
            .collect()
    }

    /// Decomposable parts of the query value: `(numerator, denominator)`.
    ///
    /// For `Count`/`Sum` the numerator *is* the result; for `Avg` the result
    /// is their ratio. Both parts are sums over scoped tuples, so they can
    /// be accumulated per independent block and recombined (Definition 6's
    /// `g = Sum`, Proposition 1). Each part is the correctly rounded exact
    /// sum of the per-row contributions (`ExactSum`), so it does not
    /// depend on the order of the rows.
    ///
    /// Evaluation runs over the §3.3 support, not the rows:
    /// 1. The affected rows are grouped by their cell in the view's
    ///    `SupportIndex` over the feature columns (with a peer summary,
    ///    also by `When` bit and post-update peer mean); rows of a group
    ///    have identical post-update features. With no `When`, no `For`
    ///    and no peer summary, every row is affected and the groups are the
    ///    cells: their first rows and counts come from the index, and no
    ///    row is visited. Otherwise one pass over the scoped rows counts
    ///    the groups and adds every unaffected row's deterministic
    ///    contribution.
    /// 2. Groups are keyed by their cell's projection class over the
    ///    non-updated features (`SupportIndex::projection`, cached on the
    ///    index), plus what else still varies: the post-update value of a
    ///    `Scale`/`Shift` column, the whole cell for an un-`When`'d row
    ///    (post = pre, only with a peer summary), and the post peer mean.
    ///    Groups with one key have one post-update feature row; no encoded
    ///    row is hashed.
    /// 3. The post-update feature columns are assembled and encoded for one
    ///    representative per key, and predicted in **one batch** per model.
    /// 4. Each key adds `(Σ counts of its groups) × prediction` exactly, in
    ///    O(keys). A prediction is a function of the encoded row and the
    ///    exact sum does not depend on grouping, so the parts equal the
    ///    row-at-a-time sum bit for bit.
    pub fn evaluate_parts(
        &self,
        view: &RelevantView,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
        scope: Option<&[bool]>,
    ) -> Result<(f64, f64)> {
        self.check_updates(updates)?;
        let table = &view.table;
        let peer_post = self.peer_post_means(table, updates, when)?;
        let support = view.support_index(&self.feature_cols)?;
        let mut parts = Parts::default();

        let groups = match &peer_post {
            None => self.affected_groups(table, &support, when, scope, &mut parts)?,
            Some(post) => {
                // The `When` bit and the post peer mean refine a cell.
                let mut groups: Vec<(usize, u64)> = Vec::new();
                let mut group_of: HashMap<(usize, bool, u64), u32> = HashMap::new();
                self.fold_unaffected(table, when, scope, Some(post), &mut parts, |i| {
                    let key = (support.cell(i), holds(when, i), post[i].to_bits());
                    let g = *group_of.entry(key).or_insert_with(|| {
                        groups.push((i, 0));
                        groups.len() as u32 - 1
                    });
                    groups[g as usize].1 += 1;
                })?;
                groups
            }
        };
        if !groups.is_empty() {
            let (reps, totals) = self.key_groups(
                table,
                &support,
                updates,
                when,
                peer_post.as_deref(),
                &groups,
            )?;
            let predicted = self.predict_rows(table, updates, when, peer_post.as_deref(), &reps)?;
            for (k, &total) in totals.iter().enumerate() {
                predicted.add(k, total, &mut parts);
            }
        }
        Ok(parts.round())
    }

    /// The affected rows of a what-if with no peer summary, grouped by
    /// support cell as `(first row, rows)`, with every unaffected row's
    /// contribution added to `parts`. With no `When` and no `For` every
    /// row is affected and the groups are the cells, read off the index
    /// without visiting a row; otherwise one pass over the scoped rows
    /// counts them (every affected row is in `When`, so a group is a
    /// cell, a direct index).
    fn affected_groups(
        &self,
        table: &Table,
        support: &SupportIndex,
        when: Option<&[bool]>,
        scope: Option<&[bool]>,
        parts: &mut Parts,
    ) -> Result<Vec<(usize, u64)>> {
        if when.is_none() && scope.is_none() {
            let firsts = support.first_rows().iter().map(|&i| i as usize);
            return Ok(firsts
                .zip(support.counts().iter().map(|&c| u64::from(c)))
                .collect());
        }
        let mut groups: Vec<(usize, u64)> = Vec::new();
        let mut group_of_cell: Vec<u32> = vec![u32::MAX; support.cells()];
        self.fold_unaffected(table, when, scope, None, parts, |i| {
            let slot = &mut group_of_cell[support.cell(i)];
            if *slot == u32::MAX {
                *slot = groups.len() as u32;
                groups.push((i, 0));
            }
            groups[*slot as usize].1 += 1;
        })?;
        Ok(groups)
    }

    /// Key `groups` (each `(first row, rows)`, of identical post-update
    /// features) by what fixes their post-update features, and return one
    /// representative row per key with the key's total row count. Keys
    /// never merge rows whose raw post-update features differ, so rows of
    /// one key encode, and so predict, identically.
    fn key_groups(
        &self,
        table: &Table,
        support: &SupportIndex,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
        peer_post: Option<&[f64]>,
        groups: &[(usize, u64)],
    ) -> Result<(Vec<usize>, Vec<u64>)> {
        let kept: Vec<usize> = (self.feature_cols.iter().copied())
            .filter(|&c| func_of(updates, c).is_none())
            .collect();
        let projection = support.projection(table, &kept);
        // Updated columns whose post value depends on the row's own value.
        let moving: Vec<(&Column, &UpdateFunc)> = updates
            .iter()
            .filter(|(_, f)| !matches!(f, UpdateFunc::Set(_)))
            .map(|(c, f)| (table.column(*c), f))
            .collect();
        let mut reps: Vec<usize> = Vec::new();
        let mut totals: Vec<u64> = Vec::new();
        let mut key_of = |row: usize, count: u64, slot: &mut u32| {
            if *slot == u32::MAX {
                *slot = reps.len() as u32;
                reps.push(row);
                totals.push(0);
            }
            totals[*slot as usize] += count;
        };
        if moving.is_empty() && peer_post.is_none() {
            // Every affected row is in `When` and every update a `Set`: the
            // class alone fixes the post-update features.
            let mut slot_of_class = vec![u32::MAX; projection.classes()];
            for &(row, count) in groups {
                key_of(
                    row,
                    count,
                    &mut slot_of_class[projection.class(support.cell(row))],
                );
            }
            return Ok((reps, totals));
        }
        // Fixed-width keys `[class, When bit, cell, moving posts…, peer]`:
        // a `When` row zeroes `cell`, an un-`When`'d one (post = pre, so
        // its cell fixes every feature) zeroes `class` and the posts.
        let width = 4 + moving.len();
        let mut flat: Vec<u64> = Vec::with_capacity(groups.len() * width);
        for &(row, _) in groups {
            let cell = support.cell(row);
            if holds(when, row) {
                flat.extend([projection.class(cell) as u64, 1, 0]);
                for (src, func) in &moving {
                    flat.push(match apply_update(func, &src.value(row))? {
                        Value::Float(post) => post.to_bits(),
                        other => unreachable!("Scale/Shift produced {other:?}"),
                    });
                }
            } else {
                flat.extend([0, 0, cell as u64]);
                flat.extend(std::iter::repeat_n(0, moving.len()));
            }
            flat.push(peer_post.map_or(0, |post| post[row].to_bits()));
        }
        let mut slot_of_key: HashMap<&[u64], u32> = HashMap::with_capacity(groups.len());
        for (key, &(row, count)) in flat.chunks_exact(width).zip(groups) {
            key_of(row, count, slot_of_key.entry(key).or_insert(u32::MAX));
        }
        Ok((reps, totals))
    }

    /// Row-at-a-time reference for [`CausalEstimator::evaluate_parts`]:
    /// the sum of [`CausalEstimator::row_contributions`], added one row at
    /// a time.
    #[cfg(test)]
    pub(crate) fn evaluate_parts_rowwise(
        &self,
        view: &RelevantView,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
        scope: Option<&[bool]>,
    ) -> Result<(f64, f64)> {
        let mut parts = Parts::default();
        for (numerator, denominator) in self.row_contributions(view, updates, when, scope)? {
            parts.numerator.add(numerator);
            parts.denominator.add(denominator);
        }
        Ok(parts.round())
    }

    /// Every scoped row's `(numerator, denominator)` contribution, with the
    /// post-update features of every affected row assembled, encoded and
    /// predicted; unaffected rows whose ψ fails contribute nothing.
    #[cfg(test)]
    pub(crate) fn row_contributions(
        &self,
        view: &RelevantView,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
        scope: Option<&[bool]>,
    ) -> Result<Vec<(f64, f64)>> {
        self.check_updates(updates)?;
        let table = &view.table;
        let peer_post = self.peer_post_means(table, updates, when)?;
        let mut affected: Vec<usize> = Vec::new();
        let mut out: Vec<(f64, f64)> = Vec::new();
        for i in (0..table.num_rows()).filter(|&i| holds(scope, i)) {
            if self.is_affected(i, when, peer_post.as_deref()) {
                affected.push(i);
            } else if let Some(v) = self.unaffected_value(table, i)? {
                out.push((v, 1.0));
            }
        }
        if !affected.is_empty() {
            let p = self.predict_rows(table, updates, when, peer_post.as_deref(), &affected)?;
            out.extend(
                (0..affected.len()).map(|k| (p.nums[k], p.dens.as_ref().map_or(1.0, |d| d[k]))),
            );
        }
        Ok(out)
    }

    /// Reject updates of columns that are not features of this estimator,
    /// and, with a peer summary, updates that leave its column alone.
    fn check_updates(&self, updates: &[(usize, UpdateFunc)]) -> Result<()> {
        let features = updates
            .iter()
            .all(|(c, _)| self.feature_cols.binary_search(c).is_ok());
        let peer = self
            .peer
            .as_ref()
            .is_none_or(|(p, _, _)| func_of(updates, p.update_col).is_some());
        if features && peer {
            return Ok(());
        }
        Err(EngineError::Plan(format!(
            "estimator over feature columns {:?} cannot evaluate an update of {:?}",
            self.feature_cols,
            updates.iter().map(|(c, _)| *c).collect::<Vec<_>>()
        )))
    }

    /// Post-update peer means per view row (summary features see the
    /// updated world); `None` without a peer summary.
    fn peer_post_means(
        &self,
        table: &Table,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
    ) -> Result<Option<Vec<f64>>> {
        let Some((p, _, _)) = &self.peer else {
            return Ok(None);
        };
        let update_col = table.column(p.update_col);
        let func = func_of(updates, p.update_col).expect("peer summary over an updated column");
        let mut post_vals = Vec::with_capacity(table.num_rows());
        for i in 0..table.num_rows() {
            let v = if holds(when, i) {
                apply_update(func, &update_col.value(i))?
            } else {
                update_col.value(i)
            };
            post_vals.push(v.as_f64().unwrap_or(0.0));
        }
        Ok(Some(p.peer_means(table.column(p.group_col), &post_vals)))
    }

    /// Is row `i` affected by the update: in `When`, or moved through a
    /// changed peer mean? Pre and post means come from the same fold, so
    /// an untouched group's mean keeps its bits and any change, however
    /// small, shows.
    fn is_affected(&self, i: usize, when: Option<&[bool]>, peer_post: Option<&[f64]>) -> bool {
        holds(when, i)
            || match (&self.peer, peer_post) {
                (Some((_, pre_means, _)), Some(post_means)) => {
                    pre_means[i].to_bits() != post_means[i].to_bits()
                }
                _ => false,
            }
    }

    /// The deterministic contribution of unaffected row `i` (post = pre):
    /// `None` when ψ fails, else Y (Sum/Avg) or 1 (Count).
    fn unaffected_value(&self, table: &Table, i: usize) -> Result<Option<f64>> {
        let sat = match &self.psi {
            Some(p) => p.eval_bool_at(table, table, i)?,
            None => true,
        };
        if !sat {
            return Ok(None);
        }
        match (self.agg, &self.y) {
            (AggFunc::Count, _) => Ok(Some(1.0)),
            (_, Some(yv)) => yv
                .eval_at(table, table, i)?
                .as_f64()
                .map(Some)
                .ok_or_else(|| EngineError::Plan("Output expression is not numeric".into())),
            _ => unreachable!(),
        }
    }

    /// Walk the scoped rows in order: add each unaffected row's
    /// deterministic contribution to `parts` (Count rows and the
    /// denominator as an integer count) and hand each affected row to
    /// `on_affected`.
    fn fold_unaffected(
        &self,
        table: &Table,
        when: Option<&[bool]>,
        scope: Option<&[bool]>,
        peer_post: Option<&[f64]>,
        parts: &mut Parts,
        mut on_affected: impl FnMut(usize),
    ) -> Result<()> {
        let mut satisfied = 0u64;
        for i in (0..table.num_rows()).filter(|&i| holds(scope, i)) {
            if self.is_affected(i, when, peer_post) {
                on_affected(i);
            } else if let Some(v) = self.unaffected_value(table, i)? {
                satisfied += 1;
                if self.agg != AggFunc::Count {
                    parts.numerator.add(v);
                }
            }
        }
        if self.agg == AggFunc::Count {
            parts.numerator.add_scaled(satisfied, 1.0);
        }
        parts.denominator.add_scaled(satisfied, 1.0);
        Ok(())
    }

    /// Predict the post-update world of `rows`: assemble their post-update
    /// feature columns, encode them, and batch-predict every row once per
    /// model (the caller passes one row per distinct post-update row).
    fn predict_rows(
        &self,
        table: &Table,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
        peer_post: Option<&[f64]>,
        rows: &[usize],
    ) -> Result<Predictions> {
        let kept = self.gather_kept(table, updates, rows);
        let x = self.encode_post(table, updates, when, peer_post, rows, &kept)?;
        Ok(self.predict_encoded(&x, FittedModel::predict))
    }

    /// The non-updated feature columns gathered at `rows`, aligned with
    /// the feature columns (`None` at an updated one).
    fn gather_kept(
        &self,
        table: &Table,
        updates: &[(usize, UpdateFunc)],
        rows: &[usize],
    ) -> Vec<Option<Column>> {
        (self.feature_cols.iter())
            .map(|&c| {
                func_of(updates, c)
                    .is_none()
                    .then(|| table.column(c).gather(rows))
            })
            .collect()
    }

    /// The encoded post-update features of `rows`, whose non-updated
    /// features `kept` holds ([`CausalEstimator::gather_kept`]).
    fn encode_post(
        &self,
        table: &Table,
        updates: &[(usize, UpdateFunc)],
        when: Option<&[bool]>,
        peer_post: Option<&[f64]>,
        rows: &[usize],
        kept: &[Option<Column>],
    ) -> Result<Matrix> {
        // Non-updated features are a typed gather; updated features are
        // rebuilt with the update applied where `When` holds (re-typed, as
        // e.g. scaling an integer column produces floats). When a `Set`
        // update mixes value types within one column (e.g. a string
        // literal over a numeric column, or peer-affected rows keeping
        // their pre values), no single column type fits — fall back to
        // per-row encoding, which handles heterogeneous values exactly
        // like the row-oriented evaluator did.
        let mut post_cols: Vec<Option<Column>> = vec![None; self.feature_cols.len()];
        let mut post_value_cols: Vec<Option<Vec<Value>>> = vec![None; self.feature_cols.len()];
        let mut typed_ok = true;
        for (k, &c) in self.feature_cols.iter().enumerate() {
            let Some(func) = func_of(updates, c) else {
                continue;
            };
            let src = table.column(c);
            // Typed kernel first: the common numeric / in-dictionary
            // updates build the post column straight off the typed
            // buffers. Falls back to per-row `Value`s when the update
            // mixes types or touches NULLs.
            if let Some(col) = post_update_column(src, func, rows, when) {
                post_cols[k] = Some(col);
                continue;
            }
            let mut post_vals = Vec::with_capacity(rows.len());
            for &i in rows {
                let v = src.value(i);
                post_vals.push(if holds(when, i) {
                    apply_update(func, &v)?
                } else {
                    v
                });
            }
            match Column::from_values_inferred(&post_vals) {
                Ok(col) => post_cols[k] = Some(col),
                Err(_) => typed_ok = false,
            }
            post_value_cols[k] = Some(post_vals);
        }
        let mut x = if typed_ok {
            let col_refs: Vec<&Column> = (post_cols.iter().zip(kept))
                .map(|(post, kept)| {
                    post.as_ref()
                        .or(kept.as_ref())
                        .expect("every feature is kept or updated")
                })
                .collect();
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
                            Some(func) if holds(when, i) => {
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
        Ok(x)
    }

    /// Predict every row of `x` with each model through `predict`
    /// (clamped to `[0, 1]` where the value is a probability).
    fn predict_encoded(
        &self,
        x: &Matrix,
        predict: impl Fn(&FittedModel, &Matrix) -> Vec<f64>,
    ) -> Predictions {
        let mut nums = predict(&self.model, x);
        if self.agg == AggFunc::Count {
            for v in &mut nums {
                *v = v.clamp(0.0, 1.0);
            }
        }
        let dens: Option<Vec<f64>> = self.denom_model.as_ref().map(|m| {
            let mut d = predict(m, x);
            for v in &mut d {
                *v = v.clamp(0.0, 1.0);
            }
            d
        });
        Predictions { nums, dens }
    }
}

/// Exact running `(numerator, denominator)` of a what-if value.
#[derive(Default, Clone)]
struct Parts {
    numerator: ExactSum,
    denominator: ExactSum,
}

impl Parts {
    /// Both sums, each rounded once.
    fn round(&self) -> (f64, f64) {
        (self.numerator.round(), self.denominator.round())
    }
}

/// Batch predictions for a list of rows, in row order.
struct Predictions {
    /// Numerator model predictions (clamped to `[0, 1]` for Count).
    nums: Vec<f64>,
    /// Avg denominator model predictions (clamped), when that model
    /// exists; otherwise every row counts 1.
    dens: Option<Vec<f64>>,
}

impl Predictions {
    /// Add `count` rows predicted like row `k` to `parts`.
    fn add(&self, k: usize, count: u64, parts: &mut Parts) {
        parts.numerator.add_scaled(count, self.nums[k]);
        let denominator = self.dens.as_ref().map_or(1.0, |d| d[k]);
        parts.denominator.add_scaled(count, denominator);
    }
}

/// The feature columns of an estimator: the updated and adjustment columns
/// as one set, ascending (view-column order). The update order does not
/// enter, so every update over the same feature set fits the same model.
pub(crate) fn feature_set(update_cols: &[usize], backdoor_cols: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> = update_cols.iter().chain(backdoor_cols).copied().collect();
    cols.sort_unstable();
    cols.dedup();
    cols
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
    when: Option<&[bool]>,
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
                    if holds(when, i) {
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
                .map(|&i| if holds(when, i) { *v } else { values[i] })
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
                    .map(|&i| if holds(when, i) { code } else { codes[i] })
                    .collect(),
                dict: Arc::clone(dict),
                nulls: all_valid,
            })
        }
        _ => None,
    }
}

/// The sampled training rows `idx` of the matrix and both target vectors.
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
