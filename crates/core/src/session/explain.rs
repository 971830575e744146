//! `EXPLAIN` for hypothetical queries: the static plan a session would (or
//! did) use to answer a query, with per-artifact cache provenance.
//!
//! [`HyperSession::explain`] resolves the relevant view (through the
//! cache — a cold explain builds it, exactly as `prepare` would), then
//! *plans* the rest without executing: the Prop.-1 block decomposition
//! size, the chosen backdoor adjustment set, the estimator configuration
//! and cache key. Nothing is trained — the estimator's provenance reports
//! [`Provenance::WouldBuild`] when a subsequent execution would have to
//! fit it.
//!
//! Every field except the provenance markers is a pure function of
//! (database, graph, config, query), so a report is identical on a cold
//! and a warm cache apart from provenance — asserted by the session test
//! suite and usable as a regression oracle.

use std::fmt;
use std::time::Instant;

use hyper_query::{HypotheticalQuery, QueryKey, UseClause};
use hyper_trace::{Phase, TraceSnapshot, TraceTree};

use crate::config::EstimatorKind;
use crate::error::Result;
use crate::session::{ArtifactCache, HyperSession, IntoQuery};
use crate::whatif::plan_whatif;

/// Where an artifact stands in the session cache at explain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Already cached; execution reuses it for free.
    Hit,
    /// Not cached; explain built it (views only — view row counts require
    /// the view).
    Miss,
    /// Not cached and not built by explain; the next execution builds it.
    WouldBuild,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Hit => write!(f, "hit"),
            Provenance::Miss => write!(f, "miss"),
            Provenance::WouldBuild => write!(f, "would-build"),
        }
    }
}

/// Which query kind the report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// What-if (§3).
    WhatIf,
    /// How-to (§4).
    HowTo,
}

/// The relevant-view part of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewPlan {
    /// Canonical cache key of the `Use` clause.
    pub key: QueryKey,
    /// Source tables (the `Use` table, or the select's `From` list).
    pub source_tables: Vec<String>,
    /// Rendered `Where` predicate of an embedded select, if any.
    pub predicate: Option<String>,
    /// Materialized view rows.
    pub rows: usize,
    /// View columns.
    pub columns: usize,
    /// Cache provenance.
    pub provenance: Provenance,
}

/// The Prop.-1 block-decomposition part of the plan (present when a causal
/// graph is bound and the `Use` clause is a single table).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Number of mutually independent blocks.
    pub count: usize,
    /// Cache provenance.
    pub provenance: Provenance,
}

/// The estimator part of a what-if plan (absent on the deterministic fast
/// path, where post values are fully determined by the update functions).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorPlan {
    /// Estimator family.
    pub kind: EstimatorKind,
    /// Forest size.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Training-row cap (HypeR-sampled).
    pub sample_cap: Option<usize>,
    /// Training seed.
    pub seed: u64,
    /// Full estimator cache key (view ⊕ update columns ⊕ output ⊕ for ⊕
    /// adjustment ⊕ config).
    pub key: String,
    /// Cache provenance (never `Miss`: explain does not train).
    pub provenance: Provenance,
}

/// The how-to part of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct HowToPlan {
    /// Attributes the optimizer may update.
    pub update_attrs: Vec<String>,
    /// Buckets per continuous attribute (candidate discretization).
    pub buckets: usize,
    /// Budget on simultaneously updated attributes.
    pub max_attrs_updated: Option<usize>,
    /// Number of `Limit` constraints.
    pub limits: usize,
}

/// One phase's measured share of an analyzed execution: **exclusive**
/// (self) time — nested spans subtract — plus the number of spans
/// entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Which phase.
    pub phase: Phase,
    /// Exclusive time, nanoseconds.
    pub self_ns: u64,
    /// Spans entered.
    pub count: u64,
}

/// Measured per-phase timings of one traced execution
/// ([`HyperSession::explain_analyze`]). Exclusive times partition the
/// span tree, so [`QueryTimings::total_ns`] (their sum) equals the
/// traced wall time on a single-threaded runtime; with pool workers it
/// is a CPU-time-like sum and can exceed [`QueryTimings::wall_ns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTimings {
    /// Wall-clock time of the analyzed execution, nanoseconds.
    pub wall_ns: u64,
    /// Phases that recorded any time or spans, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseTiming>,
}

impl QueryTimings {
    /// Build from a trace snapshot plus the separately measured wall time.
    pub(crate) fn from_snapshot(snap: &TraceSnapshot, wall_ns: u64) -> QueryTimings {
        let phases = Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let (self_ns, count) = (snap.self_ns(phase), snap.count(phase));
                (self_ns != 0 || count != 0).then_some(PhaseTiming {
                    phase,
                    self_ns,
                    count,
                })
            })
            .collect();
        QueryTimings { wall_ns, phases }
    }

    /// Sum of the per-phase exclusive times (the attributed total).
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// Exclusive time of `phase`, nanoseconds (0 when absent).
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0, |p| p.self_ns)
    }
}

/// A structured query plan: what a session would do to answer the query,
/// and which parts are already cached. Render with `Display` for the
/// textual form.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// Query kind.
    pub kind: QueryKind,
    /// Canonical query text (rendering of the IR).
    pub query: String,
    /// Canonical structural key of the whole query.
    pub key: QueryKey,
    /// Relevant-view plan.
    pub view: ViewPlan,
    /// Block-decomposition plan, when applicable.
    pub blocks: Option<BlockPlan>,
    /// Chosen backdoor adjustment columns (empty when deterministic or
    /// under `BackdoorMode::None`).
    pub adjustment: Vec<String>,
    /// True when the what-if answer is fully determined by the update
    /// functions (no estimator is trained at all).
    pub deterministic: bool,
    /// Estimator plan (what-if, non-deterministic only).
    pub estimator: Option<EstimatorPlan>,
    /// How-to plan (how-to only).
    pub howto: Option<HowToPlan>,
    /// Delta version of the session's database snapshot: 0 for a freshly
    /// built session, incremented by each [`HyperSession::refresh`].
    pub data_version: u64,
    /// Measured per-phase durations — present only on reports from
    /// [`HyperSession::explain_analyze`], which executes the query under
    /// tracing; plain [`HyperSession::explain`] leaves this `None`.
    pub timings: Option<QueryTimings>,
}

impl ExplainReport {
    /// A copy with every provenance marker cleared to
    /// [`Provenance::WouldBuild`]: two reports for the same query on the
    /// same session compare equal under this normalization regardless of
    /// cache warmth.
    pub fn normalized(&self) -> ExplainReport {
        let mut out = self.clone();
        out.view.provenance = Provenance::WouldBuild;
        if let Some(b) = &mut out.blocks {
            b.provenance = Provenance::WouldBuild;
        }
        if let Some(e) = &mut out.estimator {
            e.provenance = Provenance::WouldBuild;
        }
        // Timings are a measurement, not part of the plan.
        out.timings = None;
        out
    }
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "explain {}: {}",
            match self.kind {
                QueryKind::WhatIf => "what-if",
                QueryKind::HowTo => "how-to",
            },
            self.query
        )?;
        writeln!(f, "  data version: {}", self.data_version)?;
        write!(
            f,
            "  view: tables=[{}] rows={} cols={}",
            self.view.source_tables.join(", "),
            self.view.rows,
            self.view.columns
        )?;
        if let Some(p) = &self.view.predicate {
            write!(f, " where \"{p}\"")?;
        }
        writeln!(f, " [{}]", self.view.provenance)?;
        match &self.blocks {
            Some(b) => writeln!(f, "  blocks: {} [{}]", b.count, b.provenance)?,
            None => writeln!(f, "  blocks: n/a")?,
        }
        if self.deterministic {
            writeln!(
                f,
                "  deterministic: post values fully determined by the update; no estimator"
            )?;
        } else if self.kind == QueryKind::WhatIf {
            writeln!(f, "  adjustment set: [{}]", self.adjustment.join(", "))?;
        }
        if let Some(e) = &self.estimator {
            writeln!(
                f,
                "  estimator: {:?} trees={} depth={} cap={:?} seed={} [{}]",
                e.kind, e.n_trees, e.max_depth, e.sample_cap, e.seed, e.provenance
            )?;
        }
        if let Some(h) = &self.howto {
            writeln!(
                f,
                "  how-to: update=[{}] buckets={} attr_budget={:?} limits={}",
                h.update_attrs.join(", "),
                h.buckets,
                h.max_attrs_updated,
                h.limits
            )?;
        }
        if let Some(t) = &self.timings {
            writeln!(
                f,
                "  timings: attributed={} wall={}",
                fmt_ns(t.total_ns()),
                fmt_ns(t.wall_ns)
            )?;
            for p in &t.phases {
                writeln!(
                    f,
                    "    {}: {} ({} span{})",
                    p.phase.name(),
                    fmt_ns(p.self_ns),
                    p.count,
                    if p.count == 1 { "" } else { "s" }
                )?;
            }
        }
        Ok(())
    }
}

/// Human-scale duration: nanoseconds rendered at the natural unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl HyperSession {
    /// Explain how this session would evaluate a query, without training
    /// anything: the relevant-view source and size, the Prop.-1 block
    /// count, the chosen backdoor adjustment set, the estimator
    /// configuration, and per-artifact cache provenance
    /// (hit / miss / would-build).
    ///
    /// Accepts the same inputs as [`HyperSession::prepare`]. The relevant
    /// view is resolved through the cache (a cold explain builds it — that
    /// is the one `miss` a report can contain); the estimator is only
    /// looked up, never fitted. Every field except the provenance markers
    /// is deterministic in (database, graph, config, query), so reports
    /// from a cold and a warm session agree after
    /// [`ExplainReport::normalized`].
    pub fn explain(&self, input: impl IntoQuery) -> Result<ExplainReport> {
        let query = self.resolve_input(input)?;
        let cache = &self.inner.cache;
        let config = self.config().clone();

        // Relevant view (the only artifact explain may build).
        let use_clause = query.use_clause().clone();
        let view_cached = cache.has_view(ArtifactCache::view_key(&use_clause).as_str());
        let (view, view_key) = cache.view(self.database(), &use_clause)?;
        let (source_tables, predicate) = describe_use(&use_clause);
        let view_plan = ViewPlan {
            key: view_key.clone(),
            source_tables,
            predicate,
            rows: view.table.num_rows(),
            columns: view.table.schema().len(),
            provenance: if view_cached {
                Provenance::Hit
            } else {
                Provenance::Miss
            },
        };

        // Prop.-1 block decomposition: available exactly when a graph is
        // bound and the view is a single base relation (blocks are sets of
        // base-table rows; ingest invalidation keys on them).
        let blocks = match (self.graph(), &use_clause) {
            (Some(g), UseClause::Table(_)) => {
                let cached = cache.has_blocks();
                let decomposition = cache.blocks(self.database(), g)?;
                Some(BlockPlan {
                    count: decomposition.num_blocks(),
                    provenance: if cached {
                        Provenance::Hit
                    } else {
                        Provenance::Miss
                    },
                })
            }
            _ => None,
        };

        match &query {
            HypotheticalQuery::WhatIf(q) => {
                let plan = plan_whatif(
                    self.database(),
                    self.graph(),
                    &config,
                    q,
                    &view,
                    view_key.as_str(),
                )?;
                let estimator = plan.estimator_key.map(|key| EstimatorPlan {
                    kind: config.estimator,
                    n_trees: config.n_trees,
                    max_depth: config.max_depth,
                    sample_cap: config.sample_cap,
                    seed: config.seed,
                    provenance: if cache.has_estimator(&key) {
                        Provenance::Hit
                    } else {
                        Provenance::WouldBuild
                    },
                    key,
                });
                Ok(ExplainReport {
                    kind: QueryKind::WhatIf,
                    query: query.to_string(),
                    key: QueryKey::of_query(&query),
                    view: view_plan,
                    blocks,
                    adjustment: plan.backdoor,
                    deterministic: !plan.needs_estimation,
                    estimator,
                    howto: None,
                    data_version: self.inner.data_version,
                    timings: None,
                })
            }
            HypotheticalQuery::HowTo(q) => {
                let opts = self.howto_options();
                Ok(ExplainReport {
                    kind: QueryKind::HowTo,
                    query: query.to_string(),
                    key: QueryKey::of_query(&query),
                    view: view_plan,
                    blocks,
                    adjustment: Vec::new(),
                    deterministic: false,
                    estimator: None,
                    howto: Some(HowToPlan {
                        update_attrs: q.update_attrs.clone(),
                        buckets: opts.buckets,
                        max_attrs_updated: opts.max_attrs_updated,
                        limits: q.limits.len(),
                    }),
                    data_version: self.inner.data_version,
                    timings: None,
                })
            }
        }
    }
}

impl HyperSession {
    /// `EXPLAIN ANALYZE`: execute the query under a dedicated trace, then
    /// return the plan report with [`ExplainReport::timings`] populated
    /// from the measured span tree — each plan step annotated with the
    /// phase time it actually cost, and provenance reflecting the
    /// post-execution cache (a second analyze shows the estimator as a
    /// hit and near-zero `forest_train` time).
    ///
    /// Works regardless of the session's tracing switch; the trace lives
    /// only for this call, and its totals are folded into the cumulative
    /// [`super::SessionStats`] timing counters like any traced query.
    pub fn explain_analyze(&self, input: impl IntoQuery) -> Result<ExplainReport> {
        let query = self.resolve_input(input)?;
        let tree = TraceTree::new();
        let started = Instant::now();
        let run = hyper_trace::with_trace(&tree, || {
            let _root = hyper_trace::span(Phase::Execute);
            match &query {
                HypotheticalQuery::WhatIf(q) => self.whatif(q).map(drop),
                HypotheticalQuery::HowTo(q) => self.howto(q).map(drop),
            }
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        run?;
        let snap = tree.snapshot();
        self.fold_trace(&snap);
        let mut report = self.explain(&query)?;
        report.timings = Some(QueryTimings::from_snapshot(&snap, wall_ns));
        Ok(report)
    }
}

/// Source tables and rendered predicate of a `Use` clause.
fn describe_use(u: &UseClause) -> (Vec<String>, Option<String>) {
    match u {
        UseClause::Table(t) => (vec![t.clone()], None),
        UseClause::Select(s) => {
            let tables = s.from.iter().map(|t| t.table.clone()).collect();
            let predicate = if s.conditions.is_empty() {
                None
            } else {
                Some(
                    s.conditions
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(" And "),
                )
            };
            (tables, predicate)
        }
    }
}
