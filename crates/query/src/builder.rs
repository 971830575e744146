//! Typed, fluent construction of hypothetical queries.
//!
//! The builders produce exactly the ASTs the parser yields — validated by
//! the same [`crate::validate`](mod@crate::validate) rules at [`WhatIf::build`] /
//! [`HowTo::build`] — so programmatic callers compose queries without
//! rendering and re-parsing text, and a built query and its parsed
//! rendering are interchangeable everywhere (including cache keys:
//! `parse(display(built)) == built`, property-tested in this crate).
//!
//! ```
//! use hyper_query::{HExpr, WhatIf, HowTo};
//! use hyper_storage::AggFunc;
//!
//! // Figure 4, programmatically.
//! let whatif = WhatIf::over("product")
//!     .when(HExpr::attr("brand").eq("Asus"))
//!     .scale("price", 1.1)
//!     .output_avg_post("rating")
//!     .filter(HExpr::pre("category").eq("Laptop"))
//!     .build()
//!     .unwrap();
//! assert_eq!(whatif.updates.len(), 1);
//!
//! // Figure 5, programmatically.
//! let howto = HowTo::maximize(AggFunc::Avg, "rating")
//!     .over("product")
//!     .update("price")
//!     .limit_range("price", Some(500.0), Some(800.0))
//!     .limit_l1("price", 400.0)
//!     .build()
//!     .unwrap();
//! assert_eq!(howto.update_attrs, vec!["price"]);
//! ```

use hyper_storage::{AggFunc, Value};

use crate::ast::{
    Bound, HExpr, HOp, HowToQuery, LimitConstraint, ObjectiveConst, ObjectiveDirection,
    ObjectiveSpec, OutputArg, OutputSpec, ParamMode, SelectStmt, UpdateFunc, UpdateSpec, UseClause,
    WhatIfQuery,
};
use crate::error::{QueryError, Result};
use crate::validate::{validate_howto, validate_whatif};

impl HExpr {
    /// `self = value` comparison helper.
    pub fn eq(self, value: impl Into<Value>) -> HExpr {
        HExpr::binary(HOp::Eq, self, HExpr::Lit(value.into()))
    }

    /// `self <> value` comparison helper.
    pub fn ne(self, value: impl Into<Value>) -> HExpr {
        HExpr::binary(HOp::Ne, self, HExpr::Lit(value.into()))
    }

    /// `self < value` comparison helper.
    pub fn lt(self, value: impl Into<Value>) -> HExpr {
        HExpr::binary(HOp::Lt, self, HExpr::Lit(value.into()))
    }

    /// `self <= value` comparison helper.
    pub fn le(self, value: impl Into<Value>) -> HExpr {
        HExpr::binary(HOp::Le, self, HExpr::Lit(value.into()))
    }

    /// `self > value` comparison helper.
    pub fn gt(self, value: impl Into<Value>) -> HExpr {
        HExpr::binary(HOp::Gt, self, HExpr::Lit(value.into()))
    }

    /// `self >= value` comparison helper.
    pub fn ge(self, value: impl Into<Value>) -> HExpr {
        HExpr::binary(HOp::Ge, self, HExpr::Lit(value.into()))
    }

    /// `self In (values…)` membership helper.
    pub fn in_list<V: Into<Value>>(self, values: impl IntoIterator<Item = V>) -> HExpr {
        HExpr::InList {
            expr: Box::new(self),
            list: values.into_iter().map(Into::into).collect(),
            negated: false,
        }
    }

    /// Disjunction helper (`and` already exists on [`HExpr`]).
    pub fn or(self, other: HExpr) -> HExpr {
        HExpr::binary(HOp::Or, self, other)
    }
}

/// Fluent builder for probabilistic what-if queries (paper §3.1).
///
/// Start from [`WhatIf::over`] (a base table) or [`WhatIf::over_select`]
/// (an embedded `Use (Select …)`), chain clause methods in any order, and
/// finish with [`WhatIf::build`], which validates the same structural rules
/// the parser's queries go through.
#[derive(Debug, Clone)]
pub struct WhatIf {
    use_clause: UseClause,
    when: Option<HExpr>,
    updates: Vec<UpdateSpec>,
    output: Option<OutputSpec>,
    for_clause: Option<HExpr>,
}

impl WhatIf {
    /// `Use <table>`.
    pub fn over(table: impl Into<String>) -> WhatIf {
        WhatIf::over_clause(UseClause::Table(table.into()))
    }

    /// `Use (Select …)`.
    pub fn over_select(stmt: SelectStmt) -> WhatIf {
        WhatIf::over_clause(UseClause::Select(stmt))
    }

    /// Start from an existing `Use` clause (e.g. one taken from a parsed
    /// query, as the how-to optimizer does).
    pub fn over_clause(use_clause: UseClause) -> WhatIf {
        WhatIf {
            use_clause,
            when: None,
            updates: Vec::new(),
            output: None,
            for_clause: None,
        }
    }

    /// `When <predicate>` — selects the update set on pre-update values.
    pub fn when(mut self, pred: HExpr) -> WhatIf {
        self.when = Some(pred);
        self
    }

    /// Optional `When` (convenience for templating).
    pub fn maybe_when(mut self, pred: Option<HExpr>) -> WhatIf {
        self.when = pred;
        self
    }

    /// Add one `Update(attr) = f` specification; call repeatedly for
    /// multi-attribute updates.
    pub fn update(mut self, attr: impl Into<String>, func: UpdateFunc) -> WhatIf {
        self.updates.push(UpdateSpec {
            attr: attr.into(),
            func,
        });
        self
    }

    /// Replace the update list wholesale.
    pub fn updates(mut self, updates: Vec<UpdateSpec>) -> WhatIf {
        self.updates = updates;
        self
    }

    /// `Update(attr) = value`.
    pub fn set(self, attr: impl Into<String>, value: impl Into<Value>) -> WhatIf {
        self.update(attr, UpdateFunc::Set(value.into()))
    }

    /// `Update(attr) = factor * Pre(attr)`.
    pub fn scale(self, attr: impl Into<String>, factor: f64) -> WhatIf {
        self.update(attr, UpdateFunc::Scale(factor))
    }

    /// `Update(attr) = delta + Pre(attr)`.
    pub fn shift(self, attr: impl Into<String>, delta: f64) -> WhatIf {
        self.update(attr, UpdateFunc::Shift(delta))
    }

    /// `Update(attr) = Param(name)` — the set value is supplied per
    /// execution through a [`crate::Bindings`] map.
    pub fn set_param(self, attr: impl Into<String>, name: impl Into<String>) -> WhatIf {
        self.update(
            attr,
            UpdateFunc::Param {
                name: name.into(),
                mode: ParamMode::Set,
            },
        )
    }

    /// `Update(attr) = Param(name) * Pre(attr)`.
    pub fn scale_param(self, attr: impl Into<String>, name: impl Into<String>) -> WhatIf {
        self.update(
            attr,
            UpdateFunc::Param {
                name: name.into(),
                mode: ParamMode::Scale,
            },
        )
    }

    /// `Update(attr) = Param(name) + Pre(attr)`.
    pub fn shift_param(self, attr: impl Into<String>, name: impl Into<String>) -> WhatIf {
        self.update(
            attr,
            UpdateFunc::Param {
                name: name.into(),
                mode: ParamMode::Shift,
            },
        )
    }

    /// `Output <agg>(<arg>)`.
    pub fn output(mut self, agg: AggFunc, arg: OutputArg) -> WhatIf {
        self.output = Some(OutputSpec { agg, arg });
        self
    }

    /// `Output Count(*)`.
    pub fn output_count_star(self) -> WhatIf {
        self.output(AggFunc::Count, OutputArg::Star)
    }

    /// `Output Count(<predicate>)`.
    pub fn output_count(self, pred: HExpr) -> WhatIf {
        self.output(AggFunc::Count, OutputArg::Expr(pred))
    }

    /// `Output Avg(<expr>)`.
    pub fn output_avg(self, expr: HExpr) -> WhatIf {
        self.output(AggFunc::Avg, OutputArg::Expr(expr))
    }

    /// `Output Avg(Post(attr))` — the most common output shape.
    pub fn output_avg_post(self, attr: impl Into<String>) -> WhatIf {
        self.output_avg(HExpr::post(attr))
    }

    /// `Output Sum(<expr>)`.
    pub fn output_sum(self, expr: HExpr) -> WhatIf {
        self.output(AggFunc::Sum, OutputArg::Expr(expr))
    }

    /// `For <predicate>` — restricts the scope the output aggregates over.
    /// (Named `filter` because `for` is a Rust keyword.)
    pub fn filter(mut self, pred: HExpr) -> WhatIf {
        self.for_clause = Some(pred);
        self
    }

    /// Optional `For` (convenience for templating).
    pub fn maybe_filter(mut self, pred: Option<HExpr>) -> WhatIf {
        self.for_clause = pred;
        self
    }

    /// Finish: validate and return the query AST. Fails when no `Update`
    /// was given, no `Output` was given, or any structural rule of
    /// [`validate_whatif`] is violated — the same rules parsed queries
    /// satisfy.
    pub fn build(self) -> Result<WhatIfQuery> {
        let output = self.output.ok_or_else(|| {
            QueryError::Validation("what-if query has no Output; call .output(…)".into())
        })?;
        let q = WhatIfQuery {
            use_clause: self.use_clause,
            when: self.when,
            updates: self.updates,
            output,
            for_clause: self.for_clause,
        };
        validate_whatif(&q, None)?;
        Ok(q)
    }
}

/// Fluent builder for probabilistic how-to queries (paper §4.1).
///
/// Start from the objective — [`HowTo::maximize`] / [`HowTo::minimize`]
/// (or the predicate forms [`HowTo::maximize_count`] /
/// [`HowTo::minimize_count`]) — then name the relation with
/// [`HowTo::over`], the mutable attributes with [`HowTo::update`], and any
/// `Limit` constraints.
#[derive(Debug, Clone)]
pub struct HowTo {
    use_clause: Option<UseClause>,
    when: Option<HExpr>,
    update_attrs: Vec<String>,
    limits: Vec<LimitConstraint>,
    objective: ObjectiveSpec,
    for_clause: Option<HExpr>,
}

impl HowTo {
    fn with_objective(objective: ObjectiveSpec) -> HowTo {
        HowTo {
            use_clause: None,
            when: None,
            update_attrs: Vec::new(),
            limits: Vec::new(),
            objective,
            for_clause: None,
        }
    }

    /// `ToMaximize <agg>(Post(attr))`.
    pub fn maximize(agg: AggFunc, attr: impl Into<String>) -> HowTo {
        HowTo::with_objective(ObjectiveSpec {
            direction: ObjectiveDirection::Maximize,
            agg,
            attr: attr.into(),
            predicate: None,
        })
    }

    /// `ToMinimize <agg>(Post(attr))`.
    pub fn minimize(agg: AggFunc, attr: impl Into<String>) -> HowTo {
        HowTo::with_objective(ObjectiveSpec {
            direction: ObjectiveDirection::Minimize,
            agg,
            attr: attr.into(),
            predicate: None,
        })
    }

    /// `ToMaximize Count(Post(attr) <op> value)` — e.g. maximize the number
    /// of good-credit individuals.
    pub fn maximize_count(attr: impl Into<String>, op: HOp, value: impl Into<Value>) -> HowTo {
        HowTo::with_objective(ObjectiveSpec {
            direction: ObjectiveDirection::Maximize,
            agg: AggFunc::Count,
            attr: attr.into(),
            predicate: Some((op, ObjectiveConst::Lit(value.into()))),
        })
    }

    /// `ToMinimize Count(Post(attr) <op> value)`.
    pub fn minimize_count(attr: impl Into<String>, op: HOp, value: impl Into<Value>) -> HowTo {
        HowTo::with_objective(ObjectiveSpec {
            direction: ObjectiveDirection::Minimize,
            agg: AggFunc::Count,
            attr: attr.into(),
            predicate: Some((op, ObjectiveConst::Lit(value.into()))),
        })
    }

    /// `ToMaximize Count(Post(attr) <op> Param(name))`: the objective
    /// constant is a placeholder resolved per execution through
    /// [`crate::Bindings`], so one prepared template sweeps objective
    /// targets without re-preparing.
    pub fn maximize_count_param(
        attr: impl Into<String>,
        op: HOp,
        name: impl Into<String>,
    ) -> HowTo {
        HowTo::with_objective(ObjectiveSpec {
            direction: ObjectiveDirection::Maximize,
            agg: AggFunc::Count,
            attr: attr.into(),
            predicate: Some((op, ObjectiveConst::param(name))),
        })
    }

    /// `ToMinimize Count(Post(attr) <op> Param(name))`.
    pub fn minimize_count_param(
        attr: impl Into<String>,
        op: HOp,
        name: impl Into<String>,
    ) -> HowTo {
        HowTo::with_objective(ObjectiveSpec {
            direction: ObjectiveDirection::Minimize,
            agg: AggFunc::Count,
            attr: attr.into(),
            predicate: Some((op, ObjectiveConst::param(name))),
        })
    }

    /// `Use <table>`.
    pub fn over(mut self, table: impl Into<String>) -> HowTo {
        self.use_clause = Some(UseClause::Table(table.into()));
        self
    }

    /// `Use (Select …)`.
    pub fn over_select(mut self, stmt: SelectStmt) -> HowTo {
        self.use_clause = Some(UseClause::Select(stmt));
        self
    }

    /// Start from an existing `Use` clause.
    pub fn over_clause(mut self, use_clause: UseClause) -> HowTo {
        self.use_clause = Some(use_clause);
        self
    }

    /// `When <predicate>`.
    pub fn when(mut self, pred: HExpr) -> HowTo {
        self.when = Some(pred);
        self
    }

    /// Add one `HowToUpdate` attribute; call repeatedly for several.
    pub fn update(mut self, attr: impl Into<String>) -> HowTo {
        self.update_attrs.push(attr.into());
        self
    }

    /// Add an arbitrary `Limit` constraint.
    pub fn limit(mut self, constraint: LimitConstraint) -> HowTo {
        self.limits.push(constraint);
        self
    }

    /// `Limit lo <= Post(attr) <= hi` (either bound optional).
    pub fn limit_range(self, attr: impl Into<String>, lo: Option<f64>, hi: Option<f64>) -> HowTo {
        self.limit(LimitConstraint::Range {
            attr: attr.into(),
            lo: lo.map(Bound::Lit),
            hi: hi.map(Bound::Lit),
        })
    }

    /// `Limit lo <= Post(attr) <= hi` with [`Bound`]s, so either end can be
    /// a `Param(name)` placeholder swept through [`crate::Bindings`]:
    /// `limit_range_bounds("price", Some(Bound::param("lo")), Some(800.0.into()))`.
    pub fn limit_range_bounds(
        self,
        attr: impl Into<String>,
        lo: Option<Bound>,
        hi: Option<Bound>,
    ) -> HowTo {
        self.limit(LimitConstraint::Range {
            attr: attr.into(),
            lo,
            hi,
        })
    }

    /// `Limit Post(attr) In (values…)`.
    pub fn limit_in<V: Into<Value>>(
        self,
        attr: impl Into<String>,
        values: impl IntoIterator<Item = V>,
    ) -> HowTo {
        self.limit(LimitConstraint::InSet {
            attr: attr.into(),
            values: values.into_iter().map(Into::into).collect(),
        })
    }

    /// `Limit L1(Pre(attr), Post(attr)) <= bound`.
    pub fn limit_l1(self, attr: impl Into<String>, bound: f64) -> HowTo {
        self.limit(LimitConstraint::L1 {
            attr: attr.into(),
            bound: Bound::Lit(bound),
        })
    }

    /// `Limit L1(Pre(attr), Post(attr)) <= Param(name)`.
    pub fn limit_l1_param(self, attr: impl Into<String>, name: impl Into<String>) -> HowTo {
        self.limit(LimitConstraint::L1 {
            attr: attr.into(),
            bound: Bound::param(name),
        })
    }

    /// `For <predicate>`.
    pub fn filter(mut self, pred: HExpr) -> HowTo {
        self.for_clause = Some(pred);
        self
    }

    /// Finish: validate and return the query AST (same rules as
    /// [`validate_howto`] applies to parsed queries).
    pub fn build(self) -> Result<HowToQuery> {
        let use_clause = self.use_clause.ok_or_else(|| {
            QueryError::Validation("how-to query has no Use clause; call .over(…)".into())
        })?;
        let q = HowToQuery {
            use_clause,
            when: self.when,
            update_attrs: self.update_attrs,
            limits: self.limits,
            objective: self.objective,
            for_clause: self.for_clause,
        };
        validate_howto(&q, None)?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::HypotheticalQuery;
    use crate::parser::parse_query;

    #[test]
    fn built_whatif_equals_parsed_whatif() {
        let built = WhatIf::over("product")
            .when(HExpr::attr("brand").eq("Asus"))
            .scale("price", 1.1)
            .output_avg_post("rtng")
            .filter(HExpr::pre("category").eq("Laptop"))
            .build()
            .unwrap();
        let parsed = parse_query(
            "Use product When brand = 'Asus' Update(price) = 1.1 * Pre(price) \
             Output Avg(Post(rtng)) For Pre(category) = 'Laptop'",
        )
        .unwrap();
        assert_eq!(HypotheticalQuery::WhatIf(built), parsed);
    }

    #[test]
    fn built_howto_equals_parsed_howto() {
        let built = HowTo::maximize(AggFunc::Avg, "rtng")
            .over("product")
            .when(HExpr::attr("brand").eq("Asus"))
            .update("price")
            .update("color")
            .limit_range("price", Some(500.0), Some(800.0))
            .limit_l1("price", 400.0)
            .build()
            .unwrap();
        let parsed = parse_query(
            "Use product When brand = 'Asus' HowToUpdate price, color \
             Limit 500 <= Post(price) <= 800 And L1(Pre(price), Post(price)) <= 400 \
             ToMaximize Avg(Post(rtng))",
        )
        .unwrap();
        assert_eq!(HypotheticalQuery::HowTo(built), parsed);
    }

    #[test]
    fn build_applies_parser_validation_rules() {
        // No update.
        assert!(WhatIf::over("t").output_count_star().build().is_err());
        // No output.
        assert!(WhatIf::over("t").set("b", 1).build().is_err());
        // Duplicate update attribute — same rule as validate_whatif.
        assert!(WhatIf::over("t")
            .set("b", 1)
            .set("B", 2)
            .output_count_star()
            .build()
            .is_err());
        // Post in When.
        assert!(WhatIf::over("t")
            .when(HExpr::post("a").eq(1))
            .set("b", 1)
            .output_count_star()
            .build()
            .is_err());
        // How-to: missing Use, missing update attrs, limit on non-updated
        // attribute, objective attribute updated.
        assert!(HowTo::maximize(AggFunc::Avg, "r")
            .update("p")
            .build()
            .is_err());
        assert!(HowTo::maximize(AggFunc::Avg, "r")
            .over("t")
            .build()
            .is_err());
        assert!(HowTo::maximize(AggFunc::Avg, "r")
            .over("t")
            .update("p")
            .limit_l1("other", 1.0)
            .build()
            .is_err());
        assert!(HowTo::maximize(AggFunc::Avg, "r")
            .over("t")
            .update("r")
            .build()
            .is_err());
    }

    #[test]
    fn predicate_objective_builder() {
        let built = HowTo::maximize_count("credit", HOp::Eq, "Good")
            .over("d")
            .update("status")
            .build()
            .unwrap();
        let parsed =
            parse_query("Use d HowToUpdate status ToMaximize Count(Post(credit) = 'Good')")
                .unwrap();
        assert_eq!(HypotheticalQuery::HowTo(built), parsed);
    }

    #[test]
    fn param_updates_render_and_reparse() {
        let built = WhatIf::over("d")
            .scale_param("b", "mult")
            .output_count(HExpr::post("y").eq(1))
            .build()
            .unwrap();
        assert_eq!(built.param_names(), vec!["mult"]);
        let text = HypotheticalQuery::WhatIf(built.clone()).to_string();
        let parsed = parse_query(&text).unwrap();
        assert_eq!(HypotheticalQuery::WhatIf(built), parsed, "{text}");
    }
}
