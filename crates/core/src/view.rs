//! Relevant-view construction: lowering the `Use` operator to a storage
//! plan and materializing it (paper §3.1 step 1).
//!
//! The view always has one row per tuple of the relation `R` that holds the
//! update attribute (the `Use` select groups by `R`'s key), with attributes
//! from other relations aggregated to `R`'s grain.

use std::collections::HashMap;
use std::sync::Arc;

use hyper_query::{QualifiedName, SelectItem, SelectStmt, UseClause, UseCondition};
use hyper_storage::{col, AggExpr, AggFunc, BinOp, Database, Expr, LogicalPlan, Table};

use crate::error::{EngineError, Result};
use crate::whatif::support::{SupportIndex, SupportIndexes};

/// Where a view column came from.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnOrigin {
    /// Source relation.
    pub relation: String,
    /// Source attribute.
    pub attribute: String,
    /// Aggregation applied, if the column was rolled up from another
    /// relation.
    pub aggregated: Option<AggFunc>,
}

/// How the view rows relate to base-relation rows — drives block-scoped
/// invalidation on ingest (which deltas can leave the view bit-identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewProvenance {
    /// `Use T`: the view is a verbatim copy of one relation. Any delta
    /// to that relation changes the view.
    AllRows {
        /// The copied relation.
        relation: String,
    },
    /// A single-table select with only constant filters (no joins, no
    /// aggregates, no grouping): a delta row affects the view iff it
    /// passes the filters. Ingest re-runs the `Use` over just the delta
    /// rows to decide survival.
    Filtered {
        /// The single source relation.
        relation: String,
    },
    /// Joins, aggregates, or grouping: any delta to any source relation
    /// may ripple through, so the view is invalidated conservatively.
    Opaque {
        /// All source relations.
        relations: Vec<String>,
    },
}

impl ViewProvenance {
    /// Source relations in declaration order.
    pub fn relations(&self) -> Vec<&str> {
        match self {
            ViewProvenance::AllRows { relation } | ViewProvenance::Filtered { relation } => {
                vec![relation.as_str()]
            }
            ViewProvenance::Opaque { relations } => relations.iter().map(String::as_str).collect(),
        }
    }
}

/// The materialized relevant view plus provenance of its columns.
#[derive(Debug, Clone)]
pub struct RelevantView {
    /// The view data (one row per base-relation tuple).
    pub table: Table,
    /// Per-column origins, parallel to the view schema.
    pub origins: Vec<ColumnOrigin>,
    /// The `Use` clause this view materializes (replayed over delta rows
    /// during ingest to decide whether the view survives).
    pub use_clause: UseClause,
    /// Row-level provenance class, for block-scoped invalidation.
    pub provenance: ViewProvenance,
    /// §3.3 support indexes over this view's rows, built on first use per
    /// estimator feature-column list (derived data: never serialized, and
    /// a clone starts without them).
    pub(crate) support: SupportIndexes,
}

impl RelevantView {
    /// Origin of the named view column.
    pub fn origin_of(&self, column: &str) -> Result<&ColumnOrigin> {
        let idx = crate::hexpr::resolve_column(self.table.schema(), column)?;
        Ok(&self.origins[idx])
    }

    /// View column names.
    pub fn column_names(&self) -> Vec<String> {
        self.table
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect()
    }

    /// The support index of this view over the columns `cols`, built on
    /// first use.
    pub(crate) fn support_index(&self, cols: &[usize]) -> Result<Arc<SupportIndex>> {
        self.support.get(&self.table, cols)
    }
}

/// Build the relevant view for a `Use` clause.
pub fn build_relevant_view(db: &Database, use_clause: &UseClause) -> Result<RelevantView> {
    let _span = hyper_trace::span(hyper_trace::Phase::ViewBuild);
    match use_clause {
        UseClause::Table(name) => {
            let table = db.table(name)?.clone();
            let origins = table
                .schema()
                .fields()
                .iter()
                .map(|f| ColumnOrigin {
                    relation: name.clone(),
                    attribute: f.name.clone(),
                    aggregated: None,
                })
                .collect();
            Ok(RelevantView {
                table,
                origins,
                use_clause: use_clause.clone(),
                provenance: ViewProvenance::AllRows {
                    relation: name.clone(),
                },
                support: SupportIndexes::default(),
            })
        }
        UseClause::Select(stmt) => lower_select(db, stmt),
    }
}

struct AliasInfo {
    alias: String,
    table: String,
}

fn lower_select(db: &Database, stmt: &SelectStmt) -> Result<RelevantView> {
    if stmt.from.is_empty() {
        return Err(EngineError::Plan("Use select has no From tables".into()));
    }
    // Resolve aliases.
    let mut aliases: Vec<AliasInfo> = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        db.table(&tref.table)?; // existence check
        aliases.push(AliasInfo {
            alias: tref.alias.clone().unwrap_or_else(|| tref.table.clone()),
            table: tref.table.clone(),
        });
    }
    {
        let mut seen = HashMap::new();
        for a in &aliases {
            if seen.insert(a.alias.to_ascii_lowercase(), ()).is_some() {
                return Err(EngineError::Plan(format!(
                    "duplicate table alias `{}`",
                    a.alias
                )));
            }
        }
    }

    // Resolver: QualifiedName → fully-qualified "alias.column" string.
    let resolve = |q: &QualifiedName| -> Result<String> {
        match &q.qualifier {
            Some(qual) => {
                let info = aliases
                    .iter()
                    .find(|a| a.alias.eq_ignore_ascii_case(qual))
                    .ok_or_else(|| EngineError::Plan(format!("unknown table alias `{qual}`")))?;
                let table = db.table(&info.table)?;
                let idx = resolve_in_table(table, &q.name)?;
                Ok(format!("{}.{}", info.alias, table.schema().field(idx).name))
            }
            None => {
                let mut found: Option<String> = None;
                for info in &aliases {
                    let table = db.table(&info.table)?;
                    if let Ok(idx) = resolve_in_table(table, &q.name) {
                        if found.is_some() {
                            return Err(EngineError::Plan(format!(
                                "attribute `{}` is ambiguous; qualify it",
                                q.name
                            )));
                        }
                        found = Some(format!("{}.{}", info.alias, table.schema().field(idx).name));
                    }
                }
                found.ok_or_else(|| EngineError::Plan(format!("unknown attribute `{}`", q.name)))
            }
        }
    };

    // Per-alias scan with qualified column names.
    let plan_for = |info: &AliasInfo| -> Result<LogicalPlan> {
        let table = db.table(&info.table)?;
        let names: Vec<String> = table
            .schema()
            .fields()
            .iter()
            .map(|f| format!("{}.{}", info.alias, f.name))
            .collect();
        Ok(LogicalPlan::Rename {
            input: Box::new(LogicalPlan::scan(&info.table)),
            new_names: names,
        })
    };

    // Classify conditions.
    let mut joins: Vec<(String, String)> = Vec::new();
    let mut filters: Vec<Expr> = Vec::new();
    for cond in &stmt.conditions {
        match cond {
            UseCondition::Join(l, r) => joins.push((resolve(l)?, resolve(r)?)),
            UseCondition::Filter { column, op, value } => {
                let c = col(resolve(column)?);
                let lit = Expr::Lit(value.clone());
                let e = match op {
                    hyper_query::HOp::Eq => c.eq(lit),
                    hyper_query::HOp::Ne => c.ne(lit),
                    hyper_query::HOp::Lt => c.lt(lit),
                    hyper_query::HOp::Le => c.le(lit),
                    hyper_query::HOp::Gt => c.gt(lit),
                    hyper_query::HOp::Ge => c.ge(lit),
                    other => {
                        return Err(EngineError::Plan(format!(
                            "unsupported Where operator {other}"
                        )))
                    }
                };
                filters.push(e);
            }
        }
    }

    // Join order: start from the first table, greedily attach tables
    // connected by a join condition.
    let alias_of =
        |qualified: &str| -> String { qualified.split('.').next().unwrap_or("").to_string() };
    let mut joined: Vec<String> = vec![aliases[0].alias.clone()];
    let mut plan = plan_for(&aliases[0])?;
    let mut remaining: Vec<&AliasInfo> = aliases.iter().skip(1).collect();
    let mut used_joins = vec![false; joins.len()];
    while !remaining.is_empty() {
        let mut attached = None;
        'outer: for (ri, info) in remaining.iter().enumerate() {
            for (ji, (l, r)) in joins.iter().enumerate() {
                if used_joins[ji] {
                    continue;
                }
                let (la, ra) = (alias_of(l), alias_of(r));
                let connects = (joined.contains(&la) && ra == info.alias)
                    || (joined.contains(&ra) && la == info.alias);
                if connects {
                    let (left_key, right_key) = if joined.contains(&la) {
                        (l.clone(), r.clone())
                    } else {
                        (r.clone(), l.clone())
                    };
                    used_joins[ji] = true;
                    attached = Some((ri, left_key, right_key));
                    break 'outer;
                }
            }
        }
        let Some((ri, left_key, right_key)) = attached else {
            return Err(EngineError::Plan(
                "Use select tables are not connected by join conditions \
                 (cross products are not supported)"
                    .into(),
            ));
        };
        let info = remaining.remove(ri);
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(plan_for(info)?),
            left_on: vec![left_key],
            right_on: vec![right_key],
        };
        joined.push(info.alias.clone());
    }
    // Any unused join conditions become equality filters (e.g. a redundant
    // second condition between already-joined tables).
    for (ji, (l, r)) in joins.iter().enumerate() {
        if !used_joins[ji] {
            filters.push(Expr::Binary(
                BinOp::Eq,
                Box::new(col(l.clone())),
                Box::new(col(r.clone())),
            ));
        }
    }
    for f in filters {
        plan = plan.filter(f);
    }

    // Aggregation + projection.
    let has_aggregates = stmt
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Aggregate { .. }));
    let group_cols: Vec<String> = stmt.group_by.iter().map(&resolve).collect::<Result<_>>()?;

    let mut origins: Vec<ColumnOrigin> = Vec::with_capacity(stmt.items.len());
    let mut out_names: Vec<String> = Vec::with_capacity(stmt.items.len());

    let origin_of_qualified = |qualified: &str| -> ColumnOrigin {
        let mut parts = qualified.splitn(2, '.');
        let alias = parts.next().unwrap_or("");
        let attr = parts.next().unwrap_or("").to_string();
        let relation = aliases
            .iter()
            .find(|a| a.alias == alias)
            .map(|a| a.table.clone())
            .unwrap_or_default();
        ColumnOrigin {
            relation,
            attribute: attr,
            aggregated: None,
        }
    };

    if has_aggregates || !group_cols.is_empty() {
        let mut aggs: Vec<AggExpr> = Vec::new();
        // The Aggregate operator outputs group columns first, then agg
        // aliases; project afterwards to the select-item order and names.
        for item in &stmt.items {
            match item {
                SelectItem::Column { name, alias } => {
                    let q = resolve(name)?;
                    if !group_cols.contains(&q) {
                        return Err(EngineError::Plan(format!(
                            "column `{name}` must appear in Group By"
                        )));
                    }
                    out_names.push(alias.clone().unwrap_or_else(|| name.name.clone()));
                    origins.push(origin_of_qualified(&q));
                }
                SelectItem::Aggregate { func, arg, alias } => {
                    let q = resolve(arg)?;
                    aggs.push(AggExpr::new(*func, Some(col(q.clone())), alias.clone()));
                    out_names.push(alias.clone());
                    let mut o = origin_of_qualified(&q);
                    o.aggregated = Some(*func);
                    origins.push(o);
                }
            }
        }
        let group_refs: Vec<&str> = group_cols.iter().map(String::as_str).collect();
        plan = plan.aggregate(&group_refs, aggs);
        // Project to select-item order/names.
        let mut exprs: Vec<(Expr, String)> = Vec::with_capacity(stmt.items.len());
        for (item, out) in stmt.items.iter().zip(&out_names) {
            let source = match item {
                SelectItem::Column { name, .. } => resolve(name)?,
                SelectItem::Aggregate { alias, .. } => alias.clone(),
            };
            exprs.push((col(source), out.clone()));
        }
        plan = plan.project(exprs);
    } else {
        let mut exprs: Vec<(Expr, String)> = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            let SelectItem::Column { name, alias } = item else {
                unreachable!("no aggregates in this branch")
            };
            let q = resolve(name)?;
            let out = alias.clone().unwrap_or_else(|| name.name.clone());
            out_names.push(out.clone());
            origins.push(origin_of_qualified(&q));
            exprs.push((col(q), out));
        }
        plan = plan.project(exprs);
    }

    // Output name uniqueness.
    {
        let mut seen = HashMap::new();
        for n in &out_names {
            if seen.insert(n.to_ascii_lowercase(), ()).is_some() {
                return Err(EngineError::Plan(format!(
                    "duplicate output column `{n}` in Use select"
                )));
            }
        }
    }

    let mut table = plan.execute(db)?;
    table.set_name("relevant_view");
    let has_joins = stmt
        .conditions
        .iter()
        .any(|c| matches!(c, UseCondition::Join(..)));
    let provenance =
        if stmt.from.len() == 1 && !has_joins && !has_aggregates && stmt.group_by.is_empty() {
            ViewProvenance::Filtered {
                relation: stmt.from[0].table.clone(),
            }
        } else {
            ViewProvenance::Opaque {
                relations: stmt.from.iter().map(|t| t.table.clone()).collect(),
            }
        };
    Ok(RelevantView {
        table,
        origins,
        use_clause: UseClause::Select(stmt.clone()),
        provenance,
        support: SupportIndexes::default(),
    })
}

fn resolve_in_table(table: &Table, name: &str) -> Result<usize> {
    crate::hexpr::resolve_column(table.schema(), name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_query::parse_query;
    use hyper_storage::{DataType, Field, ForeignKey, Schema, TableBuilder, Value};

    fn amazon_db() -> Database {
        let mut db = Database::new();
        let mut prod = TableBuilder::with_key(
            "product",
            Schema::new(vec![
                Field::new("pid", DataType::Int),
                Field::new("category", DataType::Str),
                Field::new("price", DataType::Float),
                Field::new("brand", DataType::Str),
            ])
            .unwrap(),
            &["pid"],
        )
        .unwrap();
        for (pid, cat, price, brand) in [
            (1, "Laptop", 999.0, "Vaio"),
            (2, "Laptop", 529.0, "Asus"),
            (3, "Laptop", 599.0, "HP"),
        ] {
            prod.push(vec![pid.into(), cat.into(), price.into(), brand.into()])
                .unwrap();
        }
        let mut rev = TableBuilder::with_key(
            "review",
            Schema::new(vec![
                Field::new("pid", DataType::Int),
                Field::new("rid", DataType::Int),
                Field::new("sentiment", DataType::Float),
                Field::new("rating", DataType::Int),
            ])
            .unwrap(),
            &["pid", "rid"],
        )
        .unwrap();
        for (pid, rid, s, r) in [
            (1, 1, -0.95, 2),
            (2, 2, 0.7, 4),
            (2, 3, -0.2, 1),
            (3, 4, 0.23, 3),
            (3, 5, 0.95, 5),
        ] {
            rev.push(vec![pid.into(), rid.into(), s.into(), r.into()])
                .unwrap();
        }
        db.add_table(prod.build()).unwrap();
        db.add_table(rev.build()).unwrap();
        db.add_foreign_key(ForeignKey {
            child_table: "review".into(),
            child_columns: vec!["pid".into()],
            parent_table: "product".into(),
            parent_columns: vec!["pid".into()],
        })
        .unwrap();
        db
    }

    fn figure4_use() -> UseClause {
        let text = "
            Use (Select T1.PID, T1.Category, T1.Price, T1.Brand,
                        Avg(Sentiment) As Senti, Avg(T2.Rating) As Rtng
                 From product As T1, review As T2
                 Where T1.PID = T2.PID
                 Group By T1.PID, T1.Category, T1.Price, T1.Brand)
            Update(Price) = 1.1 * Pre(Price)
            Output Avg(Post(Rtng))";
        match parse_query(text).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(q) => q.use_clause,
            _ => panic!(),
        }
    }

    #[test]
    fn figure4_view_shape_and_values() {
        let db = amazon_db();
        let v = build_relevant_view(&db, &figure4_use()).unwrap();
        assert_eq!(v.table.num_rows(), 3, "one row per product");
        assert_eq!(
            v.column_names(),
            vec!["PID", "Category", "Price", "Brand", "Senti", "Rtng"]
        );
        // Asus (pid 2): avg rating (4+1)/2 = 2.5, avg sentiment 0.25.
        let pid = v.table.column_by_name("PID").unwrap();
        let rtng = v.table.column_by_name("Rtng").unwrap();
        let senti = v.table.column_by_name("Senti").unwrap();
        let asus = pid.iter().position(|p| p == Value::Int(2)).unwrap();
        assert_eq!(rtng.value(asus), Value::Float(2.5));
        assert!((senti.value(asus).as_f64().unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn origins_track_aggregation() {
        let db = amazon_db();
        let v = build_relevant_view(&db, &figure4_use()).unwrap();
        let o = v.origin_of("Rtng").unwrap();
        assert_eq!(o.relation, "review");
        assert_eq!(o.attribute, "rating");
        assert_eq!(o.aggregated, Some(AggFunc::Avg));
        let o = v.origin_of("Price").unwrap();
        assert_eq!(o.relation, "product");
        assert_eq!(o.aggregated, None);
    }

    #[test]
    fn bare_table_use() {
        let db = amazon_db();
        let v = build_relevant_view(&db, &UseClause::Table("product".into())).unwrap();
        assert_eq!(v.table.num_rows(), 3);
        assert_eq!(v.origins[2].attribute, "price");
    }

    #[test]
    fn provenance_classification() {
        let db = amazon_db();
        let v = build_relevant_view(&db, &UseClause::Table("product".into())).unwrap();
        assert_eq!(
            v.provenance,
            ViewProvenance::AllRows {
                relation: "product".into()
            }
        );
        assert_eq!(v.use_clause, UseClause::Table("product".into()));

        // Single table + constant filter, no joins/aggregates → Filtered.
        let text = "Use (Select T1.PID, T1.Price From product As T1 Where T1.Price < 700)
                    Update(Price) = 1 Output Count(*)";
        let q = match parse_query(text).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(q) => q.use_clause,
            _ => panic!(),
        };
        let v = build_relevant_view(&db, &q).unwrap();
        assert_eq!(
            v.provenance,
            ViewProvenance::Filtered {
                relation: "product".into()
            }
        );
        assert_eq!(v.use_clause, q, "the lowered clause is kept verbatim");

        // Joins + aggregates → Opaque over all source relations.
        let v = build_relevant_view(&db, &figure4_use()).unwrap();
        assert_eq!(
            v.provenance,
            ViewProvenance::Opaque {
                relations: vec!["product".into(), "review".into()]
            }
        );
    }

    #[test]
    fn unknown_table_and_alias_rejected() {
        let db = amazon_db();
        assert!(build_relevant_view(&db, &UseClause::Table("ghost".into())).is_err());
        let text = "Use (Select T9.PID From product As T1)
                    Update(X) = 1 Output Count(*)";
        let q = match parse_query(text).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(q) => q.use_clause,
            _ => panic!(),
        };
        assert!(build_relevant_view(&db, &q).is_err());
    }

    #[test]
    fn disconnected_tables_rejected() {
        let db = amazon_db();
        let text = "Use (Select T1.PID From product As T1, review As T2)
                    Update(X) = 1 Output Count(*)";
        let q = match parse_query(text).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(q) => q.use_clause,
            _ => panic!(),
        };
        let err = build_relevant_view(&db, &q).unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let db = amazon_db();
        let text = "Use (Select T1.Brand, Avg(T2.Rating) As R
                         From product As T1, review As T2
                         Where T1.PID = T2.PID
                         Group By T1.PID)
                    Update(X) = 1 Output Count(*)";
        let q = match parse_query(text).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(q) => q.use_clause,
            _ => panic!(),
        };
        assert!(build_relevant_view(&db, &q).is_err());
    }

    #[test]
    fn filter_conditions_in_where() {
        let db = amazon_db();
        let text = "Use (Select T1.PID, T1.Price, Avg(T2.Rating) As R
                         From product As T1, review As T2
                         Where T1.PID = T2.PID And T1.Category = 'Laptop' And T1.Price < 700
                         Group By T1.PID, T1.Price)
                    Update(Price) = 1 Output Count(*)";
        let q = match parse_query(text).unwrap() {
            hyper_query::HypotheticalQuery::WhatIf(q) => q.use_clause,
            _ => panic!(),
        };
        let v = build_relevant_view(&db, &q).unwrap();
        assert_eq!(v.table.num_rows(), 2, "asus + hp under 700");
    }
}
