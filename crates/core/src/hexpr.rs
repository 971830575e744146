//! Dual-world evaluation of hypothetical expressions: an [`HExpr`] is
//! evaluated against a *pre* row and a *post* row of the relevant view,
//! with `Pre(A)` reading the former and `Post(A)` the latter.
//!
//! Two evaluators share one semantics:
//!
//! - row at a time ([`BoundHExpr::eval_at`], [`BoundHExpr::eval_bool_at`]),
//!   for worlds where post differs from pre (the updated rows of a
//!   what-if);
//! - column at a time ([`BoundHExpr::eval_mask`],
//!   [`BoundHExpr::eval_numbers`]), for the unmodified world (post = pre):
//!   the `When`/`For` masks, the ψ/Y training targets and the how-to
//!   baseline. Comparisons, arithmetic and `IN` run the storage crate's
//!   typed kernels (dictionary codes for string equality, no per-cell
//!   [`Value`]); the logical nodes are evaluated here, because `HExpr`'s
//!   `AND`/`OR` are not SQL's three-valued ones (`NULL OR TRUE` is NULL,
//!   and `NULL AND FALSE` is NULL, so its negation is NULL too).
//!
//! The column evaluator falls back to the row evaluator where a typed
//! column cannot hold the row evaluator's answer: an `AND`/`OR` whose
//! right side fails on some row (the row evaluator may skip that row),
//! an integer overflow (rows of one column would mix `Int` and `Float`),
//! and the nodes above such a fallback. An error is re-derived row at a
//! time, so it is the one the row evaluator reports for the first failing
//! row.

use std::borrow::Cow;

use hyper_query::{HExpr, HOp, Temporal};
use hyper_storage::{
    eval_in_list, BinOp, Column, DataType, NullBitmap, Operand, Schema, Table, Value,
};

use crate::error::{EngineError, Result};

/// An `HExpr` with attribute references resolved to view column positions.
#[derive(Debug, Clone)]
pub enum BoundHExpr {
    /// Attribute read: `(world, column index)`.
    Attr(Temporal, usize),
    /// Literal.
    Lit(Value),
    /// Negation.
    Not(Box<BoundHExpr>),
    /// Binary operation.
    Binary(HOp, Box<BoundHExpr>, Box<BoundHExpr>),
    /// Membership.
    InList {
        /// Tested expression.
        expr: Box<BoundHExpr>,
        /// Candidates.
        list: Vec<Value>,
        /// Negated?
        negated: bool,
    },
}

/// Resolve a view column name case-insensitively.
pub fn resolve_column(schema: &Schema, name: &str) -> Result<usize> {
    if let Ok(i) = schema.index_of(name) {
        return Ok(i);
    }
    let mut found: Option<usize> = None;
    for (i, f) in schema.fields().iter().enumerate() {
        if f.name.eq_ignore_ascii_case(name) {
            if found.is_some() {
                return Err(EngineError::Plan(format!(
                    "attribute `{name}` is ambiguous in the relevant view"
                )));
            }
            found = Some(i);
        }
    }
    found.ok_or_else(|| {
        EngineError::Plan(format!(
            "attribute `{name}` is not a column of the relevant view"
        ))
    })
}

/// Bind an expression to the view schema, applying `default` to unmarked
/// attribute references.
pub fn bind_hexpr(expr: &HExpr, schema: &Schema, default: Temporal) -> Result<BoundHExpr> {
    Ok(match expr {
        HExpr::Attr { temporal, name } => {
            BoundHExpr::Attr(temporal.unwrap_or(default), resolve_column(schema, name)?)
        }
        HExpr::Lit(v) => BoundHExpr::Lit(v.clone()),
        HExpr::Not(e) => BoundHExpr::Not(Box::new(bind_hexpr(e, schema, default)?)),
        HExpr::Binary { op, left, right } => BoundHExpr::Binary(
            *op,
            Box::new(bind_hexpr(left, schema, default)?),
            Box::new(bind_hexpr(right, schema, default)?),
        ),
        HExpr::InList {
            expr,
            list,
            negated,
        } => BoundHExpr::InList {
            expr: Box::new(bind_hexpr(expr, schema, default)?),
            list: list.clone(),
            negated: *negated,
        },
        HExpr::Param(name) => {
            return Err(EngineError::Query(format!(
                "unresolved parameter `Param({name})`; supply a value through \
                 Bindings (e.g. PreparedQuery::execute_with) before evaluation"
            )))
        }
    })
}

impl BoundHExpr {
    /// Evaluate against row `i` of columnar `(pre, post)` tables, reading
    /// cells straight off the typed columns — no row materialization.
    /// `pre` and `post` may be the same table (the unmodified world).
    pub fn eval_at(&self, pre: &Table, post: &Table, i: usize) -> Result<Value> {
        self.eval_with(&mut |t, c| match t {
            Temporal::Pre => pre.column(c).value(i),
            Temporal::Post => post.column(c).value(i),
        })
    }

    /// Evaluate row `i` as a predicate (NULL → false), reading the typed
    /// columns directly.
    pub fn eval_bool_at(&self, pre: &Table, post: &Table, i: usize) -> Result<bool> {
        match self.eval_at(pre, post, i)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            v => Err(EngineError::Plan(format!(
                "predicate evaluated to non-boolean {v}"
            ))),
        }
    }

    /// Evaluate the predicate over every row of `table` with `post = pre`,
    /// column at a time (the `When`/`For` masks): equal to
    /// [`BoundHExpr::eval_bool_at`] on every row, and its first error.
    pub fn eval_mask(&self, table: &Table) -> Result<Vec<bool>> {
        self.eval_mask_rows(table, None)
    }

    /// [`BoundHExpr::eval_mask`] over `rows` of `table` only (every row
    /// when `None`): rows outside `rows` are never evaluated, so they
    /// cannot fail.
    pub fn eval_mask_rows(&self, table: &Table, rows: Option<&[usize]>) -> Result<Vec<bool>> {
        let n = rows.map_or(table.num_rows(), <[usize]>::len);
        let check = |i| self.eval_bool_at(table, table, i).map(drop);
        let ev = match self.eval_columns(table, rows) {
            Ok(ev) => ev,
            Err(e) => return Err(first_error(rows, n, e, check)),
        };
        match ev.logical(n) {
            Some(Tri::Col(values, nulls)) if !nulls.any_null() => Ok(values.to_vec()),
            Some(t) => Ok((0..n).map(|i| t.at(i) == Some(true)).collect()),
            None => Err(first_error(
                rows,
                n,
                EngineError::Plan("predicate evaluated to non-boolean".into()),
                check,
            )),
        }
    }

    /// Evaluate over `rows` of `table` (every row when `None`) with
    /// `post = pre`, column at a time, as numbers: row `i` holds
    /// [`Value::as_f64`] of [`BoundHExpr::eval_at`] (`None` for NULL and
    /// non-numeric values), and an error is the row evaluator's first.
    pub fn eval_numbers(&self, table: &Table, rows: Option<&[usize]>) -> Result<Vec<Option<f64>>> {
        let n = rows.map_or(table.num_rows(), <[usize]>::len);
        match self.eval_columns(table, rows) {
            Ok(ev) => Ok(ev.numbers(n)),
            Err(e) => Err(first_error(rows, n, e, |i| {
                self.eval_at(table, table, i).map(drop)
            })),
        }
    }

    /// The column evaluator behind [`BoundHExpr::eval_mask_rows`] and
    /// [`BoundHExpr::eval_numbers`]. An error here means the row evaluator
    /// fails on at least one of `rows`: every node is evaluated on every
    /// row except the right side of `AND`/`OR`, whose failures fall back
    /// to the row evaluator for that node.
    fn eval_columns<'t>(&self, table: &'t Table, rows: Option<&[usize]>) -> Result<Ev<'t>> {
        let n = rows.map_or(table.num_rows(), <[usize]>::len);
        Ok(match self {
            BoundHExpr::Attr(_, c) => {
                let col = table.column(*c);
                Ev::Col(match rows {
                    None => Cow::Borrowed(col),
                    Some(r) => Cow::Owned(col.gather(r)),
                })
            }
            BoundHExpr::Lit(v) => Ev::Scalar(v.clone()),
            BoundHExpr::Not(e) => match e.eval_columns(table, rows)?.logical(n) {
                Some(t) => Ev::from_tri(n, |i| t.at(i).map(|b| !b)),
                None => self.eval_rows(table, rows)?,
            },
            BoundHExpr::Binary(op @ (HOp::And | HOp::Or), l, r) => {
                let lv = l.eval_columns(table, rows)?;
                let rv = r.eval_columns(table, rows);
                let sides = (lv.logical(n), rv.as_ref().ok().and_then(|rv| rv.logical(n)));
                let (Some(lt), Some(rt)) = sides else {
                    return self.eval_rows(table, rows);
                };
                // `AND` stops at a false left side, `OR` at a true one;
                // otherwise NULL on either side makes the node NULL.
                let stop = *op == HOp::Or;
                Ev::from_tri(n, |i| match lt.at(i) {
                    Some(b) if b == stop => Some(stop),
                    Some(_) => rt.at(i),
                    None => None,
                })
            }
            BoundHExpr::Binary(op, l, r) => {
                let lv = l.eval_columns(table, rows)?;
                let rv = r.eval_columns(table, rows)?;
                let (Some(a), Some(b)) = (lv.operand(), rv.operand()) else {
                    return self.eval_rows(table, rows);
                };
                let out = storage_op(*op)
                    .eval_operands(a, b, n)
                    .map_err(EngineError::from)?;
                // Integer arithmetic that overflows on any row turns the
                // whole kernel column into floats; the row evaluator keeps
                // the other rows integers.
                let overflowed = matches!(op, HOp::Add | HOp::Sub | HOp::Mul)
                    && lv.is_int()
                    && rv.is_int()
                    && out.data_type() == DataType::Float;
                if overflowed {
                    return self.eval_rows(table, rows);
                }
                Ev::Col(Cow::Owned(out))
            }
            BoundHExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_columns(table, rows)?;
                match v.operand() {
                    Some(o) => Ev::Col(Cow::Owned(
                        eval_in_list(o, list, *negated, n).map_err(EngineError::from)?,
                    )),
                    None => self.eval_rows(table, rows)?,
                }
            }
        })
    }

    /// This node evaluated row at a time over `rows`.
    fn eval_rows<'t>(&self, table: &Table, rows: Option<&[usize]>) -> Result<Ev<'t>> {
        let n = rows.map_or(table.num_rows(), <[usize]>::len);
        (0..n)
            .map(|k| self.eval_at(table, table, row_id(rows, k)))
            .collect::<Result<_>>()
            .map(Ev::Rows)
    }

    /// Evaluate against `(pre, post)` rows.
    pub fn eval(&self, pre: &[Value], post: &[Value]) -> Result<Value> {
        self.eval_with(&mut |t, c| match t {
            Temporal::Pre => pre[c].clone(),
            Temporal::Post => post[c].clone(),
        })
    }

    /// Core evaluator over an arbitrary `(world, column) → Value` accessor.
    pub(crate) fn eval_with(&self, get: &mut dyn FnMut(Temporal, usize) -> Value) -> Result<Value> {
        Ok(match self {
            BoundHExpr::Attr(t, i) => get(*t, *i),
            BoundHExpr::Lit(v) => v.clone(),
            BoundHExpr::Not(e) => match e.eval_with(get)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                v => return Err(EngineError::Plan(format!("Not expects boolean, got {v}"))),
            },
            BoundHExpr::Binary(op, l, r) => {
                let lv = l.eval_with(get)?;
                // Short-circuit logical operators.
                if *op == HOp::And && lv == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                if *op == HOp::Or && lv == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                let rv = r.eval_with(get)?;
                match op {
                    HOp::Eq => Value::Bool(lv.sql_eq(&rv)),
                    HOp::Ne => {
                        if lv.is_null() || rv.is_null() {
                            Value::Bool(false)
                        } else {
                            Value::Bool(!lv.sql_eq(&rv))
                        }
                    }
                    HOp::Lt | HOp::Le | HOp::Gt | HOp::Ge => match lv.sql_cmp(&rv) {
                        None => Value::Bool(false),
                        Some(o) => Value::Bool(match op {
                            HOp::Lt => o.is_lt(),
                            HOp::Le => o.is_le(),
                            HOp::Gt => o.is_gt(),
                            HOp::Ge => o.is_ge(),
                            _ => unreachable!(),
                        }),
                    },
                    HOp::And | HOp::Or => {
                        let lb = as_bool(&lv)?;
                        let rb = as_bool(&rv)?;
                        match (op, lb, rb) {
                            (HOp::And, Some(a), Some(b)) => Value::Bool(a && b),
                            (HOp::Or, Some(a), Some(b)) => Value::Bool(a || b),
                            _ => Value::Null,
                        }
                    }
                    HOp::Add => lv.add(&rv).map_err(EngineError::from)?,
                    HOp::Sub => lv.sub(&rv).map_err(EngineError::from)?,
                    HOp::Mul => lv.mul(&rv).map_err(EngineError::from)?,
                    HOp::Div => lv.div(&rv).map_err(EngineError::from)?,
                }
            }
            BoundHExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_with(get)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let found = list.iter().any(|c| v.sql_eq(c));
                Value::Bool(found != *negated)
            }
        })
    }

    /// Evaluate as a predicate (NULL → false).
    pub fn eval_bool(&self, pre: &[Value], post: &[Value]) -> Result<bool> {
        match self.eval(pre, post)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            v => Err(EngineError::Plan(format!(
                "predicate evaluated to non-boolean {v}"
            ))),
        }
    }

    /// Column indices read from the post world.
    pub fn post_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let BoundHExpr::Attr(Temporal::Post, i) = e {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Column indices read from the pre world.
    pub fn pre_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let BoundHExpr::Attr(Temporal::Pre, i) = e {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    fn walk(&self, f: &mut impl FnMut(&BoundHExpr)) {
        f(self);
        match self {
            BoundHExpr::Not(e) => e.walk(f),
            BoundHExpr::Binary(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            BoundHExpr::InList { expr, .. } => expr.walk(f),
            BoundHExpr::Attr(..) | BoundHExpr::Lit(_) => {}
        }
    }
}

/// Row `k` of a selection (`k` itself when every row is selected).
fn row_id(rows: Option<&[usize]>, k: usize) -> usize {
    rows.map_or(k, |r| r[k])
}

/// The row evaluator's error (`check`) for the first of the `n` selected
/// rows it fails on; `fallback` when it fails on none, which the column
/// evaluator's errors rule out.
fn first_error(
    rows: Option<&[usize]>,
    n: usize,
    fallback: EngineError,
    check: impl Fn(usize) -> Result<()>,
) -> EngineError {
    (0..n)
        .find_map(|k| check(row_id(rows, k)).err())
        .unwrap_or(fallback)
}

/// The storage kernel operator of a comparison or arithmetic `HOp`.
fn storage_op(op: HOp) -> BinOp {
    match op {
        HOp::Eq => BinOp::Eq,
        HOp::Ne => BinOp::Ne,
        HOp::Lt => BinOp::Lt,
        HOp::Le => BinOp::Le,
        HOp::Gt => BinOp::Gt,
        HOp::Ge => BinOp::Ge,
        HOp::And => BinOp::And,
        HOp::Or => BinOp::Or,
        HOp::Add => BinOp::Add,
        HOp::Sub => BinOp::Sub,
        HOp::Mul => BinOp::Mul,
        HOp::Div => BinOp::Div,
    }
}

/// A node's value over the evaluated rows: a typed column, a literal
/// every row shares, or the per-row values of a node evaluated row at a
/// time (which may mix types, as `Int` and `Float` after an overflow).
enum Ev<'t> {
    Col(Cow<'t, Column>),
    Scalar(Value),
    Rows(Vec<Value>),
}

/// A logical operand, row by row: `Some(b)` for a boolean, `None` for
/// NULL.
enum Tri<'e> {
    Col(&'e [bool], &'e NullBitmap),
    Const(Option<bool>),
    Rows(&'e [Value]),
}

impl Tri<'_> {
    #[inline]
    fn at(&self, i: usize) -> Option<bool> {
        match self {
            Tri::Col(values, nulls) => (!nulls.is_null(i)).then(|| values[i]),
            Tri::Const(b) => *b,
            Tri::Rows(values) => values[i].as_bool(),
        }
    }
}

impl Ev<'_> {
    /// A boolean column (NULL where `f` is `None`) over `n` rows.
    fn from_tri(n: usize, f: impl Fn(usize) -> Option<bool>) -> Ev<'static> {
        let mut values = Vec::with_capacity(n);
        let mut nulls = NullBitmap::all_valid(n);
        for i in 0..n {
            let b = f(i);
            if b.is_none() {
                nulls.set(i, true);
            }
            values.push(b.unwrap_or(false));
        }
        Ev::Col(Cow::Owned(Column::Bool { values, nulls }))
    }

    /// The value as a logical operand over `n` rows; `None` when some row
    /// holds a value that is neither boolean nor NULL.
    fn logical(&self, n: usize) -> Option<Tri<'_>> {
        match self {
            Ev::Col(c) => match c.as_bool() {
                Some((values, nulls)) => Some(Tri::Col(values, nulls)),
                None => (c.null_count() == c.len()).then_some(Tri::Const(None)),
            },
            Ev::Scalar(Value::Bool(b)) => Some(Tri::Const(Some(*b))),
            Ev::Scalar(Value::Null) => Some(Tri::Const(None)),
            Ev::Scalar(_) => (n == 0).then_some(Tri::Const(None)),
            Ev::Rows(values) => values
                .iter()
                .all(|v| matches!(v, Value::Bool(_) | Value::Null))
                .then_some(Tri::Rows(values)),
        }
    }

    /// [`Value::as_f64`] of every one of `n` rows.
    fn numbers(&self, n: usize) -> Vec<Option<f64>> {
        match self {
            Ev::Col(c) => (0..n).map(|i| c.f64_at(i)).collect(),
            Ev::Scalar(v) => vec![v.as_f64(); n],
            Ev::Rows(values) => values.iter().map(Value::as_f64).collect(),
        }
    }

    /// The value as a storage kernel operand (not for row-at-a-time
    /// values, which no typed kernel takes).
    fn operand(&self) -> Option<Operand<'_>> {
        match self {
            Ev::Col(c) => Some(Operand::Column(c)),
            Ev::Scalar(v) => Some(Operand::Scalar(v)),
            Ev::Rows(_) => None,
        }
    }

    /// Does the storage kernels' integer fast path take this operand?
    fn is_int(&self) -> bool {
        match self {
            Ev::Col(c) => c.data_type() == DataType::Int,
            Ev::Scalar(v) => matches!(v, Value::Int(_)),
            Ev::Rows(_) => false,
        }
    }
}

fn as_bool(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        v => Err(EngineError::Plan(format!(
            "logical operator expects boolean, got {v}"
        ))),
    }
}

/// Split a predicate into `(pre-only conjuncts, conjuncts touching Post)`.
///
/// The paper decomposes `For` into `μ_For,Pre ∧ μ_For,Post` (§A.2.1); we do
/// the same at the top-level conjunction, leaving mixed conjuncts on the
/// post side (they are evaluated with both worlds available).
pub fn split_pre_post(expr: &HExpr, default: Temporal) -> (Vec<HExpr>, Vec<HExpr>) {
    let mut pre = Vec::new();
    let mut post = Vec::new();
    collect_conjuncts(expr, &mut |conj| {
        let touches_post = conj
            .attrs_with_default(default)
            .iter()
            .any(|(t, _)| *t == Temporal::Post);
        if touches_post {
            post.push(conj.clone());
        } else {
            pre.push(conj.clone());
        }
    });
    (pre, post)
}

fn collect_conjuncts(expr: &HExpr, f: &mut impl FnMut(&HExpr)) {
    match expr {
        HExpr::Binary {
            op: HOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, f);
            collect_conjuncts(right, f);
        }
        other => f(other),
    }
}

/// Re-assemble conjuncts into a single expression (`None` when empty).
pub fn conjoin(conjuncts: &[HExpr]) -> Option<HExpr> {
    let mut it = conjuncts.iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, |acc, c| acc.and(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_storage::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::new("rating", DataType::Float),
            Field::new("brand", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn pre_and_post_read_different_worlds() {
        let e = HExpr::binary(HOp::Lt, HExpr::pre("price"), HExpr::post("price"));
        let b = bind_hexpr(&e, &schema(), Temporal::Pre).unwrap();
        let pre = vec![Value::Float(100.0), Value::Float(3.0), Value::str("a")];
        let post = vec![Value::Float(110.0), Value::Float(2.5), Value::str("a")];
        assert_eq!(b.eval(&pre, &post).unwrap(), Value::Bool(true));
        assert_eq!(b.eval(&post, &pre).unwrap(), Value::Bool(false));
    }

    #[test]
    fn default_temporal_applied_at_bind() {
        let e = HExpr::binary(HOp::Gt, HExpr::attr("rating"), HExpr::lit(2.8));
        let pre = vec![Value::Float(100.0), Value::Float(3.0), Value::str("a")];
        let post = vec![Value::Float(100.0), Value::Float(2.5), Value::str("a")];
        let b = bind_hexpr(&e, &schema(), Temporal::Pre).unwrap();
        assert_eq!(b.eval(&pre, &post).unwrap(), Value::Bool(true));
        let b = bind_hexpr(&e, &schema(), Temporal::Post).unwrap();
        assert_eq!(b.eval(&pre, &post).unwrap(), Value::Bool(false));
    }

    #[test]
    fn case_insensitive_resolution() {
        let e = HExpr::binary(HOp::Eq, HExpr::attr("Brand"), HExpr::lit("a"));
        let b = bind_hexpr(&e, &schema(), Temporal::Pre).unwrap();
        let row = vec![Value::Float(0.0), Value::Float(0.0), Value::str("a")];
        assert_eq!(b.eval(&row, &row).unwrap(), Value::Bool(true));
        assert!(bind_hexpr(&HExpr::attr("ghost"), &schema(), Temporal::Pre).is_err());
    }

    #[test]
    fn split_separates_conjuncts() {
        let e = HExpr::binary(HOp::Eq, HExpr::attr("brand"), HExpr::lit("a"))
            .and(HExpr::binary(
                HOp::Gt,
                HExpr::post("rating"),
                HExpr::lit(0.5),
            ))
            .and(HExpr::binary(
                HOp::Lt,
                HExpr::pre("price"),
                HExpr::post("price"),
            ));
        let (pre, post) = split_pre_post(&e, Temporal::Pre);
        assert_eq!(pre.len(), 1);
        assert_eq!(post.len(), 2);
        let rebuilt = conjoin(&pre).unwrap();
        assert!(!rebuilt.mentions_post());
    }

    #[test]
    fn post_column_collection() {
        let e = HExpr::binary(HOp::Gt, HExpr::post("rating"), HExpr::pre("price"));
        let b = bind_hexpr(&e, &schema(), Temporal::Pre).unwrap();
        assert_eq!(b.post_columns(), vec![1]);
        assert_eq!(b.pre_columns(), vec![0]);
    }

    #[test]
    fn arithmetic_across_worlds() {
        // Pre(price) - Post(price) < 15
        let e = HExpr::binary(
            HOp::Lt,
            HExpr::binary(HOp::Sub, HExpr::pre("price"), HExpr::post("price")),
            HExpr::lit(15.0),
        );
        let b = bind_hexpr(&e, &schema(), Temporal::Pre).unwrap();
        let pre = vec![Value::Float(100.0), Value::Float(0.0), Value::str("a")];
        let post = vec![Value::Float(90.0), Value::Float(0.0), Value::str("a")];
        assert_eq!(b.eval(&pre, &post).unwrap(), Value::Bool(true));
        let post = vec![Value::Float(80.0), Value::Float(0.0), Value::str("a")];
        assert_eq!(b.eval(&pre, &post).unwrap(), Value::Bool(false));
    }
}
