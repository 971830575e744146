//! Scalar expressions over rows: comparison, boolean logic, arithmetic.
//!
//! Expressions are written against column *names* and bound to a concrete
//! [`Schema`] before evaluation, compiling name lookups into positional
//! accesses (a pattern borrowed from DataFusion's physical expressions).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::column::{Column, NullBitmap, StrDict};
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=` (SQL equality with numeric coercion).
    Eq,
    /// `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// Logical AND (NULL-rejecting).
    And,
    /// Logical OR.
    Or,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Numeric negation.
    Neg,
}

/// An unbound scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// Literal value.
    Lit(Value),
    /// Unary application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `expr IN (v1, v2, …)` (or NOT IN).
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr IS NULL` (or IS NOT NULL).
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
}

/// Shorthand: column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// Shorthand: literal.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

impl Expr {
    /// Combine with AND.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::And, Box::new(self), Box::new(other))
    }
    /// Combine with OR.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Or, Box::new(self), Box::new(other))
    }
    /// Equality comparison.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(self), Box::new(other))
    }
    /// Inequality comparison.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(self), Box::new(other))
    }
    /// Less-than comparison.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(self), Box::new(other))
    }
    /// Less-or-equal comparison.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(self), Box::new(other))
    }
    /// Greater-than comparison.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(self), Box::new(other))
    }
    /// Greater-or-equal comparison.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(self), Box::new(other))
    }
    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary(UnaryOp::Not, Box::new(self))
    }
    /// Arithmetic sum.
    pub fn plus(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(other))
    }
    /// Arithmetic product.
    pub fn times(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(other))
    }
    /// Membership test.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated: false,
        }
    }

    /// All column names referenced by this expression (deduplicated, sorted).
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(c) => out.push(c.clone()),
            Expr::Lit(_) => {}
            Expr::Unary(_, e) => e.collect_columns(out),
            Expr::Binary(_, l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::InList { expr, .. } | Expr::IsNull { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Bind column names to positions in `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Column(name) => BoundExpr::Column(schema.index_of(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Unary(op, e) => BoundExpr::Unary(*op, Box::new(e.bind(schema)?)),
            Expr::Binary(op, l, r) => {
                BoundExpr::Binary(*op, Box::new(l.bind(schema)?), Box::new(r.bind(schema)?))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.bind(schema)?),
                negated: *negated,
            },
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "NOT ({e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|v| v.to_string()).collect();
                let kw = if *negated { "NOT IN" } else { "IN" };
                write!(f, "({expr} {kw} ({}))", items.join(", "))
            }
            Expr::IsNull { expr, negated } => {
                let kw = if *negated { "IS NOT NULL" } else { "IS NULL" };
                write!(f, "({expr} {kw})")
            }
        }
    }
}

/// An expression with column references resolved to positions.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Positional column reference.
    Column(usize),
    /// Literal.
    Lit(Value),
    /// Unary application.
    Unary(UnaryOp, Box<BoundExpr>),
    /// Binary application.
    Binary(BinOp, Box<BoundExpr>, Box<BoundExpr>),
    /// Membership test.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidate values.
        list: Vec<Value>,
        /// Negation flag.
        negated: bool,
    },
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Negation flag.
        negated: bool,
    },
}

impl BoundExpr {
    /// Evaluate against a materialized row.
    pub fn eval_row(&self, row: &[Value]) -> Result<Value> {
        self.eval_with(&mut |idx| row[idx].clone())
    }

    /// Evaluate against row `i` of a columnar table without materializing it.
    pub fn eval_at(&self, table: &Table, i: usize) -> Result<Value> {
        self.eval_with(&mut |idx| table.column(idx).value(i))
    }

    /// Core evaluator over an arbitrary cell accessor.
    pub fn eval_with(&self, get: &mut dyn FnMut(usize) -> Value) -> Result<Value> {
        Ok(match self {
            BoundExpr::Column(i) => get(*i),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Unary(UnaryOp::Not, e) => match e.eval_with(get)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                v => {
                    return Err(StorageError::TypeError(format!(
                        "NOT expects boolean, got {v}"
                    )))
                }
            },
            BoundExpr::Unary(UnaryOp::Neg, e) => {
                let v = e.eval_with(get)?;
                match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    Value::Null => Value::Null,
                    v => {
                        return Err(StorageError::TypeError(format!(
                            "negation expects numeric, got {v}"
                        )))
                    }
                }
            }
            BoundExpr::Binary(op, l, r) => {
                let lv = l.eval_with(get)?;
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        if lv == Value::Bool(false) {
                            return Ok(Value::Bool(false));
                        }
                        let rv = r.eval_with(get)?;
                        return eval_logical(BinOp::And, &lv, &rv);
                    }
                    BinOp::Or => {
                        if lv == Value::Bool(true) {
                            return Ok(Value::Bool(true));
                        }
                        let rv = r.eval_with(get)?;
                        return eval_logical(BinOp::Or, &lv, &rv);
                    }
                    _ => {}
                }
                let rv = r.eval_with(get)?;
                match op {
                    BinOp::Eq => Value::Bool(lv.sql_eq(&rv)),
                    BinOp::Ne => {
                        if lv.is_null() || rv.is_null() {
                            Value::Bool(false)
                        } else {
                            Value::Bool(!lv.sql_eq(&rv))
                        }
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match lv.sql_cmp(&rv) {
                        None => Value::Bool(false),
                        Some(ord) => Value::Bool(match op {
                            BinOp::Lt => ord.is_lt(),
                            BinOp::Le => ord.is_le(),
                            BinOp::Gt => ord.is_gt(),
                            BinOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        }),
                    },
                    BinOp::Add => lv.add(&rv)?,
                    BinOp::Sub => lv.sub(&rv)?,
                    BinOp::Mul => lv.mul(&rv)?,
                    BinOp::Div => lv.div(&rv)?,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_with(get)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let found = list.iter().any(|cand| v.sql_eq(cand));
                Value::Bool(found != *negated)
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval_with(get)?;
                Value::Bool(v.is_null() != *negated)
            }
        })
    }

    /// Evaluate as a predicate: non-boolean results are an error; NULL is
    /// treated as `false` (three-valued logic collapsed).
    pub fn eval_predicate_at(&self, table: &Table, i: usize) -> Result<bool> {
        match self.eval_at(table, i)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            v => Err(StorageError::TypeError(format!(
                "predicate evaluated to non-boolean {v}"
            ))),
        }
    }

    /// Vectorized evaluation: one typed [`Column`] holding the expression's
    /// value for every row of `table`. Column references are borrowed, so
    /// `col("a").eval_column(t)` costs one buffer clone at most; kernels
    /// run over typed slices (dictionary codes for string equality) with no
    /// per-cell [`Value`] boxing.
    pub fn eval_column(&self, table: &Table) -> Result<Column> {
        Ok(self.eval_vec(table)?.into_column(table.num_rows()))
    }

    /// Vectorized predicate: the selection vector of rows where the
    /// expression is `true` (NULL collapses to `false`, as in
    /// [`BoundExpr::eval_predicate_at`]).
    pub fn eval_selection(&self, table: &Table) -> Result<Vec<usize>> {
        self.eval_selection_range(table, 0, table.num_rows())
    }

    /// Range-restricted [`BoundExpr::eval_column`]: the expression's value
    /// for rows `start..start + len` only, as a column of length `len`.
    /// This is the per-morsel entry point: evaluating each morsel of a
    /// table and concatenating the results in morsel order is bit-identical
    /// to one whole-table evaluation (integer arithmetic that overflows in
    /// *any* morsel promotes the concatenation to floats, exactly like the
    /// whole-column promotion).
    pub fn eval_column_range(&self, table: &Table, start: usize, len: usize) -> Result<Column> {
        Ok(self.eval_vec_range(table, start, len)?.into_column(len))
    }

    /// Range-restricted [`BoundExpr::eval_selection`]: matching rows within
    /// `start..start + len`, reported as *global* row indices, so
    /// concatenating per-morsel selections in morsel order reproduces the
    /// whole-table selection exactly.
    pub fn eval_selection_range(
        &self,
        table: &Table,
        start: usize,
        len: usize,
    ) -> Result<Vec<usize>> {
        match self.eval_vec_range(table, start, len)? {
            Ev::Scalar(Value::Bool(true)) => Ok((start..start + len).collect()),
            Ev::Scalar(Value::Bool(false)) | Ev::Scalar(Value::Null) => Ok(Vec::new()),
            Ev::Scalar(v) => {
                if len == 0 {
                    Ok(Vec::new())
                } else {
                    Err(StorageError::TypeError(format!(
                        "predicate evaluated to non-boolean {v}"
                    )))
                }
            }
            Ev::Col(c) => {
                let mut keep = selection_from_column(&c)?;
                if start != 0 {
                    for i in &mut keep {
                        *i += start;
                    }
                }
                Ok(keep)
            }
        }
    }

    /// Internal vectorized evaluator; literals stay scalar until a kernel
    /// needs them, so `price < 700` never materializes a broadcast column.
    fn eval_vec<'a>(&'a self, table: &'a Table) -> Result<Ev<'a>> {
        self.eval_vec_range(table, 0, table.num_rows())
    }

    /// Vectorized evaluation over rows `start..start + len`. The full
    /// range borrows column leaves; a strict sub-range slices them (a
    /// verbatim typed copy of the morsel's rows, dictionary shared), after
    /// which every kernel is oblivious to where the morsel came from.
    fn eval_vec_range<'a>(&'a self, table: &'a Table, start: usize, len: usize) -> Result<Ev<'a>> {
        let n = len;
        Ok(match self {
            BoundExpr::Column(i) => {
                let col = table.column(*i);
                if start == 0 && len == col.len() {
                    Ev::Col(Cow::Borrowed(col))
                } else {
                    Ev::Col(Cow::Owned(col.slice(start, len)))
                }
            }
            BoundExpr::Lit(v) => Ev::Scalar(v.clone()),
            BoundExpr::Unary(UnaryOp::Not, e) => {
                kernel_not(e.eval_vec_range(table, start, len)?, n)?
            }
            BoundExpr::Unary(UnaryOp::Neg, e) => {
                kernel_neg(e.eval_vec_range(table, start, len)?, n)?
            }
            BoundExpr::Binary(op, l, r) => {
                let lv = l.eval_vec_range(table, start, len)?;
                match op {
                    // Logical connectives: the row evaluator short-circuits
                    // (a false AND-side suppresses both right-hand
                    // evaluation errors *and* a non-boolean right side), so
                    // when the eager vectorized path fails — RHS evaluation
                    // or the boolean combine itself — re-run this node
                    // row-at-a-time: rows decided by the left side never
                    // touch the right side, exactly as in
                    // `eval_predicate_at`.
                    BinOp::And | BinOp::Or => {
                        let vectorized = r
                            .eval_vec_range(table, start, len)
                            .and_then(|rv| kernel_logic(*op, lv, rv, n));
                        match vectorized {
                            Ok(ev) => ev,
                            Err(_) => row_fallback(self, table, start, n)?,
                        }
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        kernel_compare(*op, lv, r.eval_vec_range(table, start, len)?, n)?
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        kernel_arith(*op, lv, r.eval_vec_range(table, start, len)?, n)?
                    }
                }
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => kernel_in_list(expr.eval_vec_range(table, start, len)?, list, *negated, n)?,
            BoundExpr::IsNull { expr, negated } => match expr.eval_vec_range(table, start, len)? {
                Ev::Scalar(v) => Ev::Scalar(Value::Bool(v.is_null() != *negated)),
                Ev::Col(c) => {
                    let nulls = c.nulls();
                    let values: Vec<bool> = (0..n).map(|i| nulls.is_null(i) != *negated).collect();
                    Ev::Col(Cow::Owned(Column::Bool {
                        values,
                        nulls: NullBitmap::all_valid(n),
                    }))
                }
            },
        })
    }
}

/// One operand of a vectorized kernel ([`BinOp::eval_operands`],
/// [`eval_in_list`]): a column, or a scalar that every row shares.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// A column of `n` rows.
    Column(&'a Column),
    /// A scalar standing for `n` rows.
    Scalar(&'a Value),
}

impl<'a> Operand<'a> {
    fn ev(self) -> Ev<'a> {
        match self {
            Operand::Column(c) => Ev::Col(Cow::Borrowed(c)),
            Operand::Scalar(v) => Ev::Scalar(v.clone()),
        }
    }
}

impl BinOp {
    /// The comparison or arithmetic kernel of [`BoundExpr::eval_column`]
    /// applied to two already-evaluated operands of `n` rows. This serves
    /// evaluators that walk their own expression trees (and so own their
    /// `AND`/`OR` logic): for them `And`/`Or` are a type error here.
    pub fn eval_operands(self, l: Operand<'_>, r: Operand<'_>, n: usize) -> Result<Column> {
        let ev = match self {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                kernel_compare(self, l.ev(), r.ev(), n)?
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                kernel_arith(self, l.ev(), r.ev(), n)?
            }
            BinOp::And | BinOp::Or => {
                return Err(StorageError::TypeError(format!(
                    "{self} is not an operand kernel"
                )))
            }
        };
        Ok(ev.into_column(n))
    }
}

/// The `IN`-list kernel of [`BoundExpr::eval_column`] over an
/// already-evaluated operand of `n` rows (a NULL tested value is `false`
/// under `IN` and `NOT IN` alike).
pub fn eval_in_list(e: Operand<'_>, list: &[Value], negated: bool, n: usize) -> Result<Column> {
    Ok(kernel_in_list(e.ev(), list, negated, n)?.into_column(n))
}

/// A lazily-broadcast evaluation result: a full column or a scalar that
/// every row shares.
enum Ev<'a> {
    Col(Cow<'a, Column>),
    Scalar(Value),
}

impl Ev<'_> {
    fn into_column(self, n: usize) -> Column {
        match self {
            Ev::Col(c) => c.into_owned(),
            Ev::Scalar(v) => broadcast(&v, n),
        }
    }
}

/// Row-at-a-time re-evaluation of a logical node whose vectorized path
/// failed: reproduces the row evaluator's short-circuit semantics exactly
/// (errors surface only on rows that actually evaluate the failing side).
/// `start` offsets into the table for range evaluation; the result column
/// is morsel-local (length `n`).
fn row_fallback<'a>(expr: &BoundExpr, table: &Table, start: usize, n: usize) -> Result<Ev<'a>> {
    let mut values = Vec::with_capacity(n);
    let mut nulls = NullBitmap::all_valid(n);
    for i in 0..n {
        match expr.eval_at(table, start + i)? {
            Value::Bool(b) => values.push(b),
            Value::Null => {
                values.push(false);
                nulls.set(i, true);
            }
            v => {
                return Err(StorageError::TypeError(format!(
                    "logical operator expects boolean, got {v}"
                )))
            }
        }
    }
    Ok(Ev::Col(Cow::Owned(Column::Bool { values, nulls })))
}

/// Materialize a scalar as a column of length `n`. NULL broadcasts as an
/// all-null Float column (the same Float fallback the row-oriented
/// projection used for untyped expressions).
fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Int(x) => Column::Int {
            values: vec![*x; n],
            nulls: NullBitmap::all_valid(n),
        },
        Value::Float(x) => Column::Float {
            values: vec![*x; n],
            nulls: NullBitmap::all_valid(n),
        },
        Value::Bool(b) => Column::Bool {
            values: vec![*b; n],
            nulls: NullBitmap::all_valid(n),
        },
        Value::Str(_) | Value::Null => {
            let mut c = Column::new(match v {
                Value::Str(_) => crate::value::DataType::Str,
                _ => crate::value::DataType::Float,
            });
            c.reserve(n);
            for _ in 0..n {
                c.push(v).expect("broadcast of a matching value");
            }
            c
        }
    }
}

/// Selection vector from an evaluated predicate column: `true` rows only;
/// NULL → skipped; a non-boolean column with any non-NULL row is an error.
fn selection_from_column(c: &Column) -> Result<Vec<usize>> {
    match c.as_bool() {
        Some((values, nulls)) => {
            let mut keep = Vec::new();
            if nulls.any_null() {
                for (i, &v) in values.iter().enumerate() {
                    if v && !nulls.is_null(i) {
                        keep.push(i);
                    }
                }
            } else {
                for (i, &v) in values.iter().enumerate() {
                    if v {
                        keep.push(i);
                    }
                }
            }
            Ok(keep)
        }
        None => {
            if c.null_count() == c.len() {
                Ok(Vec::new()) // all-NULL predicate: uniformly false
            } else {
                let i = (0..c.len()).find(|&i| !c.is_null(i)).unwrap_or(0);
                Err(StorageError::TypeError(format!(
                    "predicate evaluated to non-boolean {}",
                    c.value(i)
                )))
            }
        }
    }
}

/// Per-row numeric accessor over a typed column or scalar (the `as_f64`
/// coercion: Int/Float pass through, Bool maps to 0/1, NULL and strings
/// are `None`).
enum NumSrc<'a> {
    I(&'a [i64], &'a NullBitmap),
    F(&'a [f64], &'a NullBitmap),
    B(&'a [bool], &'a NullBitmap),
    Const(Option<f64>),
}

impl NumSrc<'_> {
    #[inline]
    fn at(&self, i: usize) -> Option<f64> {
        match self {
            NumSrc::I(v, nulls) => (!nulls.is_null(i)).then(|| v[i] as f64),
            NumSrc::F(v, nulls) => (!nulls.is_null(i)).then(|| v[i]),
            NumSrc::B(v, nulls) => (!nulls.is_null(i)).then(|| if v[i] { 1.0 } else { 0.0 }),
            NumSrc::Const(x) => *x,
        }
    }
}

/// Classify an evaluated side for the comparison/arithmetic kernels.
enum Side<'a> {
    Num(NumSrc<'a>),
    Str(StrSrc<'a>),
    NullScalar,
}

enum StrSrc<'a> {
    Col(&'a [u32], &'a StrDict, &'a NullBitmap),
    Const(&'a Arc<str>),
}

impl StrSrc<'_> {
    #[inline]
    fn at(&self, i: usize) -> Option<&str> {
        match self {
            StrSrc::Col(codes, dict, nulls) => {
                (!nulls.is_null(i)).then(|| dict.get(codes[i]).as_ref())
            }
            StrSrc::Const(s) => Some(s.as_ref()),
        }
    }
}

fn classify<'a>(ev: &'a Ev<'a>) -> Side<'a> {
    match ev {
        Ev::Col(c) => match c.as_ref() {
            Column::Int { values, nulls } => Side::Num(NumSrc::I(values, nulls)),
            Column::Float { values, nulls } => Side::Num(NumSrc::F(values, nulls)),
            Column::Bool { values, nulls } => Side::Num(NumSrc::B(values, nulls)),
            Column::Str { codes, dict, nulls } => Side::Str(StrSrc::Col(codes, dict, nulls)),
        },
        Ev::Scalar(Value::Int(x)) => Side::Num(NumSrc::Const(Some(*x as f64))),
        Ev::Scalar(Value::Float(x)) => Side::Num(NumSrc::Const(Some(*x))),
        Ev::Scalar(Value::Bool(b)) => Side::Num(NumSrc::Const(Some(if *b { 1.0 } else { 0.0 }))),
        Ev::Scalar(Value::Str(s)) => Side::Str(StrSrc::Const(s)),
        Ev::Scalar(Value::Null) => Side::NullScalar,
    }
}

fn bool_col(values: Vec<bool>) -> Ev<'static> {
    let n = values.len();
    Ev::Col(Cow::Owned(Column::Bool {
        values,
        nulls: NullBitmap::all_valid(n),
    }))
}

/// Comparison kernel (`=`, `<>`, `<`, `<=`, `>`, `>=`): SQL semantics with
/// numeric coercion, NULL compares false under every operator, and
/// cross-type comparisons collapse to `false` (`<>` to `true` on non-NULL
/// pairs), exactly like [`Value::sql_eq`] / [`Value::sql_cmp`].
fn kernel_compare<'a>(op: BinOp, l: Ev<'a>, r: Ev<'a>, n: usize) -> Result<Ev<'a>> {
    let apply_ord = |ord: Option<std::cmp::Ordering>| -> bool {
        match ord {
            None => false,
            Some(o) => match op {
                BinOp::Lt => o.is_lt(),
                BinOp::Le => o.is_le(),
                BinOp::Gt => o.is_gt(),
                BinOp::Ge => o.is_ge(),
                _ => unreachable!(),
            },
        }
    };
    let out = match (classify(&l), classify(&r)) {
        // NULL operand: every comparison is false.
        (Side::NullScalar, _) | (_, Side::NullScalar) => vec![false; n],
        (Side::Num(a), Side::Num(b)) => match op {
            BinOp::Eq => (0..n)
                .map(|i| matches!((a.at(i), b.at(i)), (Some(x), Some(y)) if x == y))
                .collect(),
            BinOp::Ne => (0..n)
                .map(|i| matches!((a.at(i), b.at(i)), (Some(x), Some(y)) if x != y))
                .collect(),
            _ => (0..n)
                .map(|i| match (a.at(i), b.at(i)) {
                    (Some(x), Some(y)) => apply_ord(x.partial_cmp(&y)),
                    _ => false,
                })
                .collect(),
        },
        (Side::Str(a), Side::Str(b)) => match (op, &a, &b) {
            // Dictionary fast path: equality against a string literal
            // compares codes, not characters.
            (BinOp::Eq | BinOp::Ne, StrSrc::Col(codes, dict, nulls), StrSrc::Const(s))
            | (BinOp::Eq | BinOp::Ne, StrSrc::Const(s), StrSrc::Col(codes, dict, nulls)) => {
                let target = dict.code_of(s);
                let want_eq = op == BinOp::Eq;
                (0..n)
                    .map(|i| {
                        if nulls.is_null(i) {
                            false
                        } else {
                            (target == Some(codes[i])) == want_eq
                        }
                    })
                    .collect()
            }
            (BinOp::Eq, _, _) => (0..n)
                .map(|i| matches!((a.at(i), b.at(i)), (Some(x), Some(y)) if x == y))
                .collect(),
            (BinOp::Ne, _, _) => (0..n)
                .map(|i| matches!((a.at(i), b.at(i)), (Some(x), Some(y)) if x != y))
                .collect(),
            _ => (0..n)
                .map(|i| match (a.at(i), b.at(i)) {
                    (Some(x), Some(y)) => apply_ord(Some(x.cmp(y))),
                    _ => false,
                })
                .collect(),
        },
        // Mixed string/numeric: never equal, never ordered; `<>` is true
        // exactly where both sides are non-NULL.
        (Side::Str(a), Side::Num(b)) => {
            mixed_compare(op, |i| a.at(i).is_some(), |i| b.at(i).is_some(), n)
        }
        (Side::Num(a), Side::Str(b)) => {
            mixed_compare(op, |i| a.at(i).is_some(), |i| b.at(i).is_some(), n)
        }
    };
    Ok(bool_col(out))
}

fn mixed_compare(
    op: BinOp,
    l_valid: impl Fn(usize) -> bool,
    r_valid: impl Fn(usize) -> bool,
    n: usize,
) -> Vec<bool> {
    match op {
        BinOp::Ne => (0..n).map(|i| l_valid(i) && r_valid(i)).collect(),
        _ => vec![false; n],
    }
}

/// Arithmetic kernel. Matches the row-oriented semantics: `Int ∘ Int`
/// stays integer (checked, overflowing rows fall back to float — and
/// promote the whole column), any float/bool operand produces floats,
/// NULL or non-numeric operands are per-row type errors, and division
/// always yields floats and rejects zero divisors.
fn kernel_arith<'a>(op: BinOp, l: Ev<'a>, r: Ev<'a>, n: usize) -> Result<Ev<'a>> {
    if n == 0 {
        return Ok(Ev::Col(Cow::Owned(Column::new(
            crate::value::DataType::Float,
        ))));
    }
    let err = |i: usize| -> StorageError {
        let (a, b) = (ev_value(&l, i), ev_value(&r, i));
        let sym = match op {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            _ => "/",
        };
        if op == BinOp::Div {
            StorageError::TypeError(format!("cannot divide {a} by {b}"))
        } else {
            StorageError::TypeError(format!("cannot apply `{sym}` to {a} and {b}"))
        }
    };
    // Integer fast path: both sides integer-typed.
    if op != BinOp::Div {
        if let (Some((la, ln)), Some((ra, rn))) = (ev_int(&l), ev_int(&r)) {
            let g = match op {
                BinOp::Add => i64::checked_add,
                BinOp::Sub => i64::checked_sub,
                BinOp::Mul => i64::checked_mul,
                _ => unreachable!(),
            };
            let f = float_op(op);
            let mut values = Vec::with_capacity(n);
            let mut overflowed = false;
            for i in 0..n {
                let (x, y) = match (la.get(i, ln), ra.get(i, rn)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return Err(err(i)),
                };
                match g(x, y) {
                    Some(v) => values.push(v),
                    None => {
                        overflowed = true;
                        break;
                    }
                }
            }
            if !overflowed {
                return Ok(Ev::Col(Cow::Owned(Column::Int {
                    values,
                    nulls: NullBitmap::all_valid(n),
                })));
            }
            // Rare overflow: redo in floats (per-row fallback promotes the
            // whole column; row values match the scalar fallback). NULL
            // rows past the overflow point still error like the row
            // evaluator — the checked loop above stopped before seeing
            // them.
            let mut values = Vec::with_capacity(n);
            for i in 0..n {
                let (x, y) = match (la.get(i, ln), ra.get(i, rn)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return Err(err(i)),
                };
                values.push(match g(x, y) {
                    Some(v) => v as f64,
                    None => f(x as f64, y as f64),
                });
            }
            return Ok(Ev::Col(Cow::Owned(Column::Float {
                values,
                nulls: NullBitmap::all_valid(n),
            })));
        }
    }
    let (a, b) = match (classify(&l), classify(&r)) {
        (Side::Num(a), Side::Num(b)) => (a, b),
        _ => return Err(err(0)),
    };
    let f = float_op(op);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        match (a.at(i), b.at(i)) {
            (Some(x), Some(y)) => {
                if op == BinOp::Div && y == 0.0 {
                    return Err(StorageError::TypeError("division by zero".into()));
                }
                values.push(f(x, y));
            }
            _ => return Err(err(i)),
        }
    }
    Ok(Ev::Col(Cow::Owned(Column::Float {
        values,
        nulls: NullBitmap::all_valid(n),
    })))
}

fn float_op(op: BinOp) -> fn(f64, f64) -> f64 {
    match op {
        BinOp::Add => |x, y| x + y,
        BinOp::Sub => |x, y| x - y,
        BinOp::Mul => |x, y| x * y,
        BinOp::Div => |x, y| x / y,
        _ => unreachable!(),
    }
}

/// Integer view of a side for the integer arithmetic fast path.
enum IntSrc<'a> {
    Slice(&'a [i64]),
    Const(i64),
}

impl IntSrc<'_> {
    #[inline]
    fn get(&self, i: usize, nulls: Option<&NullBitmap>) -> Option<i64> {
        if nulls.is_some_and(|b| b.is_null(i)) {
            return None;
        }
        Some(match self {
            IntSrc::Slice(v) => v[i],
            IntSrc::Const(x) => *x,
        })
    }
}

fn ev_int<'a>(ev: &'a Ev<'a>) -> Option<(IntSrc<'a>, Option<&'a NullBitmap>)> {
    match ev {
        Ev::Col(c) => c
            .as_int()
            .map(|(values, nulls)| (IntSrc::Slice(values), Some(nulls))),
        Ev::Scalar(Value::Int(x)) => Some((IntSrc::Const(*x), None)),
        _ => None,
    }
}

fn ev_value(ev: &Ev<'_>, i: usize) -> Value {
    match ev {
        Ev::Col(c) => c.value(i),
        Ev::Scalar(v) => v.clone(),
    }
}

/// Kleene three-valued AND/OR over boolean columns/scalars. A non-boolean
/// operand with any non-NULL row is a type error (as in the row evaluator).
fn kernel_logic<'a>(op: BinOp, l: Ev<'a>, r: Ev<'a>, n: usize) -> Result<Ev<'a>> {
    let lb = ev_bool(&l, n)?;
    let rb = ev_bool(&r, n)?;
    let mut values = Vec::with_capacity(n);
    let mut nulls = NullBitmap::all_valid(n);
    for i in 0..n {
        let v = match op {
            BinOp::And => match (lb.at(i), rb.at(i)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            _ => match (lb.at(i), rb.at(i)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        };
        match v {
            Some(b) => values.push(b),
            None => {
                values.push(false);
                nulls.set(i, true);
            }
        }
    }
    Ok(Ev::Col(Cow::Owned(Column::Bool { values, nulls })))
}

enum BoolSrc<'a> {
    Col(&'a [bool], &'a NullBitmap),
    Const(Option<bool>),
}

impl BoolSrc<'_> {
    #[inline]
    fn at(&self, i: usize) -> Option<bool> {
        match self {
            BoolSrc::Col(v, nulls) => (!nulls.is_null(i)).then(|| v[i]),
            BoolSrc::Const(b) => *b,
        }
    }
}

fn ev_bool<'a>(ev: &'a Ev<'a>, n: usize) -> Result<BoolSrc<'a>> {
    match ev {
        Ev::Col(c) => match c.as_bool() {
            Some((values, nulls)) => Ok(BoolSrc::Col(values, nulls)),
            None if c.null_count() == c.len() => Ok(BoolSrc::Const(None)),
            None => {
                let i = (0..c.len()).find(|&i| !c.is_null(i)).unwrap_or(0);
                Err(StorageError::TypeError(format!(
                    "logical operator expects boolean, got {}",
                    c.value(i)
                )))
            }
        },
        Ev::Scalar(Value::Bool(b)) => Ok(BoolSrc::Const(Some(*b))),
        Ev::Scalar(Value::Null) => Ok(BoolSrc::Const(None)),
        Ev::Scalar(v) => {
            if n == 0 {
                Ok(BoolSrc::Const(None))
            } else {
                Err(StorageError::TypeError(format!(
                    "logical operator expects boolean, got {v}"
                )))
            }
        }
    }
}

fn kernel_not<'a>(e: Ev<'a>, n: usize) -> Result<Ev<'a>> {
    match &e {
        Ev::Scalar(Value::Bool(b)) => return Ok(Ev::Scalar(Value::Bool(!b))),
        Ev::Scalar(Value::Null) => return Ok(Ev::Scalar(Value::Null)),
        Ev::Scalar(v) => {
            return if n == 0 {
                Ok(Ev::Scalar(Value::Null))
            } else {
                Err(StorageError::TypeError(format!(
                    "NOT expects boolean, got {v}"
                )))
            }
        }
        Ev::Col(_) => {}
    }
    let src = match &e {
        Ev::Col(c) => ev_bool(&e, n).map_err(|_| {
            let i = (0..c.len()).find(|&i| !c.is_null(i)).unwrap_or(0);
            StorageError::TypeError(format!("NOT expects boolean, got {}", c.value(i)))
        })?,
        _ => unreachable!(),
    };
    let mut values = Vec::with_capacity(n);
    let mut nulls = NullBitmap::all_valid(n);
    for i in 0..n {
        match src.at(i) {
            Some(b) => values.push(!b),
            None => {
                values.push(false);
                nulls.set(i, true);
            }
        }
    }
    Ok(Ev::Col(Cow::Owned(Column::Bool { values, nulls })))
}

fn kernel_neg<'a>(e: Ev<'a>, n: usize) -> Result<Ev<'a>> {
    match e {
        Ev::Scalar(Value::Int(x)) => Ok(Ev::Scalar(Value::Int(-x))),
        Ev::Scalar(Value::Float(x)) => Ok(Ev::Scalar(Value::Float(-x))),
        Ev::Scalar(Value::Null) => Ok(Ev::Scalar(Value::Null)),
        Ev::Scalar(v) => {
            if n == 0 {
                Ok(Ev::Scalar(Value::Null))
            } else {
                Err(StorageError::TypeError(format!(
                    "negation expects numeric, got {v}"
                )))
            }
        }
        Ev::Col(c) => match c.as_ref() {
            Column::Int { values, nulls } => Ok(Ev::Col(Cow::Owned(Column::Int {
                values: values.iter().map(|x| x.wrapping_neg()).collect(),
                nulls: nulls.clone(),
            }))),
            Column::Float { values, nulls } => Ok(Ev::Col(Cow::Owned(Column::Float {
                values: values.iter().map(|x| -x).collect(),
                nulls: nulls.clone(),
            }))),
            other if other.null_count() == other.len() => Ok(Ev::Col(Cow::Owned(Column::Float {
                values: vec![0.0; n],
                nulls: all_null(n),
            }))),
            other => {
                let i = (0..other.len()).find(|&i| !other.is_null(i)).unwrap_or(0);
                Err(StorageError::TypeError(format!(
                    "negation expects numeric, got {}",
                    other.value(i)
                )))
            }
        },
    }
}

fn all_null(n: usize) -> NullBitmap {
    let mut b = NullBitmap::new();
    for _ in 0..n {
        b.push(true);
    }
    b
}

/// `IN` membership kernel (SQL equality against each candidate, NULL tested
/// value → false). String columns match by dictionary code.
fn kernel_in_list<'a>(e: Ev<'a>, list: &[Value], negated: bool, n: usize) -> Result<Ev<'a>> {
    if let Ev::Scalar(v) = &e {
        if v.is_null() {
            return Ok(Ev::Scalar(Value::Bool(false)));
        }
        let found = list.iter().any(|cand| v.sql_eq(cand));
        return Ok(Ev::Scalar(Value::Bool(found != negated)));
    }
    let out = match classify(&e) {
        Side::NullScalar => unreachable!("scalar handled above"),
        Side::Str(StrSrc::Col(codes, dict, nulls)) => {
            // Candidate strings resolve to codes once; non-string
            // candidates can never equal a string value.
            let mut target_codes: Vec<u32> = list
                .iter()
                .filter_map(|v| v.as_str().and_then(|s| dict.code_of(s)))
                .collect();
            target_codes.sort_unstable();
            target_codes.dedup();
            (0..n)
                .map(|i| {
                    if nulls.is_null(i) {
                        false
                    } else {
                        target_codes.binary_search(&codes[i]).is_ok() != negated
                    }
                })
                .collect()
        }
        Side::Str(StrSrc::Const(_)) => unreachable!("scalar handled above"),
        Side::Num(src) => {
            let nums: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
            (0..n)
                .map(|i| match src.at(i) {
                    None => false,
                    Some(x) => nums.contains(&x) != negated,
                })
                .collect()
        }
    };
    Ok(bool_col(out))
}

fn eval_logical(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    let lb = coerce_bool(l)?;
    let rb = coerce_bool(r)?;
    Ok(match (op, lb, rb) {
        (BinOp::And, Some(a), Some(b)) => Value::Bool(a && b),
        (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Value::Bool(false),
        (BinOp::Or, Some(a), Some(b)) => Value::Bool(a || b),
        (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn coerce_bool(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        v => Err(StorageError::TypeError(format!(
            "logical operator expects boolean, got {v}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::nullable("c", DataType::Str),
        ])
        .unwrap()
    }

    fn eval(e: &Expr, row: &[Value]) -> Value {
        e.bind(&schema()).unwrap().eval_row(row).unwrap()
    }

    #[test]
    fn comparisons() {
        let row = vec![Value::Int(5), Value::Float(2.5), Value::str("x")];
        assert_eq!(eval(&col("a").gt(lit(4)), &row), Value::Bool(true));
        assert_eq!(eval(&col("a").le(lit(4)), &row), Value::Bool(false));
        assert_eq!(eval(&col("b").eq(lit(2.5)), &row), Value::Bool(true));
        assert_eq!(eval(&col("c").eq(lit("x")), &row), Value::Bool(true));
        assert_eq!(eval(&col("a").eq(lit(5.0)), &row), Value::Bool(true));
    }

    #[test]
    fn logic_and_null_handling() {
        let row = vec![Value::Int(5), Value::Float(2.5), Value::Null];
        let e = col("a").gt(lit(0)).and(col("c").eq(lit("x")));
        assert_eq!(eval(&e, &row), Value::Bool(false));
        let e = col("a").gt(lit(0)).or(col("c").eq(lit("x")));
        assert_eq!(eval(&e, &row), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(col("c")),
            negated: false,
        };
        assert_eq!(eval(&e, &row), Value::Bool(true));
    }

    #[test]
    fn arithmetic_expressions() {
        let row = vec![Value::Int(4), Value::Float(0.5), Value::Null];
        let e = col("a").times(lit(2)).plus(col("b"));
        assert_eq!(eval(&e, &row), Value::Float(8.5));
        let e = Expr::Binary(BinOp::Div, Box::new(col("a")), Box::new(lit(2)));
        assert_eq!(eval(&e, &row), Value::Float(2.0));
    }

    #[test]
    fn in_list_membership() {
        let row = vec![Value::Int(4), Value::Float(0.5), Value::str("red")];
        let e = col("c").in_list(vec!["red".into(), "blue".into()]);
        assert_eq!(eval(&e, &row), Value::Bool(true));
        let e = Expr::InList {
            expr: Box::new(col("a")),
            list: vec![1.into(), 2.into()],
            negated: true,
        };
        assert_eq!(eval(&e, &row), Value::Bool(true));
    }

    #[test]
    fn bind_rejects_unknown_columns() {
        assert!(col("zzz").eq(lit(1)).bind(&schema()).is_err());
    }

    #[test]
    fn referenced_columns_deduplicates() {
        let e = col("a").gt(lit(1)).and(col("a").lt(col("b")));
        assert_eq!(
            e.referenced_columns(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // RHS would type-error (NOT over Int), but AND short-circuits.
        let row = vec![Value::Int(1), Value::Float(0.0), Value::Null];
        let e = col("a")
            .gt(lit(100))
            .and(Expr::Unary(UnaryOp::Not, Box::new(col("a"))));
        assert_eq!(eval(&e, &row), Value::Bool(false));
    }

    #[test]
    fn display_round_trips_visually() {
        let e = col("a").gt(lit(1)).and(col("c").eq(lit("x")));
        assert_eq!(e.to_string(), "((a > 1) AND (c = 'x'))");
    }
}
