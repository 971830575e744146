//! Canonical cache keys derived structurally from the query IR.
//!
//! A [`QueryKey`] is a compact, injective-by-construction encoding of an
//! AST fragment: every node is written as a tag plus `\u{1f}`-separated
//! fields, strings are length-prefixed (so no input text can forge a
//! separator), and floats are encoded by their IEEE-754 bit pattern (so
//! `0.1 + 0.2` and `0.3` key differently, exactly like the ASTs differ).
//! Equal keys therefore imply equal ASTs — and because parsed and built
//! queries are the *same* IR, they share cache entries with no rendering
//! or re-parsing involved.
//!
//! Identifier and literal text is encoded exactly (no case folding): table
//! lookup and string-value comparison are case-sensitive downstream, so a
//! spelling difference can cost at most a duplicate cache entry, never a
//! wrong answer.

use std::fmt;

use hyper_storage::Value;

use crate::ast::*;

/// Unit separator between encoded fields.
const SEP: char = '\u{1f}';

/// A canonical structural fingerprint of a query (or query fragment),
/// usable as a cache key. Cheap to clone and hash; ordered for use in
/// sorted maps.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey(String);

impl QueryKey {
    /// Key of a `Use` clause (the relevant-view cache key).
    pub fn of_use(u: &UseClause) -> QueryKey {
        let mut out = String::with_capacity(64);
        write_use(&mut out, u);
        QueryKey(out)
    }

    /// Key of a complete what-if query.
    pub fn of_whatif(q: &WhatIfQuery) -> QueryKey {
        let mut out = String::with_capacity(128);
        out.push_str("wi");
        out.push(SEP);
        write_use(&mut out, &q.use_clause);
        out.push(SEP);
        write_opt_expr(&mut out, &q.when);
        out.push(SEP);
        for u in &q.updates {
            write_update_spec(&mut out, u);
        }
        out.push(SEP);
        write_output(&mut out, &q.output);
        out.push(SEP);
        write_opt_expr(&mut out, &q.for_clause);
        QueryKey(out)
    }

    /// Key of a complete how-to query.
    pub fn of_howto(q: &HowToQuery) -> QueryKey {
        let mut out = String::with_capacity(128);
        out.push_str("ht");
        out.push(SEP);
        write_use(&mut out, &q.use_clause);
        out.push(SEP);
        write_opt_expr(&mut out, &q.when);
        out.push(SEP);
        for a in &q.update_attrs {
            write_str(&mut out, a);
        }
        out.push(SEP);
        for l in &q.limits {
            write_limit(&mut out, l);
        }
        out.push(SEP);
        write_objective(&mut out, &q.objective);
        out.push(SEP);
        write_opt_expr(&mut out, &q.for_clause);
        QueryKey(out)
    }

    /// Key of either query kind.
    pub fn of_query(q: &HypotheticalQuery) -> QueryKey {
        match q {
            HypotheticalQuery::WhatIf(q) => QueryKey::of_whatif(q),
            HypotheticalQuery::HowTo(q) => QueryKey::of_howto(q),
        }
    }

    /// The underlying key string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for QueryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keys contain control separators; display them printably.
        write!(f, "{}", self.0.replace(SEP, "·"))
    }
}

impl AsRef<str> for QueryKey {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Length-prefixed exact text: `7:example`.
fn write_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}:{s}", s.len());
}

/// Encode a literal with a type tag; floats use their bit pattern.
pub fn write_value(out: &mut String, v: &Value) {
    use std::fmt::Write as _;
    match v {
        Value::Int(i) => {
            let _ = write!(out, "i{i}");
        }
        Value::Float(x) => {
            let _ = write!(out, "f{:016x}", x.to_bits());
        }
        Value::Bool(b) => {
            let _ = write!(out, "b{}", *b as u8);
        }
        Value::Str(s) => {
            out.push('s');
            write_str(out, s);
        }
        Value::Null => out.push('n'),
    }
}

fn write_qualified(out: &mut String, q: &QualifiedName) {
    match &q.qualifier {
        Some(t) => {
            out.push('q');
            write_str(out, t);
            out.push('.');
            write_str(out, &q.name);
        }
        None => {
            out.push('u');
            write_str(out, &q.name);
        }
    }
}

/// Encode a hypothetical expression.
pub fn write_expr(out: &mut String, e: &HExpr) {
    match e {
        HExpr::Attr { temporal, name } => {
            out.push(match temporal {
                Some(Temporal::Pre) => 'P',
                Some(Temporal::Post) => 'O',
                None => 'D',
            });
            write_str(out, name);
        }
        HExpr::Lit(v) => {
            out.push('L');
            write_value(out, v);
        }
        HExpr::Param(name) => {
            out.push('$');
            write_str(out, name);
        }
        HExpr::Not(inner) => {
            out.push('!');
            write_expr(out, inner);
        }
        HExpr::Binary { op, left, right } => {
            out.push('B');
            out.push(op_tag(*op));
            write_expr(out, left);
            write_expr(out, right);
        }
        HExpr::InList {
            expr,
            list,
            negated,
        } => {
            out.push(if *negated { 'J' } else { 'I' });
            write_expr(out, expr);
            out.push('[');
            for v in list {
                write_value(out, v);
            }
            out.push(']');
        }
    }
}

fn write_opt_expr(out: &mut String, e: &Option<HExpr>) {
    match e {
        Some(e) => write_expr(out, e),
        None => out.push('-'),
    }
}

fn op_tag(op: HOp) -> char {
    match op {
        HOp::Eq => '=',
        HOp::Ne => '≠',
        HOp::Lt => '<',
        HOp::Le => '≤',
        HOp::Gt => '>',
        HOp::Ge => '≥',
        HOp::And => '&',
        HOp::Or => '|',
        HOp::Add => '+',
        HOp::Sub => '-',
        HOp::Mul => '*',
        HOp::Div => '/',
    }
}

/// Encode one `Update(attr) = f` specification.
pub fn write_update_spec(out: &mut String, u: &UpdateSpec) {
    use std::fmt::Write as _;
    out.push('U');
    write_str(out, &u.attr);
    match &u.func {
        UpdateFunc::Set(v) => {
            out.push('=');
            write_value(out, v);
        }
        UpdateFunc::Scale(c) => {
            let _ = write!(out, "*{:016x}", c.to_bits());
        }
        UpdateFunc::Shift(c) => {
            let _ = write!(out, "+{:016x}", c.to_bits());
        }
        UpdateFunc::Param { name, mode } => {
            out.push(match mode {
                ParamMode::Set => '$',
                ParamMode::Scale => '×',
                ParamMode::Shift => '±',
            });
            write_str(out, name);
        }
    }
}

/// Encode the `Output` operator.
pub fn write_output(out: &mut String, o: &OutputSpec) {
    use std::fmt::Write as _;
    let _ = write!(out, "A{:?}", o.agg);
    match &o.arg {
        OutputArg::Star => out.push('*'),
        OutputArg::Expr(e) => write_expr(out, e),
    }
}

fn write_bound(out: &mut String, prefix: char, b: &Bound) {
    use std::fmt::Write as _;
    out.push(prefix);
    match b {
        Bound::Lit(x) => {
            let _ = write!(out, "{:016x}", x.to_bits());
        }
        Bound::Param(name) => {
            out.push('$');
            write_str(out, name);
        }
    }
}

fn write_limit(out: &mut String, l: &LimitConstraint) {
    match l {
        LimitConstraint::Range { attr, lo, hi } => {
            out.push('R');
            write_str(out, attr);
            match lo {
                Some(b) => write_bound(out, 'l', b),
                None => out.push('-'),
            }
            match hi {
                Some(b) => write_bound(out, 'h', b),
                None => out.push('-'),
            }
        }
        LimitConstraint::InSet { attr, values } => {
            out.push('S');
            write_str(out, attr);
            out.push('[');
            for v in values {
                write_value(out, v);
            }
            out.push(']');
        }
        LimitConstraint::L1 { attr, bound } => {
            out.push('1');
            write_str(out, attr);
            write_bound(out, 'b', bound);
        }
    }
}

fn write_objective(out: &mut String, o: &ObjectiveSpec) {
    use std::fmt::Write as _;
    out.push(match o.direction {
        ObjectiveDirection::Maximize => '^',
        ObjectiveDirection::Minimize => 'v',
    });
    let _ = write!(out, "{:?}", o.agg);
    write_str(out, &o.attr);
    if let Some((op, c)) = &o.predicate {
        out.push(op_tag(*op));
        match c {
            ObjectiveConst::Lit(v) => write_value(out, v),
            ObjectiveConst::Param(name) => {
                out.push('$');
                write_str(out, name);
            }
        }
    }
}

/// Encode a `Use` clause.
pub fn write_use(out: &mut String, u: &UseClause) {
    match u {
        UseClause::Table(t) => {
            out.push('T');
            write_str(out, t);
        }
        UseClause::Select(s) => {
            out.push('S');
            for item in &s.items {
                match item {
                    SelectItem::Column { name, alias } => {
                        out.push('c');
                        write_qualified(out, name);
                        match alias {
                            Some(a) => {
                                out.push('a');
                                write_str(out, a);
                            }
                            None => out.push('-'),
                        }
                    }
                    SelectItem::Aggregate { func, arg, alias } => {
                        use std::fmt::Write as _;
                        let _ = write!(out, "g{func:?}");
                        write_qualified(out, arg);
                        out.push('a');
                        write_str(out, alias);
                    }
                }
            }
            out.push(SEP);
            for t in &s.from {
                out.push('f');
                write_str(out, &t.table);
                match &t.alias {
                    Some(a) => {
                        out.push('a');
                        write_str(out, a);
                    }
                    None => out.push('-'),
                }
            }
            out.push(SEP);
            for c in &s.conditions {
                match c {
                    UseCondition::Join(l, r) => {
                        out.push('j');
                        write_qualified(out, l);
                        write_qualified(out, r);
                    }
                    UseCondition::Filter { column, op, value } => {
                        out.push('w');
                        write_qualified(out, column);
                        out.push(op_tag(*op));
                        write_value(out, value);
                    }
                }
            }
            out.push(SEP);
            for g in &s.group_by {
                out.push('b');
                write_qualified(out, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WhatIf;
    use crate::parser::parse_query;

    #[test]
    fn built_and_parsed_queries_share_a_key() {
        let built = WhatIf::over("product")
            .when(HExpr::attr("brand").eq("Asus"))
            .scale("price", 1.1)
            .output_avg_post("rtng")
            .build()
            .unwrap();
        let parsed = parse_query(
            "Use product When brand = 'Asus' Update(price) = 1.1 * Pre(price) \
             Output Avg(Post(rtng))",
        )
        .unwrap();
        assert_eq!(
            QueryKey::of_whatif(&built),
            QueryKey::of_query(&parsed),
            "builder and parser must key identically"
        );
    }

    #[test]
    fn keys_distinguish_case_and_type() {
        let a = QueryKey::of_use(&UseClause::Table("d".into()));
        let b = QueryKey::of_use(&UseClause::Table("D".into()));
        assert_ne!(a, b, "no case folding");

        let mut x = String::new();
        write_value(&mut x, &Value::Int(1));
        let mut y = String::new();
        write_value(&mut y, &Value::Float(1.0));
        assert_ne!(x, y, "Int(1) and Float(1.0) key differently");
    }

    #[test]
    fn string_values_cannot_forge_structure() {
        // A string literal containing what looks like an encoded int must
        // not collide with the real encoding of that int.
        let mut a = String::new();
        write_value(&mut a, &Value::str("i42"));
        let mut b = String::new();
        write_value(&mut b, &Value::Int(42));
        assert_ne!(a, b);
    }

    #[test]
    fn param_and_literal_key_differently() {
        let p = WhatIf::over("d")
            .scale_param("b", "m")
            .output_count_star()
            .build()
            .unwrap();
        let l = WhatIf::over("d")
            .scale("b", 1.0)
            .output_count_star()
            .build()
            .unwrap();
        assert_ne!(QueryKey::of_whatif(&p), QueryKey::of_whatif(&l));
    }
}
