//! The column-at-a-time evaluator (`eval_mask`, `eval_mask_rows`,
//! `eval_numbers`) against the row evaluator (`eval_bool_at`, `eval_at`),
//! row by row: over random expressions — `AND`/`OR`/`NOT`/`IN`,
//! comparisons across Int/Float/Str/Bool, arithmetic including `/ 0` and
//! integer overflow — and tables with NULL-bearing columns, both must
//! return `to_bits`-equal values, or the same error.

use hyper_core::hexpr::BoundHExpr;
use hyper_query::{HOp, Temporal};
use hyper_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column layout: `(name, type, nullable)`.
const COLUMNS: [(&str, DataType, bool); 8] = [
    ("i", DataType::Int, true),
    ("k", DataType::Int, false),
    ("f", DataType::Float, true),
    ("g", DataType::Float, false),
    ("s", DataType::Str, true),
    ("t", DataType::Str, false),
    ("b", DataType::Bool, true),
    ("c", DataType::Bool, false),
];

const STRS: [&str; 3] = ["a", "b", "c"];

const COMPARISONS: [HOp; 6] = [HOp::Eq, HOp::Ne, HOp::Lt, HOp::Le, HOp::Gt, HOp::Ge];

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn random_value(rng: &mut StdRng, dt: DataType) -> Value {
    match dt {
        // Mostly small (so `/ 0` and equal pairs occur), sometimes near
        // the ends of the range (so `+`, `-` and `*` overflow).
        DataType::Int => match rng.gen_range(0..10) {
            0 => Value::Int(i64::MAX - rng.gen_range(0i64..3)),
            1 => Value::Int(i64::MIN + rng.gen_range(0i64..3)),
            _ => Value::Int(rng.gen_range(-3i64..4)),
        },
        DataType::Float => match rng.gen_range(0..10) {
            0 => Value::Float(-0.0),
            1 => Value::Float(f64::NAN),
            2 => Value::Float(0.0),
            _ => Value::Float(rng.gen_range(-6i64..7) as f64 * 0.5),
        },
        DataType::Str => Value::str(pick(rng, &STRS)),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
    }
}

fn random_table(rng: &mut StdRng) -> Table {
    let schema = Schema::new(
        COLUMNS
            .iter()
            .map(|&(name, dt, nullable)| {
                if nullable {
                    Field::nullable(name, dt)
                } else {
                    Field::new(name, dt)
                }
            })
            .collect(),
    )
    .unwrap();
    let rows = rng.gen_range(0..40);
    let null_rate = pick(rng, &[0.0, 0.1, 0.4]);
    let mut t = TableBuilder::new("t", schema);
    for _ in 0..rows {
        let row = COLUMNS
            .iter()
            .map(|&(_, dt, nullable)| {
                if nullable && rng.gen_bool(null_rate) {
                    Value::Null
                } else {
                    random_value(rng, dt)
                }
            })
            .collect();
        t.push(row).unwrap();
    }
    t.build()
}

fn random_lit(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => random_value(rng, DataType::Int),
        2 => random_value(rng, DataType::Float),
        3 => random_value(rng, DataType::Str),
        4 => random_value(rng, DataType::Bool),
        _ => Value::Int(0),
    }
}

fn attr(rng: &mut StdRng) -> BoundHExpr {
    let world = if rng.gen_bool(0.5) {
        Temporal::Pre
    } else {
        Temporal::Post
    };
    BoundHExpr::Attr(world, rng.gen_range(0..COLUMNS.len()))
}

fn binary(op: HOp, l: BoundHExpr, r: BoundHExpr) -> BoundHExpr {
    BoundHExpr::Binary(op, Box::new(l), Box::new(r))
}

/// A random predicate-shaped expression.
fn predicate(rng: &mut StdRng, depth: u32) -> BoundHExpr {
    if depth == 0 {
        return match rng.gen_range(0..3) {
            0 => BoundHExpr::Attr(Temporal::Pre, pick(rng, &[6, 7])),
            1 => BoundHExpr::Lit(random_lit(rng)),
            _ => {
                let op = pick(rng, &COMPARISONS);
                binary(op, attr(rng), BoundHExpr::Lit(random_lit(rng)))
            }
        };
    }
    match rng.gen_range(0..6) {
        0 => binary(
            HOp::And,
            predicate(rng, depth - 1),
            predicate(rng, depth - 1),
        ),
        1 => binary(
            HOp::Or,
            predicate(rng, depth - 1),
            predicate(rng, depth - 1),
        ),
        2 => BoundHExpr::Not(Box::new(predicate(rng, depth - 1))),
        3 => BoundHExpr::InList {
            expr: Box::new(value(rng, depth - 1)),
            list: (0..rng.gen_range(0..4)).map(|_| random_lit(rng)).collect(),
            negated: rng.gen_bool(0.5),
        },
        _ => {
            let op = pick(rng, &COMPARISONS);
            binary(op, value(rng, depth - 1), value(rng, depth - 1))
        }
    }
}

/// A random value-shaped expression (which may hold predicates).
fn value(rng: &mut StdRng, depth: u32) -> BoundHExpr {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.7) {
            attr(rng)
        } else {
            BoundHExpr::Lit(random_lit(rng))
        };
    }
    match rng.gen_range(0..5) {
        0 => predicate(rng, depth - 1),
        _ => {
            let op = pick(rng, &[HOp::Add, HOp::Sub, HOp::Mul, HOp::Div]);
            binary(op, value(rng, depth - 1), value(rng, depth - 1))
        }
    }
}

/// An evaluation outcome comparable across evaluators: the per-row
/// values (as `to_bits`), or the error text.
type Outcome = Result<Vec<Option<u64>>, String>;

fn mask_outcome(r: hyper_core::Result<Vec<bool>>) -> Outcome {
    r.map(|m| m.into_iter().map(|b| Some(u64::from(b))).collect())
        .map_err(|e| e.to_string())
}

fn numbers_outcome(r: hyper_core::Result<Vec<Option<f64>>>) -> Outcome {
    r.map(|v| v.into_iter().map(|x| x.map(f64::to_bits)).collect())
        .map_err(|e| e.to_string())
}

/// Compare both evaluators on `e` over `rows` of `t` (every row when
/// `None`).
fn check(e: &BoundHExpr, t: &Table, rows: Option<&[usize]>, what: &str) {
    let ids: Vec<usize> = rows.map_or_else(|| (0..t.num_rows()).collect(), <[usize]>::to_vec);
    let row_mask = mask_outcome(ids.iter().map(|&i| e.eval_bool_at(t, t, i)).collect());
    let row_numbers = numbers_outcome(
        ids.iter()
            .map(|&i| e.eval_at(t, t, i).map(|v| v.as_f64()))
            .collect(),
    );
    let col_mask = mask_outcome(match rows {
        None => e.eval_mask(t),
        Some(r) => e.eval_mask_rows(t, Some(r)),
    });
    let col_numbers = numbers_outcome(e.eval_numbers(t, rows));
    assert_eq!(
        col_mask, row_mask,
        "{what}: mask of {e:?} over {rows:?}\n{t}"
    );
    assert_eq!(
        col_numbers, row_numbers,
        "{what}: numbers of {e:?} over {rows:?}\n{t}"
    );
}

#[test]
fn column_evaluator_matches_the_row_evaluator() {
    let mut rng = StdRng::seed_from_u64(0x5eed_c01d);
    let (mut errors, mut ok) = (0usize, 0usize);
    for case in 0..1500 {
        let t = random_table(&mut rng);
        let depth = rng.gen_range(1..5);
        let e = if rng.gen_bool(0.5) {
            predicate(&mut rng, depth)
        } else {
            value(&mut rng, depth)
        };
        check(&e, &t, None, &format!("case {case}"));
        let rows: Vec<usize> = (0..t.num_rows()).filter(|_| rng.gen_bool(0.5)).collect();
        check(&e, &t, Some(&rows), &format!("case {case}"));
        match e.eval_numbers(&t, None) {
            Ok(_) => ok += 1,
            Err(_) => errors += 1,
        }
    }
    // Both outcomes are well represented.
    assert!(ok > 300 && errors > 100, "ok {ok}, errors {errors}");
}

#[test]
fn logical_nodes_keep_their_own_null_rules() {
    // SQL's three-valued logic makes both of these TRUE; here both are
    // NULL, so neither selects a row.
    let schema = Schema::new(vec![Field::nullable("b", DataType::Bool)]).unwrap();
    let mut tb = TableBuilder::new("t", schema);
    for v in [Value::Null, Value::Bool(true), Value::Bool(false)] {
        tb.push(vec![v]).unwrap();
    }
    let t = tb.build();
    let lit = |v: Value| BoundHExpr::Lit(v);
    let null_or_true = binary(HOp::Or, lit(Value::Null), lit(Value::Bool(true)));
    let not_null_and_false = BoundHExpr::Not(Box::new(binary(
        HOp::And,
        lit(Value::Null),
        lit(Value::Bool(false)),
    )));
    for e in [&null_or_true, &not_null_and_false] {
        assert_eq!(e.eval_at(&t, &t, 0).unwrap(), Value::Null);
        assert_eq!(e.eval_mask(&t).unwrap(), vec![false; 3]);
        check(e, &t, None, "fixed");
    }
    // The same over a column: row 0 holds NULL.
    let b = || BoundHExpr::Attr(Temporal::Pre, 0);
    let col_or_true = binary(HOp::Or, b(), lit(Value::Bool(true)));
    assert_eq!(col_or_true.eval_mask(&t).unwrap(), vec![false, true, true]);
    let not_col_and_false =
        BoundHExpr::Not(Box::new(binary(HOp::And, b(), lit(Value::Bool(false)))));
    assert_eq!(
        not_col_and_false.eval_mask(&t).unwrap(),
        vec![false, true, true]
    );
    check(&col_or_true, &t, None, "fixed");
    check(&not_col_and_false, &t, None, "fixed");
}

#[test]
fn short_circuited_right_sides_never_fail() {
    // `k <> 0 AND 1 / k > 0`: the division fails on the `k = 0` rows, which
    // the left side excludes.
    let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
    let mut tb = TableBuilder::new("t", schema);
    for k in [2, 0, -1, 0] {
        tb.push(vec![Value::Int(k)]).unwrap();
    }
    let t = tb.build();
    let k = || BoundHExpr::Attr(Temporal::Pre, 0);
    let lit = |v: i64| BoundHExpr::Lit(Value::Int(v));
    let div = binary(HOp::Div, lit(1), k());
    let guarded = binary(
        HOp::And,
        binary(HOp::Ne, k(), lit(0)),
        binary(HOp::Gt, div.clone(), lit(0)),
    );
    assert_eq!(
        guarded.eval_mask(&t).unwrap(),
        vec![true, false, false, false]
    );
    check(&guarded, &t, None, "guarded");
    // Unguarded, the same division is the row evaluator's error.
    let err = div.eval_numbers(&t, None).unwrap_err();
    assert_eq!(
        err.to_string(),
        div.eval_at(&t, &t, 1).unwrap_err().to_string()
    );
    // Over rows that skip the zeros it succeeds.
    assert_eq!(
        div.eval_numbers(&t, Some(&[0, 2])).unwrap(),
        vec![Some(0.5), Some(-1.0)]
    );
}

#[test]
fn integer_overflow_keeps_other_rows_integers() {
    // `(k + 1) - k`: the row evaluator overflows into floats on the
    // `k = MAX` row only, so the `k = MAX - 2` row stays an exact 1; a
    // whole column of floats would round it to 0.
    let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
    let mut tb = TableBuilder::new("t", schema);
    for k in [i64::MAX - 2, i64::MAX, 1] {
        tb.push(vec![Value::Int(k)]).unwrap();
    }
    let t = tb.build();
    let k = || BoundHExpr::Attr(Temporal::Pre, 0);
    let e = binary(
        HOp::Sub,
        binary(HOp::Add, k(), BoundHExpr::Lit(Value::Int(1))),
        k(),
    );
    assert_eq!(
        e.eval_numbers(&t, None).unwrap(),
        vec![Some(1.0), Some(0.0), Some(1.0)]
    );
    check(&e, &t, None, "overflow");
}
