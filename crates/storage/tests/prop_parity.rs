//! Semantics-parity property tests for the typed columnar engine.
//!
//! Every vectorized path (filter selection, projection, aggregation, hash
//! join, feature-style value round-trips) must agree **exactly** with a
//! `Value`-at-a-time reference evaluated row by row
//! (`BoundExpr::eval_predicate_at` / `eval_at`, and this file's
//! [`rows_of`]/[`row_ref`]/[`cell`] over `Column::value`) on random
//! tables of every column type, NULLs included. Dictionary codes must
//! survive `gather`/`project`/`sort_by_column` with value-level fidelity
//! and a shared (never rebuilt) dictionary.

use proptest::prelude::*;

use hyper_storage::ops::{aggregate, filter, hash_join, matching_rows, Accumulator};
use hyper_storage::plan::project;
use hyper_storage::{
    col, lit, AggExpr, AggFunc, DataType, Expr, Field, Schema, Table, TableBuilder, Value,
};

// ---------------------------------------------------------------- tables

/// One generated column: a type tag plus per-row (null?, payload) seeds.
type ColSpec = (u8, Vec<(bool, i32)>);

fn value_for(dt: DataType, null: bool, seed: i32) -> Value {
    if null {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::Int((seed % 7) as i64),
        // Small halves so Sum/Avg stay exact in f64 and comparisons hit
        // equal values often.
        DataType::Float => Value::Float((seed % 9) as f64 / 2.0),
        DataType::Bool => Value::Bool(seed % 2 == 0),
        DataType::Str => Value::str(format!("s{}", seed % 5)),
    }
}

fn dt_of(tag: u8) -> DataType {
    match tag % 4 {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Bool,
        _ => DataType::Str,
    }
}

fn build_table(specs: &[ColSpec]) -> Table {
    let rows = specs.first().map_or(0, |(_, cells)| cells.len());
    let fields: Vec<Field> = specs
        .iter()
        .enumerate()
        .map(|(i, (tag, _))| Field::nullable(format!("c{i}"), dt_of(*tag)))
        .collect();
    let mut t = TableBuilder::new("t", Schema::new(fields).unwrap());
    for r in 0..rows {
        let row: Vec<Value> = specs
            .iter()
            .map(|(tag, cells)| {
                let (null, seed) = cells[r];
                value_for(dt_of(*tag), null, seed)
            })
            .collect();
        t.push(row).unwrap();
    }
    t.build()
}

fn arb_specs(max_cols: usize, max_rows: usize) -> impl Strategy<Value = Vec<ColSpec>> {
    (1..=max_cols, 0..=max_rows).prop_flat_map(|(ncols, nrows)| {
        prop::collection::vec(
            (
                0u8..8,
                prop::collection::vec((prop::bool::ANY, 0i32..40), nrows..=nrows),
            ),
            ncols..=ncols,
        )
    })
}

// ------------------------------------------------------------ predicates

/// A well-typed random predicate over the table's columns: comparisons of
/// a column against a same-type literal (numerics may cross Int/Float),
/// IS NULL tests, IN lists, combined with AND/OR/NOT.
fn arb_predicate(specs: Vec<ColSpec>) -> impl Strategy<Value = Expr> {
    let ncols = specs.len();
    let leaf =
        (0..ncols, 0u8..6, 0i32..40, prop::bool::ANY).prop_map(move |(c, kind, seed, negated)| {
            let dt = dt_of(specs[c].0);
            let name = format!("c{c}");
            let v = value_for(dt, false, seed);
            match kind {
                0 => col(name).eq(lit(v)),
                1 => col(name).lt(lit(v)),
                2 => col(name).ge(lit(v)),
                3 => col(name).ne(lit(v)),
                4 => Expr::IsNull {
                    expr: Box::new(col(name)),
                    negated,
                },
                _ => Expr::InList {
                    expr: Box::new(col(name)),
                    list: vec![v, value_for(dt, false, seed + 1)],
                    negated,
                },
            }
        });
    // One or two leaves composed with a connective (depth ≥ 2 exercises
    // the logical kernels and NULL propagation).
    (leaf.clone(), leaf, 0u8..4).prop_map(|(a, b, joiner)| match joiner {
        0 => a.and(b),
        1 => a.or(b),
        2 => a.and(b.not()),
        _ => a,
    })
}

/// Every row of `t`, materialized one `Value` per cell: the
/// row-at-a-time reference the vectorized results are compared against.
fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.num_rows()).map(|i| row_ref(t, i)).collect()
}

/// One cell as a `Value` (see [`rows_of`]).
fn cell(t: &Table, i: usize, c: usize) -> Value {
    t.column(c).value(i)
}

/// Row `i` as `Value`s (see [`rows_of`]).
fn row_ref(t: &Table, i: usize) -> Vec<Value> {
    (0..t.num_columns()).map(|c| cell(t, i, c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Vectorized filter/selection agrees with the row-at-a-time reference.
    #[test]
    fn filter_matches_row_reference(
        (specs, pred) in arb_specs(3, 24)
            .prop_flat_map(|s| (Just(s.clone()), arb_predicate(s)))
    ) {
        let t = build_table(&specs);
        let bound = pred.bind(t.schema()).unwrap();
        let mut expected = Vec::new();
        for i in 0..t.num_rows() {
            if bound.eval_predicate_at(&t, i).unwrap() {
                expected.push(i);
            }
        }
        prop_assert_eq!(matching_rows(&t, &pred).unwrap(), expected.clone());
        let filtered = filter(&t, &pred).unwrap();
        prop_assert_eq!(rows_of(&filtered), rows_of(&t.gather(&expected)));
    }

    /// Vectorized projection produces exactly the values the row evaluator
    /// yields, cell by cell (strict `Value` equality).
    #[test]
    fn project_matches_row_reference(
        (specs, pred) in arb_specs(3, 20)
            .prop_flat_map(|s| (Just(s.clone()), arb_predicate(s)))
    ) {
        let t = build_table(&specs);
        // Project a plain column and the predicate (a computed boolean).
        let exprs = vec![
            (col("c0"), "a".to_string()),
            (pred, "p".to_string()),
        ];
        let out = project(&t, &exprs).unwrap();
        prop_assert_eq!(out.num_rows(), t.num_rows());
        for (e, alias) in &exprs {
            let b = e.bind(t.schema()).unwrap();
            let oc = out.column_by_name(alias).unwrap();
            for i in 0..t.num_rows() {
                prop_assert_eq!(oc.value(i), b.eval_at(&t, i).unwrap());
            }
        }
    }

    /// Vectorized group-by aggregation agrees with a `Value`-keyed,
    /// accumulator-per-group reference (same first-occurrence group order,
    /// same float accumulation order, strict value equality).
    #[test]
    fn aggregate_matches_row_reference(specs in arb_specs(2, 24)) {
        let t = build_table(&specs);
        let group_by = vec!["c0".to_string()];
        let numeric = matches!(t.schema().field(0).data_type, DataType::Int | DataType::Float);
        let mut aggs = vec![
            AggExpr::new(AggFunc::Count, None, "n"),
            AggExpr::new(AggFunc::Min, Some(col("c0")), "lo"),
            AggExpr::new(AggFunc::Max, Some(col("c0")), "hi"),
        ];
        if numeric {
            aggs.push(AggExpr::new(AggFunc::Sum, Some(col("c0")), "s"));
            aggs.push(AggExpr::new(AggFunc::Avg, Some(col("c0")), "m"));
        }
        let out = aggregate(&t, &group_by, &aggs).unwrap();

        // Reference: strict-Value grouping in first-occurrence order.
        let mut order: Vec<(Value, Vec<Accumulator>)> = Vec::new();
        for i in 0..t.num_rows() {
            let key = cell(&t, i, 0);
            let slot = match order.iter().position(|(k, _)| *k == key) {
                Some(s) => s,
                None => {
                    order.push((key.clone(), aggs.iter().map(|a| Accumulator::new(a.func)).collect()));
                    order.len() - 1
                }
            };
            for (k, a) in aggs.iter().enumerate() {
                let v = match &a.input {
                    Some(e) => e.bind(t.schema()).unwrap().eval_at(&t, i).unwrap(),
                    None => Value::Int(1),
                };
                order[slot].1[k].update(&v).unwrap();
            }
        }
        prop_assert_eq!(out.num_rows(), order.len());
        for (g, (key, accs)) in order.iter().enumerate() {
            prop_assert_eq!(cell(&out, g, 0), key.clone());
            for (k, acc) in accs.iter().enumerate() {
                prop_assert_eq!(cell(&out, g, 1 + k), acc.finish());
            }
        }
    }

    /// The typed hash join produces exactly the row multiset of a strict
    /// `Value`-equality nested-loop join; NULL keys never join.
    #[test]
    fn join_matches_nested_loop_reference(
        left in arb_specs(2, 14),
        right in arb_specs(2, 14),
    ) {
        let l = build_table(&left);
        let mut r = build_table(&right);
        // Rename right columns to avoid output collisions (keep c0 as key).
        let names: Vec<String> = (0..r.num_columns())
            .map(|i| if i == 0 { "c0".into() } else { format!("r{i}") })
            .collect();
        r = hyper_storage::plan::rename(&r, &names).unwrap();

        let joined = hash_join(&l, &r, &["c0".into()], &["c0".into()]).unwrap();

        let mut expected: Vec<Vec<Value>> = Vec::new();
        for i in 0..l.num_rows() {
            let lk = cell(&l, i, 0);
            if lk.is_null() {
                continue;
            }
            for j in 0..r.num_rows() {
                if lk == cell(&r, j, 0) {
                    let mut row = row_ref(&l, i);
                    row.extend(row_ref(&r, j).into_iter().skip(1));
                    expected.push(row);
                }
            }
        }
        let mut got = rows_of(&joined);
        got.sort();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// Dictionary codes survive gather / project / sort: values round-trip
    /// exactly and the string dictionary is shared, not rebuilt.
    #[test]
    fn dictionary_survives_gather_project_sort(
        cells in prop::collection::vec((prop::bool::ANY, 0i32..40), 0..24),
        idx_seeds in prop::collection::vec(0usize..64, 0..32),
    ) {
        let specs: Vec<ColSpec> = vec![(3, cells.clone()), (0, cells)];
        let t = build_table(&specs);
        let n = t.num_rows();
        let (_, dict, _) = t.column(0).as_str().unwrap();
        let dict_len = dict.len();

        if n > 0 {
            let idx: Vec<usize> = idx_seeds.iter().map(|s| s % n).collect();
            let g = t.gather(&idx);
            let (gcodes, gdict, _) = g.column(0).as_str().unwrap();
            prop_assert_eq!(gdict.len(), dict_len, "gather shares the dictionary");
            for (k, &i) in idx.iter().enumerate() {
                prop_assert_eq!(cell(&g, k, 0), cell(&t, i, 0));
                if !g.column(0).is_null(k) {
                    // Codes are preserved verbatim (same dictionary).
                    let (tcodes, _, _) = t.column(0).as_str().unwrap();
                    prop_assert_eq!(gcodes[k], tcodes[i]);
                }
            }
        }

        let p = t.project(&["c0"]).unwrap();
        let (_, pdict, _) = p.column(0).as_str().unwrap();
        prop_assert_eq!(pdict.len(), dict_len, "project shares the dictionary");
        for i in 0..n {
            prop_assert_eq!(cell(&p, i, 0), cell(&t, i, 0));
        }

        let s = t.sort_by_column("c0").unwrap();
        prop_assert_eq!(s.num_rows(), n);
        let mut expected: Vec<Value> = t.column(0).to_values();
        expected.sort();
        let got: Vec<Value> = s.column(0).to_values();
        prop_assert_eq!(got, expected, "sort is the Value total order");
        // Sorted rows stay aligned across columns (stable permutation).
        let mut seen = rows_of(&s);
        let mut orig = rows_of(&t);
        seen.sort();
        orig.sort();
        prop_assert_eq!(seen, orig);
    }
}
