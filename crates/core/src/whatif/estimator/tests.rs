//! The support-path evaluator against the row-at-a-time reference: over
//! random `When`/`For` masks, update functions, aggregates and estimator
//! families, both must produce `to_bits`-equal `(numerator, denominator)`
//! parts.

use std::sync::Arc;

use hyper_query::{parse_query, HExpr, HypotheticalQuery, Temporal};
use hyper_runtime::HyperRuntime;
use hyper_storage::{DataType, Database, Field, Schema, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::config::EstimatorKind;
use crate::hexpr::{bind_hexpr, conjoin, resolve_column, split_pre_post};
use crate::view::build_relevant_view;
use crate::whatif::output_decomposition;

/// Fit an estimator for `text` over `db` with the given adjustment
/// columns, peer summary `(update, group)` and family; evaluate it both
/// ways and require bit-identical parts. Returns the parts.
fn check(
    db: &Database,
    text: &str,
    backdoor: &[&str],
    peer: Option<(&str, &str)>,
    kind: EstimatorKind,
) -> (f64, f64) {
    let HypotheticalQuery::WhatIf(q) = parse_query(text).unwrap() else {
        panic!("expected a what-if: {text}")
    };
    let view = build_relevant_view(db, &q.use_clause).unwrap();
    let schema = view.table.schema().clone();
    let n = view.table.num_rows();
    let col = |name: &str| resolve_column(&schema, name).unwrap();
    let updates: Vec<(usize, UpdateFunc)> = q
        .updates
        .iter()
        .map(|u| (col(&u.attr), u.func.clone()))
        .collect();
    let mask = |e: Option<HExpr>| match e {
        Some(e) => bind_hexpr(&e, &schema, Temporal::Pre)
            .unwrap()
            .eval_mask(&view.table)
            .unwrap(),
        None => vec![true; n],
    };
    let when = mask(q.when.clone());
    let (pre, post) = q.for_clause.as_ref().map_or((Vec::new(), Vec::new()), |f| {
        split_pre_post(f, Temporal::Pre)
    });
    let scope = mask(conjoin(&pre));
    let (psi, y) = output_decomposition(&q.output, &post).unwrap();
    let bind =
        |e: Option<HExpr>| e.map(|e| Arc::new(bind_hexpr(&e, &schema, Temporal::Post).unwrap()));
    let update_cols: Vec<usize> = updates.iter().map(|(c, _)| *c).collect();
    let backdoor_cols: Vec<usize> = backdoor.iter().map(|b| col(b)).collect();
    let spec = EstimatorSpec {
        update_cols: &update_cols,
        backdoor_cols: &backdoor_cols,
        peer: peer.map(|(u, g)| PeerSummary {
            update_col: col(u),
            group_col: col(g),
        }),
        sample_cap: None,
        n_trees: 3,
        max_depth: 4,
        seed: 7,
        kind,
        train_budget_bytes: None,
        runtime: HyperRuntime::global(),
    };
    let est = CausalEstimator::fit(&view, &spec, &bind(psi), &bind(y), q.output.agg).unwrap();
    let fast = est.evaluate_parts(&view, &updates, &when, &scope).unwrap();
    let slow = est
        .evaluate_parts_rowwise(&view, &updates, &when, &scope)
        .unwrap();
    assert_eq!(
        (fast.0.to_bits(), fast.1.to_bits()),
        (slow.0.to_bits(), slow.1.to_bits()),
        "support path {fast:?} vs row path {slow:?} for {text} ({kind:?}, backdoor {backdoor:?})"
    );
    fast
}

/// A random table `t` with small-cardinality columns (so cells repeat):
/// update candidates `b`, `b2` and the nullable `nz`; adjustment
/// candidates `z`, `f` (holding both `0.0` and `-0.0`), `s`; outcomes `y`
/// and `ok`.
fn random_db(rng: &mut StdRng) -> Database {
    let schema = Schema::new(vec![
        Field::new("b", DataType::Int),
        Field::new("b2", DataType::Int),
        Field::nullable("nz", DataType::Int),
        Field::new("z", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("y", DataType::Float),
        Field::new("ok", DataType::Int),
    ])
    .unwrap();
    let mut t = TableBuilder::new("t", schema);
    let n = rng.gen_range(40..240);
    for _ in 0..n {
        let b: i64 = rng.gen_range(0..4);
        let z: i64 = rng.gen_range(0..3);
        let nz = if rng.gen_range(0..5) == 0 {
            Value::Null
        } else {
            Value::Int(rng.gen_range(0..3))
        };
        let f = [0.0, -0.0, 0.5][rng.gen_range(0..3usize)];
        let s = ["a", "b", "c"][rng.gen_range(0..3usize)];
        let y = (b + z) as f64 + rng.gen_range(0..2) as f64 * 0.25;
        let ok = i64::from(rng.gen_range(0..4i64) < b + z);
        t.push(vec![
            Value::Int(b),
            Value::Int(rng.gen_range(0..3)),
            nz,
            Value::Int(z),
            Value::Float(f),
            s.into(),
            Value::Float(y),
            Value::Int(ok),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

#[test]
fn support_path_matches_the_row_path_on_random_queries() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..120 {
        let db = random_db(&mut rng);
        let when = pick(
            &mut rng,
            &["", "When z = 0", "When Pre(s) = 'a'", "When b < 2"],
        );
        let update = pick(
            &mut rng,
            &[
                "Update(b) = 2",
                "Update(b) = 0.5 * Pre(b)",
                "Update(b) = 1 + Pre(b)",
                "Update(b) = 3 And Update(b2) = 1 + Pre(b2)",
                "Update(nz) = 1",
                "Update(nz) = 1.5",
            ],
        );
        let output = pick(
            &mut rng,
            &[
                "Count(Post(ok) = 1)",
                "Sum(Post(y))",
                "Avg(Post(y))",
                "Avg(Post(y)) For Post(ok) = 1",
                "Count(Post(ok) = 1) For Pre(z) < 2",
                "Sum(Post(y)) For Pre(s) = 'b' And Post(ok) = 1",
            ],
        );
        let text = format!("Use t {when} {update} Output {output}");
        let mut backdoor: Vec<&str> = ["z", "f", "s", "nz"]
            .into_iter()
            .filter(|_| rng.gen_range(0..3) > 0)
            .collect();
        backdoor.retain(|c| !update.contains(&format!("Update({c})")));
        let kind = [
            EstimatorKind::Forest,
            EstimatorKind::Cells,
            EstimatorKind::Linear,
        ][case % 3];
        check(&db, &text, &backdoor, None, kind);
    }
}

#[test]
fn mixed_type_set_takes_the_value_fallback() {
    // A string literal over an `Int` column, applied to some rows only:
    // no single typed column holds the post values.
    let db = random_db(&mut StdRng::seed_from_u64(3));
    for kind in [EstimatorKind::Forest, EstimatorKind::Cells] {
        check(
            &db,
            "Use t When z = 0 Update(b) = 'hi' Output Sum(Post(y))",
            &["z", "s"],
            None,
            kind,
        );
    }
}

#[test]
fn signed_zeros_are_distinct_cells_under_the_cell_estimator() {
    let db = random_db(&mut StdRng::seed_from_u64(4));
    for text in [
        "Use t Update(b) = 1 Output Avg(Post(y))",
        "Use t When Pre(f) = 0 Update(b) = 0.5 * Pre(b) Output Count(Post(ok) = 1)",
    ] {
        check(&db, text, &["f"], None, EstimatorKind::Cells);
    }
}

/// `peer_tests`' market: a product's rating rises when its price is below
/// the mean competitor price in its category.
fn market_db(n: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        Field::new("pid", DataType::Int),
        Field::new("category", DataType::Str),
        Field::new("brand", DataType::Str),
        Field::new("price", DataType::Float),
        Field::new("rating", DataType::Float),
    ])
    .unwrap();
    let mut t = TableBuilder::with_key("product", schema, &["pid"]).unwrap();
    for pid in 0..n as i64 {
        let cat = ["a", "b", "c", "d"][rng.gen_range(0..4usize)];
        let brand = ["asus", "vaio", "hp"][rng.gen_range(0..3usize)];
        // Few distinct prices, so rows share cells.
        let price = 300.0 + 100.0 * rng.gen_range(0..4) as f64;
        let rating = 3.0 + rng.gen_range(0..3) as f64 * 0.5;
        t.push(vec![
            pid.into(),
            cat.into(),
            brand.into(),
            price.into(),
            rating.into(),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

#[test]
fn peer_summary_rows_are_keyed_by_their_post_peer_mean() {
    let db = market_db(300, 11);
    for text in [
        "Use product When Pre(brand) = 'asus' Update(price) = 0.9 * Pre(price) \
         Output Avg(Post(rating))",
        "Use product When Pre(category) = 'a' Update(price) = 350 \
         Output Count(Post(rating) > 3.4)",
        "Use product Update(price) = 50 + Pre(price) Output Sum(Post(rating)) \
         For Pre(brand) = 'hp'",
        "Use product When pid < 150 Update(price) = 400 Output Avg(Post(rating))",
    ] {
        // Without the grouping column among the features, rows of one
        // cell can sit in different peer groups.
        for backdoor in [&["category", "brand"][..], &["brand"]] {
            for kind in [EstimatorKind::Forest, EstimatorKind::Cells] {
                check(&db, text, backdoor, Some(("price", "category")), kind);
            }
        }
    }
}
