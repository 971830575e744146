//! The support-path evaluator against the row-at-a-time reference: over
//! random `When`/`For` masks, update functions, aggregates and estimator
//! families, both must produce `to_bits`-equal `(numerator, denominator)`
//! parts. The parts are exact sums, so they must also survive a row
//! permutation of the view and equal the independent big-integer oracle's
//! correctly rounded sums of the per-row contributions.

use std::sync::Arc;

use hyper_query::{parse_query, HExpr, HypotheticalQuery, Temporal};
use hyper_runtime::HyperRuntime;
use hyper_storage::{DataType, Database, Field, Schema, TableBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::*;
use crate::config::{EngineConfig, EstimatorKind};
use crate::hexpr::{bind_hexpr, conjoin, resolve_column, split_pre_post};
use crate::view::build_relevant_view;
use crate::whatif::exact_sum::oracle;
use crate::whatif::{output_decomposition, plan_whatif};
use crate::HyperSession;

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
        runtime: HyperRuntime::global(),
    };
    let est = CausalEstimator::fit(&view, &spec, &bind(psi), &bind(y), q.output.agg).unwrap();
    let fast = est
        .evaluate_parts(&view, &updates, Some(&when), Some(&scope))
        .unwrap();
    let slow = est
        .evaluate_parts_rowwise(&view, &updates, Some(&when), Some(&scope))
        .unwrap();
    assert_eq!(
        bits(fast),
        bits(slow),
        "support path {fast:?} vs row path {slow:?} for {text} ({kind:?}, backdoor {backdoor:?})"
    );
    // Absent masks take the cell path (no row visited without a peer
    // summary); it must equal explicit all-`true` masks.
    let all = vec![true; n];
    let unmasked = est.evaluate_parts(&view, &updates, None, None).unwrap();
    let explicit = est
        .evaluate_parts(&view, &updates, Some(&all), Some(&all))
        .unwrap();
    assert_eq!(
        bits(unmasked),
        bits(explicit),
        "cell path {unmasked:?} vs all-true masks {explicit:?} for {text} ({kind:?})"
    );
    fast
}

fn bits(parts: (f64, f64)) -> (u64, u64) {
    (parts.0.to_bits(), parts.1.to_bits())
}

/// A random table `t` with small-cardinality columns (so cells repeat):
/// update candidates `b`, `b2` and the nullable `nz`; adjustment
/// candidates `z`, `f` (holding both `0.0` and `-0.0`), `s`; outcomes `y`,
/// `ok` and `w`. `w` is a function of `y`, `b` and `z` whose values span
/// magnitudes 1e-6..1e4 and are inexact, so a plain fold of them depends
/// on row order (derived, so it draws nothing from `rng`).
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
        Field::new("w", DataType::Float),
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
            Value::Float((y + 0.1) / 3.0 * 10f64.powi((2 * z + b) as i32 - 6)),
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
        let kind = [EstimatorKind::Forest, EstimatorKind::Cells][case % 2];
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

/// A random table `t` for the projection-class dedup: the update
/// candidates `b` (Int), `c` (Float, 6 values) and `g` (Float without
/// NULLs, holding `0.0`, `-0.0`, two NaN payloads and `0.5`); the
/// adjustment candidates `nz` (nullable Int), `f` (nullable Float with
/// `0.0`, `-0.0` and two NaN payloads) and `s` (nullable Str, one-hot
/// encoded); outcomes `y` and `ok`.
fn dedup_db(rng: &mut StdRng) -> Database {
    let schema = Schema::new(vec![
        Field::new("b", DataType::Int),
        Field::new("c", DataType::Float),
        Field::new("g", DataType::Float),
        Field::nullable("nz", DataType::Int),
        Field::nullable("f", DataType::Float),
        Field::nullable("s", DataType::Str),
        Field::new("y", DataType::Float),
        Field::new("ok", DataType::Int),
    ])
    .unwrap();
    let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
    let floats = [0.0, -0.0, f64::NAN, nan2, 0.5];
    let mut t = TableBuilder::new("t", schema);
    for _ in 0..rng.gen_range(60..260) {
        let b: i64 = rng.gen_range(0..4);
        let nz = match rng.gen_range(0..4) {
            0 => Value::Null,
            v => Value::Int(v),
        };
        let f = match rng.gen_range(0..6usize) {
            5 => Value::Null,
            k => Value::Float(floats[k]),
        };
        let s = match rng.gen_range(0..4usize) {
            3 => Value::Null,
            k => ["a", "b", "c"][k].into(),
        };
        let y = (b as f64 + rng.gen_range(0..3) as f64 * 0.25 + 0.1) / 3.0;
        t.push(vec![
            Value::Int(b),
            Value::Float(rng.gen_range(0..6) as f64 * 0.75),
            Value::Float(floats[rng.gen_range(0..5usize)]),
            nz,
            f,
            s,
            Value::Float(y),
            Value::Int(i64::from(rng.gen_range(0..5i64) < b + 1)),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

/// Evaluation keyed by projection class against the row-at-a-time
/// reference, by `f64::to_bits`: `Set`, `Scale` and `Shift` updates of one
/// and of several attributes (a `Scale` by 0 and a `Shift` of `-0.0` map
/// distinct values to one), with and without `When` and a `For`
/// pre-condition, over features holding NULL, `-0.0`/`0.0`, two NaN
/// payloads and one-hot strings, for both estimator families; and the
/// market's peer summary, whose keys add the `When` bit and the post peer
/// mean.
#[test]
fn projection_keys_match_the_row_path() {
    let mut rng = StdRng::seed_from_u64(0xc1a55);
    for case in 0..160 {
        let db = dedup_db(&mut rng);
        let when = pick(
            &mut rng,
            &["", "When b < 2", "When Pre(s) = 'a'", "When Pre(nz) = 1"],
        );
        let update = pick(
            &mut rng,
            &[
                "Update(b) = 2",
                "Update(b) = 0.5 * Pre(b)",
                "Update(b) = 0 * Pre(b)",
                "Update(c) = 1 + Pre(c)",
                "Update(g) = 2 * Pre(g)",
                "Update(g) = 1 + Pre(g)",
                "Update(s) = 'b'",
                "Update(s) = 'zz'",
                "Update(f) = 0.5",
                "Update(nz) = 1",
                "Update(b) = 3 And Update(s) = 'a'",
                "Update(b) = 2 * Pre(b) And Update(c) = 1 + Pre(c)",
                "Update(g) = 0.5 * Pre(g) And Update(nz) = 2 And Update(b) = 1 + Pre(b)",
            ],
        );
        let output = pick(
            &mut rng,
            &[
                "Count(Post(ok) = 1)",
                "Sum(Post(y))",
                "Avg(Post(y)) For Post(ok) = 1",
                "Count(Post(ok) = 1) For Pre(s) = 'b'",
                "Sum(Post(y)) For Pre(f) = 0 And Post(ok) = 1",
            ],
        );
        let text = format!("Use t {when} {update} Output {output}");
        let mut backdoor: Vec<&str> = ["nz", "f", "s", "g", "c"]
            .into_iter()
            .filter(|_| rng.gen_range(0..3) > 0)
            .collect();
        backdoor.retain(|c| !update.contains(&format!("Update({c})")));
        let kind = [EstimatorKind::Forest, EstimatorKind::Cells][case % 2];
        check(&db, &text, &backdoor, None, kind);
    }
    let market = market_db(300, 12);
    for text in [
        "Use product When Pre(brand) = 'hp' Update(price) = 350 Output Count(Post(rating) > 3.4)",
        "Use product Update(price) = 1.1 * Pre(price) Output Avg(Post(rating)) \
         For Pre(brand) = 'asus'",
        "Use product When Pre(category) = 'b' Update(price) = -20 + Pre(price) \
         Output Sum(Post(rating))",
    ] {
        for backdoor in [&["category", "brand"][..], &["brand"], &[]] {
            for kind in [EstimatorKind::Forest, EstimatorKind::Cells] {
                check(&market, text, backdoor, Some(("price", "category")), kind);
            }
        }
    }
}

/// Rows moved only through their peers keep their own pre-update values,
/// so one projection class and one post peer mean do not fix their
/// features. Category `a` holds prices 100, 300, 200 and category `b`
/// 200, 300, 300; setting the last row of each to 500 gives the rows
/// priced 100 (in `a`) and 200 (in `b`) the same post peer mean, 400,
/// and the same brand, while the forest, trained on filler categories
/// whose rating rises with price, tells their prices apart.
#[test]
fn peer_moved_rows_with_one_class_and_peer_mean_keep_their_own_features() {
    let mut rng = StdRng::seed_from_u64(31);
    let schema = Schema::new(vec![
        Field::new("pid", DataType::Int),
        Field::new("category", DataType::Str),
        Field::new("brand", DataType::Str),
        Field::new("promo", DataType::Int),
        Field::new("price", DataType::Float),
        Field::new("rating", DataType::Float),
    ])
    .unwrap();
    let mut t = TableBuilder::with_key("product", schema, &["pid"]).unwrap();
    let mut push = |cat: String, price: f64, promo: i64, rating: f64| {
        let pid = t.num_rows() as i64;
        t.push(vec![
            pid.into(),
            cat.into(),
            "x".into(),
            promo.into(),
            price.into(),
            rating.into(),
        ])
        .unwrap();
    };
    for (cat, prices) in [("a", [100.0, 300.0, 200.0]), ("b", [200.0, 300.0, 300.0])] {
        for (k, price) in prices.into_iter().enumerate() {
            push(cat.into(), price, i64::from(k == 2), 1.0 + price / 100.0);
        }
    }
    for c in 0..60 {
        for _ in 0..5 {
            let price = 100.0 * rng.gen_range(1..6) as f64;
            let rating = 1.0 + price / 100.0 + rng.gen_range(0..2) as f64 * 0.25;
            push(format!("f{c}"), price, 0, rating);
        }
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    let text = "Use product When promo = 1 Update(price) = 500 Output Sum(Post(rating))";
    check(
        &db,
        text,
        &["brand"],
        Some(("price", "category")),
        EstimatorKind::Forest,
    );
}

/// A prepared what-if builds its projection once on the view's support
/// index: repeating it builds no index and no projection, and dropping
/// the session frees both with the view.
#[test]
fn a_repeated_whatif_reuses_its_projection_until_the_session_drops() {
    let data = hyper_datasets::german_syn(2_000, 3);
    let session = HyperSession::builder(data.db.clone())
        .graph(data.graph.clone())
        .share_artifacts(false)
        .build();
    let prepared = session
        .prepare("Use german_syn Update(status) = 3 Output Count(Post(credit) = 'Good')")
        .unwrap();
    let first = prepared.execute_whatif().unwrap().value;
    let views = session.cache().view_entries();
    let estimators = session.cache().estimator_entries();
    assert_eq!((views.len(), estimators.len()), (1, 1));
    let (view, est) = (Arc::clone(&views[0].1), Arc::clone(&estimators[0].1));
    drop((views, estimators));
    let builds = view.support.builds();
    let support = view.support_index(&est.feature_cols).unwrap();
    assert_eq!(support.projections_built(), 1);
    let kept: Vec<usize> = (est.feature_cols.iter().copied())
        .filter(|&c| view.table.schema().field(c).name != "status")
        .collect();
    let projection = support.projection(&view.table, &kept);
    assert!(
        projection.classes() < support.cells(),
        "cells share classes"
    );
    for _ in 0..3 {
        assert_eq!(
            prepared.execute_whatif().unwrap().value.to_bits(),
            first.to_bits()
        );
    }
    assert_eq!(view.support.builds(), builds, "no index rebuilt");
    assert_eq!(support.projections_built(), 1, "no projection rebuilt");

    let weak = (Arc::downgrade(&support), Arc::downgrade(&projection));
    drop((support, projection));
    assert!(weak.0.upgrade().is_some(), "the view holds its index");
    drop((prepared, session, view, est));
    assert!(
        weak.0.upgrade().is_none(),
        "the index is freed with the view"
    );
    assert!(weak.1.upgrade().is_none(), "and its projection with it");
}

/// A copy of `db`'s table `t` with its rows in a random order.
fn permuted(db: &Database, rng: &mut StdRng) -> Database {
    let t = db.table("t").unwrap();
    let mut order: Vec<usize> = (0..t.num_rows()).collect();
    order.shuffle(rng);
    let mut b = TableBuilder::new("t", t.schema().clone());
    for i in order {
        b.push((0..t.num_columns()).map(|c| t.column(c).value(i)).collect())
            .unwrap();
    }
    let mut out = Database::new();
    out.add_table(b.build()).unwrap();
    out
}

#[test]
fn parts_do_not_depend_on_row_order() {
    let mut rng = StdRng::seed_from_u64(0x0bde);
    let mut order_sensitive = 0;
    for case in 0..40 {
        let db = random_db(&mut rng);
        let text = [
            "Use t Update(b) = 0.5 * Pre(b) Output Avg(Post(w))",
            "Use t When z = 0 Update(b) = 1 + Pre(b) Output Sum(Post(w))",
            "Use t When b < 2 Update(b) = 2 Output Sum(Post(w)) For Pre(s) = 'b' And Post(ok) = 1",
            "Use t Update(nz) = 1.5 Output Avg(Post(w)) For Post(ok) = 1",
            "Use t When Pre(s) = 'a' Update(b) = 3 Output Count(Post(ok) = 1)",
        ][case % 5];
        let HypotheticalQuery::WhatIf(q) = parse_query(text).unwrap() else {
            unreachable!()
        };
        let config = EngineConfig {
            estimator: [EstimatorKind::Forest, EstimatorKind::Cells][case % 2],
            n_trees: 3,
            max_depth: 4,
            seed: 7,
            ..EngineConfig::default()
        };
        let (view, est, updates) = fit_for(&db, &q, &["z", "f", "s"], &config);
        let shuffled = permuted(&db, &mut rng);
        let view2 = build_relevant_view(&shuffled, &q.use_clause).unwrap();
        let (when, scope) = masks(&view, &q);
        let (when2, scope2) = masks(&view2, &q);
        let a = est
            .evaluate_parts(&view, &updates, when.as_deref(), scope.as_deref())
            .unwrap();
        let b = est
            .evaluate_parts(&view2, &updates, when2.as_deref(), scope2.as_deref())
            .unwrap();
        assert_eq!(bits(a), bits(b), "{text}: {a:?} vs permuted {b:?}");
        let plain_w = |v: &RelevantView| -> f64 {
            let w = v
                .table
                .column(resolve_column(v.table.schema(), "w").unwrap());
            (0..w.len()).map(|i| w.f64_at(i).unwrap()).sum()
        };
        order_sensitive += usize::from(plain_w(&view).to_bits() != plain_w(&view2).to_bits());
    }
    assert!(
        order_sensitive > 0,
        "a plain fold of `w` depends on row order"
    );
}

/// The `When` and `For`-pre masks of `q` over `view`; `None` for an
/// absent clause.
fn masks(
    view: &RelevantView,
    q: &hyper_query::WhatIfQuery,
) -> (Option<Vec<bool>>, Option<Vec<bool>>) {
    let schema = view.table.schema();
    let mask = |e: Option<HExpr>| {
        e.map(|e| {
            bind_hexpr(&e, schema, Temporal::Pre)
                .unwrap()
                .eval_mask(&view.table)
                .unwrap()
        })
    };
    let pre = q
        .for_clause
        .as_ref()
        .map_or(Vec::new(), |f| split_pre_post(f, Temporal::Pre).0);
    (mask(q.when.clone()), mask(conjoin(&pre)))
}

/// Fit `q`'s estimator over `db` with the named adjustment columns (an
/// updated one is skipped) and `config`'s estimator settings, without a
/// peer summary.
fn fit_for(
    db: &Database,
    q: &hyper_query::WhatIfQuery,
    backdoor: &[&str],
    config: &EngineConfig,
) -> (RelevantView, CausalEstimator, Vec<(usize, UpdateFunc)>) {
    let (view, est, updates, _) = fit_along(db, q, backdoor, None, config, None);
    (view, est, updates)
}

/// [`fit_for`] with a peer summary `(update, group)`, along `rows` (the
/// route `fit` picks when `None`); also returns the route `fit` picks.
fn fit_along(
    db: &Database,
    q: &hyper_query::WhatIfQuery,
    backdoor: &[&str],
    peer: Option<(&str, &str)>,
    config: &EngineConfig,
    rows: Option<TrainRows>,
) -> (
    RelevantView,
    CausalEstimator,
    Vec<(usize, UpdateFunc)>,
    TrainRows,
) {
    let view = build_relevant_view(db, &q.use_clause).unwrap();
    let schema = view.table.schema().clone();
    let col = |name: &str| resolve_column(&schema, name).unwrap();
    let updates: Vec<(usize, UpdateFunc)> = q
        .updates
        .iter()
        .map(|u| (col(&u.attr), u.func.clone()))
        .collect();
    let post = q
        .for_clause
        .as_ref()
        .map_or(Vec::new(), |f| split_pre_post(f, Temporal::Pre).1);
    let (psi, y) = output_decomposition(&q.output, &post).unwrap();
    let bind =
        |e: Option<HExpr>| e.map(|e| Arc::new(bind_hexpr(&e, &schema, Temporal::Post).unwrap()));
    let update_cols: Vec<usize> = updates.iter().map(|(c, _)| *c).collect();
    let backdoor_cols: Vec<usize> = backdoor
        .iter()
        .map(|b| col(b))
        .filter(|c| !update_cols.contains(c))
        .collect();
    let spec = EstimatorSpec {
        update_cols: &update_cols,
        backdoor_cols: &backdoor_cols,
        peer: peer.map(|(u, g)| PeerSummary {
            update_col: col(u),
            group_col: col(g),
        }),
        sample_cap: config.sample_cap,
        n_trees: config.n_trees,
        max_depth: config.max_depth,
        seed: config.seed,
        kind: config.estimator,
        runtime: HyperRuntime::global(),
    };
    let picked = TrainRows::for_spec(&spec, view.table.num_rows());
    let (psi, y) = (bind(psi), bind(y));
    let est = match rows {
        None => CausalEstimator::fit(&view, &spec, &psi, &y, q.output.agg),
        Some(rows) => CausalEstimator::fit_via(&view, &spec, &psi, &y, q.output.agg, rows),
    };
    (view, est.unwrap(), updates, picked)
}

/// A random table `t` for the training routes: the update column `b`;
/// adjustment candidates `nz` (nullable Int), `f` (nullable Float holding
/// `0.0`, `-0.0` and two NaN payloads), `s` (nullable Str) and `c` (a
/// Float with about 150 distinct values); outcomes `y` and `ok`.
fn route_db(n: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        Field::new("b", DataType::Int),
        Field::nullable("nz", DataType::Int),
        Field::nullable("f", DataType::Float),
        Field::nullable("s", DataType::Str),
        Field::new("c", DataType::Float),
        Field::new("y", DataType::Float),
        Field::new("ok", DataType::Int),
    ])
    .unwrap();
    let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
    let mut t = TableBuilder::new("t", schema);
    for _ in 0..n {
        let b: i64 = rng.gen_range(0..4);
        let nz = match rng.gen_range(0..4) {
            0 => Value::Null,
            v => Value::Int(v),
        };
        let f = [
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(nan2),
            Value::Float(0.5),
            Value::Null,
        ][rng.gen_range(0..6usize)]
        .clone();
        let s = match rng.gen_range(0..4usize) {
            3 => Value::Null,
            k => ["a", "b", "c"][k].into(),
        };
        let c = rng.gen_range(0..150) as f64 * 0.37;
        // Inexact, over several magnitudes: sums of `y` round, so they
        // depend on the order the trainer adds cells in.
        let y = (b as f64 + rng.gen_range(0..3) as f64 * 0.25 + 0.1) / 3.0
            * 10f64.powi(rng.gen_range(-4..4));
        let ok = i64::from(rng.gen_range(0..5i64) < b + 1);
        t.push(vec![
            Value::Int(b),
            nz,
            f,
            s,
            Value::Float(c),
            Value::Float(y),
            Value::Int(ok),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

/// Fit `text`'s estimator along the route `fit` picks and along the
/// matrix route, and require bit-equal parts with and without masks.
/// Returns the route `fit` picks.
fn check_routes(
    db: &Database,
    text: &str,
    backdoor: &[&str],
    peer: Option<(&str, &str)>,
    config: &EngineConfig,
) -> TrainRows {
    let HypotheticalQuery::WhatIf(q) = parse_query(text).unwrap() else {
        panic!("expected a what-if: {text}")
    };
    let (view, est, updates, picked) = fit_along(db, &q, backdoor, peer, config, None);
    let matrix = Some(TrainRows::Matrix);
    let (_, reference, _, _) = fit_along(db, &q, backdoor, peer, config, matrix);
    assert_eq!(est.trained_rows(), reference.trained_rows(), "{text}");
    let (when, scope) = masks(&view, &q);
    for (when, scope) in [(None, None), (when.as_deref(), scope.as_deref())] {
        let got = est.evaluate_parts(&view, &updates, when, scope).unwrap();
        let want = reference
            .evaluate_parts(&view, &updates, when, scope)
            .unwrap();
        assert_eq!(
            bits(got),
            bits(want),
            "{text} ({picked:?}): {got:?} vs the matrix route's {want:?}"
        );
    }
    picked
}

fn route_config() -> EngineConfig {
    EngineConfig {
        n_trees: 4,
        max_depth: 5,
        seed: 7,
        ..EngineConfig::default()
    }
}

#[test]
fn the_support_route_fits_the_matrix_forest() {
    let db = route_db(300, 21);
    for text in [
        "Use t Update(b) = 2 Output Count(Post(ok) = 1)",
        "Use t When Pre(s) = 'a' Update(b) = 0.5 * Pre(b) Output Sum(Post(y))",
        // Avg with ψ: a numerator and a denominator model.
        "Use t Update(b) = 1 + Pre(b) Output Avg(Post(y)) For Post(ok) = 1",
        "Use t When Pre(nz) = 1 Update(b) = 3 Output Avg(Post(y)) For Pre(s) = 'b'",
    ] {
        for backdoor in [&["nz", "f", "s"][..], &["f"], &["s", "nz"]] {
            let picked = check_routes(&db, text, backdoor, None, &route_config());
            assert_eq!(picked, TrainRows::Support, "{text} over {backdoor:?}");
        }
    }
}

#[test]
fn fallbacks_take_the_matrix_route() {
    let db = route_db(300, 22);
    let text = "Use t Update(b) = 2 Output Avg(Post(y)) For Post(ok) = 1";
    let backdoor = ["nz", "f", "s"];
    let forest = route_config();
    // A binding sample cap trains on a random subset of rows, not on
    // whole cells; a cap at the view's size does not bind.
    for (cap, route) in [(299, TrainRows::Matrix), (300, TrainRows::Support)] {
        let config = EngineConfig {
            sample_cap: Some(cap),
            ..forest.clone()
        };
        assert_eq!(check_routes(&db, text, &backdoor, None, &config), route);
    }
    // The cell estimator keys its table on encoded rows.
    let cells = EngineConfig {
        estimator: EstimatorKind::Cells,
        ..forest.clone()
    };
    let picked = check_routes(&db, text, &backdoor, None, &cells);
    assert_eq!(picked, TrainRows::Matrix);
    // A peer summary appends per-row peer means.
    let market = market_db(300, 11);
    let picked = check_routes(
        &market,
        "Use product When Pre(brand) = 'asus' Update(price) = 0.9 * Pre(price) \
         Output Avg(Post(rating))",
        &["category", "brand"],
        Some(("price", "category")),
        &forest,
    );
    assert_eq!(picked, TrainRows::Matrix);
}

#[test]
fn too_many_cells_fit_row_wise_from_the_support_route() {
    // Over `{b, c}` the support cells pass the forest's cell cap
    // (`max(rows / 4, 64)`), so the layout declines and trees fit row
    // wise over the representatives' bins.
    let db = route_db(300, 23);
    let view = build_relevant_view(&db, &hyper_query::UseClause::Table("t".into())).unwrap();
    let features: Vec<usize> = ["b", "c"]
        .iter()
        .map(|c| resolve_column(view.table.schema(), c).unwrap())
        .collect();
    let cells = crate::whatif::support::SupportIndex::build(&view.table, &features).cells();
    assert!(cells > 300 / 4, "{cells} support cells");
    for text in [
        "Use t Update(b) = 2 Output Sum(Post(y))",
        "Use t When Pre(c) < 20 Update(b) = 1 Output Avg(Post(y)) For Post(ok) = 1",
    ] {
        let picked = check_routes(&db, text, &["c"], None, &route_config());
        assert_eq!(picked, TrainRows::Support, "{text}");
    }
}

/// The pinned what-ifs of `tests/golden_bits.rs`: the `Avg` what-if, and
/// the joint re-evaluation of the pinned how-to's chosen updates (its
/// `objective`). Each part `evaluate_parts` returns must equal the
/// oracle's correctly rounded sum of the row-wise reference's per-row
/// contributions, and the session's answer must be the pinned value.
#[test]
fn golden_parts_equal_the_oracle_sums() {
    let cases = [
        (
            hyper_datasets::german_syn(20_000, 3),
            "Use german_syn When age = 1 Update(status) = 3 \
             Output Avg(Post(credit_amount)) For Post(credit) = 'Good'",
            0x3ffb21fb8a90c67du64,
        ),
        (
            hyper_datasets::german_syn_extended(3_000, 1),
            "Use german_syn Update(status) = 2.625 And Update(savings) = 2.625 \
             And Update(housing) = 1.75 And Update(credit_amount) = 2.625 \
             Output Count(Post(credit) = 'Good')",
            0x40a6aa1ba174f5d7,
        ),
    ];
    for (data, text, pinned) in cases {
        let config = EngineConfig::hyper();
        let HypotheticalQuery::WhatIf(q) = parse_query(text).unwrap() else {
            unreachable!()
        };
        // The estimator a session fits: the graph's adjustment set, under
        // the session's default configuration.
        let view = build_relevant_view(&data.db, &q.use_clause).unwrap();
        let plan = plan_whatif(&data.db, Some(&data.graph), &config, &q, &view, "").unwrap();
        let backdoor: Vec<&str> = plan.backdoor.iter().map(String::as_str).collect();
        let (view, est, updates) = fit_for(&data.db, &q, &backdoor, &config);
        let update_cols: Vec<usize> = updates.iter().map(|(c, _)| *c).collect();
        assert!(
            PeerSummary::detect(&view, Some(&data.graph), &update_cols)
                .unwrap()
                .is_none(),
            "German-Syn declares no peer summary"
        );
        let (when, scope) = masks(&view, &q);
        let (when, scope) = (when.as_deref(), scope.as_deref());

        let rows = est.row_contributions(&view, &updates, when, scope).unwrap();
        let column = |k: usize| -> Vec<f64> { rows.iter().map(|r| [r.0, r.1][k]).collect() };
        let want = (oracle::sum(&column(0)), oracle::sum(&column(1)));
        let parts = est.evaluate_parts(&view, &updates, when, scope).unwrap();
        assert_eq!(
            bits(parts),
            bits(want),
            "{text}: {parts:?} vs oracle {want:?}"
        );

        let value = est.evaluate(&view, &updates, when, scope).unwrap();
        assert_eq!(
            value.to_bits(),
            pinned,
            "{text}: {value:?} = {:#018x}",
            value.to_bits()
        );
        let session = HyperSession::builder(data.db.clone())
            .graph(data.graph.clone())
            .config(config)
            .build();
        assert_eq!(session.whatif_text(text).unwrap().value.to_bits(), pinned);
    }
}

#[test]
fn a_peer_mean_moved_by_less_than_1e_12_still_affects_its_rows() {
    // Prices of 1 and 2 keep the group sums small, so a shift of 1e-13
    // moves the leave-one-out peer means by far less than 1e-12 but still
    // changes their bits.
    let mut rng = StdRng::seed_from_u64(21);
    let schema = Schema::new(vec![
        Field::new("pid", DataType::Int),
        Field::new("category", DataType::Str),
        Field::new("price", DataType::Float),
        Field::new("rating", DataType::Float),
    ])
    .unwrap();
    let mut t = TableBuilder::with_key("product", schema, &["pid"]).unwrap();
    for pid in 0..60i64 {
        t.push(vec![
            pid.into(),
            ["a", "b", "c"][rng.gen_range(0..3usize)].into(),
            (1.0 + rng.gen_range(0..2) as f64).into(),
            (3.0 + rng.gen_range(0..3) as f64 * 0.5).into(),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    let text = "Use product When pid < 6 Update(price) = 1e-13 + Pre(price) \
                Output Avg(Post(rating))";
    let HypotheticalQuery::WhatIf(q) = parse_query(text).unwrap() else {
        unreachable!()
    };
    assert!(matches!(q.updates[0].func, UpdateFunc::Shift(d) if d == 1e-13));
    let view = build_relevant_view(&db, &q.use_clause).unwrap();
    let col = |name: &str| resolve_column(view.table.schema(), name).unwrap();
    let (price, category) = (col("price"), col("category"));
    let updates = vec![(price, q.updates[0].func.clone())];
    let y = bind_hexpr(&HExpr::post("rating"), view.table.schema(), Temporal::Post).unwrap();
    let spec = EstimatorSpec {
        update_cols: &[price],
        backdoor_cols: &[],
        peer: Some(PeerSummary {
            update_col: price,
            group_col: category,
        }),
        sample_cap: None,
        n_trees: 3,
        max_depth: 4,
        seed: 7,
        kind: EstimatorKind::Forest,
        runtime: HyperRuntime::global(),
    };
    let est = CausalEstimator::fit(&view, &spec, &None, &Some(Arc::new(y)), AggFunc::Avg).unwrap();
    let (when, _) = masks(&view, &q);
    let when = when.unwrap();
    let post = est
        .peer_post_means(&view.table, &updates, Some(&when))
        .unwrap()
        .unwrap();
    let mut affected = Vec::new();
    est.fold_unaffected(
        &view.table,
        Some(&when),
        None,
        Some(&post),
        &mut Parts::default(),
        |i| affected.push(i),
    )
    .unwrap();

    // Every row sharing a category with an updated row sees a new peer
    // mean (each category has more than one row).
    let group = |i: usize| view.table.column(category).value(i);
    let expected: Vec<usize> = (0..view.table.num_rows())
        .filter(|&i| when[i] || (0..when.len()).any(|j| j != i && when[j] && group(j) == group(i)))
        .collect();
    let pre = &est.peer.as_ref().unwrap().1;
    let moved: Vec<usize> = expected.iter().copied().filter(|&i| !when[i]).collect();
    assert!(
        !moved.is_empty(),
        "some rows are moved through their peers only"
    );
    for &i in &moved {
        let delta = (pre[i] - post[i]).abs();
        assert!(
            delta > 0.0 && delta < 1e-12,
            "row {i}: peer mean moved by {delta:e}"
        );
    }
    assert_eq!(affected, expected);
}

/// Peer means are exact: each group's sum is exact and each
/// leave-one-out mean its exact quotient rounded once. Over 200 rows in
/// two groups with values k/7, permuting the rows gives every row the
/// same peer-mean bits, which equal the oracle's quotient — while a plain
/// row-order fold of the same means moves with the permutation.
#[test]
fn peer_means_do_not_depend_on_row_order() {
    let n = 200;
    let groups: Vec<Value> = (0..n).map(|k| Value::Int(k as i64 % 2)).collect();
    let values: Vec<f64> = (0..n).map(|k| k as f64 / 7.0).collect();
    let peer = PeerSummary {
        update_col: 0,
        group_col: 1,
    };
    let means = |order: &[usize]| {
        let g: Vec<Value> = order.iter().map(|&i| groups[i].clone()).collect();
        let v: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        peer.peer_means(&Column::from_values_inferred(&g).unwrap(), &v)
    };
    // The leave-one-out means of a plain fold in row order.
    let folded = |order: &[usize]| -> Vec<f64> {
        let mut sum = [0.0f64; 2];
        for &i in order {
            sum[i % 2] += values[i];
        }
        order
            .iter()
            .map(|&i| (sum[i % 2] - values[i]) / (n / 2 - 1) as f64)
            .collect()
    };
    let identity: Vec<usize> = (0..n).collect();
    let base = means(&identity);
    for (i, m) in base.iter().enumerate() {
        let peers: Vec<f64> = (0..n)
            .filter(|&j| j != i && j % 2 == i % 2)
            .map(|j| values[j])
            .collect();
        let want = oracle::quotient(&peers, peers.len() as u32);
        assert_eq!(m.to_bits(), want.to_bits(), "row {i}: {m:e} vs {want:e}");
    }
    let base_folded = folded(&identity);
    let mut rng = StdRng::seed_from_u64(0x9ee7);
    let mut order_sensitive = 0;
    for _ in 0..8 {
        let mut order = identity.clone();
        order.shuffle(&mut rng);
        let got = means(&order);
        let got_folded = folded(&order);
        for (pos, &i) in order.iter().enumerate() {
            assert_eq!(got[pos].to_bits(), base[i].to_bits(), "row {i}");
            order_sensitive += usize::from(got_folded[pos].to_bits() != base_folded[i].to_bits());
        }
    }
    assert!(order_sensitive > 0, "a plain fold depends on row order");
}
