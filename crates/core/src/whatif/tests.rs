//! Deterministic what-ifs (every post reference updated) sum exactly, so
//! their value does not depend on row order.

use hyper_query::{parse_query, HypotheticalQuery};
use hyper_storage::{DataType, Database, Field, Schema, TableBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::exact_sum::oracle;
use super::*;

/// Table `t(k, y)`: `y` spans magnitudes 2^±40, so a plain left fold of
/// its values depends on their order.
fn rows(rng: &mut StdRng) -> Vec<(i64, f64)> {
    (0..300)
        .map(|_| {
            let unit = 1.0 + rng.gen_range(0..1u64 << 52) as f64 / (1u64 << 52) as f64;
            let sign = if rng.gen_range(0..4) == 0 { -1.0 } else { 1.0 };
            (
                rng.gen_range(0..3),
                sign * unit * 2f64.powi(rng.gen_range(-40..40)),
            )
        })
        .collect()
}

fn db_of(rows: &[(i64, f64)]) -> Database {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("y", DataType::Float),
    ])
    .unwrap();
    let mut t = TableBuilder::new("t", schema);
    for &(k, y) in rows {
        t.push(vec![Value::Int(k), Value::Float(y)]).unwrap();
    }
    let mut db = Database::new();
    db.add_table(t.build()).unwrap();
    db
}

fn value(db: &Database, text: &str) -> f64 {
    let HypotheticalQuery::WhatIf(q) = parse_query(text).unwrap() else {
        unreachable!()
    };
    let r = crate::HyperSession::new(db.clone(), None)
        .with_config(EngineConfig::hyper_nb())
        .whatif(&q)
        .unwrap();
    assert_eq!(r.trained_rows, 0, "{text} takes the deterministic path");
    r.value
}

#[test]
fn deterministic_values_do_not_depend_on_row_order() {
    let mut rng = StdRng::seed_from_u64(0xde7);
    let mut data = rows(&mut rng);
    let queries = [
        "Use t Update(y) = 1.5 * Pre(y) Output Sum(Post(y))",
        "Use t When k = 1 Update(y) = 3 + Pre(y) Output Avg(Post(y))",
        "Use t Update(y) = 2 * Pre(y) Output Sum(Post(y)) For Pre(k) < 2",
        "Use t When k > 0 Update(y) = 0.5 * Pre(y) Output Count(Post(y) > 1)",
    ];
    let first: Vec<u64> = queries
        .iter()
        .map(|q| value(&db_of(&data), q).to_bits())
        .collect();
    let mut plain_folds = std::collections::HashSet::new();
    for _ in 0..20 {
        data.shuffle(&mut rng);
        let db = db_of(&data);
        for (q, want) in queries.iter().zip(&first) {
            assert_eq!(value(&db, q).to_bits(), *want, "{q}");
        }
        plain_folds.insert(data.iter().map(|r| r.1 * 1.5).sum::<f64>().to_bits());
    }
    assert!(plain_folds.len() > 1, "the data is order-sensitive");
    let post: Vec<f64> = data.iter().map(|r| r.1 * 1.5).collect();
    assert_eq!(first[0], oracle::sum(&post).to_bits());
}
