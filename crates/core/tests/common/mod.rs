//! Shared fixtures for engine integration tests.
#![allow(dead_code)] // each integration test binary uses a subset

use std::collections::HashMap;

use hyper_causal::scm::{Mechanism, Scm};
use hyper_storage::{DataType, Database, Value};

/// Binary confounded model: Z → B, Z → Y, B → Y (the canonical graph where
/// conditioning matters: the Indep baseline is biased, HypeR is not).
pub fn confounded_scm() -> Scm {
    let mut scm = Scm::new();
    scm.add_node(
        "z",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(vec![(Value::Int(0), 0.6), (Value::Int(1), 0.4)]),
    )
    .unwrap();
    let mut b = HashMap::new();
    b.insert(
        vec![Value::Int(0)],
        vec![(Value::Int(0), 0.8), (Value::Int(1), 0.2)],
    );
    b.insert(
        vec![Value::Int(1)],
        vec![(Value::Int(0), 0.3), (Value::Int(1), 0.7)],
    );
    scm.add_node(
        "b",
        DataType::Int,
        &["z"],
        Mechanism::DiscreteCpd {
            table: b,
            default: vec![(Value::Int(0), 1.0)],
        },
    )
    .unwrap();
    let mut y = HashMap::new();
    for (z, bv, p1) in [(0, 0, 0.1), (0, 1, 0.5), (1, 0, 0.4), (1, 1, 0.9)] {
        y.insert(
            vec![Value::Int(z), Value::Int(bv)],
            vec![(Value::Int(0), 1.0 - p1), (Value::Int(1), p1)],
        );
    }
    scm.add_node(
        "y",
        DataType::Int,
        &["z", "b"],
        Mechanism::DiscreteCpd {
            table: y,
            default: vec![(Value::Int(0), 1.0)],
        },
    )
    .unwrap();
    scm
}

/// Sample the confounded SCM into a single-relation database named `d`.
pub fn confounded_db(n: usize, seed: u64) -> (Database, Scm, hyper_causal::CausalGraph) {
    let scm = confounded_scm();
    let table = scm.sample("d", n, seed).unwrap();
    let mut db = Database::new();
    db.add_table(table).unwrap();
    let graph = scm.to_causal_graph("d");
    (db, scm, graph)
}

/// A 5-attribute discrete model with two confounders and a mediator-free
/// structure, for richer how-to tests:
/// `age → income, edu → income, edu → status, income → credit, status → credit`.
pub fn credit_scm() -> Scm {
    let mut scm = Scm::new();
    scm.add_node(
        "age",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(vec![
            (Value::Int(0), 0.3),
            (Value::Int(1), 0.4),
            (Value::Int(2), 0.3),
        ]),
    )
    .unwrap();
    scm.add_node(
        "edu",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(vec![(Value::Int(0), 0.5), (Value::Int(1), 0.5)]),
    )
    .unwrap();
    let mut income = HashMap::new();
    for a in 0..3i64 {
        for e in 0..2i64 {
            let p_hi = 0.15 + 0.2 * a as f64 + 0.25 * e as f64;
            income.insert(
                vec![Value::Int(a), Value::Int(e)],
                vec![(Value::Int(0), 1.0 - p_hi), (Value::Int(1), p_hi)],
            );
        }
    }
    scm.add_node(
        "income",
        DataType::Int,
        &["age", "edu"],
        Mechanism::DiscreteCpd {
            table: income,
            default: vec![(Value::Int(0), 1.0)],
        },
    )
    .unwrap();
    let mut status = HashMap::new();
    for e in 0..2i64 {
        let p_hi = 0.3 + 0.4 * e as f64;
        status.insert(
            vec![Value::Int(e)],
            vec![(Value::Int(0), 1.0 - p_hi), (Value::Int(1), p_hi)],
        );
    }
    scm.add_node(
        "status",
        DataType::Int,
        &["edu"],
        Mechanism::DiscreteCpd {
            table: status,
            default: vec![(Value::Int(0), 1.0)],
        },
    )
    .unwrap();
    let mut credit = HashMap::new();
    for i in 0..2i64 {
        for s in 0..2i64 {
            let p_good = 0.2 + 0.35 * i as f64 + 0.3 * s as f64;
            credit.insert(
                vec![Value::Int(i), Value::Int(s)],
                vec![
                    (Value::str("Bad"), 1.0 - p_good),
                    (Value::str("Good"), p_good),
                ],
            );
        }
    }
    scm.add_node(
        "credit",
        DataType::Str,
        &["income", "status"],
        Mechanism::DiscreteCpd {
            table: credit,
            default: vec![(Value::str("Bad"), 1.0)],
        },
    )
    .unwrap();
    scm
}

/// Sample the credit SCM into a database named `d`.
pub fn credit_db(n: usize, seed: u64) -> (Database, Scm, hyper_causal::CausalGraph) {
    let scm = credit_scm();
    let table = scm.sample("d", n, seed).unwrap();
    let mut db = Database::new();
    db.add_table(table).unwrap();
    let graph = scm.to_causal_graph("d");
    (db, scm, graph)
}

/// Three independent causes `a`, `b`, `c` (uniform over {0, 1, 2}) of a
/// binary outcome `y` whose success probability grows with `a + b + c`.
/// No cause reaches another, so every subset of them is a valid
/// multi-attribute update.
pub fn three_cause_db(n: usize, seed: u64) -> (Database, Scm, hyper_causal::CausalGraph) {
    let levels = [Value::Int(0), Value::Int(1), Value::Int(2)];
    let mut scm = Scm::new();
    for cause in ["a", "b", "c"] {
        let prior = levels.iter().map(|v| (v.clone(), 1.0 / 3.0)).collect();
        scm.add_node(
            cause,
            DataType::Int,
            &[],
            Mechanism::CategoricalPrior(prior),
        )
        .unwrap();
    }
    let mut y = HashMap::new();
    for a in 0..3 {
        for b in 0..3 {
            for c in 0..3 {
                let p1 = 0.1 + 0.1 * (a + b + c) as f64;
                y.insert(
                    vec![Value::Int(a), Value::Int(b), Value::Int(c)],
                    vec![(Value::Int(0), 1.0 - p1), (Value::Int(1), p1)],
                );
            }
        }
    }
    scm.add_node(
        "y",
        DataType::Int,
        &["a", "b", "c"],
        Mechanism::DiscreteCpd {
            table: y,
            default: vec![(Value::Int(0), 1.0)],
        },
    )
    .unwrap();
    let table = scm.sample("d", n, seed).unwrap();
    let mut db = Database::new();
    db.add_table(table).unwrap();
    let graph = scm.to_causal_graph("d");
    (db, scm, graph)
}
