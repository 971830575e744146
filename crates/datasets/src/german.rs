//! German credit datasets.
//!
//! * [`german`] — simulated UCI German credit (1k rows, richer schema) for
//!   the Fig. 8a qualitative study: `Status` and `Credit history` dominate
//!   the credit outcome, `Housing`/`Investment` matter far less.
//! * [`german_syn`] — the paper's synthetic German generator (§5.1) with
//!   the same causal graph shape (Chiappa \[11\]): confounders `age`/`sex`
//!   feeding financial attributes feeding `credit`. Used by Figs. 6, 10a,
//!   12 and the how-to quality experiments.
//! * [`german_syn_continuous`] — the Fig. 9 variant with a continuous
//!   update attribute.

use std::collections::HashMap;

use hyper_causal::scm::{Mechanism, Scm};
use hyper_storage::{DataType, Database, Value};

use crate::Dataset;

fn discrete(levels: &[(i64, f64)]) -> Vec<(Value, f64)> {
    levels.iter().map(|&(v, p)| (Value::Int(v), p)).collect()
}

/// CPD helper: per parent combination, a distribution over integer levels
/// produced by a logistic-ish score.
fn leveled_cpd(
    parent_domains: &[&[i64]],
    levels: i64,
    score: impl Fn(&[i64]) -> f64,
) -> HashMap<Vec<Value>, Vec<(Value, f64)>> {
    let mut table = HashMap::new();
    let mut combo = vec![0usize; parent_domains.len()];
    loop {
        let parents: Vec<i64> = combo
            .iter()
            .zip(parent_domains)
            .map(|(&i, d)| d[i])
            .collect();
        let s = score(&parents);
        // Geometric-ish tilt towards high levels as score grows.
        let mut weights: Vec<f64> = (0..levels)
            .map(|l| ((l as f64 - (levels - 1) as f64 / 2.0) * s).exp())
            .collect();
        let z: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= z;
        }
        table.insert(
            parents.iter().map(|&p| Value::Int(p)).collect(),
            (0..levels)
                .map(|l| (Value::Int(l), weights[l as usize]))
                .collect(),
        );
        // Increment combo.
        let mut i = 0;
        loop {
            if i == combo.len() {
                return table;
            }
            combo[i] += 1;
            if combo[i] < parent_domains[i].len() {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
    }
}

/// Binary outcome CPD from a linear score through a sigmoid.
fn binary_cpd(
    parent_domains: &[&[i64]],
    good: Value,
    bad: Value,
    score: impl Fn(&[i64]) -> f64,
) -> HashMap<Vec<Value>, Vec<(Value, f64)>> {
    let mut table = HashMap::new();
    let mut combo = vec![0usize; parent_domains.len()];
    loop {
        let parents: Vec<i64> = combo
            .iter()
            .zip(parent_domains)
            .map(|(&i, d)| d[i])
            .collect();
        let p = 1.0 / (1.0 + (-score(&parents)).exp());
        table.insert(
            parents.iter().map(|&x| Value::Int(x)).collect(),
            vec![(bad.clone(), 1.0 - p), (good.clone(), p)],
        );
        let mut i = 0;
        loop {
            if i == combo.len() {
                return table;
            }
            combo[i] += 1;
            if combo[i] < parent_domains[i].len() {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
    }
}

const L2: &[i64] = &[0, 1];
const L3: &[i64] = &[0, 1, 2];
const L4: &[i64] = &[0, 1, 2, 3];

/// The paper's German-Syn generator: 7 attributes, discrete levels,
/// `age`/`sex` confound the financial attributes and the credit outcome.
pub fn german_syn_scm() -> Scm {
    let mut scm = Scm::new();
    scm.add_node(
        "age",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(discrete(&[(0, 0.35), (1, 0.4), (2, 0.25)])),
    )
    .unwrap();
    scm.add_node(
        "sex",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(discrete(&[(0, 0.55), (1, 0.45)])),
    )
    .unwrap();
    scm.add_node(
        "status",
        DataType::Int,
        &["age", "sex"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3, L2], 4, |p| {
                0.5 * p[0] as f64 + 0.3 * p[1] as f64 - 0.4
            }),
            default: discrete(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        },
    )
    .unwrap();
    scm.add_node(
        "savings",
        DataType::Int,
        &["age", "sex"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3, L2], 4, |p| {
                0.35 * p[0] as f64 + 0.2 * p[1] as f64 - 0.3
            }),
            default: discrete(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        },
    )
    .unwrap();
    scm.add_node(
        "housing",
        DataType::Int,
        &["age"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3], 3, |p| 0.3 * p[0] as f64 - 0.2),
            default: discrete(&[(0, 0.34), (1, 0.33), (2, 0.33)]),
        },
    )
    .unwrap();
    scm.add_node(
        "credit_amount",
        DataType::Int,
        &["age", "sex"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3, L2], 4, |p| {
                0.25 * p[0] as f64 + 0.15 * p[1] as f64 - 0.2
            }),
            default: discrete(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        },
    )
    .unwrap();
    // Credit: status dominates, savings/housing moderate, amount small —
    // the effect ordering §5.3/Fig 10a reports.
    scm.add_node(
        "credit",
        DataType::Str,
        &["status", "savings", "housing", "credit_amount"],
        Mechanism::DiscreteCpd {
            table: binary_cpd(
                &[L4, L4, L3, L4],
                Value::str("Good"),
                Value::str("Bad"),
                |p| {
                    -2.0 + 1.0 * p[0] as f64
                        + 0.45 * p[1] as f64
                        + 0.35 * p[2] as f64
                        + 0.15 * p[3] as f64
                },
            ),
            default: vec![(Value::str("Bad"), 1.0)],
        },
    )
    .unwrap();
    scm
}

/// German-Syn extended with an `interest_rate` attribute *downstream of the
/// outcome* (good credit lowers the offered rate). Used by the
/// lexicographic multi-objective demo, which needs two downstream
/// objectives. Kept separate from [`german_syn_scm`] because a post-outcome
/// attribute deliberately breaks the HypeR-NB canonical adjustment set
/// (conditioning on it leaks the outcome — §2.2's caveat).
pub fn german_syn_extended_scm() -> Scm {
    let mut scm = german_syn_scm();
    scm.add_node(
        "interest_rate",
        DataType::Float,
        &["credit", "credit_amount"],
        Mechanism::Deterministic(std::sync::Arc::new(|parents: &[Value]| {
            let good = parents[0].as_str() == Some("Good");
            let amount = parents[1].as_f64().unwrap_or(0.0);
            Value::Float(if good { 4.0 } else { 9.0 } + 0.6 * amount)
        })),
    )
    .unwrap();
    scm
}

/// German-Syn-extended with `n` rows (see [`german_syn_extended_scm`]).
pub fn german_syn_extended(n: usize, seed: u64) -> Dataset {
    let scm = german_syn_extended_scm();
    let table = scm.sample("german_syn", n, seed).expect("valid scm");
    let mut db = Database::new();
    db.add_table(table).expect("fresh db");
    let graph = scm.to_causal_graph("german_syn");
    Dataset {
        name: "german-syn-ext",
        db,
        graph,
        scm: Some(scm),
    }
}

/// German-Syn with `n` rows.
pub fn german_syn(n: usize, seed: u64) -> Dataset {
    let scm = german_syn_scm();
    let table = scm.sample("german_syn", n, seed).expect("valid scm");
    let mut db = Database::new();
    db.add_table(table).expect("fresh db");
    let graph = scm.to_causal_graph("german_syn");
    Dataset {
        name: "german-syn",
        db,
        graph,
        scm: Some(scm),
    }
}

/// Fig-9 variant: `credit_amount` is continuous (Gaussian around a level
/// driven by age/sex) and credit responds to it continuously.
pub fn german_syn_continuous(n: usize, seed: u64) -> Dataset {
    let mut scm = Scm::new();
    scm.add_node(
        "age",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(discrete(&[(0, 0.35), (1, 0.4), (2, 0.25)])),
    )
    .unwrap();
    scm.add_node(
        "sex",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(discrete(&[(0, 0.55), (1, 0.45)])),
    )
    .unwrap();
    scm.add_node(
        "status",
        DataType::Int,
        &["age", "sex"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3, L2], 4, |p| {
                0.5 * p[0] as f64 + 0.3 * p[1] as f64 - 0.4
            }),
            default: discrete(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        },
    )
    .unwrap();
    scm.add_node(
        "credit_amount",
        DataType::Float,
        &["age", "sex"],
        Mechanism::LinearGaussian {
            // Wide support over the full [100, 10000] candidate range so
            // bucketized how-to candidates stay inside the observed data
            // (forests cannot extrapolate beyond it).
            intercept: 3600.0,
            coefs: vec![900.0, 500.0],
            noise_std: 2300.0,
            clamp: Some((100.0, 10_000.0)),
            round: false,
        },
    )
    .unwrap();
    scm.add_node(
        "credit",
        DataType::Str,
        &["status", "credit_amount"],
        Mechanism::Logistic {
            intercept: -1.8,
            coefs: vec![0.8, 0.0005],
            if_true: Value::str("Good"),
            if_false: Value::str("Bad"),
        },
    )
    .unwrap();
    let table = scm.sample("german_syn", n, seed).expect("valid scm");
    let mut db = Database::new();
    db.add_table(table).expect("fresh db");
    let graph = scm.to_causal_graph("german_syn");
    Dataset {
        name: "german-syn-cont",
        db,
        graph,
        scm: Some(scm),
    }
}

/// Simulated UCI German credit (1k rows): the Fig-8a schema with `status`,
/// `credit_history`, `housing`, `investment` plus demographics.
pub fn german(seed: u64) -> Dataset {
    let mut scm = Scm::new();
    scm.add_node(
        "age",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(discrete(&[(0, 0.3), (1, 0.45), (2, 0.25)])),
    )
    .unwrap();
    scm.add_node(
        "sex",
        DataType::Int,
        &[],
        Mechanism::CategoricalPrior(discrete(&[(0, 0.69), (1, 0.31)])),
    )
    .unwrap();
    scm.add_node(
        "employment",
        DataType::Int,
        &["age"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3], 3, |p| 0.4 * p[0] as f64 - 0.3),
            default: discrete(&[(0, 0.34), (1, 0.33), (2, 0.33)]),
        },
    )
    .unwrap();
    scm.add_node(
        "status",
        DataType::Int,
        &["age", "employment"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3, L3], 4, |p| {
                0.35 * p[0] as f64 + 0.4 * p[1] as f64 - 0.5
            }),
            default: discrete(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        },
    )
    .unwrap();
    scm.add_node(
        "credit_history",
        DataType::Int,
        &["age"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3], 4, |p| 0.45 * p[0] as f64 - 0.3),
            default: discrete(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        },
    )
    .unwrap();
    scm.add_node(
        "housing",
        DataType::Int,
        &["age", "employment"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3, L3], 3, |p| {
                0.25 * p[0] as f64 + 0.2 * p[1] as f64 - 0.2
            }),
            default: discrete(&[(0, 0.34), (1, 0.33), (2, 0.33)]),
        },
    )
    .unwrap();
    scm.add_node(
        "investment",
        DataType::Int,
        &["employment"],
        Mechanism::DiscreteCpd {
            table: leveled_cpd(&[L3], 4, |p| 0.3 * p[0] as f64 - 0.2),
            default: discrete(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]),
        },
    )
    .unwrap();
    // Status and credit history dominate; housing/investment are weak —
    // exactly the §5.3 finding ("updating these attributes to the maximum
    // value, more than 81% of the individuals have good credit … housing
    // and investment affect less than 20%").
    scm.add_node(
        "credit",
        DataType::Str,
        &["status", "credit_history", "housing", "investment"],
        Mechanism::DiscreteCpd {
            table: binary_cpd(
                &[L4, L4, L3, L4],
                Value::str("Good"),
                Value::str("Bad"),
                |p| {
                    -2.4 + 1.1 * p[0] as f64
                        + 0.9 * p[1] as f64
                        + 0.25 * p[2] as f64
                        + 0.15 * p[3] as f64
                },
            ),
            default: vec![(Value::str("Bad"), 1.0)],
        },
    )
    .unwrap();
    let table = scm.sample("german", 1000, seed).expect("valid scm");
    let mut db = Database::new();
    db.add_table(table).expect("fresh db");
    let graph = scm.to_causal_graph("german");
    Dataset {
        name: "german",
        db,
        graph,
        scm: Some(scm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyper_core::HyperSession;

    #[test]
    fn german_syn_shape_and_determinism() {
        let d1 = german_syn(2000, 5);
        let d2 = german_syn(2000, 5);
        let t1 = d1.db.table("german_syn").unwrap();
        let t2 = d2.db.table("german_syn").unwrap();
        assert_eq!(t1.num_rows(), 2000);
        assert_eq!(t1.column(0), t2.column(0));
        assert_eq!(t1.num_columns(), 7);
        assert!(d1.scm.is_some());
    }

    #[test]
    fn credit_is_mixed() {
        let d = german_syn(5000, 9);
        let t = d.db.table("german_syn").unwrap();
        let good = t
            .column_by_name("credit")
            .unwrap()
            .iter()
            .filter(|v| v.as_str() == Some("Good"))
            .count() as f64
            / 5000.0;
        assert!(
            (0.2..0.8).contains(&good),
            "P(good) = {good} should be non-degenerate"
        );
    }

    #[test]
    fn status_dominates_credit_in_ground_truth() {
        // Replay the Fig-8a/10a direction through the structural equations.
        let d = german(3);
        let scm = d.scm.as_ref().unwrap();
        let p_good = |attr: &str, value: i64| -> f64 {
            let (_, post) = scm
                .sample_paired(
                    "g",
                    8000,
                    77,
                    &[hyper_causal::Intervention::new(
                        attr,
                        hyper_causal::InterventionOp::Set(Value::Int(value)),
                    )],
                    None,
                )
                .unwrap();
            post.column_by_name("credit")
                .unwrap()
                .iter()
                .filter(|v| v.as_str() == Some("Good"))
                .count() as f64
                / 8000.0
        };
        let status_gap = p_good("status", 3) - p_good("status", 0);
        let history_gap = p_good("credit_history", 3) - p_good("credit_history", 0);
        let housing_gap = p_good("housing", 2) - p_good("housing", 0);
        let investment_gap = p_good("investment", 3) - p_good("investment", 0);
        assert!(status_gap > housing_gap, "{status_gap} vs {housing_gap}");
        assert!(status_gap > investment_gap);
        assert!(history_gap > housing_gap);
        assert!(status_gap > 0.3, "status must matter a lot: {status_gap}");
        assert!(
            housing_gap < 0.25,
            "housing must matter little: {housing_gap}"
        );
    }

    #[test]
    fn engine_runs_on_german_syn() {
        let d = german_syn(4000, 21);
        let engine = HyperSession::new(d.db.clone(), Some(&d.graph));
        let r = engine
            .whatif_text(
                "Use german_syn Update(status) = 3
                 Output Count(Post(credit) = 'Good')",
            )
            .unwrap();
        assert!(r.value > 0.0 && r.value <= 4000.0);
        // A valid adjustment set must be chosen: non-empty (the graph is
        // confounded) and never containing the treatment or the outcome.
        // Both {age, sex} and {savings, housing, credit_amount} are valid
        // minimal sets here; the greedy shrink may land on either.
        assert!(!r.backdoor.is_empty());
        assert!(!r.backdoor.iter().any(|c| c == "status" || c == "credit"));
    }

    #[test]
    fn continuous_variant_has_float_amounts() {
        let d = german_syn_continuous(1000, 13);
        let t = d.db.table("german_syn").unwrap();
        let amounts = t.column_by_name("credit_amount").unwrap();
        assert!(amounts.iter().any(|v| matches!(v, Value::Float(_))));
        let distinct: std::collections::HashSet<_> =
            amounts.iter().map(|v| v.to_string()).collect();
        assert!(distinct.len() > 100, "continuous attribute expected");
    }
}
