//! Candidate-update enumeration for how-to queries (§4.3: "for each
//! attribute B_i ∈ U, we enumerate all permissible updates S_{B_i}" with
//! continuous domains bucketized).

use hyper_query::{HowToQuery, LimitConstraint, UpdateFunc};
use hyper_storage::{Column, ColumnStats, DataType, Value};

use crate::error::{EngineError, Result};
use crate::hexpr::resolve_column;
use crate::view::RelevantView;

/// One permissible update value for one attribute.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Attribute name.
    pub attr: String,
    /// View column.
    pub col: usize,
    /// The update (always an absolute `Set` after bucketization).
    pub func: UpdateFunc,
    /// Mean normalized L1 cost over the update set `S`.
    pub l1_cost: f64,
}

/// Per-attribute candidate lists for a how-to query. `when_mask` marks the
/// update set `S` (the rows whose L1 distance the `Limit` bounds); `None`
/// stands for every row.
///
/// A numeric attribute's domain needs only its minimum and maximum, read
/// off the typed column ([`ColumnStats::min_max`]); the frequency map of
/// [`ColumnStats::compute`] is built only for a categorical attribute's
/// observed domain.
pub fn generate_candidates(
    view: &RelevantView,
    when_mask: Option<&[bool]>,
    q: &HowToQuery,
    buckets: usize,
) -> Result<Vec<Vec<Candidate>>> {
    // The rows of S, listed only when a mask selects them.
    let s_rows: Option<Vec<usize>> = when_mask.map(|m| (0..m.len()).filter(|&i| m[i]).collect());
    let s_len = s_rows.as_ref().map_or(view.table.num_rows(), Vec::len);
    let mut out = Vec::with_capacity(q.update_attrs.len());
    for attr in &q.update_attrs {
        let col = resolve_column(view.table.schema(), attr)?;

        // Collect this attribute's constraints. Bounds must be resolved
        // by now — a template with `Param(…)` bounds is bound per
        // execution (`PreparedQuery::execute_with`) before reaching here.
        let resolve = |b: &hyper_query::Bound| -> Result<f64> {
            b.as_f64().ok_or_else(|| {
                EngineError::Query(format!(
                    "unresolved parameter `Param({})` in Limit; supply Bindings \
                     (e.g. PreparedQuery::execute_with) before evaluation",
                    b.param_name().unwrap_or("?")
                ))
            })
        };
        let mut lo: Option<f64> = None;
        let mut hi: Option<f64> = None;
        let mut in_set: Option<&[Value]> = None;
        let mut l1: Option<f64> = None;
        for c in &q.limits {
            match c {
                LimitConstraint::Range {
                    attr: a,
                    lo: l,
                    hi: h,
                } if a.eq_ignore_ascii_case(attr) => {
                    if let Some(b) = l {
                        lo = Some(resolve(b)?);
                    }
                    if let Some(b) = h {
                        hi = Some(resolve(b)?);
                    }
                }
                LimitConstraint::InSet { attr: a, values } if a.eq_ignore_ascii_case(attr) => {
                    in_set = Some(values);
                }
                LimitConstraint::L1 { attr: a, bound } if a.eq_ignore_ascii_case(attr) => {
                    l1 = Some(resolve(bound)?);
                }
                _ => {}
            }
        }

        let pre_col = view.table.column(col);
        let numeric = matches!(
            view.table.schema().field(col).data_type,
            DataType::Int | DataType::Float
        );

        let raw_values: Vec<Value> = if let Some(values) = in_set {
            values.to_vec()
        } else if numeric {
            let (dom_lo, dom_hi) = match ColumnStats::min_max(pre_col) {
                Some((lo, hi)) => (lo.as_f64().unwrap_or(0.0), hi.as_f64().unwrap_or(0.0)),
                None => (0.0, 0.0),
            };
            let range_lo = lo.unwrap_or(dom_lo);
            let range_hi = hi.unwrap_or(dom_hi);
            if range_lo > range_hi {
                Vec::new()
            } else if range_lo == range_hi {
                vec![Value::Float(range_lo)]
            } else {
                equi_width_midpoints([range_lo, range_hi], buckets.max(1))?
                    .into_iter()
                    .map(Value::Float)
                    .collect()
            }
        } else {
            // Categorical without an In-set: the observed domain.
            ColumnStats::compute(&view.table, &view.table.schema().field(col).name)
                .map_err(EngineError::from)?
                .domain()
        };

        // Range check (numeric candidates from In-sets too).
        let in_range: Vec<Value> = (raw_values.into_iter())
            .filter(|v| {
                v.as_f64()
                    .is_none_or(|x| !(lo.is_some_and(|l| x < l) || hi.is_some_and(|h| x > h)))
            })
            .collect();
        let costs = mean_l1_costs(pre_col, s_rows.as_deref(), s_len, &in_range);
        let cands = (in_range.into_iter().zip(costs))
            .filter(|(_, cost)| !l1.is_some_and(|b| *cost > b))
            .map(|(v, cost)| Candidate {
                attr: attr.clone(),
                col,
                func: UpdateFunc::Set(v),
                l1_cost: cost,
            })
            .collect();
        out.push(cands);
    }
    Ok(out)
}

/// The midpoints of `k` ≥ 1 equal-width buckets between the finite ones of
/// `bounds` (§4.3: continuous domains are bucketized). A single finite
/// bound is a constant range, whose `k` midpoints all equal it.
fn equi_width_midpoints(bounds: [f64; 2], k: usize) -> Result<Vec<f64>> {
    let mut finite: Vec<f64> = bounds.into_iter().filter(|b| b.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    let (Some(&lo), Some(&hi)) = (finite.first(), finite.last()) else {
        return Err(EngineError::Ml("invalid input: no finite values".into()));
    };
    let width = (hi - lo) / k as f64;
    let edge = |i: usize| lo + width * i as f64;
    Ok((0..k).map(|i| (edge(i) + edge(i + 1)) / 2.0).collect())
}

/// The mean L1 distance over S of setting `col` to each of `values`: the
/// rows `s_rows` of the column (every row when `None`), `s_len` of them.
/// The distance of a row is |t − x| between numbers, else a 0/1 mismatch,
/// where only equal strings match (as `Value::sql_eq`: NULL matches
/// nothing, and a string never equals a number).
///
/// One pass over S reads each pre-update value off the typed buffer and
/// adds its distance to every candidate's sum. Each sum still adds its
/// terms in row order from zero, so it keeps the bits of a separate pass.
fn mean_l1_costs(
    col: &Column,
    s_rows: Option<&[usize]>,
    s_len: usize,
    values: &[Value],
) -> Vec<f64> {
    /// What a candidate value compares a row's pre-update value with.
    enum Target {
        /// A number: |t − x| against a number, 1 against anything else.
        Number(f64),
        /// A string over a string column: its dictionary code, if the
        /// dictionary holds it; 0 on an equal non-NULL code, else 1.
        Code(Option<u32>),
        /// Nothing matches: 1 on every row.
        Mismatch,
    }
    let targets: Vec<Target> = (values.iter())
        .map(|v| match (v.as_f64(), v.as_str(), col.as_str()) {
            (Some(t), _, _) => Target::Number(t),
            (None, Some(s), Some((_, dict, _))) => Target::Code(dict.code_of(s)),
            _ => Target::Mismatch,
        })
        .collect();
    let mut sums = vec![0.0f64; values.len()];
    if s_len == 0 {
        return sums;
    }
    let numbers: Option<Vec<f64>> = (targets.iter())
        .map(|t| match t {
            Target::Number(t) => Some(*t),
            _ => None,
        })
        .collect();
    match (numbers, col) {
        // Numbers against a numeric column without NULLs: |t − x| only.
        (Some(ts), Column::Int { values, nulls }) if !nulls.any_null() => {
            for_each_row(s_rows, s_len, |i| {
                add_distances(&mut sums, &ts, values[i] as f64)
            });
        }
        (Some(ts), Column::Float { values, nulls }) if !nulls.any_null() => {
            for_each_row(s_rows, s_len, |i| add_distances(&mut sums, &ts, values[i]));
        }
        _ => {
            let nulls = col.nulls();
            for_each_row(s_rows, s_len, |i| {
                // The pre-update value of row `i`: a number, or a code.
                let (x, code) = match col {
                    _ if nulls.is_null(i) => (None, None),
                    Column::Int { values, .. } => (Some(values[i] as f64), None),
                    Column::Float { values, .. } => (Some(values[i]), None),
                    Column::Bool { values, .. } => (Some(f64::from(u8::from(values[i]))), None),
                    Column::Str { codes, .. } => (None, Some(codes[i])),
                };
                for (sum, target) in sums.iter_mut().zip(&targets) {
                    *sum += match target {
                        Target::Number(t) => x.map_or(1.0, |x| (t - x).abs()),
                        Target::Code(c) if c.is_some() && *c == code => 0.0,
                        Target::Code(_) | Target::Mismatch => 1.0,
                    };
                }
            });
        }
    }
    sums.iter().map(|total| total / s_len as f64).collect()
}

/// Call `f` on each row of S in order: `s_rows`, or `0..s_len` when
/// `None`.
#[inline]
fn for_each_row(s_rows: Option<&[usize]>, s_len: usize, f: impl FnMut(usize)) {
    match s_rows {
        Some(rows) => rows.iter().copied().for_each(f),
        None => (0..s_len).for_each(f),
    }
}

/// Add `|t − x|` to the sum of each number `t`.
#[inline]
fn add_distances(sums: &mut [f64], ts: &[f64], x: f64) {
    for (sum, t) in sums.iter_mut().zip(ts) {
        *sum += (t - x).abs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ColumnOrigin;
    use hyper_query::parse_query;
    use hyper_storage::{Field, Schema, TableBuilder};

    fn view() -> RelevantView {
        let schema = Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::new("color", DataType::Str),
        ])
        .unwrap();
        let mut t = TableBuilder::new("v", schema);
        for (p, c) in [(529.0, "Black"), (999.0, "Silver"), (599.0, "Silver")] {
            t.push(vec![p.into(), c.into()]).unwrap();
        }
        let t = t.build();
        RelevantView {
            origins: vec![
                ColumnOrigin {
                    relation: "v".into(),
                    attribute: "price".into(),
                    aggregated: None,
                },
                ColumnOrigin {
                    relation: "v".into(),
                    attribute: "color".into(),
                    aggregated: None,
                },
            ],
            table: t,
            use_clause: hyper_query::UseClause::Table("v".into()),
            provenance: crate::view::ViewProvenance::AllRows {
                relation: "v".into(),
            },
            support: Default::default(),
        }
    }

    fn howto(text: &str) -> HowToQuery {
        match parse_query(text).unwrap() {
            hyper_query::HypotheticalQuery::HowTo(q) => q,
            _ => panic!(),
        }
    }

    #[test]
    fn numeric_candidates_respect_range_and_l1() {
        let q = howto(
            "Use V HowToUpdate price
             Limit 500 <= Post(price) <= 800 And L1(Pre(price), Post(price)) <= 150
             ToMaximize Avg(Post(rating))",
        );
        let v = view();
        // Update set = first row only (pre price 529).
        let cands = generate_candidates(&v, Some(&[true, false, false]), &q, 6).unwrap();
        assert_eq!(cands.len(), 1);
        assert!(!cands[0].is_empty());
        for c in &cands[0] {
            let UpdateFunc::Set(Value::Float(x)) = c.func else {
                panic!()
            };
            assert!((500.0..=800.0).contains(&x));
            assert!((x - 529.0).abs() <= 150.0, "L1 violated: {x}");
        }
    }

    #[test]
    fn in_set_candidates() {
        let q = howto(
            "Use V HowToUpdate color
             Limit Post(color) In ('Red', 'Blue')
             ToMaximize Avg(Post(rating))",
        );
        let v = view();
        let cands = generate_candidates(&v, None, &q, 4).unwrap();
        assert_eq!(cands[0].len(), 2);
    }

    #[test]
    fn categorical_defaults_to_domain() {
        let q = howto("Use V HowToUpdate color ToMaximize Avg(Post(rating))");
        let v = view();
        let cands = generate_candidates(&v, None, &q, 4).unwrap();
        // Observed domain: Black, Silver.
        assert_eq!(cands[0].len(), 2);
    }

    #[test]
    fn numeric_defaults_to_observed_range() {
        let q = howto("Use V HowToUpdate price ToMaximize Avg(Post(rating))");
        let v = view();
        let cands = generate_candidates(&v, None, &q, 5).unwrap();
        assert_eq!(cands[0].len(), 5);
        for c in &cands[0] {
            let UpdateFunc::Set(Value::Float(x)) = c.func else {
                panic!()
            };
            assert!((529.0..=999.0).contains(&x));
        }
    }

    #[test]
    fn equi_width_midpoints_keep_their_bits() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mids = |bounds, k| bits(&equi_width_midpoints(bounds, k).unwrap());
        assert_eq!(mids([0.0, 10.0], 5), bits(&[1.0, 3.0, 5.0, 7.0, 9.0]));
        assert_eq!(mids([10.0, 0.0], 5), bits(&[1.0, 3.0, 5.0, 7.0, 9.0]));
        assert_eq!(mids([1.0, 9.0], 1), bits(&[5.0]));
        // A single finite bound is a constant range.
        assert_eq!(mids([3.0, f64::INFINITY], 3), bits(&[3.0, 3.0, 3.0]));
        assert_eq!(mids([f64::NAN, -2.5], 2), bits(&[-2.5, -2.5]));
        // No finite bound: the error an invalid `hyper-ml` input raises.
        let err = equi_width_midpoints([f64::NAN, f64::NEG_INFINITY], 4).unwrap_err();
        let ml = EngineError::from(hyper_ml::MlError::InvalidInput("no finite values".into()));
        assert_eq!(err.to_string(), ml.to_string());
    }

    #[test]
    fn categorical_l1_costs_count_mismatches() {
        // Over S = {Black, Silver, NULL}: a NULL matches no candidate, and
        // neither does a value missing from the column's dictionary.
        let mut v = view();
        let schema = Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::nullable("color", DataType::Str),
        ])
        .unwrap();
        let mut t = TableBuilder::new("v", schema);
        for (p, c) in [
            (529.0, "Black".into()),
            (999.0, "Silver".into()),
            (599.0, Value::Null),
        ] {
            t.push(vec![p.into(), c]).unwrap();
        }
        v.table = t.build();
        let q = howto(
            "Use V HowToUpdate color
             Limit Post(color) In ('Silver', 'Red', 1) And L1(Pre(color), Post(color)) <= 2
             ToMaximize Avg(Post(rating))",
        );
        let cands = generate_candidates(&v, None, &q, 4).unwrap();
        let costs: Vec<(String, f64)> = cands[0]
            .iter()
            .map(|c| (c.func.to_string(), c.l1_cost))
            .collect();
        assert_eq!(
            costs,
            [
                ("'Silver'".to_string(), 2.0 / 3.0),
                ("'Red'".to_string(), 1.0),
                ("1".to_string(), 1.0),
            ]
        );
    }

    /// The one-pass costs have the bits of a separate row-order sum per
    /// candidate, over values whose sum depends on the order of its terms.
    #[test]
    fn one_pass_costs_keep_the_row_order_sums() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..500)
            .map(|_| rng.gen_range(1.0..2.0) * 2f64.powi(rng.gen_range(-40..40)))
            .collect();
        let mut ints = Column::new(DataType::Int);
        let mut floats = Column::new(DataType::Float);
        for &x in &xs {
            ints.push(&Value::Int(x as i64)).unwrap();
            floats.push(&Value::Float(x)).unwrap();
        }
        let targets = [Value::Float(0.1), Value::Float(3e11), Value::Int(-7)];
        let rows: Vec<usize> = (0..xs.len()).filter(|i| i % 3 != 1).collect();
        for col in [&ints, &floats] {
            for s_rows in [None, Some(rows.as_slice())] {
                let s: Vec<usize> = s_rows.map_or((0..xs.len()).collect(), <[usize]>::to_vec);
                let costs = mean_l1_costs(col, s_rows, s.len(), &targets);
                for (t, cost) in targets.iter().zip(costs) {
                    let t = t.as_f64().unwrap();
                    let sum: f64 = s.iter().map(|&i| (t - col.f64_at(i).unwrap()).abs()).sum();
                    assert_eq!(cost.to_bits(), (sum / s.len() as f64).to_bits());
                }
            }
        }
    }

    #[test]
    fn l1_costs_are_means_over_s() {
        let q = howto(
            "Use V HowToUpdate price Limit 600 <= Post(price) <= 600
             ToMaximize Avg(Post(rating))",
        );
        let v = view();
        let cands = generate_candidates(&v, None, &q, 3).unwrap();
        assert_eq!(cands[0].len(), 1);
        // Mean |600 - {529, 999, 599}| = (71 + 399 + 1)/3.
        let expected = (71.0 + 399.0 + 1.0) / 3.0;
        assert!((cands[0][0].l1_cost - expected).abs() < 1e-9);
    }
}
