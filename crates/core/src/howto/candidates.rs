//! Candidate-update enumeration for how-to queries (§4.3: "for each
//! attribute B_i ∈ U, we enumerate all permissible updates S_{B_i}" with
//! continuous domains bucketized).

use hyper_ml::{BinStrategy, Discretizer};
use hyper_query::{HowToQuery, LimitConstraint, UpdateFunc};
use hyper_storage::{ColumnStats, DataType, StrDict, Value};

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
    let s_row = |k: usize| s_rows.as_ref().map_or(k, |rows| rows[k]);
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

        // Pre-update values over S, for L1 costing, read once off the
        // typed column: numbers (NULL and strings are `None`) and, for a
        // string column, dictionary codes (NULL is `None`).
        let pre_col = view.table.column(col);
        let pre_num: Vec<Option<f64>> = (0..s_len).map(|k| pre_col.f64_at(s_row(k))).collect();
        let pre_codes: Option<(Vec<Option<u32>>, &StrDict)> =
            pre_col.as_str().map(|(codes, dict, nulls)| {
                let codes = (0..s_len)
                    .map(s_row)
                    .map(|i| (!nulls.is_null(i)).then_some(codes[i]))
                    .collect();
                (codes, dict)
            });

        // Mean distance over S, summed in row order: |t − x| between
        // numbers, else a 0/1 mismatch, where only equal strings match
        // (as `Value::sql_eq`: NULL matches nothing, and a string never
        // equals a number).
        let mean_l1 = |v: &Value| -> f64 {
            if s_len == 0 {
                return 0.0;
            }
            let total: f64 = match (v.as_f64(), v.as_str(), &pre_codes) {
                (Some(t), _, _) => pre_num
                    .iter()
                    .map(|x| x.map_or(1.0, |x| (t - x).abs()))
                    .sum(),
                (None, Some(s), Some((codes, dict))) => {
                    let target = dict.code_of(s);
                    codes
                        .iter()
                        .map(|&c| if c.is_some() && c == target { 0.0 } else { 1.0 })
                        .sum()
                }
                _ => (0..s_len).map(|_| 1.0).sum(),
            };
            total / s_len as f64
        };

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
                let d = Discretizer::fit(
                    &[range_lo, range_hi],
                    buckets.max(1),
                    BinStrategy::EquiWidth,
                )
                .map_err(EngineError::from)?;
                d.midpoints().iter().map(|&m| Value::Float(m)).collect()
            }
        } else {
            // Categorical without an In-set: the observed domain.
            ColumnStats::compute(&view.table, &view.table.schema().field(col).name)
                .map_err(EngineError::from)?
                .domain()
        };

        let mut cands = Vec::with_capacity(raw_values.len());
        for v in raw_values {
            // Range check (numeric candidates from In-sets too).
            if let Some(x) = v.as_f64() {
                if lo.is_some_and(|l| x < l) || hi.is_some_and(|h| x > h) {
                    continue;
                }
            }
            let cost = mean_l1(&v);
            if l1.is_some_and(|b| cost > b) {
                continue;
            }
            cands.push(Candidate {
                attr: attr.clone(),
                col,
                func: UpdateFunc::Set(v),
                l1_cost: cost,
            });
        }
        out.push(cands);
    }
    Ok(out)
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
