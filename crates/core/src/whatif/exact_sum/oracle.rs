//! An independent reference for [`super::ExactSum`]: the terms' exact
//! dyadic sum as a sign-magnitude big integer in units of 2^-1074
//! (`Vec<u32>` limbs, carried on every step), written out in decimal and
//! rounded once to nearest-even by the standard library's correctly
//! rounded `f64` parser. It shares no code with the accumulator.

use std::cmp::Ordering;

/// The correctly rounded sum of `count × x` over `terms`, with the
/// accumulator's rules for special values: NaN, or both infinities, give
/// NaN; an infinity wins over finite terms; an empty sum is `+0.0`, and a
/// sum of `-0.0` terms only is `-0.0`. A zero count adds nothing.
pub(crate) fn scaled_sum(terms: &[(u64, f64)]) -> f64 {
    scaled_quotient(terms, 1)
}

/// The correctly rounded quotient of the [`scaled_sum`] of `terms` by
/// `d ≥ 1`.
pub(crate) fn scaled_quotient(terms: &[(u64, f64)], d: u32) -> f64 {
    let terms: Vec<(u64, f64)> = terms.iter().copied().filter(|&(k, _)| k > 0).collect();
    let has = |v: f64| terms.iter().any(|&(_, x)| x == v);
    if terms.iter().any(|(_, x)| x.is_nan()) || (has(f64::INFINITY) && has(f64::NEG_INFINITY)) {
        return f64::NAN;
    }
    if let Some(&(_, inf)) = terms.iter().find(|(_, x)| x.is_infinite()) {
        return inf;
    }
    let mut positive: Vec<u32> = Vec::new();
    let mut negative: Vec<u32> = Vec::new();
    for &(count, x) in &terms {
        // |x| = m · 2^e exactly, with e ≥ -1074.
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let (m, e) = if biased == 0 {
            (bits & ((1 << 52) - 1), -1074)
        } else {
            ((bits & ((1 << 52) - 1)) | (1 << 52), biased - 1075)
        };
        let target = if x.is_sign_negative() {
            &mut negative
        } else {
            &mut positive
        };
        let mut product = from_u128(u128::from(m) * u128::from(count));
        shift_left(&mut product, (e + 1074) as usize);
        add_into(target, &product);
    }
    let (magnitude, minus) = match compare(&positive, &negative) {
        Ordering::Equal => {
            let all_neg_zero = !terms.is_empty()
                && terms
                    .iter()
                    .all(|&(_, x)| x.to_bits() == (-0.0f64).to_bits());
            return if all_neg_zero { -0.0 } else { 0.0 };
        }
        Ordering::Greater => (subtract(&positive, &negative), false),
        Ordering::Less => (subtract(&negative, &positive), true),
    };
    // The quotient is magnitude / d units of 2^-1074. In quarter units
    // (2^-1076) take 2·⌊2·magnitude / d⌋, plus 1 when the division leaves
    // a remainder: every rounding boundary (a multiple of 2^-1075) is an
    // even number of quarter units, so the odd stand-in for an inexact
    // quotient lies strictly between the same two boundaries as the
    // quotient itself and rounds the same way.
    let mut scaled = magnitude;
    shift_left(&mut scaled, 1);
    let inexact = divide_small(&mut scaled, d) != 0;
    shift_left(&mut scaled, 1);
    if inexact {
        add_into(&mut scaled, &[1]);
    }
    // scaled · 2^-1076 = scaled · 5^1076 · 10^-1076.
    for _ in 0..1076 {
        multiply_small(&mut scaled, 5);
    }
    let text = format!(
        "{}{}e-1076",
        if minus { "-" } else { "" },
        to_decimal(scaled)
    );
    text.parse::<f64>().expect("a decimal literal")
}

/// The correctly rounded sum of `terms`.
pub(crate) fn sum(terms: &[f64]) -> f64 {
    quotient(terms, 1)
}

/// The correctly rounded quotient of the exact sum of `terms` by `d ≥ 1`.
pub(crate) fn quotient(terms: &[f64], d: u32) -> f64 {
    let scaled: Vec<(u64, f64)> = terms.iter().map(|&x| (1, x)).collect();
    scaled_quotient(&scaled, d)
}

fn from_u128(v: u128) -> Vec<u32> {
    let mut out: Vec<u32> = (0..4).map(|j| (v >> (32 * j)) as u32).collect();
    trim(&mut out);
    out
}

fn trim(a: &mut Vec<u32>) {
    while a.last() == Some(&0) {
        a.pop();
    }
}

fn shift_left(a: &mut Vec<u32>, bits: usize) {
    let (words, rest) = (bits / 32, bits % 32);
    if rest > 0 {
        let mut carry = 0u32;
        for w in a.iter_mut() {
            let next = *w >> (32 - rest);
            *w = (*w << rest) | carry;
            carry = next;
        }
        a.push(carry);
    }
    a.splice(0..0, std::iter::repeat_n(0, words));
    trim(a);
}

fn add_into(a: &mut Vec<u32>, b: &[u32]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for (j, w) in a.iter_mut().enumerate() {
        let v = u64::from(*w) + u64::from(b.get(j).copied().unwrap_or(0)) + carry;
        *w = v as u32;
        carry = v >> 32;
    }
    if carry > 0 {
        a.push(carry as u32);
    }
}

fn compare(a: &[u32], b: &[u32]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// `a − b` for `a > b`, both trimmed.
fn subtract(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i64;
    for (j, &w) in a.iter().enumerate() {
        let mut v = i64::from(w) - i64::from(b.get(j).copied().unwrap_or(0)) - borrow;
        borrow = i64::from(v < 0);
        if v < 0 {
            v += 1 << 32;
        }
        out.push(v as u32);
    }
    trim(&mut out);
    out
}

fn multiply_small(a: &mut Vec<u32>, k: u32) {
    let mut carry = 0u64;
    for w in a.iter_mut() {
        let v = u64::from(*w) * u64::from(k) + carry;
        *w = v as u32;
        carry = v >> 32;
    }
    if carry > 0 {
        a.push(carry as u32);
    }
}

/// Divide in place by `d`, returning the remainder.
fn divide_small(a: &mut Vec<u32>, d: u32) -> u32 {
    let mut rem = 0u64;
    for w in a.iter_mut().rev() {
        let v = (rem << 32) | u64::from(*w);
        *w = (v / u64::from(d)) as u32;
        rem = v % u64::from(d);
    }
    trim(a);
    rem as u32
}

fn to_decimal(mut a: Vec<u32>) -> String {
    let mut groups: Vec<u32> = Vec::new();
    while !a.is_empty() {
        groups.push(divide_small(&mut a, 1_000_000_000));
    }
    let mut text = groups.pop().map_or("0".to_string(), |g| g.to_string());
    for g in groups.iter().rev() {
        text.push_str(&format!("{g:09}"));
    }
    text
}
