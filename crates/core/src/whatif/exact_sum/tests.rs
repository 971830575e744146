//! [`ExactSum`] against the independent big-integer oracle, by
//! `to_bits`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::oracle;
use super::*;

fn exact(terms: &[f64]) -> f64 {
    let mut acc = ExactSum::default();
    for &x in terms {
        acc.add(x);
    }
    acc.round()
}

/// The accumulator and the oracle agree bit for bit on `terms`; returns
/// the sum.
fn check(terms: &[f64]) -> f64 {
    let got = exact(terms);
    let want = oracle::sum(terms);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{terms:?}: accumulator {got:e} vs oracle {want:e}"
    );
    got
}

/// `1 + 2^-k`, a value whose low mantissa bits the naive fold loses.
fn one_plus(k: i32) -> f64 {
    1.0 + 2f64.powi(-k)
}

#[test]
fn cancellation_is_exact() {
    assert_eq!(check(&[1e308, 1.0, -1e308]), 1.0);
    assert_eq!(check(&[1.0, 1e100, 1.0, -1e100]), 2.0);
    // A naive left fold gives 0 here.
    assert_eq!(
        check(&[2f64.powi(53), 1.0, 1.0, -(2f64.powi(53))]),
        2.0,
        "two sub-ulp terms survive once the large ones cancel"
    );
    // Ties to even, with and without a sticky bit below the half.
    assert_eq!(check(&[1.0, 2f64.powi(-53)]), 1.0);
    assert_eq!(check(&[1.0, 2f64.powi(-53), 2f64.powi(-100)]), one_plus(52));
    assert_eq!(check(&[one_plus(52), 2f64.powi(-53)]), one_plus(51));
}

#[test]
fn subnormals_are_exact() {
    let tiny = f64::from_bits(1);
    assert_eq!(check(&[tiny, tiny, tiny]).to_bits(), 3);
    assert_eq!(check(&[tiny, -tiny]).to_bits(), 0);
    // Across the subnormal/normal boundary, both ways.
    let largest_subnormal = f64::from_bits((1 << 52) - 1);
    assert_eq!(check(&[largest_subnormal, tiny]), f64::MIN_POSITIVE);
    assert_eq!(check(&[f64::MIN_POSITIVE, -tiny]), largest_subnormal);
    check(&[1e-310, 3e-320, -2.5e-315, 1e-300, -1e-300]);
    check(&[f64::MIN_POSITIVE * 1.5, -tiny, 7e-323]);
}

#[test]
fn overflow_rounds_to_infinity() {
    assert_eq!(check(&[f64::MAX, f64::MAX]), f64::INFINITY);
    assert_eq!(check(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
    // No intermediate overflow: the exact sum is back in range.
    assert_eq!(check(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    // Half an ulp of MAX (2^970) rounds up to the odd-mantissa tie: inf;
    // a quarter ulp rounds back to MAX.
    assert_eq!(check(&[f64::MAX, 2f64.powi(970)]), f64::INFINITY);
    assert_eq!(check(&[f64::MAX, 2f64.powi(969)]), f64::MAX);
    assert_eq!(check(&[-f64::MAX, -(2f64.powi(970))]), f64::NEG_INFINITY);
}

#[test]
fn nan_and_infinities_follow_ieee_addition() {
    assert!(check(&[1.0, f64::NAN, 2.0]).is_nan());
    assert!(check(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
    assert!(check(&[f64::NEG_INFINITY, f64::NAN]).is_nan());
    assert_eq!(check(&[f64::INFINITY, 1.0, -1e308]), f64::INFINITY);
    assert_eq!(check(&[5.0, f64::NEG_INFINITY]), f64::NEG_INFINITY);
    assert_eq!(
        check(&[f64::MAX, f64::MAX, f64::NEG_INFINITY]),
        f64::NEG_INFINITY
    );
    // One canonical NaN, whatever payload came in first.
    let payload = f64::from_bits(0x7ff8_0000_0000_beef);
    assert_eq!(exact(&[payload]).to_bits(), f64::NAN.to_bits());
}

#[test]
fn signed_zeros_and_the_empty_sum() {
    assert_eq!(check(&[]).to_bits(), 0.0f64.to_bits());
    assert_eq!(check(&[-0.0]).to_bits(), (-0.0f64).to_bits());
    assert_eq!(check(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
    assert_eq!(check(&[-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
    assert_eq!(check(&[1.0, -1.0]).to_bits(), 0.0f64.to_bits());
    assert_eq!(check(&[-0.0, 1.0, -1.0]).to_bits(), 0.0f64.to_bits());
    let mut acc = ExactSum::default();
    acc.add_scaled(3, -0.0);
    assert_eq!(acc.round().to_bits(), (-0.0f64).to_bits());
    acc.add_scaled(0, 1.0);
    assert_eq!(
        acc.round().to_bits(),
        (-0.0f64).to_bits(),
        "a zero count adds no term"
    );
}

#[test]
fn add_scaled_equals_repeated_add() {
    let mut rng = StdRng::seed_from_u64(0xacc);
    for _ in 0..300 {
        let x = random_value(&mut rng);
        let k = rng.gen_range(0..1500u64);
        let mut scaled = ExactSum::default();
        let mut repeated = ExactSum::default();
        scaled.add(0.25);
        repeated.add(0.25);
        scaled.add_scaled(k, x);
        for _ in 0..k {
            repeated.add(x);
        }
        assert_eq!(
            scaled.round().to_bits(),
            repeated.round().to_bits(),
            "{k} × {x:e}"
        );
        assert_eq!(
            scaled.round().to_bits(),
            oracle::scaled_sum(&[(1, 0.25), (k, x)]).to_bits()
        );
    }
    // Counts past 2^53 (the product's high half) against the oracle.
    for (k, x) in [
        (u64::MAX, f64::MAX),
        (u64::MAX, -1.0),
        ((1 << 60) + 3, 1.0 + f64::EPSILON),
        (12_345_678_901, -f64::from_bits(1)),
        (u64::MAX, f64::from_bits((1 << 52) - 1)),
    ] {
        let mut acc = ExactSum::default();
        acc.add(1.0);
        acc.add_scaled(k, x);
        assert_eq!(
            acc.round().to_bits(),
            oracle::scaled_sum(&[(1, 1.0), (k, x)]).to_bits(),
            "{k} × {x:e}"
        );
    }
}

#[test]
fn sums_are_invariant_under_shuffles() {
    let mut rng = StdRng::seed_from_u64(0x5u64 << 40);
    // Mantissas over a 2^±80 span, plus pairs near 2^100 that cancel
    // exactly and leave the small terms to decide.
    let mixed = |rng: &mut StdRng, scale: i32| {
        let unit = f64::from_bits(0x3ff0_0000_0000_0000 | rng.gen_range(0..(1u64 << 52)));
        let sign = if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 };
        sign * unit * 2f64.powi(rng.gen_range(-80..80) + scale)
    };
    let mut terms: Vec<f64> = (0..150).map(|_| mixed(&mut rng, 0)).collect();
    for _ in 0..25 {
        let big = mixed(&mut rng, 100);
        terms.push(big);
        terms.push(-big);
    }
    let want = oracle::sum(&terms);
    let mut naive_results = std::collections::HashSet::new();
    for _ in 0..500 {
        terms.shuffle(&mut rng);
        assert_eq!(exact(&terms).to_bits(), want.to_bits());
        naive_results.insert(terms.iter().sum::<f64>().to_bits());
    }
    assert!(
        naive_results.len() > 1,
        "the inputs must be order-sensitive for a plain fold"
    );
}

#[test]
fn carry_propagation_mid_sum_keeps_sums_exact() {
    let mut rng = StdRng::seed_from_u64(0xca);
    let terms: Vec<f64> = (0..400).map(|_| random_value(&mut rng)).collect();
    let mut acc = ExactSum::default();
    for (j, &x) in terms.iter().enumerate() {
        if j % 50 == 0 {
            // The next few additions reach the carry interval.
            acc.pending = CARRY_EVERY - 3;
        }
        acc.add(x);
        acc.add_scaled(3, x);
    }
    let scaled: Vec<(u64, f64)> = terms.iter().map(|&x| (4, x)).collect();
    assert_eq!(acc.round().to_bits(), oracle::scaled_sum(&scaled).to_bits());
}

#[test]
fn quotients_are_correctly_rounded() {
    let quotient = |terms: &[f64], d: u32| {
        let mut acc = ExactSum::default();
        for &x in terms {
            acc.add(x);
        }
        acc.round_div(d)
    };
    let check = |terms: &[f64], d: u32| {
        let got = quotient(terms, d);
        let want = oracle::quotient(terms, d);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{terms:?} / {d}: accumulator {got:e} vs oracle {want:e}"
        );
        got
    };
    // An exactly representable sum divides as IEEE division does.
    assert_eq!(check(&[1.0, 2.0, 4.0], 3), 7.0 / 3.0);
    assert_eq!(check(&[1e300, 1.0, -1e300], 7), 1.0 / 7.0);
    assert_eq!(check(&[f64::MAX, f64::MAX], 2), f64::MAX);
    // Below the least subnormal: ties go to even, the sign survives.
    let tiny = f64::from_bits(1);
    assert_eq!(check(&[tiny], 2).to_bits(), 0.0f64.to_bits());
    assert_eq!(check(&[-tiny], 3).to_bits(), (-0.0f64).to_bits());
    assert_eq!(check(&[tiny, tiny, tiny], 2), f64::from_bits(2));
    assert_eq!(check(&[tiny, tiny], 3), tiny);
    assert_eq!(check(&[-0.0, -0.0], 5).to_bits(), (-0.0f64).to_bits());
    // Just above a tie (1 + 2^-53), with the excess far below the
    // quotient's 53 bits: in the dividend's low limbs, and in the
    // division's remainder.
    let above_tie = 1.0 + f64::EPSILON;
    assert_eq!(check(&[2.0, f64::EPSILON, tiny], 2), above_tie);
    assert_eq!(
        check(&[3.0, 1.5 * f64::EPSILON, 2f64.powi(-114)], 3),
        above_tie
    );
    assert_eq!(
        check(&[2.0, f64::EPSILON], 2),
        1.0,
        "an exact tie goes to even"
    );
    assert!(check(&[f64::INFINITY, 1.0], 4).is_infinite());
    assert!(check(&[f64::NAN], 4).is_nan());

    let mut rng = StdRng::seed_from_u64(0xd1f);
    for _ in 0..400 {
        let n = rng.gen_range(1..12);
        let terms: Vec<f64> = (0..n).map(|_| random_value(&mut rng)).collect();
        let d = match rng.gen_range(0..3) {
            0 => rng.gen_range(1..16),
            1 => rng.gen_range(1..1 << 20),
            _ => rng.gen_range(1..=u32::MAX),
        };
        check(&terms, d);
        // Sums around one, where a mean of data usually lands.
        let near: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        check(&near, d);
    }
}

/// A value of random sign and magnitude over the whole `f64` range,
/// including subnormals.
fn random_value(rng: &mut StdRng) -> f64 {
    let bits = match rng.gen_range(0..4) {
        0 => rng.gen_range(1..(1u64 << 52)),
        _ => {
            let exponent: u64 = rng.gen_range(1..2046);
            exponent << 52 | rng.gen_range(0..(1u64 << 52))
        }
    };
    let x = f64::from_bits(bits);
    if rng.gen_range(0..2) == 0 {
        -x
    } else {
        x
    }
}
