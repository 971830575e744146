//! Exact floating-point sums: a small superaccumulator after Neal, "Fast
//! exact summation using small and large superaccumulators"
//! (arXiv:1505.05571).
//!
//! An [`ExactSum`] holds its terms' sum as one fixed-point integer in
//! units of 2^-1074 (the least subnormal) that spans the whole `f64`
//! range. The integer lives in signed 64-bit limbs of 32 bits each, so a
//! term adds into three limbs without a carry, and carries are propagated
//! only every [`CARRY_EVERY`] additions. Every addition is exact, and
//! [`ExactSum::round`] rounds once, to nearest with ties to even. The
//! result is the correctly rounded exact sum, so it does not depend on the
//! order of the terms; [`ExactSum::round_div`] likewise rounds an exact
//! mean once. [`ExactSum::add_scaled`] adds `count × x` exactly
//! in one step: that is what lets the what-if estimator fold support
//! cells instead of rows.
//!
//! Special values follow IEEE addition. Any NaN, or both infinities, give
//! NaN (the canonical quiet NaN, so the bits do not depend on which term
//! came first); otherwise an infinity wins. A finite sum beyond the `f64`
//! range rounds to ±inf. An empty sum is `+0.0`, and a sum whose terms
//! are all `-0.0` is `-0.0`.

/// Limbs of 32 bits. A term is added at bit position ≤ 2045 + 64 (the
/// largest exponent offset, plus 64 for the high half of a 117-bit
/// `count × mantissa` product) into three limbs from there, so the
/// highest limb it touches is 67; the rest absorb carries, and the last
/// one holds the sign.
const LIMBS: usize = 72;

/// Limb additions between carry propagations. One addition moves a limb
/// by less than 2^32 and leaves a normalized limb below 2^32, so 2^30 of
/// them keep every limb below 2^63.
const CARRY_EVERY: u32 = 1 << 30;

/// Exact running sum of `f64` terms, rounded once at the end.
#[derive(Clone)]
pub(crate) struct ExactSum {
    /// Limb `k` weighs 2^(32k − 1074); limbs may go negative, or past 32
    /// bits, until the next carry propagation.
    limbs: [i64; LIMBS],
    /// Limb additions since the last carry propagation.
    pending: u32,
    nan: bool,
    pos_inf: bool,
    neg_inf: bool,
    /// No term has been added.
    empty: bool,
    /// Every term so far is `-0.0`.
    neg_zeros_only: bool,
}

impl Default for ExactSum {
    fn default() -> ExactSum {
        ExactSum {
            limbs: [0; LIMBS],
            pending: 0,
            nan: false,
            pos_inf: false,
            neg_inf: false,
            empty: true,
            neg_zeros_only: true,
        }
    }
}

impl ExactSum {
    /// Add `x`.
    #[inline]
    pub(crate) fn add(&mut self, x: f64) {
        if self.note_special(x) {
            return;
        }
        let (neg, mantissa, pos) = split(x);
        if mantissa != 0 {
            self.add_at(pos, mantissa, neg);
        }
    }

    /// Add `count × x` exactly: the same sum as `count` calls of
    /// [`ExactSum::add`] with `x` (so `count == 0` adds nothing).
    #[inline]
    pub(crate) fn add_scaled(&mut self, count: u64, x: f64) {
        if count == 0 || self.note_special(x) {
            return;
        }
        let (neg, mantissa, pos) = split(x);
        let product = u128::from(count) * u128::from(mantissa);
        if product != 0 {
            self.add_at(pos, product as u64, neg);
            let high = (product >> 64) as u64;
            if high != 0 {
                self.add_at(pos + 64, high, neg);
            }
        }
    }

    /// The exact sum, rounded to nearest (ties to even).
    pub(crate) fn round(&self) -> f64 {
        self.round_div(1)
    }

    /// The exact sum divided by `d ≥ 1`, rounded once to nearest (ties to
    /// even): the correctly rounded quotient, as an exact mean needs. An
    /// infinity divides to itself and NaN stays NaN.
    pub(crate) fn round_div(&self, d: u32) -> f64 {
        debug_assert!(d > 0, "division by zero");
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let mut limbs = self.limbs;
        carry(&mut limbs);
        let negative = limbs[LIMBS - 1] < 0;
        if negative {
            for l in &mut limbs {
                *l = -*l;
            }
            carry(&mut limbs);
        }
        let sign = if negative { 1u64 << 63 } else { 0 };
        if limbs[LIMBS - 1] != 0 {
            // At least 2^(32·71 − 1074): far beyond the range, even after
            // a division by d < 2^32.
            return f64::from_bits(sign | f64::INFINITY.to_bits());
        }
        let Some(top) = limbs.iter().rposition(|&l| l != 0) else {
            let zero_sign = !self.empty && self.neg_zeros_only;
            return if zero_sign { -0.0 } else { 0.0 };
        };
        // Long division of the top four limbs by `d`: the quotient's top
        // limb is `top` or `top − 1`, so they hold its 53 bits and the
        // rounding bit. Below them only whether anything is left matters
        // (`sticky`); where they reach limb 0, `rem / d` is the exact
        // fraction below the unit.
        let d = u64::from(d);
        let low = top.saturating_sub(3);
        let mut rem = 0u64;
        let mut sticky = false;
        if d > 1 {
            for l in limbs[low..=top].iter_mut().rev() {
                let v = rem << 32 | *l as u64;
                *l = (v / d) as i64;
                rem = v % d;
            }
            sticky = rem != 0 || limbs[..low].iter().any(|&l| l != 0);
            limbs[..low].fill(0);
        }
        // Position of the highest set bit, in units of 2^-1074.
        let msb = limbs
            .iter()
            .rposition(|&l| l != 0)
            .map(|t| 32 * t + 63 - limbs[t].leading_zeros() as usize);
        let Some(msb) = msb.filter(|&m| m > 52) else {
            // Below 2^-1021: every such integer is exact, and its bit
            // pattern is the integer itself (subnormals and the first
            // normal binade share the unit 2^-1074). The quotient is
            // that small only when the division reached limb 0, so
            // `rem / d` is exact: round it at the unit.
            debug_assert_eq!(low, 0);
            let q = msb.map_or(0, |m| bits_at(&limbs, 0, m + 1));
            let up = rem > d - rem || (rem == d - rem && q & 1 == 1);
            return f64::from_bits(sign | (q + u64::from(up)));
        };
        let mut shift = msb - 52;
        let mut mantissa = bits_at(&limbs, shift, 53);
        let half = bits_at(&limbs, shift - 1, 1) == 1;
        let below_half = sticky
            || (0..(shift - 1) / 32).any(|k| limbs[k] != 0)
            || bits_at(&limbs, (shift - 1) / 32 * 32, (shift - 1) % 32) != 0;
        if half && (below_half || mantissa & 1 == 1) {
            mantissa += 1;
            if mantissa == 1 << 53 {
                mantissa >>= 1;
                shift += 1;
            }
        }
        // `mantissa · 2^(shift − 1074)` with bit 52 set: biased exponent
        // `shift + 1`.
        let exponent = shift as u64 + 1;
        if exponent >= 0x7ff {
            return f64::from_bits(sign | f64::INFINITY.to_bits());
        }
        f64::from_bits(sign | exponent << 52 | (mantissa & ((1 << 52) - 1)))
    }

    /// Record a NaN, an infinity or a zero; true when `x` adds nothing to
    /// the limbs (it is not finite).
    #[inline]
    fn note_special(&mut self, x: f64) -> bool {
        self.empty = false;
        if x.to_bits() != (-0.0f64).to_bits() {
            self.neg_zeros_only = false;
        }
        if x.is_finite() {
            return false;
        }
        if x.is_nan() {
            self.nan = true;
        } else if x > 0.0 {
            self.pos_inf = true;
        } else {
            self.neg_inf = true;
        }
        true
    }

    /// Add `±mantissa · 2^(pos − 1074)` into three limbs.
    #[inline]
    fn add_at(&mut self, pos: usize, mantissa: u64, neg: bool) {
        let (k, s) = (pos / 32, pos % 32);
        let v = u128::from(mantissa) << s;
        let chunks = [
            i64::from(v as u32),
            i64::from((v >> 32) as u32),
            (v >> 64) as i64,
        ];
        for (l, c) in self.limbs[k..k + 3].iter_mut().zip(chunks) {
            if neg {
                *l -= c;
            } else {
                *l += c;
            }
        }
        self.pending += 1;
        if self.pending == CARRY_EVERY {
            carry(&mut self.limbs);
            self.pending = 0;
        }
    }
}

/// `(sign, integer mantissa, position)` of a finite `x`, with `|x| =
/// mantissa · 2^(position − 1074)`.
#[inline]
fn split(x: f64) -> (bool, u64, usize) {
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as usize;
    let fraction = bits & ((1 << 52) - 1);
    let neg = bits >> 63 == 1;
    if exponent == 0 {
        (neg, fraction, 0)
    } else {
        (neg, fraction | 1 << 52, exponent - 1)
    }
}

/// Propagate carries: every limb but the last ends in `0..2^32`, and the
/// last holds the rest, signed.
fn carry(limbs: &mut [i64; LIMBS]) {
    let mut c = 0i64;
    for l in &mut limbs[..LIMBS - 1] {
        let v = *l + c;
        *l = v & 0xffff_ffff;
        c = v >> 32;
    }
    limbs[LIMBS - 1] += c;
}

/// The `len ≤ 64` bits of normalized `limbs` from bit `lo` up.
fn bits_at(limbs: &[i64; LIMBS], lo: usize, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let (k, s) = (lo / 32, lo % 32);
    let mut window = 0u128;
    for (j, &l) in limbs[k..(k + 3).min(LIMBS)].iter().enumerate() {
        window |= (l as u128) << (32 * j);
    }
    let v = (window >> s) as u64;
    if len == 64 {
        v
    } else {
        v & ((1 << len) - 1)
    }
}

#[cfg(test)]
pub(crate) mod oracle;
#[cfg(test)]
mod tests;
