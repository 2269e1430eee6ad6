//! Exact rational numbers with a two-tier representation.
//!
//! A [`Rational`] is either *small* — an inline `i64` numerator/denominator
//! pair, the representation that covers essentially all coefficients real
//! constraint workloads produce — or *big*, a boxed [`BigInt`] pair.
//! Arithmetic on two small values runs in `i128` intermediates (which
//! provably cannot overflow for canonical `i64/i64` operands, see the
//! bound notes on [`from_i128_reduced`]) and only *promotes* to the big
//! representation when the **reduced** result no longer fits in `i64`.
//! Both variants maintain the same invariants — denominator strictly
//! positive, `gcd(|num|, den) == 1`, zero stored as `0/1` — so equality,
//! ordering, and hashing are representation-independent: a value that
//! fits in the small form hashes and compares identically whether it is
//! stored small or big.
//!
//! The fast path can be disabled per thread (see [`crate::fastpath`]),
//! in which case every constructor and operation uses the `BigInt` path —
//! this is the measurement baseline and the oracle for the arithmetic
//! differential tests.

use crate::fastpath;
use crate::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// The arbitrary-precision representation, boxed so `Rational` stays a
/// small (24-byte) value regardless of magnitude.
#[derive(Debug, Clone)]
struct BigPair {
    num: BigInt,
    den: BigInt,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Canonical `num/den` with `den > 0`, `gcd(|num|, den) == 1`.
    Small(i64, i64),
    /// Same invariants over `BigInt`. May hold small-magnitude values
    /// when the fast path is off; never when it is on (constructors and
    /// operations demote eagerly).
    Big(Box<BigPair>),
}

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive, and
/// `gcd(|num|, den) == 1` (zero is represented as `0/1`). Every constructor
/// and operation re-establishes these, so two `Rational`s are equal iff
/// their canonical fractions are equal — which lets the constraint engine
/// use `Rational` directly as a map key and in canonical forms. Equality
/// and hashing are value-based and independent of whether the value is
/// currently stored inline or as a `BigInt` pair.
#[derive(Debug, Clone)]
pub struct Rational {
    repr: Repr,
}

/// `gcd` of two `u64`s by the Euclidean algorithm; `gcd(0, x) == x`.
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Canonicalize `n / d` with `i128` intermediates and store it small if
/// the reduced fraction fits in `i64`, promoting to `BigInt` otherwise.
/// A denominator of 1 skips the gcd, and the gcd and the divisions run
/// in `u64` when both magnitudes fit.
///
/// Callers must guarantee `d != 0` and that neither operand is
/// `i128::MIN` (so negation cannot overflow). Every small-path operation
/// satisfies this by construction: with canonical `i64/i64` operands,
/// each cross product is bounded by `2^63 * (2^63 - 1) < 2^126`, so sums
/// of two products stay below `2^127 - 2^64 < i128::MAX`.
fn from_i128_reduced(n: i128, d: i128) -> Rational {
    debug_assert!(d != 0, "Rational with zero denominator");
    debug_assert!(n != i128::MIN && d != i128::MIN);
    let (n, d) = if d < 0 { (-n, -d) } else { (n, d) };
    if n == 0 {
        return Rational::small_int(0);
    }
    if d == 1 {
        return from_i128_canonical(n, 1);
    }
    let (mag, den) = (n.unsigned_abs(), d as u128);
    let (mag, den) = match (u64::try_from(mag), u64::try_from(den)) {
        (Ok(m), Ok(dd)) => {
            let g = gcd_u64(m, dd);
            ((m / g) as u128, (dd / g) as u128)
        }
        _ => {
            let g = gcd_u128(mag, den);
            (mag / g, den / g)
        }
    };
    // Both quotients are at most the original magnitudes, below 2^127.
    let n = if n < 0 { -(mag as i128) } else { mag as i128 };
    from_i128_canonical(n, den as i128)
}

/// Store an already-canonical `i128` pair inline when it fits in `i64`,
/// promoting to `BigInt` otherwise.
fn from_i128_canonical(n: i128, d: i128) -> Rational {
    match (i64::try_from(n), i64::try_from(d)) {
        (Ok(sn), Ok(sd)) => Rational {
            repr: Repr::Small(sn, sd),
        },
        _ => {
            fastpath::count_promotion();
            Rational {
                repr: Repr::Big(Box::new(BigPair {
                    num: BigInt::from(n),
                    den: BigInt::from(d),
                })),
            }
        }
    }
}

/// Canonicalize a `BigInt` pair. With the fast path on, the result is
/// demoted to the inline form when it fits.
fn big_normalized(mut num: BigInt, mut den: BigInt) -> Rational {
    debug_assert!(!den.is_zero(), "Rational with zero denominator");
    if den.is_negative() {
        num = -num;
        den = -den;
    }
    if num.is_zero() {
        den = BigInt::one();
    } else {
        let g = num.gcd(&den);
        if g != BigInt::one() {
            num = num.div_exact(&g);
            den = den.div_exact(&g);
        }
    }
    finish_big(num, den)
}

/// Wrap an already-canonical `BigInt` pair, demoting to the inline form
/// when the fast path is on and the value fits.
fn finish_big(num: BigInt, den: BigInt) -> Rational {
    if fastpath::fast_path_enabled() {
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            return Rational {
                repr: Repr::Small(n, d),
            };
        }
    }
    Rational {
        repr: Repr::Big(Box::new(BigPair { num, den })),
    }
}

/// Borrow `r`'s components as `BigInt`s, materializing inline values into
/// `buf`. Lets the big-path binops work by reference without cloning the
/// `BigInt` pair of an already-big operand.
fn big_parts<'a>(
    r: &'a Rational,
    buf: &'a mut Option<(BigInt, BigInt)>,
) -> (&'a BigInt, &'a BigInt) {
    match &r.repr {
        Repr::Big(b) => (&b.num, &b.den),
        Repr::Small(n, d) => {
            let (bn, bd) = buf.insert((BigInt::from(*n), BigInt::from(*d)));
            (&*bn, &*bd)
        }
    }
}

impl Rational {
    /// 0.
    pub fn zero() -> Self {
        Rational::from_int(0)
    }

    /// 1.
    pub fn one() -> Self {
        Rational::from_int(1)
    }

    /// Construct `num / den`, normalizing. Panics if `den == 0`.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "Rational with zero denominator");
        big_normalized(num, den)
    }

    /// Construct from an integer pair, e.g. `Rational::from_pair(1, 2)`.
    ///
    /// Panics if `den == 0`. Sign normalization is exact for the whole
    /// `i64` range — `from_pair(i64::MIN, -1)` and friends negate in
    /// `i128` and promote if the result exceeds `i64`.
    pub fn from_pair(num: i64, den: i64) -> Self {
        assert!(den != 0, "Rational with zero denominator");
        if fastpath::fast_path_enabled() {
            from_i128_reduced(num as i128, den as i128)
        } else {
            big_normalized(BigInt::from(num), BigInt::from(den))
        }
    }

    /// Construct from an integer pair wider than `i64`. Panics if
    /// `den == 0`. Reduces in `u128` and stores inline when the reduced
    /// fraction fits.
    pub fn from_i128_pair(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational with zero denominator");
        if fastpath::fast_path_enabled() && num != i128::MIN && den != i128::MIN {
            from_i128_reduced(num, den)
        } else {
            big_normalized(BigInt::from(num), BigInt::from(den))
        }
    }

    /// Construct from an integer.
    pub fn from_int(v: i64) -> Self {
        if fastpath::fast_path_enabled() {
            Rational {
                repr: Repr::Small(v, 1),
            }
        } else {
            Rational {
                repr: Repr::Big(Box::new(BigPair {
                    num: BigInt::from(v),
                    den: BigInt::one(),
                })),
            }
        }
    }

    /// The integer `v` in the inline form, whatever the fast-path mode:
    /// for results of the small path only.
    #[inline]
    fn small_int(v: i64) -> Self {
        Rational {
            repr: Repr::Small(v, 1),
        }
    }

    /// The inline `(numerator, denominator)` pair, or `None` when the
    /// value is held in the `BigInt` representation.
    pub fn small_parts(&self) -> Option<(i64, i64)> {
        match self.repr {
            Repr::Small(n, d) => Some((n, d)),
            Repr::Big(_) => None,
        }
    }

    /// True when the value is stored in the inline representation.
    pub fn is_small(&self) -> bool {
        matches!(self.repr, Repr::Small(..))
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, _) => BigInt::from(*n),
            Repr::Big(b) => b.num.clone(),
        }
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> BigInt {
        match &self.repr {
            Repr::Small(_, d) => BigInt::from(*d),
            Repr::Big(b) => b.den.clone(),
        }
    }

    /// Is the value exactly zero?
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n == 0,
            Repr::Big(b) => b.num.is_zero(),
        }
    }

    /// Is the value strictly positive?
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// Is the value strictly negative?
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// True iff the denominator is 1.
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small(_, d) => *d == 1,
            Repr::Big(b) => b.den == BigInt::one(),
        }
    }

    /// Sign as -1, 0, or 1.
    #[inline]
    pub fn signum(&self) -> i32 {
        match &self.repr {
            Repr::Small(n, _) => n.signum() as i32,
            Repr::Big(b) => b.num.signum(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse; panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Small(n, d) if fastpath::fast_path_enabled() => {
                fastpath::count_small();
                // Already reduced; only the sign moves to the numerator.
                from_i128_reduced(*d as i128, *n as i128)
            }
            _ => {
                fastpath::count_big();
                let mut buf = None;
                let (n, d) = big_parts(self, &mut buf);
                big_normalized(d.clone(), n.clone())
            }
        }
    }

    /// Lossy conversion for reporting.
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(n, d) => *n as f64 / *d as f64,
            Repr::Big(b) => b.num.to_f64() / b.den.to_f64(),
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            // div_euclid floors for the (always positive) denominator.
            Repr::Small(n, d) => BigInt::from((*n as i128).div_euclid(*d as i128)),
            Repr::Big(b) => {
                let (q, r) = b.num.div_rem(&b.den);
                if r.is_negative() {
                    &q - &BigInt::one()
                } else {
                    q
                }
            }
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, d) => BigInt::from(-(-(*n as i128)).div_euclid(*d as i128)),
            Repr::Big(b) => {
                let (q, r) = b.num.div_rem(&b.den);
                if r.is_positive() {
                    &q + &BigInt::one()
                } else {
                    q
                }
            }
        }
    }

    /// Minimum of two rationals by value.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals by value.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        finish_big(v, BigInt::one())
    }
}

impl PartialEq for Rational {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Both representations are canonical, so equality is
        // componentwise even across the small/big divide.
        match (&self.repr, &other.repr) {
            (Repr::Small(an, ad), Repr::Small(bn, bd)) => an == bn && ad == bd,
            (Repr::Big(a), Repr::Big(b)) => a.num == b.num && a.den == b.den,
            (Repr::Small(n, d), Repr::Big(b)) | (Repr::Big(b), Repr::Small(n, d)) => {
                b.num.to_i64() == Some(*n) && b.den.to_i64() == Some(*d)
            }
        }
    }
}

impl Eq for Rational {}

/// Hash one canonical component so that the inline form produces exactly
/// the bytes `BigInt::hash` would: the sign as `i32`, then the magnitude
/// as a little-endian `u64` slice with no trailing zeros (empty for 0).
fn hash_component<H: Hasher>(v: i64, state: &mut H) {
    (v.signum() as i32).hash(state);
    if v == 0 {
        (&[] as &[u64]).hash(state);
    } else {
        [v.unsigned_abs()].as_slice().hash(state);
    }
}

impl Hash for Rational {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.repr {
            Repr::Small(n, d) => {
                hash_component(*n, state);
                hash_component(*d, state);
            }
            Repr::Big(b) => {
                b.num.hash(state);
                b.den.hash(state);
            }
        }
    }
}

/// A binary field operation, for the out-of-line `BigInt` path.
#[derive(Clone, Copy)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// The `BigInt` path of `a op b`: the operands are borrowed as `BigInt`
/// pairs and the result canonicalized. Kept out of line, so the inlined
/// small path stays small.
fn big_binop(a: &Rational, op: BinOp, b: &Rational) -> Rational {
    fastpath::count_big();
    let (mut sb, mut ob) = (None, None);
    let (an, ad) = big_parts(a, &mut sb);
    let (bn, bd) = big_parts(b, &mut ob);
    match op {
        BinOp::Add => big_normalized(an * bd + bn * ad, ad * bd),
        BinOp::Sub => big_normalized(an * bd - bn * ad, ad * bd),
        BinOp::Mul => big_normalized(an * bn, ad * bd),
        BinOp::Div => big_normalized(an * bd, ad * bn),
    }
}

/// The small-path operands of a binary operation: both values inline and
/// the fast path on. Counts the operation as one small op.
#[inline]
fn small_pair(a: &Rational, b: &Rational) -> Option<(i64, i64, i64, i64)> {
    match (&a.repr, &b.repr) {
        (Repr::Small(an, ad), Repr::Small(bn, bd)) if fastpath::fast_path_enabled() => {
            fastpath::count_small();
            Some((*an, *ad, *bn, *bd))
        }
        _ => None,
    }
}

impl Add for &Rational {
    type Output = Rational;
    #[inline]
    fn add(self, other: &Rational) -> Rational {
        let Some((an, ad, bn, bd)) = small_pair(self, other) else {
            return big_binop(self, BinOp::Add, other);
        };
        if ad == 1 && bd == 1 {
            if let Some(n) = an.checked_add(bn) {
                return Rational::small_int(n);
            }
        }
        from_i128_reduced(
            an as i128 * bd as i128 + bn as i128 * ad as i128,
            ad as i128 * bd as i128,
        )
    }
}

impl Sub for &Rational {
    type Output = Rational;
    #[inline]
    fn sub(self, other: &Rational) -> Rational {
        let Some((an, ad, bn, bd)) = small_pair(self, other) else {
            return big_binop(self, BinOp::Sub, other);
        };
        if ad == 1 && bd == 1 {
            if let Some(n) = an.checked_sub(bn) {
                return Rational::small_int(n);
            }
        }
        from_i128_reduced(
            an as i128 * bd as i128 - bn as i128 * ad as i128,
            ad as i128 * bd as i128,
        )
    }
}

impl Mul for &Rational {
    type Output = Rational;
    #[inline]
    fn mul(self, other: &Rational) -> Rational {
        let Some((an, ad, bn, bd)) = small_pair(self, other) else {
            return big_binop(self, BinOp::Mul, other);
        };
        if ad == 1 && bd == 1 {
            if let Some(n) = an.checked_mul(bn) {
                return Rational::small_int(n);
            }
        }
        from_i128_reduced(an as i128 * bn as i128, ad as i128 * bd as i128)
    }
}

impl Div for &Rational {
    type Output = Rational;
    #[inline]
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "Rational division by zero");
        let Some((an, ad, bn, bd)) = small_pair(self, other) else {
            return big_binop(self, BinOp::Div, other);
        };
        from_i128_reduced(an as i128 * bd as i128, ad as i128 * bn as i128)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, other: Rational) -> Rational {
                (&self).$method(&other)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, other: &Rational) -> Rational {
                (&self).$method(other)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, other: Rational) -> Rational {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&Rational> for Rational {
    #[inline]
    fn add_assign(&mut self, other: &Rational) {
        *self = &*self + other;
    }
}

impl SubAssign<&Rational> for Rational {
    #[inline]
    fn sub_assign(&mut self, other: &Rational) {
        *self = &*self - other;
    }
}

impl MulAssign<&Rational> for Rational {
    #[inline]
    fn mul_assign(&mut self, other: &Rational) {
        *self = &*self * other;
    }
}

impl Neg for &Rational {
    type Output = Rational;
    #[inline]
    fn neg(self) -> Rational {
        match &self.repr {
            // -i64::MIN overflows; that numerator promotes on negation.
            Repr::Small(n, d) => {
                if let Some(nn) = n.checked_neg() {
                    Rational {
                        repr: Repr::Small(nn, *d),
                    }
                } else {
                    fastpath::count_promotion();
                    Rational {
                        repr: Repr::Big(Box::new(BigPair {
                            num: BigInt::from(-(*n as i128)),
                            den: BigInt::from(*d),
                        })),
                    }
                }
            }
            Repr::Big(b) => finish_big(-&b.num, b.den.clone()),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -&self
    }
}

/// The `BigInt` path of [`Ord::cmp`], out of line like [`big_binop`].
fn big_cmp(a: &Rational, b: &Rational) -> Ordering {
    fastpath::count_big();
    let (mut sb, mut ob) = (None, None);
    let (an, ad) = big_parts(a, &mut sb);
    let (bn, bd) = big_parts(b, &mut ob);
    (an * bd).cmp(&(bn * ad))
}

impl Ord for Rational {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let Some((an, ad, bn, bd)) = small_pair(self, other) else {
            return big_cmp(self, other);
        };
        if ad == bd {
            return an.cmp(&bn);
        }
        // Denominators are positive, so cross-multiplication preserves
        // order; products fit in i128.
        (an as i128 * bd as i128).cmp(&(bn as i128 * ad as i128))
    }
}

impl PartialOrd for Rational {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(n, 1) => write!(f, "{n}"),
            Repr::Small(n, d) => write!(f, "{n}/{d}"),
            Repr::Big(b) => {
                if b.den == BigInt::one() {
                    write!(f, "{}", b.num)
                } else {
                    write!(f, "{}/{}", b.num, b.den)
                }
            }
        }
    }
}

/// Error when parsing a [`Rational`] literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError;

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal")
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Accepts integers (`-3`), fractions (`1/2`), and decimals (`2.75`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse().map_err(|_| ParseRationalError)?;
            let den: BigInt = d.trim().parse().map_err(|_| ParseRationalError)?;
            if den.is_zero() {
                return Err(ParseRationalError);
            }
            return Ok(Rational::new(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let (neg, int_digits) = match int_part.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, int_part.strip_prefix('+').unwrap_or(int_part)),
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRationalError);
            }
            let int_val: BigInt = if int_digits.is_empty() {
                BigInt::zero()
            } else {
                int_digits.parse().map_err(|_| ParseRationalError)?
            };
            let frac_val: BigInt = frac_part.parse().map_err(|_| ParseRationalError)?;
            let scale = BigInt::from(10i64).pow(frac_part.len() as u32);
            let num = &int_val * &scale + frac_val;
            let r = Rational::new(num, scale);
            return Ok(if neg { -r } else { r });
        }
        let num: BigInt = s.parse().map_err(|_| ParseRationalError)?;
        Ok(Rational::from(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_pair(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::zero());
        assert!(r(0, -5).denom() == BigInt::one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    #[should_panic(expected = "Rational with zero denominator")]
    fn zero_denominator_panic_message_is_pinned() {
        // The message is load-bearing: callers' `should_panic(expected)`
        // filters and user-facing REPL errors quote it.
        let _ = r(7, 0);
    }

    #[test]
    fn i64_min_sign_normalization_is_exact() {
        // Negating i64::MIN overflows i64; from_pair must route the sign
        // flip through i128 and promote. The resulting value is exact:
        // MIN/-1 = 2^63 (> i64::MAX) and MIN/MIN = 1.
        let v = Rational::from_pair(i64::MIN, -1);
        assert_eq!(v, Rational::from(BigInt::from(i64::MIN)).abs());
        assert!(v.is_positive());
        assert_eq!(v.to_string(), "9223372036854775808");
        assert_eq!(Rational::from_pair(i64::MIN, i64::MIN), Rational::one());
        assert_eq!(
            Rational::from_pair(i64::MIN, 2),
            Rational::from(BigInt::from(i64::MIN / 2))
        );
        // And negation of an i64::MIN numerator promotes rather than
        // wrapping.
        let m = Rational::from_pair(i64::MIN, 1);
        assert_eq!((-&m).to_string(), "9223372036854775808");
        assert_eq!(-(-&m), m);
    }

    #[test]
    fn field_operations() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(1, 2).recip(), r(2, 1));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::one());
        assert!(r(-5, 2) < Rational::zero());
        assert_eq!(r(3, 4).max(r(2, 3)), r(3, 4));
        assert_eq!(r(3, 4).min(r(2, 3)), r(2, 3));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(6, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3i64));
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3".parse::<Rational>().unwrap(), r(3, 1));
        assert_eq!("-3".parse::<Rational>().unwrap(), r(-3, 1));
        assert_eq!("1/2".parse::<Rational>().unwrap(), r(1, 2));
        assert_eq!("-6/4".parse::<Rational>().unwrap(), r(-3, 2));
        assert_eq!("2.75".parse::<Rational>().unwrap(), r(11, 4));
        assert_eq!("-0.5".parse::<Rational>().unwrap(), r(-1, 2));
        assert_eq!(".5".parse::<Rational>().unwrap(), r(1, 2));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("abc".parse::<Rational>().is_err());
        assert!("1.".parse::<Rational>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn to_f64() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f64(), -0.75);
    }

    #[test]
    fn signum_and_predicates() {
        assert_eq!(r(-3, 7).signum(), -1);
        assert_eq!(Rational::zero().signum(), 0);
        assert!(r(5, 1).is_integer());
        assert!(!r(5, 2).is_integer());
        assert!(r(1, 9).is_positive());
        assert!(r(-1, 9).is_negative());
    }

    #[test]
    fn promotion_is_transparent_and_exact() {
        let was = crate::set_fast_path(true);
        // (2^62 / 3) * (3 / 1) stays small; (2^62) * (2^62) must promote.
        let big = r(1 << 62, 1);
        let sq = &big * &big;
        assert!(!sq.is_small(), "2^124 cannot fit inline");
        assert_eq!(&sq / &big, big, "round-trips through the big form");
        assert!((&sq / &big).is_small(), "demotes when it fits again");
        crate::set_fast_path(was);
    }

    #[test]
    fn small_and_big_forms_are_interchangeable() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let was = crate::set_fast_path(true);
        let small = r(-22, 7);
        // Force the big representation of the same value.
        crate::set_fast_path(false);
        let big = Rational::from_pair(-22, 7);
        crate::set_fast_path(was);
        assert!(small.is_small());
        assert!(!big.is_small());
        assert_eq!(small, big);
        assert_eq!(small.cmp(&big), Ordering::Equal);
        let h = |v: &Rational| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&small), h(&big), "hash must be representation-free");
        crate::set_fast_path(was);
    }

    #[test]
    fn fast_path_off_never_builds_small_values() {
        let was = crate::set_fast_path(false);
        assert!(!Rational::zero().is_small());
        assert!(!Rational::one().is_small());
        assert!(!(r(1, 2) + r(1, 3)).is_small());
        assert!(!"2.75".parse::<Rational>().unwrap().is_small());
        crate::set_fast_path(was);
    }

    #[test]
    fn gcd_u64_basics() {
        assert_eq!(gcd_u64(0, 9), 9);
        assert_eq!(gcd_u64(9, 0), 9);
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(u64::MAX, 1), 1);
    }
}
