//! Linear arithmetic constraints (the paper's atomic formulas).
//!
//! A source-level constraint `r₁x₁ + … + rₘxₘ relop r` with
//! `relop ∈ {=, ≤, <, ≥, >, ≠}` (§3.1) is normalized on construction to
//! `expr ⊲ 0` with `⊲ ∈ {≤, <, =, ≠}` (`≥`/`>` are flipped by negating the
//! expression), with primitive integer coefficients and, for `=`/`≠`, a
//! positive leading coefficient. The normal form is the per-atom part of
//! the canonical forms of §3.1: structural equality of normalized atoms is
//! syntactic-duplicate detection.

use crate::linexpr::{Assignment, LinExpr};
use crate::var::Var;
use lyric_arith::{BigInt, Rational};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Euclidean gcd with `gcd(0, x) == x`, wide enough for products of two
/// `i64` magnitudes.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Relational operator of a source-level linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `=`
    Eq,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `!=`
    Neq,
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelOp::Eq => write!(f, "="),
            RelOp::Le => write!(f, "<="),
            RelOp::Lt => write!(f, "<"),
            RelOp::Ge => write!(f, ">="),
            RelOp::Gt => write!(f, ">"),
            RelOp::Neq => write!(f, "!="),
        }
    }
}

/// Operator of a *normalized* atom `expr ⊲ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NormOp {
    /// `expr <= 0`
    Le,
    /// `expr < 0`
    Lt,
    /// `expr = 0`
    Eq,
    /// `expr != 0`
    Neq,
}

impl fmt::Display for NormOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormOp::Le => write!(f, "<="),
            NormOp::Lt => write!(f, "<"),
            NormOp::Eq => write!(f, "="),
            NormOp::Neq => write!(f, "!="),
        }
    }
}

/// A normalized linear arithmetic constraint `expr ⊲ 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    expr: LinExpr,
    op: NormOp,
}

impl Atom {
    /// Build and normalize `lhs relop rhs`.
    pub fn new(lhs: LinExpr, relop: RelOp, rhs: LinExpr) -> Atom {
        let (expr, op) = match relop {
            RelOp::Le => (lhs - rhs, NormOp::Le),
            RelOp::Lt => (lhs - rhs, NormOp::Lt),
            RelOp::Ge => (rhs - lhs, NormOp::Le),
            RelOp::Gt => (rhs - lhs, NormOp::Lt),
            RelOp::Eq => (lhs - rhs, NormOp::Eq),
            RelOp::Neq => (lhs - rhs, NormOp::Neq),
        };
        Atom::normalized(expr, op)
    }

    /// Build `expr ⊲ 0` directly from a normalized operator.
    pub fn normalized(expr: LinExpr, op: NormOp) -> Atom {
        let mut atom = Atom { expr, op };
        atom.canonicalize_scale();
        atom
    }

    /// Convenience constructor for `lhs <= rhs`.
    pub fn le(lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> Atom {
        Atom::new(lhs.into(), RelOp::Le, rhs.into())
    }
    /// Convenience constructor for `lhs < rhs`.
    pub fn lt(lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> Atom {
        Atom::new(lhs.into(), RelOp::Lt, rhs.into())
    }
    /// Convenience constructor for `lhs >= rhs`.
    pub fn ge(lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> Atom {
        Atom::new(lhs.into(), RelOp::Ge, rhs.into())
    }
    /// Convenience constructor for `lhs > rhs`.
    pub fn gt(lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> Atom {
        Atom::new(lhs.into(), RelOp::Gt, rhs.into())
    }
    /// Convenience constructor for `lhs = rhs`.
    pub fn eq(lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> Atom {
        Atom::new(lhs.into(), RelOp::Eq, rhs.into())
    }
    /// Convenience constructor for `lhs != rhs`.
    pub fn neq(lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> Atom {
        Atom::new(lhs.into(), RelOp::Neq, rhs.into())
    }

    /// Scale to primitive integer coefficients; sign-normalize symmetric
    /// operators (`=`, `≠`) so the leading (smallest-variable) coefficient
    /// is positive.
    fn canonicalize_scale(&mut self) {
        if self.expr.is_constant() {
            // Constant atoms normalize their constant to a sign only, so
            // trivially-true/false atoms are syntactically recognizable.
            let c = self.expr.constant_term().clone();
            self.expr = LinExpr::constant(Rational::from_int(c.signum() as i64));
            return;
        }
        let factor = match self.small_scale_factor() {
            Some(f) => f,
            None => match self.big_scale_factor() {
                Some(f) => f,
                None => return,
            },
        };
        if factor != Rational::one() {
            self.expr = std::mem::take(&mut self.expr) * &factor;
        }
        if matches!(self.op, NormOp::Eq | NormOp::Neq) {
            let leading_negative = self
                .expr
                .terms()
                .next()
                .map(|(_, c)| c.is_negative())
                .unwrap_or(false);
            if leading_negative {
                self.expr = -std::mem::take(&mut self.expr);
            }
        }
    }

    /// The canonical scaling factor (lcm of coefficient denominators over
    /// gcd of the cleared numerators) computed entirely in fixed-width
    /// integers. `None` falls back to the `BigInt` path: the fast path is
    /// off, a coefficient is stored big, or an `i128` intermediate would
    /// overflow.
    fn small_scale_factor(&self) -> Option<Rational> {
        if !lyric_arith::fast_path_enabled() {
            return None;
        }
        let coeffs = || {
            self.expr
                .terms()
                .map(|(_, c)| c)
                .chain(std::iter::once(self.expr.constant_term()))
                .filter(|c| !c.is_zero())
        };
        let mut lcm: i128 = 1;
        for c in coeffs() {
            let (_, d) = c.small_parts()?;
            let d = d as i128;
            let g = gcd_u128(lcm as u128, d as u128) as i128;
            lcm = lcm.checked_mul(d / g)?;
        }
        let mut gcd: u128 = 0;
        for c in coeffs() {
            let (n, d) = c.small_parts()?;
            let scaled = (n as i128).checked_mul(lcm / d as i128)?;
            gcd = gcd_u128(gcd, scaled.unsigned_abs());
        }
        if gcd == 0 {
            return Some(Rational::one());
        }
        let gcd = i128::try_from(gcd).ok()?;
        Some(Rational::from_i128_pair(lcm, gcd))
    }

    /// The canonical scaling factor over `BigInt`, or `None` when every
    /// coefficient is zero (nothing to scale).
    fn big_scale_factor(&self) -> Option<Rational> {
        let mut all: Vec<&Rational> = self.expr.terms().map(|(_, c)| c).collect();
        all.push(self.expr.constant_term());
        all.retain(|c| !c.is_zero());
        // lcm of denominators.
        let mut lcm = BigInt::one();
        for c in &all {
            let d = c.denom();
            let g = lcm.gcd(&d);
            lcm = &lcm * &d.div_exact(&g);
        }
        let mut gcd = BigInt::zero();
        for c in &all {
            // numerator after clearing denominators
            let scaled = &c.numer() * &lcm.div_exact(&c.denom());
            gcd = gcd.gcd(&scaled);
        }
        if gcd.is_zero() {
            return None;
        }
        Some(Rational::new(lcm, gcd))
    }

    /// The normalized left-hand side (the atom is `expr() ⊲ 0`).
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The normalized operator.
    pub fn op(&self) -> NormOp {
        self.op
    }

    /// Variables occurring in the atom.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.expr.vars()
    }

    /// Does `v` occur (with a nonzero coefficient) in the atom?
    pub fn contains(&self, v: &Var) -> bool {
        self.expr.contains(v)
    }

    /// `Some(true)`/`Some(false)` when the atom has no variables and is
    /// decidable syntactically; `None` otherwise.
    pub fn trivial(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        let c = self.expr.constant_term();
        Some(match self.op {
            NormOp::Le => !c.is_positive(),
            NormOp::Lt => c.is_negative(),
            NormOp::Eq => c.is_zero(),
            NormOp::Neq => !c.is_zero(),
        })
    }

    /// The complement as a single atom: `¬(e ≤ 0) = −e < 0`,
    /// `¬(e < 0) = −e ≤ 0`, `¬(e = 0) = e ≠ 0`, `¬(e ≠ 0) = e = 0`.
    ///
    /// Closure under single-atom negation is what keeps conjunction
    /// entailment (`P |= Q`) a polynomial number of LP calls.
    pub fn negate(&self) -> Atom {
        match self.op {
            NormOp::Le => Atom::normalized(-&self.expr, NormOp::Lt),
            NormOp::Lt => Atom::normalized(-&self.expr, NormOp::Le),
            NormOp::Eq => Atom::normalized(self.expr.clone(), NormOp::Neq),
            NormOp::Neq => Atom::normalized(self.expr.clone(), NormOp::Eq),
        }
    }

    /// Evaluate at a point (unbound variables read as 0).
    pub fn eval(&self, point: &Assignment) -> bool {
        let v = self.expr.eval(point);
        match self.op {
            NormOp::Le => !v.is_positive(),
            NormOp::Lt => v.is_negative(),
            NormOp::Eq => v.is_zero(),
            NormOp::Neq => !v.is_zero(),
        }
    }

    /// Substitute a variable by an expression (re-normalizes).
    pub fn substitute(&self, v: &Var, by: &LinExpr) -> Atom {
        Atom::normalized(self.expr.substitute(v, by), self.op)
    }

    /// Rename variables (re-normalizes; renaming can merge terms).
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> Atom {
        Atom::normalized(self.expr.rename(map), self.op)
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Order by operator, then by rendered structure: compare term
        // lists lexicographically, straight off the two iterators.
        self.op
            .cmp(&other.op)
            .then_with(|| self.expr.terms().cmp(other.expr.terms()))
            .then_with(|| self.expr.constant_term().cmp(other.expr.constant_term()))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as `terms op -constant`; when every coefficient of an
        // inequality is negative, flip the whole atom so `-w <= 1` prints
        // as the paper's `w >= -1`. (Display only — the canonical form is
        // unchanged.)
        let c = self.expr.constant_term();
        if self.expr.is_constant() {
            return write!(f, "{} {} 0", c, self.op);
        }
        let all_negative = self.expr.terms().all(|(_, k)| k.is_negative());
        let flip = all_negative && matches!(self.op, NormOp::Le | NormOp::Lt);
        let (expr, op) = if flip {
            let flipped = match self.op {
                NormOp::Le => ">=",
                NormOp::Lt => ">",
                _ => unreachable!("only inequalities flip"),
            };
            (-&self.expr, flipped)
        } else {
            let name = match self.op {
                NormOp::Le => "<=",
                NormOp::Lt => "<",
                NormOp::Eq => "=",
                NormOp::Neq => "!=",
            };
            (self.expr.clone(), name)
        };
        let c = expr.constant_term().clone();
        let terms_only = &expr - &LinExpr::constant(c.clone());
        write!(f, "{} {} {}", terms_only, op, -c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::var(Var::new("x"))
    }
    fn y() -> LinExpr {
        LinExpr::var(Var::new("y"))
    }
    fn r(v: i64) -> Rational {
        Rational::from_int(v)
    }

    #[test]
    fn ge_gt_are_flipped() {
        let a = Atom::ge(x(), LinExpr::constant(r(3)));
        let b = Atom::le(LinExpr::constant(r(3)), x());
        assert_eq!(a, b);
        assert_eq!(a.op(), NormOp::Le);
        let c = Atom::gt(x(), y());
        assert_eq!(c.op(), NormOp::Lt);
    }

    #[test]
    fn scaling_is_canonical() {
        // 2x + 4y <= 6  ≡  x + 2y <= 3
        let a = Atom::le(x().scale(&r(2)) + y().scale(&r(4)), LinExpr::constant(r(6)));
        let b = Atom::le(x() + y().scale(&r(2)), LinExpr::constant(r(3)));
        assert_eq!(a, b);
        // Fractions are cleared: x/2 <= 1/3  ≡  3x <= 2.
        let c = Atom::le(
            x().scale(&Rational::from_pair(1, 2)),
            LinExpr::constant(Rational::from_pair(1, 3)),
        );
        let d = Atom::le(x().scale(&r(3)), LinExpr::constant(r(2)));
        assert_eq!(c, d);
    }

    #[test]
    fn equality_sign_normalized() {
        // -x + y = 0  ≡  x - y = 0
        let a = Atom::eq(-&x() + y(), LinExpr::zero());
        let b = Atom::eq(x() - y(), LinExpr::zero());
        assert_eq!(a, b);
        // ...but inequalities are NOT sign-flipped (x ≤ 0 ≠ −x ≤ 0).
        let c = Atom::le(x(), LinExpr::zero());
        let d = Atom::le(-&x(), LinExpr::zero());
        assert_ne!(c, d);
    }

    #[test]
    fn trivial_detection() {
        assert_eq!(
            Atom::le(LinExpr::constant(r(1)), LinExpr::constant(r(2))).trivial(),
            Some(true)
        );
        assert_eq!(
            Atom::lt(LinExpr::constant(r(2)), LinExpr::constant(r(2))).trivial(),
            Some(false)
        );
        assert_eq!(
            Atom::eq(LinExpr::constant(r(2)), LinExpr::constant(r(2))).trivial(),
            Some(true)
        );
        assert_eq!(
            Atom::neq(LinExpr::constant(r(2)), LinExpr::constant(r(2))).trivial(),
            Some(false)
        );
        assert_eq!(Atom::le(x(), LinExpr::zero()).trivial(), None);
    }

    #[test]
    fn negation_is_involutive_and_complementary() {
        let atoms = [
            Atom::le(x(), LinExpr::constant(r(1))),
            Atom::lt(x() + y(), LinExpr::constant(r(2))),
            Atom::eq(x(), y()),
            Atom::neq(x(), LinExpr::constant(r(0))),
        ];
        let mut p = Assignment::new();
        p.insert(Var::new("x"), r(1));
        p.insert(Var::new("y"), r(2));
        for a in &atoms {
            assert_eq!(a.negate().negate(), *a, "double negation of {a}");
            assert_ne!(a.eval(&p), a.negate().eval(&p), "complementarity of {a}");
        }
    }

    #[test]
    fn evaluation() {
        let a = Atom::le(x() + y(), LinExpr::constant(r(3)));
        let mut p = Assignment::new();
        p.insert(Var::new("x"), r(1));
        p.insert(Var::new("y"), r(2));
        assert!(a.eval(&p));
        p.insert(Var::new("y"), r(3));
        assert!(!a.eval(&p));
        let strict = Atom::lt(x() + y(), LinExpr::constant(r(3)));
        p.insert(Var::new("y"), r(2));
        assert!(!strict.eval(&p));
    }

    #[test]
    fn substitution_renormalizes() {
        // x + y <= 0 with x := y  →  2y <= 0  →  y <= 0
        let a = Atom::le(x() + y(), LinExpr::zero());
        let s = a.substitute(&Var::new("x"), &y());
        assert_eq!(s, Atom::le(y(), LinExpr::zero()));
    }

    #[test]
    fn display_moves_constant_to_rhs() {
        let a = Atom::le(x() + y().scale(&r(2)), LinExpr::constant(r(5)));
        assert_eq!(a.to_string(), "x + 2y <= 5");
        let e = Atom::eq(x(), LinExpr::constant(Rational::from_pair(-7, 2)));
        assert_eq!(e.to_string(), "2x = -7");
    }

    #[test]
    fn display_flips_all_negative_inequalities() {
        // The canonical form of `w >= -1` is `-w <= 1`; it must *display*
        // in the paper's orientation.
        let a = Atom::ge(x(), LinExpr::constant(r(-1)));
        assert_eq!(a.to_string(), "x >= -1");
        let b = Atom::gt(x() + y(), LinExpr::constant(r(2)));
        assert_eq!(b.to_string(), "x + y > 2");
        // Mixed-sign inequalities stay as normalized.
        let m = Atom::le(x() - y(), LinExpr::constant(r(3)));
        assert_eq!(m.to_string(), "x - y <= 3");
        // Equalities are sign-normalized already.
        let e = Atom::eq(-&x(), LinExpr::constant(r(5)));
        assert_eq!(e.to_string(), "x = -5");
    }
}
