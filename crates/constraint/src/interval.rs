//! Interval (box) abstract interpretation over linear atoms.
//!
//! The abstract domain is the lattice of axis-aligned boxes: one
//! [`Interval`] per variable, each endpoint a [`Rational`] that may be
//! open (strict) or absent (±∞). [`IntervalBox::of_conjunction`] runs the
//! per-atom transfer functions of §3.1's normalized atoms `expr ⊲ 0` to a
//! truncated fixpoint, yielding a box that *over-approximates* the
//! conjunction's point set. Soundness is the whole contract:
//!
//! > every point satisfying the conjunction lies inside the inferred box,
//!
//! so an **empty** box proves the conjunction unsatisfiable without ever
//! touching the simplex solver. In general the converse does not hold — a
//! nonempty box says nothing (the box of `x ≤ y ∧ y ≤ x − 1` is ⊤) — which
//! is exactly the asymmetry cheap geometric filters exploit before exact
//! elimination. It does hold when every atom mentions at most one
//! variable, where `Conjunction::satisfiable` lets a nonempty box answer
//! without the LP.
//!
//! # Transfer functions
//!
//! For an inequality `Σ cᵢxᵢ + k ⊲ 0` (`⊲ ∈ {≤, <}`) and a chosen
//! variable `xᵢ`, rewrite as `cᵢxᵢ ⊲ −k − S` with `S = Σ_{j≠i} cⱼxⱼ`.
//! Interval arithmetic under the current box yields a lower bound on `S`
//! (each `cⱼxⱼ` contributes `cⱼ·lo(xⱼ)` when `cⱼ > 0`, `cⱼ·hi(xⱼ)` when
//! `cⱼ < 0`; any unbounded contribution aborts the refinement of `xᵢ`),
//! so `cᵢxᵢ ⊲ −k − inf(S)`; dividing by `cᵢ` refines `hi(xᵢ)` when
//! `cᵢ > 0` and `lo(xᵢ)` when `cᵢ < 0` (the inequality flips). The bound
//! is strict when the source operator is `<` or any contributing endpoint
//! was strict. Equalities apply both directions (`e ≤ 0` and `−e ≤ 0`);
//! disequations refine nothing but detect the one box-decidable case —
//! the whole expression confined to the singleton `{0}`.
//!
//! # Termination (widening by truncation)
//!
//! Refinement rounds are Gauss–Seidel sweeps over the atom list. Chains
//! like `x ≤ y/2 ∧ y ≤ x/2 ∧ x ≤ 100` descend forever, so iteration is
//! cut at [`MAX_ROUNDS`] sweeps. Stopping early is sound: every
//! intermediate box of a descending chain already over-approximates the
//! limit, so the truncated box over-approximates the exact one.

use crate::atom::{Atom, NormOp};
use crate::conjunction::Conjunction;
use crate::linexpr::LinExpr;
use crate::var::Var;
use lyric_arith::Rational;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

/// Maximum Gauss–Seidel refinement sweeps over the atom list before the
/// fixpoint iteration is truncated (see the module docs: truncation is
/// the widening, and any prefix of a descending chain is sound).
pub const MAX_ROUNDS: usize = 8;

/// One endpoint of an interval: the bound value and whether it is strict
/// (excluded). `None` at the [`Interval`] level means the side is
/// unbounded (±∞).
type Endpoint = Option<(Rational, bool)>;

/// A possibly-open, possibly-unbounded interval over the rationals.
///
/// The default value is ⊤ (`(-∞, +∞)`). An interval is *empty* when its
/// bounds cross, or touch with either side open.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Interval {
    lo: Endpoint,
    hi: Endpoint,
}

impl Interval {
    /// The unbounded interval `(-∞, +∞)`.
    pub fn top() -> Interval {
        Interval::default()
    }

    /// An interval with explicit endpoints: `Some((bound, strict))` per
    /// side, `None` for unbounded. The constructor the store index uses to
    /// turn a scalar comparison (`X.a < 5`) into a probe window.
    pub fn of_bounds(lo: Option<(Rational, bool)>, hi: Option<(Rational, bool)>) -> Interval {
        Interval { lo, hi }
    }

    /// The lower endpoint: `Some((bound, strict))`, or `None` for −∞.
    pub fn lo(&self) -> Option<(&Rational, bool)> {
        self.lo.as_ref().map(|(b, s)| (b, *s))
    }

    /// The upper endpoint: `Some((bound, strict))`, or `None` for +∞.
    pub fn hi(&self) -> Option<(&Rational, bool)> {
        self.hi.as_ref().map(|(b, s)| (b, *s))
    }

    /// Is the interval unbounded on both sides?
    pub fn is_top(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Does the interval contain no rational? True when the bounds cross,
    /// or coincide with either endpoint open.
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some((l, ls)), Some((h, hs))) => l > h || (l == h && (*ls || *hs)),
            _ => false,
        }
    }

    /// Is the interval the single point `{v}`?
    pub fn singleton(&self) -> Option<&Rational> {
        match (&self.lo, &self.hi) {
            (Some((l, false)), Some((h, false))) if l == h => Some(l),
            _ => None,
        }
    }

    /// Tighten the lower endpoint to at least `(bound, strict)`; returns
    /// whether the interval changed. A strict bound at the same value
    /// tightens a closed one.
    fn refine_lo(&mut self, bound: Rational, strict: bool) -> bool {
        let better = match &self.lo {
            None => true,
            Some((cur, cur_strict)) => bound > *cur || (bound == *cur && strict && !cur_strict),
        };
        if better {
            self.lo = Some((bound, strict));
        }
        better
    }

    /// Tighten the upper endpoint to at most `(bound, strict)`; returns
    /// whether the interval changed.
    fn refine_hi(&mut self, bound: Rational, strict: bool) -> bool {
        let better = match &self.hi {
            None => true,
            Some((cur, cur_strict)) => bound < *cur || (bound == *cur && strict && !cur_strict),
        };
        if better {
            self.hi = Some((bound, strict));
        }
        better
    }

    /// The smallest interval containing both operands (the lattice join):
    /// used to hull per-disjunct boxes into one object-level box.
    pub fn hull(&self, other: &Interval) -> Interval {
        let lo = match (&self.lo, &other.lo) {
            (Some((a, astrict)), Some((b, bstrict))) => {
                if a < b || (a == b && *astrict && !bstrict) {
                    Some((a.clone(), *astrict))
                } else {
                    Some((b.clone(), *bstrict))
                }
            }
            _ => None,
        };
        let hi = match (&self.hi, &other.hi) {
            (Some((a, astrict)), Some((b, bstrict))) => {
                if a > b || (a == b && *astrict && !bstrict) {
                    Some((a.clone(), *astrict))
                } else {
                    Some((b.clone(), *bstrict))
                }
            }
            _ => None,
        };
        Interval { lo, hi }
    }

    /// The intersection (lattice meet) of the two intervals. May be
    /// empty; callers test with [`is_empty`](Self::is_empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        let mut out = self.clone();
        if let Some((b, s)) = &other.lo {
            out.refine_lo(b.clone(), *s);
        }
        if let Some((b, s)) = &other.hi {
            out.refine_hi(b.clone(), *s);
        }
        out
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "empty");
        }
        match &self.lo {
            None => write!(f, "(-inf, ")?,
            Some((b, strict)) => write!(f, "{}{}, ", if *strict { "(" } else { "[" }, b)?,
        }
        match &self.hi {
            None => write!(f, "+inf)"),
            Some((b, strict)) => write!(f, "{}{}", b, if *strict { ")" } else { "]" }),
        }
    }
}

/// Outcome of one transfer-function application.
enum Transfer {
    /// The atom proved the box empty.
    Empty,
    /// At least one endpoint tightened.
    Changed,
    /// Nothing refinable.
    Unchanged,
}

/// An axis-aligned box: one [`Interval`] per variable, absent variables
/// implicitly ⊤. The box over-approximates a conjunction's point set; an
/// empty box is a proof of unsatisfiability (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalBox {
    vars: BTreeMap<Var, Interval>,
    empty: bool,
}

impl IntervalBox {
    /// The unconstrained box `ℝ^∞` (every variable ⊤).
    pub fn top() -> IntervalBox {
        IntervalBox::default()
    }

    /// The canonical empty box.
    pub fn empty() -> IntervalBox {
        IntervalBox {
            vars: BTreeMap::new(),
            empty: true,
        }
    }

    /// Is the box empty — i.e. does it prove the source conjunction
    /// unsatisfiable?
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// The interval for `v` (⊤ when the box does not constrain it, or the
    /// box is empty — an empty box has no per-variable reading).
    pub fn interval(&self, v: &Var) -> Interval {
        self.vars.get(v).cloned().unwrap_or_default()
    }

    /// Iterate over the explicitly constrained `(variable, interval)`
    /// pairs, in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Interval)> {
        self.vars.iter()
    }

    /// The truncated-fixpoint box of a conjunction (see the module docs).
    ///
    /// # Example
    ///
    /// ```
    /// use lyric_constraint::{Atom, Conjunction, IntervalBox, LinExpr, Var};
    ///
    /// let x = || LinExpr::var(Var::new("x"));
    /// let y = || LinExpr::var(Var::new("y"));
    /// // x ≥ 2 ∧ y ≥ 3 ∧ x + y ≤ 4: no single atom is false, but interval
    /// // propagation proves the conjunction empty without any LP.
    /// let c = Conjunction::of([
    ///     Atom::ge(x(), LinExpr::from(2)),
    ///     Atom::ge(y(), LinExpr::from(3)),
    ///     Atom::le(x() + y(), LinExpr::from(4)),
    /// ]);
    /// let bx = IntervalBox::of_conjunction(&c);
    /// assert!(bx.is_empty());
    /// assert!(!c.satisfiable()); // the exact oracle agrees
    /// ```
    pub fn of_conjunction(c: &Conjunction) -> IntervalBox {
        IntervalBox::of_atoms(c.atoms())
    }

    /// The truncated-fixpoint box of an atom list understood as a
    /// conjunction, owned or borrowed. Runs at most [`MAX_ROUNDS`]
    /// Gauss–Seidel sweeps, stopping early when a sweep changes nothing or
    /// emptiness is proved.
    pub fn of_atoms<A: Borrow<Atom>>(atoms: &[A]) -> IntervalBox {
        let mut bx = IntervalBox::top();
        for _ in 0..MAX_ROUNDS {
            let mut changed = false;
            for a in atoms {
                match bx.transfer(a.borrow()) {
                    Transfer::Empty => return IntervalBox::empty(),
                    Transfer::Changed => changed = true,
                    Transfer::Unchanged => {}
                }
            }
            if !changed {
                break;
            }
        }
        bx
    }

    /// Apply one atom's transfer function to the box in place.
    fn transfer(&mut self, a: &Atom) -> Transfer {
        match a.trivial() {
            Some(false) => return Transfer::Empty,
            Some(true) => return Transfer::Unchanged,
            None => {}
        }
        match a.op() {
            NormOp::Le => self.transfer_le(a.expr(), false, false),
            NormOp::Lt => self.transfer_le(a.expr(), true, false),
            NormOp::Eq => {
                let fwd = self.transfer_le(a.expr(), false, false);
                if matches!(fwd, Transfer::Empty) {
                    return Transfer::Empty;
                }
                let bwd = self.transfer_le(a.expr(), false, true);
                match (fwd, bwd) {
                    (_, Transfer::Empty) => Transfer::Empty,
                    (Transfer::Changed, _) | (_, Transfer::Changed) => Transfer::Changed,
                    _ => Transfer::Unchanged,
                }
            }
            NormOp::Neq => {
                // The only box-decidable disequation: the expression is
                // confined to exactly {0}, so `e ≠ 0` holds nowhere.
                if self.expr_interval(a.expr()).singleton() == Some(&Rational::zero()) {
                    Transfer::Empty
                } else {
                    Transfer::Unchanged
                }
            }
        }
    }

    /// Transfer for `expr ≤ 0`, or for `−expr ≤ 0` when `negated` (the
    /// backward half of an equality); `strict` selects `<`. Refines every
    /// variable of the expression against the infimum of the others,
    /// reading the box's endpoints in place: the only values it builds
    /// are the sums and bounds themselves.
    fn transfer_le(&mut self, expr: &LinExpr, strict: bool, negated: bool) -> Transfer {
        let mut changed = false;
        for (v, c) in expr.terms() {
            // acc = Σ_{w≠v} c_w·w + k at the endpoints that minimize it,
            // or maximize it when `negated`: the infimum of the rest of
            // `expr`, or minus the infimum of the rest of `−expr`.
            let mut acc = expr.constant_term().clone();
            let mut acc_strict = false;
            let mut bounded = true;
            for (w, cw) in expr.terms() {
                if w == v {
                    continue;
                }
                let end = self.vars.get(w).and_then(|iv| {
                    if cw.is_positive() != negated {
                        iv.lo.as_ref()
                    } else {
                        iv.hi.as_ref()
                    }
                });
                match end {
                    None => {
                        bounded = false;
                        break;
                    }
                    Some((b, s)) => {
                        acc += &(cw * b);
                        acc_strict |= *s;
                    }
                }
            }
            if !bounded {
                continue;
            }
            // c·v ⊲ −acc, so v ⊲ −acc/c (flipping on negative c). Negating
            // the expression flips the signs of both c and acc: the bound
            // −acc/c is the same, and the side it refines flips.
            let bound = &-acc / c;
            let s = strict || acc_strict;
            let iv = self.vars.entry(v.clone()).or_default();
            let tightened = if c.is_positive() != negated {
                iv.refine_hi(bound, s)
            } else {
                iv.refine_lo(bound, s)
            };
            if tightened {
                if iv.is_empty() {
                    return Transfer::Empty;
                }
                changed = true;
            }
        }
        if changed {
            Transfer::Changed
        } else {
            Transfer::Unchanged
        }
    }

    /// The interval of a linear expression's value over the box (exact
    /// interval arithmetic; unbounded contributions make the side ±∞).
    pub fn expr_interval(&self, expr: &LinExpr) -> Interval {
        let mut lo = Some((expr.constant_term().clone(), false));
        let mut hi = Some((expr.constant_term().clone(), false));
        for (v, c) in expr.terms() {
            let iv = self.vars.get(v).cloned().unwrap_or_default();
            let (contrib_lo, contrib_hi) = if c.is_positive() {
                (iv.lo, iv.hi)
            } else {
                (iv.hi, iv.lo)
            };
            lo = match (lo, contrib_lo) {
                (Some((acc, astrict)), Some((b, s))) => Some((&acc + &(c * &b), astrict || s)),
                _ => None,
            };
            hi = match (hi, contrib_hi) {
                (Some((acc, astrict)), Some((b, s))) => Some((&acc + &(c * &b), astrict || s)),
                _ => None,
            };
        }
        Interval { lo, hi }
    }

    /// Does the concrete `point` lie inside the box? (Unbound variables of
    /// the point read as 0, matching [`Conjunction::eval`].) The soundness
    /// differential checks `c.eval(p) ⇒ c.box().contains(p)`.
    pub fn contains(&self, point: &crate::linexpr::Assignment) -> bool {
        if self.empty {
            return false;
        }
        self.vars.iter().all(|(v, iv)| {
            let zero = Rational::zero();
            let x = point.get(v).unwrap_or(&zero);
            let above = match &iv.lo {
                None => true,
                Some((b, strict)) => x > b || (!strict && x == b),
            };
            let below = match &iv.hi {
                None => true,
                Some((b, strict)) => x < b || (!strict && x == b),
            };
            above && below
        })
    }

    /// The smallest box containing both operands (per-variable
    /// [`Interval::hull`]; a variable unconstrained in either side is
    /// unconstrained in the hull). The empty box is the identity.
    pub fn hull(&self, other: &IntervalBox) -> IntervalBox {
        if self.empty {
            return other.clone();
        }
        if other.empty {
            return self.clone();
        }
        let mut vars = BTreeMap::new();
        for (v, iv) in &self.vars {
            if let Some(o) = other.vars.get(v) {
                let h = iv.hull(o);
                if !h.is_top() {
                    vars.insert(v.clone(), h);
                }
            }
        }
        IntervalBox { vars, empty: false }
    }

    /// The per-variable intersection (lattice meet) of the two boxes —
    /// the query-box ∩ object-box disjointness test is
    /// `a.intersect(&b).is_empty()`.
    pub fn intersect(&self, other: &IntervalBox) -> IntervalBox {
        if self.empty || other.empty {
            return IntervalBox::empty();
        }
        let mut out = self.clone();
        for (v, iv) in &other.vars {
            let merged = out.vars.entry(v.clone()).or_default().intersect(iv);
            if merged.is_empty() {
                return IntervalBox::empty();
            }
            out.vars.insert(v.clone(), merged);
        }
        out
    }

    /// Keep only the intervals of `keep` (a sound projection: dropping
    /// constraints on other axes only widens the box).
    pub fn restrict(&self, keep: &[Var]) -> IntervalBox {
        if self.empty {
            return IntervalBox::empty();
        }
        IntervalBox {
            vars: self
                .vars
                .iter()
                .filter(|(v, _)| keep.contains(v))
                .map(|(v, iv)| (v.clone(), iv.clone()))
                .collect(),
            empty: false,
        }
    }
}

impl fmt::Display for IntervalBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            return write!(f, "empty");
        }
        if self.vars.is_empty() {
            return write!(f, "top");
        }
        for (i, (v, iv)) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} in {iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn x() -> LinExpr {
        LinExpr::var(v("x"))
    }
    fn y() -> LinExpr {
        LinExpr::var(v("y"))
    }
    fn c(n: i64) -> LinExpr {
        LinExpr::constant(Rational::from_int(n))
    }
    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn single_variable_bounds() {
        let cj = Conjunction::of([Atom::ge(x(), c(0)), Atom::lt(x(), c(5))]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert!(!bx.is_empty());
        let iv = bx.interval(&v("x"));
        assert_eq!(iv.lo(), Some((&r(0), false)));
        assert_eq!(iv.hi(), Some((&r(5), true)));
        assert_eq!(iv.to_string(), "[0, 5)");
    }

    #[test]
    fn crossed_bounds_are_empty() {
        let cj = Conjunction::of([Atom::ge(x(), c(3)), Atom::le(x(), c(1))]);
        assert!(IntervalBox::of_conjunction(&cj).is_empty());
        // Touching bounds with a strict side are empty too.
        let cj = Conjunction::of([Atom::ge(x(), c(1)), Atom::lt(x(), c(1))]);
        assert!(IntervalBox::of_conjunction(&cj).is_empty());
        // Touching closed bounds are the singleton — not empty.
        let cj = Conjunction::of([Atom::ge(x(), c(1)), Atom::le(x(), c(1))]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert!(!bx.is_empty());
        assert_eq!(bx.interval(&v("x")).singleton(), Some(&r(1)));
    }

    #[test]
    fn propagation_through_linear_atoms() {
        // x ≥ 2 ∧ y ≥ 3 ∧ x + y ≤ 4 is empty, but no single atom is.
        let cj = Conjunction::of([
            Atom::ge(x(), c(2)),
            Atom::ge(y(), c(3)),
            Atom::le(x() + y(), c(4)),
        ]);
        assert!(IntervalBox::of_conjunction(&cj).is_empty());
        // Relaxing the sum keeps it nonempty and tightens both tops.
        let cj = Conjunction::of([
            Atom::ge(x(), c(2)),
            Atom::ge(y(), c(3)),
            Atom::le(x() + y(), c(10)),
        ]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert!(!bx.is_empty());
        assert_eq!(bx.interval(&v("x")).hi(), Some((&r(7), false)));
        assert_eq!(bx.interval(&v("y")).hi(), Some((&r(8), false)));
    }

    #[test]
    fn negative_coefficients_flip_the_refined_side() {
        // x − y ≤ 0 with y ≤ 5 gives x ≤ 5; with x ≥ 2 gives y ≥ 2.
        let cj = Conjunction::of([
            Atom::le(x() - y(), c(0)),
            Atom::le(y(), c(5)),
            Atom::ge(x(), c(2)),
        ]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert_eq!(bx.interval(&v("x")).hi(), Some((&r(5), false)));
        assert_eq!(bx.interval(&v("y")).lo(), Some((&r(2), false)));
    }

    #[test]
    fn equalities_refine_both_directions() {
        let cj = Conjunction::of([Atom::eq(x(), c(7))]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert_eq!(bx.interval(&v("x")).singleton(), Some(&r(7)));
        // x = y with x pinned pins y.
        let cj = Conjunction::of([Atom::eq(x(), y()), Atom::eq(x(), c(3))]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert_eq!(bx.interval(&v("y")).singleton(), Some(&r(3)));
        // Contradicting equalities are empty.
        let cj = Conjunction::of([Atom::eq(x(), c(3)), Atom::eq(x(), c(4))]);
        assert!(IntervalBox::of_conjunction(&cj).is_empty());
    }

    #[test]
    fn disequation_of_a_pinned_expression_is_empty() {
        let cj = Conjunction::of([Atom::eq(x(), c(2)), Atom::neq(x(), c(2))]);
        assert!(IntervalBox::of_conjunction(&cj).is_empty());
        // A disequation with slack refines nothing.
        let cj = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::neq(x(), c(0)),
        ]);
        assert!(!IntervalBox::of_conjunction(&cj).is_empty());
    }

    #[test]
    fn fractional_coefficients_divide_exactly() {
        // 2x ≤ 7  →  x ≤ 7/2.
        let cj = Conjunction::of([Atom::le(x().scale(&r(2)), c(7))]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert_eq!(
            bx.interval(&v("x")).hi(),
            Some((&Rational::from_pair(7, 2), false))
        );
        // −3x < 1  →  x > −1/3.
        let cj = Conjunction::of([Atom::lt(x().scale(&r(-3)), c(1))]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert_eq!(
            bx.interval(&v("x")).lo(),
            Some((&Rational::from_pair(-1, 3), true))
        );
    }

    #[test]
    fn strictness_propagates_through_sums() {
        // x > 1 ∧ y ≥ 0 ∧ x + y ≤ 1: inf(x+y) = 1 not attained → empty.
        let cj = Conjunction::of([
            Atom::gt(x(), c(1)),
            Atom::ge(y(), c(0)),
            Atom::le(x() + y(), c(1)),
        ]);
        assert!(IntervalBox::of_conjunction(&cj).is_empty());
    }

    #[test]
    fn unbounded_contributions_refine_nothing() {
        // x + y ≤ 0 alone: neither variable has a finite partner bound.
        let cj = Conjunction::of([Atom::le(x() + y(), c(0))]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert!(!bx.is_empty());
        assert!(bx.interval(&v("x")).is_top());
        assert!(bx.interval(&v("y")).is_top());
    }

    #[test]
    fn descending_chain_terminates() {
        // x ≤ y/2 ∧ y ≤ x/2 ∧ x ≤ 100 descends forever toward (−∞, 0];
        // the truncated fixpoint must stop and stay sound (0 satisfies).
        let cj = Conjunction::of([
            Atom::le(x().scale(&r(2)), y()),
            Atom::le(y().scale(&r(2)), x()),
            Atom::le(x(), c(100)),
        ]);
        let bx = IntervalBox::of_conjunction(&cj);
        assert!(!bx.is_empty(), "x = y = 0 satisfies the conjunction");
        let origin = crate::linexpr::Assignment::new();
        assert!(bx.contains(&origin));
    }

    #[test]
    fn soundness_box_contains_every_found_point() {
        let cases = [
            Conjunction::of([Atom::ge(x(), c(0)), Atom::le(x() + y(), c(4))]),
            Conjunction::of([Atom::eq(x(), y()), Atom::le(x(), c(2))]),
            Conjunction::of([
                Atom::ge(x(), c(-3)),
                Atom::lt(y(), c(9)),
                Atom::le(x() - y().scale(&r(2)), c(1)),
            ]),
        ];
        for cj in cases {
            let bx = IntervalBox::of_conjunction(&cj);
            if let Some(p) = cj.find_point() {
                assert!(bx.contains(&p), "box {bx} must contain witness of {cj}");
            }
        }
    }

    #[test]
    fn hull_and_intersect() {
        let a = IntervalBox::of_atoms(&[Atom::ge(x(), c(0)), Atom::le(x(), c(1))]);
        let b = IntervalBox::of_atoms(&[Atom::ge(x(), c(5)), Atom::le(x(), c(6))]);
        let h = a.hull(&b);
        assert_eq!(h.interval(&v("x")).to_string(), "[0, 6]");
        assert!(a.intersect(&b).is_empty());
        let overlap = IntervalBox::of_atoms(&[Atom::ge(x(), c(1)), Atom::le(x(), c(5))]);
        let m = overlap.intersect(&a);
        assert_eq!(m.interval(&v("x")).singleton(), Some(&r(1)));
        // The empty box is hull-identity and intersect-absorbing.
        assert_eq!(IntervalBox::empty().hull(&a), a);
        assert!(IntervalBox::empty().intersect(&a).is_empty());
    }

    #[test]
    fn restrict_projects_soundly() {
        let bx = IntervalBox::of_atoms(&[
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::ge(y(), c(2)),
        ]);
        let p = bx.restrict(&[v("x")]);
        assert!(!p.interval(&v("x")).is_top());
        assert!(p.interval(&v("y")).is_top());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Interval::top().to_string(), "(-inf, +inf)");
        assert_eq!(IntervalBox::top().to_string(), "top");
        assert_eq!(IntervalBox::empty().to_string(), "empty");
        let bx = IntervalBox::of_atoms(&[
            Atom::ge(x(), c(0)),
            Atom::lt(x(), c(2)),
            Atom::le(y(), c(7)),
        ]);
        assert_eq!(bx.to_string(), "x in [0, 2), y in (-inf, 7]");
    }
}
