//! Soundness of the interval (box) abstract domain against the LP oracle.
//!
//! The box domain ([`IntervalBox`]) has one non-negotiable contract:
//!
//! * an empty [`IntervalBox`] implies `Conjunction::satisfiable() == false`;
//! * every satisfying point the exact solver can produce lies inside the
//!   inferred box, and so does every per-variable LP extremum.
//!
//! The converse direction is explicitly *not* promised — a nonempty box
//! proves nothing (boxes ignore all inter-variable geometry beyond what
//! single-atom refinement recovers) — which is what makes the domain safe
//! to use as a pre-LP prune: see `Conjunction::satisfiable` and the
//! `boxes_differential` suite for the engine-level guarantees
//! (bit-identical answers with pruning on and off).

use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, IntervalBox, LinExpr, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random linear atom over `nvars` variables with small integer
/// coefficients; includes the occasional disequation (the bench
/// workload generator omits them, and the ≠ transfer has its own
/// soundness obligations).
fn random_atom(r: &mut StdRng, nvars: usize) -> Atom {
    let mut e = LinExpr::zero();
    for i in 0..nvars {
        let c = r.gen_range(-3..=3i64);
        if c != 0 {
            e = e + LinExpr::term(Var::new(format!("v{i}")), Rational::from_int(c));
        }
    }
    let rhs = LinExpr::from(r.gen_range(-10..=10i64));
    match r.gen_range(0..10) {
        0 => Atom::eq(e, rhs),
        1 => Atom::lt(e, rhs),
        2 => Atom::neq(e, rhs),
        _ => Atom::le(e, rhs),
    }
}

fn random_conjunction(seed: u64, nvars: usize, m: usize) -> Conjunction {
    let mut r = StdRng::seed_from_u64(seed);
    Conjunction::of((0..m).map(|_| random_atom(&mut r, nvars)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness, the refutation direction: an empty box is a proof of
    /// unsatisfiability, so it must never contradict the simplex
    /// oracle. (This is the exact property the engine's prune relies
    /// on — a violation here would silently change query answers.)
    #[test]
    fn empty_box_implies_lp_unsat(seed in 0u64..1_000_000, m in 1usize..7) {
        let c = random_conjunction(seed, 3, m);
        if IntervalBox::of_conjunction(&c).is_empty() {
            prop_assert!(!c.satisfiable(), "box empty but LP found {:?} satisfiable", c);
        }
    }

    /// Soundness, the containment direction: any satisfying point the
    /// exact solver produces lies inside the box.
    #[test]
    fn witness_points_lie_inside_the_box(seed in 0u64..1_000_000, m in 1usize..7) {
        let c = random_conjunction(seed, 3, m);
        let bx = IntervalBox::of_conjunction(&c);
        if let Some(p) = c.find_point() {
            prop_assert!(bx.contains(&p), "witness {p:?} escapes box {bx} of {c}");
        }
    }

    /// Soundness against the LP's extrema: every per-variable
    /// `bounding_box` bound lies inside the box side (closed), and a
    /// direction the LP finds unbounded is an infinite box side.
    #[test]
    fn lp_extrema_lie_inside_the_box(seed in 0u64..1_000_000, m in 1usize..7) {
        let c = random_conjunction(seed, 3, m);
        let obj = CstObject::from_conjunction(c.vars().into_iter().collect(), c);
        if let Some(lp) = obj.bounding_box() {
            let bx = obj.interval_box();
            prop_assert!(!bx.is_empty(), "box empty but LP-satisfiable: {obj}");
            for (v, (lo, hi)) in obj.free().iter().zip(&lp) {
                let iv = bx.interval(v);
                let below = iv.lo().is_none_or(|(b, _)| lo.as_ref().is_some_and(|m| b <= m));
                let above = iv.hi().is_none_or(|(b, _)| hi.as_ref().is_some_and(|m| b >= m));
                prop_assert!(below && above, "box {iv} for {v} excludes LP {lo:?}..{hi:?} in {obj}");
            }
        }
    }

    /// The hull of two boxes contains everything either box contains
    /// (the object-level box of a disjunction is built this way).
    #[test]
    fn hull_is_an_upper_bound(seed in 0u64..1_000_000) {
        let a = random_conjunction(seed, 2, 4);
        let b = random_conjunction(seed.wrapping_add(0x9E37), 2, 4);
        let hull = IntervalBox::of_conjunction(&a).hull(&IntervalBox::of_conjunction(&b));
        for c in [&a, &b] {
            if let Some(p) = c.find_point() {
                prop_assert!(hull.contains(&p), "hull drops a witness of {c}");
            }
        }
    }

    /// Conjunction refines: the box of `a ∧ b` is contained in the
    /// intersection of the operand boxes, so a disjoint intersection
    /// proves the conjunction unsatisfiable (the engine's
    /// query-box ∩ object-box test).
    #[test]
    fn disjoint_boxes_imply_unsat_conjunction(seed in 0u64..1_000_000) {
        let a = random_conjunction(seed, 2, 4);
        let b = random_conjunction(seed.wrapping_add(0x79B9), 2, 4);
        let meet = IntervalBox::of_conjunction(&a).intersect(&IntervalBox::of_conjunction(&b));
        if meet.is_empty() {
            prop_assert!(!a.and(&b).satisfiable());
        }
    }

    /// The box refines monotonically under conjunction: adding atoms
    /// never widens any interval (checked through witness containment
    /// of the stronger conjunction in the weaker one's box).
    #[test]
    fn stronger_conjunctions_stay_inside_weaker_boxes(seed in 0u64..1_000_000) {
        let a = random_conjunction(seed, 3, 3);
        let b = random_conjunction(seed.wrapping_add(1), 3, 3);
        let both = a.and(&b);
        let weak = IntervalBox::of_conjunction(&a);
        if let Some(p) = both.find_point() {
            prop_assert!(weak.contains(&p));
        }
    }
}
