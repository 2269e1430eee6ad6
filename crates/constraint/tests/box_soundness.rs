//! Soundness of the interval (box) abstract domain against the LP oracle.
//!
//! The box domain ([`IntervalBox`]) has one non-negotiable contract:
//!
//! * an empty [`IntervalBox`] implies `Conjunction::satisfiable() == false`;
//! * every satisfying point the exact solver can produce lies inside the
//!   inferred box, and so does every per-variable LP extremum.
//!
//! The converse direction is *not* promised in general — a nonempty box
//! proves nothing (boxes ignore all inter-variable geometry beyond what
//! single-atom refinement recovers) — which is what makes the domain safe
//! to use as a pre-LP prune: see `Conjunction::satisfiable` and the
//! `boxes_differential` suite for the engine-level guarantees
//! (bit-identical answers with pruning on and off). It does hold for
//! conjunctions whose atoms each mention at most one variable, where
//! `satisfiable()` lets a nonempty box answer without the LP; the last
//! two tests pin that this answer equals the LP's and that conjunctions
//! with two-variable atoms still run the LP.

use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, IntervalBox, LinExpr, Var};
use lyric_engine::{EngineStats, ExecOptions};
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

/// A nonzero fraction with a small numerator and denominator.
fn nonzero_fraction(r: &mut StdRng) -> Rational {
    let n = [-5, -3, -2, -1, 1, 2, 3, 5][r.gen_range(0..8)];
    Rational::from_pair(n, r.gen_range(1..=4i64))
}

/// A fraction in about `[-5, 5]`, often an integer.
fn fraction(r: &mut StdRng) -> Rational {
    Rational::from_pair(r.gen_range(-10..=10i64), r.gen_range(1..=2i64))
}

/// A random conjunction whose atoms each mention one variable, over one
/// to three variables that repeat: `≤ < = ≥ > ≠` with fractional
/// coefficients and bounds, plus, now and then, a value pinned by an
/// equality or by two closed bounds that a `≠` then excludes or misses.
fn single_variable_conjunction(seed: u64) -> Conjunction {
    let mut r = StdRng::seed_from_u64(seed);
    let nvars = r.gen_range(1..=3usize);
    let mut atoms = Vec::new();
    for _ in 0..r.gen_range(1..=7usize) {
        let v = Var::new(format!("v{}", r.gen_range(0..nvars)));
        let c = nonzero_fraction(&mut r);
        let lhs = LinExpr::term(v.clone(), c.clone());
        let rhs = LinExpr::constant(fraction(&mut r));
        match r.gen_range(0..8) {
            0 => atoms.push(Atom::le(lhs, rhs)),
            1 => atoms.push(Atom::lt(lhs, rhs)),
            2 => atoms.push(Atom::ge(lhs, rhs)),
            3 => atoms.push(Atom::gt(lhs, rhs)),
            4 => atoms.push(Atom::eq(lhs, rhs)),
            5 => atoms.push(Atom::neq(lhs, rhs)),
            pin => {
                let value = fraction(&mut r);
                let at = |c: &Rational| LinExpr::constant(c * &value);
                if pin == 6 {
                    atoms.push(Atom::eq(lhs, at(&c)));
                } else {
                    atoms.push(Atom::ge(lhs.clone(), at(&c)));
                    atoms.push(Atom::le(lhs, at(&c)));
                }
                // Excludes the pinned value, or one next to it.
                let k = nonzero_fraction(&mut r);
                let off = if r.gen_range(0..3) == 0 {
                    Rational::from_pair(1, 3)
                } else {
                    Rational::zero()
                };
                let excluded = LinExpr::constant(&k * &(&value + &off));
                atoms.push(Atom::neq(LinExpr::term(v, k), excluded));
            }
        }
    }
    Conjunction::of(atoms)
}

/// `c.satisfiable()` under an engine context with boxes on, and the
/// counters it moved.
fn satisfiable_with_boxes(c: &Conjunction) -> (bool, EngineStats) {
    let opts = ExecOptions::default().with_threads(1).with_boxes(true);
    let (sat, stats, _) = lyric_engine::run(&opts, None, || c.satisfiable());
    (sat.expect("unlimited budget"), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Box exactness: on single-variable conjunctions the boxes-on answer
    /// is the LP's (outside any context `satisfiable()` is the pure LP),
    /// and it runs no LP.
    #[test]
    fn single_variable_conjunctions_are_decided_by_the_box(seed in 0u64..1_000_000) {
        let c = single_variable_conjunction(seed);
        let exact = c.satisfiable();
        let (boxed, stats) = satisfiable_with_boxes(&c);
        prop_assert_eq!(boxed, exact, "box and LP disagree on {}", c);
        prop_assert_eq!(stats.lp_runs, 0, "the LP ran on {}", c);
        prop_assert_eq!(stats.sat_checks, 1);
        prop_assert_eq!(stats.box_checks, 1);
    }
}

/// Two-variable conjunctions whose box is nonempty but which are
/// unsatisfiable: only the LP can refute them, so boxes on must still run
/// it and answer `false`.
#[test]
fn two_variable_conjunctions_with_nonempty_boxes_run_the_lp() {
    let x = || LinExpr::var(Var::new("x"));
    let y = || LinExpr::var(Var::new("y"));
    let k = |n: i64| LinExpr::from(n);
    let cases = [
        // x ≤ y ∧ y ≤ x − 1: the box is ⊤.
        Conjunction::of([Atom::le(x(), y()), Atom::le(y(), x() - k(1))]),
        // The same strip on [0, 1000]²: each sweep moves the bounds by 1,
        // so the truncated fixpoint stays nonempty.
        Conjunction::of([
            Atom::ge(x(), k(0)),
            Atom::le(x(), k(1000)),
            Atom::ge(y(), k(0)),
            Atom::le(y(), k(1000)),
            Atom::le(x(), y()),
            Atom::le(y(), x() - k(1)),
        ]),
        // x = y ∧ x ≠ y on a bounded square.
        Conjunction::of([
            Atom::ge(x(), k(0)),
            Atom::le(x(), k(1)),
            Atom::eq(x(), y()),
            Atom::neq(x(), y()),
        ]),
    ];
    for c in cases {
        assert!(!IntervalBox::of_conjunction(&c).is_empty(), "box of {c}");
        assert!(!c.satisfiable(), "LP must refute {c}");
        let (sat, stats) = satisfiable_with_boxes(&c);
        assert!(!sat, "boxes on must refute {c}");
        assert!(stats.lp_runs > 0, "{c} was decided without the LP: {stats}");
    }
}
