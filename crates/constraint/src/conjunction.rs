//! Conjunctive constraints (§3.1) and their decision procedures.
//!
//! A [`Conjunction`] is a set of normalized atoms understood as their
//! logical conjunction — geometrically a convex polyhedron (from the
//! `≤ < =` atoms) minus finitely many hyperplanes (from the `≠` atoms).
//!
//! Decision procedures reduce to exact LP ([`lyric_simplex`]):
//!
//! * **Satisfiability** uses the convexity lemma: a convex set `C` cannot
//!   be covered by finitely many hyperplanes unless it is contained in one
//!   of them, so `C ∧ ⋀ᵢ eᵢ≠0` is satisfiable iff `C` is satisfiable and
//!   `C ⊭ eᵢ=0` for every `i` — one feasibility check plus two LPs per
//!   disequation.
//! * **Entailment** `P |= a` is the unsatisfiability of `P ∧ ¬a`; the
//!   negation of any atom is again a single atom, so entailment between
//!   conjunctions is linear in the number of right-hand atoms.
//! * **Optimization** (`MAX`/`MIN … SUBJECT TO` of §4.2) returns the
//!   supremum/infimum with an attainment flag and a rational witness.

use crate::atom::{Atom, NormOp};
use crate::interval::IntervalBox;
use crate::linexpr::{Assignment, LinExpr};
use crate::var::Var;
use lyric_arith::Rational;
use lyric_simplex::{LpOutcome, LpProblem, Relop};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A conjunction of normalized linear atoms.
///
/// Invariants: atoms are sorted and deduplicated; trivially true atoms are
/// removed; a trivially false atom collapses the whole conjunction to the
/// canonical bottom (`1 ≤ 0`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Conjunction {
    atoms: Vec<Atom>,
}

/// Result of optimizing a linear objective over a conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extremum {
    /// The conjunction is unsatisfiable.
    Infeasible,
    /// The objective is unbounded in the requested direction.
    Unbounded,
    /// A finite bound.
    Finite {
        /// The supremum (maximize) or infimum (minimize).
        bound: Rational,
        /// Whether some satisfying point achieves the bound.
        attained: bool,
        /// A satisfying point; achieves `bound` when `attained`.
        witness: Assignment,
    },
}

impl Conjunction {
    /// The empty (always-true) conjunction.
    pub fn top() -> Conjunction {
        Conjunction::default()
    }

    /// The canonical always-false conjunction.
    pub fn bottom() -> Conjunction {
        Conjunction {
            atoms: vec![Atom::le(
                LinExpr::constant(Rational::one()),
                LinExpr::zero(),
            )],
        }
    }

    /// Build from atoms, normalizing.
    pub fn of(atoms: impl IntoIterator<Item = Atom>) -> Conjunction {
        let atoms = atoms.into_iter();
        let capacity = atoms.size_hint().0;
        normalize(atoms, capacity).map_or_else(Conjunction::bottom, |atoms| Conjunction { atoms })
    }

    /// Conjoin one atom.
    pub fn and_atom(&self, a: Atom) -> Conjunction {
        Conjunction::of(self.atoms.iter().cloned().chain(std::iter::once(a)))
    }

    /// Conjoin two conjunctions.
    pub fn and(&self, other: &Conjunction) -> Conjunction {
        Conjunction::of(self.atoms.iter().chain(&other.atoms).cloned())
    }

    /// The atoms, in canonical order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Is this the empty conjunction (no atoms — the whole space, ⊤)?
    pub fn is_top(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The conjunction's interval abstraction: a per-variable bounding box
    /// that *over-approximates* the point set (see [`crate::IntervalBox`]).
    /// An empty box proves the conjunction unsatisfiable; a nonempty box
    /// proves it satisfiable only when every atom mentions at most one
    /// variable.
    pub fn interval_box(&self) -> IntervalBox {
        IntervalBox::of_conjunction(self)
    }

    /// Syntactic check: is this the canonical bottom (or does it contain a
    /// trivially false atom)? Unsatisfiable conjunctions are *not* always
    /// syntactically false — use [`satisfiable`](Self::satisfiable).
    pub fn is_syntactically_false(&self) -> bool {
        self.atoms.iter().any(|a| a.trivial() == Some(false))
    }

    /// All variables occurring in the conjunction.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// Evaluate at a point (unbound variables read as 0).
    pub fn eval(&self, point: &Assignment) -> bool {
        self.atoms.iter().all(|a| a.eval(point))
    }

    /// Substitute a variable by an expression in every atom.
    pub fn substitute(&self, v: &Var, by: &LinExpr) -> Conjunction {
        Conjunction::of(self.atoms.iter().map(|a| a.substitute(v, by)))
    }

    /// Rename variables in every atom.
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> Conjunction {
        if map.is_empty() {
            return self.clone();
        }
        Conjunction::of(self.atoms.iter().map(|a| a.rename(map)))
    }

    /// Split into convex atoms (`≤ < =`) and disequation expressions.
    fn split_neq(&self) -> (Vec<&Atom>, Vec<&Atom>) {
        self.atoms.iter().partition(|a| a.op() != NormOp::Neq)
    }

    /// Exact satisfiability over the reals, decided by simplex.
    ///
    /// Under a context with interval-box pruning enabled
    /// (`ExecOptions::boxes`), the conjunction's
    /// [`IntervalBox`](crate::IntervalBox) is consulted first: an empty
    /// box is a *sound* proof of unsatisfiability, so the LP is skipped
    /// entirely, and a nonempty box of atoms that each mention at most one
    /// variable is an exact proof of satisfiability, so the LP is skipped
    /// there too. Entailment inherits both for free —
    /// [`implies_atom`](Self::implies_atom) reduces to a satisfiability
    /// call on `self ∧ ¬a`. The box never changes an answer, only how it
    /// is obtained; the `boxes_differential` suite pins bit-identical
    /// results with the switch on and off. The box is computed afresh on
    /// every check: it costs less than a probe and insert keyed by the
    /// whole conjunction would.
    pub fn satisfiable(&self) -> bool {
        decide(&self.atoms)
    }

    /// A satisfying point, if any. When disequations are present the convex
    /// part is case-split (`e ≠ 0` into `e < 0 ∨ e > 0`), so the cost is
    /// exponential in the number of `≠` atoms — which real workloads keep
    /// tiny.
    pub fn find_point(&self) -> Option<Assignment> {
        let (convex, neqs) = self.split_neq();
        let base: Vec<Atom> = convex.into_iter().cloned().collect();
        // Depth-first over sign choices for each disequation.
        fn search(base: &[Atom], neqs: &[&Atom]) -> Option<Assignment> {
            match neqs.split_first() {
                None => {
                    let lp = Lp::build(base.iter());
                    let point = lp.problem.find_concrete_point()?;
                    Some(lp.assignment(&point))
                }
                Some((first, rest)) => {
                    for atom in [
                        Atom::normalized(first.expr().clone(), NormOp::Lt),
                        Atom::normalized(-first.expr(), NormOp::Lt),
                    ] {
                        let mut ext = base.to_vec();
                        ext.push(atom);
                        if let Some(p) = search(&ext, rest) {
                            return Some(p);
                        }
                    }
                    None
                }
            }
        }
        search(&base, &neqs)
    }

    /// Entailment of a single atom: `self |= a` iff `self ∧ ¬a` is
    /// unsatisfiable. (An unsatisfiable conjunction entails everything.)
    pub fn implies_atom(&self, a: &Atom) -> bool {
        lyric_engine::tally(|s| s.entailment_checks += 1);
        !self.and_atom(a.negate()).satisfiable()
    }

    /// Entailment between conjunctions: `self |= other` iff `self` entails
    /// each atom of `other`.
    pub fn implies(&self, other: &Conjunction) -> bool {
        other.atoms.iter().all(|a| self.implies_atom(a))
    }

    /// Mutual entailment: do the two conjunctions denote the same point
    /// set? (Canonical forms are not unique — §3.1 — so denotation equality
    /// is the semantic comparison.)
    pub fn equivalent(&self, other: &Conjunction) -> bool {
        self.implies(other) && other.implies(self)
    }

    /// Maximize `objective` over the conjunction.
    pub fn maximize(&self, objective: &LinExpr) -> Extremum {
        self.optimize(objective, true)
    }

    /// Minimize `objective` over the conjunction.
    pub fn minimize(&self, objective: &LinExpr) -> Extremum {
        self.optimize(objective, false)
    }

    fn optimize(&self, objective: &LinExpr, maximize: bool) -> Extremum {
        let (convex, neqs) = self.split_neq();
        let base: Vec<Atom> = convex.into_iter().cloned().collect();
        // Case-split disequations; keep the best disjunct outcome.
        let mut cases: Vec<Vec<Atom>> = vec![base];
        for neq in &neqs {
            let lt = Atom::normalized(neq.expr().clone(), NormOp::Lt);
            let gt = Atom::normalized(-neq.expr(), NormOp::Lt);
            cases = cases
                .into_iter()
                .flat_map(|c| {
                    let mut a = c.clone();
                    a.push(lt.clone());
                    let mut b = c;
                    b.push(gt.clone());
                    [a, b]
                })
                .collect();
        }
        let mut best: Option<Extremum> = None;
        for case in &cases {
            let lp = Lp::build(case.iter());
            // A variable of the objective that no atom constrains can take
            // any real value: the objective is unbounded on any nonempty
            // case.
            if lp.objective_mentions_free(objective) {
                if lp.problem.is_feasible() {
                    return Extremum::Unbounded;
                }
                continue;
            }
            let obj = lp.objective(objective);
            let outcome = if maximize {
                lp.problem.maximize(&obj)
            } else {
                lp.problem.minimize(&obj)
            };
            let ext = match outcome {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => return Extremum::Unbounded,
                LpOutcome::Optimal(opt) => {
                    // The objective's constant term is outside the LP.
                    let bound = opt.supremum() + objective.constant_term();
                    let attained = opt.attained();
                    let witness = lp.assignment(&opt.concrete_point(&lp.problem));
                    Extremum::Finite {
                        bound,
                        attained,
                        witness,
                    }
                }
            };
            best = Some(match (best, ext) {
                (None, e) => e,
                (
                    Some(Extremum::Finite {
                        bound: b1,
                        attained: a1,
                        witness: w1,
                    }),
                    Extremum::Finite {
                        bound: b2,
                        attained: a2,
                        witness: w2,
                    },
                ) => {
                    let pick_second = if maximize {
                        b2 > b1 || (b2 == b1 && a2 && !a1)
                    } else {
                        b2 < b1 || (b2 == b1 && a2 && !a1)
                    };
                    if pick_second {
                        Extremum::Finite {
                            bound: b2,
                            attained: a2,
                            witness: w2,
                        }
                    } else {
                        Extremum::Finite {
                            bound: b1,
                            attained: a1,
                            witness: w1,
                        }
                    }
                }
                (Some(other), _) => other,
            });
        }
        best.unwrap_or(Extremum::Infeasible)
    }

    /// Remove atoms entailed by the remaining ones (the expensive, LP-based
    /// canonical form for conjunctions of BJM93; cf. the cheap
    /// simplification the paper chooses as default — see `canonical`).
    pub fn remove_redundant(&self) -> Conjunction {
        let mut kept: Vec<Atom> = self.atoms.clone();
        let mut i = 0;
        while i < kept.len() {
            let candidate = kept[i].clone();
            let rest = Conjunction::of(
                kept.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, a)| a.clone()),
            );
            if rest.implies_atom(&candidate) {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        Conjunction::of(kept)
    }
}

/// The normalization rule of a conjunction, over owned or borrowed atoms:
/// trivially true atoms are dropped and the rest sorted and deduplicated;
/// `None` when some atom is trivially false. [`Conjunction::of`] applies it
/// to owned atoms, [`ConjunctionRef::of`] to borrowed ones, so both give
/// the same atoms in the same order. `capacity` sizes the kept list.
fn normalize<A: Borrow<Atom> + Ord>(
    atoms: impl Iterator<Item = A>,
    capacity: usize,
) -> Option<Vec<A>> {
    let mut out = Vec::with_capacity(capacity);
    for a in atoms {
        match a.borrow().trivial() {
            Some(true) => {}
            Some(false) => return None,
            None => out.push(a),
        }
    }
    out.sort();
    out.dedup();
    Some(out)
}

/// Decide a normalized atom list, owned or borrowed: the one routine
/// behind [`Conjunction::satisfiable`] and [`ConjunctionRef::satisfiable`].
///
/// It counts the sat check. With boxes on it counts the box check, builds
/// the box, and answers `false` on an empty box. A nonempty box answers
/// `true` when every atom mentions at most one variable, which is exact:
/// each variable's interval is then the intersection of its own bounds
/// after one sweep, and the second sweep re-checks every `≠` against the
/// final intervals and changes nothing, so the fixpoint is reached well
/// inside [`MAX_ROUNDS`](crate::MAX_ROUNDS). A nonempty interval minus
/// finitely many points is nonempty unless it is one point that some `≠`
/// excludes, and the `≠` transfer reports that case as an empty box. The
/// variables are independent, so the box is the point set up to those
/// excluded points. Every other list runs the LP, with the convexity
/// lemma for `≠`.
fn decide<A: Borrow<Atom>>(atoms: &[A]) -> bool {
    lyric_engine::note_live(lyric_engine::Live::SatChecks, 1);
    if lyric_engine::boxes_enabled() {
        lyric_engine::tally(|s| s.box_checks += 1);
        if IntervalBox::of_atoms(atoms).is_empty() {
            lyric_engine::note_live(lyric_engine::Live::BoxPrunes, 1);
            lyric_engine::trace_event(|| lyric_engine::EventKind::BoxPrune);
            return false;
        }
        if atoms.iter().all(|a| a.borrow().expr().num_terms() <= 1) {
            return true;
        }
    }
    let (convex, neqs): (Vec<&Atom>, Vec<&Atom>) = atoms
        .iter()
        .map(Borrow::borrow)
        .partition(|a| a.op() != NormOp::Neq);
    let lp = Lp::build(convex.iter().copied());
    if !lp.problem.is_feasible() {
        return false;
    }
    // Convexity lemma: check each disequation independently.
    neqs.iter().all(|a| !lp.entails_eq_zero(a.expr()))
}

/// A conjunction of borrowed atoms, normalized by the rule of
/// [`Conjunction::of`], so that it can be decided without cloning an atom.
/// [`CstObject::product_disjunct`](crate::CstObject::product_disjunct)
/// builds one for a product that has a single disjunct.
#[derive(Debug, Clone)]
pub struct ConjunctionRef<'a> {
    /// The sorted, deduplicated atoms; `None` when one is trivially false.
    atoms: Option<Vec<&'a Atom>>,
}

impl<'a> ConjunctionRef<'a> {
    /// The conjunction of the atoms of `lists`, taken in order and
    /// normalized by the rule of [`Conjunction::of`].
    pub fn of(lists: &[&'a [Atom]]) -> ConjunctionRef<'a> {
        let len = lists.iter().map(|atoms| atoms.len()).sum();
        ConjunctionRef {
            atoms: normalize(lists.iter().flat_map(|atoms| atoms.iter()), len),
        }
    }

    /// The normalized atoms, the list `Conjunction::of` would hold; `None`
    /// when some atom is trivially false.
    pub fn atoms(&self) -> Option<&[&'a Atom]> {
        self.atoms.as_deref()
    }

    /// Exact satisfiability, decided as [`Conjunction::satisfiable`]
    /// decides the same atoms. A trivially false atom answers `false` with
    /// no check counted, as a [`CstObject`](crate::CstObject) whose only
    /// disjunct is trivially false has no disjunct left to check.
    pub fn satisfiable(&self) -> bool {
        self.atoms.as_deref().is_some_and(decide)
    }
}

/// Bridge from atoms to an [`LpProblem`] with a stable variable order.
pub(crate) struct Lp {
    pub(crate) problem: LpProblem,
    pub(crate) vars: Vec<Var>,
}

impl Lp {
    /// Build an LP from convex atoms (callers must filter out `≠`).
    pub(crate) fn build<'a>(atoms: impl Iterator<Item = &'a Atom> + Clone) -> Lp {
        let vars: Vec<Var> = atoms
            .clone()
            .flat_map(|a| a.vars())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let index: BTreeMap<&Var, usize> = vars.iter().enumerate().map(|(i, v)| (v, i)).collect();
        let mut problem = LpProblem::new(vars.len());
        for a in atoms {
            debug_assert!(
                a.op() != NormOp::Neq,
                "disequations must be split before LP"
            );
            let mut coeffs = vec![Rational::zero(); vars.len()];
            for (v, c) in a.expr().terms() {
                coeffs[index[v]] = c.clone();
            }
            let rhs = -a.expr().constant_term();
            let relop = match a.op() {
                NormOp::Le => Relop::Le,
                NormOp::Lt => Relop::Lt,
                NormOp::Eq => Relop::Eq,
                NormOp::Neq => unreachable!(),
            };
            problem.push(coeffs, relop, rhs);
        }
        Lp { problem, vars }
    }

    /// Objective vector for a linear expression (constant term ignored;
    /// variables outside the LP contribute nothing, which is correct: they
    /// are unconstrained, and the caller must handle unboundedness — see
    /// `objective_mentions_free`).
    pub(crate) fn objective(&self, e: &LinExpr) -> Vec<Rational> {
        self.vars.iter().map(|v| e.coeff(v)).collect()
    }

    /// Does the expression mention a variable that is not constrained by
    /// the LP (hence free to take any value)?
    pub(crate) fn objective_mentions_free(&self, e: &LinExpr) -> bool {
        e.terms().any(|(v, _)| !self.vars.contains(v))
    }

    /// Translate a solver point back into a variable assignment.
    pub(crate) fn assignment(&self, point: &[Rational]) -> Assignment {
        self.vars
            .iter()
            .cloned()
            .zip(point.iter().cloned())
            .collect()
    }

    /// Does the polyhedron entail `e = 0`? (`sup e ≤ 0` and `inf e ≥ 0`.)
    pub(crate) fn entails_eq_zero(&self, e: &LinExpr) -> bool {
        if self.objective_mentions_free(e) {
            return false;
        }
        let obj = self.objective(e);
        let c = e.constant_term();
        let hi = match self.problem.maximize(&obj) {
            LpOutcome::Infeasible => return true,
            LpOutcome::Unbounded => return false,
            LpOutcome::Optimal(o) => o.supremum() + c,
        };
        if hi.is_positive() {
            return false;
        }
        let lo = match self.problem.minimize(&obj) {
            LpOutcome::Infeasible => return true,
            LpOutcome::Unbounded => return false,
            LpOutcome::Optimal(o) => o.supremum() + c,
        };
        !lo.is_negative()
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn top_and_bottom() {
        assert!(Conjunction::top().satisfiable());
        assert!(!Conjunction::bottom().satisfiable());
        assert!(Conjunction::bottom().is_syntactically_false());
        // Trivially false atom collapses.
        let cj = Conjunction::of([Atom::le(c(5), c(2))]);
        assert!(cj.is_syntactically_false());
        // Trivially true atoms vanish.
        let t = Conjunction::of([Atom::le(c(1), c(2))]);
        assert!(t.is_top());
    }

    #[test]
    fn normalization_sorts_and_dedups() {
        let a = Atom::le(x(), c(1));
        let b = Atom::le(y(), c(2));
        let c1 = Conjunction::of([b.clone(), a.clone(), a.clone()]);
        assert_eq!(c1.atoms().len(), 2);
        let c2 = Conjunction::of([a, b]);
        assert_eq!(c1, c2);
    }

    #[test]
    fn satisfiability_box() {
        // 0 <= x <= 1 ∧ 0 <= y <= 1
        let cj = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::ge(y(), c(0)),
            Atom::le(y(), c(1)),
        ]);
        assert!(cj.satisfiable());
        let p = cj.find_point().unwrap();
        assert!(cj.eval(&p));
        // Contradiction.
        let bad = cj.and_atom(Atom::ge(x(), c(2)));
        assert!(!bad.satisfiable());
        assert!(bad.find_point().is_none());
    }

    #[test]
    fn disequation_satisfiability_convexity_lemma() {
        // x = 0 ∧ x ≠ 0 → unsat.
        let cj = Conjunction::of([Atom::eq(x(), c(0)), Atom::neq(x(), c(0))]);
        assert!(!cj.satisfiable());
        // 0 ≤ x ≤ 1 ∧ x ≠ 0 → sat (witness avoids the hyperplane).
        let cj = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::neq(x(), c(0)),
        ]);
        assert!(cj.satisfiable());
        let p = cj.find_point().unwrap();
        assert!(cj.eval(&p), "witness {p:?} must avoid x=0");
        // Two disequations carving a segment: still satisfiable.
        let cj = cj.and_atom(Atom::neq(x(), c(1)));
        assert!(cj.satisfiable());
        let p = cj.find_point().unwrap();
        assert!(cj.eval(&p));
        // Segment reduced to a point, then punctured: unsat.
        let pt = Conjunction::of([
            Atom::ge(x(), c(1)),
            Atom::le(x(), c(1)),
            Atom::neq(x(), c(1)),
        ]);
        assert!(!pt.satisfiable());
    }

    #[test]
    fn disequation_on_degenerate_line() {
        // x = y ∧ x ≠ y → unsat even though both atoms are individually sat.
        let cj = Conjunction::of([Atom::eq(x(), y()), Atom::neq(x(), y())]);
        assert!(!cj.satisfiable());
    }

    #[test]
    fn entailment_atoms() {
        // x >= 2 |= x >= 1, but not conversely.
        let strong = Conjunction::of([Atom::ge(x(), c(2))]);
        let weak = Atom::ge(x(), c(1));
        assert!(strong.implies_atom(&weak));
        let weak_c = Conjunction::of([weak]);
        assert!(!weak_c.implies_atom(&Atom::ge(x(), c(2))));
        // Equality entailment: x = 1 |= x != 2 and x <= 1.
        let eq = Conjunction::of([Atom::eq(x(), c(1))]);
        assert!(eq.implies_atom(&Atom::neq(x(), c(2))));
        assert!(eq.implies_atom(&Atom::le(x(), c(1))));
        assert!(!eq.implies_atom(&Atom::lt(x(), c(1))));
        // Unsat entails everything.
        assert!(Conjunction::bottom().implies_atom(&Atom::ge(x(), c(100))));
    }

    #[test]
    fn entailment_conjunction_geometric() {
        // The unit square entails the half-plane x + y <= 2.
        let square = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::ge(y(), c(0)),
            Atom::le(y(), c(1)),
        ]);
        let half = Conjunction::of([Atom::le(x() + y(), c(2))]);
        assert!(square.implies(&half));
        assert!(!half.implies(&square));
        assert!(square.equivalent(&square.clone()));
    }

    #[test]
    fn entailment_with_lhs_disequation() {
        // 0 <= x <= 1 ∧ x ≠ 1 |= x < 1 (the disequation sharpens the bound).
        let cj = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::neq(x(), c(1)),
        ]);
        assert!(cj.implies_atom(&Atom::lt(x(), c(1))));
        // Without the disequation it does not.
        let cj2 = Conjunction::of([Atom::ge(x(), c(0)), Atom::le(x(), c(1))]);
        assert!(!cj2.implies_atom(&Atom::lt(x(), c(1))));
    }

    #[test]
    fn optimization_closed() {
        let square = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::ge(y(), c(0)),
            Atom::le(y(), c(1)),
        ]);
        match square.maximize(&(x() + y())) {
            Extremum::Finite {
                bound,
                attained,
                witness,
            } => {
                assert_eq!(bound, r(2));
                assert!(attained);
                assert_eq!(witness[&v("x")], r(1));
                assert_eq!(witness[&v("y")], r(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        match square.minimize(&(x() - y())) {
            Extremum::Finite { bound, .. } => assert_eq!(bound, r(-1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn optimization_open_and_unbounded() {
        let open = Conjunction::of([Atom::lt(x(), c(1)), Atom::ge(x(), c(0))]);
        match open.maximize(&x()) {
            Extremum::Finite {
                bound,
                attained,
                witness,
            } => {
                assert_eq!(bound, r(1));
                assert!(!attained);
                assert!(open.eval(&witness));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(open.minimize(&(-&x())), {
            // min -x over [0,1) is -1, not attained
            Extremum::Finite {
                bound: r(-1),
                attained: false,
                witness: match open.maximize(&x()) {
                    Extremum::Finite { witness, .. } => witness,
                    _ => unreachable!(),
                },
            }
        });
        let half = Conjunction::of([Atom::ge(x(), c(0))]);
        assert_eq!(half.maximize(&x()), Extremum::Unbounded);
        assert_eq!(Conjunction::bottom().maximize(&x()), Extremum::Infeasible);
    }

    #[test]
    fn optimization_with_disequation_puncture() {
        // max x over 0 <= x <= 1 ∧ x ≠ 1 → sup 1, not attained.
        let cj = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::le(x(), c(1)),
            Atom::neq(x(), c(1)),
        ]);
        match cj.maximize(&x()) {
            Extremum::Finite {
                bound,
                attained,
                witness,
            } => {
                assert_eq!(bound, r(1));
                assert!(!attained);
                assert!(cj.eval(&witness));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn objective_with_unconstrained_variable_is_unbounded() {
        let cj = Conjunction::of([Atom::ge(x(), c(0)), Atom::le(x(), c(1))]);
        // y is unconstrained: x + y is unbounded both ways.
        assert_eq!(cj.maximize(&(x() + y())), Extremum::Unbounded);
        assert_eq!(cj.minimize(&(x() + y())), Extremum::Unbounded);
    }

    #[test]
    fn redundancy_removal() {
        // x <= 1 ∧ x <= 2 ∧ x >= 0: the middle atom is redundant.
        let cj = Conjunction::of([
            Atom::le(x(), c(1)),
            Atom::le(x(), c(2)),
            Atom::ge(x(), c(0)),
        ]);
        let reduced = cj.remove_redundant();
        assert_eq!(reduced.atoms().len(), 2);
        assert!(reduced.equivalent(&cj));
        // Non-obvious redundancy: x >= 0 ∧ y >= 0 makes x + y >= 0 redundant.
        let cj = Conjunction::of([
            Atom::ge(x(), c(0)),
            Atom::ge(y(), c(0)),
            Atom::ge(x() + y(), c(0)),
        ]);
        assert_eq!(cj.remove_redundant().atoms().len(), 2);
    }

    #[test]
    fn substitution_and_rename() {
        let cj = Conjunction::of([Atom::le(x() + y(), c(3))]);
        let s = cj.substitute(&v("y"), &c(1));
        assert!(s.implies_atom(&Atom::le(x(), c(2))));
        let mut map = BTreeMap::new();
        map.insert(v("x"), v("z"));
        let renamed = cj.rename(&map);
        assert!(renamed.vars().contains(&v("z")));
        assert!(!renamed.vars().contains(&v("x")));
    }

    #[test]
    fn display() {
        let cj = Conjunction::of([Atom::ge(x(), c(0)), Atom::le(x(), c(1))]);
        let s = cj.to_string();
        assert!(s.contains("∧"), "{s}");
        assert_eq!(Conjunction::top().to_string(), "true");
    }
}
