//! Disjunctive constraints (§3.1): disjunctions of conjunctions, with
//! negation of conjunctive constraints, case-splitting elimination, and
//! exact DNF entailment.

use crate::atom::{Atom, NormOp};
use crate::conjunction::Conjunction;
use crate::error::ConstraintError;
use crate::linexpr::Assignment;
use crate::var::Var;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// DNF products below a minimum pair count are never worth forking a
// parallel region for: each pair is one conjunction merge, so the spawn
// cost dominates tiny products (and the paper's worked examples stay on
// their exact serial path). The threshold is
// `lyric_engine::DNF_PARALLEL_MIN_PAIRS`.

/// A disjunction of conjunctions of normalized atoms.
///
/// Invariants: syntactically false disjuncts are dropped and duplicates
/// removed; the empty disjunction is the canonical `false`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dnf {
    disjuncts: Vec<Conjunction>,
}

impl Dnf {
    /// The always-false DNF (no disjuncts).
    pub fn bottom() -> Dnf {
        Dnf::default()
    }

    /// The always-true DNF (one empty conjunction).
    pub fn top() -> Dnf {
        Dnf {
            disjuncts: vec![Conjunction::top()],
        }
    }

    /// Build from disjuncts, dropping syntactic falsities and duplicates.
    pub fn of(disjuncts: impl IntoIterator<Item = Conjunction>) -> Dnf {
        let mut ds: Vec<Conjunction> = disjuncts
            .into_iter()
            .filter(|d| !d.is_syntactically_false())
            .collect();
        ds.sort();
        ds.dedup();
        Dnf { disjuncts: ds }
    }

    /// A single-conjunction DNF.
    pub fn from_conjunction(c: Conjunction) -> Dnf {
        Dnf::of([c])
    }

    /// The disjuncts, in canonical order.
    pub fn disjuncts(&self) -> &[Conjunction] {
        &self.disjuncts
    }

    /// Syntactically false (no disjunct survived construction)?
    pub fn is_syntactically_false(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// All variables occurring anywhere.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.disjuncts.iter().flat_map(|d| d.vars()).collect()
    }

    /// Logical disjunction.
    pub fn or(&self, other: &Dnf) -> Dnf {
        Dnf::of(self.disjuncts.iter().chain(&other.disjuncts).cloned())
    }

    /// Logical conjunction (distributes: `|self|·|other|` disjuncts).
    ///
    /// Products of at least [`lyric_engine::DNF_PARALLEL_MIN_PAIRS`]
    /// pairs are evaluated row-parallel under a multi-threaded engine
    /// context; [`Dnf::of`] re-sorts the disjuncts, so the result is
    /// identical either way.
    pub fn and(&self, other: &Dnf) -> Dnf {
        lyric_engine::trace_event(|| lyric_engine::EventKind::DnfProduct {
            left: self.disjuncts.len(),
            right: other.disjuncts.len(),
        });
        let pairs = self.disjuncts.len() * other.disjuncts.len();
        if pairs >= lyric_engine::DNF_PARALLEL_MIN_PAIRS {
            let rows = lyric_engine::parallel_map(&self.disjuncts, |_, a| {
                other
                    .disjuncts
                    .iter()
                    .map(|b| {
                        lyric_engine::note(lyric_engine::Resource::Disjuncts);
                        a.and(b)
                    })
                    .collect::<Vec<Conjunction>>()
            });
            return Dnf::of(rows.into_iter().flatten());
        }
        let mut out = Vec::with_capacity(pairs);
        for a in &self.disjuncts {
            for b in &other.disjuncts {
                lyric_engine::note(lyric_engine::Resource::Disjuncts);
                out.push(a.and(b));
            }
        }
        Dnf::of(out)
    }

    /// Negation of a *conjunction* — §3.1 rule (a) of the disjunctive
    /// family: `¬(a₁ ∧ … ∧ aₙ) = ¬a₁ ∨ … ∨ ¬aₙ`, each `¬aᵢ` again a single
    /// atom. Linear in the conjunction size.
    pub fn negate_conjunction(c: &Conjunction) -> Dnf {
        if c.is_syntactically_false() {
            return Dnf::top();
        }
        lyric_engine::note_many(lyric_engine::Resource::Disjuncts, c.atoms().len() as u64);
        Dnf::of(c.atoms().iter().map(|a| Conjunction::of([a.negate()])))
    }

    /// General DNF negation. **Exponential** in the number of disjuncts —
    /// the paper deliberately keeps negation out of the disjunctive family
    /// except on conjunctions; this is provided for tests and small
    /// formulas only.
    pub fn negate(&self) -> Dnf {
        let mut acc = Dnf::top();
        for d in &self.disjuncts {
            acc = acc.and(&Dnf::negate_conjunction(d));
        }
        acc
    }

    /// Exact satisfiability: some disjunct is satisfiable.
    pub fn satisfiable(&self) -> bool {
        self.disjuncts.iter().any(Conjunction::satisfiable)
    }

    /// A satisfying point, if any.
    pub fn find_point(&self) -> Option<Assignment> {
        self.disjuncts.iter().find_map(Conjunction::find_point)
    }

    /// Evaluate at a point (unbound variables read as 0).
    pub fn eval(&self, point: &Assignment) -> bool {
        self.disjuncts.iter().any(|d| d.eval(point))
    }

    /// Substitute a variable by an expression in every disjunct.
    pub fn substitute(&self, v: &Var, by: &crate::linexpr::LinExpr) -> Dnf {
        Dnf::of(self.disjuncts.iter().map(|d| d.substitute(v, by)))
    }

    /// Rename variables in every disjunct.
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> Dnf {
        Dnf::of(self.disjuncts.iter().map(|d| d.rename(map)))
    }

    /// Eliminate a variable: `∃v. self`, distributing the quantifier over
    /// the disjunction. Disjuncts where `v` occurs in a disequation are
    /// case-split (`e ≠ 0` → `e < 0 ∨ e > 0`) first, so elimination is
    /// total at DNF level.
    pub fn eliminate(&self, v: &Var) -> Dnf {
        let mut out: Vec<Conjunction> = Vec::new();
        let mut queue: Vec<Conjunction> = self.disjuncts.clone();
        while let Some(d) = queue.pop() {
            match d.eliminate(v) {
                Ok(c) => out.push(c),
                Err(ConstraintError::DisequationElimination(_)) => {
                    // Split the first blocking disequation and retry both arms.
                    let neq = d
                        .atoms()
                        .iter()
                        .find(|a| a.op() == NormOp::Neq && a.contains(v))
                        .expect("blocking disequation must exist")
                        .clone();
                    let rest = Conjunction::of(d.atoms().iter().filter(|a| **a != neq).cloned());
                    queue.push(rest.and_atom(Atom::normalized(neq.expr().clone(), NormOp::Lt)));
                    queue.push(rest.and_atom(Atom::normalized(-neq.expr(), NormOp::Lt)));
                }
                Err(e) => unreachable!("unexpected elimination error: {e}"),
            }
        }
        Dnf::of(out)
    }

    /// Eliminate several variables in order.
    pub fn eliminate_all<'a>(&self, vs: impl IntoIterator<Item = &'a Var>) -> Dnf {
        let mut acc = self.clone();
        for v in vs {
            acc = acc.eliminate(v);
        }
        acc
    }

    /// The paper's restricted projection for the disjunctive family: keep
    /// exactly `keep`, eliminating at most one variable or all but one.
    pub fn project_restricted(&self, keep: &[Var]) -> Result<Dnf, ConstraintError> {
        let vars = self.vars();
        let eliminate: Vec<Var> = vars.iter().filter(|v| !keep.contains(v)).cloned().collect();
        let n = vars.len();
        let k = eliminate.len();
        if !(k <= 1 || n - k <= 1) {
            return Err(ConstraintError::RestrictedProjection {
                eliminate: k,
                free: n,
            });
        }
        Ok(self.eliminate_all(&eliminate))
    }

    /// Exact entailment between DNFs: every disjunct of `self` must entail
    /// the disjunction `other`. Implemented by DPLL-style refutation of
    /// `D ∧ ¬Q₁ ∧ … ∧ ¬Qₖ`, branching over the atoms of each `¬Qᵢ` —
    /// worst-case exponential in `Σ|Qᵢ|` (the problem is co-NP-hard;
    /// cf. §3.1's remark on redundant-disjunct detection) but with eager
    /// unsatisfiability pruning at every node.
    pub fn implies(&self, other: &Dnf) -> bool {
        lyric_engine::tally(|s| s.entailment_checks += 1);
        self.disjuncts
            .iter()
            .all(|d| refute(d.clone(), &other.disjuncts))
    }

    /// Mutual entailment: same point set?
    pub fn equivalent(&self, other: &Dnf) -> bool {
        self.implies(other) && other.implies(self)
    }
}

/// Is `d ∧ ¬qs[0] ∧ ¬qs[1] ∧ …` unsatisfiable?
fn refute(d: Conjunction, qs: &[Conjunction]) -> bool {
    if !d.satisfiable() {
        return true;
    }
    match qs.split_first() {
        None => false,
        Some((q, rest)) => {
            // ¬q = ∨ₐ ¬a : the conjunction with d is unsat iff every branch is.
            q.atoms()
                .iter()
                .all(|a| refute(d.and_atom(a.negate()), rest))
        }
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "false");
        }
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            if self.disjuncts.len() > 1 && d.atoms().len() > 1 {
                write!(f, "({d})")?;
            } else {
                write!(f, "{d}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use lyric_arith::Rational;

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

    fn interval(lo: i64, hi: i64) -> Conjunction {
        Conjunction::of([Atom::ge(x(), c(lo)), Atom::le(x(), c(hi))])
    }

    #[test]
    fn construction_drops_false_and_dedups() {
        let d = Dnf::of([interval(0, 1), Conjunction::bottom(), interval(0, 1)]);
        assert_eq!(d.disjuncts().len(), 1);
        assert!(Dnf::bottom().is_syntactically_false());
        assert!(!Dnf::top().is_syntactically_false());
    }

    #[test]
    fn or_and() {
        let a = Dnf::from_conjunction(interval(0, 1));
        let b = Dnf::from_conjunction(interval(5, 6));
        let union = a.or(&b);
        assert_eq!(union.disjuncts().len(), 2);
        assert!(union.satisfiable());
        // Intersection of disjoint intervals is unsatisfiable (but not
        // syntactically false).
        let inter = a.and(&b);
        assert!(!inter.satisfiable());
        // Overlapping intersection.
        let c1 = Dnf::from_conjunction(interval(0, 10));
        let c2 = Dnf::from_conjunction(interval(5, 15));
        assert!(c1.and(&c2).satisfiable());
    }

    #[test]
    fn negate_conjunction_covers_complement() {
        let box01 = interval(0, 1);
        let neg = Dnf::negate_conjunction(&box01);
        assert_eq!(neg.disjuncts().len(), 2); // x < 0 ∨ x > 1
        let mut inside = Assignment::new();
        inside.insert(v("x"), Rational::from_pair(1, 2));
        assert!(box01.eval(&inside) && !neg.eval(&inside));
        let mut outside = Assignment::new();
        outside.insert(v("x"), Rational::from_int(2));
        assert!(!box01.eval(&outside) && neg.eval(&outside));
        // Negating bottom gives top.
        assert!(Dnf::negate_conjunction(&Conjunction::bottom()).equivalent(&Dnf::top()));
    }

    #[test]
    fn double_negation_on_small_formulas() {
        let d = Dnf::of([interval(0, 1), interval(3, 4)]);
        assert!(d.negate().negate().equivalent(&d));
    }

    #[test]
    fn entailment_union_of_intervals() {
        // [0,1] ∨ [2,3]  |=  [0,3]; converse fails ((1,2) gap).
        let parts = Dnf::of([interval(0, 1), interval(2, 3)]);
        let whole = Dnf::from_conjunction(interval(0, 3));
        assert!(parts.implies(&whole));
        assert!(!whole.implies(&parts));
    }

    #[test]
    fn entailment_needs_joint_cover() {
        // [0,2] |= [0,1] ∨ [1,2] — neither disjunct alone suffices.
        let whole = Dnf::from_conjunction(interval(0, 2));
        let split = Dnf::of([interval(0, 1), interval(1, 2)]);
        assert!(whole.implies(&split));
        // But [0,2] does not entail [0,1] ∨ (3,4).
        let gap = Dnf::of([interval(0, 1), interval(3, 4)]);
        assert!(!whole.implies(&gap));
    }

    #[test]
    fn entailment_with_strictness() {
        // [0,1) ∨ {1} = [0,1]
        let half_open = Conjunction::of([Atom::ge(x(), c(0)), Atom::lt(x(), c(1))]);
        let point = Conjunction::of([Atom::eq(x(), c(1))]);
        let closed = Dnf::from_conjunction(interval(0, 1));
        let pieces = Dnf::of([half_open, point]);
        assert!(pieces.equivalent(&closed));
    }

    #[test]
    fn elimination_distributes_over_disjunction() {
        // ∃x. ((y <= x ∧ x <= 1) ∨ (y <= x ∧ x <= 5)) ⇒ y <= 1 ∨ y <= 5 ≡ y <= 5
        let d = Dnf::of([
            Conjunction::of([Atom::le(y(), x()), Atom::le(x(), c(1))]),
            Conjunction::of([Atom::le(y(), x()), Atom::le(x(), c(5))]),
        ]);
        let out = d.eliminate(&v("x"));
        let expect = Dnf::from_conjunction(Conjunction::of([Atom::le(y(), c(5))]));
        assert!(out.equivalent(&expect));
    }

    #[test]
    fn elimination_splits_disequations() {
        // ∃x. (0 <= x ≤ 2 ∧ x ≠ 1 ∧ y = x): projection is 0<=y<=2 ∧ y≠1...
        // here y = x makes it substitution; force the FM path instead:
        // ∃x. (y <= x ∧ x <= 2 ∧ x ≠ 1) ⇒ y <= 2 (the puncture does not
        // shrink the projection: pick x ≠ 1 whenever y < ... except y = 2?
        // For y = 2 the only x is 2 (≠1 fine). For y <= 2 always works.)
        let d = Dnf::from_conjunction(Conjunction::of([
            Atom::le(y(), x()),
            Atom::le(x(), c(2)),
            Atom::neq(x(), c(1)),
        ]));
        let out = d.eliminate(&v("x"));
        let expect = Dnf::from_conjunction(Conjunction::of([Atom::le(y(), c(2))]));
        assert!(out.equivalent(&expect), "got {out}");
    }

    #[test]
    fn restricted_projection_enforced() {
        let d = Dnf::from_conjunction(Conjunction::of([Atom::le(
            x() + y() + LinExpr::var(v("z")) + LinExpr::var(v("q")),
            c(1),
        )]));
        assert!(d.project_restricted(&[v("x"), v("y"), v("z")]).is_ok());
        assert!(d.project_restricted(&[v("x")]).is_ok());
        assert!(matches!(
            d.project_restricted(&[v("x"), v("y")]),
            Err(ConstraintError::RestrictedProjection { .. })
        ));
    }

    #[test]
    fn eval_and_find_point() {
        let d = Dnf::of([interval(0, 1), interval(5, 6)]);
        let p = d.find_point().unwrap();
        assert!(d.eval(&p));
        let empty = Dnf::of([Conjunction::of([Atom::ge(x(), c(1)), Atom::le(x(), c(0))])]);
        assert!(!empty.satisfiable());
        assert!(empty.find_point().is_none());
    }

    #[test]
    fn display() {
        let d = Dnf::of([interval(0, 1), interval(5, 6)]);
        let s = d.to_string();
        assert!(s.contains("∨"), "{s}");
        assert_eq!(Dnf::bottom().to_string(), "false");
    }
}
