//! Canonical forms (§3.1).
//!
//! The paper deliberately picks *cheap* canonical forms: full redundancy
//! elimination for disjunctions is co-NP-complete (it cites Srivastava) and
//! eager quantifier elimination can explode, so the chosen form performs
//!
//! 1. per-atom normalization (done on atom construction — primitive
//!    integer coefficients, sign normalization),
//! 2. deletion of inconsistent disjuncts,
//! 3. deletion of syntactic duplicates, and
//! 4. *simplifying* quantifier eliminations only (CLP(R)-style): equality
//!    substitution and Fourier–Motzkin steps guaranteed not to grow the
//!    conjunction.
//!
//! The expensive alternatives — LP-based redundant-atom removal
//! ([`Conjunction::remove_redundant`]) and pairwise disjunct subsumption —
//! are exposed as [`CstObject::strong_canonical`] / [`Dnf::strong_simplify`]
//! and compared against the cheap form in benchmark **E4**.

use crate::atom::NormOp;
use crate::conjunction::Conjunction;
use crate::cst_object::CstObject;
use crate::dnf::Dnf;
use crate::var::Var;
use std::collections::BTreeMap;
use std::sync::OnceLock;

impl Dnf {
    /// The paper's chosen disjunction simplification: drop semantically
    /// inconsistent disjuncts (one feasibility check each) and syntactic
    /// duplicates (already maintained by construction).
    ///
    /// The per-disjunct feasibility checks are independent LP solves, so
    /// they run parallel under a multi-threaded engine context; the
    /// surviving disjuncts keep their order either way.
    pub fn simplify(&self) -> Dnf {
        let sat = lyric_engine::parallel_map(self.disjuncts(), |_, d| d.satisfiable());
        let out = Dnf::of(
            self.disjuncts()
                .iter()
                .zip(&sat)
                .filter(|&(_, &s)| s)
                .map(|(d, _)| d.clone()),
        );
        let pruned = (self.disjuncts().len() - out.disjuncts().len()) as u64;
        lyric_engine::tally(|s| s.disjuncts_pruned += pruned);
        if pruned > 0 {
            lyric_engine::trace_event(|| lyric_engine::EventKind::DisjunctsPruned {
                count: pruned,
            });
        }
        out
    }

    /// Strong (expensive) simplification: [`Dnf::simplify`] plus per-
    /// disjunct LP redundancy removal plus pairwise disjunct subsumption
    /// (`Dᵢ` dropped when some other single `Dⱼ` contains it). Full minimal
    /// DNF would be co-NP; pairwise subsumption is the polynomial-LP-calls
    /// fragment.
    pub fn strong_simplify(&self) -> Dnf {
        // Feasibility + per-disjunct redundancy removal are independent;
        // only the pairwise subsumption pass below needs the full set.
        let reduced: Vec<Conjunction> = lyric_engine::parallel_map(self.disjuncts(), |_, d| {
            d.satisfiable().then(|| d.remove_redundant())
        })
        .into_iter()
        .flatten()
        .collect();
        Dnf::of(prune_subsumed(reduced, |a, b| b.implies(a)))
    }
}

/// Remove elements contained in some other single element.
/// `contains(a, b)` must answer "does a contain b".
fn prune_subsumed<T: Clone>(items: Vec<T>, contains: impl Fn(&T, &T) -> bool) -> Vec<T> {
    let mut keep: Vec<bool> = vec![true; items.len()];
    for i in 0..items.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..items.len() {
            if i == j || !keep[j] {
                continue;
            }
            if contains(&items[i], &items[j]) {
                keep[j] = false;
            }
        }
    }
    items
        .into_iter()
        .zip(keep)
        .filter_map(|(x, k)| k.then_some(x))
        .collect()
}

impl CstObject {
    /// The paper's canonical form: simplifying quantifier eliminations per
    /// disjunct, deletion of inconsistent disjuncts, deletion of syntactic
    /// duplicates. Polynomial.
    ///
    /// Each disjunct is simplified and feasibility-checked independently —
    /// parallel under a multi-threaded engine context, with the surviving
    /// disjuncts kept in order.
    pub fn canonicalize(&self) -> CstObject {
        let ds: Vec<Conjunction> = lyric_engine::parallel_map(self.disjuncts(), |_, d| {
            if !self.binds_in(d) {
                // Nothing to eliminate: the disjunct is its own
                // simplification.
                return d.satisfiable().then(|| d.clone());
            }
            let s = self.simplify_disjunct(d);
            s.satisfiable().then_some(s)
        })
        .into_iter()
        .flatten()
        .collect();
        let pruned = (self.disjuncts().len() - ds.len()) as u64;
        lyric_engine::tally(|s| s.disjuncts_pruned += pruned);
        if pruned > 0 {
            lyric_engine::trace_event(|| lyric_engine::EventKind::DisjunctsPruned {
                count: pruned,
            });
        }
        CstObject::new(self.free().to_vec(), ds)
    }

    /// Strong canonical form: [`canonicalize`](Self::canonicalize) plus LP
    /// redundancy removal per disjunct plus pairwise disjunct subsumption
    /// (on quantifier-free disjuncts).
    pub fn strong_canonical(&self) -> CstObject {
        let base = self.canonicalize();
        let reduced: Vec<Conjunction> =
            lyric_engine::parallel_map(base.disjuncts(), |_, d| d.remove_redundant());
        let pruned = prune_subsumed(reduced, |a, b| {
            // Only compare quantifier-free disjuncts; quantified ones would
            // need eager elimination (out of canonical-form budget).
            if !base.bound_vars(a).is_empty() || !base.bound_vars(b).is_empty() {
                return false;
            }
            b.implies(a)
        });
        CstObject::new(self.free().to_vec(), pruned)
    }

    /// Simplifying eliminations on one disjunct: substitute out bound
    /// variables constrained by an equality; Fourier–Motzkin-eliminate a
    /// bound variable when the step does not grow the conjunction
    /// (`|L|·|U| ≤ |L|+|U|`, no disequation occurrence).
    fn simplify_disjunct(&self, d: &Conjunction) -> Conjunction {
        let mut cur = d.clone();
        loop {
            let bound = self.bound_vars(&cur);
            // Equality substitution first (always shrinking).
            let eq_var = bound.iter().find(|v| {
                cur.atoms()
                    .iter()
                    .any(|a| a.op() == NormOp::Eq && a.contains(v))
            });
            if let Some(v) = eq_var {
                let v = v.clone();
                cur = cur
                    .eliminate(&v)
                    .expect("equality elimination cannot block");
                continue;
            }
            // Cheap FM next.
            let fm_var = bound.iter().find(|v| {
                let mut lowers = 0usize;
                let mut uppers = 0usize;
                for a in cur.atoms() {
                    if !a.contains(v) {
                        continue;
                    }
                    match a.op() {
                        NormOp::Neq => return false,
                        NormOp::Eq => return false, // handled above
                        NormOp::Le | NormOp::Lt => {
                            if a.expr().coeff(v).is_positive() {
                                uppers += 1;
                            } else {
                                lowers += 1;
                            }
                        }
                    }
                }
                lowers * uppers <= lowers + uppers
            });
            match fm_var {
                Some(v) => {
                    let v = v.clone();
                    cur = cur.eliminate(&v).expect("checked no blocking disequation");
                }
                None => return cur,
            }
        }
    }

    /// A name-independent canonical copy for **object identity**: schema
    /// variables are renamed positionally to `$0, $1, …` and the surviving
    /// bound variables of each disjunct to `?0, ?1, …` in order of first
    /// occurrence. Two structurally identical constraints over different
    /// variable names get equal canonical forms (§4.1: "CST expressions in
    /// LyriC queries are invariant to variable names"). Canonical forms are
    /// still not unique across *semantically* equal objects — use
    /// [`CstObject::denotes_same`] for that.
    pub fn canonical_form(&self) -> CstObject {
        self.canonicalize().rename_positionally()
    }

    /// The renaming step of [`canonical_form`](Self::canonical_form) on
    /// its own. For an object `c` that is already the result of
    /// [`canonicalize`](Self::canonicalize), `c.rename_positionally() ==
    /// c.canonical_form()`, because canonicalization is idempotent; the
    /// rename is purely syntactic and runs no satisfiability check.
    pub fn rename_positionally(&self) -> CstObject {
        let new_free: Vec<Var> = (0..self.free().len()).map(|i| positional('$', i)).collect();
        let mut map: BTreeMap<Var, Var> = self
            .free()
            .iter()
            .cloned()
            .zip(new_free.iter().cloned())
            .collect();
        let ds: Vec<Conjunction> = self
            .disjuncts()
            .iter()
            .map(|d| {
                // Name this disjunct's bound variables in the shared map,
                // rename, and take the names out again.
                let mut bound = Vec::new();
                for a in d.atoms() {
                    for (v, _) in a.expr().terms() {
                        if !map.contains_key(v) {
                            map.insert(v.clone(), positional('?', bound.len()));
                            bound.push(v.clone());
                        }
                    }
                }
                let renamed = d.rename(&map);
                for v in &bound {
                    map.remove(v);
                }
                renamed
            })
            .collect();
        CstObject::new(new_free, ds)
    }
}

/// The positional name `{prefix}{i}` (`$i` for schema variables, `?i`
/// for bound ones), shared for the first [`SHARED_NAMES`] positions so
/// that renaming allocates no string for them.
fn positional(prefix: char, i: usize) -> Var {
    static NAMES: OnceLock<[Vec<Var>; 2]> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        ['$', '?'].map(|p| {
            (0..SHARED_NAMES)
                .map(|k| Var::new(format!("{p}{k}")))
                .collect()
        })
    });
    let table = if prefix == '$' { &names[0] } else { &names[1] };
    match table.get(i) {
        Some(v) => v.clone(),
        None => Var::new(format!("{prefix}{i}")),
    }
}

/// Positions with a shared positional name.
const SHARED_NAMES: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::linexpr::LinExpr;
    use lyric_arith::Rational;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn e(n: &str) -> LinExpr {
        LinExpr::var(v(n))
    }
    fn c(n: i64) -> LinExpr {
        LinExpr::constant(Rational::from_int(n))
    }

    #[test]
    fn simplify_drops_inconsistent_disjuncts() {
        let sat = Conjunction::of([Atom::ge(e("x"), c(0))]);
        let unsat = Conjunction::of([Atom::ge(e("x"), c(1)), Atom::le(e("x"), c(0))]);
        let d = Dnf::of([sat.clone(), unsat]);
        assert_eq!(d.disjuncts().len(), 2);
        let s = d.simplify();
        assert_eq!(s.disjuncts().len(), 1);
        assert_eq!(s.disjuncts()[0], sat);
    }

    #[test]
    fn strong_simplify_prunes_subsumed_disjuncts() {
        let small = Conjunction::of([Atom::ge(e("x"), c(0)), Atom::le(e("x"), c(1))]);
        let big = Conjunction::of([Atom::ge(e("x"), c(-5)), Atom::le(e("x"), c(5))]);
        let d = Dnf::of([small, big.clone()]);
        let s = d.strong_simplify();
        assert_eq!(s.disjuncts().len(), 1);
        assert!(s.disjuncts()[0].equivalent(&big));
    }

    #[test]
    fn strong_simplify_removes_redundant_atoms() {
        let cj = Conjunction::of([
            Atom::le(e("x"), c(1)),
            Atom::le(e("x"), c(2)),
            Atom::ge(e("x"), c(0)),
        ]);
        let s = Dnf::from_conjunction(cj).strong_simplify();
        assert_eq!(s.disjuncts()[0].atoms().len(), 2);
    }

    #[test]
    fn canonicalize_substitutes_equalities() {
        // ((u) | ∃w,x. u = x + w ∧ x = 6 ∧ -4 <= w <= 4) → 2 <= u <= 10
        let obj = CstObject::new(
            vec![v("u")],
            [Conjunction::of([
                Atom::eq(e("u"), e("x") + e("w")),
                Atom::eq(e("x"), c(6)),
                Atom::ge(e("w"), c(-4)),
                Atom::le(e("w"), c(4)),
            ])],
        );
        let canon = obj.canonicalize();
        assert!(
            !canon.has_bound_vars(),
            "quantifiers should be discharged: {canon}"
        );
        let expected = CstObject::from_conjunction(
            vec![v("u")],
            Conjunction::of([Atom::ge(e("u"), c(2)), Atom::le(e("u"), c(10))]),
        );
        assert_eq!(canon.canonical_form(), expected.canonical_form());
    }

    #[test]
    fn canonicalize_keeps_expensive_quantifiers_lazy() {
        // A bound variable with 3 lower and 3 upper bounds (9 > 6 products)
        // stays quantified under the cheap form.
        let mut atoms = Vec::new();
        for i in 1..=3i64 {
            atoms.push(Atom::ge(e("q"), e(&format!("a{i}")) + c(i)));
            atoms.push(Atom::le(e("q"), e(&format!("b{i}")) - c(i)));
        }
        let free: Vec<Var> = ["a1", "a2", "a3", "b1", "b2", "b3"]
            .iter()
            .map(|s| v(s))
            .collect();
        let obj = CstObject::new(free, [Conjunction::of(atoms)]);
        let canon = obj.canonicalize();
        assert!(
            canon.has_bound_vars(),
            "9-product FM must not fire: {canon}"
        );
        // But eager elimination still gets the same point set.
        assert!(canon.denotes_same(&obj.eliminate_bound()));
    }

    #[test]
    fn canonicalize_drops_unsat_disjuncts() {
        let obj = CstObject::new(
            vec![v("x")],
            [
                Conjunction::of([Atom::ge(e("x"), c(0))]),
                Conjunction::of([Atom::ge(e("x"), c(1)), Atom::le(e("x"), c(0))]),
            ],
        );
        assert_eq!(obj.canonicalize().disjuncts().len(), 1);
    }

    #[test]
    fn canonical_form_is_name_invariant() {
        let a = CstObject::from_conjunction(
            vec![v("u"), v("v")],
            Conjunction::of([Atom::ge(e("u"), c(0)), Atom::le(e("v"), c(1))]),
        );
        let b = CstObject::from_conjunction(
            vec![v("p"), v("q")],
            Conjunction::of([Atom::ge(e("p"), c(0)), Atom::le(e("q"), c(1))]),
        );
        assert_eq!(a.canonical_form(), b.canonical_form());
        // Different structure → different canonical form.
        let c_ = CstObject::from_conjunction(
            vec![v("p"), v("q")],
            Conjunction::of([Atom::ge(e("q"), c(0)), Atom::le(e("p"), c(1))]),
        );
        assert_ne!(a.canonical_form(), c_.canonical_form());
    }

    #[test]
    fn canonical_form_renames_bound_vars() {
        let a = CstObject::new(
            vec![v("u")],
            [Conjunction::of([
                Atom::le(e("u"), e("w")),
                Atom::le(e("w"), e("t")),
                Atom::le(e("t"), c(0)),
                // three uppers/lowers prevent cheap elimination of both
                Atom::ge(e("w"), c(-10)),
                Atom::ge(e("t"), c(-10)),
            ])],
        );
        let b = CstObject::new(
            vec![v("u")],
            [Conjunction::of([
                Atom::le(e("u"), e("m")),
                Atom::le(e("m"), e("n")),
                Atom::le(e("n"), c(0)),
                Atom::ge(e("m"), c(-10)),
                Atom::ge(e("n"), c(-10)),
            ])],
        );
        assert_eq!(a.canonical_form(), b.canonical_form());
    }
}
