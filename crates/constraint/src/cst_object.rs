//! CST objects — the paper's constraint/spatio-temporal objects (§3.2).
//!
//! A [`CstObject`] is a (possibly infinite) set of points in
//! `ℝ^arity`, represented as a **dimension schema** (the ordered list of
//! free variables, e.g. `(w, z)` for a desk's `extent : CST(w,z)`
//! attribute) plus a disjunction of conjunctions in which every variable
//! outside the schema is implicitly existentially quantified. This single
//! representation covers all four §3.1 families; [`CstObject::family`]
//! classifies an object into the smallest family containing it.
//!
//! Existential quantification is kept **lazy** (the paper's explicit design
//! choice: eager elimination can explode exponentially) and discharged by
//! [`CstObject::canonicalize`]'s simplifying eliminations — equality
//! substitution and non-expanding Fourier–Motzkin steps, in the style the
//! paper attributes to CLP(R) output simplification.

use crate::atom::Atom;
use crate::conjunction::{Conjunction, ConjunctionRef, Extremum};
use crate::dnf::Dnf;
use crate::error::ConstraintError;
use crate::interval::IntervalBox;
use crate::linexpr::LinExpr;
use crate::var::{first_repeat, Var};
use lyric_arith::Rational;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

static FRESH: AtomicUsize = AtomicUsize::new(0);

fn fresh_counter() -> usize {
    FRESH.fetch_add(1, Ordering::Relaxed)
}

/// The four §3.1 constraint families, ordered by inclusion
/// (`Conjunctive ⊂ {ExistentialConjunctive, Disjunctive} ⊂
/// DisjunctiveExistential`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CstFamily {
    /// One disjunct, no bound variables.
    Conjunctive,
    /// One disjunct with existentially quantified variables.
    ExistentialConjunctive,
    /// Multiple disjuncts, no bound variables.
    Disjunctive,
    /// Multiple disjuncts with existentially quantified variables.
    DisjunctiveExistential,
}

/// The §3.1 algebra operations whose family closure matters. Used by the
/// static analyzer ([`CstFamily::apply`]) to predict operation legality
/// and result family without building any constraint object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FamilyOp {
    /// Conjunction of two objects.
    Conjoin,
    /// Disjunction of two objects.
    Disjoin,
    /// Negation of one object.
    Negate,
    /// Restricted projection (eliminate at most one variable, or all but
    /// one); legality additionally depends on arities, which the table
    /// cannot see.
    ProjectRestricted,
    /// Unrestricted (lazy) projection.
    Project,
}

impl CstFamily {
    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            CstFamily::Conjunctive => "conjunctive",
            CstFamily::ExistentialConjunctive => "existential-conjunctive",
            CstFamily::Disjunctive => "disjunctive",
            CstFamily::DisjunctiveExistential => "disjunctive-existential",
        }
    }

    /// Does the family admit more than one disjunct?
    pub fn is_disjunctive(&self) -> bool {
        matches!(
            self,
            CstFamily::Disjunctive | CstFamily::DisjunctiveExistential
        )
    }

    /// Does the family admit existentially quantified variables?
    pub fn is_existential(&self) -> bool {
        matches!(
            self,
            CstFamily::ExistentialConjunctive | CstFamily::DisjunctiveExistential
        )
    }

    /// Rebuild a family from its two capability bits.
    fn from_bits(disjunctive: bool, existential: bool) -> CstFamily {
        match (disjunctive, existential) {
            (false, false) => CstFamily::Conjunctive,
            (false, true) => CstFamily::ExistentialConjunctive,
            (true, false) => CstFamily::Disjunctive,
            (true, true) => CstFamily::DisjunctiveExistential,
        }
    }

    /// Least upper bound in the inclusion lattice.
    pub fn join(self, other: CstFamily) -> CstFamily {
        CstFamily::from_bits(
            self.is_disjunctive() || other.is_disjunctive(),
            self.is_existential() || other.is_existential(),
        )
    }

    /// Smallest family containing this one that admits quantifiers.
    pub fn with_existential(self) -> CstFamily {
        CstFamily::from_bits(self.is_disjunctive(), true)
    }

    /// Smallest family containing this one that admits disjunction.
    pub fn with_disjunctive(self) -> CstFamily {
        CstFamily::from_bits(true, self.is_existential())
    }

    /// Is the family closed under `op`, i.e. is the operation defined for
    /// every member? (`ProjectRestricted` is additionally arity-limited,
    /// which this table cannot express.)
    pub fn closed_under(self, op: FamilyOp) -> bool {
        self.apply(op, None).is_some()
    }

    /// The §3.1 closure table as a pure function: the family of the result
    /// of `op` applied to an operand of family `self` (and `other` for
    /// binary ops), or `None` when the operation is undefined for the
    /// family — the analyzer turns `None` into a compile-time diagnostic
    /// where the evaluator would raise a runtime
    /// [`ConstraintError`](crate::ConstraintError).
    pub fn apply(self, op: FamilyOp, other: Option<CstFamily>) -> Option<CstFamily> {
        let rhs = other.unwrap_or(CstFamily::Conjunctive);
        match op {
            FamilyOp::Conjoin => Some(self.join(rhs)),
            FamilyOp::Disjoin => Some(self.join(rhs).with_disjunctive()),
            // §3.1: negation is defined for the conjunctive family only,
            // and yields a disjunction of negated atoms.
            FamilyOp::Negate => match self {
                CstFamily::Conjunctive => Some(CstFamily::Disjunctive),
                _ => None,
            },
            // Restricted projection stays inside the family (disequation
            // elimination may case-split, hence the disjunctive join).
            FamilyOp::ProjectRestricted => Some(self),
            // Lazy projection introduces quantifiers.
            FamilyOp::Project => Some(self.with_existential()),
        }
    }
}

/// One operand of [`CstObject::product`].
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// An object whose bound variables the product renames apart, as
    /// [`and_all`](CstObject::and_all) does for each of its operands.
    Object(&'a CstObject),
    /// A schema and one atom list per disjunct, whose bound variables are
    /// already apart from every variable of every other operand.
    Lists(&'a [Var], &'a [Vec<Atom>]),
}

/// The disjuncts of one product operand, as atom lists.
#[derive(Clone, Copy)]
enum DisjunctAtoms<'a> {
    Conjunctions(&'a [Conjunction]),
    Lists(&'a [Vec<Atom>]),
}

impl<'a> DisjunctAtoms<'a> {
    fn len(self) -> usize {
        match self {
            DisjunctAtoms::Conjunctions(ds) => ds.len(),
            DisjunctAtoms::Lists(ds) => ds.len(),
        }
    }

    fn get(self, i: usize) -> &'a [Atom] {
        match self {
            DisjunctAtoms::Conjunctions(ds) => ds[i].atoms(),
            DisjunctAtoms::Lists(ds) => &ds[i],
        }
    }
}

/// A constraint object: an `arity()`-dimensional point set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CstObject {
    /// The dimension schema: ordered, distinct free variables.
    free: Vec<Var>,
    /// Disjuncts; variables outside `free` are existentially quantified
    /// per-disjunct. Sorted and deduplicated; empty means the empty set.
    disjuncts: Vec<Conjunction>,
}

impl CstObject {
    /// Build from a schema and disjuncts. Panics if `free` contains
    /// duplicates.
    pub fn new(free: Vec<Var>, disjuncts: impl IntoIterator<Item = Conjunction>) -> CstObject {
        assert!(
            first_repeat(&free).is_none(),
            "duplicate variable in CST schema"
        );
        let mut ds: Vec<Conjunction> = disjuncts
            .into_iter()
            .filter(|d| !d.is_syntactically_false())
            .collect();
        ds.sort();
        ds.dedup();
        CstObject {
            free,
            disjuncts: ds,
        }
    }

    /// The full space `ℝ^|free|`.
    pub fn top(free: Vec<Var>) -> CstObject {
        CstObject::new(free, [Conjunction::top()])
    }

    /// The empty point set.
    pub fn bottom(free: Vec<Var>) -> CstObject {
        CstObject::new(free, [])
    }

    /// A single-conjunction object.
    pub fn from_conjunction(free: Vec<Var>, c: Conjunction) -> CstObject {
        CstObject::new(free, [c])
    }

    /// From a quantifier-free DNF.
    pub fn from_dnf(free: Vec<Var>, d: &Dnf) -> CstObject {
        CstObject::new(free, d.disjuncts().iter().cloned())
    }

    /// A single point `(values…)` over the given schema, as the conjunction
    /// of equalities — used by `MAX_POINT`/`MIN_POINT`.
    pub fn point(free: Vec<Var>, values: &[Rational]) -> CstObject {
        assert_eq!(free.len(), values.len());
        let atoms = free
            .iter()
            .zip(values)
            .map(|(v, val)| Atom::eq(LinExpr::var(v.clone()), LinExpr::constant(val.clone())));
        let c = Conjunction::of(atoms);
        CstObject::new(free, [c])
    }

    /// The dimension schema.
    pub fn free(&self) -> &[Var] {
        &self.free
    }

    /// Dimension of the point set.
    pub fn arity(&self) -> usize {
        self.free.len()
    }

    /// The disjuncts, each an implicitly existentially quantified
    /// conjunction over the schema plus its bound variables.
    pub fn disjuncts(&self) -> &[Conjunction] {
        &self.disjuncts
    }

    /// The object's interval abstraction: the hull of every disjunct's
    /// [`Conjunction::interval_box`], restricted to the schema variables.
    /// Sound in the same direction as the per-conjunction box — the point
    /// set is contained in the box (restriction to the free variables only
    /// widens, and the hull of over-approximations over-approximates the
    /// union) — so an empty result proves the object empty, and two
    /// objects with disjoint boxes have an unsatisfiable intersection.
    /// Unlike [`bounding_box`](Self::bounding_box) this runs no LP: it is
    /// the cheap static estimate, not the exact extremal one.
    pub fn interval_box(&self) -> IntervalBox {
        self.disjuncts
            .iter()
            .map(|d| d.interval_box().restrict(&self.free))
            .fold(IntervalBox::empty(), |acc, bx| acc.hull(&bx))
    }

    /// Existentially quantified variables of a disjunct.
    pub fn bound_vars(&self, d: &Conjunction) -> BTreeSet<Var> {
        d.vars()
            .into_iter()
            .filter(|v| !self.free.contains(v))
            .collect()
    }

    /// Does any disjunct carry existential quantifiers?
    pub fn has_bound_vars(&self) -> bool {
        self.disjuncts.iter().any(|d| self.binds_in(d))
    }

    /// Does the disjunct mention a variable outside the schema?
    pub(crate) fn binds_in(&self, d: &Conjunction) -> bool {
        d.atoms()
            .iter()
            .any(|a| a.expr().terms().any(|(v, _)| !self.free.contains(v)))
    }

    /// Smallest §3.1 family containing this object.
    pub fn family(&self) -> CstFamily {
        let disjunctive = self.disjuncts.len() > 1;
        let existential = self.has_bound_vars();
        match (disjunctive, existential) {
            (false, false) => CstFamily::Conjunctive,
            (false, true) => CstFamily::ExistentialConjunctive,
            (true, false) => CstFamily::Disjunctive,
            (true, true) => CstFamily::DisjunctiveExistential,
        }
    }

    /// α-rename every bound variable to a globally fresh name, so that
    /// conjoining two objects can never capture.
    fn freshen_bound(&self) -> CstObject {
        let disjuncts = self
            .disjuncts
            .iter()
            .map(|d| {
                let map: BTreeMap<Var, Var> = self
                    .bound_vars(d)
                    .into_iter()
                    .map(|v| {
                        let fresh = Var::fresh(v.name(), fresh_counter());
                        (v, fresh)
                    })
                    .collect();
                d.rename(&map)
            })
            .collect::<Vec<_>>();
        CstObject::new(self.free.clone(), disjuncts)
    }

    /// Logical conjunction (geometric intersection on shared variables,
    /// natural join otherwise): the schema of the result is `self.free`
    /// followed by the new variables of `other.free`. Bound variables are
    /// α-renamed apart first. The two-operand case of
    /// [`and_all`](Self::and_all).
    pub fn and(&self, other: &CstObject) -> CstObject {
        CstObject::and_all([self, other])
    }

    /// Conjunction of any number of operands, equal to the left fold of
    /// [`and`](Self::and) up to the names of bound variables: the schema
    /// is the operands' schemas in order with repeats dropped, and the
    /// disjuncts are the product of the operands' disjuncts. Each operand
    /// that has bound variables is α-renamed apart once, and each product
    /// disjunct is normalized once, instead of once per pairwise step.
    /// Every (partial disjunct, operand disjunct) pair counts one
    /// `Disjuncts` unit against the engine budget, as the fold would. With
    /// no operands the result is the whole 0-dimensional space.
    pub fn and_all<'a>(parts: impl IntoIterator<Item = &'a CstObject>) -> CstObject {
        CstObject::product(parts.into_iter().map(Operand::Object))
    }

    /// The product loop of [`and_all`](Self::and_all), generalized to
    /// operands given as a schema and atom lists whose bound variables the
    /// caller has already renamed apart ([`Operand::Lists`]); only
    /// [`Operand::Object`]s are renamed here. The schema, the `Disjuncts`
    /// charge (one unit per (partial disjunct, operand disjunct) pair, in
    /// that order) and the one normalization per product disjunct are
    /// those of `and_all`.
    pub fn product<'a>(operands: impl IntoIterator<Item = Operand<'a>>) -> CstObject {
        let mut free: Vec<Var> = Vec::new();
        // One atom list per disjunct of the product so far; `None` until
        // the first operand arrives.
        let mut product: Option<Vec<Vec<Atom>>> = None;
        for operand in operands {
            let fresh;
            let (schema, disjuncts) = match operand {
                Operand::Object(o) if o.has_bound_vars() => {
                    fresh = o.freshen_bound();
                    (o.free(), DisjunctAtoms::Conjunctions(fresh.disjuncts()))
                }
                Operand::Object(o) => (o.free(), DisjunctAtoms::Conjunctions(o.disjuncts())),
                Operand::Lists(schema, lists) => (schema, DisjunctAtoms::Lists(lists)),
            };
            for v in schema {
                if !free.contains(v) {
                    free.push(v.clone());
                }
            }
            let n = disjuncts.len();
            product = Some(match product {
                None => (0..n).map(|i| disjuncts.get(i).to_vec()).collect(),
                Some(acc) => {
                    let mut next = Vec::with_capacity(acc.len() * n);
                    for mut atoms in acc {
                        // Every operand disjunct but the last joins a copy
                        // of the partial disjunct; the last extends it.
                        for i in 0..n {
                            lyric_engine::note(lyric_engine::Resource::Disjuncts);
                            let d = disjuncts.get(i);
                            if i + 1 < n {
                                let mut joined = Vec::with_capacity(atoms.len() + d.len());
                                joined.extend_from_slice(&atoms);
                                joined.extend_from_slice(d);
                                next.push(joined);
                            } else {
                                atoms.extend_from_slice(d);
                                next.push(atoms);
                                break;
                            }
                        }
                    }
                    next
                }
            });
        }
        let product = product.unwrap_or_else(|| vec![Vec::new()]);
        CstObject::new(free, product.into_iter().map(Conjunction::of))
    }

    /// The one disjunct of [`product`](Self::product)`(operands)` as
    /// borrowed atoms, when every operand has exactly one disjunct and no
    /// [`Operand::Object`] has bound variables for the product to rename
    /// apart; `None` otherwise, and the caller builds the product. The
    /// operands' atoms are gathered in order and normalized by the rule of
    /// [`Conjunction::of`], so the list is the product's disjunct, and the
    /// `Disjuncts` units the product would charge are noted: one per
    /// operand after the first. `product_disjunct(ops).satisfiable()`
    /// equals `product(ops).satisfiable()`, with the same engine counters,
    /// except that sorting more than about twenty borrowed atoms can count
    /// a different number of rational comparisons than sorting them owned
    /// (the standard library's stable sort picks its method by element
    /// size).
    pub fn product_disjunct<'a>(operands: &[Operand<'a>]) -> Option<ConjunctionRef<'a>> {
        let lists = operands
            .iter()
            .map(|operand| match *operand {
                Operand::Object(o) if o.has_bound_vars() => None,
                Operand::Object(o) => match o.disjuncts() {
                    [d] => Some(d.atoms()),
                    _ => None,
                },
                Operand::Lists(_, lists) => match lists {
                    [atoms] => Some(atoms.as_slice()),
                    _ => None,
                },
            })
            .collect::<Option<Vec<&[Atom]>>>()?;
        for _ in 1..lists.len() {
            lyric_engine::note(lyric_engine::Resource::Disjuncts);
        }
        Some(ConjunctionRef::of(&lists))
    }

    /// Logical disjunction (union); schemas are merged like [`and`](Self::and).
    pub fn or(&self, other: &CstObject) -> CstObject {
        let mut free = self.free.clone();
        for v in &other.free {
            if !free.contains(v) {
                free.push(v.clone());
            }
        }
        CstObject::new(free, self.disjuncts.iter().chain(&other.disjuncts).cloned())
    }

    /// Negation — defined for the conjunctive family only (§3.1 rule (a) of
    /// the disjunctive family).
    pub fn negate(&self) -> Result<CstObject, ConstraintError> {
        if self.family() != CstFamily::Conjunctive && !self.disjuncts.is_empty() {
            return Err(ConstraintError::NonConjunctiveNegation);
        }
        if self.disjuncts.is_empty() {
            return Ok(CstObject::top(self.free.clone()));
        }
        let neg = Dnf::negate_conjunction(&self.disjuncts[0]);
        Ok(CstObject::from_dnf(self.free.clone(), &neg))
    }

    /// The projection connective `((new_free) | self)` of §3.1/§4.2 in its
    /// **lazy** form: variables dropped from the schema become
    /// existentially quantified; variables added are unconstrained new
    /// dimensions. Always cheap; discharge quantifiers later with
    /// [`canonicalize`](Self::canonicalize) or [`project_eager`](Self::project_eager).
    pub fn project(&self, new_free: Vec<Var>) -> CstObject {
        CstObject::new(new_free, self.disjuncts.clone())
    }

    /// [`project`](Self::project) of an owned object: the disjuncts move
    /// into the result instead of being cloned.
    pub fn into_projection(self, new_free: Vec<Var>) -> CstObject {
        CstObject::new(new_free, self.disjuncts)
    }

    /// Eager projection: like [`project`](Self::project) but immediately
    /// eliminates all quantified variables by equality substitution,
    /// Fourier–Motzkin, and disequation case-splitting. Total, but may grow
    /// the representation — the restricted families exist precisely to
    /// bound this (benchmark E5).
    pub fn project_eager(&self, new_free: Vec<Var>) -> CstObject {
        let lazy = self.project(new_free);
        lazy.eliminate_bound()
    }

    /// The paper's restricted projection for quantifier-free objects:
    /// eliminates at most one variable or all but one per step (§3.1).
    pub fn project_restricted(&self, new_free: Vec<Var>) -> Result<CstObject, ConstraintError> {
        let eliminated: Vec<&Var> = self.free.iter().filter(|v| !new_free.contains(v)).collect();
        let k = eliminated.len();
        let n = self.free.len();
        if !(k <= 1 || n - k <= 1) {
            return Err(ConstraintError::RestrictedProjection {
                eliminate: k,
                free: n,
            });
        }
        Ok(self.project_eager(new_free))
    }

    /// Eliminate every bound variable eagerly, yielding a quantifier-free
    /// (conjunctive or disjunctive) object.
    pub fn eliminate_bound(&self) -> CstObject {
        let mut out: Vec<Conjunction> = Vec::new();
        for d in &self.disjuncts {
            let bound = self.bound_vars(d);
            let dnf = Dnf::from_conjunction(d.clone()).eliminate_all(bound.iter());
            out.extend(dnf.disjuncts().iter().cloned());
        }
        CstObject::new(self.free.clone(), out)
    }

    /// Exact emptiness test (quantifiers do not affect satisfiability).
    pub fn satisfiable(&self) -> bool {
        self.disjuncts.iter().any(Conjunction::satisfiable)
    }

    /// Membership test for a concrete point over the schema: substitute and
    /// decide the residual existential conjunction.
    pub fn contains_point(&self, values: &[Rational]) -> bool {
        assert_eq!(values.len(), self.free.len(), "point dimension mismatch");
        self.disjuncts.iter().any(|d| {
            let mut g = d.clone();
            for (v, val) in self.free.iter().zip(values) {
                g = g.substitute(v, &LinExpr::constant(val.clone()));
            }
            g.satisfiable()
        })
    }

    /// A concrete point of the set, if nonempty: values follow the schema
    /// order.
    pub fn find_point(&self) -> Option<Vec<Rational>> {
        for d in &self.disjuncts {
            if let Some(p) = d.find_point() {
                return Some(
                    self.free
                        .iter()
                        .map(|v| p.get(v).cloned().unwrap_or_else(Rational::zero))
                        .collect(),
                );
            }
        }
        None
    }

    /// Entailment `self |= other` — point-set containment. The schemas are
    /// aligned **positionally** (§4.1: "CST expressions are invariant to
    /// variable names"); arities must match. Operands are eagerly projected
    /// to quantifier-free form first, per §4.2's restriction of `|=` to
    /// disjunctive formulas.
    pub fn implies(&self, other: &CstObject) -> bool {
        assert_eq!(
            self.arity(),
            other.arity(),
            "|= requires objects of equal dimension"
        );
        let lhs = self.eliminate_bound();
        let rhs = other.align_to(&self.free).eliminate_bound();
        let l = Dnf::of(lhs.disjuncts.iter().cloned());
        let r = Dnf::of(rhs.disjuncts.iter().cloned());
        l.implies(&r)
    }

    /// Same point set? (Mutual entailment; the semantic comparison behind
    /// CST-object identity, since canonical forms are not unique — §3.1.)
    pub fn denotes_same(&self, other: &CstObject) -> bool {
        self.implies(other) && other.implies(self)
    }

    /// Rename this object's schema positionally to `target`, α-renaming
    /// bound variables out of the way in the same pass (a disjunct without
    /// bound variables is only renamed positionally).
    pub fn align_to(&self, target: &[Var]) -> CstObject {
        assert_eq!(target.len(), self.free.len());
        if target == self.free {
            return self.clone();
        }
        let positional: BTreeMap<Var, Var> = self
            .free
            .iter()
            .cloned()
            .zip(target.iter().cloned())
            .collect();
        CstObject::new(
            target.to_vec(),
            self.disjuncts.iter().map(|d| {
                let bound = self.bound_vars(d);
                if bound.is_empty() {
                    return d.rename(&positional);
                }
                let mut map = positional.clone();
                for v in bound {
                    let fresh = Var::fresh(v.name(), fresh_counter());
                    map.insert(v, fresh);
                }
                d.rename(&map)
            }),
        )
    }

    /// Substitute a schema variable by a constant, dropping it from the
    /// schema (a geometric *slice*, e.g. the paper's "projection of their
    /// cut at the height of 1/2 feet").
    pub fn slice(&self, v: &Var, value: &Rational) -> CstObject {
        let free: Vec<Var> = self.free.iter().filter(|f| *f != v).cloned().collect();
        CstObject::new(
            free,
            self.disjuncts
                .iter()
                .map(|d| d.substitute(v, &LinExpr::constant(value.clone()))),
        )
    }

    /// Maximize a linear objective over the point set (the `MAX … SUBJECT
    /// TO` operator). The objective may only mention schema variables.
    pub fn maximize(&self, objective: &LinExpr) -> Extremum {
        self.optimize(objective, true)
    }

    /// Minimize a linear objective over the point set.
    pub fn minimize(&self, objective: &LinExpr) -> Extremum {
        self.optimize(objective, false)
    }

    fn optimize(&self, objective: &LinExpr, maximize: bool) -> Extremum {
        // α-rename bound vars away from objective variables, then optimize
        // each disjunct over all its variables: optimizing a function of
        // the free variables over the lifted set equals optimizing over the
        // projection.
        let obj_vars = objective.vars();
        assert!(
            obj_vars.iter().all(|v| self.free.contains(v)),
            "objective mentions non-schema variables"
        );
        let safe = self.freshen_bound();
        let mut best: Option<Extremum> = None;
        for d in &safe.disjuncts {
            // Ground objective vars that the disjunct leaves unconstrained
            // would be unbounded — Conjunction::optimize handles that; but a
            // schema var absent from the disjunct must still be seen as
            // free, which it is.
            let e = if maximize {
                d.maximize(objective)
            } else {
                d.minimize(objective)
            };
            match e {
                Extremum::Infeasible => continue,
                Extremum::Unbounded => return Extremum::Unbounded,
                Extremum::Finite {
                    bound,
                    attained,
                    witness,
                } => {
                    let replace = match &best {
                        None => true,
                        Some(Extremum::Finite {
                            bound: b,
                            attained: a,
                            ..
                        }) => {
                            if maximize {
                                bound > *b || (bound == *b && attained && !a)
                            } else {
                                bound < *b || (bound == *b && attained && !a)
                            }
                        }
                        Some(_) => false,
                    };
                    if replace {
                        best = Some(Extremum::Finite {
                            bound,
                            attained,
                            witness,
                        });
                    }
                }
            }
        }
        best.unwrap_or(Extremum::Infeasible)
    }

    /// Per-dimension bounds of the point set: `(min, max)` per schema
    /// variable, `None` for an unbounded side. Empty sets return `None`
    /// overall.
    #[allow(clippy::type_complexity)]
    pub fn bounding_box(&self) -> Option<Vec<(Option<Rational>, Option<Rational>)>> {
        if !self.satisfiable() {
            return None;
        }
        let mut out = Vec::with_capacity(self.free.len());
        for v in &self.free {
            let e = LinExpr::var(v.clone());
            let lo = match self.minimize(&e) {
                Extremum::Finite { bound, .. } => Some(bound),
                _ => None,
            };
            let hi = match self.maximize(&e) {
                Extremum::Finite { bound, .. } => Some(bound),
                _ => None,
            };
            out.push((lo, hi));
        }
        Some(out)
    }
}

impl fmt::Display for CstObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "((")?;
        for (i, v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") | ")?;
        if self.disjuncts.is_empty() {
            write!(f, "false")?;
        }
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            let bound = self.bound_vars(d);
            if bound.is_empty() {
                write!(f, "{d}")?;
            } else {
                write!(f, "∃")?;
                for (j, b) in bound.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ". {d}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn e(n: &str) -> LinExpr {
        LinExpr::var(v(n))
    }
    fn c(n: i64) -> LinExpr {
        LinExpr::constant(Rational::from_int(n))
    }
    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    /// The desk extent of Figure 2: −4 ≤ w ≤ 4 ∧ −2 ≤ z ≤ 2.
    fn desk_extent() -> CstObject {
        CstObject::from_conjunction(
            vec![v("w"), v("z")],
            Conjunction::of([
                Atom::ge(e("w"), c(-4)),
                Atom::le(e("w"), c(4)),
                Atom::ge(e("z"), c(-2)),
                Atom::le(e("z"), c(2)),
            ]),
        )
    }

    /// The desk translation of Figure 2: u = x + w ∧ v = y + z.
    fn desk_translation() -> CstObject {
        CstObject::from_conjunction(
            vec![v("w"), v("z"), v("x"), v("y"), v("u"), v("v")],
            Conjunction::of([
                Atom::eq(e("u"), e("x") + e("w")),
                Atom::eq(e("v"), e("y") + e("z")),
            ]),
        )
    }

    #[test]
    fn family_classification() {
        assert_eq!(desk_extent().family(), CstFamily::Conjunctive);
        let two = desk_extent().or(&desk_extent()
            .slice(&v("z"), &r(0))
            .project(vec![v("w"), v("z")]));
        // (slice + reproject keeps it quantifier-free; two distinct disjuncts)
        assert!(matches!(
            two.family(),
            CstFamily::Disjunctive | CstFamily::Conjunctive
        ));
        let lazy = desk_translation().project(vec![v("u"), v("v")]);
        assert_eq!(lazy.family(), CstFamily::ExistentialConjunctive);
    }

    #[test]
    fn paper_worked_example_extent_in_room_coordinates() {
        // ((u,v) | E(w,z) ∧ D(w,z,x,y,u,v) ∧ x = 6 ∧ y = 4), §4.1 —
        // must denote 2 ≤ u ≤ 10 ∧ 2 ≤ v ≤ 6.
        let formula = desk_extent()
            .and(&desk_translation())
            .and(&CstObject::from_conjunction(
                vec![v("x"), v("y")],
                Conjunction::of([Atom::eq(e("x"), c(6)), Atom::eq(e("y"), c(4))]),
            ));
        let projected = formula.project_eager(vec![v("u"), v("v")]);
        let expected = CstObject::from_conjunction(
            vec![v("u"), v("v")],
            Conjunction::of([
                Atom::ge(e("u"), c(2)),
                Atom::le(e("u"), c(10)),
                Atom::ge(e("v"), c(2)),
                Atom::le(e("v"), c(6)),
            ]),
        );
        assert!(projected.denotes_same(&expected), "got {projected}");
        // The lazy projection denotes the same set without eliminating.
        let lazy = formula.project(vec![v("u"), v("v")]);
        assert!(lazy.denotes_same(&expected));
    }

    #[test]
    fn and_joins_on_shared_names_or_renames_bound_apart() {
        // Two unit intervals on the same variable intersect...
        let a = CstObject::from_conjunction(
            vec![v("t")],
            Conjunction::of([Atom::ge(e("t"), c(0)), Atom::le(e("t"), c(10))]),
        );
        let b = CstObject::from_conjunction(
            vec![v("t")],
            Conjunction::of([Atom::ge(e("t"), c(5)), Atom::le(e("t"), c(20))]),
        );
        let both = a.and(&b);
        assert_eq!(both.arity(), 1);
        assert!(both.contains_point(&[r(7)]));
        assert!(!both.contains_point(&[r(2)]));
        // ...while bound variables never capture: ∃q. t = q over [0,1]
        // conjoined with ∃q. t = -q over [0,1] stays satisfiable.
        let c1 = CstObject::new(
            vec![v("t")],
            [Conjunction::of([
                Atom::eq(e("t"), e("q")),
                Atom::ge(e("q"), c(0)),
                Atom::le(e("q"), c(1)),
            ])],
        );
        let c2 = CstObject::new(
            vec![v("t")],
            [Conjunction::of([
                Atom::eq(e("t"), -&e("q")),
                Atom::ge(e("q"), c(-1)),
                Atom::le(e("q"), c(0)),
            ])],
        );
        let j = c1.and(&c2);
        // t ∈ [0,1] via q, and t ∈ [0,1] via the second q′: nonempty.
        assert!(j.satisfiable());
        assert!(j.contains_point(&[Rational::from_pair(1, 2)]));
    }

    #[test]
    fn and_all_edge_cases() {
        // No operands: the whole 0-dimensional space.
        let none = CstObject::and_all([]);
        assert!(none.free().is_empty() && none.satisfiable());
        // One operand: itself, up to bound-variable names.
        let lazy = desk_translation().project(vec![v("u"), v("v")]);
        let one = CstObject::and_all([&lazy]);
        assert_eq!(one.free(), lazy.free());
        assert!(one.denotes_same(&lazy));
        // The Figure 2 chain in one call equals the pairwise chain.
        let placed = CstObject::from_conjunction(
            vec![v("x"), v("y")],
            Conjunction::of([Atom::eq(e("x"), c(6)), Atom::eq(e("y"), c(4))]),
        );
        let parts = [desk_extent(), desk_translation(), placed];
        let all = CstObject::and_all(&parts);
        assert_eq!(all, parts[0].and(&parts[1]).and(&parts[2]));
        assert!(all.contains_point(&[r(4), r(2), r(6), r(4), r(10), r(6)]));
    }

    #[test]
    fn or_union_and_membership() {
        let left = CstObject::from_conjunction(
            vec![v("x")],
            Conjunction::of([Atom::ge(e("x"), c(0)), Atom::le(e("x"), c(1))]),
        );
        let right = CstObject::from_conjunction(
            vec![v("x")],
            Conjunction::of([Atom::ge(e("x"), c(5)), Atom::le(e("x"), c(6))]),
        );
        let u = left.or(&right);
        assert!(u.contains_point(&[r(0)]));
        assert!(u.contains_point(&[r(6)]));
        assert!(!u.contains_point(&[r(3)]));
        assert_eq!(u.family(), CstFamily::Disjunctive);
    }

    #[test]
    fn negation_rules() {
        let box1 = desk_extent();
        let neg = box1.negate().unwrap();
        assert!(!neg.contains_point(&[r(0), r(0)]));
        assert!(neg.contains_point(&[r(9), r(0)]));
        // Disjunctive objects refuse negation.
        let u = box1.or(&CstObject::from_conjunction(
            vec![v("w"), v("z")],
            Conjunction::of([Atom::ge(e("w"), c(100))]),
        ));
        assert_eq!(u.negate(), Err(ConstraintError::NonConjunctiveNegation));
        // Bottom negates to top.
        let bot = CstObject::bottom(vec![v("w")]);
        assert!(bot.negate().unwrap().contains_point(&[r(42)]));
    }

    #[test]
    fn projection_adds_and_removes_dimensions() {
        // §3.1: "a projection can add new free variables".
        let seg = CstObject::from_conjunction(
            vec![v("x")],
            Conjunction::of([Atom::ge(e("x"), c(0)), Atom::le(e("x"), c(1))]),
        );
        let cyl = seg.project(vec![v("x"), v("y")]);
        assert_eq!(cyl.arity(), 2);
        assert!(cyl.contains_point(&[r(0), r(999)])); // y unconstrained
                                                      // Dropping a dimension quantifies it.
        let shadow = cyl.project_eager(vec![v("y")]);
        assert!(shadow.contains_point(&[r(-5)]));
    }

    #[test]
    fn restricted_projection_rule_on_objects() {
        let cube = CstObject::from_conjunction(
            vec![v("a"), v("b"), v("c"), v("d")],
            Conjunction::of([
                Atom::le(e("a") + e("b") + e("c") + e("d"), c(1)),
                Atom::ge(e("a"), c(0)),
                Atom::ge(e("b"), c(0)),
                Atom::ge(e("c"), c(0)),
                Atom::ge(e("d"), c(0)),
            ]),
        );
        assert!(cube
            .project_restricted(vec![v("a"), v("b"), v("c")])
            .is_ok());
        assert!(cube.project_restricted(vec![v("a")]).is_ok());
        assert!(matches!(
            cube.project_restricted(vec![v("a"), v("b")]),
            Err(ConstraintError::RestrictedProjection { .. })
        ));
    }

    #[test]
    fn implies_is_positional() {
        let named_uv = CstObject::from_conjunction(
            vec![v("u"), v("v")],
            Conjunction::of([Atom::ge(e("u"), c(0)), Atom::ge(e("v"), c(0))]),
        );
        let named_ab = CstObject::from_conjunction(
            vec![v("a"), v("b")],
            Conjunction::of([Atom::ge(e("a"), c(1)), Atom::ge(e("b"), c(1))]),
        );
        assert!(named_ab.implies(&named_uv));
        assert!(!named_uv.implies(&named_ab));
        assert!(named_uv.denotes_same(&named_uv.align_to(&[v("p"), v("q")])));
    }

    #[test]
    fn implies_discharges_quantifiers() {
        // ∃w. (u = w + 1 ∧ 0 ≤ w ≤ 1) |= 1 ≤ u ≤ 2.
        let lifted = CstObject::new(
            vec![v("u")],
            [Conjunction::of([
                Atom::eq(e("u"), e("w") + c(1)),
                Atom::ge(e("w"), c(0)),
                Atom::le(e("w"), c(1)),
            ])],
        );
        let direct = CstObject::from_conjunction(
            vec![v("u")],
            Conjunction::of([Atom::ge(e("u"), c(1)), Atom::le(e("u"), c(2))]),
        );
        assert!(lifted.denotes_same(&direct));
    }

    #[test]
    fn slice_cut_at_height() {
        // The §1.2 query: "show a projection of their cut at the height of
        // 1/2 feet" — slice z = 1/2 of the desk extent.
        let cut = desk_extent().slice(&v("z"), &Rational::from_pair(1, 2));
        assert_eq!(cut.arity(), 1);
        assert!(cut.contains_point(&[r(4)]));
        assert!(!cut.contains_point(&[r(5)]));
        // Slicing outside the extent gives the empty set.
        let empty = desk_extent().slice(&v("z"), &r(3));
        assert!(!empty.satisfiable());
    }

    #[test]
    fn optimization_over_union() {
        let u = CstObject::from_conjunction(
            vec![v("x")],
            Conjunction::of([Atom::ge(e("x"), c(0)), Atom::le(e("x"), c(1))]),
        )
        .or(&CstObject::from_conjunction(
            vec![v("x")],
            Conjunction::of([Atom::ge(e("x"), c(5)), Atom::lt(e("x"), c(7))]),
        ));
        match u.maximize(&e("x")) {
            Extremum::Finite {
                bound, attained, ..
            } => {
                assert_eq!(bound, r(7));
                assert!(!attained);
            }
            other => panic!("unexpected {other:?}"),
        }
        match u.minimize(&e("x")) {
            Extremum::Finite {
                bound, attained, ..
            } => {
                assert_eq!(bound, r(0));
                assert!(attained);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounding_box() {
        let bb = desk_extent().bounding_box().unwrap();
        assert_eq!(bb[0], (Some(r(-4)), Some(r(4))));
        assert_eq!(bb[1], (Some(r(-2)), Some(r(2))));
        let half =
            CstObject::from_conjunction(vec![v("x")], Conjunction::of([Atom::ge(e("x"), c(0))]));
        assert_eq!(half.bounding_box().unwrap()[0], (Some(r(0)), None));
        assert!(CstObject::bottom(vec![v("x")]).bounding_box().is_none());
    }

    #[test]
    fn point_constructor_and_membership() {
        let p = CstObject::point(vec![v("x"), v("y")], &[r(3), r(-1)]);
        assert!(p.contains_point(&[r(3), r(-1)]));
        assert!(!p.contains_point(&[r(3), r(0)]));
        assert_eq!(p.find_point(), Some(vec![r(3), r(-1)]));
    }

    #[test]
    fn display_shows_schema_and_quantifiers() {
        let lazy = desk_translation().project(vec![v("u"), v("v")]);
        let s = lazy.to_string();
        assert!(s.starts_with("((u,v) |"), "{s}");
        assert!(s.contains("∃"), "{s}");
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_schema_rejected() {
        let _ = CstObject::top(vec![v("x"), v("x")]);
    }
}
