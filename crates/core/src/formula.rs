//! CST-formula templates (§4.2).
//!
//! Every CST formula site of a query — each WHERE `(φ)`, both sides of
//! each `φ |= ψ`, each SELECT formula and each `SUBJECT TO` formula — is
//! compiled once per query into a [`Template`], which is then spliced into
//! a [`CstObject`] per binding:
//!
//! 1. a chain that reads no path constant and no variable a binding can
//!    hold is lowered and normalized at compile time (a *constant* part);
//!    any other chain, and any chain whose lowering fails at compile time,
//!    is lowered per binding at its textual place, so every runtime error
//!    surfaces at the same binding, in the same order, with the same
//!    message;
//! 2. every `O(x₁,…,xₙ)` reference is a *slot*: per binding its path
//!    resolves to a stored constraint object, which is renamed
//!    positionally to the query variables (schema names are copied when
//!    the list is omitted), its bound variables renamed apart to names
//!    fixed by the slot; a slot whose list equals the object's schema and
//!    whose object has no bound variables is spliced as stored;
//! 3. the schema-derived implicit equalities (see [`crate::scope`]) are
//!    derived per binding, because which references alias depends on the
//!    access chains the binding reaches, and conjoined **before the
//!    outermost projection is applied** — the paper's rule "to create an
//!    oid of a new CST object, we first add implicit constraint derived by
//!    the schema".
//!
//! The top-level conjuncts and the equalities go to one
//! [`CstObject::product`], which normalizes each product disjunct once.
//! OR, NOT and nested projections compile to sub-templates that are built
//! into objects per binding; their slots feed the same equality
//! derivation. The result is not canonicalized: a WHERE `(φ)` only decides
//! emptiness, which canonicalization preserves, while a SELECT item
//! canonicalizes when it becomes an oid (§3.1) and an optimization
//! canonicalizes before its LP.

use crate::ast::{Arith, CRelOp, Formula, PathExpr, Selector};
use crate::error::LyricError;
use crate::eval::{eval_path, Binding, Ctx, Provenance};
use crate::scope::{implicit_equalities, ResolvedPred, ScopeKey, ScopeLink};
use lyric_arith::Rational;
use lyric_constraint::{
    Atom, Conjunction, ConjunctionRef, CstObject, Interval, IntervalBox, LinExpr, Operand, RelOp,
    Var,
};
use lyric_oodb::Oid;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A CST formula compiled once per query. Read-only after compilation, so
/// the workers of a parallel evaluation share it.
pub(crate) struct Template<'q> {
    /// The outer projection, applied last.
    proj: Option<Vec<Var>>,
    /// The top-level conjuncts, in textual order.
    parts: Vec<Part<'q>>,
    /// Source range of the formula, for the `instantiate` span.
    source: Option<(usize, usize)>,
}

/// One conjunct of a template.
#[derive(Clone)]
enum Part<'q> {
    /// A chain lowered and normalized at compile time, and its number of
    /// adjacent pairs as written (the EXPLAIN label counts these, since
    /// normalization drops or merges atoms depending on the literals).
    Const {
        obj: CstObject,
        pairs: usize,
    },
    /// A chain lowered per binding: it reads a path constant or a variable
    /// a binding can hold, or its lowering failed at compile time.
    Chain {
        first: &'q Arith,
        rest: &'q [(CRelOp, Arith)],
    },
    /// An `O(x₁,…,xₙ)` reference.
    Slot(Slot<'q>),
    /// A nested `AND` (under an OR, a NOT or a projection).
    And(Vec<Part<'q>>),
    Or(Box<Part<'q>>, Box<Part<'q>>),
    Not(Box<Part<'q>>),
    /// A nested projection: lazy re-binding (see the module docs of
    /// `lyric_constraint::cst_object`); the implicit equalities are
    /// injected once, at the root.
    Proj(Vec<Var>, Box<Part<'q>>),
}

/// A CST-object reference of a template.
#[derive(Clone)]
struct Slot<'q> {
    path: &'q PathExpr,
    /// The explicit variable list; `None` copies the schema's (§4.2).
    vars: Option<Vec<Var>>,
    /// Preorder number within the template: it names the slot's renamed
    /// bound variables.
    index: usize,
}

impl<'q> Template<'q> {
    /// Compile a WHERE `(φ)`, a SELECT formula or a `SUBJECT TO` formula.
    /// `bindable` names every variable a binding of the query can hold:
    /// a chain that reads one is lowered per binding.
    pub(crate) fn compile(f: &'q Formula, bindable: &BTreeSet<String>) -> Template<'q> {
        match f {
            Formula::Proj { vars, body, .. } => Template {
                proj: Some(vars.iter().map(Var::new).collect()),
                ..Template::body(body, f, bindable)
            },
            _ => Template::body(f, f, bindable),
        }
    }

    /// Compile one side of an entailment `φ |= ψ`. Projections on its
    /// operands only rebind variables; entailment is evaluated over the
    /// full variable space (§4.2 quantifies over all free variables of
    /// both sides), so every outer projection is transparent here.
    pub(crate) fn compile_side(f: &'q Formula, bindable: &BTreeSet<String>) -> Template<'q> {
        let mut body = f;
        while let Formula::Proj { body: inner, .. } = body {
            body = inner;
        }
        Template::body(body, f, bindable)
    }

    fn body(body: &'q Formula, site: &Formula, bindable: &BTreeSet<String>) -> Template<'q> {
        let mut slots = 0;
        Template {
            proj: None,
            parts: body
                .conjuncts()
                .into_iter()
                .map(|c| Part::compile(c, bindable, &mut slots))
                .collect(),
            source: site.span().byte_range(),
        }
    }

    /// Splice the template under `binding` (§4.2).
    pub(crate) fn instantiate(
        &self,
        ctx: &Ctx<'_>,
        binding: &Binding<'_>,
    ) -> Result<CstObject, LyricError> {
        let _span = lyric_engine::span(
            lyric_engine::SpanKind::Instantiate,
            String::new,
            self.source,
        );
        let (splice, pieces) = self.splice(ctx, binding)?;
        let obj = splice.conjoin(pieces);
        Ok(match &self.proj {
            Some(vars) => obj.project(vars.clone()),
            None => obj,
        })
    }

    /// Splice the conjuncts under `binding` and append the implicit
    /// equalities of the references they resolved.
    fn splice<'c>(
        &'c self,
        ctx: &'c Ctx<'c>,
        binding: &'c Binding<'c>,
    ) -> Result<(Splice<'c>, Vec<Piece<'c>>), LyricError> {
        let mut splice = Splice::new(ctx, binding);
        let mut pieces = splice.parts(&self.parts)?;
        pieces.extend(splice.equalities().map(Piece::Built));
        Ok((splice, pieces))
    }

    /// Decide a WHERE `(φ)` under `binding`: the emptiness of the object
    /// [`instantiate`](Self::instantiate) would build, with the same
    /// answer and errors, and the same engine counters but for the
    /// comparisons a sort counts as arithmetic operations. When every
    /// conjunct has one disjunct and none has bound variables the product
    /// would rename apart, the product's one disjunct is decided on the
    /// conjuncts' borrowed atoms ([`CstObject::product_disjunct`], which
    /// notes when its sort counts other comparisons), and a lone stored or
    /// built conjunct is decided as it is. Every other shape (a conjunct
    /// with zero or several disjuncts, an object conjunct with bound
    /// variables) builds the product as `instantiate` does. An outer
    /// projection `((vars) | φ)` is skipped: it keeps φ's disjuncts,
    /// already sorted, so it keeps φ's emptiness. The `instantiate` span
    /// covers the splice, the gathering and the normalization; the
    /// decision runs outside it.
    pub(crate) fn satisfiable(
        &self,
        ctx: &Ctx<'_>,
        binding: &Binding<'_>,
    ) -> Result<bool, LyricError> {
        self.decide(ctx, binding, CstObject::satisfiable, |disjunct| {
            disjunct.satisfiable()
        })
    }

    /// Decide a restricted template ([`restrict`](Self::restrict)) under
    /// `binding` by the interval box alone: `false` when the box of every
    /// disjunct of the object [`satisfiable`](Self::satisfiable) decides
    /// is empty, which proves that object empty, else `true`. It runs no
    /// LP, reads the box whatever `ExecOptions::boxes` says, and counts
    /// no sat or box check: it is the planner's filter, not a decision of
    /// the query's `(φ)`, which the full template still makes on every
    /// pair that passes.
    pub(crate) fn box_admits(
        &self,
        ctx: &Ctx<'_>,
        binding: &Binding<'_>,
    ) -> Result<bool, LyricError> {
        fn admits<A: Borrow<Atom>>(atoms: &[A]) -> bool {
            !IntervalBox::of_atoms(atoms).is_empty()
        }
        self.decide(
            ctx,
            binding,
            |obj| obj.disjuncts().iter().any(|d| admits(d.atoms())),
            |disjunct| disjunct.atoms().is_some_and(admits),
        )
    }

    /// Splice under `binding` and decide the conjunction with `object`,
    /// or with `disjunct` when it has one disjunct the product need not
    /// build (see [`satisfiable`](Self::satisfiable)).
    fn decide(
        &self,
        ctx: &Ctx<'_>,
        binding: &Binding<'_>,
        object: impl Fn(&CstObject) -> bool,
        disjunct: impl Fn(&ConjunctionRef<'_>) -> bool,
    ) -> Result<bool, LyricError> {
        let span = lyric_engine::span(
            lyric_engine::SpanKind::Instantiate,
            String::new,
            self.source,
        );
        let (splice, pieces) = self.splice(ctx, binding)?;
        let operands: Vec<Operand<'_>> = pieces.iter().map(|p| splice.operand(p)).collect();
        if let [Operand::Object(obj)] = operands[..] {
            // Its disjuncts are normalized already, and a lone conjunct is
            // never renamed apart.
            drop(span);
            return Ok(object(obj));
        }
        if let Some(one) = CstObject::product_disjunct(&operands) {
            drop(span);
            return Ok(disjunct(&one));
        }
        drop(operands);
        let obj = splice.conjoin(pieces);
        drop(span);
        Ok(object(&obj))
    }

    /// The positional query window of a `Sat` template for the reference
    /// `member(v₁,…,vₖ)` to a `k`-ary CST attribute: the box of the
    /// template's constant atoms read at each `vᵢ`. Only a template of
    /// exactly that one slot (a bare `member` with an explicit list) and
    /// constant parts has one. Constant chains may mention further
    /// variables; the box treats them as free, which only *widens* the
    /// reading, so the window stays a sound over-approximation.
    pub(crate) fn window(
        &self,
        member: &str,
        arity: usize,
        declared: &BTreeSet<String>,
    ) -> Option<Vec<Interval>> {
        if self.proj.is_some() {
            return None;
        }
        let mut slot = None;
        let mut atoms: Vec<Atom> = Vec::new();
        for part in &self.parts {
            match part {
                Part::Slot(s) if slot.is_none() => slot = Some(s),
                Part::Const { obj, .. } => {
                    // A false constant part has no disjunct and no box
                    // reading; the Sat checks decide it.
                    let [d] = obj.disjuncts() else { return None };
                    atoms.extend_from_slice(d.atoms());
                }
                _ => return None,
            }
        }
        let slot = slot?;
        match &slot.path.root {
            Selector::Var(v) if v == member && slot.path.steps.is_empty() => {}
            _ => return None,
        }
        let vars = slot.vars.as_ref()?;
        if vars.len() != arity || atoms.is_empty() {
            return None;
        }
        // A renaming variable that is also a query variable would be
        // substituted per binding by the evaluator; the positional reading
        // below would then be meaningless. Refuse to prune.
        if vars.iter().any(|v| declared.contains(v.name())) {
            return None;
        }
        let bx = IntervalBox::of_atoms(&atoms);
        if bx.is_empty() {
            // The chains alone are unsatisfiable; an empty box has no
            // per-variable reading, so let the Sat checks decide.
            return None;
        }
        Some(vars.iter().map(|v| bx.interval(v)).collect())
    }

    /// The restricted template of a WHERE `(φ)` for one FROM variable:
    /// the top-level slots whose paths `keep` admits and the constant
    /// parts, in textual order, with the slots' numbering kept so their
    /// bound variables are renamed apart alike. It is a sub-conjunction of
    /// the `(φ)`, and [`box_admits`](Self::box_admits) derives its
    /// implicit equalities from its own slots and the binding's links, a
    /// subset of what the full `(φ)` derives on any binding that extends
    /// this one; so wherever the full `(φ)` holds, the restricted one
    /// does, and its box is not empty. `None` unless a constant part
    /// shares a variable with a kept slot's explicit list, the case the
    /// check is for: a window on the variable's own objects.
    pub(crate) fn restrict(&self, keep: impl Fn(&PathExpr) -> bool) -> Option<Template<'q>> {
        let parts: Vec<Part<'q>> = (self.parts.iter())
            .filter(|part| match part {
                Part::Slot(s) => keep(s.path),
                Part::Const { .. } => true,
                _ => false,
            })
            .cloned()
            .collect();
        let slot_vars: BTreeSet<&Var> = (parts.iter())
            .filter_map(|part| match part {
                Part::Slot(s) => s.vars.as_ref(),
                _ => None,
            })
            .flatten()
            .collect();
        let shared = parts.iter().any(|part| {
            matches!(part, Part::Const { obj, .. } if obj.free().iter().any(|v| slot_vars.contains(v)))
        });
        shared.then_some(Template {
            proj: None,
            parts,
            source: self.source,
        })
    }

    /// Source range of the formula.
    pub(crate) fn source(&self) -> Option<(usize, usize)> {
        self.source
    }

    /// The EXPLAIN label: the slot paths in order, then the counts of
    /// constant atoms and of per-binding chains. It carries no literal
    /// value, so queries that differ only in constants label alike.
    pub(crate) fn label(&self) -> String {
        fn walk(p: &Part<'_>, slots: &mut Vec<String>, atoms: &mut usize, chains: &mut usize) {
            match p {
                Part::Const { pairs, .. } => *atoms += pairs,
                Part::Chain { .. } => *chains += 1,
                Part::Slot(s) => slots.push(display_path(s.path)),
                Part::And(ps) => ps.iter().for_each(|p| walk(p, slots, atoms, chains)),
                Part::Or(a, b) => {
                    walk(a, slots, atoms, chains);
                    walk(b, slots, atoms, chains);
                }
                Part::Not(a) | Part::Proj(_, a) => walk(a, slots, atoms, chains),
            }
        }
        let (mut slots, mut atoms, mut chains) = (Vec::new(), 0, 0);
        for p in &self.parts {
            walk(p, &mut slots, &mut atoms, &mut chains);
        }
        let slots = if slots.is_empty() {
            "no slots".to_string()
        } else {
            slots.join(", ")
        };
        format!("{slots}; {atoms} constant atoms, {chains} per-binding chains")
    }
}

impl<'q> Part<'q> {
    fn compile(f: &'q Formula, bindable: &BTreeSet<String>, slots: &mut usize) -> Part<'q> {
        match f {
            Formula::And(..) => Part::And(
                f.conjuncts()
                    .into_iter()
                    .map(|c| Part::compile(c, bindable, slots))
                    .collect(),
            ),
            Formula::Or(a, b) => {
                let l = Part::compile(a, bindable, slots);
                let r = Part::compile(b, bindable, slots);
                Part::Or(Box::new(l), Box::new(r))
            }
            Formula::Not(a) => Part::Not(Box::new(Part::compile(a, bindable, slots))),
            Formula::Proj { vars, body, .. } => Part::Proj(
                vars.iter().map(Var::new).collect(),
                Box::new(Part::compile(body, bindable, slots)),
            ),
            Formula::Pred { path, vars } => {
                *slots += 1;
                Part::Slot(Slot {
                    path,
                    vars: vars.as_ref().map(|vs| vs.iter().map(Var::new).collect()),
                    index: *slots - 1,
                })
            }
            Formula::Chain { first, rest, .. } => {
                let constant = !reads_binding(first, bindable)
                    && rest.iter().all(|(_, a)| !reads_binding(a, bindable));
                let lowered = constant
                    .then(|| lower_chain(first, rest, crate::storage::arith_to_linexpr_pure).ok())
                    .flatten();
                match lowered {
                    Some(obj) => Part::Const {
                        obj,
                        pairs: rest.len(),
                    },
                    None => Part::Chain { first, rest },
                }
            }
        }
    }
}

/// Does the expression read a path constant or a variable a binding can
/// hold?
fn reads_binding(a: &Arith, bindable: &BTreeSet<String>) -> bool {
    match a {
        Arith::Num(_) => false,
        Arith::Var(name) => bindable.contains(name),
        Arith::PathConst(_) => true,
        Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
            reads_binding(x, bindable) || reads_binding(y, bindable)
        }
        Arith::Neg(x) => reads_binding(x, bindable),
    }
}

/// Lower a chain `a₁ op₁ a₂ op₂ … aₖ` to the conjunction of its adjacent
/// pairs, over the sorted variables it mentions. `arith` lowers one
/// pseudo-linear expression.
pub(crate) fn lower_chain(
    first: &Arith,
    rest: &[(CRelOp, Arith)],
    arith: impl FnMut(&Arith) -> Result<LinExpr, LyricError>,
) -> Result<CstObject, LyricError> {
    let conj = Conjunction::of(chain_atoms(first, rest, arith)?);
    let free: Vec<Var> = conj.vars().into_iter().collect();
    Ok(CstObject::from_conjunction(free, conj))
}

/// The atoms of a chain's adjacent pairs, in textual order and not yet
/// normalized as a conjunction.
pub(crate) fn chain_atoms(
    first: &Arith,
    rest: &[(CRelOp, Arith)],
    mut arith: impl FnMut(&Arith) -> Result<LinExpr, LyricError>,
) -> Result<Vec<Atom>, LyricError> {
    let mut atoms = Vec::with_capacity(rest.len());
    let mut prev = arith(first)?;
    for (op, next) in rest {
        let rhs = arith(next)?;
        let relop = match op {
            CRelOp::Eq => RelOp::Eq,
            CRelOp::Neq => RelOp::Neq,
            CRelOp::Le => RelOp::Le,
            CRelOp::Lt => RelOp::Lt,
            CRelOp::Ge => RelOp::Ge,
            CRelOp::Gt => RelOp::Gt,
        };
        let lhs = std::mem::replace(&mut prev, rhs);
        atoms.push(Atom::new(lhs, relop, prev.clone()));
    }
    Ok(atoms)
}

/// Decide an entailment predicate `φ |= ψ` under `binding`, from the
/// templates of its two sides. The implicit equalities are derived from
/// the references of *both* sides and conjoined to the left one (they are
/// context, so `Γ ∧ φ |= ψ`).
///
/// Variable spaces are unified **by name** (the paper's `(C(p,q) |= p=0)`),
/// except when the two sides' variable sets are disjoint with equal arity —
/// then they are aligned **positionally** (the paper's bare `(U |= X)` over
/// an `extent` and a `Region`, whose schema names differ).
pub(crate) fn entails(
    ctx: &Ctx<'_>,
    lhs: &Template<'_>,
    rhs: &Template<'_>,
    binding: &Binding<'_>,
) -> Result<bool, LyricError> {
    let mut splice = Splice::new(ctx, binding);
    let mut l = splice.parts(&lhs.parts)?;
    let r = splice.parts(&rhs.parts)?;
    l.extend(splice.equalities().map(Piece::Built));
    let lhs = splice.conjoin(l);
    let rhs = splice.conjoin(r);

    let lf: BTreeSet<&Var> = lhs.free().iter().collect();
    let rf: BTreeSet<&Var> = rhs.free().iter().collect();
    if !rf.is_empty() && lf.is_disjoint(&rf) && lhs.arity() == rhs.arity() {
        // Positional alignment.
        Ok(lhs.implies(&rhs))
    } else {
        // Nominal: lift both sides to the union variable space.
        let mut union: Vec<Var> = lhs.free().to_vec();
        for v in rhs.free() {
            if !union.contains(v) {
                union.push(v.clone());
            }
        }
        let l = lhs.project(union.clone());
        let r = rhs.project(union);
        Ok(l.implies(&r))
    }
}

/// A stored object one slot resolved to under the binding.
struct Resolved<'t> {
    oid: Oid,
    /// The owning scope (access chain) of the declared variables.
    owner: ScopeKey,
    /// The attribute's declared variable list; `None` when the object was
    /// not reached off a CST attribute, and declares its own variables.
    declared: Option<&'t [Var]>,
    /// The slot's explicit variable list.
    vars: Option<&'t [Var]>,
}

impl Resolved<'_> {
    fn object(&self) -> &CstObject {
        self.oid.as_cst().expect("resolved to a constraint object")
    }

    fn declared(&self) -> &[Var] {
        self.declared.unwrap_or_else(|| self.object().free())
    }

    fn query_vars(&self) -> &[Var] {
        self.vars.unwrap_or_else(|| self.declared())
    }
}

/// One conjunct of a splice, ready for the product.
enum Piece<'t> {
    /// A constant part of the template.
    Const(&'t CstObject),
    /// The `i`th resolved reference, spliced as stored.
    Stored(usize),
    /// The `i`th resolved reference, renamed: one atom list per disjunct.
    Renamed(usize, Vec<Vec<Atom>>),
    /// An object built for this binding: a per-binding chain, a nested
    /// part, or the implicit equalities.
    Built(CstObject),
}

/// The per-binding state of one splice: the references resolved so far,
/// in preorder, and every renaming fact in scope.
struct Splice<'c> {
    ctx: &'c Ctx<'c>,
    binding: &'c Binding<'c>,
    links: Arc<[ScopeLink<'c>]>,
    resolved: Vec<Resolved<'c>>,
}

impl<'c> Splice<'c> {
    fn new(ctx: &'c Ctx<'c>, binding: &'c Binding<'c>) -> Splice<'c> {
        Splice {
            ctx,
            binding,
            links: Arc::clone(&binding.links),
            resolved: Vec::new(),
        }
    }

    /// Evaluate conjuncts left to right.
    fn parts(&mut self, parts: &'c [Part<'_>]) -> Result<Vec<Piece<'c>>, LyricError> {
        parts.iter().map(|p| self.piece(p)).collect()
    }

    fn piece(&mut self, part: &'c Part<'_>) -> Result<Piece<'c>, LyricError> {
        Ok(match part {
            Part::Const { obj, .. } => Piece::Const(obj),
            Part::Chain { first, rest } => Piece::Built(lower_chain(first, rest, |a| {
                arith_to_linexpr(self.ctx, a, self.binding)
            })?),
            Part::Slot(slot) => self.slot(slot)?,
            Part::And(ps) => {
                let pieces = self.parts(ps)?;
                Piece::Built(self.conjoin(pieces))
            }
            Part::Or(a, b) => {
                let l = self.object(a)?;
                let r = self.object(b)?;
                Piece::Built(l.or(&r))
            }
            Part::Not(a) => Piece::Built(self.object(a)?.negate()?),
            Part::Proj(vars, a) => Piece::Built(self.object(a)?.project(vars.clone())),
        })
    }

    fn object(&mut self, part: &'c Part<'_>) -> Result<CstObject, LyricError> {
        let piece = self.piece(part)?;
        Ok(self.materialize(piece))
    }

    /// Resolve a slot and rename its object to the query variables.
    fn slot(&mut self, slot: &'c Slot<'_>) -> Result<Piece<'c>, LyricError> {
        let (oid, owner, declared) =
            resolve_cst_path(self.ctx, slot.path, self.binding, &mut self.links)?;
        let r = Resolved {
            oid,
            owner,
            declared,
            vars: slot.vars.as_deref(),
        };
        let object = r.object();
        if let Some(vs) = r.vars {
            if vs.len() != object.arity() {
                return Err(LyricError::DimensionMismatch {
                    expected: object.arity(),
                    got: vs.len(),
                    what: format!("CST reference {}", display_path(slot.path)),
                });
            }
        }
        let target = r.query_vars();
        assert_eq!(target.len(), object.arity());
        let piece = if target == object.free() && !object.has_bound_vars() {
            Piece::Stored(self.resolved.len())
        } else {
            Piece::Renamed(
                self.resolved.len(),
                rename_apart(object, target, slot.index),
            )
        };
        self.resolved.push(r);
        Ok(piece)
    }

    /// The implicit equality atoms as one conjunct, if there are any.
    fn equalities(&self) -> Option<CstObject> {
        let preds: Vec<ResolvedPred<'_>> = self
            .resolved
            .iter()
            .map(|r| ResolvedPred {
                query_vars: r.query_vars(),
                owner: &r.owner,
                declared: r.declared(),
            })
            .collect();
        let atoms = implicit_equalities(&preds, &self.links);
        if atoms.is_empty() {
            return None;
        }
        let free: Vec<Var> = atoms
            .iter()
            .flat_map(|a| a.vars())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Some(CstObject::from_conjunction(free, Conjunction::of(atoms)))
    }

    /// The conjunction of the pieces: one product; a lone piece is
    /// returned as is.
    fn conjoin(&self, mut pieces: Vec<Piece<'c>>) -> CstObject {
        if pieces.len() == 1 {
            return self.materialize(pieces.pop().expect("one conjunct"));
        }
        CstObject::product(pieces.iter().map(|p| self.operand(p)))
    }

    /// A piece as an operand of the product.
    fn operand<'p>(&'p self, piece: &'p Piece<'c>) -> Operand<'p> {
        match piece {
            Piece::Const(obj) => Operand::Object(obj),
            Piece::Stored(i) => Operand::Object(self.resolved[*i].object()),
            Piece::Renamed(i, lists) => Operand::Lists(self.resolved[*i].query_vars(), lists),
            Piece::Built(obj) => Operand::Object(obj),
        }
    }

    fn materialize(&self, piece: Piece<'c>) -> CstObject {
        match piece {
            Piece::Const(obj) => obj.clone(),
            Piece::Stored(i) => self.resolved[i].object().clone(),
            Piece::Renamed(i, lists) => CstObject::new(
                self.resolved[i].query_vars().to_vec(),
                lists.into_iter().map(Conjunction::of),
            ),
            Piece::Built(obj) => obj,
        }
    }
}

/// Rename `object` positionally to `target`, and its bound variables apart
/// to `%slot.j` names (`j` numbering them by first occurrence within a
/// disjunct): the lexer never emits `%`, no two slots share a name, and
/// the product renames every other operand's bound variables to globally
/// fresh names of another shape, so nothing can capture.
fn rename_apart(object: &CstObject, target: &[Var], slot: usize) -> Vec<Vec<Atom>> {
    let positional: BTreeMap<Var, Var> = object
        .free()
        .iter()
        .zip(target)
        .filter(|(from, to)| from != to)
        .map(|(from, to)| (from.clone(), to.clone()))
        .collect();
    object
        .disjuncts()
        .iter()
        .map(|d| {
            // The positional map, extended when the disjunct has bound
            // variables.
            let mut extended: Option<BTreeMap<Var, Var>> = None;
            for a in d.atoms() {
                for (v, _) in a.expr().terms() {
                    if object.free().contains(v) {
                        continue;
                    }
                    let map = extended.get_or_insert_with(|| positional.clone());
                    let bound = map.len() - positional.len();
                    map.entry(v.clone())
                        .or_insert_with(|| Var::new(format!("%{slot}.{bound}")));
                }
            }
            let map = extended.as_ref().unwrap_or(&positional);
            d.atoms().iter().map(|a| a.rename(map)).collect()
        })
        .collect()
}

/// Resolve a CST-object reference path: the stored object's oid (which
/// shares the object rather than copying it), its owner's scope, and the
/// attribute's declared variable list (`None`: the object's own). The
/// renaming facts the walk discovers join `links`.
fn resolve_cst_path<'c>(
    ctx: &Ctx<'c>,
    path: &PathExpr,
    binding: &Binding<'c>,
    links: &mut Arc<[ScopeLink<'c>]>,
) -> Result<(Oid, ScopeKey, Option<&'c [Var]>), LyricError> {
    let hits = eval_path(ctx, path, binding)?;
    let mut resolved: Option<(Oid, ScopeKey, Option<&'c [Var]>)> = None;
    for hit in hits {
        if !Arc::ptr_eq(&hit.binding.links, links) {
            let fresh: Vec<ScopeLink<'c>> = (hit.binding.links.iter())
                .filter(|link| !links.contains(link))
                .cloned()
                .collect();
            if !fresh.is_empty() {
                *links = links.iter().cloned().chain(fresh).collect();
            }
        }
        let obj = hit.value.as_cst().ok_or_else(|| {
            LyricError::type_error(format!("{} is not a constraint object", display_path(path)))
        })?;
        match &resolved {
            None => {
                resolved = Some(match hit.cst_info {
                    Some(Provenance { owner, declared }) => (hit.value, owner, Some(declared)),
                    None => (hit.value, hit.scope, None),
                });
            }
            Some((prev, ..)) if prev.as_cst() == Some(obj) => {}
            Some(_) => {
                return Err(LyricError::type_error(format!(
                    "ambiguous CST reference {} (multiple values)",
                    display_path(path)
                )))
            }
        }
    }
    resolved.ok_or_else(|| {
        LyricError::type_error(format!(
            "CST reference {} has no value under the current binding",
            display_path(path)
        ))
    })
}

/// Translate pseudo-linear arithmetic to an exact linear expression,
/// resolving path constants against the binding.
pub(crate) fn arith_to_linexpr(
    ctx: &Ctx<'_>,
    a: &Arith,
    binding: &Binding<'_>,
) -> Result<LinExpr, LyricError> {
    match a {
        Arith::Num(n) => Ok(LinExpr::constant(n.clone())),
        Arith::Var(name) => {
            // A FROM-bound variable holding a numeric oid is a constant;
            // anything else that is bound is a type error; unbound names
            // are constraint variables.
            match binding.get(ctx, name) {
                Some(oid) => match oid.as_rational() {
                    Some(r) => Ok(LinExpr::constant(r)),
                    None => Err(LyricError::type_error(format!(
                        "variable {name} is bound to non-numeric {oid} inside arithmetic"
                    ))),
                },
                None => Ok(LinExpr::var(Var::new(name))),
            }
        }
        Arith::PathConst(p) => {
            let hits = eval_path(ctx, p, binding)?;
            let mut value: Option<Rational> = None;
            for hit in hits {
                let r = hit.value.as_rational().ok_or_else(|| {
                    LyricError::type_error(format!(
                        "{} does not evaluate to a numeric constant",
                        display_path(p)
                    ))
                })?;
                match &value {
                    None => value = Some(r),
                    Some(prev) if *prev == r => {}
                    Some(_) => {
                        return Err(LyricError::type_error(format!(
                            "ambiguous numeric path {}",
                            display_path(p)
                        )))
                    }
                }
            }
            value
                .map(LinExpr::constant)
                .ok_or_else(|| LyricError::type_error(format!("{} has no value", display_path(p))))
        }
        Arith::Add(x, y) => {
            Ok(arith_to_linexpr(ctx, x, binding)? + arith_to_linexpr(ctx, y, binding)?)
        }
        Arith::Sub(x, y) => {
            Ok(arith_to_linexpr(ctx, x, binding)? - arith_to_linexpr(ctx, y, binding)?)
        }
        Arith::Neg(x) => Ok(-arith_to_linexpr(ctx, x, binding)?),
        Arith::Mul(x, y) => {
            let l = arith_to_linexpr(ctx, x, binding)?;
            let r = arith_to_linexpr(ctx, y, binding)?;
            if l.is_constant() {
                Ok(r.scale(l.constant_term()))
            } else if r.is_constant() {
                Ok(l.scale(r.constant_term()))
            } else {
                Err(LyricError::type_error(
                    "nonlinear product of two non-constant expressions",
                ))
            }
        }
    }
}

pub(crate) fn display_path(p: &PathExpr) -> String {
    use crate::ast::OidLit;
    fn sel(s: &Selector) -> String {
        match s {
            Selector::Var(v) => v.clone(),
            Selector::Lit(OidLit::Named(n)) => n.clone(),
            Selector::Lit(OidLit::Int(i)) => i.to_string(),
            Selector::Lit(OidLit::Str(s)) => format!("'{s}'"),
            Selector::Lit(OidLit::Bool(b)) => b.to_string(),
        }
    }
    let mut out = sel(&p.root);
    for step in &p.steps {
        out.push('.');
        out.push_str(&step.attr);
        if let Some(s) = &step.selector {
            out.push('[');
            out.push_str(&sel(s));
            out.push(']');
        }
    }
    out
}
