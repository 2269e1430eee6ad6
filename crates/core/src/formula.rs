//! CST-formula instantiation (§4.2).
//!
//! Given a binding of query variables to oids, a [`Formula`] is turned into
//! a [`CstObject`]:
//!
//! 1. every `O(x₁,…,xₙ)` reference resolves its path to a stored constraint
//!    object and aligns it positionally to the query variables (schema
//!    names are copied when the list is omitted);
//! 2. pseudo-linear atoms evaluate their path sub-terms to rational
//!    constants;
//! 3. the schema-derived implicit equalities (see [`crate::scope`]) are
//!    conjoined **before the outermost projection is applied** — the
//!    paper's rule "to create an oid of a new CST object, we first add
//!    implicit constraint derived by the schema".
//!
//! Each `AND` tree, the implicit equalities included at the root, becomes
//! one n-ary [`CstObject::and_all`]. The result is not canonicalized: a
//! WHERE `(φ)` only decides emptiness, which canonicalization preserves,
//! while a SELECT item canonicalizes when it becomes an oid (§3.1) and an
//! optimization canonicalizes before its LP.

use crate::ast::{Arith, CRelOp, Formula};
use crate::error::LyricError;
use crate::eval::{eval_path, Binding, Ctx};
use crate::scope::{implicit_equalities, ResolvedPred, ScopeLink};
use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, RelOp, Var};
use lyric_oodb::Oid;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Instantiate a formula as a constraint object under `binding`.
pub(crate) fn instantiate(
    ctx: &Ctx<'_>,
    f: &Formula,
    binding: &Binding,
) -> Result<CstObject, LyricError> {
    let _span = lyric_engine::span(
        lyric_engine::SpanKind::Instantiate,
        String::new,
        f.span().byte_range(),
    );
    let mut preds: Vec<ResolvedPred> = Vec::new();
    let mut links = Arc::clone(&binding.links);
    let (proj, body) = match f {
        Formula::Proj { vars, body, .. } => (Some(vars), body.as_ref()),
        _ => (None, f),
    };
    let mut parts = build_conjuncts(ctx, body, binding, &mut preds, &mut links)?;
    parts.extend(equalities(implicit_equalities(&preds, &links)));
    let obj = conjoin(parts);
    Ok(match proj {
        Some(vars) => obj.project(vars.iter().map(Var::new).collect()),
        None => obj,
    })
}

/// Instantiate the two sides of an entailment predicate `φ |= ψ` and decide
/// it. The implicit equalities are derived from the references of *both*
/// sides and conjoined to the left one (they are context, so
/// `Γ ∧ φ |= ψ`).
///
/// Variable spaces are unified **by name** (the paper's `(C(p,q) |= p=0)`),
/// except when the two sides' variable sets are disjoint with equal arity —
/// then they are aligned **positionally** (the paper's bare `(U |= X)` over
/// an `extent` and a `Region`, whose schema names differ).
pub(crate) fn entails(
    ctx: &Ctx<'_>,
    f1: &Formula,
    f2: &Formula,
    binding: &Binding,
) -> Result<bool, LyricError> {
    let mut preds: Vec<ResolvedPred> = Vec::new();
    let mut links = Arc::clone(&binding.links);
    let mut lhs = build_conjuncts(ctx, strip_proj(f1), binding, &mut preds, &mut links)?;
    let rhs = build(ctx, strip_proj(f2), binding, &mut preds, &mut links)?;
    lhs.extend(equalities(implicit_equalities(&preds, &links)));
    let lhs = conjoin(lhs);

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

/// Projections on entailment operands only rebind variables; entailment is
/// evaluated over the full variable space (§4.2 quantifies over all free
/// variables of both sides), so the outer projection is transparent here.
fn strip_proj(f: &Formula) -> &Formula {
    match f {
        Formula::Proj { body, .. } => strip_proj(body),
        _ => f,
    }
}

/// The implicit equality atoms as one conjunct, if there are any.
fn equalities(atoms: Vec<Atom>) -> Option<CstObject> {
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

/// The conjunction of built conjuncts; a lone conjunct is returned as is.
fn conjoin(mut parts: Vec<CstObject>) -> CstObject {
    if parts.len() == 1 {
        return parts.pop().expect("one conjunct");
    }
    CstObject::and_all(&parts)
}

/// Build the conjuncts of `f`'s top-level `AND` tree, left to right.
fn build_conjuncts(
    ctx: &Ctx<'_>,
    f: &Formula,
    binding: &Binding,
    preds: &mut Vec<ResolvedPred>,
    links: &mut Arc<Vec<ScopeLink>>,
) -> Result<Vec<CstObject>, LyricError> {
    f.conjuncts()
        .into_iter()
        .map(|c| build(ctx, c, binding, preds, links))
        .collect()
}

/// Recursive construction. `preds` and `links` accumulate the CST
/// references and renaming facts used for implicit-equality derivation.
fn build(
    ctx: &Ctx<'_>,
    f: &Formula,
    binding: &Binding,
    preds: &mut Vec<ResolvedPred>,
    links: &mut Arc<Vec<ScopeLink>>,
) -> Result<CstObject, LyricError> {
    match f {
        Formula::And(..) => Ok(conjoin(build_conjuncts(ctx, f, binding, preds, links)?)),
        Formula::Or(a, b) => {
            let l = build(ctx, a, binding, preds, links)?;
            let r = build(ctx, b, binding, preds, links)?;
            Ok(l.or(&r))
        }
        Formula::Not(a) => {
            let inner = build(ctx, a, binding, preds, links)?;
            Ok(inner.negate()?)
        }
        Formula::Proj { vars, body, .. } => {
            // Nested projection: lazy re-binding (see the module docs of
            // `lyric_constraint::cst_object`); equality injection happens
            // once at the root.
            let inner = build(ctx, body, binding, preds, links)?;
            Ok(inner.project(vars.iter().map(Var::new).collect()))
        }
        Formula::Pred { path, vars } => {
            let (oid, owner, declared) = resolve_cst_path(ctx, path, binding, links)?;
            let object = oid.as_cst().expect("resolved to a constraint object");
            let query_vars: Vec<Var> = match vars {
                Some(vs) => {
                    if vs.len() != object.arity() {
                        return Err(LyricError::DimensionMismatch {
                            expected: object.arity(),
                            got: vs.len(),
                            what: format!("CST reference {}", display_path(path)),
                        });
                    }
                    vs.iter().map(Var::new).collect()
                }
                // "If the variables are not specified, they are simply
                // copied from the schema" (§4.2).
                None => declared.clone(),
            };
            let aligned = object.align_to(&query_vars);
            preds.push(ResolvedPred {
                query_vars,
                owner,
                declared,
            });
            Ok(aligned)
        }
        Formula::Chain { first, rest, .. } => {
            let mut atoms = Vec::new();
            let mut prev = arith_to_linexpr(ctx, first, binding)?;
            for (op, next) in rest {
                let rhs = arith_to_linexpr(ctx, next, binding)?;
                let relop = match op {
                    CRelOp::Eq => RelOp::Eq,
                    CRelOp::Neq => RelOp::Neq,
                    CRelOp::Le => RelOp::Le,
                    CRelOp::Lt => RelOp::Lt,
                    CRelOp::Ge => RelOp::Ge,
                    CRelOp::Gt => RelOp::Gt,
                };
                atoms.push(Atom::new(prev.clone(), relop, rhs.clone()));
                prev = rhs;
            }
            let conj = Conjunction::of(atoms);
            let free: Vec<Var> = conj.vars().into_iter().collect();
            Ok(CstObject::from_conjunction(free, conj))
        }
    }
}

/// Resolve a CST-object reference path: the stored object's oid (which
/// shares the object rather than copying it), its owner's scope, and the
/// attribute's declared variable list.
fn resolve_cst_path(
    ctx: &Ctx<'_>,
    path: &crate::ast::PathExpr,
    binding: &Binding,
    links: &mut Arc<Vec<ScopeLink>>,
) -> Result<(Oid, crate::scope::ScopeKey, Vec<Var>), LyricError> {
    let hits = eval_path(ctx, path, binding)?;
    let mut resolved: Option<(Oid, crate::scope::ScopeKey, Vec<Var>)> = None;
    for hit in hits {
        if !Arc::ptr_eq(&hit.binding.links, links) {
            for link in hit.binding.links.iter() {
                if !links.contains(link) {
                    Arc::make_mut(links).push(link.clone());
                }
            }
        }
        let obj = hit.value.as_cst().ok_or_else(|| {
            LyricError::type_error(format!("{} is not a constraint object", display_path(path)))
        })?;
        match &resolved {
            None => {
                let (owner, declared) = match hit.cst_info {
                    Some(info) => info,
                    None => (hit.scope.clone(), obj.free().to_vec()),
                };
                resolved = Some((hit.value, owner, declared));
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
    binding: &Binding,
) -> Result<LinExpr, LyricError> {
    match a {
        Arith::Num(n) => Ok(LinExpr::constant(n.clone())),
        Arith::Var(name) => {
            // A FROM-bound variable holding a numeric oid is a constant;
            // anything else that is bound is a type error; unbound names
            // are constraint variables.
            match binding.get(name) {
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
            Ok(&arith_to_linexpr(ctx, x, binding)? + &arith_to_linexpr(ctx, y, binding)?)
        }
        Arith::Sub(x, y) => {
            Ok(&arith_to_linexpr(ctx, x, binding)? - &arith_to_linexpr(ctx, y, binding)?)
        }
        Arith::Neg(x) => Ok(-&arith_to_linexpr(ctx, x, binding)?),
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

pub(crate) fn display_path(p: &crate::ast::PathExpr) -> String {
    use crate::ast::{OidLit, Selector};
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
