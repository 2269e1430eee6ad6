//! The linear-constraint engine of the LyriC reproduction.
//!
//! Implements §3.1 of Brodsky & Kornatzky's *The LyriC Language: Querying
//! Constraint Objects* (SIGMOD 1995): linear arithmetic constraints, the
//! four constraint families (conjunctive, existential conjunctive,
//! disjunctive, disjunctive existential) with exactly the paper's closure
//! rules, restricted and unrestricted projection, canonical forms, and the
//! decision procedures (satisfiability, entailment `|=`, optimization)
//! that the LyriC query language is built on.
//!
//! Layering:
//!
//! * [`Var`], [`LinExpr`], [`Atom`] — terms and normalized atomic
//!   constraints;
//! * [`Conjunction`] — polyhedra (plus disequations) with LP-backed
//!   decision procedures and Fourier–Motzkin elimination;
//! * [`Dnf`] — the disjunctive family (negation, case-splitting
//!   elimination, DNF entailment);
//! * [`CstObject`] — the paper's CST objects: a dimension schema (ordered
//!   free variables) plus a disjunction of implicitly existentially
//!   quantified conjunctions, with family classification, canonical forms
//!   and point-set semantics.

//! # Example
//!
//! ```
//! use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
//!
//! let x = || LinExpr::var(Var::new("x"));
//! let y = || LinExpr::var(Var::new("y"));
//!
//! // The unit square as a constraint object.
//! let square = CstObject::from_conjunction(
//!     vec![Var::new("x"), Var::new("y")],
//!     Conjunction::of([
//!         Atom::ge(x(), LinExpr::from(0)),
//!         Atom::le(x(), LinExpr::from(1)),
//!         Atom::ge(y(), LinExpr::from(0)),
//!         Atom::le(y(), LinExpr::from(1)),
//!     ]),
//! );
//! // Containment is entailment; intersection is conjunction (§1.1).
//! let halfplane = CstObject::from_conjunction(
//!     vec![Var::new("x"), Var::new("y")],
//!     Conjunction::of([Atom::le(x() + y(), LinExpr::from(2))]),
//! );
//! assert!(square.implies(&halfplane));
//! assert!(square.and(&halfplane).satisfiable());
//! // Projection with lazy quantifiers, then an exact membership test.
//! let shadow = square.project(vec![Var::new("x")]);
//! assert!(shadow.contains_point(&[1.into()]));
//! assert!(!shadow.contains_point(&[2.into()]));
//! ```

#![warn(missing_docs)]

mod atom;
mod canonical;
mod conjunction;
mod cst_object;
mod dnf;
mod error;
mod fourier_motzkin;
mod geometry;
mod interval;
mod linexpr;
mod var;

pub use atom::{Atom, NormOp, RelOp};
pub use conjunction::{Conjunction, ConjunctionRef, Extremum};
pub use cst_object::{CstFamily, CstObject, FamilyOp, Operand};
pub use dnf::Dnf;
pub use error::ConstraintError;
pub use interval::{Interval, IntervalBox, MAX_ROUNDS};
pub use linexpr::{Assignment, LinExpr};
pub use var::{first_repeat, Var};
