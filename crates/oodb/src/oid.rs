//! Logical object identities.

use lyric_arith::Rational;
use lyric_constraint::CstObject;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A constraint-object oid.
///
/// Per §3.1, the logical oid of a CST object *is* its canonical form: two
/// `CstOid`s compare equal iff their canonical forms (paper-cheap
/// canonicalization plus positional variable renaming) coincide. The
/// original, human-named object is retained for display, so query answers
/// print like the paper's `((u,v) | 2 <= u <= 10 ∧ 2 <= v <= 6)`.
///
/// Canonical forms are not unique across semantically equal objects
/// (acknowledged in §3.1); use [`CstObject::denotes_same`] when point-set
/// equality is needed.
#[derive(Clone)]
pub struct CstOid {
    display: Arc<CstObject>,
    canonical: Arc<CstObject>,
}

impl CstOid {
    /// Canonicalize and wrap a constraint object. The object is
    /// canonicalized once; the identity carrier is that result renamed
    /// positionally, which equals `obj.canonical_form()`.
    pub fn new(obj: CstObject) -> CstOid {
        let display = obj.canonicalize();
        let canonical = display.rename_positionally();
        CstOid {
            display: Arc::new(display),
            canonical: Arc::new(canonical),
        }
    }

    /// The canonicalized object with its original variable names.
    pub fn object(&self) -> &CstObject {
        &self.display
    }

    /// The name-independent canonical form (the identity carrier).
    pub fn canonical(&self) -> &CstObject {
        &self.canonical
    }
}

impl PartialEq for CstOid {
    fn eq(&self, other: &Self) -> bool {
        self.canonical == other.canonical
    }
}
impl Eq for CstOid {}

impl PartialOrd for CstOid {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CstOid {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical.cmp(&other.canonical)
    }
}
impl Hash for CstOid {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical.hash(state)
    }
}

impl fmt::Debug for CstOid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CstOid({})", self.display)
    }
}

impl fmt::Display for CstOid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display)
    }
}

/// A logical object id (§2.1). Oids may carry semantic information: `Int`,
/// `Rat`, `Str` and `Bool` oids denote the corresponding abstract values,
/// `Cst` oids denote point sets, `Named` oids are opaque entities like
/// `desk123`, and `Func` oids are id-function terms such as
/// `pair(desk123, drawer1)` produced by `OID FUNCTION OF`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Oid {
    Int(i64),
    Rat(Rational),
    Str(String),
    Bool(bool),
    Named(String),
    Func(String, Vec<Oid>),
    Cst(CstOid),
}

impl Oid {
    /// A named (symbolic) oid, e.g. `Oid::named("desk123")`.
    pub fn named(s: impl Into<String>) -> Oid {
        Oid::Named(s.into())
    }

    /// A string-literal oid, e.g. `Oid::str("red")`.
    pub fn str(s: impl Into<String>) -> Oid {
        Oid::Str(s.into())
    }

    /// A constraint-object oid (canonicalizing).
    pub fn cst(obj: CstObject) -> Oid {
        Oid::Cst(CstOid::new(obj))
    }

    /// An id-function term.
    pub fn func(name: impl Into<String>, args: Vec<Oid>) -> Oid {
        Oid::Func(name.into(), args)
    }

    /// The constraint object, if this oid is one.
    pub fn as_cst(&self) -> Option<&CstObject> {
        match self {
            Oid::Cst(c) => Some(c.object()),
            _ => None,
        }
    }

    /// The rational value of a numeric oid (`Int` or `Rat`).
    pub fn as_rational(&self) -> Option<Rational> {
        match self {
            Oid::Int(i) => Some(Rational::from_int(*i)),
            Oid::Rat(r) => Some(r.clone()),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Oid::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for Oid {
    fn from(v: i64) -> Oid {
        Oid::Int(v)
    }
}

impl From<Rational> for Oid {
    fn from(v: Rational) -> Oid {
        Oid::Rat(v)
    }
}

impl From<bool> for Oid {
    fn from(v: bool) -> Oid {
        Oid::Bool(v)
    }
}

impl From<CstObject> for Oid {
    fn from(v: CstObject) -> Oid {
        Oid::cst(v)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Oid::Int(v) => write!(f, "{v}"),
            Oid::Rat(v) => write!(f, "{v}"),
            Oid::Str(v) => write!(f, "'{v}'"),
            Oid::Bool(v) => write!(f, "{v}"),
            Oid::Named(v) => write!(f, "{v}"),
            Oid::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Oid::Cst(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyric_constraint::{Atom, Conjunction, LinExpr, Var};

    fn interval(var: &str, lo: i64, hi: i64) -> CstObject {
        CstObject::from_conjunction(
            vec![Var::new(var)],
            Conjunction::of([
                Atom::ge(LinExpr::var(Var::new(var)), LinExpr::from(lo)),
                Atom::le(LinExpr::var(Var::new(var)), LinExpr::from(hi)),
            ]),
        )
    }

    #[test]
    fn literal_oids() {
        assert_eq!(Oid::from(3), Oid::Int(3));
        assert_ne!(Oid::Int(3), Oid::Str("3".into()));
        assert_eq!(Oid::str("red").to_string(), "'red'");
        assert_eq!(Oid::named("desk123").to_string(), "desk123");
        assert_eq!(
            Oid::func("pair", vec![Oid::Int(1), Oid::named("d")]).to_string(),
            "pair(1,d)"
        );
    }

    #[test]
    fn cst_oid_identity_is_name_invariant() {
        // Same constraint over different variable names: same oid (§4.1,
        // "invariant to variable names").
        let a = Oid::cst(interval("x", 0, 1));
        let b = Oid::cst(interval("t", 0, 1));
        assert_eq!(a, b);
        let c = Oid::cst(interval("x", 0, 2));
        assert_ne!(a, c);
    }

    #[test]
    fn cst_oid_identity_is_canonical_form_not_denotation() {
        // x ∈ [0,1] expressed with a redundant atom still canonicalizes to
        // a *different* cheap canonical form (redundancy removal is not
        // part of the paper's default canonicalization)...
        let redundant = CstObject::from_conjunction(
            vec![Var::new("x")],
            Conjunction::of([
                Atom::ge(LinExpr::var(Var::new("x")), LinExpr::from(0)),
                Atom::le(LinExpr::var(Var::new("x")), LinExpr::from(1)),
                Atom::le(LinExpr::var(Var::new("x")), LinExpr::from(5)),
            ]),
        );
        let plain = interval("x", 0, 1);
        let (a, b) = (CstOid::new(redundant.clone()), CstOid::new(plain.clone()));
        assert_ne!(a, b, "cheap canonical forms differ");
        // ...but they denote the same point set.
        assert!(redundant.denotes_same(&plain));
    }

    #[test]
    fn cst_oid_preserves_display_names() {
        let o = CstOid::new(interval("u", 2, 10));
        assert_eq!(o.object().free()[0].name(), "u");
        assert_eq!(o.canonical().free()[0].name(), "$0");
    }

    #[test]
    fn oids_order_totally() {
        let mut v = vec![
            Oid::named("b"),
            Oid::Int(1),
            Oid::cst(interval("x", 0, 1)),
            Oid::str("a"),
        ];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 4);
    }
}
