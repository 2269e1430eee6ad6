//! Attribute values.

use crate::oid::Oid;
use std::collections::BTreeSet;
use std::fmt;

/// The value of an attribute on an object: a single oid for scalar
/// attributes, a set of oids for set-valued ones (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Scalar(Oid),
    Set(BTreeSet<Oid>),
}

impl Value {
    /// Build a set value from any iterator of oids.
    pub fn set(oids: impl IntoIterator<Item = Oid>) -> Value {
        Value::Set(oids.into_iter().collect())
    }

    pub fn is_set(&self) -> bool {
        matches!(self, Value::Set(_))
    }

    /// Iterate the oid(s): one for scalars, all members for sets. This is
    /// the iteration path expressions use — a scalar attribute continues a
    /// path to its value, a set-valued one to each member. The iterator
    /// is a concrete type: iterating allocates nothing.
    pub fn iter(&self) -> impl Iterator<Item = &Oid> + '_ {
        let (scalar, set) = match self {
            Value::Scalar(o) => (Some(o), None),
            Value::Set(s) => (None, Some(s.iter())),
        };
        scalar.into_iter().chain(set.into_iter().flatten())
    }

    /// The scalar oid, if this is a scalar value.
    pub fn as_scalar(&self) -> Option<&Oid> {
        match self {
            Value::Scalar(o) => Some(o),
            Value::Set(_) => None,
        }
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Value {
        Value::Scalar(o)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Scalar(o) => write!(f, "{o}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, o) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{o}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_over_scalar_and_set() {
        let s = Value::Scalar(Oid::Int(1));
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.as_scalar(), Some(&Oid::Int(1)));
        let set = Value::set([Oid::Int(1), Oid::Int(2), Oid::Int(1)]);
        assert_eq!(set.iter().count(), 2); // deduped
        assert!(set.as_scalar().is_none());
        assert!(set.is_set());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Scalar(Oid::str("red")).to_string(), "'red'");
        assert_eq!(Value::set([Oid::Int(2), Oid::Int(1)]).to_string(), "{1, 2}");
    }
}
