//! Database errors.

use std::fmt;

/// Errors raised by schema validation and typed instance insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    DuplicateClass(String),
    UnknownClass(String),
    CyclicIsA(String),
    InterfaceArityMismatch {
        class: String,
        attr: String,
        expected: usize,
        got: usize,
    },
    UnknownAttribute {
        class: String,
        attr: String,
    },
    DuplicateObject(String),
    UnknownObject(String),
    /// Scalar value supplied for a set-valued attribute or vice versa.
    Cardinality {
        class: String,
        attr: String,
        expected_set: bool,
    },
    /// A CST attribute received a non-CST oid, or one of the wrong
    /// dimension.
    CstMismatch {
        class: String,
        attr: String,
        detail: String,
    },
    /// An attribute over class C received an oid that is not an instance
    /// of C.
    NotAnInstance {
        oid: String,
        class: String,
    },
    /// Instance of a CST class must be a constraint oid of the declared
    /// dimension.
    CstClassInstance {
        class: String,
        detail: String,
    },
    /// A class's interface, a CST attribute's schema or an interface
    /// renaming names one variable twice.
    RepeatedVariable {
        class: String,
        place: String,
        var: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateClass(c) => write!(f, "class {c} already defined"),
            DbError::UnknownClass(c) => write!(f, "unknown class {c}"),
            DbError::CyclicIsA(c) => write!(f, "IS-A cycle through class {c}"),
            DbError::InterfaceArityMismatch {
                class,
                attr,
                expected,
                got,
            } => write!(
                f,
                "attribute {class}.{attr}: interface renaming has {got} variables, \
                 target class interface has {expected}"
            ),
            DbError::UnknownAttribute { class, attr } => {
                write!(f, "class {class} has no attribute {attr}")
            }
            DbError::DuplicateObject(o) => write!(f, "object {o} already exists"),
            DbError::UnknownObject(o) => write!(f, "unknown object {o}"),
            DbError::Cardinality {
                class,
                attr,
                expected_set,
            } => write!(
                f,
                "attribute {class}.{attr} is {}-valued",
                if *expected_set { "set" } else { "scalar" }
            ),
            DbError::CstMismatch {
                class,
                attr,
                detail,
            } => {
                write!(f, "CST attribute {class}.{attr}: {detail}")
            }
            DbError::NotAnInstance { oid, class } => {
                write!(f, "{oid} is not an instance of {class}")
            }
            DbError::CstClassInstance { class, detail } => {
                write!(f, "instance of CST class {class}: {detail}")
            }
            DbError::RepeatedVariable { class, place, var } => {
                write!(f, "class {class}: variable {var} repeats in {place}")
            }
        }
    }
}

impl std::error::Error for DbError {}
