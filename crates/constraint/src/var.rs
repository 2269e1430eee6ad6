//! Constraint variables.

use std::fmt;
use std::sync::Arc;

/// A constraint variable, identified by name.
///
/// Variables are cheap to clone (shared string) and totally ordered by
/// name, which gives linear expressions and atoms a stable term order used
/// by the canonical forms of §3.1.
///
/// Names produced by [`Var::fresh`] contain a `%` character, which the
/// LyriC lexer never emits — fresh variables introduced by α-renaming can
/// therefore never collide with source-level variables.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Arc<str>);

impl Var {
    /// A variable with the given source name.
    pub fn new(name: impl AsRef<str>) -> Var {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// A fresh variable that cannot collide with any source-level variable:
    /// `base%n`.
    pub fn fresh(base: &str, n: usize) -> Var {
        // Strip any existing freshness suffix so repeated renaming doesn't
        // grow names unboundedly.
        let stem = base.split('%').next().unwrap_or(base);
        Var(Arc::from(format!("{stem}%{n}").as_str()))
    }

    /// True iff this variable was produced by [`Var::fresh`].
    pub fn is_fresh(&self) -> bool {
        self.0.contains('%')
    }
}

/// The first variable of `vars` that repeats an earlier one, if any. A
/// CST schema, a class interface and an interface renaming must name
/// distinct variables. Quadratic in `vars.len()`, which is an arity, with
/// no allocation.
pub fn first_repeat(vars: &[Var]) -> Option<&Var> {
    vars.iter()
        .enumerate()
        .find(|(i, v)| vars[..*i].contains(v))
        .map(|(_, v)| v)
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

impl From<String> for Var {
    fn from(s: String) -> Var {
        Var(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_name() {
        let mut v = [Var::new("z"), Var::new("a"), Var::new("m")];
        v.sort();
        assert_eq!(
            v.iter().map(Var::name).collect::<Vec<_>>(),
            vec!["a", "m", "z"]
        );
    }

    #[test]
    fn fresh_variables_are_marked_and_stable() {
        let f = Var::fresh("w", 3);
        assert_eq!(f.name(), "w%3");
        assert!(f.is_fresh());
        assert!(!Var::new("w").is_fresh());
        // Re-freshening replaces the suffix instead of stacking.
        let g = Var::fresh(f.name(), 7);
        assert_eq!(g.name(), "w%7");
    }

    #[test]
    fn first_repeat_finds_the_second_occurrence() {
        let vs = |names: &[&str]| names.iter().map(Var::new).collect::<Vec<_>>();
        assert_eq!(first_repeat(&vs(&["u", "v", "w"])), None);
        assert_eq!(first_repeat(&vs(&[])), None);
        assert_eq!(
            first_repeat(&vs(&["u", "v", "u", "v"])),
            Some(&Var::new("u"))
        );
    }

    #[test]
    fn clones_are_equal_and_cheap() {
        let a = Var::new("extent_w");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.name(), "extent_w");
    }
}
