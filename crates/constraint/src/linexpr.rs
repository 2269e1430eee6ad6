//! Linear expressions `Σ cᵢ·xᵢ + c₀` with exact rational coefficients.

use crate::var::Var;
use lyric_arith::Rational;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A total assignment of rational values to variables. Variables absent
/// from the map are taken to be 0 when an expression is evaluated.
pub type Assignment = BTreeMap<Var, Rational>;

/// A linear expression over constraint variables.
///
/// Invariant: `terms` never maps a variable to a zero coefficient, so two
/// expressions are structurally equal iff they are the same polynomial.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    terms: BTreeMap<Var, Rational>,
    constant: Rational,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: impl Into<Rational>) -> LinExpr {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c.into(),
        }
    }

    /// A single variable with coefficient 1.
    pub fn var(v: impl Into<Var>) -> LinExpr {
        LinExpr::term(v, Rational::one())
    }

    /// `coeff · v`.
    pub fn term(v: impl Into<Var>, coeff: impl Into<Rational>) -> LinExpr {
        let mut terms = BTreeMap::new();
        let c = coeff.into();
        if !c.is_zero() {
            terms.insert(v.into(), c);
        }
        LinExpr {
            terms,
            constant: Rational::zero(),
        }
    }

    /// Coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: &Var) -> Rational {
        self.terms.get(v).cloned().unwrap_or_else(Rational::zero)
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// Iterate over (variable, nonzero coefficient) pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&Var, &Rational)> {
        self.terms.iter()
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// True iff the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// True iff the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// The set of variables occurring with nonzero coefficient.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.terms.keys().cloned().collect()
    }

    /// Whether `v` occurs in the expression.
    pub fn contains(&self, v: &Var) -> bool {
        self.terms.contains_key(v)
    }

    /// Add `coeff · v` in place.
    pub fn add_term(&mut self, v: Var, coeff: &Rational) {
        if coeff.is_zero() {
            return;
        }
        use std::collections::btree_map::Entry;
        match self.terms.entry(v) {
            Entry::Vacant(e) => {
                e.insert(coeff.clone());
            }
            Entry::Occupied(mut e) => {
                let sum = e.get() + coeff;
                if sum.is_zero() {
                    e.remove();
                } else {
                    *e.get_mut() = sum;
                }
            }
        }
    }

    /// Multiply every coefficient and the constant by `c`.
    pub fn scale(&self, c: &Rational) -> LinExpr {
        if c.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|(v, a)| (v.clone(), a * c)).collect(),
            constant: &self.constant * c,
        }
    }

    /// Evaluate at a point; unbound variables read as 0.
    pub fn eval(&self, point: &Assignment) -> Rational {
        let mut acc = self.constant.clone();
        for (v, c) in &self.terms {
            if let Some(x) = point.get(v) {
                acc += &(c * x);
            }
        }
        acc
    }

    /// Replace `v` by the expression `by` (used by equality substitution in
    /// Fourier–Motzkin and by canonical simplification).
    pub fn substitute(&self, v: &Var, by: &LinExpr) -> LinExpr {
        match self.terms.get(v) {
            None => self.clone(),
            Some(c) => {
                let c = c.clone();
                let mut out = self.clone();
                out.terms.remove(v);
                &out + &by.scale(&c)
            }
        }
    }

    /// Rename variables according to `map` (variables not in the map are
    /// unchanged). Renaming may merge terms, e.g. `x + y` with `y ↦ x`
    /// becomes `2x`.
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> LinExpr {
        let mut out = LinExpr::constant(self.constant.clone());
        for (v, c) in &self.terms {
            let target = map.get(v).unwrap_or(v).clone();
            out.add_term(target, c);
        }
        out
    }
}

impl From<Rational> for LinExpr {
    fn from(c: Rational) -> LinExpr {
        LinExpr::constant(c)
    }
}

impl From<i64> for LinExpr {
    fn from(c: i64) -> LinExpr {
        LinExpr::constant(Rational::from_int(c))
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> LinExpr {
        LinExpr::var(v)
    }
}

impl Add for &LinExpr {
    type Output = LinExpr;
    fn add(self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (v, c) in &other.terms {
            out.add_term(v.clone(), c);
        }
        out.constant += &other.constant;
        out
    }
}

impl Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (v, c) in &other.terms {
            out.add_term(v.clone(), &-c);
        }
        out.constant -= &other.constant;
        out
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, other: LinExpr) -> LinExpr {
        &self + &other
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, other: LinExpr) -> LinExpr {
        &self - &other
    }
}

impl Neg for &LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scale(&-Rational::one())
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        -&self
    }
}

impl Mul<&Rational> for &LinExpr {
    type Output = LinExpr;
    fn mul(self, c: &Rational) -> LinExpr {
        self.scale(c)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                if c == &Rational::one() {
                    write!(f, "{v}")?;
                } else if c == &-Rational::one() {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}{v}")?;
                }
                first = false;
            } else if c.is_negative() {
                let a = c.abs();
                if a == Rational::one() {
                    write!(f, " - {v}")?;
                } else {
                    write!(f, " - {a}{v}")?;
                }
            } else if c == &Rational::one() {
                write!(f, " + {v}")?;
            } else {
                write!(f, " + {c}{v}")?;
            }
        }
        if !self.constant.is_zero() {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant.is_negative() {
                write!(f, " - {}", self.constant.abs())?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Var {
        Var::new("x")
    }
    fn y() -> Var {
        Var::new("y")
    }
    fn r(v: i64) -> Rational {
        Rational::from_int(v)
    }

    #[test]
    fn construction_and_coefficients() {
        let e = LinExpr::term(x(), r(2)) + LinExpr::var(y()) + LinExpr::constant(r(5));
        assert_eq!(e.coeff(&x()), r(2));
        assert_eq!(e.coeff(&y()), r(1));
        assert_eq!(e.constant_term(), &r(5));
        assert_eq!(e.num_terms(), 2);
    }

    #[test]
    fn zero_coefficients_are_pruned() {
        let e = LinExpr::term(x(), r(0));
        assert!(e.is_zero());
        let e = LinExpr::var(x()) - LinExpr::var(x());
        assert!(e.is_zero());
        assert!(!e.contains(&x()));
    }

    #[test]
    fn arithmetic() {
        let e = LinExpr::var(x()) + LinExpr::constant(r(1));
        let f = LinExpr::term(x(), r(2)) - LinExpr::var(y());
        let sum = &e + &f;
        assert_eq!(sum.coeff(&x()), r(3));
        assert_eq!(sum.coeff(&y()), r(-1));
        assert_eq!(sum.constant_term(), &r(1));
        let neg = -&sum;
        assert_eq!(neg.coeff(&x()), r(-3));
        let scaled = sum.scale(&Rational::from_pair(1, 3));
        assert_eq!(scaled.coeff(&x()), r(1));
    }

    #[test]
    fn evaluation() {
        let e = LinExpr::term(x(), r(2)) + LinExpr::term(y(), r(-1)) + LinExpr::constant(r(3));
        let mut p = Assignment::new();
        p.insert(x(), r(5));
        p.insert(y(), r(4));
        assert_eq!(e.eval(&p), r(9));
        // Unbound variable reads as zero.
        let mut q = Assignment::new();
        q.insert(x(), r(1));
        assert_eq!(e.eval(&q), r(5));
    }

    #[test]
    fn substitution() {
        // (2x + y).substitute(x, y + 1) = 3y + 2
        let e = LinExpr::term(x(), r(2)) + LinExpr::var(y());
        let by = LinExpr::var(y()) + LinExpr::constant(r(1));
        let s = e.substitute(&x(), &by);
        assert_eq!(s.coeff(&y()), r(3));
        assert_eq!(s.constant_term(), &r(2));
        assert!(!s.contains(&x()));
        // Substituting an absent variable is the identity.
        assert_eq!(s.substitute(&x(), &by), s);
    }

    #[test]
    fn renaming_merges_terms() {
        let e = LinExpr::var(x()) + LinExpr::term(y(), r(3));
        let mut map = BTreeMap::new();
        map.insert(y(), x());
        let renamed = e.rename(&map);
        assert_eq!(renamed.coeff(&x()), r(4));
        assert!(!renamed.contains(&y()));
    }

    #[test]
    fn display() {
        let e = LinExpr::term(x(), r(2)) - LinExpr::var(y()) + LinExpr::constant(r(-3));
        assert_eq!(e.to_string(), "2x - y - 3");
        assert_eq!(LinExpr::zero().to_string(), "0");
        assert_eq!(LinExpr::constant(r(7)).to_string(), "7");
        let neg_lead = -LinExpr::var(x());
        assert_eq!(neg_lead.to_string(), "-x");
    }
}
