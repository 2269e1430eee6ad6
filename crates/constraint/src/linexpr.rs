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
/// Invariant: `terms` is sorted by variable, holds each variable at most
/// once and never holds a zero coefficient, so two expressions are
/// structurally equal iff they are the same polynomial. The derived
/// `Ord` and `Hash` compare and hash the (variable, coefficient) pairs in
/// variable order, as an ordered map of the terms would.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    terms: Vec<(Var, Rational)>,
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
            terms: Vec::new(),
            constant: c.into(),
        }
    }

    /// A single variable with coefficient 1.
    pub fn var(v: impl Into<Var>) -> LinExpr {
        LinExpr::term(v, Rational::one())
    }

    /// `coeff · v`.
    pub fn term(v: impl Into<Var>, coeff: impl Into<Rational>) -> LinExpr {
        let c = coeff.into();
        let terms = if c.is_zero() {
            Vec::new()
        } else {
            vec![(v.into(), c)]
        };
        LinExpr {
            terms,
            constant: Rational::zero(),
        }
    }

    /// Build from terms already sorted by variable, distinct and
    /// nonzero; the invariant is checked in debug builds.
    fn from_sorted(terms: Vec<(Var, Rational)>, constant: Rational) -> LinExpr {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0) && terms.iter().all(|(_, c)| !c.is_zero()),
            "LinExpr terms must be sorted, distinct and nonzero"
        );
        LinExpr { terms, constant }
    }

    fn position(&self, v: &Var) -> Result<usize, usize> {
        self.terms.binary_search_by(|(w, _)| w.cmp(v))
    }

    /// Coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: &Var) -> Rational {
        match self.position(v) {
            Ok(i) => self.terms[i].1.clone(),
            Err(_) => Rational::zero(),
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// Iterate over (variable, nonzero coefficient) pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&Var, &Rational)> {
        self.terms.iter().map(|(v, c)| (v, c))
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
        self.terms.iter().map(|(v, _)| v.clone()).collect()
    }

    /// Whether `v` occurs in the expression.
    pub fn contains(&self, v: &Var) -> bool {
        self.position(v).is_ok()
    }

    /// Add `coeff · v` in place.
    pub fn add_term(&mut self, v: Var, coeff: &Rational) {
        if coeff.is_zero() {
            return;
        }
        match self.position(&v) {
            Err(i) => self.terms.insert(i, (v, coeff.clone())),
            Ok(i) => {
                let sum = &self.terms[i].1 + coeff;
                if sum.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = sum;
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
        match self.position(v) {
            Err(_) => self.clone(),
            Ok(i) => {
                let mut rest = self.clone();
                let (_, c) = rest.terms.remove(i);
                rest + by.scale(&c)
            }
        }
    }

    /// Rename variables according to `map` (variables not in the map are
    /// unchanged). Renaming may merge terms, e.g. `x + y` with `y ↦ x`
    /// becomes `2x`.
    pub fn rename(&self, map: &BTreeMap<Var, Var>) -> LinExpr {
        let mut terms: Vec<(Var, Rational)> = self
            .terms
            .iter()
            .map(|(v, c)| (map.get(v).unwrap_or(v).clone(), c.clone()))
            .collect();
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        // Merge the terms that now share a variable into the first of them.
        terms.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += &next.1;
            }
            same
        });
        terms.retain(|(_, c)| !c.is_zero());
        LinExpr::from_sorted(terms, self.constant.clone())
    }

    /// `self + sign · other` as one merge of the two sorted term lists.
    fn merge(&self, other: &LinExpr, negate: bool) -> LinExpr {
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut a, mut b) = (self.terms.iter().peekable(), other.terms.iter().peekable());
        let signed = |c: &Rational| if negate { -c } else { c.clone() };
        loop {
            match (a.peek(), b.peek()) {
                (Some((va, ca)), Some((vb, cb))) => match va.cmp(vb) {
                    std::cmp::Ordering::Less => {
                        terms.push((va.clone(), ca.clone()));
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        terms.push((vb.clone(), signed(cb)));
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        let sum = if negate { ca - cb } else { ca + cb };
                        if !sum.is_zero() {
                            terms.push((va.clone(), sum));
                        }
                        a.next();
                        b.next();
                    }
                },
                (Some((va, ca)), None) => {
                    terms.push((va.clone(), ca.clone()));
                    a.next();
                }
                (None, Some((vb, cb))) => {
                    terms.push((vb.clone(), signed(cb)));
                    b.next();
                }
                (None, None) => break,
            }
        }
        let constant = if negate {
            &self.constant - &other.constant
        } else {
            &self.constant + &other.constant
        };
        LinExpr::from_sorted(terms, constant)
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
        self.merge(other, false)
    }
}

impl Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, other: &LinExpr) -> LinExpr {
        self.merge(other, true)
    }
}

/// Owned operands reuse a term list when the other side is a constant.
impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, mut other: LinExpr) -> LinExpr {
        if other.terms.is_empty() {
            self.constant += &other.constant;
            self
        } else if self.terms.is_empty() {
            other.constant += &self.constant;
            other
        } else {
            &self + &other
        }
    }
}

/// Owned operands reuse a term list when the other side is a constant.
impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, other: LinExpr) -> LinExpr {
        if other.terms.is_empty() {
            self.constant -= &other.constant;
            self
        } else if self.terms.is_empty() {
            let mut out = -other;
            out.constant += &self.constant;
            out
        } else {
            &self - &other
        }
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
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -&*c;
        }
        self.constant = -&self.constant;
        self
    }
}

impl Mul<&Rational> for &LinExpr {
    type Output = LinExpr;
    fn mul(self, c: &Rational) -> LinExpr {
        self.scale(c)
    }
}

/// Scales in place.
impl Mul<&Rational> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, c: &Rational) -> LinExpr {
        if c.is_zero() {
            return LinExpr::zero();
        }
        for (_, a) in &mut self.terms {
            *a = &*a * c;
        }
        self.constant = &self.constant * c;
        self
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
