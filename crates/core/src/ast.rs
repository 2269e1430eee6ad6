//! Abstract syntax of LyriC queries (§4.2).

use crate::span::Span;
use lyric_arith::Rational;

/// A complete LyriC statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Select(SelectQuery),
    CreateView(ViewQuery),
}

/// `CREATE VIEW name AS SUBCLASS OF parent <select>`. When `name` is a
/// variable declared in the SELECT's FROM clause, one view class is created
/// per binding of that variable (the paper's Region classification
/// example).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewQuery {
    pub name: String,
    /// Span of the view name in the source.
    pub name_span: Span,
    pub parent: String,
    /// Span of the parent-class name in the source.
    pub parent_span: Span,
    pub select: SelectQuery,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    pub items: Vec<SelectItem>,
    /// `SIGNATURE attr => Class` / `attr =>> Class` declarations for view
    /// output objects.
    pub signature: Vec<SigItem>,
    /// `FROM Class Var` pairs.
    pub from: Vec<FromItem>,
    /// `OID FUNCTION OF X,Y`: output objects get id-function oids over the
    /// listed variables.
    pub oid_function: Option<Vec<String>>,
    /// Spans parallel to `oid_function`'s variables (empty when absent).
    pub oid_function_spans: Vec<Span>,
    pub where_clause: Option<Cond>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    pub class: String,
    /// Span of the class name in the source.
    pub class_span: Span,
    pub var: String,
    /// Span of the variable name in the source.
    pub var_span: Span,
}

impl FromItem {
    /// A FROM item with dummy spans (for programmatic construction).
    pub fn new(class: impl Into<String>, var: impl Into<String>) -> FromItem {
        FromItem {
            class: class.into(),
            class_span: Span::DUMMY,
            var: var.into(),
            var_span: Span::DUMMY,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SigItem {
    pub attr: String,
    pub is_set: bool,
    pub class: String,
    /// Span of the target class name in the source.
    pub class_span: Span,
}

/// One SELECT output column, optionally labelled (`name = X.name`).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub label: Option<String>,
    pub value: SelectValue,
    /// Span of the whole item in the source.
    pub span: Span,
}

/// What a SELECT column computes.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectValue {
    /// A path expression (its tail oid).
    Path(PathExpr),
    /// A CST formula creating a new constraint object — §4.2 item 1.
    Formula(Formula),
    /// `MAX/MIN/MAX_POINT/MIN_POINT (objective SUBJECT TO formula)` —
    /// §4.2 items 2 and 3.
    Optimize {
        kind: OptKind,
        objective: Arith,
        formula: Formula,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptKind {
    Max,
    Min,
    MaxPoint,
    MinPoint,
}

// ---------------------------------------------------------------- paths

/// An XSQL extended path expression:
/// `selector0.Attr1[sel1].Attr2[sel2]…` (§2.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathExpr {
    pub root: Selector,
    pub steps: Vec<Step>,
    /// Span of the whole path in the source.
    pub span: Span,
}

impl PathExpr {
    /// A bare variable path.
    pub fn var(name: impl Into<String>) -> PathExpr {
        PathExpr {
            root: Selector::Var(name.into()),
            steps: Vec::new(),
            span: Span::DUMMY,
        }
    }
}

/// A selector: a variable or a ground oid literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Selector {
    Var(String),
    Lit(OidLit),
}

/// Ground oid literals appearing in queries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OidLit {
    Named(String),
    Int(i64),
    Str(String),
    Bool(bool),
}

/// One path step: an attribute (name or attribute variable) with an
/// optional selector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Step {
    pub attr: String,
    pub selector: Option<Selector>,
    /// Span of this step (attribute plus selector) in the source.
    pub span: Span,
}

// ------------------------------------------------------------ conditions

/// WHERE-clause conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
    Not(Box<Cond>),
    /// A path expression used as a Boolean predicate: true iff some
    /// database path satisfies a ground instance (§2.2). Binds its
    /// selector variables.
    PathPred(PathExpr),
    /// Comparison of path-expression values / literals.
    Compare {
        lhs: CmpOperand,
        op: CmpOp,
        rhs: CmpOperand,
    },
    /// Satisfiability predicate: a parenthesized CST formula (§4.2 item 1
    /// of WHERE predicates).
    Sat(Formula),
    /// Entailment predicate `φ |= ψ` (§4.2 item 2).
    Entails(Formula, Formula),
}

#[derive(Debug, Clone, PartialEq)]
pub enum CmpOperand {
    Path(PathExpr),
    Num(Rational),
    Str(String),
    Bool(bool),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    /// Set containment of path-expression values.
    Contains,
}

// -------------------------------------------------------------- formulas

/// CST formulas (§4.2): the syntactic families of §3.1 extended with
/// pseudo-linear atoms and CST-object references.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Not(Box<Formula>),
    /// Projection `((x₁,…,xₙ) | φ)`.
    Proj {
        vars: Vec<String>,
        body: Box<Formula>,
        span: Span,
    },
    /// A CST-object reference `O(x₁,…,xₙ)` or bare `O`, where `O` is a path
    /// expression. With `vars: None` the variable names are "simply copied
    /// from the schema" (§4.2).
    Pred {
        path: PathExpr,
        vars: Option<Vec<String>>,
    },
    /// A chained pseudo-linear constraint `a₁ op₁ a₂ op₂ … aₖ`
    /// (e.g. `-4 <= w <= 4`), denoting the conjunction of adjacent pairs.
    Chain {
        first: Arith,
        rest: Vec<(CRelOp, Arith)>,
        span: Span,
    },
}

impl Formula {
    /// Best-effort source span of this formula: the join of the spans of
    /// its parsed leaves (dummy for fully synthesized formulas).
    pub fn span(&self) -> Span {
        match self {
            Formula::And(a, b) | Formula::Or(a, b) => a.span().join(b.span()),
            Formula::Not(a) => a.span(),
            Formula::Proj { span, body, .. } => span.join(body.span()),
            Formula::Pred { path, .. } => path.span,
            Formula::Chain { span, first, rest } => rest
                .iter()
                .fold(span.join(first.span()), |acc, (_, a)| acc.join(a.span())),
        }
    }

    /// The leaves of this formula's top-level `AND` tree, left to right
    /// (the formula itself when it is not an `AND`).
    pub(crate) fn conjuncts(&self) -> Vec<&Formula> {
        fn walk<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
            match f {
                Formula::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// Relational operators in constraint atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CRelOp {
    Eq,
    Neq,
    Le,
    Lt,
    Ge,
    Gt,
}

/// Pseudo-linear arithmetic: constants, constraint variables, and path
/// expressions that must evaluate to numeric constants (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Arith {
    Num(Rational),
    /// A bare identifier: a constraint variable, unless the evaluator
    /// resolves it to a FROM-bound object (then it must be numeric).
    Var(String),
    /// A multi-step path used as a numeric constant.
    PathConst(PathExpr),
    Add(Box<Arith>, Box<Arith>),
    Sub(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
    Neg(Box<Arith>),
}

impl Arith {
    /// Best-effort source span: paths carry spans; bare variables and
    /// literals do not, so this may be dummy.
    pub fn span(&self) -> Span {
        match self {
            Arith::Num(_) | Arith::Var(_) => Span::DUMMY,
            Arith::PathConst(p) => p.span,
            Arith::Add(a, b) | Arith::Sub(a, b) | Arith::Mul(a, b) => a.span().join(b.span()),
            Arith::Neg(a) => a.span(),
        }
    }
}

impl Cond {
    /// Best-effort source span of this condition.
    pub fn span(&self) -> Span {
        match self {
            Cond::And(a, b) | Cond::Or(a, b) => a.span().join(b.span()),
            Cond::Not(a) => a.span(),
            Cond::PathPred(p) => p.span,
            Cond::Compare { lhs, rhs, .. } => lhs.span().join(rhs.span()),
            Cond::Sat(f) => f.span(),
            Cond::Entails(a, b) => a.span().join(b.span()),
        }
    }
}

impl CmpOperand {
    /// Source span (dummy for literals, which carry no position).
    pub fn span(&self) -> Span {
        match self {
            CmpOperand::Path(p) => p.span,
            _ => Span::DUMMY,
        }
    }
}
