//! Static semantic analysis of LyriC queries.
//!
//! The analyzer runs on the parsed AST plus the schema — it never touches
//! instance data — and mirrors the evaluator's resolution rules exactly so
//! that everything it rejects would have failed (or silently misbehaved)
//! at runtime. Five passes share one walk:
//!
//! 1. **Name resolution** — FROM classes, view parents and SIGNATURE
//!    targets must exist ([`codes::UNKNOWN_CLASS`]); path attributes are
//!    resolved step by step against the IS-A hierarchy
//!    ([`codes::UNKNOWN_ATTRIBUTE`]); variable roots must be bindable by
//!    the left-to-right evaluation order ([`codes::UNBOUND_VARIABLE`]).
//! 2. **Type checking** — every path gets a static type (builtin scalar,
//!    object of a class, or `CST(n)`); pseudo-linear atoms need numeric
//!    paths ([`codes::NON_NUMERIC`], [`codes::NONLINEAR_PRODUCT`]); `|=`
//!    and satisfiability predicates need CST-valued paths
//!    ([`codes::NOT_A_CST`]); explicit CST variable lists must match the
//!    declared dimension ([`codes::DIMENSION_MISMATCH`],
//!    [`codes::OBJECTIVE_DIMENSION`]).
//! 3. **Family inference** — the minimal §3.1 constraint family of each
//!    formula, checked against the closure table
//!    ([`lyric_constraint::CstFamily::apply`]): negation outside the
//!    conjunctive family is an error ([`codes::NON_CONJUNCTIVE_NEGATION`]);
//!    strict mode also flags opaque negations, unrestricted projections
//!    and `≠`-elimination ([`codes::OPAQUE_NEGATION`],
//!    [`codes::UNRESTRICTED_PROJECTION`],
//!    [`codes::DISEQUATION_ELIMINATION`]).
//! 4. **Scope well-formedness** — duplicate projection / FROM variables
//!    ([`codes::DUPLICATE_CST_VARIABLE`],
//!    [`codes::DUPLICATE_FROM_VARIABLE`]).
//! 5. **Semantic lints** — interval analysis over single-variable atoms
//!    finds trivially unsatisfiable conjuncts ([`codes::TRIVIALLY_UNSAT`]);
//!    the multi-variable box domain (`lyric_constraint::IntervalBox`) then
//!    propagates bounds *across* atoms, proving whole conjunctions empty
//!    ([`codes::STATIC_UNSAT`]), OR branches dead
//!    ([`codes::DEAD_DISJUNCT`]) and comparisons redundant
//!    ([`codes::STATIC_ENTAILED`]); unused FROM bindings warn
//!    ([`codes::UNUSED_BINDING`]); the opt-in deep check instantiates
//!    database-free formulas through the LP engine under a small budget
//!    ([`codes::LP_UNSAT`]) — demoted to a fallback for whatever the box
//!    domain already decided.
//!
//! The binding model is *possibly-bound*: a variable counts as bound at a
//! use point if **some** evaluation path can have bound it (OR unions its
//! branches' bindings), so the analyzer never errors on a query the
//! evaluator could complete. Conversely it only types what it can prove:
//! selector variables over unknown attributes, attribute variables and
//! ground oids all type as *unknown* and silence downstream checks.

use crate::ast::{
    Arith, CRelOp, CmpOp, CmpOperand, Cond, Formula, PathExpr, Query, SelectQuery, SelectValue,
    Selector, Step,
};
use crate::diag::{codes, Diagnostic, Severity};
use crate::eval::QueryNames;
use crate::span::Span;
use lyric_arith::Rational;
use lyric_constraint::{Atom, CstFamily, FamilyOp, IntervalBox, LinExpr, RelOp};
use lyric_oodb::{AttrDef, AttrTarget, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// Options controlling the analyzer.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzerOptions {
    /// Enable strict lints: opaque negation, unrestricted projection and
    /// `≠`-elimination warnings (LYA021–LYA023).
    pub strict: bool,
    /// Enable the LP-backed deep unsatisfiability check (LYA041), which
    /// instantiates database-free formulas under a small engine budget.
    pub deep_unsat: bool,
}

impl AnalyzerOptions {
    /// Strict mode: all closure-rule lints on.
    pub fn strict() -> AnalyzerOptions {
        AnalyzerOptions {
            strict: true,
            deep_unsat: false,
        }
    }

    /// Strict mode plus the LP-backed deep unsatisfiability check.
    pub fn deep() -> AnalyzerOptions {
        AnalyzerOptions {
            strict: true,
            deep_unsat: true,
        }
    }
}

/// Analyze a parsed query against a schema. Returns all findings, sorted
/// by source position; [`Severity::Error`] findings are the ones
/// [`crate::execute`] rejects before evaluation.
pub fn analyze(schema: &Schema, query: &Query, opts: &AnalyzerOptions) -> Vec<Diagnostic> {
    let mut a = Analyzer {
        schema,
        opts,
        diags: Vec::new(),
        declared: BTreeSet::new(),
        bound: BTreeSet::new(),
        types: BTreeMap::new(),
        deep: Vec::new(),
    };
    match query {
        Query::Select(q) => a.select(q, None),
        Query::CreateView(v) => {
            if !schema.has_class(&v.parent) && !v.select.from.iter().any(|f| f.var == v.parent) {
                a.diags.push(
                    Diagnostic::error(
                        codes::UNKNOWN_CLASS,
                        v.parent_span,
                        format!("unknown view parent class {}", v.parent),
                    )
                    .with_help("the SUBCLASS OF target must be an existing class"),
                );
            }
            a.select(&v.select, Some(&v.name));
        }
    }
    a.finish()
}

/// Analyze source text: lexical and syntax errors surface as a single
/// [`codes::SYNTAX`] diagnostic, otherwise the parsed query is analyzed.
///
/// # Example
///
/// ```
/// use lyric::analyze::{analyze_src, AnalyzerOptions};
///
/// let db = lyric::paper_example::database();
/// let diags = analyze_src(
///     db.schema(),
///     "SELECT X FROM Desk X WHERE X.bogus[Y]",
///     &AnalyzerOptions::default(),
/// );
/// assert_eq!(diags[0].code, lyric::diag::codes::UNKNOWN_ATTRIBUTE);
/// ```
pub fn analyze_src(schema: &Schema, src: &str, opts: &AnalyzerOptions) -> Vec<Diagnostic> {
    use crate::error::LyricError;
    match crate::parser::parse_query(src) {
        Ok(q) => analyze(schema, &q, opts),
        Err(LyricError::Lex(e)) => {
            vec![Diagnostic::error(
                codes::SYNTAX,
                e.span,
                format!("lex error: {}", e.message),
            )]
        }
        Err(LyricError::Parse(e)) => {
            let mut d =
                Diagnostic::error(codes::SYNTAX, e.span, format!("parse error: {}", e.message));
            if !e.expected.is_empty() {
                d = d.with_help(format!("expected {}", e.expected.join(" or ")));
            }
            vec![d]
        }
        Err(other) => vec![Diagnostic::error(
            codes::SYNTAX,
            Span::DUMMY,
            other.to_string(),
        )],
    }
}

/// The static type of a path value, as far as the schema determines it.
#[derive(Debug, Clone, PartialEq)]
enum Ty {
    /// An instance of a user class.
    Object(String),
    /// A builtin scalar (`int`, `real`, `string`, `bool`).
    Builtin(String),
    /// A constraint object; the declared schema variables when the
    /// attribute target spells them out.
    Cst {
        dim: usize,
        vars: Option<Vec<String>>,
    },
    /// Anything the schema cannot pin down (ground oids, attribute
    /// variables, dynamic attribute names). Silences downstream checks.
    Unknown,
}

impl Ty {
    /// `Some(true)` definitely numeric, `Some(false)` definitely not,
    /// `None` unknown.
    fn numeric(&self) -> Option<bool> {
        match self {
            Ty::Builtin(b) => match b.as_str() {
                "int" | "real" => Some(true),
                "string" | "bool" => Some(false),
                _ => None,
            },
            Ty::Object(_) | Ty::Cst { .. } => Some(false),
            Ty::Unknown => None,
        }
    }

    fn describe(&self) -> String {
        match self {
            Ty::Object(c) => format!("an object of class {c}"),
            Ty::Builtin(b) => format!("a {b} value"),
            Ty::Cst { dim, .. } => format!("a CST({dim}) constraint object"),
            Ty::Unknown => "a value of unknown type".to_string(),
        }
    }
}

/// What the family-inference walk knows about a sub-formula.
struct FamInfo {
    /// The minimal §3.1 family, when statically known.
    fam: Option<CstFamily>,
    /// The formula's free constraint variables, when statically known.
    vars: Option<BTreeSet<String>>,
    /// Whether the formula syntactically contains a `!=` atom.
    neq: bool,
}

/// One accumulated interval bound: the value, whether the bound is
/// strict, and the span of the atom that imposed it.
type Bound = (Rational, bool, Span);

struct Analyzer<'a> {
    schema: &'a Schema,
    opts: &'a AnalyzerOptions,
    diags: Vec<Diagnostic>,
    /// Variables the evaluator declares up front: FROM variables, the
    /// view-name variable, and every bracket selector variable anywhere in
    /// the query (`QueryNames::declared`, the evaluator's own set).
    declared: BTreeSet<String>,
    /// Variables possibly bound at the current analysis point.
    bound: BTreeSet<String>,
    types: BTreeMap<String, Ty>,
    /// Database-free formulas queued for the LP-backed deep check.
    deep: Vec<Formula>,
}

impl Analyzer<'_> {
    // ------------------------------------------------------------ driver

    fn select(&mut self, q: &SelectQuery, view_var: Option<&str>) {
        self.declared.extend(QueryNames::of(q, view_var).declared);

        // FROM: classes must exist; variables bind in clause order.
        let mut seen_from: BTreeSet<&str> = BTreeSet::new();
        for f in &q.from {
            if !self.schema.has_class(&f.class) {
                self.diags.push(
                    Diagnostic::error(
                        codes::UNKNOWN_CLASS,
                        f.class_span,
                        format!("unknown class {}", f.class),
                    )
                    .with_help("FROM ranges over the extent of an existing class"),
                );
            }
            if !seen_from.insert(&f.var) {
                self.diags.push(
                    Diagnostic::error(
                        codes::DUPLICATE_FROM_VARIABLE,
                        f.var_span,
                        format!("FROM variable {} is bound more than once", f.var),
                    )
                    .with_help("the second binding silently shadows the first"),
                );
            }
            self.bind(&f.var, Ty::Object(f.class.clone()));
        }

        // SIGNATURE: target classes must exist.
        for s in &q.signature {
            if !self.schema.has_class(&s.class) {
                self.diags.push(Diagnostic::error(
                    codes::UNKNOWN_CLASS,
                    s.class_span,
                    format!("unknown SIGNATURE target class {}", s.class),
                ));
            }
        }

        // WHERE: conditions both check and (possibly) bind.
        if let Some(w) = &q.where_clause {
            self.cond(w);
        }

        // OID FUNCTION variables must be bound by the time output oids
        // are minted (i.e. after FROM and WHERE).
        if let Some(vars) = &q.oid_function {
            for (i, v) in vars.iter().enumerate() {
                if !self.bound.contains(v) {
                    let span = q.oid_function_spans.get(i).copied().unwrap_or(Span::DUMMY);
                    self.diags.push(
                        Diagnostic::error(
                            codes::UNBOUND_VARIABLE,
                            span,
                            format!("OID FUNCTION variable {v} is never bound"),
                        )
                        .with_help("oid functions range over FROM or selector bindings"),
                    );
                }
            }
        }

        // SELECT items evaluate independently per row: bindings made
        // inside one item are not visible to the next.
        for item in &q.items {
            let snap = self.snapshot();
            match &item.value {
                SelectValue::Path(p) => {
                    self.path(p);
                }
                SelectValue::Formula(f) => {
                    self.formula_root(f);
                }
                SelectValue::Optimize {
                    objective, formula, ..
                } => {
                    let info = self.formula_root(formula);
                    self.chain_arith(objective, formula.span(), &mut BTreeSet::new());
                    self.check_objective(objective, formula, &info, item.span);
                }
            }
            self.restore(snap);
        }

        // Unused FROM bindings (warning): a binding no other clause
        // mentions does nothing but multiply the cross product.
        let used = used_names(q, view_var);
        for f in &q.from {
            if !used.contains(&f.var) {
                self.diags.push(
                    Diagnostic::warning(
                        codes::UNUSED_BINDING,
                        f.var_span,
                        format!("FROM variable {} is never used", f.var),
                    )
                    .with_help("every extent member still multiplies the result rows"),
                );
            }
        }
    }

    fn finish(mut self) -> Vec<Diagnostic> {
        self.deep_check();
        let mut diags = self.diags;
        diags.sort_by(|a, b| (a.span.start, a.code).cmp(&(b.span.start, b.code)));
        diags
    }

    // ---------------------------------------------------------- bindings

    fn bind(&mut self, var: &str, ty: Ty) {
        self.bound.insert(var.to_string());
        self.types.insert(var.to_string(), ty);
    }

    fn snapshot(&self) -> (BTreeSet<String>, BTreeMap<String, Ty>) {
        (self.bound.clone(), self.types.clone())
    }

    fn restore(&mut self, snap: (BTreeSet<String>, BTreeMap<String, Ty>)) {
        self.bound = snap.0;
        self.types = snap.1;
    }

    // -------------------------------------------------------- conditions

    fn cond(&mut self, c: &Cond) {
        match c {
            Cond::And(a, b) => {
                // AND threads bindings left to right.
                self.cond(a);
                self.cond(b);
            }
            Cond::Or(a, b) => {
                // OR unions its branches' bindings: a variable bound in
                // either branch is possibly bound afterwards.
                let base = self.snapshot();
                self.cond(a);
                let after_a = self.snapshot();
                self.restore(base);
                self.cond(b);
                for v in after_a.0 {
                    if !self.bound.contains(&v) {
                        self.bound.insert(v.clone());
                        if let Some(ty) = after_a.1.get(&v) {
                            self.types.insert(v, ty.clone());
                        }
                    }
                }
            }
            Cond::Not(a) => {
                // NOT is an emptiness test: checks run, bindings do not
                // escape.
                let snap = self.snapshot();
                self.cond(a);
                self.restore(snap);
            }
            Cond::PathPred(p) => {
                self.path(p);
            }
            Cond::Compare { lhs, op, rhs } => {
                // Comparisons evaluate operands independently and discard
                // their binding extensions.
                for operand in [lhs, rhs] {
                    let snap = self.snapshot();
                    let ty = self.operand(operand);
                    self.restore(snap);
                    if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
                        && ty.numeric() == Some(false)
                    {
                        self.diags.push(
                            Diagnostic::error(
                                codes::NON_NUMERIC,
                                operand.span(),
                                format!(
                                    "ordered comparison over {}, which is never numeric",
                                    ty.describe()
                                ),
                            )
                            .with_help("<, <=, > and >= compare numeric singletons"),
                        );
                    }
                }
            }
            Cond::Sat(f) => {
                let snap = self.snapshot();
                self.formula_root(f);
                self.restore(snap);
            }
            Cond::Entails(a, b) => {
                for f in [a, b] {
                    let snap = self.snapshot();
                    self.formula(f);
                    self.restore(snap);
                }
            }
        }
    }

    fn operand(&mut self, o: &CmpOperand) -> Ty {
        match o {
            CmpOperand::Path(p) => self.path(p),
            CmpOperand::Num(_) => Ty::Builtin("real".into()),
            CmpOperand::Str(_) => Ty::Builtin("string".into()),
            CmpOperand::Bool(_) => Ty::Builtin("bool".into()),
        }
    }

    // ------------------------------------------------------------- paths

    /// Walk a path step by step, mirroring `eval_path`'s resolution rules,
    /// exporting selector/attribute-variable bindings and returning the
    /// static type of the tail value.
    fn path(&mut self, p: &PathExpr) -> Ty {
        let mut ty = match &p.root {
            Selector::Var(v) => {
                if self.bound.contains(v) {
                    self.types.get(v).cloned().unwrap_or(Ty::Unknown)
                } else if self.declared.contains(v) {
                    self.diags.push(
                        Diagnostic::error(
                            codes::UNBOUND_VARIABLE,
                            p.span,
                            format!("variable {v} is used before anything can bind it"),
                        )
                        .with_help(
                            "FROM binds first, then WHERE left to right; move the binding \
                             occurrence before this use",
                        ),
                    );
                    Ty::Unknown
                } else {
                    // Undeclared names are ground oids looked up in the
                    // database — invisible to static analysis.
                    Ty::Unknown
                }
            }
            Selector::Lit(_) => Ty::Unknown,
        };
        for step in &p.steps {
            let step_ty = self.step(&ty, step);
            if let Some(Selector::Var(v)) = &step.selector {
                self.bind(v, step_ty.clone());
            }
            ty = step_ty;
        }
        ty
    }

    /// Resolve one step against the static type of the value so far,
    /// mirroring the evaluator's order: schema attribute, then
    /// bound-variable attribute name, then uppercase attribute variable.
    fn step(&mut self, ty: &Ty, step: &Step) -> Ty {
        let class = match ty {
            Ty::Object(c) => c.clone(),
            Ty::Builtin(b) => {
                self.diags.push(
                    Diagnostic::error(
                        codes::UNKNOWN_ATTRIBUTE,
                        step.span,
                        format!(
                            "{} has no attribute {}",
                            Ty::Builtin(b.clone()).describe(),
                            step.attr
                        ),
                    )
                    .with_help("builtin scalars have no attributes; this path is always empty"),
                );
                return Ty::Unknown;
            }
            Ty::Cst { dim, .. } => {
                self.diags.push(
                    Diagnostic::error(
                        codes::UNKNOWN_ATTRIBUTE,
                        step.span,
                        format!(
                            "a CST({dim}) constraint object has no attribute {}",
                            step.attr
                        ),
                    )
                    .with_help("constraint objects are queried with |= and SAT, not paths"),
                );
                return Ty::Unknown;
            }
            Ty::Unknown => return Ty::Unknown,
        };
        // 1. A schema attribute visible from the static class.
        if let Some(def) = self.schema.attribute(&class, &step.attr) {
            return self.target_ty(def);
        }
        // 2. A bound (or at least declared) variable holding the
        //    attribute name dynamically.
        if self.bound.contains(&step.attr) || self.declared.contains(&step.attr) {
            return Ty::Unknown;
        }
        // 3. An uppercase attribute variable: it binds to the attribute
        //    *name* (a string) and the value's type is unknown.
        if step
            .attr
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
        {
            self.bind(&step.attr, Ty::Builtin("string".into()));
            return Ty::Unknown;
        }
        // 4. The extent of `class` may hold instances of subclasses (and,
        //    for view classes, of any class below an ancestor), so an
        //    attribute declared anywhere in the subclass cone of an
        //    ancestor still resolves dynamically.
        let mut cone_defs: Vec<&AttrDef> = Vec::new();
        for anc in self.schema.ancestors(&class) {
            for sub in self.schema.subclasses_of(anc) {
                if let Some(cd) = self.schema.class(sub) {
                    if let Some(def) = cd.attributes.get(&step.attr) {
                        cone_defs.push(def);
                    }
                }
            }
        }
        if !cone_defs.is_empty() {
            let first = self.target_ty(cone_defs[0]);
            let all_agree = cone_defs.iter().all(|d| self.target_ty(d) == first);
            return if all_agree { first } else { Ty::Unknown };
        }
        // 5. Nothing can resolve this attribute: the same search the
        //    evaluator would report in `UnknownAttribute`.
        let searched = self.schema.ancestors(&class);
        let chain = if searched.is_empty() {
            class.clone()
        } else {
            searched.join(" -> ")
        };
        self.diags.push(
            Diagnostic::error(
                codes::UNKNOWN_ATTRIBUTE,
                step.span,
                format!("class {class} has no attribute {}", step.attr),
            )
            .with_help(format!("searched IS-A chain: {chain}")),
        );
        Ty::Unknown
    }

    fn target_ty(&self, def: &AttrDef) -> Ty {
        match &def.target {
            AttrTarget::Cst { vars } => Ty::Cst {
                dim: vars.len(),
                vars: Some(vars.iter().map(|v| v.name().to_string()).collect()),
            },
            AttrTarget::Class { class, .. } => match class.as_str() {
                "int" | "real" | "string" | "bool" => Ty::Builtin(class.clone()),
                "object" => Ty::Unknown,
                c => {
                    if self.schema.has_class(c) {
                        Ty::Object(c.to_string())
                    } else {
                        Ty::Unknown
                    }
                }
            },
        }
    }

    // ---------------------------------------------------------- formulas

    /// Analyze a top-level formula occurrence: the recursive family /
    /// type walk plus the whole-formula lints (interval analysis and the
    /// deep-check queue).
    fn formula_root(&mut self, f: &Formula) -> FamInfo {
        let info = self.formula(f);
        self.unsat_scan(f);
        self.box_scan(f, codes::STATIC_UNSAT);
        if self.opts.deep_unsat && self.database_free(f) {
            self.deep.push(f.clone());
        }
        info
    }

    fn formula(&mut self, f: &Formula) -> FamInfo {
        match f {
            Formula::And(a, b) => {
                let fa = self.formula(a);
                let fb = self.formula(b);
                FamInfo {
                    fam: join_fams(fa.fam, fb.fam, FamilyOp::Conjoin),
                    vars: union_vars(fa.vars, fb.vars),
                    neq: fa.neq || fb.neq,
                }
            }
            Formula::Or(a, b) => {
                let fa = self.formula(a);
                // The runtime `or()` dedups syntactically identical
                // disjuncts, so `φ OR φ` stays in φ's family.
                if a == b {
                    return fa;
                }
                let fb = self.formula(b);
                FamInfo {
                    fam: join_fams(fa.fam, fb.fam, FamilyOp::Disjoin),
                    vars: union_vars(fa.vars, fb.vars),
                    neq: fa.neq || fb.neq,
                }
            }
            Formula::Not(a) => {
                let fa = self.formula(a);
                match fa.fam {
                    Some(fam) if CstFamily::apply(fam, FamilyOp::Negate, None).is_none() => {
                        self.diags.push(
                            Diagnostic::error(
                                codes::NON_CONJUNCTIVE_NEGATION,
                                a.span(),
                                format!(
                                    "negation of a {} formula is outside the §3.1 closure",
                                    fam.name()
                                ),
                            )
                            .with_help(
                                "only the conjunctive family is closed under negation; \
                                 push NOT inward or split the disjunction",
                            ),
                        );
                    }
                    Some(_) => {}
                    None if self.opts.strict => {
                        self.diags.push(
                            Diagnostic::warning(
                                codes::OPAQUE_NEGATION,
                                a.span(),
                                "negation of a stored constraint object whose family is \
                                 unknown statically"
                                    .to_string(),
                            )
                            .with_help(
                                "negation fails at runtime unless the object is conjunctive",
                            ),
                        );
                    }
                    None => {}
                }
                FamInfo {
                    fam: fa
                        .fam
                        .and_then(|fam| CstFamily::apply(fam, FamilyOp::Negate, None)),
                    vars: fa.vars,
                    neq: fa.neq,
                }
            }
            Formula::Proj { vars, body, span } => {
                self.check_dup_vars(vars, *span);
                let fb = self.formula(body);
                let kept: BTreeSet<String> = vars.iter().cloned().collect();
                let mut restricted = true;
                if let Some(bvars) = &fb.vars {
                    let eliminated: Vec<&String> =
                        bvars.iter().filter(|v| !kept.contains(*v)).collect();
                    let k = eliminated.len();
                    restricted = k <= 1 || kept.len() <= 1;
                    if self.opts.strict && !restricted {
                        self.diags.push(
                            Diagnostic::warning(
                                codes::UNRESTRICTED_PROJECTION,
                                *span,
                                format!(
                                    "projection eliminates {k} of {} variables while keeping \
                                     {}: outside the restricted-projection closure (§3.1)",
                                    bvars.len(),
                                    kept.len()
                                ),
                            )
                            .with_help("evaluation falls back to lazy existential quantifiers"),
                        );
                    }
                    if self.opts.strict && fb.neq && k >= 1 {
                        self.diags.push(
                            Diagnostic::warning(
                                codes::DISEQUATION_ELIMINATION,
                                *span,
                                "projection eliminates variables from a formula with a != \
                                 atom"
                                    .to_string(),
                            )
                            .with_help(
                                "eliminating a disequation needs case splitting, which can \
                                 leave the conjunctive family",
                            ),
                        );
                    }
                }
                let op = if restricted {
                    FamilyOp::ProjectRestricted
                } else {
                    FamilyOp::Project
                };
                FamInfo {
                    fam: fb.fam.and_then(|fam| CstFamily::apply(fam, op, None)),
                    vars: Some(kept),
                    neq: fb.neq,
                }
            }
            Formula::Pred { path, vars } => {
                let ty = self.path(path);
                if let Some(vs) = vars {
                    self.check_dup_vars(vs, path.span);
                }
                let dim = match &ty {
                    Ty::Cst { dim, .. } => Some(*dim),
                    Ty::Object(c) => {
                        let cst_dim = self
                            .schema
                            .subclasses_of(c)
                            .iter()
                            .find_map(|s| self.schema.class(s).and_then(|cd| cd.cst_dim));
                        if cst_dim.is_none() {
                            self.diags.push(
                                Diagnostic::error(
                                    codes::NOT_A_CST,
                                    path.span,
                                    format!(
                                        "{} is used as a constraint object, but no class in \
                                         its cone is a CST class",
                                        ty.describe()
                                    ),
                                )
                                .with_help("CST references resolve paths to constraint objects"),
                            );
                        }
                        // The dimension is only trusted when the static
                        // class itself declares it.
                        self.schema.class(c).and_then(|cd| cd.cst_dim)
                    }
                    Ty::Builtin(_) => {
                        self.diags.push(
                            Diagnostic::error(
                                codes::NOT_A_CST,
                                path.span,
                                format!("{} is not a constraint object", ty.describe()),
                            )
                            .with_help("CST references resolve paths to constraint objects"),
                        );
                        None
                    }
                    Ty::Unknown => None,
                };
                if let (Some(vs), Some(d)) = (vars, dim) {
                    if vs.len() != d {
                        self.diags.push(
                            Diagnostic::error(
                                codes::DIMENSION_MISMATCH,
                                path.span,
                                format!(
                                    "CST reference lists {} variables but the object's \
                                     dimension is {d}",
                                    vs.len()
                                ),
                            )
                            .with_help("the variable list renames all dimensions positionally"),
                        );
                    }
                }
                let fvars: Option<BTreeSet<String>> = match vars {
                    Some(vs) => Some(vs.iter().cloned().collect()),
                    None => match &ty {
                        Ty::Cst {
                            vars: Some(names), ..
                        } => Some(names.iter().cloned().collect()),
                        _ => None,
                    },
                };
                // The stored object's family is a runtime property.
                FamInfo {
                    fam: None,
                    vars: fvars,
                    neq: false,
                }
            }
            Formula::Chain { first, rest, span } => {
                let mut cvars: BTreeSet<String> = BTreeSet::new();
                self.chain_arith(first, *span, &mut cvars);
                let mut neq = false;
                for (op, a) in rest {
                    neq |= *op == CRelOp::Neq;
                    self.chain_arith(a, *span, &mut cvars);
                }
                // Nonlinear products: both factors definitely non-constant.
                self.scan_products(first, *span);
                for (_, a) in rest {
                    self.scan_products(a, *span);
                }
                FamInfo {
                    fam: Some(CstFamily::Conjunctive),
                    vars: Some(cvars),
                    neq,
                }
            }
        }
    }

    /// Check one pseudo-linear term: paths must be numeric, bound
    /// variables must hold numbers, unbound names accumulate as
    /// constraint variables.
    fn chain_arith(&mut self, a: &Arith, chain_span: Span, cvars: &mut BTreeSet<String>) {
        match a {
            Arith::Num(_) => {}
            Arith::Var(name) => {
                if self.bound.contains(name) {
                    let ty = self.types.get(name).cloned().unwrap_or(Ty::Unknown);
                    if ty.numeric() == Some(false) {
                        self.diags.push(
                            Diagnostic::error(
                                codes::NON_NUMERIC,
                                chain_span,
                                format!(
                                    "variable {name} is bound to {}, which cannot appear in \
                                     arithmetic",
                                    ty.describe()
                                ),
                            )
                            .with_help("bound variables in pseudo-linear atoms must hold numbers"),
                        );
                    }
                } else if !self.declared.contains(name) {
                    cvars.insert(name.clone());
                }
            }
            Arith::PathConst(p) => {
                let ty = self.path(p);
                if ty.numeric() == Some(false) {
                    self.diags.push(
                        Diagnostic::error(
                            codes::NON_NUMERIC,
                            p.span,
                            format!(
                                "path evaluates to {}, but pseudo-linear atoms need numeric \
                                 constants",
                                ty.describe()
                            ),
                        )
                        .with_help("only int- and real-valued paths can appear in arithmetic"),
                    );
                }
            }
            Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
                self.chain_arith(x, chain_span, cvars);
                self.chain_arith(y, chain_span, cvars);
            }
            Arith::Neg(x) => self.chain_arith(x, chain_span, cvars),
        }
    }

    /// Flag products whose both factors definitely contain constraint
    /// variables — the evaluator rejects them for every binding.
    fn scan_products(&mut self, a: &Arith, chain_span: Span) {
        match a {
            Arith::Mul(x, y) => {
                self.scan_products(x, chain_span);
                self.scan_products(y, chain_span);
                if self.definitely_nonconstant(x) && self.definitely_nonconstant(y) {
                    let span = {
                        let s = x.span().join(y.span());
                        if s.is_dummy() {
                            chain_span
                        } else {
                            s
                        }
                    };
                    self.diags.push(
                        Diagnostic::error(
                            codes::NONLINEAR_PRODUCT,
                            span,
                            "product of two non-constant pseudo-linear terms".to_string(),
                        )
                        .with_help("LyriC constraints are linear: one factor must be constant"),
                    );
                }
            }
            Arith::Add(x, y) | Arith::Sub(x, y) => {
                self.scan_products(x, chain_span);
                self.scan_products(y, chain_span);
            }
            Arith::Neg(x) => self.scan_products(x, chain_span),
            Arith::Num(_) | Arith::Var(_) | Arith::PathConst(_) => {}
        }
    }

    fn definitely_nonconstant(&self, a: &Arith) -> bool {
        match a {
            Arith::Num(_) | Arith::PathConst(_) => false,
            Arith::Var(v) => !self.bound.contains(v) && !self.declared.contains(v),
            Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
                self.definitely_nonconstant(x) || self.definitely_nonconstant(y)
            }
            Arith::Neg(x) => self.definitely_nonconstant(x),
        }
    }

    fn check_dup_vars(&mut self, vars: &[String], span: Span) {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for v in vars {
            if !seen.insert(v) {
                self.diags.push(
                    Diagnostic::error(
                        codes::DUPLICATE_CST_VARIABLE,
                        span,
                        format!("variable {v} appears twice in the CST variable list"),
                    )
                    .with_help("dimension schemas are sets: each variable names one dimension"),
                );
            }
        }
    }

    /// LYA014: a MAX/MIN objective over a projected formula may only
    /// mention the projected dimensions — anything else is free in the
    /// objective but absent from the optimization space, which the
    /// evaluator rejects for every binding.
    fn check_objective(
        &mut self,
        objective: &Arith,
        formula: &Formula,
        _info: &FamInfo,
        item_span: Span,
    ) {
        let Formula::Proj { vars, .. } = formula else {
            return;
        };
        let dims: BTreeSet<&str> = vars.iter().map(String::as_str).collect();
        let mut ovars: BTreeSet<String> = BTreeSet::new();
        collect_constraint_vars(objective, &self.bound, &self.declared, &mut ovars);
        for v in ovars {
            if !dims.contains(v.as_str()) {
                self.diags.push(
                    Diagnostic::error(
                        codes::OBJECTIVE_DIMENSION,
                        item_span,
                        format!(
                            "objective mentions {v}, which is not among the projected \
                             dimensions ({})",
                            vars.join(", ")
                        ),
                    )
                    .with_help("optimize over the formula's dimension schema"),
                );
            }
        }
    }

    // ------------------------------------------------ trivially-unsat lint

    /// Interval analysis over single-variable atoms within one
    /// conjunctive scope; OR branches are scanned independently.
    fn unsat_scan(&mut self, f: &Formula) {
        let mut atoms: Vec<(&Arith, CRelOp, &Arith, Span)> = Vec::new();
        let mut branches: Vec<&Formula> = Vec::new();
        collect_conjunctive_atoms(f, &mut atoms, &mut branches);

        let mut lo: BTreeMap<&str, Bound> = BTreeMap::new();
        let mut hi: BTreeMap<&str, Bound> = BTreeMap::new();
        for (a, op, b, span) in &atoms {
            // Ground atoms decide immediately.
            if let (Some(x), Some(y)) = (const_fold(a), const_fold(b)) {
                let holds = match op {
                    CRelOp::Eq => x == y,
                    CRelOp::Neq => x != y,
                    CRelOp::Le => x <= y,
                    CRelOp::Lt => x < y,
                    CRelOp::Ge => x >= y,
                    CRelOp::Gt => x > y,
                };
                if !holds {
                    self.diags.push(
                        Diagnostic::warning(
                            codes::TRIVIALLY_UNSAT,
                            *span,
                            "constant atom is false, so this conjunct denotes the empty set"
                                .to_string(),
                        )
                        .with_help("the query still runs, but this branch contributes nothing"),
                    );
                }
                continue;
            }
            // var ⋈ const and const ⋈ var tighten the variable's interval.
            let (v, c, op) = match (a, const_fold(b)) {
                (Arith::Var(v), Some(c)) => (v.as_str(), c, *op),
                _ => match (const_fold(a), b) {
                    (Some(c), Arith::Var(v)) => (v.as_str(), c, flip(*op)),
                    _ => continue,
                },
            };
            if self.bound.contains(v) || self.declared.contains(v) {
                continue; // not a constraint variable
            }
            match op {
                CRelOp::Le => tighten_hi(&mut hi, v, c, false, *span),
                CRelOp::Lt => tighten_hi(&mut hi, v, c, true, *span),
                CRelOp::Ge => tighten_lo(&mut lo, v, c, false, *span),
                CRelOp::Gt => tighten_lo(&mut lo, v, c, true, *span),
                CRelOp::Eq => {
                    tighten_lo(&mut lo, v, c.clone(), false, *span);
                    tighten_hi(&mut hi, v, c, false, *span);
                }
                CRelOp::Neq => {}
            }
        }
        for (v, (l, ls, lspan)) in &lo {
            if let Some((h, hs, hspan)) = hi.get(v) {
                let empty = l > h || (l == h && (*ls || *hs));
                if empty {
                    self.diags.push(
                        Diagnostic::warning(
                            codes::TRIVIALLY_UNSAT,
                            lspan.join(*hspan),
                            format!("conjunct bounds {v} to an empty interval"),
                        )
                        .with_help(
                            "the lower bound exceeds the upper bound: this conjunct denotes \
                             the empty set",
                        ),
                    );
                }
            }
        }

        for b in branches {
            self.unsat_scan(b);
        }
    }

    // ------------------------------------------------ interval-box lint

    /// Convert a pseudo-linear term to a [`LinExpr`] over the scope's
    /// constraint variables. `None` when the term mentions a database
    /// reference (a path, or a FROM-bound / selector-declared variable)
    /// or a product of two non-constant factors — dropping such atoms
    /// only widens the inferred box, which keeps the lint sound.
    fn arith_to_linexpr(&self, a: &Arith) -> Option<LinExpr> {
        match a {
            Arith::Num(n) => Some(LinExpr::constant(n.clone())),
            Arith::PathConst(_) => None,
            Arith::Var(v) => {
                if self.bound.contains(v) || self.declared.contains(v) {
                    None
                } else {
                    Some(LinExpr::var(lyric_constraint::Var::new(v.clone())))
                }
            }
            Arith::Add(x, y) => Some(&self.arith_to_linexpr(x)? + &self.arith_to_linexpr(y)?),
            Arith::Sub(x, y) => Some(&self.arith_to_linexpr(x)? - &self.arith_to_linexpr(y)?),
            Arith::Mul(x, y) => match (const_fold(x), const_fold(y)) {
                (Some(c), _) => Some(self.arith_to_linexpr(y)?.scale(&c)),
                (_, Some(c)) => Some(self.arith_to_linexpr(x)?.scale(&c)),
                _ => None,
            },
            Arith::Neg(x) => Some(-&self.arith_to_linexpr(x)?),
        }
    }

    /// The convertible, deduplicated, non-ground atoms of `f`'s
    /// conjunctive skeleton (ground atoms are `unsat_scan`'s LYA040
    /// territory), each with its source span.
    fn conjunctive_box_atoms(&self, f: &Formula) -> Vec<(Atom, Span)> {
        let mut raw: Vec<(&Arith, CRelOp, &Arith, Span)> = Vec::new();
        let mut branches: Vec<&Formula> = Vec::new();
        collect_conjunctive_atoms(f, &mut raw, &mut branches);
        let mut atoms: Vec<(Atom, Span)> = Vec::new();
        for (a, op, b, span) in raw {
            let (Some(lhs), Some(rhs)) = (self.arith_to_linexpr(a), self.arith_to_linexpr(b))
            else {
                continue;
            };
            let atom = Atom::new(lhs, crel(op), rhs);
            if atom.trivial().is_some() || atoms.iter().any(|(seen, _)| seen == &atom) {
                continue;
            }
            atoms.push((atom, span));
        }
        atoms
    }

    /// Multi-variable interval-box lint over the conjunctive skeleton
    /// (the always-on analyzer face of the `lyric_constraint` box domain,
    /// run after [`unsat_scan`](Self::unsat_scan)). Converts every
    /// pseudo-linear atom to a normalized constraint atom and runs the
    /// box transfer functions to a truncated fixpoint:
    ///
    /// * an empty box fires `code` — [`codes::STATIC_UNSAT`] at a formula
    ///   root, [`codes::DEAD_DISJUNCT`] inside an OR branch — unless the
    ///   single-variable scan already flagged the same scope;
    /// * otherwise each comparison whose negation empties the box of the
    ///   remaining atoms is redundant ([`codes::STATIC_ENTAILED`]).
    ///
    /// OR branches are scanned independently, like `unsat_scan`. The
    /// domain is sound, so (unlike the LP deep check) this never needs a
    /// budget and runs on every analysis.
    fn box_scan(&mut self, f: &Formula, code: &'static str) {
        let atoms = self.conjunctive_box_atoms(f);
        // A single non-trivial atom always has a nonempty box, and its
        // "entailment" would be vacuous; skip the degenerate scope.
        if atoms.len() >= 2 {
            let only: Vec<Atom> = atoms.iter().map(|(a, _)| a.clone()).collect();
            if IntervalBox::of_atoms(&only).is_empty() {
                let scope = f.span();
                let already_flagged = self.diags.iter().any(|d| {
                    d.code == codes::TRIVIALLY_UNSAT
                        && (scope.is_dummy()
                            || d.span.is_dummy()
                            || (d.span.start >= scope.start && d.span.end <= scope.end))
                });
                if !already_flagged {
                    let (msg, help) = if code == codes::DEAD_DISJUNCT {
                        (
                            "interval analysis proves this OR branch empty: the disjunct \
                             is dead",
                            "the branch contributes nothing; delete it or fix its bounds",
                        )
                    } else {
                        (
                            "interval analysis proves this conjunction unsatisfiable",
                            "propagating the atoms' bounds yields an empty interval: the \
                             formula denotes the empty set",
                        )
                    };
                    self.diags
                        .push(Diagnostic::warning(code, scope, msg.to_string()).with_help(help));
                }
            } else {
                for (i, (a, span)) in atoms.iter().enumerate() {
                    let mut rest: Vec<Atom> = atoms
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, (x, _))| x.clone())
                        .collect();
                    rest.push(a.negate());
                    if IntervalBox::of_atoms(&rest).is_empty() {
                        self.diags.push(
                            Diagnostic::warning(
                                codes::STATIC_ENTAILED,
                                *span,
                                "comparison is entailed by the rest of its conjunction".to_string(),
                            )
                            .with_help(
                                "interval analysis proves it redundant; removing it does \
                                 not change the result",
                            ),
                        );
                    }
                }
            }
        }
        let mut raw: Vec<(&Arith, CRelOp, &Arith, Span)> = Vec::new();
        let mut branches: Vec<&Formula> = Vec::new();
        collect_conjunctive_atoms(f, &mut raw, &mut branches);
        for b in branches {
            self.box_scan(b, codes::DEAD_DISJUNCT);
        }
    }

    // ------------------------------------------------------ deep check

    /// Is `f` free of database references (paths and bindable names), so
    /// that [`crate::storage::formula_to_cst`] interprets it exactly as
    /// the evaluator would?
    fn database_free(&self, f: &Formula) -> bool {
        match f {
            Formula::And(a, b) | Formula::Or(a, b) => {
                self.database_free(a) && self.database_free(b)
            }
            Formula::Not(a) => self.database_free(a),
            Formula::Proj { body, .. } => self.database_free(body),
            Formula::Pred { .. } => false,
            Formula::Chain { first, rest, .. } => {
                self.arith_database_free(first)
                    && rest.iter().all(|(_, a)| self.arith_database_free(a))
            }
        }
    }

    fn arith_database_free(&self, a: &Arith) -> bool {
        match a {
            Arith::Num(_) => true,
            Arith::PathConst(_) => false,
            Arith::Var(v) => !self.bound.contains(v) && !self.declared.contains(v),
            Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
                self.arith_database_free(x) && self.arith_database_free(y)
            }
            Arith::Neg(x) => self.arith_database_free(x),
        }
    }

    /// LYA041 (opt-in): instantiate each queued database-free formula
    /// through the constraint engine under a small budget and warn when
    /// the LP decision procedure proves it unsatisfiable. Skipped when
    /// any error was found or an engine context is already active.
    fn deep_check(&mut self) {
        if !self.opts.deep_unsat
            || self.deep.is_empty()
            || self.diags.iter().any(|d| d.severity == Severity::Error)
            || lyric_engine::is_active()
        {
            return;
        }
        let candidates = std::mem::take(&mut self.deep);
        for f in candidates {
            // The interval box demotes the LP instantiation to a fallback:
            // when the box already proved the conjunctive skeleton empty,
            // LYA050 has fired and the (budgeted, much more expensive)
            // simplex run adds nothing.
            let skeleton: Vec<Atom> = self
                .conjunctive_box_atoms(&f)
                .into_iter()
                .map(|(a, _)| a)
                .collect();
            if skeleton.len() >= 2 && IntervalBox::of_atoms(&skeleton).is_empty() {
                continue;
            }
            let budget = lyric_engine::EngineBudget::unlimited()
                .with_max_pivots(10_000)
                .with_max_fm_atoms(5_000)
                .with_max_disjuncts(1_000)
                .with_deadline(std::time::Duration::from_millis(250));
            let opts = lyric_engine::ExecOptions::default().with_budget(budget);
            let (verdict, _, _) = lyric_engine::run(&opts, None, || {
                crate::storage::formula_to_cst(&f)
                    .ok()
                    .map(|c| c.satisfiable())
            });
            if let Ok(Some(false)) = verdict {
                self.diags.push(
                    Diagnostic::warning(
                        codes::LP_UNSAT,
                        f.span(),
                        "the LP decision procedure proves this formula unsatisfiable".to_string(),
                    )
                    .with_help("the constructed constraint object denotes the empty set"),
                );
            }
        }
    }
}

// ------------------------------------------------------------- helpers

fn join_fams(a: Option<CstFamily>, b: Option<CstFamily>, op: FamilyOp) -> Option<CstFamily> {
    match (a, b) {
        (Some(x), Some(y)) => CstFamily::apply(x, op, Some(y)),
        _ => None,
    }
}

fn union_vars(
    a: Option<BTreeSet<String>>,
    b: Option<BTreeSet<String>>,
) -> Option<BTreeSet<String>> {
    match (a, b) {
        (Some(mut x), Some(y)) => {
            x.extend(y);
            Some(x)
        }
        _ => None,
    }
}

/// The constraint-layer operator of an AST comparison operator.
fn crel(op: CRelOp) -> RelOp {
    match op {
        CRelOp::Eq => RelOp::Eq,
        CRelOp::Neq => RelOp::Neq,
        CRelOp::Le => RelOp::Le,
        CRelOp::Lt => RelOp::Lt,
        CRelOp::Ge => RelOp::Ge,
        CRelOp::Gt => RelOp::Gt,
    }
}

fn flip(op: CRelOp) -> CRelOp {
    match op {
        CRelOp::Le => CRelOp::Ge,
        CRelOp::Lt => CRelOp::Gt,
        CRelOp::Ge => CRelOp::Le,
        CRelOp::Gt => CRelOp::Lt,
        CRelOp::Eq => CRelOp::Eq,
        CRelOp::Neq => CRelOp::Neq,
    }
}

fn tighten_lo<'a>(
    lo: &mut BTreeMap<&'a str, Bound>,
    v: &'a str,
    c: Rational,
    strict: bool,
    span: Span,
) {
    match lo.get(v) {
        Some((cur, cur_strict, _)) if *cur > c || (*cur == c && (*cur_strict || !strict)) => {}
        _ => {
            lo.insert(v, (c, strict, span));
        }
    }
}

fn tighten_hi<'a>(
    hi: &mut BTreeMap<&'a str, Bound>,
    v: &'a str,
    c: Rational,
    strict: bool,
    span: Span,
) {
    match hi.get(v) {
        Some((cur, cur_strict, _)) if *cur < c || (*cur == c && (*cur_strict || !strict)) => {}
        _ => {
            hi.insert(v, (c, strict, span));
        }
    }
}

/// Fold an arithmetic term into a rational, when it is ground.
fn const_fold(a: &Arith) -> Option<Rational> {
    match a {
        Arith::Num(n) => Some(n.clone()),
        Arith::Var(_) | Arith::PathConst(_) => None,
        Arith::Add(x, y) => Some(&const_fold(x)? + &const_fold(y)?),
        Arith::Sub(x, y) => Some(&const_fold(x)? - &const_fold(y)?),
        Arith::Mul(x, y) => Some(&const_fold(x)? * &const_fold(y)?),
        Arith::Neg(x) => Some(-&const_fold(x)?),
    }
}

/// Atoms of the conjunctive skeleton: AND and projection recurse, OR
/// branches are collected for independent scanning, NOT and CST
/// references are opaque.
fn collect_conjunctive_atoms<'a>(
    f: &'a Formula,
    atoms: &mut Vec<(&'a Arith, CRelOp, &'a Arith, Span)>,
    branches: &mut Vec<&'a Formula>,
) {
    match f {
        Formula::And(a, b) => {
            collect_conjunctive_atoms(a, atoms, branches);
            collect_conjunctive_atoms(b, atoms, branches);
        }
        Formula::Proj { body, .. } => collect_conjunctive_atoms(body, atoms, branches),
        Formula::Or(a, b) => {
            branches.push(a);
            branches.push(b);
        }
        Formula::Not(_) | Formula::Pred { .. } => {}
        Formula::Chain { first, rest, span } => {
            let mut prev = first;
            for (op, next) in rest {
                atoms.push((prev, *op, next, *span));
                prev = next;
            }
        }
    }
}

fn collect_constraint_vars(
    a: &Arith,
    bound: &BTreeSet<String>,
    declared: &BTreeSet<String>,
    out: &mut BTreeSet<String>,
) {
    match a {
        Arith::Var(v) => {
            if !bound.contains(v) && !declared.contains(v) {
                out.insert(v.clone());
            }
        }
        Arith::Num(_) | Arith::PathConst(_) => {}
        Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
            collect_constraint_vars(x, bound, declared, out);
            collect_constraint_vars(y, bound, declared, out);
        }
        Arith::Neg(x) => collect_constraint_vars(x, bound, declared, out),
    }
}

/// Every identifier the query mentions outside FROM binding positions —
/// the conservative "used" set for the unused-binding lint.
fn used_names(q: &SelectQuery, view_var: Option<&str>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if let Some(v) = view_var {
        out.insert(v.to_string());
    }
    fn scan_path(p: &PathExpr, out: &mut BTreeSet<String>) {
        if let Selector::Var(v) = &p.root {
            out.insert(v.clone());
        }
        for s in &p.steps {
            out.insert(s.attr.clone());
            if let Some(Selector::Var(v)) = &s.selector {
                out.insert(v.clone());
            }
        }
    }
    fn scan_arith(a: &Arith, out: &mut BTreeSet<String>) {
        match a {
            Arith::Var(v) => {
                out.insert(v.clone());
            }
            Arith::PathConst(p) => scan_path(p, out),
            Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
                scan_arith(x, out);
                scan_arith(y, out);
            }
            Arith::Neg(x) => scan_arith(x, out),
            Arith::Num(_) => {}
        }
    }
    fn scan_formula(f: &Formula, out: &mut BTreeSet<String>) {
        match f {
            Formula::And(a, b) | Formula::Or(a, b) => {
                scan_formula(a, out);
                scan_formula(b, out);
            }
            Formula::Not(a) => scan_formula(a, out),
            Formula::Proj { vars, body, .. } => {
                out.extend(vars.iter().cloned());
                scan_formula(body, out);
            }
            Formula::Pred { path, vars } => {
                scan_path(path, out);
                if let Some(vs) = vars {
                    out.extend(vs.iter().cloned());
                }
            }
            Formula::Chain { first, rest, .. } => {
                scan_arith(first, out);
                for (_, a) in rest {
                    scan_arith(a, out);
                }
            }
        }
    }
    fn scan_cond(c: &Cond, out: &mut BTreeSet<String>) {
        match c {
            Cond::And(a, b) | Cond::Or(a, b) => {
                scan_cond(a, out);
                scan_cond(b, out);
            }
            Cond::Not(a) => scan_cond(a, out),
            Cond::PathPred(p) => scan_path(p, out),
            Cond::Compare { lhs, rhs, .. } => {
                for op in [lhs, rhs] {
                    if let CmpOperand::Path(p) = op {
                        scan_path(p, out);
                    }
                }
            }
            Cond::Sat(f) => scan_formula(f, out),
            Cond::Entails(a, b) => {
                scan_formula(a, out);
                scan_formula(b, out);
            }
        }
    }
    if let Some(w) = &q.where_clause {
        scan_cond(w, &mut out);
    }
    for item in &q.items {
        match &item.value {
            SelectValue::Path(p) => scan_path(p, &mut out),
            SelectValue::Formula(f) => scan_formula(f, &mut out),
            SelectValue::Optimize {
                objective, formula, ..
            } => {
                scan_arith(objective, &mut out);
                scan_formula(formula, &mut out);
            }
        }
    }
    if let Some(vars) = &q.oid_function {
        out.extend(vars.iter().cloned());
    }
    out
}
