//! Query evaluation — the XSQL-extension semantics of §2.2/§4.2.
//!
//! Evaluation follows the paper's declarative definition ("all
//! substitutions of oids for variables are considered … consistent with
//! the FROM clause") with one practical refinement: WHERE conjunctions are
//! processed left to right, and path predicates *extend* the current
//! binding with their selector variables, so
//! `X.drawer[Y] AND Y.color['red']` binds `Y` before using it. A variable
//! read before anything binds it is an [`LyricError::UnboundVariable`].
//!
//! Path walks also record interface-renaming facts (`drawer : (p,q)`
//! against `Drawer(x,y)`) into the binding, from which CST-formula
//! instantiation derives the paper's implicit equality constraints.
//!
//! A SELECT over two or more FROM variables filters each variable before
//! the product, as the paper's §5 flat translation does: a conjunct that
//! reads one FROM variable runs once per candidate of it, and each
//! residual `(φ)` lends each variable a necessary condition of its own
//! (see [`place`]). The rows, their order and the errors are those of the
//! textual left-to-right plan, which runs instead wherever the planned
//! path cannot promise that.

use crate::ast::*;
use crate::error::LyricError;
use crate::explain::build_plan;
use crate::formula::{arith_to_linexpr, display_path, entails, Template};
use crate::lexer::lex_spanned;
use crate::parser::parse_tokens;
use crate::scope::{ScopeKey, ScopeLink};
use lyric_arith::Rational;
use lyric_constraint::{CstObject, Extremum, Interval, Var};
use lyric_engine::{flight, span, ExecOptions, SpanKind};
use lyric_metrics::querylog::{self, Outcome, QueryRecord};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Value};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The answer of a query: column names, rows of oids, the engine work
/// counters accumulated while evaluating it, and whatever else its
/// [`ExecOptions`] asked the run to report.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Oid>>,
    /// Pipeline statistics for this evaluation: simplex pivots, FM atoms,
    /// DNF disjuncts, sat/entailment checks, box prunes, index probes.
    pub stats: lyric_engine::EngineStats,
    /// The evaluation's span tree, led by the front-end phases (lex,
    /// parse, analyze); `Some` exactly when [`ExecOptions::trace`] was
    /// set. Its per-span exclusive deltas sum to `stats` exactly; under a
    /// thread budget above 1 it grafts per-worker subtrees (distinct
    /// `tid`s) into the one logical query tree.
    pub trace: Option<lyric_engine::trace::Trace>,
    /// EXPLAIN ANALYZE: the plan with its runtime attribution; `Some`
    /// exactly when [`ExecOptions::explain`] was set. Its per-node
    /// exclusive counters sum to `stats` exactly.
    pub plan: Option<crate::explain::ExplainReport>,
}

impl QueryResult {
    /// A bare answer: no work counted yet, nothing else reported.
    fn answer(columns: Vec<String>, rows: Vec<Vec<Oid>>) -> QueryResult {
        QueryResult {
            columns,
            rows,
            stats: Default::default(),
            trace: None,
            plan: None,
        }
    }
}

/// Equality is over the *answer* (columns and rows) only: two evaluations
/// of the same query are equal even when their work counters differ (e.g.
/// with box pruning or the store index switched off).
impl PartialEq for QueryResult {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|o| o.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Parse and execute a LyriC statement under default [`ExecOptions`].
/// `CREATE VIEW` statements mutate the database (new class + extent) and
/// also return the selected rows.
pub fn execute(db: &mut Database, src: &str) -> Result<QueryResult, LyricError> {
    execute_with_options(db, src, &ExecOptions::default())
}

/// Parse and execute a statement under explicit [`ExecOptions`]: the
/// evaluation budget (a crossed limit aborts promptly with
/// [`LyricError::BudgetExceeded`], so adversarial constraint blowups
/// degrade gracefully instead of hanging), the thread budget, the
/// acceleration switches, and the two report flags — `trace` fills
/// [`QueryResult::trace`], `explain` fills [`QueryResult::plan`]. With
/// `threads` above 1, FROM-clause binding, WHERE filtering, SELECT items,
/// and large DNF operations fan out across a scoped worker pool; answers
/// are identical to the serial (`threads == 1`) evaluation — work is
/// handed out by index and merged back in index order. This is the entry
/// point for `CREATE VIEW` with options; EXPLAIN ANALYZE of a `CREATE
/// VIEW` is rejected (use [`explain`](crate::explain) for its static
/// plan).
pub fn execute_with_options(
    db: &mut Database,
    src: &str,
    opts: &ExecOptions,
) -> Result<QueryResult, LyricError> {
    run_statement(Target::Exclusive(db), src, opts, true)
}

/// Execute a `SELECT` statement against a *shared* database reference.
/// This is the concurrency entry point: many threads may call it on the
/// same `&Database` simultaneously, each evaluation getting its own
/// engine context (so budgets and stats stay per-query) while sharing the
/// database's store index. `CREATE VIEW` statements are rejected —
/// they mutate the database and need [`execute_with_options`]'s exclusive
/// access.
pub fn execute_shared(
    db: &Database,
    src: &str,
    opts: &ExecOptions,
) -> Result<QueryResult, LyricError> {
    run_statement(Target::Shared(db), src, opts, true)
}

/// [`execute`] without the static-analysis gate: the query goes straight
/// to the evaluator, so semantic errors surface as runtime errors
/// mid-evaluation — the evaluator-only reference the analyzer-vs-evaluator
/// differential tests compare against.
pub fn execute_unchecked(db: &mut Database, src: &str) -> Result<QueryResult, LyricError> {
    run_statement(Target::Exclusive(db), src, &ExecOptions::default(), false)
}

/// The database a statement runs against: exclusive access admits
/// `CREATE VIEW`, shared access `SELECT` only.
enum Target<'a> {
    Exclusive(&'a mut Database),
    Shared(&'a Database),
}

impl Target<'_> {
    fn db(&self) -> &Database {
        match self {
            Target::Exclusive(db) => db,
            Target::Shared(db) => db,
        }
    }
}

/// An admitted statement with the access it runs under.
enum Statement<'a> {
    Select(&'a Database, &'a SelectQuery),
    View(&'a mut Database, &'a ViewQuery),
}

/// The one query runner behind every entry point: lex and parse, the
/// analyzer gate (skipped for [`execute_unchecked`]), one engine run, and
/// one [`QueryRecord`] — carrying the counters the run consumed, an
/// aborted run's too — that [`crate::sink::publish`] projects onto
/// `/metrics`, the query log and the flight recorder (ring, and the dump
/// an anomaly calls for). A statement the front end rejects never reaches
/// the engine: it costs no engine work, writes no log line or flight
/// record, and leaves `lyric_queries_total` alone.
///
/// Slow-query forensics (`LYRIC_SLOW_EXPLAIN=1` with a query-log sink and
/// a slow threshold) turns `explain` on for every `SELECT`, so the record
/// carries the hottest plan nodes.
fn run_statement(
    target: Target<'_>,
    src: &str,
    opts: &ExecOptions,
    checked: bool,
) -> Result<QueryResult, LyricError> {
    let front = Instant::now();
    let tokens = lex_spanned(src)?;
    let lexed = Instant::now();
    let q = parse_tokens(tokens)?;
    let parsed = Instant::now();
    if checked {
        check(target.db(), &q)?;
    }
    let analyzed = Instant::now();
    let stmt = match (target, &q) {
        (Target::Exclusive(db), Query::Select(s)) => Statement::Select(db, s),
        (Target::Shared(db), Query::Select(s)) => Statement::Select(db, s),
        (Target::Exclusive(db), Query::CreateView(v)) if !opts.explain => Statement::View(db, v),
        (target, Query::CreateView(_)) => {
            let entry = match target {
                Target::Shared(_) => "execute_shared",
                Target::Exclusive(_) => "EXPLAIN ANALYZE",
            };
            return Err(LyricError::type_error(format!(
                "{entry} evaluates SELECT statements only; CREATE VIEW mutates the database"
            )));
        }
    };
    let forensics = crate::explain::slow_explain_active();
    let plan = match &stmt {
        Statement::Select(db, s) if opts.explain || forensics => Some(build_plan(db, s, None)),
        _ => None,
    };

    let started = Instant::now();
    let (query, query_hash) = (querylog::truncate_query(src), querylog::query_hash(src));
    let guard = register(&query, query_hash, opts);
    let trace_id = Cell::new(0u64);
    let (outcome, stats, trace) = lyric_engine::run(
        &ExecOptions {
            explain: plan.is_some(),
            ..opts.clone()
        },
        Some(guard.progress()),
        || {
            trace_id.set(lyric_engine::generation());
            guard.set_trace_id(trace_id.get());
            match stmt {
                Statement::Select(db, s) => eval_select_query(db, s, plan.as_ref().map(|p| &p.1)),
                Statement::View(db, v) => execute_view(db, v),
            }
        },
    );

    let mut summary = None;
    let result = match outcome {
        Ok(value) => value.map(|res| {
            let mut res = QueryResult { stats, ..res };
            if let (Some((plan, info)), Some(trace)) = (plan, &trace) {
                let report = crate::explain::analyzed(plan, &info, trace);
                summary = forensics.then(|| report.summary_json(3));
                res.plan = opts.explain.then_some(report);
            }
            if opts.trace {
                let whole = Some((0, src.len()));
                let phases = [
                    (SpanKind::Lex, lexed - front, whole),
                    (SpanKind::Parse, parsed - lexed, whole),
                    (SpanKind::Analyze, analyzed - parsed, None),
                ];
                res.trace = trace.map(|mut t| {
                    t.root.label = src.trim().to_string();
                    t.root.source = whole;
                    t.prepend_phases(&phases[..if checked { 3 } else { 2 }]);
                    t
                });
            }
            res
        }),
        Err(exceeded) => Err(exceeded.into()),
    };

    let record = QueryRecord {
        query_hash,
        query,
        outcome: match &result {
            Ok(_) => Outcome::Ok,
            Err(e @ LyricError::BudgetExceeded { resource, .. }) => Outcome::BudgetExceeded {
                resource: resource.name(),
                message: e.to_string(),
            },
            Err(e) => Outcome::Error(e.to_string()),
        },
        rows: result.as_ref().map_or(0, |r| r.rows.len() as u64),
        duration_us: started.elapsed().as_micros() as u64,
        threads: opts.threads.max(1),
        trace_id: trace_id.get(),
        end_unix_ms: flight::recorder::unix_ms(),
        stats,
        plan: summary,
    };
    crate::sink::publish(record, &opts.budget, guard);
    result
}

/// The admission gate: run the static analyzer (default options) and
/// reject the query on any error-severity diagnostic, *before* the
/// evaluator — and before any engine budget — is touched.
pub(crate) fn check(db: &Database, q: &Query) -> Result<(), LyricError> {
    let diags: Vec<_> =
        crate::analyze::analyze(db.schema(), q, &crate::analyze::AnalyzerOptions::default())
            .into_iter()
            .filter(|d| d.severity == crate::diag::Severity::Error)
            .collect();
    if diags.is_empty() {
        Ok(())
    } else {
        analyzer_rejections().inc();
        Err(LyricError::Analysis(diags))
    }
}

/// Queries the static analyzer turned away before any engine work ran.
fn analyzer_rejections() -> &'static lyric_metrics::Counter {
    static C: OnceLock<lyric_metrics::Counter> = OnceLock::new();
    C.get_or_init(|| {
        lyric_metrics::global().counter(
            "lyric_analyzer_rejections_total",
            "Queries rejected by the static analyzer before evaluation.",
        )
    })
}

/// Register a statement in the in-flight registry for the duration of its
/// run.
fn register(query: &str, query_hash: u64, opts: &ExecOptions) -> flight::InflightGuard {
    let b = &opts.budget;
    flight::register(flight::InflightDesc {
        query: query.to_string(),
        query_hash,
        threads: opts.threads.max(1),
        caps: flight::BudgetCaps {
            pivots: b.max_pivots,
            fm_atoms: b.max_fm_atoms,
            disjuncts: b.max_disjuncts,
            deadline_ms: b.deadline.map(|d| d.as_millis() as u64),
        },
    })
}

/// The `SELECT` arm of the evaluator: needs only shared access to the
/// database, so [`execute_shared`] can run it from many threads at once.
/// With `explain` present the operator spans carry plan-node ids and the
/// row counters in [`ExplainInfo`](crate::explain::ExplainInfo) are fed.
fn eval_select_query(
    db: &Database,
    s: &SelectQuery,
    explain: Option<&crate::explain::ExplainInfo>,
) -> Result<QueryResult, LyricError> {
    let ctx = Ctx::new(db, s, None, explain);
    let (columns, rows) = eval_select(&ctx, s)?;
    let candidate_rows = rows.len() as u64;
    // Repeated rows are dropped, keeping the first occurrence. Rows are
    // hashed and compared for equality only: ordering rationals counts
    // arithmetic work, which no answer row should.
    let mut seen = HashSet::new();
    let mut out_rows = Vec::new();
    for (binding, row) in rows {
        let mut r = Vec::new();
        if let Some(vars) = &s.oid_function {
            r.push(oid_function_value(&ctx, "f", vars, &binding)?);
        }
        r.extend(row);
        if seen.insert(r.clone()) {
            out_rows.push(r);
        }
    }
    let mut cols = Vec::new();
    if s.oid_function.is_some() {
        cols.push("oid".to_string());
    }
    cols.extend(columns);
    // Root plan node: candidate rows in, deduplicated answer rows out.
    if let Some(e) = explain {
        e.add_rows(0, candidate_rows, out_rows.len() as u64);
    }
    Ok(QueryResult::answer(cols, out_rows))
}

fn execute_view(db: &mut Database, v: &ViewQuery) -> Result<QueryResult, LyricError> {
    let _span = span(
        SpanKind::ViewMaterialize,
        || v.name.clone(),
        v.name_span.byte_range(),
    );
    let grouped = v.select.from.iter().any(|f| f.var == v.name);
    // Each row with the oid its binding keys it by: the view-name
    // variable's value in a grouped view, the oid-function value in a view
    // with an oid clause, nothing otherwise. Bindings borrow the database,
    // so the keys are read before the view mutates it; a key's error
    // surfaces when its row is reached.
    let (columns, rows) = {
        let ctx = Ctx::new(db, &v.select, Some(&v.name), None);
        let (columns, rows) = eval_select(&ctx, &v.select)?;
        let keyed: Vec<_> = rows
            .into_iter()
            .map(|(binding, row)| {
                let key = if grouped {
                    Some(
                        binding
                            .get(&ctx, &v.name)
                            .cloned()
                            .ok_or_else(|| LyricError::UnboundVariable(v.name.clone())),
                    )
                } else {
                    (v.select.oid_function.as_ref())
                        .map(|vars| oid_function_value(&ctx, &v.name, vars, &binding))
                };
                (key, row)
            })
            .collect();
        (columns, keyed)
    };

    if grouped {
        // One view class per binding of the view-name variable (the
        // paper's Region classification example). The class is named by
        // the oid it is keyed on.
        let mut groups: BTreeMap<Oid, Vec<Oid>> = BTreeMap::new();
        for (key, row) in rows {
            let key = key.expect("a grouped view keys every row")?;
            let member = row.first().cloned().ok_or_else(|| {
                LyricError::type_error("view query must select at least one column")
            })?;
            groups.entry(key).or_default().push(member);
        }
        let mut out_rows = Vec::new();
        for (key, members) in groups {
            let class_name = key.to_string();
            if db.schema().has_class(&class_name) {
                continue; // idempotent re-creation
            }
            db.create_view_class(&class_name, Some(&v.parent), members.clone())?;
            for m in members {
                out_rows.push(vec![Oid::str(class_name.clone()), m]);
            }
        }
        return Ok(QueryResult::answer(
            vec!["class".into(), "member".into()],
            out_rows,
        ));
    }

    // Fixed-name view.
    let mut def = ClassDef::new(&v.name).is_a(&v.parent);
    if v.select.oid_function.is_some() {
        // Output objects carry the labelled columns as attributes, typed by
        // the SIGNATURE clause (defaulting to `object`).
        for item in &v.select.items {
            if let Some(label) = &item.label {
                let sig = v.select.signature.iter().find(|s| &s.attr == label);
                let (is_set, class) = match sig {
                    Some(s) => (s.is_set, s.class.clone()),
                    None => (false, "object".to_string()),
                };
                let target = AttrTarget::class(class);
                def = def.attr(if is_set {
                    AttrDef::set(label.clone(), target)
                } else {
                    AttrDef::scalar(label.clone(), target)
                });
            }
        }
    }
    db.add_class(def)?;

    let mut out_rows = Vec::new();
    if v.select.oid_function.is_some() {
        let mut seen = BTreeSet::new();
        for (oid, row) in rows {
            let oid = oid.expect("a view with an oid clause keys every row")?;
            if !seen.insert(oid.clone()) {
                continue;
            }
            let attrs: Vec<(String, Value)> = v
                .select
                .items
                .iter()
                .zip(&row)
                .filter_map(|(item, val)| {
                    item.label.clone().map(|l| (l, Value::Scalar(val.clone())))
                })
                .collect();
            db.insert(oid.clone(), &v.name, attrs)?;
            let mut r = vec![oid];
            r.extend(row);
            out_rows.push(r);
        }
    } else {
        let mut seen = BTreeSet::new();
        for (_, row) in &rows {
            let member = row.first().cloned().ok_or_else(|| {
                LyricError::type_error("view query must select at least one column")
            })?;
            if seen.insert(member.clone()) {
                db.declare_instance(&v.name, member.clone())?;
                out_rows.push(vec![member]);
            }
        }
    }
    let mut cols = Vec::new();
    if v.select.oid_function.is_some() {
        cols.push("oid".into());
        cols.extend(columns);
    } else {
        cols.push("member".into());
    }
    Ok(QueryResult::answer(cols, out_rows))
}

fn oid_function_value(
    ctx: &Ctx<'_>,
    fname: &str,
    vars: &[String],
    binding: &Binding<'_>,
) -> Result<Oid, LyricError> {
    let mut args = Vec::with_capacity(vars.len());
    for v in vars {
        args.push(
            binding
                .get(ctx, v)
                .cloned()
                .ok_or_else(|| LyricError::UnboundVariable(v.clone()))?,
        );
    }
    Ok(Oid::func(fname, args))
}

// --------------------------------------------------------------- bindings

/// What a binding holds for one name: the oid, its access chain (see
/// `scope`), and for a selector variable bound to a constraint object off
/// a CST attribute, that object's provenance.
pub(crate) struct Bound<'a> {
    oid: Oid,
    scope: ScopeKey,
    prov: Option<Provenance<'a>>,
}

/// Where a constraint object was reached: its owner's access chain and the
/// attribute's declared variable list, borrowed from the schema.
#[derive(Clone)]
pub(crate) struct Provenance<'a> {
    pub(crate) owner: ScopeKey,
    pub(crate) declared: &'a [Var],
}

/// A partial assignment of query variables to oids: one slot per name of
/// the query's slot table (see [`Ctx::slot`]), plus every
/// interface-renaming fact discovered while walking paths.
///
/// Slots and links are shared: cloning a binding copies two pointers, and
/// extending it by a name copies the slot pointers and allocates one slot.
#[derive(Clone)]
pub(crate) struct Binding<'a> {
    slots: Arc<[Option<Arc<Bound<'a>>>]>,
    pub(crate) links: Arc<[ScopeLink<'a>]>,
}

impl<'a> Binding<'a> {
    /// The binding of no name over a slot table of `slots` names.
    fn empty(slots: usize) -> Binding<'a> {
        Binding {
            slots: vec![None; slots].into(),
            links: Arc::new([]),
        }
    }

    /// The value of `name`, if the binding holds one.
    pub(crate) fn get(&self, ctx: &Ctx<'_>, name: &str) -> Option<&Oid> {
        self.oid(ctx.slot(name)?)
    }

    fn bound(&self, slot: usize) -> Option<&Bound<'a>> {
        self.slots[slot].as_deref()
    }

    fn oid(&self, slot: usize) -> Option<&Oid> {
        self.bound(slot).map(|b| &b.oid)
    }

    /// Hold `bound` in `slot`: the other slots' pointers are copied.
    fn bind(&mut self, slot: usize, bound: Arc<Bound<'a>>) {
        self.slots = (self.slots.iter().enumerate())
            .map(|(i, b)| {
                if i == slot {
                    Some(Arc::clone(&bound))
                } else {
                    b.clone()
                }
            })
            .collect();
    }

    fn add_link(&mut self, link: ScopeLink<'a>) {
        if !self.links.contains(&link) {
            self.links = self.links.iter().cloned().chain([link]).collect();
        }
    }

    /// The binding of both bindings' names, whose slots are disjoint, and
    /// of every renaming fact of either, this one's first and none twice.
    fn merge(&self, other: &Binding<'a>) -> Binding<'a> {
        let slots = (self.slots.iter().zip(other.slots.iter()))
            .map(|(a, b)| a.clone().or_else(|| b.clone()))
            .collect();
        let fresh: Vec<&ScopeLink<'a>> = (other.links.iter())
            .filter(|link| !self.links.contains(link))
            .collect();
        let links = if fresh.is_empty() {
            Arc::clone(&self.links)
        } else if fresh.len() == other.links.len() && self.links.is_empty() {
            Arc::clone(&other.links)
        } else {
            self.links.iter().chain(fresh).cloned().collect()
        };
        Binding { slots, links }
    }
}

/// Evaluation context: the database, the set of declared variables
/// (FROM variables, bracket selector variables, and the view-name variable
/// when present; identifiers outside this set denote ground oids), the
/// slot table, and the query's CST formula templates.
pub(crate) struct Ctx<'a> {
    pub(crate) db: &'a Database,
    declared: BTreeSet<String>,
    /// The slot table: every name a binding of the query can hold
    /// ([`QueryNames::bindable`]), sorted; a name's slot is its index.
    names: Vec<String>,
    /// Every CST formula site of the query, compiled once and keyed by
    /// `&Formula` address (the parsed query never moves during
    /// evaluation).
    templates: BTreeMap<usize, Template<'a>>,
    /// Where each top-level WHERE conjunct runs, when the query takes the
    /// planned FROM/WHERE path ([`place`]); `None` keeps the textual plan.
    placement: Option<Placement<'a>>,
    /// Explain instrumentation: the plan-node map and row counters an
    /// explained run feeds. `None` on every plain evaluation path.
    explain: Option<&'a crate::explain::ExplainInfo>,
}

/// The variable names of a query: the declared ones (see [`Ctx`]), and
/// every name a binding can hold — the declared ones plus the attribute
/// variables (§2.2: a capitalized path step that names no attribute).
pub(crate) struct QueryNames {
    pub(crate) declared: BTreeSet<String>,
    pub(crate) bindable: BTreeSet<String>,
}

impl QueryNames {
    pub(crate) fn of(q: &SelectQuery, view_var: Option<&str>) -> QueryNames {
        let mut names = QueryNames {
            declared: q.from.iter().map(|f| f.var.clone()).collect(),
            bindable: BTreeSet::new(),
        };
        if let Some(v) = view_var {
            names.declared.insert(v.to_string());
        }
        // Bracket selector variables and attribute variables anywhere in
        // the query.
        fn scan_path(p: &PathExpr, out: &mut QueryNames) {
            for s in &p.steps {
                if let Some(Selector::Var(v)) = &s.selector {
                    out.declared.insert(v.clone());
                }
                if is_attr_var_name(&s.attr) {
                    out.bindable.insert(s.attr.clone());
                }
            }
        }
        fn scan_arith(a: &Arith, out: &mut QueryNames) {
            match a {
                Arith::PathConst(p) => scan_path(p, out),
                Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
                    scan_arith(x, out);
                    scan_arith(y, out);
                }
                Arith::Neg(x) => scan_arith(x, out),
                Arith::Num(_) | Arith::Var(_) => {}
            }
        }
        fn scan_formula(f: &Formula, out: &mut QueryNames) {
            match f {
                Formula::And(a, b) | Formula::Or(a, b) => {
                    scan_formula(a, out);
                    scan_formula(b, out);
                }
                Formula::Not(a) | Formula::Proj { body: a, .. } => scan_formula(a, out),
                Formula::Pred { path, .. } => scan_path(path, out),
                Formula::Chain { first, rest, .. } => {
                    scan_arith(first, out);
                    for (_, a) in rest {
                        scan_arith(a, out);
                    }
                }
            }
        }
        fn scan_cond(c: &Cond, out: &mut QueryNames) {
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
            scan_cond(w, &mut names);
        }
        for item in &q.items {
            match &item.value {
                SelectValue::Path(p) => scan_path(p, &mut names),
                SelectValue::Formula(f) => scan_formula(f, &mut names),
                SelectValue::Optimize {
                    objective, formula, ..
                } => {
                    scan_arith(objective, &mut names);
                    scan_formula(formula, &mut names);
                }
            }
        }
        names.bindable.extend(names.declared.iter().cloned());
        names
    }
}

/// The key of a CST formula site: its address in the parsed query.
pub(crate) fn template_key(f: &Formula) -> usize {
    f as *const Formula as usize
}

/// Compile every CST formula site of a query: each WHERE `(φ)`, both
/// sides of each `φ |= ψ`, and each SELECT formula and `SUBJECT TO` item,
/// keyed by `&Formula` address.
pub(crate) fn compile_templates<'q>(
    q: &'q SelectQuery,
    bindable: &BTreeSet<String>,
) -> BTreeMap<usize, Template<'q>> {
    fn walk<'q>(c: &'q Cond, bindable: &BTreeSet<String>, out: &mut BTreeMap<usize, Template<'q>>) {
        match c {
            Cond::And(a, b) | Cond::Or(a, b) => {
                walk(a, bindable, out);
                walk(b, bindable, out);
            }
            Cond::Not(a) => walk(a, bindable, out),
            Cond::Sat(f) => {
                out.insert(template_key(f), Template::compile(f, bindable));
            }
            Cond::Entails(a, b) => {
                out.insert(template_key(a), Template::compile_side(a, bindable));
                out.insert(template_key(b), Template::compile_side(b, bindable));
            }
            Cond::PathPred(_) | Cond::Compare { .. } => {}
        }
    }
    let mut out = BTreeMap::new();
    if let Some(w) = &q.where_clause {
        walk(w, bindable, &mut out);
    }
    for item in &q.items {
        match &item.value {
            SelectValue::Formula(f) | SelectValue::Optimize { formula: f, .. } => {
                out.insert(template_key(f), Template::compile(f, bindable));
            }
            SelectValue::Path(_) => {}
        }
    }
    out
}

impl<'a> Ctx<'a> {
    fn new(
        db: &'a Database,
        q: &'a SelectQuery,
        view_var: Option<&str>,
        explain: Option<&'a crate::explain::ExplainInfo>,
    ) -> Ctx<'a> {
        let names = QueryNames::of(q, view_var);
        let templates = compile_templates(q, &names.bindable);
        Ctx {
            db,
            placement: place(q, &names, &templates),
            templates,
            declared: names.declared,
            names: names.bindable.into_iter().collect(),
            explain,
        }
    }

    /// The slot of a name a binding can hold; `None` for any other name.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The slot of a name the evaluator binds.
    fn bind_slot(&self, name: &str) -> usize {
        self.slot(name)
            .expect("QueryNames::bindable lists every name the evaluator binds")
    }

    /// The template of a CST formula site of the query.
    pub(crate) fn template(&self, f: &Formula) -> &Template<'a> {
        self.templates
            .get(&template_key(f))
            .expect("every CST formula site of the query is compiled in Ctx::new")
    }

    /// The plan-node id of a WHERE condition site (pointer identity: the
    /// parsed query never moves during evaluation).
    fn cond_node(&self, c: &Cond) -> Option<u32> {
        self.explain.and_then(|e| e.cond_node(c))
    }

    /// Record, for EXPLAIN ANALYZE, why the planned path gave way to the
    /// textual plan; a no-op on plain evaluations.
    fn note_fallback(&self, reason: impl FnOnce() -> String) {
        if let Some(e) = self.explain {
            e.note_fallback(reason());
        }
    }

    /// Feed the per-node row counters; a no-op on plain evaluations.
    fn count_rows(&self, node: Option<u32>, rows_in: u64, rows_out: u64) {
        if let (Some(id), Some(e)) = (node, self.explain) {
            e.add_rows(id, rows_in, rows_out);
        }
    }
}

// ------------------------------------------------------------------ paths

/// One satisfying database path: the (possibly extended) binding, the tail
/// oid, and — when the tail came off a CST attribute — its provenance.
pub(crate) struct PathHit<'a> {
    pub binding: Binding<'a>,
    pub value: Oid,
    /// Access-path scope of the tail value.
    pub scope: ScopeKey,
    /// For CST-attribute tails: the owner's scope and declared variables.
    pub cst_info: Option<Provenance<'a>>,
}

impl<'a> PathHit<'a> {
    /// The root of a walk from an oid no binding holds.
    fn unbound_root(binding: &Binding<'a>, value: Oid) -> PathHit<'a> {
        PathHit {
            binding: binding.clone(),
            scope: ScopeKey::root(value.clone()),
            value,
            cst_info: None,
        }
    }
}

/// Can a path step that names no attribute be an attribute variable
/// (§2.2: a capitalized name)? [`eval_path`] binds such a step, and
/// [`QueryNames`] counts it among the names a binding can hold.
fn is_attr_var_name(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Enumerate the database paths satisfying ground instances of `path`
/// under `binding` (§2.2), extending the binding at variable selectors.
pub(crate) fn eval_path<'a>(
    ctx: &Ctx<'a>,
    path: &PathExpr,
    binding: &Binding<'a>,
) -> Result<Vec<PathHit<'a>>, LyricError> {
    let root = match &path.root {
        Selector::Var(name) => match ctx.slot(name).and_then(|s| binding.bound(s)) {
            Some(bound) => PathHit {
                binding: binding.clone(),
                value: bound.oid.clone(),
                scope: bound.scope.clone(),
                cst_info: bound.prov.clone(),
            },
            None if ctx.declared.contains(name) => {
                return Err(LyricError::UnboundVariable(name.clone()))
            }
            None => PathHit::unbound_root(binding, Oid::Named(name.clone())),
        },
        Selector::Lit(l) => PathHit::unbound_root(binding, lit_to_oid(l)),
    };
    let schema = ctx.db.schema();
    let mut states = vec![root];
    for step in &path.steps {
        let walk = StepWalk {
            attr_slot: ctx.slot(&step.attr),
            selector: match &step.selector {
                None => StepSelector::Any,
                Some(Selector::Var(v)) => StepSelector::Var(ctx.bind_slot(v)),
                Some(Selector::Lit(l)) => StepSelector::Lit(lit_to_oid(l)),
            },
        };
        let mut next: Vec<PathHit<'a>> = Vec::new();
        for state in &states {
            let Some(data) = ctx.db.object(&state.value) else {
                continue;
            };
            let class = data.class();
            if let Some(decl) = schema.attribute(class, &step.attr) {
                if let Some(value) = data.attr(&step.attr) {
                    walk.members(ctx, state, None, decl, value, &mut next);
                }
            } else if let Some(Oid::Str(bound)) = walk.attr_slot.and_then(|s| state.binding.oid(s))
            {
                // A bound attribute variable names one attribute.
                if let (Some(decl), Some(value)) =
                    (schema.attribute(class, bound), data.attr(bound))
                {
                    walk.members(ctx, state, Some(bound), decl, value, &mut next);
                }
            } else if is_attr_var_name(&step.attr) {
                // Attribute variable: ranges over the object's stored
                // attributes (§2.2 higher-order variables).
                for (name, value) in data.attrs() {
                    if let Some(decl) = schema.attribute(class, name) {
                        walk.members(ctx, state, Some(name), decl, value, &mut next);
                    }
                }
            } else {
                // Report the whole IS-A chain that was searched, so the
                // error names the declaring classes inspected rather than
                // just the object's dynamic class.
                return Err(LyricError::UnknownAttribute {
                    class: class.to_string(),
                    attr: step.attr.clone(),
                    searched: schema
                        .ancestors(class)
                        .into_iter()
                        .map(String::from)
                        .collect(),
                });
            }
        }
        states = next;
    }
    Ok(states)
}

/// One path step, resolved against the slot table once for every state.
struct StepWalk {
    /// The slot of the step's name, when a binding can hold it.
    attr_slot: Option<usize>,
    selector: StepSelector,
}

/// The bracket of a path step.
enum StepSelector {
    Any,
    /// A variable, by slot.
    Var(usize),
    Lit(Oid),
}

impl StepWalk {
    /// Extend `state` along one attribute: one hit per member of `value`
    /// that the selector admits. `attr_var` names the attribute when the
    /// step is an attribute variable, which binds to it.
    fn members<'a>(
        &self,
        ctx: &Ctx<'a>,
        state: &PathHit<'a>,
        attr_var: Option<&str>,
        decl: &'a AttrDef,
        value: &'a Value,
        next: &mut Vec<PathHit<'a>>,
    ) {
        let attr_oid = attr_var.map(Oid::str);
        // The interface renaming of a class-valued attribute, or the
        // declared variables of a CST one.
        let (renaming, declared) = match &decl.target {
            AttrTarget::Class { class, actuals } => {
                let formals = ctx.db.schema().class(class).map(|def| &def.interface[..]);
                let renaming = formals
                    .filter(|formals| !formals.is_empty())
                    .map(|formals| (actuals.as_deref().unwrap_or(formals), formals));
                (renaming, None)
            }
            AttrTarget::Cst { vars } => (None, Some(&vars[..])),
        };
        for member in value.iter() {
            // The selector variable's value once the attribute variable
            // is bound.
            let held = match &self.selector {
                StepSelector::Any => None,
                StepSelector::Lit(lit) if lit != member => continue,
                StepSelector::Lit(_) => None,
                StepSelector::Var(slot) => match &attr_oid {
                    Some(attr) if self.attr_slot == Some(*slot) => Some(attr),
                    _ => state.binding.oid(*slot),
                },
            };
            if held.is_some_and(|held| held != member) {
                continue;
            }
            let scope = state.scope.child(member.clone());
            let mut b = state.binding.clone();
            if let Some(attr) = &attr_oid {
                let slot = self
                    .attr_slot
                    .expect("QueryNames::bindable lists every attribute variable");
                b.bind(
                    slot,
                    Arc::new(Bound {
                        oid: attr.clone(),
                        scope: scope.clone(),
                        prov: None,
                    }),
                );
            }
            if let (StepSelector::Var(slot), None) = (&self.selector, held) {
                let prov = match (member, declared) {
                    (Oid::Cst(_), Some(declared)) => Some(Provenance {
                        owner: state.scope.clone(),
                        declared,
                    }),
                    _ => None,
                };
                b.bind(
                    *slot,
                    Arc::new(Bound {
                        oid: member.clone(),
                        scope: scope.clone(),
                        prov,
                    }),
                );
            }
            if let Some((actuals, formals)) = renaming {
                b.add_link(ScopeLink {
                    parent: state.scope.clone(),
                    child: scope.clone(),
                    actuals,
                    formals,
                });
            }
            next.push(PathHit {
                binding: b,
                value: member.clone(),
                scope,
                cst_info: declared.map(|declared| Provenance {
                    owner: state.scope.clone(),
                    declared,
                }),
            });
        }
    }
}

fn lit_to_oid(l: &OidLit) -> Oid {
    match l {
        OidLit::Named(n) => Oid::Named(n.clone()),
        OidLit::Int(i) => Oid::Int(*i),
        OidLit::Str(s) => Oid::Str(s.clone()),
        OidLit::Bool(b) => Oid::Bool(*b),
    }
}

// ------------------------------------------------------------- conditions

/// Evaluate a condition, returning the bindings (extensions of `binding`)
/// under which it holds. Under explain instrumentation every condition
/// site feeds its plan node one input row (this invocation) and one
/// output row per satisfying binding.
fn eval_cond<'a>(
    ctx: &Ctx<'a>,
    cond: &Cond,
    binding: &Binding<'a>,
) -> Result<Vec<Binding<'a>>, LyricError> {
    let node = ctx.cond_node(cond);
    let out = eval_cond_inner(ctx, cond, node, binding)?;
    ctx.count_rows(node, 1, out.len() as u64);
    Ok(out)
}

fn eval_cond_inner<'a>(
    ctx: &Ctx<'a>,
    cond: &Cond,
    node: Option<u32>,
    binding: &Binding<'a>,
) -> Result<Vec<Binding<'a>>, LyricError> {
    match cond {
        Cond::And(a, b) => {
            let mut out = Vec::new();
            for b1 in eval_cond(ctx, a, binding)? {
                out.extend(eval_cond(ctx, b, &b1)?);
            }
            Ok(dedup_bindings(out))
        }
        Cond::Or(a, b) => {
            let mut out = eval_cond(ctx, a, binding)?;
            out.extend(eval_cond(ctx, b, binding)?);
            Ok(dedup_bindings(out))
        }
        Cond::Not(a) => {
            if eval_cond(ctx, a, binding)?.is_empty() {
                Ok(vec![binding.clone()])
            } else {
                Ok(vec![])
            }
        }
        Cond::PathPred(p) => {
            let _span = lyric_engine::span_node(
                SpanKind::PathPred,
                node,
                || display_path(p),
                p.span.byte_range(),
            );
            let hits = eval_path(ctx, p, binding)?;
            Ok(dedup_bindings(
                hits.into_iter().map(|h| h.binding).collect(),
            ))
        }
        Cond::Compare { lhs, op, rhs } => {
            let _span = lyric_engine::span_node(
                SpanKind::Compare,
                node,
                String::new,
                cond.span().byte_range(),
            );
            let l = operand_values(ctx, lhs, binding)?;
            let r = operand_values(ctx, rhs, binding)?;
            let holds = compare_sets(&l, *op, &r)?;
            Ok(if holds { vec![binding.clone()] } else { vec![] })
        }
        Cond::Sat(f) => {
            let _span = lyric_engine::span_node(
                SpanKind::SatCheck,
                node,
                String::new,
                f.span().byte_range(),
            );
            // One emptiness check on the instantiated formula:
            // canonicalizing first would decide the same emptiness twice.
            Ok(if ctx.template(f).satisfiable(ctx, binding)? {
                vec![binding.clone()]
            } else {
                vec![]
            })
        }
        Cond::Entails(f1, f2) => {
            let _span = lyric_engine::span_node(
                SpanKind::EntailCheck,
                node,
                String::new,
                cond.span().byte_range(),
            );
            let holds = entails(ctx, ctx.template(f1), ctx.template(f2), binding)?;
            Ok(if holds { vec![binding.clone()] } else { vec![] })
        }
    }
}

/// Drop bindings whose visible variable assignment (the oid of each slot)
/// repeats an earlier one (scopes, provenance and links are derived
/// data), keeping the first.
fn dedup_bindings(bindings: Vec<Binding<'_>>) -> Vec<Binding<'_>> {
    if bindings.len() <= 1 {
        return bindings;
    }
    let mut seen = BTreeSet::new();
    bindings
        .into_iter()
        .filter(|b| seen.insert(Visible(Arc::clone(&b.slots))))
        .collect()
}

/// A binding's visible assignment: its bound slots and their oids, ordered
/// as `(slot, oid)` sequences — the order of the same assignment as a
/// name-keyed map, since slots number the names in order.
struct Visible<'a>(Arc<[Option<Arc<Bound<'a>>>]>);

impl Visible<'_> {
    fn oids(&self) -> impl Iterator<Item = (usize, &Oid)> {
        (self.0.iter().enumerate()).filter_map(|(slot, b)| Some((slot, &b.as_ref()?.oid)))
    }
}

impl Ord for Visible<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.oids().cmp(other.oids())
    }
}

impl PartialOrd for Visible<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Visible<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Visible<'_> {}

/// The value set of a comparison operand. Numeric oids are normalized to
/// rationals so `3` and `3.0` compare equal.
fn operand_values(
    ctx: &Ctx<'_>,
    op: &CmpOperand,
    binding: &Binding<'_>,
) -> Result<BTreeSet<Oid>, LyricError> {
    let normalize = |o: &Oid| match o {
        Oid::Int(i) => Oid::Rat(Rational::from_int(*i)),
        other => other.clone(),
    };
    match op {
        CmpOperand::Num(n) => Ok([Oid::Rat(n.clone())].into()),
        CmpOperand::Str(s) => Ok([Oid::str(s.clone())].into()),
        CmpOperand::Bool(b) => Ok([Oid::Bool(*b)].into()),
        CmpOperand::Path(p) => {
            let hits = eval_path(ctx, p, binding)?;
            Ok(hits.iter().map(|h| normalize(&h.value)).collect())
        }
    }
}

fn compare_sets(l: &BTreeSet<Oid>, op: CmpOp, r: &BTreeSet<Oid>) -> Result<bool, LyricError> {
    match op {
        CmpOp::Eq => Ok(l == r),
        CmpOp::Neq => Ok(l != r),
        CmpOp::Contains => Ok(r.is_subset(l)),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let (a, b) = match (l.iter().next(), r.iter().next()) {
                (Some(a), Some(b)) if l.len() == 1 && r.len() == 1 => (a, b),
                _ => {
                    return Err(LyricError::type_error(
                        "ordered comparison requires singleton values",
                    ))
                }
            };
            let (a, b) = match (a.as_rational(), b.as_rational()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(LyricError::type_error(
                        "ordered comparison requires numeric values",
                    ))
                }
            };
            Ok(match op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
                _ => unreachable!(),
            })
        }
    }
}

// --------------------------------------------------------- index planning
//
// When [`ExecOptions::index`](lyric_engine::ExecOptions) is on, each FROM
// variable with an index-answerable WHERE conjunct is bound from the
// generation-stamped store index's (`lyric_store`) candidate run instead
// of its class extent. A WHERE conjunct is *index-answerable* for FROM
// variable `X` when it has one of two shapes:
//
// * scalar — `X.attr <op> lit` (or mirrored) over a declared
//   single-valued scalar attribute, `<op>` one of `=`, `<`, `<=`, `>`,
//   `>=` with a literal comparand;
// * box — `X.attr[E]` over a declared CST attribute, paired with a
//   top-level `(E(v1,…,vk) AND chains)` satisfiability conjunct whose
//   template is that one slot plus constant chains: the interval-box
//   reading of the constant atoms at `v1,…,vk` is the positional query
//   window ([`Template::window`]), and objects all of whose stored
//   members are box-disjoint from it cannot satisfy the pair.
//
// Every probe returns a *superset* of the oids a full scan could keep or
// error on (see `lyric_store`'s soundness contract), so binding from the
// candidates never changes the answer. The one latitude it takes — like the
// evaluator's own `AND` short-circuit — is that conjuncts are never
// evaluated at all for pruned bindings, so a sibling conjunct that would
// *error* under a scan of an excluded object is skipped.

/// The leaves of a WHERE condition's top-level `AND` tree, in
/// evaluation order.
fn top_conjuncts(c: &Cond) -> Vec<&Cond> {
    fn walk<'q>(c: &'q Cond, out: &mut Vec<&'q Cond>) {
        match c {
            Cond::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(c, &mut out);
    out
}

/// One index probe derived from a WHERE conjunct.
enum ProbeReq<'q> {
    Eq {
        attr: &'q str,
        key: Oid,
    },
    Range {
        attr: &'q str,
        window: Interval,
    },
    Box {
        attr: &'q str,
        window: Vec<Interval>,
    },
}

/// `var.attr` as a single-step, selector-free path over a declared
/// single-valued scalar attribute — the shape the scalar index covers.
fn indexed_scalar_attr<'q>(
    ctx: &Ctx<'_>,
    class: &str,
    var: &str,
    operand: &'q CmpOperand,
) -> Option<&'q str> {
    let CmpOperand::Path(p) = operand else {
        return None;
    };
    match &p.root {
        Selector::Var(v) if v == var => {}
        _ => return None,
    }
    let [step] = p.steps.as_slice() else {
        return None;
    };
    if step.selector.is_some() {
        return None;
    }
    let decl = ctx.db.schema().attribute(class, &step.attr)?;
    (!decl.is_set && matches!(decl.target, AttrTarget::Class { .. })).then_some(step.attr.as_str())
}

/// A literal comparison operand as an index key.
fn literal_key(operand: &CmpOperand) -> Option<Oid> {
    match operand {
        CmpOperand::Num(n) => Some(Oid::Rat(n.clone())),
        CmpOperand::Str(s) => Some(Oid::str(s.clone())),
        CmpOperand::Bool(b) => Some(Oid::Bool(*b)),
        CmpOperand::Path(_) => None,
    }
}

/// Derive a scalar probe from a comparison conjunct, if it has the
/// index-answerable shape for `var`.
fn scalar_probe<'q>(
    ctx: &Ctx<'_>,
    class: &str,
    var: &str,
    lhs: &'q CmpOperand,
    op: CmpOp,
    rhs: &'q CmpOperand,
) -> Option<ProbeReq<'q>> {
    // Orient so the path is on the left.
    let (attr, key_side, op) = if let Some(a) = indexed_scalar_attr(ctx, class, var, lhs) {
        (a, rhs, op)
    } else if let Some(a) = indexed_scalar_attr(ctx, class, var, rhs) {
        let mirrored = match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        };
        (a, lhs, mirrored)
    } else {
        return None;
    };
    match op {
        CmpOp::Eq => Some(ProbeReq::Eq {
            attr,
            key: literal_key(key_side)?,
        }),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let CmpOperand::Num(n) = key_side else {
                return None;
            };
            let bound = Some((n.clone(), matches!(op, CmpOp::Lt | CmpOp::Gt)));
            let window = match op {
                CmpOp::Lt | CmpOp::Le => Interval::of_bounds(None, bound),
                _ => Interval::of_bounds(bound, None),
            };
            Some(ProbeReq::Range { attr, window })
        }
        CmpOp::Neq | CmpOp::Contains => None,
    }
}

/// Derive a bounding-box probe from a `var.attr[E]` path predicate, if a
/// top-level satisfiability conjunct supplies a query window for `E`.
fn box_probe<'q>(
    ctx: &Ctx<'_>,
    class: &str,
    var: &str,
    p: &'q PathExpr,
    conjuncts: &[&'q Cond],
) -> Option<ProbeReq<'q>> {
    match &p.root {
        Selector::Var(v) if v == var => {}
        _ => return None,
    }
    let [step] = p.steps.as_slice() else {
        return None;
    };
    let Some(Selector::Var(member_var)) = &step.selector else {
        return None;
    };
    if member_var == var {
        return None;
    }
    let decl = ctx.db.schema().attribute(class, &step.attr)?;
    let AttrTarget::Cst { vars } = &decl.target else {
        return None;
    };
    let arity = vars.len();
    for c in conjuncts {
        let Cond::Sat(f) = c else { continue };
        if let Some(window) = ctx.template(f).window(member_var, arity, &ctx.declared) {
            return Some(ProbeReq::Box {
                attr: step.attr.as_str(),
                window,
            });
        }
    }
    None
}

/// Bind a FROM variable through the store index: intersect the
/// candidate runs of every index-answerable WHERE conjunct and return
/// the result, or `None` when no probe applies (the caller then scans
/// the extent). The index is built over the class's whole IS-A cone at
/// the current generation, so every candidate is an extent member and
/// the sorted run binds in extent order without the extent ever being
/// materialized. Counts one `index_probes` per probe answered and the
/// unbound extent members as `index_pruned`.
fn index_candidates(ctx: &Ctx<'_>, w: &Cond, f: &FromItem) -> Option<Vec<Oid>> {
    let conjuncts = top_conjuncts(w);
    let mut reqs: Vec<ProbeReq<'_>> = Vec::new();
    for c in &conjuncts {
        match c {
            Cond::Compare { lhs, op, rhs } => {
                if let Some(r) = scalar_probe(ctx, &f.class, &f.var, lhs, *op, rhs) {
                    reqs.push(r);
                }
            }
            Cond::PathPred(p) => {
                if let Some(r) = box_probe(ctx, &f.class, &f.var, p, &conjuncts) {
                    reqs.push(r);
                }
            }
            _ => {}
        }
    }
    if reqs.is_empty() {
        return None;
    }
    let total = ctx.db.extent_len(&f.class);
    if total == 0 {
        return None;
    }
    let idx = lyric_store::index_for(ctx.db);
    debug_assert_eq!(idx.generation(), ctx.db.data_generation());
    let mut probes = 0u64;
    let mut candidates: Option<Vec<Oid>> = None;
    for req in reqs {
        let hit = match req {
            ProbeReq::Eq { attr, key } => idx.probe_eq(&f.class, attr, &key),
            ProbeReq::Range { attr, window } => idx.probe_range(&f.class, attr, &window),
            ProbeReq::Box { attr, window } => idx.probe_box(&f.class, attr, &window),
        };
        let Some(hit) = hit else { continue };
        probes += 1;
        candidates = Some(match candidates {
            None => hit,
            Some(prev) => lyric_store::intersect_sorted(&prev, &hit),
        });
    }
    let kept = candidates?;
    debug_assert!(
        kept.iter().all(|oid| ctx.db.is_instance(oid, &f.class)),
        "index candidates outside the extent of {}",
        f.class
    );
    let pruned = (total - kept.len()) as u64;
    lyric_engine::note_live(lyric_engine::Live::IndexProbes, probes);
    lyric_engine::tally(|s| s.index_pruned += pruned);
    lyric_engine::trace_event(|| lyric_engine::trace::EventKind::IndexProbe {
        candidates: total as u64,
        pruned,
    });
    Some(kept)
}

// -------------------------------------------------------------- placement
//
// A SELECT over two or more FROM variables is planned like the paper's §5
// flat translation, σ(R_X) × σ(R_Y): each top-level WHERE conjunct that
// reads one FROM variable runs once per candidate of that variable, before
// the product, and each residual `(φ)` adds to each variable a *restricted
// template* ([`Template::restrict`]) of the parts that resolve through that
// variable alone. The residual conjuncts then run in textual order on the
// product of the survivors. DESIGN.md §4c states the rules and why each
// keeps a conjunct's outcome equal to its outcome at its textual place;
// `explain::build_plan` shows the same placement. Like the index probes,
// the placement takes the latitude of the `AND` short-circuit: a residual
// conjunct never runs for a pair that a later placed conjunct rejects, so
// an error it would raise there is not raised.

/// Where the top-level WHERE conjuncts of a multi-variable SELECT run.
pub(crate) struct Placement<'q> {
    /// The filters of each FROM variable, in clause order.
    pub(crate) from: Vec<FromFilters<'q>>,
    /// The conjuncts that run on the product of the survivors, in textual
    /// order.
    pub(crate) residual: Vec<&'q Cond>,
}

/// The filters one FROM variable's candidates pass before the product.
#[derive(Default)]
pub(crate) struct FromFilters<'q> {
    /// The conjuncts placed at the variable, in textual order.
    pub(crate) placed: Vec<&'q Cond>,
    /// One restricted template per residual `(φ)` that has one here.
    pub(crate) semijoins: Vec<Template<'q>>,
}

/// What one top-level WHERE conjunct reads.
#[derive(Default)]
struct Reads {
    /// The FROM items (by index) whose values it reads, directly or
    /// through names that earlier conjuncts bound.
    from: BTreeSet<usize>,
    /// It reads a name that no earlier top-level conjunct binds.
    unresolved: bool,
    /// The names it binds under an OR: bound on the bindings one branch
    /// yields, maybe not on the others'.
    under_or: BTreeSet<String>,
}

/// The names bound by the top-level conjuncts scanned so far, each with
/// the FROM set of the conjunct that bound it (a FROM variable's is
/// itself), and the names they bound only under an OR.
struct Scan<'n> {
    bindable: &'n BTreeSet<String>,
    bound: BTreeMap<String, BTreeSet<usize>>,
    under_or: BTreeSet<String>,
}

impl Scan<'_> {
    /// Read `name`, unless the conjunct bound it itself.
    fn read(&self, name: &str, local: &BTreeSet<String>, out: &mut Reads) {
        if local.contains(name) {
            return;
        }
        match self.bound.get(name) {
            Some(from) => out.from.extend(from),
            None => out.unresolved = true,
        }
    }

    /// A path step's variable: read when bound, else bound by the walk. A
    /// name an earlier OR bound is read on some bindings and bound on the
    /// others, so it reads as unresolved.
    fn step_var(&self, name: &str, local: &mut BTreeSet<String>, out: &mut Reads) {
        if local.contains(name) || self.bound.contains_key(name) || self.under_or.contains(name) {
            self.read(name, local, out);
        } else {
            local.insert(name.to_string());
        }
    }

    /// The names a path walk reads; those it binds join `local`.
    fn path(&self, p: &PathExpr, local: &mut BTreeSet<String>, out: &mut Reads) {
        if let Selector::Var(v) = &p.root {
            if self.bindable.contains(v) {
                self.read(v, local, out);
            }
        }
        for step in &p.steps {
            if is_attr_var_name(&step.attr) && self.bindable.contains(&step.attr) {
                self.step_var(&step.attr, local, out);
            }
            if let Some(Selector::Var(v)) = &step.selector {
                self.step_var(v, local, out);
            }
        }
    }

    fn arith(&self, a: &Arith, local: &BTreeSet<String>, out: &mut Reads) {
        match a {
            Arith::Num(_) => {}
            Arith::Var(v) if self.bindable.contains(v) => self.read(v, local, out),
            Arith::Var(_) => {}
            Arith::PathConst(p) => self.path(p, &mut local.clone(), out),
            Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
                self.arith(x, local, out);
                self.arith(y, local, out);
            }
            Arith::Neg(x) => self.arith(x, local, out),
        }
    }

    /// A CST formula resolves each path on its own: what a path binds
    /// stays inside it.
    fn formula(&self, f: &Formula, local: &BTreeSet<String>, out: &mut Reads) {
        match f {
            Formula::And(a, b) | Formula::Or(a, b) => {
                self.formula(a, local, out);
                self.formula(b, local, out);
            }
            Formula::Not(a) | Formula::Proj { body: a, .. } => self.formula(a, local, out),
            Formula::Pred { path, .. } => self.path(path, &mut local.clone(), out),
            Formula::Chain { first, rest, .. } => {
                self.arith(first, local, out);
                for (_, a) in rest {
                    self.arith(a, local, out);
                }
            }
        }
    }

    /// What `c` reads; the names it binds for the conjuncts after it join
    /// `local` (a path predicate's), or `out.under_or` (those an OR's
    /// branches bind, which escape on that branch's bindings only). A
    /// comparison and a NOT keep theirs.
    fn cond(&self, c: &Cond, local: &mut BTreeSet<String>, out: &mut Reads) {
        match c {
            Cond::And(a, b) => {
                self.cond(a, local, out);
                self.cond(b, local, out);
            }
            Cond::Or(a, b) => {
                for branch in [a, b] {
                    let mut inner = local.clone();
                    self.cond(branch, &mut inner, out);
                    out.under_or.extend(inner.difference(local).cloned());
                }
            }
            Cond::Not(a) => {
                let under_or = std::mem::take(&mut out.under_or);
                self.cond(a, &mut local.clone(), out);
                out.under_or = under_or;
            }
            Cond::PathPred(p) => self.path(p, local, out),
            Cond::Compare { lhs, rhs, .. } => {
                for op in [lhs, rhs] {
                    if let CmpOperand::Path(p) = op {
                        self.path(p, &mut local.clone(), out);
                    }
                }
            }
            Cond::Sat(f) => self.formula(f, local, out),
            Cond::Entails(a, b) => {
                self.formula(a, local, out);
                self.formula(b, local, out);
            }
        }
    }
}

/// Does the condition read the renaming links of the binding: is it, or
/// does it hold, a `(φ)` or a `|=`?
fn reads_links(c: &Cond) -> bool {
    match c {
        Cond::Sat(_) | Cond::Entails(..) => true,
        Cond::And(a, b) | Cond::Or(a, b) => reads_links(a) || reads_links(b),
        Cond::Not(a) => reads_links(a),
        Cond::PathPred(_) | Cond::Compare { .. } => false,
    }
}

/// Can the condition add renaming links to the bindings it yields: is it,
/// or does an OR of it hold, a path predicate?
fn adds_links(c: &Cond) -> bool {
    match c {
        Cond::PathPred(_) => true,
        Cond::And(a, b) | Cond::Or(a, b) => adds_links(a) || adds_links(b),
        Cond::Not(_) | Cond::Compare { .. } | Cond::Sat(_) | Cond::Entails(..) => false,
    }
}

/// Place the top-level WHERE conjuncts of `q` (DESIGN.md §4c), or `None`
/// when the query keeps the textual plan: it has fewer than two FROM
/// items, a conjunct reads a name that no earlier top-level conjunct
/// binds (or that one binds only under an OR), or nothing would run
/// before the product. The evaluator and `explain::build_plan` both call
/// this.
pub(crate) fn place<'q>(
    q: &'q SelectQuery,
    names: &QueryNames,
    templates: &BTreeMap<usize, Template<'q>>,
) -> Option<Placement<'q>> {
    let w = q.where_clause.as_ref()?;
    let vars: Vec<&str> = q.from.iter().map(|f| f.var.as_str()).collect();
    if vars.len() < 2 || (1..vars.len()).any(|i| vars[..i].contains(&vars[i])) {
        return None;
    }
    let mut scan = Scan {
        bindable: &names.bindable,
        bound: (vars.iter().enumerate())
            .map(|(i, v)| (v.to_string(), BTreeSet::from([i])))
            .collect(),
        under_or: BTreeSet::new(),
    };
    // The FROM variable each name was bound at, for the restricted
    // templates' slots.
    let mut home: BTreeMap<String, usize> = (vars.iter().enumerate())
        .map(|(i, v)| (v.to_string(), i))
        .collect();
    let mut from: Vec<FromFilters<'q>> = vars.iter().map(|_| FromFilters::default()).collect();
    let mut residual = Vec::new();
    let mut links_read = false;
    // Where each earlier link-adding conjunct runs: `None` is residual.
    let mut link_adders: Vec<Option<usize>> = Vec::new();
    for c in top_conjuncts(w) {
        let (mut local, mut reads) = (BTreeSet::new(), Reads::default());
        scan.cond(c, &mut local, &mut reads);
        if reads.unresolved {
            return None;
        }
        // A conjunct that reads no FROM variable is left to the product.
        let single = match reads.from.len() {
            1 => reads.from.first().copied(),
            _ => None,
        };
        let at = match c {
            _ if reads_links(c) => single.filter(|v| link_adders.iter().all(|at| *at == Some(*v))),
            Cond::PathPred(_) | Cond::Compare { .. } => single.filter(|_| !links_read),
            _ => None,
        };
        scan.under_or.extend(reads.under_or);
        links_read |= reads_links(c);
        if adds_links(c) {
            link_adders.push(at);
        }
        if matches!(c, Cond::PathPred(_)) {
            let set = if reads.from.is_empty() {
                (0..vars.len()).collect()
            } else {
                reads.from
            };
            for name in local {
                if let Some(v) = at {
                    home.insert(name.clone(), v);
                }
                scan.bound.insert(name, set.clone());
            }
        }
        match at {
            Some(v) => from[v].placed.push(c),
            None => residual.push(c),
        }
    }
    for c in &residual {
        let Cond::Sat(f) = c else { continue };
        let template = &templates[&template_key(f)];
        for (v, filters) in from.iter_mut().enumerate() {
            let at_v = |p: &PathExpr| path_home(p, &names.bindable, &home) == Some(v);
            filters.semijoins.extend(template.restrict(at_v));
        }
    }
    let filtered = from
        .iter()
        .any(|f| !f.placed.is_empty() || !f.semijoins.is_empty());
    filtered.then_some(Placement { from, residual })
}

/// The FROM variable every name of a slot path was bound at, when they
/// all were bound at one and the path names any.
fn path_home(
    p: &PathExpr,
    bindable: &BTreeSet<String>,
    home: &BTreeMap<String, usize>,
) -> Option<usize> {
    let root = match &p.root {
        Selector::Var(v) if bindable.contains(v) => Some(v),
        _ => None,
    };
    let steps = p.steps.iter().flat_map(|s| {
        let attr = (is_attr_var_name(&s.attr) && bindable.contains(&s.attr)).then_some(&s.attr);
        let selector = match &s.selector {
            Some(Selector::Var(v)) => Some(v),
            _ => None,
        };
        attr.into_iter().chain(selector)
    });
    let mut at = None;
    for name in root.into_iter().chain(steps) {
        let v = *home.get(name)?;
        if at.is_some_and(|at| at != v) {
            return None;
        }
        at = Some(v);
    }
    at
}

// ----------------------------------------------------------------- select

type SelectRows<'a> = Vec<(Binding<'a>, Vec<Oid>)>;

fn eval_select<'a>(
    ctx: &Ctx<'a>,
    q: &SelectQuery,
) -> Result<(Vec<String>, SelectRows<'a>), LyricError> {
    for f in &q.from {
        if !ctx.db.schema().has_class(&f.class) {
            return Err(LyricError::UnknownClass(f.class.clone()));
        }
    }
    // The planned path answers as the textual plan does. Where it cannot
    // (a placed conjunct yields several bindings, so the product would
    // reorder rows) or raises an error, which the textual plan might not
    // reach, the textual plan runs and its answer stands; the record
    // counts both runs' work.
    let bindings = match &ctx.placement {
        None => bind_textual(ctx, q)?,
        Some(plan) => match bind_planned(ctx, q, plan) {
            Ok(Some(bindings)) => bindings,
            Ok(None) => {
                ctx.note_fallback(|| "a placed conjunct yields several bindings".to_string());
                bind_textual(ctx, q)?
            }
            Err(e @ LyricError::BudgetExceeded { .. }) => return Err(e),
            Err(e) => {
                ctx.note_fallback(|| e.to_string());
                bind_textual(ctx, q)?
            }
        },
    };
    // SELECT items.
    let columns: Vec<String> = q
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| column_name(i, item))
        .collect();
    // SELECT items evaluate per binding with no cross-binding dependency;
    // combos are rebuilt in binding order so row order matches the serial
    // loop exactly.
    let per_binding = lyric_engine::parallel_map(&bindings, |_, b| {
        let mut per_item: Vec<Vec<Oid>> = Vec::with_capacity(q.items.len());
        for (i, item) in q.items.iter().enumerate() {
            let node = ctx.explain.and_then(|e| e.item_node(i));
            let _span = lyric_engine::span_node(
                SpanKind::SelectItem,
                node,
                || column_name(i, item),
                item.span.byte_range(),
            );
            let vals = eval_item(ctx, item, b)?;
            ctx.count_rows(node, 1, vals.len() as u64);
            per_item.push(vals);
        }
        if per_item.iter().any(|v| v.is_empty()) {
            return Ok(Vec::new());
        }
        // Cross product of multi-valued items.
        let mut combos: Vec<Vec<Oid>> = vec![Vec::new()];
        for vals in &per_item {
            let mut next = Vec::with_capacity(combos.len() * vals.len());
            for c in &combos {
                for v in vals {
                    let mut c2 = c.clone();
                    c2.push(v.clone());
                    next.push(c2);
                }
            }
            combos = next;
        }
        Ok::<Vec<Vec<Oid>>, LyricError>(combos)
    });
    let mut rows: SelectRows = Vec::new();
    for (b, combos) in bindings.into_iter().zip(per_binding) {
        for c in combos? {
            rows.push((b.clone(), c));
        }
    }
    Ok((columns, rows))
}

/// A FROM variable's candidates: its index candidates when a probe
/// applies, else its extent. Each binds the variable alone, rooting its
/// own access chain.
fn candidates<'a>(ctx: &Ctx<'a>, q: &SelectQuery, f: &FromItem) -> Vec<Arc<Bound<'a>>> {
    let probed = match &q.where_clause {
        Some(w) if lyric_engine::index_enabled() => index_candidates(ctx, w, f),
        _ => None,
    };
    let extent = probed.unwrap_or_else(|| ctx.db.extent(&f.class));
    extent
        .into_iter()
        .map(|oid| {
            Arc::new(Bound {
                scope: ScopeKey::root(oid.clone()),
                oid,
                prov: None,
            })
        })
        .collect()
}

/// The plan node of the `fi`th FROM item, and its span, open until the
/// guard drops.
fn from_span(ctx: &Ctx<'_>, fi: usize, f: &FromItem) -> (Option<u32>, lyric_engine::SpanGuard) {
    let node = ctx.explain.and_then(|e| e.binder_node(fi));
    let span = lyric_engine::span_node(
        SpanKind::FromBind,
        node,
        || format!("{} {}", f.class, f.var),
        f.class_span.join(f.var_span).byte_range(),
    );
    (node, span)
}

/// The textual plan: the cross product of the FROM candidates, then the
/// whole WHERE condition on every binding.
fn bind_textual<'a>(ctx: &Ctx<'a>, q: &SelectQuery) -> Result<Vec<Binding<'a>>, LyricError> {
    let mut bindings: Vec<Binding<'a>> = vec![Binding::empty(ctx.names.len())];
    for (fi, f) in q.from.iter().enumerate() {
        let (node, _span) = from_span(ctx, fi, f);
        let roots = candidates(ctx, q, f);
        let slot = ctx.bind_slot(&f.var);
        let before = bindings.len() as u64;
        // Each prior binding expands independently; rows come back in
        // binding order, so the cross product is identical to the serial
        // nested loop.
        let expanded = lyric_engine::parallel_map(&bindings, |_, b| {
            roots
                .iter()
                .map(|root| {
                    let mut b2 = b.clone();
                    b2.bind(slot, Arc::clone(root));
                    b2
                })
                .collect::<Vec<Binding<'a>>>()
        });
        bindings = expanded.into_iter().flatten().collect();
        ctx.count_rows(node, before, bindings.len() as u64);
    }
    // WHERE: each binding is filtered independently (the per-binding
    // sat/entailment checks dominate query time). Results are merged in
    // binding order, then deduplicated exactly as in the serial loop; on
    // error, the lowest-index binding's error is reported.
    if let Some(w) = &q.where_clause {
        let node = ctx.explain.and_then(|e| e.where_node());
        let _span =
            lyric_engine::span_node(SpanKind::Where, node, String::new, w.span().byte_range());
        let before = bindings.len() as u64;
        let evaluated = lyric_engine::parallel_map(&bindings, |_, b| eval_cond(ctx, w, b));
        bindings = merge_filtered(evaluated)?;
        ctx.count_rows(node, before, bindings.len() as u64);
    }
    Ok(bindings)
}

/// Per-binding filter results in binding order, deduplicated; the
/// lowest-index binding's error if any failed.
fn merge_filtered<'a>(
    evaluated: Vec<Result<Vec<Binding<'a>>, LyricError>>,
) -> Result<Vec<Binding<'a>>, LyricError> {
    let mut filtered = Vec::new();
    for r in evaluated {
        filtered.extend(r?);
    }
    Ok(dedup_bindings(filtered))
}

/// Conjuncts in textual order as the `AND` chain runs them: each on every
/// binding the conjuncts before it yielded, deduplicated after each.
fn eval_chain<'a>(
    ctx: &Ctx<'a>,
    conjuncts: &[&Cond],
    binding: Binding<'a>,
) -> Result<Vec<Binding<'a>>, LyricError> {
    let mut bindings = vec![binding];
    for c in conjuncts {
        let mut next = Vec::new();
        for b in &bindings {
            next.extend(eval_cond(ctx, c, b)?);
        }
        bindings = dedup_bindings(next);
    }
    Ok(bindings)
}

/// The planned path (see [`place`]): each FROM variable's candidates pass
/// its placed conjuncts and restricted templates, then the residual
/// conjuncts run on the product of the survivors in FROM order. `None`
/// when a placed conjunct yields several bindings for a candidate, decided
/// once that variable's filters have run on every candidate, so the work
/// counted is the same at every thread count.
fn bind_planned<'a>(
    ctx: &Ctx<'a>,
    q: &SelectQuery,
    plan: &Placement<'_>,
) -> Result<Option<Vec<Binding<'a>>>, LyricError> {
    let mut product: Vec<Binding<'a>> = Vec::new();
    for (fi, (f, filters)) in q.from.iter().zip(&plan.from).enumerate() {
        let (node, _span) = from_span(ctx, fi, f);
        let slot = ctx.bind_slot(&f.var);
        let roots: Vec<Binding<'a>> = candidates(ctx, q, f)
            .into_iter()
            .map(|root| {
                let mut b = Binding::empty(ctx.names.len());
                b.bind(slot, root);
                b
            })
            .collect();
        let filtered = lyric_engine::parallel_map(&roots, |_, b| {
            let mut bindings = eval_chain(ctx, &filters.placed, b.clone())?;
            for (k, t) in filters.semijoins.iter().enumerate() {
                let node = ctx.explain.and_then(|e| e.semijoin_node(fi, k));
                let mut kept = Vec::new();
                for b in bindings {
                    let _span =
                        lyric_engine::span_node(SpanKind::SatCheck, node, String::new, t.source());
                    let holds = t.box_admits(ctx, &b)?;
                    ctx.count_rows(node, 1, holds as u64);
                    if holds {
                        kept.push(b);
                    }
                }
                bindings = kept;
            }
            Ok::<_, LyricError>(bindings)
        });
        let mut survivors = Vec::new();
        let mut several = false;
        for r in filtered {
            let bindings = r?;
            several |= bindings.len() > 1;
            survivors.extend(bindings);
        }
        ctx.count_rows(node, roots.len() as u64, survivors.len() as u64);
        if several {
            return Ok(None);
        }
        product = if fi == 0 {
            survivors
        } else {
            // Each prior binding expands independently, in binding order.
            let expanded = lyric_engine::parallel_map(&product, |_, p| {
                survivors.iter().map(|b| p.merge(b)).collect::<Vec<_>>()
            });
            expanded.into_iter().flatten().collect()
        };
    }
    let node = ctx.explain.and_then(|e| e.where_node());
    let w = q
        .where_clause
        .as_ref()
        .expect("a placed query has a WHERE clause");
    let _span = lyric_engine::span_node(SpanKind::Where, node, String::new, w.span().byte_range());
    let before = product.len() as u64;
    let evaluated =
        lyric_engine::parallel_map(&product, |_, b| eval_chain(ctx, &plan.residual, b.clone()));
    let bindings = merge_filtered(evaluated)?;
    ctx.count_rows(node, before, bindings.len() as u64);
    Ok(Some(bindings))
}

pub(crate) fn column_name(i: usize, item: &SelectItem) -> String {
    if let Some(l) = &item.label {
        return l.clone();
    }
    match &item.value {
        SelectValue::Path(p) => display_path(p),
        SelectValue::Formula(_) => format!("cst_{i}"),
        SelectValue::Optimize { kind, .. } => match kind {
            OptKind::Max => format!("max_{i}"),
            OptKind::Min => format!("min_{i}"),
            OptKind::MaxPoint => format!("max_point_{i}"),
            OptKind::MinPoint => format!("min_point_{i}"),
        },
    }
}

fn eval_item(ctx: &Ctx<'_>, item: &SelectItem, b: &Binding<'_>) -> Result<Vec<Oid>, LyricError> {
    match &item.value {
        SelectValue::Path(p) => {
            let hits = eval_path(ctx, p, b)?;
            let mut vals: Vec<Oid> = Vec::new();
            for h in hits {
                if !vals.contains(&h.value) {
                    vals.push(h.value);
                }
            }
            Ok(vals)
        }
        // The oid canonicalizes the object (§3.1).
        SelectValue::Formula(f) => Ok(vec![Oid::cst(ctx.template(f).instantiate(ctx, b)?)]),
        SelectValue::Optimize {
            kind,
            objective,
            formula,
        } => {
            let obj = ctx.template(formula).instantiate(ctx, b)?.canonicalize();
            let goal = arith_to_linexpr(ctx, objective, b)?;
            // The LP operators optimize over the formula's point set; the
            // objective must range over its dimensions.
            let missing: Vec<Var> = goal
                .vars()
                .into_iter()
                .filter(|v| !obj.free().contains(v))
                .collect();
            if !missing.is_empty() {
                return Err(LyricError::type_error(format!(
                    "objective variable {} is not a dimension of the SUBJECT TO formula",
                    missing[0]
                )));
            }
            let extremum = {
                let _span = span(
                    SpanKind::Optimize,
                    || match kind {
                        OptKind::Max | OptKind::MaxPoint => "max".to_string(),
                        OptKind::Min | OptKind::MinPoint => "min".to_string(),
                    },
                    objective.span().join(formula.span()).byte_range(),
                );
                match kind {
                    OptKind::Max | OptKind::MaxPoint => obj.maximize(&goal),
                    OptKind::Min | OptKind::MinPoint => obj.minimize(&goal),
                }
            };
            match extremum {
                Extremum::Infeasible => Err(LyricError::EmptyOptimization),
                Extremum::Unbounded => Err(LyricError::Unbounded),
                Extremum::Finite {
                    bound,
                    attained,
                    witness,
                } => match kind {
                    OptKind::Max | OptKind::Min => Ok(vec![Oid::Rat(bound)]),
                    OptKind::MaxPoint | OptKind::MinPoint => {
                        if !attained {
                            return Err(LyricError::NotAttained);
                        }
                        let values: Vec<Rational> = obj
                            .free()
                            .iter()
                            .map(|v| witness.get(v).cloned().unwrap_or_else(Rational::zero))
                            .collect();
                        Ok(vec![Oid::cst(CstObject::point(
                            obj.free().to_vec(),
                            &values,
                        ))])
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{self, box2, point2, translation2};
    use crate::parser::parse_query;

    /// One evaluation's FROM/WHERE answer: the columns, and per row its
    /// binding's visible assignment and its cells; an error as its text.
    type Answer = Result<(Vec<String>, Vec<(Vec<(usize, Oid)>, Vec<Oid>)>), String>;

    /// Evaluate `src` (a SELECT, or a CREATE VIEW's SELECT) on `threads`
    /// engine threads, planned when the query is placed or textual.
    fn answer(db: &Database, src: &str, planned: bool, threads: usize) -> Answer {
        let q = parse_query(src).expect("the query parses");
        let (s, view_var) = match &q {
            Query::Select(s) => (s, None),
            Query::CreateView(v) => (&v.select, Some(v.name.as_str())),
        };
        let opts = ExecOptions::default().with_threads(threads);
        let (outcome, _, _) = lyric_engine::run(&opts, None, || {
            let mut ctx = Ctx::new(db, s, view_var, None);
            if !planned {
                ctx.placement = None;
            }
            let (columns, rows) = eval_select(&ctx, s)?;
            let rows = (rows.into_iter())
                .map(|(b, row)| {
                    let visible = Visible(b.slots)
                        .oids()
                        .map(|(i, o)| (i, o.clone()))
                        .collect();
                    (visible, row)
                })
                .collect();
            Ok::<_, LyricError>((columns, rows))
        });
        outcome
            .expect("no budget applies")
            .map_err(|e| e.to_string())
    }

    fn is_placed(db: &Database, src: &str) -> bool {
        let Ok(Query::Select(s)) = parse_query(src) else {
            return false;
        };
        Ctx::new(db, &s, None, None).placement.is_some()
    }

    /// Oids equal, constraint objects by denotation.
    fn same_oid(a: &Oid, b: &Oid) -> bool {
        match (a.as_cst(), b.as_cst()) {
            (Some(x), Some(y)) => x.denotes_same(y),
            _ => a == b,
        }
    }

    /// The planned and the textual evaluation of `src` agree at 1 and 4
    /// threads: columns, rows in order, bindings, and errors. Returns the
    /// number of rows.
    fn assert_planned_is_textual(db: &Database, src: &str) -> usize {
        let mut rows = 0;
        for threads in [1, 4] {
            let planned = answer(db, src, true, threads);
            let textual = answer(db, src, false, threads);
            let label = format!("threads={threads}: {src}");
            match (&planned, &textual) {
                (Ok((pc, prows)), Ok((tc, trows))) => {
                    assert_eq!(pc, tc, "{label}: columns differ");
                    assert_eq!(prows.len(), trows.len(), "{label}: row counts differ");
                    for ((pb, pr), (tb, tr)) in prows.iter().zip(trows) {
                        assert_eq!(pb.len(), tb.len(), "{label}: bindings differ");
                        let bindings = pb.iter().zip(tb);
                        assert!(
                            bindings
                                .into_iter()
                                .all(|((i, a), (j, b))| i == j && same_oid(a, b)),
                            "{label}: bindings differ"
                        );
                        assert!(
                            pr.len() == tr.len() && pr.iter().zip(tr).all(|(a, b)| same_oid(a, b)),
                            "{label}: rows differ"
                        );
                    }
                }
                (Err(p), Err(t)) => assert_eq!(p, t, "{label}: errors differ"),
                _ => panic!("{label}: planned {planned:?} but textual {textual:?}"),
            }
            rows = planned.map_or(0, |(_, rows)| rows.len());
        }
        rows
    }

    /// The paper database with `my_desk` moved to `(x, y)`.
    fn desk_at(x: i64, y: i64) -> Database {
        let mut db = paper_example::database();
        let at = Value::Scalar(Oid::cst(point2("x", "y", x, y)));
        db.set_attr(&Oid::named("my_desk"), "location", at).unwrap();
        db
    }

    /// The paper database with a second room object for `standard_desk`
    /// at `(x, y)`.
    fn second_desk_at(x: i64, y: i64) -> Database {
        let mut db = paper_example::database();
        db.insert(
            Oid::named("my_desk2"),
            "Object_In_Room",
            [
                ("inv_number", Value::Scalar(Oid::str("22-356"))),
                ("location", Value::Scalar(Oid::cst(point2("x", "y", x, y)))),
                ("catalog_object", Value::Scalar(Oid::named("standard_desk"))),
            ],
        )
        .unwrap();
        db
    }

    /// The paper database with a second desk sharing `standard_drawer`.
    fn clone_desk() -> Database {
        let mut db = paper_example::database();
        db.insert(
            Oid::named("clone_desk"),
            "Desk",
            [
                ("name", Value::Scalar(Oid::str("clone"))),
                ("color", Value::Scalar(Oid::str("blue"))),
                (
                    "extent",
                    Value::Scalar(Oid::cst(box2("w", "z", -4, 4, -2, 2))),
                ),
                ("translation", Value::Scalar(Oid::cst(translation2()))),
                (
                    "drawer_center",
                    Value::Scalar(Oid::cst(point2("p", "q", -2, 0))),
                ),
                ("drawer", Value::Scalar(Oid::named("standard_drawer"))),
            ],
        )
        .unwrap();
        db
    }

    /// An office of `n` room objects in a `room` (width, height),
    /// alternately desks and file cabinets, each with its own catalog
    /// object and drawer, placed by a SplitMix64 stream from `seed`.
    fn office(n: usize, room: (i64, i64), seed: u64) -> Database {
        let mut state = seed;
        let mut uniform = |lo: i64, hi: i64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            lo + ((z ^ (z >> 31)) % (hi - lo) as u64) as i64
        };
        let mut db = Database::new(paper_example::schema()).unwrap();
        for color in ["red", "blue", "grey"] {
            db.declare_instance("Color", Oid::str(color)).unwrap();
        }
        for i in 0..n {
            let desk = i % 2 == 0;
            let (hw, hh) = if desk { (4, 2) } else { (1, 2) };
            let drawer = Oid::named(format!("drawer_{i}"));
            let extent =
                |hw: i64, hh: i64| Value::Scalar(Oid::cst(box2("w", "z", -hw, hw, -hh, hh)));
            let translation = || Value::Scalar(Oid::cst(translation2()));
            db.insert(
                drawer.clone(),
                "Drawer",
                [("extent", extent(1, 1)), ("translation", translation())],
            )
            .unwrap();
            let (class, center) = match desk {
                true => (
                    "Desk",
                    Value::Scalar(Oid::cst(box2("p", "q", -4, -4, -2, 0))),
                ),
                false => (
                    "File_Cabinet",
                    Value::set([Oid::cst(box2("p1", "q1", -1, -1, -2, 0))]),
                ),
            };
            let catalog = Oid::named(format!("catalog_{i}"));
            let color = ["red", "blue", "grey"][i % 3];
            db.insert(
                catalog.clone(),
                class,
                [
                    ("name", Value::Scalar(Oid::str(format!("catalog item {i}")))),
                    ("color", Value::Scalar(Oid::str(color))),
                    ("extent", extent(hw, hh)),
                    ("translation", translation()),
                    ("drawer_center", center),
                    ("drawer", Value::Scalar(drawer)),
                ],
            )
            .unwrap();
            let (x, y) = (uniform(5, room.0 - 5), uniform(5, room.1 - 5));
            db.insert(
                Oid::named(format!("room_obj_{i}")),
                "Object_In_Room",
                [
                    ("inv_number", Value::Scalar(Oid::str(format!("inv-{i}")))),
                    ("location", Value::Scalar(Oid::cst(point2("x", "y", x, y)))),
                    ("catalog_object", Value::Scalar(catalog)),
                ],
            )
            .unwrap();
        }
        db
    }

    /// The served pairwise join at a window, with or without the window.
    fn join(window: Option<(i64, i64, i64, i64)>) -> String {
        let bounds = window.map_or(String::new(), |(x0, x1, y0, y1)| {
            format!(" AND u >= {x0} AND u <= {x1} AND v >= {y0} AND v <= {y1}")
        });
        format!(
            "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y \
             WHERE X.catalog_object[CX] AND Y.catalog_object[CY] \
             AND X.location[LX] AND Y.location[LY] \
             AND CX.extent[EX] AND CX.translation[DX] \
             AND CY.extent[EY] AND CY.translation[DY] \
             AND X != Y \
             AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y) \
             AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2){bounds})"
        )
    }

    const DESK_IN_ROOM: &str = "SELECT DSK FROM Object_In_Room O, Desk DSK
         WHERE O.catalog_object[DSK] AND O.location[L]
           AND DSK.drawer_center[C] AND DSK.translation[D]
           AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
           AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
                AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
                AND 0 < u AND u < 20 AND 0 < v AND v < 10)";

    const DRAWER_SWEEP: &str = "SELECT O, ((u,v) | D(w,z,x,y,u,v) AND DD(w1,z1,x1,y1,u1,v1)
                AND w = u1 AND z = v1 AND DC(p,q) AND DE(w1,z1) AND L(x,y))
         FROM Object_In_Room O, Desk DSK
         WHERE O.location[L] AND O.catalog_object[DSK]
           AND (L(x,y) AND 0 <= x AND x <= 10 AND 5 <= y AND y <= 10)
           AND DSK.translation[D] AND DSK.drawer_center[DC]
           AND DSK.drawer.translation[DD] AND DSK.drawer.extent[DE]";

    const ALIASED_JOIN: &str = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y
         WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
           AND CX.extent[EX] AND CY.extent[EY] AND (EX(w,z) AND EY(w2,z2)";

    /// Binds `N` on the first branch's bindings only.
    const OR_BOUND: &str = "SELECT O, X FROM Object_In_Room O, Object_In_Room X
         WHERE (O.catalog_object[N] OR O.inv_number = 'none')";

    #[test]
    fn planned_equals_textual_on_the_paper_database() {
        let mut regions = paper_example::database();
        for (x0, x1) in [(0, 10), (10, 20)] {
            let region = Oid::cst(box2("u", "v", x0, x1, 0, 10));
            regions.declare_instance("Region", region).unwrap();
        }
        let paper = paper_example::database();
        let corpus: Vec<(Database, String)> = vec![
            (paper.clone(), DESK_IN_ROOM.into()),
            (desk_at(100, 100), DESK_IN_ROOM.into()),
            (paper.clone(), DRAWER_SWEEP.into()),
            (desk_at(6, 6), DRAWER_SWEEP.into()),
            (
                regions,
                "CREATE VIEW X AS SUBCLASS OF Object_In_Room
                 SELECT Y FROM Object_In_Room Y, Region X
                 WHERE Y.catalog_object[CO] AND Y.location[L] AND CO.extent[E]
                   AND CO.translation[D] AND (((u,v) | E AND D AND L(x,y)) |= X(u,v))"
                    .into(),
            ),
            (
                second_desk_at(8, 4),
                "CREATE VIEW Overlap AS SUBCLASS OF object
                 SELECT first = X, second = Y
                 SIGNATURE first => Object_In_Room, second => Object_In_Room
                 FROM Object_In_Room X, Object_In_Room Y
                 OID FUNCTION OF X, Y
                 WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
                   AND X.location[LX] AND Y.location[LY]
                   AND CX.extent[EX] AND CX.translation[DX]
                   AND CY.extent[EY] AND CY.translation[DY]
                   AND X != Y
                   AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y)
                        AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2))"
                    .into(),
            ),
            (
                paper.clone(),
                "SELECT DSK FROM Desk DSK, Office_Object CO
                 WHERE DSK.drawer_center[C] AND (C(p,q) |= q <= 0)"
                    .into(),
            ),
            (
                paper.clone(),
                "SELECT DSK FROM Desk DSK, Office_Object CO
                 WHERE CO.extent[E] AND DSK.drawer_center[C] AND (C(p,q) |= q <= 0)"
                    .into(),
            ),
            (
                paper.clone(),
                "SELECT X, Y FROM Office_Object X, Office_Object Y
                 WHERE X.drawer[D] AND Y.drawer[D] AND X != Y"
                    .into(),
            ),
            (
                clone_desk(),
                "SELECT X, Y FROM Office_Object X, Office_Object Y
                 WHERE X.drawer[D] AND Y.drawer[D] AND X != Y"
                    .into(),
            ),
            (
                paper.clone(),
                "SELECT X.name, O.inv_number FROM Office_Object X, Object_In_Room O
                 WHERE O.catalog_object[X] AND O.inv_number[N] AND X.name[M]"
                    .into(),
            ),
            // The aliasing self-joins: the diagonal bindings share access
            // chains, so their `(φ)` carries equalities the others lack.
            (
                second_desk_at(30, 8),
                format!("{ALIASED_JOIN} AND w >= 1 AND w2 <= -1)"),
            ),
            (second_desk_at(30, 8), format!("{ALIASED_JOIN})")),
            (
                second_desk_at(30, 8),
                "SELECT X, Y, ((w,w2) | EX(w,z) AND EY(w2,z2))
                 FROM Object_In_Room X, Object_In_Room Y
                 WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
                   AND CX.extent[EX] AND CY.extent[EY]"
                    .into(),
            ),
            // Three FROM items: each filtered alone, the residual
            // conjuncts on the whole product.
            (
                second_desk_at(8, 4),
                "SELECT O, DSK, CO FROM Object_In_Room O, Desk DSK, Office_Object CO
                 WHERE O.catalog_object[CO] AND DSK.drawer_center[C] AND CO.extent[E]
                   AND O.location[L] AND DSK.color = 'red'
                   AND (C(p,q) AND E(w,z) AND L(x,y) AND p <= w AND x >= 0 AND x <= 7)"
                    .into(),
            ),
            // A set-valued placed path: the textual plan answers.
            (
                paper.clone(),
                "SELECT F, C, D FROM File_Cabinet F, Office_Object D
                 WHERE F.drawer_center[C] AND D.name[N]"
                    .into(),
            ),
            // A name bound under an OR is bound on one branch's bindings
            // only, so a later path step reads it on those and binds it
            // on the others: the query keeps the textual plan, which
            // keeps the join on `N` (only the diagonal pairs).
            (
                paper.clone(),
                format!("{OR_BOUND} AND X.catalog_object[N] = X.catalog_object"),
            ),
            (paper.clone(), format!("{OR_BOUND} AND X.catalog_object[N]")),
            // Errors on both paths, and on the planned one only.
            (
                paper.clone(),
                "SELECT X, Y FROM Desk X, Office_Object Y
                 WHERE X.drawer_center[C] AND (C(a,b,c) AND a >= 0)"
                    .into(),
            ),
            (
                paper.clone(),
                "SELECT X, R FROM Desk X, Region R
                 WHERE X.drawer_center[C] AND (C(a,b,c) AND a >= 0)"
                    .into(),
            ),
        ];
        let (mut placed, mut rows) = (0, Vec::new());
        for (db, src) in &corpus {
            placed += is_placed(db, src) as usize;
            rows.push(assert_planned_is_textual(db, src));
        }
        assert!(rows.iter().filter(|&&n| n > 0).count() >= 10, "{rows:?}");
        // Every SELECT of the corpus is placed but the two that read a
        // name bound under an OR; the two views' SELECTs are not checked
        // by `is_placed`.
        assert_eq!(placed, corpus.len() - 4);
    }

    #[test]
    fn a_name_bound_under_an_or_keeps_the_textual_plan() {
        let db = paper_example::database();
        for read in [
            "X.catalog_object[N] = X.catalog_object",
            "X.catalog_object[N]",
        ] {
            let src = format!("{OR_BOUND} AND {read}");
            assert!(!is_placed(&db, &src), "{src}");
            let rows = answer(&db, &src, true, 1).expect("the query runs").1;
            let pairs: Vec<&[Oid]> = rows.iter().map(|(_, row)| &row[..]).collect();
            assert_eq!(pairs.len(), 2, "{src}: {pairs:?}");
            assert!(pairs.iter().all(|row| row[0] == row[1]), "{src}: {pairs:?}");
        }
        // Not read after the OR, it leaves the placement alone.
        assert!(is_placed(&db, &format!("{OR_BOUND} AND X.location[L]")));
    }

    #[test]
    fn planned_equals_textual_on_office_joins() {
        for (n, room, seed) in [(6, (40, 20), 7), (10, (48, 24), 11), (16, (48, 24), 23)] {
            let db = office(n, room, seed);
            let corpus = [
                join(None),
                join(Some((0, room.0, 0, room.1))),
                join(Some((10, 22, 4, 10))),
                join(Some((20, 36, 8, 16))),
                join(Some((30, 40, 0, 5))),
            ];
            let rows: Vec<usize> = (corpus.iter())
                .map(|src| {
                    assert!(is_placed(&db, src), "{src}");
                    assert_planned_is_textual(&db, src)
                })
                .collect();
            assert!(rows.iter().any(|&n| n > 0), "{n} objects: {rows:?}");
        }
    }

    #[test]
    fn a_planned_only_error_falls_back() {
        let db = paper_example::database();
        let src = "SELECT X, R FROM Desk X, Region R
                   WHERE X.drawer_center[C] AND (C(a,b,c) AND a >= 0)";
        let Ok(Query::Select(s)) = parse_query(src) else {
            panic!("a SELECT")
        };
        let opts = ExecOptions::default().with_threads(1);
        let (outcome, _, _) = lyric_engine::run(&opts, None, || {
            let ctx = Ctx::new(&db, &s, None, None);
            let plan = ctx.placement.as_ref().expect("placed");
            assert!(bind_planned(&ctx, &s, plan).is_err());
            eval_select(&ctx, &s).map(|(_, rows)| rows.len())
        });
        assert_eq!(outcome.unwrap().unwrap(), 0, "Region's extent is empty");
    }
}
