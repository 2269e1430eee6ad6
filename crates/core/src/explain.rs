//! EXPLAIN / EXPLAIN ANALYZE — the operator-level plan report.
//!
//! [`explain`] builds a static [`PlanNode`] tree for a query without
//! running it: one node per evaluator operator site (the SELECT root,
//! each FROM binding, the WHERE condition tree, each SELECT item),
//! annotated with the features that govern constraint-query cost —
//! class extent cardinalities, constraint atom counts, disjunction
//! alternatives, projection quantifiers.
//!
//! Under [`ExecOptions::explain`](lyric_engine::ExecOptions::explain) the
//! query runner additionally evaluates the query with the plan-node ids
//! threaded through the evaluator's span instrumentation
//! (`lyric_engine::span_node`) and per-node row counters, then attributes
//! the sealed trace back to the plan with
//! [`lyric_trace::plan::analyze`](lyric_engine::trace::plan::analyze)
//! and returns the report as `QueryResult::plan`. Two invariants are
//! pinned by `tests/explain_differential.rs`:
//!
//! * Σ per-node exclusive counters equals
//!   [`QueryResult::stats`](crate::QueryResult::stats) **exactly** (the
//!   attribution fold is total);
//! * Σ per-node exclusive time equals the trace's summed span self-time
//!   exactly, which equals the traced total up to the collector's
//!   saturating-subtraction tolerance on serial runs.
//!
//! When `LYRIC_SLOW_EXPLAIN=1` arms slow-query forensics, the runner
//! explains every SELECT so the slow-query log line can carry the
//! top-3-nodes summary ([`ExplainReport::summary_json`]).
//!
//! Node ids are assigned in preorder (`0` = the SELECT root) and are
//! stable for a given query text. The node map uses AST pointer identity:
//! the parsed query is pinned on the runner's stack for the duration of
//! the evaluation, so `&Cond` addresses identify condition sites.

use crate::ast::*;
use crate::error::LyricError;
use crate::eval::{check, column_name, compile_templates, place, template_key, QueryNames};
use crate::formula::{display_path, Template};
use crate::parser::parse_query;
use lyric_engine::trace::plan::{self, PlanAnalysis, PlanNode};
use lyric_engine::trace::{Json, Trace};
use lyric_oodb::Database;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The product of [`explain`] and of an explained run: the plan tree,
/// the runtime attribution (absent for plain EXPLAIN), and the plan's
/// shape hash.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The operator tree with static annotations.
    pub plan: PlanNode,
    /// Per-node runtime observations; `None` for plain EXPLAIN.
    pub analysis: Option<PlanAnalysis>,
    /// FNV-1a hash of the plan shape (see [`PlanNode::shape_hash`]).
    pub shape_hash: u64,
    /// Why an analyzed run left the planned FROM/WHERE path for the
    /// textual plan, whose answer it reports; `None` when it did not.
    pub fallback: Option<String>,
}

impl ExplainReport {
    /// The indented text tree (the REPL's `:explain` output).
    pub fn render(&self) -> String {
        let mut out = plan::render_plan(&self.plan, self.analysis.as_ref());
        if let Some(reason) = &self.fallback {
            out.push_str(&format!("fell back to the textual plan: {reason}\n"));
        }
        out
    }

    /// The machine-readable document (the `POST /query` `plan` member);
    /// schema pinned by `lyric_trace::plan::validate_plan_json`.
    pub fn to_json(&self) -> Json {
        let mut doc = plan::plan_to_json(&self.plan, self.analysis.as_ref());
        if let (Json::Obj(pairs), Some(reason)) = (&mut doc, &self.fallback) {
            pairs.push(("fallback".into(), Json::str(reason.clone())));
        }
        doc
    }

    /// JSON array of the `k` hottest nodes by exclusive time — the
    /// summary the slow-query log and anomaly dumps attach. `[]` without
    /// an analysis.
    pub fn summary_json(&self, k: usize) -> Json {
        let Some(a) = &self.analysis else {
            return Json::Arr(Vec::new());
        };
        let top = plan::top_self_nodes(&self.plan, a, k);
        Json::Arr(
            top.iter()
                .map(|(n, obs)| {
                    Json::obj([
                        ("node", Json::int(n.id as u64)),
                        ("op", Json::str(n.op)),
                        ("label", Json::str(n.label.clone())),
                        ("self_us", Json::int(obs.self_time.as_micros() as u64)),
                        ("rows_out", Json::int(obs.rows_out)),
                    ])
                })
                .collect(),
        )
    }
}

/// EXPLAIN without execution: parse, analyze, and return the static
/// plan. For `CREATE VIEW` the inner SELECT is explained.
pub fn explain(db: &Database, src: &str) -> Result<ExplainReport, LyricError> {
    let q = parse_query(src)?;
    check(db, &q)?;
    let (s, view_var) = match &q {
        Query::Select(s) => (s, None),
        Query::CreateView(v) => (&v.select, Some(v.name.as_str())),
    };
    let (plan, _info) = build_plan(db, s, view_var);
    Ok(ExplainReport {
        shape_hash: plan.shape_hash(),
        plan,
        analysis: None,
        fallback: None,
    })
}

/// True when slow-query forensics should explain plain executions: a
/// query-log sink is installed, a slow threshold is configured, and
/// `LYRIC_SLOW_EXPLAIN=1` armed the gate.
pub(crate) fn slow_explain_active() -> bool {
    lyric_metrics::querylog::active() && lyric_metrics::querylog::slow_explain()
}

/// EXPLAIN ANALYZE's attribution: fold an explained run's trace onto its
/// plan and fill in the evaluator's per-node row counters.
pub(crate) fn analyzed(plan: PlanNode, info: &ExplainInfo, trace: &Trace) -> ExplainReport {
    let mut analysis = plan::analyze(&plan, trace);
    for (id, obs) in analysis.nodes.iter_mut().enumerate() {
        (obs.rows_in, obs.rows_out) = info.rows_of(id as u32);
    }
    ExplainReport {
        shape_hash: plan.shape_hash(),
        plan,
        analysis: Some(analysis),
        fallback: info.fallback.get().cloned(),
    }
}

// ------------------------------------------------------------- plan build

/// The evaluator-side explain state: plan-node ids for every operator
/// site, and the per-node row counters the evaluator feeds. Shared across
/// worker threads (`parallel_map`), hence the atomics; row totals are
/// multiset-invariant over the work distribution, so they are
/// deterministic across thread counts.
pub(crate) struct ExplainInfo {
    /// Condition sites, keyed by `&Cond` address within the pinned query.
    cond_ids: BTreeMap<usize, u32>,
    /// Node ids of the FROM items, in clause order.
    from_ids: Vec<u32>,
    /// Node ids of each FROM item's restricted templates, in order.
    semijoin_ids: Vec<Vec<u32>>,
    /// Node ids of the SELECT items, in clause order.
    item_ids: Vec<u32>,
    where_id: Option<u32>,
    /// `[rows_in, rows_out]` per node id.
    rows: Vec<[AtomicU64; 2]>,
    /// Why the run left the planned path, when it did.
    fallback: OnceLock<String>,
}

impl ExplainInfo {
    pub(crate) fn cond_node(&self, c: &Cond) -> Option<u32> {
        self.cond_ids.get(&(c as *const Cond as usize)).copied()
    }

    pub(crate) fn binder_node(&self, i: usize) -> Option<u32> {
        self.from_ids.get(i).copied()
    }

    pub(crate) fn semijoin_node(&self, from: usize, k: usize) -> Option<u32> {
        self.semijoin_ids.get(from)?.get(k).copied()
    }

    /// The run leaves the planned path for the textual plan, before the
    /// textual run starts. The row counters start again, so they count
    /// the run whose answer stands; time and engine counters keep both
    /// runs' work, as the query's record does.
    pub(crate) fn note_fallback(&self, reason: String) {
        let _ = self.fallback.set(reason);
        for cell in &self.rows {
            cell[0].store(0, Ordering::Relaxed);
            cell[1].store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn item_node(&self, i: usize) -> Option<u32> {
        self.item_ids.get(i).copied()
    }

    pub(crate) fn where_node(&self) -> Option<u32> {
        self.where_id
    }

    pub(crate) fn add_rows(&self, id: u32, rows_in: u64, rows_out: u64) {
        if let Some(cell) = self.rows.get(id as usize) {
            cell[0].fetch_add(rows_in, Ordering::Relaxed);
            cell[1].fetch_add(rows_out, Ordering::Relaxed);
        }
    }

    fn rows_of(&self, id: u32) -> (u64, u64) {
        match self.rows.get(id as usize) {
            Some(cell) => (
                cell[0].load(Ordering::Relaxed),
                cell[1].load(Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }
}

/// Build the plan tree (preorder ids, static annotations) and the
/// evaluator-side node map for one SELECT query (`view_var` names the
/// view variable of a `CREATE VIEW`'s select). A query the evaluator
/// places ([`place`], the same function) shows each FROM variable's
/// placed conjuncts and `semijoin` nodes (restricted templates) under its
/// `from_bind`, and only the residual conjuncts under `where`.
pub(crate) fn build_plan(
    db: &Database,
    s: &SelectQuery,
    view_var: Option<&str>,
) -> (PlanNode, ExplainInfo) {
    let names = QueryNames::of(s, view_var);
    let templates = compile_templates(s, &names.bindable);
    let placement = place(s, &names, &templates);
    let mut info = ExplainInfo {
        cond_ids: BTreeMap::new(),
        from_ids: Vec::new(),
        semijoin_ids: Vec::new(),
        item_ids: Vec::new(),
        where_id: None,
        rows: Vec::new(),
        fallback: OnceLock::new(),
    };
    let mut next: u32 = 1;
    let mut root = PlanNode::new(0, "select", "");
    for (i, f) in s.from.iter().enumerate() {
        let mut n = PlanNode::new(next, "from_bind", format!("{} {}", f.class, f.var));
        info.from_ids.push(next);
        next += 1;
        n.source = f.class_span.join(f.var_span).byte_range();
        n.extent_size = Some(db.extent_len(&f.class) as u64);
        let mut semijoins = Vec::new();
        if let Some(filters) = placement.as_ref().map(|p| &p.from[i]) {
            for c in &filters.placed {
                n.children
                    .push(build_cond(c, &templates, &mut next, &mut info));
            }
            for t in &filters.semijoins {
                let mut sj = PlanNode::new(next, "semijoin", t.label());
                semijoins.push(next);
                next += 1;
                sj.source = t.source();
                n.children.push(sj);
            }
        }
        info.semijoin_ids.push(semijoins);
        root.children.push(n);
    }
    if let Some(w) = &s.where_clause {
        let mut wn = PlanNode::new(next, "where", "");
        info.where_id = Some(next);
        next += 1;
        wn.source = w.span().byte_range();
        let conds = match &placement {
            Some(p) => p.residual.clone(),
            None => vec![w],
        };
        for c in conds {
            wn.children
                .push(build_cond(c, &templates, &mut next, &mut info));
        }
        root.children.push(wn);
    }
    for (i, item) in s.items.iter().enumerate() {
        let op = match &item.value {
            SelectValue::Optimize { .. } => "optimize",
            _ => "select_item",
        };
        let mut n = PlanNode::new(next, op, column_name(i, item));
        info.item_ids.push(next);
        next += 1;
        n.source = item.span.byte_range();
        match &item.value {
            SelectValue::Formula(f) => formula_features(f, &mut n),
            SelectValue::Optimize { formula, .. } => formula_features(formula, &mut n),
            SelectValue::Path(_) => {}
        }
        root.children.push(n);
    }
    info.rows = (0..next)
        .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
        .collect();
    (root, info)
}

/// A condition's plan node and its subtree. A `sat` or `entails` node is
/// labelled with the template the evaluator compiles for its formulas
/// ([`Template::label`]).
fn build_cond(
    c: &Cond,
    templates: &BTreeMap<usize, Template<'_>>,
    next: &mut u32,
    info: &mut ExplainInfo,
) -> PlanNode {
    let id = *next;
    *next += 1;
    info.cond_ids.insert(c as *const Cond as usize, id);
    let label = |f: &Formula| templates[&template_key(f)].label();
    let (op, label) = match c {
        Cond::And(..) => ("and", String::new()),
        Cond::Or(..) => ("or", String::new()),
        Cond::Not(..) => ("not", String::new()),
        Cond::PathPred(p) => ("path_pred", display_path(p)),
        Cond::Compare { op, .. } => ("compare", cmp_symbol(*op).to_string()),
        Cond::Sat(f) => ("sat", label(f)),
        Cond::Entails(f1, f2) => ("entails", format!("{} |= {}", label(f1), label(f2))),
    };
    let mut n = PlanNode::new(id, op, label);
    n.source = c.span().byte_range();
    match c {
        Cond::And(a, b) | Cond::Or(a, b) => {
            n.children.push(build_cond(a, templates, next, info));
            n.children.push(build_cond(b, templates, next, info));
        }
        Cond::Not(a) => n.children.push(build_cond(a, templates, next, info)),
        Cond::Sat(f) => formula_features(f, &mut n),
        Cond::Entails(f1, f2) => {
            formula_features(f1, &mut n);
            formula_features(f2, &mut n);
        }
        Cond::PathPred(..) | Cond::Compare { .. } => {}
    }
    n
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Neq => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Contains => "CONTAINS",
    }
}

/// Accumulate the static cost features of a CST formula onto a plan node:
/// chained atoms and object references (`atoms`), OR alternatives
/// (`disjuncts`), projection variables (`quantifiers`).
fn formula_features(f: &Formula, n: &mut PlanNode) {
    match f {
        Formula::And(a, b) => {
            formula_features(a, n);
            formula_features(b, n);
        }
        Formula::Or(a, b) => {
            n.disjuncts += 1;
            formula_features(a, n);
            formula_features(b, n);
        }
        Formula::Not(a) => formula_features(a, n),
        Formula::Proj { vars, body, .. } => {
            n.quantifiers += vars.len() as u32;
            formula_features(body, n);
        }
        Formula::Pred { .. } => n.atoms += 1,
        Formula::Chain { rest, .. } => n.atoms += rest.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    const Q: &str = "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
         FROM Office_Object CO
         WHERE CO.extent[E] AND CO.translation[D]";

    const PAPER_ENTAILMENT: &str = "SELECT DSK FROM Desk DSK
         WHERE DSK.drawer_center[C] AND (C(p,q) |= p = 0)";

    #[test]
    fn explain_builds_a_dense_annotated_plan() {
        let db = paper_example::database();
        let report = explain(&db, Q).unwrap();
        let nodes = report.plan.by_id(); // panics unless ids are dense preorder
        assert_eq!(nodes[0].op, "select");
        let from = nodes.iter().find(|n| n.op == "from_bind").unwrap();
        assert_eq!(from.label, "Office_Object CO");
        assert!(from.extent_size.unwrap() > 0);
        assert!(nodes.iter().any(|n| n.op == "where"));
        assert!(nodes.iter().any(|n| n.op == "path_pred"));
        // The formula item carries atom/quantifier annotations.
        let item = nodes
            .iter()
            .find(|n| n.op == "select_item" && n.atoms > 0)
            .unwrap();
        assert_eq!(item.quantifiers, 2, "((u,v) | …) projects two variables");
        assert!(report.analysis.is_none());
        // Text + JSON renderers agree with the validator.
        let json = report.to_json().to_string();
        let n = lyric_engine::trace::plan::validate_plan_json(&json).unwrap();
        assert_eq!(n, report.plan.node_count());
    }

    #[test]
    fn analyze_attributes_everything_and_preserves_the_answer() {
        let mut db = paper_example::database();
        let plain = crate::execute(&mut db, Q).unwrap();
        let opts = lyric_engine::ExecOptions::default().with_explain(true);
        let res = crate::execute_shared(&db, Q, &opts).unwrap();
        let report = res.plan.as_ref().expect("explain returns the plan");
        assert_eq!(res.columns, plain.columns);
        assert_eq!(res.rows, plain.rows);
        assert_eq!(res.stats.semantic(), plain.stats.semantic());
        let a = report.analysis.as_ref().unwrap();
        // The two pinned invariants.
        assert_eq!(a.summed_stats(), res.stats);
        assert_eq!(a.summed_self_time(), a.total_self);
        // Root rows_out is the answer cardinality.
        assert_eq!(a.nodes[0].rows_out, res.rows.len() as u64);
        // The analyzed JSON document validates.
        let json = report.to_json().to_string();
        lyric_engine::trace::plan::validate_plan_json(&json).unwrap();
        // The slow-log summary is a JSON array of at most 3 nodes.
        let summary = report.summary_json(3).to_string();
        assert!(summary.starts_with('['), "{summary}");
        assert!(summary.contains("\"self_us\""), "{summary}");
    }

    #[test]
    fn explain_analyze_rejects_create_view() {
        let mut db = paper_example::database();
        let opts = lyric_engine::ExecOptions::default().with_explain(true);
        let err = crate::execute_with_options(
            &mut db,
            "CREATE VIEW V AS SUBCLASS OF Thing SELECT D FROM Desk D",
            &opts,
        );
        assert!(err.is_err());
    }

    #[test]
    fn sat_and_entails_nodes_show_their_templates() {
        let label = |db: &Database, q: &str, op: &str| {
            let report = explain(db, q).unwrap();
            let nodes = report.plan.by_id();
            let node = nodes.iter().find(|n| n.op == op).unwrap();
            (node.label.clone(), report.shape_hash)
        };
        let items = crate::storage::load(
            "LYRIC-DB 1

CLASS Item
  ATTR weight SCALAR CLASS int
  ATTR region SCALAR CST u,v
END

OBJECT named:item_0 CLASS Item
  SET weight = int:3
  SET region = cst:((u,v) | u >= 0 AND u <= 10 AND v >= 0 AND v <= 10)
END
",
        )
        .unwrap();
        let window = |lo: i64| {
            format!(
                "SELECT X FROM Item X WHERE X.region[E]
                 AND (E(a,b) AND a >= {lo} AND a <= {lo} + 2 AND b <= X.weight)"
            )
        };
        let (sat, hash) = label(&items, &window(1), "sat");
        assert_eq!(sat, "E; 2 constant atoms, 1 per-binding chains");
        // The label carries no literal, so the constants do not move the
        // shape hash.
        assert_eq!(hash, label(&items, &window(5), "sat").1);
        // Normalization drops or empties constant atoms depending on the
        // literals (`3 <= 5` is dropped, `7 <= 5` empties its chain); the
        // label counts the pairs as written.
        let chains = |k: i64, c: i64| {
            format!(
                "SELECT X FROM Item X WHERE X.region[E]
                 AND (E(a,b) AND a <= {k} <= 5 AND 0 <= {c})"
            )
        };
        let (a, hash_a) = label(&items, &chains(3, 3), "sat");
        assert_eq!(a, "E; 3 constant atoms, 0 per-binding chains");
        assert_eq!((a, hash_a), label(&items, &chains(7, -3), "sat"));
        let (entails, _) = label(&paper_example::database(), PAPER_ENTAILMENT, "entails");
        assert_eq!(
            entails,
            "C; 0 constant atoms, 0 per-binding chains |= no slots; 1 constant atoms, 0 per-binding chains"
        );
    }

    #[test]
    fn shape_hash_is_stable_for_a_query_text() {
        let db = paper_example::database();
        let a = explain(&db, Q).unwrap();
        let b = explain(&db, Q).unwrap();
        assert_eq!(a.shape_hash, b.shape_hash);
        let c = explain(&db, "SELECT D FROM Desk D").unwrap();
        assert_ne!(a.shape_hash, c.shape_hash);
    }
}
