//! The explain plan model: a static operator tree with per-node
//! annotations, the trace→plan attribution fold behind EXPLAIN ANALYZE,
//! and the text/JSON renderers.
//!
//! A [`PlanNode`] tree describes *what the evaluator will do* for one
//! query: one node per operator site (FROM binding, WHERE predicate,
//! SELECT item, …), annotated with the static features that govern
//! constraint-query cost — class extent sizes, constraint atom counts,
//! disjunct counts, quantifier depth. Node ids are assigned in
//! preorder, `0..node_count()`, and are **stable for a given query text**:
//! they are threaded through the evaluator's span instrumentation
//! (`TraceSpan::node`) so that [`analyze`] can charge every span's
//! exclusive time and counters to a plan operator.
//!
//! The attribution fold is total: spans without a node id (LP solves, FM
//! eliminations, parse/analyze phases, worker roots) are charged to their
//! nearest annotated ancestor, the root span to plan node 0. Hence two
//! pinned invariants, checked by `tests/explain_differential.rs`:
//!
//! * Σ over nodes of exclusive counters **equals the trace's root stats
//!   exactly** (counters are monotonic; nothing is lost or counted twice);
//! * Σ over nodes of exclusive time equals Σ over spans of
//!   [`TraceSpan::self_time`] exactly, which equals the traced total up to
//!   the collector's saturating-subtraction tolerance (clock-granularity
//!   nanoseconds per span on serial traces; on parallel traces worker
//!   spans overlap, so the self-time sum is CPU time and may legitimately
//!   exceed the root's wall-clock).

use crate::json::Json;
use crate::model::{Trace, TraceSpan};
use crate::stats::EngineStats;
use std::fmt::Write as _;
use std::time::Duration;

/// One operator in an explain plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Preorder id, `0` for the root; stable for a given query text.
    pub id: u32,
    /// Stable snake_case operator name (`select`, `from_bind`,
    /// `semijoin`, `where`, `and`, `or`, `not`, `sat`, `entails`,
    /// `compare`, `path_pred`, `select_item`, `optimize`). A `semijoin`
    /// sits under a `from_bind`: the part of a WHERE `(φ)` that reads
    /// that FROM variable alone, checked on each of its candidates.
    pub op: &'static str,
    /// Human detail: class/variable names, path text, operator symbol.
    pub label: String,
    /// Byte range of the source fragment this operator evaluates.
    pub source: Option<(usize, usize)>,
    /// For `from_bind` nodes: the class extent cardinality (IS-A cone
    /// included) at plan time.
    pub extent_size: Option<u64>,
    /// Constraint atoms syntactically under this operator.
    pub atoms: u32,
    /// Disjunction alternatives (OR arms) syntactically under this
    /// operator.
    pub disjuncts: u32,
    /// Existential quantifiers (`EXIST … :`) syntactically under this
    /// operator.
    pub quantifiers: u32,
    /// Child operators, in evaluation order.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// A node with the given id, operator and label; annotations default
    /// to empty.
    pub fn new(id: u32, op: &'static str, label: impl Into<String>) -> PlanNode {
        PlanNode {
            id,
            op,
            label: label.into(),
            source: None,
            extent_size: None,
            atoms: 0,
            disjuncts: 0,
            quantifiers: 0,
            children: Vec::new(),
        }
    }

    /// Number of nodes in this subtree, itself included.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PlanNode::node_count)
            .sum::<usize>()
    }

    /// Visit every node, depth-first preorder, with its depth.
    pub fn walk(&self, f: &mut impl FnMut(&PlanNode, usize)) {
        fn go(n: &PlanNode, depth: usize, f: &mut impl FnMut(&PlanNode, usize)) {
            f(n, depth);
            for c in &n.children {
                go(c, depth + 1, f);
            }
        }
        go(self, 0, f);
    }

    /// The nodes indexed by id (`out[id].id == id`). Panics if ids are not
    /// exactly `0..node_count()` — the builder assigns them in preorder,
    /// so this holds by construction.
    pub fn by_id(&self) -> Vec<&PlanNode> {
        fn collect<'a>(n: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
            out.push(n);
            for c in &n.children {
                collect(c, out);
            }
        }
        let mut nodes: Vec<&PlanNode> = Vec::with_capacity(self.node_count());
        collect(self, &mut nodes);
        nodes.sort_by_key(|n| n.id);
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id as usize, i, "plan node ids must be dense preorder");
        }
        nodes
    }

    /// FNV-1a hash of the plan *shape*: operators, labels, static
    /// annotations and tree structure — everything except runtime
    /// observations and extent sizes (so the same query text hashes
    /// identically as the database grows). The plan JSON carries it as
    /// `shape_hash`.
    pub fn shape_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fn feed(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        self.walk(&mut |n, depth| {
            feed(&mut h, n.op.as_bytes());
            feed(&mut h, n.label.as_bytes());
            feed(
                &mut h,
                &[
                    depth as u8,
                    n.children.len() as u8,
                    n.atoms as u8,
                    n.disjuncts as u8,
                    n.quantifiers as u8,
                ],
            );
        });
        h
    }
}

/// Runtime observations attributed to one plan node by [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct NodeObs {
    /// Spans stamped with this node's id (operator invocations).
    pub invocations: u64,
    /// Input cardinality (bindings/rows entering the operator), recorded
    /// by the evaluator's row counters — deterministic across thread
    /// counts.
    pub rows_in: u64,
    /// Output cardinality (bindings/rows leaving the operator).
    pub rows_out: u64,
    /// Exclusive wall-clock: Σ [`TraceSpan::self_time`] over spans
    /// attributed here. CPU time on parallel traces.
    pub self_time: Duration,
    /// Inclusive wall-clock: Σ duration over *topmost* spans stamped with
    /// this id (nested re-entries are not double counted).
    pub time: Duration,
    /// Exclusive counter deltas attributed here; sums exactly to the
    /// query's total stats across all nodes.
    pub stats: EngineStats,
}

/// The result of attributing one trace to one plan: per-node observations
/// plus the trace totals the invariants are checked against.
#[derive(Debug, Clone)]
pub struct PlanAnalysis {
    /// Observations indexed by plan node id.
    pub nodes: Vec<NodeObs>,
    /// The traced query total (root span duration).
    pub total: Duration,
    /// Σ span self-times over the whole trace; equals
    /// `nodes.iter().map(self_time).sum()` exactly.
    pub total_self: Duration,
    /// The traced query's aggregate counters (root span stats).
    pub total_stats: EngineStats,
}

impl PlanAnalysis {
    /// Σ exclusive time over all nodes. Equal to `total_self` by
    /// construction; pinned by the differential suite.
    pub fn summed_self_time(&self) -> Duration {
        self.nodes.iter().map(|n| n.self_time).sum()
    }

    /// Σ exclusive counters over all nodes. Equal to `total_stats` by
    /// construction; pinned by the differential suite.
    pub fn summed_stats(&self) -> EngineStats {
        let mut acc = EngineStats::default();
        for n in &self.nodes {
            acc.absorb(&n.stats);
        }
        acc
    }
}

/// Attribute every span of `trace` to a node of `plan`: a span stamped
/// with a node id is charged there; an unstamped span is charged to its
/// nearest stamped ancestor (the root falls through to node 0). Row
/// counters are recorded by the evaluator outside the trace; the caller
/// fills `rows_in`/`rows_out` afterwards.
pub fn analyze(plan: &PlanNode, trace: &Trace) -> PlanAnalysis {
    let count = plan.node_count();
    let mut nodes = vec![NodeObs::default(); count];
    let mut total_self = Duration::ZERO;
    fn go(span: &TraceSpan, inherited: u32, nodes: &mut [NodeObs], total_self: &mut Duration) {
        let here = match span.node {
            Some(id) if (id as usize) < nodes.len() => id,
            _ => inherited,
        };
        let obs = &mut nodes[here as usize];
        if span.node == Some(here) {
            obs.invocations += 1;
            if inherited != here {
                obs.time += span.duration;
            }
        }
        obs.self_time += span.self_time();
        obs.stats.absorb(&span.self_stats());
        *total_self += span.self_time();
        for c in &span.children {
            go(c, here, nodes, total_self);
        }
    }
    go(&trace.root, 0, &mut nodes, &mut total_self);
    if count > 0 {
        // The root operator covers the whole query.
        nodes[0].time = trace.root.duration;
        if nodes[0].invocations == 0 {
            nodes[0].invocations = 1;
        }
    }
    PlanAnalysis {
        nodes,
        total: trace.root.duration,
        total_self,
        total_stats: *trace.total_stats(),
    }
}

/// The `k` nodes with the largest exclusive time, descending — the
/// compact summary the slow-query log attaches. Returns
/// `(node, observations)` pairs.
pub fn top_self_nodes<'a>(
    plan: &'a PlanNode,
    analysis: &'a PlanAnalysis,
    k: usize,
) -> Vec<(&'a PlanNode, &'a NodeObs)> {
    let by_id = plan.by_id();
    let mut ranked: Vec<(&PlanNode, &NodeObs)> = by_id
        .iter()
        .map(|n| (*n, &analysis.nodes[n.id as usize]))
        .collect();
    ranked.sort_by(|a, b| b.1.self_time.cmp(&a.1.self_time).then(a.0.id.cmp(&b.0.id)));
    ranked.truncate(k);
    ranked
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e6)
}

/// Render the plan as an indented text tree, one line per operator; with
/// an analysis, each line adds rows, exclusive/inclusive time, the
/// hot-path percentage and the nonzero attributed counters (the REPL's
/// `:explain` / `:explain analyze` output).
pub fn render_plan(plan: &PlanNode, analysis: Option<&PlanAnalysis>) -> String {
    let mut out = String::new();
    let total = analysis
        .map(|a| a.total_self.max(Duration::from_nanos(1)))
        .unwrap_or(Duration::from_nanos(1));
    plan.walk(&mut |n, depth| {
        let indent = "  ".repeat(depth);
        let _ = write!(
            out,
            "{indent}#{} {}{}{}",
            n.id,
            n.op,
            if n.label.is_empty() { "" } else { " " },
            n.label
        );
        if let Some(size) = n.extent_size {
            let _ = write!(out, "  extent={size}");
        }
        let mut annot: Vec<String> = Vec::new();
        if n.atoms > 0 {
            annot.push(format!("atoms={}", n.atoms));
        }
        if n.disjuncts > 0 {
            annot.push(format!("disjuncts={}", n.disjuncts));
        }
        if n.quantifiers > 0 {
            annot.push(format!("quantifiers={}", n.quantifiers));
        }
        if !annot.is_empty() {
            let _ = write!(out, "  [{}]", annot.join(" "));
        }
        if let Some(a) = analysis {
            let obs = &a.nodes[n.id as usize];
            let pct = 100.0 * obs.self_time.as_secs_f64() / total.as_secs_f64();
            let _ = write!(
                out,
                "  rows={}→{}  {:.3} ms (self {:.3} ms, {pct:.1}%)  calls={}",
                obs.rows_in,
                obs.rows_out,
                ms(obs.time),
                ms(obs.self_time),
                obs.invocations,
            );
            let counters = obs.stats.nonzero_counters();
            if !counters.is_empty() {
                let parts: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = write!(out, "  [{}]", parts.join(" "));
            }
        }
        out.push('\n');
    });
    if let Some(a) = analysis {
        let _ = writeln!(
            out,
            "total {:.3} ms (Σ self {:.3} ms)  {}",
            ms(a.total),
            ms(a.total_self),
            a.total_stats,
        );
    }
    out
}

fn node_json(n: &PlanNode, analysis: Option<&PlanAnalysis>) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("id".into(), Json::int(n.id as u64)),
        ("op".into(), Json::str(n.op)),
        ("label".into(), Json::str(n.label.clone())),
    ];
    if let Some((a, b)) = n.source {
        pairs.push(("src_start".into(), Json::int(a as u64)));
        pairs.push(("src_end".into(), Json::int(b as u64)));
    }
    if let Some(size) = n.extent_size {
        pairs.push(("extent".into(), Json::int(size)));
    }
    for (key, v) in [
        ("atoms", n.atoms),
        ("disjuncts", n.disjuncts),
        ("quantifiers", n.quantifiers),
    ] {
        if v > 0 {
            pairs.push((key.into(), Json::int(v as u64)));
        }
    }
    if let Some(a) = analysis {
        let obs = &a.nodes[n.id as usize];
        pairs.push((
            "analyze".into(),
            Json::obj([
                ("rows_in", Json::int(obs.rows_in)),
                ("rows_out", Json::int(obs.rows_out)),
                ("invocations", Json::int(obs.invocations)),
                ("self_us", us(obs.self_time)),
                ("total_us", us(obs.time)),
                ("counters", obs.stats.nonzero_json()),
            ]),
        ));
    }
    pairs.push((
        "children".into(),
        Json::Arr(n.children.iter().map(|c| node_json(c, analysis)).collect()),
    ));
    Json::Obj(pairs)
}

/// Serialize the plan (and, when present, its analysis) as a JSON
/// document, hand-rolled in the Chrome-writer house style. The schema is
/// pinned by [`validate_plan_json`].
pub fn plan_to_json(plan: &PlanNode, analysis: Option<&PlanAnalysis>) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("version".into(), Json::int(1)),
        (
            "shape_hash".into(),
            Json::str(format!("{:016x}", plan.shape_hash())),
        ),
        ("node_count".into(), Json::int(plan.node_count() as u64)),
    ];
    if let Some(a) = analysis {
        pairs.push(("total_us".into(), us(a.total)));
        pairs.push(("total_self_us".into(), us(a.total_self)));
        pairs.push(("stats".into(), a.total_stats.nonzero_json()));
    }
    pairs.push(("plan".into(), node_json(plan, analysis)));
    Json::Obj(pairs)
}

/// Structural validation of an explain-plan JSON document, shared by the
/// test suites: the document must parse, carry `version` 1, a
/// 16-hex-digit `shape_hash` and a `plan` tree whose nodes all have a
/// numeric `id`, a string `op` and a `children` array, with ids dense in
/// `0..node_count`. For analyzed documents (`total_us` present) every
/// node must carry an `analyze` object with numeric `self_us`/`total_us`/
/// rows, and the node `self_us` values must sum to `total_self_us`
/// (within float tolerance). Returns the node count.
pub fn validate_plan_json(text: &str) -> Result<usize, String> {
    let doc = crate::json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("version").and_then(Json::as_f64) != Some(1.0) {
        return Err("missing or unsupported version".into());
    }
    let hash = doc
        .get("shape_hash")
        .and_then(Json::as_str)
        .ok_or("missing shape_hash")?;
    if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("malformed shape_hash {hash:?}"));
    }
    let analyzed = doc.get("total_us").is_some();
    let plan = doc.get("plan").ok_or("missing plan")?;
    let mut ids: Vec<u64> = Vec::new();
    let mut self_sum = 0.0f64;
    fn walk(
        node: &Json,
        analyzed: bool,
        ids: &mut Vec<u64>,
        self_sum: &mut f64,
    ) -> Result<(), String> {
        let id = node
            .get("id")
            .and_then(Json::as_f64)
            .ok_or("node lacks a numeric id")?;
        ids.push(id as u64);
        if node.get("op").and_then(Json::as_str).is_none() {
            return Err(format!("node {id} lacks op"));
        }
        if analyzed {
            let a = node
                .get("analyze")
                .ok_or_else(|| format!("analyzed node {id} lacks analyze"))?;
            for key in ["rows_in", "rows_out", "invocations", "self_us", "total_us"] {
                if a.get(key).and_then(Json::as_f64).is_none() {
                    return Err(format!("node {id} analyze lacks numeric {key}"));
                }
            }
            *self_sum += a.get("self_us").and_then(Json::as_f64).unwrap_or(0.0);
        }
        let children = node
            .get("children")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("node {id} lacks children array"))?;
        for c in children {
            walk(c, analyzed, ids, self_sum)?;
        }
        Ok(())
    }
    walk(plan, analyzed, &mut ids, &mut self_sum)?;
    let count = doc
        .get("node_count")
        .and_then(Json::as_f64)
        .ok_or("missing node_count")? as usize;
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    if sorted.len() != count || sorted.iter().enumerate().any(|(i, id)| i as u64 != *id) {
        return Err(format!("node ids are not dense 0..{count}: {sorted:?}"));
    }
    if analyzed {
        let total_self = doc
            .get("total_self_us")
            .and_then(Json::as_f64)
            .ok_or("analyzed document lacks total_self_us")?;
        // Float summation tolerance: half a microsecond per node.
        let tol = 0.5 * count as f64 + 1e-6;
        if (self_sum - total_self).abs() > tol {
            return Err(format!(
                "node self_us sum {self_sum} deviates from total_self_us {total_self}"
            ));
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Collector;
    use crate::model::SpanKind;

    fn stats(pivots: u64) -> EngineStats {
        EngineStats {
            pivots,
            ..Default::default()
        }
    }

    fn sample_plan() -> PlanNode {
        let mut root = PlanNode::new(0, "select", "q");
        let mut from = PlanNode::new(1, "from_bind", "cabinet X");
        from.extent_size = Some(4);
        let mut wher = PlanNode::new(2, "where", "");
        let mut sat = PlanNode::new(3, "sat", "");
        sat.atoms = 2;
        sat.disjuncts = 1;
        wher.children.push(sat);
        root.children.push(from);
        root.children.push(wher);
        root
    }

    #[test]
    fn attribution_is_total_and_exact() {
        let plan = sample_plan();
        let mut c = Collector::new("q", 1);
        c.enter_node(SpanKind::FromBind, "f".into(), None, stats(0), Some(1));
        c.exit(stats(1));
        c.enter_node(SpanKind::Where, "w".into(), None, stats(1), Some(2));
        c.enter_node(SpanKind::SatCheck, String::new(), None, stats(1), Some(3));
        // An engine-internal span with no node: charged to sat (node 3).
        c.enter(SpanKind::LpSolve, "lp".into(), None, stats(2));
        c.exit(stats(7));
        c.exit(stats(7));
        c.exit(stats(8));
        let t = c.finish(stats(9));
        let a = analyze(&plan, &t);

        assert_eq!(a.nodes.len(), 4);
        assert_eq!(a.nodes[1].stats.pivots, 1);
        assert_eq!(a.nodes[3].stats.pivots, 6, "lp span charged to sat node");
        assert_eq!(a.nodes[2].stats.pivots, 1);
        assert_eq!(a.nodes[0].stats.pivots, 1, "root self charged to node 0");
        assert_eq!(a.summed_stats(), *t.total_stats());
        assert_eq!(a.summed_self_time(), a.total_self);
        assert_eq!(a.nodes[1].invocations, 1);
        assert_eq!(a.nodes[3].invocations, 1);
        assert_eq!(a.nodes[0].time, t.root.duration);
        let top = top_self_nodes(&plan, &a, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1.self_time >= top[1].1.self_time);
    }

    #[test]
    fn json_roundtrips_and_validates() {
        let plan = sample_plan();
        let text = plan_to_json(&plan, None).to_string();
        assert_eq!(validate_plan_json(&text), Ok(4));

        let mut c = Collector::new("q", 1);
        c.enter_node(SpanKind::Where, "w".into(), None, stats(0), Some(2));
        c.exit(stats(3));
        let t = c.finish(stats(3));
        let a = analyze(&plan, &t);
        let text = plan_to_json(&plan, Some(&a)).to_string();
        assert_eq!(validate_plan_json(&text), Ok(4));
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("plan")
                .and_then(|p| p.get("op"))
                .and_then(Json::as_str),
            Some("select")
        );
        let rendered = render_plan(&plan, Some(&a));
        assert!(rendered.contains("#0 select q"), "{rendered}");
        assert!(rendered.contains("extent=4"), "{rendered}");
        assert!(rendered.contains("atoms=2"), "{rendered}");
        assert!(rendered.contains("rows="), "{rendered}");
    }

    #[test]
    fn validator_rejects_malformed_plans() {
        assert!(validate_plan_json("not json").is_err());
        assert!(validate_plan_json("{\"version\":2}").is_err());
        let no_children = "{\"version\":1,\"shape_hash\":\"0000000000000000\",\
             \"node_count\":1,\"plan\":{\"id\":0,\"op\":\"select\",\"label\":\"\"}}";
        assert!(validate_plan_json(no_children)
            .unwrap_err()
            .contains("children"));
        let sparse_ids = "{\"version\":1,\"shape_hash\":\"0000000000000000\",\
             \"node_count\":1,\"plan\":{\"id\":2,\"op\":\"select\",\"label\":\"\",\
             \"children\":[]}}";
        assert!(validate_plan_json(sparse_ids)
            .unwrap_err()
            .contains("dense"));
    }

    #[test]
    fn shape_hash_ignores_extents_but_not_structure() {
        let a = sample_plan();
        let mut b = sample_plan();
        b.children[0].extent_size = Some(4000);
        assert_eq!(a.shape_hash(), b.shape_hash(), "extent growth keeps shape");
        let mut c = sample_plan();
        c.children[1].children[0].atoms = 3;
        assert_ne!(a.shape_hash(), c.shape_hash(), "atom count changes shape");
    }
}
