//! The human-readable sink: an indented span tree with per-span hot-path
//! percentages, counter deltas, and event summaries — the REPL's
//! `:profile` output.

use crate::model::{EventKind, Trace, TraceEvent, TraceSpan};
use std::fmt::Write as _;
use std::time::Duration;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Summarize a span's events: repeated kinds collapse to a count.
fn summarize_events(events: &[TraceEvent]) -> Vec<String> {
    let mut pruned = 0u64;
    let mut products = 0u64;
    let mut rest: Vec<String> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::DisjunctsPruned { count } => pruned += count,
            EventKind::DnfProduct { .. } => products += 1,
            other => rest.push(other.label()),
        }
    }
    let mut out = Vec::new();
    if pruned > 0 {
        out.push(format!("{pruned} disjuncts pruned"));
    }
    if products > 0 {
        out.push(format!("{products} dnf products"));
    }
    out.extend(rest);
    out
}

/// Render the trace as an indented tree. Each line shows the span's kind
/// and label, inclusive and self wall-clock, the self share of the total
/// query time (the hot-path percentage), the source byte range, the
/// nonzero self counter deltas, and an event summary.
pub fn render_tree(trace: &Trace) -> String {
    let total = trace.total_duration().max(Duration::from_nanos(1));
    let mut out = String::new();
    fn go(span: &TraceSpan, depth: usize, total: Duration, out: &mut String) {
        let indent = "  ".repeat(depth);
        let pct = 100.0 * span.self_time().as_secs_f64() / total.as_secs_f64();
        let _ = write!(
            out,
            "{indent}{}{}{}  {:.3} ms (self {:.3} ms, {pct:.1}%)",
            span.kind.name(),
            if span.label.is_empty() { "" } else { " " },
            span.label,
            ms(span.duration),
            ms(span.self_time()),
        );
        if let Some((a, b)) = span.source {
            let _ = write!(out, "  src {a}..{b}");
        }
        let counters = span.self_stats().nonzero_counters();
        if !counters.is_empty() {
            let parts: Vec<String> = counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
            let _ = write!(out, "  [{}]", parts.join(" "));
        }
        let events = summarize_events(&span.events);
        if !events.is_empty() {
            let _ = write!(out, "  ({})", events.join(", "));
        }
        out.push('\n');
        for c in &span.children {
            go(c, depth + 1, total, out);
        }
    }
    go(&trace.root, 0, total, &mut out);
    if trace.dropped_spans > 0 {
        let _ = writeln!(
            out,
            "… {} spans over the {}-span cap were folded into their parents",
            trace.dropped_spans,
            crate::collect::Collector::MAX_SPANS,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Collector;
    use crate::model::SpanKind;
    use crate::stats::EngineStats;

    #[test]
    fn renders_every_span_with_percentages() {
        let mut c = Collector::new("SELECT 1", 8);
        c.enter(
            SpanKind::Parse,
            "parse".into(),
            Some((0, 8)),
            EngineStats::default(),
        );
        c.exit(EngineStats::default());
        c.enter(SpanKind::Where, String::new(), None, EngineStats::default());
        c.event(EventKind::BoxPrune);
        c.event(EventKind::DisjunctsPruned { count: 3 });
        let after = EngineStats {
            sat_checks: 2,
            ..Default::default()
        };
        c.exit(after);
        let text = render_tree(&c.finish(after));
        assert!(text.contains("query SELECT 1"), "{text}");
        assert!(text.contains("  parse parse"), "{text}");
        assert!(text.contains("src 0..8"), "{text}");
        assert!(text.contains("[sat_checks=2]"), "{text}");
        assert!(text.contains("box prune"), "{text}");
        assert!(text.contains("3 disjuncts pruned"), "{text}");
        assert!(text.contains('%'), "{text}");
    }
}
