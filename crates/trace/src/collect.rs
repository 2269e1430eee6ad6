//! The span collector: an open-span stack that `lyric-engine` drives.
//!
//! The collector does not read the clock semantics or the counters itself;
//! the engine passes an [`EngineStats`] snapshot at every enter/exit so
//! the span's inclusive delta is exactly the counters consumed between the
//! two calls. Wall-clock offsets are measured against a single origin
//! `Instant`, which makes the nesting invariant (children contained in
//! their parent's `[start, end]`) exact by construction.
//!
//! The collector is bounded: once [`Collector::MAX_SPANS`] spans have been
//! recorded, further `enter` calls are counted (so `exit`s stay balanced)
//! but not materialized — their time and counters are absorbed by the
//! nearest recorded ancestor, keeping the sum invariants intact on
//! adversarial traces.

use crate::model::{EventKind, SpanKind, Trace, TraceEvent, TraceSpan, MAIN_TID};
use crate::stats::EngineStats;
use std::time::{Duration, Instant};

struct Pending {
    kind: SpanKind,
    label: String,
    source: Option<(usize, usize)>,
    start: Duration,
    stats_at_enter: EngineStats,
    events: Vec<TraceEvent>,
    children: Vec<TraceSpan>,
    node: Option<u32>,
}

/// Accumulates one query's span tree. Created by `lyric_engine::run`
/// and fed through the engine's span/event hooks. Parallel regions create
/// one [`Collector::worker`] per worker thread against the *same* origin
/// `Instant`, so worker offsets nest inside the parent's open span; the
/// sealed worker subtrees are grafted back with
/// [`Collector::attach_subtree`].
pub struct Collector {
    origin: Instant,
    /// Thread id stamped on every span this collector records.
    tid: u32,
    /// Open spans, outermost first; index 0 is the root and is only closed
    /// by [`finish`](Collector::finish).
    stack: Vec<Pending>,
    recorded: usize,
    /// Depth of currently-open spans that were *not* recorded (cap hit).
    suppressed: usize,
    dropped: u64,
}

impl Collector {
    /// Cap on recorded spans per trace. Generous for interactive queries
    /// (the paper's §4.1 queries record well under a thousand) while
    /// bounding memory on pathological binding sets.
    pub const MAX_SPANS: usize = 65_536;

    /// A fresh collector whose root span (kind [`SpanKind::Query`]) covers
    /// the whole run. `label` names the query for the sinks.
    pub fn new(label: impl Into<String>, source_len: usize) -> Collector {
        Collector {
            origin: Instant::now(),
            tid: MAIN_TID,
            stack: vec![Pending {
                kind: SpanKind::Query,
                label: label.into(),
                source: Some((0, source_len)),
                start: Duration::ZERO,
                stats_at_enter: EngineStats::default(),
                events: Vec::new(),
                children: Vec::new(),
                node: None,
            }],
            recorded: 1,
            suppressed: 0,
            dropped: 0,
        }
    }

    /// A per-thread sub-collector for one worker of a parallel region. It
    /// measures against the parent's `origin`, so its offsets are directly
    /// comparable with (and nest inside) the parent tree's, and stamps
    /// `tid` on every span. The root span is a [`SpanKind::Worker`] whose
    /// interval is the worker's lifetime; seal it with
    /// [`finish_subtree`](Collector::finish_subtree).
    pub fn worker(origin: Instant, tid: u32, label: impl Into<String>) -> Collector {
        Collector {
            origin,
            tid,
            stack: vec![Pending {
                kind: SpanKind::Worker,
                label: label.into(),
                source: None,
                start: origin.elapsed(),
                stats_at_enter: EngineStats::default(),
                events: Vec::new(),
                children: Vec::new(),
                node: None,
            }],
            recorded: 1,
            suppressed: 0,
            dropped: 0,
        }
    }

    /// The origin `Instant` all offsets are measured against. Parallel
    /// regions pass this to [`Collector::worker`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a child span. `stats` is the context's current counter
    /// snapshot.
    pub fn enter(
        &mut self,
        kind: SpanKind,
        label: String,
        source: Option<(usize, usize)>,
        stats: EngineStats,
    ) {
        self.enter_node(kind, label, source, stats, None);
    }

    /// [`enter`](Collector::enter) with an explain-plan node id stamped on
    /// the span; an explained run threads the id so the attribution
    /// fold ([`crate::plan::analyze`]) can charge the span's exclusive
    /// time and counters to its plan operator.
    pub fn enter_node(
        &mut self,
        kind: SpanKind,
        label: String,
        source: Option<(usize, usize)>,
        stats: EngineStats,
        node: Option<u32>,
    ) {
        if self.recorded >= Self::MAX_SPANS {
            self.suppressed += 1;
            self.dropped += 1;
            return;
        }
        self.recorded += 1;
        self.stack.push(Pending {
            kind,
            label,
            source,
            start: self.origin.elapsed(),
            stats_at_enter: stats,
            events: Vec::new(),
            children: Vec::new(),
            node,
        });
    }

    /// Close the innermost open span. `stats` is the context's current
    /// counter snapshot; the span's delta is `stats − stats_at_enter`.
    pub fn exit(&mut self, stats: EngineStats) {
        if self.suppressed > 0 {
            self.suppressed -= 1;
            return;
        }
        if self.stack.len() <= 1 {
            // Unbalanced exit; the root is only closed by `finish`.
            return;
        }
        let done = self.stack.pop().expect("stack has an open span");
        let span = TraceSpan {
            kind: done.kind,
            tid: self.tid,
            label: done.label,
            source: done.source,
            start: done.start,
            duration: self.origin.elapsed().saturating_sub(done.start),
            stats: stats.delta_since(&done.stats_at_enter),
            events: done.events,
            children: done.children,
            node: done.node,
        };
        self.stack
            .last_mut()
            .expect("root span remains")
            .children
            .push(span);
    }

    /// Graft a sealed worker subtree under the innermost open span, in
    /// merge order. `dropped` is the worker collector's own drop count.
    /// If recording the subtree would cross the span cap it is folded
    /// (dropped) instead — its time and counters are already covered by
    /// the parent span's inclusive delta, so the sum invariants hold.
    pub fn attach_subtree(&mut self, subtree: TraceSpan, dropped: u64) {
        self.dropped += dropped;
        let size = subtree.tree_size();
        if self.recorded + size > Self::MAX_SPANS {
            self.dropped += size as u64;
            return;
        }
        self.recorded += size;
        self.stack
            .last_mut()
            .expect("root span remains")
            .children
            .push(subtree);
    }

    /// Attach an event to the innermost open span.
    pub fn event(&mut self, kind: EventKind) {
        let at = self.origin.elapsed();
        self.stack
            .last_mut()
            .expect("root span remains")
            .events
            .push(TraceEvent { at, kind });
    }

    /// Current open-span depth (root included). Exposed for tests.
    pub fn depth(&self) -> usize {
        self.stack.len() + self.suppressed
    }

    /// Close every remaining span (a budget abort can unwind past guards
    /// whose drops already ran; any genuinely unbalanced remainder is
    /// closed here) and seal the trace. `stats` is the context's final
    /// counter state, which becomes the root's inclusive delta.
    pub fn finish(mut self, stats: EngineStats) -> Trace {
        let dropped = self.dropped;
        let root = self.seal_root(stats);
        Trace {
            root,
            dropped_spans: dropped,
        }
    }

    /// Seal a [`Collector::worker`] sub-collector: close any remaining
    /// spans and return the worker-root span (for
    /// [`attach_subtree`](Collector::attach_subtree)) plus the drop count.
    /// `stats` is the worker's final *local* counter state, which becomes
    /// the subtree root's inclusive delta.
    pub fn finish_subtree(mut self, stats: EngineStats) -> (TraceSpan, u64) {
        let dropped = self.dropped;
        (self.seal_root(stats), dropped)
    }

    fn seal_root(&mut self, stats: EngineStats) -> TraceSpan {
        self.suppressed = 0;
        while self.stack.len() > 1 {
            self.exit(stats);
        }
        let root = self.stack.pop().expect("root span");
        TraceSpan {
            kind: root.kind,
            tid: self.tid,
            label: root.label,
            source: root.source,
            start: root.start,
            duration: self.origin.elapsed().saturating_sub(root.start),
            stats: stats.delta_since(&root.stats_at_enter),
            events: root.events,
            children: root.children,
            node: root.node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pivots: u64) -> EngineStats {
        EngineStats {
            pivots,
            ..Default::default()
        }
    }

    #[test]
    fn nesting_and_deltas() {
        let mut c = Collector::new("q", 10);
        c.enter(SpanKind::Parse, "parse".into(), Some((0, 10)), stats(0));
        c.exit(stats(0));
        c.enter(SpanKind::Where, "where".into(), None, stats(0));
        c.enter(SpanKind::SatCheck, "sat".into(), Some((3, 7)), stats(1));
        c.event(EventKind::BoxPrune);
        c.exit(stats(5));
        c.exit(stats(6));
        let t = c.finish(stats(6));

        assert_eq!(t.root.kind, SpanKind::Query);
        assert_eq!(t.root.children.len(), 2);
        let wher = &t.root.children[1];
        assert_eq!(wher.stats.pivots, 6);
        let sat = &wher.children[0];
        assert_eq!(sat.stats.pivots, 4);
        assert_eq!(sat.events.len(), 1);
        assert_eq!(wher.self_stats().pivots, 2);
        assert_eq!(t.summed_self_stats().pivots, 6);
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.dropped_spans, 0);
        // Children nest inside their parents in time.
        t.root.walk(&mut |s, _| {
            for ch in &s.children {
                assert!(ch.start >= s.start);
                assert!(ch.end() <= s.end());
            }
        });
    }

    #[test]
    fn prepended_phases_lead_the_tree_and_keep_it_nested() {
        let mut c = Collector::new("q", 8);
        c.enter(SpanKind::Where, "w".into(), None, stats(0));
        c.event(EventKind::BoxPrune);
        c.exit(stats(2));
        let mut t = c.finish(stats(2));
        let (where_start, total) = (t.root.children[0].start, t.root.duration);
        let ms = Duration::from_millis;
        t.prepend_phases(&[
            (SpanKind::Lex, ms(1), Some((0, 8))),
            (SpanKind::Analyze, ms(2), None),
        ]);
        let kinds: Vec<SpanKind> = t.root.children.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [SpanKind::Lex, SpanKind::Analyze, SpanKind::Where]);
        assert_eq!(t.root.start, Duration::ZERO);
        assert_eq!(t.root.duration, total + ms(3));
        assert_eq!(t.root.children[1].start, ms(1));
        let wher = &t.root.children[2];
        assert_eq!(wher.start, where_start + ms(3));
        assert!(wher.events[0].at >= wher.start);
        assert_eq!(t.summed_self_stats().pivots, 2);
        assert!(crate::chrome::validate_chrome_trace(&crate::chrome::to_chrome_trace(&t)).is_ok());
    }

    #[test]
    fn unbalanced_spans_are_closed_by_finish() {
        let mut c = Collector::new("q", 0);
        c.enter(SpanKind::Where, "w".into(), None, stats(0));
        c.enter(SpanKind::SatCheck, "s".into(), None, stats(0));
        let t = c.finish(stats(9));
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.total_stats().pivots, 9);
        assert_eq!(t.summed_self_stats().pivots, 9);
    }

    #[test]
    fn worker_subtrees_graft_with_tids_and_partition_stats() {
        let mut main = Collector::new("q", 2);
        main.enter(SpanKind::Where, "w".into(), None, stats(0));
        // Two workers measured against the same origin; their local stats
        // are deltas, absorbed by the parent context before the Where span
        // closes (mirrored here by exiting with the merged total).
        let mut w0 = Collector::worker(main.origin(), 2, "worker 0");
        w0.enter(SpanKind::SatCheck, "s".into(), None, stats(0));
        w0.exit(stats(3));
        let (s0, d0) = w0.finish_subtree(stats(3));
        let w1 = Collector::worker(main.origin(), 3, "worker 1");
        let (s1, d1) = w1.finish_subtree(stats(4));
        assert_eq!(s0.tid, 2);
        assert_eq!(s0.children[0].tid, 2);
        assert_eq!(s1.tid, 3);
        assert_eq!(s0.stats.pivots, 3);
        main.attach_subtree(s0, d0);
        main.attach_subtree(s1, d1);
        main.exit(stats(7));
        let t = main.finish(stats(7));
        assert_eq!(t.root.tid, crate::model::MAIN_TID);
        assert_eq!(t.distinct_tids(), vec![1, 2, 3]);
        let wher = &t.root.children[0];
        assert_eq!(wher.children.len(), 2);
        // The workers' inclusive deltas partition the Where span's delta;
        // nothing is counted twice, nothing lost.
        assert_eq!(wher.self_stats().pivots, 0);
        assert_eq!(t.summed_self_stats().pivots, 7);
        // Worker subtrees still nest in time inside their parent span.
        assert!(wher.children.iter().all(|c| c.start >= wher.start));
        assert!(wher.children.iter().all(|c| c.end() <= wher.end()));
        // And the Chrome export carries one track per tid.
        let text = crate::chrome::to_chrome_trace(&t);
        assert!(crate::chrome::validate_chrome_trace(&text).is_ok());
    }

    #[test]
    fn attach_over_cap_folds_into_dropped() {
        let mut main = Collector::new("q", 0);
        for _ in 0..(Collector::MAX_SPANS - 1) {
            main.enter(SpanKind::SatCheck, "s".into(), None, stats(0));
            main.exit(stats(0));
        }
        let mut w = Collector::worker(main.origin(), 2, "worker 0");
        w.enter(SpanKind::SatCheck, "s".into(), None, stats(0));
        w.exit(stats(0));
        let (sub, d) = w.finish_subtree(stats(0));
        main.attach_subtree(sub, d);
        let t = main.finish(stats(0));
        assert_eq!(t.span_count(), Collector::MAX_SPANS);
        assert_eq!(t.dropped_spans, 2, "folded worker subtree is counted");
    }

    #[test]
    fn cap_suppresses_but_keeps_balance() {
        let mut c = Collector::new("q", 0);
        for _ in 0..(Collector::MAX_SPANS + 10) {
            c.enter(SpanKind::SatCheck, "s".into(), None, stats(0));
            c.exit(stats(0));
        }
        assert_eq!(c.depth(), 1);
        let t = c.finish(stats(1));
        assert_eq!(t.dropped_spans, 11);
        assert_eq!(t.span_count(), Collector::MAX_SPANS);
        // The suppressed spans' work is still in the root's delta.
        assert_eq!(t.summed_self_stats().pivots, 1);
    }
}
