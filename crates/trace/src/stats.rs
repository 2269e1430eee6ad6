//! Monotonic work counters for one engine context.
//!
//! [`EngineStats`] is defined here (rather than in `lyric-engine`, which
//! re-exports it) so that trace spans can carry typed counter deltas
//! without a dependency cycle: `lyric-trace` is the bottom of the
//! telemetry stack, `lyric-engine` builds the thread-local context on top
//! of it.

use crate::json::Json;
use std::fmt;

/// Monotonic work counters for one engine context. All counters are
/// cumulative over the context's lifetime; `lyric_engine::snapshot` reads
/// them out mid-run, and trace spans store start/stop differences
/// (see [`EngineStats::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Simplex pivot steps performed.
    pub pivots: u64,
    /// Number of simplex solves (phase-1/phase-2 runs counted once each).
    pub lp_runs: u64,
    /// Variables eliminated by Fourier–Motzkin / equality substitution.
    pub eliminations: u64,
    /// Atoms produced by FM elimination products.
    pub fm_atoms: u64,
    /// Disjuncts produced by DNF `and`/`negate` products.
    pub disjuncts_produced: u64,
    /// Disjuncts discarded as unsatisfiable or subsumed by simplification.
    pub disjuncts_pruned: u64,
    /// Conjunction satisfiability checks requested.
    pub sat_checks: u64,
    /// Entailment (`implies_atom`) checks requested.
    pub entailment_checks: u64,
    /// Rational ops completed on the inline small-integer fast path.
    pub arith_small_ops: u64,
    /// Rational ops that ran on the arbitrary-precision `BigInt` path.
    pub arith_big_ops: u64,
    /// Small-path ops whose result overflowed `i64` and promoted.
    pub arith_promotions: u64,
    /// Logical bytes placed in recycled arena buffers (tableau rows, FM
    /// bound lists). Deterministic: counts requested sizes, not retained
    /// capacity.
    pub arena_bytes: u64,
    /// Interval-box disjointness tests performed before LP calls.
    pub box_checks: u64,
    /// Box checks that proved emptiness and skipped the LP entirely.
    pub box_prunes: u64,
    /// Store-index probes answered (scalar equality/range lookups and
    /// bounding-box intersections) while planning FROM bindings.
    pub index_probes: u64,
    /// Extent members discarded by index probes before instantiation.
    pub index_pruned: u64,
}

/// The counter fields of [`EngineStats`], in declaration order, paired
/// with their snake_case names. Sinks iterate this instead of hard-coding
/// the field list, so a new counter propagates to every sink.
pub const COUNTER_NAMES: [&str; 16] = [
    "pivots",
    "lp_runs",
    "eliminations",
    "fm_atoms",
    "disjuncts_produced",
    "disjuncts_pruned",
    "sat_checks",
    "entailment_checks",
    "arith_small_ops",
    "arith_big_ops",
    "arith_promotions",
    "arena_bytes",
    "box_checks",
    "box_prunes",
    "index_probes",
    "index_pruned",
];

impl EngineStats {
    /// Fraction of counted rational ops that ran on the inline small-int
    /// path, or `None` when no arithmetic was counted.
    pub fn arith_small_hit_rate(&self) -> Option<f64> {
        let total = self.arith_small_ops + self.arith_big_ops;
        (total > 0).then(|| self.arith_small_ops as f64 / total as f64)
    }

    /// The counters describing the query's *semantic* work: everything
    /// except the three arithmetic-path counters, which legitimately
    /// differ between the small-int fast path and the all-`BigInt`
    /// baseline (`arena_bytes` stays — it is mode-independent).
    /// Differential tests compare these across arithmetic modes.
    pub fn semantic(&self) -> EngineStats {
        EngineStats {
            arith_small_ops: 0,
            arith_big_ops: 0,
            arith_promotions: 0,
            ..*self
        }
    }

    /// The counters that are invariant under interval-box pruning: the
    /// check tallies (`sat_checks`, `entailment_checks`) and the DNF/FM
    /// production counters, which are driven by *answers*, not by how the
    /// answers were obtained. Everything implementation-dependent —
    /// LP effort (`pivots`, `lp_runs`), arena bytes, the
    /// arithmetic-path split, and the box and index counters themselves —
    /// is zeroed. The box-pruning differential compares these with
    /// `boxes` on vs off.
    pub fn prune_invariant(&self) -> EngineStats {
        EngineStats {
            pivots: 0,
            lp_runs: 0,
            arith_small_ops: 0,
            arith_big_ops: 0,
            arith_promotions: 0,
            arena_bytes: 0,
            box_checks: 0,
            box_prunes: 0,
            index_probes: 0,
            index_pruned: 0,
            ..*self
        }
    }

    /// Merge counters from another snapshot (used when aggregating
    /// per-query stats into a report).
    pub fn absorb(&mut self, other: &EngineStats) {
        for (mine, theirs) in self.counters_mut().into_iter().zip(other.counters()) {
            *mine += theirs;
        }
    }

    /// The counters consumed since `earlier` (an older snapshot of the
    /// same monotonic context). Saturating, so a mismatched pair degrades
    /// to zeros instead of wrapping.
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        let mut out = *self;
        for (mine, theirs) in out.counters_mut().into_iter().zip(earlier.counters()) {
            *mine = mine.saturating_sub(theirs);
        }
        out
    }

    /// All counters, in [`COUNTER_NAMES`] order.
    pub fn counters(&self) -> [u64; 16] {
        [
            self.pivots,
            self.lp_runs,
            self.eliminations,
            self.fm_atoms,
            self.disjuncts_produced,
            self.disjuncts_pruned,
            self.sat_checks,
            self.entailment_checks,
            self.arith_small_ops,
            self.arith_big_ops,
            self.arith_promotions,
            self.arena_bytes,
            self.box_checks,
            self.box_prunes,
            self.index_probes,
            self.index_pruned,
        ]
    }

    fn counters_mut(&mut self) -> [&mut u64; 16] {
        [
            &mut self.pivots,
            &mut self.lp_runs,
            &mut self.eliminations,
            &mut self.fm_atoms,
            &mut self.disjuncts_produced,
            &mut self.disjuncts_pruned,
            &mut self.sat_checks,
            &mut self.entailment_checks,
            &mut self.arith_small_ops,
            &mut self.arith_big_ops,
            &mut self.arith_promotions,
            &mut self.arena_bytes,
            &mut self.box_checks,
            &mut self.box_prunes,
            &mut self.index_probes,
            &mut self.index_pruned,
        ]
    }

    /// `(name, value)` pairs for the counters that are nonzero — the
    /// compact form sinks print for per-span deltas.
    pub fn nonzero_counters(&self) -> Vec<(&'static str, u64)> {
        COUNTER_NAMES
            .into_iter()
            .zip(self.counters())
            .filter(|(_, v)| *v > 0)
            .collect()
    }

    /// Every counter as a JSON object keyed by [`COUNTER_NAMES`], in
    /// declaration order (the query log's and `POST /query`'s `stats`).
    pub fn to_json(&self) -> Json {
        let pairs = COUNTER_NAMES.into_iter().zip(self.counters());
        Json::obj(pairs.map(|(name, v)| (name, Json::int(v))))
    }

    /// The nonzero counters as a JSON object (the flight recorder's and
    /// the explain plan's compact form).
    pub fn nonzero_json(&self) -> Json {
        let pairs = self.nonzero_counters().into_iter();
        Json::obj(pairs.map(|(name, v)| (name, Json::int(v))))
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.counters().iter().all(|v| *v == 0)
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pivots={} lp_runs={} eliminations={} fm_atoms={} \
             disjuncts={}(+{} pruned) sat_checks={} entailment_checks={} \
             arith_ops={}small/{}big(+{} promoted) arena_bytes={} \
             box_checks={}(-{} pruned) index_probes={}(-{} pruned)",
            self.pivots,
            self.lp_runs,
            self.eliminations,
            self.fm_atoms,
            self.disjuncts_produced,
            self.disjuncts_pruned,
            self.sat_checks,
            self.entailment_checks,
            self.arith_small_ops,
            self.arith_big_ops,
            self.arith_promotions,
            self.arena_bytes,
            self.box_checks,
            self.box_prunes,
            self.index_probes,
            self.index_pruned,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format_is_pinned() {
        let stats = EngineStats {
            pivots: 31,
            lp_runs: 4,
            eliminations: 2,
            fm_atoms: 12,
            disjuncts_produced: 5,
            disjuncts_pruned: 1,
            sat_checks: 3,
            entailment_checks: 1,
            arith_small_ops: 90,
            arith_big_ops: 10,
            arith_promotions: 2,
            arena_bytes: 4096,
            box_checks: 4,
            box_prunes: 2,
            index_probes: 6,
            index_pruned: 5,
        };
        assert_eq!(
            stats.to_string(),
            "pivots=31 lp_runs=4 eliminations=2 fm_atoms=12 \
             disjuncts=5(+1 pruned) sat_checks=3 entailment_checks=1 \
             arith_ops=90small/10big(+2 promoted) arena_bytes=4096 \
             box_checks=4(-2 pruned) index_probes=6(-5 pruned)"
        );
        assert_eq!(stats.arith_small_hit_rate(), Some(0.9));
    }

    #[test]
    fn prune_invariant_keeps_answer_driven_counters() {
        let stats = EngineStats {
            pivots: 31,
            lp_runs: 4,
            sat_checks: 3,
            entailment_checks: 1,
            fm_atoms: 12,
            box_checks: 3,
            box_prunes: 1,
            arena_bytes: 64,
            index_probes: 2,
            index_pruned: 9,
            ..Default::default()
        };
        let inv = stats.prune_invariant();
        assert_eq!(inv.sat_checks, 3);
        assert_eq!(inv.entailment_checks, 1);
        assert_eq!(inv.fm_atoms, 12);
        assert_eq!(inv.pivots, 0);
        assert_eq!(inv.lp_runs, 0);
        assert_eq!(inv.box_checks, 0);
        assert_eq!(inv.box_prunes, 0);
        assert_eq!(inv.arena_bytes, 0);
        assert_eq!(inv.index_probes, 0);
        assert_eq!(inv.index_pruned, 0);
    }

    #[test]
    fn delta_since_subtracts_per_counter() {
        let later = EngineStats {
            pivots: 10,
            box_prunes: 4,
            ..Default::default()
        };
        let earlier = EngineStats {
            pivots: 7,
            box_prunes: 1,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.pivots, 3);
        assert_eq!(d.box_prunes, 3);
        assert_eq!(d.lp_runs, 0);
        // Saturates instead of wrapping on mismatched snapshots.
        assert_eq!(earlier.delta_since(&later).pivots, 0);
    }

    #[test]
    fn absorb_matches_counter_list() {
        let mut acc = EngineStats::default();
        let one = EngineStats {
            fm_atoms: 2,
            entailment_checks: 5,
            ..Default::default()
        };
        acc.absorb(&one);
        acc.absorb(&one);
        assert_eq!(acc.fm_atoms, 4);
        assert_eq!(acc.entailment_checks, 10);
        assert_eq!(
            acc.nonzero_counters(),
            vec![("fm_atoms", 4), ("entailment_checks", 10)]
        );
        assert!(!acc.is_zero());
        assert!(EngineStats::default().is_zero());
    }
}
