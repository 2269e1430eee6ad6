//! Memoization of satisfiability and entailment answers.
//!
//! Query evaluation re-asks the same questions constantly: the same stored
//! constraint object is tested for feasibility once per binding, and
//! entailment predicates re-derive `C ∧ ¬a` for every enumerated row. Both
//! answers depend only on the conjunction itself — [`Conjunction`] is kept
//! normalized and ordered by construction, so the value *is* its canonical
//! cache key.
//!
//! The caches are process-global and *sharded*: each map is split across
//! [`SHARDS`] hash-partitioned segments behind their own mutexes, so the
//! worker threads of a parallel region (and fully independent queries on
//! different threads) share memo entries without contending on one lock.
//! They are only consulted while an engine context with caching enabled is
//! installed ([`lyric_engine::cache_enabled`]); standalone library use
//! pays nothing. Entries carry the [`lyric_engine::generation`] they were
//! stored under — a probe under a different generation is a miss (all
//! workers of one parallel region share their query's generation, so they
//! do share entries), and each shard is bounded: on overflow it is cleared
//! rather than grown, keeping worst-case memory flat.
//!
//! Solving happens *outside* the shard lock, so two threads missing on the
//! same key may both solve it (benign duplicated work, last write wins);
//! a lock is only ever held for a probe or an insert, never across a
//! recursive solve, which also rules out lock-order deadlocks.

use crate::atom::Atom;
use crate::conjunction::Conjunction;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{LazyLock, Mutex, MutexGuard};

/// Number of hash-partitioned segments per cache. More shards than any
/// plausible thread budget, so workers rarely collide on a lock.
const SHARDS: usize = 16;

/// Per-shard entry bound; crossing it clears the shard (cheap, and the
/// generation mechanism already makes entries short-lived).
const MAX_SHARD_ENTRIES: usize = 1_024;

/// Lock a shard, surviving poisoning: a budget abort can unwind a worker
/// thread at any `note` site, but never while a shard lock is held (locks
/// only guard pure map operations), so the data is always consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Values carry the generation they were stored under instead of the maps
/// being cleared on a generation change: probing compares generations, so
/// stale entries die lazily (and are overwritten in place on re-solve).
struct ShardedMemo<K> {
    shards: Vec<Mutex<HashMap<K, (u64, bool)>>>,
}

impl<K: Hash + Eq> ShardedMemo<K> {
    fn new() -> Self {
        ShardedMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, (u64, bool)>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn probe(&self, key: &K, generation: u64) -> Option<bool> {
        lock(self.shard(key))
            .get(key)
            .filter(|&&(g, _)| g == generation)
            .map(|&(_, answer)| answer)
    }

    fn insert(&self, key: K, generation: u64, answer: bool) {
        let mut shard = lock(self.shard(&key));
        if shard.len() >= MAX_SHARD_ENTRIES {
            shard.clear();
        }
        shard.insert(key, (generation, answer));
    }
}

static SAT: LazyLock<ShardedMemo<Conjunction>> = LazyLock::new(ShardedMemo::new);
static ENTAIL: LazyLock<ShardedMemo<(Conjunction, Atom)>> = LazyLock::new(ShardedMemo::new);

/// Point-in-time occupancy of one process-global memo cache, for the
/// `/debug/caches` introspection surface. `entries` counts live map
/// entries of *any* generation (stale ones die lazily, so they still
/// occupy memory); `capacity` is the hard bound (shards × per-shard
/// limit) past which a shard clears.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOccupancy {
    /// Entries currently held, across every shard.
    pub entries: usize,
    /// Bound on held entries: shard count × per-shard entry limit.
    pub capacity: usize,
}

impl<K: Hash + Eq> ShardedMemo<K> {
    fn occupancy(&self) -> CacheOccupancy {
        CacheOccupancy {
            entries: self.shards.iter().map(|s| lock(s).len()).sum(),
            capacity: SHARDS * MAX_SHARD_ENTRIES,
        }
    }
}

/// Occupancy of the satisfiability memo.
pub fn sat_occupancy() -> CacheOccupancy {
    SAT.occupancy()
}

/// Occupancy of the entailment memo.
pub fn entail_occupancy() -> CacheOccupancy {
    ENTAIL.occupancy()
}

fn memoized<K: Hash + Eq>(
    memo: &ShardedMemo<K>,
    key: impl FnOnce() -> K,
    solve: impl FnOnce() -> bool,
) -> bool {
    if !lyric_engine::cache_enabled() {
        return solve();
    }
    let generation = lyric_engine::generation();
    let key = key();
    if let Some(answer) = memo.probe(&key, generation) {
        lyric_engine::note_cache(true);
        return answer;
    }
    lyric_engine::note_cache(false);
    // Solve *outside* the lock: the solve path may recurse into another
    // cached query (entailment probes satisfiability underneath).
    let answer = solve();
    memo.insert(key, generation, answer);
    answer
}

/// Memoized satisfiability: `solve` runs on a miss and its answer is stored
/// under `c`'s value.
pub(crate) fn satisfiable(c: &Conjunction, solve: impl FnOnce() -> bool) -> bool {
    memoized(&SAT, || c.clone(), solve)
}

/// Memoized single-atom entailment, keyed on the (conjunction, atom) pair.
pub(crate) fn entails(c: &Conjunction, a: &Atom, solve: impl FnOnce() -> bool) -> bool {
    memoized(&ENTAIL, || (c.clone(), a.clone()), solve)
}

#[cfg(test)]
mod tests {
    use crate::{Atom, Conjunction, LinExpr, Var};
    use lyric_engine::{EngineStats, ExecOptions};

    /// Run `f` under a fresh engine context with the memo on or off.
    fn run<T>(cache: bool, f: impl FnOnce() -> T) -> (T, EngineStats) {
        let opts = ExecOptions::default().with_cache(cache);
        let (value, stats, _) = lyric_engine::run(&opts, None, f).expect("unlimited budget");
        (value, stats)
    }

    /// `0 ≤ x ≤ hi`. The memo is process-global and the harness runs
    /// these tests on parallel threads, each under its own generation, so
    /// every test keys its own conjunction: a shared key lets one test's
    /// insert replace another's entry between its probes.
    fn x_box(hi: i64) -> Conjunction {
        let x = LinExpr::var(Var::new("x"));
        Conjunction::of([
            Atom::ge(x.clone(), LinExpr::from(0)),
            Atom::le(x, LinExpr::from(hi)),
        ])
    }

    #[test]
    fn repeated_sat_checks_hit_the_cache() {
        let c = x_box(10);
        let ((), stats) = run(true, || {
            assert!(c.satisfiable());
            assert!(c.satisfiable());
            assert!(c.satisfiable());
        });
        assert_eq!(stats.sat_checks, 3);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn cache_disabled_context_never_probes() {
        let c = x_box(11);
        let ((), stats) = run(false, || {
            assert!(c.satisfiable());
            assert!(c.satisfiable());
        });
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.lp_runs, 2);
    }

    #[test]
    fn entailment_answers_are_cached_per_atom() {
        let c = x_box(12);
        let a = Atom::le(LinExpr::var(Var::new("x")), LinExpr::from(20));
        let ((), stats) = run(true, || {
            assert!(c.implies_atom(&a));
            assert!(c.implies_atom(&a));
        });
        assert_eq!(stats.entailment_checks, 2);
        assert!(stats.cache_hits >= 1, "second probe must hit: {stats}");
    }

    #[test]
    fn generations_isolate_contexts() {
        let c = x_box(13);
        let ((), first) = run(true, || assert!(c.satisfiable()));
        assert_eq!(first.cache_misses, 1);
        // A fresh context must not see the previous context's entries.
        let ((), second) = run(true, || assert!(c.satisfiable()));
        assert_eq!(second.cache_hits, 0);
        assert_eq!(second.cache_misses, 1);
    }

    #[test]
    fn workers_share_their_querys_entries() {
        // One parallel region: the first evaluation of each distinct key
        // misses, every repeat — on whichever worker — hits, because all
        // workers share the query's generation.
        let c = x_box(14);
        let opts = ExecOptions::default().with_threads(4);
        let ((), stats, _) = lyric_engine::run(&opts, None, || {
            assert!(c.satisfiable()); // miss, on the coordinator
            let items = [(); 8];
            let answers = lyric_engine::parallel_map(&items, |_, _| c.satisfiable());
            assert!(answers.into_iter().all(|a| a));
        })
        .unwrap();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 8);
    }
}
