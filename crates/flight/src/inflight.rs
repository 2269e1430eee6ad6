//! The in-flight query registry: who is running *right now*, and how
//! far along are they?
//!
//! The query runner registers a slot before evaluation starts and holds
//! the returned [`InflightGuard`] across the run; the guard's `Drop`
//! deregisters the slot on **every** exit path — normal return, error
//! return, budget unwind, and panic — so the registry can never leak a
//! ghost query. The slot's [`Progress`] atomics are the query's engine
//! counters themselves: the engine counts its budgeted work into them
//! and checks the budget against them, on the coordinator and on every
//! parallel worker, so a `/debug/inflight` scrape or REPL `:inflight`
//! sees live pivot/FM/sat-check movement and the percentage of the
//! budget already consumed — the difference between "hung" and "three
//! more minutes of quantifier elimination".

use lyric_trace::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Live progress counters for one query: the engine's shared per-query
/// atomics, counted at their sites with relaxed adds. Coordinator and
/// worker threads share one `Arc<Progress>`, so the values are the
/// query's whole-run totals, and the parallel budget check reads them.
#[derive(Default)]
pub struct Progress {
    /// Simplex pivot steps (budgeted).
    pub pivots: AtomicU64,
    /// Fourier–Motzkin atoms produced (budgeted).
    pub fm_atoms: AtomicU64,
    /// DNF disjuncts produced (budgeted).
    pub disjuncts: AtomicU64,
    /// Satisfiability checks completed.
    pub sat_checks: AtomicU64,
    /// Interval-box prunes (LP solves skipped).
    pub box_prunes: AtomicU64,
    /// Store-index probes answered.
    pub index_probes: AtomicU64,
}

/// The budget limits the query was admitted with, for the "% consumed"
/// readout. A flight-local copy of the engine's budget shape (this
/// crate sits below `lyric-engine`, so it cannot name the real type).
#[derive(Clone, Copy, Default)]
pub struct BudgetCaps {
    /// Max simplex pivots, if capped.
    pub pivots: Option<u64>,
    /// Max FM atoms, if capped.
    pub fm_atoms: Option<u64>,
    /// Max disjuncts, if capped.
    pub disjuncts: Option<u64>,
    /// Wall-clock deadline in milliseconds, if capped.
    pub deadline_ms: Option<u64>,
}

/// What a query registers about itself on entry.
pub struct InflightDesc {
    /// The query source, truncated for display
    /// (`lyric_metrics::querylog::truncate_query`).
    pub query: String,
    /// FNV-1a hash of the full query source.
    pub query_hash: u64,
    /// Thread budget the query was admitted with.
    pub threads: usize,
    /// Budget caps, for percentage readouts.
    pub caps: BudgetCaps,
}

struct Slot {
    desc: InflightDesc,
    /// Engine context generation (the per-process trace id); 0 until the
    /// run back-fills it.
    trace_id: u64,
    started: Instant,
    progress: Arc<Progress>,
}

/// A point-in-time copy of one in-flight slot.
pub struct InflightSnapshot {
    /// Registry slot id (monotonic per process).
    pub id: u64,
    /// Truncated query text.
    pub query: String,
    /// FNV-1a hash of the full query source.
    pub query_hash: u64,
    /// Thread budget.
    pub threads: usize,
    /// Engine context generation.
    pub trace_id: u64,
    /// Microseconds since registration.
    pub elapsed_us: u64,
    /// Live counters: (pivots, fm_atoms, disjuncts, sat_checks,
    /// box_prunes, index_probes).
    pub counters: [u64; 6],
    /// Percent of the tightest budget cap consumed (counters and
    /// elapsed-vs-deadline), rounded down; `None` when nothing is capped.
    pub budget_pct: Option<u64>,
}

impl InflightSnapshot {
    /// The snapshot as a JSON object (the `/debug/inflight` element).
    pub fn to_json(&self) -> Json {
        let [pivots, fm_atoms, disjuncts, sat_checks, box_prunes, index_probes] = self.counters;
        let mut pairs = vec![
            ("id".to_string(), Json::int(self.id)),
            (
                "query_hash".to_string(),
                Json::str(format!("{:016x}", self.query_hash)),
            ),
            ("query".to_string(), Json::str(self.query.clone())),
            ("trace_id".to_string(), Json::int(self.trace_id)),
            ("threads".to_string(), Json::int(self.threads as u64)),
            ("elapsed_us".to_string(), Json::int(self.elapsed_us)),
            (
                "progress".to_string(),
                Json::obj([
                    ("pivots", Json::int(pivots)),
                    ("fm_atoms", Json::int(fm_atoms)),
                    ("disjuncts", Json::int(disjuncts)),
                    ("sat_checks", Json::int(sat_checks)),
                    ("box_prunes", Json::int(box_prunes)),
                    ("index_probes", Json::int(index_probes)),
                ]),
            ),
        ];
        pairs.push((
            "budget_pct".to_string(),
            self.budget_pct.map_or(Json::Null, Json::int),
        ));
        Json::Obj(pairs)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn slots() -> &'static Mutex<BTreeMap<u64, Slot>> {
    static SLOTS: OnceLock<Mutex<BTreeMap<u64, Slot>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn inflight_gauge() -> &'static lyric_metrics::Gauge {
    static G: OnceLock<lyric_metrics::Gauge> = OnceLock::new();
    G.get_or_init(|| {
        lyric_metrics::global().gauge(
            "lyric_inflight_queries",
            "Queries currently registered as executing.",
        )
    })
}

thread_local! {
    /// The slot id registered by this thread, if any — the panic hook's
    /// way of asking "did an in-flight query die here?". 0 = none.
    static CURRENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Deregisters its slot when dropped — the reason no exit path (early
/// return, budget unwind, panic) can leak a registry entry.
pub struct InflightGuard {
    id: u64,
    progress: Arc<Progress>,
}

impl InflightGuard {
    /// The shared progress cell the engine counts into.
    pub fn progress(&self) -> Arc<Progress> {
        Arc::clone(&self.progress)
    }

    /// This slot's registry id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stamp the engine context generation once it is known —
    /// registration happens before the engine context (and therefore the
    /// trace id) exists, so the caller back-fills it from inside the run.
    pub fn set_trace_id(&self, trace_id: u64) {
        if let Some(slot) = lock(slots()).get_mut(&self.id) {
            slot.trace_id = trace_id;
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let mut slots = lock(slots());
        slots.remove(&self.id);
        inflight_gauge().set(slots.len() as u64);
        CURRENT.with(|c| {
            if c.get() == self.id {
                c.set(0);
            }
        });
    }
}

/// Register a query as in-flight. The returned guard must live for the
/// whole evaluation; progress moves once the engine runs the query with
/// [`InflightGuard::progress`] as its counter cell.
pub fn register(desc: InflightDesc) -> InflightGuard {
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let progress = Arc::new(Progress::default());
    let slot = Slot {
        desc,
        trace_id: 0,
        started: Instant::now(),
        progress: Arc::clone(&progress),
    };
    let mut slots_guard = lock(slots());
    slots_guard.insert(id, slot);
    inflight_gauge().set(slots_guard.len() as u64);
    drop(slots_guard);
    CURRENT.with(|c| c.set(id));
    InflightGuard { id, progress }
}

fn snapshot_slot(id: u64, slot: &Slot) -> InflightSnapshot {
    let p = &slot.progress;
    let counters = [
        p.pivots.load(Ordering::Relaxed),
        p.fm_atoms.load(Ordering::Relaxed),
        p.disjuncts.load(Ordering::Relaxed),
        p.sat_checks.load(Ordering::Relaxed),
        p.box_prunes.load(Ordering::Relaxed),
        p.index_probes.load(Ordering::Relaxed),
    ];
    let elapsed_us = slot.started.elapsed().as_micros() as u64;
    let caps = &slot.desc.caps;
    let pct_of = |consumed: u64, cap: Option<u64>| {
        cap.filter(|&c| c > 0)
            .map(|c| consumed.saturating_mul(100) / c)
    };
    let budget_pct = [
        pct_of(counters[0], caps.pivots),
        pct_of(counters[1], caps.fm_atoms),
        pct_of(counters[2], caps.disjuncts),
        pct_of(elapsed_us / 1000, caps.deadline_ms),
    ]
    .into_iter()
    .flatten()
    .max();
    InflightSnapshot {
        id,
        query: slot.desc.query.clone(),
        query_hash: slot.desc.query_hash,
        threads: slot.desc.threads,
        trace_id: slot.trace_id,
        elapsed_us,
        counters,
        budget_pct,
    }
}

/// Every in-flight query, oldest registration first.
pub fn snapshot() -> Vec<InflightSnapshot> {
    lock(slots())
        .iter()
        .map(|(id, slot)| snapshot_slot(*id, slot))
        .collect()
}

/// The slot registered by the *calling* thread, if one is live — used
/// by the panic hook to attribute a crash to the query that caused it.
pub fn current_snapshot() -> Option<InflightSnapshot> {
    let id = CURRENT.with(|c| c.get());
    if id == 0 {
        return None;
    }
    lock(slots()).get(&id).map(|slot| snapshot_slot(id, slot))
}

/// Number of in-flight queries.
pub fn len() -> usize {
    lock(slots()).len()
}

/// The whole registry as a JSON document (the `/debug/inflight` body).
pub fn to_json() -> Json {
    Json::obj([
        ("inflight", Json::int(len() as u64)),
        (
            "queries",
            Json::Arr(snapshot().iter().map(|s| s.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(q: &str) -> InflightDesc {
        InflightDesc {
            query: q.to_string(),
            query_hash: lyric_metrics::querylog::query_hash(q),
            threads: 1,
            caps: BudgetCaps {
                pivots: Some(1000),
                ..Default::default()
            },
        }
    }

    /// Is slot `id` registered? Other tests in this binary register
    /// concurrently, so each test checks its own slot, not `len()`.
    fn registered(id: u64) -> bool {
        snapshot().iter().any(|s| s.id == id)
    }

    #[test]
    fn guard_registers_and_deregisters() {
        let g = register(desc("SELECT X FROM Desk X"));
        let id = g.id();
        assert!(registered(id));
        g.progress().pivots.fetch_add(250, Ordering::Relaxed);
        let snap = current_snapshot().expect("this thread registered");
        assert_eq!(snap.counters[0], 250);
        assert_eq!(snap.budget_pct, Some(25));
        drop(g);
        assert!(!registered(id));
        assert!(current_snapshot().is_none());
    }

    #[test]
    fn guard_survives_a_panic_exit() {
        let id = AtomicU64::new(0);
        let result = std::panic::catch_unwind(|| {
            let g = register(desc("SELECT Y FROM Desk Y"));
            id.store(g.id(), Ordering::Relaxed);
            panic!("mid-query");
        });
        assert!(result.is_err());
        let id = id.into_inner();
        assert_ne!(id, 0, "the slot registered before the panic");
        assert!(!registered(id), "drop ran during unwind");
    }

    #[test]
    fn json_shape_has_the_pinned_members() {
        let g = register(desc("SELECT Z FROM Desk Z"));
        let doc = to_json();
        let queries = doc.get("queries").unwrap().as_arr().unwrap();
        let mine = queries
            .iter()
            .find(|q| q.get("id").unwrap().as_f64() == Some(g.id() as f64))
            .expect("registered slot serialized");
        for key in [
            "query_hash",
            "query",
            "trace_id",
            "threads",
            "elapsed_us",
            "progress",
            "budget_pct",
        ] {
            assert!(mine.get(key).is_some(), "missing {key}");
        }
        assert!(mine.get("progress").unwrap().get("pivots").is_some());
    }
}
