//! The cost-profile store: exponentially-decayed per-plan-node
//! observations, keyed by `(query-shape hash, node id)`, accumulated for
//! the process lifetime.
//!
//! Every explained run (`ExecOptions::explain`) feeds one [`Obs`] per
//! plan node here;
//! the store keeps an exponentially-weighted moving average of each
//! feature with **α = 1/8**: after observation `x`, each average moves
//! `x̄ ← x̄ + α·(x − x̄)` (the first observation seeds `x̄ = x` directly).
//! A site's weight on the value observed `k` runs ago is `α·(1−α)^(k−1)`,
//! so roughly the last `1/α = 8` observations dominate — recent plan
//! behaviour wins, but one outlier query cannot erase the history. This
//! is the live feed the future cost-based planner (ROADMAP item 6)
//! consumes: per-site cardinalities, exclusive time, and the
//! constraint-complexity counters (sat/entail checks, LP runs/pivots,
//! box prunes).
//!
//! The store is bounded at [`MAX_SITES`] sites; observations for new
//! sites past the cap are counted (`lyric_profile_dropped_total`) but not
//! stored. `lyric-serve` exposes [`snapshot_json`] at `GET /profiles`,
//! and the summary counters/gauges ride the normal Prometheus
//! exposition.

use lyric_trace::json::Json;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Decay factor: the weight of the newest observation.
pub const ALPHA: f64 = 0.125;

/// Cap on distinct `(shape, node)` sites retained.
pub const MAX_SITES: usize = 4096;

/// One runtime observation of one plan node, as fed by every explained
/// run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Obs<'a> {
    /// Exclusive wall-clock microseconds attributed to the node.
    pub self_us: f64,
    /// Input cardinality (bindings/rows entering the operator).
    pub rows_in: u64,
    /// Output cardinality.
    pub rows_out: u64,
    /// The node's nonzero exclusive engine counters, `(name, value)`.
    pub counters: &'a [(&'static str, u64)],
}

/// The decayed averages retained for one `(shape, node)` site.
#[derive(Debug, Clone, Default)]
struct Site {
    op: String,
    count: u64,
    self_us: f64,
    rows_in: f64,
    rows_out: f64,
    counters: BTreeMap<&'static str, f64>,
}

struct Store {
    sites: BTreeMap<(u64, u32), Site>,
    dropped: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(Store {
            sites: BTreeMap::new(),
            dropped: 0,
        })
    })
}

fn observations_counter() -> &'static crate::Counter {
    static C: OnceLock<crate::Counter> = OnceLock::new();
    C.get_or_init(|| {
        crate::global().counter(
            "lyric_profile_observations_total",
            "Per-node explain observations fed to the cost-profile store.",
        )
    })
}

fn dropped_counter() -> &'static crate::Counter {
    static C: OnceLock<crate::Counter> = OnceLock::new();
    C.get_or_init(|| {
        crate::global().counter(
            "lyric_profile_dropped_total",
            "Observations for new sites rejected by the profile-store site cap.",
        )
    })
}

fn sites_gauge() -> &'static crate::Gauge {
    static G: OnceLock<crate::Gauge> = OnceLock::new();
    G.get_or_init(|| {
        crate::global().gauge(
            "lyric_profile_sites",
            "Distinct (query shape, plan node) sites in the cost-profile store.",
        )
    })
}

fn ewma(avg: &mut f64, x: f64, first: bool) {
    if first {
        *avg = x;
    } else {
        *avg += ALPHA * (x - *avg);
    }
}

/// Feed one observation for `(shape_hash, node_id)`. `op` is the node's
/// stable operator name (re-stamped on every observation, so a shape-hash
/// collision at least reports the newest operator). A no-op when metrics
/// are disabled.
pub fn record(shape_hash: u64, node_id: u32, op: &str, obs: &Obs<'_>) {
    if !crate::enabled() {
        return;
    }
    let mut guard = lock(store());
    let Store { sites, dropped } = &mut *guard;
    let site = match sites.get_mut(&(shape_hash, node_id)) {
        Some(site) => site,
        None => {
            if sites.len() >= MAX_SITES {
                *dropped += 1;
                dropped_counter().inc();
                return;
            }
            sites.entry((shape_hash, node_id)).or_default()
        }
    };
    let first = site.count == 0;
    site.count += 1;
    if site.op != op {
        site.op = op.to_string();
    }
    ewma(&mut site.self_us, obs.self_us, first);
    ewma(&mut site.rows_in, obs.rows_in as f64, first);
    ewma(&mut site.rows_out, obs.rows_out as f64, first);
    // Counters absent from this observation decay toward zero; observed
    // counters update in place. Union over both key sets.
    let mut updated: BTreeMap<&'static str, f64> = std::mem::take(&mut site.counters);
    for (name, avg) in updated.iter_mut() {
        let x = obs
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64);
        ewma(avg, x, false);
    }
    for (name, v) in obs.counters {
        updated.entry(name).or_insert(*v as f64);
    }
    site.counters = updated;
    let site_count = sites.len() as u64;
    drop(guard);
    observations_counter().inc();
    sites_gauge().set(site_count);
}

/// Serialize the whole store as one JSON document (the `GET /profiles`
/// body): configuration (`alpha`, `max_sites`), totals, and one profile
/// object per site in deterministic `(shape, node)` order. Averages are
/// rounded to three decimals.
pub fn snapshot_json() -> String {
    let milli = |v: f64| Json::Num((v * 1e3).round() / 1e3);
    let guard = lock(store());
    let profiles = guard.sites.iter().map(|((shape, node), site)| {
        let counters = site.counters.iter().map(|(name, avg)| (*name, milli(*avg)));
        Json::obj([
            ("shape", Json::str(format!("{shape:016x}"))),
            ("node", Json::int(*node as u64)),
            ("op", Json::str(site.op.as_str())),
            ("count", Json::int(site.count)),
            ("self_us", milli(site.self_us)),
            ("rows_in", milli(site.rows_in)),
            ("rows_out", milli(site.rows_out)),
            ("counters", Json::obj(counters)),
        ])
    });
    Json::obj([
        ("alpha", Json::Num(ALPHA)),
        ("max_sites", Json::int(MAX_SITES as u64)),
        ("sites", Json::int(guard.sites.len() as u64)),
        ("dropped", Json::int(guard.dropped)),
        ("profiles", Json::Arr(profiles.collect())),
    ])
    .to_string()
}

/// Number of sites currently retained.
pub fn site_count() -> usize {
    lock(store()).sites.len()
}

/// Drop every site and reset the drop tally — the test hook.
pub fn clear() {
    let mut guard = lock(store());
    guard.sites.clear();
    guard.dropped = 0;
    drop(guard);
    sites_gauge().set(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The store is process-global; tests share it, so each uses a unique
    // shape hash and asserts only on its own sites.

    #[test]
    fn ewma_seeds_then_decays() {
        let shape = 0x1111_0000_0000_0001;
        let counters = [("pivots", 8u64)];
        record(
            shape,
            0,
            "select",
            &Obs {
                self_us: 100.0,
                rows_in: 10,
                rows_out: 4,
                counters: &counters,
            },
        );
        record(
            shape,
            0,
            "select",
            &Obs {
                self_us: 200.0,
                rows_in: 10,
                rows_out: 4,
                counters: &[],
            },
        );
        let snap = snapshot_json();
        // After seed 100 then 200: 100 + (200-100)/8 = 112.5.
        let me = snap
            .split("{\"shape\":\"1111000000000001\"")
            .nth(1)
            .expect("site serialized");
        assert!(me.contains("\"count\":2"), "{me}");
        assert!(me.contains("\"self_us\":112.5"), "{me}");
        // pivots seeded at 8, then decayed toward 0: 8 - 8/8 = 7.
        assert!(me.contains("\"pivots\":7"), "{me}");
    }

    #[test]
    fn snapshot_is_valid_json_and_ordered() {
        let shape = 0x2222_0000_0000_0002;
        for node in [2u32, 0, 1] {
            record(shape, node, "op", &Obs::default());
        }
        let snap = snapshot_json();
        assert!(snap.starts_with("{\"alpha\":0.125,\"max_sites\":4096,"));
        let a = snap
            .find("\"shape\":\"2222000000000002\",\"node\":0")
            .unwrap();
        let b = snap
            .find("\"shape\":\"2222000000000002\",\"node\":1")
            .unwrap();
        let c = snap
            .find("\"shape\":\"2222000000000002\",\"node\":2")
            .unwrap();
        assert!(a < b && b < c, "sites are in (shape, node) order");
    }
}
