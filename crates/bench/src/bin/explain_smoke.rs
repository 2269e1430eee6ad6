//! CI smoke check for the EXPLAIN subsystem: run the paper corpus through
//! `execute_shared` with `ExecOptions::explain` at 1 and 4 threads and
//! assert, for every report, the invariants the explain layer pins:
//!
//! * the JSON document passes [`validate_plan_json`] (schema + the
//!   self-time-sum tolerance baked into the validator);
//! * Σ per-node exclusive counters equals the run's `QueryResult::stats`
//!   **exactly**, and Σ per-node self time equals the trace's summed
//!   self time exactly (serial runs additionally never exceed the traced
//!   total);
//! * the root node's `rows_out` is the answer cardinality;
//! * with metrics enabled, the cost-profile store accumulates one site
//!   per (shape, node) pair and its `snapshot_json` parses back.
//!
//! Exits nonzero on any violation. Run with
//! `cargo run -p lyric-bench --bin explain_smoke --release`.

use lyric::trace::plan::validate_plan_json;
use lyric::ExecOptions;

const QUERIES: &[&str] = &[
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
     FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
    "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
     FROM Desk DSK
     WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)",
    "SELECT DSK FROM Object_In_Room O, Desk DSK
     WHERE O.catalog_object[DSK] AND O.location[L]
       AND DSK.drawer_center[C] AND DSK.translation[D]
       AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
       AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
            AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
            AND 0 < u AND u < 20 AND 0 < v AND v < 10)",
    "SELECT MAX(w + z SUBJECT TO ((w,z) | E)), MIN(w SUBJECT TO ((w,z) | E))
     FROM Desk D WHERE D.extent[E]",
];

fn main() {
    let mut failures = 0usize;
    let db = lyric::paper_example::database();

    lyric::metrics::set_enabled(true);
    lyric::metrics::profile::clear();

    let mut reports = 0usize;
    let mut shapes = std::collections::BTreeSet::new();
    let mut expected_sites = 0usize;
    for threads in [1usize, 4] {
        let opts = ExecOptions::default()
            .with_threads(threads)
            .with_explain(true);
        for (i, q) in QUERIES.iter().enumerate() {
            let label = format!("query {i} threads={threads}");
            let res = match lyric::execute_shared(&db, q, &opts) {
                Ok(res) => res,
                Err(e) => {
                    eprintln!("FAIL: {label}: explained run failed: {e}");
                    failures += 1;
                    continue;
                }
            };
            let report = res
                .plan
                .as_ref()
                .expect("an explained run returns its plan");
            reports += 1;
            if shapes.insert(report.shape_hash) {
                expected_sites += report.plan.node_count();
            }

            let json = report.to_json().to_string();
            match validate_plan_json(&json) {
                Ok(n) if n == report.plan.node_count() => {}
                Ok(n) => {
                    eprintln!(
                        "FAIL: {label}: validator saw {n} nodes, plan has {}",
                        report.plan.node_count()
                    );
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("FAIL: {label}: plan JSON rejected: {e}");
                    failures += 1;
                }
            }

            let a = report.analysis.as_ref().expect("analyze ran");
            if a.summed_stats() != res.stats {
                eprintln!("FAIL: {label}: per-node counters do not sum to the query stats");
                failures += 1;
            }
            if a.summed_self_time() != a.total_self {
                eprintln!(
                    "FAIL: {label}: self times sum to {:?}, trace self total is {:?}",
                    a.summed_self_time(),
                    a.total_self
                );
                failures += 1;
            }
            if threads == 1 && a.total_self > a.total {
                eprintln!(
                    "FAIL: {label}: serial self-time sum {:?} exceeds traced total {:?}",
                    a.total_self, a.total
                );
                failures += 1;
            }
            if a.nodes[0].rows_out != res.rows.len() as u64 {
                eprintln!(
                    "FAIL: {label}: root rows_out {} != {} answer rows",
                    a.nodes[0].rows_out,
                    res.rows.len()
                );
                failures += 1;
            }
        }
    }
    println!(
        "validated {reports} explain reports over {} query shapes",
        shapes.len()
    );

    // The cost-profile store saw every (shape, node) site exactly once.
    let sites = lyric::metrics::profile::site_count();
    if sites != expected_sites {
        eprintln!("FAIL: profile store holds {sites} sites, expected {expected_sites}");
        failures += 1;
    }
    let snapshot = lyric::metrics::profile::snapshot_json();
    match lyric::trace::json::parse(&snapshot) {
        Ok(doc) => {
            let n = doc
                .get("profiles")
                .and_then(|p| p.as_arr())
                .map(|a| a.len())
                .unwrap_or(0);
            if n != expected_sites {
                eprintln!("FAIL: snapshot lists {n} profiles, expected {expected_sites}");
                failures += 1;
            }
        }
        Err(e) => {
            eprintln!("FAIL: profile snapshot is not valid JSON: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("explain smoke FAILED with {failures} violations");
        std::process::exit(1);
    }
    println!("explain smoke OK: {reports} reports, {sites} profile sites, all invariants hold");
}
