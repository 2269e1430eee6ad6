//! A committed table of every engine counter for a fixed list of queries.
//!
//! Each query runs under explicit options (one thread, boxes on, index
//! on, the arithmetic fast path on), so the environment of a CI leg cannot
//! move a number, and the second of two runs is read, so the lazily built
//! store index is not charged to it. Every `EngineStats` counter of every
//! query but the two operation counts of the arithmetic (see [`UNPINNED`])
//! is compared with the table below. A change that moves a counter must
//! update the table and say which cells moved and why; on a mismatch the
//! test prints the whole actual table in the form it is committed in.
//!
//! The list covers the benchmark's two served shapes (a window scan and a
//! windowed pairwise join) at fixed windows over the E2 office, E16's
//! three index probes over the scaling workload, and the five paper
//! queries of the box-pruning differential.

use lyric::oodb::Database;
use lyric::trace::stats::COUNTER_NAMES;
use lyric::{execute_shared, paper_example, ExecOptions};
use lyric_bench::workload::{
    office_db, q_join_window, q_region_window, q_scan_window, q_weight_eq, q_weight_ge, scaling_db,
};

/// The paper queries of `tests/boxes_differential.rs`.
const PAPER_QUERIES: [&str; 5] = [
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

/// Every query of the table: its label, its database and its text.
fn queries() -> Vec<(String, Database, String)> {
    let scan_db = office_db(48, 42);
    let join_db = office_db(16, 42);
    let dense_join_db = office_db(32, 42);
    let items = scaling_db(2_000, 42);
    let paper = paper_example::database();
    let mut out = Vec::new();
    for (i, w) in [(10, 70, 20, 50), (100, 160, 40, 70), (140, 200, 0, 30)]
        .into_iter()
        .enumerate()
    {
        out.push((
            format!("scan {i}"),
            scan_db.clone(),
            q_scan_window(w.0, w.1, w.2, w.3),
        ));
    }
    for (i, w) in [(40, 64, 30, 42), (100, 116, 50, 58)]
        .into_iter()
        .enumerate()
    {
        out.push((
            format!("join {i}"),
            join_db.clone(),
            q_join_window(w.0, w.1, w.2, w.3),
        ));
    }
    // The whole room over twice the objects: some pairs overlap, so some
    // checks reach the LP.
    out.push((
        "join 2".into(),
        dense_join_db,
        q_join_window(0, 200, 0, 100),
    ));
    out.push(("weight equality".into(), items.clone(), q_weight_eq(1_234)));
    out.push(("weight range".into(), items.clone(), q_weight_ge(1_950)));
    out.push(("region window".into(), items, q_region_window(1_000)));
    for (i, q) in PAPER_QUERIES.into_iter().enumerate() {
        out.push((format!("paper {i}"), paper.clone(), q.to_string()));
    }
    out
}

/// Counters the table leaves out. The number of `Rational` operations a
/// query makes includes the comparisons std's sort makes while atoms and
/// disjuncts are normalized, and how many comparisons a sort makes is
/// std's to change. `arith_differential` pins the arithmetic tiers.
const UNPINNED: [&str; 2] = ["arith_small_ops", "arith_big_ops"];

/// The pinned counters of a query, in `COUNTER_NAMES` order.
fn pinned(counters: [u64; 16]) -> [u64; 14] {
    let kept: Vec<u64> = COUNTER_NAMES
        .iter()
        .zip(counters)
        .filter(|(name, _)| !UNPINNED.contains(name))
        .map(|(_, c)| c)
        .collect();
    kept.try_into().expect("14 pinned counters")
}

/// The pinned counters of each query, in `COUNTER_NAMES` order: pivots,
/// lp_runs, eliminations, fm_atoms, disjuncts_produced, disjuncts_pruned,
/// sat_checks, entailment_checks, arith_promotions, arena_bytes,
/// box_checks, box_prunes, index_probes, index_pruned.
const TABLE: &[(&str, [u64; 14])] = &[
    (
        "scan 0",
        [57, 7, 0, 0, 288, 0, 48, 0, 0, 57120, 48, 41, 0, 0],
    ),
    (
        "scan 1",
        [42, 5, 0, 0, 288, 0, 48, 0, 0, 40800, 48, 43, 0, 0],
    ),
    (
        "scan 2",
        [62, 10, 0, 0, 288, 0, 48, 0, 0, 78720, 48, 38, 0, 0],
    ),
    ("join 0", [0, 0, 0, 0, 192, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("join 1", [0, 0, 0, 0, 192, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    (
        "join 2",
        [77, 6, 0, 0, 9312, 0, 992, 0, 0, 121920, 992, 986, 0, 0],
    ),
    (
        "weight equality",
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1999],
    ),
    (
        "weight range",
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1950],
    ),
    (
        "region window",
        [0, 0, 0, 0, 78, 0, 26, 0, 0, 0, 26, 0, 1, 1974],
    ),
    ("paper 0", [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("paper 1", [0, 0, 8, 0, 6, 0, 2, 0, 0, 0, 2, 0, 0, 0]),
    ("paper 2", [0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 2, 0, 1, 0]),
    ("paper 3", [22, 1, 0, 0, 21, 0, 1, 0, 0, 26880, 1, 0, 0, 0]),
    ("paper 4", [3, 2, 0, 0, 0, 0, 2, 0, 0, 1984, 2, 0, 0, 0]),
];

#[test]
fn engine_counters_match_the_committed_table() {
    // The databases' coefficients are built inline too, whatever the
    // environment's default mode is.
    lyric_arith::set_fast_path(true);
    let opts = ExecOptions::default()
        .with_threads(1)
        .with_boxes(true)
        .with_index(true)
        .with_arith_fast(true);
    let actual: Vec<(String, [u64; 14])> = queries()
        .into_iter()
        .map(|(label, db, q)| {
            // The first run builds the store index; the second is read.
            let run = || {
                execute_shared(&db, &q, &opts)
                    .unwrap_or_else(|e| panic!("{label}: query failed: {e}"))
            };
            run();
            let counters = pinned(run().stats.counters());
            (label, counters)
        })
        .collect();
    let expected: Vec<(String, [u64; 14])> = TABLE
        .iter()
        .map(|(label, counters)| (label.to_string(), *counters))
        .collect();
    if actual != expected {
        let mut diff = String::new();
        for ((label, got), (_, want)) in actual.iter().zip(&expected) {
            let names = COUNTER_NAMES.iter().filter(|n| !UNPINNED.contains(n));
            for ((name, g), w) in names.zip(got).zip(want) {
                if g != w {
                    diff.push_str(&format!("  {label}: {name} {w} -> {g}\n"));
                }
            }
        }
        let mut table = String::from("const TABLE: &[(&str, [u64; 14])] = &[\n");
        for (label, counters) in &actual {
            let cells: Vec<String> = counters.iter().map(u64::to_string).collect();
            table.push_str(&format!("    ({label:?}, [{}]),\n", cells.join(", ")));
        }
        table.push_str("];\n");
        panic!("engine counters moved:\n{diff}actual table:\n{table}");
    }
}
