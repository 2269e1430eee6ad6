//! Store-index differential tests: FROM-binding index probes must be
//! *observationally free*.
//!
//! The planner in `eval.rs` may only change *which extent members get
//! instantiated*, never the answer: for every §4.1 paper query and for
//! seeded office and scaling workloads, evaluation with the index on and
//! off must produce structurally identical results at every thread
//! count and under both box-pruning modes. Accounting invariants ride
//! along: with the index off both index counters are zero; with it on,
//! pruning can only ever *save* downstream work (`sat_checks` and
//! `lp_runs` never increase), and the semantic counters are
//! thread-count-invariant within each configuration.

use lyric::oodb::{ClassDef, Database, Oid, Value};
use lyric::paper_example::box2;
use lyric::{execute, execute_shared, paper_example, ExecOptions};
use lyric_bench::workload::{self, Q_LINEAR};
use proptest::prelude::*;

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

fn opts(threads: usize, boxes: bool, index: bool) -> ExecOptions {
    ExecOptions::default()
        .with_threads(threads)
        .with_boxes(boxes)
        .with_index(index)
}

/// Structural equality plus denotation equality for constraint columns
/// (mirroring the box-pruning differential: no dependence on a syntactic
/// normalization accident).
fn assert_same_answer(a: &lyric::QueryResult, b: &lyric::QueryResult, label: &str) {
    assert_eq!(a, b, "{label}: answers differ");
    for (ar, br) in a.rows.iter().zip(&b.rows) {
        for (ac, bc) in ar.iter().zip(br) {
            if let (Some(x), Some(y)) = (ac.as_cst(), bc.as_cst()) {
                assert!(x.denotes_same(y), "{label}: CST cells not denotation-equal");
            }
        }
    }
}

/// Run one query across the full {threads} × {boxes} × {index} matrix
/// and assert the observational-equivalence bundle. Returns the
/// index-on single-thread boxes-on stats for callers that want to check
/// the probes actually fired.
fn assert_index_free(db: &lyric::oodb::Database, q: &str, label: &str) -> lyric::EngineStats {
    let mut probing_stats = None;
    for boxes in [true, false] {
        for threads in [1usize, 4] {
            let tag = format!("{label} threads={threads} boxes={boxes}");
            let on = execute_shared(db, q, &opts(threads, boxes, true))
                .unwrap_or_else(|e| panic!("{tag}: index-on run failed: {e}"));
            let off = execute_shared(db, q, &opts(threads, boxes, false))
                .unwrap_or_else(|e| panic!("{tag}: index-off run failed: {e}"));
            assert_same_answer(&on, &off, &tag);
            assert_eq!(
                off.stats.index_probes + off.stats.index_pruned,
                0,
                "{tag}: index off must never touch the index layer"
            );
            assert!(
                on.stats.sat_checks <= off.stats.sat_checks,
                "{tag}: pruning added sat checks ({} > {})",
                on.stats.sat_checks,
                off.stats.sat_checks
            );
            assert!(
                on.stats.lp_runs <= off.stats.lp_runs,
                "{tag}: pruning added LP runs ({} > {})",
                on.stats.lp_runs,
                off.stats.lp_runs
            );
            assert!(
                on.stats.index_pruned <= on.stats.index_probes * (db.num_objects() as u64),
                "{tag}: pruned more than the probes could have seen"
            );
            if threads == 1 && boxes {
                probing_stats = Some(on.stats);
            }
            // Semantic counters are thread-count-invariant within one
            // configuration: compare each 4-thread run against its own
            // 1-thread twin.
            if threads == 4 {
                for (mode, res) in [(true, &on), (false, &off)] {
                    let serial = execute_shared(db, q, &opts(1, boxes, mode))
                        .unwrap_or_else(|e| panic!("{tag}: serial twin failed: {e}"));
                    assert_eq!(
                        res.stats.semantic(),
                        serial.stats.semantic(),
                        "{tag} index={mode}: semantic counters vary with thread count"
                    );
                }
            }
        }
    }
    probing_stats.expect("matrix ran")
}

/// Every §4.1 paper query across the full matrix.
#[test]
fn paper_queries_are_index_invariant() {
    let db = paper_example::database();
    for (i, q) in PAPER_QUERIES.iter().enumerate() {
        assert_index_free(&db, q, &format!("paper query {i}"));
    }
}

/// The seeded office workload (the E2 linear probe) across the matrix.
#[test]
fn office_workload_is_index_invariant() {
    let db = workload::office_db(10, 42);
    assert_index_free(&db, Q_LINEAR, "office n=10");
}

/// The scaling workload's selective probes across the matrix — and here
/// the index must actually bite: each probe fires and prunes most of the
/// extent, yet the answers stay bit-identical to the scans above. The
/// same holds on the database reloaded from its snapshot bytes.
#[test]
fn scaling_probes_are_index_invariant_and_actually_prune() {
    let n = 400usize;
    let db = workload::scaling_db(n, 7);
    let bytes = lyric::snapshot::to_bytes(&db).expect("the database encodes");
    let reloaded = lyric::snapshot::from_bytes(&bytes).expect("its snapshot decodes");
    for (label, db) in [("original", &db), ("reloaded", &reloaded)] {
        for (name, q) in [
            ("weight eq", workload::q_weight_eq(123)),
            ("weight range", workload::q_weight_ge(n as i64 - 20)),
            ("region window", workload::q_region_window(n as i64 / 2)),
        ] {
            let name = format!("{label} {name}");
            let stats = assert_index_free(db, &q, &name);
            assert!(stats.index_probes > 0, "{name}: probe never fired: {stats}");
            assert!(
                stats.index_pruned as usize > n / 2,
                "{name}: selective probe pruned too little: {stats}"
            );
        }
    }
}

/// Run an exact probe (numeric weights, box-shaped regions: every
/// candidate is an answer) over `class` through the whole matrix, and
/// check the pruned count is the extent size minus the rows. Returns the
/// answer's oids.
fn assert_exact_probe(db: &Database, class: &str, q: &str, label: &str) -> Vec<Oid> {
    let stats = assert_index_free(db, q, label);
    let res = execute_shared(db, q, &opts(1, true, true)).expect("probed query evaluates");
    assert!(
        stats.index_probes > 0,
        "{label}: probe never fired: {stats}"
    );
    assert_eq!(
        stats.index_pruned,
        (db.extent(class).len() - res.rows.len()) as u64,
        "{label}: index_pruned is not extent − rows"
    );
    res.rows.into_iter().map(|row| row[0].clone()).collect()
}

/// An item of the scaling schema with the 10 × 10 region at `(x, y)`.
fn item_attrs(weight: i64, x: i64, y: i64) -> [(&'static str, Value); 3] {
    [
        ("weight", Value::Scalar(Oid::Int(weight))),
        ("label", Value::Scalar(Oid::str("L0"))),
        (
            "region",
            Value::Scalar(Oid::cst(box2("u", "v", x, x + 10, y, y + 10))),
        ),
    ]
}

/// Binding from the probe's candidate run over a cone whose direct
/// extents overlap — a subclass with members of its own and a view class
/// re-declaring members of both — so summing direct extent sizes
/// over-counts. Then, after each kind of write (an insert inside the
/// probed window, an update moving an item out of it, a CREATE VIEW),
/// the next probed query sees the write.
#[test]
fn probes_bind_exactly_over_overlapping_cones_and_after_writes() {
    let n = 200usize;
    let mut db = workload::scaling_db(n, 5);
    db.add_class(ClassDef::new("Heavy").is_a("Item"))
        .expect("subclass");
    for i in 0..20i64 {
        db.insert(
            Oid::named(format!("heavy_{i}")),
            "Heavy",
            item_attrs(10 * i, 9 * i, 50 * i),
        )
        .expect("heavy insert");
    }
    execute(
        &mut db,
        "CREATE VIEW Light AS SUBCLASS OF Item SELECT X FROM Item X WHERE X.weight < 50",
    )
    .expect("view");
    let direct: usize = ["Item", "Heavy", "Light"]
        .iter()
        .map(|c| db.direct_members(c).len())
        .sum();
    let extent = db.extent("Item").len();
    assert_eq!(extent, n + 20);
    assert!(direct > extent, "direct extents must overlap");
    assert_eq!(db.extent_len("Item"), extent);
    assert_eq!(db.extent_len("Light"), db.extent("Light").len());

    let lo = 90i64;
    let window = workload::q_region_window(lo);
    for (class, q, name) in [
        ("Item", workload::q_weight_eq(30), "cone eq"),
        ("Item", workload::q_weight_ge(150), "cone range"),
        ("Item", window.clone(), "cone window"),
        (
            "Light",
            "SELECT X FROM Light X WHERE X.weight >= 20".to_string(),
            "view range",
        ),
    ] {
        assert_exact_probe(&db, class, &q, name);
    }

    // An insert inside the window is bound by the next probe.
    let fresh = Oid::named("fresh");
    db.insert(fresh.clone(), "Heavy", item_attrs(-1, lo + 2, 500))
        .expect("insert");
    let hits = assert_exact_probe(&db, "Item", &window, "after insert");
    assert!(hits.contains(&fresh), "inserted item missing: {hits:?}");

    // An update moving an item out of the window drops it.
    let moved = hits
        .iter()
        .find(|o| **o != fresh)
        .expect("window has an old item")
        .clone();
    db.set_attr(
        &moved,
        "region",
        Value::Scalar(Oid::cst(box2("u", "v", -500, -490, 0, 10))),
    )
    .expect("update");
    let hits = assert_exact_probe(&db, "Item", &window, "after set_attr");
    assert!(!hits.contains(&moved), "moved item still bound: {hits:?}");
    assert!(hits.contains(&fresh));

    // A CREATE VIEW re-declares more members into the cone.
    execute(
        &mut db,
        &format!(
            "CREATE VIEW Strip AS SUBCLASS OF Item {}",
            workload::q_region_window(lo)
        ),
    )
    .expect("view");
    assert_eq!(db.extent_len("Item"), db.extent("Item").len());
    let hits = assert_exact_probe(&db, "Item", &window, "after CREATE VIEW");
    assert_eq!(db.extent("Strip"), hits);
    assert_exact_probe(
        &db,
        "Strip",
        "SELECT X FROM Strip X WHERE X.weight >= 100",
        "view of the strip",
    );
}

/// Regression for a latent gap: `execute_shared` rejects CREATE VIEW
/// (it mutates the database), and the rejection must hold on the
/// indexed path too — the planner must not pre-build an index or touch
/// the cache slot for a statement that is about to be refused.
#[test]
fn shared_create_view_is_rejected_with_index_on() {
    let db = paper_example::database();
    let generation = db.data_generation();
    let err = execute_shared(
        &db,
        "CREATE VIEW Wide_Desk AS SUBCLASS OF Desk SELECT D FROM Desk D",
        &opts(1, true, true),
    )
    .expect_err("CREATE VIEW must be rejected on the shared path");
    let msg = err.to_string();
    assert!(
        msg.contains("SELECT statements only"),
        "unexpected rejection message: {msg}"
    );
    assert_eq!(
        db.data_generation(),
        generation,
        "a rejected statement must not advance the data generation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded sweep: random office databases stay index-invariant on the
    /// E2 linear query across the whole matrix.
    #[test]
    fn random_office_answers_are_index_invariant(n in 2usize..8, seed in 0u64..500) {
        let db = workload::office_db(n, seed);
        assert_index_free(&db, Q_LINEAR, &format!("office n={n} seed={seed}"));
    }

    /// Seeded sweep: random scaling databases with random probe windows
    /// stay index-invariant — equality, range, and box probes alike.
    #[test]
    fn random_scaling_probes_are_index_invariant(
        n in 20usize..80,
        seed in 0u64..500,
        k in 0i64..100,
    ) {
        let db = workload::scaling_db(n, seed);
        assert_index_free(&db, &workload::q_weight_eq(k), &format!("eq n={n} seed={seed} k={k}"));
        assert_index_free(&db, &workload::q_weight_ge(k), &format!("ge n={n} seed={seed} k={k}"));
        assert_index_free(
            &db,
            &workload::q_region_window(k),
            &format!("window n={n} seed={seed} k={k}"),
        );
    }
}
