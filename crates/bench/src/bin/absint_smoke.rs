//! CI smoke check for the interval abstract domain: the box computed for
//! a conjunction must *contain* everything the exact LP layer can prove
//! about it. Exits nonzero on any soundness violation.
//!
//! Three sweeps:
//!
//! * random conjunctions — an empty box implies LP-unsat, and for
//!   satisfiable conjunctions every per-variable LP extremum lies inside
//!   the box (an LP-unbounded direction forces an infinite box side);
//! * paper queries — every constraint-valued result cell's
//!   `interval_box` contains its `bounding_box` LP extrema;
//! * pruning — a box-disjoint query actually records `box_prunes` with
//!   the store index off, and the index-on run prunes it to the same
//!   empty answer.
//!
//! Run with `cargo run -p lyric-bench --bin absint_smoke --release`.

use lyric::{execute_with_options, paper_example, ExecOptions};
use lyric_arith::Rational;
use lyric_bench::workload;
use lyric_constraint::CstObject;
use lyric_constraint::Interval;

const SEEDS: u64 = 400;

const PAPER_QUERIES: &[&str] = &[
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
     FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
    "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
     FROM Desk DSK
     WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)",
];

/// The box side must admit the LP extremum: a finite box bound may not
/// cut the true extremum off, and an LP-unbounded direction forces an
/// infinite box side.
fn side_sound(box_bound: Option<(&Rational, bool)>, lp: &Option<Rational>, lower: bool) -> bool {
    match (box_bound, lp) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some((b, _)), Some(m)) => {
            if lower {
                b <= m
            } else {
                b >= m
            }
        }
    }
}

/// Check one interval against the LP `(min, max)` pair for a variable.
fn interval_sound(iv: &Interval, lp: &(Option<Rational>, Option<Rational>)) -> bool {
    side_sound(iv.lo(), &lp.0, true) && side_sound(iv.hi(), &lp.1, false)
}

/// Box-vs-LP agreement for one constraint object. Returns an error
/// description on a violation, `Ok(checked_sides)` otherwise.
fn check_object(obj: &CstObject) -> Result<usize, String> {
    let bx = obj.interval_box();
    match obj.bounding_box() {
        None => Ok(0), // LP-unsat: any over-approximation is sound.
        Some(lp) => {
            if bx.is_empty() {
                return Err(format!("empty box but LP-satisfiable: {obj}"));
            }
            for (v, bounds) in obj.free().iter().zip(&lp) {
                let iv = bx.interval(v);
                if !interval_sound(&iv, bounds) {
                    return Err(format!(
                        "box {iv} for {v} excludes LP bounds {:?}..{:?} in {obj}",
                        bounds.0, bounds.1
                    ));
                }
            }
            Ok(2 * lp.len())
        }
    }
}

fn main() {
    let mut failures = 0usize;

    // (a) Random conjunctions: empty box => LP-unsat; otherwise the box
    // contains every per-variable LP extremum.
    let mut sides = 0usize;
    let mut empties = 0usize;
    for seed in 0..SEEDS {
        let mut r = workload::rng(seed);
        let c = workload::random_conjunction(&mut r, 3, 5);
        let free: Vec<_> = c.vars().into_iter().collect();
        let obj = CstObject::from_conjunction(free, c.clone());
        if c.interval_box().is_empty() {
            empties += 1;
            if c.satisfiable() {
                eprintln!("UNSOUND: seed {seed}: empty box but satisfiable: {c}");
                failures += 1;
            }
            continue;
        }
        match check_object(&obj) {
            Ok(n) => sides += n,
            Err(e) => {
                eprintln!("UNSOUND: seed {seed}: {e}");
                failures += 1;
            }
        }
    }
    println!(
        "random conjunctions: {SEEDS} seeds, {empties} box-empty (all LP-confirmed), {sides} LP extrema inside their boxes"
    );

    // (b) Paper queries: every constraint cell's box contains its LP
    // bounding box.
    let mut cells = 0usize;
    for q in PAPER_QUERIES {
        let mut db = paper_example::database();
        let result = execute_with_options(&mut db, q, &ExecOptions::default())
            .expect("paper query evaluates");
        for row in &result.rows {
            for cell in row {
                if let Some(cst) = cell.as_cst() {
                    match check_object(cst) {
                        Ok(_) => cells += 1,
                        Err(e) => {
                            eprintln!("UNSOUND: paper query cell: {e}");
                            failures += 1;
                        }
                    }
                }
            }
        }
    }
    println!("paper queries: {cells} constraint cells box-vs-LP sound");

    // (c) Pruning fires: a query whose window is disjoint from every
    // stored extent must record box prunes and return no rows. The store
    // index would answer it first (no candidate survives the probe), so
    // the box check runs with the index off; the index-on run must give
    // the same empty answer by pruning every candidate itself.
    let mut db = paper_example::database();
    let q = "SELECT D FROM Desk D WHERE D.extent[E] AND (E(w,z) AND w >= 1000 AND z >= 1000)";
    let boxes = ExecOptions::default().with_boxes(true);
    let result = execute_with_options(&mut db, q, &boxes.clone().with_index(false))
        .expect("disjoint query evaluates");
    if !result.rows.is_empty() {
        eprintln!("MISMATCH: disjoint query returned rows");
        failures += 1;
    }
    if result.stats.box_prunes == 0 {
        eprintln!("MISMATCH: disjoint query did not prune: {}", result.stats);
        failures += 1;
    }
    println!(
        "pruning: disjoint query pruned {} of {} box checks",
        result.stats.box_prunes, result.stats.box_checks
    );
    let indexed = execute_with_options(&mut db, q, &boxes.with_index(true))
        .expect("disjoint query evaluates with the index");
    if indexed != result {
        eprintln!("MISMATCH: the index changed the disjoint query's answer");
        failures += 1;
    }
    if indexed.stats.index_pruned == 0 {
        eprintln!("MISMATCH: the index did not prune: {}", indexed.stats);
        failures += 1;
    }
    println!(
        "pruning: the index pruned {} candidates of the same query",
        indexed.stats.index_pruned
    );

    if failures > 0 {
        eprintln!("absint_smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("absint_smoke: ok");
}
