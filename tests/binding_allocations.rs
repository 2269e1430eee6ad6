//! Allocation guard for FROM bindings extended by path steps.
//!
//! A binding is a shared vector of slots, and each access chain a shared
//! parent-pointer list, so a path step that extends a binding copies
//! pointers and allocates one slot and one chain node; it does not copy
//! the names, oids and chains the binding already holds. A counting global
//! allocator pins the per-binding cost of the path-only self-join (the
//! served pairwise join's eight path conjuncts, with no CST formula, so
//! the arithmetic mode cannot matter) over the E2 office at two sizes.
//! The slope between the two sizes is the allocations per binding, free
//! of every per-query constant (lexing, parsing, analysis, plan and log
//! records).

use lyric::ExecOptions;
use lyric_bench::workload::office_db;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread, so a test running beside this one in the harness is not
    // charged here. Const-initialized and without a destructor, so reading
    // it from the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The served pairwise join without its formula: eight path conjuncts,
/// each extending the binding by one selector variable.
const PATH_JOIN: &str = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y
     WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
       AND X.location[LX] AND Y.location[LY]
       AND CX.extent[EX] AND CX.translation[DX]
       AND CY.extent[EY] AND CY.translation[DY]";
const PATH_CONJUNCTS: f64 = 8.0;

/// Allocations per binding and path conjunct must stay under this. Slots
/// measure about 11; a binding that copies name-keyed maps at every step
/// measures about 76.
const BOUND: f64 = 24.0;

/// Allocations of the second of two runs of `query` over `db` (the first
/// warms up lazily built state: metric handles, thread-local pools), and
/// the second run's result.
fn allocations_of(
    db: &lyric::oodb::Database,
    query: &str,
    opts: &ExecOptions,
) -> (u64, lyric::QueryResult) {
    lyric::execute_shared(db, query, opts).expect("the query runs");
    let before = allocations();
    let res = lyric::execute_shared(db, query, opts).expect("the query runs");
    (allocations() - before, res)
}

/// Allocations of one run of the path join over `n` room objects, on one
/// engine thread.
fn allocations_at(n: usize) -> u64 {
    let opts = ExecOptions::default().with_threads(1);
    let (made, res) = allocations_of(&office_db(n, 42), PATH_JOIN, &opts);
    assert_eq!(res.rows.len(), n * n, "every pair binds every path");
    made
}

#[test]
fn path_steps_extend_bindings_without_copying_them() {
    let (small, large) = (8, 16);
    let (a, b) = (allocations_at(small), allocations_at(large));
    let bindings = (large * large - small * small) as f64;
    let per_binding = (b as f64 - a as f64) / bindings;
    let per_conjunct = per_binding / PATH_CONJUNCTS;
    eprintln!(
        "{a} allocations at {small} objects, {b} at {large}: \
         {per_binding:.1} per binding, {per_conjunct:.1} per binding and path conjunct"
    );
    assert!(
        per_conjunct < BOUND,
        "{per_conjunct:.1} allocations per binding and path conjunct \
         ({per_binding:.1} per binding), bound {BOUND}"
    );
}

/// The served pairwise join with its satisfiability predicate, at a
/// window of the 200 × 100 room that the interval box refutes for most
/// pairs: the eight path conjuncts, `X != Y`, and one `(φ)` per pair of
/// distinct objects.
const SAT_JOIN: &str = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y
     WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
       AND X.location[LX] AND Y.location[LY]
       AND CX.extent[EX] AND CX.translation[DX]
       AND CY.extent[EY] AND CY.translation[DY]
       AND X != Y
       AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y)
            AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2)
            AND u >= 40 AND u <= 64 AND v >= 30 AND v <= 42)";

/// Allocations per pair of the served join must stay under this: the
/// slope counts the pair's bindings, its path steps and its `(φ)`.
/// Deciding each `(φ)` on the conjuncts' borrowed atoms measures about
/// 140 per pair; building the product object for every pair measured
/// about 178.
const SAT_BOUND: f64 = 160.0;

#[test]
fn sat_checks_decide_without_building_the_product() {
    // The databases' coefficients are built inline too, whatever the
    // environment's default mode is.
    lyric_arith::set_fast_path(true);
    let (small, large) = (8, 16);
    let opts = ExecOptions::default()
        .with_threads(1)
        .with_arith_fast(true)
        .with_boxes(true)
        .with_index(true);
    let (a, _) = allocations_of(&office_db(small, 42), SAT_JOIN, &opts);
    let (b, res) = allocations_of(&office_db(large, 42), SAT_JOIN, &opts);
    assert!(
        2 * res.stats.box_prunes > res.stats.sat_checks,
        "the window must let the box refute most pairs: {}",
        res.stats
    );
    let pairs = (large * (large - 1) - small * (small - 1)) as f64;
    let per_pair = (b as f64 - a as f64) / pairs;
    eprintln!("{a} allocations at {small} objects, {b} at {large}: {per_pair:.1} per pair");
    assert!(
        per_pair < SAT_BOUND,
        "{per_pair:.1} allocations per pair of the served join, bound {SAT_BOUND}"
    );
}
