//! Allocation guard for FROM bindings extended by path steps, merged into
//! product bindings, and decided by a `(φ)`.
//!
//! A binding is a shared vector of slots, and each access chain a shared
//! parent-pointer list, so a path step that extends a binding copies
//! pointers and allocates one slot and one chain node; it does not copy
//! the names, oids and chains the binding already holds. A two-variable
//! join runs each variable's path conjuncts once per candidate, before
//! the product, and forms each product binding by merging two candidates'
//! slots and links. A counting global allocator pins three slopes over
//! the E2 office at two sizes, each free of every per-query constant
//! (lexing, parsing, analysis, plan and log records):
//!
//! * allocations per candidate and placed path conjunct;
//! * allocations per product binding of the path-only self-join (the
//!   served pairwise join's eight path conjuncts, with no CST formula, so
//!   the arithmetic mode cannot matter), its candidates' walks taken out;
//! * allocations per pair of the served join whose `(φ)` the window lets
//!   through the per-variable restricted checks.

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
/// each extending the binding by one selector variable, four placed at
/// each FROM variable.
const PATH_JOIN: &str = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y
     WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
       AND X.location[LX] AND Y.location[LY]
       AND CX.extent[EX] AND CX.translation[DX]
       AND CY.extent[EY] AND CY.translation[DY]";

/// One side of [`PATH_JOIN`]: its four path conjuncts at `X`, beside a
/// FROM item whose class has no instances, so no product binding forms.
const PLACED_PATHS: &str = "SELECT X FROM Object_In_Room X, Region R
     WHERE X.catalog_object[CX] AND X.location[LX]
       AND CX.extent[EX] AND CX.translation[DX]";
const PLACED_CONJUNCTS: f64 = 4.0;

/// Allocations per candidate and placed path conjunct must stay under
/// this. It measures about 10.3; the textual plan's slope per binding
/// and path conjunct, under a bound of 24, read about 10.6.
const PLACED_BOUND: f64 = 14.0;

/// Allocations per product binding of [`PATH_JOIN`] must stay under this:
/// the merge of two candidates' slots and links, the binding's answer row
/// and its deduplication. It measures about 24.
const PRODUCT_BOUND: f64 = 30.0;

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

/// Allocations of one run of `query` over `n` room objects, on one
/// engine thread, and its row count.
fn allocations_at(query: &str, n: usize) -> (u64, usize) {
    let opts = ExecOptions::default().with_threads(1);
    let (made, res) = allocations_of(&office_db(n, 42), query, &opts);
    (made, res.rows.len())
}

/// Allocations per candidate and placed path conjunct, between 8 and 16
/// room objects.
fn placed_slope() -> f64 {
    let (small, large) = (8, 16);
    let (a, _) = allocations_at(PLACED_PATHS, small);
    let (b, rows) = allocations_at(PLACED_PATHS, large);
    assert_eq!(rows, 0, "the partner class has no instances");
    (b as f64 - a as f64) / ((large - small) as f64 * PLACED_CONJUNCTS)
}

#[test]
fn path_steps_extend_bindings_without_copying_them() {
    let per_conjunct = placed_slope();
    eprintln!("{per_conjunct:.1} allocations per candidate and placed path conjunct");
    assert!(
        per_conjunct < PLACED_BOUND,
        "{per_conjunct:.1} allocations per candidate and placed path conjunct, \
         bound {PLACED_BOUND}"
    );
}

#[test]
fn product_bindings_merge_without_copying_them() {
    let (small, large) = (8, 16);
    let (a, rows_a) = allocations_at(PATH_JOIN, small);
    let (b, rows_b) = allocations_at(PATH_JOIN, large);
    assert_eq!(
        (rows_a, rows_b),
        (small * small, large * large),
        "every pair binds every path"
    );
    // Both FROM variables' candidates run four placed path conjuncts.
    let walks = 2.0 * (large - small) as f64 * PLACED_CONJUNCTS * placed_slope();
    let bindings = (large * large - small * small) as f64;
    let per_binding = (b as f64 - a as f64 - walks) / bindings;
    eprintln!(
        "{a} allocations at {small} objects, {b} at {large}: \
         {per_binding:.1} per product binding besides the candidates' walks"
    );
    assert!(
        per_binding < PRODUCT_BOUND,
        "{per_binding:.1} allocations per product binding, bound {PRODUCT_BOUND}"
    );
}

/// The served pairwise join with its satisfiability predicate, at the
/// whole 200 × 100 room: every candidate passes its restricted check, so
/// every pair of distinct objects reaches `X != Y` and the full `(φ)`,
/// which the interval box refutes for most of them.
const SAT_JOIN: &str = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y
     WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
       AND X.location[LX] AND Y.location[LY]
       AND CX.extent[EX] AND CX.translation[DX]
       AND CY.extent[EY] AND CY.translation[DY]
       AND X != Y
       AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y)
            AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2)
            AND u >= 0 AND u <= 200 AND v >= 0 AND v <= 100)";

/// Allocations per pair that reaches the full `(φ)` must stay under this,
/// beyond the path join's work: the pair's `X != Y`, its `(φ)` decided on
/// the conjuncts' borrowed atoms, and its share of the restricted checks
/// (two per object, each decided by its interval box). It measures about
/// 55. The textual plan's slope per pair, under a bound of 160, read
/// about 140 with the pair's eight path walks included.
const SAT_BOUND: f64 = 70.0;

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
    let run = |query: &str, n: usize| allocations_of(&office_db(n, 42), query, &opts);
    let (a, _) = run(SAT_JOIN, small);
    let (b, res) = run(SAT_JOIN, large);
    let pairs = |n: usize| n * (n - 1);
    assert!(
        res.stats.sat_checks == pairs(large) as u64
            && 2 * res.stats.box_prunes > res.stats.sat_checks,
        "every pair must reach the full `(φ)`, and the box refute most: {}",
        res.stats
    );
    let (pa, _) = run(PATH_JOIN, small);
    let (pb, _) = run(PATH_JOIN, large);
    let per_pair = ((b - a) as f64 - (pb - pa) as f64) / (pairs(large) - pairs(small)) as f64;
    eprintln!("{a} allocations at {small} objects, {b} at {large}: {per_pair:.1} per pair");
    assert!(
        per_pair < SAT_BOUND,
        "{per_pair:.1} allocations per pair of the served join, bound {SAT_BOUND}"
    );
}
