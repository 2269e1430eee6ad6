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

/// Allocations of one run of the path join over `n` room objects, on one
/// engine thread.
fn allocations_at(n: usize) -> u64 {
    let db = office_db(n, 42);
    let opts = ExecOptions::default().with_threads(1);
    // Warm up lazily built state (metric handles, thread-local pools).
    lyric::execute_shared(&db, PATH_JOIN, &opts).expect("the path join runs");
    let before = allocations();
    let res = lyric::execute_shared(&db, PATH_JOIN, &opts).expect("the path join runs");
    let made = allocations() - before;
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
