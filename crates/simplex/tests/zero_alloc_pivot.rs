//! Allocation guard for the arena-backed simplex hot loop.
//!
//! With the small-coefficient fast path on, a feasibility check over an
//! all-small-coefficient E2-style polytope must perform **zero** global
//! allocations once the thread-local tableau pool is warm: every
//! `Rational` stays in the inline tier, and every tableau buffer (the
//! flat coefficient matrix, rhs, basis, pivot scratch, reduced row, cost
//! row) is recycled from the pool with its capacity intact. A counting
//! global allocator pins this — any `Vec` growth, `BigInt` promotion, or
//! accidental clone in the pivot loop fails the test.

use lyric_arith::Rational;
use lyric_simplex::{LpProblem, Relop};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread: the test harness runs the tests of this file on
    // parallel threads, and a process-wide count would charge one test
    // with the other's allocations. Const-initialized and without a
    // destructor, so reading it from the allocator never allocates.
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

/// An E2-style office-extent feasibility problem: small integer
/// coefficients, a mix of `≤`/`<`/`=` rows, negative right-hand sides
/// (forcing artificial variables and real phase-1 pivots), and enough
/// rows that `phase1` actually iterates.
fn office_polytope() -> LpProblem {
    let r = Rational::from_pair;
    let mut lp = LpProblem::new(4);
    let rows: [(&[i64; 4], Relop, i64); 9] = [
        (&[1, 0, 0, 0], Relop::Le, 20),  // x ≤ 20
        (&[-1, 0, 0, 0], Relop::Le, 0),  // x ≥ 0
        (&[0, 1, 0, 0], Relop::Le, 10),  // y ≤ 10
        (&[0, -1, 0, 0], Relop::Le, -2), // y ≥ 2 (negative rhs row)
        (&[1, 1, 0, 0], Relop::Lt, 25),  // x + y < 25 (strict row)
        (&[2, 3, -1, 0], Relop::Eq, 6),  // 2x + 3y − w = 6 (equality row)
        (&[0, 0, 1, -1], Relop::Le, 4),  // w − z ≤ 4
        (&[0, 0, -2, 1], Relop::Le, -1), // 2w − z ≥ 1
        (&[1, -1, 1, 1], Relop::Le, 30),
    ];
    for (coeffs, relop, rhs) in rows {
        lp.push(coeffs.iter().map(|&c| r(c, 1)).collect(), relop, r(rhs, 1));
    }
    lp
}

#[test]
fn warm_feasibility_check_allocates_nothing() {
    let prev = lyric_arith::set_fast_path(true);
    // Problem construction allocates (coefficient vectors); keep it
    // outside the measured window.
    let lp = office_polytope();

    // Warm up: the first check populates the thread-local tableau pool
    // and grows every buffer to its steady-state capacity.
    assert!(lp.is_feasible(), "the office polytope is feasible");
    assert!(lp.is_feasible());

    let before = allocations();
    for _ in 0..100 {
        assert!(lp.is_feasible());
    }
    let after = allocations();
    lyric_arith::set_fast_path(prev);
    assert_eq!(
        after - before,
        0,
        "warm all-small feasibility checks allocated {} times",
        after - before
    );
}

/// The same workload with the fast path *off* must still be correct —
/// and is expected to allocate (each BigInt numerator/denominator is a
/// heap box), which pins that the guard above is actually measuring the
/// small tier and not a vacuously quiet allocator.
#[test]
fn bigint_tier_control_allocates() {
    let prev = lyric_arith::set_fast_path(false);
    let lp = office_polytope();
    assert!(lp.is_feasible());
    let before = allocations();
    assert!(lp.is_feasible());
    let after = allocations();
    lyric_arith::set_fast_path(prev);
    assert!(
        after > before,
        "BigInt control run unexpectedly allocation-free"
    );
}
