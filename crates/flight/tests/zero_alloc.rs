//! Allocator guard for the flight recorder's per-query gate.
//!
//! The query runner consults [`recorder::enabled`] once per query; with
//! the recorder off that gate is the *entire* cost of the feature, so it
//! must be a relaxed atomic load — no heap allocation, ever. A counting
//! global allocator pins that, mirroring the engine's own guard for the
//! disabled tracing path (`crates/engine/tests/trace_overhead.rs`).

use lyric_flight::recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_gates_allocate_nothing() {
    recorder::set_enabled(false);
    // Warm the `Once`-guarded env read outside the measured window.
    let _ = recorder::enabled();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        assert!(!recorder::enabled(), "recorder is off");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled recorder gate allocated {} times",
        after - before
    );
}
