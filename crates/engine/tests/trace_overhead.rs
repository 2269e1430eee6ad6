//! Overhead guard for the disabled tracing path.
//!
//! `span` and `trace_event` must be free when no collector is installed:
//! no heap allocation, and the label/event closures never invoked. A
//! counting global allocator pins the first half; diverging closures pin
//! the second.

use lyric_engine::{span, trace_event, EngineBudget, EventKind, ExecOptions, SpanKind};
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
fn disabled_tracing_allocates_nothing() {
    // Install the context outside the measured window: `run` itself
    // allocates (the context, the panic-hook once-init).
    let opts = ExecOptions::default().with_budget(EngineBudget::unlimited());
    let (value, stats, _) = lyric_engine::run(&opts, None, || {
        // Warm up thread-locals before counting.
        let _warm = span(SpanKind::Where, || unreachable!(), None);
        drop(_warm);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            let _g = span(
                SpanKind::SatCheck,
                || unreachable!("label closure must not run"),
                Some((0, 4)),
            );
            trace_event(|| -> EventKind { unreachable!("event closure must not run") });
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "disabled span/event path allocated {} times",
            after - before
        );
    });
    value.expect("unlimited budget");
    assert!(stats.is_zero());
}
