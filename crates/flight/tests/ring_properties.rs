//! Property layer for the one-lock ring buffer.
//!
//! The flight recorder's usefulness rests on three [`Ring`] guarantees
//! (see the module docs in `src/ring.rs`): held entries never exceed the
//! capacity, which is exactly the requested size; nothing is lost while
//! at or below capacity; and `snapshot` returns entries in arrival
//! order, oldest first — so under single-threaded pushes eviction keeps
//! *exactly* the newest `capacity` entries, in push order. A scoped-
//! thread soak pins the concurrent half: no loss below capacity, every
//! entry distinct, and each writer's entries appear in its push order
//! (each push appends under the one lock, so one thread's pushes arrive
//! in the order it made them, and eviction only drops from the front).

use lyric_flight::Ring;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bounded: arbitrary push counts never leave more than `capacity()`
    /// entries held, and the lifetime counter sees every push.
    #[test]
    fn held_entries_never_exceed_capacity(cap in 1usize..200, pushes in 0usize..600) {
        let ring = Ring::new(cap);
        for i in 0..pushes {
            ring.push(i);
        }
        prop_assert!(ring.capacity() >= cap, "capacity only rounds up");
        prop_assert!(ring.len() <= ring.capacity());
        prop_assert_eq!(ring.pushed(), pushes as u64);
    }

    /// No loss at or below capacity, and the snapshot is FIFO.
    #[test]
    fn below_capacity_is_lossless_fifo(cap in 1usize..200) {
        let ring = Ring::new(cap);
        let n = ring.capacity();
        for i in 0..n {
            ring.push(i);
        }
        prop_assert_eq!(ring.snapshot(), (0..n).collect::<Vec<_>>());
    }

    /// Past capacity, eviction discards oldest-first: exactly the newest
    /// `capacity()` entries survive, still in push order.
    #[test]
    fn eviction_keeps_exactly_the_newest_entries(cap in 1usize..100, extra in 1usize..300) {
        let ring = Ring::new(cap);
        let n = ring.capacity() + extra;
        for i in 0..n {
            ring.push(i);
        }
        prop_assert_eq!(ring.len(), ring.capacity());
        prop_assert_eq!(ring.snapshot(), (n - ring.capacity()..n).collect::<Vec<_>>());
    }
}

/// Concurrent writers filling the ring to exactly its capacity: nothing
/// may be evicted, nothing duplicated, and each thread's entries must
/// come back in that thread's push order.
#[test]
fn concurrent_writers_below_capacity_lose_nothing_and_keep_per_thread_order() {
    const THREADS: usize = 8;
    const PER: usize = 64;
    let ring = Ring::new(THREADS * PER);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ring = &ring;
            s.spawn(move || {
                for i in 0..PER {
                    ring.push((t, i));
                }
            });
        }
    });
    let snap = ring.snapshot();
    assert_eq!(snap.len(), THREADS * PER, "at capacity nothing is evicted");
    let distinct: std::collections::BTreeSet<(usize, usize)> = snap.iter().copied().collect();
    assert_eq!(distinct.len(), THREADS * PER, "no entry duplicated");
    for t in 0..THREADS {
        let order: Vec<usize> = snap
            .iter()
            .filter(|(w, _)| *w == t)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(
            order,
            (0..PER).collect::<Vec<_>>(),
            "writer {t} out of order"
        );
    }
}

/// The same soak past capacity: the bound holds under contention and
/// surviving entries still honour per-writer order (eviction only ever
/// removes the oldest entry, so it cannot reorder what remains).
#[test]
fn concurrent_writers_past_capacity_stay_bounded_and_ordered() {
    const THREADS: usize = 8;
    const PER: usize = 200;
    let ring = Ring::new(64);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ring = &ring;
            s.spawn(move || {
                for i in 0..PER {
                    ring.push((t, i));
                }
            });
        }
    });
    assert_eq!(ring.pushed(), (THREADS * PER) as u64);
    let snap = ring.snapshot();
    assert_eq!(
        snap.len(),
        ring.capacity(),
        "full ring holds exactly capacity"
    );
    for t in 0..THREADS {
        let order: Vec<usize> = snap
            .iter()
            .filter(|(w, _)| *w == t)
            .map(|&(_, i)| i)
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "writer {t}'s surviving entries out of order: {order:?}"
        );
    }
}
