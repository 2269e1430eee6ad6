//! A fixed-capacity ring buffer behind one mutex.
//!
//! The flight recorder keeps the last N completed-query records for the
//! lifetime of the process. Each finished query pushes once, from the
//! query runner's sink; readers are the `/debug/flight` endpoint, the
//! REPL and anomaly dumps, which are rare. One mutex around a
//! `VecDeque` serves that traffic, and it gives the properties a
//! black-box recorder needs (pinned by the proptest layer in
//! `tests/ring_properties.rs`):
//!
//! * **bounded** — the ring never holds more than its capacity, which
//!   is exactly the requested size;
//! * **no loss below capacity** — nothing is evicted until the ring is
//!   full;
//! * **FIFO** — entries are appended under the lock in the order their
//!   pushes take it, eviction discards the oldest, and
//!   [`Ring::snapshot`] returns them oldest first.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// The held entries and the lifetime push count, kept under one lock so
/// a reader sees them agree.
struct State<T> {
    items: VecDeque<T>,
    pushed: u64,
}

/// A bounded multi-producer ring of `T`s; see the module docs for its
/// guarantees.
pub struct Ring<T> {
    state: Mutex<State<T>>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            state: Mutex::new(State {
                items: VecDeque::new(),
                pushed: 0,
            }),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every update leaves the deque and the count valid, so a guard
        // poisoned by a panicking reader's clone is still sound to use.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The bounded capacity, as requested.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total pushes over the ring's lifetime (≥ current length).
    pub fn pushed(&self) -> u64 {
        self.lock().pushed
    }

    /// Append an entry, evicting the oldest one if the ring is full.
    pub fn push(&self, item: T) {
        let mut s = self.lock();
        s.pushed += 1;
        s.items.push_back(item);
        if s.items.len() > self.capacity {
            s.items.pop_front();
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard every entry (the push count keeps advancing).
    pub fn clear(&self) {
        self.lock().items.clear();
    }
}

impl<T: Clone> Ring<T> {
    /// Every held entry, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.lock().items.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_the_requested_size() {
        for cap in [1, 8, 9, 256] {
            assert_eq!(Ring::<u32>::new(cap).capacity(), cap);
        }
    }

    #[test]
    fn below_capacity_nothing_is_lost_and_order_is_fifo() {
        let ring = Ring::new(16);
        for i in 0..16u32 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn above_capacity_the_oldest_entries_are_evicted() {
        let ring = Ring::new(16);
        for i in 0..100u32 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 16);
        let snap = ring.snapshot();
        assert_eq!(snap, (84..100).collect::<Vec<u32>>(), "newest 16 survive");
        assert_eq!(ring.pushed(), 100);
    }

    #[test]
    fn clear_empties_but_keeps_counting() {
        let ring = Ring::new(8);
        ring.push(1u8);
        ring.clear();
        assert!(ring.is_empty());
        ring.push(2u8);
        assert_eq!(ring.pushed(), 2);
        assert_eq!(ring.snapshot(), vec![2u8]);
    }
}
