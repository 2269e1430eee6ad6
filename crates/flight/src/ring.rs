//! A fixed-capacity, lock-striped ring buffer.
//!
//! The flight recorder keeps the last N completed-query records for the
//! lifetime of the process.
//! Writers are concurrent queries on arbitrary threads; readers are the
//! `/debug/flight` endpoint and anomaly dumps, which are rare. The
//! classic answer is one mutex around a `VecDeque`, but that serializes
//! every completing query on one lock. Instead the buffer is striped:
//! a global atomic hands out a total-order sequence number, and entry
//! `seq` lives in stripe `seq % STRIPES`, each stripe its own small
//! mutex-guarded deque. Writers touching different stripes never
//! contend; readers lock the stripes one at a time and merge by
//! sequence number.
//!
//! The striping preserves the properties a black-box recorder needs
//! (pinned by the proptest layer in `tests/ring_properties.rs`):
//!
//! * **bounded** — each stripe holds at most `capacity / STRIPES`
//!   entries, so the whole ring never exceeds `capacity` (capacities
//!   are rounded up to a stripe multiple at construction);
//! * **no loss below capacity** — sequence numbers are dealt to stripes
//!   round-robin, so `k ≤ capacity` pushes put at most `capacity /
//!   STRIPES` entries in any stripe: nothing is evicted;
//! * **FIFO** — [`Ring::snapshot`] returns entries sorted by sequence
//!   number, and eviction always discards the lowest sequence in the
//!   fullest stripe, which round-robin dealing keeps within one stripe
//!   "lap" of global FIFO order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of stripes; power of two so the stripe pick is a mask.
const STRIPES: usize = 8;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A bounded multi-producer ring of `T`s; see the module docs for the
/// striping scheme and its guarantees.
pub struct Ring<T> {
    stripes: Vec<Mutex<VecDeque<(u64, T)>>>,
    seq: AtomicU64,
    stripe_cap: usize,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries (rounded up to the next
    /// multiple of the stripe count; minimum one entry per stripe).
    pub fn new(capacity: usize) -> Ring<T> {
        let stripe_cap = capacity.div_ceil(STRIPES).max(1);
        Ring {
            stripes: (0..STRIPES).map(|_| Mutex::new(VecDeque::new())).collect(),
            seq: AtomicU64::new(0),
            stripe_cap,
        }
    }

    /// The bounded capacity (stripe multiple; ≥ the requested capacity).
    pub fn capacity(&self) -> usize {
        self.stripe_cap * STRIPES
    }

    /// Total pushes over the ring's lifetime (≥ current length).
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Append an entry, evicting the oldest entry of its stripe if that
    /// stripe is full. Returns the entry's global sequence number.
    pub fn push(&self, item: T) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut q = lock(&self.stripes[(seq as usize) & (STRIPES - 1)]);
        // Sequence numbers are assigned before the stripe lock is taken,
        // so a slow writer can arrive after a faster, higher-sequence
        // one; insert in sequence order (scanning from the back — the
        // common case is an append).
        let mut at = q.len();
        while at > 0 && q[at - 1].0 > seq {
            at -= 1;
        }
        q.insert(at, (seq, item));
        while q.len() > self.stripe_cap {
            q.pop_front();
        }
        seq
    }

    /// Entries currently held (racy under concurrent pushes; exact when
    /// quiescent).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(s).len()).sum()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard every entry (sequence numbers keep advancing).
    pub fn clear(&self) {
        for s in &self.stripes {
            lock(s).clear();
        }
    }
}

impl<T: Clone> Ring<T> {
    /// Every held entry, oldest first (sorted by sequence number).
    pub fn snapshot(&self) -> Vec<T> {
        let mut all: Vec<(u64, T)> = Vec::with_capacity(self.capacity());
        for s in &self.stripes {
            all.extend(lock(s).iter().cloned());
        }
        all.sort_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, item)| item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_stripe_multiple() {
        assert_eq!(Ring::<u32>::new(1).capacity(), 8);
        assert_eq!(Ring::<u32>::new(8).capacity(), 8);
        assert_eq!(Ring::<u32>::new(9).capacity(), 16);
        assert_eq!(Ring::<u32>::new(256).capacity(), 256);
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
