//! The index handout of a parallel region.
//!
//! [`Cursor`] hands out `0..total` from one shared atomic counter: each
//! worker takes the next index when it is ready for one, so a worker
//! whose items run long simply takes fewer of them, and no range needs
//! stealing back. The cursor hands out *indices*, never item references,
//! so the caller reassembles results in index order whichever worker
//! evaluated which index.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub(crate) struct Cursor {
    next: AtomicUsize,
    total: usize,
    aborted: AtomicBool,
}

impl Cursor {
    /// A cursor over `0..total`.
    pub(crate) fn new(total: usize) -> Cursor {
        Cursor {
            next: AtomicUsize::new(0),
            total,
            aborted: AtomicBool::new(false),
        }
    }

    /// Stop handing out indices (a sibling worker panicked); in-flight
    /// items finish, queued ones are abandoned.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// The next index, or `None` when the region is drained or aborted.
    pub(crate) fn next(&self) -> Option<usize> {
        if self.aborted.load(Ordering::Relaxed) {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    #[test]
    fn every_index_is_handed_out_exactly_once() {
        const TOTAL: usize = 1_000;
        const WORKERS: usize = 4;
        let q = Cursor::new(TOTAL);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(i) = q.next() {
                        mine.push(i);
                    }
                    seen.lock().unwrap().extend(mine);
                });
            }
        });
        let got = seen.into_inner().unwrap();
        assert_eq!(got.len(), TOTAL, "no index dropped or duplicated");
        let distinct: BTreeSet<usize> = got.into_iter().collect();
        assert_eq!(distinct.len(), TOTAL);
        assert_eq!(distinct.last(), Some(&(TOTAL - 1)));
    }

    #[test]
    fn abort_stops_the_handout() {
        let q = Cursor::new(100);
        assert!(q.next().is_some());
        q.abort();
        assert_eq!(q.next(), None);
        assert_eq!(q.next(), None);
    }
}
