//! `lyric-store` — the immutable, snapshot-persistent storage layer
//! behind [`lyric_oodb::Database`].
//!
//! Two halves, both dependency-free:
//!
//! * **The store index** ([`StoreIndex`], built by [`index_for`]): a
//!   sorted columnar index over `(class, attribute, scalar value)` with
//!   oid postings for equality/range probes, plus a paged bounding-box
//!   index over CST attributes (each object's `IntervalBox`, packed in
//!   first-axis order into hulled pages — a two-level packed R-tree)
//!   so FROM bindings can be pruned by box intersection *before* any
//!   formula is instantiated. The index is immutable and
//!   generation-stamped: it is built once per
//!   [`Database::data_generation`](lyric_oodb::Database::data_generation)
//!   over each class's whole IS-A cone and cached on the database's
//!   [`IndexSlot`](lyric_oodb::IndexSlot). Any write bumps the
//!   generation, so [`index_for`] never hands out a stale index, and
//!   every probe candidate is a member of the probed class's extent.
//!
//! * **The snapshot container** ([`snapshot`]): a versioned, hand-rolled
//!   binary on-disk format — magic + version header followed by
//!   length-prefixed, FNV-1a-checksummed sections — that `lyric`'s
//!   `Database::{save_snapshot, load_snapshot}` wraps around the textual
//!   object dump. Every corruption mode (truncation, bit flips, version
//!   skew, empty sections, trailing bytes) is detected and reported as a
//!   structured [`snapshot::SnapshotError`].
//!
//! Probe soundness contract: every probe returns a *superset* of the
//! oids that could satisfy the probed predicate under full-scan
//! evaluation, including any object on which the scan would *error*
//! (e.g. an ordered comparison against a non-numeric or missing
//! attribute). Pruning the complement is therefore observationally free.

mod index;
pub mod snapshot;

pub use index::{
    index_for, intersect_sorted, BoxColumn, BoxPage, ScalarColumn, StoreIndex, BOX_PAGE,
};
