//! Workloads, the raster oracle and the experiment report of the LyriC
//! reproduction (experiments E1–E17 of EXPERIMENTS.md).
//!
//! The paper (SIGMOD 1995) reports no measured tables; its quantitative
//! content is (a) worked examples with printed answers, (b) the PTIME
//! data-complexity argument of §5, (c) the §1.1 claim that linear
//! constraint technology beats "ad hoc methods working on direct
//! representations", and (d) the §3.1 design of constraint families around
//! polynomial canonical forms and restricted projection. This crate
//! provides everything needed to measure those claims:
//!
//! * [`workload`] — synthetic office databases (scaling §4.1 queries),
//!   chemical-factory LP databases (§1.2), the store-index scaling
//!   database (E16), and random constraint generators for the
//!   canonical-form and projection experiments;
//! * [`gridrep`] — the "ad hoc direct representation" strawman and the
//!   raster oracle: rasterized point sets with bitmap
//!   intersection/containment.
//!
//! The `report` binary (`cargo run -p lyric-bench --bin report --release`)
//! prints every experiment as a markdown table. The workspace's differential test suites draw their databases from
//! [`workload`], and `tests/dnf_differential.rs` checks the DNF algebra
//! against [`gridrep`]'s rasters.

pub mod gridrep;
pub mod workload;
