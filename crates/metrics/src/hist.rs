//! Log-linear (HDR-style) histograms over `u64` values.
//!
//! # Bucket layout
//!
//! Values below [`SUB_BUCKETS`] (16) get one exact bucket each. Above
//! that, each power-of-two octave `[2^k, 2^(k+1))` is subdivided into 16
//! linear sub-buckets of width `2^(k-4)`, so a bucket's width is at most
//! 1/16 of its lower bound. Quantile estimation returns the inclusive
//! upper bound of the selected bucket, clamped to the exact maximum,
//! which yields the documented error contract: the estimate `e` for a
//! true quantile value `v` satisfies `v <= e <= v + v/16` — an
//! over-estimate by at most **6.25%**, exact for values below 16, and
//! never above the largest observation. The histogram-oracle
//! differential tests pin exactly this bound.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave; also the bound below
/// which every value has an exact bucket.
pub const SUB_BUCKETS: usize = 16;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;

/// Total bucket count: 16 exact low buckets plus 16 sub-buckets for each
/// of the 60 octaves `k = 4..=63`.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + 60 * SUB_BUCKETS;

/// The bucket index recording value `v`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let k = 63 - v.leading_zeros(); // 2^k <= v < 2^(k+1), k >= 4
    let sub = (v >> (k - SUB_BITS)) as usize - SUB_BUCKETS;
    SUB_BUCKETS * (k as usize - 3) + sub
}

/// The value range `[lo, hi)` covered by bucket `index`; `hi` saturates
/// at `u64::MAX` for the topmost bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS {
        return (index as u64, index as u64 + 1);
    }
    let k = (index / SUB_BUCKETS + 3) as u32;
    let sub = (index % SUB_BUCKETS) as u64;
    let lo = (SUB_BUCKETS as u64 + sub) << (k - SUB_BITS);
    let hi = (SUB_BUCKETS as u128 + sub as u128 + 1) << (k - SUB_BITS);
    (lo, u64::try_from(hi).unwrap_or(u64::MAX))
}

/// A thread-safe histogram: atomic bucket counts plus `count`, `sum`,
/// and an exact `max`. Created through
/// [`Registry::histogram`](crate::Registry::histogram); shared handles
/// are cheap clones.
pub struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl AtomicHistogram {
    pub(crate) fn new() -> Self {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution. Individual fields are
    /// read with relaxed ordering, so a snapshot taken while writers are
    /// active may be mid-observation inconsistent; quiescent snapshots
    /// are exact.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A frozen histogram: bucket counts plus `count`/`sum`/`max`, with
/// quantile estimation under the module-level error contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Exact maximum observed value (0 when empty).
    pub max: u64,
    /// Per-bucket observation counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) under the nearest-rank
    /// definition: the estimate covers the `max(1, ceil(q·count))`-th
    /// smallest observation. Returns the inclusive upper bound of that
    /// observation's bucket, clamped to [`Self::max`] — never below the
    /// true value, at most 6.25% above it (exact below 16), and never
    /// above the largest observation. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The inclusive upper bound: `hi` is exclusive, except for
                // the topmost bucket where it saturates (true bound 2^64),
                // making `u64::MAX` itself the inclusive bound.
                let (_, hi) = bucket_bounds(i);
                let upper = if i == NUM_BUCKETS - 1 { hi } else { hi - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Observations less than or equal to `bound` — exact whenever
    /// `bound + 1` is a bucket boundary (the Prometheus renderer only
    /// emits such bounds, of the form `2^k − 1`).
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        let mut total = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            if hi - 1 <= bound {
                total += n;
            } else if lo > bound {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_hi = 0;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, prev_hi, "gap before bucket {i}");
            assert!(hi > lo);
            prev_hi = hi;
            // The bounds invert the index on both edges.
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi - 1), i);
        }
        assert_eq!(prev_hi, u64::MAX, "layout covers the full u64 range");
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn width_is_at_most_a_sixteenth_of_the_lower_bound() {
        for i in SUB_BUCKETS..NUM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert!((hi - lo) * 16 <= lo, "bucket {i}: [{lo}, {hi})");
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = AtomicHistogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        let p50 = s.p50();
        assert!((50..=54).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((99..=105).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(0.0), 1, "rank clamps to the minimum");
    }

    #[test]
    fn one_observation_reads_back_exactly() {
        // 152 lies in bucket [152, 160): the bucket bound alone would
        // report 159, a latency no query had.
        let h = AtomicHistogram::new();
        h.observe(152);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 152, "q = {q}");
        }
    }

    #[test]
    fn cumulative_le_on_power_boundaries() {
        let h = AtomicHistogram::new();
        for v in [0, 1, 7, 8, 15, 16, 31, 32, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.cumulative_le(0), 1);
        assert_eq!(s.cumulative_le(7), 3);
        assert_eq!(s.cumulative_le(15), 5);
        assert_eq!(s.cumulative_le(31), 7);
        assert_eq!(s.cumulative_le(u64::MAX), 9);
    }
}
