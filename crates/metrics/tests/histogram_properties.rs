//! Property tests for the log-linear histogram and the Prometheus
//! exposition layer.
//!
//! The quantile oracle is a sorted vector: for sampled observation sets
//! and sampled quantiles, the histogram estimate must sit within the
//! bucket-error contract of `lyric_metrics::hist` — never below the true
//! nearest-rank value, and at most `v/16` above it (exact below 16).
//! The Prometheus text format must round-trip (`parse(render(snapshot))`)
//! back to an identical exposition model.

use lyric_metrics::hist::SUB_BUCKETS;
use lyric_metrics::{prometheus, HistSnapshot, Registry};
use proptest::prelude::*;

/// The nearest-rank quantile on a sorted sample — the oracle the
/// histogram estimate is compared against.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Observations spanning the interesting ranges: exact low buckets,
/// octave boundaries, and wide values.
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0..64u64,
        3 => 0..100_000u64,
        2 => 0..10_000_000_000u64,
        1 => Just(u64::MAX),
    ]
}

fn values_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(value_strategy(), 1..200)
}

/// The snapshot of a fresh histogram fed `values`.
fn record(values: &[u64]) -> HistSnapshot {
    let h = Registry::new().histogram("t_values", "recorded values");
    for &v in values {
        h.observe(v);
    }
    h.snapshot()
}

proptest! {
    /// Differential quantiles: for sampled data and sampled q, the
    /// histogram estimate obeys `oracle <= estimate <= oracle + oracle/16`
    /// (and is exact when the oracle value is below [`SUB_BUCKETS`]).
    #[test]
    fn quantile_matches_sorted_oracle(values in values_strategy(), qx in 0..=100u32) {
        let q = qx as f64 / 100.0;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let truth = oracle_quantile(&sorted, q);
        let est = record(&values).quantile(q);
        prop_assert!(est >= truth, "estimate {est} below oracle {truth} at q={q}");
        prop_assert!(
            est - truth <= truth / 16,
            "estimate {est} exceeds oracle {truth} by more than 1/16 at q={q}"
        );
        if truth < SUB_BUCKETS as u64 {
            prop_assert_eq!(est, truth, "low values must be exact");
        }
    }

    /// Count, sum, and max are exact regardless of bucketing, and no
    /// quantile estimate exceeds the max.
    #[test]
    fn count_sum_max_are_exact(values in values_strategy()) {
        let s = record(&values);
        prop_assert_eq!(s.count, values.len() as u64);
        let mut sum = 0u64;
        for &v in &values {
            sum = sum.wrapping_add(v);
        }
        prop_assert_eq!(s.sum, sum);
        prop_assert_eq!(s.max, values.iter().copied().max().unwrap_or(0));
        for q in [0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            prop_assert!(est <= s.max, "q={} estimate {} above max {}", q, est, s.max);
        }
    }

    /// Prometheus round-trip: rendering a registry snapshot and parsing
    /// the text back yields an identical exposition model, and the
    /// histogram's `_count`/`_sum`/`+Inf` samples match the snapshot
    /// exactly.
    #[test]
    fn prometheus_roundtrip(values in values_strategy(), bump in 0..1000u64) {
        let r = Registry::new();
        r.counter("t_events_total", "sampled events").add(bump);
        r.counter_with("t_labeled_total", "labeled events", &[("kind", "a\"b\\c\nd")])
            .add(bump + 1);
        r.gauge("t_level", "a gauge").set(bump);
        let h = r.histogram("t_latency_us", "sampled latency");
        for &v in &values {
            h.observe(v);
        }

        let snap = r.snapshot();
        let model = prometheus::exposition(&snap);
        let text = prometheus::render(&snap);
        let parsed = prometheus::parse(&text).expect("own rendering parses");
        prop_assert_eq!(&parsed, &model, "round-trip changed the model");

        let count = prometheus::sample_value(&parsed, "t_latency_us_count", &[]);
        prop_assert_eq!(count, Some(values.len() as f64));
        let inf = prometheus::sample_value(&parsed, "t_latency_us_bucket", &[("le", "+Inf")]);
        prop_assert_eq!(inf, Some(values.len() as f64));
        let mut sum = 0u64;
        for &v in &values {
            sum = sum.wrapping_add(v);
        }
        let rendered_sum = prometheus::sample_value(&parsed, "t_latency_us_sum", &[]);
        prop_assert_eq!(rendered_sum, Some(sum as f64));
    }

    /// Rendered cumulative bucket counts are exact: every `le` boundary
    /// emitted by the renderer has the form `2^k − 1`, which aligns with a
    /// bucket edge, so the rendered count equals a direct count of
    /// `values <= le`.
    #[test]
    fn rendered_buckets_count_exactly(values in values_strategy()) {
        let r = Registry::new();
        let h = r.histogram("t_exact_us", "exactness check");
        for &v in &values {
            h.observe(v);
        }
        let parsed = prometheus::parse(&prometheus::render(&r.snapshot()))
            .expect("rendering parses");
        let family = parsed
            .families
            .iter()
            .find(|f| f.name == "t_exact_us")
            .expect("histogram family present");
        for sample in &family.samples {
            if !sample.name.ends_with("_bucket") {
                continue;
            }
            let le = &sample.labels.iter().find(|(k, _)| k == "le").expect("le label").1;
            let expected = if le == "+Inf" {
                values.len() as u64
            } else {
                let bound: u64 = le.parse().expect("finite le bounds are integers");
                values.iter().filter(|&&v| v <= bound).count() as u64
            };
            prop_assert_eq!(
                sample.value, expected as f64,
                "bucket le={} reported {} but {} values are <= it",
                le, sample.value, expected
            );
        }
    }
}
