//! The global metric registry: named counters, gauges, and histograms.
//!
//! Registration is idempotent — asking for an existing name + label set
//! returns a clone of the existing handle, so independent modules (the
//! query runner's sink, the query log, the serve binary) can all register the metrics
//! they touch without coordination. Handles are `Arc`s; the hot
//! recording paths never take the registry lock.
//!
//! A counter or gauge is one shared `AtomicU64`: each series is written
//! once per finished query, by the query runner's sink, or on a rare
//! event (an analyzer rejection, a dump, a refused connection), so one
//! relaxed atomic update is all a write needs.
//!
//! Snapshots (and therefore the Prometheus and table renderings) are
//! deterministic: metrics are kept in a `BTreeMap` ordered by name and
//! then by the sorted label set.

use crate::hist::{AtomicHistogram, HistSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (thread counts,
/// configured thresholds).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replace the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle; see [`crate::hist`] for the bucket layout and
/// quantile error contract.
#[derive(Clone)]
pub struct Histogram(Arc<AtomicHistogram>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.0.observe(v);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.snapshot()
    }
}

/// The kind of a registered metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Value distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric family: kind, help text, and the per-label-set series.
struct Family {
    kind: MetricKind,
    help: String,
    series: BTreeMap<Vec<(String, String)>, Metric>,
}

/// A registry of named metrics. Most code uses the process-wide
/// [`global`] registry; tests may build private ones.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = lock(&self.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` registered as {} and {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(sorted_labels(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Register (or fetch) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a counter with labels. Re-registering the same
    /// name and labels returns the existing handle; the same name with a
    /// different kind panics.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricKind::Counter, || {
            Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or fetch) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or fetch) a gauge with labels. Re-registering the same
    /// name and labels returns the existing handle; the same name with a
    /// different kind panics.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricKind::Gauge, || {
            Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0))))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or fetch) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, &[], MetricKind::Histogram, || {
            Metric::Histogram(Histogram(Arc::new(AtomicHistogram::new())))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// A deterministic point-in-time copy of every registered metric,
    /// ordered by family name and then label set.
    pub fn snapshot(&self) -> Snapshot {
        let families = lock(&self.families);
        Snapshot {
            families: families
                .iter()
                .map(|(name, fam)| FamilySnapshot {
                    name: name.clone(),
                    kind: fam.kind,
                    help: fam.help.clone(),
                    series: fam
                        .series
                        .iter()
                        .map(|(labels, metric)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match metric {
                                Metric::Counter(c) => MetricValue::Counter(c.value()),
                                Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// The process-wide registry used by the engine instrumentation, the
/// query log, the REPL `:metrics` command, and `lyric-serve`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A frozen copy of a registry; see [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Families ordered by name.
    pub families: Vec<FamilySnapshot>,
}

/// One metric family in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct FamilySnapshot {
    /// Family name (`lyric_queries_total`, …).
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Help text from the first registration.
    pub help: String,
    /// Series ordered by label set.
    pub series: Vec<SeriesSnapshot>,
}

/// One labelled series of a family.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnapshot {
    /// Sorted `(key, value)` label pairs; empty for unlabelled metrics.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

/// A frozen metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram distribution.
    Histogram(HistSnapshot),
}

fn format_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// Render a snapshot as a human-readable table (the REPL `:metrics`
/// view). Histograms show count, quantile estimates, max, and sum.
pub fn render_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    for fam in &snap.families {
        for series in &fam.series {
            let name = format!("{}{}", fam.name, format_labels(&series.labels));
            match &series.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name:<56} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name:<56} count={} p50={} p90={} p99={} max={} sum={}\n",
                        h.count,
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.max,
                        h.sum
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("c_total", "a counter");
        let b = r.counter("c_total", "a counter");
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3, "both handles hit the same cells");
    }

    #[test]
    fn labelled_series_are_distinct_and_sorted() {
        let r = Registry::new();
        let x = r.counter_with("t_total", "t", &[("b", "2"), ("a", "1")]);
        let y = r.counter_with("t_total", "t", &[("a", "1"), ("b", "2")]);
        let z = r.counter_with("t_total", "t", &[("a", "other")]);
        x.inc();
        y.inc();
        z.add(5);
        assert_eq!(x.value(), 2, "label order does not matter");
        assert_eq!(z.value(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].series.len(), 2);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("same_name", "x");
        let _ = r.gauge("same_name", "x");
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let r = Registry::new();
        let c = r.counter("striped_total", "x");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn snapshot_is_ordered_by_name() {
        let r = Registry::new();
        let _ = r.gauge("zz_gauge", "z");
        let _ = r.counter("aa_total", "a");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["aa_total", "zz_gauge"]);
    }
}
