//! Build / host identification, exposed as the `lyric_build_info` metric
//! and stamped into query-log lines and flight-recorder dumps.
//!
//! Production triage starts with "what exactly is running?": a scrape or
//! a black-box dump is only actionable if it names the revision that
//! produced it. This module is the one source of that identity for every
//! surface — the Prometheus exposition (a gauge-style `…_info` metric
//! with the values as labels and a constant sample of 1, the Prometheus
//! idiom for build metadata), the structured query log (`git_rev` on
//! every line), `lyric-flight` anomaly dumps, `GET /version`, and the
//! bench report's `BENCH_report.json`.
//!
//! The revision is fixed when this crate is compiled, by its build
//! script: `git rev-parse --short HEAD` in the source checkout, else the
//! `LYRIC_GIT_REV` variable of the build environment (for source trees
//! without `.git`), else the literal `"unknown"`. A running process never
//! shells out to `git`, so the revision it reports does not depend on the
//! directory it was started from.

use std::sync::OnceLock;

/// The short git revision this build was compiled from, or `"unknown"`.
pub fn git_rev() -> &'static str {
    env!("LYRIC_BUILD_GIT_REV")
}

/// The workspace crate version (`CARGO_PKG_VERSION` of this build).
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The host's available parallelism (1 when unknown), read once per
/// process: `std::thread::available_parallelism` reads the cgroup files
/// on each call.
pub fn host_parallelism() -> usize {
    static HP: OnceLock<usize> = OnceLock::new();
    *HP.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Register the `lyric_build_info` gauge in the global registry (idempotent)
/// and set its constant sample of 1. `lyric-serve` and the REPL call it at
/// startup, so their `/metrics` scrape and `:metrics` table identify the
/// build even before the first query.
pub fn register_build_info() {
    crate::global()
        .gauge_with(
            "lyric_build_info",
            "Build identification; value is constant 1, the identity is in the labels.",
            &[
                ("git_rev", git_rev()),
                ("version", version()),
                ("host_parallelism", &host_parallelism().to_string()),
            ],
        )
        .set(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_stable_and_nonempty() {
        assert!(!git_rev().is_empty());
        assert_eq!(
            git_rev(),
            env!("LYRIC_BUILD_GIT_REV"),
            "fixed at compile time"
        );
        assert_eq!(version(), env!("CARGO_PKG_VERSION"));
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn build_info_gauge_registers_idempotently() {
        register_build_info();
        register_build_info();
        let snap = crate::global().snapshot();
        let fam = snap
            .families
            .iter()
            .find(|f| f.name == "lyric_build_info")
            .expect("registered");
        assert_eq!(
            fam.series.len(),
            1,
            "one series regardless of re-registration"
        );
        let series = &fam.series[0];
        assert!(series
            .labels
            .iter()
            .any(|(k, v)| k == "git_rev" && v == git_rev()));
        assert_eq!(series.value, crate::MetricValue::Gauge(1));
    }
}
