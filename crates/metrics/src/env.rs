//! The runtime environment: every `LYRIC_*` variable the engine reads
//! while it runs, parsed once per process.
//!
//! | variable | field | unset |
//! |---|---|---|
//! | `LYRIC_THREADS` | [`Env::threads`] | host parallelism |
//! | `LYRIC_INDEX` | [`Env::index`] | on |
//! | `LYRIC_QUERY_LOG` | [`Env::query_log`] | no log |
//! | `LYRIC_SLOW_MS` | [`Env::slow_ms`] | no threshold |
//! | `LYRIC_SLOW_EXPLAIN` | [`Env::slow_explain`] | off |
//! | `LYRIC_FLIGHT_DIR` | [`Env::flight_dir`] | no dumps |
//!
//! An on/off variable has one spelling, trimmed and in any case: `0`,
//! `off` or `false` turns it off, `1`, `on` or `true` turns it on, and
//! any other value leaves the default. A number or a path that does not
//! parse, or is empty, also leaves the default.
//!
//! `LYRIC_ARITH_FAST` is the one runtime variable read elsewhere, in
//! `lyric-arith`, with the same spellings: that crate has no
//! dependencies, and its `Rational`s also run outside any engine.
//!
//! The process reads its environment through [`get`] on first use.

use std::path::PathBuf;
use std::sync::OnceLock;

/// The parsed runtime environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// `LYRIC_THREADS`, when a positive integer: the default thread
    /// budget.
    pub threads: Option<usize>,
    /// `LYRIC_INDEX`: bind FROM variables through the store index.
    pub index: bool,
    /// `LYRIC_QUERY_LOG`: the query-log target, `stderr` (or `-`) or a
    /// file path to append to.
    pub query_log: Option<String>,
    /// `LYRIC_SLOW_MS`: the slow-query threshold in milliseconds, at most
    /// `i64::MAX`.
    pub slow_ms: Option<u64>,
    /// `LYRIC_SLOW_EXPLAIN`: attach an explain-analyze summary to slow
    /// query-log lines.
    pub slow_explain: bool,
    /// `LYRIC_FLIGHT_DIR`: the directory anomaly dumps are written to.
    pub flight_dir: Option<PathBuf>,
}

impl Env {
    /// Parse the variables as `var` reports them (`None` when unset).
    fn parse(var: impl Fn(&str) -> Option<String>) -> Env {
        let switch =
            |name: &str, default: bool| var(name).and_then(|v| flag(&v)).unwrap_or(default);
        let text = |name: &str| {
            var(name)
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
        };
        Env {
            threads: var("LYRIC_THREADS")
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n >= 1),
            index: switch("LYRIC_INDEX", true),
            query_log: text("LYRIC_QUERY_LOG"),
            slow_ms: var("LYRIC_SLOW_MS")
                .and_then(|v| v.trim().parse::<i64>().ok())
                .and_then(|v| u64::try_from(v).ok()),
            slow_explain: switch("LYRIC_SLOW_EXPLAIN", false),
            flight_dir: text("LYRIC_FLIGHT_DIR").map(PathBuf::from),
        }
    }
}

/// The process environment, read on the first call.
pub fn get() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| Env::parse(|name| std::env::var(name).ok()))
}

/// An on/off value: `Some(false)` for `0`/`off`/`false`, `Some(true)` for
/// `1`/`on`/`true` (trimmed, any case), else `None`.
fn flag(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "0" | "off" | "false" => Some(false),
        "1" | "on" | "true" => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Env {
        Env::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    const OFFS: [&str; 6] = ["0", "off", "false", "OFF", " False ", "0\n"];
    const ONS: [&str; 6] = ["1", "on", "true", "ON", " True ", "1\n"];
    const UNPARSABLE: [&str; 5] = ["", "yes", "2", "of", "enabled"];

    #[test]
    fn every_variable_has_its_default_when_unset() {
        assert_eq!(
            parse(&[]),
            Env {
                threads: None,
                index: true,
                query_log: None,
                slow_ms: None,
                slow_explain: false,
                flight_dir: None,
            }
        );
    }

    #[test]
    fn switches_take_one_spelling_and_keep_their_default_otherwise() {
        type Field = fn(&Env) -> bool;
        let switches: [(&str, bool, Field); 2] = [
            ("LYRIC_INDEX", true, |e| e.index),
            ("LYRIC_SLOW_EXPLAIN", false, |e| e.slow_explain),
        ];
        for (name, default, field) in switches {
            for v in OFFS {
                assert!(!field(&parse(&[(name, v)])), "{name}={v:?}");
            }
            for v in ONS {
                assert!(field(&parse(&[(name, v)])), "{name}={v:?}");
            }
            for v in UNPARSABLE {
                assert_eq!(field(&parse(&[(name, v)])), default, "{name}={v:?}");
            }
        }
    }

    #[test]
    fn threads_takes_a_positive_integer() {
        for (v, want) in [("4", Some(4)), (" 2 ", Some(2)), ("1", Some(1))] {
            assert_eq!(parse(&[("LYRIC_THREADS", v)]).threads, want, "{v:?}");
        }
        for v in ["0", "-1", "four", "", "2.5"] {
            assert_eq!(parse(&[("LYRIC_THREADS", v)]).threads, None, "{v:?}");
        }
    }

    #[test]
    fn slow_ms_takes_a_nonnegative_integer() {
        for (v, want) in [("0", Some(0)), ("250", Some(250)), (" 7 ", Some(7))] {
            assert_eq!(parse(&[("LYRIC_SLOW_MS", v)]).slow_ms, want, "{v:?}");
        }
        for v in ["-5", "soon", "", "1.5", "9223372036854775808"] {
            assert_eq!(parse(&[("LYRIC_SLOW_MS", v)]).slow_ms, None, "{v:?}");
        }
    }

    #[test]
    fn targets_are_trimmed_and_empty_means_unset() {
        let e = parse(&[
            ("LYRIC_QUERY_LOG", " stderr "),
            ("LYRIC_FLIGHT_DIR", "/var/tmp/lyric\n"),
        ]);
        assert_eq!(e.query_log.as_deref(), Some("stderr"));
        assert_eq!(e.flight_dir, Some(PathBuf::from("/var/tmp/lyric")));
        let e = parse(&[("LYRIC_QUERY_LOG", ""), ("LYRIC_FLIGHT_DIR", "  ")]);
        assert_eq!(e.query_log, None);
        assert_eq!(e.flight_dir, None);
    }
}
