//! The small-coefficient fast-path switch and its per-thread counters.
//!
//! [`Rational`](crate::Rational) keeps two representations: an inline
//! `i64/i64` pair for the small coefficients that dominate real query
//! workloads, and the arbitrary-precision `BigInt` pair it transparently
//! promotes to on overflow. This module owns the *mode switch* between
//! "use the inline path when possible" and "always use `BigInt`" (the
//! measurement baseline), plus the counters that report how often each
//! path ran and how often a small operation had to promote.
//!
//! The switch is **thread-local** so that concurrent engine contexts with
//! different `ExecOptions` cannot race each other: the engine sets the
//! flag on the query thread (and on every pool worker) for the duration
//! of a run and restores the previous value afterwards. A fresh thread
//! starts in the *unset* state and lazily resolves its mode from the
//! `LYRIC_ARITH_FAST` environment variable ([`default_fast_path`]).
//!
//! The counters are likewise thread-local and cumulative for the thread's
//! lifetime; callers (the engine's stat refresh) take snapshots with
//! [`op_counters`] and difference them, exactly like `EngineStats`
//! deltas.

use std::cell::Cell;
use std::sync::OnceLock;

/// Cumulative arithmetic-path counters for the current thread.
///
/// `small_ops + big_ops` is the total number of counted rational
/// operations (add/sub/mul/div/cmp/recip); `promotions` counts the small
/// operations whose exact result no longer fit in `i64/i64` and was
/// promoted to the `BigInt` representation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Operations completed entirely on the inline `i64`/`i128` path.
    pub small_ops: u64,
    /// Operations that ran on the arbitrary-precision `BigInt` path.
    pub big_ops: u64,
    /// Small-path results that overflowed `i64` and promoted to `BigInt`.
    pub promotions: u64,
}

// Mode encoding: 0 = unset (resolve lazily from the environment),
// 1 = fast path off, 2 = fast path on.
thread_local! {
    static MODE: Cell<u8> = const { Cell::new(0) };
    static SMALL_OPS: Cell<u64> = const { Cell::new(0) };
    static BIG_OPS: Cell<u64> = const { Cell::new(0) };
    static PROMOTIONS: Cell<u64> = const { Cell::new(0) };
}

/// The process-wide default for the fast path, read once from the
/// `LYRIC_ARITH_FAST` environment variable: `0`, `off` or `false`
/// (trimmed, any case) disables it; unset or any other value enables it.
/// These are the on/off spellings of every `LYRIC_*` variable (see
/// `lyric_metrics::env`); this crate reads its one variable itself
/// because it has no dependencies.
pub fn default_fast_path() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| fast_path_from(|name| std::env::var(name).ok()))
}

/// [`default_fast_path`] over the variables as `var` reports them.
fn fast_path_from(var: impl Fn(&str) -> Option<String>) -> bool {
    let value = var("LYRIC_ARITH_FAST").map(|v| v.trim().to_ascii_lowercase());
    !matches!(value.as_deref(), Some("0" | "off" | "false"))
}

/// Whether the current thread uses the inline small-coefficient path.
/// Threads that never called [`set_fast_path`] resolve (and then cache)
/// the process default on first use.
#[inline]
pub fn fast_path_enabled() -> bool {
    MODE.with(|m| match m.get() {
        1 => false,
        2 => true,
        _ => {
            let on = default_fast_path();
            m.set(if on { 2 } else { 1 });
            on
        }
    })
}

/// Set the fast-path mode for the current thread, returning the previous
/// effective mode so callers can restore it (the engine brackets each
/// query run this way).
pub fn set_fast_path(on: bool) -> bool {
    let was = fast_path_enabled();
    MODE.with(|m| m.set(if on { 2 } else { 1 }));
    was
}

/// Snapshot of the current thread's cumulative arithmetic-path counters.
pub fn op_counters() -> OpCounters {
    OpCounters {
        small_ops: SMALL_OPS.with(Cell::get),
        big_ops: BIG_OPS.with(Cell::get),
        promotions: PROMOTIONS.with(Cell::get),
    }
}

#[inline]
pub(crate) fn count_small() {
    SMALL_OPS.with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
pub(crate) fn count_big() {
    BIG_OPS.with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
pub(crate) fn count_promotion() {
    PROMOTIONS.with(|c| c.set(c.get().wrapping_add(1)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_returns_previous_mode_and_sticks() {
        let initial = fast_path_enabled();
        assert_eq!(set_fast_path(false), initial);
        assert!(!fast_path_enabled());
        assert!(!set_fast_path(true));
        assert!(fast_path_enabled());
        set_fast_path(initial);
    }

    #[test]
    fn fast_path_variable_takes_the_shared_spellings() {
        let with = |v: Option<&str>| fast_path_from(|_| v.map(str::to_string));
        assert!(with(None), "on when unset");
        for v in ["0", "off", "false", "OFF", " False ", "0\n"] {
            assert!(!with(Some(v)), "{v:?} turns it off");
        }
        for v in ["1", "on", "true", "ON", " True "] {
            assert!(with(Some(v)), "{v:?} turns it on");
        }
        for v in ["", "yes", "2", "of"] {
            assert!(with(Some(v)), "unparsable {v:?} keeps the default");
        }
    }

    #[test]
    fn counters_are_monotonic_snapshots() {
        let before = op_counters();
        count_small();
        count_big();
        count_promotion();
        let after = op_counters();
        assert_eq!(after.small_ops - before.small_ops, 1);
        assert_eq!(after.big_ops - before.big_ops, 1);
        assert_eq!(after.promotions - before.promotions, 1);
    }
}
