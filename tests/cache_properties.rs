//! Cache-equivalence properties: memoizing satisfiability/entailment must
//! never change an answer, only skip repeated solves — checked on random
//! conjunctions with the cache on, off, and absent (no engine context).

use lyric::engine::{run, BudgetExceeded, EngineBudget, EngineStats, ExecOptions};
use lyric_bench::workload;
use proptest::prelude::*;

/// Run `f` in an engine context under `budget`, with the memo cache on
/// or off.
fn run_under<T>(
    budget: EngineBudget,
    cache: bool,
    f: impl FnOnce() -> T,
) -> Result<(T, EngineStats), BudgetExceeded> {
    let opts = ExecOptions::default().with_budget(budget).with_cache(cache);
    run(&opts, None, f).map(|(value, stats, _)| (value, stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satisfiability and single-atom entailment answer identically with
    /// the memo cache enabled, disabled, and with no context at all.
    #[test]
    fn cache_never_changes_answers(seed in 0u64..1_000_000) {
        let mut r = workload::rng(seed);
        let c = workload::random_conjunction(&mut r, 4, 8);
        let a = workload::random_atom(&mut r, 4);

        let bare = (c.satisfiable(), c.implies_atom(&a));
        let (cached, _) = run_under(EngineBudget::unlimited(), true, || {
            // Ask twice so the second round actually exercises hits.
            let first = (c.satisfiable(), c.implies_atom(&a));
            let second = (c.satisfiable(), c.implies_atom(&a));
            prop_assert_eq!(first, second);
            first
        })
        .expect("unlimited budget");
        let (uncached, _) = run_under(EngineBudget::unlimited(), false, || {
            (c.satisfiable(), c.implies_atom(&a))
        })
        .expect("unlimited budget");

        prop_assert_eq!(bare, cached);
        prop_assert_eq!(bare, uncached);
    }

    /// DNF simplification (which prunes via cached satisfiability calls)
    /// is also cache-transparent.
    #[test]
    fn simplify_is_cache_transparent(seed in 0u64..1_000_000) {
        let mut r = workload::rng(seed);
        let d = workload::random_dnf(&mut r, 8, 5, 3);
        let bare = d.simplify();
        let (cached, _) =
            run_under(EngineBudget::unlimited(), true, || d.simplify()).expect("unlimited");
        prop_assert_eq!(bare, cached);
    }
}

#[test]
fn repeated_checks_produce_cache_hits() {
    let mut r = workload::rng(11);
    let c = workload::random_satisfiable_conjunction(&mut r, 3, 8);
    let a = workload::random_atom(&mut r, 3);
    let ((), stats) = run_under(EngineBudget::unlimited(), true, || {
        for _ in 0..5 {
            let _ = c.satisfiable();
            let _ = c.implies_atom(&a);
        }
    })
    .expect("unlimited budget");
    // 5 direct sat checks plus one nested `c ∧ ¬a` check from the single
    // entailment miss (the other four entailments answer from the cache
    // without recursing).
    assert_eq!(stats.sat_checks, 6);
    assert_eq!(stats.entailment_checks, 5);
    assert!(
        stats.cache_hits >= 8,
        "4 repeats of each check must hit: {stats}"
    );
    assert!(
        stats.cache_hit_rate().expect("probes happened") > 0.5,
        "hit rate should dominate on a repeated workload: {stats}"
    );
}

#[test]
fn query_evaluation_reuses_cached_answers() {
    // Two FROM bindings probe the same entailment; the second one must be
    // answered from the cache within a single query context.
    let mut db = lyric::paper_example::database();
    let res = lyric::execute(
        &mut db,
        "SELECT DSK FROM Desk DSK, Office_Object CO
         WHERE DSK.drawer_center[C] AND (C(p,q) |= q <= 0)",
    )
    .expect("entailment query evaluates");
    // Two bindings (one per Office_Object) evaluate the same entailment;
    // the duplicate SELECT rows collapse to one.
    assert_eq!(res.rows.len(), 1);
    assert!(res.stats.entailment_checks >= 2, "{}", res.stats);
    assert!(
        res.stats.cache_hits > 0,
        "repeated entailment must hit: {}",
        res.stats
    );
}
