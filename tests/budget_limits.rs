//! Evaluation-budget enforcement: adversarial inputs that would otherwise
//! run unbounded must abort promptly with `BudgetExceeded` carrying the
//! limit and the amount consumed — and default (unlimited) budgets must
//! leave every result unchanged.

use lyric::engine::{run, BudgetExceeded, EngineBudget, EngineStats, ExecOptions, Resource};
use lyric::{execute, execute_with_options, LyricError, QueryResult};
use lyric_bench::workload;
use lyric_constraint::Var;
use std::time::{Duration, Instant};

/// Run `f` in an engine context under `budget`.
fn run_under<T>(
    budget: EngineBudget,
    f: impl FnOnce() -> T,
) -> Result<(T, EngineStats), BudgetExceeded> {
    let opts = ExecOptions::default().with_budget(budget);
    let (value, stats, _) = run(&opts, None, f);
    value.map(|value| (value, stats))
}

/// Execute `query` under `budget` (default options otherwise).
fn execute_budgeted(
    db: &mut lyric::oodb::Database,
    query: &str,
    budget: EngineBudget,
) -> Result<QueryResult, LyricError> {
    execute_with_options(db, query, &ExecOptions::default().with_budget(budget))
}

/// A dense conjunction whose all-but-one-variable elimination is far
/// outside the §3.1 restriction: Fourier–Motzkin compounds the |L|·|U|
/// product at every step.
fn dense_conjunction() -> (lyric_constraint::Conjunction, Vec<Var>) {
    let mut r = workload::rng(4242);
    let conj = workload::random_satisfiable_conjunction(&mut r, 10, 40);
    let victims: Vec<Var> = (0..9).map(|i| Var::new(format!("v{i}"))).collect();
    (conj, victims)
}

#[test]
fn fm_blowup_aborts_under_atom_budget() {
    let (conj, victims) = dense_conjunction();
    let started = Instant::now();
    let err = run_under(EngineBudget::unlimited().with_max_fm_atoms(10_000), || {
        conj.eliminate_all(victims.iter())
    })
    .expect_err("40-atom elimination must cross the 10k FM-atom budget");
    assert_eq!(err.resource, Resource::FmAtoms);
    assert_eq!(err.limit, 10_000);
    assert!(err.consumed > err.limit, "{err}");
    // Graceful degradation means promptly, not after the blowup finishes.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "abort was not prompt"
    );
}

#[test]
fn fm_blowup_aborts_under_deadline() {
    let (conj, victims) = dense_conjunction();
    let started = Instant::now();
    let err = run_under(
        EngineBudget::unlimited().with_deadline(Duration::from_millis(100)),
        || conj.eliminate_all(victims.iter()),
    )
    .expect_err("deadline must trip before the elimination completes");
    assert_eq!(err.resource, Resource::Time);
    assert!(err.consumed >= err.limit, "{err}");
    // The clock is checked between atoms, so the overshoot is bounded by
    // one FM step, not by the whole blowup.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "abort was not prompt"
    );
}

#[test]
fn dnf_negation_aborts_under_disjunct_budget() {
    // Negating a k-disjunct DNF multiplies out to ~m^k disjuncts — the
    // exponential corner the paper excludes from the disjunctive family.
    let mut r = workload::rng(7);
    let dnf = workload::random_dnf(&mut r, 12, 6, 3);
    let err = run_under(EngineBudget::unlimited().with_max_disjuncts(20_000), || {
        dnf.negate()
    })
    .expect_err("negation of 12 disjuncts must cross the 20k disjunct budget");
    assert_eq!(err.resource, Resource::Disjuncts);
    assert!(err.consumed > err.limit, "{err}");
}

#[test]
fn query_level_budget_returns_structured_error() {
    let mut db = lyric::paper_example::database();
    // The desk-in-room join: its `(φ)` relates several variables, so no
    // interval box decides it and it needs the simplex.
    let query = "SELECT DSK FROM Object_In_Room O, Desk DSK
         WHERE O.catalog_object[DSK] AND O.location[L]
           AND DSK.drawer_center[C] AND DSK.translation[D]
           AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
           AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
                AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
                AND 0 < u AND u < 20 AND 0 < v AND v < 10)";
    let err = execute_budgeted(&mut db, query, EngineBudget::unlimited().with_max_pivots(1))
        .expect_err("1 pivot cannot evaluate a paper query");
    match err {
        LyricError::BudgetExceeded {
            resource,
            limit,
            consumed,
        } => {
            assert_eq!(resource, Resource::Pivots);
            assert_eq!(limit, 1);
            assert!(consumed > limit);
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
    // The same query under the interactive envelope completes and reports
    // its work.
    let res = execute_budgeted(&mut db, query, EngineBudget::interactive())
        .expect("interactive budget is generous enough for paper queries");
    assert_eq!(res.rows.len(), 1);
    assert!(res.stats.pivots > 0);
    let res = execute(&mut db, query).expect("default options");
    assert!(
        res.stats.lp_runs > 0,
        "the query must still need the LP under default options: {}",
        res.stats
    );
}

#[test]
fn default_budget_leaves_results_unchanged() {
    // The same statements through `execute` (unlimited budget) and
    // `execute_budgeted(interactive)` answer identically.
    let queries = [
        "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
        "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
         FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
        "SELECT MAX(w + z SUBJECT TO ((w,z) | E)), MIN(w SUBJECT TO ((w,z) | E))
         FROM Desk D WHERE D.extent[E]",
    ];
    for q in queries {
        let mut db1 = lyric::paper_example::database();
        let mut db2 = lyric::paper_example::database();
        let unlimited = execute(&mut db1, q).expect("paper query evaluates");
        let budgeted = execute_budgeted(&mut db2, q, EngineBudget::interactive())
            .expect("interactive budget suffices");
        assert_eq!(unlimited, budgeted, "answers must not depend on the budget");
    }
}

#[test]
fn library_results_identical_with_and_without_context() {
    // Raw constraint operations answer the same inside and outside an
    // engine context: instrumentation is observation, not behavior.
    let mut r = workload::rng(99);
    for _ in 0..10 {
        let c = workload::random_conjunction(&mut r, 4, 8);
        let d = workload::random_dnf(&mut r, 6, 4, 3);
        let bare = (c.satisfiable(), d.simplify(), c.find_point());
        let (ctx, stats) = run_under(EngineBudget::unlimited(), || {
            (c.satisfiable(), d.simplify(), c.find_point())
        })
        .expect("unlimited budget");
        assert_eq!(bare.0, ctx.0);
        assert_eq!(bare.1, ctx.1);
        assert_eq!(bare.2.is_some(), ctx.2.is_some());
        assert!(stats.sat_checks > 0, "work was counted: {stats}");
    }
}
