//! Golden corpus pinning every diagnostic code: one positive query (the
//! code fires, with a meaningful span) and one negative query (a nearby
//! correct query stays clean) per `LYAxxx` code, plus a coverage check
//! that the corpus exercises the whole [`codes::ALL`] table.

use lyric::analyze::{analyze_src, AnalyzerOptions};
use lyric::diag::{codes, Diagnostic, Severity};
use lyric::paper_example;

/// Which option set a corpus entry needs to fire.
#[derive(Clone, Copy)]
enum Mode {
    Default,
    Strict,
    Deep,
}

fn opts(mode: Mode) -> AnalyzerOptions {
    match mode {
        Mode::Default => AnalyzerOptions::default(),
        Mode::Strict => AnalyzerOptions::strict(),
        Mode::Deep => AnalyzerOptions::deep(),
    }
}

fn diags(src: &str, mode: Mode) -> Vec<Diagnostic> {
    let db = paper_example::database();
    analyze_src(db.schema(), src, &opts(mode))
}

/// (code, mode, query, substring the span must cover — empty to skip).
const POSITIVES: &[(&str, Mode, &str, &str)] = &[
    (
        codes::SYNTAX,
        Mode::Default,
        "SELECT X FROM Desk X WHERE",
        "",
    ),
    (
        codes::UNKNOWN_CLASS,
        Mode::Default,
        "SELECT X FROM Nonexistent X",
        "Nonexistent",
    ),
    (
        codes::UNKNOWN_ATTRIBUTE,
        Mode::Default,
        "SELECT X FROM Desk X WHERE X.bogus[Y]",
        "bogus",
    ),
    (
        codes::UNBOUND_VARIABLE,
        Mode::Default,
        "SELECT Y FROM Desk X WHERE Y.extent[E] AND X.drawer[Y]",
        "Y.extent[E]",
    ),
    (
        codes::NOT_A_CST,
        Mode::Default,
        "SELECT X FROM Desk X WHERE (X.name AND w <= 1)",
        "X.name",
    ),
    (
        codes::NON_NUMERIC,
        Mode::Default,
        "SELECT X FROM Office_Object X WHERE X.name < 3",
        "X.name",
    ),
    (
        codes::DIMENSION_MISMATCH,
        Mode::Default,
        "SELECT X FROM Desk X WHERE X.extent[E] AND (E(a,b,c))",
        "E(a,b,c)",
    ),
    (
        codes::NONLINEAR_PRODUCT,
        Mode::Default,
        "SELECT D, ((x,y) | x * y <= 1) FROM Desk D",
        "",
    ),
    (
        codes::OBJECTIVE_DIMENSION,
        Mode::Default,
        "SELECT MAX(q SUBJECT TO ((w,z) | E)) FROM Office_Object O WHERE O.extent[E]",
        "MAX",
    ),
    (
        codes::NON_CONJUNCTIVE_NEGATION,
        Mode::Default,
        "SELECT D, ((x) | NOT (x <= 1 OR x >= 3)) FROM Desk D",
        "",
    ),
    (
        codes::OPAQUE_NEGATION,
        Mode::Strict,
        "SELECT X FROM Desk X WHERE X.extent[E] AND (NOT E)",
        "E",
    ),
    (
        codes::UNRESTRICTED_PROJECTION,
        Mode::Strict,
        "SELECT D, ((x,y) | x <= z AND y <= u AND z <= 1 AND u >= 0) FROM Desk D",
        "",
    ),
    (
        codes::DISEQUATION_ELIMINATION,
        Mode::Strict,
        "SELECT D, ((x) | x <= y AND y != 0) FROM Desk D",
        "",
    ),
    (
        codes::DUPLICATE_CST_VARIABLE,
        Mode::Default,
        "SELECT D, ((x,x) | x <= 1) FROM Desk D",
        "",
    ),
    (
        codes::DUPLICATE_FROM_VARIABLE,
        Mode::Default,
        "SELECT X FROM Desk X, Office_Object X",
        "X",
    ),
    (
        codes::UNUSED_BINDING,
        Mode::Default,
        "SELECT X FROM Desk X, Office_Object O",
        "O",
    ),
    (
        codes::TRIVIALLY_UNSAT,
        Mode::Default,
        "SELECT D, ((x) | x <= 1 AND x >= 2) FROM Desk D",
        "",
    ),
    (
        // Box-immune infeasibility: every atom links two variables with
        // unbounded partners, so interval propagation learns nothing and
        // the LP fallback is what proves emptiness.
        codes::LP_UNSAT,
        Mode::Deep,
        "SELECT D, ((x,y) | x <= y AND y <= x AND x + y >= 3 AND x + y <= 1) FROM Desk D",
        "",
    ),
    (
        // No single atom and no single variable is contradictory; only
        // propagating y's bound through x + y <= 4 empties x's interval.
        codes::STATIC_UNSAT,
        Mode::Default,
        "SELECT D, ((x,y) | x >= 2 AND y >= 3 AND x + y <= 4) FROM Desk D",
        "",
    ),
    (
        codes::STATIC_ENTAILED,
        Mode::Default,
        "SELECT D, ((x) | x >= 0 AND x <= 2 AND x <= 5) FROM Desk D",
        "x <= 5",
    ),
    (
        codes::DEAD_DISJUNCT,
        Mode::Default,
        "SELECT D, ((x,y) | (x >= 2 AND y >= 3 AND x + y <= 4) OR x <= 1) FROM Desk D",
        "",
    ),
];

/// Near-miss versions of the positives that must analyze clean under the
/// same options.
const NEGATIVES: &[(Mode, &str)] = &[
    (Mode::Default, "SELECT X FROM Desk X"),
    (Mode::Default, "SELECT X.name FROM Desk X"), // inherited attribute
    // `drawer_center` is declared on subclasses of Office_Object only:
    // the extent may hold desks, so the path is dynamically resolvable.
    (
        Mode::Default,
        "SELECT X FROM Office_Object X WHERE X.drawer_center[C] AND (C)",
    ),
    (
        Mode::Default,
        "SELECT Y FROM Desk X WHERE X.drawer[Y] AND Y.extent[E]",
    ),
    (
        Mode::Default,
        "SELECT X FROM Desk X WHERE (X.extent AND w <= 1)",
    ),
    (
        Mode::Default,
        "SELECT X FROM Office_Object X WHERE X.name = 'desk'",
    ),
    (
        Mode::Default,
        "SELECT X FROM Desk X WHERE X.extent[E] AND (E(a,b))",
    ),
    (
        Mode::Default,
        "SELECT D, ((x,y) | 2 * x - y <= 1) FROM Desk D",
    ),
    (
        Mode::Default,
        "SELECT MAX(w SUBJECT TO ((w,z) | E)) FROM Office_Object O WHERE O.extent[E]",
    ),
    (Mode::Default, "SELECT D, ((x) | NOT (x <= 1)) FROM Desk D"),
    (
        Mode::Strict,
        "SELECT D, ((x) | x <= z AND z <= 1) FROM Desk D",
    ),
    (
        Mode::Strict,
        "SELECT D, ((x,y) | x <= 1 AND y != 0 AND y <= x) FROM Desk D",
    ),
    (
        Mode::Default,
        "SELECT D, ((x,y) | x <= 1 AND y <= 1) FROM Desk D",
    ),
    (Mode::Default, "SELECT X, O FROM Desk X, Office_Object O"),
    (
        Mode::Default,
        "SELECT D, ((x) | x >= 1 AND x <= 2) FROM Desk D",
    ),
    (
        Mode::Deep,
        "SELECT D, ((x,y) | (x <= 0 OR y <= 0) AND x + y >= -3) FROM Desk D",
    ),
    // Relaxing the STATIC_UNSAT positive's sum keeps every box nonempty.
    (
        Mode::Default,
        "SELECT D, ((x,y) | x >= 2 AND y >= 3 AND x + y <= 10) FROM Desk D",
    ),
    // And the relaxed branch is live, so no disjunct is dead.
    (
        Mode::Default,
        "SELECT D, ((x,y) | (x >= 2 AND y >= 3 AND x + y <= 6) OR x <= 1) FROM Desk D",
    ),
];

/// The §4.1 paper queries and the repo's example queries, verbatim. The
/// interval-box lints are always on, so they must never fire on a
/// legitimate query — a false positive here would spam every `:check`.
const PAPER_CORPUS: &[&str] = &[
    "SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']",
    "SELECT O, ((u,v) | E AND D AND L(x,y))
     FROM Office_Object O, Office_Object L
     WHERE O.extent[E] AND O.translation[D] AND L.extent[M]",
    "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
     FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
    "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
     FROM Desk DSK
     WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)",
    "CREATE VIEW Overlap AS SUBCLASS OF Thing
     SELECT first = X, second = Y
     SIGNATURE first => Office_Object, second =>> Office_Object
     FROM Office_Object X, Office_Object Y
     OID FUNCTION OF X, Y
     WHERE X.extent[U] AND Y.extent[V]",
    "SELECT MAX(2*x + y SUBJECT TO ((x,y) | C(x,y) AND x >= 0)) FROM Catalog C2",
    "SELECT D FROM Desk D WHERE D.extent[E] AND (E(w,z) AND w >= 1 AND z >= 1)",
    "SELECT D FROM Desk D WHERE D.extent[E] AND (E(w,z) AND w <= -1 AND z >= 1)",
    "SELECT MAX(w SUBJECT TO ((w,z) | E AND z >= 1)) FROM Desk D WHERE D.extent[E]",
    "SELECT MAX(w SUBJECT TO ((w,z) | E)) FROM Office_Object O WHERE O.extent[E]",
    "SELECT MAX_POINT(z SUBJECT TO ((w,z) | E)) FROM Office_Object O WHERE O.extent[E]",
    "SELECT D FROM Desk D WHERE D.drawer_center[C] AND (C(p,q) AND q != -1)",
    "SELECT D1, D2 FROM Drawer D1, Drawer D2
     WHERE D1.extent[U] AND D2.extent[V] AND (U AND V) AND D1.color = D2.color",
    "SELECT X FROM Desk X WHERE (X.color = 'red' OR X.color = 'blue') AND X.drawer[D] AND (D)",
];

#[test]
fn paper_corpus_is_clean_of_box_lints() {
    let new_codes = [
        codes::STATIC_UNSAT,
        codes::STATIC_ENTAILED,
        codes::DEAD_DISJUNCT,
    ];
    for src in PAPER_CORPUS {
        for mode in [Mode::Default, Mode::Strict] {
            let ds = diags(src, mode);
            let fired: Vec<&Diagnostic> =
                ds.iter().filter(|d| new_codes.contains(&d.code)).collect();
            assert!(
                fired.is_empty(),
                "box lint false positive on paper query {src:?}: {fired:?}"
            );
        }
    }
}

#[test]
fn every_positive_fires_with_span() {
    for (code, mode, src, needle) in POSITIVES {
        let ds = diags(src, *mode);
        let hit = ds.iter().find(|d| d.code == *code).unwrap_or_else(|| {
            panic!("expected {code} for {src:?}, got {ds:?}");
        });
        if !needle.is_empty() {
            assert!(
                !hit.span.is_dummy(),
                "{code} should carry a span for {src:?}: {hit:?}"
            );
            let covered = &src[hit.span.start..hit.span.end];
            assert!(
                covered.contains(needle) || needle.contains(covered),
                "{code} span covers {covered:?}, expected around {needle:?} in {src:?}"
            );
        }
    }
}

#[test]
fn every_negative_is_clean() {
    for (mode, src) in NEGATIVES {
        let ds = diags(src, *mode);
        assert!(
            ds.is_empty(),
            "expected clean analysis for {src:?}, got {ds:?}"
        );
    }
}

#[test]
fn corpus_covers_every_code() {
    let exercised: std::collections::BTreeSet<&str> = POSITIVES.iter().map(|(c, ..)| *c).collect();
    for (code, desc) in codes::ALL {
        assert!(
            exercised.contains(code),
            "no golden query exercises {code} ({desc})"
        );
    }
    assert_eq!(exercised.len(), codes::ALL.len());
}

#[test]
fn severities_are_pinned() {
    let warnings: std::collections::BTreeSet<&str> = [
        codes::OPAQUE_NEGATION,
        codes::UNRESTRICTED_PROJECTION,
        codes::DISEQUATION_ELIMINATION,
        codes::UNUSED_BINDING,
        codes::TRIVIALLY_UNSAT,
        codes::LP_UNSAT,
        codes::STATIC_UNSAT,
        codes::STATIC_ENTAILED,
        codes::DEAD_DISJUNCT,
    ]
    .into_iter()
    .collect();
    for (code, mode, src, _) in POSITIVES {
        let ds = diags(src, *mode);
        let hit = ds.iter().find(|d| d.code == *code).expect("positive fires");
        let expected = if warnings.contains(code) {
            Severity::Warning
        } else {
            Severity::Error
        };
        assert_eq!(hit.severity, expected, "{code} severity for {src:?}");
    }
}

#[test]
fn strict_lints_stay_quiet_by_default() {
    for (code, mode, src, _) in POSITIVES {
        if matches!(mode, Mode::Strict) {
            let ds = diags(src, Mode::Default);
            assert!(
                ds.iter().all(|d| d.code != *code),
                "{code} must be strict-only, fired by default for {src:?}"
            );
        }
    }
}

#[test]
fn rendered_diagnostics_point_at_source() {
    let src = "SELECT X FROM Nonexistent X";
    let ds = diags(src, Mode::Default);
    let text = lyric::diag::render_all(&ds, src);
    assert!(text.contains("error[LYA001]"), "{text}");
    assert!(text.contains("^^^^^^^^^^^"), "{text}");
    assert!(text.contains(src), "{text}");
}

/// The analyzer gate runs before any engine work: a rejected query must
/// never cost a single pivot or FM atom.
#[test]
fn rejected_query_never_reaches_the_engine() {
    let mut db = paper_example::database();
    let opts = lyric_engine::ExecOptions::default();
    let (res, stats, _) = lyric_engine::run(&opts, None, || {
        lyric::execute(
            &mut db,
            "SELECT X FROM Desk X WHERE X.extent[E] AND (E(a,b,c))",
        )
    });
    let res = res.expect("no budget installed");
    assert!(
        matches!(res, Err(lyric::LyricError::Analysis(_))),
        "expected analyzer rejection"
    );
    assert_eq!(stats.pivots, 0, "no simplex work for a rejected query");
    assert_eq!(stats.fm_atoms, 0, "no FM work for a rejected query");
    assert_eq!(stats.sat_checks, 0, "no sat checks for a rejected query");
}

/// Warnings do not gate execution: an unused binding still evaluates.
#[test]
fn warnings_do_not_block_execution() {
    let mut db = paper_example::database();
    let src = "SELECT X FROM Desk X, Office_Object O";
    let ds = analyze_src(db.schema(), src, &AnalyzerOptions::default());
    assert!(ds.iter().any(|d| d.code == codes::UNUSED_BINDING));
    assert!(ds.iter().all(|d| d.severity == Severity::Warning));
    lyric::execute(&mut db, src).expect("warnings are advisory");
}
