//! The planned FROM/WHERE path gives way to the textual plan, and reports
//! the textual plan's answer, where it cannot answer as the textual plan
//! does.
//!
//! A SELECT over two FROM variables runs each variable's own conjuncts
//! once per candidate, before the product. That can raise an error the
//! textual plan never reaches, and a placed conjunct that yields several
//! bindings for one candidate would put the product's rows in another
//! order than the textual plan's nested loop. EXPLAIN ANALYZE then names
//! the fallback, and its per-node rows are the textual run's.

use lyric::oodb::Oid;
use lyric::{execute_shared, paper_example, ExecOptions, ExplainReport, QueryResult};

fn run(src: &str) -> QueryResult {
    let db = paper_example::database();
    let opts = ExecOptions::default().with_threads(1);
    execute_shared(&db, src, &opts).unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// The EXPLAIN ANALYZE report of `src`.
fn explained(src: &str) -> ExplainReport {
    let db = paper_example::database();
    let opts = ExecOptions::default().with_threads(1).with_explain(true);
    let res = execute_shared(&db, src, &opts).unwrap_or_else(|e| panic!("{src}: {e}"));
    res.plan.expect("an explained run returns its plan")
}

/// Why an EXPLAIN ANALYZE run of `src` left the planned path.
fn fallback(src: &str) -> Option<String> {
    explained(src).fallback
}

/// Each plan node of `report` in preorder, as `op label`, with its rows
/// in and out.
fn node_rows(report: &ExplainReport) -> Vec<(String, u64, u64)> {
    let analysis = report.analysis.as_ref().expect("an analyzed report");
    let mut out = Vec::new();
    report.plan.walk(&mut |n, _| {
        let obs = &analysis.nodes[n.id as usize];
        out.push((format!("{} {}", n.op, n.label), obs.rows_in, obs.rows_out));
    });
    out
}

#[test]
fn an_error_only_the_planned_run_raises_gets_the_textual_answer() {
    // `Region` has no instances, so the textual plan's product is empty
    // and never reaches the `(φ)`, whose reference names the cabinet's
    // two drawer centers at once. Placed at `X`, the `(φ)` runs on the
    // cabinet and fails.
    let src = "SELECT X, R FROM File_Cabinet X, Region R
               WHERE (X.drawer_center(p1,q1) AND p1 >= 0)";
    assert!(run(src).rows.is_empty());
    let reason = fallback(src).expect("the planned run fails");
    assert!(reason.contains("ambiguous CST reference"), "{reason}");
    // With a partner to pair with, both plans raise the error.
    let both = "SELECT X, Y FROM File_Cabinet X, Office_Object Y
                WHERE (X.drawer_center(p1,q1) AND p1 >= 0)";
    let db = paper_example::database();
    let err = execute_shared(&db, both, &ExecOptions::default()).unwrap_err();
    assert!(err.to_string().contains("ambiguous CST reference"), "{err}");
}

#[test]
fn a_set_valued_placed_path_gets_the_textual_rows_in_order() {
    // The file cabinet's `drawer_center` holds two constraint objects, so
    // the placed path predicate binds `C` twice for the one cabinet.
    let src = "SELECT F, C, D FROM File_Cabinet F, Office_Object D
               WHERE F.drawer_center[C] AND D.name[N]";
    let centers = run("SELECT F, C FROM File_Cabinet F WHERE F.drawer_center[C]").rows;
    let objects = run("SELECT D FROM Office_Object D WHERE D.name[N]").rows;
    assert_eq!((centers.len(), objects.len()), (2, 2));
    // The textual plan's nested loop: the one cabinet, then each office
    // object, then each of the cabinet's drawer centers.
    let want: Vec<Vec<Oid>> = (objects.iter())
        .flat_map(|d| centers.iter().map(move |fc| [&fc[..], &d[..]].concat()))
        .collect();
    assert_eq!(run(src).rows, want);
    let report = explained(src);
    let reason = report.fallback.as_ref().expect("the planned run gives way");
    assert!(reason.contains("several bindings"), "{reason}");
    // The rows are the textual run's alone: the one cabinet, the two
    // office objects, then the WHERE chain on each of the two product
    // bindings. The planned run's (one candidate in, two bindings out at
    // `F`) are not added in.
    let want = [
        ("select ", 4, 4),
        ("from_bind File_Cabinet F", 1, 1),
        ("path_pred F.drawer_center[C]", 2, 4),
        ("from_bind Office_Object D", 1, 2),
        ("path_pred D.name[N]", 4, 4),
        ("where ", 2, 4),
        ("select_item F", 4, 4),
        ("select_item C", 4, 4),
        ("select_item D", 4, 4),
    ]
    .map(|(node, rows_in, rows_out)| (node.to_string(), rows_in, rows_out));
    assert_eq!(node_rows(&report), want);
}
