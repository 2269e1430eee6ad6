//! Slow-query forensics end to end: with `LYRIC_SLOW_EXPLAIN=1` (here
//! via the programmatic override) and a slow threshold configured, a
//! *plain* `execute_shared` call reroutes through the explained runner
//! and its query-log line carries an `explain` member — the top (≤3)
//! plan nodes by exclusive time, each with node id, operator, self
//! micros and output rows, sorted descending. No caller opted into
//! explain; the log gains the forensics on its own.
//!
//! This lives in its own test binary: the gate is process-global, and
//! while armed it reroutes every logged SELECT in the process.

use lyric::constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
use lyric::metrics::querylog;
use lyric::oodb::{Database, Oid, Value};
use lyric::{execute_shared, paper_example, ExecOptions};

const Q: &str = "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
     FROM Desk DSK
     WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)";

/// Red desks added to the Figure 2 database.
const DESKS: usize = 48;

/// The Figure 2 database plus [`DESKS`] red desks. Every twelfth desk's
/// drawer center lies on the segment `p = 0`, so a few rows come back;
/// every other desk's is a 16-sided polygon around the origin, which
/// does not entail `p = 0`, and deciding that takes LPs over all 16
/// facets. The entailment node's self time therefore dominates by
/// construction: the other operators do a path step or a comparison per
/// desk, or build one small object per answer row.
fn database() -> Database {
    let mut db = paper_example::database();
    let facets: [(i64, i64); 16] = [
        (1, 0),
        (2, 1),
        (1, 1),
        (1, 2),
        (0, 1),
        (-1, 2),
        (-1, 1),
        (-2, 1),
        (-1, 0),
        (-2, -1),
        (-1, -1),
        (-1, -2),
        (0, -1),
        (1, -2),
        (1, -1),
        (2, -1),
    ];
    let term = |v: &str, k: i64| LinExpr::term(Var::new(v), k);
    let standard = Oid::named("standard_desk");
    for i in 0..DESKS {
        let atoms: Vec<Atom> = if i % 12 == 0 {
            vec![
                Atom::eq(term("p", 1), LinExpr::zero()),
                Atom::le(term("q", 1), LinExpr::from(1)),
                Atom::ge(term("q", 1), LinExpr::from(-1)),
            ]
        } else {
            facets
                .iter()
                .enumerate()
                .map(|(j, &(a, b))| {
                    let bound = LinExpr::from(10 + ((i + j) % 5) as i64);
                    Atom::le(&term("p", a) + &term("q", b), bound)
                })
                .collect()
        };
        let center =
            CstObject::from_conjunction(vec![Var::new("p"), Var::new("q")], Conjunction::of(atoms));
        let copy = |attr: &str| {
            db.attr(&standard, attr)
                .cloned()
                .unwrap_or_else(|| panic!("standard_desk has {attr}"))
        };
        let attrs = [
            ("name", Value::Scalar(Oid::str(format!("desk {i}")))),
            ("color", Value::Scalar(Oid::str("red"))),
            ("extent", copy("extent")),
            ("translation", copy("translation")),
            ("drawer_center", Value::Scalar(Oid::cst(center))),
            ("drawer", copy("drawer")),
        ];
        db.insert(Oid::named(format!("red_desk_{i}")), "Desk", attrs)
            .expect("valid insert");
    }
    db
}

/// The store index stays off here: the first query's index build would
/// otherwise land in the `from_bind` span's self time and compete with
/// the entailment check the summary assertions below pin as the hottest
/// operator.
fn opts() -> ExecOptions {
    ExecOptions::default().with_index(false)
}

#[test]
fn slow_log_lines_carry_a_top_nodes_summary() {
    let db = database();
    let buf = querylog::capture();
    querylog::set_slow_ms(Some(0)); // every query is "slow"
    querylog::set_slow_explain(true);

    let res = execute_shared(&db, Q, &opts());

    querylog::set_slow_explain(false);
    querylog::set_slow_ms(None);
    querylog::set_sink(None);
    let res = res.expect("query evaluates");

    let captured = String::from_utf8(buf.lock().unwrap().clone()).expect("log is UTF-8");
    let hash = format!("{:016x}", querylog::query_hash(Q));
    let line = captured
        .lines()
        .find(|l| l.contains(&hash))
        .expect("the query logged exactly while armed");
    let json = lyric::trace::json::parse(line).expect("log line is valid JSON");

    assert_eq!(
        json.get("slow").and_then(|v| match v {
            lyric::trace::Json::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true),
        "threshold 0 marks the query slow: {line}"
    );
    assert_eq!(
        json.get("rows").and_then(|v| v.as_f64()),
        Some(res.rows.len() as f64),
        "the rerouted run logs the real answer cardinality"
    );

    let summary = json
        .get("explain")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("slow line carries an explain array: {line}"));
    assert!(
        !summary.is_empty() && summary.len() <= 3,
        "top-3 summary has 1..=3 nodes, got {}",
        summary.len()
    );
    let mut last_self = f64::INFINITY;
    for entry in summary {
        for key in ["node", "op", "self_us", "rows_out"] {
            assert!(
                entry.get(key).is_some(),
                "summary entry lacks {key:?}: {line}"
            );
        }
        let self_us = entry.get("self_us").and_then(|v| v.as_f64()).unwrap();
        assert!(
            self_us <= last_self,
            "summary is sorted by self time: {line}"
        );
        last_self = self_us;
    }
    // The hottest node of this query is the entailment check, not the root.
    let top_op = summary[0].get("op").and_then(|v| v.as_str()).unwrap();
    assert!(
        ["entails", "select"].contains(&top_op),
        "top node is a real operator, got {top_op:?}"
    );

    // Disarmed, the same plain call logs without an explain member.
    let buf = querylog::capture();
    querylog::set_slow_ms(Some(0));
    let res = execute_shared(&db, Q, &opts());
    querylog::set_slow_ms(None);
    querylog::set_sink(None);
    res.expect("query evaluates");
    let captured = String::from_utf8(buf.lock().unwrap().clone()).expect("log is UTF-8");
    let line = captured
        .lines()
        .find(|l| l.contains(&hash))
        .expect("the query logged while captured");
    let json = lyric::trace::json::parse(line).expect("log line is valid JSON");
    assert!(
        json.get("explain").is_none(),
        "without the gate the line has no explain member: {line}"
    );
}
