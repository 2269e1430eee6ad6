//! Order-invariance metamorphic relations.
//!
//! LyriC's answer is a set of rows, and neither the order of the FROM
//! items nor the order of the WHERE conjuncts, as long as every selector
//! variable is bound before its first use, nor the order of a `(φ)`'s
//! conjuncts can change it. The evaluator plans a multi-variable SELECT
//! by the text of its WHERE clause: which conjuncts it places at one FROM
//! variable, before the product, and which restricted templates it
//! derives from each `(φ)`. Rewriting the query three ways and comparing
//! row multisets therefore checks the planned path against itself on
//! different placements, with no second evaluator:
//!
//! * every permutation of the FROM items;
//! * a seeded sample of top-level WHERE orders that bind every selector
//!   variable before its first use, drawn one conjunct at a time among
//!   those the static analyzer admits after the ones drawn so far;
//! * a seeded sample of conjunct orders inside each top-level `(φ)`.
//!
//! The corpus is the served pairwise join at the three windows of
//! `counter_table`, the unwindowed E2 join at 8 objects, the paper's desk
//! query (its query 3 of `counter_table`), and the path-only and windowed
//! joins of `binding_allocations`.

use lyric::ast::{Cond, Formula, Query, SelectQuery};
use lyric::oodb::{Database, Oid};
use lyric::{analyze, execute_shared, paper_example, parse_query, AnalyzerOptions, ExecOptions};
use lyric::{LyricError, Severity};
use lyric_bench::workload::{office_db, q_join_window, Q_PAIRWISE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAPER_QUERY_3: &str = "SELECT DSK FROM Object_In_Room O, Desk DSK
     WHERE O.catalog_object[DSK] AND O.location[L]
       AND DSK.drawer_center[C] AND DSK.translation[D]
       AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
       AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
            AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
            AND 0 < u AND u < 20 AND 0 < v AND v < 10)";

const PATH_JOIN: &str = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y
     WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
       AND X.location[LX] AND Y.location[LY]
       AND CX.extent[EX] AND CX.translation[DX]
       AND CY.extent[EY] AND CY.translation[DY]";

const SAT_JOIN: &str = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y
     WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
       AND X.location[LX] AND Y.location[LY]
       AND CX.extent[EX] AND CX.translation[DX]
       AND CY.extent[EY] AND CY.translation[DY]
       AND X != Y
       AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y)
            AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2)
            AND u >= 0 AND u <= 200 AND v >= 0 AND v <= 100)";

/// WHERE orders and `(φ)` orders drawn per query.
const SAMPLES: usize = 4;

/// Every query of the corpus: its label, database and text.
fn corpus() -> Vec<(&'static str, Database, String)> {
    let join_db = office_db(16, 42);
    let small = office_db(8, 42);
    vec![
        ("join 0", join_db.clone(), q_join_window(40, 64, 30, 42)),
        ("join 1", join_db, q_join_window(100, 116, 50, 58)),
        ("join 2", office_db(32, 42), q_join_window(0, 200, 0, 100)),
        ("pairwise", small.clone(), Q_PAIRWISE.to_string()),
        ("paper 3", paper_example::database(), PAPER_QUERY_3.into()),
        ("path join", small.clone(), PATH_JOIN.into()),
        ("sat join", small, SAT_JOIN.into()),
    ]
}

/// The rows of `src` as a sorted multiset, or `None` when the static
/// analyzer rejects the text.
fn rows(db: &Database, src: &str) -> Option<Vec<Vec<Oid>>> {
    let opts = ExecOptions::default().with_threads(1);
    match execute_shared(db, src, &opts) {
        Ok(res) => {
            let mut rows = res.rows;
            rows.sort();
            Some(rows)
        }
        Err(LyricError::Analysis(_)) => None,
        Err(e) => panic!("{src}: {e}"),
    }
}

fn select(src: &str) -> SelectQuery {
    match parse_query(src).expect("the corpus parses") {
        Query::Select(s) => s,
        Query::CreateView(_) => panic!("the corpus holds SELECTs"),
    }
}

/// The leaves of a top-level `AND` tree, left to right.
fn conjuncts(c: &Cond) -> Vec<Cond> {
    match c {
        Cond::And(a, b) => [conjuncts(a), conjuncts(b)].concat(),
        other => vec![other.clone()],
    }
}

fn formula_conjuncts(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::And(a, b) => [formula_conjuncts(a), formula_conjuncts(b)].concat(),
        other => vec![other.clone()],
    }
}

/// A Fisher–Yates shuffle of `items`.
fn shuffled<T: Clone>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

fn and_all(conds: Vec<Cond>) -> Cond {
    let mut it = conds.into_iter();
    let first = it.next().expect("a WHERE clause has a conjunct");
    it.fold(first, |acc, c| Cond::And(Box::new(acc), Box::new(c)))
}

/// Every permutation of `n` indices.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for at in 0..=p.len() {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

#[test]
fn from_permutations_keep_the_rows() {
    for (label, db, src) in corpus() {
        let want = rows(&db, &src).expect("the corpus passes the analyzer");
        let s = select(&src);
        for order in permutations(s.from.len()) {
            let mut q = s.clone();
            q.from = order.iter().map(|&i| s.from[i].clone()).collect();
            let text = Query::Select(q).to_string();
            let got = rows(&db, &text).unwrap_or_else(|| panic!("{label}: {text} rejected"));
            assert_eq!(got, want, "{label}: FROM order {order:?} moved the rows");
        }
    }
}

/// `s` with its WHERE clause the conjunction of `conds`.
fn with_where(s: &SelectQuery, conds: Vec<Cond>) -> Query {
    let mut q = s.clone();
    q.where_clause = Some(and_all(conds));
    Query::Select(q)
}

/// A random order of the top-level WHERE conjuncts of `s` that binds
/// every selector variable before its first use. Each next conjunct is
/// drawn among those after which the analyzer finds no error in the
/// conjuncts drawn so far, with the rest following in the query's order
/// (a name no conjunct of a query brackets would read as a ground oid).
/// The query's own order shows that some remaining conjunct always is.
fn bind_before_use_order(db: &Database, s: &SelectQuery, rng: &mut StdRng) -> Vec<Cond> {
    let mut left = conjuncts(s.where_clause.as_ref().expect("a WHERE clause"));
    let mut order: Vec<Cond> = Vec::new();
    while !left.is_empty() {
        let admitted = |i: usize| {
            let mut rest = left.clone();
            let drawn = [order.clone(), vec![rest.remove(i)]].concat();
            let q = with_where(s, [drawn.clone(), rest].concat());
            let diags = analyze(db.schema(), &q, &AnalyzerOptions::default());
            !diags.iter().any(|d| {
                d.severity == Severity::Error
                    && (drawn.iter().map(Cond::span))
                        .any(|c| c.start <= d.span.start && d.span.end <= c.end)
            })
        };
        let next = (shuffled(&(0..left.len()).collect::<Vec<_>>(), rng).into_iter())
            .find(|&i| admitted(i))
            .expect("the first remaining conjunct in the query's order is admitted");
        order.push(left.remove(next));
    }
    order
}

#[test]
fn where_orders_that_bind_before_use_keep_the_rows() {
    let mut rng = StdRng::seed_from_u64(26);
    for (label, db, src) in corpus() {
        let want = rows(&db, &src).expect("the corpus passes the analyzer");
        let s = select(&src);
        for _ in 0..SAMPLES {
            let text = with_where(&s, bind_before_use_order(&db, &s, &mut rng)).to_string();
            let got = rows(&db, &text).unwrap_or_else(|| panic!("{label}: {text} rejected"));
            assert_eq!(got, want, "{label}: WHERE order moved the rows: {text}");
        }
    }
}

#[test]
fn sat_conjunct_orders_keep_the_rows() {
    let mut rng = StdRng::seed_from_u64(1995);
    for (label, db, src) in corpus() {
        let want = rows(&db, &src).expect("the corpus passes the analyzer");
        let s = select(&src);
        let top = conjuncts(s.where_clause.as_ref().expect("a WHERE clause"));
        if !top.iter().any(|c| matches!(c, Cond::Sat(_))) {
            continue;
        }
        for _ in 0..SAMPLES {
            let reordered = (top.iter())
                .map(|c| match c {
                    Cond::Sat(f) => {
                        let parts = shuffled(&formula_conjuncts(f), &mut rng);
                        let mut it = parts.into_iter();
                        let first = it.next().expect("a formula has a conjunct");
                        Cond::Sat(it.fold(first, |acc, p| Formula::And(Box::new(acc), Box::new(p))))
                    }
                    other => other.clone(),
                })
                .collect();
            let text = with_where(&s, reordered).to_string();
            let got = rows(&db, &text).unwrap_or_else(|| panic!("{label}: {text} rejected"));
            assert_eq!(
                got, want,
                "{label}: (φ) conjunct order moved the rows: {text}"
            );
        }
    }
}
