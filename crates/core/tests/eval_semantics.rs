//! Evaluator-semantics edge cases beyond the paper's worked examples:
//! Boolean structure over bindings, set comparisons, attribute variables,
//! multi-valued SELECT items, and typed failure modes.

use lyric::paper_example::{box2, point2, translation2};
use lyric::{execute, paper_example, LyricError};
use lyric_oodb::{Database, Oid, Value};

fn db() -> Database {
    paper_example::database()
}

#[test]
fn or_unions_bindings() {
    let mut db = db();
    // Red or grey catalog objects: desk (red) and cabinet (grey).
    let res = execute(
        &mut db,
        "SELECT X FROM Office_Object X WHERE X.color = 'red' OR X.color = 'grey'",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 2);
    // OR with a binding branch: either the object has a drawer or it is
    // grey. Both branches match the cabinet — rows dedup.
    let res = execute(
        &mut db,
        "SELECT X FROM Office_Object X WHERE X.drawer[D] OR X.color = 'grey'",
    )
    .unwrap();
    // Desk (has drawer), cabinet (has drawer AND grey — deduplicated per
    // binding of X? The drawer binding differs, so dedup keys on (X, D)).
    // Selecting X only, rows dedup to 2.
    assert_eq!(res.rows.len(), 2);
}

#[test]
fn not_filters_without_binding() {
    let mut db = db();
    let res = execute(
        &mut db,
        "SELECT X FROM Office_Object X WHERE NOT X.color = 'red'",
    )
    .unwrap();
    assert_eq!(res.rows, vec![vec![Oid::named("standard_cabinet")]]);
    // Double negation.
    let res = execute(
        &mut db,
        "SELECT X FROM Office_Object X WHERE NOT NOT X.color = 'red'",
    )
    .unwrap();
    assert_eq!(res.rows, vec![vec![Oid::named("standard_desk")]]);
    // NOT over a path predicate: objects without a drawer.
    let res = execute(
        &mut db,
        "SELECT X FROM Office_Object X WHERE NOT X.drawer[D]",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 0); // both catalog objects have drawers
}

#[test]
fn contains_compares_value_sets() {
    let mut db = db();
    // The cabinet's set of drawer centers CONTAINS each single one.
    let res = execute(
        &mut db,
        "SELECT F FROM File_Cabinet F WHERE F.drawer_center CONTAINS F.drawer_center",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 1);
    // A set does not contain a disjoint literal.
    let res = execute(
        &mut db,
        "SELECT F FROM File_Cabinet F WHERE F.name CONTAINS 'nope'",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 0);
}

#[test]
fn multi_valued_select_item_produces_row_per_value() {
    let mut db = db();
    // Selecting the (set-valued) drawer_center directly: one row per
    // member.
    let res = execute(&mut db, "SELECT F, F.drawer_center FROM File_Cabinet F").unwrap();
    assert_eq!(res.rows.len(), 2);
    assert!(res
        .rows
        .iter()
        .all(|r| r[0] == Oid::named("standard_cabinet")));
}

#[test]
fn attribute_variable_enumerates_attributes() {
    let mut db = db();
    // Attribute variables range over stored attributes; selecting the
    // variable yields the attribute names (as string oids).
    let res = execute(&mut db, "SELECT A FROM Drawer D WHERE D.A[V]").unwrap();
    let mut names: Vec<String> = res
        .rows
        .iter()
        .map(|r| r[0].as_str().expect("attr name").to_string())
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names, vec!["extent".to_string(), "translation".to_string()]);
}

#[test]
fn attribute_variable_dimension_error_is_reported() {
    let mut db = db();
    let err = execute(
        &mut db,
        "SELECT A FROM Drawer D WHERE D.A[V] AND (V(a,b) AND a = 0)",
    )
    .unwrap_err();
    assert!(matches!(err, LyricError::DimensionMismatch { .. }), "{err}");
}

#[test]
fn ordered_comparison_requires_numbers() {
    let mut db = db();
    // Caught statically: `name` is a string attribute.
    let src = "SELECT X FROM Office_Object X WHERE X.name < 3";
    let err = execute(&mut db, src).unwrap_err();
    assert!(
        matches!(&err, LyricError::Analysis(ds) if ds.iter().any(|d| d.code == "LYA011")),
        "{err}"
    );
    // The evaluator reports the same failure when analysis is skipped.
    let err = lyric::execute_unchecked(&mut db, src).unwrap_err();
    assert!(matches!(err, LyricError::TypeError(_)), "{err}");
}

#[test]
fn numeric_comparisons_normalize_int_and_rational() {
    let mut schema = lyric::oodb::Schema::new();
    schema
        .add_class(
            lyric::oodb::ClassDef::new("Meter").attr(lyric::oodb::AttrDef::scalar(
                "reading",
                lyric::oodb::AttrTarget::class("real"),
            )),
        )
        .unwrap();
    let mut db = Database::new(schema).unwrap();
    db.insert(
        Oid::named("m1"),
        "Meter",
        [("reading", Value::Scalar(Oid::Int(3)))],
    )
    .unwrap();
    db.insert(
        Oid::named("m2"),
        "Meter",
        [(
            "reading",
            Value::Scalar(Oid::Rat(lyric_arith::Rational::from_pair(7, 2))),
        )],
    )
    .unwrap();
    let res = execute(&mut db, "SELECT M FROM Meter M WHERE M.reading = 3").unwrap();
    assert_eq!(res.rows, vec![vec![Oid::named("m1")]]);
    let res = execute(&mut db, "SELECT M FROM Meter M WHERE M.reading > 3.25").unwrap();
    assert_eq!(res.rows, vec![vec![Oid::named("m2")]]);
}

#[test]
fn ground_selector_roots_traverse() {
    let mut db = db();
    // A ground oid (standard_desk) as path root, no FROM binding needed
    // for it.
    let res = execute(&mut db, "SELECT standard_desk.drawer.extent FROM Desk D").unwrap();
    assert_eq!(res.rows.len(), 1);
    let extent = res.rows[0][0].as_cst().unwrap();
    assert!(extent.denotes_same(&box2("w", "z", -1, 1, -1, 1)));
}

#[test]
fn shared_selector_variable_joins() {
    let mut db = db();
    // Two room objects whose catalog objects share a drawer object: none
    // in Figure 2 (each catalog object has its own drawer)...
    let res = execute(
        &mut db,
        "SELECT X, Y FROM Office_Object X, Office_Object Y
         WHERE X.drawer[D] AND Y.drawer[D] AND X != Y",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 0);
    // ...until we add a second desk sharing the standard drawer.
    db.insert(
        Oid::named("clone_desk"),
        "Desk",
        [
            ("name", Value::Scalar(Oid::str("clone"))),
            ("color", Value::Scalar(Oid::str("blue"))),
            (
                "extent",
                Value::Scalar(Oid::cst(box2("w", "z", -4, 4, -2, 2))),
            ),
            ("translation", Value::Scalar(Oid::cst(translation2()))),
            (
                "drawer_center",
                Value::Scalar(Oid::cst(lyric::paper_example::point2("p", "q", -2, 0))),
            ),
            ("drawer", Value::Scalar(Oid::named("standard_drawer"))),
        ],
    )
    .unwrap();
    let res = execute(
        &mut db,
        "SELECT X, Y FROM Office_Object X, Office_Object Y
         WHERE X.drawer[D] AND Y.drawer[D] AND X != Y",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 2); // the pair in both orders
}

#[test]
fn empty_from_extent_yields_no_rows() {
    let mut db = db();
    execute(
        &mut db,
        "CREATE VIEW Empty_Class AS SUBCLASS OF Desk
         SELECT X FROM Desk X WHERE X.color = 'chartreuse'",
    )
    .unwrap();
    let res = execute(&mut db, "SELECT X FROM Empty_Class X").unwrap();
    assert!(res.rows.is_empty());
}

#[test]
fn where_clause_order_allows_forward_binding_chains() {
    let mut db = db();
    // D bound in the first conjunct is traversed by the second.
    let res = execute(
        &mut db,
        "SELECT E FROM Desk X WHERE X.drawer[D] AND D.extent[E]",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 1);
}

#[test]
fn location_update_via_point_helper() {
    // point2 + set_attr round-trip, exercising the full update path used
    // by the examples.
    let mut db = db();
    db.set_attr(
        &Oid::named("my_desk"),
        "location",
        Value::Scalar(Oid::cst(point2("x", "y", 1, 1))),
    )
    .unwrap();
    let res = execute(
        &mut db,
        "SELECT O FROM Object_In_Room O WHERE O.location[L] AND (L(x,y) AND x = 1 AND y = 1)",
    )
    .unwrap();
    assert_eq!(res.rows, vec![vec![Oid::named("my_desk")]]);
}

#[test]
fn unknown_attribute_reports_searched_is_a_chain() {
    let mut db = db();
    // The evaluator walks the IS-A chain from the static class of the
    // step upward; the error reports exactly the classes it inspected.
    let err =
        lyric::execute_unchecked(&mut db, "SELECT X FROM Desk X WHERE X.whatever[Y]").unwrap_err();
    match err {
        LyricError::UnknownAttribute {
            class,
            attr,
            searched,
        } => {
            assert_eq!(class, "Desk");
            assert_eq!(attr, "whatever");
            assert_eq!(
                searched,
                vec!["Desk".to_string(), "Office_Object".to_string()]
            );
        }
        other => panic!("expected UnknownAttribute, got {other:?}"),
    }
    // The rendered message includes the chain, so a user can see which
    // classes were consulted.
    let msg = lyric::execute_unchecked(&mut db, "SELECT X FROM Desk X WHERE X.whatever[Y]")
        .unwrap_err()
        .to_string();
    assert!(
        msg.contains("searched IS-A chain: Desk -> Office_Object"),
        "{msg}"
    );
}

/// The Figure 2 room with a third object: a second instance of the
/// standard desk, so two room objects share one catalog object.
fn three_object_room() -> Database {
    let mut db = db();
    db.insert(
        Oid::named("my_desk2"),
        "Object_In_Room",
        [
            ("inv_number", Value::Scalar(Oid::str("22-356"))),
            ("location", Value::Scalar(Oid::cst(point2("x", "y", 30, 8)))),
            ("catalog_object", Value::Scalar(Oid::named("standard_desk"))),
        ],
    )
    .unwrap();
    db
}

/// The `w` range of each room object's catalog extent.
fn extent_w(room_object: &Oid) -> (i64, i64) {
    match room_object {
        Oid::Named(n) if n == "my_cabinet" => (-1, 1),
        _ => (-4, 4),
    }
}

/// Two references alias exactly when they reach the same access chain,
/// which depends on the binding: in a self-join, the diagonal bindings
/// (X = Y) reach one chain, so `EX(w,z)` and `EY(w2,z2)` share their
/// declared variables and `w = w2` is injected, while the off-diagonal
/// ones, even the two desks sharing `standard_desk`, get no equality.
#[test]
fn implicit_equalities_follow_aliased_access_chains() {
    let mut db = three_object_room();
    let join = "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y \
                WHERE X.catalog_object[CX] AND Y.catalog_object[CY] \
                AND CX.extent[EX] AND CY.extent[EY] AND (EX(w,z) AND EY(w2,z2)";
    let bounded = execute(&mut db, &format!("{join} AND w >= 1 AND w2 <= -1)")).unwrap();
    assert_eq!(bounded.rows.len(), 6, "{bounded}");
    assert!(
        bounded.rows.iter().all(|r| r[0] != r[1]),
        "exactly the off-diagonal pairs: {bounded}"
    );
    let free = execute(&mut db, &format!("{join})")).unwrap();
    assert_eq!(free.rows.len(), 9, "every pair without the bounds: {free}");
}

/// The same aliasing shapes a SELECT formula: on the diagonal the item is
/// the line `w = w2` over the extent, elsewhere the product of the two
/// extents' `w` ranges.
#[test]
fn select_formula_equalities_follow_aliased_access_chains() {
    use lyric::constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
    let mut db = three_object_room();
    let res = execute(
        &mut db,
        "SELECT X, Y, ((w,w2) | EX(w,z) AND EY(w2,z2)) \
         FROM Object_In_Room X, Object_In_Room Y \
         WHERE X.catalog_object[CX] AND Y.catalog_object[CY] \
         AND CX.extent[EX] AND CY.extent[EY]",
    )
    .unwrap();
    assert_eq!(res.rows.len(), 9, "{res}");
    for row in &res.rows {
        let got = row[2].as_cst().expect("a constraint object");
        let (xlo, xhi) = extent_w(&row[0]);
        let (ylo, yhi) = extent_w(&row[1]);
        let want = if row[0] == row[1] {
            let w = || LinExpr::var(Var::new("w"));
            CstObject::from_conjunction(
                vec![Var::new("w"), Var::new("w2")],
                Conjunction::of([
                    Atom::eq(w(), LinExpr::var(Var::new("w2"))),
                    Atom::ge(w(), LinExpr::from(xlo)),
                    Atom::le(w(), LinExpr::from(xhi)),
                ]),
            )
        } else {
            box2("w", "w2", xlo, xhi, ylo, yhi)
        };
        assert!(
            got.denotes_same(&want),
            "{} x {}: got {got}, want {want}",
            row[0],
            row[1]
        );
    }
}

/// Repeated answer rows are dropped and the rest keep the order of their
/// first occurrence: the room objects bind in oid order, and the first
/// one's catalog object, `standard_desk`, sorts after the second's.
#[test]
fn repeated_rows_keep_first_occurrence_order() {
    let mut db = three_object_room();
    db.insert(
        Oid::named("a_desk"),
        "Object_In_Room",
        [
            ("inv_number", Value::Scalar(Oid::str("22-357"))),
            ("location", Value::Scalar(Oid::cst(point2("x", "y", 50, 8)))),
            ("catalog_object", Value::Scalar(Oid::named("standard_desk"))),
        ],
    )
    .unwrap();
    let res = execute(
        &mut db,
        "SELECT C FROM Object_In_Room X WHERE X.catalog_object[C]",
    )
    .unwrap();
    assert_eq!(
        res.rows,
        vec![
            vec![Oid::named("standard_desk")],
            vec![Oid::named("standard_cabinet")],
        ]
    );
}
