//! Office design (§1.2): the designer questions the paper's introduction
//! motivates, answered on a populated room.
//!
//! * which placed objects overlap?
//! * where can an additional desk go so that nothing touches?
//! * what placement maximizes clearance from the walls?
//! * show a cut of the room contents at a given height.
//!
//! ```sh
//! cargo run --example office_design
//! ```

use lyric::execute;
use lyric::paper_example::{box2, point2, translation2};
use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, Extremum, LinExpr, Var};
use lyric_oodb::{Database, Oid, Value};

const ROOM_W: i64 = 20;
const ROOM_H: i64 = 10;

fn place(db: &mut Database, i: usize, class: &str, w: i64, h: i64, x: i64, y: i64) {
    let drawer = format!("ex_drawer_{i}");
    db.insert(
        Oid::named(&drawer),
        "Drawer",
        [
            (
                "extent",
                Value::Scalar(Oid::cst(box2("w", "z", -1, 1, -1, 1))),
            ),
            ("translation", Value::Scalar(Oid::cst(translation2()))),
        ],
    )
    .expect("drawer insert");
    let catalog = format!("ex_catalog_{i}");
    let (cv0, cv1) = if class == "Desk" {
        ("p", "q")
    } else {
        ("p1", "q1")
    };
    let center = CstObject::point(
        vec![Var::new(cv0), Var::new(cv1)],
        &[Rational::from_int(-w), Rational::zero()],
    );
    let center_value = if class == "Desk" {
        Value::Scalar(Oid::cst(center))
    } else {
        Value::set([Oid::cst(center)])
    };
    db.insert(
        Oid::named(&catalog),
        class,
        [
            ("name", Value::Scalar(Oid::str(format!("{class} #{i}")))),
            ("color", Value::Scalar(Oid::str("red"))),
            (
                "extent",
                Value::Scalar(Oid::cst(box2("w", "z", -w, w, -h, h))),
            ),
            ("translation", Value::Scalar(Oid::cst(translation2()))),
            ("drawer_center", center_value),
            ("drawer", Value::Scalar(Oid::named(&drawer))),
        ],
    )
    .expect("catalog insert");
    db.insert(
        Oid::named(format!("ex_obj_{i}")),
        "Object_In_Room",
        [
            ("inv_number", Value::Scalar(Oid::str(format!("ex-{i}")))),
            ("location", Value::Scalar(Oid::cst(point2("x", "y", x, y)))),
            ("catalog_object", Value::Scalar(Oid::named(&catalog))),
        ],
    )
    .expect("room insert");
}

fn main() {
    let mut db = Database::new(lyric::paper_example::schema()).expect("schema validates");
    db.declare_instance("Color", Oid::str("red"))
        .expect("color");

    // Two desks and a file cabinet in a 20×10 room.
    place(&mut db, 0, "Desk", 4, 2, 5, 3);
    place(&mut db, 1, "Desk", 4, 2, 14, 7);
    place(&mut db, 2, "File_Cabinet", 1, 2, 18, 2);

    println!("== Office design in a {ROOM_W}x{ROOM_H} room ==\n");

    // 1. Overlapping pairs, as a view (the §2.2 Overlap example).
    let res = execute(
        &mut db,
        "CREATE VIEW Overlap AS SUBCLASS OF object
         SELECT first = X, second = Y
         SIGNATURE first => Object_In_Room, second => Object_In_Room
         FROM Object_In_Room X, Object_In_Room Y
         OID FUNCTION OF X, Y
         WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
           AND X.location[LX] AND Y.location[LY]
           AND CX.extent[EX] AND CX.translation[DX]
           AND CY.extent[EY] AND CY.translation[DY]
           AND X != Y
           AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y)
                AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2))",
    )
    .expect("overlap view");
    println!(
        "overlapping pairs: {} (expected 0 — the layout is clean)\n",
        res.rows.len()
    );

    // 2. Where can an additional 2×2 desk center go? Build the free-space
    //    region programmatically: room shrunk by the new desk's half-size,
    //    minus the Minkowski-inflated footprints of the placed objects.
    let cx = Var::new("cx");
    let cy = Var::new("cy");
    let mut feasible = CstObject::from_conjunction(
        vec![cx.clone(), cy.clone()],
        Conjunction::of([
            Atom::ge(LinExpr::var(cx.clone()), LinExpr::from(1)),
            Atom::le(LinExpr::var(cx.clone()), LinExpr::from(ROOM_W - 1)),
            Atom::ge(LinExpr::var(cy.clone()), LinExpr::from(1)),
            Atom::le(LinExpr::var(cy.clone()), LinExpr::from(ROOM_H - 1)),
        ]),
    );
    // Fetch each placed object's global extent through a LyriC query.
    let res = execute(
        &mut db,
        "SELECT O, ((u,v) | E AND D AND L(x,y))
         FROM Object_In_Room O
         WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L]",
    )
    .expect("extents query");
    for row in &res.rows {
        let footprint = row[1].as_cst().expect("cst column");
        // Forbid centers within 1 (the new desk's half-size) of the
        // footprint: inflate by 1 via a bounding-box over-approximation.
        let bb = footprint.bounding_box().expect("nonempty footprint");
        let (lo_u, hi_u) = (bb[0].0.clone().unwrap(), bb[0].1.clone().unwrap());
        let (lo_v, hi_v) = (bb[1].0.clone().unwrap(), bb[1].1.clone().unwrap());
        let one = Rational::one();
        let blocked = CstObject::from_conjunction(
            vec![cx.clone(), cy.clone()],
            Conjunction::of([
                Atom::ge(LinExpr::var(cx.clone()), LinExpr::constant(&lo_u - &one)),
                Atom::le(LinExpr::var(cx.clone()), LinExpr::constant(&hi_u + &one)),
                Atom::ge(LinExpr::var(cy.clone()), LinExpr::constant(&lo_v - &one)),
                Atom::le(LinExpr::var(cy.clone()), LinExpr::constant(&hi_v + &one)),
            ]),
        );
        // feasible := feasible ∧ ¬blocked  (negation of a conjunctive
        // constraint is a disjunction — §3.1).
        let complement = blocked.negate().expect("conjunctive");
        feasible = feasible.and(&complement).canonicalize();
    }
    println!(
        "free-space region for a new 2x2 desk center: {} disjuncts, nonempty: {}",
        feasible.disjuncts().len(),
        feasible.satisfiable()
    );
    if let Some(p) = feasible.find_point() {
        println!("  a valid center: ({}, {})", p[0], p[1]);
    }

    // 3. Among valid centers, maximize the clearance from the left wall.
    match feasible.maximize(&LinExpr::var(cx.clone())) {
        Extremum::Finite { bound, witness, .. } => println!(
            "  rightmost valid center: cx = {bound} (at cy = {})",
            witness.get(&cy).cloned().unwrap_or_default()
        ),
        other => println!("  unexpected optimization outcome: {other:?}"),
    }

    // 4. The §1.2 "cut" query: slice every placed footprint at height
    //    v = 3 (the paper slices at 1/2 foot in local coordinates).
    println!("\ncuts at v = 3 (room coordinates):");
    for row in &res.rows {
        let footprint = row[1].as_cst().expect("cst column");
        let cut = footprint.slice(&Var::new("v"), &Rational::from_int(3));
        println!(
            "  {}: {}",
            row[0],
            if cut.satisfiable() {
                cut.to_string()
            } else {
                "empty".into()
            }
        );
    }
}
