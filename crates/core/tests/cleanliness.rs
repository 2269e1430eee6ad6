//! Analyzer cleanliness: every query the reproduction ships — the §4.1
//! paper queries and the queries of each example program — must analyze
//! with zero diagnostics. This is the "no false positives on the blessed
//! corpus" contract: if a new lint fires on any of these, the lint is
//! wrong, not the query.

use lyric::analyze::{analyze_src, AnalyzerOptions};
use lyric::diag::render_all;
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Schema};

fn assert_clean(schema: &Schema, queries: &[&str]) {
    for src in queries {
        let ds = analyze_src(schema, src, &AnalyzerOptions::default());
        assert!(
            ds.is_empty(),
            "expected zero diagnostics for {src:?}:\n{}",
            render_all(&ds, src)
        );
    }
}

/// The §4.1 queries of the paper, plus the quickstart example, all over
/// the Figure 2 office-design schema.
#[test]
fn paper_and_quickstart_queries_are_clean() {
    let db = lyric::paper_example::database();
    assert_clean(
        db.schema(),
        &[
            // §4.1 retrieval of constraint oids.
            "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
            // §4.1 translation into room coordinates, explicit and
            // schema-copied variable forms.
            "SELECT CO, ((u,v) | E(w,z) AND D(w,z,x,y,u,v) AND x = 6 AND y = 4)
             FROM Office_Object CO
             WHERE CO.extent[E] AND CO.translation[D]",
            "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
             FROM Office_Object CO
             WHERE CO.extent[E] AND CO.translation[D]",
            // §4.1 drawers of desks located in a room region.
            "SELECT O, ((u,v) | D(w,z,x,y,u,v) AND DD(w1,z1,x1,y1,u1,v1) AND w = u1 AND z = v1
                        AND DC(p,q) AND DE(w1,z1) AND L(x,y))
             FROM Object_In_Room O, Desk DSK
             WHERE O.location[L] AND O.catalog_object[DSK]
               AND (L(x,y) AND 0 <= x AND x <= 10 AND 5 <= y AND y <= 10)
               AND DSK.translation[D] AND DSK.drawer_center[DC]
               AND DSK.drawer.translation[DD] AND DSK.drawer.extent[DE]",
            // §4.1 red desks with centered drawers.
            "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
             FROM Desk DSK
             WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)",
            // §4.1 desks whose drawer stays inside the room.
            "SELECT DSK
             FROM Object_In_Room O, Desk DSK
             WHERE O.catalog_object[DSK] AND O.location[L]
               AND DSK.drawer_center[C] AND DSK.translation[D]
               AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
               AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
                    AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
                    AND 0 < u AND u < 20 AND 0 < v AND v < 10)",
            // §4.1 classification view: one view class per region.
            "CREATE VIEW X AS SUBCLASS OF Object_In_Room
             SELECT Y
             FROM Object_In_Room Y, Region X
             WHERE Y.catalog_object[CO] AND Y.location[L] AND CO.extent[E] AND CO.translation[D]
               AND (((u,v) | E AND D AND L(x,y)) |= X(u,v))",
            // §2.2 Overlap view with an oid function.
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
            // §1.2 cut at a given height.
            "SELECT CO, ((w) | E(w,z) AND z = 0.5) FROM Desk CO WHERE CO.extent[E]",
            // §4.2 generalized linear programming.
            "SELECT MAX(w + z SUBJECT TO ((w,z) | E)), MIN(w SUBJECT TO ((w,z) | E)),
                    MAX_POINT(w + z SUBJECT TO ((w,z) | E))
             FROM Desk D WHERE D.extent[E]",
            // §4.1 attribute variables.
            "SELECT A FROM Desk D WHERE D.A[V] AND D.extent[V]",
            // Scalar comparisons over inherited attributes.
            "SELECT X.name FROM Office_Object X WHERE X.color = 'red'",
            "SELECT X FROM Office_Object X WHERE X.color != 'red'",
            // SET-valued attribute retrieval.
            "SELECT C FROM File_Cabinet F WHERE F.drawer_center[C]",
            // Quickstart corpus.
            "SELECT X.name, O.inv_number
             FROM Office_Object X, Object_In_Room O
             WHERE O.catalog_object[X] AND O.inv_number[N] AND X.name[M]",
            "SELECT O.inv_number FROM Object_In_Room O",
            "SELECT DSK FROM Desk DSK WHERE DSK.drawer_center[C] AND (C(p,q) |= p = 0)",
            "SELECT D.name, MAX(w + z SUBJECT TO ((w,z) | E)),
                    MAX_POINT(w + z SUBJECT TO ((w,z) | E))
             FROM Desk D WHERE D.extent[E]",
            // Office-design free-space extent fetch.
            "SELECT O, ((u,v) | E AND D AND L(x,y))
             FROM Object_In_Room O
             WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L]",
        ],
    );
}

/// The chemical-factory LP schema and queries (examples/factory_lp.rs),
/// with the `format!`-assembled profit/stock fragments spelled out.
#[test]
fn factory_lp_queries_are_clean() {
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Process")
                .attr(AttrDef::scalar("name", AttrTarget::class("string")))
                .attr(AttrDef::scalar(
                    "constraint",
                    AttrTarget::cst(["m_acid", "m_base", "p_solvent", "p_resin"]),
                )),
        )
        .expect("schema");
    assert_clean(
        &schema,
        &[
            "SELECT P.name, MAX(5 * p_solvent + 8 * p_resin - m_acid - m_base SUBJECT TO
                 ((m_acid,m_base,p_solvent,p_resin) | C AND m_acid <= 80 AND m_base <= 90))
             FROM Process P WHERE P.constraint[C]",
            "SELECT P.name, MAX_POINT(5 * p_solvent + 8 * p_resin - m_acid - m_base SUBJECT TO
                 ((m_acid,m_base,p_solvent,p_resin) | C AND m_acid <= 80 AND m_base <= 90))
             FROM Process P WHERE P.constraint[C]",
            "SELECT P.name FROM Process P WHERE P.constraint[C]
             AND (C AND m_acid <= 80 AND m_base <= 90 AND p_solvent >= 25)",
            "SELECT P.name, ((p_solvent, p_resin) | C AND m_acid <= 80 AND m_base <= 90)
             FROM Process P WHERE P.constraint[C]",
            "SELECT P.name, ((m_acid, m_base) | C AND p_solvent >= 20 AND p_resin >= 10)
             FROM Process P WHERE P.constraint[C]",
        ],
    );
}

/// The GIS schema and queries (examples/gis_regions.rs), including the
/// classification view whose view name is a FROM variable.
#[test]
fn gis_queries_are_clean() {
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Region")
                .cst_class(2)
                .attr(AttrDef::scalar("name", AttrTarget::class("string"))),
        )
        .expect("schema");
    schema
        .add_class(
            ClassDef::new("Site")
                .attr(AttrDef::scalar("name", AttrTarget::class("string")))
                .attr(AttrDef::scalar("footprint", AttrTarget::cst(["u", "v"]))),
        )
        .expect("schema");
    assert_clean(
        &schema,
        &[
            "SELECT S.name, R.name
             FROM Site S, Region R
             WHERE S.footprint[F] AND (F(u,v) |= R(u,v))",
            "SELECT S.name, R.name
             FROM Site S, Region R
             WHERE S.footprint[F] AND (F(u,v) AND R(u,v))",
            "CREATE VIEW R AS SUBCLASS OF Site
             SELECT S
             FROM Site S, Region R
             WHERE S.footprint[F] AND (F(u,v) |= R(u,v))",
            "SELECT R, ((u,v) | R(u,v) AND u <= 75) FROM Region R WHERE R.name = 'harbor'",
        ],
    );
}

/// The Maneuver Decision Aid schema and queries (examples/mda_submarine.rs).
#[test]
fn mda_queries_are_clean() {
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Goal")
                .attr(AttrDef::scalar("name", AttrTarget::class("string")))
                .attr(AttrDef::scalar("priority", AttrTarget::class("int")))
                .attr(AttrDef::scalar(
                    "region",
                    AttrTarget::cst(["course", "speed", "depth", "time"]),
                )),
        )
        .expect("schema");
    assert_clean(
        &schema,
        &[
            "SELECT A.name, B.name
             FROM Goal A, Goal B
             WHERE A.region[RA] AND B.region[RB] AND A != B
               AND (RA(course,speed,depth,time) AND RB(course,speed,depth,time))",
            "SELECT ((course,speed,depth,time) |
                       A.region(course,speed,depth,time)
                   AND B.region(course,speed,depth,time)
                   AND C.region(course,speed,depth,time))
             FROM Goal A, Goal B, Goal C
             WHERE A.name = 'operational envelope'
               AND B.name = 'maintain depth near 200ft'
               AND C.name = 'avoid land obstacle to the east'",
            "SELECT MIN(speed SUBJECT TO ((course,speed,depth,time) |
                       A.region(course,speed,depth,time)
                   AND B.region(course,speed,depth,time)
                   AND D.region(course,speed,depth,time))),
                    MIN_POINT(speed SUBJECT TO ((course,speed,depth,time) |
                       A.region(course,speed,depth,time)
                   AND B.region(course,speed,depth,time)
                   AND D.region(course,speed,depth,time)))
             FROM Goal A, Goal B, Goal D
             WHERE A.name = 'operational envelope'
               AND B.name = 'maintain depth near 200ft'
               AND D.name = 'quiet running'",
            "SELECT Q.name
             FROM Goal Q, Goal E
             WHERE Q.name = 'quiet running' AND E.name = 'operational envelope'
               AND Q.region[RQ] AND E.region[RE]
               AND ((RQ(course,speed,depth,time) AND depth <= 800) |= speed <= 30)",
            "SELECT Q.name FROM Goal Q
             WHERE Q.name = 'quiet running' AND Q.region[RQ]
               AND (RQ(course,speed,depth,time) AND speed >= 25 AND depth <= 100)",
        ],
    );
}
