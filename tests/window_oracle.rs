//! E2's windowed scan and windowed pairwise join against an independent
//! integer oracle.
//!
//! The oracle never runs the evaluator or the constraint solver. It reads
//! each room object's stored placement (the `location` point `x = X ∧
//! y = Y`, read off its atoms) and the half-extents its catalog object's
//! class gets from `office_db` (desks 4 × 2, file cabinets 1 × 2). The
//! extents are closed boxes with integer corners and the query windows
//! have integer bounds, so whether boxes meet is decided exactly by
//! comparing endpoints. Answers are checked at 1 and 4 engine threads.

use lyric::constraint::NormOp;
use lyric::oodb::{Database, Oid};
use lyric::{execute_shared, ExecOptions};
use lyric_bench::workload::{self, Q_PAIRWISE};
use std::collections::BTreeSet;

/// A closed integer box `[x0, x1] × [y0, y1]`.
#[derive(Clone, Copy, Debug)]
struct Rect {
    x0: i64,
    x1: i64,
    y0: i64,
    y1: i64,
}

impl Rect {
    fn meets(&self, o: &Rect) -> bool {
        self.x0 <= o.x1 && o.x0 <= self.x1 && self.y0 <= o.y1 && o.y0 <= self.y1
    }

    fn intersect(&self, o: &Rect) -> Rect {
        Rect {
            x0: self.x0.max(o.x0),
            x1: self.x1.min(o.x1),
            y0: self.y0.max(o.y0),
            y1: self.y1.min(o.y1),
        }
    }
}

/// The integer value a stored `v = c` atom pins its variable to.
fn pinned_value(atom: &lyric::constraint::Atom) -> (String, i64) {
    assert_eq!(atom.op(), NormOp::Eq, "placement atoms are equalities");
    let terms: Vec<_> = atom.expr().terms().collect();
    let [(var, coeff)] = terms.as_slice() else {
        panic!("placement atom {atom} has more than one variable");
    };
    let value = -atom.expr().constant_term().clone() / (*coeff).clone();
    assert!(value.is_integer(), "integer placement");
    // Either arithmetic tier: under `LYRIC_ARITH_FAST=0` every value
    // lives in the BigInt representation.
    let num = value.numer().to_i64().expect("placement fits in i64");
    (var.name().to_string(), num)
}

/// Each room object's extent in room coordinates, by oid.
fn placements(db: &Database) -> Vec<(Oid, Rect)> {
    db.extent("Object_In_Room")
        .into_iter()
        .map(|oid| {
            let location = db
                .attr(&oid, "location")
                .and_then(|v| v.as_scalar())
                .and_then(Oid::as_cst)
                .expect("room objects have a location");
            let [point] = location.disjuncts() else {
                panic!("a location is one conjunction");
            };
            let (mut x, mut y) = (None, None);
            for atom in point.atoms() {
                match pinned_value(atom) {
                    (v, value) if v == "x" => x = Some(value),
                    (v, value) if v == "y" => y = Some(value),
                    (v, _) => panic!("unexpected placement variable {v}"),
                }
            }
            let catalog = db
                .attr(&oid, "catalog_object")
                .and_then(|v| v.as_scalar())
                .expect("room objects have a catalog object");
            let (hw, hh) = match db.object(catalog).map(|o| o.class()) {
                Some("Desk") => (4, 2),
                Some("File_Cabinet") => (1, 2),
                other => panic!("unexpected catalog class {other:?}"),
            };
            let (x, y) = (x.expect("x placed"), y.expect("y placed"));
            let rect = Rect {
                x0: x - hw,
                x1: x + hw,
                y0: y - hh,
                y1: y + hh,
            };
            (oid, rect)
        })
        .collect()
}

fn window_atoms(w: &Rect) -> String {
    format!(
        "u >= {} AND u <= {} AND v >= {} AND v <= {}",
        w.x0, w.x1, w.y0, w.y1
    )
}

fn scan_query(w: &Rect) -> String {
    format!(
        "SELECT O FROM Object_In_Room O \
         WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L] \
         AND (E(w,z) AND D(w,z,x,y,u,v) AND L(x,y) AND {})",
        window_atoms(w)
    )
}

fn join_query(w: &Rect) -> String {
    let body = Q_PAIRWISE
        .trim_end()
        .strip_suffix(')')
        .expect("the pairwise query ends with its formula");
    format!("{body} AND {})", window_atoms(w))
}

/// Every answer row as its oids joined by `,`, at 1 and 4 threads (which
/// must agree).
fn answer(db: &Database, q: &str) -> BTreeSet<String> {
    let rows = |threads: usize| -> BTreeSet<String> {
        let opts = ExecOptions::default().with_threads(threads);
        let res = execute_shared(db, q, &opts).unwrap_or_else(|e| panic!("{e}: {q}"));
        res.rows
            .iter()
            .map(|r| r.iter().map(Oid::to_string).collect::<Vec<_>>().join(","))
            .collect()
    };
    let serial = rows(1);
    assert_eq!(serial, rows(4), "thread count changed the answer of {q}");
    serial
}

/// Windows for a room of `placed` objects: random ones, the whole room,
/// and one around the shared part of every overlapping pair, so the join
/// has pairs to find.
fn windows(placed: &[(Oid, Rect)], seed: u64) -> Vec<Rect> {
    use rand::Rng;
    let mut r = workload::rng(seed);
    let mut out: Vec<Rect> = (0..4)
        .map(|_| {
            let w = r.gen_range(10..60i64);
            let x0 = r.gen_range(0..200 - w);
            let y0 = r.gen_range(0..100 - w / 2);
            Rect {
                x0,
                x1: x0 + w,
                y0,
                y1: y0 + w / 2,
            }
        })
        .collect();
    out.push(Rect {
        x0: 0,
        x1: 200,
        y0: 0,
        y1: 100,
    });
    for (i, (_, a)) in placed.iter().enumerate() {
        for (_, b) in &placed[i + 1..] {
            if a.meets(b) {
                let c = a.intersect(b);
                out.push(Rect {
                    x0: c.x0 - 1,
                    x1: c.x1 + 1,
                    y0: c.y0 - 1,
                    y1: c.y1 + 1,
                });
            }
        }
    }
    out
}

#[test]
fn windowed_scan_matches_the_box_oracle() {
    for seed in [11, 12, 13] {
        let db = workload::office_db(48, seed);
        let placed = placements(&db);
        assert_eq!(placed.len(), 48);
        for w in windows(&placed, seed) {
            let expected: BTreeSet<String> = placed
                .iter()
                .filter(|(_, rect)| rect.meets(&w))
                .map(|(oid, _)| oid.to_string())
                .collect();
            assert_eq!(answer(&db, &scan_query(&w)), expected, "window {w:?}");
        }
    }
}

#[test]
fn windowed_join_matches_the_box_oracle() {
    let mut pairs_found = 0;
    for seed in [21, 22] {
        let db = workload::office_db(20, seed);
        let placed = placements(&db);
        for w in windows(&placed, seed) {
            let mut expected = BTreeSet::new();
            for (x, a) in &placed {
                if !a.meets(&w) {
                    continue;
                }
                let aw = a.intersect(&w);
                for (y, b) in &placed {
                    if x != y && aw.meets(b) {
                        expected.insert(format!("{x},{y}"));
                    }
                }
            }
            pairs_found += expected.len();
            assert_eq!(answer(&db, &join_query(&w)), expected, "window {w:?}");
        }
    }
    assert!(pairs_found > 0, "no window held an overlapping pair");
}
