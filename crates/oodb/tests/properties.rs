//! Property tests for the object-oriented substrate: schema/extent
//! invariants under random class hierarchies and insertions.

use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Schema, Value};
use proptest::prelude::*;

/// A random forest-shaped hierarchy: class i may have any earlier class as
/// parent (guaranteeing acyclicity by construction).
#[derive(Debug, Clone)]
struct RawHierarchy {
    /// parent[i] = Some(j) with j < i, or None (root).
    parents: Vec<Option<usize>>,
    /// members[i] = how many objects inserted directly into class i.
    members: Vec<u8>,
}

fn hierarchy_strategy() -> impl Strategy<Value = RawHierarchy> {
    (2..8usize)
        .prop_flat_map(|n| {
            let parents: Vec<BoxedStrategy<Option<usize>>> = (0..n)
                .map(|i| {
                    if i == 0 {
                        Just(None).boxed()
                    } else {
                        proptest::option::of(0..i).boxed()
                    }
                })
                .collect();
            (parents, proptest::collection::vec(0..4u8, n))
        })
        .prop_map(|(parents, members)| RawHierarchy { parents, members })
}

fn class_name(i: usize) -> String {
    format!("C{i}")
}

fn build(h: &RawHierarchy) -> Database {
    let mut schema = Schema::new();
    for (i, parent) in h.parents.iter().enumerate() {
        let mut def = ClassDef::new(class_name(i));
        if let Some(p) = parent {
            def = def.is_a(class_name(*p));
        }
        schema.add_class(def).expect("acyclic by construction");
    }
    let mut db = Database::new(schema).expect("validates");
    for (i, &count) in h.members.iter().enumerate() {
        for k in 0..count {
            db.insert(
                Oid::named(format!("obj_{i}_{k}")),
                &class_name(i),
                [] as [(&str, Value); 0],
            )
            .expect("plain insert");
        }
    }
    db
}

proptest! {
    /// Extents are the union of direct members over all (transitive)
    /// subclasses; is_instance agrees with extent membership; subclass
    /// extents are contained in superclass extents. Random re-declarations
    /// of members into subclasses (what a view class does) make direct
    /// extents overlap, and `extent_len` still counts each member once.
    #[test]
    fn extent_semantics(
        h in hierarchy_strategy(),
        redeclare in proptest::collection::vec((0..8usize, 0..4u8, 0..8usize), 0..12),
    ) {
        let mut db = build(&h);
        let n = h.parents.len();
        // Reference model: direct members.
        let mut direct: Vec<Vec<Oid>> = (0..n)
            .map(|i| (0..h.members[i]).map(|k| Oid::named(format!("obj_{i}_{k}"))).collect())
            .collect();
        // is_subclass reference via parent chains.
        let is_sub = |mut a: usize, b: usize| -> bool {
            loop {
                if a == b {
                    return true;
                }
                match h.parents[a] {
                    Some(p) => a = p,
                    None => return false,
                }
            }
        };
        // Re-declare member k of class i into the j-th class of i's cone.
        for &(i, k, j) in &redeclare {
            if i >= n || k >= h.members[i] {
                continue;
            }
            let cone: Vec<usize> = (0..n).filter(|&a| is_sub(a, i)).collect();
            let target = cone[j % cone.len()];
            let oid = Oid::named(format!("obj_{i}_{k}"));
            db.declare_instance(&class_name(target), oid.clone())
                .expect("plain declaration");
            direct[target].push(oid);
        }
        for b in 0..n {
            let extent = db.extent(&class_name(b));
            // Model extent: all direct members of classes a with a ⊑ b.
            let mut expect: Vec<Oid> = (0..n)
                .filter(|&a| is_sub(a, b))
                .flat_map(|a| direct[a].iter().cloned())
                .collect();
            expect.sort();
            expect.dedup();
            prop_assert_eq!(extent.clone(), expect);
            prop_assert_eq!(db.extent_len(&class_name(b)), extent.len());
            for o in &extent {
                prop_assert!(db.is_instance(o, &class_name(b)));
                prop_assert!(db.is_instance(o, "object"));
            }
        }
        // Subclass extents are contained in parents'.
        for a in 0..n {
            if let Some(p) = h.parents[a] {
                let sub = db.extent(&class_name(a));
                let sup = db.extent(&class_name(p));
                for o in &sub {
                    prop_assert!(sup.contains(o));
                }
            }
        }
        // schema.is_subclass agrees with the model.
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    db.schema().is_subclass(&class_name(a), &class_name(b)),
                    is_sub(a, b),
                    "is_subclass({}, {})", a, b
                );
            }
        }
    }

    /// CST oid identity is invariant under variable renaming and stable
    /// under insert/lookup round-trips.
    #[test]
    fn cst_attribute_roundtrip(lo in -20..=0i64, hi in 0..=20i64) {
        let mut schema = Schema::new();
        schema
            .add_class(
                ClassDef::new("Holder")
                    .attr(AttrDef::scalar("region", AttrTarget::cst(["a", "b"]))),
            )
            .expect("fresh");
        let mut db = Database::new(schema).expect("validates");
        let mk = |vx: &str, vy: &str| {
            CstObject::from_conjunction(
                vec![Var::new(vx), Var::new(vy)],
                Conjunction::of([
                    Atom::ge(LinExpr::var(Var::new(vx)), LinExpr::from(lo)),
                    Atom::le(LinExpr::var(Var::new(vx)), LinExpr::from(hi)),
                    Atom::ge(LinExpr::var(Var::new(vy)), LinExpr::from(lo)),
                    Atom::le(LinExpr::var(Var::new(vy)), LinExpr::from(hi)),
                ]),
            )
        };
        db.insert(
            Oid::named("h"),
            "Holder",
            [("region", Value::Scalar(Oid::cst(mk("a", "b"))))],
        )
        .expect("insert");
        let stored = db.attr(&Oid::named("h"), "region").expect("stored");
        // The same region under different names is the same oid.
        let renamed = Oid::cst(mk("x", "y"));
        prop_assert_eq!(stored.as_scalar().expect("scalar"), &renamed);
    }
}
