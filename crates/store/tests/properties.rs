//! Property tests for the store: every probe family differential-tested
//! against a naive scan oracle over random databases (including 2-D box
//! columns large enough for several pages), the snapshot container
//! round-tripped byte-identically, and the sorted-run intersection
//! checked against set semantics.

use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, Interval, LinExpr, Var};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Schema, Value};
use lyric_store::snapshot::{read_container, write_container};
use lyric_store::{intersect_sorted, StoreIndex, BOX_PAGE};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One randomly generated object: a numeric weight (or none — the
/// missing-attribute case every ordered probe must keep), and a 1-d
/// `span` constraint over `[lo, lo + width]` (or none).
#[derive(Debug, Clone)]
struct Item {
    weight: Option<i64>,
    span: Option<(i64, i64)>,
}

fn item_strategy() -> impl Strategy<Value = Item> {
    (
        proptest::option::of(-50i64..50),
        proptest::option::of((-50i64..50, 0i64..20)),
    )
        .prop_map(|(weight, span)| Item { weight, span })
}

fn items_strategy() -> impl Strategy<Value = Vec<Item>> {
    proptest::collection::vec(item_strategy(), 0..40)
}

fn build_db(items: &[Item]) -> Database {
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Item")
                .attr(AttrDef::scalar("weight", AttrTarget::class("int")))
                .attr(AttrDef::scalar("span", AttrTarget::cst(["s"]))),
        )
        .expect("fresh schema");
    let mut db = Database::new(schema).expect("schema validates");
    for (i, item) in items.iter().enumerate() {
        let mut attrs: Vec<(&str, Value)> = Vec::new();
        if let Some(w) = item.weight {
            attrs.push(("weight", Value::Scalar(Oid::Int(w))));
        }
        if let Some((lo, width)) = item.span {
            let c = CstObject::from_conjunction(
                vec![Var::new("s")],
                Conjunction::of([
                    Atom::ge(LinExpr::var(Var::new("s")), LinExpr::from(lo)),
                    Atom::le(LinExpr::var(Var::new("s")), LinExpr::from(lo + width)),
                ]),
            );
            attrs.push(("span", Value::Scalar(Oid::cst(c))));
        }
        db.insert(Oid::named(format!("item_{i}")), "Item", attrs)
            .expect("item insert");
    }
    db
}

/// A closed numeric window from two draws (normalized so lo <= hi).
fn window(a: i64, b: i64) -> Interval {
    let (lo, hi) = (a.min(b), a.max(b));
    Interval::of_bounds(
        Some((Rational::from_int(lo), false)),
        Some((Rational::from_int(hi), false)),
    )
}

fn oids_of(indices: impl Iterator<Item = usize>) -> Vec<Oid> {
    indices
        .map(|i| Oid::named(format!("item_{i}")))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `probe_eq` is *exact*: precisely the members whose stored weight
    /// equals the key (a scan of `weight = k` keeps exactly those —
    /// missing values compare plain-false, never error).
    #[test]
    fn eq_probe_matches_scan_oracle(items in items_strategy(), k in -50i64..50) {
        let db = build_db(&items);
        let idx = StoreIndex::build(&db);
        let Some(got) = idx.probe_eq("Item", "weight", &Oid::Int(k)) else {
            // An empty extent builds no column: the probe refuses to
            // prune, which is vacuously sound.
            prop_assert!(items.is_empty());
            return;
        };
        let oracle = oids_of((0..items.len()).filter(|&i| items[i].weight == Some(k)));
        prop_assert_eq!(got, oracle);
    }

    /// `probe_range` keeps every member a scan of the ordered comparison
    /// could keep *or error on*: numeric weights inside the window plus
    /// every member whose weight is missing (the scan type-errors there,
    /// so pruning one would change an `Err` answer into `Ok`).
    #[test]
    fn range_probe_matches_scan_oracle(items in items_strategy(), a in -60i64..60, b in -60i64..60) {
        let db = build_db(&items);
        let idx = StoreIndex::build(&db);
        let Some(got) = idx.probe_range("Item", "weight", &window(a, b)) else {
            // An empty extent builds no column: the probe refuses to
            // prune, which is vacuously sound.
            prop_assert!(items.is_empty());
            return;
        };
        let (lo, hi) = (a.min(b), a.max(b));
        let oracle = oids_of((0..items.len()).filter(|&i| match items[i].weight {
            Some(v) => (lo..=hi).contains(&v),
            None => true, // scan errors: must survive the probe
        }));
        prop_assert_eq!(got, oracle);
    }

    /// `probe_box` candidates are exactly the members owning a span that
    /// meets the window — computed naively per object here, so the paged
    /// hull level can only differ by pruning a page it should not
    /// (unsound) or keeping one it could drop (covered elsewhere).
    #[test]
    fn box_probe_matches_scan_oracle(items in items_strategy(), a in -60i64..60, b in -60i64..60) {
        let db = build_db(&items);
        let idx = StoreIndex::build(&db);
        let Some(got) = idx.probe_box("Item", "span", &[window(a, b)]) else {
            // An empty extent builds no column: the probe refuses to
            // prune, which is vacuously sound.
            prop_assert!(items.is_empty());
            return;
        };
        let (lo, hi) = (a.min(b), a.max(b));
        let oracle = oids_of((0..items.len()).filter(|&i| match items[i].span {
            // Closed boxes: [slo, slo + width] meets [lo, hi].
            Some((slo, width)) => slo <= hi && lo <= slo + width,
            None => false, // missing attribute: the path predicate is false
        }));
        prop_assert_eq!(got, oracle);
    }

    /// Container round trip: write → read → write is byte-identical and
    /// the decoded sections equal the originals.
    #[test]
    fn container_round_trip_is_byte_identical(
        raw in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 4), proptest::collection::vec(any::<u8>(), 1..200)),
            0..6,
        )
    ) {
        let sections: Vec<([u8; 4], Vec<u8>)> = raw
            .into_iter()
            .map(|(tag, payload)| (<[u8; 4]>::try_from(tag.as_slice()).unwrap(), payload))
            .collect();
        let bytes = write_container(&sections);
        let decoded = read_container(&bytes).expect("own output decodes");
        prop_assert_eq!(&decoded, &sections);
        prop_assert_eq!(write_container(&decoded), bytes);
    }

    /// Truncating a container anywhere yields a structured error, never a
    /// panic or a successful partial decode.
    #[test]
    fn truncated_containers_never_decode(
        payload in proptest::collection::vec(any::<u8>(), 1..100),
        cut_pct in 0usize..100,
    ) {
        let bytes = write_container(&[(*b"META", payload)]);
        let cut = (bytes.len() - 1) * cut_pct / 100;
        prop_assert!(read_container(&bytes[..cut]).is_err());
    }

    /// `intersect_sorted` is set intersection; its output is sorted and
    /// duplicate-free.
    #[test]
    fn sorted_run_combinators_have_set_semantics(
        araw in proptest::collection::vec(0i64..100, 0..30),
        braw in proptest::collection::vec(0i64..100, 0..30),
    ) {
        let a: BTreeSet<i64> = araw.into_iter().collect();
        let b: BTreeSet<i64> = braw.into_iter().collect();
        let av: Vec<Oid> = a.iter().map(|&v| Oid::Int(v)).collect();
        let bv: Vec<Oid> = b.iter().map(|&v| Oid::Int(v)).collect();
        let inter = intersect_sorted(&av, &bv);
        let expected: Vec<Oid> = a.intersection(&b).map(|&v| Oid::Int(v)).collect();
        prop_assert_eq!(&inter, &expected);
        prop_assert!(inter.windows(2).all(|w| w[0] < w[1]), "intersection sorted, dup-free");
    }
}

/// One 2-D region: `[x, x + w] × [y, y + h]`, or none.
type Region = Option<(i64, i64, i64, i64)>;

fn regions_strategy() -> impl Strategy<Value = Vec<Region>> {
    proptest::collection::vec(
        proptest::option::of((0i64..1000, 0i64..40, 0i64..1000, 0i64..40)),
        65..700,
    )
}

fn build_region_db(regions: &[Region]) -> Database {
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Item").attr(AttrDef::scalar("region", AttrTarget::cst(["u", "v"]))),
        )
        .expect("fresh schema");
    let mut db = Database::new(schema).expect("schema validates");
    let (u, v) = (Var::new("u"), Var::new("v"));
    for (i, region) in regions.iter().enumerate() {
        let mut attrs: Vec<(&str, Value)> = Vec::new();
        if let Some((x, w, y, h)) = *region {
            let c = CstObject::from_conjunction(
                vec![u.clone(), v.clone()],
                Conjunction::of([
                    Atom::ge(LinExpr::var(u.clone()), LinExpr::from(x)),
                    Atom::le(LinExpr::var(u.clone()), LinExpr::from(x + w)),
                    Atom::ge(LinExpr::var(v.clone()), LinExpr::from(y)),
                    Atom::le(LinExpr::var(v.clone()), LinExpr::from(y + h)),
                ]),
            );
            attrs.push(("region", Value::Scalar(Oid::cst(c))));
        }
        db.insert(Oid::named(format!("item_{i}")), "Item", attrs)
            .expect("item insert");
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `probe_box` over a 2-D column of 65–700 regions — two to eleven
    /// pages — returns exactly the members whose region meets the
    /// window, computed naively per object. The window's second axis is
    /// sometimes unbounded above, the half-open shape of the strip
    /// queries.
    #[test]
    fn box_probe_2d_matches_scan_oracle(
        regions in regions_strategy(),
        a in -50i64..1050, b in -50i64..1050,
        c in -50i64..1050, d in -50i64..1050,
        open_above in any::<bool>(),
    ) {
        let db = build_region_db(&regions);
        let idx = StoreIndex::build(&db);
        let (xlo, xhi) = (a.min(b), a.max(b));
        let (ylo, yhi) = (c.min(d), if open_above { i64::MAX } else { c.max(d) });
        let second = if open_above {
            Interval::of_bounds(Some((Rational::from_int(ylo), false)), None)
        } else {
            window(c, d)
        };
        let got = idx
            .probe_box("Item", "region", &[window(a, b), second])
            .expect("a non-empty extent builds the column");
        let oracle = oids_of((0..regions.len()).filter(|&i| match regions[i] {
            Some((x, w, y, h)) => x <= xhi && xlo <= x + w && y <= yhi && ylo <= y + h,
            None => false,
        }));
        prop_assert!(regions.len() > BOX_PAGE);
        prop_assert_eq!(got, oracle);
    }
}
