//! The immutable, generation-stamped store index.
//!
//! Built once per database generation by [`index_for`] and cached on the
//! database's [`IndexSlot`](lyric_oodb::IndexSlot). Two column families:
//!
//! * [`ScalarColumn`] — per `(class, scalar attribute)`: a sorted run of
//!   `(value, oid)` postings for numeric values (equality and range
//!   probes by binary search), exact-match buckets for strings and
//!   booleans, and a `nonnum` posting list of every extent member whose
//!   stored value is *not* a plain numeric scalar (missing attribute,
//!   named/function/CST value). Range probes must return `nonnum` too:
//!   under a full scan those objects make an ordered comparison *error*,
//!   and pruning them would turn an `Err` answer into `Ok`.
//! * [`BoxColumn`] — per `(class, CST attribute)`: one positional
//!   interval vector per stored constraint member (its `IntervalBox`
//!   read off in declared-variable order), packed into [`BOX_PAGE`]-sized
//!   pages with a per-page hull. Entries are paged in order of their
//!   centre on the first axis, so each page covers a narrow slice of
//!   that axis. A probe intersects the query window against page hulls
//!   first and only descends into surviving pages — a two-level packed
//!   R-tree.

use lyric_arith::Rational;
use lyric_constraint::{CstObject, Interval};
use lyric_oodb::{AttrTarget, Database, ObjectData, Oid, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Entries per bounding-box page. Probes test one hull per page, so the
/// page size trades hull-test savings against per-entry tests inside
/// surviving pages; 64 keeps both levels cache-friendly.
pub const BOX_PAGE: usize = 64;

/// Sorted postings for one `(class, scalar attribute)` column.
#[derive(Debug, Clone, Default)]
pub struct ScalarColumn {
    /// `(value, oid)` for members whose stored value is numeric, sorted.
    nums: Vec<(Rational, Oid)>,
    /// Exact-match buckets for string values.
    strs: BTreeMap<String, Vec<Oid>>,
    /// Exact-match buckets for boolean values.
    bools: BTreeMap<bool, Vec<Oid>>,
    /// Every member whose value is not a numeric scalar: missing
    /// attribute, string, boolean, named, function, or CST value.
    /// Ordered probes must include these (the scan would error on them).
    nonnum: Vec<Oid>,
}

/// `(oid, positional box)` — one entry per stored constraint member, so
/// a set-valued attribute contributes several entries per oid.
type BoxEntry = (Oid, Vec<Interval>);

/// One page of the bounding-box index: entries plus their positional hull.
#[derive(Debug, Clone)]
pub struct BoxPage {
    /// Positional hull of every entry box in the page.
    hull: Vec<Interval>,
    entries: Vec<BoxEntry>,
}

/// The paged bounding-box index for one `(class, CST attribute)` column.
#[derive(Debug, Clone)]
pub struct BoxColumn {
    /// Declared dimension of the attribute; probes with a different
    /// window arity are refused (no pruning).
    arity: usize,
    pages: Vec<BoxPage>,
}

impl BoxColumn {
    /// Number of pages (two-level structure; exposed for tests).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }
}

/// The immutable index over one database generation.
#[derive(Debug, Clone, Default)]
pub struct StoreIndex {
    generation: u64,
    scalars: BTreeMap<(String, String), ScalarColumn>,
    boxes: BTreeMap<(String, String), BoxColumn>,
}

impl StoreIndex {
    /// Build the full index for the database's current generation:
    /// a scalar column per declared single-valued scalar attribute and a
    /// box column per declared CST attribute, over the (inheritance-
    /// aware) extent of every class.
    pub fn build(db: &Database) -> StoreIndex {
        let mut idx = StoreIndex {
            generation: db.data_generation(),
            ..StoreIndex::default()
        };
        for class in db.schema().class_names() {
            // Each member's stored data is looked up once per class, not
            // once per column.
            let members: Vec<Member> = db
                .extent_refs(class)
                .into_iter()
                .map(|oid| (oid, db.object(oid)))
                .collect();
            if members.is_empty() {
                continue;
            }
            for (attr, decl) in db.schema().attributes_of(class) {
                match &decl.target {
                    AttrTarget::Cst { vars } => {
                        let col = build_box_column(&members, &attr, vars.len());
                        idx.boxes.insert((class.to_string(), attr), col);
                    }
                    AttrTarget::Class { .. } if !decl.is_set => {
                        let col = build_scalar_column(&members, &attr);
                        idx.scalars.insert((class.to_string(), attr), col);
                    }
                    _ => {}
                }
            }
        }
        idx
    }

    /// The database generation this index was built against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Candidates for `class.attr = value` where `value` is a literal.
    /// Exact: equality on a missing or differently-valued attribute is
    /// plain `false` under a scan (never an error), so only true matches
    /// are returned. `None` when the column does not exist (no pruning).
    pub fn probe_eq(&self, class: &str, attr: &str, value: &Oid) -> Option<Vec<Oid>> {
        let col = self.scalars.get(&(class.to_string(), attr.to_string()))?;
        let mut out: Vec<Oid> = match value {
            Oid::Int(_) | Oid::Rat(_) => {
                let v = value.as_rational().expect("numeric oid");
                let start = col.nums.partition_point(|(r, _)| *r < v);
                col.nums[start..]
                    .iter()
                    .take_while(|(r, _)| *r == v)
                    .map(|(_, o)| o.clone())
                    .collect()
            }
            Oid::Str(s) => col.strs.get(s).cloned().unwrap_or_default(),
            Oid::Bool(b) => col.bools.get(b).cloned().unwrap_or_default(),
            // Only literal comparands are planned as probes.
            _ => return None,
        };
        out.sort();
        out.dedup();
        Some(out)
    }

    /// Candidates for an ordered comparison of `class.attr` against the
    /// numeric `window`: numeric postings inside the window **plus every
    /// non-numeric/missing member** (the scan errors on those, so they
    /// must survive). `None` when the column does not exist.
    pub fn probe_range(&self, class: &str, attr: &str, window: &Interval) -> Option<Vec<Oid>> {
        let col = self.scalars.get(&(class.to_string(), attr.to_string()))?;
        let start = match window.lo() {
            None => 0,
            Some((b, strict)) => {
                if strict {
                    col.nums.partition_point(|(r, _)| r <= b)
                } else {
                    col.nums.partition_point(|(r, _)| r < b)
                }
            }
        };
        let end = match window.hi() {
            None => col.nums.len(),
            Some((b, strict)) => {
                if strict {
                    col.nums.partition_point(|(r, _)| r < b)
                } else {
                    col.nums.partition_point(|(r, _)| r <= b)
                }
            }
        };
        let mut out: Vec<Oid> = col.nums[start..end.max(start)]
            .iter()
            .map(|(_, o)| o.clone())
            .collect();
        out.extend(col.nonnum.iter().cloned());
        out.sort();
        out.dedup();
        Some(out)
    }

    /// Candidates for a bounding-box probe of the CST attribute: every
    /// oid with at least one stored member whose box intersects the
    /// positional `window` on every coordinate. Objects without the
    /// attribute are *not* candidates (a path predicate on a missing
    /// attribute is plain `false`). `None` when the column does not exist
    /// or the window arity mismatches.
    pub fn probe_box(&self, class: &str, attr: &str, window: &[Interval]) -> Option<Vec<Oid>> {
        let col = self.boxes.get(&(class.to_string(), attr.to_string()))?;
        if window.len() != col.arity {
            return None;
        }
        let mut out = Vec::new();
        for page in &col.pages {
            if boxes_disjoint(&page.hull, window) {
                continue;
            }
            for (oid, ivs) in &page.entries {
                if !boxes_disjoint(ivs, window) {
                    out.push(oid.clone());
                }
            }
        }
        out.sort();
        out.dedup();
        Some(out)
    }
}

/// Positional disjointness: two boxes are disjoint iff they are disjoint
/// on some coordinate.
fn boxes_disjoint(a: &[Interval], b: &[Interval]) -> bool {
    a.iter().zip(b).any(|(x, y)| x.intersect(y).is_empty())
}

/// An extent member and its stored data, if it has any.
type Member<'a> = (&'a Oid, Option<&'a ObjectData>);

fn build_scalar_column(members: &[Member], attr: &str) -> ScalarColumn {
    let mut col = ScalarColumn::default();
    for &(oid, data) in members {
        let value = data.and_then(|data| data.attr(attr));
        match value {
            Some(Value::Scalar(v)) => match v {
                Oid::Int(_) | Oid::Rat(_) => {
                    let r = v.as_rational().expect("numeric oid");
                    col.nums.push((r, oid.clone()));
                }
                Oid::Str(s) => {
                    col.strs.entry(s.clone()).or_default().push(oid.clone());
                    col.nonnum.push(oid.clone());
                }
                Oid::Bool(b) => {
                    col.bools.entry(*b).or_default().push(oid.clone());
                    col.nonnum.push(oid.clone());
                }
                _ => col.nonnum.push(oid.clone()),
            },
            // A set value under a scalar declaration cannot happen
            // (cardinality-checked at insert), but stay conservative.
            Some(Value::Set(_)) | None => col.nonnum.push(oid.clone()),
        }
    }
    col.nums.sort();
    for bucket in col.strs.values_mut().chain(col.bools.values_mut()) {
        bucket.sort();
        bucket.dedup();
    }
    col.nonnum.sort();
    col.nonnum.dedup();
    col
}

fn build_box_column(members: &[Member], attr: &str, arity: usize) -> BoxColumn {
    let mut entries: Vec<BoxEntry> = Vec::new();
    for &(oid, data) in members {
        let Some(value) = data.and_then(|data| data.attr(attr)) else {
            continue; // missing attribute: prunable, no entry
        };
        for member in value.iter() {
            let ivs = match member.as_cst() {
                Some(c) if c.arity() == arity => positional_box(c),
                // Dimension mismatch or non-CST member: keep the object
                // as an always-candidate rather than risk pruning it.
                _ => vec![Interval::top(); arity],
            };
            entries.push((oid.clone(), ivs));
        }
    }
    // Page in order of the axis-0 key, computed once per entry, so each
    // page's hull spans a narrow slice of axis 0; pages filled in oid
    // order would each span all of it. The sort is stable: equal keys
    // keep oid order.
    let mut keyed: Vec<(f64, BoxEntry)> = entries
        .into_iter()
        .map(|e| (e.1.first().map_or(0.0, centre_key), e))
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut ordered = keyed.into_iter().map(|(_, e)| e).peekable();
    let mut pages = Vec::new();
    while ordered.peek().is_some() {
        let entries: Vec<BoxEntry> = ordered.by_ref().take(BOX_PAGE).collect();
        let mut hull = entries[0].1.clone();
        for (_, ivs) in &entries[1..] {
            for (h, iv) in hull.iter_mut().zip(ivs) {
                *h = h.hull(iv);
            }
        }
        pages.push(BoxPage { hull, entries });
    }
    BoxColumn { arity, pages }
}

/// The object's [`interval_box`](CstObject::interval_box) read off in
/// schema order: per schema variable, the hull over the disjuncts with a
/// nonempty box of the disjunct's interval; ⊤ on every axis when no
/// disjunct has one, as the empty object box reads. One box per
/// disjunct, and no restricted or hulled box in between.
fn positional_box(c: &CstObject) -> Vec<Interval> {
    let mut out: Option<Vec<Interval>> = None;
    for d in c.disjuncts() {
        let bx = d.interval_box();
        if bx.is_empty() {
            continue;
        }
        let ivs = c.free().iter().map(|v| bx.interval(v));
        out = Some(match out {
            None => ivs.collect(),
            Some(acc) => acc.iter().zip(ivs).map(|(a, b)| a.hull(&b)).collect(),
        });
    }
    out.unwrap_or_else(|| vec![Interval::top(); c.arity()])
}

/// The packing sort key of an interval: `lo + hi`, twice the centre
/// with no division; twice the finite endpoint when the interval is
/// half-open; 0 for ⊤. Floating point suffices: the key only orders
/// entries for packing, so rounding can loosen a page hull but never
/// change a probe answer.
fn centre_key(iv: &Interval) -> f64 {
    match (iv.lo(), iv.hi()) {
        (Some((lo, _)), Some((hi, _))) => lo.to_f64() + hi.to_f64(),
        (Some((b, _)), None) | (None, Some((b, _))) => 2.0 * b.to_f64(),
        (None, None) => 0.0,
    }
}

/// The index for the database's *current* generation: answered from the
/// database's cache slot when possible, otherwise built and cached.
pub fn index_for(db: &Database) -> Arc<StoreIndex> {
    let generation = db.data_generation();
    if let Some(cached) = db.index_slot().get(generation) {
        if let Ok(idx) = cached.downcast::<StoreIndex>() {
            return idx;
        }
    }
    let idx = Arc::new(StoreIndex::build(db));
    db.index_slot().set(
        generation,
        idx.clone() as Arc<dyn std::any::Any + Send + Sync>,
    );
    idx
}

/// Intersection of two sorted, duplicate-free oid runs (used to combine
/// the candidate sets of several probes on the same FROM variable).
pub fn intersect_sorted(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
    use lyric_oodb::{AttrDef, ClassDef, Schema};

    fn span(lo: i64, hi: i64) -> CstObject {
        CstObject::from_conjunction(
            vec![Var::new("w"), Var::new("z")],
            Conjunction::of([
                Atom::ge(LinExpr::var(Var::new("w")), LinExpr::from(lo)),
                Atom::le(LinExpr::var(Var::new("w")), LinExpr::from(hi)),
                Atom::ge(LinExpr::var(Var::new("z")), LinExpr::from(lo)),
                Atom::le(LinExpr::var(Var::new("z")), LinExpr::from(hi)),
            ]),
        )
    }

    fn closed(lo: i64, hi: i64) -> Interval {
        Interval::of_bounds(
            Some((Rational::from_int(lo), false)),
            Some((Rational::from_int(hi), false)),
        )
    }

    /// The 10 × 10 box with lower corner `(x, y)`.
    fn rect(x: i64, y: i64) -> CstObject {
        CstObject::from_conjunction(
            vec![Var::new("w"), Var::new("z")],
            Conjunction::of([
                Atom::ge(LinExpr::var(Var::new("w")), LinExpr::from(x)),
                Atom::le(LinExpr::var(Var::new("w")), LinExpr::from(x + 10)),
                Atom::ge(LinExpr::var(Var::new("z")), LinExpr::from(y)),
                Atom::le(LinExpr::var(Var::new("z")), LinExpr::from(y + 10)),
            ]),
        )
    }

    #[test]
    fn positional_box_reads_the_object_box_in_schema_order() {
        let (w, z) = (Var::new("w"), Var::new("z"));
        let half_open = CstObject::from_conjunction(
            vec![z.clone(), w.clone()],
            Conjunction::of([Atom::lt(LinExpr::var(w.clone()), LinExpr::from(3))]),
        );
        let empty_box = CstObject::from_conjunction(
            vec![w.clone(), z.clone()],
            Conjunction::of([
                Atom::ge(LinExpr::var(w.clone()), LinExpr::from(2)),
                Atom::le(LinExpr::var(w.clone()), LinExpr::from(1)),
            ]),
        );
        let objects = [
            rect(3, 7),
            span(-2, 5).or(&rect(20, -4)),
            rect(0, 0).or(&empty_box),
            half_open,
            empty_box,
            CstObject::bottom(vec![w.clone(), z.clone()]),
            CstObject::top(vec![w, z]),
        ];
        for c in &objects {
            let b = c.interval_box();
            let expected: Vec<Interval> = c.free().iter().map(|v| b.interval(v)).collect();
            assert_eq!(positional_box(c), expected, "{c}");
        }
    }

    fn test_db(n: i64) -> Database {
        let mut schema = Schema::new();
        schema
            .add_class(
                ClassDef::new("Item")
                    .attr(AttrDef::scalar("weight", AttrTarget::class("int")))
                    .attr(AttrDef::scalar("label", AttrTarget::class("string")))
                    .attr(AttrDef::scalar("region", AttrTarget::cst(["w", "z"]))),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        for i in 0..n {
            db.insert(
                Oid::named(format!("item_{i}")),
                "Item",
                [
                    ("weight", Value::Scalar(Oid::Int(i))),
                    ("label", Value::Scalar(Oid::str(format!("L{}", i % 3)))),
                    ("region", Value::Scalar(Oid::cst(span(10 * i, 10 * i + 5)))),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn eq_and_range_probes_match_scan() {
        let db = test_db(20);
        let idx = StoreIndex::build(&db);
        let eq = idx.probe_eq("Item", "weight", &Oid::Int(7)).unwrap();
        assert_eq!(eq, vec![Oid::named("item_7")]);
        let window = Interval::of_bounds(
            Some((Rational::from_int(3), false)),
            Some((Rational::from_int(5), true)),
        );
        let range = idx.probe_range("Item", "weight", &window).unwrap();
        assert_eq!(range, vec![Oid::named("item_3"), Oid::named("item_4")]);
        let s = idx.probe_eq("Item", "label", &Oid::str("L1")).unwrap();
        assert_eq!(s.len(), 7); // 1, 4, 7, 10, 13, 16, 19
        assert!(idx.probe_eq("Item", "nope", &Oid::Int(0)).is_none());
    }

    #[test]
    fn box_probe_prunes_disjoint_objects() {
        let db = test_db(100); // two pages
        let idx = StoreIndex::build(&db);
        let window = vec![
            Interval::of_bounds(
                Some((Rational::from_int(205), false)),
                Some((Rational::from_int(212), false)),
            ),
            Interval::top(),
        ];
        let hits = idx.probe_box("Item", "region", &window).unwrap();
        // item_20 spans [200,205], item_21 spans [210,215]: both touch.
        assert_eq!(hits, vec![Oid::named("item_20"), Oid::named("item_21")]);
        // Arity mismatch: refuse to prune.
        assert!(idx.probe_box("Item", "region", &window[..1]).is_none());
    }

    #[test]
    fn index_is_cached_per_generation() {
        let mut db = test_db(3);
        let a = index_for(&db);
        let b = index_for(&db);
        assert!(Arc::ptr_eq(&a, &b));
        db.insert(Oid::named("item_99"), "Item", [] as [(&str, Value); 0])
            .unwrap();
        let c = index_for(&db);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.generation(), db.data_generation());
        // The clone starts with a fresh slot but the same data.
        let clone = db.clone();
        let d = index_for(&clone);
        assert!(!Arc::ptr_eq(&c, &d));
        assert_eq!(d.generation(), c.generation());
    }

    #[test]
    fn sorted_run_intersection() {
        let a: Vec<Oid> = [1, 3, 5].into_iter().map(Oid::Int).collect();
        let b: Vec<Oid> = [2, 3, 5, 7].into_iter().map(Oid::Int).collect();
        assert_eq!(
            intersect_sorted(&a, &b),
            [3, 5].into_iter().map(Oid::Int).collect::<Vec<_>>()
        );
        assert_eq!(intersect_sorted(&[], &b), Vec::<Oid>::new());
    }

    /// Axis-0 packing on 5000 uniformly placed 10 × 10 boxes: the only
    /// page hulls a width-10 strip meets are those of the pages holding
    /// its answer, plus at most one page that straddles it — at most two
    /// of the P = 79 here, where oid-order pages each span the whole space and
    /// the strip met all 79. The probe answer stays exactly the naive
    /// overlap set.
    #[test]
    fn axis0_pages_confine_a_strip_to_its_answer() {
        let n = 5000i64;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as i64
        };
        let mut schema = Schema::new();
        schema
            .add_class(
                ClassDef::new("Item").attr(AttrDef::scalar("region", AttrTarget::cst(["w", "z"]))),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        let mut corners = Vec::new();
        for i in 0..n {
            let (x, y) = (next(n), next(1000));
            corners.push((x, y));
            db.insert(
                Oid::named(format!("item_{i}")),
                "Item",
                [("region", Value::Scalar(Oid::cst(rect(x, y))))],
            )
            .unwrap();
        }
        let idx = StoreIndex::build(&db);
        let col = &idx.boxes[&("Item".to_string(), "region".to_string())];
        let pages = col.num_pages();
        assert_eq!(pages, (n as usize).div_ceil(BOX_PAGE));
        for lo in [0, 1234, 2500, 4990] {
            let window = vec![
                closed(lo, lo + 10),
                Interval::of_bounds(Some((Rational::zero(), false)), None),
            ];
            let hits = idx.probe_box("Item", "region", &window).unwrap();
            let oracle: Vec<Oid> = (0..n as usize)
                .filter(|&i| corners[i].0 <= lo + 10 && lo <= corners[i].0 + 10)
                .map(|i| Oid::named(format!("item_{i}")))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let kept = col
                .pages
                .iter()
                .filter(|p| !boxes_disjoint(&p.hull, &window))
                .count();
            assert!(
                kept <= oracle.len().div_ceil(BOX_PAGE) + 1 && kept <= 2,
                "strip at {lo} kept {kept} of {pages} page hulls for {} hits",
                oracle.len()
            );
            assert_eq!(hits, oracle, "strip at {lo}");
        }
    }
}
