//! Synthetic workload generators.

use lyric::paper_example::{box2, point2, translation2};
use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, Dnf, LinExpr, NormOp, Var};
use lyric_flatrel::FlatDb;
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ----------------------------------------------------------------- office

/// A synthetic office database with `n` room objects (alternating desks
/// and file cabinets, each with its own catalog object and drawer) at
/// random locations in a 200×100 room. Uses the paper's Figure 1 schema,
/// so every §4.1 query runs on it unchanged — this is the E2
/// data-complexity workload.
pub fn office_db(n: usize, seed: u64) -> Database {
    let mut r = rng(seed);
    let mut db = Database::new(lyric::paper_example::schema()).expect("schema validates");
    for color in ["red", "blue", "grey"] {
        db.declare_instance("Color", Oid::str(color))
            .expect("color class");
    }
    for i in 0..n {
        let is_desk = i % 2 == 0;
        let (half_w, half_h) = if is_desk { (4, 2) } else { (1, 2) };
        let drawer = format!("drawer_{i}");
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
        let catalog = format!("catalog_{i}");
        let color = ["red", "blue", "grey"][r.gen_range(0..3)];
        let (class, center_var) = if is_desk {
            ("Desk", ("p", "q"))
        } else {
            ("File_Cabinet", ("p1", "q1"))
        };
        let center = CstObject::from_conjunction(
            vec![Var::new(center_var.0), Var::new(center_var.1)],
            Conjunction::of([
                Atom::eq(LinExpr::var(Var::new(center_var.0)), LinExpr::from(-half_w)),
                Atom::ge(LinExpr::var(Var::new(center_var.1)), LinExpr::from(-2)),
                Atom::le(LinExpr::var(Var::new(center_var.1)), LinExpr::from(0)),
            ]),
        );
        let center_value = if is_desk {
            Value::Scalar(Oid::cst(center))
        } else {
            Value::set([Oid::cst(center)])
        };
        db.insert(
            Oid::named(&catalog),
            class,
            [
                ("name", Value::Scalar(Oid::str(format!("catalog item {i}")))),
                ("color", Value::Scalar(Oid::str(color))),
                (
                    "extent",
                    Value::Scalar(Oid::cst(box2("w", "z", -half_w, half_w, -half_h, half_h))),
                ),
                ("translation", Value::Scalar(Oid::cst(translation2()))),
                ("drawer_center", center_value),
                ("drawer", Value::Scalar(Oid::named(&drawer))),
            ],
        )
        .expect("catalog insert");
        let x = r.gen_range(5..195);
        let y = r.gen_range(5..95);
        db.insert(
            Oid::named(format!("room_obj_{i}")),
            "Object_In_Room",
            [
                ("inv_number", Value::Scalar(Oid::str(format!("inv-{i}")))),
                ("location", Value::Scalar(Oid::cst(point2("x", "y", x, y)))),
                ("catalog_object", Value::Scalar(Oid::named(&catalog))),
            ],
        )
        .expect("room insert");
    }
    db
}

/// The E2 "linear" probe query: per room object, its extent in room
/// coordinates (one formula instantiation + canonicalization per object).
pub const Q_LINEAR: &str = "SELECT O, ((u,v) | E AND D AND L(x,y))
     FROM Object_In_Room O
     WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L]";

/// The §5 flat-algebra plan for [`Q_LINEAR`]: the object-in-room extent
/// joined with its location, catalog object, extent and translation
/// relations, projected on `(u, v)`, with each object's disjuncts grouped
/// into one CST object. E7 times it and `tests/flat_equivalence.rs`
/// checks it against the direct evaluator.
pub fn flat_linear_regions(flat: &FlatDb) -> Vec<(Oid, CstObject)> {
    let oir = flat.extent("Object_In_Room").expect("extent relation");
    let loc = flat
        .attr("Object_In_Room", "location")
        .expect("location relation");
    let cat = flat
        .attr("Object_In_Room", "catalog_object")
        .expect("catalog relation");
    let ext = flat
        .attr("Office_Object", "extent")
        .expect("extent relation")
        .rename_col("obj", "cat_obj");
    let tr = flat
        .attr("Office_Object", "translation")
        .expect("translation relation")
        .rename_col("obj", "cat_obj");
    // OIR ⋈ location ⋈ catalog ⋈ extent ⋈ translation; constraint
    // variables x,y (location/translation) and w,z (extent/translation)
    // unify by name — the §3.2 natural-join analogy.
    let projected = oir
        .join(loc, &[("obj", "obj")])
        .join(cat, &[("obj", "obj")])
        .rename_col("val", "cat_obj")
        .join(&ext, &[("cat_obj", "cat_obj")])
        .join(&tr, &[("cat_obj", "cat_obj")])
        .project(&["obj"], &[Var::new("u"), Var::new("v")]);
    let mut out: Vec<(Oid, CstObject)> = Vec::new();
    for t in projected.tuples() {
        let obj = t.values[0].clone();
        let piece =
            CstObject::from_conjunction(vec![Var::new("u"), Var::new("v")], t.constraint.clone());
        match out.iter_mut().find(|(o, _)| *o == obj) {
            Some((_, acc)) => *acc = acc.or(&piece),
            None => out.push((obj, piece)),
        }
    }
    out
}

/// The E2 "pairwise" probe query: overlapping pairs of room objects
/// (quadratic join with a satisfiability predicate per pair).
pub const Q_PAIRWISE: &str = "SELECT X, Y
     FROM Object_In_Room X, Object_In_Room Y
     WHERE X.catalog_object[CX] AND Y.catalog_object[CY]
       AND X.location[LX] AND Y.location[LY]
       AND CX.extent[EX] AND CX.translation[DX]
       AND CY.extent[EY] AND CY.translation[DY]
       AND X != Y
       AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y)
            AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2))";

/// The served scan (`perfbench`'s `served` workload) at a window
/// `[x0, x1] × [y0, y1]` of room coordinates: the objects whose room
/// extent meets it, one satisfiability check per object.
pub fn q_scan_window(x0: i64, x1: i64, y0: i64, y1: i64) -> String {
    format!(
        "SELECT O FROM Object_In_Room O \
         WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L] \
         AND (E(w,z) AND D(w,z,x,y,u,v) AND L(x,y) \
         AND u >= {x0} AND u <= {x1} AND v >= {y0} AND v <= {y1})"
    )
}

/// The served pairwise join at a window of room coordinates: the ordered
/// pairs of distinct objects that overlap inside it.
pub fn q_join_window(x0: i64, x1: i64, y0: i64, y1: i64) -> String {
    format!(
        "SELECT X, Y FROM Object_In_Room X, Object_In_Room Y \
         WHERE X.catalog_object[CX] AND Y.catalog_object[CY] \
         AND X.location[LX] AND Y.location[LY] \
         AND CX.extent[EX] AND CX.translation[DX] \
         AND CY.extent[EY] AND CY.translation[DY] \
         AND X != Y \
         AND (EX(w,z) AND DX(w,z,x,y,u,v) AND LX(x,y) \
         AND EY(w2,z2) AND DY(w2,z2,x2,y2,u,v) AND LY(x2,y2) \
         AND u >= {x0} AND u <= {x1} AND v >= {y0} AND v <= {y1})"
    )
}

// ---------------------------------------------------------------- scaling

/// The store-index scaling workload (E16): `n` flat `Item` objects, each
/// with a numeric `weight` (unique, `0..n`), a low-cardinality string
/// `label`, and a 2-d constraint `region` — a 10×10 box whose lower-left
/// corner sits at a seeded random position in `[0, n) × [0, 1000)`.
/// Selective probes over `weight` hit the sorted scalar column and
/// selective windows over `region` hit the paged bounding-box column,
/// while a full scan pays one binding per object; E16 races the two
/// against each other, and `tests/index_differential.rs` checks that
/// they agree.
pub fn scaling_db(n: usize, seed: u64) -> Database {
    let mut r = rng(seed);
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Item")
                .attr(AttrDef::scalar("weight", AttrTarget::class("int")))
                .attr(AttrDef::scalar("label", AttrTarget::class("string")))
                .attr(AttrDef::scalar("region", AttrTarget::cst(["u", "v"]))),
        )
        .expect("fresh schema");
    let mut db = Database::new(schema).expect("schema validates");
    for i in 0..n {
        let x = r.gen_range(0..n.max(1) as i64);
        let y = r.gen_range(0..1000i64);
        db.insert(
            Oid::named(format!("item_{i}")),
            "Item",
            [
                ("weight", Value::Scalar(Oid::Int(i as i64))),
                ("label", Value::Scalar(Oid::str(format!("L{}", i % 7)))),
                (
                    "region",
                    Value::Scalar(Oid::cst(box2("u", "v", x, x + 10, y, y + 10))),
                ),
            ],
        )
        .expect("item insert");
    }
    db
}

/// The E16 scalar-equality probe: one `weight` out of `n` (point lookup
/// in the sorted scalar column vs a full-extent scan).
pub fn q_weight_eq(k: i64) -> String {
    format!("SELECT X FROM Item X WHERE X.weight = {k}")
}

/// The E16 scalar-range probe: the top slice of the `weight` column.
pub fn q_weight_ge(lo: i64) -> String {
    format!("SELECT X FROM Item X WHERE X.weight >= {lo}")
}

/// The E16 window probe: items whose `region` meets a thin vertical
/// strip (bounding-box column probe vs per-object sat checks).
pub fn q_region_window(lo: i64) -> String {
    format!(
        "SELECT X FROM Item X WHERE X.region[E] AND (E(a,b) AND a >= {lo} AND a <= {hi} AND b >= 0)",
        hi = lo + 10
    )
}

// ---------------------------------------------------------------- factory

/// A chemical-factory database (§1.2's LP application realm): `processes`
/// manufacturing processes, each a constraint object over
/// `m` material-consumption variables and `p` product-output variables
/// (linear production rates, non-negative run length, capacity bound).
#[allow(clippy::needless_range_loop)]
pub fn factory_db(processes: usize, materials: usize, products: usize, seed: u64) -> Database {
    let mut r = rng(seed);
    let mut vars: Vec<Var> = (0..materials).map(|i| Var::new(format!("m{i}"))).collect();
    vars.extend((0..products).map(|i| Var::new(format!("p{i}"))));
    let run = Var::new("run");

    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Process")
                .attr(AttrDef::scalar("name", AttrTarget::class("string")))
                .attr(AttrDef::scalar(
                    "constraint",
                    AttrTarget::Cst { vars: vars.clone() },
                )),
        )
        .expect("fresh schema");
    let mut db = Database::new(schema).expect("schema validates");

    for j in 0..processes {
        let mut atoms = vec![
            Atom::ge(LinExpr::var(run.clone()), LinExpr::from(0)),
            Atom::le(
                LinExpr::var(run.clone()),
                LinExpr::from(r.gen_range(50..150) as i64),
            ),
        ];
        // Each material consumed proportionally to the run length.
        for i in 0..materials {
            let rate = r.gen_range(1..6) as i64;
            atoms.push(Atom::eq(
                LinExpr::var(vars[i].clone()),
                LinExpr::term(run.clone(), Rational::from_int(rate)),
            ));
        }
        // Each product produced proportionally (some processes skip some
        // products: rate 0 fixes the output at zero).
        for i in 0..products {
            let rate = if r.gen_bool(0.75) {
                r.gen_range(1..4) as i64
            } else {
                0
            };
            atoms.push(Atom::eq(
                LinExpr::var(vars[materials + i].clone()),
                LinExpr::term(run.clone(), Rational::from_int(rate)),
            ));
        }
        let c = CstObject::new(vars.clone(), [Conjunction::of(atoms)]);
        db.insert(
            Oid::named(format!("process_{j}")),
            "Process",
            [
                ("name", Value::Scalar(Oid::str(format!("process {j}")))),
                ("constraint", Value::Scalar(Oid::cst(c))),
            ],
        )
        .expect("process insert");
    }
    db
}

/// The E6 probe: the best achievable profit per process given stock
/// limits — a LyriC `MAX … SUBJECT TO` query string for a factory with
/// the given shape.
pub fn factory_query(materials: usize, products: usize) -> String {
    let all_vars: Vec<String> = (0..materials)
        .map(|i| format!("m{i}"))
        .chain((0..products).map(|i| format!("p{i}")))
        .collect();
    let profit: Vec<String> = (0..products)
        .map(|i| format!("{} * p{i}", i % 3 + 1))
        .collect();
    let stock: Vec<String> = (0..materials).map(|i| format!("m{i} <= 100")).collect();
    format!(
        "SELECT P, MAX({} SUBJECT TO (({}) | C AND {})) FROM Process P WHERE P.constraint[C]",
        profit.join(" + "),
        all_vars.join(","),
        stock.join(" AND ")
    )
}

/// A quantified region for the E8 workload: a random satisfiable
/// conjunction over 6 variables of which 4 are existentially bound —
/// projecting onto `(v0, v1)` via eager Fourier–Motzkin is genuinely
/// expensive (E5-scale), and costs the same whether or not a conjoined
/// query window made the object unsatisfiable; the LP feasibility test,
/// by contrast, handles the quantifiers natively in one solve.
///
/// Rejection-samples the random conjunctions so that the eliminated form
/// lands between 50 and 5000 atoms: enough Fourier–Motzkin work to be
/// the pipeline bottleneck, while excluding the unbounded outliers FM can
/// produce (benchmark E5 measures those directly). The sampling runs at
/// workload-construction time and is deterministic in the seed.
pub fn quantified_region(r: &mut StdRng) -> CstObject {
    loop {
        let conj = random_satisfiable_conjunction(r, 6, 18);
        let obj = CstObject::new(vec![Var::new("v0"), Var::new("v1")], [conj]);
        let eliminated = obj.eliminate_bound();
        let atoms: usize = eliminated.disjuncts().iter().map(|d| d.atoms().len()).sum();
        if (50..5000).contains(&atoms) {
            return obj;
        }
    }
}

// ------------------------------------------------------------ constraints

/// A random linear atom over `nvars` variables with small integer
/// coefficients.
pub fn random_atom(r: &mut StdRng, nvars: usize) -> Atom {
    let mut e = LinExpr::zero();
    for i in 0..nvars {
        let c = r.gen_range(-3..=3i64);
        if c != 0 {
            e = e + LinExpr::term(Var::new(format!("v{i}")), Rational::from_int(c));
        }
    }
    let rhs = LinExpr::from(r.gen_range(-10..=10i64));
    match r.gen_range(0..8) {
        0 => Atom::eq(e, rhs),
        1 => Atom::lt(e, rhs),
        _ => Atom::le(e, rhs),
    }
}

/// A random conjunction of `m` atoms over `nvars` variables.
pub fn random_conjunction(r: &mut StdRng, nvars: usize, m: usize) -> Conjunction {
    Conjunction::of((0..m).map(|_| random_atom(r, nvars)))
}

/// A random conjunction guaranteed to be satisfiable (bounded box plus
/// random halfspaces through a known interior point).
#[allow(clippy::needless_range_loop)]
pub fn random_satisfiable_conjunction(r: &mut StdRng, nvars: usize, m: usize) -> Conjunction {
    // Pick a center; keep atoms that the center satisfies (flip otherwise).
    let center: Vec<i64> = (0..nvars).map(|_| r.gen_range(-5..=5)).collect();
    let mut atoms = Vec::new();
    for i in 0..nvars {
        atoms.push(Atom::ge(
            LinExpr::var(Var::new(format!("v{i}"))),
            LinExpr::from(center[i] - 10),
        ));
        atoms.push(Atom::le(
            LinExpr::var(Var::new(format!("v{i}"))),
            LinExpr::from(center[i] + 10),
        ));
    }
    while atoms.len() < m {
        let a = random_atom(r, nvars);
        if a.op() == NormOp::Eq {
            continue;
        }
        let at_center: Rational = {
            let mut p = lyric_constraint::Assignment::new();
            for (i, c) in center.iter().enumerate() {
                p.insert(Var::new(format!("v{i}")), Rational::from_int(*c));
            }
            if a.eval(&p) {
                atoms.push(a);
                continue;
            }
            Rational::zero()
        };
        let _ = at_center;
        atoms.push(a.negate());
    }
    Conjunction::of(atoms)
}

/// A random DNF with `k` disjuncts of `m` atoms each, a fraction of which
/// are deliberately inconsistent or duplicated (the E4 canonical-form
/// workload: the paper's chosen simplification deletes exactly those).
pub fn random_dnf(r: &mut StdRng, k: usize, m: usize, nvars: usize) -> Dnf {
    let mut disjuncts = Vec::with_capacity(k);
    for i in 0..k {
        if i % 4 == 3 && !disjuncts.is_empty() {
            // Duplicate an earlier disjunct.
            let j = r.gen_range(0..disjuncts.len());
            let d: &Conjunction = &disjuncts[j];
            disjuncts.push(d.clone());
        } else if i % 5 == 4 {
            // Semantically (not syntactically) inconsistent disjunct.
            let v = LinExpr::var(Var::new("v0"));
            let mut d = random_satisfiable_conjunction(r, nvars, m.saturating_sub(2).max(1));
            d = d.and_atom(Atom::ge(v.clone(), LinExpr::from(100)));
            d = d.and_atom(Atom::le(v, LinExpr::from(-100)));
            disjuncts.push(d);
        } else {
            disjuncts.push(random_satisfiable_conjunction(r, nvars, m));
        }
    }
    Dnf::of(disjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyric::execute;

    #[test]
    fn office_db_scales_and_answers() {
        let mut db = office_db(8, 7);
        assert_eq!(db.extent("Object_In_Room").len(), 8);
        assert_eq!(db.extent("Office_Object").len(), 8);
        let res = execute(&mut db, Q_LINEAR).unwrap();
        assert_eq!(res.rows.len(), 8);
        // Every answer is a nonempty region.
        for row in &res.rows {
            assert!(row[1].as_cst().unwrap().satisfiable());
        }
    }

    #[test]
    fn office_db_is_deterministic() {
        let a = office_db(4, 42);
        let b = office_db(4, 42);
        let mut ma = a.objects().map(|(o, _)| o.clone()).collect::<Vec<_>>();
        let mut mb = b.objects().map(|(o, _)| o.clone()).collect::<Vec<_>>();
        ma.sort();
        mb.sort();
        assert_eq!(ma, mb);
        let la = a.attr(&Oid::named("room_obj_0"), "location").unwrap();
        let lb = b.attr(&Oid::named("room_obj_0"), "location").unwrap();
        assert_eq!(la, lb);
    }

    #[test]
    fn pairwise_query_runs() {
        let mut db = office_db(6, 3);
        let res = execute(&mut db, Q_PAIRWISE).unwrap();
        // Overlap is symmetric: even count.
        assert_eq!(res.rows.len() % 2, 0);
    }

    #[test]
    fn scaling_db_probes_answer_exactly() {
        let mut db = scaling_db(64, 11);
        assert_eq!(db.extent("Item").len(), 64);
        let eq = execute(&mut db, &q_weight_eq(17)).unwrap();
        assert_eq!(eq.rows.len(), 1);
        assert_eq!(eq.rows[0][0], Oid::named("item_17"));
        let range = execute(&mut db, &q_weight_ge(60)).unwrap();
        assert_eq!(range.rows.len(), 4);
        let window = execute(&mut db, &q_region_window(0)).unwrap();
        assert!(!window.rows.is_empty() && window.rows.len() < 64);
    }

    #[test]
    fn factory_query_produces_profit() {
        let mut db = factory_db(4, 3, 2, 11);
        let q = factory_query(3, 2);
        let res = execute(&mut db, &q).unwrap();
        assert_eq!(res.rows.len(), 4);
        for row in &res.rows {
            match &row[1] {
                Oid::Rat(v) => assert!(!v.is_negative()),
                other => panic!("expected numeric profit, got {other}"),
            }
        }
    }

    #[test]
    fn random_satisfiable_conjunctions_are_satisfiable() {
        let mut r = rng(5);
        for _ in 0..20 {
            let c = random_satisfiable_conjunction(&mut r, 3, 8);
            assert!(c.satisfiable(), "{c}");
        }
    }

    #[test]
    fn random_dnf_contains_removable_disjuncts() {
        let mut r = rng(9);
        let d = random_dnf(&mut r, 12, 5, 3);
        let simplified = d.simplify();
        assert!(simplified.disjuncts().len() < d.disjuncts().len());
    }
}
