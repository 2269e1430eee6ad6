//! E7 correctness: the §5 flat translation + constraint algebra computes
//! exactly the answers of the direct object evaluator, across synthetic
//! databases of several sizes and seeds.

use lyric_bench::workload::{flat_linear_regions, office_db, Q_LINEAR};
use lyric_constraint::Var;
use lyric_flatrel::FlatDb;
use lyric_oodb::Oid;

#[test]
fn flat_translation_matches_direct_evaluator() {
    for (n, seed) in [(4usize, 1u64), (12, 2), (24, 3)] {
        let db = office_db(n, seed);
        let mut d = db.clone();
        let direct = lyric::execute(&mut d, Q_LINEAR).unwrap();
        let flat = FlatDb::from_database(&db);
        let regions = flat_linear_regions(&flat);

        assert_eq!(
            direct.rows.len(),
            regions.len(),
            "row count at n={n} seed={seed}"
        );
        for row in &direct.rows {
            let obj = &row[0];
            let want = row[1].as_cst().unwrap();
            let got = &regions
                .iter()
                .find(|(o, _)| o == obj)
                .expect("object present")
                .1;
            assert!(
                got.denotes_same(want),
                "region mismatch for {obj} at n={n} seed={seed}: flat={got} direct={want}"
            );
        }
    }
}

#[test]
fn flat_selection_matches_direct_filter() {
    // Direct: desks colored red. Flat: σ_color='red'(Office_Object_color)
    // ⋈ Desk extent relation.
    let db = office_db(10, 5);
    let mut d = db.clone();
    let direct = lyric::execute(&mut d, "SELECT X FROM Desk X WHERE X.color = 'red'").unwrap();
    let flat = FlatDb::from_database(&db);
    let red = flat
        .extent("Desk")
        .unwrap()
        .join(flat.attr("Desk", "color").unwrap(), &[("obj", "obj")])
        .select_eq("val", &Oid::str("red"));
    let mut direct_set: Vec<Oid> = direct.rows.iter().map(|r| r[0].clone()).collect();
    let mut flat_set: Vec<Oid> = red.tuples().iter().map(|t| t.values[0].clone()).collect();
    direct_set.sort();
    flat_set.sort();
    flat_set.dedup();
    assert_eq!(direct_set, flat_set);
}

#[test]
fn flat_constraint_selection_matches_satisfiability_predicate() {
    // Direct: room objects whose footprint reaches u >= 150.
    let db = office_db(16, 8);
    let mut d = db.clone();
    let direct = lyric::execute(
        &mut d,
        "SELECT O FROM Object_In_Room O
         WHERE O.catalog_object[C] AND C.extent[E] AND C.translation[D] AND O.location[L]
           AND (E AND D AND L(x,y) AND u >= 150)",
    )
    .unwrap();
    // Flat: join the same relations and add the constraint atom.
    let flat = FlatDb::from_database(&db);
    let joined = flat
        .extent("Object_In_Room")
        .unwrap()
        .join(
            flat.attr("Object_In_Room", "location").unwrap(),
            &[("obj", "obj")],
        )
        .join(
            flat.attr("Object_In_Room", "catalog_object").unwrap(),
            &[("obj", "obj")],
        )
        .rename_col("val", "cat_obj")
        .join(
            &flat
                .attr("Office_Object", "extent")
                .unwrap()
                .rename_col("obj", "cat_obj"),
            &[("cat_obj", "cat_obj")],
        )
        .join(
            &flat
                .attr("Office_Object", "translation")
                .unwrap()
                .rename_col("obj", "cat_obj"),
            &[("cat_obj", "cat_obj")],
        )
        .select_constraint(&[lyric_constraint::Atom::ge(
            lyric_constraint::LinExpr::var(Var::new("u")),
            lyric_constraint::LinExpr::from(150),
        )]);
    let mut direct_set: Vec<Oid> = direct.rows.iter().map(|r| r[0].clone()).collect();
    let mut flat_set: Vec<Oid> = joined
        .tuples()
        .iter()
        .map(|t| t.values[0].clone())
        .collect();
    direct_set.sort();
    direct_set.dedup();
    flat_set.sort();
    flat_set.dedup();
    assert_eq!(direct_set, flat_set);
}
