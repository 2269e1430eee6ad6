//! Properties of the n-ary conjunction [`CstObject::and_all`] and of the
//! emptiness lemma the WHERE path relies on.
//!
//! * `and_all(parts)` has the schema of the left fold of `and` and equals
//!   it up to the names of bound variables, so it denotes the same point
//!   set, for operands with existential quantifiers (`quantified_region`)
//!   and with several disjuncts (`random_dnf`). The α-equivalence check is
//!   exact and cheap; `denotes_same` is also run where its DNF refutation
//!   (exponential in the disjunct count) stays small.
//! * It charges the engine's `Disjuncts` budget exactly as the fold does
//!   when every operand has one disjunct.
//! * Canonicalization preserves emptiness, so a WHERE `(φ)` may decide
//!   satisfiability on the uncanonicalized object: checked on objects with
//!   bound variables and `≠` atoms.
//! * On the same objects canonicalization is idempotent, which is what
//!   lets a CST oid canonicalize once and rename the result: its identity
//!   carrier equals the object's `canonical_form`.
//! * `product_disjunct`, which a WHERE `(φ)` decides on borrowed atoms,
//!   holds the atoms of the product's one disjunct in the same order, and
//!   deciding it moves every engine counter but the arithmetic ones as
//!   deciding the product does; on every other shape it declines and notes
//!   nothing. (The standard library's stable sort picks its method by
//!   element size, so sorting more than about twenty borrowed atoms can
//!   count a different number of rational comparisons than sorting the
//!   same atoms owned; the sorted lists are equal.)

use lyric::constraint::{Atom, Conjunction, CstObject, LinExpr, NormOp, Operand, Var};
use lyric::engine::{run, EngineStats, ExecOptions};
use lyric::oodb::CstOid;
use lyric_bench::workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

fn vars(names: &[&str]) -> Vec<Var> {
    names.iter().map(Var::new).collect()
}

/// A `random_dnf` over `v0..v2`, seen through the given schema: every
/// variable of `v0..v2` outside it is bound.
fn dnf_object(r: &mut StdRng, schema: &[&str], k: usize) -> CstObject {
    let d = workload::random_dnf(r, k, 3, 3);
    CstObject::new(vars(schema), d.disjuncts().iter().cloned())
}

/// One random conjunction over `v0..v3` with the given schema.
fn conj_object(r: &mut StdRng, schema: &[&str]) -> CstObject {
    let c = workload::random_satisfiable_conjunction(r, 4, 6);
    CstObject::from_conjunction(vars(schema), c)
}

/// Pairwise conjunction written out from public parts, as `and` worked
/// before it became a case of `and_all`: rename both operands' bound
/// variables apart, then conjoin every pair of disjuncts.
fn reference_and(a: &CstObject, b: &CstObject) -> CstObject {
    static FRESH: AtomicUsize = AtomicUsize::new(0);
    let apart = |o: &CstObject| -> Vec<Conjunction> {
        o.disjuncts()
            .iter()
            .map(|d| {
                let map: BTreeMap<Var, Var> = o
                    .bound_vars(d)
                    .into_iter()
                    .map(|v| {
                        let fresh = Var::fresh(v.name(), FRESH.fetch_add(1, Ordering::Relaxed));
                        (v, fresh)
                    })
                    .collect();
                d.rename(&map)
            })
            .collect()
    };
    let mut free = a.free().to_vec();
    for v in b.free() {
        if !free.contains(v) {
            free.push(v.clone());
        }
    }
    let (da, db) = (apart(a), apart(b));
    let product = da.iter().flat_map(|x| db.iter().map(move |y| x.and(y)));
    CstObject::new(free, product.collect::<Vec<_>>())
}

/// The stem of a variable: fresh names `v2%17` keep the name they were
/// made from.
fn stem(v: &Var) -> &str {
    v.name().split('%').next().unwrap_or(v.name())
}

/// Is disjunct `d` of `a` equal to disjunct `e` of `b` under some
/// renaming of bound variables? Only bound variables with the same stem
/// are tried against each other.
fn disjunct_alpha_eq(a: &CstObject, d: &Conjunction, b: &CstObject, e: &Conjunction) -> bool {
    fn assign(
        i: usize,
        from: &[Var],
        to: &[Var],
        used: &mut Vec<bool>,
        map: &mut BTreeMap<Var, Var>,
        d: &Conjunction,
        e: &Conjunction,
    ) -> bool {
        if i == from.len() {
            return d.rename(map) == *e;
        }
        for j in 0..to.len() {
            if used[j] || stem(&from[i]) != stem(&to[j]) {
                continue;
            }
            used[j] = true;
            map.insert(from[i].clone(), to[j].clone());
            if assign(i + 1, from, to, used, map, d, e) {
                return true;
            }
            used[j] = false;
        }
        false
    }
    let from: Vec<Var> = a.bound_vars(d).into_iter().collect();
    let to: Vec<Var> = b.bound_vars(e).into_iter().collect();
    from.len() == to.len()
        && d.atoms().len() == e.atoms().len()
        && assign(
            0,
            &from,
            &to,
            &mut vec![false; to.len()],
            &mut BTreeMap::new(),
            d,
            e,
        )
}

/// Same schema and, disjunct for disjunct, equal up to the names of
/// bound variables — which implies the two denote the same point set.
fn alpha_equivalent(a: &CstObject, b: &CstObject) -> bool {
    if a.free() != b.free() || a.disjuncts().len() != b.disjuncts().len() {
        return false;
    }
    let mut used = vec![false; b.disjuncts().len()];
    a.disjuncts().iter().all(|d| {
        let twin =
            (0..used.len()).find(|&j| !used[j] && disjunct_alpha_eq(a, d, b, &b.disjuncts()[j]));
        twin.map(|j| used[j] = true).is_some()
    })
}

/// Left fold of `and` over the operands.
fn fold_with(parts: &[CstObject], and: impl Fn(&CstObject, &CstObject) -> CstObject) -> CstObject {
    let (first, rest) = parts.split_first().expect("at least one operand");
    rest.iter().fold(first.clone(), |acc, p| and(&acc, p))
}

/// The engine counters charged while running `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, EngineStats) {
    let (value, stats, _) = run(&ExecOptions::default(), None, f);
    (value.expect("unlimited budget"), stats)
}

/// A `≠` atom over `v0..v2` with the expression of a random atom.
fn neq_atom(r: &mut StdRng) -> Atom {
    loop {
        let a = workload::random_atom(r, 3);
        if !a.expr().is_constant() {
            return Atom::normalized(a.expr().clone(), NormOp::Neq);
        }
    }
}

/// The objects the canonicalization properties run on: a quantified
/// object over `v0` (`v1`, `v2` bound) with one or two `≠` atoms per
/// disjunct, some disjuncts unsatisfiable by construction, where
/// `degenerate` adds `v1 = v2 ∧ v1 ≠ v2` to every disjunct; and a
/// `quantified_region` punctured by one `≠` atom per disjunct.
fn punctured_objects(seed: u64) -> (CstObject, bool, CstObject) {
    let mut r = workload::rng(seed);
    let dnf = workload::random_dnf(&mut r, 4, 3, 3);
    let degenerate = r.gen_range(0..4) == 0;
    let disjuncts: Vec<Conjunction> = dnf
        .disjuncts()
        .iter()
        .map(|d| {
            let mut d = d.and_atom(neq_atom(&mut r));
            if r.gen_bool(0.5) {
                d = d.and_atom(neq_atom(&mut r));
            }
            if degenerate {
                let (v1, v2) = (Var::new("v1"), Var::new("v2"));
                d = d
                    .and_atom(Atom::eq(v1.clone(), v2.clone()))
                    .and_atom(Atom::neq(v1, v2));
            }
            d
        })
        .collect();
    let obj = CstObject::new(vars(&["v0"]), disjuncts);
    let region = workload::quantified_region(&mut r);
    let punctured = CstObject::new(
        region.free().to_vec(),
        region
            .disjuncts()
            .iter()
            .map(|d| d.and_atom(neq_atom(&mut r))),
    );
    (obj, degenerate, punctured)
}

/// One operand of a random product over `v0..v3`, as its owned parts: an
/// object with every variable free, an object with bound variables, an
/// object with two disjuncts, or atom lists (one list, or now and then
/// two), some with a trivially true or false atom.
enum OwnedOperand {
    Object(CstObject),
    Lists(Vec<Var>, Vec<Vec<Atom>>),
}

fn random_operand(r: &mut StdRng) -> OwnedOperand {
    let all = ["v0", "v1", "v2", "v3"];
    match r.gen_range(0..10) {
        0..=3 => OwnedOperand::Object(conj_object(r, &all)),
        4 => OwnedOperand::Object(conj_object(r, &["v0", "v1"])),
        5 => OwnedOperand::Object(dnf_object(r, &["v0", "v1", "v2"], 2)),
        kind => {
            let list = |r: &mut StdRng| -> Vec<Atom> {
                let mut atoms: Vec<Atom> = (0..r.gen_range(1..7))
                    .map(|_| workload::random_atom(r, 4))
                    .collect();
                match r.gen_range(0..8) {
                    0 => atoms.push(Atom::le(LinExpr::from(1), LinExpr::from(0))),
                    1 => atoms.push(Atom::le(LinExpr::from(0), LinExpr::from(1))),
                    _ => {}
                }
                atoms
            };
            let lists = if kind == 9 {
                vec![list(r), list(r)]
            } else {
                vec![list(r)]
            };
            OwnedOperand::Lists(vars(&all), lists)
        }
    }
}

impl OwnedOperand {
    fn operand(&self) -> Operand<'_> {
        match self {
            OwnedOperand::Object(o) => Operand::Object(o),
            OwnedOperand::Lists(schema, lists) => Operand::Lists(schema, lists),
        }
    }

    /// Does the product decide this operand on borrowed atoms?
    fn borrowable(&self) -> bool {
        match self {
            OwnedOperand::Object(o) => o.disjuncts().len() == 1 && !o.has_bound_vars(),
            OwnedOperand::Lists(_, lists) => lists.len() == 1,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn product_disjunct_is_the_product_decided_alike(seed in 0u64..1_000_000, n in 1usize..5) {
        let mut r = workload::rng(seed);
        let owned: Vec<OwnedOperand> = (0..n).map(|_| random_operand(&mut r)).collect();
        let ops: Vec<Operand<'_>> = owned.iter().map(OwnedOperand::operand).collect();
        let (borrowed, borrowed_stats) = counted(|| {
            CstObject::product_disjunct(&ops).map(|d| {
                let atoms = d.atoms().map(|atoms| atoms.iter().map(|a| (*a).clone()).collect::<Vec<_>>());
                (atoms, d.satisfiable())
            })
        });
        let ((product, product_sat), product_stats) = counted(|| {
            let p = CstObject::product(ops.iter().copied());
            let sat = p.satisfiable();
            (p, sat)
        });
        match borrowed {
            Some((atoms, sat)) => {
                prop_assert!(owned.iter().all(OwnedOperand::borrowable));
                let disjunct = product.disjuncts().first().map(|d| d.atoms().to_vec());
                prop_assert_eq!(atoms, disjunct, "atoms of {}", product);
                prop_assert_eq!(sat, product_sat);
                prop_assert_eq!(
                    borrowed_stats.semantic(),
                    product_stats.semantic(),
                    "counters of {}",
                    product
                );
            }
            None => {
                prop_assert!(!owned.iter().all(OwnedOperand::borrowable));
                prop_assert_eq!(borrowed_stats, EngineStats::default());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn and_all_matches_the_fold_with_bound_variables(seed in 0u64..1_000_000) {
        let mut r = workload::rng(seed);
        // The region binds v2..v5 and the DNF object binds v0, which the
        // region has free, while it has v2 free, which the region binds:
        // both sides must rename bound variables apart.
        let parts = vec![
            workload::quantified_region(&mut r),
            dnf_object(&mut r, &["v1", "v2"], 3),
            workload::quantified_region(&mut r),
        ];
        let all = CstObject::and_all(&parts);
        let fold = fold_with(&parts, reference_and);
        prop_assert!(alpha_equivalent(&all, &fold), "and_all {} vs fold {}", all, fold);
        prop_assert!(alpha_equivalent(&all, &fold_with(&parts, CstObject::and)));
        prop_assert_eq!(all.satisfiable(), fold.satisfiable());
    }

    #[test]
    fn and_all_matches_the_fold_over_several_disjuncts(seed in 0u64..1_000_000) {
        let mut r = workload::rng(seed);
        // Overlapping schemas; each operand binds a variable another has
        // free.
        let parts = vec![
            dnf_object(&mut r, &["v0"], 3),
            dnf_object(&mut r, &["v1", "v2"], 2),
            dnf_object(&mut r, &["v2", "v0"], 3),
        ];
        let all = CstObject::and_all(&parts);
        let fold = fold_with(&parts, reference_and);
        prop_assert!(alpha_equivalent(&all, &fold), "and_all {} vs fold {}", all, fold);
        // `and` itself, folded in either association order, agrees too.
        prop_assert!(alpha_equivalent(&all, &fold_with(&parts, CstObject::and)));
        let right = parts[0].and(&parts[1].and(&parts[2]));
        prop_assert!(alpha_equivalent(&all, &right));
    }

    #[test]
    fn and_all_charges_disjuncts_like_the_fold(seed in 0u64..1_000_000, n in 1usize..6) {
        let mut r = workload::rng(seed);
        let schemas: [&[&str]; 3] = [&["v0", "v1"], &["v1", "v2", "v3"], &["v3"]];
        let parts: Vec<CstObject> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    conj_object(&mut r, schemas[i % 3])
                } else {
                    workload::quantified_region(&mut r)
                }
            })
            .collect();
        let (all, all_stats) = counted(|| CstObject::and_all(&parts));
        let (fold, fold_stats) = counted(|| fold_with(&parts, CstObject::and));
        prop_assert_eq!(all_stats.disjuncts_produced, (n - 1) as u64);
        prop_assert_eq!(all_stats.disjuncts_produced, fold_stats.disjuncts_produced);
        prop_assert!(alpha_equivalent(&all, &fold));
    }

    #[test]
    fn canonicalization_preserves_emptiness(seed in 0u64..1_000_000) {
        let (obj, degenerate, punctured) = punctured_objects(seed);
        prop_assert_eq!(obj.satisfiable(), obj.canonicalize().satisfiable(), "{}", obj);
        if degenerate {
            prop_assert!(!obj.satisfiable());
        }
        prop_assert_eq!(punctured.satisfiable(), punctured.canonicalize().satisfiable());
    }

    #[test]
    fn canonicalization_is_idempotent(seed in 0u64..1_000_000) {
        let (obj, _, punctured) = punctured_objects(seed);
        for o in [obj, punctured] {
            let once = o.canonicalize();
            prop_assert_eq!(once.canonicalize(), once.clone(), "{}", o);
            let oid = CstOid::new(o.clone());
            prop_assert_eq!(oid.canonical(), &o.canonical_form(), "{}", o);
            prop_assert_eq!(oid.object(), &once, "{}", o);
        }
    }
}

#[test]
fn and_all_denotes_the_fold_on_a_small_case() {
    // Two disjuncts per operand keeps `denotes_same`'s refutation small.
    let mut r = workload::rng(7);
    let parts = vec![
        dnf_object(&mut r, &["v0", "v1"], 2),
        dnf_object(&mut r, &["v1", "v2"], 2),
    ];
    let all = CstObject::and_all(&parts);
    let fold = fold_with(&parts, reference_and);
    assert_eq!(all.free(), fold.free());
    assert!(all.denotes_same(&fold), "and_all {all} vs fold {fold}");
}
