//! Differential tests for the DNF algebra against the rasterized "direct
//! representation" oracle of `lyric_bench::gridrep`.
//!
//! `Grid::rasterize` evaluates membership *exactly* (rational arithmetic
//! at rational cell centers), so for quantifier-free 2-D regions the
//! rasterization of a constraint-algebra result must equal the pointwise
//! grid operation on the rasterized inputs — for every cell, with no
//! tolerance. `and` ↔ intersect, `or` ↔ union, `negate` ↔ complement,
//! and `simplify`/`strong_simplify` ↔ identity.

use lyric::constraint::{CstObject, Dnf, Var};
use lyric_bench::gridrep::Grid;
use lyric_bench::workload;
use proptest::prelude::*;

const LO: i64 = -16;
const HI: i64 = 16;
const RES: usize = 24;

/// Wrap a DNF over `v0, v1` as a quantifier-free 2-D object.
fn region(d: &Dnf) -> CstObject {
    CstObject::new(
        vec![Var::new("v0"), Var::new("v1")],
        d.disjuncts().iter().cloned(),
    )
}

fn raster(d: &Dnf) -> Grid {
    Grid::rasterize(&region(d), LO, HI, RES)
}

/// A random 2-D DNF; sizes stay small because `negate` is exponential in
/// the disjunct count by design (§3.1 keeps it out of the language).
fn random_region(seed: u64, k: usize, m: usize) -> Dnf {
    let mut r = workload::rng(seed);
    workload::random_dnf(&mut r, k, m, 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn and_matches_grid_intersection(seed in 0u64..1_000_000) {
        let a = random_region(seed, 4, 4);
        let b = random_region(seed.wrapping_add(0x9E37), 4, 4);
        prop_assert_eq!(raster(&a.and(&b)), raster(&a).intersect(&raster(&b)));
    }

    #[test]
    fn or_matches_grid_union(seed in 0u64..1_000_000) {
        let a = random_region(seed, 4, 4);
        let b = random_region(seed.wrapping_add(0x9E37), 4, 4);
        prop_assert_eq!(raster(&a.or(&b)), raster(&a).union(&raster(&b)));
    }

    #[test]
    fn negate_matches_grid_complement(seed in 0u64..1_000_000) {
        // The grid has no complement op; characterize it instead: the
        // negation is disjoint from the original and together they tile
        // every cell. Exact center evaluation makes this an iff.
        let a = random_region(seed, 3, 3);
        let g = raster(&a);
        let n = raster(&a.negate());
        prop_assert!(g.intersect(&n).is_empty(), "negation overlaps the original");
        prop_assert_eq!(g.union(&n).count_filled(), g.num_cells());
    }

    #[test]
    fn simplify_preserves_the_point_set(seed in 0u64..1_000_000) {
        let a = random_region(seed, 8, 5);
        let g = raster(&a);
        prop_assert_eq!(&raster(&a.simplify()), &g);
        prop_assert_eq!(&raster(&a.strong_simplify()), &g);
    }

    #[test]
    fn de_morgan_on_rasters(seed in 0u64..1_000_000) {
        // ¬(A ∨ B) = ¬A ∧ ¬B, checked through the oracle.
        let a = random_region(seed, 2, 3);
        let b = random_region(seed.wrapping_add(0x79B9), 2, 3);
        prop_assert_eq!(
            raster(&a.or(&b).negate()),
            raster(&a.negate()).intersect(&raster(&b.negate()))
        );
    }

    /// The constraint algebra is arithmetic-tier invariant: running the
    /// same ops under an engine context with the small-coefficient fast
    /// path on and off yields *structurally* identical DNFs (Rational
    /// equality is value-based across the two representations, so this
    /// pins canonicalization, simplification, and FM elimination — not
    /// just the denoted point sets).
    #[test]
    fn dnf_algebra_is_arith_tier_invariant(seed in 0u64..1_000_000) {
        let a = random_region(seed, 4, 4);
        let b = random_region(seed.wrapping_add(0x9E37), 4, 4);
        let run = |fast: bool| {
            let o = lyric::ExecOptions::default().with_arith_fast(fast);
            let (out, _stats, _) = lyric::engine::run(&o, None, || {
                (a.and(&b), a.or(&b), a.simplify(), a.negate())
            });
            out.expect("unlimited budget")
        };
        let fast = run(true);
        let big = run(false);
        prop_assert_eq!(&fast.0, &big.0, "product differs between tiers");
        prop_assert_eq!(&fast.1, &big.1, "union differs between tiers");
        prop_assert_eq!(&fast.2, &big.2, "simplify differs between tiers");
        prop_assert_eq!(&fast.3, &big.3, "negate differs between tiers");
        // And both agree with the rasterized oracle.
        prop_assert_eq!(raster(&fast.0), raster(&a).intersect(&raster(&b)));
    }

    #[test]
    fn grid_occupancy_witnesses_satisfiability(seed in 0u64..1_000_000) {
        // One-directional: a filled cell center is a satisfying point, so
        // a nonempty raster forces satisfiability (the converse can fail —
        // a sliver region may dodge every cell center).
        let a = random_region(seed, 4, 4);
        if !raster(&a).is_empty() {
            prop_assert!(a.satisfiable());
        }
        // And entailment forces raster containment.
        let b = random_region(seed.wrapping_add(1), 4, 4);
        let both = a.and(&b);
        prop_assert!(raster(&b).contains(&raster(&both)));
    }
}
