//! Differential properties for the two-tier `Rational` representation.
//!
//! Every arithmetic operation is computed twice — once with the
//! small-coefficient fast path enabled (inline `i64/i64` with `i128`
//! intermediates) and once with it disabled (the all-`BigInt` baseline
//! that served as the only representation before the fast path landed).
//! The two results must be indistinguishable: equal as values, equal
//! under `Ord`, and equal under `Hash`. The input generator is biased
//! hard toward the overflow boundaries (`i64::MIN`, `i64::MAX`,
//! near-overflow products) so that the transparent promotion into the
//! `BigInt` tier is exercised on a large fraction of cases rather than
//! almost never.

use lyric_arith::{gcd_u64, op_counters, set_fast_path, BigInt, Rational};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Run `f` with the fast path forced to `on`, restoring the previous
/// thread-local mode afterwards.
fn with_mode<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = set_fast_path(on);
    let out = f();
    set_fast_path(prev);
    out
}

/// `i64` values concentrated on the overflow boundaries: the exact
/// extremes, their immediate neighbourhoods, powers of two whose
/// products straddle `i64`/`i128`, and a thin tail of uniform values.
fn boundary_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(i64::MAX),
        Just(i64::MAX - 1),
        Just(0i64),
        Just(1i64),
        Just(-1i64),
        Just(1i64 << 31),
        Just(1i64 << 32),
        Just(1i64 << 62),
        Just(-(1i64 << 62)),
        Just(3_037_000_499i64), // floor(sqrt(i64::MAX)): products sit right at the edge
        (i64::MAX - 1_000)..i64::MAX,
        i64::MIN..(i64::MIN + 1_000),
        -1_000i64..1_000,
        any::<i64>(),
    ]
}

fn nonzero_boundary_i64() -> impl Strategy<Value = i64> {
    boundary_i64().prop_filter("denominator must be non-zero", |v| *v != 0)
}

/// A boundary-biased rational as raw parts (denominator non-zero).
fn parts() -> impl Strategy<Value = (i64, i64)> {
    (boundary_i64(), nonzero_boundary_i64())
}

fn hash_of(r: &Rational) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// Canonical-form invariants that must hold for *any* representation:
/// positive denominator, fully reduced, zero as 0/1.
fn assert_canonical(r: &Rational) {
    let num = r.numer();
    let den = r.denom();
    assert!(den.is_positive(), "denominator not positive: {r}");
    if num.is_zero() {
        assert_eq!(den, BigInt::one(), "zero not canonical: {r}");
    } else {
        assert_eq!(num.gcd(&den), BigInt::one(), "not reduced: {r}");
    }
    if let Some((n, d)) = r.small_parts() {
        assert_eq!(BigInt::from(n), num, "small numerator diverges: {r}");
        assert_eq!(BigInt::from(d), den, "small denominator diverges: {r}");
    }
}

/// Check a fast-path result against the all-BigInt oracle for the same
/// computation: value equality (both directions, catching asymmetric
/// `PartialEq` bugs), `Ord` equality, hash equality, canonical form.
fn assert_matches_oracle(fast: &Rational, slow: &Rational) {
    assert_eq!(fast, slow, "fast {fast} != oracle {slow}");
    assert_eq!(slow, fast, "oracle {slow} != fast {fast}");
    assert_eq!(fast.cmp(slow), Ordering::Equal);
    assert_eq!(hash_of(fast), hash_of(slow), "hash diverges for {fast}");
    assert_canonical(fast);
    assert_canonical(slow);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn normalize_matches_oracle(p in parts()) {
        let fast = with_mode(true, || Rational::from_pair(p.0, p.1));
        let slow = with_mode(false, || Rational::from_pair(p.0, p.1));
        prop_assert!(!slow.is_small(), "oracle mode must stay in the BigInt tier");
        assert_matches_oracle(&fast, &slow);
    }

    #[test]
    fn add_matches_oracle(a in parts(), b in parts()) {
        let fast = with_mode(true, || &Rational::from_pair(a.0, a.1) + &Rational::from_pair(b.0, b.1));
        let slow = with_mode(false, || &Rational::from_pair(a.0, a.1) + &Rational::from_pair(b.0, b.1));
        assert_matches_oracle(&fast, &slow);
    }

    #[test]
    fn sub_matches_oracle(a in parts(), b in parts()) {
        let fast = with_mode(true, || &Rational::from_pair(a.0, a.1) - &Rational::from_pair(b.0, b.1));
        let slow = with_mode(false, || &Rational::from_pair(a.0, a.1) - &Rational::from_pair(b.0, b.1));
        assert_matches_oracle(&fast, &slow);
    }

    #[test]
    fn mul_matches_oracle(a in parts(), b in parts()) {
        let fast = with_mode(true, || &Rational::from_pair(a.0, a.1) * &Rational::from_pair(b.0, b.1));
        let slow = with_mode(false, || &Rational::from_pair(a.0, a.1) * &Rational::from_pair(b.0, b.1));
        assert_matches_oracle(&fast, &slow);
    }

    #[test]
    fn div_matches_oracle(a in parts(), b in parts()) {
        prop_assume!(b.0 != 0);
        let fast = with_mode(true, || &Rational::from_pair(a.0, a.1) / &Rational::from_pair(b.0, b.1));
        let slow = with_mode(false, || &Rational::from_pair(a.0, a.1) / &Rational::from_pair(b.0, b.1));
        assert_matches_oracle(&fast, &slow);
    }

    #[test]
    fn neg_and_recip_match_oracle(a in parts()) {
        let fast = with_mode(true, || -&Rational::from_pair(a.0, a.1));
        let slow = with_mode(false, || -&Rational::from_pair(a.0, a.1));
        assert_matches_oracle(&fast, &slow);
        if a.0 != 0 {
            let fast = with_mode(true, || Rational::from_pair(a.0, a.1).recip());
            let slow = with_mode(false, || Rational::from_pair(a.0, a.1).recip());
            assert_matches_oracle(&fast, &slow);
        }
    }

    #[test]
    fn cmp_matches_oracle(a in parts(), b in parts()) {
        let fast = with_mode(true, || {
            let (x, y) = (Rational::from_pair(a.0, a.1), Rational::from_pair(b.0, b.1));
            (x.cmp(&y), x == y)
        });
        let slow = with_mode(false, || {
            let (x, y) = (Rational::from_pair(a.0, a.1), Rational::from_pair(b.0, b.1));
            (x.cmp(&y), x == y)
        });
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn floor_ceil_abs_match_oracle(a in parts()) {
        let fast = with_mode(true, || {
            let x = Rational::from_pair(a.0, a.1);
            (x.floor(), x.ceil(), x.abs(), x.signum(), x.to_string())
        });
        let slow = with_mode(false, || {
            let x = Rational::from_pair(a.0, a.1);
            (x.floor(), x.ceil(), x.abs(), x.signum(), x.to_string())
        });
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn gcd_u64_matches_bigint_gcd(a in any::<u64>(), b in any::<u64>()) {
        let oracle = BigInt::from(a as i128).gcd(&BigInt::from(b as i128));
        prop_assert_eq!(BigInt::from(gcd_u64(a, b) as i128), oracle);
    }

    /// Cross-representation interchangeability: a value freshly promoted
    /// to the BigInt tier and the same value in the small tier must be
    /// equal, hash-equal, and order the same against a third value.
    #[test]
    fn mixed_representation_ops_match(a in parts(), b in parts()) {
        let small_a = with_mode(true, || Rational::from_pair(a.0, a.1));
        let big_a = with_mode(false, || Rational::from_pair(a.0, a.1));
        let small_b = with_mode(true, || Rational::from_pair(b.0, b.1));
        // Mixed-tier binary ops must agree with same-tier ops.
        let mixed = with_mode(true, || (&big_a + &small_b, &big_a * &small_b));
        let pure = with_mode(true, || (&small_a + &small_b, &small_a * &small_b));
        prop_assert_eq!(&mixed.0, &pure.0);
        prop_assert_eq!(&mixed.1, &pure.1);
        prop_assert_eq!(hash_of(&small_a), hash_of(&big_a));
        prop_assert_eq!(small_a.cmp(&small_b), big_a.cmp(&small_b));
    }

    /// Force overflow: products of near-`sqrt(i64::MAX)`-and-above
    /// factors must transparently promote and still be exact.
    #[test]
    fn overflow_products_promote_exactly(shift_a in 32u32..63, shift_b in 32u32..63) {
        with_mode(true, || {
            let before = op_counters();
            let a = Rational::from_int(1i64 << shift_a);
            let b = Rational::from_int(1i64 << shift_b);
            let prod = &a * &b;
            // 2^(sa+sb) with sa+sb >= 64 cannot fit the small tier.
            assert!(!prod.is_small(), "2^{} stayed small", shift_a + shift_b);
            assert!(op_counters().promotions > before.promotions,
                    "overflow product did not count a promotion");
            // The value is exact: dividing back recovers the factor (and
            // demotes back into the small tier).
            let back = &prod / &b;
            assert_eq!(&back, &a);
            assert!(back.is_small(), "quotient did not demote");
        });
    }
}

/// The fast path must never be *required*: with the toggle off every
/// operation stays in the BigInt tier and counts as a big op.
#[test]
fn disabled_fast_path_counts_only_big_ops() {
    with_mode(false, || {
        let before = op_counters();
        let a = Rational::from_pair(3, 7);
        let b = Rational::from_pair(-2, 9);
        let _ = &(&a + &b) * &(&a - &b);
        let after = op_counters();
        assert_eq!(after.small_ops, before.small_ops);
        assert!(after.big_ops > before.big_ops);
    });
}

/// And with the toggle on, all-small inputs stay entirely on the fast
/// path with zero promotions.
#[test]
fn small_workload_never_touches_bigint_tier() {
    with_mode(true, || {
        let before = op_counters();
        let a = Rational::from_pair(3, 7);
        let b = Rational::from_pair(-2, 9);
        let c = &(&a + &b) * &(&a - &b);
        assert!(c.is_small());
        let after = op_counters();
        assert_eq!(after.big_ops, before.big_ops);
        assert_eq!(after.promotions, before.promotions);
        assert!(after.small_ops >= before.small_ops + 3);
    });
}

/// Integer values weighted to the integer path's edges: 0, ±1, the `i64`
/// extremes and their neighbours, and a thin tail of uniform values.
fn edge_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        3 => Just(0i64),
        3 => Just(1i64),
        3 => Just(-1i64),
        3 => Just(i64::MIN),
        3 => Just(i64::MAX),
        1 => Just(i64::MIN + 1),
        1 => Just(i64::MAX - 1),
        1 => Just(3_037_000_500i64), // just above sqrt(i64::MAX)
        2 => -1_000i64..1_000,
        2 => any::<i64>(),
    ]
}

/// Pairs of integers: independent edge values, and pairs whose sum,
/// difference or product overflows `i64` (or stops just short of it).
fn int_pair() -> impl Strategy<Value = (i64, i64)> {
    prop_oneof![
        (edge_int(), edge_int()),
        // Sums past i64::MAX or below i64::MIN.
        ((i64::MAX - 1_000)..i64::MAX, 0i64..2_000),
        ((i64::MIN)..(i64::MIN + 1_000), -2_000i64..0),
        // Differences that overflow.
        ((i64::MAX - 1_000)..i64::MAX, -2_000i64..0),
        ((i64::MIN)..(i64::MIN + 1_000), 0i64..2_000),
        // Products around 2^63.
        (
            3_000_000_000i64..3_100_000_000,
            3_000_000_000i64..3_100_000_000
        ),
        (
            -3_100_000_000i64..-3_000_000_000,
            3_000_000_000i64..3_100_000_000
        ),
        (1i64 << 31..1i64 << 33, -(1i64 << 33)..-(1i64 << 31)),
    ]
}

/// Does the exact integer `v`, as an `i128`, leave `i64`?
fn leaves_i64(v: i128) -> bool {
    i64::try_from(v).is_err()
}

/// Run `op` on the fast path and check it counts exactly one small op and
/// promotes exactly when `promotes`, then match it against the oracle.
fn assert_integer_op(
    a: i64,
    b: i64,
    promotes: bool,
    op: impl Fn(&Rational, &Rational) -> Rational,
) {
    let fast = with_mode(true, || {
        let (x, y) = (Rational::from_int(a), Rational::from_int(b));
        let before = op_counters();
        let out = op(&x, &y);
        let after = op_counters();
        assert_eq!(
            after.small_ops - before.small_ops,
            1,
            "{a} op {b}: small ops"
        );
        assert_eq!(after.big_ops, before.big_ops, "{a} op {b}: big ops");
        assert_eq!(
            after.promotions - before.promotions,
            u64::from(promotes),
            "{a} op {b} = {out}: promotions"
        );
        assert_eq!(
            out.is_small(),
            !promotes,
            "{a} op {b} = {out}: representation"
        );
        out
    });
    let slow = with_mode(false, || op(&Rational::from_int(a), &Rational::from_int(b)));
    assert_matches_oracle(&fast, &slow);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Integer operands take the `i64` path: add, sub, mul and div match
    /// the BigInt oracle, stay canonical, count one small op each, and
    /// promote exactly when the `i128` model's reduced result leaves
    /// `i64`.
    #[test]
    fn integer_ops_match_oracle_and_count_once(pair in int_pair()) {
        let (a, b) = pair;
        let (wa, wb) = (a as i128, b as i128);
        assert_integer_op(a, b, leaves_i64(wa + wb), |x, y| x + y);
        assert_integer_op(a, b, leaves_i64(wa - wb), |x, y| x - y);
        assert_integer_op(a, b, leaves_i64(wa * wb), |x, y| x * y);
        assert_integer_op(b, a, leaves_i64(wb + wa), |x, y| x + y);
        assert_integer_op(b, a, leaves_i64(wb - wa), |x, y| x - y);
        if b != 0 {
            // a / b reduces to (a/g) / (b/g) with the sign on top.
            let g = BigInt::from(wa).gcd(&BigInt::from(wb)).to_i64().map_or(1i128 << 63, i128::from);
            let (n, d) = if wb < 0 { (-wa / g, -wb / g) } else { (wa / g, wb / g) };
            assert_integer_op(a, b, leaves_i64(n) || leaves_i64(d), |x, y| x / y);
        }
    }

    /// Comparing integers, and fractions over one denominator other than
    /// 1, matches the oracle and counts one small op.
    #[test]
    fn equal_denominator_cmp_matches_oracle(pair in int_pair(), d in prop_oneof![
        Just(1i64),
        Just(3i64),
        Just(7i64),
        Just(1_000_003i64),
        Just(2_147_483_647i64),
    ]) {
        // A numerator that `d` does not divide keeps `d` as the reduced
        // denominator.
        let coprime = |n: i64| {
            if d == 1 || n % d != 0 {
                n
            } else if n > 0 {
                n - 1
            } else {
                n + 1
            }
        };
        let (a, b) = (coprime(pair.0), coprime(pair.1));
        let make = |n: i64| Rational::from_pair(n, d);
        let fast = with_mode(true, || {
            let (x, y) = (make(a), make(b));
            assert_eq!(x.small_parts(), Some((a, d)), "{x} keeps its denominator");
            assert_eq!(y.small_parts(), Some((b, d)), "{y} keeps its denominator");
            let before = op_counters();
            let ord = x.cmp(&y);
            let after = op_counters();
            assert_eq!(after.small_ops - before.small_ops, 1, "{x} cmp {y}");
            assert_eq!(after.big_ops, before.big_ops, "{x} cmp {y}");
            ord
        });
        let slow = with_mode(false, || make(a).cmp(&make(b)));
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast, a.cmp(&b), "one positive denominator keeps the numerators' order");
    }
}
