//! Property-based tests of the statistics substrate.

use proptest::prelude::*;

use morer_stats::describe::{mean, median, pearson, quantile, stddev, Moments, Summary};
use morer_stats::ecdf::sorted_finite;
use morer_stats::tests::{ks_statistic, psi, wasserstein_distance};
use morer_stats::{ColumnSketch, Ecdf, Histogram, UnivariateTest};

fn unit_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..=1.0, 1..150)
}

/// Unit-interval samples of 1 to ~5000 values, log-uniform in length so the
/// KS bucket count (which grows with the length) takes every step from 16 to
/// 1024, bent by a random power so two samples differ in shape.
fn wide_samples() -> impl Strategy<Value = Vec<f64>> {
    (proptest::collection::vec(0.0f64..=1.0, 1..5000), 0.0f64..=1.0, 0.2f64..=5.0).prop_map(
        |(mut v, t, power)| {
            v.truncate((v.len() as f64).powf(t).ceil() as usize);
            v.iter_mut().for_each(|x| *x = x.powf(power));
            v
        },
    )
}

/// Heavy ties: up to ~3000 values drawn from at most 8 levels, which include
/// `0.0`, `-0.0`, `1.0` and bucket edges of every table size.
fn tied_samples() -> impl Strategy<Value = Vec<f64>> {
    (proptest::collection::vec(0usize..1000, 1..3000), 1usize..=8, (0.0f64..=1.0, 0u32..=10))
        .prop_map(|(picks, levels, (free, shift))| {
            let table = [0.0, -0.0, 1.0, 0.5, free, 1.0 / f64::from(1u32 << shift), 0.25, 0.75];
            picks.iter().map(|&p| table[p % levels]).collect()
        })
}

/// Values outside `[0, 1]`, huge finite magnitudes, and NaN, +∞ and −∞
/// (every test drops these three).
fn wild_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..12, -1.5f64..=2.5, -1e300f64..=1e300), 1..2500).prop_map(
        |values| {
            values
                .into_iter()
                .map(|(kind, x, huge)| match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => f64::MAX,
                    4 => -f64::MIN_POSITIVE,
                    5 | 6 => huge,
                    _ => x,
                })
                .collect()
        },
    )
}

/// One distinct value, repeated 1 to ~400 times.
fn single_value_samples() -> impl Strategy<Value = Vec<f64>> {
    (0.0f64..=1.0, 1usize..400, 0usize..4).prop_map(|(x, n, edge)| {
        let x = [x, 0.0, 0.5, 1.0][edge];
        vec![x; n]
    })
}

/// `sorted_finite` (an unstable sort) against a stable sort of the finite
/// values, bit for bit: keys equal under `total_cmp` have equal bits.
fn assert_sorted_finite_is_stable(data: &[f64]) -> Result<(), String> {
    let mut stable: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
    stable.sort_by(f64::total_cmp);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    prop_assert_eq!(bits(&sorted_finite(data)), bits(&stable));
    Ok(())
}

/// Every sketched test against its slice-based counterpart, bit for bit
/// (KS through the bucket-pruned kernel against the full merge walk).
fn assert_sketch_matches_slices(a: &[f64], b: &[f64]) -> Result<(), String> {
    let (sa, sb) = (ColumnSketch::new(a), ColumnSketch::new(b));
    for t in UnivariateTest::all() {
        prop_assert_eq!(sa.distance(&sb, t).to_bits(), t.distance(a, b).to_bits(), "{:?}", t);
        prop_assert_eq!(sa.similarity(&sb, t).to_bits(), t.similarity(a, b).to_bits(), "{:?}", t);
    }
    Ok(())
}

/// The three-pass `ColumnSketch::new` against the per-artifact
/// `ColumnSketch::new_reference`, field by field, bit for bit.
fn assert_sketch_matches_reference(data: &[f64]) -> Result<(), String> {
    let (fast, reference) = (ColumnSketch::new(data), ColumnSketch::new_reference(data));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let moments = |s: &ColumnSketch| {
        let m = s.moments();
        (m.count, m.mean.to_bits(), m.m2.to_bits())
    };
    prop_assert_eq!(moments(&fast), moments(&reference), "moments");
    prop_assert_eq!(bits(fast.sorted()), bits(reference.sorted()), "sorted sample");
    prop_assert_eq!(bits(fast.grid()), bits(reference.grid()), "CDF grid");
    prop_assert_eq!(bits(fast.props()), bits(reference.props()), "PSI proportions");
    prop_assert_eq!(fast.hist_total(), reference.hist_total(), "PSI total");
    prop_assert_eq!(fast.offsets(), reference.offsets(), "KS bucket offsets");
    Ok(())
}

#[test]
fn sketch_matches_reference_on_empty_and_non_finite_columns() {
    let columns = [
        vec![],
        vec![f64::NAN; 7],
        vec![f64::INFINITY, f64::NAN, f64::NEG_INFINITY],
        vec![-0.0, 0.0, -0.0, f64::NAN, 0.0],
    ];
    for column in &columns {
        assert_sketch_matches_reference(column).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sketch_matches_reference_bitwise(
        wide in wide_samples(),
        tied in tied_samples(),
        wild in wild_samples(),
        single in single_value_samples(),
    ) {
        assert_sketch_matches_reference(&wide)?;
        assert_sketch_matches_reference(&tied)?;
        assert_sketch_matches_reference(&wild)?;
        assert_sketch_matches_reference(&single)?;
    }

    #[test]
    fn summary_mean_within_range(data in unit_samples()) {
        let s = Summary::of(&data);
        prop_assert!(s.mean >= s.min - 1e-12);
        prop_assert!(s.mean <= s.max + 1e-12);
        prop_assert!(s.variance >= 0.0);
        prop_assert!((s.stddev * s.stddev - s.variance).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone(data in unit_samples(), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let v_lo = quantile(&data, lo).unwrap();
        let v_hi = quantile(&data, hi).unwrap();
        prop_assert!(v_lo <= v_hi + 1e-12);
        // median consistency
        prop_assert_eq!(median(&data), quantile(&data, 0.5));
    }

    #[test]
    fn ks_satisfies_triangle_inequality(
        a in unit_samples(), b in unit_samples(), c in unit_samples()
    ) {
        // KS is the sup-metric on CDFs, hence a true metric
        let ab = ks_statistic(&a, &b);
        let ac = ks_statistic(&a, &c);
        let cb = ks_statistic(&c, &b);
        prop_assert!(ab <= ac + cb + 1e-9);
    }

    #[test]
    fn wasserstein_bounded_by_ks(a in unit_samples(), b in unit_samples()) {
        prop_assert!(wasserstein_distance(&a, &b) <= ks_statistic(&a, &b) + 1e-9);
    }

    #[test]
    fn psi_zero_iff_same_bins(data in unit_samples()) {
        prop_assert!(psi(&data, &data, 100) < 1e-12);
    }

    #[test]
    fn similarities_of_identical_samples_are_high(data in unit_samples()) {
        for t in UnivariateTest::all() {
            let s = t.similarity(&data, &data);
            prop_assert!(s > 0.999, "{:?}: {}", t, s);
        }
    }

    #[test]
    fn ecdf_eval_matches_manual_count(data in unit_samples(), x in 0.0f64..=1.0) {
        let e = Ecdf::new(&data);
        let expected = data.iter().filter(|&&v| v <= x).count() as f64 / data.len() as f64;
        prop_assert!((e.eval(x) - expected).abs() < 1e-12);
    }

    #[test]
    fn histogram_total_equals_sample_size(data in unit_samples(), bins in 1usize..64) {
        let h = Histogram::unit(&data, bins);
        prop_assert_eq!(h.total() as usize, data.len());
        prop_assert_eq!(h.counts().iter().sum::<u64>() as usize, data.len());
    }

    #[test]
    fn sketched_tests_are_bit_identical_to_slice_tests(
        a in unit_samples(), b in unit_samples()
    ) {
        let sa = ColumnSketch::new(&a);
        let sb = ColumnSketch::new(&b);
        for t in UnivariateTest::all() {
            prop_assert_eq!(sa.distance(&sb, t), t.distance(&a, &b), "{:?}", t);
            prop_assert_eq!(sa.similarity(&sb, t), t.similarity(&a, &b), "{:?}", t);
        }
    }

    #[test]
    fn sketched_tests_match_slice_tests_on_wide_samples(a in wide_samples(), b in wide_samples()) {
        assert_sketch_matches_slices(&a, &b)?;
    }

    #[test]
    fn sketched_tests_match_slice_tests_on_heavy_ties(
        a in tied_samples(), b in tied_samples(), c in wide_samples()
    ) {
        assert_sketch_matches_slices(&a, &b)?;
        assert_sketch_matches_slices(&a, &c)?;
    }

    #[test]
    fn sketched_tests_match_slice_tests_on_wild_values(
        a in wild_samples(), b in wild_samples(), c in tied_samples()
    ) {
        assert_sketch_matches_slices(&a, &b)?;
        assert_sketch_matches_slices(&c, &a)?;
    }

    #[test]
    fn sketched_tests_match_slice_tests_against_one_value(
        a in single_value_samples(), b in wide_samples(), c in tied_samples()
    ) {
        assert_sketch_matches_slices(&a, &b)?;
        assert_sketch_matches_slices(&c, &a)?;
        assert_sketch_matches_slices(&a, &a)?;
    }

    #[test]
    fn sorted_finite_matches_a_stable_sort_on_ties_and_wild_values(
        tied in tied_samples(),
        wild in wild_samples(),
    ) {
        assert_sorted_finite_is_stable(&tied)?;
        assert_sorted_finite_is_stable(&wild)?;
    }

    #[test]
    fn sketched_distances_are_symmetric(a in unit_samples(), b in unit_samples()) {
        let sa = ColumnSketch::new(&a);
        let sb = ColumnSketch::new(&b);
        // KS / WD cores are exactly symmetric; PSI up to `ln` round-off
        for t in [UnivariateTest::KolmogorovSmirnov, UnivariateTest::Wasserstein] {
            prop_assert_eq!(sa.distance(&sb, t), sb.distance(&sa, t), "{:?}", t);
        }
        let (dab, dba) = (
            sa.distance(&sb, UnivariateTest::Psi),
            sb.distance(&sa, UnivariateTest::Psi),
        );
        prop_assert!((dab - dba).abs() < 1e-9, "PSI {} vs {}", dab, dba);
    }

    #[test]
    fn moments_merge_matches_pooled_welford(a in unit_samples(), b in unit_samples()) {
        let merged = Moments::of(&a).merge(&Moments::of(&b));
        let mut pooled = a.clone();
        pooled.extend_from_slice(&b);
        prop_assert_eq!(merged.count, pooled.len());
        prop_assert!((merged.stddev() - stddev(&pooled)).abs() < 1e-9);
        prop_assert!((merged.mean - mean(&pooled)).abs() < 1e-9);
        // commutative bit-for-bit
        prop_assert_eq!(merged, Moments::of(&b).merge(&Moments::of(&a)));
    }

    #[test]
    fn pearson_is_symmetric_and_bounded(
        pairs in proptest::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 3..50)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&x, &y) {
            prop_assert!((-1.0..=1.0).contains(&r));
            prop_assert!((r - pearson(&y, &x).unwrap()).abs() < 1e-9);
            // scale invariance
            let y2: Vec<f64> = y.iter().map(|v| 3.0 * v + 1.0).collect();
            if let Some(r2) = pearson(&x, &y2) {
                prop_assert!((r - r2).abs() < 1e-9);
            }
        }
        // self correlation is 1 for non-constant samples
        if Summary::of(&x).stddev > 0.0 {
            prop_assert!((pearson(&x, &x).unwrap() - 1.0).abs() < 1e-9);
        }
        prop_assert!((mean(&x) - Summary::of(&x).mean).abs() < 1e-12);
    }
}
