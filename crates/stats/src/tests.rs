//! Two-sample univariate distribution tests (paper §4.2).
//!
//! Each test compares the distributions of one similarity feature from two ER
//! problems and yields a *distance*; [`UnivariateTest::similarity`] converts
//! it into a similarity in `[0, 1]` used as the ER-problem-graph edge weight:
//!
//! * Kolmogorov-Smirnov (Eq. 1): `sim = 1 − sup |CDF_a − CDF_b|`.
//! * Wasserstein (Eq. 2): the CDFs are evaluated on a shared grid and the
//!   distance is the *mean* absolute CDF difference (the paper's sum,
//!   normalized by grid size so it is sample-size independent and bounded by
//!   the feature range); `sim = 1 − distance` for features on `[0, 1]`.
//! * Population Stability Index (Eq. 3) with the conventional 100 bins and
//!   ε-smoothing of empty bins; `sim = exp(−PSI)` maps the unbounded index
//!   onto `(0, 1]`.
//!
//! Every test is factored into a core that operates on *pre-processed* data
//! — [`ks_statistic_sorted`] on sorted samples, [`wasserstein_on_grid_pregrid`]
//! on precomputed CDF grids, [`psi_from_histograms`] on prebuilt
//! histograms — and a slice-based public
//! wrapper that does the preprocessing and delegates. [`crate::sketch`]
//! precomputes the same artifacts once per sample and calls the same cores
//! for WD and PSI, so those sketched paths are bit-identical to the
//! slice path by construction. Sketched KS prunes the merge walk with a
//! bucket table and returns the same integer supremum as
//! [`ks_statistic_sorted`], its oracle (property-tested bit for bit).

use crate::ecdf::{sorted_finite, Ecdf};
use crate::histogram::Histogram;

/// Number of grid points used to align two CDFs of different sample sizes.
pub const CDF_GRID: usize = 101;

/// Number of bins used by the PSI, "where 100 is a commonly used number of
/// bins" (paper Eq. 3).
pub const PSI_BINS: usize = 100;

/// Smoothing floor applied to empty-bin proportions so `ln` stays finite.
pub const PSI_EPSILON: f64 = 1e-4;

/// The univariate two-sample distribution tests evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnivariateTest {
    /// Kolmogorov-Smirnov statistic (supremum CDF distance).
    KolmogorovSmirnov,
    /// Wasserstein / earth-mover distance via aligned CDFs.
    Wasserstein,
    /// Population Stability Index.
    Psi,
}

impl UnivariateTest {
    /// Short name as used in the paper's figures (KS / WD / PSI).
    pub fn short_name(self) -> &'static str {
        match self {
            Self::KolmogorovSmirnov => "KS",
            Self::Wasserstein => "WD",
            Self::Psi => "PSI",
        }
    }

    /// Raw distance between the two samples (lower = more similar).
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Self::KolmogorovSmirnov => ks_statistic(a, b),
            Self::Wasserstein => wasserstein_distance(a, b),
            Self::Psi => psi(a, b, PSI_BINS),
        }
    }

    /// Map a raw distance onto the similarity scale in `[0, 1]` — shared by
    /// the slice-based [`Self::similarity`] and the sketched path so both
    /// apply the identical transform.
    pub fn similarity_from_distance(self, d: f64) -> f64 {
        let s = match self {
            Self::KolmogorovSmirnov | Self::Wasserstein => 1.0 - d,
            Self::Psi => (-d).exp(),
        };
        s.clamp(0.0, 1.0)
    }

    /// Similarity in `[0, 1]` (`1` = same distribution), assuming samples
    /// live on the unit interval (true for similarity features).
    pub fn similarity(self, a: &[f64], b: &[f64]) -> f64 {
        self.similarity_from_distance(self.distance(a, b))
    }

    /// All tests, for sweeps.
    pub fn all() -> [Self; 3] {
        [Self::KolmogorovSmirnov, Self::Wasserstein, Self::Psi]
    }
}

/// Distance of a pair where at least one side is empty, or `None` when both
/// sides have data. `unit_scale` tests (KS/WD) use 1.0 for
/// empty-vs-non-empty; PSI uses +∞ (its callers map that to similarity 0).
/// Shared by the slice-based wrappers here and [`crate::sketch`].
#[inline]
pub(crate) fn empty_gate(a_empty: bool, b_empty: bool, one_sided: f64) -> Option<f64> {
    match (a_empty, b_empty) {
        (true, true) => Some(0.0),
        (true, false) | (false, true) => Some(one_sided),
        (false, false) => None,
    }
}

/// Two-sample Kolmogorov-Smirnov statistic
/// `sup_x |CDF_a(x) − CDF_b(x)|` (paper Eq. 1).
///
/// Computed exactly by merging the two sorted samples. Empty-vs-non-empty
/// yields 1.0; empty-vs-empty yields 0.0.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let sa = sorted_finite(a);
    let sb = sorted_finite(b);
    if let Some(d) = empty_gate(sa.is_empty(), sb.is_empty(), 1.0) {
        return d;
    }
    ks_statistic_sorted(&sa, &sb)
}

/// [`ks_statistic`] core on pre-sorted finite non-empty samples: a single
/// O(|a| + |b|) merge walk over the two step functions (no per-point binary
/// searches, no allocation). The supremum is evaluated after each distinct
/// merged value, which covers every sample point of either side — exactly
/// the candidate set of the textbook definition.
///
/// The CDF difference `|i/n_a − j/n_b|` is tracked as the *integer*
/// `|i·n_b − j·n_a|` and divided once at the end, so the walk is exact
/// (no per-step rounding) and free of per-step divisions. Counts are
/// bounded by `n_a · n_b`, which fits `u64` for any realistic sample.
///
/// Once one sample is exhausted its CDF is 1 and the other's only climbs
/// toward 1, so the loop-exit difference dominates the tail — no tail scan
/// is needed.
///
/// This full walk is the oracle of the bucket-pruned kernel behind
/// [`crate::sketch::ColumnSketch::distance`], which runs the same walk only
/// over the bucket ranges its bounds cannot settle.
pub fn ks_statistic_sorted(a: &[f64], b: &[f64]) -> f64 {
    let sup = ks_merge_gap(a, b, (0, a.len()), (0, b.len()));
    sup as f64 / (a.len() as f64 * b.len() as f64)
}

/// The tie-aware merge walk of [`ks_statistic_sorted`] over `a[i..ha]` and
/// `b[j..hb]`, starting from the CDF counts `(i, j)`: the largest integer
/// gap `|i·n_b − j·n_a|` (with `n_a = a.len()`, `n_b = b.len()`) after each
/// distinct merged value, until one range is exhausted.
///
/// A range must not end inside a tie group, or the gap would be evaluated
/// between two equal values.
pub(crate) fn ks_merge_gap(
    a: &[f64],
    b: &[f64],
    (mut i, ha): (usize, usize),
    (mut j, hb): (usize, usize),
) -> u64 {
    let (na, nb) = (a.len(), b.len());
    let mut sup: u64 = 0;
    while i < ha && j < hb {
        // next distinct value of the merged sample
        let x = if a[i] <= b[j] { a[i] } else { b[j] };
        while i < ha && a[i] <= x {
            i += 1;
        }
        while j < hb && b[j] <= x {
            j += 1;
        }
        let d = ((i * nb) as i64 - (j * na) as i64).unsigned_abs();
        if d > sup {
            sup = d;
        }
    }
    sup
}

/// Wasserstein distance per the paper's Eq. 2: both CDFs are evaluated on a
/// shared [`CDF_GRID`]-point grid over `[0, 1]` and the absolute differences
/// are averaged.
///
/// For samples on the unit interval this equals the classical 1-Wasserstein
/// distance (∫|CDF_a − CDF_b|) up to grid resolution, and is bounded by 1.
pub fn wasserstein_distance(a: &[f64], b: &[f64]) -> f64 {
    wasserstein_on_grid(a, b, CDF_GRID, 0.0, 1.0)
}

/// Grid-parameterized variant of [`wasserstein_distance`].
pub fn wasserstein_on_grid(a: &[f64], b: &[f64], points: usize, lo: f64, hi: f64) -> f64 {
    let ea = Ecdf::new(a);
    let eb = Ecdf::new(b);
    if let Some(d) = empty_gate(ea.is_empty(), eb.is_empty(), 1.0) {
        return d;
    }
    wasserstein_on_grid_pregrid(&ea.on_grid(points, lo, hi), &eb.on_grid(points, lo, hi))
}

/// [`wasserstein_on_grid`] core on two precomputed equal-length CDF grids.
///
/// # Panics
/// Panics if the grids differ in length.
pub fn wasserstein_on_grid_pregrid(ga: &[f64], gb: &[f64]) -> f64 {
    assert_eq!(ga.len(), gb.len(), "CDF grids must have equal length");
    let sum: f64 = ga.iter().zip(gb).map(|(x, y)| (x - y).abs()).sum();
    sum / ga.len() as f64
}

/// Population Stability Index (paper Eq. 3):
/// `Σ_i (prop_a(i) − prop_b(i)) · ln(prop_a(i) / prop_b(i))`
/// over `bins` equal-width bins on `[0, 1]`, with proportions floored at
/// [`PSI_EPSILON`] so empty bins do not blow up the logarithm.
///
/// PSI is symmetric and non-negative; identical samples give 0.
pub fn psi(a: &[f64], b: &[f64], bins: usize) -> f64 {
    psi_from_histograms(&Histogram::unit(a, bins), &Histogram::unit(b, bins))
}

/// [`psi`] core on two prebuilt histograms (same binning assumed).
pub fn psi_from_histograms(ha: &Histogram, hb: &Histogram) -> f64 {
    if let Some(d) = empty_gate(ha.total() == 0, hb.total() == 0, f64::INFINITY) {
        return d;
    }
    psi_from_proportions(&ha.proportions(), &hb.proportions())
}

/// [`psi`] core on two precomputed non-empty proportion vectors (as produced
/// by [`Histogram::proportions`]) — the allocation-free innermost loop
/// shared with the sketched path.
pub fn psi_from_proportions(pa: &[f64], pb: &[f64]) -> f64 {
    pa.iter()
        .zip(pb)
        .map(|(&x, &y)| {
            let x = x.max(PSI_EPSILON);
            let y = y.max(PSI_EPSILON);
            (x - y) * (x / y).ln()
        })
        .sum()
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect()
    }

    fn shifted(n: usize, delta: f64) -> Vec<f64> {
        uniform(n).iter().map(|x| (x + delta).min(1.0)).collect()
    }

    #[test]
    fn ks_identical_is_zero() {
        let a = uniform(200);
        assert!(ks_statistic(&a, &a) < 1e-12);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = vec![0.1, 0.15, 0.2];
        let b = vec![0.8, 0.85, 0.9];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_known_half_overlap() {
        // a = {0.25}, b = {0.25, 0.75}: sup diff = 0.5 at x in [0.25, 0.75)
        let d = ks_statistic(&[0.25], &[0.25, 0.75]);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_empty_handling() {
        assert_eq!(ks_statistic(&[], &[]), 0.0);
        assert_eq!(ks_statistic(&[], &[0.5]), 1.0);
    }

    #[test]
    fn ks_merge_walk_matches_per_point_supremum() {
        // reference implementation: evaluate |Fa - Fb| at every sample point
        // via the Ecdf binary-search evaluator (the pre-refactor algorithm)
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (uniform(37), shifted(53, 0.2)),
            (vec![0.5; 10], uniform(7)),
            (uniform(100), uniform(100)),
            (vec![0.1, 0.1, 0.9], vec![0.1, 0.9, 0.9]),
            (vec![0.3], vec![0.7]),
        ];
        for (a, b) in cases {
            let ea = Ecdf::new(&a);
            let eb = Ecdf::new(&b);
            let mut sup: f64 = 0.0;
            for &x in ea.sample().iter().chain(eb.sample()) {
                sup = sup.max((ea.eval(x) - eb.eval(x)).abs());
            }
            // the merge walk tracks integer counts and divides once at the
            // end, so it may differ from the per-point fp reference by ulps
            let d = ks_statistic(&a, &b);
            assert!((d - sup).abs() < 1e-12, "a={a:?} b={b:?}: {d} vs {sup}");
        }
    }

    #[test]
    fn wasserstein_shift_detection() {
        let a = uniform(500);
        let b = shifted(500, 0.2);
        let d = wasserstein_distance(&a, &b);
        // shifting a uniform by 0.2 (clipped) moves mass by ~0.2 on average
        assert!(d > 0.15 && d < 0.25, "got {d}");
        assert!(wasserstein_distance(&a, &a) < 1e-9);
    }

    #[test]
    fn wasserstein_less_sensitive_than_ks_to_local_spikes() {
        // Concentrated local difference: KS sees the spike, WD integrates it.
        let mut a = uniform(1000);
        let b = a.clone();
        for x in a.iter_mut().take(100) {
            *x = 0.5; // move 10% of mass to a point
        }
        let ks = ks_statistic(&a, &b);
        let wd = wasserstein_distance(&a, &b);
        assert!(ks > wd, "ks={ks} wd={wd}");
    }

    #[test]
    fn psi_identical_is_zero_and_symmetric() {
        let a = uniform(300);
        assert!(psi(&a, &a, 100) < 1e-12);
        let b = shifted(300, 0.3);
        let d1 = psi(&a, &b, 100);
        let d2 = psi(&b, &a, 100);
        assert!((d1 - d2).abs() < 1e-9, "PSI must be symmetric");
        assert!(d1 > 0.0);
    }

    #[test]
    fn psi_monotone_in_shift() {
        let a = uniform(500);
        let d_small = psi(&a, &shifted(500, 0.05), 100);
        let d_large = psi(&a, &shifted(500, 0.4), 100);
        assert!(d_large > d_small, "small={d_small} large={d_large}");
    }

    #[test]
    fn similarities_bounded_and_ordered() {
        let a = uniform(400);
        let near = shifted(400, 0.02);
        let far = shifted(400, 0.5);
        for t in UnivariateTest::all() {
            let s_self = t.similarity(&a, &a);
            let s_near = t.similarity(&a, &near);
            let s_far = t.similarity(&a, &far);
            assert!(s_self > 0.99, "{t:?} self sim {s_self}");
            assert!(s_near > s_far, "{t:?}: near {s_near} far {s_far}");
            for s in [s_self, s_near, s_far] {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn similarity_from_distance_matches_similarity() {
        let a = uniform(64);
        let b = shifted(64, 0.15);
        for t in UnivariateTest::all() {
            assert_eq!(t.similarity(&a, &b), t.similarity_from_distance(t.distance(&a, &b)));
        }
        // PSI's infinite distance (one empty side) maps to similarity 0
        assert_eq!(UnivariateTest::Psi.similarity_from_distance(f64::INFINITY), 0.0);
    }

    #[test]
    fn short_names() {
        assert_eq!(UnivariateTest::KolmogorovSmirnov.short_name(), "KS");
        assert_eq!(UnivariateTest::Wasserstein.short_name(), "WD");
        assert_eq!(UnivariateTest::Psi.short_name(), "PSI");
    }
}
