//! Per-column distribution sketches: the O(problems) precomputation behind
//! MoRER's pairwise distribution analysis.
//!
//! The pairwise `sim_p` loops (repository construction's O(P²) problem graph
//! and every model-search solve) repeatedly need the *same* per-sample
//! artifacts — a sorted copy of each feature column, its ECDF evaluated on
//! the shared Wasserstein grid, its PSI histogram, and its `(count, mean,
//! M2)` moments for the pooled-stddev feature weight. A [`ColumnSketch`]
//! computes all of them once (O(n log n) per column), after which any
//! two-sample test against another sketch is allocation-free:
//!
//! * KS: a bucket-pruned exact supremum (below);
//! * WD: an O(grid) pass over the precomputed CDF grids;
//! * PSI: an O(bins) pass over the precomputed histograms;
//! * pooled stddev: an O(1) [`Moments::merge`].
//!
//! WD and PSI call the same cores as the slice-based public test
//! functions, so those sketch comparisons are bit-identical to the slice
//! computation on the same data.
//!
//! # Bucket-pruned KS
//!
//! Each sketch also keeps a bucket-offset table: value `x` falls in bucket
//! `b(x) = clamp(⌊x·B⌋, 0, B − 1)`, and `offsets[k]` counts the sorted
//! values in buckets `< k`. `B` is a power of two that grows with the column
//! length (`(n/4).next_power_of_two()` clamped to `[16, 1024]`); two sketches
//! are compared at the coarser table, reading the finer one with a stride.
//! `b` is monotone, so a tie group never straddles two buckets (±0.0 share
//! bucket 0), and the KS distance is found exactly in two passes over the
//! integer gaps `|i·n_b − j·n_a|` of the merge walk:
//!
//! 1. every bucket end is a real ECDF evaluation point, so the largest gap
//!    over the bucket ends is a lower bound on the supremum;
//! 2. inside bucket `k` the counts stay within `[lo, hi]` of its two ends,
//!    so no point in it can beat the running supremum unless
//!    `max(hi_a·n_b − lo_b·n_a, hi_b·n_a − lo_a·n_b)` does. Only such
//!    buckets run the tie-aware merge walk, restricted to their two ranges.
//!
//! The result is the same integer supremum, divided the same way, as the
//! full merge walk [`crate::tests::ks_statistic_sorted`], which stays the
//! slice-path core and the oracle; property tests pin the two bit for bit.

use crate::describe::Moments;
use crate::ecdf::{sorted_finite, Ecdf};
use crate::histogram::Histogram;
use crate::tests::{
    empty_gate, ks_merge_gap, psi_from_proportions, wasserstein_on_grid_pregrid,
    UnivariateTest, CDF_GRID, PSI_BINS,
};

/// Fewest buckets in a KS offset table.
const MIN_BUCKETS: usize = 16;
/// Most buckets in a KS offset table.
const MAX_BUCKETS: usize = 1024;

/// Precomputed distribution artifacts of one feature column (assumed to live
/// on the unit interval, as similarity features do).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSketch {
    /// Sorted finite sample (the ECDF support).
    ecdf: Ecdf,
    /// ECDF evaluated on the shared [`CDF_GRID`]-point grid over `[0, 1]`.
    grid: Vec<f64>,
    /// [`PSI_BINS`]-bin unit-interval histogram proportions
    /// ([`Histogram::proportions`]), plus the binned count for the
    /// empty-sample gate.
    props: Vec<f64>,
    hist_total: u64,
    /// Data-order Welford moments (for pooled-stddev weighting).
    moments: Moments,
    /// KS bucket table: `offsets[k]` is the number of sorted values in
    /// buckets `< k` ([`bucket_offsets`]).
    offsets: Vec<u32>,
}

impl ColumnSketch {
    /// Sketch one column. `column` is consumed in data order for the
    /// moments (matching a direct Welford pass over the same slice), then
    /// sorted for the ECDF.
    pub fn new(column: &[f64]) -> Self {
        let moments = Moments::of(column);
        let hist = Histogram::unit(column, PSI_BINS);
        let (props, hist_total) = (hist.proportions(), hist.total());
        let ecdf = Ecdf::from_sorted(sorted_finite(column));
        let grid = ecdf.on_grid(CDF_GRID, 0.0, 1.0);
        let offsets = bucket_offsets(ecdf.sample());
        Self { ecdf, grid, props, hist_total, moments, offsets }
    }

    /// Number of (finite) observations backing the sketch.
    pub fn len(&self) -> usize {
        self.ecdf.len()
    }

    /// True when the sketched sample is empty.
    pub fn is_empty(&self) -> bool {
        self.ecdf.is_empty()
    }

    /// The sorted sample.
    pub fn sorted(&self) -> &[f64] {
        self.ecdf.sample()
    }

    /// The column's Welford moments.
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// The ECDF evaluated on the shared [`CDF_GRID`]-point grid over
    /// `[0, 1]` — the exact vector [`ColumnSketch::distance`] consumes for
    /// WD, exposed so index layers can derive distance *lower bounds*
    /// from grid subsets (any `|grid_a[k] - grid_b[k]|` lower-bounds the KS
    /// sup, any partial L1 sum over the grid lower-bounds the full WD sum).
    pub fn grid(&self) -> &[f64] {
        &self.grid
    }

    /// The [`PSI_BINS`]-bin histogram proportions — the exact vector the
    /// PSI distance consumes. Every per-bin PSI term is non-negative, so a
    /// partial sum over any bin subset lower-bounds the full PSI distance.
    pub fn props(&self) -> &[f64] {
        &self.props
    }

    /// Total binned count behind [`ColumnSketch::props`] (the PSI
    /// empty-sample gate fires on `hist_total() == 0`).
    pub fn hist_total(&self) -> u64 {
        self.hist_total
    }

    /// Pooled standard deviation of this column and `other` as if both
    /// samples were concatenated — the §4.2 "discriminative power" weight,
    /// via an O(1) moments merge.
    pub fn pooled_stddev(&self, other: &Self) -> f64 {
        self.moments.merge(&other.moments).stddev()
    }

    /// Raw two-sample distance against `other` under `test` — identical to
    /// `test.distance(column_a, column_b)` on the underlying samples.
    pub fn distance(&self, other: &Self, test: UnivariateTest) -> f64 {
        // the same empty-sample gate the slice-based wrappers apply (PSI
        // gates on binned totals and maps one-empty to +∞)
        let gated = match test {
            UnivariateTest::Psi => {
                empty_gate(self.hist_total == 0, other.hist_total == 0, f64::INFINITY)
            }
            _ => empty_gate(self.is_empty(), other.is_empty(), 1.0),
        };
        if let Some(d) = gated {
            return d;
        }
        match test {
            UnivariateTest::KolmogorovSmirnov => {
                ks_bucketed(self.sorted(), &self.offsets, other.sorted(), &other.offsets)
            }
            UnivariateTest::Wasserstein => wasserstein_on_grid_pregrid(&self.grid, &other.grid),
            UnivariateTest::Psi => psi_from_proportions(&self.props, &other.props),
        }
    }

    /// Similarity in `[0, 1]` against `other` — identical to
    /// `test.similarity(column_a, column_b)` on the underlying samples.
    pub fn similarity(&self, other: &Self, test: UnivariateTest) -> f64 {
        test.similarity_from_distance(self.distance(other, test))
    }
}

/// The KS bucket table of a sorted sample: `offsets[k]` counts the values in
/// buckets `< k`, for `k` in `0..=B` with `B` a power of two that grows with
/// the sample size. Value `x` is in a bucket `< k` (for `0 < k < B`) exactly
/// when `x·B < k`: the scaling by a power of two is exact, so this is
/// `clamp(⌊x·B⌋, 0, B − 1) < k`, and every value is in a bucket `< B`.
fn bucket_offsets(sorted: &[f64]) -> Vec<u32> {
    let n = u32::try_from(sorted.len()).expect("a KS bucket table counts at most u32::MAX values");
    let buckets = (sorted.len() / 4).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
    let scale = buckets as f64;
    let mut offsets = Vec::with_capacity(buckets + 1);
    offsets.push(0);
    let mut i = 0;
    for k in 1..buckets {
        while i < sorted.len() && sorted[i] * scale < k as f64 {
            i += 1;
        }
        offsets.push(i as u32);
    }
    offsets.push(n);
    offsets
}

/// KS distance of two non-empty sorted samples from their bucket tables:
/// the bucket ends give a lower bound on the integer supremum, and only the
/// buckets whose box bound beats it run the merge walk (see the module
/// docs). Equal to `ks_statistic_sorted(a, b)` bit for bit.
///
/// A bucket's walk may stop when one of its two ranges runs out: past that
/// point one count is fixed and the signed gap is monotone, so every later
/// gap is bounded by the last one evaluated or by the bucket-end gap that
/// pass 1 already holds.
fn ks_bucketed(a: &[f64], offs_a: &[u32], b: &[f64], offs_b: &[u32]) -> f64 {
    let (na, nb) = (a.len() as u64, b.len() as u64);
    let buckets = (offs_a.len() - 1).min(offs_b.len() - 1);
    let (stride_a, stride_b) = ((offs_a.len() - 1) / buckets, (offs_b.len() - 1) / buckets);
    let end = |k: usize| (u64::from(offs_a[k * stride_a]), u64::from(offs_b[k * stride_b]));
    // pass 1: the gaps at the bucket ends
    let mut sup = (1..buckets).map(end).map(|(i, j)| (i * nb).abs_diff(j * na)).max().unwrap_or(0);
    // pass 2: merge only the buckets whose box bound beats `sup`
    for k in 0..buckets {
        let ((lo_a, lo_b), (hi_a, hi_b)) = (end(k), end(k + 1));
        let bound =
            (hi_a * nb).saturating_sub(lo_b * na).max((hi_b * na).saturating_sub(lo_a * nb));
        if bound > sup {
            let gap =
                ks_merge_gap(a, b, (lo_a as usize, hi_a as usize), (lo_b as usize, hi_b as usize));
            sup = sup.max(gap);
        }
    }
    sup as f64 / (na as f64 * nb as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::stddev;

    fn col(n: usize, offset: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 * 0.731 + offset) % 1.0).abs()).collect()
    }

    #[test]
    fn sketch_distances_match_slice_functions_bitwise() {
        let a = col(173, 0.0);
        let b = col(211, 0.37);
        let sa = ColumnSketch::new(&a);
        let sb = ColumnSketch::new(&b);
        for t in UnivariateTest::all() {
            assert_eq!(sa.distance(&sb, t), t.distance(&a, &b), "{t:?} distance");
            assert_eq!(sa.similarity(&sb, t), t.similarity(&a, &b), "{t:?} similarity");
        }
    }

    #[test]
    fn sketch_empty_gates_match_slice_functions() {
        let a = col(31, 0.1);
        let sa = ColumnSketch::new(&a);
        let se = ColumnSketch::new(&[]);
        assert!(se.is_empty());
        for t in UnivariateTest::all() {
            assert_eq!(se.distance(&se, t), t.distance(&[], &[]), "{t:?} both empty");
            assert_eq!(sa.distance(&se, t), t.distance(&a, &[]), "{t:?} one empty");
            assert_eq!(se.similarity(&sa, t), t.similarity(&[], &a), "{t:?} sim");
        }
    }

    #[test]
    fn pooled_stddev_matches_concatenation() {
        let a = col(64, 0.2);
        let b = col(48, 0.6);
        let sa = ColumnSketch::new(&a);
        let sb = ColumnSketch::new(&b);
        let mut pooled = a.clone();
        pooled.extend_from_slice(&b);
        assert!((sa.pooled_stddev(&sb) - stddev(&pooled)).abs() < 1e-12);
        // symmetric bit-for-bit (commutative moments merge)
        assert_eq!(sa.pooled_stddev(&sb), sb.pooled_stddev(&sa));
    }

    #[test]
    fn sketch_drops_non_finite_like_the_slice_path() {
        let a = vec![0.5, f64::NAN, 0.25, f64::INFINITY, 0.75];
        let b = col(10, 0.4);
        let sa = ColumnSketch::new(&a);
        assert_eq!(sa.len(), 3);
        let sb = ColumnSketch::new(&b);
        for t in UnivariateTest::all() {
            assert_eq!(sa.distance(&sb, t), t.distance(&a, &b), "{t:?}");
        }
    }
}
