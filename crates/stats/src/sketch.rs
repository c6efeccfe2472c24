//! Per-column distribution sketches: the O(problems) precomputation behind
//! MoRER's pairwise distribution analysis.
//!
//! The pairwise `sim_p` loops (repository construction's O(P²) problem graph
//! and every model-search solve) repeatedly need the *same* per-sample
//! artifacts — a sorted copy of each feature column, its ECDF evaluated on
//! the shared Wasserstein grid, its PSI histogram, and its `(count, mean,
//! M2)` moments for the pooled-stddev feature weight. A [`ColumnSketch`]
//! computes all of them once per column, after which any two-sample test
//! against another sketch is allocation-free:
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
//! # Building a sketch in three passes
//!
//! [`ColumnSketch::new`] is linear in the column length `n`:
//!
//! 1. one pass in data order pushes the Welford moments (the same order as
//!    [`Moments::of`], so pooled-stddev weights keep their bits), maps each
//!    finite value to an order-preserving `u64` key (the order of
//!    [`f64::total_cmp`]) and counts the key's eight bytes in eight digit
//!    histograms;
//! 2. an LSD radix sort scatters the keys once per byte, skipping every byte
//!    that all `n` keys share (for unit-interval columns the sign and top
//!    exponent byte never move);
//! 3. one walk over the sorted values yields the PSI bin counts, the CDF
//!    grid and the KS bucket offsets. Each is a count of sorted values under
//!    a predicate that is monotone along the sorted order — the PSI bin
//!    `⌊(x − lo)/width⌋ < k`, the CDF step `x ≤ x_k` and the bucket test
//!    `x·B < k` — and the walk evaluates the very predicates of the
//!    per-artifact functions, so it counts the same integers.
//!
//! `ColumnSketch::new_reference` (behind the `reference` feature) keeps
//! the per-artifact composition — [`Moments::of`], [`Histogram::unit`],
//! [`sorted_finite`](crate::ecdf::sorted_finite) (a comparison sort),
//! [`Ecdf::on_grid`] and a bucket-table walk — as the oracle; property tests
//! pin the two field for field, bit for bit.
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
use crate::ecdf::{grid_point, Ecdf};
use crate::histogram::{bin_index, bin_width, Histogram};
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
    /// buckets `< k` ([`walk_sorted`]).
    offsets: Vec<u32>,
}

impl ColumnSketch {
    /// Sketch one column in three linear passes (see the module docs):
    /// moments and sort keys in data order, a radix sort, and one walk over
    /// the sorted values. Bit for bit the same sketch as the per-artifact
    /// composition `ColumnSketch::new_reference`.
    pub fn new(column: &[f64]) -> Self {
        let mut moments = Moments::default();
        let mut keys = Vec::with_capacity(column.len());
        let mut digits = [[0usize; 256]; 8];
        for &x in column {
            moments.push(x);
            if x.is_finite() {
                let key = sort_key(x);
                for (d, counts) in digits.iter_mut().enumerate() {
                    counts[usize::from((key >> (8 * d)) as u8)] += 1;
                }
                keys.push(key);
            }
        }
        let ecdf = Ecdf::from_sorted(radix_sort(keys, &digits));
        let Walk { psi_counts, grid, offsets } = walk_sorted(ecdf.sample());
        let hist = Histogram::from_counts(psi_counts, 0.0, 1.0);
        let (props, hist_total) = (hist.proportions(), hist.total());
        Self { ecdf, grid, props, hist_total, moments, offsets }
    }

    /// The sketch of [`ColumnSketch::new`], composed from the per-artifact
    /// functions with one pass each, and a comparison sort: the oracle the
    /// three-pass kernel is tested and benchmarked against. Not for library
    /// use.
    #[cfg(any(test, feature = "reference"))]
    pub fn new_reference(column: &[f64]) -> Self {
        let moments = Moments::of(column);
        let hist = Histogram::unit(column, PSI_BINS);
        let (props, hist_total) = (hist.proportions(), hist.total());
        let ecdf = Ecdf::from_sorted(crate::ecdf::sorted_finite(column));
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

    /// The KS bucket table: `offsets()[k]` counts the sorted values in
    /// buckets `< k` (see the module docs).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
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

/// The `u64` key of finite `x` whose unsigned order is the order of
/// [`f64::total_cmp`]: a positive value sets its sign bit, a negative value
/// flips every bit.
#[inline]
fn sort_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// The value whose [`sort_key`] is `key`.
#[inline]
fn from_sort_key(key: u64) -> f64 {
    f64::from_bits(key ^ (((!key as i64 >> 63) as u64) | (1 << 63)))
}

/// `keys` sorted by an LSD radix sort, as values. `digits[d][b]` counts the
/// keys whose byte `d` is `b`; a byte that every key shares leaves the
/// order as it is and is skipped. Each scatter is stable, and equal keys
/// are equal bits, so the result is bit for bit the comparison sort of
/// [`sorted_finite`](crate::ecdf::sorted_finite).
fn radix_sort(mut keys: Vec<u64>, digits: &[[usize; 256]; 8]) -> Vec<f64> {
    let Some(&first) = keys.first() else {
        return Vec::new();
    };
    let mut scratch = vec![0u64; keys.len()];
    for (d, counts) in digits.iter().enumerate() {
        let shift = 8 * d;
        if counts[usize::from((first >> shift) as u8)] == keys.len() {
            continue;
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, &count) in next.iter_mut().zip(counts) {
            *slot = sum;
            sum += count;
        }
        for &key in &keys {
            let slot = &mut next[usize::from((key >> shift) as u8)];
            scratch[*slot] = key;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
    }
    keys.into_iter().map(from_sort_key).collect()
}

/// Number of buckets in the KS table of an `n`-value sample.
fn bucket_count(n: usize) -> usize {
    (n / 4).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS)
}

/// Whether `x` lies in a KS bucket `< k` of a `scale`-bucket table: the
/// scaling by a power of two is exact, so this is
/// `clamp(⌊x·scale⌋, 0, scale − 1) < k` for `0 < k < scale`.
#[inline]
fn below_bucket(x: f64, scale: f64, k: usize) -> bool {
    x * scale < k as f64
}

/// The artifacts [`walk_sorted`] counts off a sorted sample.
struct Walk {
    /// [`PSI_BINS`] unit-interval bin counts.
    psi_counts: Vec<u64>,
    /// The ECDF on the [`CDF_GRID`]-point grid over `[0, 1]`.
    grid: Vec<f64>,
    /// The KS bucket table.
    offsets: Vec<u32>,
}

/// The PSI bin counts, CDF grid and KS bucket table of a sorted finite
/// sample, in one walk. Each artifact is a list of counts `c_k` of the
/// values that satisfy a predicate `p_k`, monotone along the sorted order
/// (true on a prefix): `c_k` is the index of the first value that fails
/// `p_k`. Each `p_k` also implies `p_{k+1}`, so every list is filled in
/// order as the walk passes each value. The predicates are those of
/// [`Histogram::unit`], [`Ecdf::on_grid`] and the reference bucket table.
fn walk_sorted(sorted: &[f64]) -> Walk {
    let n = u32::try_from(sorted.len()).expect("a KS bucket table counts at most u32::MAX values");
    let width = bin_width(PSI_BINS, 0.0, 1.0);
    let grid_x: [f64; CDF_GRID] = std::array::from_fn(|k| grid_point(k, CDF_GRID, 0.0, 1.0));
    let buckets = bucket_count(sorted.len());
    let scale = buckets as f64;
    // bin_ends[k] counts the values in PSI bins < k; le_grid[k] the values
    // <= grid_x[k]; offsets[k] the values in KS buckets < k
    let mut bin_ends = Vec::with_capacity(PSI_BINS + 1);
    let mut le_grid = Vec::with_capacity(CDF_GRID);
    let mut offsets = Vec::with_capacity(buckets + 1);
    bin_ends.push(0);
    offsets.push(0);
    for (i, &x) in (0u32..).zip(sorted) {
        let bin = bin_index(x, PSI_BINS, 0.0, width);
        while bin_ends.len() <= bin {
            bin_ends.push(i);
        }
        // `x > x_k` is `!(x <= x_k)`: the sample holds no NaN
        while le_grid.len() < CDF_GRID && x > grid_x[le_grid.len()] {
            le_grid.push(i);
        }
        while offsets.len() < buckets && !below_bucket(x, scale, offsets.len()) {
            offsets.push(i);
        }
    }
    bin_ends.resize(PSI_BINS + 1, n);
    le_grid.resize(CDF_GRID, n);
    offsets.resize(buckets + 1, n);
    let psi_counts = bin_ends.windows(2).map(|w| u64::from(w[1] - w[0])).collect();
    // eval_sorted's ratio, and its 0 for an empty sample
    let grid = le_grid
        .into_iter()
        .map(|c| if n == 0 { 0.0 } else { f64::from(c) / f64::from(n) })
        .collect();
    Walk { psi_counts, grid, offsets }
}

/// The KS bucket table of a sorted sample, one bucket end at a time:
/// `offsets[k]` counts the values in buckets `< k`, for `k` in `0..=B` with
/// `B` a power of two that grows with the sample size, and every value is
/// in a bucket `< B`. The oracle of [`walk_sorted`]'s table.
#[cfg(any(test, feature = "reference"))]
fn bucket_offsets(sorted: &[f64]) -> Vec<u32> {
    let n = u32::try_from(sorted.len()).expect("a KS bucket table counts at most u32::MAX values");
    let buckets = bucket_count(sorted.len());
    let scale = buckets as f64;
    let mut offsets = Vec::with_capacity(buckets + 1);
    offsets.push(0);
    let mut i = 0;
    for k in 1..buckets {
        while i < sorted.len() && below_bucket(sorted[i], scale, k) {
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
