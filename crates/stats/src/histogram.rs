//! Fixed-width histograms over a bounded interval.
//!
//! Used for the Population Stability Index (which bins both samples the same
//! way) and for regenerating the paper's Fig. 2 similarity histograms.

/// Equal-width histogram over `[lo, hi]`.
///
/// Values outside the range are clamped into the first/last bin; non-finite
/// values are skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Build a histogram of `data` with `bins` equal-width bins over
    /// `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(data: &[f64], bins: usize, lo: f64, hi: f64) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "invalid histogram range [{lo}, {hi}]");
        let mut counts = vec![0u64; bins];
        let mut total = 0u64;
        let width = bin_width(bins, lo, hi);
        for &x in data {
            if !x.is_finite() {
                continue;
            }
            counts[bin_index(x, bins, lo, width)] += 1;
            total += 1;
        }
        Self { lo, hi, counts, total }
    }

    /// Wrap per-bin counts already taken with [`bin_index`] over `[lo, hi]`.
    pub(crate) fn from_counts(counts: Vec<u64>, lo: f64, hi: f64) -> Self {
        let total = counts.iter().sum();
        Self { lo, hi, counts, total }
    }

    /// Histogram over the unit interval — the domain of similarity features.
    pub fn unit(data: &[f64], bins: usize) -> Self {
        Self::new(data, bins, 0.0, 1.0)
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of binned observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Per-bin proportions, i.e. `counts / total`. All zeros when empty.
    pub fn proportions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / self.total as f64).collect()
    }

    /// Midpoint of bin `i` (for plotting/printing).
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Lower edge of bin `i`.
    pub fn bin_edge(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + i as f64 * width
    }
}

/// Width of one of `bins` equal-width bins over `[lo, hi]`.
#[inline]
pub(crate) fn bin_width(bins: usize, lo: f64, hi: f64) -> f64 {
    (hi - lo) / bins as f64
}

/// The bin of finite `x` among `bins` bins of `width` from `lo`, clamped
/// into the first and last bin. Non-decreasing in `x`: the division by a
/// positive width and the truncating cast are both monotone.
#[inline]
pub(crate) fn bin_index(x: f64, bins: usize, lo: f64, width: f64) -> usize {
    (((x - lo) / width) as isize).clamp(0, bins as isize - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_expected_bins() {
        let h = Histogram::unit(&[0.05, 0.15, 0.15, 0.95], 10);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn boundary_value_goes_to_last_bin() {
        let h = Histogram::unit(&[1.0], 10);
        assert_eq!(h.counts()[9], 1);
        let h = Histogram::unit(&[0.0], 10);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn out_of_range_clamped_non_finite_skipped() {
        let h = Histogram::unit(&[-0.5, 1.5, f64::NAN], 4);
        assert_eq!(h.counts(), &[1, 0, 0, 1]);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn proportions_sum_to_one() {
        let data: Vec<f64> = (0..97).map(|i| i as f64 / 97.0).collect();
        let h = Histogram::unit(&data, 10);
        let s: f64 = h.proportions().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_all_zero() {
        let h = Histogram::unit(&[], 5);
        assert_eq!(h.total(), 0);
        assert!(h.proportions().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn bin_centers_and_edges() {
        let h = Histogram::unit(&[], 4);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_edge(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::unit(&[1.0], 0);
    }
}
