//! Empirical cumulative distribution functions.
//!
//! The paper's distribution tests operate on the CDFs `CDF_{k,l}^f` of a
//! similarity feature `f`. [`Ecdf`] stores the sorted sample and evaluates
//! `P(X <= x)` exactly; [`Ecdf::on_grid`] resamples it onto a fixed grid,
//! which is how two CDFs of different sample sizes are "adapted to the same
//! size" (paper §4.2, Wasserstein distance).

/// Evaluate the empirical CDF of an already-sorted finite sample at `x`.
/// Empty samples evaluate to 0.
///
/// This is the shared core behind [`Ecdf::eval`] and the pre-sorted
/// distribution-sketch path — both produce bit-identical values because
/// they *are* the same computation.
#[inline]
pub fn eval_sorted(sorted: &[f64], x: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // partition_point returns the count of elements <= x.
    let n_le = sorted.partition_point(|&v| v <= x);
    n_le as f64 / sorted.len() as f64
}

/// Evaluate the empirical CDF of an already-sorted finite sample on `points`
/// equally spaced grid positions spanning `[lo, hi]` (inclusive) — the
/// shared core behind [`Ecdf::on_grid`].
pub fn grid_sorted(sorted: &[f64], points: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(points >= 2, "grid needs at least two points");
    (0..points).map(|i| eval_sorted(sorted, grid_point(i, points, lo, hi))).collect()
}

/// Position `i` of `points` equally spaced grid positions spanning
/// `[lo, hi]` (inclusive). Non-decreasing in `i`.
#[inline]
pub(crate) fn grid_point(i: usize, points: usize, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * i as f64 / (points - 1) as f64
}

/// Sort `data` into ECDF order, dropping non-finite values — the
/// normalization step of [`Ecdf::new`] and the oracle of the radix sort
/// inside [`crate::ColumnSketch::new`], which must return the same bits.
pub fn sorted_finite(data: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
    // equal keys under `total_cmp` have identical bits (NaN is filtered),
    // so the unstable sort yields the same bytes without a merge buffer
    sorted.sort_unstable_by(f64::total_cmp);
    sorted
}

/// Empirical CDF of a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build the ECDF of `data` (non-finite values are dropped).
    pub fn new(data: &[f64]) -> Self {
        Self { sorted: sorted_finite(data) }
    }

    /// Wrap an already-sorted finite sample (as produced by
    /// [`sorted_finite`]) without re-sorting.
    pub fn from_sorted(sorted: Vec<f64>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| f64::total_cmp(&w[0], &w[1]).is_le()));
        debug_assert!(sorted.iter().all(|x| x.is_finite()));
        Self { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluate `F(x) = P(X <= x)`. Empty samples evaluate to 0.
    pub fn eval(&self, x: f64) -> f64 {
        eval_sorted(&self.sorted, x)
    }

    /// Evaluate the CDF on `points` equally spaced grid positions spanning
    /// `[lo, hi]` (inclusive).
    pub fn on_grid(&self, points: usize, lo: f64, hi: f64) -> Vec<f64> {
        grid_sorted(&self.sorted, points, lo, hi)
    }

    /// The sorted underlying sample.
    pub fn sample(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps_at_sample_points() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]);
        assert!((e.eval(1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_evaluates_to_zero() {
        let e = Ecdf::new(&[]);
        assert!(e.is_empty());
        assert_eq!(e.eval(0.5), 0.0);
    }

    #[test]
    fn grid_is_monotone_and_ends_at_one() {
        let data: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let e = Ecdf::new(&data);
        let g = e.on_grid(11, 0.0, 1.0);
        assert_eq!(g.len(), 11);
        for w in g.windows(2) {
            assert!(w[1] >= w[0], "CDF grid must be monotone");
        }
        assert_eq!(*g.last().unwrap(), 1.0);
    }

    #[test]
    fn drops_non_finite() {
        let e = Ecdf::new(&[0.5, f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(e.len(), 1);
    }
}
