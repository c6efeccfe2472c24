//! Gaussian naive Bayes classifier.

use serde::{Deserialize, Serialize};

use crate::dataset::{FeatureMatrix, TrainingSet};

/// Variance floor preventing degenerate likelihoods on constant features.
const VAR_EPSILON: f64 = 1e-6;

/// A trained Gaussian naive Bayes classifier for binary match labels.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GaussianNb {
    log_prior_pos: f64,
    log_prior_neg: f64,
    mean_pos: Vec<f64>,
    var_pos: Vec<f64>,
    mean_neg: Vec<f64>,
    var_neg: Vec<f64>,
}

impl GaussianNb {
    /// Fit per-class feature means/variances with Laplace-smoothed priors.
    pub fn fit(data: &TrainingSet) -> Self {
        let t = data.num_features();
        let (pos_n, neg_n) = data.class_counts();
        let n = data.len();
        // Laplace smoothing keeps priors finite with single-class data.
        let log_prior_pos = ((pos_n + 1) as f64 / (n + 2) as f64).ln();
        let log_prior_neg = ((neg_n + 1) as f64 / (n + 2) as f64).ln();

        let stats = |want: bool, count: usize| -> (Vec<f64>, Vec<f64>) {
            let mut mean = vec![0.0f64; t];
            let mut var = vec![0.0f64; t];
            if count == 0 {
                // uninformative wide Gaussian centred mid-interval
                return (vec![0.5; t], vec![1.0; t]);
            }
            for (row, &label) in data.x.iter_rows().zip(&data.y) {
                if label == want {
                    for (m, &x) in mean.iter_mut().zip(row) {
                        *m += x;
                    }
                }
            }
            mean.iter_mut().for_each(|m| *m /= count as f64);
            for (row, &label) in data.x.iter_rows().zip(&data.y) {
                if label == want {
                    for ((v, m), &x) in var.iter_mut().zip(&mean).zip(row) {
                        *v += (x - *m).powi(2);
                    }
                }
            }
            var.iter_mut().for_each(|v| *v = (*v / count as f64).max(VAR_EPSILON));
            (mean, var)
        };
        let (mean_pos, var_pos) = stats(true, pos_n);
        let (mean_neg, var_neg) = stats(false, neg_n);
        Self { log_prior_pos, log_prior_neg, mean_pos, var_pos, mean_neg, var_neg }
    }

    /// `Σ_i −½·(ln(2π·var_i) + (x_i − mean_i)²/var_i)`, with the
    /// `ln(2π·var_i)` terms given as `log_norms`.
    fn log_likelihood(
        x: &[f64],
        mean: &[f64],
        var: &[f64],
        log_norms: impl Iterator<Item = f64>,
    ) -> f64 {
        x.iter()
            .zip(mean.iter().zip(var))
            .zip(log_norms)
            .map(|((&xi, (&m, &v)), log_norm)| -0.5 * (log_norm + (xi - m).powi(2) / v))
            .sum()
    }

    /// The match-class posterior of `x`, with each class's `ln(2π·var)`
    /// terms given as `norms_pos` and `norms_neg`.
    fn posterior(
        &self,
        x: &[f64],
        norms_pos: impl Iterator<Item = f64>,
        norms_neg: impl Iterator<Item = f64>,
    ) -> f64 {
        let lp =
            self.log_prior_pos + Self::log_likelihood(x, &self.mean_pos, &self.var_pos, norms_pos);
        let ln =
            self.log_prior_neg + Self::log_likelihood(x, &self.mean_neg, &self.var_neg, norms_neg);
        let max = lp.max(ln);
        let ep = (lp - max).exp();
        let en = (ln - max).exp();
        ep / (ep + en)
    }

    /// Posterior probability of the match class.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        self.posterior(x, log_norms(&self.var_pos), log_norms(&self.var_neg))
    }

    /// [`GaussianNb::predict_proba`] of every row of `x`, bit for bit, with
    /// each class's `ln(2π·var)` terms taken once instead of once per row.
    pub fn predict_proba_rows(&self, x: &FeatureMatrix) -> Vec<f64> {
        let norms_pos: Vec<f64> = log_norms(&self.var_pos).collect();
        let norms_neg: Vec<f64> = log_norms(&self.var_neg).collect();
        x.iter_rows()
            .map(|row| self.posterior(row, norms_pos.iter().copied(), norms_neg.iter().copied()))
            .collect()
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }
}

/// The Gaussian normalizers `ln(2π·v)` of the variances `var`.
fn log_norms(var: &[f64]) -> impl Iterator<Item = f64> + '_ {
    var.iter().map(|&v| (2.0 * std::f64::consts::PI * v).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_blobs() -> TrainingSet {
        // matches near (0.9, 0.9), non-matches near (0.1, 0.1)
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let jitter = (i % 7) as f64 * 0.01;
            rows.push(vec![0.9 - jitter, 0.9 + jitter.min(0.05)]);
            labels.push(true);
            rows.push(vec![0.1 + jitter, 0.1 - jitter.min(0.05)]);
            labels.push(false);
        }
        TrainingSet::from_rows(&rows, &labels)
    }

    #[test]
    fn separates_gaussian_blobs() {
        let model = GaussianNb::fit(&gaussian_blobs());
        assert!(model.predict(&[0.85, 0.9]));
        assert!(!model.predict(&[0.15, 0.1]));
        assert!(model.predict_proba(&[0.9, 0.9]) > 0.95);
    }

    #[test]
    fn single_class_training_is_finite() {
        let data = TrainingSet::from_rows(&[vec![0.8], vec![0.9]], &[true, true]);
        let model = GaussianNb::fit(&data);
        let p = model.predict_proba(&[0.85]);
        assert!(p.is_finite());
        assert!(model.predict(&[0.85]));
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let data = TrainingSet::from_rows(
            &[vec![0.5, 0.9], vec![0.5, 0.1], vec![0.5, 0.8], vec![0.5, 0.2]],
            &[true, false, true, false],
        );
        let model = GaussianNb::fit(&data);
        let p = model.predict_proba(&[0.5, 0.9]);
        assert!(p.is_finite() && p > 0.5);
    }

    #[test]
    fn probabilities_bounded() {
        let model = GaussianNb::fit(&gaussian_blobs());
        for i in 0..=10 {
            let p = model.predict_proba(&[i as f64 / 10.0, 0.5]);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn priors_reflect_class_imbalance() {
        let rows: Vec<Vec<f64>> = (0..100).map(|_| vec![0.5]).collect();
        let labels: Vec<bool> = (0..100).map(|i| i < 10).collect();
        let model = GaussianNb::fit(&TrainingSet::from_rows(&rows, &labels));
        // identical likelihoods, so posterior follows the prior (10%)
        let p = model.predict_proba(&[0.5]);
        assert!(p < 0.2, "p = {p}");
    }
}
