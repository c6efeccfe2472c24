//! Unified classifier interface and the serializable [`TrainedModel`] sum
//! type stored in the ER model repository.

use serde::{Deserialize, Serialize};

use crate::dataset::{FeatureMatrix, TrainingSet};
use crate::forest::{RandomForest, RandomForestConfig};
use crate::linear::{LogisticRegression, LogisticRegressionConfig};
use crate::mlp::{Mlp, MlpConfig};
use crate::naive_bayes::GaussianNb;

/// Common prediction interface implemented by every classifier.
pub trait Classifier: Send + Sync {
    /// Probability that feature vector `x` represents a match.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Hard prediction at the 0.5 threshold.
    fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Batch hard predictions.
    fn predict_batch(&self, rows: &FeatureMatrix) -> Vec<bool> {
        rows.iter_rows().map(|r| self.predict(r)).collect()
    }
}

impl Classifier for RandomForest {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        RandomForest::predict_proba(self, x)
    }
}

impl Classifier for LogisticRegression {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        LogisticRegression::predict_proba(self, x)
    }
}

impl Classifier for GaussianNb {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        GaussianNb::predict_proba(self, x)
    }
}

impl Classifier for Mlp {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        Mlp::predict_proba(self, x)
    }
}

/// A fixed-threshold classifier on the mean feature value — the trivial
/// baseline and the calibrated head of the Sudowoodo stand-in.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ThresholdClassifier {
    /// Mean-feature threshold above which a pair is declared a match.
    pub threshold: f64,
}

impl ThresholdClassifier {
    /// Create with a fixed threshold.
    pub fn new(threshold: f64) -> Self {
        Self { threshold }
    }

    /// Pick the threshold in `(0, 1)` that maximizes F1 on labeled data
    /// (grid of 99 candidate cut points).
    pub fn calibrate(data: &TrainingSet) -> Self {
        let scores: Vec<f64> = data
            .x
            .iter_rows()
            .map(|r| r.iter().sum::<f64>() / r.len().max(1) as f64)
            .collect();
        let mut best = (0.5f64, -1.0f64);
        for step in 1..100 {
            let t = step as f64 / 100.0;
            let preds: Vec<bool> = scores.iter().map(|&s| s >= t).collect();
            let f1 = crate::metrics::f1_score(&preds, &data.y);
            if f1 > best.1 {
                best = (t, f1);
            }
        }
        Self { threshold: best.0 }
    }
}

impl Classifier for ThresholdClassifier {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        let mean = x.iter().sum::<f64>() / x.len().max(1) as f64;
        // linear ramp mapping the threshold to probability 0.5
        (0.5 + (mean - self.threshold)).clamp(0.0, 1.0)
    }
}

/// Training configuration for a repository model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ModelConfig {
    /// Random forest (the pipeline default).
    RandomForest(RandomForestConfig),
    /// Logistic regression.
    LogisticRegression(LogisticRegressionConfig),
    /// Gaussian naive Bayes.
    GaussianNb,
    /// One-hidden-layer MLP.
    Mlp(MlpConfig),
    /// Mean-feature threshold, calibrated on the training data.
    Threshold,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::RandomForest(RandomForestConfig::default())
    }
}

/// A trained, serializable classifier — the artifact the model repository
/// stores per cluster.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum TrainedModel {
    /// Random forest.
    Forest(RandomForest),
    /// Logistic regression.
    LogReg(LogisticRegression),
    /// Gaussian naive Bayes.
    Gnb(GaussianNb),
    /// Multi-layer perceptron.
    Mlp(Mlp),
    /// Mean-feature threshold.
    Threshold(ThresholdClassifier),
}

impl TrainedModel {
    /// Train a model of the configured kind.
    pub fn train(config: &ModelConfig, data: &TrainingSet) -> Self {
        match config {
            ModelConfig::RandomForest(c) => Self::Forest(RandomForest::fit(data, c)),
            ModelConfig::LogisticRegression(c) => Self::LogReg(LogisticRegression::fit(data, c)),
            ModelConfig::GaussianNb => Self::Gnb(GaussianNb::fit(data)),
            ModelConfig::Mlp(c) => Self::Mlp(Mlp::fit(data, c)),
            ModelConfig::Threshold => Self::Threshold(ThresholdClassifier::calibrate(data)),
        }
    }

    /// [`Classifier::predict_proba`] of every row of `x`, bit for bit.
    /// Forests walk all rows through each tree in one batch
    /// ([`RandomForest::predict_proba_rows`]) and Gaussian naive Bayes
    /// takes its per-class constants once
    /// ([`GaussianNb::predict_proba_rows`]); the other kinds predict row by
    /// row.
    pub fn predict_proba_rows(&self, x: &FeatureMatrix) -> Vec<f64> {
        match self {
            Self::Forest(m) => m.predict_proba_rows(x, &(0..x.rows()).collect::<Vec<_>>()),
            Self::Gnb(m) => m.predict_proba_rows(x),
            _ => x.iter_rows().map(|row| self.predict_proba(row)).collect(),
        }
    }

    /// Short identifier of the model family.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Forest(_) => "random_forest",
            Self::LogReg(_) => "logistic_regression",
            Self::Gnb(_) => "gaussian_nb",
            Self::Mlp(_) => "mlp",
            Self::Threshold(_) => "threshold",
        }
    }
}

impl Classifier for TrainedModel {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        match self {
            Self::Forest(m) => m.predict_proba(x),
            Self::LogReg(m) => m.predict_proba(x),
            Self::Gnb(m) => m.predict_proba(x),
            Self::Mlp(m) => m.predict_proba(x),
            Self::Threshold(m) => m.predict_proba(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> TrainingSet {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0, 0.5]).collect();
        let labels: Vec<bool> = (0..60).map(|i| i >= 30).collect();
        TrainingSet::from_rows(&rows, &labels)
    }

    #[test]
    fn every_model_kind_trains_and_predicts() {
        let data = separable();
        let configs = [
            ModelConfig::RandomForest(RandomForestConfig { n_trees: 8, ..Default::default() }),
            ModelConfig::LogisticRegression(LogisticRegressionConfig::default()),
            ModelConfig::GaussianNb,
            ModelConfig::Mlp(MlpConfig { epochs: 120, ..Default::default() }),
            ModelConfig::Threshold,
        ];
        for cfg in configs {
            let model = TrainedModel::train(&cfg, &data);
            assert!(model.predict(&[0.95, 0.5]), "{} failed high", model.kind());
            assert!(!model.predict(&[0.02, 0.5]), "{} failed low", model.kind());
            let p = model.predict_proba(&[0.5, 0.5]);
            assert!((0.0..=1.0).contains(&p), "{}", model.kind());
        }
    }

    #[test]
    fn threshold_calibration_finds_boundary() {
        let data = separable();
        let t = ThresholdClassifier::calibrate(&data);
        // mean feature = (v + 0.5)/2; boundary at v=0.5 => mean 0.5
        assert!((t.threshold - 0.5).abs() < 0.1, "threshold = {}", t.threshold);
    }

    #[test]
    fn predict_batch_matches_single() {
        let data = separable();
        let model = TrainedModel::train(&ModelConfig::default(), &data);
        let batch = model.predict_batch(&data.x);
        for (i, row) in data.x.iter_rows().enumerate() {
            assert_eq!(batch[i], model.predict(row));
        }
    }

    #[test]
    fn kind_names_are_stable() {
        let data = separable();
        assert_eq!(TrainedModel::train(&ModelConfig::GaussianNb, &data).kind(), "gaussian_nb");
        assert_eq!(TrainedModel::train(&ModelConfig::Threshold, &data).kind(), "threshold");
    }
}
