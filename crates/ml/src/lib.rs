//! # morer-ml — machine-learning substrate for MoRER
//!
//! A small, dependency-free (beyond `rand` and `morer_sim::par`) reimplementation of the
//! scikit-learn functionality the paper's pipeline uses:
//!
//! * [`FeatureMatrix`] / [`TrainingSet`]: dense row-major data with binary
//!   match labels;
//! * [`tree::DecisionTree`]: CART with Gini impurity, sorted once per
//!   training set ([`tree::SortedColumns`]) and fit from bootstrap
//!   multiplicity counts;
//! * [`tree::fold_leaves`]: batch evaluation of many trees over many
//!   rows, in row blocks over `morer_sim::par`, bit-identical to walking
//!   each row through each tree (the Bootstrap committee vote and
//!   [`RandomForest::predict_proba_rows`]);
//! * [`forest::RandomForest`]: bagged trees with feature subsampling
//!   (the default ER classifier, trees trained in parallel over
//!   `morer_sim::par`);
//! * [`linear::LogisticRegression`]: full-batch gradient descent with L2;
//! * [`naive_bayes::GaussianNb`]: Gaussian naive Bayes;
//! * [`mlp::Mlp`]: one-hidden-layer perceptron (backbone of the
//!   language-model stand-ins in `morer-baselines`);
//! * [`metrics`]: confusion counts, precision/recall/F1 with micro-averaging
//!   across ER tasks (paper §5.2);
//! * [`model::TrainedModel`]: a serde-serializable sum type of all trained
//!   classifiers — what the model repository stores.
//!
//! Every training routine takes an explicit seed and is deterministic.

pub mod dataset;
pub mod forest;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod naive_bayes;
pub mod sampling;
pub mod tree;

pub use dataset::{FeatureMatrix, TrainingSet};
pub use forest::{RandomForest, RandomForestConfig};
pub use linear::{LogisticRegression, LogisticRegressionConfig};
pub use metrics::{f1_score, precision, recall, PairCounts};
pub use model::{Classifier, ModelConfig, TrainedModel};
