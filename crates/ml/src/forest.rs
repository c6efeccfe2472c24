//! Random forest: bagged CART trees with feature subsampling.
//!
//! This is the default classifier of the reproduction — the paper's AL
//! methods (Bootstrap, Almser) and its supervised variant all train forests
//! on similarity feature vectors.

use morer_sim::par;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::{FeatureMatrix, TrainingSet};
use crate::sampling::bootstrap_counts;
use crate::tree::{fold_leaves, DecisionTree, DecisionTreeConfig, SortedColumns};

/// Hyperparameters for [`RandomForest::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree maximum depth.
    pub max_depth: usize,
    /// Per-tree minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split; `None` = floor(sqrt(t)) (scikit-learn default).
    pub max_features: Option<usize>,
    /// Master seed; tree `i` trains with seed `splitmix(seed, i)`.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self { n_trees: 32, max_depth: 12, min_samples_leaf: 1, max_features: None, seed: 42 }
    }
}

/// A trained random forest. Probability = mean of tree leaf probabilities.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

/// SplitMix64 — derives independent per-tree seeds from a master seed.
#[inline]
pub(crate) fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RandomForest {
    /// Train `n_trees` trees in parallel, each on a bootstrap resample with
    /// feature subsampling. Trees come back in index order, so the forest is
    /// the one a sequential loop over `0..n_trees` would build. The data is
    /// sorted once and every tree fits from its resample's counts.
    pub fn fit(data: &TrainingSet, config: &RandomForestConfig) -> Self {
        let max_features = config
            .max_features
            .unwrap_or_else(|| (data.num_features() as f64).sqrt().floor().max(1.0) as usize);
        let tree_config = DecisionTreeConfig {
            max_depth: config.max_depth,
            min_samples_split: 2,
            min_samples_leaf: config.min_samples_leaf,
            max_features: Some(max_features.min(data.num_features().max(1))),
        };
        let columns = SortedColumns::new(data);
        let trees = par::map_indexed(config.n_trees.max(1), 1, |i| {
            let mut rng = SmallRng::seed_from_u64(splitmix(config.seed, i as u64));
            let counts = bootstrap_counts(data.len(), &mut rng);
            DecisionTree::fit_counts(&columns, &counts, &tree_config, &mut rng)
        });
        Self { trees }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean predicted match probability across trees.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let sum = self.trees.iter().map(|t| t.predict_proba(x)).fold(0.0, |s, p| s + p);
        sum / self.trees.len() as f64
    }

    /// [`RandomForest::predict_proba`] of each of `rows` (indices into
    /// `x`), bit for bit, from one batch walk of the trees
    /// ([`fold_leaves`]).
    pub fn predict_proba_rows(&self, x: &FeatureMatrix, rows: &[usize]) -> Vec<f64> {
        if self.trees.is_empty() {
            return vec![0.0; rows.len()];
        }
        let n = self.trees.len() as f64;
        let sums = fold_leaves(&self.trees, x, rows, 0.0, |s, p| s + p);
        sums.into_iter().map(|s| s / n).collect()
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::bootstrap_sample;
    use rand::Rng;

    /// Noisy two-cluster data: match iff x0 + x1 > 1 with 10% label noise.
    fn noisy_data(n: usize, seed: u64) -> TrainingSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen();
            let x1: f64 = rng.gen();
            let mut label = x0 + x1 > 1.0;
            if rng.gen::<f64>() < 0.1 {
                label = !label;
            }
            rows.push(vec![x0, x1]);
            labels.push(label);
        }
        TrainingSet::from_rows(&rows, &labels)
    }

    #[test]
    fn forest_learns_noisy_boundary() {
        let train = noisy_data(400, 1);
        let forest = RandomForest::fit(&train, &RandomForestConfig::default());
        let test = noisy_data(200, 2);
        let correct = test
            .x
            .iter_rows()
            .zip(&test.y)
            .filter(|(r, &_l)| {
                // compare against the *true* boundary, ignoring injected noise
                forest.predict(r) == (r[0] + r[1] > 1.0)
            })
            .count();
        assert!(correct as f64 / test.len() as f64 > 0.9, "accuracy {correct}/200");
    }

    #[test]
    fn forest_deterministic_for_seed() {
        let data = noisy_data(100, 3);
        let cfg = RandomForestConfig::default();
        let a = RandomForest::fit(&data, &cfg);
        let b = RandomForest::fit(&data, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn fit_equals_trees_fitted_in_order() {
        let data = noisy_data(200, 6);
        let cfg = RandomForestConfig { n_trees: 9, max_depth: 6, seed: 17, ..Default::default() };
        let tree_config = DecisionTreeConfig {
            max_depth: cfg.max_depth,
            min_samples_split: 2,
            min_samples_leaf: cfg.min_samples_leaf,
            max_features: Some(1),
        };
        let trees = (0..cfg.n_trees)
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(splitmix(cfg.seed, i as u64));
                let sample = bootstrap_sample(&data, &mut rng);
                DecisionTree::fit_reference(&sample, &tree_config, &mut rng)
            })
            .collect();
        assert_eq!(RandomForest::fit(&data, &cfg), RandomForest { trees });
    }

    #[test]
    fn different_seeds_differ() {
        let data = noisy_data(100, 3);
        let a = RandomForest::fit(&data, &RandomForestConfig { seed: 1, ..Default::default() });
        let b = RandomForest::fit(&data, &RandomForestConfig { seed: 2, ..Default::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn probabilities_bounded() {
        let data = noisy_data(100, 4);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default());
        for i in 0..20 {
            let x = [i as f64 / 20.0, 1.0 - i as f64 / 20.0];
            let p = forest.predict_proba(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn empty_training_predicts_non_match() {
        let forest = RandomForest::fit(&TrainingSet::new(2), &RandomForestConfig::default());
        assert!(!forest.predict(&[0.9, 0.9]));
    }

    #[test]
    fn single_tree_forest_works() {
        let data = noisy_data(50, 5);
        let cfg = RandomForestConfig { n_trees: 1, ..Default::default() };
        let forest = RandomForest::fit(&data, &cfg);
        assert_eq!(forest.num_trees(), 1);
    }

    #[test]
    fn splitmix_streams_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| splitmix(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }
}
