//! Bootstrap uncertainty active learning (Mozafari et al., paper §4.4).
//!
//! Each iteration trains a committee of `k` classifiers on bootstrap
//! resamples of the current training data `T`; the uncertainty of an
//! unlabeled vector is `unc(w) = p̂ (1 − p̂)` with `p̂` the committee's match
//! vote fraction (Eq. 10). The extension of Eqs. 11-12 multiplies in a
//! record-uniqueness weight. The highest-scoring batch is queried, and the
//! loop repeats until the budget is exhausted.
//!
//! Per round the committee is fit from one shared sort
//! ([`SortedColumns`]), and its votes over the unlabeled rows are counted
//! in one batch walk ([`fold_leaves`]) that equals the per-row vote bit
//! for bit.

use morer_sim::par;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::pool::{AlPool, AlResult};
use crate::uniqueness::UniquenessIndex;
use crate::ActiveLearner;
use morer_ml::sampling::bootstrap_counts;
use morer_ml::tree::{fold_leaves, DecisionTree, DecisionTreeConfig, SortedColumns};
use morer_ml::TrainingSet;

/// Configuration for [`BootstrapAl`].
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Committee size `k` (the paper sets k = 100 following [5, 27]).
    pub committee_size: usize,
    /// Labels spent on the similarity-extremes seed before iterating.
    pub seed_size: usize,
    /// Labels queried per iteration.
    pub batch_size: usize,
    /// Depth of each committee tree.
    pub tree_depth: usize,
    /// Multiply uncertainty by the record-uniqueness score (Eqs. 11-12).
    pub uniqueness: Option<UniquenessIndex>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            committee_size: 100,
            seed_size: 20,
            batch_size: 50,
            tree_depth: 8,
            uniqueness: None,
            seed: 42,
        }
    }
}

/// The Bootstrap uncertainty learner.
#[derive(Debug, Clone, Default)]
pub struct BootstrapAl {
    /// Hyperparameters.
    pub config: BootstrapConfig,
}

impl BootstrapAl {
    /// Create with the given configuration.
    pub fn new(config: BootstrapConfig) -> Self {
        Self { config }
    }

    fn tree_config(&self) -> DecisionTreeConfig {
        DecisionTreeConfig {
            max_depth: self.config.tree_depth,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
        }
    }

    /// The RNG of committee member `i` in AL round `round`: it draws the
    /// member's bootstrap resample.
    fn member_rng(&self, round: u64, i: usize) -> SmallRng {
        SmallRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(round.wrapping_mul(0x9E37_79B9))
                .wrapping_add(i as u64 * 0x85EB_CA6B),
        )
    }

    /// Train the committee of round `round`. The training set is sorted
    /// once and every member fits from its bootstrap resample's counts.
    fn committee(&self, training: &TrainingSet, round: u64) -> Vec<DecisionTree> {
        let columns = SortedColumns::new(training);
        let tree_config = self.tree_config();
        par::map_indexed(self.config.committee_size.max(1), 1, |i| {
            let mut rng = self.member_rng(round, i);
            let counts = bootstrap_counts(columns.len(), &mut rng);
            DecisionTree::fit_counts(&columns, &counts, &tree_config, &mut rng)
        })
    }

    /// Train the committee and return each unlabeled row's vote fraction.
    /// The hard votes (`p >= 0.5`) are counted in one batch walk of the
    /// committee over the rows ([`fold_leaves`]).
    fn committee_votes(&self, pool: &AlPool, unlabeled: &[usize], round: u64) -> Vec<f64> {
        let committee = self.committee(&pool.training_set(), round);
        let k = committee.len() as f64;
        let votes = fold_leaves(&committee, &pool.features, unlabeled, 0u32, |v, p| {
            v + u32::from(p >= 0.5)
        });
        votes.into_iter().map(|v| f64::from(v) / k).collect()
    }
}

impl ActiveLearner for BootstrapAl {
    fn name(&self) -> &'static str {
        "bootstrap"
    }

    fn select(&self, pool: &mut AlPool, budget: usize) -> AlResult {
        if pool.is_empty() || budget == 0 {
            return AlResult::from_pool(pool);
        }
        let start = pool.queries_used();
        let spent = |pool: &AlPool| pool.queries_used() - start;

        pool.seed_extremes(self.config.seed_size.min(budget));

        let mut round = 0u64;
        while spent(pool) < budget {
            let unlabeled = pool.unlabeled_rows();
            if unlabeled.is_empty() {
                break;
            }
            let votes = self.committee_votes(pool, &unlabeled, round);
            // score = unc(w) [ · (1 + s(w)) ]   (Eq. 10, optionally 11-12)
            let mut scored: Vec<(usize, f64)> = unlabeled
                .iter()
                .zip(&votes)
                .map(|(&row, &p)| {
                    let mut score = p * (1.0 - p);
                    if let Some(idx) = &self.config.uniqueness {
                        let (a, b) = pool.pairs[row];
                        score *= 1.0 + idx.pair_score(a, b);
                    }
                    (row, score)
                })
                .collect();
            let remaining = budget - spent(pool);
            let take = self.config.batch_size.max(1).min(remaining);
            // If the committee is certain about everything (all scores 0),
            // the tie-break takes the lowest unlabeled row indices, so the
            // budget is still spent deterministically.
            pool.query_top(&mut scored, take);
            round += 1;
        }
        AlResult::from_pool(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morer_data::ErProblem;
    use morer_ml::dataset::FeatureMatrix;
    use morer_ml::sampling::bootstrap_sample;

    /// A synthetic problem whose boundary sits at mean-feature 0.5 with an
    /// ambiguous band around it.
    fn boundary_problem(n: usize, id: usize) -> ErProblem {
        let mut features = FeatureMatrix::new(2);
        let mut labels = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..n {
            let v = i as f64 / n as f64;
            features.push_row(&[v, v * 0.8 + 0.1]);
            labels.push(v > 0.5);
            pairs.push((i as u32, (i + n) as u32));
        }
        ErProblem {
            id,
            sources: (0, 1),
            pairs,
            features,
            labels,
            feature_names: vec!["f0".into(), "f1".into()],
        }
    }

    #[test]
    fn respects_budget_exactly() {
        let p = boundary_problem(300, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = BootstrapAl::new(BootstrapConfig {
            committee_size: 10,
            seed_size: 10,
            batch_size: 15,
            ..Default::default()
        });
        let result = al.select(&mut pool, 60);
        assert_eq!(result.labels_used, 60);
        assert_eq!(result.training.len(), 60);
        assert_eq!(result.selected_rows.len(), 60);
    }

    #[test]
    fn queries_concentrate_near_boundary() {
        let p = boundary_problem(400, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = BootstrapAl::new(BootstrapConfig {
            committee_size: 20,
            seed_size: 10,
            batch_size: 10,
            ..Default::default()
        });
        let result = al.select(&mut pool, 50);
        // rows selected after seeding should sit closer to the 0.5 boundary
        // than random selection would (mean |v − 0.5| < 0.25)
        let scores = pool.mean_feature_scores();
        let post_seed: Vec<f64> = result
            .selected_rows
            .iter()
            .map(|&r| (scores[r] - 0.5).abs())
            .collect();
        let mean_dist = post_seed.iter().sum::<f64>() / post_seed.len() as f64;
        assert!(mean_dist < 0.3, "mean boundary distance {mean_dist}");
    }

    #[test]
    fn training_set_contains_both_classes() {
        let p = boundary_problem(200, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = BootstrapAl::new(BootstrapConfig {
            committee_size: 10,
            seed_size: 10,
            batch_size: 20,
            ..Default::default()
        });
        let result = al.select(&mut pool, 40);
        let (pos, neg) = result.training.class_counts();
        assert!(pos > 0 && neg > 0, "pos {pos} neg {neg}");
    }

    #[test]
    fn budget_larger_than_pool_labels_everything() {
        let p = boundary_problem(30, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = BootstrapAl::new(BootstrapConfig {
            committee_size: 5,
            seed_size: 4,
            batch_size: 10,
            ..Default::default()
        });
        let result = al.select(&mut pool, 1000);
        assert_eq!(result.labels_used, 30);
    }

    #[test]
    fn zero_budget_is_noop() {
        let p = boundary_problem(30, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = BootstrapAl::default();
        let result = al.select(&mut pool, 0);
        assert_eq!(result.labels_used, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = boundary_problem(150, 0);
        let al = BootstrapAl::new(BootstrapConfig {
            committee_size: 10,
            seed_size: 6,
            batch_size: 8,
            ..Default::default()
        });
        let mut pool_a = AlPool::from_problems(&[&p]);
        let mut pool_b = AlPool::from_problems(&[&p]);
        let a = al.select(&mut pool_a, 30);
        let b = al.select(&mut pool_b, 30);
        assert_eq!(a.selected_rows, b.selected_rows);
    }

    #[test]
    fn uniqueness_weight_shifts_selection() {
        let p = boundary_problem(200, 0);
        // make low-uid records very unique
        let idx = UniquenessIndex::from_occurrences(
            (0..200u32).map(|uid| (uid, if uid < 20 { 0 } else { 1 })).chain(
                (0..200u32).filter(|u| *u >= 20).map(|uid| (uid, (uid % 5) as usize)),
            ),
        );
        let base = BootstrapAl::new(BootstrapConfig {
            committee_size: 10,
            seed_size: 6,
            batch_size: 8,
            uniqueness: None,
            ..Default::default()
        });
        let weighted = BootstrapAl::new(BootstrapConfig {
            committee_size: 10,
            seed_size: 6,
            batch_size: 8,
            uniqueness: Some(idx),
            ..Default::default()
        });
        let mut pool_a = AlPool::from_problems(&[&p]);
        let mut pool_b = AlPool::from_problems(&[&p]);
        let a = base.select(&mut pool_a, 40);
        let b = weighted.select(&mut pool_b, 40);
        assert_ne!(a.selected_rows, b.selected_rows);
    }

    #[test]
    fn committee_equals_reference_committee() {
        let p = boundary_problem(120, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        pool.seed_extremes(40);
        let al = BootstrapAl::new(BootstrapConfig { committee_size: 12, ..Default::default() });
        for (training, round) in [(pool.training_set(), 3), (TrainingSet::new(2), 0)] {
            let reference: Vec<DecisionTree> = (0..al.config.committee_size)
                .map(|i| {
                    let mut rng = al.member_rng(round, i);
                    let sample = bootstrap_sample(&training, &mut rng);
                    DecisionTree::fit_reference(&sample, &al.tree_config(), &mut rng)
                })
                .collect();
            assert_eq!(al.committee(&training, round), reference);
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(BootstrapAl::default().name(), "bootstrap");
    }
}
