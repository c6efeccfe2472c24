//! Per-cluster model generation (paper §4.4): active learning or fully
//! supervised training data, one classifier per cluster.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::{AlMethod, TrainingMode};
use morer_al::{ActiveLearner, AlPool, AlmserAl, AlmserConfig, BootstrapAl, BootstrapConfig, RandomAl, UniquenessIndex};
use morer_data::ErProblem;
use morer_ml::model::{ModelConfig, TrainedModel};
use morer_ml::TrainingSet;

/// Cap on stored representative vectors per cluster in supervised mode (AL
/// mode stores exactly the selected vectors).
const SUPERVISED_REPRESENTATIVE_CAP: usize = 2000;

/// Build the uniqueness index of Eqs. 11-12 from cluster membership: a
/// record "occurs in" cluster `c` when it appears in any pair of any of the
/// cluster's problems.
pub fn build_uniqueness_index(
    problems: &[&ErProblem],
    clusters: &[Vec<usize>],
) -> UniquenessIndex {
    let occurrences = clusters.iter().enumerate().flat_map(|(c, members)| {
        members.iter().flat_map(move |&p| {
            problems[p].pairs.iter().flat_map(move |&(a, b)| [(a, c), (b, c)])
        })
    });
    UniquenessIndex::from_occurrences(occurrences)
}

/// Construct the configured active learner.
pub fn make_learner(
    method: AlMethod,
    uniqueness: Option<UniquenessIndex>,
    seed: u64,
) -> Box<dyn ActiveLearner> {
    match method {
        AlMethod::Bootstrap => Box::new(BootstrapAl::new(BootstrapConfig {
            uniqueness,
            seed,
            ..Default::default()
        })),
        AlMethod::Almser => Box::new(AlmserAl::new(AlmserConfig { seed, ..Default::default() })),
        AlMethod::Random => Box::new(RandomAl { seed }),
    }
}

/// The per-cluster seed of generation-time training (one deterministic
/// stream per cluster position). [`crate::pipeline::Morer::build`] and the
/// dirty-tracked incremental regeneration in
/// [`crate::pipeline::Morer::add_problems`] share one training loop over
/// [`train_cluster`], so a cluster retrained incrementally is bit-identical
/// to the same cluster trained in a batch build.
pub fn cluster_seed(seed: u64, cid: usize) -> u64 {
    seed.wrapping_add(cid as u64 * 0x9E37_79B9)
}

/// Training artifacts of one cluster (see [`train_cluster`]).
#[derive(Debug, Clone)]
pub struct ClusterTraining {
    /// The trained classifier `M_C`.
    pub model: TrainedModel,
    /// The (capped) representative vectors `P_C` stored with the entry.
    pub representatives: TrainingSet,
    /// Oracle labels spent (0 in supervised mode).
    pub labels_used: usize,
}

/// Select training data and train the model for a single cluster (paper
/// step 3) — the per-cluster kernel of the training loop behind
/// [`crate::pipeline::Morer::build`] and
/// [`crate::pipeline::Morer::add_problems`], which regenerates exactly the
/// dirty clusters and skips the clean ones.
pub fn train_cluster(
    problems: &[&ErProblem],
    members: &[usize],
    budget: usize,
    training_mode: TrainingMode,
    model_config: &ModelConfig,
    uniqueness: Option<&UniquenessIndex>,
    cluster_seed: u64,
) -> ClusterTraining {
    let cluster_problems: Vec<&ErProblem> = members.iter().map(|&p| problems[p]).collect();
    let (training, spent) = match training_mode {
        TrainingMode::ActiveLearning(method) => {
            let learner = make_learner(method, uniqueness.cloned(), cluster_seed);
            let mut pool = AlPool::from_problems(&cluster_problems);
            let result = learner.select(&mut pool, budget);
            (result.training, result.labels_used)
        }
        TrainingMode::Supervised { fraction } => {
            (supervised_training(&cluster_problems, fraction, cluster_seed), 0)
        }
    };
    let model = TrainedModel::train(&with_seed(model_config, cluster_seed), &training);
    let representatives = cap_representatives(training, cluster_seed);
    ClusterTraining { model, representatives, labels_used: spent }
}

/// All (or a fraction of) the cluster's labeled vectors — the supervised
/// variant's training data (§5.2: "50% of the similarity feature vectors").
pub fn supervised_training(problems: &[&ErProblem], fraction: f64, seed: u64) -> TrainingSet {
    let cols = problems.first().map_or(0, |p| p.num_features());
    let mut ts = TrainingSet::new(cols);
    for (pi, p) in problems.iter().enumerate() {
        let mut idx: Vec<usize> = (0..p.num_pairs()).collect();
        if fraction < 1.0 {
            let mut rng = SmallRng::seed_from_u64(seed ^ (pi as u64) << 16);
            idx.shuffle(&mut rng);
            idx.truncate(((idx.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize);
        }
        for i in idx {
            ts.push(p.features.row(i), p.labels[i]);
        }
    }
    ts
}

fn cap_representatives(training: TrainingSet, seed: u64) -> TrainingSet {
    if training.len() <= SUPERVISED_REPRESENTATIVE_CAP {
        return training;
    }
    let mut idx: Vec<usize> = (0..training.len()).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_u64);
    idx.shuffle(&mut rng);
    idx.truncate(SUPERVISED_REPRESENTATIVE_CAP);
    idx.sort_unstable();
    training.select(&idx)
}

fn with_seed(config: &ModelConfig, seed: u64) -> ModelConfig {
    match config {
        ModelConfig::RandomForest(c) => {
            ModelConfig::RandomForest(morer_ml::forest::RandomForestConfig { seed, ..c.clone() })
        }
        ModelConfig::Mlp(c) => ModelConfig::Mlp(morer_ml::mlp::MlpConfig { seed, ..c.clone() }),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetAllocation;
    use morer_graph::Graph;
    use morer_ml::dataset::FeatureMatrix;
    use morer_ml::model::Classifier;

    fn synthetic_problem(id: usize, mu: f64, n: usize) -> ErProblem {
        let mut features = FeatureMatrix::new(2);
        let mut labels = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..n {
            let jitter = ((i * 13) % 50) as f64 / 500.0;
            let is_match = i % 2 == 0;
            let base = if is_match { mu } else { 0.1 };
            features.push_row(&[(base + jitter).min(1.0), (base + jitter * 0.5).min(1.0)]);
            labels.push(is_match);
            pairs.push(((id * n + i) as u32, (id * n + i + 100_000) as u32));
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

    fn fixture() -> (Vec<ErProblem>, BudgetAllocation) {
        let problems: Vec<ErProblem> =
            (0..4).map(|i| synthetic_problem(i, if i < 2 { 0.85 } else { 0.7 }, 120)).collect();
        let allocation = crate::budget::allocate(
            vec![vec![0, 1], vec![2, 3]],
            &[120, 120, 120, 120],
            &Graph::new(4),
            200,
            20,
        );
        (problems, allocation)
    }

    /// Train every cluster of `allocation` through [`train_cluster`] with
    /// its [`cluster_seed`], as the pipeline's training loop does (no
    /// uniqueness index).
    fn train_all(
        problems: &[ErProblem],
        allocation: &BudgetAllocation,
        training_mode: TrainingMode,
        model_config: &ModelConfig,
        seed: u64,
    ) -> Vec<ClusterTraining> {
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let clusters = allocation.clusters.iter().zip(&allocation.budgets).enumerate();
        clusters
            .map(|(cid, (members, &budget))| {
                let seed = cluster_seed(seed, cid);
                train_cluster(&refs, members, budget, training_mode, model_config, None, seed)
            })
            .collect()
    }

    #[test]
    fn al_generation_spends_budget_and_trains_working_models() {
        let (problems, allocation) = fixture();
        let out = train_all(
            &problems,
            &allocation,
            TrainingMode::ActiveLearning(AlMethod::Bootstrap),
            &ModelConfig::default(),
            7,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().map(|t| t.labels_used).sum::<usize>(), 200);
        for t in &out {
            assert!(t.model.predict(&[0.9, 0.9]));
            assert!(!t.model.predict(&[0.05, 0.05]));
            assert_eq!(t.representatives.len(), t.labels_used);
        }
    }

    #[test]
    fn supervised_generation_uses_fraction() {
        let (problems, allocation) = fixture();
        let out = train_all(
            &problems,
            &allocation,
            TrainingMode::Supervised { fraction: 0.5 },
            &ModelConfig::GaussianNb,
            7,
        );
        assert_eq!(out.iter().map(|t| t.labels_used).sum::<usize>(), 0);
        // 2 problems × 120 rows × 50% = 120 rows per cluster
        assert_eq!(out[0].representatives.len(), 120);
    }

    #[test]
    fn uniqueness_index_counts_cluster_occurrences() {
        let (problems, allocation) = fixture();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let idx = build_uniqueness_index(&refs, &allocation.clusters);
        assert_eq!(idx.total_clusters(), 2);
        // records are problem-specific here, so every record is in 1 of 2
        // clusters -> score ln(2)
        assert!((idx.record_score(0) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn every_al_method_constructible_and_runs() {
        let (problems, _) = fixture();
        for method in [AlMethod::Bootstrap, AlMethod::Almser, AlMethod::Random] {
            let learner = make_learner(method, None, 3);
            let mut pool = AlPool::from_problems(&[&problems[0]]);
            let r = learner.select(&mut pool, 20);
            assert_eq!(r.labels_used, 20, "{}", learner.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (problems, allocation) = fixture();
        let run = || {
            train_all(
                &problems,
                &allocation,
                TrainingMode::ActiveLearning(AlMethod::Random),
                &ModelConfig::GaussianNb,
                11,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a[0].representatives, b[0].representatives);
    }
}
