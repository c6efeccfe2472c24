//! Model search for new ER problems (paper §4.5): the `sel_base` most-similar
//! cluster lookup and the coverage computation behind `sel_cov`.
//!
//! These are the stateless kernels under the service API: callers should
//! normally go through [`crate::searcher::ModelSearcher`] (shared-read,
//! typed errors) rather than calling `best_entry_for` directly.

use crate::distribution::{sketch_similarity, AnalysisOptions, DistributionSketch};
use crate::repository::ClusterEntry;
use morer_data::ErProblem;

/// Find the repository entry whose representatives `P_C` are most similar to
/// the new problem (the `sel_base` strategy). Returns `(entry index,
/// similarity)`; `None` when the repository is empty.
///
/// Fast path: the query problem is sketched **once** and scored against
/// each entry's cached representative sketch
/// ([`ClusterEntry::representative_sketch`]) — no per-entry column
/// extraction, subsampling or sorting.
///
/// Generic over the entry slice's element: both plain `ClusterEntry`
/// collections and the `Arc<ClusterEntry>` store of
/// [`crate::searcher::ModelSearcher`] score through the same kernel.
pub fn best_entry_for<E: std::borrow::Borrow<ClusterEntry>>(
    problem: &ErProblem,
    entries: &[E],
    opts: &AnalysisOptions,
) -> Option<(usize, f64)> {
    if entries.iter().all(|e| e.borrow().representatives.is_empty()) {
        return None;
    }
    let query = DistributionSketch::of(problem, opts);
    entries
        .iter()
        .map(std::borrow::Borrow::borrow)
        .enumerate()
        .filter(|(_, e)| !e.representatives.is_empty())
        .map(|(i, e)| {
            let entry_opts = opts.for_entry(i);
            let sketch = e.representative_sketch(&entry_opts);
            (i, sketch_similarity(&query, &sketch, &entry_opts))
        })
        .max_by(|a, b| {
            a.1.total_cmp(&b.1).then(b.0.cmp(&a.0))
        })
}


/// Classify every pair of `problem` with an entry's model, in one batch
/// prediction ([`morer_ml::TrainedModel::predict_proba_rows`]).
pub fn classify(entry: &ClusterEntry, problem: &ErProblem) -> (Vec<bool>, Vec<f64>) {
    let probabilities = entry.model.predict_proba_rows(&problem.features);
    let predictions = probabilities.iter().map(|&p| p >= 0.5).collect();
    (predictions, probabilities)
}

/// Coverage ratio of a cluster (Eq. 13): the fraction of its similarity
/// feature vectors contributed by problems still in `U` (unused for
/// training).
///
/// `members` are positional problem indices; `sizes[p]` is problem `p`'s
/// vector count; `in_t[p]` says whether `p` was already used for training.
pub fn coverage(members: &[usize], sizes: &[usize], in_t: &[bool]) -> f64 {
    let total: usize = members.iter().map(|&p| sizes[p]).sum();
    if total == 0 {
        return 0.0;
    }
    let unsolved: usize = members.iter().filter(|&&p| !in_t[p]).map(|&p| sizes[p]).sum();
    unsolved as f64 / total as f64
}

/// Retraining budget of Eq. 14. The paper's expression simplifies to
/// `cov(C) · |{w ∈ T ∩ C_prev}|` — the coverage share of the labels that
/// trained the previous model.
pub fn retrain_budget(cov: f64, previous_training_size: usize) -> usize {
    ((cov.clamp(0.0, 1.0)) * previous_training_size as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionTest;
    use crate::testutil::entry_with_mu;

    fn problem_with_mu(mu: f64) -> ErProblem {
        crate::testutil::problem_with_mu(99, mu)
    }

    fn opts(sample_cap: usize, seed: u64) -> AnalysisOptions {
        AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, sample_cap, seed)
    }

    #[test]
    fn best_entry_picks_matching_distribution() {
        let entries = vec![entry_with_mu(0, 0.9), entry_with_mu(1, 0.55)];
        let p_high = problem_with_mu(0.9);
        let p_low = problem_with_mu(0.55);
        let (hit_high, sim_high) = best_entry_for(&p_high, &entries, &opts(1000, 1)).unwrap();
        let (hit_low, _) = best_entry_for(&p_low, &entries, &opts(1000, 1)).unwrap();
        assert_eq!(hit_high, 0);
        assert_eq!(hit_low, 1);
        assert!(sim_high > 0.9);
    }

    #[test]
    fn best_entry_warms_and_reuses_sketch_caches() {
        let entries = vec![entry_with_mu(0, 0.9), entry_with_mu(1, 0.55)];
        assert!(entries.iter().all(|e| !e.has_cached_sketch()));
        let p = problem_with_mu(0.9);
        let first = best_entry_for(&p, &entries, &opts(1000, 1));
        assert!(entries.iter().all(ClusterEntry::has_cached_sketch));
        // the cached second pass must return exactly the same answer
        assert_eq!(first, best_entry_for(&p, &entries, &opts(1000, 1)));
    }

    #[test]
    fn empty_repository_returns_none() {
        let p = problem_with_mu(0.8);
        assert!(best_entry_for::<ClusterEntry>(&p, &[], &opts(100, 1)).is_none());
    }

    #[test]
    fn classify_aligns_with_pairs() {
        let entry = entry_with_mu(0, 0.9);
        let p = problem_with_mu(0.9);
        let (pred, proba) = classify(&entry, &p);
        assert_eq!(pred.len(), p.num_pairs());
        assert_eq!(proba.len(), p.num_pairs());
        // mostly correct on in-distribution data
        let correct = pred.iter().zip(&p.labels).filter(|(a, b)| a == b).count();
        assert!(correct > 80, "correct {correct}/100");
    }

    #[test]
    fn coverage_eq13() {
        let sizes = vec![100, 300, 100];
        let in_t = vec![true, false, false];
        // members {0,1}: unsolved 300 of 400
        assert!((coverage(&[0, 1], &sizes, &in_t) - 0.75).abs() < 1e-12);
        assert_eq!(coverage(&[], &sizes, &in_t), 0.0);
        assert_eq!(coverage(&[0], &sizes, &in_t), 0.0);
        assert_eq!(coverage(&[1, 2], &sizes, &in_t), 1.0);
    }

    #[test]
    fn retrain_budget_eq14() {
        assert_eq!(retrain_budget(0.5, 200), 100);
        assert_eq!(retrain_budget(0.0, 200), 0);
        assert_eq!(retrain_budget(1.5, 200), 200); // clamped
    }
}
