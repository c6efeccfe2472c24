//! The active-learning pool: flattened candidate vectors of one problem
//! cluster with a budget-counting labeling oracle.

use morer_data::ErProblem;
use morer_ml::dataset::{FeatureMatrix, TrainingSet};

/// Flattened pool of similarity feature vectors from one or more ER problems
/// (typically: the problems of one cluster `C_i`).
///
/// Ground-truth labels are hidden behind [`AlPool::query`], which counts
/// every revealed label against the budget — the cost model of the paper's
/// evaluation.
#[derive(Debug, Clone)]
pub struct AlPool {
    /// All candidate feature vectors.
    pub features: FeatureMatrix,
    /// Record uid pair per row.
    pub pairs: Vec<(u32, u32)>,
    /// Originating problem id per row.
    pub problem_of: Vec<usize>,
    /// Revealed labels (None = still unlabeled).
    revealed: Vec<Option<bool>>,
    /// Hidden ground truth (the oracle).
    truth: Vec<bool>,
    queries: usize,
}

impl AlPool {
    /// Build a pool over the given problems.
    pub fn from_problems(problems: &[&ErProblem]) -> Self {
        let cols = problems.first().map_or(0, |p| p.num_features());
        let mut features = FeatureMatrix::new(cols);
        let mut pairs = Vec::new();
        let mut problem_of = Vec::new();
        let mut truth = Vec::new();
        for p in problems {
            for i in 0..p.num_pairs() {
                features.push_row(p.features.row(i));
                pairs.push(p.pairs[i]);
                problem_of.push(p.id);
                truth.push(p.labels[i]);
            }
        }
        let n = truth.len();
        Self { features, pairs, problem_of, revealed: vec![None; n], truth, queries: 0 }
    }

    /// Number of rows in the pool.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// True when the pool has no rows.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Reveal the label of `row`, spending one budget unit the first time.
    pub fn query(&mut self, row: usize) -> bool {
        if self.revealed[row].is_none() {
            self.revealed[row] = Some(self.truth[row]);
            self.queries += 1;
        }
        self.truth[row]
    }

    /// Query the `take` best-scored rows of `scored`: highest score first,
    /// lower row id first among equal scores. Only the top `take` are
    /// ordered (a selection, then a sort of that prefix); row ids are
    /// unique, so the order is total and the queried rows are exactly the
    /// first `take` of a full sort.
    pub(crate) fn query_top(&mut self, scored: &mut [(usize, f64)], take: usize) {
        let take = take.min(scored.len());
        if take == 0 {
            return;
        }
        let best_first =
            |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0));
        scored.select_nth_unstable_by(take - 1, best_first);
        let top = &mut scored[..take];
        top.sort_unstable_by(best_first);
        for &(row, _) in top.iter() {
            self.query(row);
        }
    }

    /// Labels spent so far.
    pub fn queries_used(&self) -> usize {
        self.queries
    }

    /// The revealed label of `row`, if queried.
    pub fn label_of(&self, row: usize) -> Option<bool> {
        self.revealed[row]
    }

    /// Rows not yet labeled.
    pub fn unlabeled_rows(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.revealed[i].is_none()).collect()
    }

    /// Rows already labeled.
    pub fn labeled_rows(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.revealed[i].is_some()).collect()
    }

    /// Labeled data as a training set.
    pub fn training_set(&self) -> TrainingSet {
        let mut ts = TrainingSet::new(self.features.cols());
        for i in 0..self.len() {
            if let Some(l) = self.revealed[i] {
                ts.push(self.features.row(i), l);
            }
        }
        ts
    }

    /// Mean feature value per row — the cheap match-likelihood heuristic used
    /// to seed AL before any label exists.
    pub fn mean_feature_scores(&self) -> Vec<f64> {
        self.features
            .iter_rows()
            .map(|r| r.iter().sum::<f64>() / r.len().max(1) as f64)
            .collect()
    }

    /// Seed the pool with `n` labels: the `n/2` rows with the highest mean
    /// similarity (likely matches) and the `n/2` with the lowest (likely
    /// non-matches). Returns the seeded rows.
    pub fn seed_extremes(&mut self, n: usize) -> Vec<usize> {
        let scores = self.mean_feature_scores();
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
        let take = n.min(self.len());
        let mut rows: Vec<usize> = Vec::with_capacity(take);
        rows.extend(order.iter().take(take / 2 + take % 2).copied());
        rows.extend(order.iter().rev().take(take / 2).copied());
        rows.sort_unstable();
        rows.dedup();
        for &r in &rows {
            self.query(r);
        }
        rows
    }
}

/// Outcome of an active-learning run.
#[derive(Debug, Clone)]
pub struct AlResult {
    /// The labeled training data.
    pub training: TrainingSet,
    /// Pool row indices that were labeled (the cluster representatives `P_C`).
    pub selected_rows: Vec<usize>,
    /// Labels actually spent.
    pub labels_used: usize,
}

impl AlResult {
    /// Collect the current labeled state of a pool into a result.
    pub fn from_pool(pool: &AlPool) -> Self {
        Self {
            training: pool.training_set(),
            selected_rows: pool.labeled_rows(),
            labels_used: pool.queries_used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morer_data::record::{DataSource, MultiSourceDataset, Record, Schema};
    use morer_sim::{AttributeComparator, ComparisonScheme, SimilarityFunction};

    pub(crate) fn toy_problem(id: usize) -> ErProblem {
        let schema = Schema::new(vec!["title"]);
        let mk = |entity: u64, title: &str| Record {
            uid: 0,
            source: 0,
            entity,
            values: vec![Some(title.to_owned())],
        };
        let s0 = DataSource {
            id: 0,
            name: "a".into(),
            records: vec![mk(1, "alpha beta gamma"), mk(2, "delta epsilon zeta")],
        };
        let s1 = DataSource {
            id: 1,
            name: "b".into(),
            records: vec![mk(1, "alpha beta gamma"), mk(3, "eta theta iota")],
        };
        let ds = MultiSourceDataset::assemble("t", schema, vec![s0, s1]);
        let scheme = ComparisonScheme::new()
            .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardTokens));
        ErProblem::build(id, &ds, &scheme, (0, 1), vec![(0, 2), (0, 3), (1, 2), (1, 3)])
    }

    #[test]
    fn pool_flattens_problems() {
        let p0 = toy_problem(0);
        let p1 = toy_problem(1);
        let pool = AlPool::from_problems(&[&p0, &p1]);
        assert_eq!(pool.len(), 8);
        assert_eq!(pool.problem_of[0], 0);
        assert_eq!(pool.problem_of[4], 1);
        assert_eq!(pool.unlabeled_rows().len(), 8);
    }

    #[test]
    fn query_counts_budget_once_per_row() {
        let p0 = toy_problem(0);
        let mut pool = AlPool::from_problems(&[&p0]);
        let l1 = pool.query(0);
        let l2 = pool.query(0);
        assert_eq!(l1, l2);
        assert_eq!(pool.queries_used(), 1);
        assert_eq!(pool.label_of(0), Some(l1));
        assert_eq!(pool.label_of(1), None);
    }

    #[test]
    fn training_set_contains_only_labeled() {
        let p0 = toy_problem(0);
        let mut pool = AlPool::from_problems(&[&p0]);
        pool.query(0);
        pool.query(3);
        let ts = pool.training_set();
        assert_eq!(ts.len(), 2);
        // row 0 = (0,2) is the true match
        assert_eq!(ts.y, vec![true, false]);
    }

    #[test]
    fn seed_extremes_labels_both_ends() {
        let p0 = toy_problem(0);
        let mut pool = AlPool::from_problems(&[&p0]);
        let rows = pool.seed_extremes(2);
        assert_eq!(rows.len(), 2);
        let ts = pool.training_set();
        // highest-similarity row is the match, lowest a non-match
        assert_eq!(ts.class_counts(), (1, 1));
    }

    #[test]
    fn al_result_reflects_pool_state() {
        let p0 = toy_problem(0);
        let mut pool = AlPool::from_problems(&[&p0]);
        pool.seed_extremes(3);
        let r = AlResult::from_pool(&pool);
        assert_eq!(r.labels_used, pool.queries_used());
        assert_eq!(r.selected_rows, pool.labeled_rows());
        assert_eq!(r.training.len(), r.labels_used);
    }
}
