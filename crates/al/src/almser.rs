//! Almser — graph-boosted active learning for multi-source ER
//! (Primpeli & Bizer, ISWC 2021; paper §3 and §4.4).
//!
//! Almser exploits the *match graph* induced by the current model:
//!
//! * records connected through the transitive closure whose direct pair the
//!   classifier rejects are **false-negative candidates** ("missing edges
//!   among record pairs within connected components");
//! * predicted matches sitting on a *weak minimum cut* of their component are
//!   **false-positive candidates**;
//! * components whose predicted edges are dense ("cleaned connected
//!   components") yield **graph-inferred labels**. They are collected but
//!   not yet used to train the forest, so they change no selection.
//!
//! Each iteration trains a random forest, scores the whole pool in one batch
//! walk ([`RandomForest::predict_proba_rows`]), rebuilds the graph, ranks
//! unlabeled pairs by graph/model disagreement plus committee uncertainty,
//! and queries the top batch.

use std::collections::HashMap;

use crate::pool::{AlPool, AlResult};
use crate::ActiveLearner;
use morer_graph::components::{component_members, connected_components};
use morer_graph::mincut::stoer_wagner;
use morer_graph::Graph;
use morer_ml::forest::{RandomForest, RandomForestConfig};
use morer_sim::par;

/// Configuration for [`AlmserAl`].
#[derive(Debug, Clone)]
pub struct AlmserConfig {
    /// Labels spent on the similarity-extremes seed.
    pub seed_size: usize,
    /// Labels queried per iteration (the batch extension of §4.4).
    pub batch_size: usize,
    /// Forest used as the committee/classifier.
    pub forest: RandomForestConfig,
    /// Collect graph-inferred labels from cleaned connected components.
    /// Each round's forest is fit on the human labels only, so this flag
    /// changes no selection.
    pub graph_inferred_labels: bool,
    /// Predicted-edge density above which a component counts as "clean".
    pub clean_density: f64,
    /// Only run min-cut analysis on components up to this many records.
    pub max_component_for_cut: usize,
    /// Min-cut weight below which a component counts as weakly connected.
    pub weak_cut_threshold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlmserConfig {
    fn default() -> Self {
        Self {
            seed_size: 20,
            batch_size: 50,
            forest: RandomForestConfig { n_trees: 32, max_depth: 10, ..Default::default() },
            graph_inferred_labels: true,
            clean_density: 0.8,
            max_component_for_cut: 48,
            weak_cut_threshold: 1.2,
            seed: 42,
        }
    }
}

/// The Almser graph-boosted learner.
#[derive(Debug, Clone, Default)]
pub struct AlmserAl {
    /// Hyperparameters.
    pub config: AlmserConfig,
}

/// Per-iteration graph signals for every pool row.
struct GraphSignals {
    /// Transitive closure says "match" but the classifier says "non-match".
    fn_candidate: Vec<bool>,
    /// Predicted match crossing a weak minimum cut.
    fp_candidate: Vec<bool>,
    /// Pseudo-labels inferred from cleaned components (row → label).
    inferred: Vec<(usize, bool)>,
}

/// Dense ids for the records of a pool, numbered in first-seen order over
/// `pool.pairs`. The pairs are fixed within one `select`, so the index is
/// built once and shared by every round's graph.
struct RecordIndex {
    /// Dense `(a, b)` endpoint ids per pool row.
    endpoints: Vec<(usize, usize)>,
    /// Number of distinct records.
    n_records: usize,
}

impl RecordIndex {
    fn new(pool: &AlPool) -> Self {
        let mut dense: HashMap<u32, usize> = HashMap::new();
        let mut id = |uid: u32| {
            let next = dense.len();
            *dense.entry(uid).or_insert(next)
        };
        let endpoints: Vec<(usize, usize)> =
            pool.pairs.iter().map(|&(a, b)| (id(a), id(b))).collect();
        Self { endpoints, n_records: dense.len() }
    }
}

impl AlmserAl {
    /// Create with the given configuration.
    pub fn new(config: AlmserConfig) -> Self {
        Self { config }
    }

    fn analyze_graph(&self, pool: &AlPool, records: &RecordIndex, proba: &[f64]) -> GraphSignals {
        let n_rows = pool.len();
        let mut g = Graph::new(records.n_records);
        let positive = |row: usize| match pool.label_of(row) {
            Some(l) => l,
            None => proba[row] >= 0.5,
        };
        for row in 0..n_rows {
            if positive(row) {
                let (ia, ib) = records.endpoints[row];
                if ia != ib {
                    g.add_edge(ia, ib, proba[row].max(0.05));
                }
            }
        }
        let comp = connected_components(&g);
        let members = component_members(&comp);

        // per-component statistics: density and weak-cut partition
        let comp_stats: Vec<(f64, Option<Vec<usize>>)> = par::map_indexed(members.len(), 64, |c| {
            let nodes = &members[c];
            if nodes.len() < 2 {
                return (1.0, None);
            }
            let (sub, map) = g.induced_subgraph(nodes);
            let possible = nodes.len() * (nodes.len() - 1) / 2;
            let density = sub.num_edges() as f64 / possible.max(1) as f64;
            let weak_side = if nodes.len() <= self.config.max_component_for_cut {
                stoer_wagner(&sub).and_then(|cut| {
                    (cut.weight < self.config.weak_cut_threshold)
                        .then(|| cut.partition.iter().map(|&i| map[i]).collect())
                })
            } else {
                None
            };
            (density, weak_side)
        });

        let mut fn_candidate = vec![false; n_rows];
        let mut fp_candidate = vec![false; n_rows];
        let mut inferred = Vec::new();
        for row in 0..n_rows {
            let (ia, ib) = records.endpoints[row];
            let same_comp = comp[ia] == comp[ib];
            let pred = positive(row);
            if same_comp && !pred {
                fn_candidate[row] = true;
            }
            if pred && same_comp {
                if let (_, Some(weak_side)) = &comp_stats[comp[ia]] {
                    let in_side = |node: usize| weak_side.contains(&node);
                    if in_side(ia) != in_side(ib) {
                        fp_candidate[row] = true;
                    }
                }
            }
            if self.config.graph_inferred_labels && pool.label_of(row).is_none() {
                if same_comp {
                    let (density, weak) = &comp_stats[comp[ia]];
                    if *density >= self.config.clean_density && weak.is_none() {
                        inferred.push((row, true));
                    }
                } else {
                    // both endpoints inside *different* clean components →
                    // inferred non-match
                    let clean = |c: usize| {
                        let (density, weak) = &comp_stats[c];
                        *density >= self.config.clean_density && weak.is_none()
                    };
                    if members[comp[ia]].len() >= 2
                        && members[comp[ib]].len() >= 2
                        && clean(comp[ia])
                        && clean(comp[ib])
                    {
                        inferred.push((row, false));
                    }
                }
            }
        }
        GraphSignals { fn_candidate, fp_candidate, inferred }
    }
}

impl ActiveLearner for AlmserAl {
    fn name(&self) -> &'static str {
        "almser"
    }

    fn select(&self, pool: &mut AlPool, budget: usize) -> AlResult {
        if pool.is_empty() || budget == 0 {
            return AlResult::from_pool(pool);
        }
        let start = pool.queries_used();
        let spent = |pool: &AlPool| pool.queries_used() - start;

        pool.seed_extremes(self.config.seed_size.min(budget));
        let records = RecordIndex::new(pool);
        let all_rows: Vec<usize> = (0..pool.len()).collect();

        let mut round = 0u64;
        while spent(pool) < budget {
            let unlabeled = pool.unlabeled_rows();
            if unlabeled.is_empty() {
                break;
            }
            // train on the human labels only
            let mut training = pool.training_set();
            let forest = RandomForest::fit(
                &training,
                &RandomForestConfig {
                    seed: self.config.forest.seed.wrapping_add(round),
                    ..self.config.forest.clone()
                },
            );
            let proba = forest.predict_proba_rows(&pool.features, &all_rows);
            let signals = self.analyze_graph(pool, &records, &proba);

            // Appends up to 2 × |training| graph-inferred labels to
            // `training`, which is not read again: the forest above is
            // already fit and the next round refits from the pool, so the
            // inferred labels change no ranking.
            if self.config.graph_inferred_labels && !signals.inferred.is_empty() {
                let cap = training.len().max(8) * 2;
                for &(row, label) in signals.inferred.iter().take(cap) {
                    training.push(pool.features.row(row), label);
                }
            }

            let mut scored: Vec<(usize, f64)> = unlabeled
                .iter()
                .map(|&row| {
                    let unc = 1.0 - (2.0 * proba[row] - 1.0).abs();
                    let mut score = unc;
                    if signals.fn_candidate[row] {
                        score += 1.0;
                    }
                    if signals.fp_candidate[row] {
                        score += 1.0;
                    }
                    (row, score)
                })
                .collect();
            let remaining = budget - spent(pool);
            pool.query_top(&mut scored, self.config.batch_size.max(1).min(remaining));
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

    /// Clustered records: entities of size 3 across two sources; feature =
    /// similarity, high within entity, low across, with an ambiguous band.
    fn clustered_problem(entities: usize, id: usize) -> ErProblem {
        let mut features = FeatureMatrix::new(2);
        let mut labels = Vec::new();
        let mut pairs = Vec::new();
        let mut uid = 0u32;
        for e in 0..entities {
            // three records of the same entity: a, b, c
            let (a, b, c) = (uid, uid + 1, uid + 2);
            uid += 3;
            let base = 0.75 + (e % 5) as f64 * 0.04;
            for &(x, y, sim) in
                &[(a, b, base), (a, c, base - 0.12), (b, c, 0.55 + (e % 3) as f64 * 0.02)]
            {
                features.push_row(&[sim, sim - 0.05]);
                labels.push(true);
                pairs.push((x, y));
            }
            // cross-entity non-matches
            if e > 0 {
                let prev = a - 3;
                features.push_row(&[0.2 + (e % 4) as f64 * 0.05, 0.15]);
                labels.push(false);
                pairs.push((prev, a));
            }
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
    fn respects_budget() {
        let p = clustered_problem(40, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = AlmserAl::new(AlmserConfig {
            seed_size: 10,
            batch_size: 10,
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let r = al.select(&mut pool, 40);
        assert_eq!(r.labels_used, 40);
        assert_eq!(r.training.len(), 40);
    }

    #[test]
    fn selects_both_classes() {
        let p = clustered_problem(40, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = AlmserAl::new(AlmserConfig {
            seed_size: 10,
            batch_size: 10,
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let r = al.select(&mut pool, 30);
        let (pos, neg) = r.training.class_counts();
        assert!(pos > 0 && neg > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = clustered_problem(30, 0);
        let al = AlmserAl::new(AlmserConfig {
            seed_size: 6,
            batch_size: 6,
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let mut pool_a = AlPool::from_problems(&[&p]);
        let mut pool_b = AlPool::from_problems(&[&p]);
        assert_eq!(al.select(&mut pool_a, 24).selected_rows, al.select(&mut pool_b, 24).selected_rows);
    }

    #[test]
    fn graph_signals_flag_transitive_misses() {
        // Build a pool where (a,b) and (b,c) are labeled matches but (a,c)
        // would be predicted non-match: (a,c) must become an FN candidate.
        let mut features = FeatureMatrix::new(1);
        let mut labels = Vec::new();
        let mut pairs = Vec::new();
        // strong matches
        for i in 0..10u32 {
            features.push_row(&[0.9]);
            labels.push(true);
            pairs.push((3 * i, 3 * i + 1));
            features.push_row(&[0.88]);
            labels.push(true);
            pairs.push((3 * i + 1, 3 * i + 2));
            // the transitive pair looks weak
            features.push_row(&[0.3]);
            labels.push(true);
            pairs.push((3 * i, 3 * i + 2));
        }
        // clear non-matches
        for i in 0..10u32 {
            features.push_row(&[0.05]);
            labels.push(false);
            pairs.push((3 * i, 3 * ((i + 1) % 10)));
        }
        let p = ErProblem {
            id: 0,
            sources: (0, 1),
            pairs,
            features,
            labels,
            feature_names: vec!["f0".into()],
        };
        let mut pool = AlPool::from_problems(&[&p]);
        // label a few extremes so the forest learns high = match
        pool.seed_extremes(8);
        let al = AlmserAl::new(AlmserConfig {
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let training = pool.training_set();
        let forest = RandomForest::fit(&training, &al.config.forest);
        let rows: Vec<usize> = (0..pool.len()).collect();
        let proba = forest.predict_proba_rows(&pool.features, &rows);
        let signals = al.analyze_graph(&pool, &RecordIndex::new(&pool), &proba);
        // at least one of the weak transitive pairs must be flagged
        let flagged = (0..pool.len())
            .filter(|&r| signals.fn_candidate[r] && pool.features.get(r, 0) < 0.5)
            .count();
        assert!(flagged > 0, "no transitive FN candidates flagged");
    }

    #[test]
    fn zero_budget_noop() {
        let p = clustered_problem(10, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let r = AlmserAl::default().select(&mut pool, 0);
        assert_eq!(r.labels_used, 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(AlmserAl::default().name(), "almser");
    }
}
