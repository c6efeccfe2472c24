//! Reproducible featurization workloads.
//!
//! The `featurization` criterion bench and the `quick-bench` trajectory mode
//! both measure the same thing: pairs/second through `ErProblem` feature
//! generation on a product-catalog-shaped two-source dataset. This module
//! builds that workload deterministically so numbers are comparable across
//! runs and machines.

use morer_core::repository::ClusterEntry;
use morer_data::record::{DataSource, MultiSourceDataset, Record, Schema};
use morer_data::vocab::{CAMERA_BRANDS, PRODUCT_ADJECTIVES, SONG_WORDS};
use morer_data::ErProblem;
use morer_ml::dataset::{FeatureMatrix, TrainingSet};
use morer_ml::model::{ModelConfig, TrainedModel};
use morer_ml::sampling::{bootstrap_counts, bootstrap_sample};
use morer_ml::tree::{fold_leaves, DecisionTree, DecisionTreeConfig, SortedColumns};
use morer_sim::{par, AttributeComparator, ComparisonScheme, SimilarityFunction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generated featurization workload: dataset, scheme and candidate pairs.
pub struct FeaturizationWorkload {
    /// Two-source dataset with `2 * records_per_source` records.
    pub dataset: MultiSourceDataset,
    /// Product-catalog comparison scheme (6 features across 4 attributes).
    pub scheme: ComparisonScheme,
    /// Candidate pairs (source 0 uid, source 1 uid), sorted and unique.
    pub pairs: Vec<(u32, u32)>,
}

/// The comparison scheme the workload featurizes under: a representative
/// product-catalog mix of token, edit, q-gram and numeric comparators.
pub fn product_scheme() -> ComparisonScheme {
    ComparisonScheme::new()
        .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardTokens))
        .with(AttributeComparator::new(0, "title", SimilarityFunction::Levenshtein))
        .with(AttributeComparator::new(0, "title", SimilarityFunction::CosineTokens))
        .with(AttributeComparator::new(1, "brand", SimilarityFunction::JaroWinkler))
        .with(AttributeComparator::new(2, "model", SimilarityFunction::JaccardQgrams(2)))
        .with(AttributeComparator::new(3, "price", SimilarityFunction::NumericDiff))
}

fn title(rng: &mut SmallRng) -> String {
    let n_words = rng.gen_range(3..7usize);
    let mut words = Vec::with_capacity(n_words + 1);
    words.push(*pick(PRODUCT_ADJECTIVES, rng));
    for _ in 0..n_words {
        words.push(*pick(SONG_WORDS, rng));
    }
    words.join(" ")
}

fn pick<'a>(items: &'a [&'a str], rng: &mut SmallRng) -> &'a &'a str {
    &items[rng.gen_range(0..items.len())]
}

/// A lightly corrupted copy of `s`: one word dropped or one character typo,
/// so matched pairs are similar-but-not-equal (the realistic hard case).
fn corrupt(s: &str, rng: &mut SmallRng) -> String {
    let words: Vec<&str> = s.split(' ').collect();
    if words.len() > 1 && rng.gen_bool(0.5) {
        let drop = rng.gen_range(0..words.len());
        let kept: Vec<&str> = words
            .iter()
            .enumerate()
            .filter_map(|(i, w)| (i != drop).then_some(*w))
            .collect();
        return kept.join(" ");
    }
    let mut chars: Vec<char> = s.chars().collect();
    if !chars.is_empty() {
        let pos = rng.gen_range(0..chars.len());
        chars[pos] = (b'a' + rng.gen_range(0..26u8)) as char;
    }
    chars.into_iter().collect()
}

/// Build a deterministic two-source workload: `records_per_source` records
/// per source (~60% of entities appear in both sources), `n_pairs` candidate
/// pairs sampled the way blocking would produce them — every record
/// participating in many pairs.
pub fn featurization_workload(
    records_per_source: usize,
    n_pairs: usize,
    seed: u64,
) -> FeaturizationWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schema = Schema::new(vec!["title", "brand", "model", "price"]);
    let make_record = |entity: u64, corrupted: bool, rng: &mut SmallRng| {
        let base_title = title(rng);
        let t = if corrupted { corrupt(&base_title, rng) } else { base_title };
        let model = format!(
            "{}{}-{}",
            (b'A' + rng.gen_range(0..26u8)) as char,
            (b'A' + rng.gen_range(0..26u8)) as char,
            rng.gen_range(100..999u32)
        );
        Record {
            uid: 0,
            source: 0,
            entity,
            values: vec![
                Some(t),
                Some((*pick(CAMERA_BRANDS, rng)).to_owned()),
                Some(model),
                Some(format!("{}.99", rng.gen_range(50..2500u32))),
            ],
        }
    };
    let records_a: Vec<Record> = (0..records_per_source)
        .map(|e| make_record(e as u64, false, &mut rng))
        .collect();
    let records_b: Vec<Record> = (0..records_per_source)
        .map(|i| {
            // ~60% of source-b records mention a source-a entity (a match
            // candidate), the rest are fresh entities
            let entity = if rng.gen_bool(0.6) {
                rng.gen_range(0..records_per_source) as u64
            } else {
                (records_per_source + i) as u64
            };
            make_record(entity, true, &mut rng)
        })
        .collect();
    let dataset = MultiSourceDataset::assemble(
        "featurization-workload",
        schema,
        vec![
            DataSource { id: 0, name: "a".into(), records: records_a },
            DataSource { id: 1, name: "b".into(), records: records_b },
        ],
    );
    let n = records_per_source as u32;
    let mut pairs: Vec<(u32, u32)> = (0..n_pairs * 11 / 10)
        .map(|_| (rng.gen_range(0..n), n + rng.gen_range(0..n)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.truncate(n_pairs);
    FeaturizationWorkload { dataset, scheme: product_scheme(), pairs }
}

/// Build a deterministic distribution-analysis workload: `n_problems` ER
/// problems of `rows` feature vectors each, drawn from a handful of
/// distribution families (distinct per-problem match/non-match locations)
/// so the resulting problem graph has real cluster structure.
///
/// The `analysis` criterion bench and the `quick-bench` trajectory mode
/// both run the O(P²) graph build and the model search over this workload.
pub fn analysis_workload(
    n_problems: usize,
    rows: usize,
    features: usize,
    seed: u64,
) -> Vec<ErProblem> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD157);
    (0..n_problems)
        .map(|id| {
            // four families of match/non-match locations, plus per-problem
            // jitter, mirroring the heterogeneous benchmarks of Fig. 2
            let family = id % 4;
            let match_mu: f64 = 0.55 + 0.1 * family as f64 + rng.gen_range(-0.02..0.02f64);
            let nonmatch_mu: f64 = 0.08 + 0.07 * family as f64 + rng.gen_range(-0.02..0.02f64);
            let spread: f64 = rng.gen_range(0.05..0.12);
            let mut matrix = FeatureMatrix::new(features);
            let mut labels = Vec::with_capacity(rows);
            let mut pairs = Vec::with_capacity(rows);
            for i in 0..rows {
                let is_match = i % 3 == 0;
                let mu = if is_match { match_mu } else { nonmatch_mu };
                let row: Vec<f64> = (0..features)
                    .map(|f| {
                        let jitter: f64 = rng.gen_range(-spread..spread);
                        (mu + 0.03 * f as f64 + jitter).clamp(0.0, 1.0)
                    })
                    .collect();
                matrix.push_row(&row);
                labels.push(is_match);
                pairs.push((i as u32, (i + rows) as u32));
            }
            ErProblem {
                id,
                sources: (id, id + 1),
                pairs,
                features: matrix,
                labels,
                feature_names: (0..features).map(|f| format!("f{f}")).collect(),
            }
        })
        .collect()
}

/// Build a deterministic repository-scale problem set: `n_problems` ER
/// problems drawn from **twelve** distribution families with per-problem
/// jitter in match/non-match locations, spread and match rate — a much
/// wider spread than [`analysis_workload`] so the coarse signatures of
/// [`morer_core::index`] actually separate the entries. This is the scale
/// knob behind the `search_index` bench and the indexed-search section of
/// `quick-bench` (≥500-entry repositories).
pub fn repository_problems(
    n_problems: usize,
    rows: usize,
    features: usize,
    seed: u64,
) -> Vec<ErProblem> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5CA1E);
    (0..n_problems)
        .map(|id| {
            let family = id % 12;
            let match_mu: f64 = 0.35 + 0.05 * family as f64 + rng.gen_range(-0.03..0.03f64);
            let nonmatch_mu: f64 = 0.04 + 0.02 * family as f64 + rng.gen_range(-0.015..0.015f64);
            let spread: f64 = rng.gen_range(0.03..0.15);
            // match rate varies 1/2..1/5 per family so PSI-bin proportions
            // (not just moments) differ across entries
            let match_every = 2 + family % 4;
            let mut matrix = FeatureMatrix::new(features);
            let mut labels = Vec::with_capacity(rows);
            let mut pairs = Vec::with_capacity(rows);
            for i in 0..rows {
                let is_match = i % match_every == 0;
                let mu = if is_match { match_mu } else { nonmatch_mu };
                let row: Vec<f64> = (0..features)
                    .map(|f| {
                        let jitter: f64 = rng.gen_range(-spread..spread);
                        (mu + 0.02 * f as f64 + jitter).clamp(0.0, 1.0)
                    })
                    .collect();
                matrix.push_row(&row);
                labels.push(is_match);
                pairs.push((i as u32, (i + rows) as u32));
            }
            ErProblem {
                id,
                sources: (id, id + 1),
                pairs,
                features: matrix,
                labels,
                feature_names: (0..features).map(|f| format!("f{f}")).collect(),
            }
        })
        .collect()
}

/// One [`ClusterEntry`] per problem, each holding a trained `GaussianNb`
/// model and the problem's labelled training set as representatives. The
/// entries are exactly what `Morer::build` would store for singleton
/// clusters, so searches over them exercise the real `sel_base` path.
pub fn singleton_entries(problems: &[ErProblem]) -> Vec<ClusterEntry> {
    problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let training = p.to_training_set();
            let model = TrainedModel::train(&ModelConfig::GaussianNb, &training);
            ClusterEntry::new(i, vec![i], model, training, 0)
        })
        .collect()
}

/// Build a deterministic model repository at a chosen scale: the
/// [`singleton_entries`] of [`repository_problems`].
pub fn repository_workload(
    n_entries: usize,
    rows: usize,
    features: usize,
    seed: u64,
) -> Vec<ClusterEntry> {
    singleton_entries(&repository_problems(n_entries, rows, features, seed))
}

/// The `quick-bench` search repository: the [`singleton_entries`] of the
/// first 8 problems of [`analysis_workload`]`(24, 2000, 6, seed)`, and the
/// other 16 problems as queries.
pub fn search_workload(seed: u64) -> (Vec<ClusterEntry>, Vec<ErProblem>) {
    let mut problems = analysis_workload(24, 2000, 6, seed);
    let queries = problems.split_off(8);
    (singleton_entries(&problems), queries)
}

/// A Bootstrap-committee training set: `rows` labeled vectors of five
/// similarity features rounded to 0.01 (so values tie, as real similarity
/// features do), labeled a match when their mean exceeds 0.5, with 10% of
/// the labels flipped so committee trees grow deep.
///
/// The `classifiers` criterion bench and `quick-bench` fit a committee on
/// it with [`fit_committee`] and [`fit_committee_reference`].
pub fn committee_training_set(rows: usize, seed: u64) -> TrainingSet {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB007);
    let mut data = TrainingSet::new(5);
    for _ in 0..rows {
        let row: Vec<f64> = (0..5).map(|_| (rng.gen::<f64>() * 100.0).round() / 100.0).collect();
        let is_match = row.iter().sum::<f64>() / 5.0 > 0.5;
        data.push(&row, is_match != (rng.gen::<f64>() < 0.1));
    }
    data
}

/// Bootstrap AL's committee tree: depth 8, every feature at every split.
fn committee_tree_config() -> DecisionTreeConfig {
    DecisionTreeConfig { max_depth: 8, ..Default::default() }
}

/// Fit `size` trees the way Bootstrap AL does: sort `data` once, then fit
/// member `i` from the counts of a bootstrap resample seeded `seed + i`.
pub fn fit_committee(data: &TrainingSet, size: usize, seed: u64) -> Vec<DecisionTree> {
    let columns = SortedColumns::new(data);
    (0..size as u64)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i));
            let counts = bootstrap_counts(columns.len(), &mut rng);
            DecisionTree::fit_counts(&columns, &counts, &committee_tree_config(), &mut rng)
        })
        .collect()
}

/// The committee of [`fit_committee`], fit from materialized resamples
/// with the sort-per-node reference fit.
pub fn fit_committee_reference(data: &TrainingSet, size: usize, seed: u64) -> Vec<DecisionTree> {
    (0..size as u64)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i));
            let sample = bootstrap_sample(data, &mut rng);
            DecisionTree::fit_reference(&sample, &committee_tree_config(), &mut rng)
        })
        .collect()
}

/// A Bootstrap-committee scoring pool: `rows` unlabeled vectors shaped
/// like [`committee_training_set`]'s (five similarity features rounded to
/// 0.01), drawn from their own stream.
///
/// The `classifiers` criterion bench and `quick-bench` vote a committee
/// over it with [`committee_votes`] and [`committee_votes_reference`].
pub fn committee_pool(rows: usize, seed: u64) -> FeatureMatrix {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9001);
    let mut pool = FeatureMatrix::new(5);
    for _ in 0..rows {
        let row: Vec<f64> = (0..5).map(|_| (rng.gen::<f64>() * 100.0).round() / 100.0).collect();
        pool.push_row(&row);
    }
    pool
}

/// Each pool row's match votes (`p >= 0.5`) across `committee`, counted
/// the way Bootstrap AL counts them: one batch walk ([`fold_leaves`]).
pub fn committee_votes(committee: &[DecisionTree], pool: &FeatureMatrix) -> Vec<u32> {
    let rows: Vec<usize> = (0..pool.rows()).collect();
    fold_leaves(committee, pool, &rows, 0u32, |v, p| v + u32::from(p >= 0.5))
}

/// The votes of [`committee_votes`] from the per-row walk that batch
/// evaluation replaced: every row walks every tree, rows in parallel.
pub fn committee_votes_reference(committee: &[DecisionTree], pool: &FeatureMatrix) -> Vec<u32> {
    par::map_indexed(pool.rows(), 256, |r| {
        let x = pool.row(r);
        committee.iter().filter(|t| t.predict(x)).count() as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_sized() {
        let w1 = featurization_workload(200, 2000, 7);
        let w2 = featurization_workload(200, 2000, 7);
        assert_eq!(w1.pairs, w2.pairs);
        assert_eq!(w1.dataset.num_records(), 400);
        assert_eq!(w1.pairs.len(), 2000);
        assert_eq!(w1.scheme.num_features(), 6);
        // pairs are cross-source and in range
        assert!(w1.pairs.iter().all(|&(a, b)| a < 200 && (200..400).contains(&b)));
        // different seeds give different data
        let w3 = featurization_workload(200, 2000, 8);
        assert_ne!(w1.pairs, w3.pairs);
    }

    #[test]
    fn analysis_workload_is_deterministic_and_shaped() {
        let a = analysis_workload(8, 50, 3, 7);
        let b = analysis_workload(8, 50, 3, 7);
        assert_eq!(a.len(), 8);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.features, pb.features);
            assert_eq!(pa.num_pairs(), 50);
            assert_eq!(pa.num_features(), 3);
            assert!(pa
                .features
                .iter_rows()
                .all(|r| r.iter().all(|v| (0.0..=1.0).contains(v))));
        }
        let c = analysis_workload(8, 50, 3, 8);
        assert_ne!(a[0].features, c[0].features);
    }

    #[test]
    fn repository_workload_is_deterministic_and_searchable() {
        let a = repository_workload(60, 80, 4, 7);
        let b = repository_workload(60, 80, 4, 7);
        assert_eq!(a.len(), 60);
        assert_eq!(a, b);
        // every entry is searchable (non-empty representatives) and the
        // twelve families give the index real signature spread
        assert!(a.iter().all(|e| !e.representatives.is_empty()));
        let c = repository_workload(60, 80, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn workload_contains_true_matches() {
        let w = featurization_workload(300, 3000, 42);
        let matches = w
            .pairs
            .iter()
            .filter(|&&(a, b)| w.dataset.is_match(a, b))
            .count();
        assert!(matches > 0, "workload should contain some true matches");
    }

    #[test]
    fn committee_votes_equal_the_per_row_walk() {
        let committee = fit_committee(&committee_training_set(200, 3), 10, 3);
        let pool = committee_pool(700, 3);
        assert_eq!(pool.rows(), 700);
        let votes = committee_votes(&committee, &pool);
        assert_eq!(votes, committee_votes_reference(&committee, &pool));
        assert!(votes.iter().any(|&v| v > 0 && v < 10), "some rows must split the vote");
    }
}
