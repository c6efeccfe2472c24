//! Property-based tests of the ML substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use morer_ml::dataset::{FeatureMatrix, TrainingSet};
use morer_ml::forest::{RandomForest, RandomForestConfig};
use morer_ml::linear::{LogisticRegression, LogisticRegressionConfig};
use morer_ml::metrics::PairCounts;
use morer_ml::mlp::MlpConfig;
use morer_ml::model::{Classifier, ModelConfig, TrainedModel};
use morer_ml::naive_bayes::GaussianNb;
use morer_ml::sampling::{
    bootstrap_counts, bootstrap_indices, k_fold_indices, stratified_indices, train_test_split,
};
use morer_ml::tree::{fold_leaves, DecisionTree, DecisionTreeConfig, SortedColumns, BLOCK};

fn labeled_rows() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<bool>)> {
    proptest::collection::vec(
        (proptest::collection::vec(0.0f64..=1.0, 3..=3), any::<bool>()),
        4..60,
    )
    .prop_map(|rows| {
        let x: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r.clone()).collect();
        let y: Vec<bool> = rows.iter().map(|(_, l)| *l).collect();
        (x, y)
    })
}

/// A feature value: codes below 9 pick a value that stresses ties and
/// boundaries (signed zeros, infinities, NaNs of both signs, adjacent
/// floats); the rest round `x` to a quarter, so rows tie often.
fn feature_value(code: usize, x: f64) -> f64 {
    match code {
        0 => 0.0,
        1 => -0.0,
        2 => 0.5,
        3 => f64::from_bits(0.5f64.to_bits() + 1),
        4 => 1.0,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7 => f64::NAN,
        8 => -f64::NAN,
        _ => (x * 4.0).floor() / 4.0,
    }
}

/// A row of four feature-value codes, its label and its multiplicity count.
type WeightedRow = (Vec<(usize, f64)>, bool, u32);

/// Rows of up to four feature-value codes, each with a label and a
/// multiplicity count (zero included).
fn weighted_rows() -> impl Strategy<Value = Vec<WeightedRow>> {
    proptest::collection::vec(
        (proptest::collection::vec((0usize..14, 0.0f64..1.0), 4..=4), any::<bool>(), 0u32..=3),
        0..40,
    )
}

/// `TrainedModel::predict_proba_rows` against `Classifier::predict_proba`
/// on each row, bit for bit.
fn assert_batch_predict_matches_rows(
    model: &TrainedModel,
    x: &FeatureMatrix,
) -> Result<(), String> {
    let batch = model.predict_proba_rows(x);
    prop_assert_eq!(batch.len(), x.rows(), "{}", model.kind());
    for (p, row) in batch.iter().zip(x.iter_rows()) {
        prop_assert_eq!(p.to_bits(), model.predict_proba(row).to_bits(), "{}", model.kind());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_predict_equals_per_row_predict(
        (x, y) in labeled_rows(),
        queries in proptest::collection::vec(proptest::collection::vec((0usize..14, 0.0f64..1.0), 3..=3), 0..40),
        seed in any::<u64>(),
    ) {
        let mut q = FeatureMatrix::new(3);
        for cells in &queries {
            q.push_row(&cells.iter().map(|&(c, v)| feature_value(c, v)).collect::<Vec<f64>>());
        }
        // a constant feature floors both classes' Gaussian variance; one
        // label leaves a class without rows
        let constant: Vec<Vec<f64>> = x.iter().map(|r| vec![0.5, r[1], r[2]]).collect();
        let single = vec![true; y.len()];
        let sets = [
            TrainingSet::from_rows(&x, &y),
            TrainingSet::from_rows(&constant, &y),
            TrainingSet::from_rows(&x, &single),
        ];
        let configs = [
            ModelConfig::RandomForest(RandomForestConfig { n_trees: 4, seed, ..Default::default() }),
            ModelConfig::LogisticRegression(LogisticRegressionConfig { epochs: 20, ..Default::default() }),
            ModelConfig::GaussianNb,
            ModelConfig::Mlp(MlpConfig { epochs: 10, seed, ..Default::default() }),
            ModelConfig::Threshold,
        ];
        for data in &sets {
            for config in &configs {
                assert_batch_predict_matches_rows(&TrainedModel::train(config, data), &q)?;
            }
        }
    }

    #[test]
    fn all_classifiers_emit_valid_probabilities((x, y) in labeled_rows(), q in proptest::collection::vec(0.0f64..=1.0, 3..=3)) {
        let data = TrainingSet::from_rows(&x, &y);
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng);
        let forest = RandomForest::fit(&data, &RandomForestConfig { n_trees: 8, ..Default::default() });
        let logreg = LogisticRegression::fit(&data, &LogisticRegressionConfig { epochs: 30, ..Default::default() });
        let gnb = GaussianNb::fit(&data);
        for p in [
            tree.predict_proba(&q),
            forest.predict_proba(&q),
            logreg.predict_proba(&q),
            gnb.predict_proba(&q),
        ] {
            prop_assert!(p.is_finite());
            prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn tree_perfectly_fits_consistent_training_data((x, y) in labeled_rows()) {
        // deduplicate conflicting rows (same features, different labels)
        let mut seen: std::collections::HashMap<String, bool> = std::collections::HashMap::new();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (row, &label) in x.iter().zip(&y) {
            let key = format!("{row:?}");
            match seen.get(&key) {
                Some(&l) if l != label => continue,
                Some(_) => {}
                None => {
                    seen.insert(key, label);
                }
            }
            xs.push(row.clone());
            ys.push(label);
        }
        let data = TrainingSet::from_rows(&xs, &ys);
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = DecisionTreeConfig { max_depth: 64, ..Default::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng);
        for (row, &label) in xs.iter().zip(&ys) {
            prop_assert_eq!(tree.predict(row), label, "row {:?}", row);
        }
    }

    #[test]
    fn split_partitions_data((x, y) in labeled_rows(), frac in 0.1f64..0.9) {
        let data = TrainingSet::from_rows(&x, &y);
        let (train, test) = train_test_split(&data, frac, 3);
        prop_assert_eq!(train.len() + test.len(), data.len());
    }

    #[test]
    fn stratified_sampling_is_within_bounds(labels in proptest::collection::vec(any::<bool>(), 1..100), n in 0usize..100) {
        let idx = stratified_indices(&labels, n, 4);
        prop_assert_eq!(idx.len(), n.min(labels.len()));
        let distinct: std::collections::HashSet<usize> = idx.iter().copied().collect();
        prop_assert_eq!(distinct.len(), idx.len(), "duplicates in stratified sample");
        prop_assert!(idx.iter().all(|&i| i < labels.len()));
    }

    #[test]
    fn k_fold_partitions_exactly(n in 4usize..100, k in 2usize..6) {
        let folds = k_fold_indices(n, k, 5);
        let mut seen = vec![0usize; n];
        for (train, val) in &folds {
            prop_assert_eq!(train.len() + val.len(), n);
            for &i in val {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn metrics_confusion_identities(outcomes in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..100)) {
        let mut c = PairCounts::new();
        for &(p, a) in &outcomes {
            c.record(p, a);
        }
        prop_assert_eq!(c.total() as usize, outcomes.len());
        let positives = outcomes.iter().filter(|(_, a)| *a).count() as u64;
        prop_assert_eq!(c.tp + c.fn_, positives);
        let predicted = outcomes.iter().filter(|(p, _)| *p).count() as u64;
        prop_assert_eq!(c.tp + c.fp, predicted);
    }

    #[test]
    fn bootstrap_counts_is_the_index_histogram(n in 0usize..200, seed in any::<u64>()) {
        let mut by_counts = SmallRng::seed_from_u64(seed);
        let mut by_indices = SmallRng::seed_from_u64(seed);
        let counts = bootstrap_counts(n, &mut by_counts);
        let mut histogram = vec![0u32; n];
        for i in bootstrap_indices(n, &mut by_indices) {
            histogram[i] += 1;
        }
        prop_assert_eq!(counts, histogram);
        prop_assert_eq!(by_counts.gen::<u64>(), by_indices.gen::<u64>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn presorted_fit_equals_reference_fit(
        rows in weighted_rows(),
        num_features in 1usize..=4,
        max_features in 0usize..=4,
        min_samples_leaf in 1usize..=4,
        min_samples_split in 2usize..=5,
        max_depth in 0usize..=12,
        seed in any::<u64>(),
    ) {
        let x: Vec<Vec<f64>> = rows
            .iter()
            .map(|(cells, _, _)| {
                cells[..num_features].iter().map(|&(c, v)| feature_value(c, v)).collect()
            })
            .collect();
        let y: Vec<bool> = rows.iter().map(|&(_, label, _)| label).collect();
        let counts: Vec<u32> = rows.iter().map(|&(_, _, count)| count).collect();
        let mut data = TrainingSet::from_rows(&x, &y);
        if rows.is_empty() {
            data = TrainingSet::new(num_features);
        }
        let config = DecisionTreeConfig {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            max_features: (max_features > 0).then_some(max_features),
        };

        // the multiset, materialized in a shuffled row order
        let mut multiset: Vec<usize> =
            (0..counts.len()).flat_map(|r| std::iter::repeat_n(r, counts[r] as usize)).collect();
        multiset.shuffle(&mut SmallRng::seed_from_u64(seed ^ 1));
        let materialized = data.select(&multiset);

        let mut presorted_rng = SmallRng::seed_from_u64(seed);
        let mut reference_rng = SmallRng::seed_from_u64(seed);
        let columns = SortedColumns::new(&data);
        let presorted = DecisionTree::fit_counts(&columns, &counts, &config, &mut presorted_rng);
        let reference = DecisionTree::fit_reference(&materialized, &config, &mut reference_rng);
        prop_assert_eq!(&presorted, &reference);
        prop_assert_eq!(presorted_rng.gen::<u64>(), reference_rng.gen::<u64>());

        let mut fit_rng = SmallRng::seed_from_u64(seed);
        prop_assert_eq!(DecisionTree::fit(&materialized, &config, &mut fit_rng), reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fold_leaves_equals_per_row_walk(
        rows in weighted_rows(),
        queries in proptest::collection::vec(proptest::collection::vec((0usize..14, 0.0f64..1.0), 4..=4), 1..24),
        num_features in 1usize..=4,
        n_trees in 1usize..=5,
        max_depth in 0usize..=12,
        length in 0usize..6,
        seed in any::<u64>(),
    ) {
        let value_row = |cells: &[(usize, f64)]| -> Vec<f64> {
            cells[..num_features].iter().map(|&(c, v)| feature_value(c, v)).collect()
        };
        let x: Vec<Vec<f64>> = rows.iter().map(|(cells, _, _)| value_row(cells)).collect();
        let y: Vec<bool> = rows.iter().map(|&(_, label, _)| label).collect();
        let counts: Vec<u32> = rows.iter().map(|&(_, _, count)| count).collect();
        let mut data = TrainingSet::from_rows(&x, &y);
        if rows.is_empty() {
            data = TrainingSet::new(num_features);
        }
        let columns = SortedColumns::new(&data);
        let config = DecisionTreeConfig { max_depth, ..Default::default() };
        let mut rng = SmallRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..n_trees).map(|_| DecisionTree::fit_counts(&columns, &counts, &config, &mut rng)).collect();

        // unsorted row ids with duplicates, around the block boundaries
        let x = FeatureMatrix::from_rows(&queries.iter().map(|q| value_row(q)).collect::<Vec<_>>());
        let len = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3][length];
        let ids: Vec<usize> = (0..len).map(|_| rng.gen_range(0..x.rows())).collect();

        let vote = |v: u32, p: f64| v + u32::from(p >= 0.5);
        let sum = |s: f64, p: f64| s + p;
        let walk = |r: usize| {
            let row = x.row(r);
            trees.iter().map(move |t| t.predict_proba(row))
        };
        let votes = fold_leaves(&trees, &x, &ids, 0u32, vote);
        let sums = fold_leaves(&trees, &x, &ids, 0.0, sum);
        prop_assert_eq!(votes.len(), len);
        prop_assert_eq!(sums.len(), len);
        for (k, &r) in ids.iter().enumerate() {
            prop_assert_eq!(votes[k], walk(r).fold(0u32, vote));
            prop_assert_eq!(sums[k].to_bits(), walk(r).fold(0.0, sum).to_bits());
        }
        prop_assert!(fold_leaves(&[], &x, &ids, 7u32, vote).iter().all(|&v| v == 7));

        let forest = RandomForest::fit(&data, &RandomForestConfig { n_trees, max_depth, seed, ..Default::default() });
        let proba = forest.predict_proba_rows(&x, &ids);
        prop_assert_eq!(proba.len(), len);
        for (k, &r) in ids.iter().enumerate() {
            prop_assert_eq!(proba[k].to_bits(), forest.predict_proba(x.row(r)).to_bits());
        }
        let no_trees = serde::Value::Map(vec![("trees".into(), serde::Value::Seq(Vec::new()))]);
        let empty = <RandomForest as serde::Deserialize>::from_value(&no_trees).unwrap();
        prop_assert!(empty.predict_proba_rows(&x, &ids).iter().all(|&p| p.to_bits() == 0.0f64.to_bits()));
    }
}
