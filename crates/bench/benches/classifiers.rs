//! Microbenchmarks of classifier training and prediction (the cost centres
//! of model generation and the Bootstrap committee fit and vote).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use morer_bench::workload::{
    committee_pool, committee_training_set, committee_votes, committee_votes_reference,
    fit_committee, fit_committee_reference,
};
use morer_ml::forest::{RandomForest, RandomForestConfig};
use morer_ml::linear::{LogisticRegression, LogisticRegressionConfig};
use morer_ml::tree::{DecisionTree, DecisionTreeConfig};
use morer_ml::TrainingSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn training_data(n: usize) -> TrainingSet {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..5).map(|_| rng.gen::<f64>()).collect();
        labels.push(row.iter().sum::<f64>() / 5.0 > 0.5);
        rows.push(row);
    }
    TrainingSet::from_rows(&rows, &labels)
}

fn bench_training(c: &mut Criterion) {
    let data = training_data(1000);
    let mut group = c.benchmark_group("classifier_fit_1000x5");
    group.bench_function("decision_tree", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(1);
            DecisionTree::fit(black_box(&data), &DecisionTreeConfig::default(), &mut rng)
        })
    });
    group.bench_function("random_forest_32", |b| {
        b.iter(|| RandomForest::fit(black_box(&data), &RandomForestConfig::default()))
    });
    group.bench_function("logistic_regression", |b| {
        b.iter(|| LogisticRegression::fit(black_box(&data), &LogisticRegressionConfig::default()))
    });
    group.finish();
}

/// Bootstrap AL's per-round committee fit: one shared sort and per-tree
/// bootstrap counts, against materialized resamples with the sort-per-node
/// reference fit. Both build the same trees (asserted before timing).
fn bench_committee(c: &mut Criterion) {
    let data = committee_training_set(1000, 5);
    assert_eq!(fit_committee(&data, 100, 1), fit_committee_reference(&data, 100, 1));
    let mut group = c.benchmark_group("bootstrap_committee_100x1000");
    group.bench_function("presorted", |b| b.iter(|| fit_committee(black_box(&data), 100, 1)));
    group.bench_function("reference", |b| {
        b.iter(|| fit_committee_reference(black_box(&data), 100, 1))
    });
    group.finish();
}

/// Bootstrap AL's per-round vote: the 100-tree committee over a
/// 20 000-row pool, from one block-partition walk against the per-row
/// walk. Both count the same votes (asserted before timing).
fn bench_committee_vote(c: &mut Criterion) {
    let committee = fit_committee(&committee_training_set(1000, 5), 100, 1);
    let pool = committee_pool(20_000, 5);
    assert_eq!(committee_votes(&committee, &pool), committee_votes_reference(&committee, &pool));
    let mut group = c.benchmark_group("bootstrap_vote_100x20k");
    group.bench_function("batch", |b| b.iter(|| committee_votes(&committee, black_box(&pool))));
    group.bench_function("per_row", |b| {
        b.iter(|| committee_votes_reference(&committee, black_box(&pool)))
    });
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let data = training_data(1000);
    let forest = RandomForest::fit(&data, &RandomForestConfig::default());
    let x = [0.4, 0.6, 0.5, 0.7, 0.3];
    c.bench_function("random_forest_predict", |b| {
        b.iter(|| forest.predict_proba(black_box(&x)))
    });
}

criterion_group!(benches, bench_training, bench_committee, bench_committee_vote, bench_prediction);
criterion_main!(benches);
