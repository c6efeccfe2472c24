//! Seeded sampling utilities: train/test splits, bootstrap resampling,
//! stratified selection and k-fold cross-validation splits.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::dataset::TrainingSet;

/// Shuffle `0..n` with the given seed.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    idx
}

/// Split a training set into `(train, test)` with `train_fraction` of the
/// rows (seeded shuffle first).
pub fn train_test_split(data: &TrainingSet, train_fraction: f64, seed: u64) -> (TrainingSet, TrainingSet) {
    let idx = shuffled_indices(data.len(), seed);
    let cut = ((data.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
    (data.select(&idx[..cut]), data.select(&idx[cut..]))
}

/// Bootstrap resample: `n` draws with replacement from `0..n`.
pub fn bootstrap_indices(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

/// Bootstrap resample as multiplicities: `counts[i]` is how often `i` is
/// drawn. Makes the same `n` draws as [`bootstrap_indices`], so `rng` ends
/// in the same state.
pub fn bootstrap_counts(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut counts = vec![0u32; n];
    for _ in 0..n {
        counts[rng.gen_range(0..n)] += 1;
    }
    counts
}

/// Bootstrap resample of a training set, materialized. Forests and the
/// Bootstrap AL committee fit from [`bootstrap_counts`] instead.
pub fn bootstrap_sample(data: &TrainingSet, rng: &mut SmallRng) -> TrainingSet {
    if data.is_empty() {
        return TrainingSet::new(data.num_features());
    }
    data.select(&bootstrap_indices(data.len(), rng))
}

/// Stratified sample of up to `n` indices keeping the positive/negative ratio
/// of `labels` (at least one of each class when available and `n >= 2`).
pub fn stratified_indices(labels: &[bool], n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let mut neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let n = n.min(labels.len());
    if n == 0 {
        return Vec::new();
    }
    let mut take_pos = ((pos.len() as f64 / labels.len() as f64) * n as f64).round() as usize;
    take_pos = take_pos.min(pos.len()).min(n);
    if n >= 2 {
        if take_pos == 0 && !pos.is_empty() {
            take_pos = 1;
        }
        if take_pos == n && !neg.is_empty() {
            take_pos = n - 1;
        }
    }
    let take_neg = (n - take_pos).min(neg.len());
    let mut out: Vec<usize> = pos[..take_pos].to_vec();
    out.extend_from_slice(&neg[..take_neg]);
    // top up if one class ran short
    if out.len() < n {
        let missing = n - out.len();
        let extra: Vec<usize> = pos[take_pos..]
            .iter()
            .chain(neg[take_neg..].iter())
            .take(missing)
            .copied()
            .collect();
        out.extend(extra);
    }
    out.sort_unstable();
    out
}

/// K-fold index splits: returns `k` (train, validation) index pairs.
pub fn k_fold_indices(n: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    let idx = shuffled_indices(n, seed);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let lo = n * f / k;
        let hi = n * (f + 1) / k;
        let val: Vec<usize> = idx[lo..hi].to_vec();
        let train: Vec<usize> = idx[..lo].iter().chain(idx[hi..].iter()).copied().collect();
        folds.push((train, val));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(n: usize) -> TrainingSet {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        TrainingSet::from_rows(&rows, &labels)
    }

    #[test]
    fn split_sizes_and_disjointness() {
        let data = sample_set(100);
        let (train, test) = train_test_split(&data, 0.7, 7);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
        let train_vals: std::collections::HashSet<u64> =
            train.x.iter_rows().map(|r| r[0] as u64).collect();
        for r in test.x.iter_rows() {
            assert!(!train_vals.contains(&(r[0] as u64)));
        }
    }

    #[test]
    fn split_deterministic() {
        let data = sample_set(50);
        let (a, _) = train_test_split(&data, 0.5, 9);
        let (b, _) = train_test_split(&data, 0.5, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn bootstrap_has_right_size_and_replacement() {
        let mut rng = SmallRng::seed_from_u64(3);
        let idx = bootstrap_indices(200, &mut rng);
        assert_eq!(idx.len(), 200);
        let distinct: std::collections::HashSet<_> = idx.iter().collect();
        // with replacement, ~63% distinct expected; certainly < 100%
        assert!(distinct.len() < 200);
    }

    #[test]
    fn bootstrap_empty_set() {
        let data = TrainingSet::new(2);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(bootstrap_sample(&data, &mut rng).is_empty());
    }

    #[test]
    fn stratified_keeps_both_classes() {
        let labels: Vec<bool> = (0..100).map(|i| i < 5).collect(); // 5% positive
        let idx = stratified_indices(&labels, 10, 1);
        assert_eq!(idx.len(), 10);
        let pos = idx.iter().filter(|&&i| labels[i]).count();
        assert!(pos >= 1, "stratified sample lost the minority class");
        assert!(pos <= 2);
    }

    #[test]
    fn stratified_handles_single_class() {
        let labels = vec![false; 20];
        let idx = stratified_indices(&labels, 5, 1);
        assert_eq!(idx.len(), 5);
        let labels = vec![true; 3];
        let idx = stratified_indices(&labels, 5, 1);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn k_fold_covers_everything_once() {
        let folds = k_fold_indices(25, 5, 11);
        assert_eq!(folds.len(), 5);
        let mut seen = [0usize; 25];
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 25);
            for &i in val {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
