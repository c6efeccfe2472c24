//! Pins the exact rows Bootstrap and Almser select on a fixed synthetic
//! pool. Committee training, voting and graph analysis may be reordered or
//! fanned over threads, but every such change must leave these selections
//! bit-identical.

use morer_al::{ActiveLearner, AlPool, AlmserAl, AlmserConfig, BootstrapAl, BootstrapConfig};
use morer_data::ErProblem;
use morer_ml::dataset::FeatureMatrix;
use morer_ml::forest::RandomForestConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Entities of three records each (two of them also linked to the previous
/// entity as a non-match), with noisy similarity features whose match and
/// non-match ranges overlap.
fn noisy_clustered_problem(entities: usize, id: usize, seed: u64) -> ErProblem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut features = FeatureMatrix::new(3);
    let mut labels = Vec::new();
    let mut pairs = Vec::new();
    let base_uid = (id * entities * 3) as u32;
    for e in 0..entities {
        let a = base_uid + 3 * e as u32;
        let mut push = |x: u32, y: u32, is_match: bool, rng: &mut SmallRng| {
            let centre = if is_match { 0.65 } else { 0.35 };
            let row: Vec<f64> = (0..3)
                .map(|_| (centre + rng.gen_range(-0.3f64..0.3)).clamp(0.0, 1.0))
                .collect();
            features.push_row(&row);
            labels.push(is_match);
            pairs.push((x, y));
        };
        push(a, a + 1, true, &mut rng);
        push(a, a + 2, true, &mut rng);
        push(a + 1, a + 2, true, &mut rng);
        if e > 0 {
            push(a - 3, a, false, &mut rng);
            push(a - 2, a + 1, false, &mut rng);
        }
    }
    ErProblem {
        id,
        sources: (0, 1),
        pairs,
        features,
        labels,
        feature_names: vec!["f0".into(), "f1".into(), "f2".into()],
    }
}

fn pool() -> AlPool {
    let p0 = noisy_clustered_problem(400, 0, 11);
    let p1 = noisy_clustered_problem(300, 1, 12);
    AlPool::from_problems(&[&p0, &p1])
}

#[test]
fn bootstrap_selection_is_pinned() {
    let al = BootstrapAl::new(BootstrapConfig {
        committee_size: 24,
        seed_size: 10,
        batch_size: 10,
        ..Default::default()
    });
    let mut pool = pool();
    let result = al.select(&mut pool, 50);
    assert_eq!(result.labels_used, 50);
    let expected: Vec<usize> = vec![
        2, 5, 15, 16, 21, 22, 28, 33, 39, 48, 57, 61, 70, 77, 79, 88, 105, 108, 123, 146, 166, 180,
        185, 190, 204, 209, 254, 262, 285, 297, 301, 317, 341, 396, 406, 501, 502, 681, 711, 722,
        859, 1015, 1104, 1126, 1289, 1580, 1841, 2994, 3143, 3330,
    ];
    assert_eq!(result.selected_rows, expected);
}

#[test]
fn almser_selection_is_pinned() {
    let al = AlmserAl::new(AlmserConfig {
        seed_size: 10,
        batch_size: 10,
        forest: RandomForestConfig {
            n_trees: 12,
            max_depth: 8,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut pool = pool();
    let result = al.select(&mut pool, 50);
    assert_eq!(result.labels_used, 50);
    let expected: Vec<usize> = vec![
        1, 5, 13, 15, 24, 25, 30, 35, 40, 50, 54, 60, 61, 64, 90, 95, 112, 125, 139, 163, 181, 183,
        192, 204, 222, 224, 236, 254, 285, 303, 341, 406, 439, 472, 859, 1041, 1047, 1111, 1121,
        1289, 1491, 1580, 1841, 2060, 2285, 2994, 3143, 3330, 3340, 3365,
    ];
    assert_eq!(result.selected_rows, expected);
}
