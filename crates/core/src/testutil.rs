//! Shared test fixtures: repository entries / query problems drawn from
//! configurable distribution families, so tests can build distinguishable
//! families without copy-pasting builders.
//!
//! Not part of the public API: the module is compiled into the library
//! (hidden from docs) so integration tests and dependent crates' test
//! suites — `crates/core/tests/`, `crates/serve/tests/` — can share the
//! same fixtures as the unit tests instead of re-triplicating them.

use std::ops::Deref;
use std::path::{Path, PathBuf};

use crate::repository::ClusterEntry;
use morer_data::ErProblem;
use morer_ml::dataset::FeatureMatrix;
use morer_ml::model::{ModelConfig, TrainedModel};
use morer_ml::TrainingSet;

/// A problem drawn deterministically from one of two well-separated
/// distribution families: family 0 matches around 0.88 (non-matches
/// 0.12), any other family around 0.58 (non-matches 0.38) — far enough
/// apart that one model cannot serve both, so clustering splits them.
pub fn family_problem(id: usize, family: u8, n: usize) -> ErProblem {
    let (match_mu, nonmatch_mu) = match family {
        0 => (0.88, 0.12),
        _ => (0.58, 0.38),
    };
    let mut features = FeatureMatrix::new(2);
    let mut labels = Vec::new();
    let mut pairs = Vec::new();
    for i in 0..n {
        let jitter = ((i * 29 + id * 7) % 40) as f64 / 400.0;
        let is_match = i % 3 == 0;
        let base = if is_match { match_mu } else { nonmatch_mu };
        features.push_row(&[(base + jitter).min(1.0), (base + jitter * 0.7).min(1.0)]);
        labels.push(is_match);
        pairs.push(((id * n + i) as u32, (id * n + i + 1_000_000) as u32));
    }
    ErProblem {
        id,
        sources: (id, id + 1),
        pairs,
        features,
        labels,
        feature_names: vec!["f0".into(), "f1".into()],
    }
}

/// 100 alternating match/non-match rows: matches near `mu`, non-matches
/// near 0.1, with a small deterministic jitter.
fn rows_with_mu(mu: f64) -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..100 {
        let jitter = (i % 10) as f64 / 100.0;
        let is_match = i % 2 == 0;
        let v = if is_match { mu } else { 0.1 } + jitter;
        rows.push(vec![v.min(1.0), (v * 0.9).min(1.0)]);
        labels.push(is_match);
    }
    (rows, labels)
}

/// A trained GaussianNB cluster entry whose representatives match around
/// `mu`.
pub fn entry_with_mu(id: usize, mu: f64) -> ClusterEntry {
    let (rows, labels) = rows_with_mu(mu);
    let training = TrainingSet::from_rows(&rows, &labels);
    let model = TrainedModel::train(&ModelConfig::GaussianNb, &training);
    ClusterEntry::new(id, vec![id], model, training, 100)
}

/// A query ER problem drawn from the same family as
/// [`entry_with_mu`]`(_, mu)`.
pub fn problem_with_mu(id: usize, mu: f64) -> ErProblem {
    let (rows, labels) = rows_with_mu(mu);
    let mut features = FeatureMatrix::new(2);
    let mut pairs = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        features.push_row(r);
        pairs.push((i as u32, (i + 500) as u32));
    }
    ErProblem {
        id,
        sources: (id, id + 1),
        pairs,
        features,
        labels,
        feature_names: vec!["f0".into(), "f1".into()],
    }
}

/// A scratch directory that is removed, with its contents, when dropped.
/// A path the test has already removed is ignored.
pub struct ScratchDir(pub PathBuf);

impl Deref for ScratchDir {
    type Target = PathBuf;

    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
