//! # morer-al — active learning for multi-source entity resolution
//!
//! The two training-data selection methods MoRER integrates (paper §4.4),
//! plus a random baseline:
//!
//! * [`bootstrap::BootstrapAl`] — the uncertainty method of Mozafari et al.:
//!   a committee of `k` classifiers trained on bootstrap resamples scores
//!   each unlabeled vector with `unc(w) = p̂(1 − p̂)` (Eq. 10), optionally
//!   weighted by the IDF-like record-uniqueness score of Eqs. 11-12;
//! * [`almser::AlmserAl`] — graph-boosted AL (Primpeli & Bizer): a match
//!   graph built from current predictions yields transitive-closure
//!   false-negative candidates, weak-min-cut false-positive candidates, and
//!   graph-inferred labels from cleaned connected components (collected,
//!   not yet used for training);
//! * [`random::RandomAl`] — uniform sampling under the same budget.
//!
//! All learners operate on an [`pool::AlPool`] — the flattened unlabeled
//! vectors of one problem cluster — and return the labeled training set plus
//! the set of selected vectors (`P_C`, the cluster representatives MoRER
//! stores for model search).

pub mod almser;
pub mod bootstrap;
pub mod pool;
pub mod random;
pub mod uniqueness;

pub use almser::{AlmserAl, AlmserConfig};
pub use bootstrap::{BootstrapAl, BootstrapConfig};
pub use pool::{AlPool, AlResult};
pub use random::RandomAl;
pub use uniqueness::UniquenessIndex;

/// A training-data selection strategy operating under a labeling budget.
pub trait ActiveLearner {
    /// Human-readable method name ("almser", "bootstrap", "random").
    fn name(&self) -> &'static str;

    /// Spend up to `budget` label queries on `pool` and return the labeled
    /// training data and selected row indices.
    fn select(&self, pool: &mut AlPool, budget: usize) -> AlResult;
}
