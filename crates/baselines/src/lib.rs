//! # morer-baselines — the compared ER methods of the paper's evaluation
//!
//! * [`transer::TransEr`] — homogeneous transfer learning (Kirielle et al.,
//!   EDBT 2022): k-NN instance transfer from the solved problems with class
//!   confidence `t_c`, structural similarity `t_l` and pseudo-label
//!   confidence `t_p`, then a target-side classifier;
//! * [`zeroer::ZeroErSim`] — unsupervised two-component Gaussian mixture on
//!   the similarity features (ZeroER, related work §3).
//!
//! The paper's language-model matchers (Sudowoodo, AnyMatch, Ditto,
//! Unicorn) are not reproduced: they need pretrained language-model
//! weights. Every method shares the [`ErBaseline`] interface so the harness
//! can time them uniformly.

pub mod gmm;
pub mod transer;
pub mod zeroer;

use morer_data::ErProblem;
use morer_ml::metrics::PairCounts;

/// Everything a baseline needs: the solved problems (training side), the
/// unsolved problems (evaluation side), and the labeling regime.
pub struct BaselineContext<'a> {
    /// Solved problems `P_I` — training data providers.
    pub initial: Vec<&'a ErProblem>,
    /// Unsolved problems `P_U` — what gets classified and scored.
    pub unsolved: Vec<&'a ErProblem>,
    /// Fraction of the initial problems' labels available to supervised
    /// methods (the paper's "50%" / "all" columns).
    pub train_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Result of one baseline run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Micro-averaged confusion counts over all unsolved problems.
    pub counts: PairCounts,
    /// Ground-truth labels consumed (budget or |training data|).
    pub labels_used: usize,
}

/// Common interface for all compared methods.
pub trait ErBaseline {
    /// Method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Train and classify; the harness times this call for Fig. 5 / Table 5.
    fn run(&self, ctx: &BaselineContext<'_>) -> BaselineRun;
}

/// Helper: score predictions for one problem into counts.
pub(crate) fn score_problem(counts: &mut PairCounts, predictions: &[bool], problem: &ErProblem) {
    for (&pred, &actual) in predictions.iter().zip(&problem.labels) {
        counts.record(pred, actual);
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use morer_data::{computer, DatasetScale};

    /// A small but realistic multi-source benchmark shared by baseline tests.
    pub fn tiny_context(bench: &'_ morer_data::Benchmark) -> BaselineContext<'_> {
        BaselineContext {
            initial: bench.initial_problems(),
            unsolved: bench.unsolved_problems(),
            train_fraction: 1.0,
            seed: 7,
        }
    }

    pub fn tiny_benchmark() -> morer_data::Benchmark {
        computer(DatasetScale::Tiny, 7)
    }
}
