//! # morer-core — the MoRER model repository for entity resolution
//!
//! Reproduction of the paper's primary contribution (§4): build a repository
//! of ER classification models from solved ER problems, search it for the
//! right model when a new problem arrives, and integrate new problems by
//! reclustering and coverage-triggered retraining.
//!
//! Pipeline (paper Fig. 3):
//!
//! 1. **Similarity distribution analysis** ([`distribution`]) — pairwise
//!    `sim_p` between ER problems via KS / Wasserstein / PSI univariate tests
//!    (stddev-weighted feature aggregation) or the classifier two-sample test;
//! 2. **ER problem clustering** ([`clustering`]) — Leiden over the ER problem
//!    similarity graph `G_P` (Louvain / label propagation / Girvan-Newman as
//!    ablations);
//! 3. **Model generation** ([`generation`], [`budget`]) — one classifier per
//!    cluster, trained on AL-selected (Bootstrap or Almser) or fully
//!    supervised data under the budget allocation of Eqs. 4-9;
//! 4. **Processing new ER problems** ([`selection`]) — `sel_base` picks the
//!    most similar cluster's model; `sel_cov` integrates the problem into
//!    `G_P`, reclusters, and retrains when the unsolved coverage (Eq. 13)
//!    exceeds `t_cov` with the budget of Eq. 14;
//! 5. **Classification** — the chosen model labels the problem's feature
//!    vectors.
//!
//! ## API architecture
//!
//! The pipeline is split into two layers:
//!
//! * [`searcher::ModelSearcher`] — the immutable, `Send + Sync` read path.
//!   It owns the repository entries and serves `sel_base` model search
//!   through `&self` (`search`, `solve`, `solve_batch`), so one searcher can
//!   be shared by any number of threads. Failure modes are typed
//!   ([`error::MorerError`], e.g. `EmptyRepository` from `search`), never
//!   sentinels. Search runs sub-linearly through an [`index::SearchIndex`]
//!   — a two-level candidate index (quantized signatures + pivot/triangle
//!   pruning) over the entries' distribution sketches, published
//!   copy-on-write like the entry store and bit-identical to exhaustive
//!   scoring (recall-1; C2ST and options drift fall back exhaustively).
//! * [`pipeline::Morer`] — the writer. It wraps a searcher and adds
//!   everything that mutates state: construction, streaming ingest
//!   ([`pipeline::Morer::add_problems`] — O(P) analysis per insert,
//!   [`clustering::ReclusterPolicy`]-driven clustering maintenance,
//!   dirty-tracked retraining), `sel_cov` graph integration, reclustering
//!   and coverage-triggered retraining. [`pipeline::Morer::snapshot`] hands
//!   concurrent readers an epoch-pinned `Arc<ModelSearcher>` that stays
//!   consistent while the writer keeps ingesting.
//!
//! [`repository::ModelRepository`] is the serializable artifact both layers
//! are built from; its JSON form carries a `version` header
//! ([`error::REPOSITORY_FORMAT_VERSION`]), loads legacy version-less files,
//! and rejects unknown future versions with a typed error.
//!
//! The writer can additionally be made crash-safe ([`wal`]): an attached
//! append-only commit log persists every committed mutation batch at
//! O(dirty) cost (optionally fsync-acknowledged), and
//! [`pipeline::Morer::open`] recovers the exact last-committed state by
//! loading the latest base snapshot and replaying the valid log suffix —
//! torn or bit-flipped log tails are detected by per-record length prefix
//! + content hash and truncated, never replayed. The same self-delimiting,
//! content-hashed framing makes the log *shippable*: [`replication`] holds
//! the one replay state machine ([`replication::FollowerState`]) that
//! recovery runs over the log on disk and a replica runs over a leader's
//! shipped log (any byte transport; the HTTP one lives in `morer-serve`),
//! so a replica serves reads at a bounded epoch lag.
//!
//! ```
//! use morer_core::prelude::*;
//! use morer_data::{computer, DatasetScale};
//!
//! let bench = computer(DatasetScale::Tiny, 7);
//! let config = MorerConfig { budget: 200, ..MorerConfig::default() };
//! let (mut morer, report) = Morer::build(bench.initial_problems(), &config);
//! assert!(report.labels_used <= 200);
//! let outcome = morer.solve(&bench.problems[bench.unsolved[0]]);
//! assert_eq!(outcome.predictions.len(), bench.problems[bench.unsolved[0]].num_pairs());
//! ```

pub mod budget;
pub mod clustering;
pub mod config;
pub mod distribution;
pub mod error;
pub mod generation;
pub mod index;
pub mod pipeline;
pub mod replication;
pub mod repository;
pub mod searcher;
pub mod selection;
pub mod stability;
#[cfg(any(test, feature = "testutil"))]
#[doc(hidden)]
pub mod testutil;
pub mod wal;

/// Convenient re-exports of the main API surface.
pub mod prelude {
    pub use crate::clustering::{ClusteringAlgorithm, ReclusterPolicy};
    pub use crate::config::{AlMethod, MorerConfig, SelectionStrategy, TrainingMode};
    pub use crate::distribution::{AnalysisOptions, DistributionSketch, DistributionTest};
    pub use crate::error::{MorerError, REPOSITORY_FORMAT_VERSION, WAL_FORMAT_VERSION};
    pub use crate::index::{IndexOverview, IndexStats, SearchIndex};
    pub use crate::pipeline::{BuildReport, IngestReport, Morer};
    pub use crate::replication::{FollowerState, LogSegment, SegmentReport, SegmentStatus};
    pub use crate::repository::{ClusterEntry, ModelRepository};
    pub use crate::searcher::{EntryId, ModelSearcher, SearchHit, SolveOutcome};
    pub use crate::stability::{ClusterStability, StabilityReport};
    pub use crate::wal::{Durability, DurabilityState, WalOptions};
}

pub use prelude::*;
