//! # MoRER — Model Repositories for Entity Resolution
//!
//! A Rust reproduction of *"Efficient Model Repository for Entity
//! Resolution: Construction, Search, and Integration"* (Christen & Christen,
//! EDBT 2026), built as a workspace of focused crates and re-exported here
//! as one façade.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `morer-core` | the MoRER pipeline: distribution analysis, ER problem clustering, budgeted model generation, repository search & integration |
//! | [`serve`] | `morer-serve` | std-only concurrent HTTP/1.1 JSON service over the pipeline: `/search`, `/solve`, `/solve_batch`, `/ingest`, `/healthz`, `/stats` |
//! | [`data`] | `morer-data` | records, corruption, synthetic multi-source benchmarks, blocking, ER problems |
//! | [`sim`] | `morer-sim` | string/numeric similarity functions and comparison schemes |
//! | [`stats`] | `morer-stats` | histograms, ECDFs, KS / Wasserstein / PSI tests |
//! | [`graph`] | `morer-graph` | weighted graphs, Leiden/Louvain/label propagation/Girvan-Newman, min-cut, components |
//! | [`ml`] | `morer-ml` | decision trees, random forests, logistic regression, MLP, naive Bayes, metrics |
//! | [`al`] | `morer-al` | Bootstrap and Almser active learning |
//! | [`baselines`] | `morer-baselines` | TransER, ZeroErSim |
//!
//! ## API architecture
//!
//! The pipeline API is split into a read layer and a write layer:
//!
//! * **[`core::searcher::ModelSearcher`]** — the shared-read search service.
//!   Immutable and `Send + Sync`: `search(&self, …)`, `solve(&self, …)` and
//!   `solve_batch(&self, …)` (scoped-thread fan-out) can be called from any
//!   number of threads on one instance. Searching an empty repository is the
//!   typed [`core::error::MorerError::EmptyRepository`] — no sentinels.
//!   Search is **sub-linear**: every searcher carries a
//!   [`core::index::SearchIndex`] (an inverted index over quantized
//!   per-column sketch signatures plus a pivot/triangle pruning layer) that
//!   exactly re-scores only the entries whose provable similarity upper
//!   bound can still win — bit-identical results to the exhaustive scan
//!   ([`core::searcher::ModelSearcher::search_exhaustive`]), ~15× faster at
//!   500 entries (see `examples/repository_search_scale.rs`).
//! * **[`core::pipeline::Morer`]** — the writer. Wraps a searcher
//!   ([`core::pipeline::Morer::searcher`]) and adds repository construction,
//!   **streaming ingest** ([`core::pipeline::Morer::add_problems`]: O(P)
//!   sketch comparisons per insert,
//!   [`core::clustering::ReclusterPolicy`]-driven clustering maintenance,
//!   dirty-tracked retraining — bit-identical to a batch rebuild under the
//!   default `Always` policy) and `sel_cov` integration (graph growth,
//!   reclustering, coverage-triggered retraining). An empty repository in
//!   coverage mode trains a fresh model instead of panicking. Concurrent
//!   readers take epoch-pinned [`core::pipeline::Morer::snapshot`] handles
//!   that stay consistent while the writer ingests.
//! * **[`serve::MorerServer`]** — the deployable service over both layers
//!   (PR 5): a dependency-free HTTP/1.1 JSON server whose read endpoints
//!   (`POST /search`, `/solve`, `/solve_batch`) answer from the current
//!   epoch-pinned snapshot without ever blocking on the writer, whose
//!   `POST /ingest` micro-batches concurrent arrivals through a single
//!   writer thread into one recluster/retrain commit, and whose
//!   `GET /healthz` / `GET /stats` report epoch, model counts and lock-free
//!   per-endpoint latency metrics. Loopback `/solve` responses are
//!   bit-identical to in-process [`core::searcher::ModelSearcher::solve`]
//!   calls (see `examples/serve_demo.rs` and `crates/serve/tests/`).
//! * **[`core::repository::ModelRepository`]** — the persistence artifact.
//!   Its JSON form is versioned (`{"version": 1, …}`,
//!   [`core::error::REPOSITORY_FORMAT_VERSION`]); legacy version-less files
//!   load transparently and unknown future versions fail with the typed
//!   [`core::error::MorerError::UnsupportedVersion`].
//!
//! ## Quickstart
//!
//! ```
//! use morer::core::prelude::*;
//! use morer::data::{computer, DatasetScale};
//!
//! // a WDC-like multi-source product benchmark
//! let bench = computer(DatasetScale::Tiny, 42);
//!
//! // build the model repository from the solved problems (the writer API)
//! let config = MorerConfig { budget: 300, ..MorerConfig::default() };
//! let (mut morer, report) = Morer::build(bench.initial_problems(), &config);
//! println!("{} clusters, {} labels", report.num_clusters, report.labels_used);
//!
//! // solve the unsolved problems by model reuse through the shared-read
//! // searcher (&self — the same instance can serve any number of threads)
//! let (counts, outcomes) = morer.searcher().solve_and_score(&bench.unsolved_problems());
//! assert!(outcomes.iter().all(|o| o.entry.is_some()));
//! println!("P={:.2} R={:.2} F1={:.2}", counts.precision(), counts.recall(), counts.f1());
//!
//! // stream a newly solved problem back into the repository: O(P) sketch
//! // comparisons per insert and dirty-tracked retraining — under the
//! // default ReclusterPolicy::Always this is bit-identical to rebuilding
//! // the repository from scratch over all problems
//! let ingest = morer.add_problem(bench.unsolved_problems()[0]).unwrap();
//! println!(
//!     "+{} edges, {} clusters touched, {} labels",
//!     ingest.edges_added, ingest.clusters_touched, ingest.labels_spent,
//! );
//!
//! // concurrent readers hold an epoch-pinned snapshot while the writer
//! // keeps ingesting: the Arc<ModelSearcher> handle never changes under them
//! let snapshot = morer.snapshot();
//! assert_eq!(snapshot.num_models(), morer.num_models());
//!
//! // persist for a search-only service process (versioned JSON)
//! let mut buf = Vec::new();
//! morer.repository().save_json(&mut buf).unwrap();
//! let served = ModelSearcher::from_repository(
//!     ModelRepository::load_json(&buf[..]).unwrap(),
//!     &config,
//! );
//! assert_eq!(served.num_models(), morer.num_models());
//! ```

pub use morer_al as al;
pub use morer_baselines as baselines;
pub use morer_core as core;
pub use morer_data as data;
pub use morer_graph as graph;
pub use morer_ml as ml;
pub use morer_serve as serve;
pub use morer_sim as sim;
pub use morer_stats as stats;
