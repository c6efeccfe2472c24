//! The stateful MoRER pipeline writer: build the repository from the initial
//! problems (paper Fig. 3, steps 1-3), grow it incrementally as new solved
//! problems stream in, and solve new problems with the configured selection
//! strategy (steps 4-5).
//!
//! [`Morer`] is the mutable half of the two-layer API: it wraps the
//! immutable, thread-shareable [`ModelSearcher`] (the `sel_base` read path)
//! and adds everything that mutates repository state — construction,
//! streaming ingest, `sel_cov` graph integration, reclustering and
//! coverage-triggered retraining. Read-only deployments should persist the
//! repository and serve it through [`ModelSearcher`] (or [`Morer::searcher`])
//! instead of holding a `&mut Morer` per caller.
//!
//! # Incremental construction
//!
//! [`Morer::build`] is a thin wrapper over the streaming ingest subsystem:
//! it creates an empty pipeline and ingests the initial problems in one
//! full-recluster batch. [`Morer::add_problems`] ingests later arrivals at
//! O(P) analysis cost per insert — only the arrivals are sketched, and each
//! is scored against the stored per-problem sketches
//! ([`extend_problem_graph_sketched`]) instead of rebuilding the O(P²)
//! problem graph. Clustering maintenance follows the configured
//! [`crate::clustering::ReclusterPolicy`], and training is dirty-tracked:
//! only clusters whose membership (or generation budget) changed retrain,
//! which under [`crate::clustering::ReclusterPolicy::Always`] is
//! bit-identical to a batch rebuild because generation training is
//! deterministic in those inputs.
//!
//! Concurrent readers stay consistent during writes through
//! [`Morer::snapshot`]: an `Arc<ModelSearcher>` handle that is swapped after
//! each committed mutation batch, so a snapshot taken before an ingest keeps
//! serving its epoch unchanged.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::budget::{allocate, BudgetAllocation};
use crate::clustering::attach_node;
use crate::config::{MorerConfig, SelectionStrategy, TrainingMode};
use crate::distribution::{extend_problem_graph_sketched, DistributionSketch};
use crate::error::MorerError;
use crate::generation::{
    build_uniqueness_index, cluster_seed, make_learner, supervised_training, train_cluster,
};
use crate::repository::{ClusterEntry, ModelRepository};
use crate::wal::{CommitRecordRef, DurabilityState, Wal, WalObs, WalOptions};
use crate::searcher::ModelSearcher;
pub use crate::searcher::SolveOutcome;
use crate::selection::{classify, coverage, retrain_budget};
use morer_al::AlPool;
use morer_data::ErProblem;
use morer_graph::community::Clustering;
use morer_graph::Graph;
use morer_ml::metrics::PairCounts;
use morer_ml::model::TrainedModel;

/// Wall-clock breakdown of pipeline phases (Fig. 5's shaded areas).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Pairwise distribution analysis.
    pub analysis: Duration,
    /// Graph clustering (incl. re-clustering during ingest and `sel_cov`).
    pub clustering: Duration,
    /// Training-data selection + model training.
    pub training: Duration,
    /// Model search for new problems.
    pub selection: Duration,
}

/// Report returned by [`Morer::build`].
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Number of clusters (= models) created.
    pub num_clusters: usize,
    /// Oracle labels spent (0 in supervised mode).
    pub labels_used: usize,
    /// Phase timings.
    pub timings: Timings,
}

/// What one [`Morer::add_problems`] ingest batch did to the repository.
///
/// Wire-facing: serializes as a JSON map (the `morer-serve` `/ingest`
/// response body). When the server micro-batches several concurrent ingest
/// requests into one commit, every requester receives this same combined
/// report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Problems integrated by this batch.
    pub problems_added: usize,
    /// Graph edges added (pairs with `sim_p >= min_edge_similarity`).
    pub edges_added: usize,
    /// Whether the full clustering reran (vs incremental attachment), per
    /// the configured [`crate::clustering::ReclusterPolicy`].
    pub reclustered: bool,
    /// Clusters whose membership or generation budget changed (dirty
    /// clusters), including clusters dissolved by a full recluster. With
    /// `use_uniqueness_score` enabled, a full recluster conservatively
    /// counts *every* cluster (the uniqueness index is a function of the
    /// whole clustering, so all entries trained with it are invalidated).
    pub clusters_touched: usize,
    /// Existing models retrained (dirty-cluster retraining).
    pub models_retrained: usize,
    /// Brand-new models trained (fresh clusters).
    pub new_models: usize,
    /// Oracle labels spent by this batch (0 in supervised mode).
    pub labels_spent: usize,
    /// The repository epoch after the batch committed (see
    /// [`Morer::epoch`]).
    pub epoch: u64,
}

/// The MoRER pipeline writer: repository construction, streaming ingest,
/// search, and integration.
#[derive(Debug)]
pub struct Morer {
    pub(crate) config: MorerConfig,
    /// All integrated problems (positional indexing; `ErProblem::id` is kept
    /// as caller metadata only).
    pub(crate) problems: Vec<ErProblem>,
    /// `in_t[p]`: problem `p` has been used for training-data selection (T
    /// vs. U of §4.5).
    in_t: Vec<bool>,
    /// The ER problem similarity graph `G_P`.
    pub(crate) graph: Graph,
    /// One distribution sketch per integrated problem (aligned with
    /// `problems`) — built once at construction / ingest time and reused by
    /// every later pairwise analysis.
    pub(crate) sketches: Vec<DistributionSketch>,
    /// Current clustering of `G_P`.
    pub(crate) clustering: Clustering,
    /// The shared-read search layer owning the repository entries.
    pub(crate) searcher: ModelSearcher,
    /// Total vectors across all integrated problems — construction,
    /// streaming ingest and `sel_cov` integration alike (the fresh-cluster
    /// budget-share denominator of [`Morer::train_fresh_entry`]).
    initial_vectors: usize,
    labels_used: usize,
    /// Problems placed by incremental attachment since the last full
    /// recluster (drives [`crate::clustering::ReclusterPolicy`]).
    inserts_since_recluster: usize,
    /// Number of leading repository entries that are *not* backed by
    /// tracked problems: entries restored via [`Morer::from_repository`],
    /// whose `problem_ids` reference the old writer's (discarded) index
    /// space. Non-zero counts pin ingest to the incremental-attach path (a
    /// full regeneration could not retrain the restored entries and would
    /// silently drop them) and exclude those entries from overlap-based
    /// reuse (their stale ids would collide with new arrival indices).
    /// Entries are only ever appended outside full regeneration, so the
    /// orphans stay at positions `0..orphan_entries`.
    orphan_entries: usize,
    /// Monotone counter of committed repository mutations.
    epoch: u64,
    /// The current snapshot handle, rebuilt lazily after each commit.
    snapshot: Option<Arc<ModelSearcher>>,
    /// Entry positions touched since the last commit — the O(dirty) set a
    /// WAL commit record carries. Tracked explicitly (not by `Arc` pointer
    /// comparison: `Arc::make_mut` keeps the pointer at refcount 1) and
    /// drained by [`Morer::commit`] whether or not a log is attached.
    dirty: BTreeSet<usize>,
    /// The attached write-ahead log, when this writer is durable.
    wal: Option<Wal>,
    /// Set when a WAL append/compaction failed: the log tail is suspect, so
    /// further commits are refused (typed I/O error from
    /// [`Morer::add_problems`]) until the state is recovered via
    /// [`Morer::open`] — or repaired in place with [`Morer::repair_wal`]
    /// when the failure was transient. The in-memory pipeline itself stays
    /// valid for reads.
    wal_poisoned: Option<String>,
    /// Durability stage timings (append/fsync/compact/recovery), injected
    /// into whatever log is attached so the series survives log
    /// replacement across [`Morer::repair_wal`]. Always present — an
    /// in-memory-only writer just never records into it.
    wal_obs: Arc<WalObs>,
    /// When set, commits append *deferred* (no per-record fsync) and only
    /// become durable at the next [`Morer::flush_wal`] — group commit. See
    /// [`Morer::set_group_commit`].
    group_commit: bool,
    /// Accumulated phase timings.
    pub timings: Timings,
}

/// Cloning a writer duplicates its in-memory state but **detaches
/// durability**: two writers appending to the same log would interleave
/// epochs, so the clone's write-ahead log is `None` — attach its own with
/// [`Morer::attach_wal`] if the twin should persist too.
impl Clone for Morer {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            problems: self.problems.clone(),
            in_t: self.in_t.clone(),
            graph: self.graph.clone(),
            sketches: self.sketches.clone(),
            clustering: self.clustering.clone(),
            searcher: self.searcher.clone(),
            initial_vectors: self.initial_vectors,
            labels_used: self.labels_used,
            inserts_since_recluster: self.inserts_since_recluster,
            orphan_entries: self.orphan_entries,
            epoch: self.epoch,
            snapshot: self.snapshot.clone(),
            dirty: self.dirty.clone(),
            wal: None,
            wal_poisoned: self.wal_poisoned.clone(),
            // durability is detached, so the twin meters its own (future)
            // log rather than polluting this writer's series
            wal_obs: Arc::new(WalObs::default()),
            group_commit: self.group_commit,
            timings: self.timings,
        }
    }
}

impl Morer {
    /// An empty pipeline: no problems, no entries, epoch 0.
    fn empty(config: &MorerConfig) -> Self {
        Self {
            config: config.clone(),
            problems: Vec::new(),
            in_t: Vec::new(),
            graph: Graph::new(0),
            sketches: Vec::new(),
            clustering: Clustering::from_assignment(&[]),
            searcher: ModelSearcher::new(Vec::new(), config.analysis_options()),
            initial_vectors: 0,
            labels_used: 0,
            inserts_since_recluster: 0,
            orphan_entries: 0,
            epoch: 0,
            snapshot: None,
            dirty: BTreeSet::new(),
            wal: None,
            wal_poisoned: None,
            wal_obs: Arc::new(WalObs::default()),
            group_commit: false,
            timings: Timings::default(),
        }
    }

    /// Build the repository from the initial problems `P_I` (steps 1-3 of
    /// Fig. 3). This is a thin wrapper over the ingest subsystem: one
    /// full-recluster [`Morer::add_problems`]-style batch into an empty
    /// pipeline (the configured
    /// [`crate::clustering::ReclusterPolicy`] only governs *later*
    /// arrivals — construction always clusters the whole graph).
    pub fn build(initial: Vec<&ErProblem>, config: &MorerConfig) -> (Self, BuildReport) {
        let mut morer = Self::empty(config);
        let ingest = morer
            .ingest(&initial, true)
            .expect("a fresh pipeline has no write-ahead log to fail on");
        let report = BuildReport {
            num_clusters: morer.searcher.num_models(),
            labels_used: ingest.labels_spent,
            timings: morer.timings,
        };
        (morer, report)
    }

    /// Reconstruct a writer pipeline from a persisted repository.
    /// `sel_base` solving works immediately; `sel_cov` and
    /// [`Morer::add_problems`] will treat every new problem as
    /// out-of-repository and train fresh models. Because the restored
    /// entries' original problems (and their sketches) are gone, ingest is
    /// pinned to the incremental-attach path — a full recluster could not
    /// regenerate the restored entries, whatever
    /// [`MorerConfig::recluster`](crate::config::MorerConfig::recluster)
    /// says. Deployments that only search should use
    /// [`ModelSearcher::from_repository`] instead — it is `Sync` and needs
    /// no `&mut` per caller.
    pub fn from_repository(repository: ModelRepository, config: &MorerConfig) -> Self {
        let orphan_entries = repository.entries.len();
        Self {
            searcher: ModelSearcher::new(repository.entries, config.analysis_options()),
            orphan_entries,
            ..Self::empty(config)
        }
    }

    /// Recover a durable writer from a write-ahead-log directory (see
    /// [`crate::wal`]): load the latest base snapshot, replay the valid log
    /// records to the last committed epoch — stopping cleanly at the first
    /// torn/corrupt record — and return the pipeline with the log attached
    /// (default [`WalOptions`]: fsync-acknowledged appends). A directory
    /// with no durable state yet starts a fresh empty durable pipeline, so
    /// `open` doubles as "create or recover". Like
    /// [`Morer::from_repository`], the recovered writer treats its restored
    /// entries as search-only history and trains fresh models for new
    /// arrivals.
    ///
    /// # Errors
    /// See [`Wal::open`] — torn/bit-flipped log *tails* are recovered from,
    /// never reported as errors.
    pub fn open(dir: &Path, config: &MorerConfig) -> Result<Self, MorerError> {
        Self::open_with(dir, config, WalOptions::default())
    }

    /// [`Morer::open`] with explicit [`WalOptions`] (durability mode and
    /// auto-compaction threshold).
    pub fn open_with(
        dir: &Path,
        config: &MorerConfig,
        options: WalOptions,
    ) -> Result<Self, MorerError> {
        let recovered = Wal::open(dir, options)?;
        let mut morer = Self::from_repository(recovered.repository, config);
        morer.epoch = recovered.epoch;
        morer.wal_obs.record_recovery(recovered.replayed, recovered.truncated_bytes);
        let mut wal = recovered.wal;
        wal.set_obs(Arc::clone(&morer.wal_obs));
        morer.wal = Some(wal);
        Ok(morer)
    }

    /// Make this writer durable: publish the current repository as the base
    /// snapshot in `dir` and append a commit record there on every later
    /// commit. Refuses (typed `AlreadyExists` I/O error) to attach over a
    /// directory that already holds durable state — recover that with
    /// [`Morer::open`] instead.
    pub fn attach_wal(&mut self, dir: &Path, options: WalOptions) -> Result<(), MorerError> {
        let mut wal = Wal::create(dir, options, &self.searcher.repository(), self.epoch)?;
        wal.set_obs(Arc::clone(&self.wal_obs));
        self.wal = Some(wal);
        self.wal_poisoned = None;
        Ok(())
    }

    /// Fold the attached log into a fresh base snapshot (atomic tmp-file +
    /// rename publication, then log truncation). A no-op without an
    /// attached log. Also runs automatically after a commit once the log
    /// holds [`WalOptions::compact_every`] records.
    pub fn compact(&mut self) -> Result<(), MorerError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let repository = self.searcher.repository();
        let epoch = self.epoch;
        let wal = self.wal.as_mut().expect("checked above");
        if let Err(e) = wal.compact(&repository, epoch) {
            self.wal_poisoned = Some(e.to_string());
            return Err(e);
        }
        Ok(())
    }

    /// Durability observability of the attached log (log length, last
    /// durable epoch, compaction count), or `None` for an in-memory-only
    /// writer.
    pub fn durability(&self) -> Option<DurabilityState> {
        self.wal.as_ref().map(Wal::state)
    }

    /// The directory of the attached write-ahead log, or `None` for an
    /// in-memory-only writer (a log-shipping leader reads segments from
    /// this directory concurrently with the writer).
    pub fn wal_dir(&self) -> Option<PathBuf> {
        self.wal.as_ref().map(|w| w.dir().to_path_buf())
    }

    /// Switch the attached log between per-commit fsync (the default) and
    /// **group commit**: with group commit on, each commit's record is
    /// written but not synced, and one [`Morer::flush_wal`] makes every
    /// commit since the last flush durable with a single `fdatasync`.
    ///
    /// The acknowledgement contract moves with the mode: under group commit
    /// a commit must not be acknowledged to anyone until `flush_wal`
    /// returns `Ok` — exactly how the `morer-serve` writer batches several
    /// queued `/ingest` micro-batches into one sync. In-memory-only writers
    /// ignore the flag.
    pub fn set_group_commit(&mut self, enabled: bool) {
        self.group_commit = enabled;
    }

    /// Whether commits defer their fsync to [`Morer::flush_wal`].
    pub fn group_commit(&self) -> bool {
        self.group_commit
    }

    /// The poison message of a failed log write, or `None` while the write
    /// path is healthy. While poisoned, commits are refused;
    /// [`Morer::repair_wal`] attempts recovery.
    pub fn wal_poisoned(&self) -> Option<&str> {
        self.wal_poisoned.as_deref()
    }

    /// The durability stage-timing counters ([`WalObs`]): append, fsync
    /// and compaction micros plus recovery totals. Stable across
    /// [`Morer::repair_wal`] log replacement, so a serving layer can
    /// capture the `Arc` once and scrape it forever (the `morer-serve`
    /// `/metrics` endpoint does). All zeros for an in-memory-only writer.
    pub fn wal_obs(&self) -> Arc<WalObs> {
        Arc::clone(&self.wal_obs)
    }

    /// Make every deferred (group-commit) append durable: one `fdatasync`
    /// covering all commits since the last flush. A no-op without an
    /// attached log, without pending appends, or under
    /// [`crate::wal::Durability::Buffered`].
    ///
    /// # Errors
    /// [`MorerError::Io`] when the sync fails — the pending commits are
    /// *not* durable and the pipeline poisons itself, exactly as a failed
    /// [`Wal::append`] would.
    pub fn flush_wal(&mut self) -> Result<(), MorerError> {
        let Some(wal) = self.wal.as_mut() else { return Ok(()) };
        if let Err(e) = wal.sync() {
            self.wal_poisoned = Some(e.to_string());
            return Err(e);
        }
        Ok(())
    }

    /// Attempt to recover a poisoned write-ahead log **in place**, without
    /// abandoning the in-memory pipeline: re-open the log directory (which
    /// truncates whatever suspect tail the failed append left behind), then
    /// publish the *current in-memory repository* as a fresh base snapshot
    /// at the current epoch. On success the poison is cleared and commits
    /// flow again — nothing that was acknowledged is lost, and the commits
    /// that failed (in memory, never acknowledged durable) are folded into
    /// the new base rather than replayed.
    ///
    /// Returns `Ok(false)` when there was nothing to repair (not poisoned),
    /// `Ok(true)` when the log is healthy again. The intended caller is a
    /// serving layer probing periodically after a transient disk failure
    /// (the `morer-serve` writer does exactly that, with bounded pacing).
    ///
    /// # Errors
    /// [`MorerError::Io`] / [`MorerError::LogCorrupt`] when the disk is
    /// still failing — the pipeline stays poisoned and the probe can simply
    /// be retried later; no state is modified on failure.
    pub fn repair_wal(&mut self) -> Result<bool, MorerError> {
        if self.wal_poisoned.is_none() {
            return Ok(false);
        }
        let Some(old) = self.wal.as_ref() else {
            // poisoned but log-less (a detached clone): the in-memory state
            // is the only truth there is — clearing the flag is the repair
            self.wal_poisoned = None;
            return Ok(true);
        };
        let (dir, options) = (old.dir().to_path_buf(), old.options());
        // re-open first: this truncates the suspect tail the failed append
        // left, and fails cleanly (old wal + poison kept) if the disk is
        // still gone
        let recovered = Wal::open(&dir, options)?;
        self.wal_obs.record_recovery(recovered.replayed, recovered.truncated_bytes);
        let mut wal = recovered.wal;
        wal.set_obs(Arc::clone(&self.wal_obs));
        // the in-memory pipeline is ahead of the durable state (the failed
        // commits mutated memory but never reached disk): publish it
        // wholesale as the new base at the in-memory epoch
        wal.compact(&self.searcher.repository(), self.epoch)?;
        self.wal = Some(wal);
        self.wal_poisoned = None;
        // any dirty ids drained by the failed commits are covered by the
        // full base publication
        self.dirty.clear();
        Ok(true)
    }

    /// The shared-read search layer. Borrow it to serve `sel_base`
    /// searches from many threads at once; clone it (or take a
    /// [`Morer::snapshot`]) for a frozen snapshot that outlives the writer.
    pub fn searcher(&self) -> &ModelSearcher {
        &self.searcher
    }

    /// Consume the writer, keeping only the search layer.
    pub fn into_searcher(self) -> ModelSearcher {
        self.searcher
    }

    /// An immutable snapshot handle of the current repository state: an
    /// `Arc<ModelSearcher>` that any number of reader threads can hold and
    /// query while this writer keeps ingesting. The handle is rebuilt and
    /// swapped after each committed mutation batch ([`Morer::add_problems`],
    /// `sel_cov` retrains), never mutated in place — so a snapshot taken
    /// before an ingest keeps serving its epoch unchanged, and concurrent
    /// searchers never observe a half-updated repository.
    ///
    /// Cost: the handle is built lazily — at most once per committed epoch,
    /// and only when a snapshot is actually requested (repeated calls within
    /// an epoch return the same `Arc`). Publication is O(entries) *pointer*
    /// clones: the entry store is `Arc`-shared, so deep entry copies happen
    /// copy-on-write only for the entries a later commit actually touches —
    /// O(dirty), not O(repository) (pinned by the pointer-equality test in
    /// `crates/core/tests/ingest.rs`).
    pub fn snapshot(&mut self) -> Arc<ModelSearcher> {
        if self.snapshot.is_none() {
            self.snapshot = Some(Arc::new(self.searcher.clone()));
        }
        Arc::clone(self.snapshot.as_ref().expect("just filled"))
    }

    /// Monotone counter of committed **repository** (entry-store)
    /// mutations: if two [`Morer::epoch`] reads agree, the entries a
    /// searcher would serve did not change between them, and every
    /// [`Morer::snapshot`] handle belongs to exactly one epoch. Writer-side
    /// bookkeeping that leaves the entries untouched — e.g. a `sel_cov`
    /// solve that reuses a model without retraining still grows the problem
    /// graph — does not advance the epoch (the existing snapshot stays
    /// exact).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Snapshot the repository for persistence.
    pub fn repository(&self) -> ModelRepository {
        self.searcher.repository()
    }

    /// Total oracle labels spent (construction + ingest + integration).
    pub fn labels_used(&self) -> usize {
        self.labels_used
    }

    /// Number of models currently stored.
    pub fn num_models(&self) -> usize {
        self.searcher.num_models()
    }

    /// Current number of integrated problems.
    pub fn num_problems(&self) -> usize {
        self.problems.len()
    }

    /// The feature-space width `t` every integrated problem shares (§4.2:
    /// one comparison scheme per repository), or `None` while the pipeline
    /// is empty — the first arrival fixes it. [`Morer::add_problems`]
    /// rejects problems of a different width with
    /// [`MorerError::InvalidProblem`].
    pub fn num_features(&self) -> Option<usize> {
        self.problems
            .first()
            .map(ErProblem::num_features)
            .or_else(|| self.searcher.num_features())
    }

    /// Weight of the problem-graph edge between the problems at positions
    /// `i` and `j`, if one survived the `min_edge_similarity` pruning
    /// (observability for the ingest invariance tests and benches).
    pub fn problem_graph_edge(&self, i: usize, j: usize) -> Option<f64> {
        self.graph.edge_weight(i, j)
    }

    /// Ingest one newly solved problem into the repository — see
    /// [`Morer::add_problems`].
    pub fn add_problem(&mut self, problem: &ErProblem) -> Result<IngestReport, MorerError> {
        self.add_problems(&[problem])
    }

    /// Ingest a batch of newly solved source-pair problems into the
    /// repository without a full rebuild.
    ///
    /// Per arrival, the analysis cost is O(P): only the new problem is
    /// sketched, and it is scored against the stored per-problem sketches
    /// (fanned over [`morer_sim::par::map_indexed`]) to extend the problem
    /// graph. Clustering maintenance follows
    /// [`MorerConfig::recluster`](crate::config::MorerConfig::recluster):
    /// under [`crate::clustering::ReclusterPolicy::Always`] the full
    /// clustering reruns and the resulting pipeline is **bit-identical** to
    /// [`Morer::build`] over the same problems; under the incremental
    /// policies each arrival attaches to the cluster of its strongest edge
    /// or spawns a singleton. Training is dirty-tracked either way: only
    /// clusters whose membership (or generation budget) changed retrain.
    ///
    /// The batch commits atomically with respect to [`Morer::snapshot`]
    /// readers: handles taken before the call keep serving the previous
    /// epoch. With a write-ahead log attached ([`Morer::open`],
    /// [`Morer::attach_wal`]), the commit record is appended — and, under
    /// [`crate::wal::Durability::Fsync`], on disk — before this returns.
    ///
    /// # Errors
    /// [`MorerError::InvalidProblem`] when a problem's feature space
    /// disagrees with the already ingested problems (§4.2) — the batch is
    /// rejected up front and the pipeline is untouched.
    /// [`MorerError::Io`] when appending the commit record to the attached
    /// write-ahead log fails; the log is then poisoned and every later
    /// commit is refused until the state is recovered via [`Morer::open`].
    pub fn add_problems(&mut self, problems: &[&ErProblem]) -> Result<IngestReport, MorerError> {
        if let Some(reason) = &self.wal_poisoned {
            return Err(MorerError::Io(std::io::Error::other(format!(
                "write-ahead log poisoned by an earlier failure: {reason}; \
                 recover the durable state with Morer::open"
            ))));
        }
        let expected = self
            .num_features()
            .or_else(|| problems.first().map(|p| p.num_features()));
        if let Some(expected) = expected {
            if let Some(bad) = problems.iter().find(|p| p.num_features() != expected) {
                return Err(MorerError::InvalidProblem(format!(
                    "problem {} has {} features but the repository's comparison scheme \
                     has {expected} (§4.2: one feature space per repository)",
                    bad.id,
                    bad.num_features(),
                )));
            }
        }
        let full = self.orphan_entries == 0
            && self.config.recluster.should_recluster(
                self.inserts_since_recluster,
                problems.len(),
                self.problems.len() + problems.len(),
            );
        self.ingest(problems, full)
    }

    /// The ingest subsystem shared by [`Morer::build`] (forced full
    /// recluster) and [`Morer::add_problems`] (policy-driven).
    fn ingest(
        &mut self,
        new: &[&ErProblem],
        full_recluster: bool,
    ) -> Result<IngestReport, MorerError> {
        let mut report = IngestReport { epoch: self.epoch, ..IngestReport::default() };
        if new.is_empty() {
            return Ok(report);
        }
        report.problems_added = new.len();

        // 1. O(P)-per-insert graph integration: sketch only the arrivals
        // and score them against the stored per-problem sketches
        let t = Instant::now();
        let base = self.problems.len();
        report.edges_added = extend_problem_graph_sketched(
            &mut self.graph,
            &mut self.sketches,
            new,
            &self.config.analysis_options(),
            self.config.min_edge_similarity,
        );
        self.problems.extend(new.iter().map(|&p| p.clone()));
        self.in_t.resize(base + new.len(), false);
        self.initial_vectors += new.iter().map(|p| p.num_pairs()).sum::<usize>();
        self.timings.analysis += t.elapsed();

        // 2-3. clustering maintenance + dirty-tracked training
        if full_recluster {
            self.regenerate(&mut report);
            self.inserts_since_recluster = 0;
            report.reclustered = true;
        } else {
            self.integrate_incrementally(base, new.len(), &mut report);
            self.inserts_since_recluster += new.len();
        }

        self.commit(Some(&mut report))?;
        Ok(report)
    }

    /// Commit a repository mutation batch: advance the epoch, drop the
    /// snapshot handle so the next [`Morer::snapshot`] observes the new
    /// state (handles already taken keep the previous epoch), and — with a
    /// write-ahead log attached — append one [`CommitRecord`] carrying the
    /// drained dirty-entry set. The report (when the commit has one) is
    /// stamped with the post-commit epoch *before* the record is built, so
    /// the persisted report matches what the caller receives.
    ///
    /// An append failure poisons the pipeline (see
    /// [`Morer::add_problems`]); a *compaction* failure after a durable
    /// append also poisons — the commit itself is safe on disk, but the
    /// maintenance failure must surface rather than silently recur.
    fn commit(&mut self, mut report: Option<&mut IngestReport>) -> Result<(), MorerError> {
        self.epoch += 1;
        self.snapshot = None;
        // validate-or-rebuild the search index against the committed state
        // (O(dirty) — mutated entries carry fresh sketch Arcs, unchanged
        // entries are reused by pointer identity), so every snapshot clone
        // published from here inherits an index consistent with its entries
        self.searcher.refresh_index();
        if let Some(r) = report.as_deref_mut() {
            r.epoch = self.epoch;
        }
        let touched = std::mem::take(&mut self.dirty);
        if self.wal.is_none() {
            return Ok(());
        }
        let entries = self.searcher.entries();
        let record = CommitRecordRef {
            epoch: self.epoch,
            num_entries: entries.len(),
            entries: touched
                .iter()
                .filter(|&&i| i < entries.len())
                .map(|&i| &*entries[i])
                .collect(),
            report: report.as_deref(),
        };
        let wal = self.wal.as_mut().expect("checked above");
        let appended = if self.group_commit {
            wal.append_deferred(record)
        } else {
            wal.append(record)
        };
        if let Err(e) = appended {
            self.wal_poisoned = Some(e.to_string());
            return Err(e);
        }
        if wal.due_for_compaction() {
            self.compact()?;
        }
        Ok(())
    }

    /// Commit from the infallible `solve` path: a WAL failure cannot
    /// surface through [`SolveOutcome`], so it poisons the pipeline
    /// instead — the next [`Morer::add_problems`] reports it as a typed
    /// I/O error.
    fn commit_infallible(&mut self) {
        let _ = self.commit(None);
    }

    /// Full recluster + dirty-tracked regeneration: rerun the configured
    /// clustering and budget allocation over the whole graph (exactly as a
    /// batch [`Morer::build`] would), then retrain only the clusters whose
    /// generation fingerprint `(members, budget)` changed. Skipping a clean
    /// cluster is bit-identical to retraining it because generation
    /// training is deterministic in those inputs (plus the cluster
    /// position, which a matching positional fingerprint implies).
    fn regenerate(&mut self, report: &mut IngestReport) {
        let t = Instant::now();
        let raw = self.config.clustering.run(&self.graph, self.config.seed);
        self.timings.clustering += t.elapsed();

        let sizes: Vec<usize> = self.problems.iter().map(ErProblem::num_pairs).collect();
        let allocation: BudgetAllocation = match self.config.training {
            TrainingMode::ActiveLearning(_) => allocate(
                raw.members(),
                &sizes,
                &self.graph,
                self.config.budget,
                self.config.budget_min,
            ),
            TrainingMode::Supervised { .. } => BudgetAllocation {
                budgets: vec![0; raw.members().len()],
                clusters: raw.members(),
            },
        };

        let t = Instant::now();
        let problems: Vec<&ErProblem> = self.problems.iter().collect();
        // The uniqueness index (Eqs. 11-12) is a function of the *entire*
        // clustering, so any membership change invalidates every entry
        // trained with it: with the uniqueness score enabled, a full
        // recluster conservatively treats all clusters as dirty.
        let uniqueness = self
            .config
            .use_uniqueness_score
            .then(|| build_uniqueness_index(&problems, &allocation.clusters));
        let mut labels_spent = 0usize;
        let entries = self.searcher.entries_mut();
        for (cid, members) in allocation.clusters.iter().enumerate() {
            let budget = allocation.budgets.get(cid).copied().unwrap_or(0);
            let clean = uniqueness.is_none()
                && entries
                    .get(cid)
                    .is_some_and(|e| e.id == cid && e.provenance.matches(members, budget));
            if clean {
                continue;
            }
            report.clusters_touched += 1;
            self.dirty.insert(cid);
            let trained = train_cluster(
                &problems,
                members,
                budget,
                self.config.training,
                &self.config.model,
                uniqueness.as_ref(),
                cluster_seed(self.config.seed, cid),
            );
            labels_spent += trained.labels_used;
            let mut entry = ClusterEntry::new(
                cid,
                members.clone(),
                trained.model,
                trained.representatives,
                trained.labels_used,
            );
            entry.provenance.record(members.clone(), budget);
            // a fresh Arc per retrained entry: snapshots of the previous
            // epoch keep their version, clean clusters keep their pointer
            if cid < entries.len() {
                entries[cid] = Arc::new(entry);
                report.models_retrained += 1;
            } else {
                entries.push(Arc::new(entry));
                report.new_models += 1;
            }
        }
        if entries.len() > allocation.clusters.len() {
            report.clusters_touched += entries.len() - allocation.clusters.len();
            entries.truncate(allocation.clusters.len());
        }
        self.labels_used += labels_spent;
        report.labels_spent += labels_spent;
        self.timings.training += t.elapsed();

        // Re-express the clustering over the (possibly merged) allocation,
        // so cluster ids and entry positions stay aligned.
        let mut assignment = vec![0usize; self.problems.len()];
        for (c, members) in allocation.clusters.iter().enumerate() {
            for &p in members {
                assignment[p] = c;
            }
        }
        self.clustering = Clustering::from_assignment(&assignment);
        self.in_t = vec![true; self.problems.len()];
    }

    /// Incremental integration without a full recluster: attach each
    /// arrival to the cluster of its strongest surviving graph edge (or
    /// spawn a singleton), then retrain exactly the touched clusters —
    /// existing clusters via the coverage-style update of §4.5 (previous
    /// representatives plus newly selected vectors), brand-new all-unsolved
    /// clusters via a fresh model with the initial-allocation budget share.
    fn integrate_incrementally(&mut self, base: usize, added: usize, report: &mut IngestReport) {
        let t = Instant::now();
        let mut assignment = self.clustering.assignment().to_vec();
        let mut num_clusters = self.clustering.num_clusters();
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for j in base..base + added {
            // edges to already-placed nodes only; later arrivals of the
            // same batch attach in their own turn
            let edges: Vec<(usize, f64)> = self
                .graph
                .neighbors(j)
                .iter()
                .copied()
                .filter(|&(i, _)| i < j)
                .collect();
            let att = attach_node(
                &mut assignment,
                &mut num_clusters,
                &edges,
                self.config.min_edge_similarity,
            );
            dirty.insert(att.cluster());
        }
        self.clustering = Clustering::from_assignment(&assignment);
        self.timings.clustering += t.elapsed();

        let t = Instant::now();
        let members_by_cluster = self.clustering.members();
        let sizes: Vec<usize> = self.problems.iter().map(ErProblem::num_pairs).collect();
        for &c in &dirty {
            report.clusters_touched += 1;
            let members = &members_by_cluster[c];
            let all_unsolved = members.iter().all(|&p| !self.in_t[p]);
            let reuse = if all_unsolved { None } else { self.best_overlap_entry(members) };
            match reuse {
                None => {
                    let (_, spent) = self.train_fresh_entry(members, &sizes);
                    report.new_models += 1;
                    report.labels_spent += spent;
                }
                Some(entry_idx) => {
                    let spent = self.retrain_entry(entry_idx, members, &sizes);
                    report.models_retrained += 1;
                    report.labels_spent += spent;
                }
            }
        }
        self.timings.training += t.elapsed();
    }

    /// The repository entry with maximum Jaccard overlap to `members`
    /// (§4.5's "previous cluster with maximum overlap"); `None` exactly
    /// when there is no reusable entry — the caller's fresh-model branch is
    /// carried in the type instead of an unreachable-by-construction
    /// `expect`. Restored (orphan) entries are excluded: their
    /// `problem_ids` reference the old writer's index space and would
    /// collide spuriously with current problem indices.
    fn best_overlap_entry(&self, members: &[usize]) -> Option<usize> {
        let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();
        self.searcher
            .entries()
            .iter()
            .enumerate()
            .skip(self.orphan_entries)
            .map(|(i, e)| {
                let inter = e.problem_ids.iter().filter(|p| member_set.contains(p)).count();
                let union = e.problem_ids.len() + members.len() - inter;
                (i, inter as f64 / union.max(1) as f64)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// Train a fresh model for an all-unsolved cluster (§4.5). Eq. 14
    /// presumes a previous model; a fresh cluster has none, so it receives
    /// its size's share of `b_tot` instead (its vectors over the initial
    /// problems' vectors, at least `budget_min`).
    /// Returns `(entry id, labels spent)`.
    fn train_fresh_entry(&mut self, members: &[usize], sizes: &[usize]) -> (usize, usize) {
        let cluster_vectors: usize = members.iter().map(|&p| sizes[p]).sum();
        let budget = match self.config.training {
            TrainingMode::ActiveLearning(_) => {
                let share = cluster_vectors as f64 / self.initial_vectors.max(1) as f64;
                ((self.config.budget as f64 * share).round() as usize)
                    .max(self.config.budget_min)
            }
            TrainingMode::Supervised { .. } => 0,
        };
        let (training, spent) = self.select_training(members, budget);
        let model = TrainedModel::train(&self.config.model, &training);
        let entries = self.searcher.entries_mut();
        let entry = ClusterEntry::new(entries.len(), members.to_vec(), model, training, spent);
        let entry_id = entry.id;
        entries.push(Arc::new(entry));
        self.dirty.insert(entry_id);
        for &p in members {
            self.in_t[p] = true;
        }
        self.labels_used += spent;
        (entry_id, spent)
    }

    /// Coverage-style update of an existing entry (Eqs. 13-14): select new
    /// training data over the cluster's unsolved members with the Eq. 14
    /// budget and retrain on the previous representatives plus the
    /// selection. Returns the labels spent.
    fn retrain_entry(&mut self, entry_idx: usize, members: &[usize], sizes: &[usize]) -> usize {
        let cov = coverage(members, sizes, &self.in_t);
        let unsolved: Vec<usize> =
            members.iter().copied().filter(|&p| !self.in_t[p]).collect();
        let budget = match self.config.training {
            TrainingMode::ActiveLearning(_) => {
                retrain_budget(cov, self.searcher.entries()[entry_idx].representatives.len())
            }
            TrainingMode::Supervised { .. } => 0,
        };
        let (new_training, used) = self.select_training(&unsolved, budget);
        // update: previous training data plus the new selection
        let mut combined = self.searcher.entries()[entry_idx].representatives.clone();
        combined.extend(&new_training);
        let model = TrainedModel::train(&self.config.model, &combined);
        // copy-on-write: deep-clones the entry only if a published snapshot
        // still shares it, so commit cost stays O(touched entries)
        let entry = Arc::make_mut(&mut self.searcher.entries_mut()[entry_idx]);
        entry.model = model;
        entry.representatives = combined;
        entry.labels_used += used;
        entry.problem_ids = members.to_vec();
        // the representatives changed: the cached sketch and the generation
        // fingerprint are both stale
        entry.mark_mutated();
        self.dirty.insert(entry_idx);
        for &p in &unsolved {
            self.in_t[p] = true;
        }
        self.labels_used += used;
        used
    }

    /// Solve a new ER problem `p ∈ P_U` (steps 4-5 of Fig. 3).
    pub fn solve(&mut self, problem: &ErProblem) -> SolveOutcome {
        match self.config.selection {
            SelectionStrategy::Base => self.solve_base(problem),
            SelectionStrategy::Coverage { t_cov } => self.solve_coverage(problem, t_cov),
        }
    }

    /// Solve a batch and micro-average the confusion counts over ground
    /// truth (the paper's evaluation protocol, §5.2).
    pub fn solve_and_score(&mut self, problems: &[&ErProblem]) -> (PairCounts, Vec<SolveOutcome>) {
        let mut counts = PairCounts::new();
        let mut outcomes = Vec::with_capacity(problems.len());
        for p in problems {
            let outcome = self.solve(p);
            for (&pred, &actual) in outcome.predictions.iter().zip(&p.labels) {
                counts.record(pred, actual);
            }
            outcomes.push(outcome);
        }
        (counts, outcomes)
    }

    fn solve_base(&mut self, problem: &ErProblem) -> SolveOutcome {
        let t = Instant::now();
        // pure read path: delegate to the shared searcher (same code that
        // serves concurrent callers)
        let outcome = self.searcher.solve(problem);
        self.timings.selection += t.elapsed();
        outcome
    }

    fn solve_coverage(&mut self, problem: &ErProblem, t_cov: f64) -> SolveOutcome {
        // 1. integrate the problem into G_P — the same O(P) graph mutation
        // path streaming ingest uses
        let t = Instant::now();
        let new_idx = self.problems.len();
        extend_problem_graph_sketched(
            &mut self.graph,
            &mut self.sketches,
            &[problem],
            &self.config.analysis_options(),
            self.config.min_edge_similarity,
        );
        self.problems.push(problem.clone());
        self.in_t.push(false);
        self.initial_vectors += problem.num_pairs();
        self.timings.analysis += t.elapsed();

        // 2. recluster (`sel_cov` always reruns the full clustering, §4.5)
        let t = Instant::now();
        self.clustering = self.config.clustering.run(&self.graph, self.config.seed);
        self.inserts_since_recluster = 0;
        self.timings.clustering += t.elapsed();

        let members: Vec<usize> = self
            .clustering
            .members()
            .into_iter()
            .find(|m| m.contains(&new_idx))
            .unwrap_or_else(|| vec![new_idx]);
        let sizes: Vec<usize> = self.problems.iter().map(ErProblem::num_pairs).collect();

        // 3. pick the previous entry with maximum overlap (§4.5) — `None`
        // (a cluster consisting purely of unsolved problems, or a
        // repository with zero entries) means a fresh model
        let t = Instant::now();
        let all_unsolved = members.iter().all(|&p| !self.in_t[p]);
        let reuse = if all_unsolved { None } else { self.best_overlap_entry(&members) };
        self.timings.selection += t.elapsed();

        let Some(entry_idx) = reuse else {
            let t = Instant::now();
            let (entry_id, spent) = self.train_fresh_entry(&members, &sizes);
            self.timings.training += t.elapsed();
            self.commit_infallible();
            let (predictions, probabilities) =
                classify(&self.searcher.entries()[entry_id], problem);
            return SolveOutcome {
                predictions,
                probabilities,
                entry: Some(entry_id),
                similarity: 1.0,
                retrained: false,
                new_model: true,
                labels_spent: spent,
            };
        };

        // 4. coverage-triggered model update (Eqs. 13-14)
        let cov = coverage(&members, &sizes, &self.in_t);
        let mut retrained = false;
        let mut spent = 0usize;
        if cov > t_cov {
            let t = Instant::now();
            spent = self.retrain_entry(entry_idx, &members, &sizes);
            retrained = true;
            self.timings.training += t.elapsed();
            self.commit_infallible();
        }

        let entry = &self.searcher.entries()[entry_idx];
        let (predictions, probabilities) = classify(entry, problem);
        SolveOutcome {
            predictions,
            probabilities,
            entry: Some(entry.id),
            similarity: cov,
            retrained,
            new_model: false,
            labels_spent: spent,
        }
    }

    /// Select training data over the given problems using the configured
    /// mode; returns `(training set, labels spent)`.
    fn select_training(
        &self,
        members: &[usize],
        budget: usize,
    ) -> (morer_ml::TrainingSet, usize) {
        let problems: Vec<&ErProblem> = members.iter().map(|&p| &self.problems[p]).collect();
        match self.config.training {
            TrainingMode::ActiveLearning(method) => {
                let learner = make_learner(method, None, self.config.seed ^ members.len() as u64);
                let mut pool = AlPool::from_problems(&problems);
                let result = learner.select(&mut pool, budget);
                (result.training, result.labels_used)
            }
            TrainingMode::Supervised { fraction } => {
                (supervised_training(&problems, fraction, self.config.seed), 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::ReclusterPolicy;
    use crate::config::AlMethod;
    use morer_ml::dataset::FeatureMatrix;

    use crate::testutil::family_problem;

    fn initial_problems() -> Vec<ErProblem> {
        (0..6).map(|i| family_problem(i, (i >= 3) as u8, 150)).collect()
    }

    fn config() -> MorerConfig {
        MorerConfig { budget: 240, budget_min: 30, ..Default::default() }
    }

    #[test]
    fn build_creates_two_clusters_for_two_families() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (morer, report) = Morer::build(refs, &config());
        assert_eq!(report.num_clusters, 2, "expected one cluster per family");
        assert!(report.labels_used <= 240);
        assert!(report.labels_used > 0);
        assert_eq!(morer.num_problems(), 6);
    }

    #[test]
    fn sel_base_solves_in_distribution_problems_well() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (mut morer, _) = Morer::build(refs, &config());
        let unsolved_a = family_problem(10, 0, 150);
        let unsolved_b = family_problem(11, 1, 150);
        let (counts, outcomes) = morer.solve_and_score(&[&unsolved_a, &unsolved_b]);
        assert!(counts.f1() > 0.8, "F1 = {}", counts.f1());
        // the two problems should map to *different* cluster models
        assert_ne!(outcomes[0].entry, outcomes[1].entry);
        assert!(outcomes.iter().all(|o| o.labels_spent == 0));
    }

    #[test]
    fn sel_cov_trains_fresh_model_for_novel_family() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig {
            selection: SelectionStrategy::Coverage { t_cov: 0.25 },
            min_edge_similarity: 0.6,
            ..config()
        };
        let (mut morer, report) = Morer::build(refs, &cfg);
        let before = morer.num_models();
        // a genuinely novel distribution: matches at 0.35, non-matches at 0.02
        let mut novel = family_problem(20, 0, 150);
        for i in 0..novel.num_pairs() {
            let v = if novel.labels[i] { 0.35 } else { 0.02 };
            let row = vec![v, v * 0.9];
            // rebuild features row by row
            if i == 0 {
                novel.features = FeatureMatrix::new(2);
            }
            novel.features.push_row(&row);
        }
        let outcome = morer.solve(&novel);
        assert!(outcome.new_model, "expected a fresh model for the novel family");
        assert!(morer.num_models() > before);
        assert!(outcome.labels_spent > 0);
        assert!(morer.labels_used() >= report.labels_used + outcome.labels_spent);
    }

    #[test]
    fn sel_cov_reuses_model_for_known_family() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig {
            selection: SelectionStrategy::Coverage { t_cov: 0.9 },
            ..config()
        };
        let (mut morer, _) = Morer::build(refs, &cfg);
        let before = morer.num_models();
        let unsolved = family_problem(12, 0, 150);
        let outcome = morer.solve(&unsolved);
        assert!(!outcome.new_model);
        // t_cov = 0.9 is high: a single small problem should not trigger
        // retraining of a 3-problem cluster
        assert!(!outcome.retrained);
        assert_eq!(morer.num_models(), before);
    }

    #[test]
    fn sel_cov_retrains_when_coverage_exceeded() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig {
            selection: SelectionStrategy::Coverage { t_cov: 0.1 },
            ..config()
        };
        let (mut morer, _) = Morer::build(refs, &cfg);
        // one new in-family problem: coverage 150/600 = 0.25 > 0.1 → retrain
        let unsolved = family_problem(13, 1, 150);
        let outcome = morer.solve(&unsolved);
        assert!(outcome.retrained || outcome.new_model);
        assert!(outcome.labels_spent > 0);
    }

    #[test]
    fn supervised_mode_spends_no_labels() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig {
            training: TrainingMode::Supervised { fraction: 0.5 },
            ..config()
        };
        let (mut morer, report) = Morer::build(refs, &cfg);
        assert_eq!(report.labels_used, 0);
        let unsolved = family_problem(14, 0, 120);
        let (counts, _) = morer.solve_and_score(&[&unsolved]);
        assert!(counts.f1() > 0.8, "F1 = {}", counts.f1());
    }

    #[test]
    fn repository_round_trip_enables_search_only_pipeline() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (morer, _) = Morer::build(refs, &config());
        let repo = morer.repository();
        let mut buf = Vec::new();
        repo.save_json(&mut buf).unwrap();
        let loaded = ModelRepository::load_json(&buf[..]).unwrap();
        let mut search_only = Morer::from_repository(loaded, &config());
        let unsolved = family_problem(15, 0, 120);
        let (counts, _) = search_only.solve_and_score(&[&unsolved]);
        assert!(counts.f1() > 0.8, "F1 = {}", counts.f1());
    }

    #[test]
    fn almser_training_mode_works_end_to_end() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig {
            training: TrainingMode::ActiveLearning(AlMethod::Almser),
            ..config()
        };
        let (mut morer, report) = Morer::build(refs, &cfg);
        assert!(report.labels_used <= 240);
        let unsolved = family_problem(16, 1, 120);
        let (counts, _) = morer.solve_and_score(&[&unsolved]);
        assert!(counts.f1() > 0.6, "F1 = {}", counts.f1());
    }

    #[test]
    fn capped_analysis_pipeline_is_deterministic_end_to_end() {
        // sample_cap below the problems' row counts: the per-problem sketch
        // subsampling (AnalysisOptions::for_problem) is exercised for real.
        // This pins the capped behavior end-to-end — construction,
        // sel_cov integration, retraining and classification.
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig {
            analysis_sample_cap: 40,
            selection: SelectionStrategy::Coverage { t_cov: 0.25 },
            ..config()
        };
        let (mut a, report_a) = Morer::build(refs.clone(), &cfg);
        let (mut b, report_b) = Morer::build(refs, &cfg);
        assert_eq!(report_a.num_clusters, report_b.num_clusters);
        let q = family_problem(21, 0, 150);
        let oa = a.solve(&q);
        let ob = b.solve(&q);
        assert_eq!(oa.predictions, ob.predictions);
        assert_eq!(oa.entry, ob.entry);
        assert_eq!(oa.similarity, ob.similarity);
        // capped analysis still routes problems to working models
        let (counts, _) = a.solve_and_score(&[&family_problem(22, 1, 150)]);
        assert!(counts.f1() > 0.5, "F1 = {}", counts.f1());
    }

    #[test]
    fn capped_sel_base_solves_deterministically() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig { analysis_sample_cap: 32, ..config() };
        let (mut morer, _) = Morer::build(refs, &cfg);
        let q = family_problem(23, 0, 150);
        let first = morer.solve(&q);
        // the second solve hits the warmed entry sketch caches
        let second = morer.solve(&q);
        assert_eq!(first.entry, second.entry);
        assert_eq!(first.similarity, second.similarity);
        assert_eq!(first.predictions, second.predictions);
    }

    #[test]
    fn build_is_deterministic() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (a, _) = Morer::build(refs.clone(), &config());
        let (b, _) = Morer::build(refs, &config());
        assert_eq!(a.repository(), b.repository());
    }

    #[test]
    fn empty_repository_predicts_non_match() {
        let mut morer = Morer::from_repository(ModelRepository::default(), &config());
        let p = family_problem(0, 0, 30);
        let outcome = morer.solve(&p);
        assert_eq!(outcome.entry, None);
        assert!(outcome.predictions.iter().all(|&x| !x));
    }

    #[test]
    fn solve_coverage_on_zero_entries_trains_a_fresh_model() {
        // regression: this used to hit
        // `expect("non-empty repository in coverage mode")`; an empty
        // repository must instead take the §4.5 all-unsolved branch
        let cfg = MorerConfig {
            selection: SelectionStrategy::Coverage { t_cov: 0.25 },
            ..config()
        };
        let mut morer = Morer::from_repository(ModelRepository::default(), &cfg);
        let p = family_problem(0, 0, 150);
        let outcome = morer.solve(&p);
        assert!(outcome.new_model);
        assert_eq!(outcome.entry, Some(0));
        assert_eq!(morer.num_models(), 1);
        // and the fresh model actually classifies
        assert_eq!(outcome.predictions.len(), p.num_pairs());
        assert!(outcome.predictions.iter().any(|&x| x));
    }

    #[test]
    fn writer_exposes_its_shared_searcher() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (mut morer, _) = Morer::build(refs, &config());
        let q = family_problem(30, 0, 150);
        let via_writer = morer.solve(&q);
        let searcher = morer.searcher();
        let via_searcher = searcher.solve(&q);
        assert_eq!(via_writer.predictions, via_searcher.predictions);
        assert_eq!(via_writer.entry, via_searcher.entry);
        assert_eq!(via_writer.similarity, via_searcher.similarity);
        // into_searcher keeps the same entries
        let n = morer.num_models();
        assert_eq!(morer.into_searcher().num_models(), n);
    }

    #[test]
    fn incremental_always_ingest_equals_batch_build() {
        let problems: Vec<ErProblem> =
            (0..8).map(|i| family_problem(i, (i % 2) as u8, 150)).collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (batch, _) = Morer::build(refs.clone(), &config());
        // build on the first half, stream the rest one problem at a time
        let (mut inc, _) = Morer::build(refs[..4].to_vec(), &config());
        for p in &refs[4..] {
            let report = inc.add_problem(p).unwrap();
            assert!(report.reclustered, "Always policy must fully recluster");
            assert_eq!(report.problems_added, 1);
        }
        assert_eq!(inc.num_problems(), batch.num_problems());
        assert_eq!(inc.repository(), batch.repository());
        assert_eq!(inc.clustering.assignment(), batch.clustering.assignment());
        // and the two pipelines solve identically
        let q = family_problem(40, 0, 150);
        let a = inc.searcher().solve(&q);
        let b = batch.searcher().solve(&q);
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.similarity, b.similarity);
    }

    #[test]
    fn dirty_tracking_skips_clean_clusters_in_supervised_mode() {
        // supervised budgets are all zero, so a cluster whose membership is
        // untouched keeps a matching fingerprint and must not retrain
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig {
            training: TrainingMode::Supervised { fraction: 0.5 },
            ..config()
        };
        let (mut inc, _) = Morer::build(refs.clone(), &cfg);
        let arrival = family_problem(9, 0, 150); // joins family-0's cluster
        let report = inc.add_problem(&arrival).unwrap();
        assert!(report.reclustered);
        assert_eq!(
            report.models_retrained + report.new_models,
            report.clusters_touched
        );
        assert!(
            report.clusters_touched < inc.num_models() + 1,
            "expected at least one clean cluster to be skipped: {report:?}"
        );
        // bit-identity with the batch build over all 7 problems
        let mut all = refs;
        all.push(&arrival);
        let (batch, _) = Morer::build(all, &cfg);
        assert_eq!(inc.repository(), batch.repository());
    }

    #[test]
    fn never_policy_attaches_without_reclustering() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig { recluster: ReclusterPolicy::Never, ..config() };
        let (mut morer, _) = Morer::build(refs, &cfg);
        let before_models = morer.num_models();
        // an in-family arrival attaches to the existing cluster
        let report = morer.add_problem(&family_problem(10, 0, 150)).unwrap();
        assert!(!report.reclustered);
        assert_eq!(report.clusters_touched, 1);
        assert_eq!(report.models_retrained, 1);
        assert_eq!(report.new_models, 0);
        assert_eq!(morer.num_models(), before_models);
        // a novel distribution spawns a singleton cluster + fresh model
        let mut novel = family_problem(20, 0, 150);
        for i in 0..novel.num_pairs() {
            let v = if novel.labels[i] { 0.35 } else { 0.02 };
            if i == 0 {
                novel.features = FeatureMatrix::new(2);
            }
            novel.features.push_row(&[v, v * 0.9]);
        }
        let report = morer.add_problem(&novel).unwrap();
        assert!(!report.reclustered);
        assert_eq!(report.new_models, 1);
        assert_eq!(morer.num_models(), before_models + 1);
    }

    #[test]
    fn every_n_policy_reclusters_on_schedule() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let cfg = MorerConfig { recluster: ReclusterPolicy::EveryN(3), ..config() };
        let (mut morer, _) = Morer::build(refs, &cfg);
        let r1 = morer.add_problem(&family_problem(10, 0, 150)).unwrap();
        let r2 = morer.add_problem(&family_problem(11, 1, 150)).unwrap();
        let r3 = morer.add_problem(&family_problem(12, 0, 150)).unwrap();
        assert!(!r1.reclustered && !r2.reclustered);
        assert!(r3.reclustered, "third insert must trigger the full recluster");
        // the counter reset: the next insert attaches again
        let r4 = morer.add_problem(&family_problem(13, 1, 150)).unwrap();
        assert!(!r4.reclustered);
    }

    #[test]
    fn snapshot_handles_pin_an_epoch() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (mut morer, _) = Morer::build(refs, &config());
        let epoch_before = morer.epoch();
        let snap = morer.snapshot();
        // same epoch → same handle
        assert!(Arc::ptr_eq(&snap, &morer.snapshot()));
        let q = family_problem(31, 0, 150);
        let before = snap.solve(&q);
        let report = morer.add_problem(&family_problem(32, 0, 150)).unwrap();
        assert_eq!(report.epoch, morer.epoch());
        assert!(morer.epoch() > epoch_before);
        // the old handle still serves the old repository state
        let after = snap.solve(&q);
        assert_eq!(before.predictions, after.predictions);
        assert_eq!(before.similarity, after.similarity);
        // the new handle reflects the committed ingest
        let fresh = morer.snapshot();
        assert!(!Arc::ptr_eq(&snap, &fresh));
        assert_eq!(fresh.num_models(), morer.num_models());
    }

    #[test]
    fn empty_ingest_is_a_no_op() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (mut morer, _) = Morer::build(refs, &config());
        let epoch = morer.epoch();
        let report = morer.add_problems(&[]).unwrap();
        assert_eq!(report, IngestReport { epoch, ..IngestReport::default() });
        assert_eq!(morer.epoch(), epoch);
    }

    #[test]
    fn mismatched_feature_width_is_a_typed_error_not_a_panic() {
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (mut morer, _) = Morer::build(refs, &config());
        let before_models = morer.num_models();
        let before_epoch = morer.epoch();
        // a 3-feature problem against a 2-feature repository (§4.2)
        let mut wide = family_problem(60, 0, 40);
        let mut features = FeatureMatrix::new(3);
        for i in 0..wide.num_pairs() {
            features.push_row(&[0.5, 0.5, i as f64 / 40.0]);
        }
        wide.features = features;
        let err = morer.add_problem(&wide).unwrap_err();
        assert!(matches!(err, MorerError::InvalidProblem(_)), "got {err:?}");
        assert!(err.to_string().contains("3 features"));
        // the rejected batch left the pipeline untouched...
        assert_eq!(morer.num_models(), before_models);
        assert_eq!(morer.epoch(), before_epoch);
        // ...and healthy ingests still work afterwards
        let report = morer.add_problem(&family_problem(61, 0, 150)).unwrap();
        assert_eq!(report.problems_added, 1);
    }

    #[test]
    fn batch_internal_width_mismatch_is_rejected_up_front() {
        // an empty pipeline: the first batch fixes the width, so a mixed
        // batch must be rejected before anything is ingested
        let mut morer = Morer::from_repository(ModelRepository::default(), &config());
        let two = family_problem(0, 0, 40);
        let mut three = family_problem(1, 0, 40);
        let mut features = FeatureMatrix::new(3);
        for _ in 0..three.num_pairs() {
            features.push_row(&[0.5, 0.5, 0.5]);
        }
        three.features = features;
        let err = morer.add_problems(&[&two, &three]).unwrap_err();
        assert!(matches!(err, MorerError::InvalidProblem(_)), "got {err:?}");
        assert_eq!(morer.num_problems(), 0);
    }

    #[test]
    fn ingest_into_restored_repository_trains_fresh_models() {
        // a writer restored from disk has no sketches/problems: arrivals
        // are out-of-repository and must spawn fresh models, not panic
        let problems = initial_problems();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let (morer, _) = Morer::build(refs, &config());
        let before_models = morer.num_models();
        let restored_entries: Vec<Vec<usize>> =
            morer.repository().entries.iter().map(|e| e.problem_ids.clone()).collect();
        let mut restored = Morer::from_repository(morer.repository(), &config());
        let report = restored.add_problem(&family_problem(50, 0, 150)).unwrap();
        assert_eq!(report.problems_added, 1);
        assert_eq!(report.edges_added, 0);
        // restored writers pin the attach path (a full recluster could not
        // regenerate the restored entries) and so must preserve them
        assert!(!report.reclustered);
        assert_eq!(report.new_models, 1);
        assert_eq!(restored.num_models(), before_models + 1);
        assert_eq!(restored.num_problems(), 1);
        // a second similar arrival attaches to the first one's cluster; it
        // must retrain the *fresh* entry, never repurpose a restored entry
        // whose problem_ids live in the old writer's index space
        let report = restored.add_problem(&family_problem(51, 0, 150)).unwrap();
        assert!(!report.reclustered);
        assert_eq!(report.new_models, 0, "{report:?}");
        assert_eq!(report.models_retrained, 1, "{report:?}");
        for (e, original_ids) in restored.repository().entries.iter().zip(&restored_entries) {
            assert_eq!(
                &e.problem_ids, original_ids,
                "restored entry {} was repurposed by ingest",
                e.id
            );
        }
        let fresh = &restored.repository().entries[before_models];
        assert_eq!(fresh.problem_ids, vec![0, 1]);
    }
}
