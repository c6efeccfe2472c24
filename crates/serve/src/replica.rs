//! The log-shipping follower: a replica that tails a `morer-serve`
//! leader's write-ahead log over HTTP and serves snapshot reads at a
//! bounded, observable epoch lag.
//!
//! The protocol core (frame verification, the shared replay path, the
//! offset/generation state machine) lives transport-agnostically in
//! [`morer_core::replication`]; this module adds the HTTP transport and
//! the failure envelope:
//!
//! * **Tailing.** A background thread polls `GET
//!   /wal?from=<offset>&gen=<generation>` on the leader, re-verifies every
//!   shipped frame (hash, decode, epoch continuity) and applies the
//!   verified prefix through [`FollowerState::ingest_segment`]. Each
//!   applied batch publishes a fresh epoch-pinned
//!   `Arc<ModelSearcher>` snapshot — readers never see torn state, only
//!   whole committed epochs. Publication is O(dirty): untouched entries
//!   keep their published `Arc` (warmed sketches and search-index
//!   signatures included), only positions the batch's records listed are
//!   re-copied and re-sketched, and the search index carries over through
//!   [`ModelSearcher::adopt_index`].
//! * **Bootstrap / resync.** On first contact, on a `409` (stale
//!   generation / offset beyond the log — the leader compacted mid-tail or
//!   restarted after losing a suffix), or on an epoch gap, the follower
//!   fetches `GET /wal/base` and replaces its state wholesale, then
//!   resumes tailing from the log head.
//! * **Degradation, not crashes.** Connection failures and timeouts
//!   reconnect under capped exponential backoff with deterministic
//!   jitter; while the leader is unreachable the replica keeps serving its
//!   last published snapshot (stale-but-consistent) and reports itself
//!   `disconnected` with a growing `lag` in [`ReplicaStatus`] — which
//!   `GET /healthz` on a [`crate::MorerServer::serve_replica`] server
//!   surfaces as `replica: {lag_epochs, last_contact_ms, ...}`.
//! * **Corrupt streams.** A segment whose frames fail verification is
//!   discarded at the first bad byte and re-fetched from the last fully
//!   applied offset — a partial or bit-flipped record is never applied,
//!   no matter what the transport delivers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::client::{Connection, RawResponse};
use morer_core::config::MorerConfig;
use morer_core::replication::{FollowerState, SegmentStatus};
use morer_core::repository::{ClusterEntry, ModelRepository};
use morer_core::searcher::ModelSearcher;

/// Header carrying the leader's compaction generation on `/wal` responses.
pub const HDR_GENERATION: &str = "x-morer-generation";
/// Header carrying the leader's current log length on `/wal` responses.
pub const HDR_LOG_LEN: &str = "x-morer-log-len";
/// Header carrying the leader's durable epoch on `/wal` responses.
pub const HDR_EPOCH: &str = "x-morer-epoch";

/// Per-response receive deadline on leader requests: a leader that accepts
/// connections but never answers counts as disconnected after this long.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Seed of the deterministic backoff jitter (each delay is scaled by a
/// factor in `[0.5, 1.0]` so a fleet of followers does not reconnect in
/// lockstep).
const JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tuning of a [`Replica`]. Leader requests time out after 2 s, and each
/// `/wal` poll ships at most the leader's 1 MiB segment cap.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The leader's address (`host:port` of a `morer-serve` instance with
    /// a write-ahead log attached). Can be repointed at runtime with
    /// [`Replica::set_leader`] — e.g. after the leader restarted on a new
    /// port.
    pub leader: String,
    /// Pipeline configuration used to build read snapshots (the analysis
    /// options must match the leader's for search results to agree).
    pub morer: MorerConfig,
    /// How long to sleep between polls while caught up.
    pub poll_interval: Duration,
    /// First reconnect delay after a leader failure; doubles per
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Reconnect delay cap.
    pub backoff_cap: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            leader: "127.0.0.1:0".to_owned(),
            morer: MorerConfig::default(),
            poll_interval: Duration::from_millis(25),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// Observable state of a replica, as reported by [`Replica::status`] and
/// the `replica` field of a follower server's `/healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStatus {
    /// `"syncing"` (bootstrapping or resyncing from base),
    /// `"streaming"` (tailing the log), or `"disconnected"` (leader
    /// unreachable; serving the last published snapshot).
    pub state: String,
    /// The last epoch fully applied and published to readers.
    pub epoch: u64,
    /// The leader's durable epoch as of the last successful contact.
    pub leader_epoch: u64,
    /// `leader_epoch - epoch`: how many committed epochs the read
    /// snapshot trails the leader by (0 when caught up; grows while
    /// disconnected only as far as the last observed leader epoch).
    pub lag_epochs: u64,
    /// Milliseconds since the last successful leader response, or `None`
    /// before first contact.
    pub last_contact_ms: Option<u64>,
    /// Completed reconnect cycles after connection failures/timeouts.
    pub reconnects: u64,
    /// Wholesale resyncs from the leader's base snapshot (bootstrap
    /// included).
    pub resyncs: u64,
    /// Verified frames applied since the replica started.
    pub frames_applied: u64,
    /// Segments rejected for failed frame verification (corrupt bytes
    /// re-fetched; never applied).
    pub corrupt_segments: u64,
}

/// One published read epoch (same swap-whole discipline as the leader
/// server: epoch and snapshot move together under one lock).
struct PublishedSnapshot {
    epoch: u64,
    searcher: Arc<ModelSearcher>,
}

/// State shared between the tail thread, the [`Replica`] handle and (when
/// serving) the follower server's request handlers.
pub(crate) struct ReplicaCore {
    published: Mutex<PublishedSnapshot>,
    status: Mutex<StatusInner>,
    leader: Mutex<String>,
    shutdown: AtomicBool,
}

struct StatusInner {
    state: &'static str,
    epoch: u64,
    leader_epoch: u64,
    last_contact: Option<Instant>,
    reconnects: u64,
    resyncs: u64,
    frames_applied: u64,
    corrupt_segments: u64,
}

impl ReplicaCore {
    pub(crate) fn published_pair(&self) -> (u64, Arc<ModelSearcher>) {
        let p = self.published.lock().expect("replica snapshot poisoned");
        (p.epoch, Arc::clone(&p.searcher))
    }

    pub(crate) fn status(&self) -> ReplicaStatus {
        let s = self.status.lock().expect("replica status poisoned");
        ReplicaStatus {
            state: s.state.to_owned(),
            epoch: s.epoch,
            leader_epoch: s.leader_epoch,
            lag_epochs: s.leader_epoch.saturating_sub(s.epoch),
            last_contact_ms: s
                .last_contact
                .map(|t| u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)),
            reconnects: s.reconnects,
            resyncs: s.resyncs,
            frames_applied: s.frames_applied,
            corrupt_segments: s.corrupt_segments,
        }
    }
}

/// A running log-shipping follower. Dropping (or [`Replica::shutdown`])
/// stops the tail thread; hand the replica to
/// [`crate::MorerServer::serve_replica`] to serve its snapshots over HTTP.
pub struct Replica {
    core: Arc<ReplicaCore>,
    tail: Option<JoinHandle<()>>,
}

impl Replica {
    /// Start tailing `config.leader`. Returns immediately — the replica
    /// bootstraps (base snapshot, then log tail) in the background and
    /// publishes read snapshots as it catches up; before first contact it
    /// serves an empty repository at epoch 0.
    pub fn start(config: ReplicaConfig) -> Self {
        let empty =
            Arc::new(ModelSearcher::new(Vec::new(), config.morer.analysis_options()));
        let core = Arc::new(ReplicaCore {
            published: Mutex::new(PublishedSnapshot { epoch: 0, searcher: empty }),
            status: Mutex::new(StatusInner {
                state: "syncing",
                epoch: 0,
                leader_epoch: 0,
                last_contact: None,
                reconnects: 0,
                resyncs: 0,
                frames_applied: 0,
                corrupt_segments: 0,
            }),
            leader: Mutex::new(config.leader.clone()),
            shutdown: AtomicBool::new(false),
        });
        let tail = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("morer-replica-tail".into())
                .spawn(move || tail_loop(&core, &config))
                .expect("spawning the replica tail thread")
        };
        Self { core, tail: Some(tail) }
    }

    /// Clone the current epoch-pinned read snapshot.
    pub fn snapshot(&self) -> Arc<ModelSearcher> {
        self.core.published_pair().1
    }

    /// The last epoch fully applied and published.
    pub fn epoch(&self) -> u64 {
        self.core.published_pair().0
    }

    /// A clone of the applied repository state (for persistence or
    /// bit-identity assertions against the leader).
    pub fn repository(&self) -> ModelRepository {
        self.snapshot().repository()
    }

    /// Current observable replica state.
    pub fn status(&self) -> ReplicaStatus {
        self.core.status()
    }

    /// Repoint the replica at a different leader address (e.g. after the
    /// leader restarted on a new port). Takes effect on the next poll; the
    /// epoch/generation handshake decides by itself whether the new leader
    /// requires a resync.
    pub fn set_leader(&self, addr: impl Into<String>) {
        *self.core.leader.lock().expect("replica leader poisoned") = addr.into();
    }

    /// Block until the published epoch reaches `epoch` (true) or `timeout`
    /// elapses (false). A convenience for tests, demos and bounded-lag
    /// read barriers.
    pub fn await_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.epoch() >= epoch {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.epoch() >= epoch
    }

    /// Stop the tail thread and drop the replica.
    pub fn shutdown(mut self) {
        self.stop();
    }

    pub(crate) fn core(&self) -> Arc<ReplicaCore> {
        Arc::clone(&self.core)
    }

    fn stop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        if let Some(tail) = self.tail.take() {
            let _ = tail.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What one protocol step produced.
enum Step {
    /// Frames were applied (a new epoch was published).
    Applied,
    /// The follower is at the leader's append offset.
    CaughtUp,
    /// The offset/generation no longer matches the leader: fetch base.
    Resync,
    /// The segment failed verification; re-fetch from the same offset.
    Refetch,
}

fn tail_loop(core: &ReplicaCore, config: &ReplicaConfig) {
    let mut state: Option<FollowerState> = None;
    let mut conn: Option<Connection> = None;
    let mut failures: u32 = 0;
    let mut rng = JITTER_SEED | 1;
    while !core.shutdown.load(Ordering::Acquire) {
        let leader = core.leader.lock().expect("replica leader poisoned").clone();
        if conn.is_none() {
            match Connection::open_timeout(&leader, IO_TIMEOUT) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    note_disconnect(core, &mut failures);
                    backoff_sleep(core, config, failures, &mut rng);
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("just connected");
        let step = match state.as_mut() {
            None => bootstrap(core, config, c, &mut state),
            Some(follower) => poll_segment(core, config, c, follower),
        };
        match step {
            Ok(Step::Applied) => failures = 0, // keep draining, no sleep
            Ok(Step::CaughtUp) => {
                failures = 0;
                idle_sleep(core, config.poll_interval);
            }
            Ok(Step::Resync) => {
                state = None;
                let mut s = core.status.lock().expect("replica status poisoned");
                s.resyncs += 1;
                s.state = "syncing";
            }
            Ok(Step::Refetch) => {
                // corrupt bytes were discarded; pace the re-fetch so a
                // persistently corrupt source cannot hot-loop this thread
                failures = 0;
                idle_sleep(core, config.poll_interval);
            }
            Err(_) => {
                conn = None;
                note_disconnect(core, &mut failures);
                backoff_sleep(core, config, failures, &mut rng);
            }
        }
    }
}

/// Fetch and decode the leader's base snapshot, replacing the follower
/// state wholesale. An empty body means the leader has not compacted yet
/// (no base published): bootstrap from the empty epoch-0 state and replay
/// the whole log.
fn bootstrap(
    core: &ReplicaCore,
    config: &ReplicaConfig,
    conn: &mut Connection,
    state: &mut Option<FollowerState>,
) -> std::io::Result<Step> {
    let response = conn.get_raw("/wal/base")?;
    touch_contact(core, &response);
    if response.status != 200 {
        // the leader is up but cannot ship (no WAL attached, transient
        // error): treat like a connection failure so backoff applies
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("leader answered {} to /wal/base", response.status),
        ));
    }
    let fresh = if response.body.is_empty() {
        FollowerState::empty()
    } else {
        let text = std::str::from_utf8(&response.body).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
        })?;
        FollowerState::from_base(text).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
        })?
    };
    publish_full(core, config, &fresh, "streaming");
    *state = Some(fresh);
    Ok(Step::Applied)
}

/// Poll one log segment and apply its verified prefix.
fn poll_segment(
    core: &ReplicaCore,
    config: &ReplicaConfig,
    conn: &mut Connection,
    state: &mut FollowerState,
) -> std::io::Result<Step> {
    let path = format!("/wal?from={}&gen={}", state.offset(), state.generation());
    let response = conn.get_raw(&path)?;
    touch_contact(core, &response);
    match response.status {
        200 => {}
        409 => return Ok(Step::Resync),
        status => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("leader answered {status} to /wal"),
            ))
        }
    }
    let log_len = response.header_u64(HDR_LOG_LEN).unwrap_or(0);
    if response.body.is_empty() {
        // caught up — unless the leader's log moved under the reply (race
        // with a compaction); the next poll's generation check resolves it
        return Ok(if state.offset() >= log_len { Step::CaughtUp } else { Step::Refetch });
    }
    let report = state.ingest_segment(state.offset(), &response.body);
    if report.applied > 0 {
        let mut s = core.status.lock().expect("replica status poisoned");
        s.frames_applied += report.applied;
        drop(s);
        publish(core, config, state, "streaming");
    }
    match report.status {
        SegmentStatus::Clean | SegmentStatus::TornTail => {
            Ok(if report.applied + report.skipped > 0 { Step::Applied } else { Step::Refetch })
        }
        SegmentStatus::Corrupt => {
            let mut s = core.status.lock().expect("replica status poisoned");
            s.corrupt_segments += 1;
            drop(s);
            Ok(Step::Refetch)
        }
        SegmentStatus::NeedResync => Ok(Step::Resync),
    }
}

/// Publish the follower's applied state as a fresh epoch-pinned snapshot,
/// reusing the previously published searcher where the applied batch left
/// entries untouched: a position outside [`FollowerState::take_dirty`]
/// keeps its published `Arc<ClusterEntry>` — warmed sketch cache and index
/// signature included — while dirty/new positions are deep-copied from the
/// store (they arrive cache-empty from record deserialization, so their
/// sketches and signatures rebuild exactly once). The search index is
/// adopted from the previous lineage and validated per entry by `Arc`
/// identity, so each applied batch costs O(dirty) sketch/signature work
/// plus O(entries) pointer clones — the same bound as the leader's own
/// snapshot publication.
///
/// Reuse is sound because the published snapshot is always derived from
/// this `state` lineage (wholesale replacements go through
/// [`publish_full`]) and [`morer_core::wal::apply_record` semantics]
/// guarantee every mutated-or-recreated position appears in the applied
/// records' entry ids — positions it did not list are byte-identical to
/// the previous publication (debug-asserted below).
fn publish(
    core: &ReplicaCore,
    config: &ReplicaConfig,
    state: &mut FollowerState,
    phase: &'static str,
) {
    let dirty = state.take_dirty();
    let options = config.morer.analysis_options();
    let (_, prev) = core.published_pair();
    let reusable = *prev.options() == options;
    let prev_entries = prev.entries();
    let shared: Vec<Arc<ClusterEntry>> = state
        .entries()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            if reusable && !dirty.contains(&i) {
                if let Some(p) = prev_entries.get(i) {
                    debug_assert!(**p == *e, "reused entry {i} drifted from the store");
                    return Arc::clone(p);
                }
            }
            Arc::new(e.clone())
        })
        .collect();
    let mut searcher = ModelSearcher::from_shared(shared, options);
    searcher.adopt_index(&prev);
    searcher.warm();
    finish_publish(core, Arc::new(searcher), state, phase);
}

/// Publish after a wholesale state replacement (bootstrap / resync): the
/// previous snapshot may describe a different history, so nothing is
/// reused — the searcher is rebuilt and warmed from a full store clone.
fn publish_full(
    core: &ReplicaCore,
    config: &ReplicaConfig,
    state: &FollowerState,
    phase: &'static str,
) {
    let searcher =
        Arc::new(ModelSearcher::from_repository(state.repository(), &config.morer));
    finish_publish(core, searcher, state, phase);
}

fn finish_publish(
    core: &ReplicaCore,
    searcher: Arc<ModelSearcher>,
    state: &FollowerState,
    phase: &'static str,
) {
    *core.published.lock().expect("replica snapshot poisoned") =
        PublishedSnapshot { epoch: state.epoch(), searcher };
    let mut s = core.status.lock().expect("replica status poisoned");
    s.epoch = state.epoch();
    s.leader_epoch = s.leader_epoch.max(state.epoch());
    s.state = phase;
}

/// Record a successful leader exchange: contact time plus the leader's
/// durable epoch when the response carries one.
fn touch_contact(core: &ReplicaCore, response: &RawResponse) {
    let mut s = core.status.lock().expect("replica status poisoned");
    s.last_contact = Some(Instant::now());
    if let Some(epoch) = response.header_u64(HDR_EPOCH) {
        s.leader_epoch = epoch;
    }
}

fn note_disconnect(core: &ReplicaCore, failures: &mut u32) {
    *failures = failures.saturating_add(1);
    let mut s = core.status.lock().expect("replica status poisoned");
    s.reconnects += 1;
    s.state = "disconnected";
}

/// Capped exponential backoff with deterministic jitter in `[0.5, 1.0]`.
fn backoff_sleep(core: &ReplicaCore, config: &ReplicaConfig, failures: u32, rng: &mut u64) {
    let exp = config
        .backoff_base
        .saturating_mul(1u32 << failures.saturating_sub(1).min(10));
    let capped = exp.min(config.backoff_cap).max(Duration::from_millis(1));
    // xorshift64: cheap, deterministic, good enough to de-synchronize a
    // follower fleet's reconnect storms
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let unit = (*rng >> 11) as f64 / (1u64 << 53) as f64;
    idle_sleep(core, capped.mul_f64(0.5 + 0.5 * unit));
}

/// Sleep in small slices so shutdown stays responsive mid-backoff.
fn idle_sleep(core: &ReplicaCore, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !core.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(
            (deadline - Instant::now()).min(Duration::from_millis(10)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_snapshot_reports_lag_and_defaults() {
        let replica = Replica::start(ReplicaConfig {
            leader: "127.0.0.1:1".to_owned(), // nothing listens here
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(10),
            ..ReplicaConfig::default()
        });
        let status = replica.status();
        assert_eq!(status.epoch, 0);
        assert_eq!(status.lag_epochs, 0);
        assert_eq!(status.frames_applied, 0);
        assert!(replica.snapshot().entries().is_empty());
        // the tail thread is failing to connect; shutdown must still be
        // prompt (idle_sleep slices its backoff)
        let t = Instant::now();
        replica.shutdown();
        assert!(t.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let config = ReplicaConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            ..ReplicaConfig::default()
        };
        // the exponential curve alone, before jitter
        for failures in [1u32, 2, 3, 10, 30] {
            let exp = config
                .backoff_base
                .saturating_mul(1u32 << failures.saturating_sub(1).min(10));
            let capped = exp.min(config.backoff_cap);
            assert!(capped <= config.backoff_cap);
            if failures >= 3 {
                assert_eq!(capped, config.backoff_cap, "failure {failures} must be capped");
            }
        }
        // jitter scales into [0.5, 1.0] and is deterministic per seed
        let mut a = JITTER_SEED | 1;
        let mut b = JITTER_SEED | 1;
        for _ in 0..100 {
            for rng in [&mut a, &mut b] {
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
            }
            assert_eq!(a, b);
            let unit = (a >> 11) as f64 / (1u64 << 53) as f64;
            assert!((0.0..1.0).contains(&unit));
        }
    }
}
