//! Fault-injection suite for replica catch-up by log shipping (ISSUE 7
//! tentpole acceptance), over real loopback HTTP:
//!
//! * follower state after catch-up is **bit-identical** (canonical
//!   `save_json` bytes) to the leader's repository at the same epoch;
//! * an fsync-acknowledged leader commit is never lost to a follower once
//!   shipped — including across a leader kill/restart;
//! * kill-leader, corrupt-stream and compact-mid-tail all recover without
//!   manual intervention, and the follower never serves torn state (every
//!   published epoch is a whole committed epoch);
//! * the leader's writer survives a transient disk failure: degraded
//!   health + refused ingest while poisoned, automatic in-place repair,
//!   then durable acknowledgements again;
//! * group commit (the default) keeps every acknowledged ingest
//!   recoverable.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::pipeline::{IngestReport, Morer};
use morer_core::repository::ModelRepository;
use morer_core::testutil::family_problem;
use morer_core::wal::{Durability, WalOptions, HEADER_LEN, LOG_FILE};
use morer_data::ErProblem;
use morer_ml::model::ModelConfig;
use morer_serve::{
    Connection, ErrorEnvelope, HealthResponse, MorerServer, Replica, ReplicaConfig, ServeConfig,
};

fn config() -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed: 42,
        ..MorerConfig::default()
    }
}

fn serve_config(wal_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        wal_dir,
        durability: Durability::Fsync,
        compact_every: 0,
        writer_retry: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

fn replica_config(leader: SocketAddr) -> ReplicaConfig {
    ReplicaConfig {
        leader: leader.to_string(),
        morer: config(),
        poll_interval: Duration::from_millis(10),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        ..ReplicaConfig::default()
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morer_srv_repl_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(c: usize) -> Vec<ErProblem> {
    (0..2).map(|i| family_problem(100 * c + i, (c % 2) as u8, 80)).collect()
}

fn canonical_bytes(repo: &ModelRepository) -> Vec<u8> {
    let mut buf = Vec::new();
    repo.save_json(&mut buf).unwrap();
    buf
}

fn post_batch(conn: &mut Connection, c: usize) -> IngestReport {
    conn.post("/ingest", &serde_json::to_string(&batch(c)).unwrap())
        .unwrap()
        .json()
        .unwrap()
}

/// Wait until `predicate` holds or fail the test with `what` after 10s.
fn await_true(what: &str, mut predicate: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if predicate() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// Tentpole acceptance: a follower tailing a live leader converges to the
/// leader's exact repository — canonical bytes equal at the same epoch —
/// and a follower *server* serves it read-only with replica health.
#[test]
fn follower_catches_up_bit_identically_and_serves_read_only() {
    let dir = scratch_dir("bitident");
    let leader = MorerServer::start(
        Morer::from_repository(ModelRepository::default(), &config()),
        &serve_config(Some(dir.clone())),
    )
    .unwrap();
    let mut conn = Connection::open(leader.addr()).unwrap();
    // a twin writer replays the same commits in-process: the ground truth
    // for both the leader's state and the follower's
    let mut twin = Morer::from_repository(ModelRepository::default(), &config());
    for c in 0..3 {
        let report = post_batch(&mut conn, c);
        let problems = batch(c);
        let refs: Vec<&ErProblem> = problems.iter().collect();
        twin.add_problems(&refs).unwrap();
        assert_eq!(report.epoch, twin.epoch(), "leader and twin commit in lockstep");
    }
    let expected = canonical_bytes(&twin.searcher().repository());

    let replica = Replica::start(replica_config(leader.addr()));
    assert!(replica.await_epoch(twin.epoch(), Duration::from_secs(10)), "catch-up timed out");
    assert_eq!(canonical_bytes(&replica.repository()), expected, "follower must be bit-identical");
    let status = replica.status();
    assert_eq!(status.epoch, twin.epoch());
    assert_eq!(status.lag_epochs, 0);
    assert_eq!(status.state, "streaming");
    assert!(status.frames_applied >= 3);

    // front the replica with a read-only server
    let follower = MorerServer::serve_replica(replica, &serve_config(None)).unwrap();
    let mut fconn = Connection::open(follower.addr()).unwrap();
    let health: HealthResponse = fconn.get("/healthz").unwrap().json().unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.epoch, twin.epoch());
    let rep = health.replica.expect("follower health must carry replica status");
    assert_eq!(rep.lag_epochs, 0);
    // reads answer bit-identically to the twin's searcher
    let q = family_problem(7000, 0, 60);
    let served = fconn.post("/solve", &serde_json::to_string(&q).unwrap()).unwrap();
    assert_eq!(served.status, 200);
    let local = serde_json::to_string(&twin.searcher().solve(&q)).unwrap();
    assert_eq!(served.body, local, "follower solve must be bit-identical");
    // writes are refused, typed
    let res = fconn.post("/ingest", &serde_json::to_string(&batch(9)).unwrap()).unwrap();
    assert_eq!(res.status, 503);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "read_only");
    follower.shutdown();
    leader.shutdown();
}

/// Kill-leader acceptance: the follower degrades to stale-but-consistent
/// reads (no crash, pinned epoch, `disconnected` health), then catches up
/// — including commits made while it was disconnected — once the leader
/// returns on a *new* port and `set_leader` repoints it. Nothing
/// fsync-acknowledged before the kill is lost.
#[test]
fn leader_kill_and_restart_recovers_without_losing_acknowledged_commits() {
    let dir = scratch_dir("killleader");
    let leader = MorerServer::start(
        Morer::from_repository(ModelRepository::default(), &config()),
        &serve_config(Some(dir.clone())),
    )
    .unwrap();
    let mut conn = Connection::open(leader.addr()).unwrap();
    for c in 0..2 {
        post_batch(&mut conn, c);
    }
    let replica = Replica::start(replica_config(leader.addr()));
    assert!(replica.await_epoch(2, Duration::from_secs(10)));
    let pre_kill = canonical_bytes(&replica.repository());

    // kill the leader (drops the socket; the WAL directory survives)
    drop(conn);
    leader.shutdown();
    await_true("follower to notice the dead leader", || {
        replica.status().state == "disconnected"
    });
    // degraded, not dead: the pinned epoch keeps serving
    assert_eq!(replica.epoch(), 2);
    assert_eq!(canonical_bytes(&replica.repository()), pre_kill);

    // the leader returns from its own WAL, on a fresh port
    let recovered = Morer::open_with(&dir, &config(), WalOptions::default()).unwrap();
    assert_eq!(recovered.epoch(), 2, "fsync-acknowledged commits survive the kill");
    let leader = MorerServer::start(recovered, &serve_config(None)).unwrap();
    let mut conn = Connection::open(leader.addr()).unwrap();
    post_batch(&mut conn, 2);

    replica.set_leader(leader.addr().to_string());
    assert!(replica.await_epoch(3, Duration::from_secs(10)), "post-restart catch-up timed out");
    let follower_bytes = canonical_bytes(&replica.repository());
    let status = replica.status();
    assert!(status.reconnects >= 1, "the outage must be visible in the counters");
    replica.shutdown();
    leader.shutdown();

    // ground truth is the leader's own durable state at the same epoch: a
    // restarted leader integrates new problems against *restored* entries
    // (the incremental-attach path), so a never-crashed twin is not the
    // reference — the shipped log is
    let leader_state = Morer::open_with(&dir, &config(), WalOptions::default()).unwrap();
    assert_eq!(leader_state.epoch(), 3);
    assert_eq!(
        follower_bytes,
        canonical_bytes(&leader_state.searcher().repository()),
        "follower must converge bit-identically on the restarted leader's state"
    );
}

/// Compact-mid-tail acceptance: when the leader folds its log while a
/// follower is tailing (generation bump + truncation), the follower's next
/// poll gets a 409, resyncs from the base snapshot, and converges
/// bit-identically — automatically.
#[test]
fn compaction_mid_tail_forces_a_clean_resync() {
    let dir = scratch_dir("midtail");
    let mut cfg = serve_config(Some(dir.clone()));
    cfg.compact_every = 3; // third commit folds the log under the follower
    let leader = MorerServer::start(
        Morer::from_repository(ModelRepository::default(), &config()),
        &cfg,
    )
    .unwrap();
    let mut conn = Connection::open(leader.addr()).unwrap();
    post_batch(&mut conn, 0);

    let replica = Replica::start(replica_config(leader.addr()));
    assert!(replica.await_epoch(1, Duration::from_secs(10)));
    assert_eq!(replica.status().resyncs, 0, "no resync before the log folds");

    // two more commits: the third triggers compaction (generation 1)
    let mut twin = Morer::from_repository(ModelRepository::default(), &config());
    for c in 0..3 {
        if c > 0 {
            post_batch(&mut conn, c);
        }
        let problems = batch(c);
        let refs: Vec<&ErProblem> = problems.iter().collect();
        twin.add_problems(&refs).unwrap();
    }
    assert!(replica.await_epoch(3, Duration::from_secs(10)), "post-compaction catch-up timed out");
    assert_eq!(
        canonical_bytes(&replica.repository()),
        canonical_bytes(&twin.searcher().repository())
    );
    // The follower may have raced the fold: applying the whole gen-0 log
    // (through epoch 3) in the window between the epoch-3 append and the
    // truncation. Its *next* poll then carries the stale generation and
    // must 409 into a resync — so wait for the counter rather than
    // asserting it the instant epoch 3 appears.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while replica.status().resyncs == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(replica.status().resyncs >= 1, "the generation bump must have forced a resync");
    // and the resync must land back on the same bit-identical state
    assert!(replica.await_epoch(3, Duration::from_secs(10)), "post-resync catch-up timed out");
    assert_eq!(
        canonical_bytes(&replica.repository()),
        canonical_bytes(&twin.searcher().repository())
    );
    replica.shutdown();
    leader.shutdown();
}

/// Corrupt-stream acceptance, injected at the transport: a fake leader
/// serves real frame bytes with a bit flipped for the first few polls,
/// then clean bytes. The follower must never apply a damaged record,
/// count the corruption, keep re-fetching, and converge bit-identically
/// once the stream heals — all without intervention.
#[test]
fn corrupt_stream_is_rejected_and_refetched_until_clean() {
    // real frames from a real scripted leader
    let dir = scratch_dir("corruptsrc");
    let mut leader = Morer::open_with(
        &dir,
        &config(),
        WalOptions { durability: Durability::Fsync, compact_every: 0 },
    )
    .unwrap();
    for c in 0..2 {
        let problems = batch(c);
        let refs: Vec<&ErProblem> = problems.iter().collect();
        leader.add_problems(&refs).unwrap();
    }
    let expected = canonical_bytes(&leader.searcher().repository());
    let final_epoch = leader.epoch();
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let frames = log[HEADER_LEN as usize..].to_vec();
    drop(leader);

    let (addr, stop, server) = fake_leader(frames, 3, final_epoch);
    let replica = Replica::start(replica_config(addr));
    assert!(
        replica.await_epoch(final_epoch, Duration::from_secs(10)),
        "catch-up through a corrupt stream timed out"
    );
    assert_eq!(canonical_bytes(&replica.repository()), expected);
    let status = replica.status();
    assert!(status.corrupt_segments >= 1, "corruption must be counted, not ignored");
    replica.shutdown();
    stop.store(true, Ordering::Release);
    let _ = server.join();
}

/// A minimal scripted leader speaking just enough HTTP for the follower:
/// `/wal/base` answers empty (generation 0 bootstrap), `/wal` serves the
/// canned frames — with a bit flipped for the first `corrupt_polls`
/// non-empty segments, clean afterwards.
fn fake_leader(
    frames: Vec<u8>,
    corrupt_polls: usize,
    epoch: u64,
) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut remaining_corrupt = corrupt_polls;
        while !flag.load(Ordering::Acquire) {
            let mut stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            };
            stream.set_nonblocking(false).unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            let mut buf = Vec::new();
            loop {
                if flag.load(Ordering::Acquire) {
                    return;
                }
                // read one request head (our client sends no GET bodies)
                let mut chunk = [0u8; 1024];
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(_) => break,
                }
                let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                    continue;
                };
                let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
                buf.drain(..head_end + 4);
                let path = head.split_whitespace().nth(1).unwrap_or("/").to_owned();
                let (status, body, extra) = if path.starts_with("/wal/base") {
                    (200, Vec::new(), String::new())
                } else if path.starts_with("/wal") {
                    let from: usize = path
                        .split_once("from=")
                        .and_then(|(_, rest)| {
                            rest.split('&').next().and_then(|v| v.parse().ok())
                        })
                        .unwrap_or(12);
                    let start = from.saturating_sub(12).min(frames.len());
                    let mut body = frames[start..].to_vec();
                    if !body.is_empty() && remaining_corrupt > 0 {
                        remaining_corrupt -= 1;
                        let flip = body.len() / 2;
                        body[flip] ^= 0x10;
                    }
                    let extra = format!(
                        "x-morer-generation: 0\r\nx-morer-log-len: {}\r\nx-morer-epoch: {epoch}\r\n",
                        12 + frames.len()
                    );
                    (200, body, extra)
                } else {
                    (404, Vec::new(), String::new())
                };
                let head = format!(
                    "HTTP/1.1 {status} X\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\nConnection: keep-alive\r\n{extra}\r\n",
                    body.len()
                );
                if stream.write_all(head.as_bytes()).is_err()
                    || stream.write_all(&body).is_err()
                {
                    break;
                }
            }
        }
    });
    (addr, stop, handle)
}

/// Writer-degradation satellite: a transient disk failure turns `/ingest`
/// into typed errors and `/healthz` degraded — but the server stays up,
/// repairs the log in place once the disk returns, resumes durable
/// acknowledgements, and everything acknowledged is recoverable.
#[test]
fn transient_disk_failure_degrades_then_recovers_the_writer() {
    let dir = scratch_dir("diskfail");
    let mut cfg = serve_config(Some(dir.clone()));
    cfg.compact_every = 1; // every commit rewrites the base: losing the dir fails fast
    // pace repair probes slowly enough that the degraded window is
    // observable from outside before the writer heals itself, even when
    // the test host is busy running sibling tests
    cfg.writer_retry = Duration::from_secs(2);
    let handle = MorerServer::start(
        Morer::from_repository(ModelRepository::default(), &config()),
        &cfg,
    )
    .unwrap();
    let mut conn = Connection::open(handle.addr()).unwrap();
    let first = post_batch(&mut conn, 0);
    assert_eq!(first.epoch, 1);

    // the disk "fails"
    std::fs::remove_dir_all(&dir).unwrap();
    let res = conn.post("/ingest", &serde_json::to_string(&batch(1)).unwrap()).unwrap();
    assert_eq!(res.status, 500, "an unpersistable commit must not be acknowledged");
    let health: HealthResponse = conn.get("/healthz").unwrap().json().unwrap();
    assert_eq!(health.status, "degraded");

    // the disk "returns" (repair_wal re-creates the directory); the writer
    // probes every writer_retry and heals itself
    await_true("writer to repair the log", || {
        let health: HealthResponse = conn.get("/healthz").unwrap().json().unwrap();
        health.status == "ok"
    });
    let after = conn.post("/ingest", &serde_json::to_string(&batch(2)).unwrap()).unwrap();
    assert_eq!(after.status, 200, "ingest must flow again after repair");
    let report: IngestReport = serde_json::from_str(&after.body).unwrap();
    let last_epoch = report.epoch;
    handle.shutdown();

    // everything acknowledged since the repair is recoverable
    let recovered = Morer::open_with(&dir, &config(), WalOptions::default()).unwrap();
    assert_eq!(recovered.epoch(), last_epoch);
}

/// Group-commit satellite: with the (default) shared-sync writer, a burst
/// of concurrent ingests is fully acknowledged, every acknowledged epoch
/// is recoverable from the log after shutdown, and the read path converges
/// on the last acknowledged epoch.
#[test]
fn group_commit_acknowledgements_survive_shutdown_and_recovery() {
    let dir = scratch_dir("groupack");
    let cfg = serve_config(Some(dir.clone()));
    assert!(cfg.group_commit, "group commit is the default under test");
    let handle = MorerServer::start(
        Morer::from_repository(ModelRepository::default(), &config()),
        &cfg,
    )
    .unwrap();
    let addr = handle.addr();
    let acked: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let mut conn = Connection::open(addr).unwrap();
                    let p = family_problem(5000 + i, (i % 2) as u8, 80);
                    let res =
                        conn.post("/ingest", &serde_json::to_string(&p).unwrap()).unwrap();
                    assert_eq!(res.status, 200, "burst ingest {i} must be acknowledged");
                    let report: IngestReport = res.json().unwrap();
                    report.epoch
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ingest client panicked")).collect()
    });
    let max_acked = acked.iter().copied().max().unwrap();
    assert!(handle.epoch() >= max_acked, "the read path serves every acknowledged epoch");
    handle.shutdown();
    let recovered = Morer::open_with(&dir, &config(), WalOptions::default()).unwrap();
    assert!(
        recovered.epoch() >= max_acked,
        "an acknowledged group-commit epoch must be recoverable: acked {max_acked}, recovered {}",
        recovered.epoch()
    );
}
