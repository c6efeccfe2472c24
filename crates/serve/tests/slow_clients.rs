//! Slow-client suite (ISSUE 9 satellite): idle keep-alive floods and
//! slowloris-style byte-trickling must not starve the serve core.
//!
//! The reactor's whole reason to exist is exercised here: with many more
//! idle connections parked than it has threads, solves must still
//! complete — bit-identical to in-process answers — *without* waiting for
//! any idle connection to be reaped. Idle connections and slowloris
//! clients (partial request head, then silence) are disconnected at
//! `idle_timeout` and counted in the `idle_reaped` gauge.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::pipeline::Morer;
use morer_core::searcher::SolveOutcome;
use morer_core::testutil::family_problem;
use morer_data::ErProblem;
use morer_ml::model::ModelConfig;
use morer_serve::{Connection, MorerServer, ServeConfig, StatsResponse};

fn config() -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed: 42,
        ..MorerConfig::default()
    }
}

fn built_morer() -> Morer {
    let problems: Vec<ErProblem> =
        (0..6).map(|i| family_problem(i, (i >= 3) as u8, 120)).collect();
    let refs: Vec<&ErProblem> = problems.iter().collect();
    Morer::build(refs, &config()).0
}

fn connect(addr: std::net::SocketAddr) -> Connection {
    Connection::open_timeout(addr, Duration::from_secs(30)).unwrap()
}

/// Park `n` connections that never send a byte; they stay open (and
/// deadline-armed on the server) until dropped or reaped.
fn park_idle(addr: std::net::SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect()
}

fn stats(addr: std::net::SocketAddr) -> StatsResponse {
    let mut conn = connect(addr);
    serde_json::from_str(&conn.get("/stats").unwrap().body).unwrap()
}

/// Poll `/stats` until the `idle_reaped` gauge reaches `target` (bounded;
/// reaping is timer-driven so the exact instant is the server's call).
fn await_reaps(addr: std::net::SocketAddr, target: u64, within: Duration) -> u64 {
    let deadline = Instant::now() + within;
    loop {
        let reaped = stats(addr).connections.idle_reaped;
        if reaped >= target || Instant::now() >= deadline {
            return reaped;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// With far more idle connections parked than the server has threads,
/// the reactor answers concurrent solves bit-identically and immediately
/// — no reap had to free capacity first — and then reaps every parked
/// connection at the idle deadline.
#[test]
fn reactor_solves_are_not_starved_by_parked_idle_connections() {
    let morer = built_morer();
    let searcher = morer.searcher().clone();
    let cfg = ServeConfig {
        idle_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let handle = MorerServer::start(morer, &cfg).unwrap();
    let addr = handle.addr();

    let n_idle = 64; // ≫ any thread pool this repo configures
    let parked = park_idle(addr, n_idle);

    let queries: Vec<ErProblem> =
        (0..4).map(|i| family_problem(100 + i, (i % 2) as u8, 80)).collect();
    let reference: Vec<SolveOutcome> = queries.iter().map(|q| searcher.solve(q)).collect();
    let bodies: Vec<String> =
        queries.iter().map(|q| serde_json::to_string(q).unwrap()).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let bodies = &bodies;
                let reference = &reference;
                scope.spawn(move || {
                    let mut conn = connect(addr);
                    for (body, direct) in bodies.iter().zip(reference) {
                        let res = conn.post("/solve", body).unwrap();
                        assert_eq!(res.status, 200, "{}", res.body);
                        let served: SolveOutcome = serde_json::from_str(&res.body).unwrap();
                        assert_eq!(&served, direct, "served solve diverged from in-process");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("solve client panicked");
        }
    });

    // the solves above finished with every parked connection still open:
    // capacity did not come from reaping
    let snap = stats(addr);
    assert_eq!(snap.connections.idle_reaped, 0, "solves must not wait for reaps");
    assert!(
        snap.connections.open >= n_idle as u64,
        "parked connections vanished early: {:?}",
        snap.connections
    );

    // …and once the idle deadline passes, every parked connection is reaped
    let reaped = await_reaps(addr, n_idle as u64, Duration::from_secs(10));
    assert!(reaped >= n_idle as u64, "only {reaped}/{n_idle} parked connections reaped");
    drop(parked);
    handle.shutdown();
}

/// Slowloris: a client that sends a partial request head
/// and then trickles nothing more is disconnected at `idle_timeout` (no
/// response — there is no request to answer) and counted as reaped.
#[test]
fn slowloris_partial_heads_are_reaped_at_the_deadline() {
    let cfg = ServeConfig { idle_timeout: Duration::from_millis(250), ..ServeConfig::default() };
    let handle = MorerServer::start(built_morer(), &cfg).unwrap();
    let addr = handle.addr();

    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sock.write_all(b"POST /solve HTTP/1.1\r\nContent-Le").unwrap();
    let started = Instant::now();
    // the server must close the connection (EOF) at the deadline
    let mut sink = Vec::new();
    sock.read_to_end(&mut sink).expect("server never closed the slowloris");
    let waited = started.elapsed();
    assert!(sink.is_empty(), "a partial head earned a response: {sink:?}");
    assert!(waited >= cfg.idle_timeout / 2, "disconnected before the deadline ({waited:?})");
    assert!(waited < Duration::from_secs(5), "reap far too late ({waited:?})");
    let reaped = await_reaps(addr, 1, Duration::from_secs(5));
    assert!(reaped >= 1, "slowloris reap not counted");

    // the server is unharmed: fresh connections still answer
    let mut conn = connect(addr);
    assert_eq!(conn.get("/healthz").unwrap().status, 200);
    handle.shutdown();
}

/// Idle keep-alive connections that already served a request are re-armed
/// and reaped at the *next* idle deadline.
#[test]
fn idle_keep_alive_connections_are_reaped_after_their_request() {
    let cfg = ServeConfig { idle_timeout: Duration::from_millis(250), ..ServeConfig::default() };
    let handle = MorerServer::start(built_morer(), &cfg).unwrap();
    let addr = handle.addr();

    // one served request, then silence: the keep-alive connection is live
    // (the server said keep-alive) until the idle deadline
    let mut conn = connect(addr);
    let res = conn.get("/healthz").unwrap();
    assert_eq!(res.status, 200);
    assert!(res.keep_alive);
    let reaped = await_reaps(addr, 1, Duration::from_secs(5));
    assert!(reaped >= 1, "idle keep-alive connection never reaped");
    // the reaped connection is dead: the next request on it fails
    assert!(conn.get("/healthz").is_err(), "reaped connection still answered");
    handle.shutdown();
}
