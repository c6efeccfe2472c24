//! # morer-serve — a std-only concurrent model-serving layer for MoRER
//!
//! The paper's end state (Fig. 3 steps 4-5) is a *service*: clients submit
//! unsolved ER problems and the repository answers with a reusable model.
//! This crate turns the library pipeline into that deployable service — an
//! HTTP/1.1 JSON server built on nothing but `std` (the build environment
//! has no crates.io access, see `crates/vendor/README.md`) on top of the
//! two-layer pipeline API.
//!
//! ## Architecture
//!
//! One connection core serves every request: an `epoll` readiness loop
//! over a raw `extern "C"` FFI shim (`std` already links libc; no crates
//! needed), so the server runs on Linux only. One reactor thread owns
//! *every* connection as a non-blocking state machine:
//! per-connection read buffers feed the resumable
//! [`http::RequestParser`], responses flush with partial-write resume and
//! backpressure, keep-alive pipelining carries surplus bytes to the next
//! request, and a timer queue fires idle/write-stall deadlines without
//! polling. Cheap `GET`s (`/healthz`, `/stats`, `/wal`) are answered
//! inline on the reactor thread; `POST` bodies (`/search`, `/solve`,
//! `/solve_batch`, `/ingest`) dispatch to a compute pool sized to the
//! machine. An idle connection costs a slab slot and a timer entry, so
//! thousands of parked keep-alive clients (up to a fixed cap of 8192 open
//! connections) stall nothing. Every thread records into one
//! [`metrics::MetricsRegistry`].
//!
//! ```text
//! listener ──accept──▶ reactor thread: epoll { conn slab + timers }
//!                        │ GET: dispatch inline       ▲ completions
//!                        └─ POST ──▶ compute pool ────┘  (wake pipe)
//!                                      │ /ingest
//!                                      ▼
//!                            single writer thread ──▶ WAL / snapshot swap
//! ```
//!
//! The serving contract:
//!
//! * **Read path** — every `/search`, `/solve` and `/solve_batch` request is
//!   served from the current epoch-pinned `Arc<ModelSearcher>` snapshot
//!   ([`morer_core::pipeline::Morer::snapshot`]). Readers never block on the
//!   writer: while an ingest batch reclusters and retrains, requests keep
//!   answering from the previous epoch, bit-identically, until the commit
//!   swaps the snapshot. Model search itself is sub-linear: each snapshot
//!   carries a [`morer_core::index::SearchIndex`] that prunes entries by
//!   provable similarity upper bounds (bit-identical results to exhaustive
//!   scoring; index sizes and shortlist rate on `GET /stats` under
//!   `search_index`).
//! * **Write path** — `/ingest` requests enqueue their problems on a bounded
//!   channel drained by a **single writer thread** that owns the
//!   [`morer_core::pipeline::Morer`]. Arrivals queued while a commit is in
//!   flight micro-batch into the next `add_problems` call, so concurrent
//!   ingest requests share one recluster/retrain commit (each requester
//!   receives the combined [`morer_core::pipeline::IngestReport`] of the
//!   commit its problems were part of).
//! * **Observability** — a flight-recorder layer built on `morer_obs`,
//!   lock-free and allocation-free on the request path. `GET /healthz`
//!   reports the epoch and write-path health; `GET /stats` adds
//!   per-endpoint counters split by status class plus latency quantiles
//!   (p50/p90/p99/p999 from log-linear [`morer_obs::Histogram`]s, ≤6.25%
//!   relative error) and connection-lifecycle gauges; `GET /metrics`
//!   exposes the whole pipeline — endpoint latency histograms, writer
//!   stage timings (queue wait, batch size, commit time, group-commit
//!   rounds), WAL append/fsync/compaction cost, per-query index
//!   shortlist/bound-scan/exact-score splits, reactor epoll internals,
//!   replica lag — in Prometheus text exposition. Every response carries
//!   an `x-morer-trace-id` header; per-stage span records
//!   (decode/search/solve/encode/writer-wait) flow into a bounded
//!   lock-free ring dumpable via `GET /debug/trace`, and requests over
//!   [`ServeConfig::slow_request_micros`] are additionally copied into a
//!   slow-request ring and logged to stderr.
//! * **Replication** — a durable leader also ships its write-ahead log:
//!   `GET /wal?from=..&gen=..` streams hash-verified commit frames and
//!   `GET /wal/base` serves the compaction base snapshot, which a
//!   [`replica::Replica`] tails to serve bounded-lag follower reads
//!   (`MorerServer::serve_replica`). Followers survive leader
//!   restarts, mid-tail compaction and corrupt streams by renegotiating
//!   offsets and resyncing from base — they degrade to stale-but-consistent
//!   reads instead of crashing. With reactor-cheap connections, fanning one
//!   leader out to many followers costs the leader a slab slot each.
//!
//! Failure modes are typed end-to-end: malformed HTTP or JSON is `400`,
//! searching an empty repository is `404`, an oversized body is `413`
//! (bounded by [`ServeConfig::max_body_bytes`]), a dead writer is `500` —
//! all with a JSON `{"error": {"kind", "message"}}` body derived from
//! [`morer_core::error::MorerError`], and none of them kill the thread that
//! answered. Clients that go silent or trickle bytes (slowloris) are
//! disconnected at [`ServeConfig::idle_timeout`] and counted in the
//! `idle_reaped` gauge.
//!
//! ## Quickstart
//!
//! ```
//! use morer_core::config::MorerConfig;
//! use morer_core::pipeline::Morer;
//! use morer_core::repository::ModelRepository;
//! use morer_serve::{Connection, MorerServer, ServeConfig};
//!
//! // an empty writer (restore a persisted repository in real deployments)
//! let morer = Morer::from_repository(ModelRepository::default(), &MorerConfig::default());
//! let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
//!
//! let mut conn = Connection::open(handle.addr()).unwrap();
//! let health = conn.get("/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! handle.shutdown();
//! ```
//!
//! ## curl cheatsheet
//!
//! With a server on `127.0.0.1:7878` (problems are the JSON form of
//! [`morer_data::ErProblem`] — see `examples/serve_demo.rs` for a script
//! that prints ready-made request bodies):
//!
//! ```text
//! # liveness, current repository epoch, and durability mode
//! curl http://127.0.0.1:7878/healthz
//!
//! # per-endpoint request counters (split 2xx/4xx/5xx), latency
//! # quantiles (p50/p90/p99/p999), and the connection gauges
//! # (open/peak/accepted/rejected/idle_reaped)
//! curl http://127.0.0.1:7878/stats
//!
//! # the same and more — writer stages, WAL, index, reactor, replica
//! # lag — as Prometheus text exposition for scraping
//! curl http://127.0.0.1:7878/metrics
//!
//! # the flight recorder: per-stage spans of recent + slow requests;
//! # filter to one request by its x-morer-trace-id response header
//! curl http://127.0.0.1:7878/debug/trace
//! curl "http://127.0.0.1:7878/debug/trace?id=00f1e2d3c4b5a697"
//!
//! # park idle keep-alive connections without stalling the lines above
//! # (each costs the server one slab slot + one timer)
//! for i in $(seq 1000); do sleep 300 | nc 127.0.0.1 7878 & done
//!
//! # sel_base model search: which stored model fits this problem best?
//! curl -X POST --data @problem.json http://127.0.0.1:7878/search
//!
//! # search + classify every pair of the problem with the chosen model
//! curl -X POST --data @problem.json http://127.0.0.1:7878/solve
//!
//! # batch solve: body is a JSON array of problems
//! curl -X POST --data @problems.json http://127.0.0.1:7878/solve_batch
//!
//! # integrate newly solved problems (body: JSON array of problems);
//! # answers with the IngestReport of the commit they were part of
//! curl -X POST --data @problems.json http://127.0.0.1:7878/ingest
//!
//! # log shipping (requires a WAL-attached leader): raw commit frames
//! # from a byte offset, and the base snapshot for bootstrap/resync
//! curl "http://127.0.0.1:7878/wal?from=12&gen=0"
//! curl http://127.0.0.1:7878/wal/base
//! ```
//!
//! ## Consistency contract
//!
//! A response is always computed against exactly one repository epoch (the
//! snapshot `Arc` cloned at dispatch), so responses are never torn across a
//! concurrent commit. `/solve` responses are bit-identical to in-process
//! [`morer_core::searcher::ModelSearcher::solve`] calls on the same epoch —
//! the vendored `serde_json` round-trips every `f64` exactly — which the
//! loopback tests in `tests/` and every `quick-bench` run assert before any
//! throughput number is reported.

pub mod client;
pub mod config;
pub mod http;
pub mod metrics;
pub(crate) mod reactor;
pub mod replica;
pub mod server;
pub(crate) mod sys;
pub mod wire;

pub use client::{Connection, HttpResponse, RawResponse};
pub use config::ServeConfig;
pub use metrics::{ConnectionStats, Endpoint, EndpointStats, MetricsRegistry};
pub use replica::{Replica, ReplicaConfig, ReplicaStatus};
pub use server::{MorerServer, ServerHandle};
pub use wire::{ErrorBody, ErrorEnvelope, HealthResponse, StatsResponse, TraceDump, TraceSpan};
