//! Lock-free per-endpoint request metrics, stage timings and the flight
//! recorder.
//!
//! The registry is the one observability hub of the server: the reactor,
//! compute and writer threads all record into it, and `GET /stats`,
//! `GET /metrics` and `GET /debug/trace` read from it. Nothing on the
//! request path locks or allocates:
//!
//! * per-endpoint counters are `AtomicU64`s and latency lives in a
//!   [`morer_obs::Histogram`] (four relaxed RMWs per record), so `/stats`
//!   reports p50/p90/p99/p999 instead of a flat mean/max;
//! * internal stages (writer queue wait, batch size, commit time, group
//!   rounds, epoll wait, dispatch depth) get their own histograms;
//! * every request carries a trace — a fixed-size span scratchpad —
//!   whose spans land in a bounded [`FlightRecorder`] ring when the
//!   request finishes; requests slower than the configured threshold are
//!   additionally copied into a separate slow ring and logged.
//!
//! Counters use relaxed ordering: the stats endpoints report a
//! statistically consistent view, not a linearizable one (two counters
//! read mid-update may disagree by one in-flight request), which is the
//! usual contract for service metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use morer_obs::{FlightRecorder, Histogram, Span, TraceIds};
use serde::{Deserialize, Serialize};

/// The service endpoints, plus a bucket for requests that never reached a
/// route (unknown paths, malformed heads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /search`
    Search,
    /// `POST /solve`
    Solve,
    /// `POST /solve_batch`
    SolveBatch,
    /// `POST /ingest`
    Ingest,
    /// `GET /healthz`
    Healthz,
    /// `GET /stats`
    Stats,
    /// `GET /wal` and `GET /wal/base` (log shipping to followers).
    Wal,
    /// `GET /metrics` (Prometheus text exposition).
    Metrics,
    /// `GET /debug/trace` (flight-recorder dump).
    Trace,
    /// Everything else: unknown routes, wrong methods, unreadable requests.
    Other,
}

impl Endpoint {
    /// All endpoints, in stats-report order.
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Search,
        Endpoint::Solve,
        Endpoint::SolveBatch,
        Endpoint::Ingest,
        Endpoint::Healthz,
        Endpoint::Stats,
        Endpoint::Wal,
        Endpoint::Metrics,
        Endpoint::Trace,
        Endpoint::Other,
    ];

    /// Stable name used as the stats key and the Prometheus `endpoint`
    /// label.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Search => "search",
            Endpoint::Solve => "solve",
            Endpoint::SolveBatch => "solve_batch",
            Endpoint::Ingest => "ingest",
            Endpoint::Healthz => "healthz",
            Endpoint::Stats => "stats",
            Endpoint::Wal => "wal",
            Endpoint::Metrics => "metrics",
            Endpoint::Trace => "trace",
            Endpoint::Other => "other",
        }
    }

    /// Counter-slot index: the fieldless enum's declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

// --- stage ids -----------------------------------------------------------

/// The whole request (root span; `code` carries the HTTP status).
pub const STAGE_REQUEST: u32 = 0;
/// Request-body JSON decode + validation.
pub const STAGE_DECODE: u32 = 1;
/// `sel_base` model search against the snapshot.
pub const STAGE_SEARCH: u32 = 2;
/// Search + pairwise classification (`/solve`, `/solve_batch`).
pub const STAGE_SOLVE: u32 = 3;
/// Response-body JSON encoding.
pub const STAGE_ENCODE: u32 = 4;
/// `/ingest` waiting on the single-writer commit acknowledgement.
pub const STAGE_WRITER_WAIT: u32 = 5;

/// Human-readable stage name for `GET /debug/trace`.
pub fn stage_name(stage: u32) -> &'static str {
    match stage {
        STAGE_REQUEST => "request",
        STAGE_DECODE => "decode",
        STAGE_SEARCH => "search",
        STAGE_SOLVE => "solve",
        STAGE_ENCODE => "encode",
        STAGE_WRITER_WAIT => "writer_wait",
        _ => "unknown",
    }
}

/// Spans one [`Trace`] can hold (root + interior stages); pushes past the
/// cap are silently dropped — a bounded scratchpad, not a growable log.
const MAX_TRACE_SPANS: usize = 8;

/// Capacity of the recent-requests flight recorder (`GET /debug/trace`,
/// `recent` ring), in spans: a few hundred traced requests.
const RECENT_SPANS: usize = 512;

/// Capacity of the slow-requests flight recorder (`slow` ring), in spans.
const SLOW_SPANS: usize = 128;

/// One request's span scratchpad: a fixed array filled by the handlers
/// while the request runs, flushed into the flight recorder by
/// [`MetricsRegistry::finish_trace`]. Allocation-free by construction.
pub(crate) struct Trace {
    id: u64,
    /// The registry's epoch instant — span start offsets are measured
    /// against it so all spans of a process share one clock.
    base: Instant,
    spans: [Span; MAX_TRACE_SPANS],
    len: usize,
}

impl Trace {
    /// The request's trace id (echoed to the client as
    /// `x-morer-trace-id`, formatted by [`Trace::id_hex`]).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The wire form of the id: 16 lowercase hex digits.
    pub(crate) fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }

    /// Record one finished stage that started at `started`.
    pub(crate) fn span(&mut self, stage: u32, started: Instant, code: u32) {
        self.span_with(stage, started, started.elapsed(), code);
    }

    fn span_with(&mut self, stage: u32, started: Instant, elapsed: Duration, code: u32) {
        if self.len == self.spans.len() {
            return;
        }
        let clamp = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        self.spans[self.len] = Span {
            trace_id: self.id,
            stage,
            start_micros: clamp(started.saturating_duration_since(self.base)),
            duration_micros: clamp(elapsed),
            code,
        };
        self.len += 1;
    }

    fn spans(&self) -> &[Span] {
        &self.spans[..self.len]
    }
}

/// One endpoint's counters. `latency` subsumes the old flat
/// total/max pair: its `sum`/`max` are exactly those, and its buckets add
/// the quantiles.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    /// Responses by status class; `class_2xx` counts every non-error
    /// status (< 400).
    class_2xx: AtomicU64,
    class_4xx: AtomicU64,
    class_5xx: AtomicU64,
    latency: Histogram,
}

/// Internal-stage histograms: what the service is doing *between* request
/// edges. All lock-free; recorded by the writer thread and the reactor.
#[derive(Default)]
pub(crate) struct StageMetrics {
    /// Per-job wait between `/ingest` enqueue and writer pickup, µs.
    pub(crate) queue_wait_micros: Histogram,
    /// Problems per writer commit round.
    pub(crate) batch_size: Histogram,
    /// Per-round `Morer::add_problems` commit time, µs.
    pub(crate) commit_micros: Histogram,
    /// Commit rounds sharing one group fsync.
    pub(crate) group_rounds: Histogram,
    /// Times the write path flipped healthy → degraded (WAL failure or
    /// commit panic). Repair flips back without a counter: `healthz`
    /// already reports the current state.
    pub(crate) degraded_transitions: AtomicU64,
    /// Reactor `epoll_wait` blocking time per loop turn, µs.
    pub(crate) epoll_wait_micros: Histogram,
    /// Readiness events delivered per reactor loop turn.
    pub(crate) dispatch_depth: Histogram,
}

/// The lock-free metrics registry shared by every serving thread.
pub struct MetricsRegistry {
    counters: [Counters; Endpoint::ALL.len()],
    connections: ConnGauges,
    stages: StageMetrics,
    /// Every finished request's spans, newest [`RECENT_SPANS`] of them.
    recent: FlightRecorder,
    /// Spans of requests at/over `slow_threshold_micros` only — slow
    /// requests survive much longer here than in the busy `recent` ring.
    slow: FlightRecorder,
    slow_threshold_micros: u64,
    trace_ids: TraceIds,
    /// Process epoch for span start offsets.
    base: Instant,
}

impl Default for MetricsRegistry {
    /// Test-friendly default: 100 ms slow threshold.
    fn default() -> Self {
        Self::new(100_000)
    }
}

/// Connection-lifecycle gauges (the reactor's open-connection count can be
/// orders of magnitude above its thread count).
///
/// Invariant: `accepted == rejected + <connections ever opened>`, and
/// every opened connection is eventually matched by one
/// [`MetricsRegistry::conn_closed`]. Rejected connections never touch
/// `open`/`peak` — [`MetricsRegistry::try_conn_opened`] checks the cap
/// *before* incrementing, so a rejection storm cannot inflate the
/// high-water mark.
#[derive(Default)]
struct ConnGauges {
    open: AtomicU64,
    peak: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    idle_reaped: AtomicU64,
}

impl MetricsRegistry {
    /// A registry with the given slow-request threshold (µs; requests at
    /// or over it are copied into the slow ring and logged). The flight
    /// recorders keep the newest 512 spans and the newest 128 slow spans.
    pub fn new(slow_threshold_micros: u64) -> Self {
        Self {
            counters: Default::default(),
            connections: ConnGauges::default(),
            stages: StageMetrics::default(),
            recent: FlightRecorder::new(RECENT_SPANS),
            slow: FlightRecorder::new(SLOW_SPANS),
            slow_threshold_micros,
            trace_ids: TraceIds::new(),
            base: Instant::now(),
        }
    }

    /// Record one finished request: latency plus the response status.
    pub fn record(&self, endpoint: Endpoint, elapsed: Duration, status: u16) {
        let c = &self.counters[endpoint.index()];
        c.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            0..=399 => &c.class_2xx,
            400..=499 => &c.class_4xx,
            _ => &c.class_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        c.latency.record_micros(elapsed);
    }

    /// Mint a [`Trace`] for a request that just started.
    pub(crate) fn begin_trace(&self) -> Trace {
        Trace {
            id: self.trace_ids.next(),
            base: self.base,
            spans: [Span::default(); MAX_TRACE_SPANS],
            len: 0,
        }
    }

    /// Finish a traced request: record its counters/latency, append the
    /// root span, flush all spans into the `recent` ring, and — when the
    /// request ran at or over the slow threshold — copy them into the
    /// slow ring and emit one slow-request log line.
    pub(crate) fn finish_trace(
        &self,
        trace: &mut Trace,
        endpoint: Endpoint,
        status: u16,
        started: Instant,
    ) {
        let elapsed = started.elapsed();
        self.record(endpoint, elapsed, status);
        trace.span_with(STAGE_REQUEST, started, elapsed, u32::from(status));
        for span in trace.spans() {
            self.recent.push(span);
        }
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        if micros >= self.slow_threshold_micros {
            for span in trace.spans() {
                self.slow.push(span);
            }
            eprintln!(
                "[morer-serve] slow request: {} -> {} took {} us (threshold {} us), trace {}",
                endpoint.name(),
                status,
                micros,
                self.slow_threshold_micros,
                trace.id_hex(),
            );
        }
    }

    /// The internal-stage histograms (writer, WAL-adjacent, reactor).
    pub(crate) fn stages(&self) -> &StageMetrics {
        &self.stages
    }

    /// The configured slow-request threshold, µs.
    pub(crate) fn slow_threshold_micros(&self) -> u64 {
        self.slow_threshold_micros
    }

    /// Snapshot of the recent-requests flight recorder, oldest first.
    pub(crate) fn recent_spans(&self) -> Vec<Span> {
        self.recent.snapshot()
    }

    /// Snapshot of the slow-requests flight recorder, oldest first.
    pub(crate) fn slow_spans(&self) -> Vec<Span> {
        self.slow.snapshot()
    }

    /// The raw latency histogram of one endpoint (Prometheus exposition).
    pub(crate) fn latency(&self, endpoint: Endpoint) -> &Histogram {
        &self.counters[endpoint.index()].latency
    }

    /// Record an accepted connection *if* the open count is below `cap`:
    /// returns the open count after this connection, or `None` when the
    /// cap is reached — the accept is then counted as `rejected` and the
    /// `open`/`peak` gauges are untouched (no transient inflation, unlike
    /// the old open-then-undo scheme). The CAS loop keeps the
    /// check-and-increment atomic for concurrent callers.
    pub fn try_conn_opened(&self, cap: u64) -> Option<u64> {
        let c = &self.connections;
        c.accepted.fetch_add(1, Ordering::Relaxed);
        let mut open = c.open.load(Ordering::Relaxed);
        loop {
            if open >= cap {
                c.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match c.open.compare_exchange_weak(
                open,
                open + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    c.peak.fetch_max(open + 1, Ordering::Relaxed);
                    return Some(open + 1);
                }
                Err(actual) => open = actual,
            }
        }
    }

    /// Record a connection leaving service (closed for any reason).
    /// Paired only with successful opens — never with a rejected accept.
    pub fn conn_closed(&self) {
        self.connections.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record an idle (or byte-trickling) connection reaped at its
    /// receive deadline. The connection's [`MetricsRegistry::conn_closed`]
    /// is recorded separately.
    pub fn conn_idle_reaped(&self) {
        self.connections.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> u64 {
        self.connections.open.load(Ordering::Relaxed)
    }

    /// Snapshot the connection gauges (the `/stats` `connections` field).
    pub fn connection_stats(&self) -> ConnectionStats {
        let c = &self.connections;
        ConnectionStats {
            open: c.open.load(Ordering::Relaxed),
            peak: c.peak.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            idle_reaped: c.idle_reaped.load(Ordering::Relaxed),
        }
    }

    /// Snapshot every endpoint's counters (the `/stats` payload). Endpoints
    /// that served no request are included with zero counts, so dashboards
    /// see a stable schema.
    pub fn snapshot(&self) -> Vec<EndpointStats> {
        Endpoint::ALL
            .iter()
            .map(|&e| {
                let c = &self.counters[e.index()];
                let requests = c.requests.load(Ordering::Relaxed);
                let class_4xx = c.class_4xx.load(Ordering::Relaxed);
                let class_5xx = c.class_5xx.load(Ordering::Relaxed);
                let lat = c.latency.snapshot();
                EndpointStats {
                    endpoint: e.name().to_owned(),
                    requests,
                    errors: class_4xx + class_5xx,
                    status_2xx: c.class_2xx.load(Ordering::Relaxed),
                    status_4xx: class_4xx,
                    status_5xx: class_5xx,
                    total_micros: lat.sum,
                    max_micros: lat.max,
                    mean_micros: lat.mean(),
                    p50_micros: lat.quantile(0.5),
                    p90_micros: lat.quantile(0.9),
                    p99_micros: lat.quantile(0.99),
                    p999_micros: lat.quantile(0.999),
                }
            })
            .collect()
    }
}

/// One endpoint's counter snapshot, as reported by `GET /stats`.
///
/// Quantiles come from a log-linear histogram and are within 6.25%
/// relative error of an actually observed latency (exact below 16 µs) —
/// see [`morer_obs::Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Endpoint name ([`Endpoint::name`]).
    pub endpoint: String,
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Responses with status >= 400 (`status_4xx + status_5xx`).
    pub errors: u64,
    /// Responses with a non-error status (< 400).
    pub status_2xx: u64,
    /// Client-fault responses (400..=499).
    pub status_4xx: u64,
    /// Server-fault responses (>= 500).
    pub status_5xx: u64,
    /// Sum of request latencies, microseconds.
    pub total_micros: u64,
    /// Largest single request latency, microseconds.
    pub max_micros: u64,
    /// `total_micros / requests` (0 when idle).
    pub mean_micros: f64,
    /// Median request latency, microseconds.
    pub p50_micros: u64,
    /// 90th-percentile request latency, microseconds.
    pub p90_micros: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_micros: u64,
    /// 99.9th-percentile request latency, microseconds.
    pub p999_micros: u64,
}

/// Connection-lifecycle gauge snapshot, as reported by `GET /stats`.
/// `accepted == rejected +` (connections that were actually opened), and
/// rejected connections never touch `open` or `peak`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectionStats {
    /// Connections currently being served.
    pub open: u64,
    /// High-water mark of `open` since the server started (rejected
    /// connections never count here).
    pub peak: u64,
    /// Connections accepted from the listener (including ones rejected
    /// over the cap before being served).
    pub accepted: u64,
    /// Connections refused because the open-connection cap was reached.
    pub rejected: u64,
    /// Connections disconnected at their idle/receive deadline.
    pub idle_reaped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_gauges_track_lifecycle() {
        let m = MetricsRegistry::default();
        assert_eq!(m.try_conn_opened(2), Some(1));
        assert_eq!(m.try_conn_opened(2), Some(2));
        // at the cap: rejected without ever touching open/peak
        assert_eq!(m.try_conn_opened(2), None);
        assert_eq!(m.connection_stats().peak, 2);
        m.conn_closed();
        assert_eq!(m.try_conn_opened(2), Some(2));
        m.conn_idle_reaped();
        m.conn_closed();
        m.conn_closed();
        let s = m.connection_stats();
        assert_eq!(s.open, 0);
        assert_eq!(s.peak, 2);
        assert_eq!(s.accepted, 4);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.idle_reaped, 1);
        // the documented invariant: every accept was either rejected or
        // opened (and all opened ones closed by now)
        assert_eq!(s.accepted, s.rejected + 3);
        assert_eq!(m.open_connections(), 0);
        let json = serde_json::to_string(&s).unwrap();
        let back: ConnectionStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rejections_never_inflate_open_or_peak() {
        let m = MetricsRegistry::default();
        assert_eq!(m.try_conn_opened(1), Some(1));
        for _ in 0..100 {
            assert_eq!(m.try_conn_opened(1), None);
        }
        let s = m.connection_stats();
        assert_eq!(s.open, 1);
        assert_eq!(s.peak, 1);
        assert_eq!(s.accepted, 101);
        assert_eq!(s.rejected, 100);
    }

    #[test]
    fn record_accumulates_classes_and_quantiles() {
        let m = MetricsRegistry::default();
        m.record(Endpoint::Solve, Duration::from_micros(100), 200);
        m.record(Endpoint::Solve, Duration::from_micros(300), 400);
        m.record(Endpoint::Solve, Duration::from_micros(300), 500);
        m.record(Endpoint::Healthz, Duration::from_micros(5), 200);
        let snap = m.snapshot();
        let solve = snap.iter().find(|s| s.endpoint == "solve").unwrap();
        assert_eq!(solve.requests, 3);
        assert_eq!(solve.status_2xx, 1);
        assert_eq!(solve.status_4xx, 1);
        assert_eq!(solve.status_5xx, 1);
        assert_eq!(solve.errors, 2); // derived: 4xx + 5xx
        assert_eq!(solve.total_micros, 700);
        assert_eq!(solve.max_micros, 300);
        // quantiles within the documented 6.25% histogram bound
        assert!((solve.p50_micros as f64 - 300.0).abs() / 300.0 <= 1.0 / 16.0);
        assert!(solve.p99_micros >= solve.p50_micros);
        assert!(solve.p999_micros >= solve.p99_micros);
        // exact latencies below 16 µs
        let healthz = snap.iter().find(|s| s.endpoint == "healthz").unwrap();
        assert_eq!(healthz.p50_micros, 5);
        assert_eq!(healthz.errors, 0);
        // untouched endpoints are present with zeros (stable schema)
        let ingest = snap.iter().find(|s| s.endpoint == "ingest").unwrap();
        assert_eq!(ingest.requests, 0);
        assert_eq!(ingest.mean_micros, 0.0);
        assert_eq!(ingest.p999_micros, 0);
        assert_eq!(snap.len(), Endpoint::ALL.len());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = MetricsRegistry::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.record(Endpoint::Search, Duration::from_micros(1), 200);
                    }
                });
            }
        });
        let search = m
            .snapshot()
            .into_iter()
            .find(|s| s.endpoint == "search")
            .unwrap();
        assert_eq!(search.requests, 4000);
        assert_eq!(search.status_2xx, 4000);
        assert_eq!(search.total_micros, 4000);
        assert_eq!(search.p999_micros, 1);
    }

    #[test]
    fn traces_flow_into_the_flight_recorder() {
        // threshold 0: every request also lands in the slow ring
        let m = MetricsRegistry::new(0);
        let started = Instant::now();
        let mut trace = m.begin_trace();
        assert_ne!(trace.id(), 0);
        assert_eq!(trace.id_hex().len(), 16);
        trace.span(STAGE_DECODE, started, 0);
        m.finish_trace(&mut trace, Endpoint::Solve, 200, started);
        let recent = m.recent_spans();
        assert_eq!(recent.len(), 2);
        assert!(recent.iter().all(|s| s.trace_id == trace.id()));
        let root = recent.iter().find(|s| s.stage == STAGE_REQUEST).unwrap();
        assert_eq!(root.code, 200);
        assert!(recent.iter().any(|s| s.stage == STAGE_DECODE));
        assert_eq!(m.slow_spans().len(), 2);
        // a fast request under a high threshold stays out of the slow ring
        let m = MetricsRegistry::new(u64::MAX);
        let mut trace = m.begin_trace();
        m.finish_trace(&mut trace, Endpoint::Healthz, 200, Instant::now());
        assert_eq!(m.recent_spans().len(), 1);
        assert!(m.slow_spans().is_empty());
    }

    #[test]
    fn trace_span_capacity_is_bounded() {
        let m = MetricsRegistry::new(u64::MAX);
        let started = Instant::now();
        let mut trace = m.begin_trace();
        for _ in 0..100 {
            trace.span(STAGE_DECODE, started, 0);
        }
        m.finish_trace(&mut trace, Endpoint::Solve, 200, started);
        // the scratchpad clamps at MAX_TRACE_SPANS: once interior spans
        // fill it, span_with drops every later span, the root included
        let spans = m.recent_spans();
        assert_eq!(spans.len(), MAX_TRACE_SPANS);
        assert!(spans.iter().all(|s| s.stage == STAGE_DECODE));

        // with one slot left for it, the root span is kept
        let m = MetricsRegistry::new(u64::MAX);
        let mut trace = m.begin_trace();
        for _ in 0..MAX_TRACE_SPANS - 1 {
            trace.span(STAGE_DECODE, started, 0);
        }
        m.finish_trace(&mut trace, Endpoint::Solve, 200, started);
        let spans = m.recent_spans();
        assert_eq!(spans.len(), MAX_TRACE_SPANS);
        let root = spans.iter().find(|s| s.stage == STAGE_REQUEST).expect("root span kept");
        assert_eq!(root.code, 200);
    }

    #[test]
    fn stage_names_are_stable() {
        for (stage, name) in [
            (STAGE_REQUEST, "request"),
            (STAGE_DECODE, "decode"),
            (STAGE_SEARCH, "search"),
            (STAGE_SOLVE, "solve"),
            (STAGE_ENCODE, "encode"),
            (STAGE_WRITER_WAIT, "writer_wait"),
        ] {
            assert_eq!(stage_name(stage), name);
        }
        assert_eq!(stage_name(999), "unknown");
    }

    #[test]
    fn stats_serialize_as_json() {
        let m = MetricsRegistry::default();
        m.record(Endpoint::Stats, Duration::from_micros(7), 200);
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(json.contains("\"endpoint\":\"stats\""));
        assert!(json.contains("\"p99_micros\""));
        let back: Vec<EndpointStats> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m.snapshot());
    }
}
