//! Server configuration.

use std::path::PathBuf;
use std::time::Duration;

use morer_core::error::MorerError;
use morer_core::wal::Durability;

/// Configuration of a [`crate::MorerServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port `0` asks the OS for a free port (the bound
    /// address is reported by [`crate::ServerHandle::addr`]).
    pub addr: String,
    /// Number of event-loop (reactor) threads. Each owns
    /// its own `epoll` instance and a share of the connections; `1`
    /// (the default) is right up to tens of thousands of mostly-idle
    /// connections — add reactors only when the event loop itself
    /// saturates a core. Clamped to at least 1.
    pub reactors: usize,
    /// Size of the compute pool that runs POST
    /// bodies (`/search`, `/solve`, `/solve_batch`, `/ingest` — the
    /// CPU-bound and writer-blocking work; cheap GETs are answered on the
    /// reactor thread). `0` sizes it to the machine
    /// (`available_parallelism`, floor 2 so one in-flight `/ingest`
    /// waiting on the writer cannot serialize every solve).
    pub compute_threads: usize,
    /// Cap on simultaneously open connections across all reactors.
    /// Connections beyond the cap are accepted and immediately closed
    /// (counted in the `rejected` gauge) so the listener backlog never
    /// silently fills.
    pub max_connections: usize,
    /// Requests whose declared `Content-Length` exceeds this are rejected
    /// with `413 Payload Too Large` before the body is read.
    pub max_body_bytes: usize,
    /// Request heads (request line + headers) larger than this are `400`s.
    pub max_header_bytes: usize,
    /// Capacity of the bounded ingest channel between the connection core
    /// and the writer thread. When the queue is full, further `/ingest`
    /// requests block in their compute thread (backpressure) until the
    /// writer drains it.
    pub ingest_queue: usize,
    /// Maximum wall-clock time to *receive* one request, including the
    /// idle wait on a keep-alive connection. A client that goes silent or
    /// trickles bytes slower than this is disconnected, so it cannot hold
    /// a connection slot forever. Does not limit how long a request takes
    /// to *process* once received. The reactor fires it from its timer
    /// queue with no polling.
    pub idle_timeout: Duration,
    /// Directory for the write-ahead log. `Some` makes the writer durable:
    /// the server attaches a [`morer_core::wal::Wal`] there (unless the
    /// `Morer` handed to [`crate::MorerServer::start`] already carries one)
    /// and every `/ingest` response is sent only after the commit record is
    /// written — on-disk-acknowledged under [`Durability::Fsync`]. `None`
    /// serves purely in memory.
    pub wal_dir: Option<PathBuf>,
    /// Whether WAL appends are fsync'd before `/ingest` replies. Only
    /// consulted when `wal_dir` is set.
    pub durability: Durability,
    /// Fold the log into a fresh base snapshot every this many records
    /// (0 disables automatic compaction). Only consulted when `wal_dir`
    /// is set.
    pub compact_every: u64,
    /// Group commit: when several `/ingest` micro-batches are queued, the
    /// writer commits them back to back with deferred appends and shares
    /// **one** `fdatasync` across the group — replies are still only sent
    /// after that sync, so the fsync-acknowledgement contract is
    /// unchanged while the per-commit sync cost is amortized. Only
    /// effective with a write-ahead log under
    /// [`Durability::Fsync`].
    pub group_commit: bool,
    /// How often the writer probes a poisoned write-ahead log for repair
    /// ([`morer_core::pipeline::Morer::repair_wal`]) after a transient
    /// commit failure. While poisoned, `/ingest` answers errors and
    /// `/healthz` reports `degraded`; once a probe succeeds the writer
    /// resumes acknowledging durable commits.
    pub writer_retry: Duration,
    /// Requests taking at least this many microseconds are copied into
    /// the slow-request flight recorder (`GET /debug/trace`, `slow`
    /// ring) and logged with their trace id. `0` treats every request as
    /// slow (useful in tests); the default is 100 ms.
    pub slow_request_micros: u64,
    /// Capacity of the recent-requests flight recorder ring, in spans
    /// (`GET /debug/trace`, `recent` ring; the slow ring holds a quarter
    /// of this, floor 64). Clamped to at least 1.
    pub trace_events: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 1,
            compute_threads: 0,
            max_connections: 8192,
            max_body_bytes: 8 << 20,
            max_header_bytes: 8 << 10,
            ingest_queue: 32,
            idle_timeout: Duration::from_secs(30),
            wal_dir: None,
            durability: Durability::Fsync,
            compact_every: 1024,
            group_commit: true,
            writer_retry: Duration::from_secs(1),
            slow_request_micros: 100_000,
            trace_events: 512,
        }
    }
}

impl ServeConfig {
    /// Check the knobs before binding anything. The reactor's idle timers
    /// fire independently of any polling tick, so any nonzero
    /// `idle_timeout` is honoured on time.
    ///
    /// # Errors
    /// [`MorerError::Io`] (kind `InvalidInput`) describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), MorerError> {
        let invalid = |msg: String| {
            Err(MorerError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)))
        };
        if self.max_body_bytes == 0 || self.max_header_bytes == 0 {
            return invalid("max_body_bytes and max_header_bytes must be nonzero".into());
        }
        if self.idle_timeout == Duration::ZERO {
            return invalid("idle_timeout must be nonzero".into());
        }
        if !cfg!(target_os = "linux") {
            return invalid("the serve reactor requires Linux (epoll)".into());
        }
        if self.max_connections == 0 {
            return invalid("max_connections must be nonzero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.reactors >= 1);
        assert!(c.max_connections >= 1024);
        assert!(c.max_body_bytes > c.max_header_bytes);
        assert!(c.ingest_queue >= 1);
        assert!(c.idle_timeout > Duration::ZERO);
        // port 0: tests and examples never collide on a fixed port
        assert!(c.addr.ends_with(":0"));
        // durability is opt-in, but once opted in it defaults to the
        // strongest acknowledgement with periodic compaction
        assert!(c.wal_dir.is_none());
        assert_eq!(c.durability, Durability::Fsync);
        assert!(c.compact_every > 0);
        // group commit keeps the fsync-acknowledgement contract while
        // amortizing the sync, so it is on by default
        assert!(c.group_commit);
        assert!(c.writer_retry > Duration::ZERO);
        // observability defaults: a 100 ms slow threshold and a ring big
        // enough for a few hundred traced requests
        assert_eq!(c.slow_request_micros, 100_000);
        assert!(c.trace_events >= 64);
        if cfg!(target_os = "linux") {
            c.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_zero_limits() {
        if !cfg!(target_os = "linux") {
            assert!(ServeConfig::default().validate().is_err());
            return;
        }
        // the reactor's timers need no polling tick: a 10 ms idle
        // deadline is honoured on time and validates
        let c = ServeConfig { idle_timeout: Duration::from_millis(10), ..ServeConfig::default() };
        c.validate().unwrap();
        for bad in [
            ServeConfig { idle_timeout: Duration::ZERO, ..ServeConfig::default() },
            ServeConfig { max_connections: 0, ..ServeConfig::default() },
            ServeConfig { max_body_bytes: 0, ..ServeConfig::default() },
            ServeConfig { max_header_bytes: 0, ..ServeConfig::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
