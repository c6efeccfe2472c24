//! Server configuration.

use std::path::PathBuf;
use std::time::Duration;

use morer_core::error::MorerError;
use morer_core::wal::Durability;

/// Configuration of a [`crate::MorerServer`]. The serving limits not
/// listed here are fixed: one reactor thread, a compute pool of
/// `max(available_parallelism, 2)` threads, at most 8192 open connections,
/// 8 KiB request heads, an `/ingest` queue 32 jobs deep, and flight
/// recorders of 512 recent and 128 slow spans.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port `0` asks the OS for a free port (the bound
    /// address is reported by [`crate::ServerHandle::addr`]).
    pub addr: String,
    /// Requests whose declared `Content-Length` exceeds this are rejected
    /// with `413 Payload Too Large` before the body is read.
    pub max_body_bytes: usize,
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            max_body_bytes: 8 << 20,
            idle_timeout: Duration::from_secs(30),
            wal_dir: None,
            durability: Durability::Fsync,
            compact_every: 1024,
            group_commit: true,
            writer_retry: Duration::from_secs(1),
            slow_request_micros: 100_000,
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
        if self.max_body_bytes == 0 {
            return invalid("max_body_bytes must be nonzero".into());
        }
        if self.idle_timeout == Duration::ZERO {
            return invalid("idle_timeout must be nonzero".into());
        }
        if !cfg!(target_os = "linux") {
            return invalid("the serve reactor requires Linux (epoll)".into());
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
        // observability default: a 100 ms slow threshold
        assert_eq!(c.slow_request_micros, 100_000);
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
            ServeConfig { max_body_bytes: 0, ..ServeConfig::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
