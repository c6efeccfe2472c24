//! In-memory span recorder for the traced runs.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, start, end, the span that caused it and an
//! operation id shared by every span of one operation (one request, one
//! `Morer::build`). Spans stay in memory and are written to a JSON file
//! when the run ends, together with each span name's self time (its
//! duration minus the part covered by its child spans).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no parent": a span without a parent is an operation root.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collected spans of one run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next: std::sync::atomic::AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// A fresh id for a span or an operation.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// its own calls can record child spans.
    pub fn span<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.id();
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }
}

/// Per span name: (count, total ns, self ns).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Write every span plus the per-name self-time table as one JSON object.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"self_times\":{{")?;
    let table = self_times(spans);
    for (i, (name, (count, total, own))) in table.iter().enumerate() {
        let sep = if i + 1 == table.len() { "" } else { "," };
        writeln!(
            w,
            "\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}{sep}"
        )?;
    }
    writeln!(w, "}},\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}
