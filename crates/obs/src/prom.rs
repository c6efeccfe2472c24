//! Minimal Prometheus text-exposition (version 0.0.4) builder.
//!
//! Produces the line format scraped by Prometheus and its ecosystem:
//!
//! ```text
//! # HELP morer_requests_total Requests answered.
//! # TYPE morer_requests_total counter
//! morer_requests_total{endpoint="solve",class="2xx"} 42
//! ```
//!
//! Kept deliberately small: headers, samples with escaped labels, and a
//! histogram emitter that coarsens a [`HistogramSnapshot`]'s native
//! log-linear buckets onto a stable power-of-two `le` ladder (every
//! power of two is a native bucket boundary, so the cumulative counts
//! are exact — see [`HistogramSnapshot::cumulative_below`]).

use crate::hist::HistogramSnapshot;
use std::fmt::Write as _;

/// Cumulative `le` bounds emitted for histogram series: powers of two
/// from 1 to 2^30 (covers ~18 minutes when recording micros), plus
/// `+Inf`. Fixed, so dashboards see stable series across restarts.
pub const LE_BOUNDS: [u64; 31] = {
    let mut bounds = [0u64; 31];
    let mut i = 0;
    while i < 31 {
        bounds[i] = 1u64 << i;
        i += 1;
    }
    bounds
};

/// Builder for one exposition document.
#[derive(Debug, Default)]
pub struct PromWriter {
    buf: String,
}

fn escape_label(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit the `# HELP` / `# TYPE` header for a metric family. Call
    /// once per family, before its samples; `kind` is `counter`,
    /// `gauge`, or `histogram`.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    /// Emit one sample line. Integer-valued f64s print without a
    /// fractional part (`42`, not `42.0`).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.series(name, "", labels, &[]);
        if value.fract() == 0.0 && value.abs() < 9.0e15 {
            let _ = writeln!(self.buf, " {}", value as i64);
        } else {
            let _ = writeln!(self.buf, " {value}");
        }
    }

    /// Emit a whole histogram family for one label set:
    /// `name_bucket{..,le="1"} ..` through `le="+Inf"`, then `name_sum`
    /// and `name_count`. Emit [`PromWriter::header`] (`histogram`) once
    /// before the first label set of the family.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let mut le = String::new();
        for bound in LE_BOUNDS {
            le.clear();
            let _ = write!(le, "{bound}");
            self.series(name, "_bucket", labels, &[("le", &le)]);
            let _ = writeln!(self.buf, " {}", snap.cumulative_below(bound));
        }
        self.series(name, "_bucket", labels, &[("le", "+Inf")]);
        let _ = writeln!(self.buf, " {}", snap.count);
        self.series(name, "_sum", labels, &[]);
        let _ = writeln!(self.buf, " {}", snap.sum);
        self.series(name, "_count", labels, &[]);
        let _ = writeln!(self.buf, " {}", snap.count);
    }

    /// Write a sample's series name (`name` + `suffix`) and label set; the
    /// caller appends the value.
    fn series(&mut self, name: &str, suffix: &str, labels: &[(&str, &str)], le: &[(&str, &str)]) {
        self.buf.push_str(name);
        self.buf.push_str(suffix);
        self.write_labels(labels, le);
    }

    fn write_labels(&mut self, labels: &[(&str, &str)], extra: &[(&str, &str)]) {
        if labels.is_empty() && extra.is_empty() {
            return;
        }
        self.buf.push('{');
        let mut first = true;
        for (k, v) in labels.iter().chain(extra.iter()) {
            if !first {
                self.buf.push(',');
            }
            first = false;
            self.buf.push_str(k);
            self.buf.push_str("=\"");
            escape_label(v, &mut self.buf);
            self.buf.push('"');
        }
        self.buf.push('}');
    }

    /// The finished exposition document.
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn counters_and_gauges_format_canonically() {
        let mut w = PromWriter::new();
        w.header("morer_requests_total", "counter", "Requests answered.");
        w.sample("morer_requests_total", &[("endpoint", "solve"), ("class", "2xx")], 42.0);
        w.sample("morer_requests_total", &[], 7.0);
        w.header("morer_load", "gauge", "A float gauge.");
        w.sample("morer_load", &[], 0.5);
        let text = w.finish();
        assert!(text.contains("# TYPE morer_requests_total counter\n"));
        assert!(text.contains("morer_requests_total{endpoint=\"solve\",class=\"2xx\"} 42\n"));
        assert!(text.contains("\nmorer_requests_total 7\n"));
        assert!(text.contains("morer_load 0.5\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.sample("m", &[("k", "a\"b\\c\nd")], 1.0);
        assert_eq!(w.finish(), "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn histogram_series_are_cumulative_and_end_at_inf() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 500, 2_000_000] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.header("lat_micros", "histogram", "Latency.");
        w.histogram("lat_micros", &[("endpoint", "solve")], &h.snapshot());
        let text = w.finish();
        assert!(text.contains("lat_micros_bucket{endpoint=\"solve\",le=\"1\"} 1\n")); // the 0
        assert!(text.contains("lat_micros_bucket{endpoint=\"solve\",le=\"4\"} 4\n"));
        assert!(text.contains("lat_micros_bucket{endpoint=\"solve\",le=\"1024\"} 5\n"));
        assert!(text.contains("lat_micros_bucket{endpoint=\"solve\",le=\"+Inf\"} 6\n"));
        assert!(text.contains("lat_micros_sum{endpoint=\"solve\"} 2000506\n"));
        assert!(text.contains("lat_micros_count{endpoint=\"solve\"} 6\n"));
        // cumulative counts never decrease along the ladder
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }
}
