//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <construct|ingest> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Every workload draws its inputs from `--seed` (`construct`: the
//! pipeline's seed, over fixed datasets), sets itself up
//! several times (the median is `setup_s`), measures for `--seconds`, and
//! checks the program's outputs before any number is reported. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it records the
//! environment the numbers were measured in. Medians skip measurement
//! windows in which the hypervisor stole CPU time (see [`quiet`]).
//!
//! A traced run times calls into each layer's public functions from this
//! package's own files (see [`trace`]), writes the spans to
//! `<out>/trace_<workload>_<seed>.json`, and reports the tracing overhead
//! as the traced minus the untraced time of the same operation, measured in
//! the same run. Layers a workload does not load report `0`.

mod construct;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics (untraced runs): name and unit. Every workload
/// reports every one of them; `README.md` says what "operation" means for
/// each workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("solve_p50_ms", "ms"),
    ("f1", "ratio"),
];

/// Per-layer metrics (traced runs), named `<module>.<metric>`.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.profile_s", "s"),
    ("data.blocking_s", "s"),
    ("sim.featurize_s", "s"),
    ("core.distribution.analysis_s", "s"),
    ("core.distribution.pairs", "count"),
    ("graph.cluster_s", "s"),
    ("graph.clusters", "count"),
    ("al.bootstrap.select_s", "s"),
    ("al.almser.select_s", "s"),
    ("al.labels", "count"),
    ("ml.train_s", "s"),
    ("core.pipeline.other_s", "s"),
    ("core.searcher.search_us", "us"),
    ("ml.predict_us", "us"),
    ("serde_json.decode_us", "us"),
    ("serde_json.encode_us", "us"),
    ("core.distribution.sketch_us", "us"),
    ("core.index.exact_frac", "ratio"),
    ("serve.transport_us", "us"),
    ("core.pipeline.commit_ms", "ms"),
    ("core.distribution.extend_ms", "ms"),
    ("graph.recluster_ms", "ms"),
    ("core.pipeline.models_retrained", "count"),
    ("core.pipeline.reclustered", "count"),
    ("core.wal.durable_overhead_ms", "ms"),
    ("core.pipeline.publish_us", "us"),
    ("serve.writer_wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_share_pct", "%"),
    ("trace.spans", "count"),
];

/// How many times each workload repeats its set-up; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub env: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "construct" => construct::run(&args),
        "ingest" => serve::run_ingest(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (construct|ingest)");
            std::process::exit(2);
        }
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        outcome
            .metrics
            .insert("trace.spans", outcome.spans.len() as f64);
        let path = args
            .out
            .join(format!("trace_{}_{}.json", args.workload, args.seed));
        if let Err(e) = trace::write(&path, &outcome.spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        outcome.env.push(("trace_file", path.display().to_string()));
    } else {
        outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    for (name, _) in declared {
        // a layer the workload does not load did no work in it
        if args.trace {
            outcome.metrics.entry(name).or_insert(0.0);
        }
        assert!(
            outcome.metrics.contains_key(name),
            "workload did not report {name}"
        );
    }

    let mut env = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.trace.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
    ];
    env.append(&mut outcome.env);
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", encode(v)))
        .collect();
    println!("{{\"env\":{{{}}}}}", env_json.join(","));

    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(outcome.metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
}

pub fn encode<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("the vendored encoder is infallible")
}

/// Canonical bytes of a repository, for bit-identity checks.
pub fn canonical(repo: &morer_core::repository::ModelRepository) -> Vec<u8> {
    let mut buf = Vec::new();
    repo.save_json(&mut buf)
        .expect("encoding a repository into memory cannot fail");
    buf
}

/// Every digit as measured; a failed operation's infinite latency prints
/// as a huge finite number so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "1e300".to_owned()
    } else {
        "-1e300".to_owned()
    }
}

/// High-water mark of this process's resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q` of `values` (infinite values — failed
/// operations — sort last).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    if frac == 0.0 {
        v[lo]
    } else if !v[hi].is_finite() {
        v[hi]
    } else {
        v[lo] + (v[hi] - v[lo]) * frac
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Share of the machine's CPU time the hypervisor gave to other guests
/// (`steal` in `/proc/stat`) between laps. On a shared virtual machine a
/// burst of steal slows every window it overlaps, whatever the code does.
pub struct StealClock {
    last: (u64, u64),
}

/// Windows whose steal share is at most this are kept as they are.
const QUIET_STEAL: f64 = 0.01;

impl StealClock {
    pub fn start() -> Self {
        Self {
            last: Self::ticks(),
        }
    }

    /// (steal, total) ticks of all CPUs since boot.
    fn ticks() -> (u64, u64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
    }

    /// Steal share of the CPU time since the previous lap.
    pub fn lap(&mut self) -> f64 {
        let now = Self::ticks();
        let (steal, total) = (now.0 - self.last.0, now.1 - self.last.1);
        self.last = now;
        steal as f64 / total.max(1) as f64
    }
}

/// Indices of the windows to report: those with at most [`QUIET_STEAL`]
/// steal, or — when fewer than half are that quiet — the quieter half.
/// The work and the code measured are the same in every window; only the
/// machine's interference differs.
pub fn quiet(steal: &[f64]) -> Vec<usize> {
    let calm: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i] <= QUIET_STEAL)
        .collect();
    if 2 * calm.len() >= steal.len() {
        return calm;
    }
    let mut by_steal: Vec<usize> = (0..steal.len()).collect();
    by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    by_steal.truncate(steal.len().div_ceil(2));
    by_steal.sort_unstable();
    by_steal
}

/// Median of `values` over the quiet ones (see [`quiet`]).
pub fn quiet_median(values: &[f64], steal: &[f64]) -> f64 {
    median(&quiet(steal).iter().map(|&i| values[i]).collect::<Vec<_>>())
}

/// Environment entries describing the steal seen and the windows kept.
pub fn steal_env(steal: &[f64], kept: &[usize]) -> Vec<(&'static str, String)> {
    let mean = steal.iter().sum::<f64>() / steal.len().max(1) as f64;
    vec![
        ("steal_pct", format!("{:.2}", 100.0 * mean)),
        ("windows_kept", format!("{}/{}", kept.len(), steal.len())),
    ]
}

/// The filesystem type and device a path lives on, from `/proc/mounts`
/// (longest matching mount point).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && path.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} on {}", f[2], f[0])))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}
