//! `ingest`: the service as deployed, driven over loopback HTTP by two
//! closed-loop clients (each sends its next request only after the
//! previous reply) on this 2-core class of box. A durable server
//! (`wal_dir` set, fsync acknowledgement, group commit on,
//! `ReclusterPolicy::Always`) starts from a 40-problem repository
//! (`analysis_workload(40, 2000, 6, ..)`, supervised naive Bayes). One
//! connection sends one 500-row arrival per `/ingest`; the other sends
//! `/solve` of 2000-row queries in a closed loop. After shutdown,
//! `Morer::open` on the log must be bit-identical to an in-process twin
//! fed the same arrivals.
//!
//! A non-200 reply is a failed operation and counts as missing every
//! latency limit (its latency is infinite).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use morer_bench::workload::analysis_workload;
use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::distribution::{
    build_problem_graph_sketched, extend_problem_graph_sketched, DistributionSketch,
};
use morer_core::pipeline::{IngestReport, Morer};
use morer_core::searcher::{ModelSearcher, SolveOutcome};
use morer_core::selection::classify;
use morer_core::wal::{Durability, WalOptions};
use morer_data::ErProblem;
use morer_ml::metrics::PairCounts;
use morer_ml::model::ModelConfig;
use morer_serve::{Connection, MorerServer, ServeConfig, ServerHandle};

use crate::trace::{self, Tracer, ROOT};
use crate::{
    canonical, encode, filesystem_of, median, quantile, quiet, quiet_median, steal_env, Args,
    Outcome, StealClock, SETUP_REPEATS,
};

const QUERY_ROWS: usize = 2000;
const FEATURES: usize = 6;
const INGEST_BASE: usize = 40;
const ARRIVAL_ROWS: usize = 500;
const READER_QUERIES: usize = 8;

/// Latencies and checked answers of one closed-loop client.
#[derive(Default)]
struct Load {
    latencies_ms: Vec<f64>,
    failed: u64,
    wrong: u64,
    counts: PairCounts,
    elapsed_s: f64,
}

impl Load {
    fn merge(mut self, other: Load) -> Load {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.counts.merge(&other.counts);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self
    }

    fn ok(&self) -> u64 {
        self.latencies_ms.len() as u64 - self.failed
    }

    fn record(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
    }
}

/// Closed loop of `POST path` until `stop()`: request `i` sends
/// `bodies[i % n]`; `check(query, body)` returns the
/// answer's confusion counts when it is correct. With a tracer, every
/// request is one `span_name` operation.
fn closed_loop(
    addr: SocketAddr,
    path: &str,
    bodies: &[String],
    stop: &(dyn Fn() -> bool + Sync),
    check: &(dyn Fn(usize, &str) -> Option<PairCounts> + Sync),
    tracer: Option<(&Tracer, &'static str)>,
) -> Load {
    let mut load = Load::default();
    let mut conn = Connection::open(addr).expect("connect to the benchmark's own server");
    let begin = Instant::now();
    let mut q = 0;
    while !stop() {
        let t = Instant::now();
        let res = match tracer {
            Some((tracer, name)) => {
                tracer.span(name, ROOT, tracer.id(), |_| conn.post(path, &bodies[q]))
            }
            None => conn.post(path, &bodies[q]),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(res) if res.status == 200 => {
                load.record(ms);
                match check(q, &res.body) {
                    Some(counts) => load.counts.merge(&counts),
                    None => load.wrong += 1,
                }
            }
            Ok(res) => {
                eprintln!("{path}: status {}: {}", res.status, res.body);
                load.record(f64::INFINITY);
                load.failed += 1;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                load.record(f64::INFINITY);
                load.failed += 1;
                conn = Connection::open(addr).expect("reconnect to the benchmark's own server");
            }
        }
        q = (q + 1) % bodies.len();
    }
    load.elapsed_s = begin.elapsed().as_secs_f64();
    load
}

fn counts_of(outcome: &SolveOutcome, problem: &ErProblem) -> PairCounts {
    PairCounts::from_predictions(&outcome.predictions, &problem.labels)
}

/// Decode → sketch → search → predict → encode of one query, one span per
/// layer call, as the server composes a `/solve`. Returns the µs spent in
/// the layers the server runs (decode, search, predict, encode; the sketch
/// is part of search) and the encoded body, or `None` when the body differs
/// from `ModelSearcher::solve`'s (checked outside the spans).
fn solve_probe(tracer: &Tracer, searcher: &ModelSearcher, body: &str) -> Option<(f64, String)> {
    let op = tracer.id();
    let started = Instant::now();
    let problem: ErProblem = tracer.span("serde_json.decode", ROOT, op, |_| {
        let p: ErProblem = serde_json::from_str(body).expect("benchmark queries decode");
        p.validate().expect("benchmark queries are consistent");
        p
    });
    let decoded = started.elapsed();
    let sketch = tracer.span("core.distribution.sketch", ROOT, op, |_| {
        DistributionSketch::of(&problem, searcher.options())
    });
    std::hint::black_box(sketch);
    let resumed = Instant::now();
    let hit = tracer
        .span("core.searcher.search", ROOT, op, |_| {
            searcher.search(&problem)
        })
        .ok()?;
    let (predictions, probabilities) = tracer.span("ml.predict", ROOT, op, |_| {
        classify(&searcher.entries()[hit.entry_index], &problem)
    });
    let outcome = SolveOutcome {
        predictions,
        probabilities,
        entry: Some(hit.entry_id),
        similarity: hit.similarity,
        retrained: false,
        new_model: false,
        labels_spent: 0,
    };
    let body = tracer.span("serde_json.encode", ROOT, op, |_| encode(&outcome));
    let layers_us = (decoded + resumed.elapsed()).as_secs_f64() * 1e6;
    (body == encode(&searcher.solve(&problem))).then_some((layers_us, body))
}

/// Once a traced cycle's writer is done, the served repository equals the
/// in-process twin's. Each query is then sent over HTTP and probed
/// in-process ([`solve_probe`]) back to back: the reply must equal the
/// probe's body, and the round trip minus the probed layers is that
/// request's transport. Returns the transports (µs) and the failed
/// requests. Runs on a thread of its own, as the server runs a request:
/// on the main thread's allocator arena decoding took ~40% longer.
fn settled_pass(
    addr: SocketAddr,
    bodies: &[String],
    tracer: &Tracer,
    searcher: &ModelSearcher,
) -> (Vec<f64>, u64) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut conn = Connection::open(addr).expect("connect to morer-serve");
                let (mut transport_us, mut failed) = (Vec::new(), 0);
                for body in bodies {
                    let t = Instant::now();
                    let res = tracer.span("serve.solve_settled", ROOT, tracer.id(), |_| {
                        conn.post("/solve", body)
                    });
                    let round_trip_us = t.elapsed().as_secs_f64() * 1e6;
                    match (res, solve_probe(tracer, searcher, body)) {
                        (Ok(res), Some((layers_us, expected)))
                            if res.status == 200 && res.body == expected =>
                        {
                            transport_us.push(round_trip_us - layers_us);
                        }
                        _ => failed += 1,
                    }
                }
                (transport_us, failed)
            })
            .join()
            .expect("settled pass panicked")
    })
}

/// Medians (µs) of the probed read-path layers, and the index's exact
/// scores over the entries it considered.
fn read_layers(spans: &[trace::Span], searcher: &ModelSearcher, out: &mut Outcome) {
    for (span, metric) in [
        ("serde_json.decode", "serde_json.decode_us"),
        ("core.distribution.sketch", "core.distribution.sketch_us"),
        ("core.searcher.search", "core.searcher.search_us"),
        ("ml.predict", "ml.predict_us"),
        ("serde_json.encode", "serde_json.encode_us"),
    ] {
        out.metrics
            .insert(metric, median(&trace::durations(spans, span)) / 1e3);
    }
    if let Some(ov) = searcher.index_overview() {
        out.metrics.insert(
            "core.index.exact_frac",
            ov.exact_scored as f64 / ov.considered.max(1) as f64,
        );
    }
}

/// Arrivals per cycle. Every cycle restarts the durable server from the
/// same 40-problem repository and ingests the same arrivals, so the work
/// per cycle is fixed (the repository grows from 40 to 140 problems) and
/// cycles can be repeated until the window is spent.
const CYCLE_ARRIVALS: usize = 100;

fn ingest_config(seed: u64) -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed,
        ..MorerConfig::default()
    }
}

struct IngestInputs {
    arrivals: Vec<ErProblem>,
    arrival_bodies: Vec<String>,
    queries: Vec<ErProblem>,
    reader_bodies: Vec<String>,
}

impl IngestInputs {
    fn new(seed: u64) -> Self {
        let arrivals = analysis_workload(CYCLE_ARRIVALS, ARRIVAL_ROWS, FEATURES, seed ^ 0xA221);
        let queries = analysis_workload(READER_QUERIES, QUERY_ROWS, FEATURES, seed ^ 0x50_1E);
        Self {
            arrival_bodies: arrivals.iter().map(encode).collect(),
            reader_bodies: queries.iter().map(encode).collect(),
            arrivals,
            queries,
        }
    }
}

fn base_problems(cfg: &MorerConfig) -> Vec<ErProblem> {
    analysis_workload(INGEST_BASE, QUERY_ROWS, FEATURES, cfg.seed ^ 0x1261)
}

fn base_repository(cfg: &MorerConfig) -> Morer {
    Morer::build(base_problems(cfg).iter().collect(), cfg).0
}

/// Set-up of one cycle: build the base repository, start the durable
/// server on a fresh log directory, and warm it with one read pass.
fn ingest_setup(cfg: &MorerConfig, inputs: &IngestInputs, dir: &Path) -> (ServerHandle, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let morer = base_repository(cfg);
    let serve = ServeConfig {
        wal_dir: Some(dir.to_path_buf()),
        durability: Durability::Fsync,
        group_commit: true,
        ..ServeConfig::default()
    };
    let handle = MorerServer::start(morer, &serve).expect("start durable morer-serve");
    let mut conn = Connection::open(handle.addr()).expect("connect to morer-serve");
    for body in &inputs.reader_bodies {
        let res = conn.post("/solve", body).expect("warm-up solve");
        assert_eq!(res.status, 200, "warm-up solve failed: {}", res.body);
    }
    (handle, start.elapsed().as_secs_f64())
}

/// One connection ingesting every arrival, one per request; each reply
/// must report exactly that arrival's commit.
fn ingest_loop(
    addr: SocketAddr,
    bodies: &[String],
    base_epoch: u64,
    tracer: Option<&Tracer>,
) -> Load {
    let mut load = Load::default();
    let mut conn = Connection::open(addr).expect("connect to morer-serve");
    let begin = Instant::now();
    for (k, body) in bodies.iter().enumerate() {
        let t = Instant::now();
        let res = match tracer {
            Some(tracer) => tracer.span("serve.ingest", ROOT, tracer.id(), |_| {
                conn.post("/ingest", body)
            }),
            None => conn.post("/ingest", body),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(res) if res.status == 200 => {
                load.record(ms);
                let report: Option<IngestReport> = res.json().ok();
                let expected = base_epoch + k as u64 + 1;
                if !report.is_some_and(|r| r.problems_added == 1 && r.epoch == expected) {
                    load.wrong += 1;
                }
            }
            other => {
                eprintln!("/ingest: {other:?}");
                load.record(f64::INFINITY);
                load.failed += 1;
                // the arrival may or may not have committed: the server
                // and the twin can no longer agree, so stop here
                break;
            }
        }
    }
    load.elapsed_s = begin.elapsed().as_secs_f64();
    load
}

/// One cycle's load: the writer ingests every arrival while the reader
/// solves in a closed loop until the writer is done.
fn cycle_load(
    handle: &ServerHandle,
    inputs: &IngestInputs,
    tracer: Option<&Tracer>,
) -> (Load, Load) {
    let addr = handle.addr();
    let base_epoch = handle.epoch();
    let done = AtomicBool::new(false);
    let stop = || done.load(Ordering::Acquire);
    let queries = &inputs.queries;
    let check = |q: usize, body: &str| {
        let outcome: SolveOutcome = serde_json::from_str(body).ok()?;
        (outcome.predictions.len() == queries[q].num_pairs() && outcome.entry.is_some())
            .then(|| counts_of(&outcome, &queries[q]))
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            closed_loop(
                addr,
                "/solve",
                &inputs.reader_bodies,
                &stop,
                &check,
                tracer.map(|t| (t, "serve.solve")),
            )
        });
        let writes = ingest_loop(addr, &inputs.arrival_bodies, base_epoch, tracer);
        done.store(true, Ordering::Release);
        (writes, reader.join().expect("reader client panicked"))
    })
}

/// What every cycle's recovered log must equal: the epoch and canonical
/// repository bytes of an in-process twin fed the same arrivals.
struct Expected {
    epoch: u64,
    repository: Vec<u8>,
}

impl Expected {
    fn of(twin: &Morer) -> Self {
        Self {
            epoch: twin.epoch(),
            repository: canonical(&twin.repository()),
        }
    }

    /// Recover the served log after shutdown and compare it bit for bit.
    fn matches_log(&self, dir: &Path, cfg: &MorerConfig) -> bool {
        let recovered = Morer::open(dir, cfg).expect("recover the served log");
        recovered.epoch() == self.epoch && canonical(&recovered.repository()) == self.repository
    }
}

/// What [`run_cycles`] measured; `writes` and `reads` are indexed by
/// kind, untraced (0) and traced (1).
struct Cycles {
    setups: Vec<f64>,
    writes: [Load; 2],
    reads: [Load; 2],
    durable: bool,
    cycles: usize,
    setup_steal: Vec<f64>,
    /// Untraced cycles: (ingests per second, ingest p50 ms, ingest p90 ms,
    /// solve p50 ms) and the cycle's steal share.
    per_cycle: Vec<((f64, f64, f64, f64), f64)>,
    /// Traced cycles' [`settled_pass`]es: transports (µs), requests sent
    /// and failed.
    transport_us: Vec<f64>,
    settled: u64,
    settled_failed: u64,
}

/// Run whole cycles, alternating untraced and traced ones when a tracer
/// (and the in-process twin's searcher, for the [`settled_pass`] that ends
/// each traced cycle) is given, until `--seconds` of load are spent (at
/// least [`SETUP_REPEATS`] cycles, so one of each kind when traced).
fn run_cycles(
    args: &Args,
    cfg: &MorerConfig,
    inputs: &IngestInputs,
    expected: &Expected,
    traced: Option<(&Tracer, &ModelSearcher)>,
) -> Cycles {
    let dir = args
        .out
        .join(format!("wal-{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let mut c = Cycles {
        setups: Vec::new(),
        writes: Default::default(),
        reads: Default::default(),
        durable: true,
        cycles: 0,
        setup_steal: Vec::new(),
        per_cycle: Vec::new(),
        transport_us: Vec::new(),
        settled: 0,
        settled_failed: 0,
    };
    let mut measured = 0.0;
    while c.cycles < SETUP_REPEATS || measured < args.seconds {
        let mut clock = StealClock::start();
        let (handle, setup) = ingest_setup(cfg, inputs, &dir);
        c.setups.push(setup);
        c.setup_steal.push(clock.lap());
        let traced = traced.filter(|_| c.cycles % 2 == 1);
        let kind = usize::from(traced.is_some());
        let (writes, reads) = cycle_load(&handle, inputs, traced.map(|t| t.0));
        let steal = clock.lap();
        measured += writes.elapsed_s;
        if let Some((tracer, searcher)) = traced {
            let (transport_us, failed) =
                settled_pass(handle.addr(), &inputs.reader_bodies, tracer, searcher);
            c.transport_us.extend(transport_us);
            c.settled += inputs.reader_bodies.len() as u64;
            c.settled_failed += failed;
        }
        handle.shutdown();
        c.durable &= writes.ok() as usize == CYCLE_ARRIVALS && expected.matches_log(&dir, cfg);
        if kind == 0 {
            c.per_cycle.push((
                (
                    writes.ok() as f64 / writes.elapsed_s,
                    median(&writes.latencies_ms),
                    quantile(&writes.latencies_ms, 0.9),
                    median(&reads.latencies_ms),
                ),
                steal,
            ));
        }
        c.writes[kind] = std::mem::take(&mut c.writes[kind]).merge(writes);
        c.reads[kind] = std::mem::take(&mut c.reads[kind]).merge(reads);
        c.cycles += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    c
}

pub fn run_ingest(args: &Args) -> Outcome {
    let cfg = ingest_config(args.seed);
    let inputs = IngestInputs::new(args.seed);
    let mut out = Outcome::default();
    out.env
        .push(("operation", "POST /ingest (fsync-acknowledged)".into()));
    out.env.push(("connections", "1 ingest + 1 solve".into()));
    out.env
        .push(("arrivals_per_cycle", CYCLE_ARRIVALS.to_string()));
    out.env
        .push(("flush_policy", "fsync-acknowledged, group commit on".into()));
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    out.env.push(("wal_filesystem", filesystem_of(&args.out)));

    if args.trace {
        return ingest_traced(args, &cfg, &inputs, out);
    }
    let mut twin = base_repository(&cfg);
    for p in &inputs.arrivals {
        twin.add_problem(p).expect("in-memory ingest cannot fail");
    }
    let expected = Expected::of(&twin);
    drop(twin);

    let c = run_cycles(args, &cfg, &inputs, &expected, None);
    let [writes, _] = &c.writes;
    let [reads, _] = &c.reads;
    out.correct = c.durable && writes.wrong + reads.wrong + writes.failed + reads.failed == 0;
    out.attempted = (writes.latencies_ms.len() + reads.latencies_ms.len()) as u64;
    out.failed = writes.failed + reads.failed;
    let m = &mut out.metrics;
    m.insert("setup_s", quiet_median(&c.setups, &c.setup_steal));
    let steal: Vec<f64> = c.per_cycle.iter().map(|w| w.1).collect();
    let kept = quiet(&steal);
    let col = |f: fn(&(f64, f64, f64, f64)) -> f64| {
        median(
            &kept
                .iter()
                .map(|&i| f(&c.per_cycle[i].0))
                .collect::<Vec<_>>(),
        )
    };
    m.insert("ops_per_s", col(|c| c.0));
    m.insert("op_p50_ms", col(|c| c.1));
    m.insert("op_p90_ms", col(|c| c.2));
    m.insert("solve_p50_ms", col(|c| c.3));
    m.insert("f1", reads.counts.f1());
    out.env.push(("cycles", c.cycles.to_string()));
    out.env
        .push(("ingests", writes.latencies_ms.len().to_string()));
    out.env
        .push(("solves", reads.latencies_ms.len().to_string()));
    out.env
        .push(("recovered_equals_twin", c.durable.to_string()));
    out.env.extend(steal_env(&steal, &kept));
    out
}

/// The writer's layers replayed in-process over one cycle's arrivals: the
/// in-memory twin (`add_problems`, snapshot publication), a durable twin
/// with its own fsync'd log, and a benchmark-held problem graph extended
/// and reclustered per arrival. Returns the in-memory twin.
fn writer_layers(
    tracer: &Tracer,
    cfg: &MorerConfig,
    inputs: &IngestInputs,
    dir: &Path,
    out: &mut Outcome,
) -> Morer {
    let base = base_problems(cfg);
    let refs: Vec<&ErProblem> = base.iter().collect();
    let mut twin = Morer::build(refs.clone(), cfg).0;
    let mut durable = twin.clone();
    let _ = std::fs::remove_dir_all(dir);
    durable
        .attach_wal(
            dir,
            WalOptions {
                durability: Durability::Fsync,
                compact_every: ServeConfig::default().compact_every,
            },
        )
        .expect("attach the durable twin's log");
    let opts = cfg.analysis_options();
    let (mut graph, mut sketches) =
        build_problem_graph_sketched(&refs, &opts, cfg.min_edge_similarity);
    let (mut retrained, mut reclustered) = (0usize, 0usize);
    for p in &inputs.arrivals {
        let op = tracer.id();
        let report = tracer
            .span("core.pipeline.commit", ROOT, op, |_| twin.add_problem(p))
            .expect("in-memory ingest");
        retrained += report.models_retrained;
        reclustered += usize::from(report.reclustered);
        std::hint::black_box(tracer.span("core.pipeline.publish", ROOT, op, |_| twin.snapshot()));
        tracer
            .span("core.wal.durable_commit", ROOT, op, |_| {
                durable.add_problem(p)
            })
            .expect("durable ingest");
        tracer.span("core.distribution.extend", ROOT, op, |_| {
            extend_problem_graph_sketched(
                &mut graph,
                &mut sketches,
                &[p],
                &opts,
                cfg.min_edge_similarity,
            )
        });
        std::hint::black_box(tracer.span("graph.recluster", ROOT, op, |_| {
            cfg.clustering.run(&graph, cfg.seed)
        }));
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    let spans = tracer.spans();
    let ms = |name: &str| median(&trace::durations(&spans, name)) / 1e6;
    let n = inputs.arrivals.len() as f64;
    let m = &mut out.metrics;
    m.insert("core.pipeline.commit_ms", ms("core.pipeline.commit"));
    m.insert(
        "core.wal.durable_overhead_ms",
        ms("core.wal.durable_commit") - ms("core.pipeline.commit"),
    );
    m.insert(
        "core.distribution.extend_ms",
        ms("core.distribution.extend"),
    );
    m.insert("graph.recluster_ms", ms("graph.recluster"));
    m.insert(
        "core.pipeline.publish_us",
        ms("core.pipeline.publish") * 1e3,
    );
    m.insert("core.pipeline.models_retrained", retrained as f64 / n);
    m.insert("core.pipeline.reclustered", reclustered as f64 / n);
    twin
}

fn ingest_traced(
    args: &Args,
    cfg: &MorerConfig,
    inputs: &IngestInputs,
    mut out: Outcome,
) -> Outcome {
    let tracer = Tracer::new();
    let twin_dir = args
        .out
        .join(format!("twin-{}-{}", args.seed, std::process::id()));
    let mut twin = writer_layers(&tracer, cfg, inputs, &twin_dir, &mut out);
    let expected = Expected::of(&twin);
    // the read path's layers on the repository state a cycle ends in
    let searcher = twin.snapshot();
    searcher.warm();

    let c = run_cycles(args, cfg, inputs, &expected, Some((&tracer, &searcher)));
    let spans = tracer.spans();
    read_layers(&spans, &searcher, &mut out);
    out.metrics
        .insert("serve.transport_us", median(&c.transport_us));
    let [plain_w, traced_w] = &c.writes;
    let p50 = |l: &Load| median(&l.latencies_ms);
    let durable_commit_ms = median(&trace::durations(&spans, "core.wal.durable_commit")) / 1e6;
    out.metrics
        .insert("serve.writer_wait_ms", p50(traced_w) - durable_commit_ms);
    out.metrics.insert(
        "trace.overhead_pct",
        100.0 * (p50(traced_w) - p50(plain_w)) / p50(plain_w),
    );
    out.metrics.insert(
        "trace.layer_share_pct",
        100.0 * durable_commit_ms / p50(traced_w),
    );
    let loads = || c.writes.iter().chain(&c.reads);
    let sent: u64 = loads().map(|l| l.latencies_ms.len() as u64).sum();
    let failed: u64 = loads().map(|l| l.failed).sum();
    out.correct = c.durable && c.settled_failed == 0 && loads().all(|l| l.wrong + l.failed == 0);
    out.attempted = c.settled + sent;
    out.failed = c.settled_failed + failed;
    out.env.push(("cycles", c.cycles.to_string()));
    out.env
        .push(("recovered_equals_twin", c.durable.to_string()));
    out.spans = spans;
    out
}
