//! `construct`: the paper's own claim — build a model repository per
//! (dataset × AL method) and solve the unsolved problems with it.
//!
//! Inputs: the Dexter and Music stand-ins at `DatasetScale::Default`
//! (`camera(.., 0.5, ..)`, `music(.., ..)`), 138 and 10 initial problems.
//! Like the paper's benchmarks the datasets and their initial/unsolved
//! split are fixed (generator seed [`DATA_SEED`]): a seed-drawn split
//! changes the cluster structure, and with it a round's work, by up to 40%,
//! which no bound could absorb. `--seed` seeds the pipeline instead:
//! clustering, active-learning sampling and the models. One operation is one
//! round: `Morer::build` with morer+bs and morer+almser at budget 1000 on
//! both datasets, each followed by a `ModelSearcher::solve` of every
//! unsolved problem, scored against ground truth. Rounds are
//! deterministic, so F1 and labels spent must repeat exactly across rounds.
//!
//! The traced run composes the same public layer calls `Morer::build` makes
//! (sketched analysis, clustering, budget allocation, per-cluster active
//! learning and training) under spans, and checks that the composed
//! repository is identical to the one `Morer::build` returns; whatever the
//! build does outside those calls is reported as `core.pipeline.other_s`.

use std::time::Instant;

use morer_al::AlPool;
use morer_core::budget::allocate;
use morer_core::config::{AlMethod, MorerConfig, TrainingMode};
use morer_core::distribution::build_problem_graph_sketched;
use morer_core::generation::{cluster_seed, make_learner};
use morer_core::pipeline::Morer;
use morer_core::repository::{ClusterEntry, ModelRepository};
use morer_core::searcher::ModelSearcher;
use morer_core::selection::classify;
use morer_data::blocking::{
    token_blocking_profiled, token_blocking_within_profiled, TokenBlockingConfig,
};
use morer_data::{camera, music, profile_dataset, Benchmark, DatasetScale, ErProblem};
use morer_ml::forest::RandomForestConfig;
use morer_ml::metrics::PairCounts;
use morer_ml::mlp::MlpConfig;
use morer_ml::model::{ModelConfig, TrainedModel};

use crate::trace::{self, Tracer, ROOT};
use crate::{
    canonical, median, quantile, quiet, quiet_median, steal_env, Args, Outcome, StealClock,
    SETUP_REPEATS,
};

const METHODS: [AlMethod; 2] = [AlMethod::Bootstrap, AlMethod::Almser];
const BUDGET: usize = 1000;
const DATA_SEED: u64 = 2026;

/// Dexter and Music.
type Inputs = [Benchmark; 2];

/// The token blocking the generators use (`crates/data/src/generator/`)
/// and whether the dataset has same-source deduplication problems.
const BLOCKING: [(TokenBlockingConfig, bool); 2] = [
    (
        TokenBlockingConfig {
            attribute: 0,
            max_block_size: 96,
        },
        true,
    ),
    (
        TokenBlockingConfig {
            attribute: 0,
            max_block_size: 256,
        },
        false,
    ),
];

fn generate() -> Inputs {
    [
        camera(DatasetScale::Default, 0.5, DATA_SEED),
        music(DatasetScale::Default, DATA_SEED),
    ]
}

fn config(method: AlMethod, seed: u64) -> MorerConfig {
    MorerConfig {
        budget: BUDGET,
        training: TrainingMode::ActiveLearning(method),
        seed,
        ..MorerConfig::default()
    }
}

/// One untraced round: wall time of the four build+solve configs, the
/// latency of every single-problem solve, and what each config produced.
struct Round {
    wall_s: f64,
    solve_ms: Vec<f64>,
    counts: Vec<PairCounts>,
    labels: Vec<usize>,
    repositories: Vec<ModelRepository>,
}

fn round(inputs: &Inputs, seed: u64, keep_repositories: bool) -> Round {
    let mut r = Round {
        wall_s: 0.0,
        solve_ms: Vec::new(),
        counts: Vec::new(),
        labels: Vec::new(),
        repositories: Vec::new(),
    };
    for bench in inputs {
        let unsolved = bench.unsolved_problems();
        for method in METHODS {
            let cfg = config(method, seed);
            let start = Instant::now();
            let (morer, report) = Morer::build(bench.initial_problems(), &cfg);
            let mut counts = PairCounts::new();
            for p in &unsolved {
                let t = Instant::now();
                let outcome = morer.searcher().solve(p);
                r.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
                counts.merge(&PairCounts::from_predictions(
                    &outcome.predictions,
                    &p.labels,
                ));
            }
            r.wall_s += start.elapsed().as_secs_f64();
            r.counts.push(counts);
            r.labels.push(report.labels_used);
            if keep_repositories {
                r.repositories.push(morer.repository());
            }
        }
    }
    r
}

/// Generate the inputs, recording the time taken and its steal share.
fn set_up(setups: &mut Vec<f64>, steal: &mut Vec<f64>) -> Inputs {
    let mut clock = StealClock::start();
    let start = Instant::now();
    let inputs = std::hint::black_box(generate());
    setups.push(start.elapsed().as_secs_f64());
    steal.push(clock.lap());
    inputs
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let (mut setups, mut setup_steal) = (Vec::new(), Vec::new());
    let mut inputs = set_up(&mut setups, &mut setup_steal);

    // The set-up is repeated between rounds, not all before them, so that
    // its median samples the host's speed over the whole run, as the
    // rounds' does. Every round runs on freshly generated inputs.
    let mut rounds: Vec<Round> = Vec::new();
    let mut steal = Vec::new();
    let start = Instant::now();
    while rounds.len() < 2 || start.elapsed() < args.window() {
        let mut clock = StealClock::start();
        rounds.push(round(&inputs, args.seed, false));
        steal.push(clock.lap());
        drop(inputs);
        inputs = set_up(&mut setups, &mut setup_steal);
    }
    while setups.len() < SETUP_REPEATS {
        drop(inputs);
        inputs = set_up(&mut setups, &mut setup_steal);
    }
    let first = &rounds[0];
    let repeats = rounds
        .iter()
        .filter(|r| r.counts == first.counts && r.labels == first.labels)
        .count();
    let f1s: Vec<f64> = first.counts.iter().map(PairCounts::f1).collect();
    let kept = quiet(&steal);
    let walls: Vec<f64> = kept.iter().map(|&i| rounds[i].wall_s * 1e3).collect();
    let solve_ms: Vec<f64> = kept
        .iter()
        .flat_map(|&i| rounds[i].solve_ms.iter().copied())
        .collect();
    let f1 = f1s.iter().sum::<f64>() / f1s.len() as f64;
    eprintln!(
        "construct: f1 per config {f1s:?}, labels {:?}, rounds {}",
        first.labels,
        rounds.len()
    );

    let mut out = Outcome {
        correct: repeats == rounds.len() && f1.is_finite() && f1 > 0.0,
        attempted: (rounds.len() * first.counts.len()) as u64,
        failed: ((rounds.len() - repeats) * first.counts.len()) as u64,
        ..Outcome::default()
    };
    out.metrics
        .insert("setup_s", quiet_median(&setups, &setup_steal));
    out.metrics.insert(
        "ops_per_s",
        walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
    );
    out.metrics.insert("op_p50_ms", median(&walls));
    out.metrics.insert("op_p90_ms", quantile(&walls, 0.9));
    out.metrics.insert("solve_p50_ms", median(&solve_ms));
    out.metrics.insert("f1", f1);
    out.env = environment(&inputs, rounds.len());
    out.env.extend(steal_env(&steal, &kept));
    out
}

fn environment(inputs: &Inputs, rounds: usize) -> Vec<(&'static str, String)> {
    let sizes: Vec<String> = inputs
        .iter()
        .map(|b| {
            format!(
                "{}:{}+{} problems",
                b.name,
                b.initial.len(),
                b.unsolved.len()
            )
        })
        .collect();
    vec![
        ("inputs", sizes.join(", ")),
        ("rounds", rounds.to_string()),
        ("operation", "round".into()),
    ]
}

/// `ModelConfig` with the per-cluster seed, as generation training seeds it.
fn with_seed(config: &ModelConfig, seed: u64) -> ModelConfig {
    match config {
        ModelConfig::RandomForest(c) => {
            ModelConfig::RandomForest(RandomForestConfig { seed, ..c.clone() })
        }
        ModelConfig::Mlp(c) => ModelConfig::Mlp(MlpConfig { seed, ..c.clone() }),
        other => other.clone(),
    }
}

fn select_span(method: AlMethod) -> &'static str {
    match method {
        AlMethod::Bootstrap => "al.bootstrap.select",
        AlMethod::Almser => "al.almser.select",
        AlMethod::Random => "al.random.select",
    }
}

/// `Morer::build` composed from the public layer calls, one span each.
/// Returns the searcher over the composed entries and the labels spent.
fn composed_build(
    tracer: &Tracer,
    parent: u64,
    op: u64,
    initial: &[&ErProblem],
    cfg: &MorerConfig,
    method: AlMethod,
) -> (ModelSearcher, usize) {
    let opts = cfg.analysis_options();
    let (graph, _sketches) = tracer.span("core.distribution.analysis", parent, op, |_| {
        build_problem_graph_sketched(initial, &opts, cfg.min_edge_similarity)
    });
    let raw = tracer.span("graph.cluster", parent, op, |_| {
        cfg.clustering.run(&graph, cfg.seed)
    });
    let sizes: Vec<usize> = initial.iter().map(|p| p.num_pairs()).collect();
    let allocation = allocate(raw.members(), &sizes, &graph, cfg.budget, cfg.budget_min);
    let mut entries = Vec::with_capacity(allocation.clusters.len());
    let mut labels = 0;
    for (cid, members) in allocation.clusters.iter().enumerate() {
        let budget = allocation.budgets.get(cid).copied().unwrap_or(0);
        let seed = cluster_seed(cfg.seed, cid);
        let problems: Vec<&ErProblem> = members.iter().map(|&p| initial[p]).collect();
        let selected = tracer.span(select_span(method), parent, op, |_| {
            let mut pool = AlPool::from_problems(&problems);
            make_learner(method, None, seed).select(&mut pool, budget)
        });
        let model = tracer.span("ml.train", parent, op, |_| {
            TrainedModel::train(&with_seed(&cfg.model, seed), &selected.training)
        });
        labels += selected.labels_used;
        let mut entry = ClusterEntry::new(
            cid,
            members.clone(),
            model,
            selected.training,
            selected.labels_used,
        );
        entry.provenance.record(members.clone(), budget);
        entries.push(entry);
    }
    let searcher = ModelSearcher::new(entries, opts);
    searcher.refresh_index();
    (searcher, labels)
}

/// One traced round: per config, the composed build and a span-per-call
/// solve of every unsolved problem.
struct TracedRound {
    wall_s: f64,
    counts: Vec<PairCounts>,
    labels: Vec<usize>,
    repositories: Vec<ModelRepository>,
    ops: Vec<u64>,
}

fn traced_round(tracer: &Tracer, inputs: &Inputs, seed: u64) -> TracedRound {
    let mut r = TracedRound {
        wall_s: 0.0,
        counts: Vec::new(),
        labels: Vec::new(),
        repositories: Vec::new(),
        ops: Vec::new(),
    };
    for bench in inputs {
        let initial = bench.initial_problems();
        let unsolved = bench.unsolved_problems();
        for method in METHODS {
            let cfg = config(method, seed);
            let op = tracer.id();
            let start = Instant::now();
            let (searcher, labels) = tracer.span("core.pipeline.build", ROOT, op, |build| {
                composed_build(tracer, build, op, &initial, &cfg, method)
            });
            let counts = tracer.span("core.pipeline.solve", ROOT, op, |solve| {
                let mut counts = PairCounts::new();
                for p in &unsolved {
                    let hit =
                        tracer.span("core.searcher.search", solve, op, |_| searcher.search(p));
                    let predictions = match hit {
                        Ok(hit) => {
                            tracer
                                .span("ml.predict", solve, op, |_| {
                                    classify(&searcher.entries()[hit.entry_index], p)
                                })
                                .0
                        }
                        Err(_) => vec![false; p.num_pairs()],
                    };
                    for (&pred, &actual) in predictions.iter().zip(&p.labels) {
                        counts.record(pred, actual);
                    }
                }
                counts
            });
            r.wall_s += start.elapsed().as_secs_f64();
            r.counts.push(counts);
            r.labels.push(labels);
            r.repositories.push(searcher.repository());
            r.ops.push(op);
        }
    }
    r
}

/// The data layers behind set-up, timed on the generated sources: one
/// profiling pass, token blocking of every source pair, and featurization
/// of every generated problem's pairs — checked bit-identical to the
/// problems the generator built.
fn data_layers(tracer: &Tracer, inputs: &Inputs) -> bool {
    let op = tracer.id();
    let mut identical = true;
    for (bench, (blocking, self_problems)) in inputs.iter().zip(&BLOCKING) {
        let spec = bench
            .scheme
            .profile_spec()
            .require_tokens(blocking.attribute);
        let profiles = tracer.span("data.profile", ROOT, op, |_| {
            profile_dataset(&bench.dataset, spec)
        });
        let sources = &bench.dataset.sources;
        let blocked = tracer.span("data.blocking", ROOT, op, |_| {
            let mut pairs = 0usize;
            for k in 0..sources.len() {
                if *self_problems {
                    pairs +=
                        token_blocking_within_profiled(&sources[k].records, &profiles, blocking)
                            .len();
                }
                for l in (k + 1)..sources.len() {
                    pairs += token_blocking_profiled(
                        &sources[k].records,
                        &sources[l].records,
                        &profiles,
                        blocking,
                    )
                    .len();
                }
            }
            pairs
        });
        std::hint::black_box(blocked);
        let rebuilt: Vec<ErProblem> = tracer.span("sim.featurize", ROOT, op, |_| {
            bench
                .problems
                .iter()
                .map(|p| {
                    ErProblem::build_with_profiles(
                        p.id,
                        &bench.dataset,
                        &bench.scheme,
                        p.sources,
                        p.pairs.clone(),
                        &profiles,
                    )
                })
                .collect()
        });
        identical &= rebuilt == bench.problems;
    }
    identical
}

fn run_traced(args: &Args) -> Outcome {
    let tracer = Tracer::new();
    let inputs = tracer.span("data.generate", ROOT, tracer.id(), |_| generate());
    let data_identical = data_layers(&tracer, &inputs);

    let mut untraced_walls = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let mut reconciled = data_identical;
    let mut rounds = 0u64;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < args.window() {
        let plain = round(&inputs, args.seed, true);
        let composed = traced_round(&tracer, &inputs, args.seed);
        reconciled &= plain.counts == composed.counts
            && plain.labels == composed.labels
            && plain.repositories == composed.repositories
            && plain
                .repositories
                .iter()
                .map(canonical)
                .eq(composed.repositories.iter().map(canonical));
        untraced_walls.push(plain.wall_s);
        traced.push(composed);
        rounds += 2;
    }

    let spans = tracer.spans();
    let in_round = |name: &str, r: &TracedRound| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && r.ops.contains(&s.op))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    };
    let per_round =
        |name: &str| median(&traced.iter().map(|r| in_round(name, r)).collect::<Vec<_>>());
    let layers = [
        "core.distribution.analysis",
        "graph.cluster",
        "al.bootstrap.select",
        "al.almser.select",
        "ml.train",
        "core.searcher.search",
        "ml.predict",
    ];
    // the build's own time outside the layer calls it was composed from
    let other_s = median(
        &traced
            .iter()
            .map(|r| {
                let build = in_round("core.pipeline.build", r);
                let inside: f64 = layers[..5].iter().map(|l| in_round(l, r)).sum();
                build - inside
            })
            .collect::<Vec<_>>(),
    );
    let layer_share = median(
        &traced
            .iter()
            .map(|r| 100.0 * layers.iter().map(|l| in_round(l, r)).sum::<f64>() / r.wall_s)
            .collect::<Vec<_>>(),
    );
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced_walls);

    let pairs: usize = inputs
        .iter()
        .map(|b| b.initial.len() * (b.initial.len() - 1) / 2)
        .sum::<usize>()
        * METHODS.len();
    let clusters: f64 = traced[0]
        .repositories
        .iter()
        .map(|r| r.num_models() as f64)
        .sum();
    let mut out = Outcome {
        correct: reconciled,
        attempted: rounds * 4,
        failed: 0,
        ..Outcome::default()
    };
    let m = &mut out.metrics;
    m.insert(
        "data.profile_s",
        trace::durations(&spans, "data.profile").iter().sum::<f64>() / 1e9,
    );
    m.insert(
        "data.blocking_s",
        trace::durations(&spans, "data.blocking")
            .iter()
            .sum::<f64>()
            / 1e9,
    );
    m.insert(
        "sim.featurize_s",
        trace::durations(&spans, "sim.featurize")
            .iter()
            .sum::<f64>()
            / 1e9,
    );
    m.insert(
        "core.distribution.analysis_s",
        per_round("core.distribution.analysis"),
    );
    m.insert("core.distribution.pairs", pairs as f64);
    m.insert("graph.cluster_s", per_round("graph.cluster"));
    m.insert("graph.clusters", clusters);
    m.insert("al.bootstrap.select_s", per_round("al.bootstrap.select"));
    m.insert("al.almser.select_s", per_round("al.almser.select"));
    m.insert("al.labels", traced[0].labels.iter().sum::<usize>() as f64);
    m.insert("ml.train_s", per_round("ml.train"));
    m.insert("core.pipeline.other_s", other_s);
    m.insert(
        "core.searcher.search_us",
        median(&trace::durations(&spans, "core.searcher.search")) / 1e3,
    );
    m.insert(
        "ml.predict_us",
        median(&trace::durations(&spans, "ml.predict")) / 1e3,
    );
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
    );
    m.insert("trace.layer_share_pct", layer_share);
    out.env = environment(&inputs, traced.len());
    out.env
        .push(("reconciled_with_morer_build", reconciled.to_string()));
    out.env
        .push(("round_untraced_s", untraced_wall.to_string()));
    out.env.push(("round_traced_s", traced_wall.to_string()));
    out.spans = spans;
    out
}
