//! `repro quick-bench`: one JSON line of per-layer throughput, for
//! trajectory tracking.
//!
//! Each probe below measures one layer. It builds its own inputs from the
//! seed through [`morer_bench::workload`], asserts that the layer's fast
//! path equals its reference path, and returns its keys next to their
//! values. [`run`] calls the probes in order and prints their keys as one
//! JSON object, so nothing is printed unless every assertion held.
//!
//! ```text
//! cargo run -p morer-bench --release -- quick-bench
//! ```

use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use morer_bench::workload::{
    analysis_workload, committee_pool, committee_training_set, committee_votes,
    committee_votes_reference, featurization_workload, fit_committee, fit_committee_reference,
    repository_problems, repository_workload, search_workload, singleton_entries,
};
use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::distribution::{
    build_problem_graph_direct, build_problem_graph_sketched, problem_similarity_with,
    sketch_similarity, AnalysisOptions, DistributionSketch, DistributionTest,
};
use morer_core::pipeline::{IngestReport, Morer};
use morer_core::replication::{FollowerState, SegmentStatus};
use morer_core::repository::ModelRepository;
use morer_core::searcher::{ModelSearcher, SearchHit, SolveOutcome};
use morer_core::selection::best_entry_for;
use morer_core::wal::{CommitRecord, Durability, Wal, WalOptions, BASE_FILE, HEADER_LEN, LOG_FILE};
use morer_data::{profile_dataset, ErProblem};
use morer_ml::model::{Classifier, ModelConfig, TrainedModel};
use morer_ml::{FeatureMatrix, TrainingSet};
use morer_serve::{
    Connection, Endpoint, MetricsRegistry, MorerServer, ServeConfig, ServerHandle, StatsResponse,
};
use morer_stats::tests::ks_statistic_sorted;
use morer_stats::{ColumnSketch, UnivariateTest};
use serde::json::Parser;
use serde::{Deserialize, Serialize, Value};

/// A probe's output: JSON keys with their already formatted values.
type Keys = Vec<(&'static str, String)>;

/// Encodes and decodes of each document per timed round of the codec probe.
const CODEC_REPS: usize = 20;
/// Passes over the queries per timed round of the sketch and predict probes.
const QUERY_REPS: usize = 10;
/// Passes over the query set in every timed search and serve loop.
const ROUNDS: usize = 3;
/// Threads of the multi-threaded search probe.
const SEARCH_THREADS: usize = 4;
/// Loopback connections of the serve and reactor probes.
const SERVE_CONNS: usize = 4;
/// Commit records each write-ahead-log probe appends.
const WAL_APPENDS: usize = 64;
/// Problems in the ingest repository before the arrivals.
const INGEST_BASE: usize = 40;
/// Arrivals of the `par` probe's extend loop, and their rows.
const EXTEND_ARRIVALS: usize = 100;
const EXTEND_ROWS: usize = 500;
/// Trivial calls the `par` probe times one by one for its dispatch cost.
const DISPATCH_CALLS: usize = 2001;
const NON_EMPTY: &str = "non-empty repository";

/// Run every probe in order and print one JSON line.
pub fn run(seed: u64) {
    let keys = [
        featurization(seed),
        analysis(seed),
        sketch(seed),
        predict(seed),
        search(seed),
        search_index(seed),
        ingest(seed),
        serve(seed),
        metrics_record(),
        reactor(seed),
        durability(seed),
        committee(seed),
        codec(seed),
        numbers(seed),
        par_pool(seed),
    ]
    .concat();
    let mut line = String::from("{\"bench\":\"featurization\"");
    for (key, value) in keys {
        line += &format!(",\"{key}\":{value}");
    }
    println!("{line}}}");
}

/// `f`'s result and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The fastest of [`ROUNDS`] timings of `reps` calls to `fast` and to
/// `reference`, in seconds. The rounds alternate between the two, and the
/// minimum is the steadiest figure for a short loop on a host whose speed
/// drifts.
fn best_of_alternating<A, B>(
    reps: usize,
    fast: impl Fn() -> A,
    reference: impl Fn() -> B,
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        best.0 = best.0.min(timed(|| (0..reps).for_each(|_| drop(black_box(fast())))).1);
        best.1 = best.1.min(timed(|| (0..reps).for_each(|_| drop(black_box(reference())))).1);
    }
    best
}

/// `x` with `digits` decimals.
fn fixed(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Featurization of 10k records into 100k candidate pairs: the cold
/// per-pair string path (`ErProblem::build_cold`, the oracle) against the
/// profiled fast path, and a shared-profile build split into profiling
/// and pair featurization.
fn featurization(seed: u64) -> Keys {
    let w = featurization_workload(5_000, 100_000, seed);
    let build = || ErProblem::build(0, &w.dataset, &w.scheme, (0, 1), w.pairs.clone());
    let fast = build(); // warm-up
    let (cold, cold_s) =
        timed(|| ErProblem::build_cold(0, &w.dataset, &w.scheme, (0, 1), w.pairs.clone()));
    assert_eq!(fast.features, cold.features, "fast path diverged from cold path");
    let (profiled, profiled_s) = timed(build);
    assert_eq!(profiled.features, cold.features, "profiled rerun diverged");
    let (profiles, profile_s) = timed(|| profile_dataset(&w.dataset, w.scheme.profile_spec()));
    let (shared, featurize_s) = timed(|| {
        ErProblem::build_with_profiles(0, &w.dataset, &w.scheme, (0, 1), w.pairs.clone(), &profiles)
    });
    assert_eq!(shared.features, cold.features, "shared-profile path diverged");

    let pairs = w.pairs.len() as f64;
    vec![
        ("records", w.dataset.num_records().to_string()),
        ("pairs", w.pairs.len().to_string()),
        ("features", w.scheme.num_features().to_string()),
        ("cold_s", fixed(cold_s, 4)),
        ("profiled_s", fixed(profiled_s, 4)),
        ("profile_s", fixed(profile_s, 4)),
        ("featurize_s", fixed(featurize_s, 4)),
        ("cold_pairs_per_s", fixed(pairs / cold_s, 0)),
        ("profiled_pairs_per_s", fixed(pairs / profiled_s, 0)),
        ("speedup_vs_cold", fixed(cold_s / profiled_s, 2)),
    ]
}

/// KS analysis with an uncapped sample: the sketched and direct `sim_p`
/// agree bit for bit (subsampling is the one sanctioned divergence).
fn exact_options(seed: u64) -> AnalysisOptions {
    AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, usize::MAX, seed)
}

/// The distribution-analysis graph build over 40 problems (780 `sim_p`
/// pairs): direct per-pair recomputation against the sketched build, then
/// the KS of those pairs' 6 column sketches through the bucket-pruned
/// kernel against `ks_statistic_sorted`.
fn analysis(seed: u64) -> Keys {
    let problems = analysis_workload(40, 2000, 6, seed);
    let refs: Vec<&ErProblem> = problems.iter().collect();
    let opts = exact_options(seed);
    let (direct, direct_s) = timed(|| build_problem_graph_direct(&refs, &opts, 0.0));
    let ((sketched, sketches), sketched_s) =
        timed(|| build_problem_graph_sketched(&refs, &opts, 0.0));
    for i in 0..refs.len() {
        for j in (i + 1)..refs.len() {
            assert_eq!(
                sketched.edge_weight(i, j),
                direct.edge_weight(i, j),
                "sketched sim_p diverged from direct at pair ({i},{j})"
            );
        }
    }

    // the sketch-vs-sketch KS of every pair and column, ROUNDS times: the
    // bucket-pruned kernel against the full merge walk on the same columns
    let columns: Vec<(&ColumnSketch, &ColumnSketch)> = (0..sketches.len())
        .flat_map(|i| ((i + 1)..sketches.len()).map(move |j| (i, j)))
        .flat_map(|(i, j)| sketches[i].columns().iter().zip(sketches[j].columns()))
        .collect();
    let ks_all = |ks: &dyn Fn(&ColumnSketch, &ColumnSketch) -> f64| {
        let mut bits = Vec::new();
        for _ in 0..ROUNDS {
            bits = columns.iter().map(|&(a, b)| ks(a, b).to_bits()).collect::<Vec<u64>>();
        }
        bits
    };
    let (kernel, ks_s) = timed(|| ks_all(&|a, b| a.distance(b, UnivariateTest::KolmogorovSmirnov)));
    let (reference, ks_reference_s) =
        timed(|| ks_all(&|a, b| ks_statistic_sorted(a.sorted(), b.sorted())));
    assert_eq!(kernel, reference, "bucket-pruned KS diverged from the merge walk");

    let pairs = refs.len() * (refs.len() - 1) / 2;
    vec![
        ("analysis_problems", refs.len().to_string()),
        ("analysis_pairs", pairs.to_string()),
        ("analysis_direct_s", fixed(direct_s, 4)),
        ("analysis_sketched_s", fixed(sketched_s, 4)),
        ("analysis_direct_pairs_per_s", fixed(pairs as f64 / direct_s, 0)),
        ("analysis_pairs_per_s", fixed(pairs as f64 / sketched_s, 0)),
        ("analysis_speedup", fixed(direct_s / sketched_s, 2)),
        ("analysis_ks_s", fixed(ks_s, 4)),
        ("analysis_ks_reference_s", fixed(ks_reference_s, 4)),
        ("analysis_ks_speedup", fixed(ks_reference_s / ks_s, 2)),
    ]
}

/// Eight queries shaped like the ingest workload's: 2000 pairs, 6 features.
fn query_problems(seed: u64) -> Vec<ErProblem> {
    analysis_workload(8, 2000, 6, seed ^ 0x50_1E)
}

/// Every field of a column sketch as bits: moments, sorted sample, CDF
/// grid, PSI proportions and total, KS bucket table.
fn sketch_bits(c: &ColumnSketch) -> Vec<u64> {
    let m = c.moments();
    let floats = [m.mean, m.m2]
        .into_iter()
        .chain(c.sorted().iter().chain(c.grid()).chain(c.props()).copied());
    [m.count as u64, c.hist_total()]
        .into_iter()
        .chain(floats.map(f64::to_bits))
        .chain(c.offsets().iter().map(|&o| u64::from(o)))
        .collect()
}

/// The query sketch of [`query_problems`] under the served analysis
/// options: `DistributionSketch::of`, whose columns go through the
/// three-pass `ColumnSketch::new`, against the same columns sketched by the
/// per-artifact `ColumnSketch::new_reference`.
fn sketch(seed: u64) -> Keys {
    let queries = query_problems(seed);
    let opts = serve_config(seed).analysis_options();
    let fast = || queries.iter().map(|q| DistributionSketch::of(q, &opts)).collect::<Vec<_>>();
    let reference = || {
        let columns = |q: &ErProblem| {
            (0..q.features.cols())
                .map(|f| ColumnSketch::new_reference(&q.feature_column(f)))
                .collect::<Vec<_>>()
        };
        queries.iter().map(columns).collect::<Vec<_>>()
    };
    for (sketch, columns) in fast().iter().zip(reference()) {
        assert_eq!(sketch.columns().len(), columns.len(), "query sketch lost a column");
        for (a, b) in sketch.columns().iter().zip(&columns) {
            assert_eq!(sketch_bits(a), sketch_bits(b), "query sketch diverged from the reference");
        }
    }
    let (sketch_s, sketch_reference_s) = best_of_alternating(QUERY_REPS, fast, reference);
    vec![
        ("sketch_queries", queries.len().to_string()),
        ("sketch_s", fixed(sketch_s, 4)),
        ("sketch_reference_s", fixed(sketch_reference_s, 4)),
        ("sketch_speedup", fixed(sketch_reference_s / sketch_s, 2)),
    ]
}

/// `classify`'s batch prediction, `TrainedModel::predict_proba_rows`,
/// against the per-row `Classifier::predict_proba`: the served Gaussian NB
/// over the pairs of [`query_problems`], trained on another problem, and a
/// default forest over eight 2000-row pools, trained on labels with 10%
/// noise (like an AL-trained forest, its trees grow deep).
fn predict(seed: u64) -> Keys {
    let time = |config: ModelConfig, data: &TrainingSet, queries: &[FeatureMatrix]| {
        let model = TrainedModel::train(&config, data);
        let fast = || queries.iter().map(|q| model.predict_proba_rows(q)).collect();
        let reference = || {
            let rows = |q: &FeatureMatrix| q.iter_rows().map(|r| model.predict_proba(r)).collect();
            queries.iter().map(rows).collect()
        };
        let bits = |p: Vec<Vec<f64>>| p.concat().into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let kind = model.kind();
        assert_eq!(bits(fast()), bits(reference()), "{kind} batch predict diverged from per-row");
        best_of_alternating::<Vec<Vec<f64>>, Vec<Vec<f64>>>(QUERY_REPS, fast, reference)
    };
    let queries: Vec<FeatureMatrix> =
        query_problems(seed).into_iter().map(|q| q.features).collect();
    let served = analysis_workload(1, 2000, 6, seed).remove(0).to_training_set();
    let (gnb_s, gnb_reference_s) = time(ModelConfig::GaussianNb, &served, &queries);
    let pools: Vec<FeatureMatrix> = (0..8).map(|i| committee_pool(2000, seed ^ i)).collect();
    let noisy = committee_training_set(2000, seed);
    let (forest_s, forest_reference_s) = time(ModelConfig::default(), &noisy, &pools);
    vec![
        ("predict_rows", queries.iter().map(FeatureMatrix::rows).sum::<usize>().to_string()),
        ("predict_gnb_s", fixed(gnb_s, 4)),
        ("predict_gnb_reference_s", fixed(gnb_reference_s, 4)),
        ("predict_gnb_speedup", fixed(gnb_reference_s / gnb_s, 2)),
        ("predict_forest_s", fixed(forest_s, 4)),
        ("predict_forest_reference_s", fixed(forest_reference_s, 4)),
        ("predict_forest_speedup", fixed(forest_reference_s / forest_s, 2)),
    ]
}

/// `sel_base` model search over 8 entries with cached sketches: single
/// threaded, then through one shared `ModelSearcher` hammered by scoped
/// threads, each issuing `&self` searches.
fn search(seed: u64) -> Keys {
    let opts = exact_options(seed);
    let (entries, queries) = search_workload(seed);
    // warm-up + oracle: the sketched search equals direct per-entry
    // scoring under the same per-entry seeds
    for q in &queries {
        let best = best_entry_for(q, &entries, &opts).expect(NON_EMPTY);
        let direct = entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (i, problem_similarity_with(q, e.representative_features(), &opts.for_entry(i)))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect(NON_EMPTY);
        assert_eq!(best, direct, "sketched search diverged from direct scoring");
    }
    let (sink, search_s) = timed(|| {
        (0..ROUNDS)
            .flat_map(|_| &queries)
            .map(|q| best_entry_for(q, &entries, &opts).expect(NON_EMPTY).0)
            .sum::<usize>()
    });
    black_box(sink);
    let solves = ROUNDS * queries.len();

    let searcher = ModelSearcher::new(entries, opts);
    searcher.warm();
    let st_hits: Vec<SearchHit> =
        queries.iter().map(|q| searcher.search(q).expect(NON_EMPTY)).collect();
    let refs: Vec<&ErProblem> = queries.iter().collect();
    for (hit, outcome) in st_hits.iter().zip(searcher.solve_batch(&refs)) {
        assert_eq!(Some(hit.entry_id), outcome.entry, "solve_batch diverged from search");
        assert_eq!(hit.similarity, outcome.similarity, "solve_batch similarity diverged");
    }
    let (hit_lists, search_mt_s) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SEARCH_THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        (0..ROUNDS)
                            .flat_map(|_| &queries)
                            .map(|q| searcher.search(q).expect(NON_EMPTY))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search thread panicked"))
                .collect::<Vec<Vec<SearchHit>>>()
        })
    });
    for (t, hits) in hit_lists.iter().enumerate() {
        for (k, hit) in hits.iter().enumerate() {
            assert_eq!(
                *hit,
                st_hits[k % queries.len()],
                "thread {t} solve {k}: multi-threaded search diverged from single-threaded"
            );
        }
    }

    let solves_mt = SEARCH_THREADS * solves;
    vec![
        ("search_entries", searcher.num_models().to_string()),
        ("search_solves", solves.to_string()),
        ("search_s", fixed(search_s, 4)),
        ("search_solves_per_s", fixed(solves as f64 / search_s, 1)),
        ("search_threads_mt", SEARCH_THREADS.to_string()),
        ("search_solves_mt", solves_mt.to_string()),
        ("search_mt_s", fixed(search_mt_s, 4)),
        ("search_solves_per_s_mt", fixed(solves_mt as f64 / search_mt_s, 1)),
    ]
}

/// The two-level `SearchIndex` against the exhaustive scan on a 500-entry
/// repository. The index returns exactly the exhaustive winner on every
/// query, so the speedup carries no recall trade-off;
/// `index_shortlist_frac` is the fraction of entries scored exactly.
fn search_index(seed: u64) -> Keys {
    let entries = 500;
    let searcher = ModelSearcher::new(
        repository_workload(entries, 160, 6, seed ^ 0x5EA2),
        exact_options(seed),
    );
    let queries = repository_problems(24, 160, 6, seed ^ 0x9E77);
    searcher.warm(); // sketches every entry and builds the index
    for q in &queries {
        let indexed = searcher.search(q).expect(NON_EMPTY);
        let exhaustive = searcher.search_exhaustive(q).expect(NON_EMPTY);
        assert_eq!(indexed, exhaustive, "indexed search diverged from exhaustive");
    }
    let sweep = |search: fn(&ModelSearcher, &ErProblem) -> SearchHit| {
        timed(|| {
            (0..ROUNDS).flat_map(|_| &queries).map(|q| search(&searcher, q).entry_id).sum::<usize>()
        })
    };
    let (sink, exhaustive_s) = sweep(|s, q| s.search_exhaustive(q).expect(NON_EMPTY));
    let (sink2, indexed_s) = sweep(|s, q| s.search(q).expect(NON_EMPTY));
    black_box(sink + sink2);
    let overview = searcher.index_overview().expect("warmed searcher has an index");

    let solves = ROUNDS * queries.len();
    vec![
        ("search_scale_entries", entries.to_string()),
        ("search_scale_solves", solves.to_string()),
        ("search_exhaustive_s", fixed(exhaustive_s, 4)),
        ("search_indexed_s", fixed(indexed_s, 4)),
        ("search_exhaustive_per_s", fixed(solves as f64 / exhaustive_s, 1)),
        ("search_indexed_per_s", fixed(solves as f64 / indexed_s, 1)),
        ("search_index_speedup", fixed(exhaustive_s / indexed_s, 2)),
        ("index_shortlist_frac", fixed(overview.shortlist_frac, 4)),
    ]
}

/// The served `Morer`'s config. Supervised Gaussian NB keeps training
/// cheap, so the probes isolate transport and durability;
/// `analysis_sample_cap` is uncapped as in [`exact_options`].
fn serve_config(seed: u64) -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        analysis_sample_cap: usize::MAX,
        seed,
        ..MorerConfig::default()
    }
}

/// 44 problems: the ingest repository's 40 and then its arrivals.
fn ingest_problems(seed: u64) -> Vec<ErProblem> {
    analysis_workload(INGEST_BASE + 4, 2000, 6, seed ^ 0x1261)
}

/// Incremental ingest into a 40-problem repository, one `add_problem` at
/// a time, against a full `Morer::build` per arrival.
/// `ReclusterPolicy::Always` keeps the two bit-identical, which is asserted
/// after every arrival.
fn ingest(seed: u64) -> Keys {
    let cfg = MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed,
        ..MorerConfig::default()
    };
    let problems = ingest_problems(seed);
    let refs: Vec<&ErProblem> = problems.iter().collect();
    let arrivals = refs.len() - INGEST_BASE;
    let (mut incremental, _) = Morer::build(refs[..INGEST_BASE].to_vec(), &cfg);
    let (mut incremental_s, mut rebuild_s) = (0.0, 0.0);
    for k in 0..arrivals {
        let (report, s) = timed(|| incremental.add_problem(refs[INGEST_BASE + k]));
        incremental_s += s;
        assert!(
            report.expect("in-memory ingest cannot fail").reclustered,
            "Always policy must fully recluster"
        );
        let ((rebuilt, _), s) = timed(|| Morer::build(refs[..INGEST_BASE + k + 1].to_vec(), &cfg));
        rebuild_s += s;
        assert_eq!(
            incremental.repository(),
            rebuilt.repository(),
            "incremental ingest diverged from batch construction at arrival {k}"
        );
    }

    vec![
        ("ingest_repository", INGEST_BASE.to_string()),
        ("ingest_arrivals", arrivals.to_string()),
        ("ingest_incremental_s", fixed(incremental_s, 4)),
        ("ingest_rebuild_s", fixed(rebuild_s, 4)),
        ("ingest_problems_per_s", fixed(arrivals as f64 / incremental_s, 1)),
        ("ingest_speedup", fixed(rebuild_s / incremental_s, 2)),
    ]
}

/// The served repository ([`search_workload`]'s entries), the encoded
/// `/solve` bodies of its queries, and their in-process solves.
fn serve_inputs(seed: u64) -> (ModelRepository, Vec<String>, Vec<SolveOutcome>) {
    let (entries, queries) = search_workload(seed);
    let searcher = ModelSearcher::new(entries, exact_options(seed));
    let bodies = queries.iter().map(|q| serde_json::to_string(q).expect("encode query")).collect();
    let reference = queries.iter().map(|q| searcher.solve(q)).collect();
    (searcher.repository(), bodies, reference)
}

fn start_server(repo: &ModelRepository, seed: u64, config: &ServeConfig) -> ServerHandle {
    MorerServer::start(Morer::from_repository(repo.clone(), &serve_config(seed)), config)
        .expect("start morer-serve")
}

fn stats(conn: &mut Connection) -> StatsResponse {
    conn.get("/stats").expect("stats").json().expect("decode stats")
}

/// Warm-up + oracle on one connection: every served solve decodes equal
/// to its in-process solve (the vendored serde_json round-trips each
/// `f64` exactly).
fn assert_served_solves(addr: SocketAddr, bodies: &[String], reference: &[SolveOutcome]) {
    let mut conn = Connection::open(addr).expect("connect to morer-serve");
    for (body, reference) in bodies.iter().zip(reference) {
        let res = conn.post("/solve", body).expect("solve request");
        assert_eq!(res.status, 200, "serve error: {}", res.body);
        let served: SolveOutcome = res.json().expect("decode outcome");
        assert_eq!(&served, reference, "served solve diverged from the in-process searcher");
    }
}

/// Seconds for `SERVE_CONNS` loopback connections to post every body
/// `ROUNDS` times each to `/solve`.
fn hammer_solve(addr: SocketAddr, bodies: &[String]) -> f64 {
    timed(|| {
        std::thread::scope(|scope| {
            for _ in 0..SERVE_CONNS {
                scope.spawn(|| {
                    let mut conn = Connection::open(addr).expect("connect to morer-serve");
                    for body in (0..ROUNDS).flat_map(|_| bodies) {
                        let res = conn.post("/solve", body).expect("solve request");
                        assert_eq!(res.status, 200, "serve error: {}", res.body);
                    }
                });
            }
        })
    })
    .1
}

/// `/solve` through `morer-serve` on loopback, with the server's own p99
/// for that load read back from its lock-free latency histograms.
fn serve(seed: u64) -> Keys {
    let (repo, bodies, reference) = serve_inputs(seed);
    let handle = start_server(&repo, seed, &ServeConfig::default());
    assert_served_solves(handle.addr(), &bodies, &reference);
    let serve_s = hammer_solve(handle.addr(), &bodies);
    let p99 = stats(&mut Connection::open(handle.addr()).expect("connect to morer-serve"))
        .endpoints
        .iter()
        .find(|e| e.endpoint == "solve")
        .map(|e| e.p99_micros)
        .expect("solve endpoint on /stats");
    handle.shutdown();

    let requests = SERVE_CONNS * ROUNDS * bodies.len();
    vec![
        ("serve_connections", SERVE_CONNS.to_string()),
        ("serve_requests", requests.to_string()),
        ("serve_s", fixed(serve_s, 4)),
        ("serve_requests_per_s", fixed(requests as f64 / serve_s, 1)),
        ("serve_p99_micros", p99.to_string()),
    ]
}

/// One request-path observability record. Recording is a handful of
/// relaxed atomic RMWs, lock-free and allocation-free; the budget makes a
/// lock or allocation sneaking onto the request path fail the bench.
fn metrics_record() -> Keys {
    let registry = MetricsRegistry::default();
    let iters = 100_000u32;
    let (_, s) = timed(|| {
        for i in 0..iters {
            registry.record(Endpoint::Solve, Duration::from_micros(u64::from(i & 1023)), 200);
        }
    });
    let ns = s * 1e9 / f64::from(iters);
    assert!(ns < 2_000.0, "metrics record path regressed: {ns:.0} ns per record (budget 2000 ns)");
    vec![("metrics_record_ns", fixed(ns, 1))]
}

/// The reactor's contract: a solve's cost does not depend on how many idle
/// keep-alive connections are parked. With 1024 parked, served solves are
/// re-asserted against the in-process ones and throughput is measured
/// with zero reaps allowed, so it cannot come from dropping the cohort.
/// A second server with a 500 ms idle deadline measures how far past it a
/// 256-connection parked cohort is fully reaped.
fn reactor(seed: u64) -> Keys {
    let (repo, bodies, reference) = serve_inputs(seed);
    let handle = start_server(&repo, seed, &ServeConfig::default());
    let addr = handle.addr();
    let connections =
        || stats(&mut Connection::open(addr).expect("connect to reactor")).connections;
    let n_parked = 1024;
    let parked = park(addr, n_parked);
    assert_served_solves(addr, &bodies, &reference);
    let before = connections();
    assert!(before.open >= n_parked as u64, "parked connections not all open: {before:?}");
    let reactor_s = hammer_solve(addr, &bodies);
    let after = connections();
    assert_eq!(after.idle_reaped, 0, "throughput must not come from reaping the parked cohort");
    assert!(after.peak > n_parked as u64);
    drop(parked);
    handle.shutdown();

    let deadline = Duration::from_millis(500);
    let handle = start_server(
        &repo,
        seed,
        &ServeConfig { idle_timeout: deadline, ..ServeConfig::default() },
    );
    let cohort = 256;
    let _parked = park(handle.addr(), cohort);
    let t0 = Instant::now();
    let mut conn = Connection::open(handle.addr()).expect("connect to reap probe");
    loop {
        let connections = stats(&mut conn).connections;
        if connections.idle_reaped >= cohort as u64 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "parked cohort not reaped: {connections:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let reap_ms = t0.elapsed().saturating_sub(deadline).as_secs_f64() * 1e3;
    drop(conn);
    handle.shutdown();

    let requests = SERVE_CONNS * ROUNDS * bodies.len();
    vec![
        ("serve_concurrent_conns", after.peak.to_string()),
        ("serve_reactor_requests_per_s", fixed(requests as f64 / reactor_s, 1)),
        ("serve_idle_conn_reap_ms", fixed(reap_ms, 1)),
    ]
}

/// `n` idle connections to `addr`, open until dropped.
fn park(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n).map(|_| TcpStream::connect(addr).expect("park idle connection")).collect()
}

/// A fresh temporary directory for one durability probe.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morer_qb_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn canonical(repo: &ModelRepository) -> Vec<u8> {
    let mut buf = Vec::new();
    repo.save_json(&mut buf).expect("encode repository");
    buf
}

/// Seconds to append `WAL_APPENDS` commit records to a new log in `dir`
/// over base `repo`; `grouped` appends defer their fsync to one final
/// group sync. Each record re-touches entry 0 and keeps the store length,
/// so replaying the whole log lands exactly back on `repo`.
fn write_log(dir: &Path, opts: WalOptions, repo: &ModelRepository, grouped: bool) -> f64 {
    let mut wal = Wal::create(dir, opts, repo, 0).expect("create WAL");
    timed(|| {
        for i in 0..WAL_APPENDS {
            let record = CommitRecord {
                epoch: (i + 1) as u64,
                num_entries: repo.entries.len(),
                entries: vec![repo.entries[0].clone()],
                report: None,
            };
            let appended = if grouped { wal.append_deferred(&record) } else { wal.append(&record) };
            appended.expect("append commit record");
        }
        if grouped {
            wal.sync().expect("group sync");
        }
    })
    .1
}

/// The write-ahead log: fsync'd per-commit appends, cold-start recovery
/// replay, follower catch-up over the shipped log, group-commit appends
/// and fsync-acknowledged `/ingest`. Every replay is asserted equal to the
/// state it must reproduce.
fn durability(seed: u64) -> Keys {
    let opts = WalOptions { durability: Durability::Fsync, compact_every: 0 };
    let (repo, _, _) = serve_inputs(seed);

    let dir = temp_dir("wal");
    let append_s = write_log(&dir, opts, &repo, false);
    let (recovered, replay_s) = timed(|| Wal::open(&dir, opts).expect("recover WAL"));
    assert_eq!(recovered.epoch, WAL_APPENDS as u64, "every appended epoch must replay");
    assert_eq!(recovered.replayed, WAL_APPENDS as u64);
    assert_eq!(
        canonical(&recovered.repository),
        canonical(&repo),
        "log-replay state diverged from the in-memory snapshot"
    );

    // a follower bootstraps from the base snapshot and applies the whole
    // shipped log through the replay state machine
    let ((follower, segment), catchup_s) = timed(|| {
        let base = std::fs::read_to_string(dir.join(BASE_FILE)).expect("read base snapshot");
        let mut follower = FollowerState::from_base(&base).expect("bootstrap follower");
        let shipped = std::fs::read(dir.join(LOG_FILE)).expect("read shipped log");
        let segment = follower.ingest_segment(HEADER_LEN, &shipped[HEADER_LEN as usize..]);
        (follower, segment)
    });
    assert_eq!(segment.status, SegmentStatus::Clean, "shipped log must verify frame by frame");
    assert_eq!(segment.applied, WAL_APPENDS as u64, "every shipped record must apply");
    assert_eq!(
        canonical(&follower.repository()),
        canonical(&recovered.repository),
        "caught-up follower diverged from the recovered writer"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let grouped_dir = temp_dir("wal_grouped");
    let grouped_s = write_log(&grouped_dir, opts, &repo, true);
    let regrouped = Wal::open(&grouped_dir, opts).expect("recover grouped WAL");
    assert_eq!(regrouped.epoch, WAL_APPENDS as u64, "grouped appends must replay");
    assert_eq!(
        canonical(&regrouped.repository),
        canonical(&repo),
        "group-commit replay diverged from per-commit fsync"
    );
    let _ = std::fs::remove_dir_all(&grouped_dir);

    // every `/ingest` reply waits for its commit record to reach disk; the
    // recovered served log must equal a twin that ingests in-process
    let serve_dir = temp_dir("serve_wal");
    let handle = start_server(
        &repo,
        seed,
        &ServeConfig { wal_dir: Some(serve_dir.clone()), ..ServeConfig::default() },
    );
    let problems = ingest_problems(seed);
    let arrivals = &problems[INGEST_BASE..];
    let (_, ingest_s) = timed(|| {
        let mut conn = Connection::open(handle.addr()).expect("connect to durable morer-serve");
        for p in arrivals {
            let body = serde_json::to_string(p).expect("encode arrival");
            let res = conn.post("/ingest", &body).expect("durable ingest");
            assert_eq!(res.status, 200, "durable ingest error: {}", res.body);
        }
    });
    handle.shutdown();
    let mut twin = Morer::from_repository(repo, &serve_config(seed));
    for p in arrivals {
        twin.add_problem(p).expect("twin ingest");
    }
    let served = Morer::open(&serve_dir, &serve_config(seed)).expect("recover served WAL");
    assert_eq!(served.epoch(), twin.epoch(), "served epochs must replay");
    assert_eq!(
        canonical(&served.searcher().repository()),
        canonical(&twin.searcher().repository()),
        "recovered served state diverged from the in-process twin"
    );
    let _ = std::fs::remove_dir_all(&serve_dir);

    let appends = WAL_APPENDS as f64;
    vec![
        ("wal_appends", WAL_APPENDS.to_string()),
        ("wal_append_s", fixed(append_s, 4)),
        ("wal_appends_per_s", fixed(appends / append_s, 1)),
        ("wal_grouped_s", fixed(grouped_s, 4)),
        ("wal_appends_per_s_grouped", fixed(appends / grouped_s, 1)),
        ("recovery_replay_s", fixed(replay_s, 4)),
        ("replica_catchup_s", fixed(catchup_s, 4)),
        ("replica_catchup_records_per_s", fixed(appends / catchup_s, 1)),
        ("replica_lag_epochs", (recovered.epoch - follower.epoch()).to_string()),
        ("serve_durable_ingests", arrivals.len().to_string()),
        ("serve_durable_ingest_s", fixed(ingest_s, 4)),
        ("serve_durable_ingest_per_s", fixed(arrivals.len() as f64 / ingest_s, 1)),
    ]
}

/// The Bootstrap committee: 100 presorted trees on 1 000 rows (a late AL
/// round) against the sort-per-node reference fit, then that committee's
/// votes over a 20 000-row pool (about a construct AL pool) from one
/// block-partition walk against the per-row walk.
fn committee(seed: u64) -> Keys {
    let trees = 100;
    let data = committee_training_set(1_000, seed);
    let (committee, fit_s) = timed(|| fit_committee(&data, trees, seed));
    let (reference, fit_reference_s) = timed(|| fit_committee_reference(&data, trees, seed));
    assert_eq!(committee, reference, "presorted committee diverged from the reference");

    let pool = committee_pool(20_000, seed);
    let (votes, vote_s) = timed(|| committee_votes(&committee, &pool));
    let (votes_reference, vote_reference_s) =
        timed(|| committee_votes_reference(&committee, &pool));
    assert_eq!(votes, votes_reference, "batch committee votes diverged from the per-row walk");

    vec![
        ("committee_trees", trees.to_string()),
        ("committee_rows", data.len().to_string()),
        ("committee_fit_s", fixed(fit_s, 4)),
        ("committee_fit_reference_s", fixed(fit_reference_s, 4)),
        ("committee_fit_speedup", fixed(fit_reference_s / fit_s, 2)),
        ("committee_vote_rows", pool.rows().to_string()),
        ("committee_vote_s", fixed(vote_s, 4)),
        ("committee_vote_reference_s", fixed(vote_reference_s, 4)),
        ("committee_vote_speedup", fixed(vote_reference_s / vote_s, 2)),
    ]
}

/// The JSON codec on the two documents an ingest round trip pays for: a
/// 2000-row problem body (what `/solve` and `/ingest` decode) and a commit
/// record holding one 2000-representative entry (what a commit encodes
/// into the write-ahead log). The streaming codec against the `Value`-tree
/// path, which must produce the same bytes and values; each side's time is
/// the best of [`ROUNDS`] alternating rounds of [`CODEC_REPS`] calls.
fn codec(seed: u64) -> Keys {
    let problems = repository_problems(1, 2_000, 6, seed);
    let record = CommitRecord {
        epoch: 1,
        num_entries: 1,
        entries: singleton_entries(&problems),
        report: Some(IngestReport::default()),
    };
    let problem = &problems[0];
    let tree_json = |value: serde::Value| {
        let mut out = String::new();
        serde::json::write_value(&value, &mut out);
        out
    };

    let encode = || {
        let body = serde_json::to_string(problem).expect("encode problem");
        (body, serde_json::to_string(&record).expect("encode record"))
    };
    let encode_reference = || (tree_json(problem.to_value()), tree_json(record.to_value()));
    let docs = encode(); // warm-up
    assert_eq!(docs, encode_reference(), "streaming encode diverged from the tree");
    let (encode_s, encode_reference_s) = best_of_alternating(CODEC_REPS, encode, encode_reference);

    let (body, payload) = &docs;
    let decode = || {
        let p: ErProblem = serde_json::from_str(body).expect("decode problem");
        (p, serde_json::from_str::<CommitRecord>(payload).expect("decode record"))
    };
    let decode_reference = || {
        let tree = |s: &str| serde_json::from_str_value(s).expect("parse");
        let p = ErProblem::from_value(&tree(body)).expect("decode problem");
        (p, CommitRecord::from_value(&tree(payload)).expect("decode record"))
    };
    let decoded = decode();
    assert_eq!(decoded, decode_reference(), "streaming decode diverged from the tree");
    assert_eq!((&decoded.0, &decoded.1), (problem, &record), "codec round trip lost data");
    let (decode_s, decode_reference_s) = best_of_alternating(CODEC_REPS, decode, decode_reference);

    vec![
        ("codec_body_bytes", body.len().to_string()),
        ("codec_record_bytes", payload.len().to_string()),
        ("codec_decode_s", fixed(decode_s, 4)),
        ("codec_decode_reference_s", fixed(decode_reference_s, 4)),
        ("codec_decode_speedup", fixed(decode_reference_s / decode_s, 2)),
        ("codec_encode_s", fixed(encode_s, 4)),
        ("codec_encode_reference_s", fixed(encode_reference_s, 4)),
        ("codec_encode_speedup", fixed(encode_reference_s / encode_s, 2)),
    ]
}

/// The number reader on the float and pair tokens of the codec probe's
/// problem body (12 000 features as the writer renders them, 4 000 record
/// ids) against its oracle, the scan-then-`str::parse` reference: equal
/// values, floats by bits. Each side's time is the best of [`ROUNDS`]
/// alternating rounds of [`CODEC_REPS`] passes over every token.
fn numbers(seed: u64) -> Keys {
    let problems = repository_problems(1, 2_000, 6, seed);
    let problem = &problems[0];
    let floats = problem.features.iter_rows().flatten().map(serde_json::to_string);
    let ids = problem.pairs.iter().flat_map(|&(a, b)| [a, b]);
    let ids = ids.map(|id| serde_json::to_string(&id));
    let tokens: Vec<String> = floats.chain(ids).collect::<Result<_, _>>().expect("encode token");

    let read = |reader: fn(&mut Parser<'_>) -> Result<Value, serde::Error>| -> Vec<Value> {
        tokens.iter().map(|t| reader(&mut Parser::new(t)).expect("number token")).collect()
    };
    let values = read(|p| p.number());
    let reference = read(|p| p.number_reference());
    let same = |a: &Value, b: &Value| match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    };
    assert!(
        values.len() == reference.len() && values.iter().zip(&reference).all(|(a, b)| same(a, b)),
        "number reader diverged from the reference"
    );
    let count = |reader: fn(&mut Parser<'_>) -> Result<Value, serde::Error>| {
        tokens.iter().filter(|t| reader(&mut Parser::new(t)).is_ok()).count()
    };
    let (numbers_s, numbers_reference_s) = best_of_alternating(
        CODEC_REPS,
        || count(|p| p.number()),
        || count(|p| p.number_reference()),
    );

    vec![
        ("numbers_tokens", tokens.len().to_string()),
        ("numbers_s", fixed(numbers_s, 4)),
        ("numbers_reference_s", fixed(numbers_reference_s, 4)),
        ("numbers_speedup", fixed(numbers_reference_s / numbers_s, 2)),
    ]
}

/// `morer_sim::par` on the ingest extend loop: each of 100 500-row
/// arrivals scored against every stored sketch as the store grows from 40
/// to 140 (2000-row base problems), as `/ingest` does. Asserts the pooled
/// `map_indexed` equals the sequential map by bits on every arrival, then
/// times all arrivals both ways (best of [`ROUNDS`] alternating rounds)
/// and the median of [`DISPATCH_CALLS`] trivial two-item calls.
fn par_pool(seed: u64) -> Keys {
    let opts = MorerConfig { seed, ..MorerConfig::default() }.analysis_options();
    let base = analysis_workload(INGEST_BASE, 2000, 6, seed ^ 0x1261);
    let arrivals = analysis_workload(EXTEND_ARRIVALS, EXTEND_ROWS, 6, seed ^ 0xA221);
    let sketches: Vec<DistributionSketch> = base
        .iter()
        .chain(&arrivals)
        .enumerate()
        .map(|(p, problem)| DistributionSketch::of(problem, &opts.for_problem(p)))
        .collect();
    // arrival `j` against the `j` sketches stored before it
    let score = |j: usize, i: usize| {
        let local = AnalysisOptions { seed: opts.seed ^ ((i as u64) << 20) ^ j as u64, ..opts };
        sketch_similarity(&sketches[i], &sketches[j], &local).to_bits()
    };
    let extend = |pooled: bool| -> Vec<Vec<u64>> {
        let arrival = |j: usize| {
            let f = |i| score(j, i);
            if pooled {
                morer_sim::par::map_indexed(j, 8, f)
            } else {
                (0..j).map(f).collect()
            }
        };
        (INGEST_BASE..sketches.len()).map(arrival).collect()
    };
    assert_eq!(extend(true), extend(false), "pooled map diverged from the sequential loop");
    let (par_s, sequential_s) = best_of_alternating(1, || extend(true), || extend(false));

    let mut dispatch_us: Vec<f64> = (0..DISPATCH_CALLS)
        .map(|_| timed(|| black_box(morer_sim::par::map_indexed(2, 1, black_box))).1 * 1e6)
        .collect();
    dispatch_us.sort_by(f64::total_cmp);

    vec![
        ("par_threads", morer_sim::par::thread_count(usize::MAX, 1).to_string()),
        ("par_extend_arrivals", EXTEND_ARRIVALS.to_string()),
        ("par_extend_s", fixed(par_s, 4)),
        ("par_extend_sequential_s", fixed(sequential_s, 4)),
        ("par_extend_speedup", fixed(sequential_s / par_s, 2)),
        ("par_dispatch_us", fixed(dispatch_us[DISPATCH_CALLS / 2], 2)),
    ]
}
