//! `repro` — regenerate every table and figure of the MoRER paper.
//!
//! ```text
//! cargo run -p morer-bench --release -- <command> [options]
//!
//! commands:
//!   table2              dataset statistics
//!   table3              parameter overview
//!   table4              linkage quality comparison (P/R/F1)
//!   table5              speedup factors
//!   fig2                per-problem similarity histograms (WDC, jaccard(title))
//!   fig5                runtime comparison with analysis/selection breakdown
//!   fig6                distribution tests x AL methods x budgets
//!   fig7                selection strategies sel_base vs sel_cov
//!   ablate-clustering   Leiden vs Louvain vs label propagation vs Girvan-Newman
//!   ablate-weighting    stddev feature weighting on/off
//!   ablate-uniqueness   Bootstrap uniqueness score on/off
//!   ablate-budget       budget sweep for MoRER+Bootstrap
//!   ablate-stability    cluster stability vs model performance (§7 future work)
//!   ablate-ratio-init   50% vs 30% initial problem split
//!   all                 everything above
//!
//! options:
//!   --scale tiny|default|paper   dataset scale (default: default)
//!   --datasets a,b,c             subset of dexter,wdc,music
//!   --budgets n,n,n              label budgets (default: 1000,1500,2000)
//!   --seed n                     master seed (default: 42)
//! ```

mod ablations;
mod figures;
mod runs;
mod tables;

use morer_data::DatasetScale;

/// Parsed command-line options.
pub struct Options {
    pub scale: DatasetScale,
    pub datasets: Vec<String>,
    pub budgets: Vec<usize>,
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: DatasetScale::Default,
            datasets: vec!["dexter".into(), "wdc".into(), "music".into()],
            budgets: vec![1000, 1500, 2000],
            seed: 42,
        }
    }
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => DatasetScale::Tiny,
                    Some("default") => DatasetScale::Default,
                    Some("paper") => DatasetScale::Paper,
                    Some(other) => {
                        if let Ok(f) = other.parse::<f64>() {
                            DatasetScale::Custom(f)
                        } else {
                            eprintln!("unknown scale {other:?}; using default");
                            DatasetScale::Default
                        }
                    }
                    None => DatasetScale::Default,
                };
            }
            "--datasets" => {
                i += 1;
                if let Some(v) = args.get(i) {
                    opts.datasets = v.split(',').map(str::to_owned).collect();
                }
            }
            "--budgets" => {
                i += 1;
                if let Some(v) = args.get(i) {
                    opts.budgets = v.split(',').filter_map(|s| s.parse().ok()).collect();
                }
            }
            "--seed" => {
                i += 1;
                if let Some(v) = args.get(i) {
                    opts.seed = v.parse().unwrap_or(42);
                }
            }
            other => eprintln!("ignoring unknown option {other:?}"),
        }
        i += 1;
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let opts = parse_options(&args[1.min(args.len())..]);

    match command {
        "table2" => tables::table2(&opts),
        "table3" => tables::table3(),
        "table4" => {
            let matrix = runs::run_matrix(&opts);
            tables::table4(&matrix);
        }
        "table5" => {
            let matrix = runs::run_matrix(&opts);
            tables::table5(&matrix);
        }
        "fig2" => figures::fig2(&opts),
        "fig5" => {
            let matrix = runs::run_matrix(&opts);
            figures::fig5(&matrix);
        }
        "fig6" => figures::fig6(&opts),
        "fig7" => figures::fig7(&opts),
        "ablate-clustering" => ablations::clustering(&opts),
        "ablate-weighting" => ablations::weighting(&opts),
        "ablate-uniqueness" => ablations::uniqueness(&opts),
        "ablate-budget" => ablations::budget_sweep(&opts),
        "ablate-stability" => ablations::stability(&opts),
        "ablate-ratio-init" => ablations::ratio_init(&opts),
        "quick-bench" => quick_bench(opts.seed),
        "all" => {
            tables::table2(&opts);
            tables::table3();
            figures::fig2(&opts);
            let matrix = runs::run_matrix(&opts);
            tables::table4(&matrix);
            tables::table5(&matrix);
            figures::fig5(&matrix);
            figures::fig6(&opts);
            figures::fig7(&opts);
            ablations::clustering(&opts);
            ablations::weighting(&opts);
            ablations::uniqueness(&opts);
            ablations::budget_sweep(&opts);
            ablations::stability(&opts);
            ablations::ratio_init(&opts);
        }
        _ => {
            println!(
                "usage: repro <table2|table3|table4|table5|fig2|fig5|fig6|fig7|\
                 ablate-clustering|ablate-weighting|ablate-uniqueness|ablate-budget|all> \
                 [--scale tiny|default|paper] [--datasets dexter,wdc,music] \
                 [--budgets 1000,1500,2000] [--seed 42]; \
                 also: ablate-stability, ablate-ratio-init, quick-bench"
            );
        }
    }
}

/// `cargo bench`-free throughput check: one JSON line for trajectory
/// tracking, covering featurization (10k records, ~100k candidate pairs),
/// the distribution-analysis graph build (40 problems → 780 `sim_p` pairs,
/// direct vs sketched), `sel_base` model search (solves/second with
/// cached representative sketches) — single-threaded
/// (`search_solves_per_s`) and through one shared `ModelSearcher` hammered
/// by scoped threads (`search_solves_per_s_mt`) — the two-level search
/// index on a 500-entry repository (`search_indexed_per_s` /
/// `search_index_speedup` over the exhaustive scan, asserted hit-for-hit
/// identical first; `index_shortlist_frac` is the fraction of entries that
/// needed exact scoring) — incremental ingest
/// into a 40-problem repository (`ingest_problems_per_s` /
/// `ingest_speedup` of `add_problem` over a per-insert full rebuild) —
/// the deployed serving layer (`serve_requests_per_s`: 4 loopback
/// connections hammering `morer-serve`'s `/solve` on a warmed snapshot,
/// with `serve_p99_micros` the server's own p99 for that load read back
/// from its lock-free latency histograms, and `metrics_record_ns` the
/// budget-asserted cost of one observability record on the request path;
/// `serve_reactor_requests_per_s`: the same load
/// with 1024 idle keep-alive connections parked — `serve_concurrent_conns`
/// is the peak open-connection gauge and `serve_idle_conn_reap_ms` how far
/// past its idle deadline a 256-connection parked cohort was fully
/// reaped) —
/// and the durability subsystem (`wal_appends_per_s` fsync'd commit-log
/// appends, `wal_appends_per_s_grouped` deferred appends sharing one
/// group-commit sync, `recovery_replay_s` cold-start log replay,
/// `replica_catchup_records_per_s` follower bootstrap-plus-tail over the
/// shipped log with `replica_lag_epochs` the post-catch-up lag,
/// `serve_durable_ingest_per_s` fsync-acknowledged `/ingest` round trips)
/// — and the Bootstrap committee fit (`committee_fit_s`: 100 presorted
/// trees on 1 000 rows, `committee_fit_reference_s`: the same committee
/// from materialized resamples with the sort-per-node reference fit) and
/// its vote (`committee_vote_s`: that committee's match votes over a
/// 20 000-row pool from one block-partition walk,
/// `committee_vote_reference_s`: the same votes from the per-row walk).
/// Every fast path is asserted against its reference implementation before
/// being timed: the multi-threaded search results must equal the
/// single-threaded ones, the indexed search must return exactly the
/// exhaustive winner on every query, the incrementally ingested repository must be
/// bit-identical to batch construction after every arrival, every served
/// solve response must decode bit-identical to its in-process equivalent,
/// the replayed write-ahead log (per-commit and group-commit alike) must
/// reproduce the in-memory snapshot byte-for-byte, the caught-up
/// follower must be bit-identical to the recovered writer, the
/// presorted committee must equal the reference committee tree for tree,
/// and the batch committee votes must equal the per-row votes row for row.
///
/// ```text
/// cargo run -p morer-bench --release -- quick-bench
/// ```
fn quick_bench(seed: u64) {
    use morer_data::{profile_dataset, ErProblem};
    use morer_bench::workload::featurization_workload;
    use std::time::Instant;

    let workload = featurization_workload(5_000, 100_000, seed);
    let pairs = workload.pairs.len();

    // warm-up + correctness guard: both paths must agree bit-for-bit
    let fast = ErProblem::build(
        0,
        &workload.dataset,
        &workload.scheme,
        (0, 1),
        workload.pairs.clone(),
    );

    let start = Instant::now();
    let cold = ErProblem::build_cold(
        0,
        &workload.dataset,
        &workload.scheme,
        (0, 1),
        workload.pairs.clone(),
    );
    let cold_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let profiled = ErProblem::build(
        0,
        &workload.dataset,
        &workload.scheme,
        (0, 1),
        workload.pairs.clone(),
    );
    let profiled_s = start.elapsed().as_secs_f64();

    // the seed's per-pair string path (verbatim seed similarity functions,
    // double normalization and all) — the baseline the ≥5× bar refers to
    let start = Instant::now();
    let seed_features = morer_bench::seed_reference::seed_build_features(
        &workload.dataset,
        &workload.scheme,
        &workload.pairs,
    );
    let seed_s = start.elapsed().as_secs_f64();

    // breakdown: one-off profiling cost vs pure pair featurization
    let start = Instant::now();
    let profiles = profile_dataset(&workload.dataset, workload.scheme.profile_spec());
    let profile_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let shared = ErProblem::build_with_profiles(
        0,
        &workload.dataset,
        &workload.scheme,
        (0, 1),
        workload.pairs.clone(),
        &profiles,
    );
    let featurize_s = start.elapsed().as_secs_f64();

    assert_eq!(fast.features, cold.features, "fast path diverged from cold path");
    assert_eq!(profiled.features, cold.features, "profiled rerun diverged");
    assert_eq!(shared.features, cold.features, "shared-profile path diverged");
    assert_eq!(seed_features, cold.features, "seed reference diverged");

    let seed_rate = pairs as f64 / seed_s;
    let cold_rate = pairs as f64 / cold_s;
    let profiled_rate = pairs as f64 / profiled_s;

    // --- distribution analysis: direct vs sketched graph build ------------
    use morer_bench::workload::analysis_workload;
    use morer_core::distribution::{
        build_problem_graph_direct, build_problem_graph_sketched, problem_similarity_with,
        AnalysisOptions, DistributionTest,
    };
    use morer_core::repository::ClusterEntry;
    use morer_core::selection::best_entry_for;
    use morer_ml::model::{ModelConfig, TrainedModel};

    let an_problems = analysis_workload(40, 2000, 6, seed);
    let an_refs: Vec<&ErProblem> = an_problems.iter().collect();
    let an_pairs = an_refs.len() * (an_refs.len() - 1) / 2;
    // uncapped sample size: the sketched and direct `sim_p` must agree
    // bit-for-bit (subsampling is the one sanctioned divergence)
    let an_opts =
        AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, usize::MAX, seed);

    let start = Instant::now();
    let direct_graph = build_problem_graph_direct(&an_refs, &an_opts, 0.0);
    let analysis_direct_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (sketched_graph, _sketches) = build_problem_graph_sketched(&an_refs, &an_opts, 0.0);
    let analysis_sketched_s = start.elapsed().as_secs_f64();

    for i in 0..an_refs.len() {
        for j in (i + 1)..an_refs.len() {
            assert_eq!(
                sketched_graph.edge_weight(i, j),
                direct_graph.edge_weight(i, j),
                "sketched sim_p diverged from direct at pair ({i},{j})"
            );
        }
    }

    // --- model search: solves/second through cached entry sketches --------
    let entries: Vec<ClusterEntry> = an_problems[..8]
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let training = p.to_training_set();
            let model = TrainedModel::train(&ModelConfig::GaussianNb, &training);
            ClusterEntry::new(i, vec![i], model, training, 0)
        })
        .collect();
    let queries: Vec<&ErProblem> = an_problems[8..24].iter().collect();

    // warm-up + correctness guard: the sketched search must agree with
    // direct per-entry scoring under the same per-entry seeds
    for q in &queries {
        let best = best_entry_for(q, &entries, &an_opts).expect("non-empty repository");
        let direct_best = entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let entry_opts = an_opts.for_entry(i);
                (i, problem_similarity_with(*q, e.representative_features(), &entry_opts))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("non-empty repository");
        assert_eq!(best, direct_best, "sketched search diverged from direct scoring");
    }

    let rounds = 3usize;
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..rounds {
        for q in &queries {
            sink += best_entry_for(q, &entries, &an_opts).expect("non-empty repository").0;
        }
    }
    let search_s = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let search_solves = rounds * queries.len();

    // --- multi-threaded model search through the shared searcher ----------
    // the service-grade read path: one immutable ModelSearcher shared by
    // scoped worker threads, each issuing `&self` searches
    use morer_core::searcher::ModelSearcher;
    let searcher = ModelSearcher::new(entries, an_opts);
    searcher.warm();
    // correctness guard: concurrent shared-searcher results must equal the
    // single-threaded reference (entry choice and similarity, bit-for-bit)
    let st_hits: Vec<_> = queries
        .iter()
        .map(|q| searcher.search(q).expect("non-empty repository"))
        .collect();
    let batched = searcher.solve_batch(&queries);
    for (hit, outcome) in st_hits.iter().zip(&batched) {
        assert_eq!(Some(hit.entry_id), outcome.entry, "solve_batch diverged from search");
        assert_eq!(hit.similarity, outcome.similarity, "solve_batch similarity diverged");
    }
    let mt_threads = 4usize;
    let start = Instant::now();
    let mt_hit_lists: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mt_threads)
            .map(|_| {
                let searcher = &searcher;
                let queries = &queries;
                scope.spawn(move || {
                    let mut hits = Vec::with_capacity(rounds * queries.len());
                    for _ in 0..rounds {
                        for q in queries {
                            hits.push(searcher.search(q).expect("non-empty repository"));
                        }
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("search thread panicked")).collect()
    });
    let search_mt_s = start.elapsed().as_secs_f64();
    for (t, hits) in mt_hit_lists.iter().enumerate() {
        for (k, hit) in hits.iter().enumerate() {
            assert_eq!(
                *hit,
                st_hits[k % queries.len()],
                "thread {t} solve {k}: multi-threaded search diverged from single-threaded"
            );
        }
    }
    let search_solves_mt = mt_threads * rounds * queries.len();

    // --- sub-linear indexed search at repository scale ---------------------
    // the two-level SearchIndex (quantized-signature shortlist + pivot
    // pruning) against the exhaustive scan on a 500-entry repository. The
    // index must return exactly the exhaustive winner — hit-for-hit
    // identity is asserted on every query before any rate is printed —
    // so the speedup is free of any recall trade-off.
    use morer_bench::workload::{repository_problems, repository_workload};

    let scale_p = 500usize;
    let scale_opts =
        AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, usize::MAX, seed);
    let scale_entries = repository_workload(scale_p, 160, 6, seed ^ 0x5EA2);
    let scale_queries = repository_problems(24, 160, 6, seed ^ 0x9E77);
    let scale_searcher = ModelSearcher::new(scale_entries, scale_opts);
    scale_searcher.warm(); // pre-sketches every entry and builds the index
    for q in &scale_queries {
        let indexed = scale_searcher.search(q).expect("non-empty repository");
        let exhaustive =
            scale_searcher.search_exhaustive(q).expect("non-empty repository");
        assert_eq!(indexed, exhaustive, "indexed search diverged from exhaustive");
    }
    let scale_solves = rounds * scale_queries.len();
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..rounds {
        for q in &scale_queries {
            sink += scale_searcher
                .search_exhaustive(q)
                .expect("non-empty repository")
                .entry_id;
        }
    }
    let search_exhaustive_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..rounds {
        for q in &scale_queries {
            sink += scale_searcher.search(q).expect("non-empty repository").entry_id;
        }
    }
    let search_indexed_s = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let index_overview =
        scale_searcher.index_overview().expect("warmed searcher has an index");

    // --- incremental ingest vs per-insert full rebuild ---------------------
    // the streaming-construction path: insert arrivals into a 40-problem
    // repository one at a time via `add_problem` (O(P) analysis per insert,
    // dirty-tracked retraining) against the strawman of a full
    // `Morer::build` rebuild per arrival. `ReclusterPolicy::Always` keeps
    // the incremental pipeline bit-identical to batch construction, which
    // is asserted at every step — the speedup number is only printed for a
    // repository proven equal to the rebuilt one.
    use morer_core::config::{MorerConfig, TrainingMode};
    use morer_core::pipeline::Morer;

    let ingest_cfg = MorerConfig {
        // supervised + NB keeps training cheap so the comparison isolates
        // the construction paths; dirty tracking is exercised all the same
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed,
        ..MorerConfig::default()
    };
    let ingest_problems = analysis_workload(44, 2000, 6, seed ^ 0x1261);
    let ingest_refs: Vec<&ErProblem> = ingest_problems.iter().collect();
    let ingest_base = 40usize;
    let ingest_arrivals = ingest_refs.len() - ingest_base;

    let (mut incremental, _) = Morer::build(ingest_refs[..ingest_base].to_vec(), &ingest_cfg);
    let mut ingest_incremental_s = 0.0f64;
    let mut ingest_rebuild_s = 0.0f64;
    for k in 0..ingest_arrivals {
        let start = Instant::now();
        let report = incremental.add_problem(ingest_refs[ingest_base + k]).expect("in-memory ingest cannot fail");
        ingest_incremental_s += start.elapsed().as_secs_f64();
        assert!(report.reclustered, "Always policy must fully recluster");

        let start = Instant::now();
        let (rebuilt, _) = Morer::build(ingest_refs[..ingest_base + k + 1].to_vec(), &ingest_cfg);
        ingest_rebuild_s += start.elapsed().as_secs_f64();

        assert_eq!(
            incremental.repository(),
            rebuilt.repository(),
            "incremental ingest diverged from batch construction at arrival {k}"
        );
    }
    let ingest_rate = ingest_arrivals as f64 / ingest_incremental_s;
    let ingest_speedup = ingest_rebuild_s / ingest_incremental_s;

    // --- loopback model serving: concurrent connections hammering /solve --
    // the deployable read path (morer-serve): the same warmed repository
    // behind the std-only HTTP/1.1 JSON server, driven by 4 loopback
    // connections. Before timing, every served response is asserted
    // bit-identical to the in-process ModelSearcher::solve reference (the
    // vendored serde_json round-trips each f64 exactly).
    use morer_core::searcher::SolveOutcome;
    use morer_serve::{Connection, MorerServer, ServeConfig};

    let serve_cfg = MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        analysis_sample_cap: usize::MAX,
        seed,
        ..MorerConfig::default()
    };
    // the served repository is the searcher's, persisted and restored —
    // same entries, same analysis options, so solves must agree bit-for-bit
    let serve_morer = Morer::from_repository(searcher.repository(), &serve_cfg);
    let handle =
        MorerServer::start(serve_morer, &ServeConfig::default()).expect("start morer-serve");
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| serde_json::to_string(q).expect("encode query"))
        .collect();
    let serve_reference: Vec<SolveOutcome> = queries.iter().map(|q| searcher.solve(q)).collect();
    {
        // warm-up + correctness guard on one connection
        let mut conn = Connection::open(handle.addr()).expect("connect to morer-serve");
        for (body, reference) in bodies.iter().zip(&serve_reference) {
            let res = conn.post("/solve", body).expect("solve request");
            assert_eq!(res.status, 200, "serve error: {}", res.body);
            let served: SolveOutcome = res.json().expect("decode outcome");
            assert_eq!(
                &served, reference,
                "served solve diverged from the in-process searcher"
            );
        }
    }
    let serve_conns = 4usize;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..serve_conns {
            let bodies = &bodies;
            let addr = handle.addr();
            scope.spawn(move || {
                let mut conn = Connection::open(addr).expect("connect to morer-serve");
                for _ in 0..rounds {
                    for body in bodies {
                        let res = conn.post("/solve", body).expect("solve request");
                        assert_eq!(res.status, 200, "serve error: {}", res.body);
                    }
                }
            });
        }
    });
    let serve_s = start.elapsed().as_secs_f64();
    let serve_requests = serve_conns * rounds * queries.len();
    // the server's own view of the load just applied: tail latency from
    // the lock-free log-linear histograms behind GET /stats
    let serve_p99_micros = {
        let mut conn = Connection::open(handle.addr()).expect("connect to morer-serve");
        let stats: morer_serve::StatsResponse =
            conn.get("/stats").expect("stats").json().expect("decode stats");
        stats
            .endpoints
            .iter()
            .find(|e| e.endpoint == "solve")
            .map(|e| e.p99_micros)
            .expect("solve endpoint on /stats")
    };
    handle.shutdown();

    // --- observability overhead: one request-path record -------------------
    // the flight-recorder layer's contract (ISSUE 10): recording an
    // observation is a handful of relaxed atomic RMWs — lock-free and
    // allocation-free — budget-asserted so a regression that sneaks a lock
    // or allocation onto the request path fails the bench, not production
    let obs_registry = morer_serve::MetricsRegistry::default();
    let record_iters = 100_000u32;
    let start = Instant::now();
    for i in 0..record_iters {
        obs_registry.record(
            morer_serve::Endpoint::Solve,
            std::time::Duration::from_micros(u64::from(i & 1023)),
            200,
        );
    }
    let metrics_record_ns = start.elapsed().as_nanos() as f64 / f64::from(record_iters);
    assert!(
        metrics_record_ns < 2_000.0,
        "metrics record path regressed: {metrics_record_ns:.0} ns per record (budget 2000 ns)"
    );

    // --- reactor under parked idle connections (ISSUE 9) -----------------
    // the reactor's contract: a solve's cost must not depend
    // on how many idle keep-alive connections are parked. 1024 connections
    // are parked, served solves are re-asserted bit-identical to the
    // in-process reference, and only then is throughput measured — with
    // zero reaps allowed during the measurement, so the capacity provably
    // did not come from disconnecting the parked cohort. A second server
    // with a short idle deadline measures how promptly a parked cohort is
    // reaped (`serve_idle_conn_reap_ms`: cohort reap completion past the
    // configured deadline).
    let (serve_concurrent_conns, serve_reactor_rate, serve_idle_conn_reap_ms) = {
        use morer_serve::StatsResponse;
        let reactor_handle = MorerServer::start(
            Morer::from_repository(searcher.repository(), &serve_cfg),
            &morer_serve::ServeConfig::default(),
        )
        .expect("start reactor morer-serve");
        let addr = reactor_handle.addr();
        let n_parked = 1024usize;
        let parked: Vec<std::net::TcpStream> = (0..n_parked)
            .map(|_| std::net::TcpStream::connect(addr).expect("park idle connection"))
            .collect();
        {
            let mut conn = Connection::open(addr).expect("connect to reactor");
            for (body, reference) in bodies.iter().zip(&serve_reference) {
                let res = conn.post("/solve", body).expect("reactor solve");
                assert_eq!(res.status, 200, "reactor solve error: {}", res.body);
                let served: SolveOutcome = res.json().expect("decode outcome");
                assert_eq!(
                    &served, reference,
                    "reactor solve diverged from the in-process searcher"
                );
            }
            let stats: StatsResponse = conn.get("/stats").expect("stats").json().expect("stats");
            assert!(
                stats.connections.open >= n_parked as u64,
                "parked connections not all open: {:?}",
                stats.connections
            );
        }
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..serve_conns {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut conn = Connection::open(addr).expect("connect to reactor");
                    for _ in 0..rounds {
                        for body in bodies {
                            let res = conn.post("/solve", body).expect("reactor solve");
                            assert_eq!(res.status, 200, "reactor solve error: {}", res.body);
                        }
                    }
                });
            }
        });
        let reactor_s = start.elapsed().as_secs_f64();
        let (peak, reaped) = {
            let mut conn = Connection::open(addr).expect("connect to reactor");
            let stats: StatsResponse = conn.get("/stats").expect("stats").json().expect("stats");
            (stats.connections.peak, stats.connections.idle_reaped)
        };
        assert_eq!(reaped, 0, "throughput must not come from reaping the parked cohort");
        assert!(peak >= n_parked as u64 + 1);
        drop(parked);
        reactor_handle.shutdown();

        // reap promptness: park a cohort against a short idle deadline and
        // time how long past the deadline the last reap lands
        let reap_deadline = std::time::Duration::from_millis(500);
        let reap_handle = MorerServer::start(
            Morer::from_repository(searcher.repository(), &serve_cfg),
            &morer_serve::ServeConfig {
                idle_timeout: reap_deadline,
                ..morer_serve::ServeConfig::default()
            },
        )
        .expect("start reap-probe morer-serve");
        let cohort = 256usize;
        let addr = reap_handle.addr();
        let _parked: Vec<std::net::TcpStream> = (0..cohort)
            .map(|_| std::net::TcpStream::connect(addr).expect("park idle connection"))
            .collect();
        let t0 = Instant::now();
        let mut conn = Connection::open(addr).expect("connect to reap probe");
        loop {
            let stats: StatsResponse = conn.get("/stats").expect("stats").json().expect("stats");
            if stats.connections.idle_reaped >= cohort as u64 {
                break;
            }
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(15),
                "parked cohort not reaped: {:?}",
                stats.connections
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let reap_ms = t0.elapsed().saturating_sub(reap_deadline).as_secs_f64() * 1e3;
        drop(conn);
        reap_handle.shutdown();
        (peak, serve_requests as f64 / reactor_s, reap_ms)
    };

    // --- durability: WAL appends, recovery replay, fsync-acknowledged serve
    // The write-ahead log's hot loop (canonical-JSON encode + FNV-1a hash +
    // fsync'd append), cold-start recovery replay, and the served `/ingest`
    // path under fsync acknowledgement. Recovery is asserted bit-identical
    // to the in-memory state before any rate is printed.
    use morer_core::wal::{CommitRecord, Durability, Wal, WalOptions};

    let wal_dir = std::env::temp_dir().join(format!("morer_qb_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal_opts = WalOptions { durability: Durability::Fsync, compact_every: 0 };
    let wal_repo = searcher.repository();
    let mut wal = Wal::create(&wal_dir, wal_opts, &wal_repo, 0).expect("create WAL");
    // each record touches entry 0 and keeps the store length: replaying the
    // whole log must land exactly back on the base state
    let wal_appends = 64usize;
    let start = Instant::now();
    for i in 0..wal_appends {
        let record = CommitRecord {
            epoch: (i + 1) as u64,
            num_entries: wal_repo.entries.len(),
            entries: vec![wal_repo.entries[0].clone()],
            report: None,
        };
        wal.append(&record).expect("append commit record");
    }
    let wal_append_s = start.elapsed().as_secs_f64();
    drop(wal);

    let start = Instant::now();
    let recovered = Wal::open(&wal_dir, wal_opts).expect("recover WAL");
    let recovery_replay_s = start.elapsed().as_secs_f64();
    assert_eq!(recovered.epoch, wal_appends as u64, "every appended epoch must replay");
    assert_eq!(recovered.replayed, wal_appends as u64);
    let canonical = |repo: &morer_core::repository::ModelRepository| {
        let mut buf = Vec::new();
        repo.save_json(&mut buf).expect("encode repository");
        buf
    };
    assert_eq!(
        canonical(&recovered.repository),
        canonical(&wal_repo),
        "log-replay state diverged from the in-memory snapshot"
    );

    // replica catch-up: a follower bootstraps from the base snapshot and
    // applies the whole shipped log through the replay state machine —
    // bit-identity with the recovered writer is asserted before any rate
    use morer_core::replication::{FollowerState, SegmentStatus};
    use morer_core::wal::{BASE_FILE, HEADER_LEN, LOG_FILE};
    let start = Instant::now();
    let base_text = std::fs::read_to_string(wal_dir.join(BASE_FILE)).expect("read base snapshot");
    let mut follower = FollowerState::from_base(&base_text).expect("bootstrap follower");
    let shipped = std::fs::read(wal_dir.join(LOG_FILE)).expect("read shipped log");
    let segment = follower.ingest_segment(HEADER_LEN, &shipped[HEADER_LEN as usize..]);
    let replica_catchup_s = start.elapsed().as_secs_f64();
    assert_eq!(segment.status, SegmentStatus::Clean, "shipped log must verify frame by frame");
    assert_eq!(segment.applied, wal_appends as u64, "every shipped record must apply");
    assert_eq!(
        canonical(&follower.repository()),
        canonical(&recovered.repository),
        "caught-up follower diverged from the recovered writer"
    );
    let replica_lag_epochs = recovered.epoch - follower.epoch();
    let _ = std::fs::remove_dir_all(&wal_dir);

    // group commit: the same records written through deferred appends that
    // share one final fsync — the throughput the serve writer's group
    // commit buys over per-commit fsync
    let grouped_dir =
        std::env::temp_dir().join(format!("morer_qb_wal_grouped_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&grouped_dir);
    let mut grouped_wal =
        Wal::create(&grouped_dir, wal_opts, &wal_repo, 0).expect("create grouped WAL");
    let start = Instant::now();
    for i in 0..wal_appends {
        let record = CommitRecord {
            epoch: (i + 1) as u64,
            num_entries: wal_repo.entries.len(),
            entries: vec![wal_repo.entries[0].clone()],
            report: None,
        };
        grouped_wal.append_deferred(&record).expect("deferred append");
    }
    grouped_wal.sync().expect("group sync");
    let wal_grouped_s = start.elapsed().as_secs_f64();
    drop(grouped_wal);
    let regrouped = Wal::open(&grouped_dir, wal_opts).expect("recover grouped WAL");
    assert_eq!(regrouped.epoch, wal_appends as u64, "grouped appends must replay");
    assert_eq!(
        canonical(&regrouped.repository),
        canonical(&wal_repo),
        "group-commit replay diverged from per-commit fsync"
    );
    let _ = std::fs::remove_dir_all(&grouped_dir);

    // fsync-acknowledged serving: every `/ingest` reply waits for the
    // commit record to hit disk. A twin replays the same arrivals
    // in-process; after shutdown the served WAL is recovered and must be
    // bit-identical to the twin.
    let serve_wal_dir =
        std::env::temp_dir().join(format!("morer_qb_serve_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_wal_dir);
    let durable_handle = MorerServer::start(
        Morer::from_repository(searcher.repository(), &serve_cfg),
        &ServeConfig { wal_dir: Some(serve_wal_dir.clone()), ..ServeConfig::default() },
    )
    .expect("start durable morer-serve");
    let mut durable_twin = Morer::from_repository(searcher.repository(), &serve_cfg);
    let durable_arrivals = &ingest_refs[ingest_base..];
    let start = Instant::now();
    {
        let mut conn =
            Connection::open(durable_handle.addr()).expect("connect to durable morer-serve");
        for p in durable_arrivals {
            let body = serde_json::to_string(p).expect("encode arrival");
            let res = conn.post("/ingest", &body).expect("durable ingest");
            assert_eq!(res.status, 200, "durable ingest error: {}", res.body);
        }
    }
    let serve_durable_ingest_s = start.elapsed().as_secs_f64();
    durable_handle.shutdown();
    for p in durable_arrivals {
        durable_twin.add_problem(p).expect("twin ingest");
    }
    let served_recovery = Morer::open(&serve_wal_dir, &serve_cfg).expect("recover served WAL");
    assert_eq!(served_recovery.epoch(), durable_twin.epoch(), "served epochs must replay");
    assert_eq!(
        canonical(&served_recovery.searcher().repository()),
        canonical(&durable_twin.searcher().repository()),
        "recovered served state diverged from the in-process twin"
    );
    let _ = std::fs::remove_dir_all(&serve_wal_dir);

    // --- Bootstrap committee fit: presorted counts vs sort-per-node ------
    // 100 trees on 1 000 rows, the shape of a late Bootstrap AL round; the
    // presorted committee must equal the reference tree for tree.
    use morer_bench::workload::{committee_training_set, fit_committee, fit_committee_reference};
    let committee_trees = 100;
    let committee_data = committee_training_set(1_000, seed);
    let start = Instant::now();
    let committee = fit_committee(&committee_data, committee_trees, seed);
    let committee_fit_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let committee_reference = fit_committee_reference(&committee_data, committee_trees, seed);
    let committee_fit_reference_s = start.elapsed().as_secs_f64();
    assert_eq!(committee, committee_reference, "presorted committee diverged from the reference");

    // --- Bootstrap committee vote: block-partition walk vs per-row walk --
    // the committee above votes over a 20 000-row pool, about the size of
    // a construct AL pool; the batch votes must equal the per-row ones.
    use morer_bench::workload::{committee_pool, committee_votes, committee_votes_reference};
    let vote_pool = committee_pool(20_000, seed);
    let start = Instant::now();
    let votes = committee_votes(&committee, &vote_pool);
    let committee_vote_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let votes_reference = committee_votes_reference(&committee, &vote_pool);
    let committee_vote_reference_s = start.elapsed().as_secs_f64();
    assert_eq!(votes, votes_reference, "batch committee votes diverged from the per-row walk");

    let analysis_direct_rate = an_pairs as f64 / analysis_direct_s;
    let analysis_sketched_rate = an_pairs as f64 / analysis_sketched_s;
    println!(
        "{{\"bench\":\"featurization\",\"records\":{},\"pairs\":{},\"features\":{},\
         \"seed_s\":{:.4},\"cold_s\":{:.4},\"profiled_s\":{:.4},\
         \"profile_s\":{:.4},\"featurize_s\":{:.4},\
         \"seed_pairs_per_s\":{:.0},\"cold_pairs_per_s\":{:.0},\"profiled_pairs_per_s\":{:.0},\
         \"speedup_vs_seed\":{:.2},\"speedup_vs_cold\":{:.2},\
         \"analysis_problems\":{},\"analysis_pairs\":{},\
         \"analysis_direct_s\":{:.4},\"analysis_sketched_s\":{:.4},\
         \"analysis_direct_pairs_per_s\":{:.0},\"analysis_pairs_per_s\":{:.0},\
         \"analysis_speedup\":{:.2},\
         \"search_entries\":{},\"search_solves\":{},\"search_s\":{:.4},\
         \"search_solves_per_s\":{:.1},\
         \"search_threads_mt\":{},\"search_solves_mt\":{},\"search_mt_s\":{:.4},\
         \"search_solves_per_s_mt\":{:.1},\
         \"search_scale_entries\":{},\"search_scale_solves\":{},\
         \"search_exhaustive_s\":{:.4},\"search_indexed_s\":{:.4},\
         \"search_exhaustive_per_s\":{:.1},\"search_indexed_per_s\":{:.1},\
         \"search_index_speedup\":{:.2},\"index_shortlist_frac\":{:.4},\
         \"ingest_repository\":{},\"ingest_arrivals\":{},\
         \"ingest_incremental_s\":{:.4},\"ingest_rebuild_s\":{:.4},\
         \"ingest_problems_per_s\":{:.1},\"ingest_speedup\":{:.2},\
         \"serve_connections\":{},\"serve_requests\":{},\"serve_s\":{:.4},\
         \"serve_requests_per_s\":{:.1},\
         \"serve_p99_micros\":{},\"metrics_record_ns\":{:.1},\
         \"serve_concurrent_conns\":{},\"serve_reactor_requests_per_s\":{:.1},\
         \"serve_idle_conn_reap_ms\":{:.1},\
         \"wal_appends\":{},\"wal_append_s\":{:.4},\"wal_appends_per_s\":{:.1},\
         \"wal_grouped_s\":{:.4},\"wal_appends_per_s_grouped\":{:.1},\
         \"recovery_replay_s\":{:.4},\
         \"replica_catchup_s\":{:.4},\"replica_catchup_records_per_s\":{:.1},\
         \"replica_lag_epochs\":{},\
         \"serve_durable_ingests\":{},\"serve_durable_ingest_s\":{:.4},\
         \"serve_durable_ingest_per_s\":{:.1},\
         \"committee_trees\":{},\"committee_rows\":{},\
         \"committee_fit_s\":{:.4},\"committee_fit_reference_s\":{:.4},\
         \"committee_fit_speedup\":{:.2},\
         \"committee_vote_rows\":{},\
         \"committee_vote_s\":{:.4},\"committee_vote_reference_s\":{:.4},\
         \"committee_vote_speedup\":{:.2}}}",
        workload.dataset.num_records(),
        pairs,
        workload.scheme.num_features(),
        seed_s,
        cold_s,
        profiled_s,
        profile_s,
        featurize_s,
        seed_rate,
        cold_rate,
        profiled_rate,
        profiled_rate / seed_rate,
        profiled_rate / cold_rate,
        an_refs.len(),
        an_pairs,
        analysis_direct_s,
        analysis_sketched_s,
        analysis_direct_rate,
        analysis_sketched_rate,
        analysis_sketched_rate / analysis_direct_rate,
        searcher.num_models(),
        search_solves,
        search_s,
        search_solves as f64 / search_s,
        mt_threads,
        search_solves_mt,
        search_mt_s,
        search_solves_mt as f64 / search_mt_s,
        scale_p,
        scale_solves,
        search_exhaustive_s,
        search_indexed_s,
        scale_solves as f64 / search_exhaustive_s,
        scale_solves as f64 / search_indexed_s,
        search_exhaustive_s / search_indexed_s,
        index_overview.shortlist_frac,
        ingest_base,
        ingest_arrivals,
        ingest_incremental_s,
        ingest_rebuild_s,
        ingest_rate,
        ingest_speedup,
        serve_conns,
        serve_requests,
        serve_s,
        serve_requests as f64 / serve_s,
        serve_p99_micros,
        metrics_record_ns,
        serve_concurrent_conns,
        serve_reactor_rate,
        serve_idle_conn_reap_ms,
        wal_appends,
        wal_append_s,
        wal_appends as f64 / wal_append_s,
        wal_grouped_s,
        wal_appends as f64 / wal_grouped_s,
        recovery_replay_s,
        replica_catchup_s,
        wal_appends as f64 / replica_catchup_s,
        replica_lag_epochs,
        durable_arrivals.len(),
        serve_durable_ingest_s,
        durable_arrivals.len() as f64 / serve_durable_ingest_s,
        committee_trees,
        committee_data.len(),
        committee_fit_s,
        committee_fit_reference_s,
        committee_fit_reference_s / committee_fit_s,
        vote_pool.rows(),
        committee_vote_s,
        committee_vote_reference_s,
        committee_vote_reference_s / committee_vote_s,
    );
}
