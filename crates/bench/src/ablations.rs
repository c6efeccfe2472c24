//! Ablation benches for MoRER's design choices: clustering algorithm,
//! feature weighting, record uniqueness, cluster stability, `ratio_init` and
//! budget (beyond the paper's own figures).

use std::time::Instant;

use morer_core::prelude::*;

use crate::runs::load_benchmark;
use crate::Options;

fn build_and_score(bench: &morer_data::Benchmark, config: &MorerConfig) -> (f64, usize, f64) {
    let start = Instant::now();
    let (mut morer, report) = Morer::build(bench.initial_problems(), config);
    let (counts, _) = morer.solve_and_score(&bench.unsolved_problems());
    (counts.f1(), report.num_clusters, start.elapsed().as_secs_f64())
}

/// Clustering-algorithm ablation: the paper reports Leiden ≈ Girvan-Newman ≈
/// label propagation in pre-experiments (§4.1); this reproduces that check.
pub fn clustering(opts: &Options) {
    println!("\n=== Ablation: clustering algorithm (Bootstrap AL, b = 1000) ===");
    println!("{:<12} {:<20} {:>8} {:>10} {:>10}", "dataset", "algorithm", "F1", "clusters", "time s");
    for name in &opts.datasets {
        let bench = load_benchmark(name, opts.scale, opts.seed);
        for algorithm in [
            ClusteringAlgorithm::default_leiden(),
            ClusteringAlgorithm::Louvain { gamma: 1.0 },
            ClusteringAlgorithm::LabelPropagation,
            ClusteringAlgorithm::GirvanNewman,
        ] {
            let config = MorerConfig {
                budget: 1000,
                clustering: algorithm,
                seed: opts.seed,
                ..MorerConfig::default()
            };
            let (f1, clusters, secs) = build_and_score(&bench, &config);
            println!(
                "{:<12} {:<20} {:>8.3} {:>10} {:>10.2}",
                bench.name,
                algorithm.name(),
                f1,
                clusters,
                secs
            );
        }
    }
}

/// Stddev feature weighting on/off in the `sim_p` aggregation (§4.2).
pub fn weighting(opts: &Options) {
    println!("\n=== Ablation: stddev feature weighting in sim_p (b = 1000) ===");
    println!("{:<12} {:<10} {:>8} {:>10}", "dataset", "weighting", "F1", "clusters");
    for name in &opts.datasets {
        let bench = load_benchmark(name, opts.scale, opts.seed);
        for weighted in [true, false] {
            let config = MorerConfig {
                budget: 1000,
                weight_features_by_stddev: weighted,
                seed: opts.seed,
                ..MorerConfig::default()
            };
            let (f1, clusters, _) = build_and_score(&bench, &config);
            println!(
                "{:<12} {:<10} {:>8.3} {:>10}",
                bench.name,
                if weighted { "stddev" } else { "uniform" },
                f1,
                clusters
            );
        }
    }
}

/// Record-uniqueness score (Eqs. 11-12) on/off for Bootstrap AL.
pub fn uniqueness(opts: &Options) {
    println!("\n=== Ablation: Bootstrap uniqueness score (Eqs. 11-12, b = 1000) ===");
    println!("{:<12} {:<12} {:>8}", "dataset", "uniqueness", "F1");
    for name in &opts.datasets {
        let bench = load_benchmark(name, opts.scale, opts.seed);
        for on in [false, true] {
            let config = MorerConfig {
                budget: 1000,
                use_uniqueness_score: on,
                seed: opts.seed,
                ..MorerConfig::default()
            };
            let (f1, _, _) = build_and_score(&bench, &config);
            println!("{:<12} {:<12} {:>8.3}", bench.name, if on { "on" } else { "off" }, f1);
        }
    }
}

/// Cluster stability vs model performance — the paper's §7 future work,
/// implemented: per-cluster cohesion / seed stability against the F1 the
/// cluster's model achieves on the unsolved problems routed to it.
pub fn stability(opts: &Options) {
    use morer_ml::metrics::PairCounts;
    use morer_stats::describe::pearson;
    println!("\n=== Extension: cluster stability vs model performance (§7 future work) ===");
    for name in &opts.datasets {
        let bench = load_benchmark(name, opts.scale, opts.seed);
        let config = MorerConfig { budget: 1000, seed: opts.seed, ..MorerConfig::default() };
        let (mut morer, _) = Morer::build(bench.initial_problems(), &config);
        let unsolved = bench.unsolved_problems();
        let (_, outcomes) = morer.solve_and_score(&unsolved);
        let report = morer.stability_report(5);

        // per-entry F1 over the problems routed to that entry
        let mut per_entry: std::collections::HashMap<usize, PairCounts> =
            std::collections::HashMap::new();
        for (p, o) in unsolved.iter().zip(&outcomes) {
            // problems the empty repository could not route have no entry
            let Some(entry) = o.entry else { continue };
            let counts = per_entry.entry(entry).or_default();
            for (&pred, &actual) in o.predictions.iter().zip(&p.labels) {
                counts.record(pred, actual);
            }
        }
        println!(
            "\n--- {} (seed stability ARI = {:.3}) ---",
            bench.name, report.seed_stability
        );
        println!(
            "{:<8} {:>6} {:>10} {:>10} {:>10} {:>8}",
            "cluster", "size", "intra", "inter", "cohesion", "F1"
        );
        let mut cohesions = Vec::new();
        let mut f1s = Vec::new();
        for c in &report.clusters {
            let f1 = per_entry.get(&c.entry_id).map(PairCounts::f1);
            println!(
                "{:<8} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>8}",
                c.entry_id,
                c.size,
                c.intra_similarity,
                c.inter_similarity,
                c.cohesion,
                f1.map_or("-".into(), |v| format!("{v:.3}"))
            );
            if let Some(f1) = f1 {
                cohesions.push(c.cohesion);
                f1s.push(f1);
            }
        }
        if let Some(r) = pearson(&cohesions, &f1s) {
            println!("pearson(cohesion, F1) = {r:.3}");
        }
    }
}

/// `ratio_init` ablation (Table 3: 50% vs 30% of problems solved up front).
pub fn ratio_init(opts: &Options) {
    println!("\n=== Ablation: ratio_init for the Dexter-style problem split ===");
    println!("{:<12} {:>10} {:>8} {:>10}", "dataset", "ratio_init", "F1", "clusters");
    for ratio in [0.5, 0.3] {
        let bench = morer_data::camera(opts.scale, ratio, opts.seed);
        let config = MorerConfig { budget: 1000, seed: opts.seed, ..MorerConfig::default() };
        let (f1, clusters, _) = build_and_score(&bench, &config);
        println!("{:<12} {:>9.0}% {:>8.3} {:>10}", bench.name, ratio * 100.0, f1, clusters);
    }
}

/// Budget sweep for MoRER+Bootstrap beyond the paper's three budgets.
pub fn budget_sweep(opts: &Options) {
    println!("\n=== Ablation: budget sweep (MoRER+Bootstrap) ===");
    println!("{:<12} {:>8} {:>8} {:>10}", "dataset", "budget", "F1", "labels");
    for name in &opts.datasets {
        let bench = load_benchmark(name, opts.scale, opts.seed);
        for budget in [250usize, 500, 1000, 2000, 4000] {
            let config = MorerConfig { budget, seed: opts.seed, ..MorerConfig::default() };
            
            let (mut morer, report) = Morer::build(bench.initial_problems(), &config);
            let start_labels = report.labels_used;
            let (counts, _) = morer.solve_and_score(&bench.unsolved_problems());
            println!(
                "{:<12} {:>8} {:>8.3} {:>10}",
                bench.name,
                budget,
                counts.f1(),
                start_labels
            );
        }
    }
}
