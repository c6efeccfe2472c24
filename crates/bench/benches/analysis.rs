//! Throughput benchmark of the distribution-analysis hot paths: problem
//! pairs/second through the `G_P` graph build (direct per-pair recomputation
//! vs the once-per-problem `DistributionSketch` path) and solves/second
//! through `sel_base` model search with cached representative sketches.
//!
//! The acceptance bar for the sketching work is ≥ 5× sketched-over-direct on
//! the graph-build workload (`cargo run -p morer-bench --release --
//! quick-bench` prints the same comparison as part of its JSON line).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use morer_bench::workload::{analysis_workload, singleton_entries};
use morer_core::distribution::{
    build_problem_graph_direct, build_problem_graph_sketched, AnalysisOptions, DistributionTest,
};
use morer_core::selection::best_entry_for;
use morer_data::ErProblem;

fn bench_graph_build(c: &mut Criterion) {
    // scaled-down workload so the direct path fits a bench iteration
    // budget; relative throughput is what matters here
    let problems = analysis_workload(16, 800, 6, 42);
    let refs: Vec<&ErProblem> = problems.iter().collect();
    let n_pairs = refs.len() * (refs.len() - 1) / 2;
    let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 4000, 42);

    let mut group = c.benchmark_group("analysis_graph_build");
    group.throughput(Throughput::Elements(n_pairs as u64));
    group.sample_size(10);
    group.bench_function("direct", |b| {
        b.iter(|| build_problem_graph_direct(black_box(&refs), &opts, 0.5))
    });
    group.bench_function("sketched", |b| {
        b.iter(|| build_problem_graph_sketched(black_box(&refs), &opts, 0.5).0)
    });
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let entries = singleton_entries(&analysis_workload(8, 800, 6, 7));
    let queries = analysis_workload(4, 800, 6, 99);
    let opts = AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 4000, 42);

    let mut group = c.benchmark_group("analysis_search");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.sample_size(10);
    group.bench_function("sel_base_sketched", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(best_entry_for(q, &entries, &opts));
            }
        })
    });
    // direct reference: cold caches every iteration
    group.bench_function("sel_base_cold_cache", |b| {
        b.iter(|| {
            for e in &entries {
                e.invalidate_sketch();
            }
            for q in &queries {
                black_box(best_entry_for(q, &entries, &opts));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_graph_build, bench_search);
criterion_main!(benches);
