//! Throughput benchmark of the featurization hot path: pairs/second through
//! `ErProblem` feature generation, cold per-pair string comparison vs the
//! profiled fast path (see `morer_sim::profile`).
//!
//! The acceptance bar for the profiling work is ≥ 5× profiled-over-cold on
//! the 10k-record / 100k-pair workload (`cargo run -p morer-bench --release
//! -- quick-bench` prints the same comparison as a JSON line).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use morer_bench::workload::featurization_workload;
use morer_data::ErProblem;

fn bench_featurization(c: &mut Criterion) {
    // scaled-down workload so the cold path fits a bench iteration budget;
    // relative throughput is what matters here
    let workload = featurization_workload(2_000, 20_000, 42);
    let mut group = c.benchmark_group("featurization");
    group.throughput(Throughput::Elements(workload.pairs.len() as u64));
    group.sample_size(10);
    group.bench_function("cold_strings", |b| {
        b.iter(|| {
            ErProblem::build_cold(
                0,
                black_box(&workload.dataset),
                &workload.scheme,
                (0, 1),
                workload.pairs.clone(),
            )
        })
    });
    group.bench_function("profiled", |b| {
        b.iter(|| {
            ErProblem::build(
                0,
                black_box(&workload.dataset),
                &workload.scheme,
                (0, 1),
                workload.pairs.clone(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_featurization);
criterion_main!(benches);
