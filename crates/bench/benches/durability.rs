//! Microbenchmarks of the write-ahead-log subsystem: per-commit append
//! cost (canonical-JSON encode + FNV-1a hash + optional fsync), cold-start
//! recovery replay, compaction, and the durable-ingest overhead a pipeline
//! pays over a purely in-memory one.
//!
//! `cargo run -p morer-bench --release -- quick-bench` prints the same
//! append/replay rates as part of its JSON line, after asserting the
//! replayed state bit-identical to the in-memory snapshot.

use std::path::PathBuf;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use morer_bench::workload::{analysis_workload, singleton_entries};
use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::pipeline::Morer;
use morer_core::repository::ModelRepository;
use morer_core::wal::{CommitRecord, Durability, Wal, WalOptions};
use morer_data::ErProblem;
use morer_ml::model::ModelConfig;

fn bench_config() -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed: 42,
        ..MorerConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morer_bench_wal_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small trained repository: the entry payload each commit record carries.
fn repository(entries: usize) -> ModelRepository {
    ModelRepository { entries: singleton_entries(&analysis_workload(entries, 600, 6, 42)) }
}

fn record(repo: &ModelRepository, epoch: u64) -> CommitRecord {
    CommitRecord {
        epoch,
        num_entries: repo.entries.len(),
        entries: vec![repo.entries[0].clone()],
        report: None,
    }
}

fn bench_append(c: &mut Criterion) {
    let repo = repository(4);
    let appends = 32usize;
    let mut group = c.benchmark_group("wal_append");
    group.throughput(Throughput::Elements(appends as u64));
    group.sample_size(10);
    for (label, durability) in
        [("buffered", Durability::Buffered), ("fsync", Durability::Fsync)]
    {
        let dir = scratch(label);
        group.bench_function(label, |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                let options = WalOptions { durability, compact_every: 0 };
                let mut wal = Wal::create(&dir, options, &repo, 0).expect("create WAL");
                for i in 0..appends {
                    wal.append(&record(&repo, (i + 1) as u64)).expect("append");
                }
                black_box(wal.state().log_bytes)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    // group commit: the same records as `fsync`, but every append defers
    // its sync and one final fdatasync covers the whole batch — the
    // throughput headroom the serve writer's group commit exploits
    let dir = scratch("fsync_grouped");
    group.bench_function("fsync_grouped", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let options = WalOptions { durability: Durability::Fsync, compact_every: 0 };
            let mut wal = Wal::create(&dir, options, &repo, 0).expect("create WAL");
            for i in 0..appends {
                wal.append_deferred(&record(&repo, (i + 1) as u64)).expect("deferred append");
            }
            wal.sync().expect("group sync");
            black_box(wal.state().log_bytes)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let repo = repository(4);
    let appends = 64usize;
    let dir = scratch("recover");
    let options = WalOptions { durability: Durability::Buffered, compact_every: 0 };
    let mut wal = Wal::create(&dir, options, &repo, 0).expect("create WAL");
    for i in 0..appends {
        wal.append(&record(&repo, (i + 1) as u64)).expect("append");
    }
    drop(wal);

    let mut group = c.benchmark_group("wal_recovery");
    group.throughput(Throughput::Elements(appends as u64));
    group.sample_size(10);
    group.bench_function("replay_64_records", |b| {
        b.iter(|| {
            let recovered = Wal::open(&dir, options).expect("recover");
            assert_eq!(recovered.epoch, appends as u64);
            black_box(recovered.repository.entries.len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_durable_ingest(c: &mut Criterion) {
    // the end-to-end price of durability: the same arrival stream into an
    // in-memory pipeline, a buffered WAL, and an fsync-acknowledged WAL
    let problems = analysis_workload(20, 600, 6, 42);
    let refs: Vec<&ErProblem> = problems.iter().collect();
    let (base, arrivals) = refs.split_at(16);
    let (seeded, _) = Morer::build(base.to_vec(), &bench_config());
    let seed_repo = seeded.repository();

    let mut group = c.benchmark_group("durable_ingest");
    group.throughput(Throughput::Elements(arrivals.len() as u64));
    group.sample_size(10);
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            let mut morer = Morer::from_repository(seed_repo.clone(), &bench_config());
            for p in arrivals {
                black_box(morer.add_problem(p).unwrap());
            }
            morer.num_models()
        })
    });
    for (label, durability) in
        [("wal_buffered", Durability::Buffered), ("wal_fsync", Durability::Fsync)]
    {
        let dir = scratch(label);
        group.bench_function(label, |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                let mut morer = Morer::from_repository(seed_repo.clone(), &bench_config());
                morer
                    .attach_wal(&dir, WalOptions { durability, compact_every: 0 })
                    .expect("attach WAL");
                for p in arrivals {
                    black_box(morer.add_problem(p).unwrap());
                }
                morer.num_models()
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_compaction(c: &mut Criterion) {
    let repo = repository(4);
    let appends = 64usize;
    let dir = scratch("compact");
    let mut group = c.benchmark_group("wal_compaction");
    group.sample_size(10);
    group.bench_function("fold_64_records", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let options = WalOptions { durability: Durability::Buffered, compact_every: 0 };
            let mut wal = Wal::create(&dir, options, &repo, 0).expect("create WAL");
            for i in 0..appends {
                wal.append(&record(&repo, (i + 1) as u64)).expect("append");
            }
            wal.compact(&repo, appends as u64).expect("compact");
            black_box(wal.state().compactions)
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_replica_catchup(c: &mut Criterion) {
    // a follower's cold catch-up: bootstrap from the base snapshot, then
    // verify-and-apply the whole shipped log through the replay state
    // machine (hash check + replay per frame — the `GET /wal` consumer path)
    use morer_core::replication::{FollowerState, SegmentStatus};
    use morer_core::wal::{BASE_FILE, HEADER_LEN, LOG_FILE};

    let repo = repository(4);
    let appends = 64usize;
    let dir = scratch("catchup");
    let options = WalOptions { durability: Durability::Buffered, compact_every: 0 };
    let mut wal = Wal::create(&dir, options, &repo, 0).expect("create WAL");
    for i in 0..appends {
        wal.append(&record(&repo, (i + 1) as u64)).expect("append");
    }
    drop(wal);
    let base = std::fs::read_to_string(dir.join(BASE_FILE)).expect("read base");
    let shipped = std::fs::read(dir.join(LOG_FILE)).expect("read log");
    let frames = &shipped[HEADER_LEN as usize..];

    let mut group = c.benchmark_group("replica_catchup");
    group.throughput(Throughput::Elements(appends as u64));
    group.sample_size(10);
    group.bench_function("base_plus_64_records", |b| {
        b.iter(|| {
            let mut follower = FollowerState::from_base(&base).expect("bootstrap");
            let segment = follower.ingest_segment(HEADER_LEN, frames);
            assert_eq!(segment.status, SegmentStatus::Clean);
            assert_eq!(follower.epoch(), appends as u64);
            black_box(follower.entries().len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_append,
    bench_recovery,
    bench_durable_ingest,
    bench_compaction,
    bench_replica_catchup
);
criterion_main!(benches);
