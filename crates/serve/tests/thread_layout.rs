//! The server's thread layout: one reactor thread, a compute pool of
//! `max(available_parallelism, 2)` threads and one writer, all joined on
//! shutdown. This is its own test binary, so no other test's server
//! threads are counted.

use morer_core::config::MorerConfig;
use morer_core::pipeline::Morer;
use morer_core::repository::ModelRepository;
use morer_serve::{MorerServer, ServeConfig};
use std::time::{Duration, Instant};

/// How many of this process's threads have a name starting with `prefix`
/// (Linux truncates thread names to 15 bytes, so `morer-serve-reactor`
/// reads as `morer-serve-rea`).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.unwrap().path().join("comm")).ok())
        .filter(|name| name.trim_end().starts_with(prefix))
        .count()
}

#[test]
fn a_server_runs_one_reactor_a_sized_compute_pool_and_one_writer() {
    let morer = Morer::from_repository(ModelRepository::default(), &MorerConfig::default());
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let compute = std::thread::available_parallelism().map_or(2, |p| p.get()).max(2);
    // a spawned thread names itself when it starts running: wait for the
    // compute pool, which is spawned after the reactor
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads_named("morer-serve-com") < compute && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads_named("morer-serve-com"), compute);
    assert_eq!(threads_named("morer-serve-rea"), 1);
    assert_eq!(threads_named("morer-serve-wri"), 1);
    handle.shutdown();
    assert_eq!(threads_named("morer-serve"), 0);
}
