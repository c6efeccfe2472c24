//! The workspace's one data-parallelism primitive, built on scoped
//! `std::thread`.
//!
//! Every data-parallel loop goes through these helpers: featurization
//! ([`fill_rows`]), the distribution analysis, model search, random-forest
//! and committee training, active-learning scoring and the baselines
//! ([`map_indexed`]). Results come back in index order, so parallel output
//! is bit-identical to the sequential loop. The helpers give real multi-core
//! speedups on machines that have the cores and degrade to plain loops on
//! single-core machines.
//!
//! A call made from inside a worker runs inline on that worker, so nested
//! parallel code (a forest fit inside a parallel pair loop) never runs more
//! threads than `available_parallelism`. A panic in a worker is re-raised on
//! the caller with its original payload.

use std::cell::Cell;
use std::num::NonZeroUsize;

thread_local! {
    /// Set on the worker threads spawned by this module.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads to use for `n_items` work items, given a
/// minimum profitable chunk size. Always 1 inside a worker.
pub fn thread_count(n_items: usize, min_chunk: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(n_items / min_chunk.max(1)).max(1)
}

/// Run each job on its own scoped worker thread and return the results in
/// job order. A worker panic resumes on the caller with its payload.
fn run_workers<T, J>(jobs: impl Iterator<Item = J>) -> Vec<T>
where
    T: Send,
    J: FnOnce() -> T + Send,
{
    let joined: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .map(|job| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    job()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// Fill a row-major `rows × cols` buffer in parallel: `fill(i, row)` is
/// called exactly once per row index `i`, in unspecified thread order, with
/// rows handed out as contiguous per-thread chunks.
///
/// Falls back to a sequential loop when only one thread is profitable.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `cols` (for `cols > 0`).
pub fn fill_rows<F>(data: &mut [f64], cols: usize, fill: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if cols == 0 || data.is_empty() {
        return;
    }
    assert_eq!(data.len() % cols, 0, "buffer length must be rows * cols");
    let rows = data.len() / cols;
    // below ~4k rows thread spawn overhead beats the win
    let threads = thread_count(rows, 4096);
    if threads <= 1 {
        for (i, row) in data.chunks_mut(cols).enumerate() {
            fill(i, row);
        }
        return;
    }
    let rows_per_thread = rows.div_ceil(threads);
    let fill = &fill;
    run_workers(data.chunks_mut(rows_per_thread * cols).enumerate().map(
        |(chunk_idx, chunk)| {
            move || {
                let base = chunk_idx * rows_per_thread;
                for (i, row) in chunk.chunks_mut(cols).enumerate() {
                    fill(base + i, row);
                }
            }
        },
    ));
}

/// Map `f` over `0..n` with scoped worker threads, collecting the results
/// in index order. Indices are handed out as contiguous per-thread chunks;
/// `min_chunk` is the smallest per-thread chunk worth a thread spawn.
///
/// Falls back to a plain sequential map when only one thread is profitable,
/// so single-core machines pay no overhead.
pub fn map_indexed<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread_count(n, min_chunk);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let per_thread = n.div_ceil(threads);
    let f = &f;
    let chunks = run_workers((0..threads).map(|t| {
        move || (t * per_thread..((t + 1) * per_thread).min(n)).map(f).collect::<Vec<T>>()
    }));
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_rows_visits_every_row_once() {
        let cols = 3;
        let rows = 1000;
        let mut data = vec![0.0; rows * cols];
        fill_rows(&mut data, cols, |i, row| {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (i * cols + j) as f64;
            }
        });
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k as f64);
        }
    }

    #[test]
    fn fill_rows_handles_degenerate_shapes() {
        let mut empty: Vec<f64> = Vec::new();
        fill_rows(&mut empty, 4, |_, _| panic!("no rows to fill"));
        fill_rows(&mut empty, 0, |_, _| panic!("no rows to fill"));
        let mut one = vec![0.0; 2];
        fill_rows(&mut one, 2, |i, row| row.fill(i as f64 + 7.0));
        assert_eq!(one, vec![7.0, 7.0]);
    }

    #[test]
    fn map_indexed_preserves_index_order() {
        let out = map_indexed(10_000, 1, |i| i * 3);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn map_indexed_handles_degenerate_sizes() {
        assert_eq!(map_indexed(0, 1, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 1024, |i| i + 5), vec![5]);
        // n smaller than a profitable chunk stays sequential but complete
        assert_eq!(map_indexed(3, 1_000_000, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_calls_run_on_the_calling_worker() {
        let outer = map_indexed(8, 1, |_| {
            let worker = std::thread::current().id();
            let inner = map_indexed(64, 1, |_| std::thread::current().id());
            let mut rows = vec![0.0; 8192];
            let filled_on = std::sync::Mutex::new(Vec::new());
            fill_rows(&mut rows, 1, |_, _| {
                filled_on.lock().unwrap().push(std::thread::current().id());
            });
            let filled_on = filled_on.into_inner().unwrap();
            (worker, inner, filled_on, thread_count(1 << 20, 1))
        });
        let threads = thread_count(8, 1);
        for (worker, inner, filled_on, nested_threads) in outer {
            assert!(inner.iter().chain(&filled_on).all(|id| *id == worker));
            // only the spawned workers are flagged; a sequential outer map
            // runs on the caller, whose nested calls may fan out
            if threads > 1 {
                assert_eq!(nested_threads, 1);
            }
        }
        assert!(!IN_WORKER.with(Cell::get), "the caller is never flagged");
    }

    #[test]
    fn worker_panic_keeps_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(64, 1, |i| {
                if i == 63 {
                    panic!("row {i} is poisoned");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("row 63 is poisoned"));
    }

    #[test]
    fn thread_count_is_bounded() {
        assert_eq!(thread_count(0, 1024), 1);
        assert_eq!(thread_count(100, 1024), 1);
        assert!(thread_count(1 << 20, 1024) >= 1);
    }
}
