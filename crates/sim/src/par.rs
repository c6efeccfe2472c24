//! The workspace's one data-parallelism primitive: a persistent worker
//! pool that callers join.
//!
//! Every data-parallel loop goes through these helpers: featurization
//! ([`fill_rows`]), the distribution analysis, model search, random-forest
//! and committee training, active-learning scoring and the baselines
//! ([`map_indexed`]). Results come back in index order, each written to its
//! own slot, so parallel output is bit-identical to the sequential loop.
//! The helpers give real multi-core speedups on machines that have the
//! cores and degrade to plain loops on single-core machines.
//!
//! # The pool
//!
//! The first parallel call starts one process-wide pool of
//! `available_parallelism − 1` worker threads named `morer-par`, which
//! park on a condition variable while there is no work. No OS thread is
//! spawned per call. A call splits its index range into a few chunks per
//! thread (the chunk length follows from the item and thread counts),
//! queues the job, wakes as many workers as it has helper threads, and then
//! works on the job itself: every thread, the caller included, claims the
//! next chunk from the job's atomic counter until none is left. The caller
//! then parks until the chunks that workers already claimed are done. It
//! never waits for a worker to *start*: a caller whose workers are busy
//! elsewhere (another caller's job, a serve thread's search) finishes its
//! job alone, so concurrent callers cannot deadlock and add no threads.
//!
//! A call made from inside a chunk runs inline on its thread, so nested
//! parallel code (a forest fit inside a parallel pair loop) never runs more
//! threads than `available_parallelism`: pool workers are flagged for their
//! whole life, and a caller is flagged while it works on its own job, then
//! restored. Every chunk runs under `catch_unwind`; the first panic is
//! re-raised on the caller with its original payload once every claimed
//! chunk is done, and the pool stays usable.
//!
//! The workers are detached on purpose, unlike every other thread in the
//! workspace, which is joined: they live as long as the process, hold no
//! resource beyond their stacks, and cannot lose a panic, because no chunk
//! unwinds out of its `catch_unwind`.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

thread_local! {
    /// Set on pool workers, and on a caller while it works on its own job.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Chunks per participating thread: enough claims that a thread slowed by
/// a neighbour hands its share to the others, few enough that claiming
/// stays negligible.
const CLAIMS_PER_THREAD: usize = 4;

/// `available_parallelism`, read once (it reads cgroup files on Linux).
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Number of threads to use for `n_items` work items, given a minimum
/// profitable number of items per thread. Always 1 inside a worker.
pub fn thread_count(n_items: usize, min_chunk: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    hardware_threads().min(n_items / min_chunk.max(1)).max(1)
}

/// What the threads working on a job report back to its caller.
#[derive(Default)]
struct Done {
    /// Chunks run to completion or to a panic.
    finished: usize,
    /// The payload of the first chunk that panicked.
    panic: Option<Box<dyn Any + Send>>,
}

/// One parallel call: `chunks` calls of `task`, claimed in index order.
struct Job {
    /// The chunk body, its borrow's lifetime erased so that the pool's
    /// `'static` threads can hold it.
    task: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The next unclaimed chunk; values `>= chunks` mean none is left.
    next: AtomicUsize,
    done: Mutex<Done>,
    all_done: Condvar,
}

// SAFETY: `task` points at a `dyn Fn + Sync`, which any thread may call
// through a shared reference; `run` keeps its referent alive until every
// claimed call has returned, and no call is made after that (see
// `Job::work`). `chunks` is immutable, `next` atomic, and `done` and
// `all_done` are thread-safe; `Done` holds only `Send` data.
unsafe impl Send for Job {}
// SAFETY: as for `Send`: every field is only read, or mutated atomically or
// under `done`'s lock.
unsafe impl Sync for Job {}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    /// Claim and run chunks until none is left. Never unwinds.
    fn work(&self) {
        loop {
            // Relaxed suffices: the read-modify-write alone makes each claim
            // unique, and the chunk's effects are published through `done`.
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            // SAFETY: chunk `c` is claimed but not yet counted in `finished`,
            // so the caller is still inside `run`, waiting for it, and the
            // closure `task` was erased from is alive.
            let task = unsafe { &*self.task };
            let outcome = catch_unwind(AssertUnwindSafe(|| task(c)));
            let mut done = self.done.lock().expect("no chunk runs under the job lock");
            if let Err(payload) = outcome {
                done.panic.get_or_insert(payload);
            }
            done.finished += 1;
            if done.finished == self.chunks {
                self.all_done.notify_one();
            }
        }
    }
}

/// The queue of jobs with unclaimed chunks, shared by callers and workers.
struct Pool {
    jobs: Mutex<Vec<Arc<Job>>>,
    wake: Condvar,
}

static POOL: Pool = Pool { jobs: Mutex::new(Vec::new()), wake: Condvar::new() };
static START: Once = Once::new();

/// Start the pool's workers, once per process. A worker that cannot be
/// spawned is skipped: callers finish their jobs without it.
fn start_workers() {
    START.call_once(|| {
        for _ in 1..hardware_threads() {
            let _detached =
                std::thread::Builder::new().name("morer-par".to_owned()).spawn(worker_loop);
        }
    });
}

/// A pool worker: help the oldest job that has unclaimed chunks, park when
/// there is none.
fn worker_loop() {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut jobs = POOL.jobs.lock().expect("no chunk runs under the queue lock");
            loop {
                if let Some(job) = jobs.iter().find(|j| !j.exhausted()) {
                    break Arc::clone(job);
                }
                jobs = POOL.wake.wait(jobs).expect("no chunk runs under the queue lock");
            }
        };
        job.work();
    }
}

/// Run `task(c)` for every chunk `c` in `0..chunks` on the calling thread,
/// waking `helpers` parked pool workers to help; return once every call
/// has returned. A panic in any call resumes here with its payload.
fn run(chunks: usize, helpers: usize, task: &(dyn Fn(usize) + Sync)) {
    start_workers();
    // SAFETY: only the lifetime is erased. The pointer is dereferenced only
    // for a claimed chunk, and this function returns only after every
    // claimed chunk has finished and no chunk is left to claim.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        chunks,
        next: AtomicUsize::new(0),
        done: Mutex::default(),
        all_done: Condvar::new(),
    });
    POOL.jobs.lock().expect("no chunk runs under the queue lock").push(Arc::clone(&job));
    for _ in 0..helpers {
        POOL.wake.notify_one();
    }
    let was_worker = IN_WORKER.with(|w| w.replace(true));
    job.work();
    IN_WORKER.with(|w| w.set(was_worker));
    POOL.jobs.lock().expect("no chunk runs under the queue lock").retain(|j| !Arc::ptr_eq(j, &job));
    let panic = {
        let mut done = job.done.lock().expect("no chunk runs under the job lock");
        while done.finished < chunks {
            done = job.all_done.wait(done).expect("no chunk runs under the job lock");
        }
        done.panic.take()
    };
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

/// Items per chunk when `n` items are shared by `threads` threads.
fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * CLAIMS_PER_THREAD)
}

/// A base pointer that chunks on other threads write disjoint ranges
/// through.
struct SlotPtr<T>(*mut T);

// SAFETY: the pointer is only used to write `T` values (moved in from the
// writing thread, so `T: Send`) at indices that exactly one chunk owns.
unsafe impl<T: Send> Sync for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// Closures call this rather than read the field, so that they capture
    /// the `Sync` wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Fill a row-major `rows × cols` buffer in parallel: `fill(i, row)` is
/// called exactly once per row index `i`, in unspecified thread order, with
/// rows handed out as contiguous chunks.
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
    // below ~4k rows a thread's share is too small to pay for waking it
    let threads = thread_count(rows, 4096);
    if threads <= 1 {
        for (i, row) in data.chunks_mut(cols).enumerate() {
            fill(i, row);
        }
        return;
    }
    let len = chunk_len(rows, threads);
    let base = SlotPtr(data.as_mut_ptr());
    run(rows.div_ceil(len), threads - 1, &|c| {
        let start = c * len;
        let end = (start + len).min(rows);
        // SAFETY: rows `start..end` lie inside `data` (`end <= rows`), chunk
        // `c` is claimed by exactly one thread, and `data` stays mutably
        // borrowed by this call until `run` returns.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(start * cols), (end - start) * cols)
        };
        for (i, row) in chunk.chunks_mut(cols).enumerate() {
            fill(start + i, row);
        }
    });
}

/// Map `f` over `0..n` in parallel, collecting the results in index order.
/// `min_chunk` is the smallest number of items per thread worth waking a
/// worker for.
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
    let len = chunk_len(n, threads);
    let mut out: Vec<T> = Vec::with_capacity(n);
    let slots = SlotPtr(out.as_mut_ptr());
    run(n.div_ceil(len), threads - 1, &|c| {
        for i in c * len..((c + 1) * len).min(n) {
            let value = f(i);
            // SAFETY: `i < n`, the capacity of `out`, and index `i` belongs
            // to chunk `c` alone, which exactly one thread runs.
            unsafe { slots.get().add(i).write(value) };
        }
    });
    // SAFETY: `run` returned without a panic, so every chunk ran to the end
    // and slots `0..n` are each initialised exactly once. (On a panic `out`
    // keeps length 0 and the values already written leak, unread.)
    unsafe { out.set_len(n) };
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

    /// splitmix64: the test's source of random sizes.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1330_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn concurrent_callers_each_get_the_sequential_map() {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let start = &start;
                scope.spawn(move || {
                    let mut state = t;
                    start.wait();
                    for _ in 0..50 {
                        let n = (mix(&mut state) % 5000) as usize;
                        let min_chunk = (mix(&mut state) % 600) as usize;
                        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t;
                        let sequential: Vec<u64> = (0..n).map(f).collect();
                        assert_eq!(
                            map_indexed(n, min_chunk, f),
                            sequential,
                            "n {n}, min_chunk {min_chunk}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn pool_worker_panic_reaches_the_caller_and_the_pool_survives() {
        if hardware_threads() < 2 {
            return;
        }
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            map_indexed(64, 1, |i| {
                if std::thread::current().id() == caller {
                    // hold the caller in its first chunk until a pool
                    // worker has claimed one of the chunks left
                    if i == 0 {
                        rx.lock().unwrap().recv().expect("a worker joins the job");
                    }
                    return i;
                }
                let _ = tx.lock().unwrap().send(());
                panic!("chunk {i} failed on a pool worker");
            })
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message.ends_with("failed on a pool worker"), "{message}");
        assert_eq!(map_indexed(1000, 1, |i| i * 2), (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_calls_reuse_the_same_threads() {
        let seen = Mutex::new(std::collections::HashSet::new());
        for _ in 0..64 {
            for id in map_indexed(256, 1, |_| std::thread::current().id()) {
                seen.lock().unwrap().insert(id);
            }
        }
        let distinct = seen.into_inner().unwrap().len();
        assert!(distinct <= hardware_threads(), "{distinct} threads for 64 calls");
    }
}
