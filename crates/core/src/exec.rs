//! Persistent worker pool for independent cells.
//!
//! Experiment grids, fleet waves and a campaign's rounds are batches of
//! independent, deterministic cells (a grid campaign, a leased fleet
//! slice, one instance's round). A [`Pool`] keeps its worker threads
//! parked between batches, so a caller that runs many small batches — a
//! fleet wave is two 100-tick slices — spawns threads once, not per batch.
//!
//! Cell `i` runs on thread `i % jobs`, where thread 0 is the caller: the
//! calling thread runs the first cell itself. The assignment is fixed, so
//! a campaign instance runs on the same thread round after round, which
//! DESIGN.md §8.2 measures to matter for throughput. Results come back
//! **in cell order**, so anything assembled from them is byte-identical
//! however the threads interleaved. With one job, or one cell, the cells
//! run inline on the caller's thread, in order — the sequential reference
//! the determinism tests compare against.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send>;

/// Locks a result slot; a cell's panic is caught before its slot is
/// locked, so the lock itself is never poisoned by one.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed set of parked worker threads that runs batches of cells.
///
/// A pool of `jobs` spawns `jobs - 1` workers; the thread that calls
/// [`Pool::run_cells`] is the last one. Dropping the pool joins its
/// workers.
#[derive(Debug)]
pub struct Pool {
    /// One queue per worker; a worker exits when its sender is dropped.
    queues: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool that runs up to `jobs` cells at once. `jobs <= 1`
    /// spawns nothing: every batch then runs inline.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        let (queues, workers) = (1..jobs)
            .map(|_| {
                let (queue, inbox) = mpsc::channel::<Job>();
                // Jobs catch their cell's panic, so a worker never unwinds.
                (
                    queue,
                    thread::spawn(move || inbox.into_iter().for_each(|job| job())),
                )
            })
            .unzip();
        Pool { queues, workers }
    }

    /// Cells this pool runs at once: its workers plus the caller.
    fn jobs(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs every cell and returns the results in cell order.
    ///
    /// With at least one worker, cell `i` runs on thread `i % jobs`, the
    /// caller being thread 0, so a single cell runs on the caller too.
    /// With none, the cells run inline, in order, straight from the
    /// iterator: mapping an owned `Vec` into cells that give its elements
    /// back then reuses the `Vec`'s allocation for the results. Either
    /// way index `i` of the output holds cell `i`'s result, so downstream
    /// aggregation is independent of the actual schedule.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of the first panicking cell (in cell order),
    /// once every cell of the batch has finished. The pool stays usable.
    #[must_use]
    pub fn run_cells<T, F, I>(&self, cells: I) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let cells = cells.into_iter();
        if self.workers.is_empty() {
            return cells.map(|cell| cell()).collect();
        }

        let cells: Vec<F> = cells.collect();
        let jobs = self.jobs();
        let slots: Arc<Vec<Mutex<Option<thread::Result<T>>>>> =
            Arc::new(cells.iter().map(|_| Mutex::new(None)).collect());
        // Nothing is ever sent: every job holds a sender until it has
        // stored its result, so `recv` returns once all of them have.
        let (done, finished) = mpsc::channel::<()>();
        let mut own = Vec::new();
        for (index, cell) in cells.into_iter().enumerate() {
            let thread = index % jobs;
            if thread == 0 {
                own.push((index, cell));
                continue;
            }
            let (slots, done) = (Arc::clone(&slots), done.clone());
            let job: Job = Box::new(move || {
                *lock(&slots[index]) = Some(panic::catch_unwind(AssertUnwindSafe(cell)));
                drop(done);
            });
            self.queues[thread - 1]
                .send(job)
                .expect("a worker lives as long as its queue");
        }
        drop(done);
        for (index, cell) in own {
            *lock(&slots[index]) = Some(panic::catch_unwind(AssertUnwindSafe(cell)));
        }
        let _ = finished.recv();

        // Every cell has finished, so stopping at the first panic (in cell
        // order) abandons no work.
        let outcomes: thread::Result<Vec<T>> = slots
            .iter()
            .map(|slot| lock(slot).take().expect("every cell reported"))
            .collect();
        outcomes.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queues.clear();
        for worker in self.workers.drain(..) {
            // Workers never unwind: every job catches its cell's panic.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    /// The thread that ran each cell of a batch.
    fn thread_ids(pool: &Pool, cells: usize) -> Vec<thread::ThreadId> {
        pool.run_cells((0..cells).map(|_| || thread::current().id()))
    }

    #[test]
    fn results_come_back_in_cell_order() {
        for jobs in [1, 2, 7] {
            let pool = Pool::new(jobs);
            let cells: Vec<_> = (0..20)
                .map(|n: u64| {
                    move || {
                        // Stagger cell durations so parallel completion
                        // order differs from claim order.
                        thread::sleep(Duration::from_micros(200 * (20 - n)));
                        n * n
                    }
                })
                .collect();
            let results = pool.run_cells(cells);
            assert_eq!(
                results,
                (0..20).map(|n| n * n).collect::<Vec<u64>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn pool_spawns_at_most_jobs_workers() {
        let threads: HashSet<_> = thread_ids(&Pool::new(3), 32).into_iter().collect();
        assert!(threads.len() <= 3, "{} threads", threads.len());
    }

    #[test]
    fn one_job_runs_inline_on_the_caller() {
        let threads = thread_ids(&Pool::new(1), 8);
        assert!(threads.iter().all(|&id| id == thread::current().id()));
    }

    #[test]
    fn consecutive_batches_reuse_the_same_workers() {
        let pool = Pool::new(3);
        let first = thread_ids(&pool, 24);
        assert_eq!(first[0], thread::current().id(), "the caller runs cell 0");
        assert_eq!(
            first.iter().collect::<HashSet<_>>().len(),
            pool.jobs(),
            "three threads share the batch"
        );
        assert_eq!(
            thread_ids(&pool, 24),
            first,
            "every cell index runs on the same thread again"
        );
    }

    #[test]
    fn cells_that_time_themselves_report_in_order() {
        let cells: Vec<_> = (0..4)
            .map(|n: u32| {
                move || {
                    let started = std::time::Instant::now();
                    (n + 1, started.elapsed())
                }
            })
            .collect();
        let timed = Pool::new(2).run_cells(cells);
        assert_eq!(
            timed.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn empty_and_single_grids_are_fine() {
        let pool = Pool::new(8);
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(pool.run_cells(none).is_empty());
        assert_eq!(pool.run_cells(vec![|| 7u8]), vec![7]);
    }

    fn failing_batch() -> Vec<impl FnOnce() -> u32 + Send + 'static> {
        (0..8u32)
            .map(|n| {
                move || {
                    assert!(n != 5, "cell {n} failed");
                    n
                }
            })
            .collect()
    }

    // The caller sees the cell's own payload, not a generic join error.
    #[test]
    #[should_panic(expected = "cell 5 failed")]
    fn a_panicking_cell_propagates_out_of_the_pool() {
        let _ = Pool::new(2).run_cells(failing_batch());
    }

    #[test]
    fn a_pool_runs_a_clean_batch_after_a_panicking_one() {
        let pool = Pool::new(2);
        let failed = panic::catch_unwind(AssertUnwindSafe(|| pool.run_cells(failing_batch())));
        assert!(failed.is_err());
        let cells: Vec<_> = (0..8u32).map(|n| move || n * 2).collect();
        assert_eq!(
            pool.run_cells(cells),
            (0..8).map(|n| n * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        thread_local! {
            static HELD: std::cell::RefCell<Option<Arc<()>>> = const { std::cell::RefCell::new(None) };
        }
        // Each thread that runs a cell parks a token in its thread-local
        // slot; a worker releases it only when it exits.
        let token = Arc::new(());
        let pool = Pool::new(3);
        let cells: Vec<_> = (0..12)
            .map(|_| {
                let token = Arc::clone(&token);
                move || {
                    HELD.with(|held| *held.borrow_mut() = Some(token));
                    thread::sleep(Duration::from_millis(1));
                }
            })
            .collect();
        let _: Vec<()> = pool.run_cells(cells);
        HELD.with(|held| held.borrow_mut().take());
        drop(pool);
        assert_eq!(Arc::strong_count(&token), 1, "every worker exited");
    }
}
