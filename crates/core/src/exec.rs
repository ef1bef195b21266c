//! Bounded work-claiming pool for independent cells.
//!
//! Experiment grids and fleet waves are embarrassingly parallel: every
//! cell (a grid campaign, a leased fleet slice) is independent and
//! deterministic. [`run_cells`] runs such cells on a small pool of worker
//! threads, claiming cells from a shared atomic cursor (cheap work
//! stealing: a worker that draws a short cell immediately claims the next
//! one), and returns the results **in cell order** — so anything assembled
//! from the output is byte-identical no matter how many workers ran or
//! how they interleaved.
//!
//! With `jobs <= 1` the pool is bypassed entirely and cells run inline on
//! the caller's thread, in order — that path is the sequential reference
//! the determinism tests compare against.
//!
//! A campaign's own instances do not run here: the barrier-parked worker
//! pool in [`crate::campaign`] keeps its threads alive across rounds,
//! which a per-round scoped spawn cannot match (DESIGN.md §8.2).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

fn lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs every cell closure and returns the results in cell order.
///
/// With `jobs >= 2` the cells execute on `min(jobs, cells.len())` worker
/// threads; with `jobs <= 1` they run inline sequentially. Either way the
/// output vector's index `i` holds cell `i`'s result, so downstream
/// aggregation is order-independent of the actual schedule.
///
/// # Panics
///
/// Propagates a panic from any cell (the pool finishes or abandons the
/// remaining cells, then the scope join re-raises).
#[must_use]
pub fn run_cells<T, F>(jobs: usize, cells: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if jobs <= 1 || cells.len() <= 1 {
        return cells.into_iter().map(|cell| cell()).collect();
    }

    let workers = jobs.min(cells.len());
    let work: Vec<Mutex<Option<F>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let slots: Vec<Mutex<Option<T>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = work.get(index) else {
                    return;
                };
                let cell = lock(slot).take().expect("each cell is claimed once");
                *lock(&slots[index]) = Some(cell());
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed cell stored its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_cell_order() {
        for jobs in [1, 2, 7] {
            let cells: Vec<_> = (0..20)
                .map(|n: u64| {
                    move || {
                        // Stagger cell durations so parallel completion
                        // order differs from claim order.
                        std::thread::sleep(Duration::from_micros(200 * (20 - n)));
                        n * n
                    }
                })
                .collect();
            let results = run_cells(jobs, cells);
            assert_eq!(
                results,
                (0..20).map(|n| n * n).collect::<Vec<u64>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn pool_spawns_at_most_jobs_workers() {
        use std::collections::HashSet;
        let cells: Vec<_> = (0..32)
            .map(|_| {
                || {
                    std::thread::sleep(Duration::from_millis(1));
                    std::thread::current().id()
                }
            })
            .collect();
        let threads: HashSet<_> = run_cells(3, cells).into_iter().collect();
        assert!(threads.len() <= 3, "{} worker threads", threads.len());
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
        let timed = run_cells(2, cells);
        assert_eq!(
            timed.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn empty_and_single_grids_are_fine() {
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(run_cells(8, none).is_empty());
        assert_eq!(run_cells(8, vec![|| 7u8]), vec![7]);
    }

    // The cell's own message goes to stderr; the caller sees the scope
    // join's re-raise.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_cell_propagates_out_of_the_pool() {
        let cells: Vec<_> = (0..8u32)
            .map(|n| {
                move || {
                    assert!(n != 5, "cell {n} failed");
                    n
                }
            })
            .collect();
        let _ = run_cells(2, cells);
    }
}
