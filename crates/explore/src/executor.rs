//! A dependency-free work-stealing executor for sweep jobs — the engine
//! behind [`crate::ExecBackend::LocalThreads`] (and, transitively, behind
//! every shard process of [`crate::ExecBackend::Subprocess`], each of which
//! runs its slice of the job list on this pool).
//!
//! Jobs are indices `0..n`. Each worker owns a deque seeded with a
//! contiguous block of the job list ([`run_parallel`]) or dealt a
//! round-robin share of a heaviest-first list ([`run_parallel_dealt`]); it
//! pops from the front of its own deque and, when empty, steals from the
//! back of the other workers' deques. All deques sit behind plain mutexes —
//! jobs here are whole pipeline simulations (milliseconds to seconds each),
//! so queue contention is negligible and `std` primitives are plenty.
//!
//! **Determinism:** workers return results tagged with their job index over
//! a channel and the caller reassembles them into job order, so the output
//! is identical for every worker count and every interleaving. Per-worker
//! scratch state (sharded statistics) is returned in worker order for the
//! same reason; callers must only fold shards with commutative,
//! overflow-free integer accumulation if they want bit-identical merges.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// What one worker did, plus whatever scratch state the job closure
/// accumulated into its shard.
#[derive(Debug)]
pub struct WorkerReport<S> {
    /// Worker index (0-based).
    pub worker: usize,
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Jobs this worker stole from another worker's deque.
    pub steals: u64,
    /// The worker's sharded scratch state.
    pub shard: S,
}

/// Runs `n_jobs` jobs on `workers` threads and returns the results in job
/// order together with the per-worker reports in worker order.
///
/// `run` is called as `run(job_index, &mut shard)`; the shard starts as
/// `S::default()` per worker.
///
/// # Panics
///
/// Panics if `workers == 0` or if a worker thread panics.
pub fn run_parallel<T, S, F>(
    n_jobs: usize,
    workers: usize,
    run: F,
) -> (Vec<T>, Vec<WorkerReport<S>>)
where
    T: Send,
    S: Send + Default,
    F: Fn(usize, &mut S) -> T + Sync,
{
    // Seed each deque with a contiguous block of jobs.
    run_seeded(n_jobs, workers, run, |w, workers| {
        (n_jobs * w / workers..n_jobs * (w + 1) / workers).collect()
    })
}

/// [`run_parallel`] for jobs indexed heaviest first: the jobs are dealt
/// round-robin (worker `w` is seeded with jobs `w`, `w + workers`, …), so
/// every worker starts on one of the heaviest jobs, and an idle worker
/// steals the lightest job left.
///
/// # Panics
///
/// Panics if `workers == 0` or if a worker thread panics.
pub fn run_parallel_dealt<T, S, F>(
    n_jobs: usize,
    workers: usize,
    run: F,
) -> (Vec<T>, Vec<WorkerReport<S>>)
where
    T: Send,
    S: Send + Default,
    F: Fn(usize, &mut S) -> T + Sync,
{
    run_seeded(n_jobs, workers, run, |w, workers| {
        (w..n_jobs).step_by(workers).collect()
    })
}

/// The pool behind both entry points; `seed(worker, workers)` fills one
/// worker's deque.
fn run_seeded<T, S, F>(
    n_jobs: usize,
    workers: usize,
    run: F,
    seed: impl Fn(usize, usize) -> VecDeque<usize>,
) -> (Vec<T>, Vec<WorkerReport<S>>)
where
    T: Send,
    S: Send + Default,
    F: Fn(usize, &mut S) -> T + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let workers = workers.min(n_jobs.max(1));
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|w| Mutex::new(seed(w, workers))).collect();

    let (result_tx, result_rx) = mpsc::channel::<(usize, T)>();
    let (report_tx, report_rx) = mpsc::channel::<WorkerReport<S>>();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let queues = &queues;
            let run = &run;
            let result_tx = result_tx.clone();
            let report_tx = report_tx.clone();
            scope.spawn(move || {
                // Per-worker wall time, from first to last job: the spread
                // across workers is the pool's load-balance signal.
                let _wall = sigcomp_obs::span!("explore.worker.wall", worker);
                let mut report = WorkerReport {
                    worker,
                    jobs: 0,
                    steals: 0,
                    shard: S::default(),
                };
                while let Some((job, stolen)) = next_job(queues, worker) {
                    let result = run(job, &mut report.shard);
                    report.jobs += 1;
                    report.steals += u64::from(stolen);
                    // The receiver lives until the scope ends; a send only
                    // fails if the collector panicked, which propagates anyway.
                    let _ = result_tx.send((job, result));
                }
                let _ = report_tx.send(report);
            });
        }
        drop(result_tx);
        drop(report_tx);

        let mut slots: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
        for (job, result) in result_rx {
            debug_assert!(slots[job].is_none(), "job {job} ran twice");
            slots[job] = Some(result);
        }
        let results: Vec<T> = slots
            .into_iter()
            .enumerate()
            .map(|(job, slot)| slot.unwrap_or_else(|| panic!("job {job} never ran")))
            .collect();

        let mut reports: Vec<WorkerReport<S>> = report_rx.into_iter().collect();
        reports.sort_by_key(|r| r.worker);
        (results, reports)
    })
}

/// Pops the next job: own deque first (front), then steal from the busiest
/// sibling (back). Returns `(job, was_stolen)`.
fn next_job(queues: &[Mutex<VecDeque<usize>>], worker: usize) -> Option<(usize, bool)> {
    if let Some(job) = queues[worker].lock().expect("queue poisoned").pop_front() {
        return Some((job, false));
    }
    // Steal from whichever sibling currently has the most work queued, so
    // block-seeded imbalance evens out instead of cascading.
    loop {
        let victim = (0..queues.len())
            .filter(|&q| q != worker)
            .max_by_key(|&q| queues[q].lock().expect("queue poisoned").len())?;
        let stolen = queues[victim].lock().expect("queue poisoned").pop_back();
        match stolen {
            Some(job) => return Some((job, true)),
            // Raced with the victim draining its own queue; rescan, and stop
            // once every queue is empty.
            None if queues
                .iter()
                .all(|q| q.lock().expect("queue poisoned").is_empty()) =>
            {
                return None
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 7] {
            let (results, reports) = run_parallel::<usize, u64, _>(100, workers, |job, shard| {
                *shard += job as u64;
                job * 3
            });
            assert_eq!(results, (0..100).map(|j| j * 3).collect::<Vec<_>>());
            assert_eq!(reports.iter().map(|r| r.jobs).sum::<u64>(), 100);
            // Every job contributed to exactly one shard.
            assert_eq!(
                reports.iter().map(|r| r.shard).sum::<u64>(),
                (0..100u64).sum::<u64>()
            );
        }
    }

    #[test]
    fn uneven_jobs_get_stolen() {
        // Front-loaded work: worker 0's block is far slower, so the others
        // must steal from it to finish.
        let executed = AtomicU64::new(0);
        let (results, reports) = run_parallel::<usize, (), _>(64, 4, |job, ()| {
            if job < 16 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            executed.fetch_add(1, Ordering::Relaxed);
            job
        });
        assert_eq!(executed.load(Ordering::Relaxed), 64);
        assert_eq!(results.len(), 64);
        assert!(
            reports.iter().map(|r| r.steals).sum::<u64>() > 0,
            "expected at least one steal"
        );
    }

    #[test]
    fn dealt_jobs_come_back_in_job_order() {
        for workers in [1, 2, 3] {
            let (results, reports) =
                run_parallel_dealt::<usize, (), _>(10, workers, |job, ()| job * 3);
            assert_eq!(results, (0..10).map(|j| j * 3).collect::<Vec<_>>());
            assert_eq!(reports.iter().map(|r| r.jobs).sum::<u64>(), 10);
        }
        // One worker runs the dealt jobs in index order: heaviest first.
        let (_, reports) = run_parallel_dealt::<(), Vec<usize>, _>(5, 1, |job, seen| {
            seen.push(job);
        });
        assert_eq!(reports[0].shard, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let (results, reports) = run_parallel::<usize, (), _>(3, 16, |job, ()| job);
        assert_eq!(results, vec![0, 1, 2]);
        assert!(reports.len() <= 3);
    }

    #[test]
    fn zero_jobs_returns_empty() {
        let (results, _) = run_parallel::<usize, (), _>(0, 4, |job, ()| job);
        assert!(results.is_empty());
    }
}
