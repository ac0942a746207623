//! A bounded work-stealing pool for the executor fan-out.
//!
//! The executor used to spawn one OS thread per job, which oversubscribes
//! badly on large sweeps (a 10k-member `SweepAxis::Seeds` campaign would
//! ask for 10k threads). This pool caps concurrency at a fixed worker
//! count and balances load dynamically:
//!
//! * **Injector** — the initial job list drains FIFO from a shared
//!   queue, so jobs listed first start first (the executor lists its
//!   unsplittable live loops first).
//! * **Local deques** — a job may [`Spawner::spawn`] continuations;
//!   they land on the spawning worker's own deque and pop LIFO (the
//!   data the continuation needs is still cache-warm there).
//! * **Stealing** — an idle worker takes the oldest job from another
//!   worker's deque, so continuation bursts spread across the pool
//!   instead of serializing on the worker that produced them.
//!
//! Scheduling order is *not* part of any result contract — every job
//! writes to its own pre-assigned slot, and the executor's worker-count
//! differential test pins results bit-identical at 1, 2 and N workers.
//!
//! Built on `std` only (scoped threads, `Mutex`, `Condvar`): the
//! sleep/wake protocol keeps a single pending-jobs counter under the
//! condvar's mutex, and pushes take that mutex before making a job
//! visible, so a worker that scanned every queue empty under the lock
//! cannot miss the wakeup for a job pushed an instant later.

use razorbus_core::parse_count_knob;
use std::collections::VecDeque;
use std::ffi::OsString;
use std::sync::{Condvar, Mutex};

/// The environment variable behind [`worker_count`].
const THREADS_VAR: &str = "RAZORBUS_THREADS";

/// Resolves the pool's worker count: an explicit request (the
/// `--threads=N` flag) wins over the `RAZORBUS_THREADS` environment
/// variable, which wins over the machine's available parallelism. The
/// result is always at least 1.
///
/// # Errors
///
/// Names the variable and its value when `RAZORBUS_THREADS` is
/// consulted and is not a positive integer (`0` included).
pub fn worker_count(explicit: Option<usize>) -> Result<usize, String> {
    resolve(explicit, std::env::var_os(THREADS_VAR), || {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// [`worker_count`] with the environment and hardware queries factored
/// out, so the precedence chain is testable without mutating process
/// globals.
fn resolve(
    explicit: Option<usize>,
    env: Option<OsString>,
    hardware: impl FnOnce() -> usize,
) -> Result<usize, String> {
    if let Some(n) = explicit {
        return Ok(n.max(1));
    }
    match parse_count_knob(THREADS_VAR, env)? {
        Some(n) => Ok(n),
        None => Ok(hardware().max(1)),
    }
}

/// Handle the pool hands each job for scheduling continuations.
pub(crate) struct Spawner<'a, J> {
    shared: &'a Shared<J>,
    worker: usize,
}

impl<J> Spawner<'_, J> {
    /// Schedules a continuation of the current job: pushed onto this
    /// worker's local deque (popped LIFO here, stolen FIFO by idle
    /// workers).
    pub(crate) fn spawn(&self, job: J) {
        self.shared.push(Some(self.worker), job);
    }
}

/// Runs `initial` (and everything it transitively spawns) to completion
/// on `workers` worker threads, then returns. `handler` executes one
/// job; it runs concurrently on every worker, so shared state goes
/// behind the usual sync primitives.
pub(crate) fn run<J, F>(workers: usize, initial: Vec<J>, handler: F)
where
    J: Send,
    F: Fn(J, &Spawner<'_, J>) + Sync,
{
    let workers = workers.max(1);
    let pending = initial.len();
    let shared = Shared {
        injector: Mutex::new(initial.into()),
        locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: Mutex::new(pending),
        idle: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let shared = &shared;
            let handler = &handler;
            scope.spawn(move || {
                let spawner = Spawner { shared, worker };
                while let Some(job) = shared.next(worker) {
                    // Guard, not a tail call: a panicking handler must
                    // still retire its job, or the other workers sleep
                    // forever and the panic never propagates out of the
                    // scope join.
                    let _retire = Retire(shared);
                    handler(job, &spawner);
                }
            });
        }
    });
}

struct Shared<J> {
    injector: Mutex<VecDeque<J>>,
    locals: Vec<Mutex<VecDeque<J>>>,
    /// Jobs not yet retired: queued anywhere + currently executing.
    /// Zero means the pool is drained — no queued job is left and no
    /// running handler can spawn one.
    pending: Mutex<usize>,
    idle: Condvar,
}

/// Decrements `pending` when a job's handler returns *or unwinds*.
struct Retire<'a, J>(&'a Shared<J>);

impl<J> Drop for Retire<'_, J> {
    fn drop(&mut self) {
        let mut pending = self.0.pending.lock().expect("pool mutex");
        *pending -= 1;
        if *pending == 0 {
            self.0.idle.notify_all();
        }
    }
}

impl<J> Shared<J> {
    /// Makes `job` visible: counted first (under the condvar mutex, so
    /// sleepers cannot observe the queue push without the count), then
    /// queued, then one sleeper is woken.
    fn push(&self, worker: Option<usize>, job: J) {
        let mut pending = self.pending.lock().expect("pool mutex");
        *pending += 1;
        match worker {
            Some(w) => self.locals[w].lock().expect("pool mutex").push_back(job),
            None => self.injector.lock().expect("pool mutex").push_back(job),
        }
        self.idle.notify_one();
        drop(pending);
    }

    /// The next job for `worker`, or `None` when the pool is drained.
    /// Fast path pops lock-free of the pending mutex; the slow path
    /// re-scans under it and sleeps on the condvar.
    fn next(&self, worker: usize) -> Option<J> {
        if let Some(job) = self.try_pop(worker) {
            return Some(job);
        }
        let mut pending = self.pending.lock().expect("pool mutex");
        loop {
            if *pending == 0 {
                return None;
            }
            if let Some(job) = self.try_pop(worker) {
                return Some(job);
            }
            pending = self.idle.wait(pending).expect("pool mutex");
        }
    }

    /// Own deque newest-first, then the injector oldest-first, then a
    /// steal of the oldest job on any other worker's deque.
    fn try_pop(&self, worker: usize) -> Option<J> {
        if let Some(job) = self.locals[worker].lock().expect("pool mutex").pop_back() {
            return Some(job);
        }
        if let Some(job) = self.injector.lock().expect("pool mutex").pop_front() {
            return Some(job);
        }
        for (i, local) in self.locals.iter().enumerate() {
            if i == worker {
                continue;
            }
            if let Some(job) = local.lock().expect("pool mutex").pop_front() {
                return Some(job);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn worker_count_precedence_is_flag_env_hardware() {
        let env = |s: &str| Some(OsString::from(s));
        // Explicit beats everything, including a set env var.
        assert_eq!(resolve(Some(3), env("8"), || 16), Ok(3));
        assert_eq!(resolve(Some(0), None, || 16), Ok(1), "explicit 0 clamps");
        // Env beats hardware when it is a positive integer.
        assert_eq!(resolve(None, env("8"), || 16), Ok(8));
        assert_eq!(resolve(None, None, || 16), Ok(16));
        assert_eq!(resolve(None, None, || 0), Ok(1), "hardware floor");
        // Garbage or zero env is an error naming the variable and value.
        for bad in ["0", "lots", " 2 "] {
            let err = resolve(None, env(bad), || 16).unwrap_err();
            assert!(
                err.contains("RAZORBUS_THREADS") && err.contains(&format!("\"{bad}\"")),
                "{err}"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once_at_any_worker_count() {
        for workers in [1, 2, 5, 16] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            run(workers, (0..hits.len()).collect(), |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn spawned_continuations_run_to_completion() {
        // Each root job fans out a two-level continuation tree; the pool
        // must drain all of it before returning, on one worker or many.
        for workers in [1, 4] {
            let count = AtomicUsize::new(0);
            run(workers, vec![3usize, 3, 3], |depth, spawner| {
                count.fetch_add(1, Ordering::Relaxed);
                if depth > 0 {
                    spawner.spawn(depth - 1);
                    spawner.spawn(depth - 1);
                }
            });
            // 3 roots, each a full binary tree of depth 3: 3 * (2^4 - 1).
            assert_eq!(count.load(Ordering::Relaxed), 45, "workers={workers}");
        }
    }

    #[test]
    fn idle_workers_steal_local_continuations() {
        // One root job spawns two rendezvous jobs onto its own deque;
        // each blocks until the other starts. Only a steal can run them
        // concurrently, so completion *proves* stealing works (the
        // timeout turns a broken pool into a failure, not a hang).
        let started = Mutex::new(0usize);
        let both = Condvar::new();
        run(2, vec![true], |root, spawner| {
            if root {
                spawner.spawn(false);
                spawner.spawn(false);
                return;
            }
            let mut n = started.lock().unwrap();
            *n += 1;
            both.notify_all();
            while *n < 2 {
                let (guard, timeout) = both
                    .wait_timeout(n, Duration::from_secs(10))
                    .expect("rendezvous mutex");
                n = guard;
                assert!(!timeout.timed_out(), "no second worker stole the job");
            }
        });
        assert_eq!(*started.lock().unwrap(), 2);
    }

    #[test]
    fn injector_drains_in_push_order() {
        // On one worker the injector must drain in push order — the
        // executor relies on this to start its live loops first.
        let order = Mutex::new(Vec::new());
        run(1, vec![0usize, 1, 2, 3], |i, _| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }
}
