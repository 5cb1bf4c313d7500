//! A growing thread pool.
//!
//! The paper's evaluation notes (§6.3): *"A thread pool schedules
//! asynchronous tasks by spawning a new thread for a new task when all
//! existing threads are in use.  This execution strategy is necessary in
//! general for promises because there is no a priori bound on the number of
//! tasks that can block simultaneously."*
//!
//! [`GrowingPool`] implements exactly that strategy: submitted jobs are
//! queued; if no worker is idle at submission time a new worker thread is
//! started.  Idle workers park on a condition variable and retire after a
//! configurable keep-alive period, so the pool shrinks again after bursts of
//! blocking tasks.
//!
//! It stays next to the work-stealing [`scheduler`](crate::scheduler)
//! because neither dominates: this pool is the faster one on the pinned
//! `sieve` and `heat` workloads, work-stealing on `churn` (numbers at
//! [`SchedulerKind`](crate::SchedulerKind)).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use promise_core::{Executor, Job, RejectedBatch, RejectedJob};

/// A callback every worker thread runs as it retires (still on the worker
/// thread).
///
/// The runtime uses this to sweep fully-free arena chunks when the pool
/// shrinks (`promise_core::Context::reclaim_memory`).  A retiring worker
/// holds no cache of its own to flush: the magazines of
/// `promise_core::magazine` belong to the arenas and the block pool.
pub type WorkerExitHook = Arc<dyn Fn() + Send + Sync>;

/// Configuration of a [`GrowingPool`].
#[derive(Clone)]
pub struct PoolConfig {
    /// Prefix of worker thread names (`<prefix>-<n>`).
    pub thread_name_prefix: String,
    /// How long an idle worker waits for new work before retiring.
    pub keep_alive: Duration,
    /// Stack size for worker threads (`None` = platform default).
    pub stack_size: Option<usize>,
    /// Number of workers started eagerly at pool creation.
    pub initial_workers: usize,
    /// Run by each worker thread as it retires (`None` = nothing).
    pub worker_exit_hook: Option<WorkerExitHook>,
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolConfig")
            .field("thread_name_prefix", &self.thread_name_prefix)
            .field("keep_alive", &self.keep_alive)
            .field("stack_size", &self.stack_size)
            .field("initial_workers", &self.initial_workers)
            .field(
                "worker_exit_hook",
                &self.worker_exit_hook.as_ref().map(|_| "Fn"),
            )
            .finish()
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            thread_name_prefix: "promise-worker".to_string(),
            keep_alive: Duration::from_millis(200),
            stack_size: None,
            initial_workers: 0,
            worker_exit_hook: None,
        }
    }
}

/// Counters describing the pool's activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers currently alive.
    pub current_workers: usize,
    /// Workers currently idle (parked waiting for work).
    pub idle_workers: usize,
    /// Workers currently blocked inside a promise wait (reported through the
    /// [`Executor`] blocking seam; see `Executor::on_task_blocked`).
    pub blocked_workers: usize,
    /// Highest number of simultaneously alive workers.
    pub peak_workers: usize,
    /// Total worker threads ever started.
    pub threads_started: usize,
    /// Total jobs executed to completion.
    pub jobs_executed: usize,
    /// Jobs executed after being stolen from another worker's local queue
    /// (always 0 for the single-queue [`GrowingPool`]).
    pub jobs_stolen: usize,
    /// Sibling deques inspected by searches for work — steal sweeps and the
    /// queue re-checks before a park or a block (always 0 for the
    /// single-queue [`GrowingPool`]).  A search visits only the deques the
    /// scheduler's non-empty index marks, so this grows with the work that
    /// was stealable, not with the number of workers.
    pub steal_probes: usize,
    /// Jobs run *inline* by a thread whose task was blocked in a promise
    /// `get` — steal-to-wait helping via [`Executor::try_help`].  Each helped
    /// job is also counted in `jobs_executed`; this counter isolates how much
    /// of the throughput came from helping instead of parking.
    pub jobs_helped: usize,
    /// Batched submissions accepted (`Executor::execute_batch` groups).
    pub batches_submitted: usize,
    /// Jobs submitted through batches (each also counted in the queue/exec
    /// totals like an individual submission).
    pub jobs_batch_submitted: usize,
    /// Jobs currently queued.
    pub queued_jobs: usize,
    /// Jobs whose body panicked (the panic was caught at the worker's job
    /// boundary; the worker survived).  This is the executor-level backstop
    /// count — the task layer additionally settles the panicked task's
    /// promises as `PromiseError::TaskPanicked` and keeps its own counter.
    pub panics: usize,
}

struct PoolState {
    queue: VecDeque<Job>,
    idle_workers: usize,
    current_workers: usize,
    peak_workers: usize,
    threads_started: usize,
    jobs_executed: usize,
    jobs_helped: usize,
    batches_submitted: usize,
    jobs_batch_submitted: usize,
    panics: usize,
    shutdown: bool,
    joiners: Vec<std::thread::JoinHandle<()>>,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_available: Condvar,
    config: PoolConfig,
    /// Threads currently blocked inside a promise wait (maintained through
    /// the [`Executor`] blocking hooks; includes non-worker threads such as
    /// a blocked root task, which is fine for its diagnostic purpose).
    blocked: AtomicUsize,
}

/// A thread pool that grows whenever a job arrives and no worker is idle.
pub struct GrowingPool {
    inner: Arc<PoolInner>,
}

impl GrowingPool {
    /// Creates a pool with the given configuration.
    pub fn new(config: PoolConfig) -> Arc<GrowingPool> {
        let pool = Arc::new(GrowingPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    idle_workers: 0,
                    current_workers: 0,
                    peak_workers: 0,
                    threads_started: 0,
                    jobs_executed: 0,
                    jobs_helped: 0,
                    batches_submitted: 0,
                    jobs_batch_submitted: 0,
                    panics: 0,
                    shutdown: false,
                    joiners: Vec::new(),
                }),
                work_available: Condvar::new(),
                config,
                blocked: AtomicUsize::new(0),
            }),
        });
        let eager = pool.inner.config.initial_workers;
        Self::grow(&pool.inner, pool.inner.state.lock(), eager);
        pool
    }

    /// Creates a pool with the default configuration.
    pub fn with_defaults() -> Arc<GrowingPool> {
        Self::new(PoolConfig::default())
    }

    /// Submits a job.  Returns `false` (dropping the job) if the pool has
    /// been shut down; use [`try_submit`](Self::try_submit) to get the job
    /// back instead.
    pub fn submit(&self, job: Job) -> bool {
        self.try_submit(job).is_ok()
    }

    /// Submits a job, handing it back if the pool has been shut down.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        let mut state = self.inner.state.lock();
        if state.shutdown {
            return Err(job);
        }
        state.queue.push_back(job);
        if state.idle_workers == 0 {
            // Every live worker is busy (possibly blocked on a promise):
            // grow the pool so the new task can make progress.
            Self::grow(&self.inner, state, 1);
        } else {
            self.inner.work_available.notify_one();
        }
        Ok(())
    }

    /// Submits a whole batch under one lock acquisition, handing it back if
    /// the pool has been shut down.
    ///
    /// The §6.3 submission rule is applied with exactly the semantics of N
    /// sequential [`try_submit`](Self::try_submit) calls under one lock:
    /// `idle_workers` cannot change while the submitter holds the state
    /// lock, so either no worker is idle — and, as per-job submission would
    /// have done, every job gets a fresh worker thread (each may block) —
    /// or idle workers exist and each is notified once (per-job submission
    /// never grows while a worker is idle).
    pub fn try_submit_batch(&self, jobs: Vec<Job>) -> Result<(), Vec<Job>> {
        if jobs.is_empty() {
            return Ok(());
        }
        let mut state = self.inner.state.lock();
        if state.shutdown {
            return Err(jobs);
        }
        let n = jobs.len();
        state.batches_submitted += 1;
        state.jobs_batch_submitted += n;
        state.queue.extend(jobs);
        if state.idle_workers == 0 {
            Self::grow(&self.inner, state, n);
        } else {
            for _ in 0..state.idle_workers.min(n) {
                self.inner.work_available.notify_one();
            }
        }
        Ok(())
    }

    /// Starts `n` workers and joins the retired ones: `joiners` holds one
    /// handle per live worker plus those of workers that retired since the
    /// pool last grew, so the handles held follow `peak_workers`, not
    /// `threads_started`, and a retired thread's stack is unmapped when the
    /// pool next grows instead of at shutdown.  The finished handles are
    /// taken under the state lock and joined after it is released (this
    /// function consumes the guard).
    fn grow(inner: &Arc<PoolInner>, mut state: MutexGuard<'_, PoolState>, n: usize) {
        // More handles than live workers: some retired since the last growth.
        let finished: Vec<_> = if state.joiners.len() > state.current_workers {
            state
                .joiners
                .extract_if(.., |handle| handle.is_finished())
                .collect()
        } else {
            Vec::new()
        };
        for _ in 0..n {
            state.current_workers += 1;
            state.threads_started += 1;
            state.peak_workers = state.peak_workers.max(state.current_workers);
            let inner2 = Arc::clone(inner);
            let mut builder = std::thread::Builder::new().name(format!(
                "{}-{}",
                inner.config.thread_name_prefix, state.threads_started
            ));
            if let Some(sz) = inner.config.stack_size {
                builder = builder.stack_size(sz);
            }
            let handle = builder
                .spawn(move || Self::worker_loop(inner2))
                .expect("failed to spawn pool worker thread");
            state.joiners.push(handle);
        }
        drop(state);
        for handle in finished {
            // A worker never panics (jobs are unwound-caught), but be robust.
            let _ = handle.join();
        }
    }

    fn worker_loop(inner: Arc<PoolInner>) {
        // Claim a counter shard so this worker's promise-event counters land
        // in a private cache-padded cell (see `promise_core::counters`).
        let _counter_slot = promise_core::counters::register_worker();
        let keep_alive = inner.config.keep_alive;
        let mut state = inner.state.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                drop(state);
                // A panicking job must not take the worker down: panics are
                // caught and surfaced through the task's promises by the
                // spawn wrapper; at this level we only keep the pool alive.
                let panicked = catch_unwind(AssertUnwindSafe(|| job.run())).is_err();
                state = inner.state.lock();
                state.jobs_executed += 1;
                if panicked {
                    state.panics += 1;
                }
                continue;
            }
            if state.shutdown {
                break;
            }
            state.idle_workers += 1;
            let timed_out = inner
                .work_available
                .wait_for(&mut state, keep_alive)
                .timed_out();
            state.idle_workers -= 1;
            if timed_out && state.queue.is_empty() {
                if state.shutdown {
                    break;
                }
                // Retire this worker; the pool will grow again on demand.
                break;
            }
        }
        state.current_workers -= 1;
        drop(state);
        // Retirement hook, outside the pool lock (it sweeps arena chunks).
        if let Some(hook) = &inner.config.worker_exit_hook {
            hook();
        }
    }

    /// Current activity counters.
    pub fn stats(&self) -> PoolStats {
        let state = self.inner.state.lock();
        PoolStats {
            current_workers: state.current_workers,
            idle_workers: state.idle_workers,
            blocked_workers: self.inner.blocked.load(Ordering::Relaxed),
            peak_workers: state.peak_workers,
            threads_started: state.threads_started,
            jobs_executed: state.jobs_executed,
            jobs_stolen: 0,
            steal_probes: 0,
            jobs_helped: state.jobs_helped,
            batches_submitted: state.batches_submitted,
            jobs_batch_submitted: state.jobs_batch_submitted,
            queued_jobs: state.queue.len(),
            panics: state.panics,
        }
    }

    /// Stops admission and wakes idle workers without waiting for them (the
    /// first phase of both [`shutdown`](Self::shutdown) and a
    /// deadline-bounded drain).
    pub fn begin_shutdown(&self) {
        let mut state = self.inner.state.lock();
        state.shutdown = true;
        self.inner.work_available.notify_all();
    }

    /// Waits until every worker has exited or `deadline` passes, joining
    /// finished workers as it goes; returns `true` when all are gone.  Call
    /// [`begin_shutdown`](Self::begin_shutdown) first.  On `false`, the
    /// unfinished handles stay registered for a later
    /// [`shutdown`](Self::shutdown) or
    /// [`detach_workers`](Self::detach_workers).
    pub fn try_join_workers(&self, deadline: std::time::Instant) -> bool {
        let self_id = std::thread::current().id();
        let mut pending: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            pending.extend(std::mem::take(&mut self.inner.state.lock().joiners));
            let mut still_running = Vec::new();
            for j in pending.drain(..) {
                if j.thread().id() == self_id {
                    continue;
                }
                if j.is_finished() {
                    let _ = j.join();
                } else {
                    still_running.push(j);
                }
            }
            pending = still_running;
            if pending.is_empty() {
                if self.inner.state.lock().joiners.is_empty() {
                    return true;
                }
                continue;
            }
            if std::time::Instant::now() >= deadline {
                self.inner.state.lock().joiners.extend(pending);
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Join handles currently held: one per live worker plus one per worker
    /// that retired since the pool last grew (test hook).
    #[doc(hidden)]
    pub fn join_handles_held(&self) -> usize {
        self.inner.state.lock().joiners.len()
    }

    /// Abandons the remaining worker join handles without waiting for the
    /// threads (see the work-stealing scheduler's method of the same name):
    /// detached threads keep the pool state alive via their own `Arc` and
    /// exit whenever their job returns.
    pub fn detach_workers(&self) {
        drop(std::mem::take(&mut self.inner.state.lock().joiners));
    }

    /// Drops every job still queued, returning how many were dropped.
    /// Dropping a spawned task's job runs the `PreparedTask` exit machinery,
    /// completing its promises exceptionally.  Only meaningful after
    /// [`begin_shutdown`](Self::begin_shutdown).
    pub fn drain_queued(&self) -> usize {
        let drained: Vec<Job> = {
            let mut state = self.inner.state.lock();
            state.queue.drain(..).collect()
        };
        // Dropped outside the pool lock: a job's drop settles promises and
        // may wake waiters, which must never run under the pool mutex.
        let n = drained.len();
        drop(drained);
        n
    }

    /// Stops accepting new jobs, wakes idle workers, and waits for all
    /// workers (and all queued jobs) to finish.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let joiners = std::mem::take(&mut self.inner.state.lock().joiners);
        // If the final pool handle is dropped on a worker thread (a job held
        // the last `Arc`), that thread must not join itself.
        let self_id = std::thread::current().id();
        for j in joiners {
            // A worker never panics (jobs are unwound-caught), but be robust.
            if j.thread().id() != self_id {
                let _ = j.join();
            }
        }
    }
}

impl Executor for GrowingPool {
    fn execute(&self, job: Job) -> Result<(), RejectedJob> {
        // No silent drop: a submission after shutdown hands the job back so
        // the spawn layer can settle the task's promises exceptionally.
        self.try_submit(job).map_err(RejectedJob)
    }

    fn execute_batch(&self, jobs: Vec<Job>) -> Result<(), RejectedBatch> {
        self.try_submit_batch(jobs).map_err(RejectedBatch)
    }

    fn on_task_blocked(&self) {
        self.inner.blocked.fetch_add(1, Ordering::SeqCst);
        // Grow-on-block: this thread stops draining the queue while work is
        // pending.  Without this, two submissions that both observed the
        // same idle worker could strand one task behind a block forever.
        let state = self.inner.state.lock();
        if !state.queue.is_empty() && state.idle_workers == 0 && !state.shutdown {
            Self::grow(&self.inner, state, 1);
        }
    }

    fn on_task_unblocked(&self) {
        self.inner.blocked.fetch_sub(1, Ordering::SeqCst);
    }

    fn try_help(&self) -> bool {
        // Steal-to-wait helping: a blocked getter runs one queued job
        // instead of parking.  Pop under the lock, run outside it — a
        // helped job may itself submit, block, or take a long time, none of
        // which may happen under the pool mutex.
        let job = self.inner.state.lock().queue.pop_front();
        let Some(job) = job else { return false };
        let panicked = catch_unwind(AssertUnwindSafe(|| job.run())).is_err();
        let mut state = self.inner.state.lock();
        state.jobs_executed += 1;
        state.jobs_helped += 1;
        if panicked {
            state.panics += 1;
        }
        true
    }
}

impl Drop for GrowingPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_submitted_jobs() {
        let pool = GrowingPool::with_defaults();
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(Job::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..64 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        let stats = pool.stats();
        assert!(stats.threads_started >= 1);
    }

    #[test]
    fn worker_exit_hook_runs_when_workers_retire() {
        let exits = Arc::new(AtomicUsize::new(0));
        let exits2 = Arc::clone(&exits);
        let pool = GrowingPool::new(PoolConfig {
            keep_alive: Duration::from_millis(10),
            worker_exit_hook: Some(Arc::new(move || {
                exits2.fetch_add(1, Ordering::Relaxed);
            })),
            ..PoolConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        pool.submit(Job::new(move || tx.send(()).unwrap()));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        pool.shutdown();
        let started = pool.stats().threads_started;
        assert!(started >= 1);
        assert_eq!(
            exits.load(Ordering::Relaxed),
            started,
            "every started worker runs the exit hook exactly once"
        );
    }

    #[test]
    fn grows_when_all_workers_block() {
        // Submit several jobs that all block on the same channel: each
        // submission must find no idle worker and start a new thread, so all
        // jobs run concurrently even though each one blocks.
        let pool = GrowingPool::with_defaults();
        let n = 8;
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let (started_tx, started_rx) = mpsc::channel();
        for _ in 0..n {
            let started_tx = started_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            pool.submit(Job::new(move || {
                started_tx.send(()).unwrap();
                let guard = release_rx.lock();
                let _ = guard.recv_timeout(Duration::from_secs(10));
            }));
        }
        for _ in 0..n {
            started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(
            pool.stats().peak_workers >= n,
            "the pool must have grown to at least {} workers, saw {:?}",
            n,
            pool.stats()
        );
        for _ in 0..n {
            release_tx.send(()).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn batch_submission_runs_every_job() {
        let pool = GrowingPool::with_defaults();
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Job> = (0..16)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let tx = tx.clone();
                Job::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    tx.send(()).unwrap();
                })
            })
            .collect();
        pool.try_submit_batch(jobs).ok().unwrap();
        for _ in 0..16 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16);
        let stats = pool.stats();
        assert_eq!(stats.batches_submitted, 1);
        assert_eq!(stats.jobs_batch_submitted, 16);

        pool.shutdown();
        let back = pool.try_submit_batch(vec![Job::new(|| {})]).unwrap_err();
        assert_eq!(back.len(), 1, "post-shutdown batches are handed back");
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = GrowingPool::with_defaults();
        let (tx, rx) = mpsc::channel();
        pool.submit(Job::new(|| panic!("job panic")));
        pool.submit(Job::new(move || tx.send(42).unwrap()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        // Join the workers before reading the counter: the panicking worker
        // may still be unwinding when the second job's send arrives.
        pool.shutdown();
        assert_eq!(pool.stats().panics, 1, "caught panic is counted");
    }

    #[test]
    fn shutdown_runs_queued_jobs_and_rejects_new_ones() {
        let pool = GrowingPool::with_defaults();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.submit(Job::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 16);
        assert!(
            !pool.submit(Job::new(|| {})),
            "pool must reject jobs after shutdown"
        );
        assert_eq!(pool.stats().current_workers, 0);
    }

    #[test]
    fn idle_workers_retire_after_keep_alive() {
        let pool = GrowingPool::new(PoolConfig {
            keep_alive: Duration::from_millis(20),
            ..PoolConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        pool.submit(Job::new(move || tx.send(()).unwrap()));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Give the worker time to time out and retire.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(pool.stats().current_workers, 0);
        // The pool still works afterwards.
        let (tx2, rx2) = mpsc::channel();
        pool.submit(Job::new(move || tx2.send(7).unwrap()));
        assert_eq!(rx2.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
    }

    #[test]
    fn initial_workers_are_started_eagerly() {
        let pool = GrowingPool::new(PoolConfig {
            initial_workers: 3,
            ..PoolConfig::default()
        });
        // Started eagerly even before any job is submitted.
        assert_eq!(pool.stats().threads_started, 3);
        pool.shutdown();
    }
}
