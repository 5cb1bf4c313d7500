//! The knobs and counters of the runtime's worker pool.
//!
//! The paper's evaluation notes (§6.3): *"A thread pool schedules
//! asynchronous tasks by spawning a new thread for a new task when all
//! existing threads are in use.  This execution strategy is necessary in
//! general for promises because there is no a-priori bound on the number of
//! tasks that can block simultaneously."*
//!
//! The [`WorkStealingScheduler`](crate::WorkStealingScheduler) keeps the
//! guarantee that strategy exists for without spawning for merely busy
//! threads: a task that finds no idle worker gets a new thread while fewer
//! workers than cores are runnable, and every worker that blocks in a
//! promise wait, or in a wait declared with [`blocking`](crate::blocking),
//! is replaced at once.  This module holds the parts of it a caller
//! configures or reads: [`PoolConfig`] (thread naming, keep-alive, stack
//! size, eager workers, the exit hook) and [`PoolStats`].

use std::sync::Arc;
use std::time::Duration;

/// A callback every worker thread runs as it retires (still on the worker
/// thread).
///
/// The runtime uses this to sweep fully-free arena chunks when the pool
/// shrinks (`promise_core::Context::reclaim_memory`).  A retiring worker
/// holds no cache of its own to flush: the magazines of
/// `promise_core::magazine` belong to the arenas and the block pool.
pub type WorkerExitHook = Arc<dyn Fn() + Send + Sync>;

/// The worker-pool part of a [`SchedulerConfig`](crate::SchedulerConfig).
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
    /// Workers currently blocked inside a promise wait or a wait declared
    /// with [`blocking`](crate::blocking) (reported through the
    /// [`Executor::on_task_blocked`](promise_core::Executor::on_task_blocked)
    /// blocking seam).  The growth rule counts `current_workers −
    /// blocked_workers` as runnable and starts workers only while that is
    /// below the core count.
    pub blocked_workers: usize,
    /// Highest number of simultaneously alive workers.
    pub peak_workers: usize,
    /// Total worker threads ever started.
    pub threads_started: usize,
    /// Total jobs executed to completion.
    pub jobs_executed: usize,
    /// Jobs executed after being stolen from another worker's local queue.
    pub jobs_stolen: usize,
    /// Sibling deques inspected by searches for work — steal sweeps and the
    /// queue re-checks before a park or a block.  A search visits only the
    /// deques the scheduler's non-empty index marks, so this grows with the
    /// work that was stealable, not with the number of workers.
    pub steal_probes: usize,
    /// Jobs run *inline* by a thread whose task was blocked in a promise
    /// `get` — steal-to-wait helping via
    /// [`Executor::try_help`](promise_core::Executor::try_help).  Each helped
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
