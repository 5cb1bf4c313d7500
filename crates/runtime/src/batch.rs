//! Batched task submission: prepare N children, publish them in one
//! scheduler round trip.
//!
//! A fork loop that calls [`spawn`](crate::spawn()) N times pays N submission
//! round trips: N injector shard locks (or deque pushes) and up to N
//! park-lock wake-ups / worker spawns.  [`SpawnBatch`] splits spawning into
//! its two natural phases:
//!
//! 1. **prepare** ([`SpawnBatch::spawn`] and variants): each child's
//!    ownership transfers are validated and performed immediately, *in call
//!    order* (Algorithm 1 rule 2 — ownership must move before the child can
//!    become runnable, and a refused transfer must leave later children
//!    unprepared), and the child's job record and fused completion handle
//!    are built — but nothing is published to the scheduler yet;
//! 2. **publish** ([`SpawnBatch::submit`]): all prepared jobs are handed to
//!    the scheduler in one call
//!    ([`WorkStealingScheduler::submit_batch`](crate::WorkStealingScheduler::submit_batch)).
//!    The scheduler places the **first** child on the calling
//!    worker's own deque (LIFO — it is the task the parent will most likely
//!    join first, and the deque slot is two plain stores) and pushes the
//!    rest onto **one** injector shard under a single lock, then hands out
//!    all wake-up tokens in one park-lock sweep.  The §6.3 growth rule is
//!    preserved: jobs that find no idle worker still get fresh threads.
//!
//! Dropping an unsubmitted batch drops the prepared jobs, which runs each
//! child's rule-3 exit machinery exactly as if the task had been rejected at
//! submission: transferred promises and completion promises are completed
//! exceptionally, so nothing hangs and nothing leaks silently.
//!
//! If the runtime shuts down concurrently with [`submit`](SpawnBatch::submit),
//! the unaccepted tail of the batch is settled the same way; the returned
//! handles stay valid and their `join`s observe the exceptional completions.

use std::sync::Arc;

use promise_core::{CancelToken, Context, Job, PromiseCollection, PromiseError};

use crate::handle::TaskHandle;
use crate::spawn::{prepare_spawn, run_task};

/// A builder that prepares a group of child tasks and submits them to the
/// scheduler as one batch.  See the [module docs](self).
///
/// All children of one batch share a result type `R` (a fork loop's children
/// are homogeneous); heterogeneous groups can use `R = ()` and side-channel
/// results through promises.
pub struct SpawnBatch<R> {
    /// The context of the task that prepared the first child.  Captured at
    /// prepare time so `submit` publishes to *that* runtime's scheduler even
    /// if the (Send) batch is moved to another thread first.
    ctx: Option<Arc<Context>>,
    jobs: Vec<Job>,
    handles: Vec<TaskHandle<R>>,
    /// Token attached to every child prepared after
    /// [`cancel_token`](Self::cancel_token) was called — one token cancels
    /// the whole batch.
    cancel: Option<CancelToken>,
}

impl<R: Send + 'static> SpawnBatch<R> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        SpawnBatch {
            ctx: None,
            jobs: Vec::new(),
            handles: Vec::new(),
            cancel: None,
        }
    }

    /// Creates an empty batch with room for `n` children.
    pub fn with_capacity(n: usize) -> Self {
        SpawnBatch {
            ctx: None,
            jobs: Vec::with_capacity(n),
            handles: Vec::with_capacity(n),
            cancel: None,
        }
    }

    /// Attaches `token` to every child prepared *from this call on* (children
    /// spawned by those children inherit it too): pulling the one token
    /// cancels the whole group — blocked `get`s wake with
    /// [`PromiseError::Cancelled`] and remaining obligations settle without
    /// an omitted-set alarm.  Returns `self` for chaining at construction.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Number of prepared children.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Prepares a child task, transferring ownership of every promise in
    /// `transfers` to it immediately.  Panics on policy violations (use
    /// [`try_spawn`](Self::try_spawn) for the fallible form).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread has no active task or if the parent does
    /// not own one of the transferred promises.
    pub fn spawn<C, F>(&mut self, transfers: C, f: F)
    where
        C: PromiseCollection,
        F: FnOnce() -> R + Send + 'static,
    {
        self.try_spawn(transfers, f).expect("batch spawn failed")
    }

    /// Like [`spawn`](Self::spawn) with a task name that appears in alarms.
    pub fn spawn_named<C, F>(&mut self, name: &str, transfers: C, f: F)
    where
        C: PromiseCollection,
        F: FnOnce() -> R + Send + 'static,
    {
        self.try_spawn_named(Some(name), transfers, f)
            .expect("batch spawn failed")
    }

    /// Fallible form of [`spawn`](Self::spawn).
    pub fn try_spawn<C, F>(&mut self, transfers: C, f: F) -> Result<(), PromiseError>
    where
        C: PromiseCollection,
        F: FnOnce() -> R + Send + 'static,
    {
        self.try_spawn_named(None, transfers, f)
    }

    /// Fallible form of [`spawn_named`](Self::spawn_named).  On error the
    /// batch is unchanged (children prepared by earlier calls keep their
    /// already-performed transfers).
    pub fn try_spawn_named<C, F>(
        &mut self,
        name: Option<&str>,
        transfers: C,
        f: F,
    ) -> Result<(), PromiseError>
    where
        C: PromiseCollection,
        F: FnOnce() -> R + Send + 'static,
    {
        let (ctx, mut prepared, completion) = prepare_spawn::<R>(name, &transfers)?;
        if self.ctx.is_none() {
            self.ctx = Some(ctx);
        }
        if let Some(token) = &self.cancel {
            prepared.attach_cancel_token(token.clone());
        }
        let task_id = prepared.id();
        let task_name = prepared.name();
        let cancel = prepared.cancel_token();
        let completion_in_task = completion.clone();
        self.jobs
            .push(Job::new(move || run_task(prepared, f, completion_in_task)));
        self.handles
            .push(TaskHandle::new(task_id, task_name, completion, cancel));
        Ok(())
    }

    /// Publishes every prepared child to the scheduler in one batched
    /// submission and returns their handles (in preparation order).
    ///
    /// The children go to the scheduler of the context they were *prepared*
    /// in (captured at the first successful spawn call), exactly like the
    /// single-spawn path — a `Send` batch moved to another thread, or built
    /// inside one runtime's task and submitted from another's, still
    /// publishes to the right runtime.
    ///
    /// If the runtime has shut down, the unaccepted children are settled
    /// exceptionally (their handles' `join`s observe the failure) instead of
    /// being dropped silently.
    ///
    /// # Panics
    ///
    /// Panics if no scheduler is installed in the preparing context (same
    /// condition as [`spawn`](crate::spawn())).
    pub fn submit(self) -> Vec<TaskHandle<R>> {
        let SpawnBatch {
            ctx,
            jobs,
            handles,
            cancel: _,
        } = self;
        if jobs.is_empty() {
            return handles;
        }
        let ctx = ctx.expect("a non-empty batch always captured its preparing context");
        let scheduler = ctx
            .scheduler()
            .expect("no scheduler installed in this Context; submit batches from within a Runtime");
        if let Err(rest) = scheduler.submit_batch(jobs) {
            // Shutdown raced the submission: dropping the tail runs each
            // child's exit machinery, completing its promises exceptionally.
            drop(rest);
        }
        handles
    }
}

impl<R: Send + 'static> Default for SpawnBatch<R> {
    fn default() -> Self {
        SpawnBatch::new()
    }
}

impl<R> std::fmt::Debug for SpawnBatch<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpawnBatch")
            .field("prepared", &self.jobs.len())
            .finish()
    }
}

/// Convenience wrapper: build a batch with `build`, submit it, return the
/// handles.
///
/// ```
/// # use promise_runtime::{spawn_batch, Runtime};
/// # let rt = Runtime::new();
/// # rt.block_on(|| {
/// let handles = spawn_batch(|batch| {
///     for i in 0..4u64 {
///         batch.spawn((), move || i * i);
///     }
/// });
/// let total: u64 = handles
///     .into_iter()
///     .map(|h| h.join().unwrap())
///     .sum();
/// assert_eq!(total, 0 + 1 + 4 + 9);
/// # }).unwrap();
/// ```
pub fn spawn_batch<R: Send + 'static>(
    build: impl FnOnce(&mut SpawnBatch<R>),
) -> Vec<TaskHandle<R>> {
    let mut batch = SpawnBatch::new();
    build(&mut batch);
    batch.submit()
}
