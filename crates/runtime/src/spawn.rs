//! Spawning tasks with promise-ownership transfer — the zero-alloc fast
//! path.
//!
//! [`spawn`] is the runtime counterpart of the paper's annotated
//! `async (p1, …, pn) { … }` construct: the promises listed in the transfer
//! collection move from the calling (parent) task to the new child *before*
//! the child becomes runnable (Algorithm 1, rule 2), and when the child's
//! body ends the rule-3 exit check runs, detecting omitted sets.
//!
//! # The fused completion cell
//!
//! Every spawned task carries an implicit *completion promise* used by
//! [`TaskHandle::join`].  A separate completion promise, an
//! `Arc<Mutex<Option<R>>>` side channel for the body's typed return value, a
//! boxed job closure and a second box inside the scheduler deque would be
//! four allocator round trips per spawn.  This path performs **zero** (in
//! steady state):
//!
//! * the completion promise is created *fused* with a typed
//!   [`ResultSlot<R>`](promise_core::ResultSlot) in the same allocation
//!   ([`Promise::try_new_with`]); the task wrapper `put`s the body's result
//!   into the slot and `join` `take`s it after the completion promise
//!   resolves — no mutex side channel;
//! * the job closure lives in a thin, **recycled block**
//!   ([`promise_core::Job`]): sharded block magazines (the generic
//!   per-operation-locked protocol of `promise_core`'s `magazine` module)
//!   recycle the record storage, and the thin record pointer is stored in
//!   the deque slots (no double box, structurally);
//! * the fused cell itself is a **pooled refcount block**
//!   ([`promise_core::PoolArc`]): the reference-counted record shared by
//!   the handle, the child, and the ownership ledger comes from the same
//!   recycled block pool as the job records, so there is no per-spawn
//!   `Arc::new` either (oversized result types fall back to the heap;
//!   correctness never depends on fitting);
//! * the transfer list and the child's ledger are inline-first small vectors
//!   ([`promise_core::TransferList`]) of pooled one-word erased handles
//!   ([`promise_core::ErasedPromiseRef`]) — no `Vec` allocation and no
//!   `Arc<dyn>` allocation for the common zero-to-three-transfer spawn.
//!
//! Steady-state spawn → run → retire therefore performs **no
//! global-allocator call at all** once the magazines and queues are warm,
//! for any body capturing up to 72 bytes (the job record's block budget;
//! see [`promise_core::job::JOB_BLOCK_SIZE`] and the compile-time guard
//! below); the `zero_alloc_spawn` integration test pins this with a
//! counting global allocator, and the `spawn_path` benches report the
//! allocation counts.
//! A *named* spawn makes exactly one — its name, which the task and its
//! completion promise `name::completion` share
//! ([`Name::Completion`](promise_core::Name)); `promise-sync`'s
//! `alloc_budget` test pins that.
//!
//! ## Why recycling can never resurrect a retired task's completion promise
//!
//! Recycled job *blocks* hold only the not-yet-run closure.  The record is
//! consumed — payload moved out or dropped in place — *before* its block
//! re-enters the pool, and the completion promise itself lives outside the
//! block in the reference-counted fused cell, which dies only when the last
//! handle drops.  A block reused by a later spawn therefore carries no trace
//! of the earlier task: there is no window in which a recycled record could
//! alias a live task's state or settle a retired task's promise a second
//! time (the one-shot cell inside the promise rejects late fills
//! regardless).
//!
//! # Completion semantics
//!
//! * if the body returns normally and the task fulfilled all of its owned
//!   promises, the completion promise is `set` and `join` yields the body's
//!   return value from the fused slot;
//! * if the task terminated while still owning unfulfilled promises, the
//!   completion promise carries the omitted-set report, so the parent's
//!   `join` observes the violation (in addition to the context-level alarm
//!   and the exceptional completion of the abandoned promises themselves);
//! * if the body panicked, the panic is **contained here**: the completion
//!   promise carries [`PromiseError::TaskPanicked`], and any promises the
//!   task still owned are reported and completed exceptionally, mirroring
//!   the AWS SDK bug fix the paper discusses (§1.4, §6.2).  The worker
//!   thread survives and keeps serving jobs — a panicking task cannot take
//!   the runtime down with it;
//! * if the task was cancelled (its [`CancelToken`](promise_core::CancelToken)
//!   or the context-wide shutdown token pulled) by the time it terminated,
//!   the completion promise carries [`PromiseError::Cancelled`] — even when
//!   the body happened to return a value, because the caller asked for the
//!   subtree to be abandoned — and its remaining obligations settle as
//!   `Cancelled` without an omitted-set alarm.  A panic wins over a
//!   cancellation: a body that blew up *and* was cancelled reports the panic.
//!
//! ## Why a contained panic can never strand an obligation
//!
//! The unwind is caught *before* the exit check, so the rule-3 sweep below
//! always runs: every promise the dead task still owned — including ones it
//! received by transfer and never got to touch — is completed exceptionally
//! and blamed, and the fused completion promise is settled last.  There is
//! no code path out of `run_task` (value, panic, or cancellation) that
//! leaves a promise unfulfilled, which is exactly the paper's "at least one
//! set" guarantee extended to crashing tasks.
//!
//! The completion promise is settled only *after* the task has fully
//! retired (exit check run, arena slot freed), so a `join` returning implies
//! the task is gone; the result slot is `put` before that, and the
//! promise's release publication makes it visible to the joiner.
//!
//! For spawning many children at once with one submission round trip, see
//! [`SpawnBatch`](crate::SpawnBatch).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use promise_core::ownership;
use promise_core::task::{self, PreparedTask};
use promise_core::{
    collect_promises, CancelToken, Job, Name, Promise, PromiseCollection, PromiseError, ResultSlot,
};

use crate::handle::{CompletionPromise, TaskHandle};

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

// A spawn's job record — `move || run_task(prepared, f, completion)` — must
// keep fitting its pooled block with room for a real body: this tuple is
// that closure's captures with a 64-byte body.  Growing `PreparedTask` or
// the completion handle past it breaks the build here instead of putting an
// allocator call back on every spawn.
const _: () = assert!(Job::fits::<(PreparedTask, [u64; 8], CompletionPromise<u64>)>());

/// Creates the fused completion cell for a task named `name`, then the
/// prepared task owning it (plus the caller-collected transfers).
pub(crate) fn prepare_spawn<R: Send + 'static>(
    name: Option<&str>,
    transfers: &(impl PromiseCollection + ?Sized),
) -> Result<
    (
        Arc<promise_core::Context>,
        PreparedTask,
        CompletionPromise<R>,
    ),
    PromiseError,
> {
    let ctx = task::current_context().ok_or(PromiseError::NoCurrentTask { operation: "spawn" })?;

    // A named spawn interns its name once; the task and its completion
    // promise share the string.
    let task_name: Option<Arc<str>> = name
        .filter(|_| ctx.config().mode.captures_names())
        .map(Arc::from);

    // The implicit join promise of §2.1: created by the parent, transferred
    // to (and eventually fulfilled by) the child.  The typed result slot is
    // fused into the same allocation.
    let completion: CompletionPromise<R> = Promise::try_new_named(
        || task_name.clone().map(Name::Completion),
        ResultSlot::new(),
    )?;

    let mut list = collect_promises(transfers);
    list.push(completion.as_erased());
    let mut prepared = match ownership::prepare_task_named(|| task_name, list) {
        Ok(prepared) => prepared,
        Err(err) => {
            // The transfer was refused, so no child exists to ever fulfil
            // the just-created completion promise — settle it here, or it
            // would linger as a parent obligation and surface as a spurious
            // omitted set at the parent's own exit check.  (The pre-fusion
            // path had this leak too; the batch API's ordered-refusal tests
            // flushed it out.)
            completion.as_erased().complete_abandoned(err.clone());
            return Err(err);
        }
    };
    // The completion promise is the one obligation a blocked task always
    // still holds (it is settled only at task exit), so the helping gate in
    // `promise_core::task` must know to exempt it — without this, no spawned
    // task could ever steal-to-wait.  Nothing blocks on a completion promise
    // except `join`, and a joiner never waits on the *helper's own*
    // completion (that would be a self-join cycle the detector reports), so
    // exempting it cannot bury a promise a third task needs.
    prepared.set_exempt_completion(completion.id());
    Ok((ctx, prepared, completion))
}

/// Spawns `f` as a new task, transferring ownership of every promise in
/// `transfers` to it.  Panics on policy violations (use [`try_spawn`] for the
/// fallible form).
///
/// # Panics
///
/// Panics if the calling thread has no active task, if the parent does not
/// own one of the transferred promises, or if no executor is installed.
pub fn spawn<C, F, R>(transfers: C, f: F) -> TaskHandle<R>
where
    C: PromiseCollection,
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    try_spawn(transfers, f).expect("spawn failed")
}

/// Like [`spawn`] but gives the task a name that appears in alarms.
pub fn spawn_named<C, F, R>(name: &str, transfers: C, f: F) -> TaskHandle<R>
where
    C: PromiseCollection,
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    try_spawn_named(Some(name), transfers, f).expect("spawn failed")
}

/// Fallible form of [`spawn`].
pub fn try_spawn<C, F, R>(transfers: C, f: F) -> Result<TaskHandle<R>, PromiseError>
where
    C: PromiseCollection,
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    try_spawn_named(None, transfers, f)
}

/// Like [`spawn`] but attaches a fresh [`CancelToken`] to the task, making
/// it (and any children it spawns, which inherit the token) a cancellable
/// subtree.  [`TaskHandle::cancel`] pulls the token.
pub fn spawn_cancellable<C, F, R>(transfers: C, f: F) -> TaskHandle<R>
where
    C: PromiseCollection,
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    try_spawn_with_token(None, CancelToken::new(), transfers, f).expect("spawn failed")
}

/// Fallible form of [`spawn_cancellable`] with an explicit name and token —
/// pass one token to several spawns to cancel them as a group.
pub fn try_spawn_with_token<C, F, R>(
    name: Option<&str>,
    token: CancelToken,
    transfers: C,
    f: F,
) -> Result<TaskHandle<R>, PromiseError>
where
    C: PromiseCollection,
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    spawn_inner(name, Some(token), transfers, f)
}

/// Fallible form of [`spawn_named`].
pub fn try_spawn_named<C, F, R>(
    name: Option<&str>,
    transfers: C,
    f: F,
) -> Result<TaskHandle<R>, PromiseError>
where
    C: PromiseCollection,
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    spawn_inner(name, None, transfers, f)
}

fn spawn_inner<C, F, R>(
    name: Option<&str>,
    token: Option<CancelToken>,
    transfers: C,
    f: F,
) -> Result<TaskHandle<R>, PromiseError>
where
    C: PromiseCollection,
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let (ctx, mut prepared, completion) = prepare_spawn::<R>(name, &transfers)?;
    if let Some(token) = token {
        prepared.attach_cancel_token(token);
    }
    let task_id = prepared.id();
    let task_name = prepared.name();
    // The handle carries the task's *effective* token (attached above, or
    // inherited from the parent) so `TaskHandle::cancel` always reaches the
    // token the task actually observes.
    let cancel = prepared.cancel_token();

    let executor = ctx.executor().expect(
        "no executor installed in this Context; spawn tasks from within a Runtime (block_on)",
    );

    let completion_in_task = completion.clone();
    let job = Job::new(move || run_task(prepared, f, completion_in_task));
    if let Err(rejected) = executor.execute(job) {
        // The executor has shut down and handed the job back.  Dropping it
        // drops the `PreparedTask` inside, which runs the rule-3 exit
        // machinery as if the task terminated immediately: the transferred
        // promises and the completion promise are completed exceptionally,
        // so no waiter (and no later `join`) can hang on the never-run task.
        drop(rejected.0);
        return Err(PromiseError::RuntimeShutdown { task: task_id });
    }

    Ok(TaskHandle::new(task_id, task_name, completion, cancel))
}

/// The wrapper that executes a prepared task on a worker thread: activate,
/// run the body, stash the result in the fused slot, perform the exit
/// check, and settle the completion promise.
///
/// Re-entrant: with steal-to-wait helping a job runs *inside* a blocked
/// `get` of another task on the same thread.  `activate` pushes onto the
/// thread's task stack (LIFO, popped by the exit check), the exit sweep and
/// completion settling touch only this frame's prepared state, and the
/// final `resume_unwind` of a panicking body is caught by the helping
/// boundary (`run_helped`) exactly like the
/// worker-loop backstop — the suspended outer frame never observes the
/// unwind.
pub(crate) fn run_task<F, R>(prepared: PreparedTask, f: F, completion: CompletionPromise<R>)
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let scope = prepared.activate();
    let task_id = scope.id();
    let outcome = catch_unwind(AssertUnwindSafe(f));
    let (panic_msg, panic_payload) = match outcome {
        Ok(value) => {
            // Fused result: written into the completion cell's typed slot
            // before the completion promise publishes, so the joiner's
            // acquire observation of the fulfilment also sees the value.
            let _ = completion.extra().put(value);
            (None, None)
        }
        Err(payload) => (Some(panic_message(&*payload)), Some(payload)),
    };

    if panic_msg.is_some() {
        // Contained: counted and (when the log is on) recorded before the
        // exit sweep, so a metrics snapshot taken by the woken joiner can
        // never miss the panic that produced its error.
        scope.record_panic();
    }
    let cancelled = scope.is_cancelled();
    let completion_id = completion.id();
    // Exit check (Algorithm 1 rule 3), with the completion promise excluded:
    // it is legitimately still owned here and is settled below, *after* the
    // task has fully retired, so that a `join` returning implies the task is
    // gone (exit check run, arena slot freed) — settling it earlier lets a
    // joiner observe a half-terminated task.
    let report = scope.finish_excluding(&[completion_id]);
    match (panic_msg, report) {
        (Some(msg), _) => {
            // The body panicked: the joiner observes the failure; any
            // abandoned promises are settled (and blamed) separately.  A
            // panic wins over a concurrent cancellation — the crash is the
            // more diagnostic outcome.
            completion
                .as_erased()
                .complete_abandoned(PromiseError::TaskPanicked {
                    task: task_id,
                    message: Arc::from(msg.as_str()),
                });
        }
        (None, _) if cancelled => {
            // Cancelled before termination: the joiner observes the
            // cancellation even when the body returned a value — the caller
            // asked for the subtree's work to be abandoned.
            completion
                .as_erased()
                .complete_abandoned(PromiseError::Cancelled { task: task_id });
        }
        (None, None) => {
            // Clean termination: all obligations met.
            completion.fulfill_detached(());
        }
        (None, Some(report)) => {
            // The body returned but abandoned owned promises: surface the
            // omitted set to the joiner as well.
            completion
                .as_erased()
                .complete_abandoned(PromiseError::OmittedSet(report));
        }
    }
    if let Some(payload) = panic_payload {
        // Containment is complete — the panic was counted, the exit sweep
        // ran, and the completion settled — so re-raise the original payload
        // for the worker's executor-level `catch_unwind`.  That backstop is
        // what keeps the worker thread alive, and letting it see the unwind
        // keeps `PoolStats::panics` an honest count of every job that
        // panicked (not just the ones that escaped the task machinery).
        // `resume_unwind` does not re-run the panic hook, so the panic is
        // printed once, at the original `panic!` site.
        std::panic::resume_unwind(payload);
    }
}
