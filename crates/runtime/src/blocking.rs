//! Declared blocking: a wait the runtime cannot see, announced to the
//! scheduler so the growth rule covers it like a promise wait.
//!
//! The scheduler replaces a worker the moment it blocks in a promise `get`,
//! because `get` brackets the park with the scheduler's
//! [`on_task_blocked`](crate::WorkStealingScheduler::on_task_blocked) /
//! [`on_task_unblocked`](crate::WorkStealingScheduler::on_task_unblocked) hooks.
//! A task that waits on anything else — a std channel, lock, condvar or
//! barrier, or I/O — holds one of the pool's runnable places until the wait
//! returns.  [`blocking`] brackets such a wait with the same hooks; it is
//! the `managedBlock` of Lea's fork/join framework.

use promise_core::{task, Context, WorkStealingScheduler};

/// Runs `f`, declaring it a blocking wait of the current task: the
/// scheduler counts the worker as blocked while `f` runs, hands its queued
/// jobs to the other workers, and starts a replacement if work is waiting.
///
/// Outside a task (or on a thread that is not one of the scheduler's
/// workers, such as the root task's) it just runs `f`.  The hooks stay
/// balanced if `f` panics.
///
/// ```
/// use promise_runtime::{blocking, spawn, Runtime};
/// use std::sync::{mpsc, Arc, Mutex};
///
/// let rt = Runtime::unverified();
/// let (tx, rx) = mpsc::channel();
/// let rx = Arc::new(Mutex::new(rx));
/// rt.block_on(|| {
///     let waiter = spawn((), move || blocking(|| rx.lock().unwrap().recv().unwrap()));
///     tx.send(7).unwrap();
///     assert_eq!(waiter.join().unwrap(), 7);
/// })
/// .unwrap();
/// ```
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    struct Unblock<'a>(&'a WorkStealingScheduler);
    impl Drop for Unblock<'_> {
        fn drop(&mut self) {
            self.0.on_task_unblocked();
        }
    }
    let ctx = task::current_context();
    let _guard = ctx.as_deref().and_then(Context::scheduler).map(|sched| {
        sched.on_task_blocked();
        Unblock(sched)
    });
    f()
}
