//! Declared blocking: a wait the runtime cannot see, announced to the
//! scheduler so the growth rule covers it like a promise wait.
//!
//! The scheduler replaces a worker the moment it blocks in a promise `get`,
//! because `get` brackets the park with the executor's
//! [`on_task_blocked`](promise_core::Executor::on_task_blocked) /
//! [`on_task_unblocked`](promise_core::Executor::on_task_unblocked) hooks.
//! A task that waits on anything else — a std channel, lock, condvar or
//! barrier, or I/O — holds one of the pool's runnable places until the wait
//! returns.  [`blocking`] brackets such a wait with the same hooks; it is
//! the `managedBlock` of Lea's fork/join framework.

use std::sync::Arc;

use promise_core::{task, Executor};

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
    struct Unblock(Arc<dyn Executor>);
    impl Drop for Unblock {
        fn drop(&mut self) {
            self.0.on_task_unblocked();
        }
    }
    let _guard = task::current_context()
        .and_then(|ctx| ctx.executor())
        .map(|executor| {
            executor.on_task_blocked();
            Unblock(executor)
        });
    f()
}
