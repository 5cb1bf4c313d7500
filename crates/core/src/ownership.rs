//! The ownership policy `P_o` (Algorithm 1).
//!
//! The policy maintains, at runtime, the map `owner : Promise → Task ∪ {null}`
//! according to four rules (Definition 2.2):
//!
//! 1. `new p` by task `t` sets `owner(p) := t` — implemented in
//!    [`Promise::try_new`](crate::Promise::try_new);
//! 2. spawning `async (p1..pn) { P }` verifies that the parent owns every
//!    `p_i` and re-assigns ownership to the child *before the child becomes
//!    runnable* — implemented by [`prepare_task`];
//! 3. when a task terminates, its set of owned promises must be empty; a
//!    violation is an **omitted set** — implemented by [`finish_body`]
//!    (invoked from [`TaskScope`](crate::TaskScope));
//! 4. `set p` by task `t` verifies `owner(p) = t` and clears the owner —
//!    implemented by [`on_set`] (invoked from [`Promise::set`](crate::Promise::set)).
//!
//! Together the rules guarantee at least one `set` per promise (rule 3 finds
//! the violations) and at most one (rule 4), and they make the owner map
//! meaningful enough for the deadlock detector of [`crate::detector`] to
//! traverse.
//!
//! ## Why the exit sweep runs on *every* exit path
//!
//! Rule 3's check ([`finish_body`]) is deliberately wired to all four ways
//! a task can stop existing: a normal return, a **panic** unwinding the
//! body, a **cancelled** exit, and a [`PreparedTask`] dropped without ever
//! running (spawn rejected at shutdown).  The argument: the ownership
//! invariant — every promise has exactly one responsible task until it is
//! fulfilled — is what lets a blocked `get` *wait* instead of hanging
//! forever; it holds only if responsibility is discharged on the exits
//! nobody plans for, not just the happy path.  So the sweep always settles
//! whatever the dying task still owned — exceptionally when it must —
//! and only the *classification* differs per path: a normal exit with
//! leftovers is an **omitted set** (a bug, alarmed); a panic settles them
//! as [`PromiseError::TaskPanicked`]-flavoured abandonment blaming the
//! panicked task (alarmed, justified); a cancelled exit settles them as
//! [`PromiseError::Cancelled`] with **no** alarm (a sanctioned
//! abandonment, see [`settle_cancelled`]); a never-ran task settles them
//! through the same machinery from the drop — as cancelled (no alarm) when
//! the runtime's own teardown discarded the job
//! ([`finish_body_shutdown`]), as an omitted set when a live owner
//! discarded a task it promised to run.  Skipping the sweep on any
//! of these paths would turn a contained fault into a hung waiter — the
//! exact failure mode the detector exists to eliminate.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::chaos::ChaosSite;
use crate::collection::TransferList;
use crate::context::Alarm;
use crate::error::{AbandonedPromise, OmittedSetReport, PromiseError};
use crate::events::EventKind;
use crate::ids::{PromiseId, TaskId};
use crate::pool_arc::ErasedPromiseRef;
use crate::promise::ErasedPromise;
use crate::refs::PackedRef;
use crate::task::{self, Ledger, PreparedTask, TaskBody};

/// Creates a child task, transferring ownership of `transfers` from the
/// calling (parent) task to the child (Algorithm 1, `Async`, lines 7–12).
///
/// The returned [`PreparedTask`] already owns the transferred promises; the
/// runtime moves it to a worker thread and activates it there.  If any listed
/// promise is not currently owned by the parent (or has already been
/// fulfilled), the whole transfer is refused and no ownership changes.
///
/// Duplicate entries in `transfers` (several handles to the same promise) are
/// collapsed to one.
pub fn prepare_task(
    name: Option<&str>,
    transfers: impl Into<TransferList>,
) -> Result<PreparedTask, PromiseError> {
    prepare_task_named(|| name.map(Arc::from), transfers)
}

/// [`prepare_task`] for a name that is already a shared string; `name` runs
/// only in a context that captures names.  The runtime's spawn path uses it
/// to share one string between a task and its completion promise.
#[doc(hidden)]
pub fn prepare_task_named(
    name: impl FnOnce() -> Option<Arc<str>>,
    transfers: impl Into<TransferList>,
) -> Result<PreparedTask, PromiseError> {
    let transfers = transfers.into();
    task::with_current_body(|parent| {
        let ctx = Arc::clone(&parent.ctx);
        ctx.counters().record_task_spawned();
        // Chaos pre-transfer injection point: delay before the batch
        // ownership check and re-assignment below, so transfers race
        // concurrent detector traversals and sibling operations.
        ctx.chaos_delay(ChaosSite::Transfer);

        if !ctx.mode().tracks_ownership() {
            // Baseline: no ownership state to maintain.
            let mut body = TaskBody::create(&ctx, name);
            // Cancellation is inherited per-subtree even in baseline mode.
            body.cancel = parent.cancel.clone();
            ctx.with_event_log(|log| {
                log.record_child(
                    EventKind::Spawn,
                    body_event_info(parent),
                    PromiseId::NONE,
                    None,
                    body.id,
                    body.name.clone(),
                )
            });
            return Ok(PreparedTask { body: Some(body) });
        }

        // Collapse duplicate handles to the same promise.  Quadratic in the
        // transfer count, so it compares handles, not ids through the
        // vtable: a subtree hand-off moves thousands of promises at once.
        let mut unique = TransferList::new();
        for p in transfers {
            if !unique.iter().any(|q| ErasedPromiseRef::ptr_eq(q, &p)) {
                unique.push(p);
            }
        }

        // Line 8: assert the parent owns every promise to be moved.  Checked
        // for the whole batch before any ownership changes so that a refused
        // spawn leaves the state untouched.
        for p in &unique {
            if !Arc::ptr_eq(p.context(), &ctx) {
                return Err(PromiseError::TransferNotOwned {
                    promise: p.id(),
                    task: parent.id,
                });
            }
            // SAFETY: the transfer list's handle keeps `p`'s occupancy live.
            let owner = unsafe { ctx.promises.read_live(p.slot(), |s| s.owner()) }
                .unwrap_or(PackedRef::NULL);
            if owner != parent.slot {
                return Err(PromiseError::TransferNotOwned {
                    promise: p.id(),
                    task: parent.id,
                });
            }
        }

        ctx.counters().record_transfers(unique.len() as u64);

        // Lines 9–10: create the child cell (waitingOn starts out null).
        let mut body = TaskBody::create(&ctx, name);
        // The child joins the parent's cancellable subtree: cancelling the
        // parent's token interrupts the child's blocking waits too.  A fresh
        // token can be attached before the task ships to a worker
        // ([`PreparedTask::attach_cancel_token`]).
        body.cancel = parent.cancel.clone();

        // Lines 11–12: release the promises from the parent's ledger and
        // re-assign their owner to the child, then seed the child's ledger.
        for p in &unique {
            parent.ledger.release();
            // SAFETY: the transfer list's handle keeps `p`'s occupancy live.
            unsafe {
                ctx.promises.read_live(p.slot(), |s| {
                    s.owner.store(body.slot.to_bits(), Ordering::Release)
                });
            }
            body.ledger.append(p.clone(), &ctx.promises, body.slot);
        }
        // A parent that hands out many promises and creates few (a pipeline
        // or stencil builder) lets go of them here, not when it next parks:
        // each stale entry pins whatever its promise links to.
        parent
            .ledger
            .sweep_if_stale(task::LEDGER_PRUNE_MIN as u32, &ctx.promises, parent.slot);

        ctx.with_event_log(|log| {
            log.record_child(
                EventKind::Spawn,
                body_event_info(parent),
                PromiseId::NONE,
                None,
                body.id,
                body.name.clone(),
            );
            for p in &unique {
                log.record_child(
                    EventKind::Transfer,
                    body_event_info(parent),
                    p.id(),
                    p.name_ref().cloned(),
                    body.id,
                    body.name.clone(),
                );
            }
        });

        Ok(PreparedTask { body: Some(body) })
    })
    .unwrap_or(Err(PromiseError::NoCurrentTask { operation: "spawn" }))
}

/// Event-log info for a body we already hold mutably (the thread-local
/// borrow is taken, so [`task::current_event_info`] would re-borrow).
fn body_event_info(body: &mut TaskBody) -> Option<(TaskId, Option<Arc<str>>, u64)> {
    let seq = body.event_seq;
    body.event_seq += 1;
    Some((body.id, body.name.clone(), seq))
}

/// Rule 4: verifies that the calling task owns `promise` and clears the
/// ownership, immediately before the promise is actually fulfilled.
pub(crate) fn on_set(promise: &dyn ErasedPromise) -> Result<(), PromiseError> {
    task::with_current_body(|t| {
        let ctx = &t.ctx;
        if !Arc::ptr_eq(promise.context(), ctx) {
            return Err(PromiseError::NotOwner {
                promise: promise.id(),
                task: t.id,
            });
        }
        if promise.is_fulfilled() {
            return Err(PromiseError::AlreadyFulfilled {
                promise: promise.id(),
            });
        }
        // SAFETY: the caller's `promise` reference keeps the occupancy live
        // across both reads.
        let owner = unsafe { ctx.promises.read_live(promise.slot(), |s| s.owner()) }
            .unwrap_or(PackedRef::NULL);
        if owner != t.slot {
            return Err(PromiseError::NotOwner {
                promise: promise.id(),
                task: t.id,
            });
        }
        // Line 24: owner := null (the promise is about to be fulfilled).
        // SAFETY: as above.
        unsafe {
            ctx.promises
                .read_live(promise.slot(), |s| s.owner.store(0, Ordering::Release));
        }
        // Line 25: drop it from the task's owned ledger.
        t.ledger.release();
        Ok(())
    })
    .unwrap_or_else(|| {
        Err(PromiseError::NotOwner {
            promise: promise.id(),
            task: TaskId::NONE,
        })
    })
}

/// The outcome of the rule-3 obligation scan, before any alarm has been
/// recorded or any promise completed exceptionally.
pub(crate) struct Obligations {
    pub(crate) report: Option<Arc<OmittedSetReport>>,
    handles: Vec<ErasedPromiseRef>,
    /// Whether the task was cancelled (its own token or the context-wide
    /// shutdown token) by the time the scan ran.  A cancelled task's
    /// outstanding promises are *not* an omitted-set bug — the caller asked
    /// the subtree to stop mid-flight — so they settle as
    /// [`PromiseError::Cancelled`] without raising an alarm.  Waiters still
    /// wake: cancellation never strands an obligation.
    cancelled: bool,
}

/// Rule 3, first half: scan the task's ledger for promises it still owns and
/// has not fulfilled, producing (but not yet acting on) the omitted-set
/// report.
///
/// Promises listed in `exclude` are treated as "about to be fulfilled by the
/// caller" and are not reported (used by runtimes that complete a join/result
/// promise right after the user body ends).
pub(crate) fn compute_obligations(body: &TaskBody, exclude: &[PromiseId]) -> Obligations {
    let ctx = &body.ctx;
    let mut abandoned_handles: Vec<ErasedPromiseRef> = Vec::new();
    let mut abandoned: Vec<AbandonedPromise> = Vec::new();

    if let Ledger::List { entries, .. } = &body.ledger {
        for e in entries {
            if exclude.contains(&e.id()) {
                continue;
            }
            // The ledger keeps entries for promises that were since
            // transferred away or fulfilled; only promises still owned by
            // this task count (§6.2).
            if task::is_live_obligation(e, &ctx.promises, body.slot) {
                abandoned.push(AbandonedPromise {
                    promise: e.id(),
                    promise_name: e.name(),
                });
                abandoned_handles.push(e.clone());
            }
        }
    }

    let report = if !abandoned.is_empty() {
        Some(Arc::new(OmittedSetReport {
            task: body.id,
            task_name: body.name.clone(),
            promises: abandoned,
        }))
    } else {
        None
    };
    Obligations {
        report,
        handles: abandoned_handles,
        cancelled: body.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            || ctx.shutdown_token().is_cancelled(),
    }
}

impl Obligations {
    /// Records the omitted-set alarm (if any) in the context's alarm log.
    ///
    /// This runs *before* any epilogue or exceptional completion, so that by
    /// the time another task can observe this task as terminated (e.g. via a
    /// join), the alarm is already visible.
    ///
    /// A cancelled task records nothing: its outstanding promises are the
    /// expected debris of stopping a subtree mid-flight, not a policy
    /// violation (they still settle exceptionally in
    /// [`settle_obligations`], so no waiter hangs).
    pub(crate) fn record(&self, ctx: &crate::context::Context) {
        if self.cancelled {
            return;
        }
        if let Some(report) = &self.report {
            ctx.record_alarm(Alarm::OmittedSet(Arc::clone(report)));
        }
    }
}

/// Rule 3, second half: complete the abandoned promises exceptionally so
/// their waiters observe the bug instead of hanging (§6.2), and release the
/// task's arena slot.  The alarm itself has already been recorded by
/// [`Obligations::record`].
pub(crate) fn settle_obligations(
    mut body: TaskBody,
    obligations: Obligations,
) -> Option<Arc<OmittedSetReport>> {
    if obligations.cancelled {
        return settle_cancelled(body, obligations);
    }
    let ctx = Arc::clone(&body.ctx);
    ctx.with_event_log(|log| {
        log.record(
            EventKind::TaskEnd,
            body_event_info(&mut body),
            PromiseId::NONE,
            None,
        )
    });
    let report = obligations.report;

    if let Some(report) = &report {
        for h in &obligations.handles {
            h.complete_abandoned(PromiseError::OmittedSet(Arc::clone(report)));
        }
    }

    if !body.slot.is_null() {
        ctx.tasks.free(body.slot);
    }
    report
}

/// Exit path for a task that terminated while cancelled: every promise it
/// still owned completes exceptionally as [`PromiseError::Cancelled`] (so no
/// waiter hangs and no downstream obligation is stranded), the
/// `tasks_cancelled` counter is bumped, a [`EventKind::Cancel`] record lands
/// in the full event log (`seq == u64::MAX`: excluded from the canonical
/// projection, same reasoning as alarm events), and **no omitted-set alarm is
/// raised** — cancellation is a requested outcome, not a bug.
fn settle_cancelled(mut body: TaskBody, obligations: Obligations) -> Option<Arc<OmittedSetReport>> {
    let ctx = Arc::clone(&body.ctx);
    ctx.counters().record_task_cancelled();
    ctx.with_event_log(|log| {
        log.record(
            EventKind::Cancel,
            Some((body.id, body.name.clone(), u64::MAX)),
            PromiseId::NONE,
            None,
        );
        log.record(
            EventKind::TaskEnd,
            body_event_info(&mut body),
            PromiseId::NONE,
            None,
        );
    });
    let err = PromiseError::Cancelled { task: body.id };
    for h in &obligations.handles {
        h.complete_abandoned(err.clone());
    }
    if !body.slot.is_null() {
        ctx.tasks.free(body.slot);
    }
    None
}

/// Rule 3: the exit check.  Called exactly once per task when it terminates
/// (normally, by panic, or because its [`PreparedTask`] was dropped without
/// ever running).
pub(crate) fn finish_body(body: TaskBody, exclude: &[PromiseId]) -> Option<Arc<OmittedSetReport>> {
    let obligations = compute_obligations(&body, exclude);
    obligations.record(&body.ctx);
    settle_obligations(body, obligations)
}

/// Rule-3 exit for a job the runtime's teardown discarded un-run: a
/// submission refused by the closing admission gate, or a job swept out of a
/// queue after the workers exited.  The task was never allowed to start, so
/// its outstanding promises are shutdown's sanctioned debris, not a policy
/// violation — they settle as [`PromiseError::Cancelled`] (waiters still
/// wake) and **no omitted-set alarm** blames the task.  Contrast with a user
/// dropping a prepared-but-unsubmitted task on a live runtime, which keeps
/// the normal [`finish_body`] sweep and its alarm.
pub(crate) fn finish_body_shutdown(body: TaskBody) {
    let mut obligations = compute_obligations(&body, &[]);
    obligations.cancelled = true;
    settle_obligations(body, obligations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::promise::Promise;

    #[test]
    fn transfer_moves_ownership_to_child() {
        let ctx = Context::new_verified();
        let root = ctx.root_task(Some("root"));
        let p = Promise::<i32>::with_name("payload");
        assert_eq!(p.owner_task(), Some(root.id()));

        let prepared = prepare_task(Some("child"), vec![p.as_erased()]).unwrap();
        let child_id = prepared.id();
        assert_eq!(
            p.owner_task(),
            Some(child_id),
            "ownership moves at spawn time"
        );

        let p2 = p.clone();
        let handle = std::thread::spawn(move || {
            let scope = prepared.activate();
            p2.set(99).unwrap();
            scope.finish()
        });
        assert_eq!(p.get().unwrap(), 99);
        assert!(handle.join().unwrap().is_none());
        assert!(root.finish().is_none());
        assert_eq!(ctx.alarm_count(), 0);
        let snap = ctx.counter_snapshot();
        assert_eq!(snap.transfers, 1);
        assert_eq!(snap.tasks_spawned, 2);
    }

    #[test]
    fn transfer_of_unowned_promise_is_refused() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();

        // Move p to a first child…
        let first = prepare_task(Some("first"), vec![p.as_erased()]).unwrap();
        // …then the parent tries to move it again: refused, because the
        // parent no longer owns it.
        let err = prepare_task(Some("second"), vec![p.as_erased()]).unwrap_err();
        assert!(matches!(err, PromiseError::TransferNotOwned { .. }));

        // Let the first child fulfil its obligation on this same thread is
        // not possible (it's bound elsewhere); run it on a helper thread.
        let p2 = p.clone();
        std::thread::spawn(move || {
            let scope = first.activate();
            p2.set(1).unwrap();
            scope.finish()
        })
        .join()
        .unwrap();
        assert_eq!(p.get().unwrap(), 1);
    }

    #[test]
    fn transfer_of_fulfilled_promise_is_refused() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        p.set(1).unwrap();
        let err = prepare_task(None, vec![p.as_erased()]).unwrap_err();
        assert!(matches!(err, PromiseError::TransferNotOwned { .. }));
        assert_eq!(ctx.alarm_count(), 0);
    }

    #[test]
    fn duplicate_transfer_handles_are_collapsed() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        let prepared =
            prepare_task(None, vec![p.as_erased(), p.as_erased(), p.as_erased()]).unwrap();
        assert_eq!(ctx.counter_snapshot().transfers, 1);
        let p2 = p.clone();
        std::thread::spawn(move || {
            let scope = prepared.activate();
            p2.set(5).unwrap();
            scope.finish()
        })
        .join()
        .unwrap();
        assert_eq!(p.get().unwrap(), 5);
    }

    #[test]
    fn set_by_non_owner_is_refused() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        // Move ownership away; the parent may no longer set it.
        let prepared = prepare_task(Some("owner"), vec![p.as_erased()]).unwrap();
        let err = p.set(1).unwrap_err();
        assert!(matches!(err, PromiseError::NotOwner { .. }));

        let p2 = p.clone();
        std::thread::spawn(move || {
            let scope = prepared.activate();
            p2.set(2).unwrap();
            scope.finish()
        })
        .join()
        .unwrap();
        assert_eq!(p.get().unwrap(), 2);
    }

    #[test]
    fn set_outside_any_task_is_refused_under_policy() {
        let ctx = Context::new_verified();
        let p = {
            let _root = ctx.root_task(None);
            let p = Promise::<i32>::new();
            // Keep the promise alive past the root's exit check by fulfilling
            // it in a fresh (non-task) scope below: first transfer it to
            // nobody is impossible, so fulfil through the abandoned path.
            p
        };
        // The root terminated owning `p`: an omitted set was reported and the
        // promise was completed exceptionally.
        assert_eq!(ctx.alarm_count(), 1);
        assert!(matches!(p.get(), Err(PromiseError::OmittedSet(_))));
        // A further set attempt from a task-less thread is refused.
        assert!(matches!(p.set(1), Err(PromiseError::NotOwner { .. })));
    }

    #[test]
    fn omitted_set_is_reported_and_blamed() {
        let ctx = Context::new_verified();
        let root = ctx.root_task(Some("root"));
        let r = Promise::<i32>::with_name("r");
        let s = Promise::<i32>::with_name("s");

        // Listing 2 of the paper: t3 takes r and s, delegates s to t4 which
        // forgets to set it.
        let t3 = prepare_task(Some("t3"), vec![r.as_erased(), s.as_erased()]).unwrap();
        let (r2, s2) = (r.clone(), s.clone());
        let t3_report = std::thread::spawn(move || {
            let scope = t3.activate();
            let t4 = prepare_task(Some("t4"), vec![s2.as_erased()]).unwrap();
            let t4_report = std::thread::spawn(move || {
                let scope = t4.activate();
                // forgot to set s
                scope.finish()
            })
            .join()
            .unwrap();
            r2.set(1).unwrap();
            (scope.finish(), t4_report)
        })
        .join()
        .unwrap();

        let (t3_res, t4_res) = t3_report;
        assert!(t3_res.is_none(), "t3 fulfilled everything it still owned");
        let report = t4_res.expect("t4 must be blamed for the omitted set");
        assert_eq!(report.task_name.as_deref(), Some("t4"));
        assert_eq!(report.promises.len(), 1);
        assert_eq!(report.promises[0].promise_name.as_deref(), Some("s"));

        assert_eq!(r.get().unwrap(), 1);
        // The abandoned promise was completed exceptionally: the root's get
        // observes the omitted set instead of blocking forever.
        let err = s.get().unwrap_err();
        assert!(matches!(err, PromiseError::OmittedSet(_)));
        root.finish();
        assert_eq!(ctx.counter_snapshot().omitted_sets_detected, 1);
    }

    #[test]
    fn lazy_ledger_filters_fulfilled_entries_at_exit() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let ok = Promise::<i32>::new();
        let bad = Promise::<i32>::new();
        let prepared = prepare_task(Some("child"), vec![ok.as_erased(), bad.as_erased()]).unwrap();
        let (ok2, report) = std::thread::spawn(move || {
            let scope = prepared.activate();
            ok.set(1).unwrap();
            (ok, scope.finish())
        })
        .join()
        .unwrap();
        let report = report.expect("the unfulfilled promise must be reported");
        assert_eq!(report.promises.len(), 1);
        assert_eq!(report.promises[0].promise, bad.id());
        assert_eq!(ok2.get().unwrap(), 1);
    }

    #[test]
    fn dropping_a_prepared_task_without_running_it_still_checks_obligations() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        let prepared = prepare_task(Some("never-runs"), vec![p.as_erased()]).unwrap();
        drop(prepared);
        assert_eq!(ctx.alarm_count(), 1);
        assert!(matches!(p.get(), Err(PromiseError::OmittedSet(_))));
    }

    #[test]
    fn spawn_without_current_task_fails() {
        let err = prepare_task(None, vec![]).unwrap_err();
        assert!(matches!(err, PromiseError::NoCurrentTask { .. }));
    }

    #[test]
    fn baseline_mode_skips_all_checks() {
        let ctx = Context::new_unverified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        // No ownership: a "transfer" is accepted trivially and a non-owner
        // set succeeds.
        let prepared = prepare_task(Some("child"), vec![p.as_erased()]).unwrap();
        drop(prepared);
        p.set(3).unwrap();
        assert_eq!(p.get().unwrap(), 3);
        assert_eq!(ctx.alarm_count(), 0, "baseline never raises alarms");
    }
}
