//! The lock-free deadlock-cycle detector (Algorithm 2).
//!
//! Every blocking `get p0` by a task `t0` runs [`verify_and_mark`] before
//! committing to the wait:
//!
//! 1. `t0` first *publishes* that it is waiting on `p0` by storing the
//!    promise reference into its own `waitingOn` cell (Algorithm 2, line 3).
//!    Publishing **before** verifying is what guarantees that the last task
//!    to arrive in a forming cycle can see the whole cycle (§3.1).
//! 2. It then walks the chain of alternating `owner` / `waitingOn` edges:
//!    the owner of `p0` is `t1`; if `t1` is itself blocked on `p1`, the owner
//!    of `p1` is `t2`; and so on.  Reaching a fulfilled promise (owner null)
//!    or a task that is not blocked (waitingOn null) proves progress is still
//!    possible and the verification succeeds.  Reaching `t0` again proves a
//!    cycle and an alarm is raised *at the moment the cycle is created*.
//! 3. After each `waitingOn` read the previous `owner` edge is re-read
//!    (line 11): if the promise changed owner or was fulfilled concurrently,
//!    the remainder of the traversed path is stale, progress is being made,
//!    and the verification succeeds.  This re-validation is what makes the
//!    detector *precise* (Theorem 5.1 — no false alarms).
//!
//! # Memory ordering (§5.1 mapped to Rust)
//!
//! The paper's three consistency requirements are obtained exactly as it
//! prescribes for C++ (Rust shares the C++11 memory model):
//!
//! * **Requirement 1** — the line-3 `waitingOn` publication is a `SeqCst`
//!   store (we additionally issue a `SeqCst` fence immediately after it,
//!   mirroring the TSO recipe, so that the publication is totally ordered
//!   with respect to the traversal loads that follow it);
//! * **Requirement 2** — the traversal's `waitingOn` read (line 9) is an
//!   `Acquire` load and every `owner` write (Algorithm 1 lines 3, 12, 24) is
//!   a `Release` store, so an observed `waitingOn` value makes the owner
//!   writes that preceded it visible to the subsequent re-read (line 11);
//! * **Requirement 3** — the `waitingOn` clear when `get` returns (line 18)
//!   is a `Release` store sequenced after the waiter has observed the
//!   fulfilment, so no task can observe the clear without the fulfilment.
//!
//! The arena's generation validation adds one further case on top of the
//! paper's algorithm: a traversal may encounter a task or promise cell that
//! has since been recycled — or whose whole chunk has since been reclaimed
//! ([`SlotArena::reclaim`]).  Such a reference fails validation (stale
//! generation, or an unmapped chunk-table entry) and is treated exactly
//! like the corresponding `null` (the task terminated / the promise was
//! resolved), which is always a "progress is being made" outcome and can
//! therefore never introduce a false alarm or mask a real cycle (tasks and
//! promises participating in a deadlock are blocked, so their slots cannot
//! be recycled and their chunks — holding live occupancies — cannot be
//! reclaimed).
//!
//! # Pins for memory, generation fences for identity
//!
//! The whole traversal runs under one epoch pin ([`crate::epoch`]): the pin
//! is what makes it safe to chase raw slot addresses while other threads
//! free slots and reclaim chunks — any chunk the traversal can reach stays
//! resident until the pin is dropped.  What the pin does **not** provide is
//! object identity: a slot the traversal holds an address for may still be
//! freed and re-allocated (its *memory* is pinned, its *occupancy* is not).
//! Identity is the generation check's job, and the traversal buys it as
//! cheaply as each read allows (see [`crate::arena`]): the `owner` loads of
//! lines 6/13 and the `waitingOn` load of line 9 validate once *before* the
//! load ([`SlotHandle::read_field`]) and may return a value belonging to a
//! **newer occupancy**; the line-11 `owner` re-read — formerly the one
//! seqlock double check in the loop — validates once *after* the load
//! ([`SlotHandle::read_gen_fenced`]): the earlier matching check on the
//! same handle (line 6/13) plus the trailing check bracket the load against
//! monotonic generations, which is exactly the seqlock guarantee at half
//! the validation cost.  Why this preserves Theorem 5.1 (no false alarms):
//!
//! * **The alarm test (`owner(p_i) == t0`) is immune to cross-occupancy
//!   values.**  `t0`'s packed reference (slot *and* generation) is only ever
//!   written into an `owner` field by `t0`'s own thread: promises are
//!   created owned by the creating task (Algorithm 1 line 3) and spawn-time
//!   transfer re-assigns ownership to the freshly created child (line 12),
//!   which cannot be `t0` because `t0`'s slot occupancy is live.  While `t0`
//!   executes the detector, its thread writes no owner fields, so *no* read
//!   — stale, fresh, or cross-occupancy — can fabricate `t0` out of thin
//!   air: observing `owner == t0` means some promise genuinely carried that
//!   edge, and with the line-11 confirmations behind it the cycle is real.
//! * **A cross-occupancy `waitingOn` value (line 9) cannot survive
//!   line 11.**  Reading a recycled task slot's fresh `waitingOn` means the
//!   old occupant `t_{i+1}` terminated, and the policy settles or clears
//!   every `owner` edge pointing at a task *before* freeing its slot
//!   (fulfilment clears it via rule 4; an omitted set settles the promise in
//!   `settle_obligations` before `tasks.free`).  The recycle itself orders
//!   those clears before the new occupant's `waitingOn` publication (free →
//!   free-list CAS → re-alloc → publication), so a traversal that read the
//!   new occupant's value observes, at its line-11 acquire re-read, that
//!   `owner(p_i)` is no longer `t_{i+1}` — and commits to the wait.  (A
//!   recycled task slot read *before* the new occupant publishes yields the
//!   reset value null — line 10 commits.  The old occupant's value is
//!   always null: tasks cannot terminate while blocked.)
//! * **Line 11 itself must not accept a cross-occupancy value.**  Its job
//!   is to confirm that `t_{i+1}` owned `p_i` *after* `waitingOn(t_{i+1})`
//!   was observed; a leading-check-only read of a recycled `p_i` could
//!   return the new occupant's owner, which can legitimately equal
//!   `t_{i+1}` (the same task may have created a new promise into the
//!   recycled slot), spuriously confirming a stale edge.  The trailing
//!   generation fence rejects exactly this: either the generation is
//!   unchanged since the line-6/13 match (the value is genuinely `p_i`'s,
//!   by monotonicity) or the read returns `None` and the traversal commits
//!   to the wait.
//!
//! The loop also resolves each promise reference once ([`SlotArena::resolve`])
//! and reuses the raw slot address for the line-11 re-read, and it no longer
//! builds the report path during traversal: cycle entries are collected by a
//! second, fully validated walk only after a cycle has been detected (the
//! tasks of a real cycle are permanently blocked, so the re-walk observes the
//! same cycle).  The resolvers' chunk caches are revalidated against the
//! arenas' remap stamps, so a chunk reclaimed and remapped mid-traversal is
//! refetched rather than read through its stale mapping (a live cycle
//! member always resolves through the mapping its occupancy lives in).
//!
//! [`SlotHandle::read_field`]: crate::arena::SlotHandle::read_field
//! [`SlotHandle::read_gen_fenced`]: crate::arena::SlotHandle::read_gen_fenced
//! [`SlotArena::resolve`]: crate::arena::SlotArena::resolve
//! [`SlotArena::reclaim`]: crate::arena::SlotArena::reclaim

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use crate::context::Context;
use crate::error::{CycleEntry, DeadlockCycle};
use crate::ids::{PromiseId, TaskId};
use crate::name::Name;
use crate::refs::PackedRef;

/// The inputs of one detector run: the current task (`t0`) and the promise it
/// is about to block on (`p0`).  The names are read only if a cycle is
/// reported; `p0_name` is borrowed because all the cells of a channel share
/// one label, and cloning it on every blocking `get` would bounce that
/// string's reference count between the sender's and the receiver's thread.
pub(crate) struct DetectionSubject<'a> {
    pub t0_slot: PackedRef,
    pub t0_id: TaskId,
    pub t0_name: Option<Arc<str>>,
    pub p0_slot: PackedRef,
    pub p0_id: PromiseId,
    pub p0_name: Option<&'a Name>,
}

/// Fully validated (seqlock) read of `owner(p)`, used by the post-detection
/// report walk.
#[inline]
fn load_owner_validated(ctx: &Context, promise: PackedRef) -> PackedRef {
    ctx.promises
        .read(promise, |s| {
            PackedRef::from_bits(s.owner.load(Ordering::Acquire))
        })
        .unwrap_or(PackedRef::NULL)
}

/// Fully validated (seqlock) read of `waitingOn(t)`, used by the
/// post-detection report walk.
#[inline]
fn load_waiting_on_validated(ctx: &Context, task: PackedRef) -> PackedRef {
    ctx.tasks
        .read(task, |s| {
            PackedRef::from_bits(s.waiting_on.load(Ordering::Acquire))
        })
        .unwrap_or(PackedRef::NULL)
}

/// Clears the `waitingOn` mark of a task (Algorithm 2 line 18).
#[inline]
pub(crate) fn clear_mark(ctx: &Context, task_slot: PackedRef) {
    // SAFETY: `task_slot` is the calling task's own slot, which stays live
    // until the task retires — after this call returns.
    unsafe {
        ctx.tasks
            .read_live(task_slot, |s| s.waiting_on.store(0, Ordering::Release));
    }
}

/// Algorithm 2: publish the waits-for edge of `t0 -> p0`, then verify that
/// committing to the wait does not complete a deadlock cycle.
///
/// * On success the mark is **left in place** (the caller is about to block)
///   and must be cleared with [`clear_mark`] once the wait ends.
/// * On failure the mark has already been cleared, and the detected cycle is
///   returned so the caller can raise the alarm.
pub(crate) fn verify_and_mark(
    ctx: &Context,
    subject: DetectionSubject<'_>,
) -> Result<(), Arc<DeadlockCycle>> {
    // Line 3: mark that t0 is (about to be) waiting on p0.  SeqCst store plus
    // a SeqCst fence give the publication the total order required by
    // consistency requirement 1 (the fence mirrors the TSO recipe of §5.1 and
    // orders the traversal loads below after the publication).
    // SAFETY: `t0_slot` is the calling task's own slot, live until the task
    // retires.
    unsafe {
        ctx.tasks.read_live(subject.t0_slot, |s| {
            s.waiting_on
                .store(subject.p0_slot.to_bits(), Ordering::SeqCst)
        });
    }
    fence(Ordering::SeqCst);

    // A task that is merely *part* of a cycle completed by another task could
    // traverse that foreign cycle forever (the paper tolerates this because
    // the completing task still raises the alarm; see the discussion after
    // Lemma 5.5).  Bounding the traversal by the number of live tasks makes
    // such a walk commit to the blocking wait instead, which is always safe.
    let cap = ctx
        .config()
        .max_traversal_factor
        .saturating_mul(ctx.tasks.live())
        .saturating_add(16);

    // The hot loop carries no report state: it only walks refs (the cycle
    // entries are collected by `collect_cycle` after detection).  Chunk-table
    // lookups are cached across steps (`cached_resolver`), each promise is
    // resolved once, and the line-11 re-read reuses the resolved slot
    // address — every load the loop issues is on the pointer-chasing
    // critical path or a generation validation.  One epoch pin covers the
    // whole traversal: it keeps every chunk the resolvers touch resident
    // (arena chunks are reclaimable now), and the resolver/handle lifetimes
    // are bounded by it (see `crate::epoch` and the module docs).
    let pin = crate::epoch::pin();
    let mut task_resolver = ctx.tasks.cached_resolver(&pin);
    let mut promise_resolver = ctx.promises.cached_resolver(&pin);
    let owner_field =
        |s: &crate::slots::PromiseSlot| PackedRef::from_bits(s.owner.load(Ordering::Acquire));

    let mut steps: u64 = 0;
    let mut p_i_handle = promise_resolver.resolve(subject.p0_slot);
    // Line 6 (single validation; see the module docs).
    let mut t_next = match p_i_handle {
        Some(h) => h.read_field(owner_field).unwrap_or(PackedRef::NULL),
        None => PackedRef::NULL,
    };
    let deadlocked = loop {
        // Loop condition (line 7) / alarm (line 15).
        if t_next == subject.t0_slot {
            break true;
        }
        // Line 8: p_i has been fulfilled — progress is being made.
        if t_next.is_null() {
            break false;
        }
        // Line 9: what is t_{i+1} waiting on? (acquire, single validation)
        let p_next = task_resolver
            .resolve(t_next)
            .and_then(|h| {
                h.read_field(|s| PackedRef::from_bits(s.waiting_on.load(Ordering::Acquire)))
            })
            .unwrap_or(PackedRef::NULL);
        // Line 10: t_{i+1} is not blocked — progress is being made.
        if p_next.is_null() {
            break false;
        }
        // Line 11: re-validate that t_{i+1} still owned p_i while it was
        // waiting on p_{i+1}; if ownership moved or the promise resolved,
        // the rest of the path is stale and it is safe to commit.  This is
        // the one read that must not return a cross-occupancy value
        // (module docs); a single trailing generation check suffices — the
        // pre-check is subsumed by the successful line-6/13 read on the
        // same handle (`read_gen_fenced` — generations are monotonic), and
        // memory safety comes from the traversal pin, not the check.
        let still_owner = match p_i_handle {
            Some(h) => h.read_gen_fenced(owner_field).unwrap_or(PackedRef::NULL),
            None => PackedRef::NULL,
        };
        if still_owner != t_next {
            break false;
        }
        steps += 1;
        if steps as usize > cap {
            break false;
        }
        // Lines 12–13: advance along the chain.
        p_i_handle = promise_resolver.resolve(p_next);
        t_next = match p_i_handle {
            Some(h) => h.read_field(owner_field).unwrap_or(PackedRef::NULL),
            None => PackedRef::NULL,
        };
    };

    ctx.counters().record_detector_run(steps);

    if deadlocked {
        // Line 15 failed: raise the alarm.  Collect the report path with a
        // second, fully validated walk — the tasks of a real cycle are all
        // blocked and cannot move, so the walk reproduces the cycle.  The
        // task will not block, so clear the mark afterwards (the `finally`
        // of Algorithm 2).
        let entries = collect_cycle(ctx, &subject, cap);
        clear_mark(ctx, subject.t0_slot);
        Err(Arc::new(DeadlockCycle { entries }))
    } else {
        // Commit to the blocking wait; the caller clears the mark when the
        // wait ends (normally or exceptionally).
        Ok(())
    }
}

/// Walks the (stable) detected cycle once more with fully validated reads,
/// producing the report entries `t0/p0, t1/p1, …` that
/// [`DeadlockCycle`] renders.  Bounded by `cap` defensively.
fn collect_cycle(ctx: &Context, subject: &DetectionSubject<'_>, cap: usize) -> Vec<CycleEntry> {
    let mut entries: Vec<CycleEntry> = vec![CycleEntry {
        task: subject.t0_id,
        task_name: subject.t0_name.clone(),
        promise: subject.p0_id,
        promise_name: subject.p0_name.map(Name::render),
    }];
    let mut p_i = subject.p0_slot;
    let mut t_next = load_owner_validated(ctx, p_i);
    while t_next != subject.t0_slot && !t_next.is_null() && entries.len() <= cap {
        let p_next = load_waiting_on_validated(ctx, t_next);
        if p_next.is_null() {
            break;
        }
        entries.push(CycleEntry {
            task: ctx
                .tasks
                .read(t_next, |s| s.task_id())
                .unwrap_or(TaskId::NONE),
            task_name: None,
            promise: ctx
                .promises
                .read(p_next, |s| s.promise_id())
                .unwrap_or(PromiseId::NONE),
            promise_name: None,
        });
        p_i = p_next;
        t_next = load_owner_validated(ctx, p_i);
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PromiseError;
    use crate::policy::PolicyConfig;
    use crate::promise::Promise;

    /// Builds a raw task cell directly in the arena (bypassing the TLS
    /// binding) so the detector can be exercised single-threadedly against a
    /// hand-constructed waits-for graph.
    fn raw_task(ctx: &Arc<Context>, id: u64) -> PackedRef {
        let slot = ctx.tasks.alloc();
        ctx.tasks
            .read(slot, |s| s.task_id.store(id, Ordering::Relaxed))
            .unwrap();
        slot
    }

    fn raw_promise(ctx: &Arc<Context>, id: u64, owner: PackedRef) -> PackedRef {
        let slot = ctx.promises.alloc();
        ctx.promises
            .read(slot, |s| {
                s.promise_id.store(id, Ordering::Relaxed);
                s.owner.store(owner.to_bits(), Ordering::Release);
            })
            .unwrap();
        slot
    }

    fn mark_waiting(ctx: &Arc<Context>, task: PackedRef, promise: PackedRef) {
        ctx.tasks
            .read(task, |s| {
                s.waiting_on.store(promise.to_bits(), Ordering::SeqCst)
            })
            .unwrap();
    }

    fn subject(t: PackedRef, tid: u64, p: PackedRef, pid: u64) -> DetectionSubject<'static> {
        DetectionSubject {
            t0_slot: t,
            t0_id: TaskId(tid),
            t0_name: None,
            p0_slot: p,
            p0_id: PromiseId(pid),
            p0_name: None,
        }
    }

    #[test]
    fn no_cycle_when_owner_is_not_blocked() {
        let ctx = Context::new_verified();
        let t0 = raw_task(&ctx, 1);
        let t1 = raw_task(&ctx, 2);
        let p0 = raw_promise(&ctx, 10, t1);
        // t1 is not waiting on anything.
        let r = verify_and_mark(&ctx, subject(t0, 1, p0, 10));
        assert!(r.is_ok());
        // The mark was left in place for the blocking wait.
        assert_eq!(ctx.tasks.read(t0, |s| s.waiting_on()).unwrap(), p0);
        clear_mark(&ctx, t0);
        assert!(ctx.tasks.read(t0, |s| s.waiting_on()).unwrap().is_null());
    }

    #[test]
    fn no_cycle_when_promise_already_fulfilled() {
        let ctx = Context::new_verified();
        let t0 = raw_task(&ctx, 1);
        let p0 = raw_promise(&ctx, 10, PackedRef::NULL);
        assert!(verify_and_mark(&ctx, subject(t0, 1, p0, 10)).is_ok());
    }

    #[test]
    fn detects_self_cycle() {
        // t0 awaits a promise it owns itself: a cycle of length 1.
        let ctx = Context::new_verified();
        let t0 = raw_task(&ctx, 1);
        let p0 = raw_promise(&ctx, 10, t0);
        let cycle = verify_and_mark(&ctx, subject(t0, 1, p0, 10)).unwrap_err();
        assert_eq!(cycle.len(), 1);
        assert_eq!(cycle.detecting_task(), TaskId(1));
        assert_eq!(cycle.detecting_promise(), PromiseId(10));
        // The mark is cleared on the alarm path.
        assert!(ctx.tasks.read(t0, |s| s.waiting_on()).unwrap().is_null());
    }

    #[test]
    fn detects_two_task_cycle_and_reports_both() {
        // t1 waits p1 (owned by t0); t0 now waits p0 (owned by t1).
        let ctx = Context::new_verified();
        let t0 = raw_task(&ctx, 1);
        let t1 = raw_task(&ctx, 2);
        let p0 = raw_promise(&ctx, 10, t1);
        let p1 = raw_promise(&ctx, 11, t0);
        mark_waiting(&ctx, t1, p1);
        let cycle = verify_and_mark(&ctx, subject(t0, 1, p0, 10)).unwrap_err();
        assert_eq!(cycle.len(), 2);
        let tasks: Vec<_> = cycle.tasks().collect();
        assert_eq!(tasks, vec![TaskId(1), TaskId(2)]);
        let promises: Vec<_> = cycle.promises().collect();
        assert_eq!(promises, vec![PromiseId(10), PromiseId(11)]);
        assert_eq!(ctx.counter_snapshot().detector_runs, 1);
    }

    #[test]
    fn detects_three_task_cycle() {
        let ctx = Context::new_verified();
        let t0 = raw_task(&ctx, 1);
        let t1 = raw_task(&ctx, 2);
        let t2 = raw_task(&ctx, 3);
        let p0 = raw_promise(&ctx, 10, t1);
        let p1 = raw_promise(&ctx, 11, t2);
        let p2 = raw_promise(&ctx, 12, t0);
        mark_waiting(&ctx, t1, p1);
        mark_waiting(&ctx, t2, p2);
        let cycle = verify_and_mark(&ctx, subject(t0, 1, p0, 10)).unwrap_err();
        assert_eq!(cycle.len(), 3);
        assert_eq!(
            cycle.tasks().collect::<Vec<_>>(),
            vec![TaskId(1), TaskId(2), TaskId(3)]
        );
    }

    #[test]
    fn long_chain_without_cycle_commits_to_wait() {
        // t0 -> p0 owned by t1 -> p1 owned by t2 -> ... -> t_n not blocked.
        let ctx = Context::new_verified();
        let n = 200;
        let tasks: Vec<_> = (0..n).map(|i| raw_task(&ctx, i as u64 + 1)).collect();
        let mut promises = Vec::new();
        for i in 0..n - 1 {
            // promise i is owned by task i+1
            let p = raw_promise(&ctx, 100 + i as u64, tasks[i + 1]);
            promises.push(p);
        }
        // every task i (1..n-1) waits on promise i
        for i in 1..n - 1 {
            mark_waiting(&ctx, tasks[i], promises[i]);
        }
        let r = verify_and_mark(&ctx, subject(tasks[0], 1, promises[0], 100));
        assert!(r.is_ok());
        let snap = ctx.counter_snapshot();
        assert!(
            snap.detector_steps as usize >= n - 3,
            "the whole chain should be traversed"
        );
    }

    #[test]
    fn concurrent_owner_change_is_not_a_false_alarm() {
        // t0 waits on p0 owned by t1, t1 waits on p1 owned by t0 — but p0's
        // ownership is moved to an unrelated task between the detector's two
        // owner reads.  Simulate the worst interleaving by changing ownership
        // before the detector runs its re-validation: build the state, then
        // run the detector from t1's perspective after p1 (owned by t0) has
        // been fulfilled.  The re-validation path must not raise an alarm.
        let ctx = Context::new_verified();
        let t0 = raw_task(&ctx, 1);
        let t1 = raw_task(&ctx, 2);
        let p0 = raw_promise(&ctx, 10, t1);
        // t0 appears to wait on p0…
        mark_waiting(&ctx, t0, p0);
        // …but p0 is then fulfilled concurrently (owner -> null).
        ctx.promises
            .read(p0, |s| s.owner.store(0, Ordering::Release))
            .unwrap();
        // Now t1 runs a get on a promise owned by t0.
        let p1 = raw_promise(&ctx, 11, t0);
        let r = verify_and_mark(&ctx, subject(t1, 2, p1, 11));
        // t0 is "waiting" on a fulfilled promise: the chain ends there, no
        // cycle, no alarm.
        assert!(r.is_ok());
    }

    #[test]
    fn traversal_of_foreign_cycle_is_bounded() {
        // A cycle exists between t1 and t2.  A third task t0 waits on a
        // promise owned by t1; its traversal enters the foreign cycle and
        // must terminate (bounded) without alarming.
        let ctx = Context::new(PolicyConfig {
            max_traversal_factor: 2,
            ..PolicyConfig::verified()
        });
        let t0 = raw_task(&ctx, 1);
        let t1 = raw_task(&ctx, 2);
        let t2 = raw_task(&ctx, 3);
        let p1 = raw_promise(&ctx, 11, t2); // t1 waits p1 owned by t2
        let p2 = raw_promise(&ctx, 12, t1); // t2 waits p2 owned by t1
        mark_waiting(&ctx, t1, p1);
        mark_waiting(&ctx, t2, p2);
        let p0 = raw_promise(&ctx, 10, t1); // t0 waits p0 owned by t1
        let r = verify_and_mark(&ctx, subject(t0, 1, p0, 10));
        assert!(r.is_ok(), "a cycle not involving t0 must not alarm t0");
    }

    #[test]
    fn end_to_end_cycle_with_real_promises_and_threads() {
        // Reproduces Listing 1 of the paper with real Promise objects and two
        // OS threads: the root task owns p, the child owns q; the child gets
        // p then sets q, the root gets q then sets p.  Exactly one of the two
        // gets must raise a deadlock alarm.
        use crate::ownership;
        use std::sync::mpsc;

        let ctx = Context::new_verified();
        let root = ctx.root_task(Some("root"));
        let p = Promise::<i32>::with_name("p");
        let q = Promise::<i32>::with_name("q");

        let prepared = ownership::prepare_task(Some("t2"), vec![q.as_erased()]).unwrap();
        let (tx, rx) = mpsc::channel();
        let p2 = p.clone();
        let q2 = q.clone();
        let child = std::thread::spawn(move || {
            let scope = prepared.activate();
            let got = p2.get();
            let outcome = match got {
                Ok(_) => {
                    q2.set(1).unwrap();
                    Ok(())
                }
                Err(e) => {
                    // Child detected the deadlock: it can still honour its own
                    // obligation before terminating.
                    q2.set(-1).unwrap();
                    Err(e)
                }
            };
            tx.send(()).unwrap();
            let _ = scope.finish();
            outcome
        });

        let root_outcome = q.get();
        let root_detected = match &root_outcome {
            Err(PromiseError::DeadlockDetected(_)) => true,
            Ok(_) | Err(_) => false,
        };
        // Fulfil our own obligation so the child (if blocked) can proceed.
        if !p.is_fulfilled() {
            p.set(7).unwrap();
        }
        rx.recv().unwrap();
        let child_outcome = child.join().unwrap();
        let child_detected = matches!(child_outcome, Err(PromiseError::DeadlockDetected(_)));

        assert!(
            root_detected || child_detected,
            "one of the two tasks must detect the deadlock cycle"
        );
        assert!(ctx.counter_snapshot().deadlocks_detected >= 1);
        assert!(ctx.alarms().iter().any(|a| a.kind() == "deadlock"));
        root.finish();
    }
}
