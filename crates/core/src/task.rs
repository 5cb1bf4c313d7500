//! Tasks, the current-task thread binding, and the owned-promise ledger.
//!
//! The ownership policy revolves around *which task is currently running* on
//! a thread (`currentTask` in Algorithm 1) and, for each task, the set of
//! promises it currently owns (`owner⁻¹`, the `owned` list).  This module
//! provides:
//!
//! * [`TaskBody`] (crate-private): the thread-confined half of a task — its
//!   context handle, stable id, optional name, arena slot and owned ledger;
//! * the thread-local *current task* binding and accessors
//!   ([`current_task_id`], [`has_current_task`]);
//! * [`PreparedTask`]: a task that has been created (and has already received
//!   its transferred promises, per Algorithm 1 rule 2) but has not started
//!   running; it is `Send` and is what a runtime ships to a worker thread;
//! * [`TaskScope`]: the RAII guard for a running task; finishing it performs
//!   the rule-3 exit check (omitted-set detection);
//! * [`Context::root_task`]: registering the calling thread as a root task,
//!   the equivalent of the `Init` procedure of Algorithm 1.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::arena::SlotArena;
use crate::cancel::CancelToken;
use crate::collection::TransferList;
use crate::context::Context;
use crate::error::OmittedSetReport;
use crate::events::EventKind;
use crate::ids::{PromiseId, TaskId};
use crate::ownership;
use crate::pool_arc::ErasedPromiseRef;
use crate::refs::PackedRef;
use crate::slots::PromiseSlot;

/// Lazy-ledger prune watermark floor: a sweep is considered (and the
/// watermark re-armed) only once the ledger holds at least this many
/// entries, so small ledgers never pay for pruning at all.
pub(crate) const LEDGER_PRUNE_MIN: usize = 8;

/// The owned-promise ledger of one task (`owner⁻¹(t)` in the paper).
///
/// §6.2: the verified build keeps an actual list so that an omitted-set
/// alarm can *name* the unfulfilled promises, and — as a speed/space
/// trade-off — does not remove entries on transfer or fulfilment, instead
/// re-checking `p.owner == t` when the task terminates.
pub(crate) enum Ledger {
    /// No tracking at all (unverified baseline).
    Disabled,
    /// A list of owned promises, append-only between amortized prune sweeps
    /// and filtered at exit.
    List {
        /// Owned entries (possibly stale).  Inline-first: the common ledger
        /// (a task's transferred promises plus its completion promise) costs
        /// no allocation.
        entries: TransferList,
        /// The length at which the next append triggers a prune sweep
        /// (stale entries — fulfilled, or owned by another task — are
        /// exactly what the exit check skips, so removing them early is
        /// observationally equivalent).  Doubled after each sweep, so
        /// pruning is amortized O(1) per append while the ledger stays
        /// bounded by ~2× the task's *live* obligations.  Without this, a
        /// long-lived task that keeps spawning pins every child's pooled
        /// completion cell until its own exit — unbounded memory and a
        /// fresh block per spawn instead of recycling.
        prune_at: usize,
        /// How many entries this task has given up (set, or transferred to
        /// a child) since the last sweep — the only way an entry of its own
        /// ledger goes stale, so this counts the stale entries.  Drives
        /// [`Ledger::sweep_if_stale`].
        released: u32,
    },
}

/// Whether ledger entry `e` of the task in `owner_slot` is still that task's
/// obligation: unfulfilled, and not transferred away.  Lazy ledgers keep
/// entries past both events (§6.2), so every reader of one — the prune
/// sweeps, the helping gate, the exit check — filters with this.
pub(crate) fn is_live_obligation(
    e: &ErasedPromiseRef,
    promises: &SlotArena<PromiseSlot>,
    owner_slot: PackedRef,
) -> bool {
    if e.is_fulfilled() {
        return false;
    }
    // SAFETY: the ledger entry `e` keeps the occupancy live.
    let owner = unsafe { promises.read_live(e.slot(), |s| s.owner()) }.unwrap_or(PackedRef::NULL);
    owner == owner_slot
}

impl Ledger {
    pub(crate) fn new(enabled: bool) -> Ledger {
        if !enabled {
            return Ledger::Disabled;
        }
        Ledger::List {
            entries: TransferList::new(),
            prune_at: LEDGER_PRUNE_MIN,
            released: 0,
        }
    }

    /// Records that the task took ownership of `promise`.
    ///
    /// `promises` and `owner_slot` (the recording task's arena slot) drive
    /// the amortized prune sweep.
    pub(crate) fn append(
        &mut self,
        promise: ErasedPromiseRef,
        promises: &SlotArena<PromiseSlot>,
        owner_slot: PackedRef,
    ) {
        if matches!(self, Ledger::List { entries, prune_at, .. } if entries.len() >= *prune_at) {
            self.sweep(promises, owner_slot);
        }
        if let Ledger::List { entries, .. } = self {
            entries.push(promise);
        }
    }

    /// Drops the stale entries of a lazy ledger — fulfilled, or owned by
    /// another task: exactly what the exit check skips, so removing them
    /// early is observationally equivalent — and re-arms both sweep triggers.
    fn sweep(&mut self, promises: &SlotArena<PromiseSlot>, owner_slot: PackedRef) {
        if let Ledger::List {
            entries,
            prune_at,
            released,
        } = self
        {
            entries.retain(|e| is_live_obligation(e, promises, owner_slot));
            *prune_at = (entries.len() * 2).max(LEDGER_PRUNE_MIN);
            *released = 0;
        }
    }

    /// Records that the task gave up ownership of one promise (it was
    /// fulfilled or transferred to a child).  The entry stays until a sweep;
    /// the exit check re-reads owners.
    pub(crate) fn release(&mut self) {
        if let Ledger::List { released, .. } = self {
            *released = released.saturating_add(1);
        }
    }

    /// Sweeps a lazy ledger once at least `min_released` of its entries, and
    /// at least half of them, are stale.
    ///
    /// The append-triggered sweep alone never runs for a task that stops
    /// creating promises: a parent that spawns and then only joins would
    /// keep every entry it transferred away until its own exit, and an
    /// entry for a channel's first cell keeps the whole chain of cells
    /// behind it.  So the two places a ledger goes stale without growing
    /// check as well: a task about to park (`min_released` 1 — it is off the
    /// fast path, and what it pins it pins for the whole wait), and a spawn
    /// that has just transferred promises away ([`LEDGER_PRUNE_MIN`], so
    /// small ledgers pay nothing per spawn).  The one-half rule keeps the
    /// cost amortized O(1) per released entry — a task holding many live
    /// obligations does not re-walk them each time — and an unchanged
    /// ledger is never walked twice.
    pub(crate) fn sweep_if_stale(
        &mut self,
        min_released: u32,
        promises: &SlotArena<PromiseSlot>,
        owner_slot: PackedRef,
    ) {
        if matches!(self, Ledger::List { entries, released, .. }
            if *released >= min_released && *released as usize * 2 >= entries.len())
        {
            self.sweep(promises, owner_slot);
        }
    }

    /// Number of entries currently recorded (an upper bound on the number of
    /// owned promises).
    #[cfg(test)]
    pub(crate) fn recorded_len(&self) -> usize {
        match self {
            Ledger::Disabled => 0,
            Ledger::List { entries, .. } => entries.len(),
        }
    }
}

/// The thread-confined state of one task.
pub(crate) struct TaskBody {
    pub(crate) ctx: Arc<Context>,
    pub(crate) id: TaskId,
    /// Always a plain string (only promises get derived names).  The body
    /// travels inside the spawn's 256-byte job record, where a structured
    /// [`Name`](crate::Name) (32 bytes against 16) would come out of the
    /// 72 bytes left for the spawned closure.
    pub(crate) name: Option<Arc<str>>,
    /// The task's slot in the context's task arena ([`PackedRef::NULL`] when
    /// ownership tracking is disabled).
    pub(crate) slot: PackedRef,
    pub(crate) ledger: Ledger,
    /// Next per-task event-log sequence number (see [`crate::events`]); only
    /// advanced while the context's event log is enabled.
    pub(crate) event_seq: u64,
    /// Cancellation token observed by this task's blocking waits, if one was
    /// attached.  Children inherit their parent's token at spawn time
    /// (see [`ownership::prepare_task`]), so cancelling a token stops a whole
    /// subtree; a fresh token can be attached at any subtree root via
    /// [`PreparedTask::attach_cancel_token`].
    pub(crate) cancel: Option<CancelToken>,
    /// Whether this task was registered via [`Context::root_task`].  Chaos
    /// panic injection skips root tasks: a root body runs on the caller's own
    /// thread, so an injected panic would escape the harness instead of
    /// exercising containment.
    pub(crate) is_root: bool,
    /// The task's implicit completion promise, if the runtime's spawn
    /// wrapper fused one in ([`PromiseId::NONE`] otherwise).  The
    /// steal-to-wait eligibility gate ([`current_task_may_help`]) exempts
    /// this one entry from its "owns nothing unfulfilled" requirement: the
    /// completion promise is settled by this very task *after* its body
    /// ends, so it can never be what a helped job transitively joins on
    /// while the body is suspended helping.
    pub(crate) exempt_completion: PromiseId,
}

impl TaskBody {
    /// Allocates the arena slot (when tracking) and builds the body.  `name`
    /// runs only in a context that captures names.
    pub(crate) fn create(ctx: &Arc<Context>, name: impl FnOnce() -> Option<Arc<str>>) -> TaskBody {
        let id = ctx.next_task_id();
        let tracks = ctx.mode().tracks_ownership();
        let slot = if tracks {
            let s = ctx.tasks.alloc();
            // SAFETY: `s` was just allocated and is owned by this body until
            // retirement.
            unsafe {
                ctx.tasks
                    .read_live(s, |cell| cell.task_id.store(id.0, Ordering::Relaxed))
                    .expect("freshly allocated task slot is live");
            }
            s
        } else {
            PackedRef::NULL
        };
        // The baseline raises no alarm, so it keeps no names.
        let name = if tracks { name() } else { None };
        TaskBody {
            ctx: Arc::clone(ctx),
            id,
            name,
            slot,
            ledger: Ledger::new(tracks),
            event_seq: 0,
            cancel: None,
            is_root: false,
            exempt_completion: PromiseId::NONE,
        }
    }
}

thread_local! {
    /// The stack of tasks active on this thread.  More than one entry means
    /// the lower frames are *suspended helpers*: their blocked `get`s are
    /// running other tasks' jobs inline (see [`crate::helping`]).  Only the
    /// top entry is "the current task"; activation and retirement are
    /// strictly LIFO because a helped job runs to completion inside the
    /// helper's wait.
    static CURRENT: RefCell<Vec<TaskBody>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with mutable access to the current (topmost) task body, if any.
pub(crate) fn with_current_body<R>(f: impl FnOnce(&mut TaskBody) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow_mut().last_mut().map(f))
}

/// The id of the task currently bound to this thread, if any.
pub fn current_task_id() -> Option<TaskId> {
    with_current_body(|b| b.id)
}

/// Whether this thread currently has an active task.
pub fn has_current_task() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// The context of the task currently bound to this thread, if any.
pub fn current_context() -> Option<Arc<Context>> {
    with_current_body(|b| Arc::clone(&b.ctx))
}

/// Returns `(slot, id, name)` of the current task *if* it belongs to `ctx`
/// and is registered in the task arena.  Used by the deadlock detector.
pub(crate) fn current_task_detection_info(
    ctx: &Arc<Context>,
) -> Option<(PackedRef, TaskId, Option<Arc<str>>)> {
    with_current_body(|b| {
        if Arc::ptr_eq(&b.ctx, ctx) && !b.slot.is_null() {
            Some((b.slot, b.id, b.name.clone()))
        } else {
            None
        }
    })
    .flatten()
}

/// Event-log helper: `(id, name, next per-task sequence number)` of the
/// current task *if* it belongs to `ctx`.  Each call consumes one sequence
/// number, so it must be called exactly once per recorded event.
pub(crate) fn current_event_info(ctx: &Context) -> Option<(TaskId, Option<Arc<str>>, u64)> {
    with_current_body(|b| {
        if std::ptr::eq(Arc::as_ptr(&b.ctx), ctx as *const Context) {
            let seq = b.event_seq;
            b.event_seq += 1;
            Some((b.id, b.name.clone(), seq))
        } else {
            None
        }
    })
    .flatten()
}

/// Like [`current_event_info`] but **without** consuming a sequence number.
/// Used for alarm events: which task records an alarm is racy by design
/// (§3.1 — either of two cycle-closing `get`s may fire), so letting alarms
/// consume a sequence number would make every *later* event's `seq` depend
/// on the race outcome and break the deterministic canonical projection.
/// Alarm events are excluded from that projection, so sharing a `seq` with
/// the task's next regular event is harmless.
pub(crate) fn current_event_info_peek(ctx: &Context) -> Option<(TaskId, Option<Arc<str>>, u64)> {
    with_current_body(|b| {
        if std::ptr::eq(Arc::as_ptr(&b.ctx), ctx as *const Context) {
            Some((b.id, b.name.clone(), b.event_seq))
        } else {
            None
        }
    })
    .flatten()
}

/// The cancellation token of the current task *if* it belongs to `ctx`.
/// Blocking promise waits consult this so a `cancel()` on the task's token
/// interrupts them with [`PromiseError::Cancelled`](crate::PromiseError).
pub(crate) fn current_cancel_token(ctx: &Context) -> Option<CancelToken> {
    with_current_body(|b| {
        if std::ptr::eq(Arc::as_ptr(&b.ctx), ctx as *const Context) {
            b.cancel.clone()
        } else {
            None
        }
    })
    .flatten()
}

/// Whether the current task bound to this thread is a root task of `ctx`.
/// Chaos panic injection skips root tasks (their panic would escape the
/// runtime instead of exercising containment).
pub(crate) fn current_is_root(ctx: &Context) -> bool {
    with_current_body(|b| std::ptr::eq(Arc::as_ptr(&b.ctx), ctx as *const Context) && b.is_root)
        .unwrap_or(false)
}

/// Pushes `body` as the thread's current task.  Nesting is allowed: a
/// suspended helper's frame stays below on the stack while a helped task
/// runs (see [`crate::helping`]); retirement is strictly LIFO.
fn install_current(body: TaskBody) {
    CURRENT.with(|c| c.borrow_mut().push(body));
}

fn take_current() -> Option<TaskBody> {
    CURRENT.with(|c| c.borrow_mut().pop())
}

/// Whether the current task may run other tasks' jobs inline while its
/// `get` is blocked — the *eligibility gate* of steal-to-wait helping.
///
/// A task may help only when its ledger **proves** it owns no unfulfilled
/// promise (other than its own completion promise, settled by the runtime
/// wrapper after the body ends).  Soundness of the gate: ownership moves
/// only at spawn time, and a suspended helper spawns nothing while
/// suspended, so no promise can *become* owned by a buried frame — hence no
/// helped task's wait chain can ever lead to a promise only a buried frame
/// could fulfil, and helping can never create a hang that park-and-grow
/// would have avoided.  Tasks that fail the gate (they own live
/// obligations a helped job might transitively join on — Sieve-style
/// pipeline stages, for example) park and grow exactly as before.
///
/// `Ledger::Disabled` (unverified mode) tracks too little to prove
/// emptiness, so it never helps.
///
/// Known limitation (documented, watchdog-visible): the completion-promise
/// exemption assumes the completion is only joined through
/// `TaskHandle::join` *after* the task ends.  A handle smuggled to a job
/// that a buried owner then helps-run could, in principle, join a
/// completion whose owner is suspended below it on the same stack; the
/// stall watchdog flags the resulting wait, and none of the runtime's
/// workloads or the chaos generator produce that shape.
pub(crate) fn current_task_may_help(ctx: &Arc<Context>) -> bool {
    with_current_body(|b| {
        if !Arc::ptr_eq(&b.ctx, ctx) {
            return false;
        }
        match &b.ledger {
            Ledger::List { entries, .. } => entries.iter().all(|e| {
                e.id() == b.exempt_completion || !is_live_obligation(e, &b.ctx.promises, b.slot)
            }),
            Ledger::Disabled => false,
        }
    })
    .unwrap_or(false)
}

/// Gives the current task's ledger its pre-park sweep
/// ([`Ledger::sweep_if_stale`]) if the task belongs to `ctx`.  Called by
/// a blocking promise wait once it knows it cannot return at once.
pub(crate) fn sweep_ledger_before_park(ctx: &Context) {
    with_current_body(|b| {
        if std::ptr::eq(Arc::as_ptr(&b.ctx), ctx as *const Context) {
            b.ledger.sweep_if_stale(1, &b.ctx.promises, b.slot);
        }
    });
}

/// A task that has been created — and has already received ownership of its
/// transferred promises — but has not started executing yet.
///
/// Produced by [`ownership::prepare_task`]; a runtime moves it to a worker
/// thread and calls [`PreparedTask::activate`] there.  Dropping a
/// `PreparedTask` without activating it is equivalent to the task running an
/// empty body: the rule-3 exit check still runs, so any transferred promises
/// are reported as omitted sets rather than silently leaking obligations.
pub struct PreparedTask {
    pub(crate) body: Option<TaskBody>,
}

// A spawn's job record is this task, the completion handle and the body
// closure in one 256-byte block (see `crate::job::JOB_BLOCK_SIZE`): at 152
// bytes a body capturing up to 72 bytes fits.  A field added to `TaskBody`
// must break the build here rather than send every spawn to the heap.
const _: () = assert!(std::mem::size_of::<PreparedTask>() <= 152);

impl std::fmt::Debug for PreparedTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedTask")
            .field("id", &self.id())
            .field("name", &self.name())
            .finish()
    }
}

impl PreparedTask {
    /// The stable id assigned to this task.
    pub fn id(&self) -> TaskId {
        self.body.as_ref().map(|b| b.id).unwrap_or(TaskId::NONE)
    }

    /// The task's name, if one was captured.
    pub fn name(&self) -> Option<Arc<str>> {
        self.body.as_ref().and_then(|b| b.name.clone())
    }

    /// The cancellation token this task will observe, if any (inherited from
    /// its parent at spawn time, or attached explicitly).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.body.as_ref().and_then(|b| b.cancel.clone())
    }

    /// Attaches `token` as this task's cancellation token, replacing any
    /// inherited one.  Children spawned by this task inherit the new token,
    /// making this task the root of a freshly cancellable subtree.
    pub fn attach_cancel_token(&mut self, token: CancelToken) {
        if let Some(body) = self.body.as_mut() {
            body.cancel = Some(token);
        }
    }

    /// Marks `id` as this task's implicit completion promise, exempting it
    /// from the steal-to-wait eligibility gate (see
    /// [`crate::helping`]): the runtime wrapper settles it after the body
    /// ends, so it is legitimately still owned whenever the body blocks.
    pub fn set_exempt_completion(&mut self, id: PromiseId) {
        if let Some(body) = self.body.as_mut() {
            body.exempt_completion = id;
        }
    }

    /// Binds the task to the calling thread and returns the scope guard that
    /// must be finished (or dropped) when the task's body completes.
    ///
    /// Activation nests: when the calling thread already has an active task,
    /// that task must be a *suspended helper* (blocked in a promise wait
    /// that is running this job inline — see [`crate::helping`]); the new
    /// task becomes current and the suspended one resumes when this scope
    /// finishes.  Retirement is strictly LIFO.
    pub fn activate(mut self) -> TaskScope {
        let body = self
            .body
            .take()
            .expect("PreparedTask::activate called twice");
        let ctx = Arc::clone(&body.ctx);
        let id = body.id;
        let name = body.name.clone();
        let cancel = body.cancel.clone();
        install_current(body);
        ctx.with_event_log(|log| {
            log.record(
                EventKind::TaskStart,
                current_event_info(&ctx),
                PromiseId::NONE,
                None,
            )
        });
        TaskScope {
            ctx,
            id,
            name,
            cancel,
            finished: false,
        }
    }
}

impl Drop for PreparedTask {
    fn drop(&mut self) {
        if let Some(body) = self.body.take() {
            // The task never ran.  If the runtime is tearing down, the drop
            // is shutdown's sanctioned abandonment (a refused submission or
            // a swept queue): settle as cancelled, no alarm.  Otherwise the
            // owner discarded a task it promised to run — treat it as having
            // terminated immediately, with the normal rule-3 sweep.
            if body.ctx.is_shutting_down() {
                ownership::finish_body_shutdown(body);
            } else {
                let _ = ownership::finish_body(body, &[]);
            }
        }
    }
}

/// RAII guard for a task that is currently running on this thread.
///
/// Finishing the scope performs the Algorithm 1 rule-3 exit check: if the
/// task still owns unfulfilled promises, an omitted-set alarm is raised (and,
/// by default, the abandoned promises are completed exceptionally so their
/// waiters observe the failure).
pub struct TaskScope {
    ctx: Arc<Context>,
    id: TaskId,
    name: Option<Arc<str>>,
    cancel: Option<CancelToken>,
    finished: bool,
}

impl TaskScope {
    /// The id of the task this scope represents.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's name, if one was captured.
    pub fn name(&self) -> Option<Arc<str>> {
        self.name.clone()
    }

    /// The context this task belongs to.
    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    /// The cancellation token this task observes, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Whether this task's cancellation token (if any) has been pulled, or
    /// the context-wide shutdown token has.  A runtime wrapper checks this
    /// after the body returns to settle the completion promise as
    /// [`PromiseError::Cancelled`](crate::PromiseError) instead of delivering
    /// a value the caller asked to abandon.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            || self.ctx.shutdown_token().is_cancelled()
    }

    /// Records that this task's body panicked and was contained: bumps the
    /// `tasks_panicked` counter and (when the event log is on) records a
    /// [`EventKind::Panic`] event.  Panic events carry `seq == u64::MAX` and
    /// are excluded from the canonical projection — *whether* a seeded chaos
    /// panic fires at a given hook is deterministic, but which regular event
    /// it lands between is not, so letting it consume a per-task sequence
    /// number would perturb every later event's `seq`.
    pub fn record_panic(&self) {
        self.ctx.counters().record_task_panicked();
        self.ctx.with_event_log(|log| {
            log.record(
                EventKind::Panic,
                Some((self.id, self.name.clone(), u64::MAX)),
                PromiseId::NONE,
                None,
            )
        });
    }

    /// Ends the task, running the exit check.  Returns the omitted-set report
    /// if the task abandoned any promises.
    pub fn finish(mut self) -> Option<Arc<OmittedSetReport>> {
        self.finish_impl(&[])
    }

    /// Ends the task, running the exit check but treating the listed promises
    /// as "about to be fulfilled by the caller".
    ///
    /// This is used by runtimes whose task wrapper fulfills a completion
    /// promise *after* the user body ends: that promise is legitimately still
    /// owned at check time and must not be reported as an omitted set.
    pub fn finish_excluding(mut self, exclude: &[PromiseId]) -> Option<Arc<OmittedSetReport>> {
        self.finish_impl(exclude)
    }

    /// Ends the task in three steps:
    ///
    /// 1. run the rule-3 obligation scan (skipping `exclude`),
    /// 2. call `epilogue` with the scan's result **while the task is still
    ///    active**, so the epilogue may still `set` promises the task owns,
    /// 3. record the alarm, complete abandoned promises exceptionally, and
    ///    retire the task.
    ///
    /// Returns the omitted-set report (if any) and the epilogue's value.
    ///
    /// **Not the right tool for a runtime wrapper's join/completion
    /// promise.**  A promise `set` inside the epilogue becomes observable
    /// *before* step 3 retires the task, so a joiner woken by it can see a
    /// half-terminated task (still counted live, arena slot not yet freed).
    /// For that use case run [`finish_excluding`](Self::finish_excluding)
    /// first and settle the excluded promise afterwards with
    /// `Promise::fulfill_detached`, as `promise-runtime`'s task wrapper
    /// does.  `finish_with` remains for epilogues whose effects need not be
    /// ordered after retirement (logging, metrics, settling promises no one
    /// joins on).
    pub fn finish_with<R>(
        mut self,
        exclude: &[PromiseId],
        epilogue: impl FnOnce(Option<&Arc<OmittedSetReport>>) -> R,
    ) -> (Option<Arc<OmittedSetReport>>, R) {
        assert!(!self.finished, "TaskScope already finished");
        self.finished = true;
        let obligations = with_current_body(|body| {
            assert_eq!(
                body.id, self.id,
                "TaskScope does not match the thread's active task"
            );
            let obligations = ownership::compute_obligations(body, exclude);
            obligations.record(&body.ctx);
            obligations
        })
        .expect("TaskScope finished on a thread with no active task");
        let out = epilogue(obligations.report.as_ref());
        let body = take_current().expect("TaskScope finished on a thread with no active task");
        let report = ownership::settle_obligations(body, obligations);
        (report, out)
    }

    fn finish_impl(&mut self, exclude: &[PromiseId]) -> Option<Arc<OmittedSetReport>> {
        if self.finished {
            return None;
        }
        self.finished = true;
        let body = take_current().expect("TaskScope finished on a thread with no active task");
        assert_eq!(
            body.id, self.id,
            "TaskScope does not match the thread's active task"
        );
        ownership::finish_body(body, exclude)
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.finish_impl(&[]);
        }
    }
}

/// Alias emphasising the root-task use case of [`TaskScope`] (the guard
/// returned by [`Context::root_task`]).
pub type RootTask = TaskScope;

impl Context {
    /// Registers the calling thread as a *root task* of this context — the
    /// equivalent of `Init` in Algorithm 1 — and returns the scope guard.
    ///
    /// All promise creation and task spawning must happen while some task is
    /// active on the calling thread; runtimes call this (or spawn proper
    /// tasks) before running user code.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread already has an active task.  (Spawned
    /// tasks may nest through the helping path; a *root* may not — it is
    /// the bottom of the thread's task stack by definition.)
    pub fn root_task(self: &Arc<Self>, name: Option<&str>) -> RootTask {
        assert!(
            !has_current_task(),
            "a task is already active on this thread; a root task must be the first"
        );
        self.counters().record_task_spawned();
        let mut body = TaskBody::create(self, || Some(Arc::from(name.unwrap_or("root"))));
        body.is_root = true;
        let id = body.id;
        let name = body.name.clone();
        let ctx = Arc::clone(self);
        install_current(body);
        ctx.with_event_log(|log| {
            log.record(
                EventKind::TaskStart,
                current_event_info(&ctx),
                PromiseId::NONE,
                None,
            )
        });
        TaskScope {
            ctx,
            id,
            name,
            cancel: None,
            finished: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_task_binds_and_unbinds_the_thread() {
        let ctx = Context::new_verified();
        assert!(!has_current_task());
        let root = ctx.root_task(Some("main"));
        assert!(has_current_task());
        assert_eq!(current_task_id(), Some(root.id()));
        assert_eq!(root.name().as_deref(), Some("main"));
        assert_eq!(ctx.live_tasks(), 1);
        let report = root.finish();
        assert!(report.is_none());
        assert!(!has_current_task());
        assert_eq!(ctx.live_tasks(), 0);
    }

    #[test]
    fn root_task_drop_also_unbinds() {
        let ctx = Context::new_verified();
        {
            let _root = ctx.root_task(None);
            assert!(has_current_task());
        }
        assert!(!has_current_task());
        assert_eq!(ctx.live_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn nested_root_tasks_panic() {
        let ctx = Context::new_verified();
        let _a = ctx.root_task(None);
        let _b = ctx.root_task(None);
    }

    #[test]
    fn unverified_context_does_not_register_task_slots() {
        let ctx = Context::new_unverified();
        let root = ctx.root_task(Some("main"));
        assert_eq!(
            ctx.live_tasks(),
            0,
            "baseline mode must not allocate task cells"
        );
        // Names are not captured in the baseline configuration either.
        assert_eq!(root.name(), None);
        root.finish();
    }

    #[test]
    fn current_context_matches() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let cur = current_context().unwrap();
        assert!(Arc::ptr_eq(&cur, &ctx));
        assert!(current_task_detection_info(&ctx).is_some());
        let other = Context::new_verified();
        assert!(current_task_detection_info(&other).is_none());
    }

    #[test]
    fn ledger_modes_track_lengths() {
        let mut lazy = Ledger::new(true);
        let mut off = Ledger::new(false);
        assert_eq!(lazy.recorded_len(), 0);
        off.release();
        assert_eq!(off.recorded_len(), 0);
        lazy.release(); // no-op, nothing recorded
        assert_eq!(lazy.recorded_len(), 0);
    }

    /// The lazy ledger must not pin one entry per promise forever: a task
    /// that keeps creating and fulfilling promises stays bounded by the
    /// amortized prune sweep (~2x its live obligations), so the pooled
    /// promise-cell blocks recycle instead of accumulating until task exit.
    #[test]
    fn lazy_ledger_prunes_fulfilled_entries() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        for i in 0..1000u64 {
            let p = crate::Promise::<u64>::new();
            p.set(i).unwrap();
            let len = with_current_body(|b| b.ledger.recorded_len()).unwrap();
            assert!(
                len <= 2 * LEDGER_PRUNE_MIN,
                "lazy ledger grew unboundedly: {len} entries after {i} promises"
            );
        }
        assert_eq!(ctx.alarm_count(), 0);
    }

    /// Pruning never removes a live obligation: unfulfilled promises the
    /// task still owns survive every sweep and are reported at exit.
    #[test]
    fn lazy_ledger_prune_keeps_live_obligations() {
        let ctx = Context::new_verified();
        let root = ctx.root_task(None);
        // Many fulfilled promises force prune sweeps...
        for i in 0..100u64 {
            let p = crate::Promise::<u64>::new();
            p.set(i).unwrap();
        }
        // ...but the one abandoned promise must survive them.
        let abandoned = crate::Promise::<u64>::new();
        for i in 0..100u64 {
            let p = crate::Promise::<u64>::new();
            p.set(i).unwrap();
        }
        let report = root.finish().expect("the abandoned promise is reported");
        assert_eq!(report.promises.len(), 1);
        assert_eq!(report.promises[0].promise, abandoned.id());
        assert!(matches!(
            abandoned.get(),
            Err(crate::PromiseError::OmittedSet(_))
        ));
    }

    /// A task that stops creating promises still lets go of what it gave
    /// away: a wait that cannot return at once sweeps the ledger before it
    /// parks, once at least half of the entries are stale — not while fewer
    /// are, and not again until something else is released.
    #[test]
    fn lazy_ledger_is_swept_when_its_task_parks() {
        use std::time::Duration;
        // This test holds pooled promise cells across timed waits; keep it
        // out of the way of the tests that watch the block pool settle.
        let _guard = crate::test_support::pool::pool_serial();
        let recorded = || with_current_body(|b| b.ledger.recorded_len()).unwrap();
        let park = |on: &crate::Promise<u8>| {
            assert!(on.get_timeout(Duration::from_millis(1)).is_err());
        };
        let ctx = Context::new_verified();
        let root = ctx.root_task(None);
        let new = crate::Promise::<u8>::new;
        let kept: Vec<_> = (0..3).map(|_| new()).collect();
        let moved: Vec<_> = (0..4).map(|_| new()).collect();
        let handles = moved.iter().map(|p| p.as_erased()).collect::<Vec<_>>();
        let child = ownership::prepare_task(None, handles).unwrap();
        assert_eq!(recorded(), 7, "four stale: too few to sweep at a spawn");

        park(&kept[2]);
        assert_eq!(recorded(), 3, "four stale of seven: swept down to `kept`");
        // Setting is the other way to give an entry up.
        kept[0].set(0).unwrap();
        park(&kept[2]);
        assert_eq!(recorded(), 3, "one stale of three: left for later");
        kept[1].set(0).unwrap();
        park(&kept[2]);
        assert_eq!(recorded(), 1, "two of three: swept");
        // Nothing released since: the ledger is not walked again.
        park(&kept[2]);
        assert_eq!(recorded(), 1);

        kept[2].set(0).unwrap();
        std::thread::spawn(move || {
            let scope = child.activate();
            for p in &moved {
                p.set(1).unwrap();
            }
            scope.finish()
        })
        .join()
        .unwrap();
        assert!(root.finish().is_none());
        assert_eq!(ctx.alarm_count(), 0);
    }

    /// A spawn that leaves at least half of a ledger stale, and at least
    /// `LEDGER_PRUNE_MIN` entries, sweeps it on the spot: what the parent
    /// handed out is not pinned until it next parks.
    #[test]
    fn lazy_ledger_is_swept_by_a_spawn_that_hands_out_most_of_it() {
        let _guard = crate::test_support::pool::pool_serial();
        let recorded = || with_current_body(|b| b.ledger.recorded_len()).unwrap();
        let ctx = Context::new_verified();
        let root = ctx.root_task(None);
        let new = crate::Promise::<u8>::new;
        let kept: Vec<_> = (0..6).map(|_| new()).collect();
        let moved: Vec<_> = (0..10).map(|_| new()).collect();
        assert_eq!(recorded(), 16);
        let handles = moved.iter().map(|p| p.as_erased()).collect::<Vec<_>>();
        let child = ownership::prepare_task(None, handles).unwrap();
        assert_eq!(recorded(), 6, "ten stale of sixteen: swept down to `kept`");

        for p in &kept {
            p.set(0).unwrap();
        }
        std::thread::spawn(move || {
            let scope = child.activate();
            for p in &moved {
                p.set(1).unwrap();
            }
            scope.finish()
        })
        .join()
        .unwrap();
        assert!(root.finish().is_none());
        assert_eq!(ctx.alarm_count(), 0);
    }

    #[test]
    fn task_ids_are_unique_across_threads() {
        let ctx = Context::new_verified();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ctx = Arc::clone(&ctx);
            handles.push(std::thread::spawn(move || {
                let root = ctx.root_task(None);
                let id = root.id();
                root.finish();
                id
            }));
        }
        let mut ids: Vec<TaskId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }
}
