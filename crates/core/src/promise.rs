//! The promise primitive with the synchronous `get` / `set` API.
//!
//! A [`Promise<T>`] is a wrapper for a payload that is initially absent; each
//! `get` blocks until the first (and only) `set` supplies the payload
//! (§1.1).  Handles are cheaply cloneable and shareable across tasks; any
//! number of tasks may `get`, and — under the ownership policy — exactly the
//! owning task may `set`.
//!
//! Under a verifying [`Context`](crate::Context):
//!
//! * creation registers the promise with its creating task's ledger
//!   (Algorithm 1, rule 1);
//! * `set` checks ownership and clears it (rule 4), so a second `set` or a
//!   `set` by a non-owner fails;
//! * a blocking `get` runs the deadlock detector (Algorithm 2) before
//!   committing to the wait and returns
//!   [`PromiseError::DeadlockDetected`] instead of blocking forever if this
//!   `get` would complete a cycle;
//! * if the owning task terminates without fulfilling the promise, the
//!   runtime completes it exceptionally and every `get` observes
//!   [`PromiseError::OmittedSet`] (§6.2).
//!
//! # The lock-free payload cell
//!
//! The payload lives in a lock-free [`OneShotCell`](crate::cell::OneShotCell)
//! driven by an `AtomicU32` state machine
//! (`EMPTY → FILLING → SET | FAILED`, plus a `HAS_WAITERS` bit):
//!
//! * **`set` / `set_err`** is one compare-exchange (claiming the cell) + the
//!   payload write + one release `swap` publishing the terminal phase.  The
//!   wait queue is touched only when the swap's return value shows a parked
//!   waiter — fulfilling a promise nobody is (yet) blocked on performs no
//!   lock operation and no notification at all.
//! * **`get` / `try_get` / `wait` on a fulfilled promise** is a single
//!   acquire load of the state word followed by a plain payload read — no
//!   lock traffic, no stores, no cache-line ping-pong between concurrent
//!   readers.
//! * **Blocking waiters** announce themselves by OR-ing `HAS_WAITERS` into
//!   the state word and park on a futex-style
//!   [`WaitQueue`](crate::waitq::WaitQueue); the queue's enrol-before-check
//!   parking protocol makes the announce/park vs. publish/wake race lossless.
//!
//! ## Memory-ordering argument (the §5.1 requirements, restated)
//!
//! The paper's §5.1 requires that everything sequenced before a fulfilling
//! `set` is visible to any task that observes the fulfilment.  With the
//! mutex cell this came from the lock; with the lock-free cell it comes from
//! the state word: the payload write, the ownership clear (rule 4, done
//! before `fill` is entered) and the set-counter increment are all sequenced
//! before the **release** `swap` that publishes `SET`/`FAILED`, and every
//! observation of the fulfilment — the fulfilled fast path, the waiter-bit
//! RMW, the wait predicate, [`ErasedPromise::is_fulfilled`] — is an
//! **acquire** load of the same word.  Two invariants the rest of the system
//! leans on follow directly:
//!
//! * *counting before publishing*: `record_set` runs in the cell's
//!   pre-publish hook, so a measurement snapshot taken by a woken waiter can
//!   never miss the set that woke it;
//! * *waitingOn-clear ordering* (§5.1 requirement 3): a blocked `get` clears
//!   its detector mark only after its acquire observation of the fulfilment,
//!   so a third task that sees `waitingOn == null` (the clear uses a release
//!   store) also sees the promise as fulfilled — the detector never chases a
//!   stale edge past a resolved promise.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cell::{CellWait, OneShotCell};
use crate::chaos::ChaosSite;
use crate::context::{Alarm, Context};
use crate::detector;
use crate::error::PromiseError;
use crate::events::EventKind;
use crate::ids::{PromiseId, TaskId};
use crate::name::Name;
use crate::ownership;
use crate::pool_arc::{ErasedPromiseRef, PoolArc};
use crate::refs::PackedRef;
use crate::scheduler::WorkStealingScheduler;
use crate::task;

/// Type-erased view of a promise, used by the ownership machinery (ledgers,
/// transfers, exceptional completion) without knowledge of the payload type.
///
/// Users normally interact with [`Promise<T>`]; this trait surfaces in the
/// [`PromiseCollection`](crate::PromiseCollection) API so that heterogeneous
/// groups of promises can be transferred in one spawn.
pub trait ErasedPromise: Send + Sync {
    /// The promise's stable id.
    fn id(&self) -> PromiseId;
    /// The promise's name as a string, if one was captured.
    fn name(&self) -> Option<Arc<str>> {
        self.name_ref().map(Name::render)
    }
    /// The promise's name as captured, without turning it into a string.
    fn name_ref(&self) -> Option<&Name>;
    /// The promise's slot in its context's promise arena
    /// ([`PackedRef::NULL`] under the unverified baseline).
    fn slot(&self) -> PackedRef;
    /// The context the promise was created in.
    fn context(&self) -> &Arc<Context>;
    /// Whether the promise has been fulfilled (normally or exceptionally).
    fn is_fulfilled(&self) -> bool;
    /// Completes the promise exceptionally, bypassing ownership checks.
    ///
    /// Used by the runtime when the owning task dies (panic or omitted set)
    /// so that waiters observe the failure instead of blocking forever.
    /// Returns `true` if this call performed the completion.
    fn complete_abandoned(&self, err: PromiseError) -> bool;
}

pub(crate) struct PromiseInner<T, X = ()> {
    ctx: Arc<Context>,
    id: PromiseId,
    name: Option<Name>,
    slot: PackedRef,
    cell: OneShotCell<Result<T, PromiseError>>,
    /// Extension payload fused into the same allocation (see
    /// [`Promise::try_new_with`]); `()` for ordinary promises.
    extra: X,
}

impl<T: Send + Sync + 'static, X: Send + Sync + 'static> ErasedPromise for PromiseInner<T, X> {
    fn id(&self) -> PromiseId {
        self.id
    }
    fn name_ref(&self) -> Option<&Name> {
        self.name.as_ref()
    }
    fn slot(&self) -> PackedRef {
        self.slot
    }
    fn context(&self) -> &Arc<Context> {
        &self.ctx
    }
    fn is_fulfilled(&self) -> bool {
        self.cell.is_filled()
    }
    fn complete_abandoned(&self, err: PromiseError) -> bool {
        // Clear the owner edge so concurrent detector traversals treat the
        // promise as resolved.
        if !self.slot.is_null() {
            // SAFETY: `self` keeps this promise's occupancy live.
            unsafe {
                self.ctx
                    .promises
                    .read_live(self.slot, |s| s.owner.store(0, Ordering::Release));
            }
        }
        self.fill(Err(err), false).is_ok()
    }
}

impl<T, X> PromiseInner<T, X> {
    /// Fills the cell.  `count_set` records the event counter in the cell's
    /// pre-publish hook — after the fill is committed but *before* the
    /// release store that makes it observable — so a measurement snapshot
    /// taken by a woken waiter can never miss the set it was woken by (the
    /// same invariant the old mutex cell kept by counting inside its
    /// critical section).
    fn fill(&self, value: Result<T, PromiseError>, count_set: bool) -> Result<(), PromiseError> {
        let failed = value.is_err();
        self.cell
            .try_fill_with(value, failed, || {
                if count_set {
                    self.ctx.counters().record_set();
                }
            })
            .map_err(|_| PromiseError::AlreadyFulfilled { promise: self.id })
    }

    /// Blocks until the promise is fulfilled, the deadline passes, or the
    /// wait is cancelled.
    ///
    /// Two cancellation sources are observed: the current task's own
    /// [`CancelToken`](crate::CancelToken) (if one is attached) and the
    /// context-wide shutdown token.  Registration is *lazy*: the first,
    /// short wait slice parks unregistered — most producer/consumer waits
    /// (e.g. a Sieve chain step) resolve within it, and registering every
    /// such wait on the context-wide shutdown token would funnel the whole
    /// runtime's blocking gets through that token's registry mutex.  Only a
    /// wait that outlives the slice registers on the cell's wait queue, so a
    /// `cancel()` from another thread wakes the parked waiter losslessly
    /// (the same announce/park protocol a fulfilment uses); an unregistered
    /// waiter observes the cancellation on its slice-expiry re-check, so
    /// cancellation latency is bounded by the slice.  A fulfilment that
    /// races a cancellation wins the tie: a value that is already there is
    /// always delivered.
    fn block(&self, deadline: Option<Instant>) -> Result<(), PromiseError> {
        /// How long a blocking wait may park before it registers with the
        /// cancellation sources.  Tiny against the shutdown grace quantum
        /// (100 ms) and human-scale timeouts, huge against the µs-scale
        /// waits of a moving task chain.
        const UNREGISTERED_SLICE: Duration = Duration::from_millis(1);

        let task_token = task::current_cancel_token(&self.ctx);
        let shutdown = self.ctx.shutdown_token();
        let interrupted =
            || shutdown.is_cancelled() || task_token.as_ref().is_some_and(|t| t.is_cancelled());

        let slice_end = Instant::now() + UNREGISTERED_SLICE;
        let slice_deadline = Some(deadline.map_or(slice_end, |d| d.min(slice_end)));
        let mut wait = self.cell.wait_interruptible(slice_deadline, interrupted);
        if matches!(wait, CellWait::TimedOut) && deadline.is_none_or(|d| Instant::now() < d) {
            // Still unfulfilled after the slice: this is a genuinely long
            // wait, so pay the registrations once and park for real.
            let queue = self.cell.waiters();
            let _task_reg = task_token.as_ref().map(|t| t.register(queue));
            let _shutdown_reg = shutdown.register(queue);
            wait = self.cell.wait_interruptible(deadline, interrupted);
        }
        match wait {
            CellWait::Filled => Ok(()),
            CellWait::TimedOut => {
                self.ctx.counters().record_get_timed_out();
                Err(PromiseError::Timeout { promise: self.id })
            }
            CellWait::Interrupted => Err(PromiseError::Cancelled {
                task: task::current_task_id().unwrap_or(TaskId::NONE),
            }),
        }
    }

    /// The steal-to-wait helping loop (see [`crate::helping`]): before this
    /// wait parks, run pending jobs inline — the scheduler's `try_help` pops
    /// the worker's own deque, then steals, then the injector — re-checking
    /// the cell between jobs.  Returns `true` when the promise was fulfilled
    /// during helping, in which case the caller skips the park (and the §6.3
    /// grow hook) entirely.
    ///
    /// Every other outcome returns `false` and the caller falls through to
    /// the **unchanged** park path: no runnable work, the depth/stack bounds
    /// of [`crate::helping::enter`], the eligibility gate
    /// (`task::current_task_may_help` — the task must provably own no
    /// unfulfilled promise a helped job could transitively join on), a timed
    /// get's deadline expiring, or cancellation.  Timeouts and cancellations
    /// are deliberately *not* resolved here — the park path owns their
    /// error mapping and counters.
    fn help_while_blocked(&self, sched: &WorkStealingScheduler, deadline: Option<Instant>) -> bool {
        let Some(cfg) = self.ctx.help_config() else {
            return false;
        };
        if !task::current_task_may_help(&self.ctx) {
            return false;
        }
        let Some(_frame) = crate::helping::enter(cfg) else {
            return false;
        };
        let task_token = task::current_cancel_token(&self.ctx);
        let shutdown = self.ctx.shutdown_token();
        let interrupted =
            || shutdown.is_cancelled() || task_token.as_ref().is_some_and(|t| t.is_cancelled());
        matches!(
            self.cell
                .wait_helping(deadline, interrupted, || sched.try_help()),
            crate::cell::HelpWait::Filled
        )
    }
}

impl<T, X> Drop for PromiseInner<T, X> {
    fn drop(&mut self) {
        if !self.slot.is_null() {
            self.ctx.promises.free(self.slot);
        }
    }
}

/// A shareable handle to a one-shot, ownership-verified promise.
///
/// The second type parameter `X` (default `()`) is an *extension payload*
/// fused into the promise's single allocation — the seam behind the
/// runtime's fused task-completion cell, where `X` is a
/// [`ResultSlot`](crate::cell::ResultSlot) carrying the task body's typed
/// return value.  Ordinary promises are `Promise<T>` and never see it.
///
/// The single allocation itself is a *recycled refcount block*
/// ([`PoolArc`]): promise cells whose record fits a 256-byte pool block —
/// every ordinary promise and every fused completion cell with a
/// reasonably-sized result type — come from the sharded block magazines
/// of [`crate::job`] instead of the global allocator, so creating a promise
/// makes no allocator call in steady state.  Its diagnostic name, if any, is
/// a [`Name`]: a plain name is one string, and a derived one (cell *n* of a
/// labelled channel, a named task's completion promise) shares its base
/// string and is written out only when an alarm or the event log reads it.
pub struct Promise<T, X = ()> {
    inner: PoolArc<PromiseInner<T, X>>,
}

impl<T, X> Clone for Promise<T, X> {
    fn clone(&self) -> Self {
        Promise {
            inner: self.inner.clone(),
        }
    }
}

impl<T, X> std::fmt::Debug for Promise<T, X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promise")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("fulfilled", &self.inner.cell.is_filled())
            .finish()
    }
}

impl<T: Send + Sync + 'static> Promise<T> {
    /// Creates a new promise owned by the current task (Algorithm 1 rule 1).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread has no active task.  Enter a runtime
    /// (e.g. `Runtime::block_on`) or register a root task
    /// ([`Context::root_task`]) first.
    pub fn new() -> Self {
        Self::try_new(None).expect(
            "Promise::new requires a current task; run inside Runtime::block_on / a spawned task \
             or register a root task with Context::root_task",
        )
    }

    /// Creates a new named promise owned by the current task.  The name shows
    /// up in omitted-set and deadlock reports.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread has no active task.
    pub fn with_name(name: &str) -> Self {
        Self::try_new(Some(name)).expect(
            "Promise::with_name requires a current task; run inside Runtime::block_on / a spawned \
             task or register a root task with Context::root_task",
        )
    }

    /// Fallible form of [`Promise::new`] / [`Promise::with_name`].
    pub fn try_new(name: Option<&str>) -> Result<Self, PromiseError> {
        Self::try_new_with(name, ())
    }
}

impl<T: Send + Sync + 'static, X: Send + Sync + 'static> Promise<T, X> {
    /// Creates a promise with an extension payload fused into its single
    /// allocation (Algorithm 1 rule 1 applies exactly as for
    /// [`try_new`](Promise::try_new)).
    ///
    /// **Runtime-integration seam, not part of the user API**: its one
    /// intended caller is the runtime's spawn path, which fuses the typed
    /// task-result slot into the implicit completion promise so a spawn
    /// performs one allocation instead of two.  The payload is reachable
    /// through [`extra`](Promise::extra) and participates in nothing else —
    /// no policy rule, no detector edge.
    #[doc(hidden)]
    pub fn try_new_with(name: Option<&str>, extra: X) -> Result<Promise<T, X>, PromiseError> {
        Self::try_new_named(|| name.map(Name::plain), extra)
    }

    /// [`try_new_with`](Promise::try_new_with) for a structured [`Name`].
    /// `name` runs only in a context that captures names, so a caller that
    /// derives names (a channel naming its cells, a spawn naming its
    /// completion promise) does no naming work where none is kept.
    #[doc(hidden)]
    pub fn try_new_named(
        name: impl FnOnce() -> Option<Name>,
        extra: X,
    ) -> Result<Promise<T, X>, PromiseError> {
        task::with_current_body(|body| {
            let ctx = Arc::clone(&body.ctx);
            ctx.counters().record_promise_created();
            let id = ctx.next_promise_id();
            let tracks = ctx.mode().tracks_ownership();
            let slot = if tracks {
                let s = ctx.promises.alloc();
                // SAFETY: `s` was just allocated and is owned by this
                // promise until its drop.
                unsafe {
                    ctx.promises
                        .read_live(s, |cell| {
                            cell.promise_id.store(id.0, Ordering::Relaxed);
                            // Rule 1: the creating task is the initial owner.
                            cell.owner.store(body.slot.to_bits(), Ordering::Release);
                        })
                        .expect("freshly allocated promise slot is live");
                }
                s
            } else {
                PackedRef::NULL
            };
            // Names are read by alarms, error messages and the event log.
            // The baseline raises no alarm, so it keeps none and `name()`
            // reads `None` there.  Keeping one costs a string per named
            // promise (a channel's cells share their base string, see
            // `Name`), and nothing per `get`/`set`.
            let name = if tracks { name() } else { None };
            // The cell comes from the recycled refcount-block pool: no
            // global-allocator call for pool-sized records (see
            // `crate::pool_arc`).
            let inner = PoolArc::new(PromiseInner {
                ctx,
                id,
                name,
                slot,
                cell: OneShotCell::new(),
                extra,
            });
            if tracks {
                let slot_of_task = body.slot;
                body.ledger
                    .append(PoolArc::erase(&inner), &body.ctx.promises, slot_of_task);
            }
            Promise { inner }
        })
        .ok_or(PromiseError::NoCurrentTask {
            operation: "Promise::new",
        })
    }

    /// The extension payload fused into this promise's allocation (`()` for
    /// ordinary promises).  See [`try_new_with`](Promise::try_new_with).
    #[doc(hidden)]
    pub fn extra(&self) -> &X {
        &self.inner.extra
    }

    /// The promise's stable id.
    pub fn id(&self) -> PromiseId {
        self.inner.id
    }

    /// The promise's name, if one was captured.
    pub fn name(&self) -> Option<Arc<str>> {
        self.inner.name()
    }

    /// Whether the promise has been fulfilled (normally or exceptionally).
    pub fn is_fulfilled(&self) -> bool {
        self.inner.is_fulfilled()
    }

    /// The id of the task currently responsible for fulfilling this promise,
    /// or `None` if the promise has been fulfilled (or ownership tracking is
    /// disabled).  Intended for diagnostics and tests.
    pub fn owner_task(&self) -> Option<TaskId> {
        if self.inner.slot.is_null() {
            return None;
        }
        let ctx = &self.inner.ctx;
        let owner = ctx.promises.read(self.inner.slot, |s| s.owner())?;
        if owner.is_null() {
            return None;
        }
        let id = ctx.tasks.read(owner, |t| t.task_id())?;
        if id.is_some() {
            Some(id)
        } else {
            None
        }
    }

    /// Type-erased handle to this promise, usable in transfer lists and
    /// ledgers.  Shares the promise's pooled refcount block — erasing
    /// allocates nothing.
    pub fn as_erased(&self) -> ErasedPromiseRef {
        PoolArc::erase(&self.inner)
    }

    /// Whether a promise of this type keeps its record in one recycled pool
    /// block (compile-time layout check; see [`PoolArc::fits_pool_block`]).
    #[doc(hidden)]
    pub const fn fits_pool_block() -> bool {
        PoolArc::<PromiseInner<T, X>>::fits_pool_block()
    }

    /// Whether this promise's record came from the recycled block pool (as
    /// opposed to the heap fallback for oversized fused payloads).  Test
    /// seam.
    #[doc(hidden)]
    pub fn cell_is_pooled(&self) -> bool {
        self.inner.is_pooled()
    }

    /// The context this promise belongs to.
    pub fn context(&self) -> &Arc<Context> {
        &self.inner.ctx
    }

    /// Fulfills the promise with `value` (Algorithm 1 rule 4).
    ///
    /// Under a verifying context the calling task must currently own the
    /// promise; the call clears ownership so that a second `set` (by anyone)
    /// fails.
    pub fn set(&self, value: T) -> Result<(), PromiseError> {
        let ctx = &self.inner.ctx;
        // Chaos pre-set injection point: widen the window between the caller
        // deciding to fulfil and the rule-4 check + publication below.
        ctx.chaos_delay(ChaosSite::Set);
        self.chaos_fault_injection(ChaosSite::Set);
        if ctx.mode().tracks_ownership() {
            ownership::on_set(&*self.inner)?;
        }
        self.log_set_event();
        self.inner.fill(Ok(value), true)?;
        Ok(())
    }

    /// Completes the promise exceptionally with a message.  Ownership rules
    /// apply exactly as for [`set`](Promise::set); waiters observe
    /// [`PromiseError::Poisoned`].
    pub fn set_err(&self, message: impl Into<String>) -> Result<(), PromiseError> {
        let ctx = &self.inner.ctx;
        ctx.chaos_delay(ChaosSite::Set);
        if ctx.mode().tracks_ownership() {
            ownership::on_set(&*self.inner)?;
        }
        let err = PromiseError::Poisoned {
            promise: self.inner.id,
            message: Arc::from(message.into().as_str()),
        };
        self.log_set_event();
        self.inner.fill(Err(err), true)?;
        Ok(())
    }

    /// Completes the promise *successfully*, bypassing ownership checks and
    /// clearing the owner edge — the success-path sibling of
    /// [`ErasedPromise::complete_abandoned`].
    ///
    /// **This is a runtime-integration escape hatch, not part of the user
    /// API** (hidden from docs for that reason): calling it from task code
    /// defeats the ownership verification this library exists to provide —
    /// a non-owner can fulfil a promise without a [`NotOwner`] error or an
    /// alarm.  Its one intended caller is a runtime's task wrapper settling
    /// the implicit *completion promise*, whose natural fulfilment point is
    /// *after* the owning task has retired (exit check run, arena slot
    /// freed), when a policy-checked [`set`](Promise::set) is no longer
    /// possible.  User code must always use [`set`](Promise::set).
    ///
    /// Returns `false` if the promise was already fulfilled.
    ///
    /// [`NotOwner`]: crate::PromiseError::NotOwner
    #[doc(hidden)]
    pub fn fulfill_detached(&self, value: T) -> bool {
        if !self.inner.slot.is_null() {
            // SAFETY: `self` keeps this promise's occupancy live.
            unsafe {
                self.inner
                    .ctx
                    .promises
                    .read_live(self.inner.slot, |s| s.owner.store(0, Ordering::Release));
            }
        }
        // Counted like a normal set (in the pre-publish hook) so
        // baseline/verified event counts stay comparable.
        self.inner.fill(Ok(value), true).is_ok()
    }

    /// Blocks until the promise is fulfilled and returns a clone of the
    /// payload.
    ///
    /// Under full verification this is the entry point of the deadlock
    /// detector: if this `get` would complete a cycle of mutually blocked
    /// tasks, the call returns [`PromiseError::DeadlockDetected`] immediately
    /// instead of blocking.
    pub fn get(&self) -> Result<T, PromiseError>
    where
        T: Clone,
    {
        self.inner.ctx.counters().record_get();
        self.on_get_hooks();
        self.block_verified()?;
        self.read_value()
    }

    /// Like [`get`](Promise::get) but gives up after `timeout`, returning
    /// [`PromiseError::Timeout`].
    ///
    /// A timed wait is not an indefinite block, so it does not run the
    /// deadlock detector and does not publish a waits-for edge: a cycle that
    /// includes a timed wait resolves itself when the timeout fires, so
    /// reporting it as a deadlock would be a false alarm in spirit.
    pub fn get_timeout(&self, timeout: Duration) -> Result<T, PromiseError>
    where
        T: Clone,
    {
        self.inner.ctx.counters().record_get();
        self.on_get_hooks();
        // Fulfilled fast path before touching the clock: an already-settled
        // promise costs the same single acquire load as `get` — only a wait
        // that actually blocks pays for `Instant::now()` and the
        // interruptible-wait registration (guarded by the
        // `ops/get_timeout_fulfilled` micro benches).
        if self.inner.is_fulfilled() {
            return self.read_value();
        }
        self.block_with_scheduler_hooks(Some(Instant::now() + timeout))?;
        self.read_value()
    }

    /// Like [`get_timeout`](Promise::get_timeout) but with an absolute
    /// deadline — the natural form when one deadline bounds a whole batch of
    /// waits (a drain loop calling `get_timeout(remaining)` re-reads the
    /// clock and accumulates drift; `get_deadline(d)` does not).
    ///
    /// Same detector exemption as `get_timeout`: a deadline-bounded wait is
    /// not an indefinite block, so it publishes no waits-for edge.
    pub fn get_deadline(&self, deadline: Instant) -> Result<T, PromiseError>
    where
        T: Clone,
    {
        self.inner.ctx.counters().record_get();
        self.on_get_hooks();
        self.block_with_scheduler_hooks(Some(deadline))?;
        self.read_value()
    }

    /// Blocks until the promise is fulfilled, without cloning the payload.
    /// Returns an error if the promise was completed exceptionally.
    pub fn wait(&self) -> Result<(), PromiseError> {
        self.inner.ctx.counters().record_get();
        self.on_get_hooks();
        self.block_verified()?;
        self.peek_error()
    }

    /// Chaos pre-`get` injection + event-log record, shared by the three
    /// blocking entry points ([`get`](Promise::get), [`wait`](Promise::wait),
    /// [`get_timeout`](Promise::get_timeout)).  Runs *before* the
    /// fulfilled-fast-path check so injected delays widen the race between a
    /// reader's publish/verify sequence and a concurrent fulfilment.
    fn on_get_hooks(&self) {
        let ctx = &self.inner.ctx;
        ctx.chaos_delay(ChaosSite::Get);
        self.chaos_fault_injection(ChaosSite::Get);
        ctx.with_event_log(|log| {
            log.record(
                EventKind::Get,
                task::current_event_info(ctx),
                self.inner.id,
                self.inner.name.clone(),
            )
        });
    }

    /// Chaos *fault* injection (as opposed to the delay injection above):
    /// seeded decisions to cancel the current task's token or panic the
    /// current task body at this hook.  No-ops (without consuming a draw)
    /// when the corresponding rate is zero, so enabling delays alone leaves
    /// the draw sequence — and therefore existing campaign checksums —
    /// untouched.
    ///
    /// Root tasks are never panicked: a root body runs on the caller's own
    /// thread, outside the runtime's containment wrapper, so the panic would
    /// escape the harness instead of exercising recovery.
    fn chaos_fault_injection(&self, site: ChaosSite) {
        let ctx = &self.inner.ctx;
        if ctx.chaos_should_cancel(site) {
            if let Some(token) = task::current_cancel_token(ctx) {
                token.cancel();
            }
        }
        if ctx.chaos_should_panic(site) && !task::current_is_root(ctx) {
            panic!("chaos: injected panic at {site:?} hook");
        }
    }

    /// Records the `set` event.  Called after the rule-4 ownership check but
    /// *before* the fill is published: any event caused by the fulfilment (a
    /// woken waiter's next record) must carry a later timestamp, so a
    /// timestamp-sorted replay sees the set first.
    fn log_set_event(&self) {
        let ctx = &self.inner.ctx;
        ctx.with_event_log(|log| {
            log.record(
                EventKind::Set,
                task::current_event_info(ctx),
                self.inner.id,
                self.inner.name.clone(),
            )
        });
    }

    /// Non-blocking probe: `None` if the promise is not fulfilled yet.
    pub fn try_get(&self) -> Option<Result<T, PromiseError>>
    where
        T: Clone,
    {
        if !self.inner.is_fulfilled() {
            return None;
        }
        Some(self.read_value())
    }

    fn read_value(&self) -> Result<T, PromiseError>
    where
        T: Clone,
    {
        // One acquire load (inside `get_ref`) + a payload clone: the
        // fulfilled read path takes no lock and performs no stores.
        self.inner
            .cell
            .get_ref()
            .expect("read_value called before fulfilment")
            .clone()
    }

    fn peek_error(&self) -> Result<(), PromiseError> {
        match self
            .inner
            .cell
            .get_ref()
            .expect("peek_error called before fulfilment")
        {
            Ok(_) => Ok(()),
            Err(e) => Err(e.clone()),
        }
    }

    /// The blocking path shared by `get`, `get_timeout` and `wait`: run the
    /// deadlock detector (when enabled), then park on the payload cell.
    fn block_verified(&self) -> Result<(), PromiseError> {
        // Fast path: already fulfilled, no detection and no blocking needed.
        if self.inner.is_fulfilled() {
            return Ok(());
        }
        let ctx = &self.inner.ctx;
        let mark = if ctx.mode().tracks_ownership() && !self.inner.slot.is_null() {
            match task::current_task_detection_info(ctx) {
                Some((t0_slot, t0_id, t0_name)) => {
                    let subject = detector::DetectionSubject {
                        t0_slot,
                        t0_id,
                        t0_name,
                        p0_slot: self.inner.slot,
                        p0_id: self.inner.id,
                        p0_name: self.inner.name.as_ref(),
                    };
                    match detector::verify_and_mark(ctx, subject) {
                        Ok(()) => Some(t0_slot),
                        Err(cycle) => {
                            ctx.record_alarm(Alarm::Deadlock(cycle.clone()));
                            return Err(PromiseError::DeadlockDetected(cycle));
                        }
                    }
                }
                None => None,
            }
        } else {
            None
        };

        // Requirement 3 (§5.1): the waitingOn clear below must not become
        // visible before the promise's fulfilment.  The blocking wait
        // synchronises with the fulfilling `set` through the cell's state
        // word (the filler's release swap, the waiter's acquire load in the
        // wait predicate); the clear is sequenced after that observation and
        // uses a release store inside `clear_mark`, so a third task that
        // observes waitingOn == null also observes the fulfilment.
        struct ClearMark<'a> {
            ctx: &'a Context,
            slot: PackedRef,
        }
        impl Drop for ClearMark<'_> {
            fn drop(&mut self) {
                detector::clear_mark(self.ctx, self.slot);
            }
        }
        let _clear = mark.map(|slot| ClearMark { ctx, slot });

        self.block_with_scheduler_hooks(None)
    }

    /// Parks on the payload cell, bracketing the wait with the installed
    /// scheduler's blocked/unblocked hooks (the §6.3 seam: a growing pool must
    /// learn that one of its workers is about to block on a promise so queued
    /// tasks never starve behind it).
    fn block_with_scheduler_hooks(&self, deadline: Option<Instant>) -> Result<(), PromiseError> {
        if self.inner.is_fulfilled() {
            return Ok(());
        }
        // This wait is going to help or park: the moment a lazy ledger lets
        // go of what its task no longer owns (and, before the helping gate
        // below reads the ledger, shortens it).
        task::sweep_ledger_before_park(&self.inner.ctx);
        let scheduler = self.inner.ctx.scheduler();
        // Steal-to-wait: run pending work instead of parking, when the
        // helping config, the eligibility gate, and the nesting bounds all
        // allow it.  One branch (a `None` helping config) when off.
        if let Some(sched) = scheduler {
            if self.inner.help_while_blocked(sched, deadline) {
                return Ok(());
            }
        }
        struct Unblock<'a>(&'a WorkStealingScheduler);
        impl Drop for Unblock<'_> {
            fn drop(&mut self) {
                self.0.on_task_unblocked();
            }
        }
        let _guard = scheduler.map(|sched| {
            sched.on_task_blocked();
            Unblock(sched)
        });
        self.inner.block(deadline)
    }
}

impl<T, X> Promise<T, X> {
    /// Exclusive access to the value of a fulfilled promise nobody else
    /// holds: `None` while another handle exists (typed or erased, a ledger
    /// entry included), while the promise is unfulfilled, and after an
    /// exceptional completion.  For payloads that link to further promises
    /// (a channel's cells) and must unhook the link before they die, so a
    /// long chain is not torn down by recursion.
    #[doc(hidden)]
    pub fn value_mut(&mut self) -> Option<&mut T> {
        PoolArc::get_mut(&mut self.inner)?
            .cell
            .get_mut()?
            .as_mut()
            .ok()
    }
}

impl<T: Send + Sync + 'static> Default for Promise<T> {
    fn default() -> Self {
        Promise::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_get_returns_value() {
        let ctx = Context::new_verified();
        let root = ctx.root_task(Some("main"));
        let p = Promise::<i32>::new();
        assert!(!p.is_fulfilled());
        assert_eq!(p.owner_task(), Some(root.id()));
        p.set(5).unwrap();
        assert!(p.is_fulfilled());
        assert_eq!(p.get().unwrap(), 5);
        assert_eq!(p.owner_task(), None, "fulfilment clears ownership");
        root.finish();
    }

    #[test]
    fn double_set_fails_under_policy() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        p.set(1).unwrap();
        let err = p.set(2).unwrap_err();
        assert!(matches!(err, PromiseError::AlreadyFulfilled { .. }));
        assert_eq!(p.get().unwrap(), 1);
    }

    #[test]
    fn double_set_fails_without_policy_too() {
        let ctx = Context::new_unverified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        p.set(1).unwrap();
        assert!(matches!(
            p.set(2),
            Err(PromiseError::AlreadyFulfilled { .. })
        ));
    }

    #[test]
    fn set_err_poisons_waiters() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        p.set_err("checksum mismatch").unwrap();
        let err = p.get().unwrap_err();
        assert!(matches!(err, PromiseError::Poisoned { .. }));
        assert!(err.to_string().contains("checksum mismatch"));
        assert!(p.wait().is_err());
    }

    #[test]
    fn try_get_and_timeout() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<u8>::new();
        assert!(p.try_get().is_none());
        let err = p.get_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, PromiseError::Timeout { .. }));
        p.set(3).unwrap();
        assert_eq!(p.try_get().unwrap().unwrap(), 3);
        assert_eq!(p.get_timeout(Duration::from_millis(10)).unwrap(), 3);
    }

    #[test]
    fn promise_new_outside_task_fails() {
        assert!(matches!(
            Promise::<i32>::try_new(None),
            Err(PromiseError::NoCurrentTask { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "requires a current task")]
    fn promise_new_outside_task_panics() {
        let _ = Promise::<i32>::new();
    }

    #[test]
    fn names_are_captured_when_enabled() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::with_name("result");
        assert_eq!(p.name().as_deref(), Some("result"));

        // finish the root before switching contexts on the same thread
        drop(_root);
        // The unverified baseline keeps no names.
        let ctx2 = Context::new_unverified();
        let _root2 = ctx2.root_task(None);
        let q = Promise::<i32>::with_name("ignored");
        assert_eq!(q.name(), None);
        q.set(0).unwrap();
        // avoid omitted-set alarm for `p` (it belongs to the other, finished root)
    }

    #[test]
    fn cross_thread_set_wakes_getter() {
        let ctx = Context::new_verified();
        let root = ctx.root_task(None);
        let p = Promise::<String>::new();

        // Move ownership to a child task properly via prepare_task.
        let prepared = ownership::prepare_task(Some("setter"), vec![p.as_erased()]).unwrap();
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            let scope = prepared.activate();
            std::thread::sleep(Duration::from_millis(20));
            p2.set("hello".to_string()).unwrap();
            scope.finish()
        });
        assert_eq!(p.get().unwrap(), "hello");
        assert!(t.join().unwrap().is_none());
        root.finish();
        assert_eq!(ctx.alarm_count(), 0);
    }

    #[test]
    fn unverified_promises_have_no_slot_and_skip_ownership() {
        let ctx = Context::new_unverified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        assert_eq!(ctx.live_promises(), 0);
        assert_eq!(p.owner_task(), None);
        // Any task (or no task at all) can set in baseline mode.
        p.set(9).unwrap();
        assert_eq!(p.get().unwrap(), 9);
    }

    /// The whole point of the pooled refcount block: ordinary promises and
    /// fused completion cells (with reasonable result types) fit a pool
    /// block, so their creation performs no global allocation in steady
    /// state; oversized fused payloads fall back to the heap and still
    /// behave identically.
    #[test]
    fn promise_cells_come_from_the_block_pool() {
        use crate::cell::ResultSlot;
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);

        let plain = Promise::<u64>::new();
        assert!(plain.cell_is_pooled(), "ordinary promise cell is pooled");
        plain.set(1).unwrap();

        let fused: Promise<(), ResultSlot<u64>> =
            Promise::try_new_with(None, ResultSlot::new()).unwrap();
        assert!(fused.cell_is_pooled(), "fused completion cell is pooled");
        fused.extra().put(7).unwrap();
        assert!(fused.fulfill_detached(()));
        assert_eq!(fused.extra().take(), Some(7));

        // An oversized fused payload exceeds the 256-byte block: heap
        // fallback, same semantics.
        let big: Promise<(), ResultSlot<[u64; 64]>> =
            Promise::try_new_with(None, ResultSlot::new()).unwrap();
        assert!(!big.cell_is_pooled(), "oversized records fall back");
        big.extra().put([3; 64]).unwrap();
        assert!(big.fulfill_detached(()));
        assert_eq!(big.extra().take(), Some([3; 64]));
    }

    #[test]
    fn counters_track_gets_and_sets() {
        let ctx = Context::new_verified();
        let _root = ctx.root_task(None);
        let p = Promise::<i32>::new();
        p.set(1).unwrap();
        let _ = p.get().unwrap();
        let _ = p.get().unwrap();
        let snap = ctx.counter_snapshot();
        assert_eq!(snap.sets, 1);
        assert_eq!(snap.gets, 2);
        assert_eq!(snap.promises_created, 1);
    }
}
