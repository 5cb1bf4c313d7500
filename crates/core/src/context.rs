//! The verification context shared by all tasks and promises of one runtime.
//!
//! A [`Context`] owns the two slot arenas that hold the concurrently read
//! `owner` / `waitingOn` state, the verification mode, the event counters
//! and the alarm log.  A task runtime (the `promise-runtime` crate) creates
//! one context, installs its [`WorkStealingScheduler`] in it, and registers
//! every worker thread's current task against it; promises created inside
//! those tasks attach themselves to the same context.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam_utils::CachePadded;

use crate::alarms::AlarmSink;
use crate::arena::SlotArena;
use crate::chaos::{ChaosConfig, ChaosSite, ChaosState};
use crate::counters::{CounterSnapshot, Counters};
use crate::error::{DeadlockCycle, OmittedSetReport};
use crate::events::EventLog;
use crate::ids::{PromiseId, TaskId};
use crate::policy::VerificationMode;
use crate::scheduler::WorkStealingScheduler;
use crate::slots::{PromiseSlot, TaskSlot};
use crate::task;

/// An alarm raised by the verifier — one of the two bug classes of §1.2 —
/// or by the runtime's stall watchdog.
#[derive(Clone, Debug)]
pub enum Alarm {
    /// A deadlock cycle was detected by Algorithm 2.
    Deadlock(Arc<DeadlockCycle>),
    /// An omitted set was detected by Algorithm 1 rule 3.
    OmittedSet(Arc<OmittedSetReport>),
    /// A worker has been stuck on one job beyond the watchdog threshold.
    Stall(Arc<StallReport>),
}

impl Alarm {
    /// A short label for the alarm kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Alarm::Deadlock(_) => "deadlock",
            Alarm::OmittedSet(_) => "omitted-set",
            Alarm::Stall(_) => "stall",
        }
    }
}

impl std::fmt::Display for Alarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Alarm::Deadlock(c) => write!(f, "{c}"),
            Alarm::OmittedSet(r) => write!(f, "{r}"),
            Alarm::Stall(s) => write!(f, "{s}"),
        }
    }
}

/// A stall flagged by the runtime's watchdog: one worker has been executing
/// (or blocked inside) a single job for longer than the configured
/// threshold.  Unlike the two verifier alarms this is a *liveness heuristic*,
/// not a proof — a legitimately long-running job trips it too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// Index of the stalled worker within its scheduler — or, when
    /// [`helper`](Self::helper) is set, the slot in the scheduler's helper
    /// registry (the two index spaces are independent).
    pub worker: usize,
    /// How long the worker had been on its current job when flagged.
    pub busy_for: std::time::Duration,
    /// Jobs the worker had completed before getting stuck (progress stamp).
    pub jobs_executed: u64,
    /// Whether the stalled thread is a *helper* — a non-worker thread (e.g.
    /// a blocked root task) running a stolen job inline via steal-to-wait
    /// helping — rather than a pool worker.
    pub helper: bool,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stall: {} {} stuck on one job for {:.3}s (after {} completed jobs)",
            if self.helper { "helper" } else { "worker" },
            self.worker,
            self.busy_for.as_secs_f64(),
            self.jobs_executed,
        )
    }
}

/// What creating and submitting a task writes and reads, on a cache line of
/// its own: the id counters are bumped on every task / promise creation, so
/// the read-mostly fields every operation loads (`mode`, `chaos`,
/// `events`) must not share their line, and a spawn reads the scheduler
/// right after taking its ids, so it rides along.
struct SpawnLine {
    next_task_id: AtomicU64,
    next_promise_id: AtomicU64,
    scheduler: OnceLock<Arc<WorkStealingScheduler>>,
}

// Two id counters and a thin pointer: the line the spawn path writes fits
// one cache line (the `CachePadded` wrapper only pads it out).
const _: () = assert!(std::mem::size_of::<SpawnLine>() <= 64);

/// Shared state for one verified (or unverified) promise runtime.
pub struct Context {
    mode: VerificationMode,
    pub(crate) tasks: SlotArena<TaskSlot>,
    pub(crate) promises: SlotArena<PromiseSlot>,
    counters: Counters,
    alarms: AlarmSink<Alarm>,
    spawn: CachePadded<SpawnLine>,
    /// Steal-to-wait helping configuration (`None` = never help; runtimes
    /// install one — possibly `HelpConfig::disabled()` — at build time, the
    /// same set-once discipline as the scheduler).
    helping: OnceLock<crate::helping::HelpConfig>,
    /// Chaos fault-injection state (`None` = disabled; the hooks then cost
    /// one pointer load and branch — see [`crate::chaos`]).
    chaos: Option<Box<ChaosState>>,
    /// Event log (`None` = disabled, same discipline as `chaos`).
    events: Option<Box<EventLog>>,
    /// Context-wide cancellation, cancelled by deadline-aware shutdown:
    /// every blocking promise wait in this context observes it, so no getter
    /// can sleep through the runtime winding down.
    shutdown: crate::cancel::CancelToken,
    /// Whether the owning runtime has started tearing down.  Unlike the
    /// `shutdown` token (which deadline-aware shutdown cancels to *interrupt*
    /// running tasks), this flag changes nothing for work in flight — it only
    /// tells the never-ran drop path that a discarded job is shutdown's
    /// sanctioned abandonment, not a user bug (see
    /// `ownership::finish_body_shutdown`).
    shutting_down: std::sync::atomic::AtomicBool,
}

impl Context {
    /// Creates a new context with the given verification mode.
    pub fn new(mode: VerificationMode) -> Arc<Context> {
        Context::new_instrumented(mode, None, false)
    }

    /// Creates a context with optional chaos fault injection and event
    /// logging (the seam behind `RuntimeBuilder::chaos` /
    /// `RuntimeBuilder::event_log`).  Both instruments are fixed for the
    /// context's lifetime; when absent their per-operation hooks reduce to a
    /// `None` check.
    pub fn new_instrumented(
        mode: VerificationMode,
        chaos: Option<ChaosConfig>,
        event_log: bool,
    ) -> Arc<Context> {
        Arc::new(Context {
            mode,
            tasks: SlotArena::new(),
            promises: SlotArena::new(),
            counters: Counters::new(),
            alarms: AlarmSink::new(),
            spawn: CachePadded::new(SpawnLine {
                next_task_id: AtomicU64::new(1),
                next_promise_id: AtomicU64::new(1),
                scheduler: OnceLock::new(),
            }),
            helping: OnceLock::new(),
            chaos: chaos.map(|c| Box::new(ChaosState::new(c))),
            events: event_log.then(|| Box::new(EventLog::new())),
            shutdown: crate::cancel::CancelToken::new(),
            shutting_down: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Creates a context with the default (fully verified) configuration.
    pub fn new_verified() -> Arc<Context> {
        Context::new(VerificationMode::Full)
    }

    /// Creates a context with the unverified baseline configuration.
    pub fn new_unverified() -> Arc<Context> {
        Context::new(VerificationMode::Unverified)
    }

    /// The verification mode this context enforces.
    #[inline]
    pub fn mode(&self) -> VerificationMode {
        self.mode
    }

    /// The event counters of this context.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Convenience: a snapshot of the event counters.
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Installs the scheduler that runs spawned tasks and that blocking
    /// waits report to.  May only be called once; later calls are ignored
    /// and return `false`.
    pub fn set_scheduler(&self, scheduler: Arc<WorkStealingScheduler>) -> bool {
        self.spawn.scheduler.set(scheduler).is_ok()
    }

    /// The installed scheduler, if any.  A borrow: spawning and blocking
    /// through it leave the scheduler's reference count alone.
    #[inline]
    pub fn scheduler(&self) -> Option<&WorkStealingScheduler> {
        self.spawn.scheduler.get().map(|s| &**s)
    }

    /// Installs the steal-to-wait helping configuration (see
    /// [`crate::helping`]).  May only be called once; later calls are
    /// ignored and return `false`.
    pub fn set_help_config(&self, config: crate::helping::HelpConfig) -> bool {
        self.helping.set(config).is_ok()
    }

    /// The helping configuration, if one was installed *and* it is enabled.
    /// `None` means blocking waits park without helping (the pure §6.3
    /// park-and-grow path) — the check is one load and branch.
    #[inline]
    pub fn help_config(&self) -> Option<&crate::helping::HelpConfig> {
        self.helping.get().filter(|c| c.enabled)
    }

    /// Records an alarm in the context's alarm log.
    ///
    /// Lock-free: the event counter is bumped *before* the alarm is
    /// published into the sink (so a counter observed through a snapshot is
    /// never behind the log), and the push itself is one reserve `fetch_add`
    /// plus a release store — recorders never block each other or readers.
    pub fn record_alarm(&self, alarm: Alarm) {
        match &alarm {
            Alarm::Deadlock(_) => self.counters.record_deadlock(),
            Alarm::OmittedSet(_) => self.counters.record_omitted_set(),
            // Stalls are heuristic liveness flags, not verifier detections;
            // they carry no dedicated counter.
            Alarm::Stall(_) => {}
        }
        if let Some(log) = &self.events {
            // Peek (don't consume) the recording task's sequence number:
            // alarm attribution is racy (§3.1), so consuming would perturb
            // later seqs and break the canonical log's determinism.
            log.record_alarm(task::current_event_info_peek(self), alarm.kind());
        }
        self.alarms.push(alarm);
    }

    /// Returns a copy of every alarm recorded so far.
    ///
    /// Never blocks recorders.  Every alarm recorded *before* this call (in
    /// happens-before order — same thread, or a joined/synchronised-with
    /// thread) is included; alarms racing the snapshot may or may not be.
    pub fn alarms(&self) -> Vec<Alarm> {
        self.alarms.snapshot()
    }

    /// Number of alarms recorded so far.
    pub fn alarm_count(&self) -> usize {
        self.alarms.len()
    }

    /// Takes the next alarm off the context's shared tail, or `None` when
    /// nothing new is claimable right now.
    ///
    /// However many threads tail concurrently, each recorded alarm is
    /// returned by exactly one call (see [`AlarmSink::claim_next`]); an
    /// alarm mid-publication is delivered by a later call, never dropped.
    /// Runtimes wrap this as `Runtime::alarm_tail`.
    pub fn claim_next_alarm(&self) -> Option<Alarm> {
        self.alarms.claim_next()
    }

    /// Visits alarms from private cursor position `start` onwards without
    /// consuming them from the shared tail, returning the next cursor (see
    /// [`AlarmSink::read_from`]).  Lets independent observers — a metrics
    /// sampler's alarm feed, a logging hook — each see every alarm exactly
    /// once without stealing from `claim_next_alarm` readers.
    pub fn read_new_alarms(&self, start: usize, f: impl FnMut(&Alarm)) -> usize {
        self.alarms.read_from(start, f)
    }

    /// Retires fully-free arena chunks and frees those whose grace periods
    /// have elapsed (see [`SlotArena::reclaim`]); returns the bytes
    /// returned to the allocator by this call.
    ///
    /// Reclamation is explicit — the per-operation paths never pay for it.
    /// Long-running services call this at natural low points (after a
    /// workload phase completes, when a pool shrinks — the runtime's
    /// worker-exit hook does); repeated calls converge, since each one also
    /// nudges the global epoch forward.  Indices cached in the arenas'
    /// magazines (at most 1 024 per arena) are not drained and keep their
    /// chunks resident.
    pub fn reclaim_memory(&self) -> usize {
        self.tasks.reclaim() + self.promises.reclaim()
    }

    /// A snapshot of the task and promise arenas' summed memory counters.
    pub fn memory_stats(&self) -> crate::arena::ArenaMemoryStats {
        self.tasks
            .memory_stats()
            .merged(self.promises.memory_stats())
    }

    /// Number of currently live (registered, not yet terminated) tasks.
    ///
    /// Only meaningful when ownership tracking is enabled; the unverified
    /// baseline does not register tasks in the arena.
    pub fn live_tasks(&self) -> usize {
        self.tasks.live()
    }

    /// Number of currently live (created, not yet dropped) promises.
    pub fn live_promises(&self) -> usize {
        self.promises.live()
    }

    /// High-water mark of simultaneously live tasks.
    pub fn peak_live_tasks(&self) -> usize {
        self.tasks.peak_live()
    }

    /// High-water mark of simultaneously live promises.
    pub fn peak_live_promises(&self) -> usize {
        self.promises.peak_live()
    }

    /// The chaos configuration this context injects faults with, if any.
    pub fn chaos_config(&self) -> Option<&ChaosConfig> {
        self.chaos.as_ref().map(|s| s.config())
    }

    /// The event log of this context, if event logging is enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.events.as_deref()
    }

    /// The context-wide shutdown cancellation token.  Cancelling it wakes
    /// every blocked promise getter in this context with
    /// [`PromiseError::Cancelled`](crate::PromiseError::Cancelled); the
    /// runtime's deadline-aware shutdown pulls this lever when its drain
    /// deadline expires.
    pub fn shutdown_token(&self) -> &crate::cancel::CancelToken {
        &self.shutdown
    }

    /// Marks the context as tearing down.  Called by every runtime shutdown
    /// path (explicit, deadline-aware, and drop) *before* workers are
    /// stopped, so that any job the teardown discards un-run — a submission
    /// refused by the closing admission gate, or a queue swept after the
    /// workers exit — settles its promises as `Cancelled` instead of raising
    /// an omitted-set alarm against a task that was never allowed to start.
    /// Idempotent; does not affect running tasks (unlike cancelling
    /// [`shutdown_token`](Self::shutdown_token)).
    pub fn begin_shutdown(&self) {
        self.shutting_down
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether [`begin_shutdown`](Self::begin_shutdown) has been called.
    #[inline]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Injects the seeded chaos delay for `site` (no-op when chaos is off:
    /// one pointer load and branch).
    #[inline]
    pub(crate) fn chaos_delay(&self, site: ChaosSite) {
        if let Some(chaos) = &self.chaos {
            chaos.delay(site);
        }
    }

    /// Seeded chaos decision: panic the current task body at this hook?
    /// Always `false` when chaos (or the panic rate) is off.
    #[inline]
    pub(crate) fn chaos_should_panic(&self, site: ChaosSite) -> bool {
        match &self.chaos {
            Some(chaos) => chaos.should_panic(site),
            None => false,
        }
    }

    /// Seeded chaos decision: cancel the current task's token at this hook?
    #[inline]
    pub(crate) fn chaos_should_cancel(&self, site: ChaosSite) -> bool {
        match &self.chaos {
            Some(chaos) => chaos.should_cancel(site),
            None => false,
        }
    }

    /// Runs `f` against the event log when logging is enabled (one pointer
    /// load and branch otherwise).
    #[inline]
    pub(crate) fn with_event_log(&self, f: impl FnOnce(&EventLog)) {
        if let Some(log) = &self.events {
            f(log);
        }
    }

    pub(crate) fn next_task_id(&self) -> TaskId {
        TaskId(self.spawn.next_task_id.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn next_promise_id(&self) -> PromiseId {
        PromiseId(self.spawn.next_promise_id.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("mode", &self.mode)
            .field("live_tasks", &self.live_tasks())
            .field("live_promises", &self.live_promises())
            .field("alarms", &self.alarm_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CycleEntry;

    #[test]
    fn fresh_context_is_empty() {
        let ctx = Context::new_verified();
        assert_eq!(ctx.live_tasks(), 0);
        assert_eq!(ctx.live_promises(), 0);
        assert_eq!(ctx.alarm_count(), 0);
        assert!(ctx.scheduler().is_none());
        assert_eq!(ctx.counter_snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn ids_are_monotonic_and_unique() {
        let ctx = Context::new_verified();
        let a = ctx.next_task_id();
        let b = ctx.next_task_id();
        assert!(b > a);
        let p = ctx.next_promise_id();
        let q = ctx.next_promise_id();
        assert!(q > p);
    }

    #[test]
    fn alarms_are_recorded_and_counted() {
        let ctx = Context::new_verified();
        let cycle = Arc::new(DeadlockCycle {
            entries: vec![CycleEntry {
                task: TaskId(1),
                task_name: None,
                promise: PromiseId(1),
                promise_name: None,
            }],
        });
        ctx.record_alarm(Alarm::Deadlock(cycle));
        let report = Arc::new(OmittedSetReport {
            task: TaskId(2),
            task_name: None,
            promises: vec![],
        });
        ctx.record_alarm(Alarm::OmittedSet(report));
        assert_eq!(ctx.alarm_count(), 2);
        let alarms = ctx.alarms();
        assert_eq!(alarms[0].kind(), "deadlock");
        assert_eq!(alarms[1].kind(), "omitted-set");
        let snap = ctx.counter_snapshot();
        assert_eq!(snap.deadlocks_detected, 1);
        assert_eq!(snap.omitted_sets_detected, 1);
    }

    #[test]
    fn scheduler_can_only_be_installed_once() {
        let ctx = Context::new_verified();
        let first = WorkStealingScheduler::with_defaults();
        let second = WorkStealingScheduler::with_defaults();
        assert!(ctx.set_scheduler(Arc::clone(&first)));
        assert!(!ctx.set_scheduler(Arc::clone(&second)));
        let installed = ctx.scheduler().expect("a scheduler is installed");
        assert!(std::ptr::eq(installed, &*first));
        // The context holds one reference; reading it takes none.
        assert_eq!(Arc::strong_count(&first), 2);
        assert_eq!(Arc::strong_count(&second), 1);
    }
}
