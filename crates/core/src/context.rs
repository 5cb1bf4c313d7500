//! The verification context shared by all tasks and promises of one runtime.
//!
//! A [`Context`] owns the two slot arenas that hold the concurrently read
//! `owner` / `waitingOn` state, the policy configuration, the event counters
//! and the alarm log.  A task runtime (the `promise-runtime` crate) creates
//! one context, installs itself as the context's [`Executor`], and registers
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
use crate::job::Job;
use crate::policy::PolicyConfig;
use crate::slots::{PromiseSlot, TaskSlot};
use crate::task;

/// A job an [`Executor`] refused to schedule (it has shut down), handed back
/// to the submitter so that nothing is lost silently: the caller can run it
/// inline, settle its promises exceptionally, or drop it (dropping a spawned
/// task's job triggers the rule-3 exit machinery via `PreparedTask`'s drop).
pub struct RejectedJob(pub Job);

impl std::fmt::Debug for RejectedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RejectedJob(..)")
    }
}

/// The un-scheduled tail of a refused [`Executor::execute_batch`] call: every
/// job that was *not* accepted before the executor shut down, in submission
/// order.  Jobs accepted before the refusal point are already queued and will
/// run; the same never-drop-silently rule as [`RejectedJob`] applies to the
/// returned tail.
pub struct RejectedBatch(pub Vec<Job>);

impl std::fmt::Debug for RejectedBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RejectedBatch({} jobs)", self.0.len())
    }
}

/// Something that can run a task body asynchronously (a thread pool).
///
/// `promise-core` is runtime-agnostic; the runtime crate implements this
/// trait and registers itself via [`Context::set_executor`] so that
/// higher-level constructs can spawn tasks without depending on a concrete
/// pool type.
///
/// Besides scheduling, the trait is the *blocking seam* of the paper's §6.3
/// execution strategy: a thread pool for promises must grow whenever a task
/// is submitted and no non-blocked worker can pick it up, so the pool needs
/// to know when one of its workers blocks on a promise.  [`Promise::get`]
/// (and every other blocking wait) brackets the wait with
/// [`on_task_blocked`](Executor::on_task_blocked) /
/// [`on_task_unblocked`](Executor::on_task_unblocked) through the installed
/// executor; implementations use this to keep a blocked-worker count and to
/// spawn replacement workers so queued tasks never starve behind a blocked
/// one.
///
/// [`Promise::get`]: crate::Promise::get
pub trait Executor: Send + Sync {
    /// Schedules `job` to run asynchronously.
    ///
    /// Returns the job back as a [`RejectedJob`] if the executor can no
    /// longer run it (it has shut down).  Implementations must never drop a
    /// submitted job silently.
    fn execute(&self, job: Job) -> Result<(), RejectedJob>;

    /// Schedules a batch of jobs, amortising queue and wake-up costs over
    /// the whole group (the seam behind the runtime's `spawn_batch`).
    ///
    /// Jobs must become runnable in submission order-compatible fashion (an
    /// implementation may interleave them with other submissions, but must
    /// not reorder within the batch in a way that starves an earlier job
    /// behind a later one indefinitely).  On shutdown the unaccepted tail is
    /// handed back as a [`RejectedBatch`].
    ///
    /// The default implementation simply loops over
    /// [`execute`](Executor::execute); schedulers override it with a real
    /// batched enqueue.
    fn execute_batch(&self, jobs: Vec<Job>) -> Result<(), RejectedBatch> {
        let mut iter = jobs.into_iter();
        for job in iter.by_ref() {
            if let Err(RejectedJob(job)) = self.execute(job) {
                let mut rest = vec![job];
                rest.extend(iter);
                return Err(RejectedBatch(rest));
            }
        }
        Ok(())
    }

    /// Called by a blocking promise wait just before the calling thread
    /// parks.  The default implementation does nothing.
    fn on_task_blocked(&self) {}

    /// Called when a blocking promise wait resumes (fulfilment, timeout, or
    /// unwinding).  Calls are balanced with
    /// [`on_task_blocked`](Executor::on_task_blocked).
    fn on_task_unblocked(&self) {}

    /// Runs **at most one** pending job on the calling thread, returning
    /// whether a job ran.  This is the steal-to-wait helping seam (see
    /// [`crate::helping`]): a blocked promise wait calls it in a loop —
    /// re-checking the awaited cell between jobs — instead of parking
    /// straight away, so runnable work drains on the blocked worker's own
    /// stack rather than forcing §6.3 thread growth.
    ///
    /// Implementations must contain panics of the helped job (count them,
    /// keep the thread usable) and should prefer thread-local work (own
    /// deque) over shared work (injector, steals).  The default does
    /// nothing, which disables helping for executors that predate the seam.
    fn try_help(&self) -> bool {
        false
    }
}

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
/// the read-mostly fields every operation loads (`config`, `chaos`,
/// `events`) must not share their line, and a spawn reads the executor right
/// after taking its ids, so it rides along.
struct SpawnLine {
    next_task_id: AtomicU64,
    next_promise_id: AtomicU64,
    executor: OnceLock<Arc<dyn Executor>>,
}

/// Shared state for one verified (or unverified) promise runtime.
pub struct Context {
    config: PolicyConfig,
    pub(crate) tasks: SlotArena<TaskSlot>,
    pub(crate) promises: SlotArena<PromiseSlot>,
    counters: Counters,
    alarms: AlarmSink<Alarm>,
    spawn: CachePadded<SpawnLine>,
    /// Steal-to-wait helping configuration (`None` = never help; runtimes
    /// install one — possibly `HelpConfig::disabled()` — at build time, the
    /// same set-once discipline as the executor).
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
    /// Creates a new context with the given policy configuration.
    pub fn new(config: PolicyConfig) -> Arc<Context> {
        Context::new_instrumented(config, None, false)
    }

    /// Creates a context with optional chaos fault injection and event
    /// logging (the seam behind `RuntimeBuilder::chaos` /
    /// `RuntimeBuilder::event_log`).  Both instruments are fixed for the
    /// context's lifetime; when absent their per-operation hooks reduce to a
    /// `None` check.
    pub fn new_instrumented(
        config: PolicyConfig,
        chaos: Option<ChaosConfig>,
        event_log: bool,
    ) -> Arc<Context> {
        Arc::new(Context {
            config,
            tasks: SlotArena::new(),
            promises: SlotArena::new(),
            counters: Counters::new(),
            alarms: AlarmSink::new(),
            spawn: CachePadded::new(SpawnLine {
                next_task_id: AtomicU64::new(1),
                next_promise_id: AtomicU64::new(1),
                executor: OnceLock::new(),
            }),
            helping: OnceLock::new(),
            chaos: chaos
                .filter(ChaosConfig::is_active)
                .map(|c| Box::new(ChaosState::new(c))),
            events: event_log.then(|| Box::new(EventLog::new())),
            shutdown: crate::cancel::CancelToken::new(),
            shutting_down: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Creates a context with the default (fully verified) configuration.
    pub fn new_verified() -> Arc<Context> {
        Context::new(PolicyConfig::verified())
    }

    /// Creates a context with the unverified baseline configuration.
    pub fn new_unverified() -> Arc<Context> {
        Context::new(PolicyConfig::unverified())
    }

    /// The policy configuration this context enforces.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The event counters of this context.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Convenience: a snapshot of the event counters.
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Installs the executor used to run spawned tasks.  May only be called
    /// once; later calls are ignored and return `false`.
    pub fn set_executor(&self, executor: Arc<dyn Executor>) -> bool {
        self.spawn.executor.set(executor).is_ok()
    }

    /// The installed executor, if any.
    pub fn executor(&self) -> Option<Arc<dyn Executor>> {
        self.spawn.executor.get().cloned()
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
            .field("mode", &self.config.mode)
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
        assert!(ctx.executor().is_none());
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
            count: 1,
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
    fn executor_can_only_be_installed_once() {
        struct Inline;
        impl Executor for Inline {
            fn execute(&self, job: Job) -> Result<(), crate::context::RejectedJob> {
                job.run();
                Ok(())
            }
        }
        let ctx = Context::new_verified();
        assert!(ctx.set_executor(Arc::new(Inline)));
        assert!(!ctx.set_executor(Arc::new(Inline)));
        assert!(ctx.executor().is_some());
    }
}
