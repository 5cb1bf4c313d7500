//! The runtime object: a verification [`Context`] plus a growing scheduler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use promise_core::{
    Alarm, ArenaMemoryStats, ChaosConfig, Context, Executor, HelpConfig, LedgerMode,
    OmittedSetAction, PolicyConfig, PromiseError, StallReport, VerificationMode,
};

use crate::metrics::RunMetrics;
use crate::observe::{AlarmTail, ObserveConfig, Observer};
use crate::pool::{PoolConfig, PoolStats};
use crate::scheduler::{SchedulerConfig, StealOrder, WorkStealingScheduler};

/// Configuration of the opt-in stall watchdog (see
/// [`RuntimeBuilder::watchdog`]).
///
/// The watchdog is a monitor thread that samples each worker's progress
/// stamp every `poll_interval` and records an [`Alarm::Stall`] into the
/// context's alarm sink when a worker has been on one job for at least
/// `stall_threshold`.  Each busy episode is flagged at most once.  Unlike
/// the two verifier alarms this is a *liveness heuristic*, not a proof: a
/// legitimately long-running job trips it too, so pick a threshold well
/// above the workload's longest expected task.  Jobs that steal-to-wait
/// helping runs inline on a blocked joiner's thread (see
/// [`RuntimeBuilder::help`]) are sampled too — worker helpers through the
/// worker's own re-armed stamp, non-worker (root) helpers through a
/// transient stamp enrolled per helped job, reported with
/// `StallReport::helper` set.  Blocking done off the promise hooks remains
/// outside the watchdog's view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How long a worker may sit on one job before it is flagged.
    pub stall_threshold: Duration,
    /// How often the monitor thread samples the worker stamps.
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_threshold: Duration::from_secs(1),
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// The watchdog monitor thread plus its stop signal.  Stopping is prompt:
/// the monitor parks on a condvar, not a bare sleep.
struct Watchdog {
    stop: Arc<(parking_lot::Mutex<bool>, parking_lot::Condvar)>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(
        config: WatchdogConfig,
        ctx: Arc<Context>,
        sched: Arc<WorkStealingScheduler>,
    ) -> Watchdog {
        let stop = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("promise-watchdog".to_string())
            .spawn(move || {
                // (helper, slot) -> busy episode already flagged, so one
                // stuck job raises exactly one alarm however often it is
                // sampled.  Helper slots are their own index space, hence
                // the compound key.
                let mut flagged: std::collections::HashMap<(bool, usize), u64> =
                    std::collections::HashMap::new();
                let (lock, cv) = &*stop2;
                let mut stopped = lock.lock();
                while !*stopped {
                    cv.wait_for(&mut stopped, config.poll_interval);
                    if *stopped {
                        break;
                    }
                    for p in sched.worker_progress() {
                        match p.busy_for {
                            Some(busy_for) if busy_for >= config.stall_threshold => {
                                if flagged.get(&(p.helper, p.worker)) != Some(&p.episode) {
                                    flagged.insert((p.helper, p.worker), p.episode);
                                    ctx.record_alarm(Alarm::Stall(Arc::new(StallReport {
                                        worker: p.worker,
                                        helper: p.helper,
                                        busy_for,
                                        jobs_executed: p.jobs_executed,
                                    })));
                                }
                            }
                            _ => {
                                flagged.remove(&(p.helper, p.worker));
                            }
                        }
                    }
                }
            })
            .expect("failed to spawn watchdog thread");
        Watchdog {
            stop,
            join: Some(join),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock() = true;
        cv.notify_all();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// What a deadline-bounded shutdown accomplished (see
/// [`Runtime::shutdown_with_deadline`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Whether every worker exited (drained or cancelled) before the report
    /// was produced.  `false` means stragglers were detached: threads stuck
    /// in user code that neither the deadline nor cancellation could reach.
    pub clean: bool,
    /// Queued jobs dropped at the deadline without running.  Each was
    /// settled exceptionally through the task exit machinery — waiters
    /// observe an error, nothing is lost silently.
    pub dropped_jobs: usize,
    /// Tasks that exited via cancellation during the shutdown window.
    pub cancelled_tasks: u64,
    /// Tasks whose body panicked during the shutdown window.
    pub panicked_tasks: u64,
    /// Wall-clock time the shutdown took.
    pub wall: Duration,
}

/// Builder for [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeBuilder {
    policy: PolicyConfig,
    pool: PoolConfig,
    help: HelpConfig,
    chaos: Option<ChaosConfig>,
    event_log: bool,
    watchdog: Option<WatchdogConfig>,
    observe: Option<ObserveConfig>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            policy: PolicyConfig::verified(),
            pool: PoolConfig::default(),
            help: HelpConfig::default(),
            chaos: None,
            event_log: false,
            watchdog: None,
            observe: None,
        }
    }
}

impl RuntimeBuilder {
    /// Starts from the default (fully verified) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the verification mode (baseline / ownership-only / full).
    pub fn verification(mut self, mode: VerificationMode) -> Self {
        self.policy.mode = mode;
        self
    }

    /// Sets the owned-ledger representation (§6.2 trade-off).
    pub fn ledger(mut self, ledger: LedgerMode) -> Self {
        self.policy.ledger = ledger;
        self
    }

    /// Sets the reaction to omitted sets.
    pub fn omitted_set(mut self, action: OmittedSetAction) -> Self {
        self.policy.omitted_set = action;
        self
    }

    /// Replaces the whole policy configuration.
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// Configures steal-to-wait helping (see [`HelpConfig`]): a task whose
    /// `get` would park first loops running pending jobs — own deque, then
    /// bounded steals, then the injector — re-checking the awaited promise
    /// between jobs, and only parks (triggering the usual §6.3 grow hook)
    /// when no runnable work exists or the nesting/stack bounds are hit.
    ///
    /// **On by default** (`HelpConfig::default()`); pass
    /// [`HelpConfig::disabled()`] to turn it off, in which case the blocking
    /// `get` path pays exactly one untaken branch.  Helping only engages for
    /// tasks whose verification mode keeps a list ledger (the gate needs to
    /// prove the blocked task owes nothing another task could wait on), so
    /// unverified baseline runs park exactly as before.
    pub fn help(mut self, config: HelpConfig) -> Self {
        self.help = config;
        self
    }

    /// Enables the chaos fault-injection layer (see [`ChaosConfig`]):
    /// seeded delays before `get`/`set`/ownership transfers, plus spawn- and
    /// steal-order scrambling in the work-stealing scheduler.
    ///
    /// Chaos mode exists to *stress the verifier itself*: it widens the race
    /// windows Algorithm 2's publish/verify protocol must survive without
    /// changing any observable semantics.  A config with every knob off
    /// (`ChaosConfig::disabled()`) is equivalent to not calling this at all;
    /// when no chaos is configured the runtime pays one pointer-null branch
    /// per injection point.
    pub fn chaos(mut self, config: ChaosConfig) -> Self {
        self.chaos = Some(config);
        self
    }

    /// Enables the lock-free event log: every task start/end, spawn,
    /// ownership transfer, `get`, successful `set`, and alarm is recorded and
    /// can be exported as JSONL via [`Runtime::context`] →
    /// [`Context::event_log`].  Off by default (recording costs one atomic
    /// reservation per event).
    pub fn event_log(mut self, enabled: bool) -> Self {
        self.event_log = enabled;
        self
    }

    /// Enables the opt-in stall watchdog (see [`WatchdogConfig`]): a monitor
    /// thread samples each worker's progress stamp and records an
    /// [`Alarm::Stall`] when a worker sits on one job beyond the threshold.
    ///
    /// Off by default — a stall alarm is a liveness heuristic, not a verifier
    /// result, so it must never fire in workloads that did not ask for it.
    pub fn watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = Some(config);
        self
    }

    /// Enables the streaming observability plane (see [`ObserveConfig`] and
    /// [`crate::observe`]): a background sampler thread streams periodic
    /// counter/pool/memory snapshot diffs as a JSONL append feed and/or a
    /// Prometheus-style `/metrics` endpoint, and drains the alarm feed.
    ///
    /// Off by default.  The plane is pull-based — it reads counters the hot
    /// paths already maintain — so when disabled it costs literally nothing
    /// on any hot path (not even a branch), and when enabled it costs one
    /// background thread.
    pub fn observe(mut self, config: ObserveConfig) -> Self {
        self.observe = Some(config);
        self
    }

    /// How long idle pool workers linger before retiring.
    pub fn worker_keep_alive(mut self, keep_alive: Duration) -> Self {
        self.pool.keep_alive = keep_alive;
        self
    }

    /// Number of worker threads started eagerly.
    pub fn initial_workers(mut self, n: usize) -> Self {
        self.pool.initial_workers = n;
        self
    }

    /// Prefix for worker thread names.
    pub fn thread_name_prefix(mut self, prefix: &str) -> Self {
        self.pool.thread_name_prefix = prefix.to_string();
        self
    }

    /// Builds the runtime: creates the context, creates the scheduler, and
    /// installs the scheduler as the context's executor.
    pub fn build(self) -> Runtime {
        let chaos = self.chaos.filter(ChaosConfig::is_active);
        // Scheduler-level chaos: scrambled steals select the randomized
        // victim order; scrambled spawns are a seeded jitter the scheduler
        // applies to its worker-local fast path.
        let steal_order = match &chaos {
            Some(c) if c.scramble_steals => StealOrder::Randomized,
            _ => StealOrder::Sequential,
        };
        let spawn_jitter = match &chaos {
            Some(c) if c.scramble_spawns => Some(c.seed),
            _ => None,
        };
        let ctx = Context::new_instrumented(self.policy, chaos, self.event_log);
        // A retiring worker means the pool is shrinking: a natural low point
        // to sweep fully-free arena chunks (worker exit is rare, and reclaim
        // never blocks the data plane).  The worker itself has nothing to
        // hand back — the magazines it allocated through belong to the
        // arenas and the block pool, not to it.  Weak: the context holds the
        // scheduler as its executor, so a strong reference here would leak
        // both in a cycle.
        let mut pool_config = self.pool;
        let weak_ctx = Arc::downgrade(&ctx);
        pool_config.worker_exit_hook = Some(Arc::new(move || {
            if let Some(ctx) = weak_ctx.upgrade() {
                ctx.reclaim_memory();
            }
        }));
        let scheduler = WorkStealingScheduler::new(SchedulerConfig {
            base: pool_config,
            steal_order,
            spawn_jitter,
        });
        let installed = ctx.set_executor(Arc::clone(&scheduler) as Arc<dyn Executor>);
        debug_assert!(installed);
        let installed_help = ctx.set_help_config(self.help);
        debug_assert!(installed_help);
        let watchdog = self
            .watchdog
            .map(|config| Watchdog::spawn(config, Arc::clone(&ctx), Arc::clone(&scheduler)));
        let observer = self.observe.map(|config| {
            let scheduler = Arc::clone(&scheduler);
            Observer::spawn(
                config,
                Arc::clone(&ctx),
                Box::new(move || scheduler.stats()),
            )
        });
        Runtime {
            watchdog,
            observer,
            ctx,
            scheduler,
        }
    }
}

/// A promise runtime: verification context + growing scheduler.
///
/// Dropping the runtime shuts the scheduler down (waiting for queued tasks).
pub struct Runtime {
    /// First field so the monitor thread stops (and releases its `Arc`s to
    /// the context and scheduler) before the scheduler's drop-shutdown runs.
    watchdog: Option<Watchdog>,
    /// Declared before `scheduler` for the same drop-order reason as the
    /// watchdog; the explicit shutdown paths stop it *after* the scheduler
    /// drains so the final sample captures the end state.
    observer: Option<Observer>,
    ctx: Arc<Context>,
    scheduler: Arc<WorkStealingScheduler>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    /// A fully verified runtime with default settings.
    pub fn new() -> Runtime {
        Runtime::builder().build()
    }

    /// An unverified baseline runtime (the comparison point of the paper's
    /// evaluation).
    pub fn unverified() -> Runtime {
        Runtime::builder()
            .verification(VerificationMode::Unverified)
            .build()
    }

    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// The verification context of this runtime.
    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    /// Scheduler activity counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.scheduler.stats()
    }

    /// A live, exactly-once consumer of this runtime's alarms (see
    /// [`AlarmTail`]): each recorded alarm is yielded by exactly one `next`
    /// call across all concurrently tailing consumers, and `None` means
    /// *nothing new right now*, never exhaustion.  An alarm recorded while
    /// another is being read is neither dropped nor delivered twice.
    pub fn alarm_tail(&self) -> AlarmTail {
        AlarmTail::new(Arc::clone(&self.ctx))
    }

    /// The bound address of the observability plane's `/metrics` listener,
    /// when [`RuntimeBuilder::observe`] configured one (useful with port 0
    /// to discover the ephemeral port).
    pub fn observe_addr(&self) -> Option<std::net::SocketAddr> {
        self.observer.as_ref().and_then(Observer::addr)
    }

    /// Retires fully-free arena chunks and frees those past their grace
    /// periods, returning the bytes released by this call (see
    /// [`Context::reclaim_memory`]).
    ///
    /// Reclamation never runs on per-operation paths: long-lived services
    /// call this at natural low points (between workload phases, after a
    /// burst drains).  Worker-exit hooks also trigger it when the pool
    /// shrinks.
    pub fn reclaim_memory(&self) -> usize {
        self.ctx.reclaim_memory()
    }

    /// A snapshot of the arenas' memory counters (resident / peak-resident
    /// bytes, bytes freed, chunks reclaimed).
    pub fn memory_stats(&self) -> ArenaMemoryStats {
        self.ctx.memory_stats()
    }

    /// Runs `f` as the *root task* of this runtime on the calling thread
    /// (the `Init` procedure of Algorithm 1), returning its result.
    ///
    /// Promise creation and task spawning are only legal while some task is
    /// active, so workloads run inside `block_on` (or inside tasks spawned
    /// from it).  If the root task itself terminates while still owning
    /// unfulfilled promises, the omitted-set report is returned as an error
    /// (the closure's return value is discarded in that case).
    pub fn block_on<R>(&self, f: impl FnOnce() -> R) -> Result<R, PromiseError> {
        let root = self.ctx.root_task(Some("root"));
        let out = f();
        match root.finish() {
            None => Ok(out),
            Some(report) => Err(PromiseError::OmittedSet(report)),
        }
    }

    /// Like [`block_on`](Self::block_on), additionally measuring wall time
    /// and the event counts of the run (tasks, gets, sets, …), which is what
    /// the Table 1 harness consumes.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> Result<(R, RunMetrics), PromiseError> {
        let before = self.ctx.counter_snapshot();
        let start = Instant::now();
        let out = self.block_on(f)?;
        let wall = start.elapsed();
        let after = self.ctx.counter_snapshot();
        let metrics = RunMetrics {
            wall,
            counters: after.since(&before),
            pool: self.scheduler.stats(),
            peak_live_tasks: self.ctx.peak_live_tasks(),
            peak_live_promises: self.ctx.peak_live_promises(),
            memory: self.ctx.memory_stats(),
            detection: None,
        };
        Ok((out, metrics))
    }

    /// Shuts down the scheduler, waiting for queued tasks to finish.
    ///
    /// A job that raced admission and never ran (refused by the closing
    /// gate, or swept out of a queue after the workers exited) settles its
    /// promises as [`PromiseError::Cancelled`] — waiters wake, and no
    /// omitted-set alarm blames a task the shutdown itself discarded.
    pub fn shutdown(mut self) {
        // Stop the watchdog first: once workers start exiting, a slow
        // sample would race retirements for no benefit.
        self.watchdog.take();
        // Mark the context before the admission gate closes, so any job the
        // teardown discards un-run takes the sanctioned-abandonment exit.
        self.ctx.begin_shutdown();
        self.scheduler.shutdown();
        // Drain the observability plane last: its final sample (and alarm
        // sweep) then captures the run's end state.
        if let Some(mut observer) = self.observer.take() {
            observer.stop();
        }
    }

    /// Deadline-aware shutdown: stop admission, let in-flight work drain,
    /// and escalate at the deadline instead of waiting forever.
    ///
    /// Phases:
    ///
    /// 1. **Stop admission** — no new jobs or workers are accepted; live
    ///    workers keep draining the queues.
    /// 2. **Drain** — wait (bounded by `deadline`) for every worker to
    ///    finish and exit.  A quiet runtime completes here and the report
    ///    says [`clean`](ShutdownReport::clean).
    /// 3. **Cancel** — at the deadline, the context-wide shutdown token is
    ///    cancelled: every blocked `get` wakes with
    ///    [`PromiseError::Cancelled`], running tasks observe
    ///    `TaskScope::is_cancelled`, and cancelled tasks settle their
    ///    obligations exceptionally (no omitted-set alarms).  Jobs still
    ///    queued are dropped, which settles their promises the same way.
    /// 4. **Bounded join** — stragglers get one scheduling quantum
    ///    (`100 ms`) to observe the cancellation and exit; any worker still
    ///    stuck in user code after that is *detached* (its thread exits
    ///    harmlessly whenever the job returns) so this call — and the later
    ///    drop of the runtime — never hangs on it.
    ///
    /// Returns within `deadline` plus approximately one scheduling quantum.
    pub fn shutdown_with_deadline(mut self, deadline: Duration) -> ShutdownReport {
        /// Grace period phase 4 grants past the deadline.
        const QUANTUM: Duration = Duration::from_millis(100);
        let start = Instant::now();
        let deadline_at = start + deadline;
        let before = self.ctx.counter_snapshot();
        self.watchdog.take();
        self.ctx.begin_shutdown();
        self.scheduler.begin_shutdown();
        let mut clean = self.scheduler.try_join_workers(deadline_at);
        let mut dropped_jobs = 0;
        if !clean {
            self.ctx.shutdown_token().cancel();
            dropped_jobs = self.scheduler.drain_queued();
            clean = self.scheduler.try_join_workers(Instant::now() + QUANTUM);
            if !clean {
                self.scheduler.detach_workers();
            }
        }
        // Settle anything that raced admission (also runs in the clean case,
        // where it finds the queues empty).
        dropped_jobs += self.scheduler.drain_queued();
        // Drain the observability feed now that the scheduler has settled: the
        // sampler's final sample includes everything the drain produced
        // (cancellation counters, dropped-job alarms) before the report.
        if let Some(mut observer) = self.observer.take() {
            observer.stop();
        }
        let after = self.ctx.counter_snapshot();
        ShutdownReport {
            clean,
            dropped_jobs,
            cancelled_tasks: after.tasks_cancelled.saturating_sub(before.tasks_cancelled),
            panicked_tasks: after.tasks_panicked.saturating_sub(before.tasks_panicked),
            wall: start.elapsed(),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // A runtime dropped without an explicit shutdown still tears down
        // (the scheduler's drop joins workers and sweeps the queues); mark the
        // context first so swept jobs take the same sanctioned-abandonment
        // exit as an explicit `shutdown`.  Runs before the field drops, and
        // is idempotent after either shutdown method.
        self.ctx.begin_shutdown();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("mode", &self.ctx.config().mode)
            .field("pool", &self.scheduler.stats())
            .finish()
    }
}
