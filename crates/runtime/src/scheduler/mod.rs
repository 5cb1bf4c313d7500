//! The sharded, work-stealing growing scheduler.
//!
//! Where [`GrowingPool`] keeps one mutex-guarded queue, this scheduler's hot
//! paths are contention-free, while it preserves the paper's §6.3 execution
//! strategy (*"spawn a new thread for a new task when all existing
//! threads are in use"* — required because promises put no a-priori bound on
//! how many tasks block simultaneously):
//!
//! * **per-worker Chase–Lev deques** ([`deque`]): a task spawned from a
//!   worker is pushed onto that worker's own deque with two atomic stores —
//!   no lock, no cache-line ping-pong with other submitters;
//! * **a sharded global injector** ([`injector`]): tasks submitted from
//!   non-worker threads (the root task) spread round-robin over independent
//!   locked shards;
//! * **work stealing**: a worker whose deque runs dry drains the injector,
//!   then steals the oldest task from a sibling — so tasks parked in the
//!   deque of a *blocked* worker are picked up by everyone else.
//!
//! ## The grow-on-block invariant
//!
//! The paper's pool must guarantee: a submitted task never waits behind
//! workers that are all busy or blocked.  Two triggers preserve this:
//!
//! 1. **at submission** (same rule as [`GrowingPool`]): if no worker is idle
//!    when a task is enqueued, a new worker is spawned;
//! 2. **at blocking** (via the [`Executor`] blocking seam, again as in
//!    [`GrowingPool`]): when a worker blocks inside a promise `get` while
//!    queued work exists and no worker is idle, a replacement worker is
//!    spawned.  Without it two submissions could both observe the same idle
//!    worker, which then took one task and blocked on it, stranding the
//!    second task in the queue forever.
//!
//! Blocked workers are counted through [`Executor::on_task_blocked`] /
//! [`on_task_unblocked`](Executor::on_task_unblocked), which `Promise::get`
//! invokes around every park; the count is surfaced in [`PoolStats`].
//!
//! ## What a search and a wake-up cost
//!
//! Because the pool grows whenever every thread is in use, a runtime can
//! hold thousands of workers of which a handful have anything queued.
//! Neither a search nor a local push may cost in proportion to that crowd:
//!
//! * **The non-empty-deque index.**  One bit per worker slot
//!   (`IndexWord`), set by the owning worker before a push makes a job
//!   visible and cleared by the owner when it sees its own deque empty (the
//!   one marker protocol, stated at `LocalQueue`).  A steal sweep and
//!   the two queue re-checks (before a park, before a block) walk the set
//!   bits and touch only those deques: an empty index costs one load per
//!   64 slots and no lock, and [`PoolStats::steal_probes`] counts the
//!   deques actually inspected.
//! * **One searcher at a time for worker-local pushes.**  `searching`
//!   counts the workers that consumed a wake-up token and have not found a
//!   job yet.  A local push (with some sibling parked, so trigger 1 does
//!   not fire) signals nobody while a token is outstanding or a searcher is
//!   counted: that searcher's sweep starts, or its re-check runs, after
//!   the push.  A counted searcher that finds a job and was the last one
//!   passes the baton — it wakes one more sibling if some worker's deque
//!   still holds work — so parallelism ramps up one wake at a time instead
//!   of one futex wake per spawn.  Injector jobs do not count: each was
//!   signalled for when it was pushed, and a second wake per job sends a
//!   root fan-out of tiny jobs through the whole parked pool.  A counted
//!   searcher that finds nothing leaves the count *before* re-checking the
//!   queues under the park lock, and re-joins it if the re-check finds
//!   work.
//!
//!   The pairing is Dekker's: the pusher publishes (marks its bit, pushes,
//!   `SeqCst` fence) and then loads `searching`; the searcher leaves
//!   `searching` (`SeqCst` RMW, fence) and then loads the index.  Either
//!   the pusher sees the count at zero and signals, or the searcher's
//!   re-check sees the job and does not park.
//!
//!   A skipped signal costs overlap and never progress: the pushing worker
//!   stays the job's searcher — it pops its own deque LIFO when its task
//!   returns or helps at a join, and hands the deque to the injector (with
//!   trigger 2) when it blocks.  External submissions, blocked-worker
//!   handoffs and both growth triggers signal exactly as before.
//!
//! ## Steal-to-wait helping and why it preserves grow-on-block
//!
//! A worker whose task blocks in a promise `get` does not park right away:
//! the wait loop (see `promise_core::helping`) first calls
//! [`Executor::try_help`], which runs **one** pending job — own deque first
//! (LIFO: the just-spawned child a fork-joining parent most often waits
//! for), then the injector, then a steal sweep — and re-checks the awaited
//! cell between jobs.  The §6.3 invariant ("a runnable task never waits
//! behind workers that are all busy or blocked") is preserved *by
//! construction*:
//!
//! * the worker only actually **parks** — entering `on_task_blocked`,
//!   trigger 2 above, which hands off its deque and grows the pool — once
//!   `try_help` found no runnable job anywhere, i.e. exactly when parking
//!   strands nothing;
//! * a **helped task that itself blocks** re-enters the same wait loop: it
//!   helps again if the nesting bound allows, and otherwise takes the
//!   ordinary park path, firing `on_task_blocked` like any blocked task.
//!
//! Helping is bounded by a nesting depth (default 4) and a stack-distance
//! budget because each helped frame sits *on top of* the blocked frame on
//! the worker's stack and cannot retire until every frame above it returns;
//! the bounds cap worst-case join latency and stack growth.  A gate in
//! `promise_core::task` additionally refuses helping whenever the blocked
//! task still owes an unfulfilled promise that another task could block on
//! (burying such an owner under an unrelated job could stall its consumers
//! for the helped job's duration, or — transitively — hang).  The helping
//! worker's progress stamp is re-armed around every helped job, so the
//! stall watchdog sees helped throughput as progress, not as one long
//! episode.
//!
//! [`GrowingPool`]: crate::pool::GrowingPool

mod deque;
mod injector;

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use promise_core::{Executor, Job, RejectedBatch, RejectedJob};

use crate::pool::{PoolConfig, PoolStats};
use deque::{Steal, Stealer, WorkerDeque};

/// Order in which a searching worker visits sibling deques when stealing.
///
/// Not a user option: the runtime builds with the sequential sweep
/// (cache-friendly and deterministic) and selects the randomized start
/// itself when `ChaosConfig::scramble_steals` asks for perturbed schedules.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum StealOrder {
    /// Start at the slot after the searcher's own and sweep round-robin
    /// (the default).
    #[default]
    Sequential,
    /// Start each sweep at a pseudo-randomly chosen sibling (per-thread
    /// xorshift, no shared state).
    Randomized,
}

/// Number of injector shards external submissions spread over.
const INJECTOR_SHARDS: usize = 8;

/// Initial capacity of each worker's local deque (2 KiB of slots, allocated
/// when the worker starts).
const LOCAL_QUEUE_CAPACITY: usize = 256;

/// Configuration of a [`WorkStealingScheduler`].
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// The pool knobs shared with [`GrowingPool`](crate::pool::GrowingPool):
    /// thread naming, keep-alive, stack size, eager workers.
    pub base: PoolConfig,
    /// Order in which a searching worker visits sibling deques when
    /// stealing (see [`StealOrder`]).
    pub steal_order: StealOrder,
    /// Opt-in growth heuristic: grow only when **every** live worker is
    /// blocked (`workers - blocked == 0`) instead of whenever no worker is
    /// idle (the paper's literal §6.3 rule, the default).
    ///
    /// The literal rule over-spawns on deep fork/join trees: each spawn
    /// finds all workers *busy* (not blocked) and starts a thread that the
    /// busy workers would have made redundant moments later.  The heuristic
    /// trusts runnable workers to come back for the queue and relies on the
    /// promise blocking hooks for recovery: the moment the last runnable
    /// worker blocks, its own `on_task_blocked` re-evaluates the condition
    /// and grows.  **Caveat:** a worker that blocks outside the promise
    /// hooks (std channels, locks, I/O) is invisible to the heuristic, which
    /// is why it is opt-in.
    pub blocked_aware_growth: bool,
    /// Chaos spawn-order scrambling seed (`None` = off, the default): when
    /// set, roughly half of all worker-local submissions — chosen by a
    /// seeded per-thread RNG — are diverted from the worker's LIFO deque to
    /// the global injector, so children execute in perturbed orders and on
    /// perturbed workers.  Driven by `ChaosConfig::scramble_spawns`.
    pub spawn_jitter: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            base: PoolConfig::default(),
            steal_order: StealOrder::Sequential,
            blocked_aware_growth: false,
            spawn_jitter: None,
        }
    }
}

/// One word of the non-empty-deque index: bit `b` of the `n`-th word says
/// that the deque of worker slot `64 * n + b` may hold work (the protocol
/// is stated at [`LocalQueue`]).
///
/// The words form an append-only chain whose first link lives inline in
/// [`SchedState`], so the index grows with the worker table — 24 bytes per
/// 64 slots that have existed, nothing for a pool that never passes 64 —
/// and is read and written without a lock.
struct IndexWord {
    bits: AtomicU64,
    next: OnceLock<Box<IndexWord>>,
}

impl IndexWord {
    const fn new() -> IndexWord {
        IndexWord {
            bits: AtomicU64::new(0),
            next: OnceLock::new(),
        }
    }

    /// The `n`-th word after this one, appending the words up to it on
    /// first use.
    fn nth(&self, n: usize) -> &IndexWord {
        let mut word = self;
        for _ in 0..n {
            word = word.next.get_or_init(|| Box::new(IndexWord::new()));
        }
        word
    }

    /// Calls `visit` with the slot number of each set bit — from slot
    /// `start` upwards, then wrapping round to the slots below it — until
    /// it returns `Some`.  Each word is loaded once per pass (`SeqCst`: the
    /// searcher half of the pairing in the module docs).
    fn find_from<R>(&self, start: usize, mut visit: impl FnMut(usize) -> Option<R>) -> Option<R> {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let (first, below) = (start / 64, (1u64 << (start % 64)) - 1);
        for wrapped in [false, true] {
            let mut n = 0;
            let mut word = Some(self);
            while let Some(w) = word {
                let mask = match (wrapped, n.cmp(&first)) {
                    (false, Less) => 0,
                    (false, Equal) => !below,
                    (false, Greater) | (true, Less) => !0,
                    (true, Equal) => below,
                    (true, Greater) => break,
                };
                let mut bits = match mask {
                    0 => 0,
                    _ => w.bits.load(Ordering::SeqCst) & mask,
                };
                while bits != 0 {
                    let slot = n * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(found) = visit(slot) {
                        return Some(found);
                    }
                }
                word = w.next.get().map(|next| &**next);
                n += 1;
            }
        }
        None
    }
}

/// A worker's local deque plus the owner-side half of the non-empty-deque
/// index.
///
/// **The marker protocol.**  Only the owner pushes, so only the owner
/// writes its bit: it sets the bit *before* the push that makes a job
/// visible and clears it only when it observes its own deque empty — once
/// empty, the deque stays empty until the owner's next push.  A set bit
/// therefore means "may hold work" (a thief can empty a marked deque; the
/// bit stays until the owner next pops), a clear bit means "holds none",
/// and a searcher that walks the set bits misses no job published before
/// its walk.  Both writes are one lock-free RMW on a word shared with at
/// most 63 other workers, and happen only on the empty/non-empty edges —
/// a push onto a marked deque is the deque's two stores and nothing else.
struct LocalQueue<'a> {
    deque: WorkerDeque,
    /// The index word holding this worker's bit, and the bit.
    word: &'a AtomicU64,
    bit: u64,
    /// Whether the bit is currently set.
    marked: Cell<bool>,
}

impl LocalQueue<'_> {
    fn push(&self, job: Job) {
        if !self.marked.get() {
            self.marked.set(true);
            self.word.fetch_or(self.bit, Ordering::SeqCst);
        }
        self.deque.push(job);
    }

    fn pop(&self) -> Option<Job> {
        let job = self.deque.pop();
        if self.marked.get() && (job.is_none() || self.deque.is_empty()) {
            self.marked.set(false);
            self.word.fetch_and(!self.bit, Ordering::SeqCst);
        }
        job
    }
}

/// Slot argument of a search made by a thread that is not a worker of this
/// scheduler: it skips no deque and starts the sweep at slot 0.
const NO_WORKER: usize = usize::MAX;

/// A worker thread's identity, stored thread-locally so that `submit` can
/// recognise scheduler workers and push to their local deque.
#[derive(Copy, Clone)]
struct WorkerRef {
    /// Identity of the owning scheduler (`Arc::as_ptr` of its state).
    sched: *const (),
    /// The worker's own queue, alive for the duration of the worker loop
    /// (the lifetime is that of the index word it borrows from the
    /// scheduler state, which the worker thread's `Arc` outlives).
    local: *const LocalQueue<'static>,
    /// The worker's slot index (injector hint / steal-sweep start).
    idx: usize,
    /// The worker's progress stamp; `worker_entry` holds an `Arc` to it for
    /// the thread's whole lifetime, and the TLS entry is cleared before that
    /// frame returns, so dereferencing on this thread is always sound.  Lets
    /// `try_help` re-arm the stamp around helped jobs without a stamps-lock
    /// round trip.
    stamp: *const WorkerStamp,
}

thread_local! {
    static CURRENT_WORKER: Cell<Option<WorkerRef>> = const { Cell::new(None) };
}

struct ParkState {
    /// Workers currently parked on the condvar.
    idle: usize,
    /// Wake-ups handed out but not yet consumed by a parked worker.
    wakeups: usize,
    /// Mirror of the shutdown flag readable under the park lock.
    shutdown: bool,
}

/// How a just-enqueued job gets a searcher assigned.  Both variants obey
/// the §6.3 submission rule (no idle worker → spawn a fresh thread); they
/// differ only in how eagerly an *idle* sibling is signalled.
#[derive(Copy, Clone, PartialEq)]
enum WakePolicy {
    /// External submissions and blocked-worker handoffs: always hand out a
    /// wake-up token (capped at one per parked worker).
    GrowIfNoIdle,
    /// Worker-local pushes: signal nobody while a wake-up token is
    /// outstanding or a woken worker is still searching — the pushing
    /// worker itself also serves as the job's searcher (LIFO pop, or
    /// hand-off when it blocks), so a missing signal costs overlap, never
    /// progress (module docs, "What a search and a wake-up cost").
    NudgeIdle,
}

/// A worker's progress stamp, updated around every job it runs and sampled
/// by the stall watchdog (see [`WorkStealingScheduler::worker_progress`]).
///
/// `busy_since_ns` is the scheduler-epoch-relative time (always non-zero) at
/// which the worker picked up its current job, or `0` while the worker is
/// between jobs.  The raw value doubles as a *busy-episode id*: two samples
/// reading the same non-zero value are watching the same stuck job, which is
/// how the watchdog avoids flagging one stall twice.
struct WorkerStamp {
    busy_since_ns: AtomicU64,
    jobs: AtomicU64,
}

impl WorkerStamp {
    fn new() -> Arc<WorkerStamp> {
        Arc::new(WorkerStamp {
            busy_since_ns: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        })
    }
}

/// A point-in-time view of one worker's progress stamp.
#[derive(Copy, Clone, Debug)]
pub struct WorkerProgress {
    /// The worker's slot index within its scheduler.  Helper entries
    /// (`helper == true`) use their own independent index space.
    pub worker: usize,
    /// `true` for a transient non-worker helper thread (a blocked root
    /// task running a job inline via steal-to-wait helping), enrolled only
    /// while its helped job runs.
    pub helper: bool,
    /// How long the worker has been on its current job (`None` = idle).
    pub busy_for: Option<Duration>,
    /// Jobs the worker has completed so far.
    pub jobs_executed: u64,
    /// Identifies the current busy episode: two samples with equal non-zero
    /// `episode` are watching the *same* job execution.
    pub episode: u64,
}

/// One record per worker slot.  Slots are recycled through
/// [`SlotTable::free`], so the table is as long as the most workers that
/// were ever alive at once ([`PoolStats::peak_workers`]), not as the number
/// of threads ever started.
struct WorkerSlot {
    /// The occupant's stealer and progress stamp; `None` once it retired.
    worker: Option<(Stealer, Arc<WorkerStamp>)>,
    /// The occupant's join handle.  It outlives the occupant: in a free
    /// slot it is the retired thread's, joined by whoever reuses the slot
    /// (or by shutdown), so a retired thread's stack is unmapped when its
    /// slot turns over instead of at shutdown.
    handle: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct SlotTable {
    slots: Vec<WorkerSlot>,
    /// Retired slots available for reuse, oldest first: the thread whose
    /// handle the next occupant's spawner joins has had the longest to exit.
    free: VecDeque<usize>,
}

struct SchedState {
    config: SchedulerConfig,
    injector: injector::Injector,
    /// The worker table: searchers read it, spawn and retire write it.
    slots: RwLock<SlotTable>,
    /// First word of the non-empty-deque index (see [`LocalQueue`]).
    index: IndexWord,
    /// Progress stamps for non-worker helper threads (a blocked root task
    /// running a job via [`Executor::try_help`]), armed for the duration of
    /// each helped job so the watchdog sees wedged helped jobs too.
    /// Indexed independently of `workers`; slots are recycled through
    /// `helper_free` instead of removed, so steady-state helping allocates
    /// nothing (the zero-alloc spawn guarantee covers helped joins).
    helper_stamps: RwLock<Vec<Arc<WorkerStamp>>>,
    /// Free slots in `helper_stamps` available for reuse.
    helper_free: Mutex<Vec<usize>>,
    /// Time base for the progress stamps.
    epoch: Instant,
    park: Mutex<ParkState>,
    park_cv: Condvar,
    /// Fast mirrors of the park-lock bookkeeping for lock-free probes.
    idle: AtomicUsize,
    pending_wakeups: AtomicUsize,
    /// Workers that consumed a wake-up token and have not found a job yet
    /// (module docs, "What a search and a wake-up cost").
    searching: AtomicUsize,
    blocked: AtomicUsize,
    current: AtomicUsize,
    peak: AtomicUsize,
    started: AtomicUsize,
    executed: AtomicUsize,
    stolen: AtomicUsize,
    /// Deques inspected by searches (see [`PoolStats::steal_probes`]).
    steal_probes: AtomicUsize,
    /// Jobs run inline by blocked getters via [`Executor::try_help`]
    /// (each also counted in `executed`).
    helped: AtomicUsize,
    batches: AtomicUsize,
    batch_jobs: AtomicUsize,
    /// Jobs whose body panicked (caught at the job boundary; the worker
    /// survived).  Executor-level backstop — the task layer also settles the
    /// panicked task's promises and keeps its own counter.
    panics: AtomicUsize,
    shutdown: AtomicBool,
}

/// A growing thread pool with per-worker work-stealing deques and a sharded
/// global injector.  See the [module docs](self) for the design.
pub struct WorkStealingScheduler {
    state: Arc<SchedState>,
}

impl WorkStealingScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Arc<WorkStealingScheduler> {
        let state = Arc::new(SchedState {
            injector: injector::Injector::new(INJECTOR_SHARDS),
            slots: RwLock::new(SlotTable::default()),
            index: IndexWord::new(),
            helper_stamps: RwLock::new(Vec::new()),
            helper_free: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            park: Mutex::new(ParkState {
                idle: 0,
                wakeups: 0,
                shutdown: false,
            }),
            park_cv: Condvar::new(),
            idle: AtomicUsize::new(0),
            pending_wakeups: AtomicUsize::new(0),
            searching: AtomicUsize::new(0),
            blocked: AtomicUsize::new(0),
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            started: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            stolen: AtomicUsize::new(0),
            steal_probes: AtomicUsize::new(0),
            helped: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
            batch_jobs: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            config,
        });
        for _ in 0..state.config.base.initial_workers {
            state.spawn_worker();
        }
        Arc::new(WorkStealingScheduler { state })
    }

    /// Creates a scheduler with the default configuration.
    pub fn with_defaults() -> Arc<WorkStealingScheduler> {
        Self::new(SchedulerConfig::default())
    }

    /// Submits a job.  Returns the job back if the scheduler has shut down.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        let state = &self.state;
        if state.shutdown.load(Ordering::Acquire) {
            return Err(job);
        }
        let me = Arc::as_ptr(state) as *const ();
        let job = match CURRENT_WORKER.with(Cell::get) {
            Some(w) if w.sched == me && !state.scramble_spawn() => {
                // Local fast path: two atomic stores on our own deque.
                // Safety: the queue outlives the worker loop, and the TLS
                // entry is cleared before the loop returns.
                unsafe { (*w.local).push(job) };
                None
            }
            _ => Some(job),
        };
        match job {
            Some(job) => {
                // The lock-free `shutdown` check above may have passed just
                // before `shutdown()` stored the flag, which could otherwise
                // strand the job in a scheduler whose workers are gone (and
                // whose join loop no new worker may enter — see
                // `spawn_worker`).  `push_unless` re-checks the flag under
                // the shard lock — the same lock the final drain takes — so
                // either the shutdown sequence sees this job (a live worker
                // drains it, or the final sweep settles it), or the push is
                // refused and the caller gets the job back as a normal
                // rejection.
                state.injector.push_unless(job, &state.shutdown)?;
                state.ensure_progress(WakePolicy::GrowIfNoIdle);
            }
            None => state.ensure_progress(WakePolicy::NudgeIdle),
        }
        Ok(())
    }

    /// Submits a whole batch of jobs with one injector push-chain and one
    /// park-lock wake sweep (the batched half of the spawn fast path).
    ///
    /// From a worker thread the **first** job is placed LIFO on that
    /// worker's own deque (two plain stores; it is the task a fork-joining
    /// parent reaches for first), the rest go to one injector shard under a
    /// single lock.  Wake-up tokens for the whole group are granted under
    /// one park-lock acquisition with exactly the per-job semantics of
    /// [`submit`](Self::submit) in a loop: if no worker is parked, §6.3
    /// growth spawns a thread per chained job (each may block); if some
    /// are parked, each gets at most one token and the remaining jobs ride
    /// on those workers' owed full searches (the same cap `grant_wakeups`
    /// applies per submission — coverage of a worker that then blocks
    /// *outside* the promise hooks is a documented limitation of both
    /// paths, not a batching regression).
    ///
    /// Returns the *unaccepted* jobs back if the scheduler has shut down
    /// (jobs already placed before the refusal point will run or be settled
    /// by the shutdown drain).
    pub fn submit_batch(&self, mut jobs: Vec<Job>) -> Result<(), Vec<Job>> {
        let state = &self.state;
        if jobs.is_empty() {
            return Ok(());
        }
        if state.shutdown.load(Ordering::Acquire) {
            return Err(jobs);
        }
        let total = jobs.len();
        let me = Arc::as_ptr(state) as *const ();
        let mut placed_local = false;
        match CURRENT_WORKER.with(Cell::get) {
            Some(w) if w.sched == me && !state.scramble_spawn() => {
                // Worker-local LIFO placement for the first child.  Safety:
                // as in `submit` — the queue outlives the worker loop, and
                // the TLS entry is cleared before the loop returns.
                let first = jobs.remove(0);
                unsafe { (*w.local).push(first) };
                placed_local = true;
            }
            _ => {}
        }
        let chained = jobs.len();
        if chained > 0 {
            // One shard lock for the whole chain; the close flag is
            // re-checked under it (same argument as `push_unless`).
            if state
                .injector
                .push_chain_unless(&mut jobs, &state.shutdown)
                .is_err()
            {
                return Err(jobs);
            }
            // One park-lock sweep assigns searchers to the whole group.
            state.signal_many(chained);
        }
        if placed_local {
            state.ensure_progress(WakePolicy::NudgeIdle);
        }
        // Counted only once the whole batch is placed: a shutdown-refused
        // batch must not inflate the accepted-submission stats.
        state.batches.fetch_add(1, Ordering::Relaxed);
        state.batch_jobs.fetch_add(total, Ordering::Relaxed);
        Ok(())
    }

    /// Current activity counters.
    pub fn stats(&self) -> PoolStats {
        let state = &self.state;
        let local_queued: usize = state
            .slots
            .read()
            .slots
            .iter()
            .filter_map(|slot| Some(slot.worker.as_ref()?.0.len()))
            .sum();
        PoolStats {
            current_workers: state.current.load(Ordering::Relaxed),
            idle_workers: state.idle.load(Ordering::Relaxed),
            blocked_workers: state.blocked.load(Ordering::Relaxed),
            peak_workers: state.peak.load(Ordering::Relaxed),
            threads_started: state.started.load(Ordering::Relaxed),
            jobs_executed: state.executed.load(Ordering::Relaxed),
            jobs_stolen: state.stolen.load(Ordering::Relaxed),
            steal_probes: state.steal_probes.load(Ordering::Relaxed),
            jobs_helped: state.helped.load(Ordering::Relaxed),
            batches_submitted: state.batches.load(Ordering::Relaxed),
            jobs_batch_submitted: state.batch_jobs.load(Ordering::Relaxed),
            queued_jobs: state.injector.len() + local_queued,
            panics: state.panics.load(Ordering::Relaxed),
        }
    }

    /// Samples every live worker's progress stamp (see [`WorkerProgress`]),
    /// plus the transient stamps of non-worker helper threads currently
    /// running a helped job (`helper == true` entries).
    ///
    /// This is the stall watchdog's input: a worker whose `busy_for` keeps
    /// growing across samples with an unchanged `episode` is stuck on one
    /// job (long-running, blocked outside the promise hooks, or livelocked).
    /// Enrolling helpers closes the old blind spot where a wedged helped
    /// job on a blocked root thread was invisible.
    pub fn worker_progress(&self) -> Vec<WorkerProgress> {
        let now = self.state.epoch.elapsed().as_nanos() as u64;
        let sample = |worker: usize, stamp: &WorkerStamp, helper: bool| {
            let busy_since = stamp.busy_since_ns.load(Ordering::Relaxed);
            WorkerProgress {
                worker,
                helper,
                busy_for: (busy_since != 0)
                    .then(|| Duration::from_nanos(now.saturating_sub(busy_since))),
                jobs_executed: stamp.jobs.load(Ordering::Relaxed),
                episode: busy_since,
            }
        };
        let mut out: Vec<WorkerProgress> = self
            .state
            .slots
            .read()
            .slots
            .iter()
            .enumerate()
            .filter_map(|(worker, slot)| Some(sample(worker, &slot.worker.as_ref()?.1, false)))
            .collect();
        out.extend(
            self.state
                .helper_stamps
                .read()
                .iter()
                .enumerate()
                .map(|(worker, stamp)| sample(worker, stamp, true)),
        );
        out
    }

    /// Stops admission and wakes every worker without waiting for them.
    ///
    /// The first phase of both [`shutdown`](Self::shutdown) and the
    /// deadline-bounded drain: after this call no new job or worker is
    /// accepted, and live workers exit on their own once every queue is
    /// empty.
    pub fn begin_shutdown(&self) {
        let state = &self.state;
        state.shutdown.store(true, Ordering::Release);
        let mut st = state.park.lock();
        st.shutdown = true;
        state.park_cv.notify_all();
    }

    /// Waits until every worker has exited or `deadline` passes, joining
    /// finished workers as it goes.  Returns `true` when all workers are
    /// gone; on `false`, the unfinished handles stay registered (a later
    /// [`shutdown`](Self::shutdown), [`try_join_workers`](Self::try_join_workers)
    /// or [`detach_workers`](Self::detach_workers) picks them up).
    ///
    /// Call [`begin_shutdown`](Self::begin_shutdown) first, or idle workers
    /// will simply sit parked until the deadline.
    pub fn try_join_workers(&self, deadline: Instant) -> bool {
        loop {
            // Workers registered concurrently (grow-on-block during the
            // drain) are picked up by the next pass.
            let (_, running) = self.state.join_handles(JoinHandle::is_finished);
            if running == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Abandons the remaining worker join handles without waiting for the
    /// threads.  Used after a deadline-bounded shutdown gave up on
    /// stragglers: the detached threads keep the scheduler state alive via
    /// their own `Arc` and exit harmlessly whenever their job returns, while
    /// the final [`shutdown`](Self::shutdown) (e.g. from `Drop`) no longer
    /// blocks on them.
    pub fn detach_workers(&self) {
        for slot in &mut self.state.slots.write().slots {
            slot.handle = None;
        }
    }

    /// Join handles currently held: at most one per worker slot, so never
    /// more than [`PoolStats::peak_workers`] (test hook).
    #[doc(hidden)]
    pub fn join_handles_held(&self) -> usize {
        let table = self.state.slots.read();
        table.slots.iter().filter(|s| s.handle.is_some()).count()
    }

    /// Workers that were woken and have not found a job yet (test hook; 0
    /// whenever the scheduler is quiescent).
    #[doc(hidden)]
    pub fn searching_workers(&self) -> usize {
        self.state.searching.load(Ordering::SeqCst)
    }

    /// Drops every job still queued (injector shards and stealable deque
    /// tails), returning how many were dropped.  Dropping a spawned task's
    /// job runs the `PreparedTask` exit machinery, completing its promises
    /// exceptionally — waiters observe an error instead of hanging.
    ///
    /// Only meaningful after [`begin_shutdown`](Self::begin_shutdown) (the
    /// admission flag keeps new jobs out of the swept queues).
    pub fn drain_queued(&self) -> usize {
        let state = &self.state;
        let mut dropped = 0usize;
        for job in state.injector.drain_locked() {
            drop(job);
            dropped += 1;
        }
        // A worker stuck *outside* the promise hooks never handed its deque
        // off; steal those jobs out from under it.
        let table = state.slots.read();
        for (stealer, _) in table.slots.iter().filter_map(|slot| slot.worker.as_ref()) {
            loop {
                match stealer.steal() {
                    Steal::Success(job) => {
                        drop(job);
                        dropped += 1;
                    }
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
        dropped
    }

    /// Stops accepting new jobs, wakes every worker, and waits until all
    /// queued jobs have run and all workers have exited.
    pub fn shutdown(&self) {
        let state = &self.state;
        self.begin_shutdown();
        // Workers spawned during the drain (grow-on-block) register their
        // join handles concurrently; keep joining until a pass finds none.
        while state.join_handles(|_| true).0 > 0 {}
        // A submission that raced the shutdown flag may have left jobs in
        // the injector after the last worker exited.  Sweep every shard
        // under its lock (the flag is long set, so `push_unless` refuses
        // anything later) and drop what is found: dropping a spawned
        // task's job runs the `PreparedTask` exit machinery, completing
        // its promises exceptionally (as `Cancelled` when the owning
        // runtime marked its context shutting-down) — waiters observe an
        // error instead of hanging, and nothing is lost silently.
        for job in state.injector.drain_locked() {
            drop(job);
        }
    }
}

impl Drop for WorkStealingScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Executor for WorkStealingScheduler {
    fn execute(&self, job: Job) -> Result<(), RejectedJob> {
        self.submit(job).map_err(RejectedJob)
    }

    fn execute_batch(&self, jobs: Vec<Job>) -> Result<(), RejectedBatch> {
        self.submit_batch(jobs).map_err(RejectedBatch)
    }

    fn on_task_blocked(&self) {
        self.state.note_blocked();
    }

    fn on_task_unblocked(&self) {
        self.state.note_unblocked();
    }

    fn try_help(&self) -> bool {
        let state = &self.state;
        let me = Arc::as_ptr(state) as *const ();
        let worker = CURRENT_WORKER.with(Cell::get).filter(|w| w.sched == me);
        match worker {
            Some(w) => {
                // A blocked worker helping: its deque has *not* been handed
                // off (helping runs before `on_task_blocked`), so pop it
                // LIFO first — the freshest child is the one the blocked
                // parent most likely waits for.  Safety: `try_help` runs on
                // the owning worker thread (the TLS entry says so), so the
                // owner-only `pop` is legal and the queue is alive.
                let local = unsafe { &*w.local };
                let job = local
                    .pop()
                    .or_else(|| state.injector.pop(w.idx))
                    .or_else(|| state.try_steal(w.idx));
                let Some(job) = job else { return false };
                // SAFETY: see `WorkerRef::stamp` — valid for this thread's
                // lifetime.
                state.run_helped(unsafe { &*w.stamp }, job);
                true
            }
            // A blocked non-worker thread (e.g. a root task in `get`): no
            // deque of its own.
            None => {
                let job = state.injector.pop(0).or_else(|| state.try_steal(NO_WORKER));
                let Some(job) = job else { return false };
                // Arm a recycled helper stamp for the duration of the
                // helped job, so a helped job that wedges on this thread is
                // watchdog-visible like any worker's (the helper lock
                // round-trips are off the hot path: helping only happens on
                // already-blocked threads — and allocation-free in steady
                // state, keeping helped joins inside the zero-alloc spawn
                // guarantee).
                let (slot, stamp) = state.register_helper();
                state.run_helped(&stamp, job);
                state.unregister_helper(slot);
                true
            }
        }
    }
}

impl std::fmt::Debug for WorkStealingScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingScheduler")
            .field("stats", &self.stats())
            .finish()
    }
}

impl SchedState {
    /// Assigns a searcher to a just-enqueued job according to `policy`.
    fn ensure_progress(self: &Arc<Self>, policy: WakePolicy) {
        if policy == WakePolicy::NudgeIdle {
            // Pusher half of the Dekker pairing (module docs): the push is
            // ordered before the loads below.  External submissions are
            // ordered by the injector's shard lock and always signal.
            fence(Ordering::SeqCst);
        }
        if self.idle.load(Ordering::SeqCst) == 0 {
            // §6.3: no idle worker — the task must get a fresh thread.
            // This applies to worker-local pushes too: the pushing worker
            // may block by means outside the promise hook (std channels,
            // locks, I/O), and then nobody would ever drain its deque.
            self.grow(1);
            return;
        }
        // Tokens first: a consumer joins `searching` before it gives its
        // token up, so a wake in flight is never read as zero in both.
        if policy == WakePolicy::NudgeIdle
            && (self.pending_wakeups.load(Ordering::SeqCst) > 0
                || self.searching.load(Ordering::SeqCst) > 0)
        {
            // A woken sibling's sweep starts, or its re-check runs, after
            // this push; another futex wake would only add a thread to
            // fight for a child the parent is about to pop itself.
            return;
        }
        self.signal_many(1);
    }

    /// Hands wake-up tokens to parked workers for `jobs` queued jobs, at
    /// most one per worker that does not owe a search already (wake-ups are
    /// consumed under this lock, and the search they start begins after the
    /// enqueue, so jobs beyond the granted tokens are covered by the owed
    /// searches).
    fn grant_wakeups(&self, st: &mut ParkState, jobs: usize) {
        let grant = jobs.min(st.idle.saturating_sub(st.wakeups));
        if grant > 0 {
            st.wakeups += grant;
            self.pending_wakeups.store(st.wakeups, Ordering::SeqCst);
            for _ in 0..grant {
                self.park_cv.notify_one();
            }
        }
    }

    /// A counted searcher found a job: it leaves `searching`, and if it was
    /// the last one while some worker's deque still holds work it wakes one
    /// more sibling — the signal that local pushes skipped on its account.
    /// Only the deques count: every injector job was signalled for when it
    /// was pushed, and a second wake for it turns a root fan-out of tiny
    /// jobs into a wake-up chain through the whole parked pool.  Wake only:
    /// the growth rule was applied when those jobs were pushed.
    fn pass_the_baton(&self) {
        if self.searching.fetch_sub(1, Ordering::SeqCst) == 1 && self.any_stealable(NO_WORKER) {
            self.grant_wakeups(&mut self.park.lock(), 1);
        }
    }

    /// Grows the pool for `jobs` just-enqueued jobs that found no idle
    /// worker, honouring the configured growth policy.
    ///
    /// *Literal §6.3* (default): one fresh thread per job — each job may
    /// block, so each needs its own potential worker.
    ///
    /// *Blocked-aware* (opt-in): grow only when every live worker is blocked
    /// inside a promise wait; one thread then suffices to restore progress
    /// (it re-triggers growth the moment it blocks too).  The decision is
    /// race-free against a runnable worker blocking concurrently: `blocked`
    /// is bumped with a SeqCst RMW *before* `on_task_blocked` re-checks the
    /// queues, and the queue non-empty markers are published (SeqCst RMW /
    /// shard lock) *before* this check loads `blocked` — so either this
    /// caller observes the worker as blocked and spawns, or that worker
    /// observes the queued job and grows on its own.
    fn grow(self: &Arc<Self>, jobs: usize) {
        if self.config.blocked_aware_growth {
            let current = self.current.load(Ordering::SeqCst);
            let blocked = self.blocked.load(Ordering::SeqCst);
            if current > blocked {
                return;
            }
            self.spawn_worker();
        } else {
            for _ in 0..jobs {
                self.spawn_worker();
            }
        }
    }

    fn spawn_worker(self: &Arc<Self>) {
        // No growth once shutdown has begun: a worker spawned after the
        // join loop finishes would never be joined and could run user code
        // after `shutdown()` returns.  Live workers finish the drain on
        // their own (they only exit once every queue is empty), and the
        // final sweep settles anything left.  `GrowingPool` refuses to grow
        // after shutdown for the same reason.
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (deque, stealer) = WorkerDeque::new(LOCAL_QUEUE_CAPACITY);
        let stamp = WorkerStamp::new();
        let occupant = Some((stealer, Arc::clone(&stamp)));
        // `current` moves under the table lock, here and at retirement, so
        // it equals the number of occupied slots and the table never grows
        // past `peak`.
        let (idx, retired) = {
            let mut table = self.slots.write();
            let cur = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(cur, Ordering::SeqCst);
            match table.free.pop_front() {
                Some(idx) => {
                    let slot = &mut table.slots[idx];
                    slot.worker = occupant;
                    (idx, slot.handle.take())
                }
                None => {
                    table.slots.push(WorkerSlot {
                        worker: occupant,
                        handle: None,
                    });
                    (table.slots.len() - 1, None)
                }
            }
        };
        let n = self.started.fetch_add(1, Ordering::SeqCst) + 1;
        let mut builder = std::thread::Builder::new()
            .name(format!("{}-{}", self.config.base.thread_name_prefix, n));
        if let Some(sz) = self.config.base.stack_size {
            builder = builder.stack_size(sz);
        }
        let state = Arc::clone(self);
        let worker_stamp = Arc::clone(&stamp);
        let handle = builder
            .spawn(move || worker_entry(state, idx, deque, worker_stamp))
            .expect("failed to spawn scheduler worker thread");
        // The slot keeps the handle only while the new thread still holds
        // it: a worker that already retired (shutdown, a zero keep-alive)
        // may have seen its slot reused, and is joined here instead.  The
        // `stamp` clone held above keeps the comparison free of ABA.
        let outran = {
            let mut table = self.slots.write();
            let slot = &mut table.slots[idx];
            match &slot.worker {
                Some((_, s)) if Arc::ptr_eq(s, &stamp) => {
                    slot.handle = Some(handle);
                    None
                }
                _ => Some(handle),
            }
        };
        // Both threads have left their worker loop; what remains of them is
        // the exit hook and the thread teardown.
        let me = std::thread::current().id();
        for done in [retired, outran].into_iter().flatten() {
            if done.thread().id() != me {
                let _ = done.join();
            }
        }
    }

    /// One pass over the table that joins, outside its lock, the worker
    /// handles `ready` accepts; returns how many it joined and how many it
    /// left in place.  The calling thread's own handle is dropped instead:
    /// a worker that holds the last scheduler reference must not join
    /// itself.
    fn join_handles(&self, ready: impl Fn(&JoinHandle<()>) -> bool) -> (usize, usize) {
        let me = std::thread::current().id();
        let (mut joined, mut left) = (0, 0);
        let mut idx = 0;
        loop {
            let handle = {
                let mut table = self.slots.write();
                let Some(slot) = table.slots.get_mut(idx) else {
                    return (joined, left);
                };
                match &slot.handle {
                    Some(h) if h.thread().id() == me => {
                        slot.handle = None;
                        None
                    }
                    Some(h) if ready(h) => slot.handle.take(),
                    Some(_) => {
                        left += 1;
                        None
                    }
                    None => None,
                }
            };
            if let Some(handle) = handle {
                let _ = handle.join();
                joined += 1;
            }
            idx += 1;
        }
    }

    /// One full search pass: own deque, then the injector, then siblings.
    fn find_work(&self, idx: usize, local: &LocalQueue) -> Option<Job> {
        if let Some(job) = local.pop() {
            return Some(job);
        }
        if let Some(job) = self.injector.pop(idx) {
            return Some(job);
        }
        self.try_steal(idx)
    }

    /// Chaos spawn-order scrambling: with [`SchedulerConfig::spawn_jitter`]
    /// set, returns `true` for roughly half of worker-local submissions,
    /// telling the caller to route the job through the global injector
    /// instead of the worker's own LIFO deque.  Always `false` when the
    /// knob is off (one `Option` branch on the hot path).
    fn scramble_spawn(&self) -> bool {
        let Some(seed) = self.config.spawn_jitter else {
            return false;
        };
        thread_local! {
            static SPAWN_RNG: Cell<u64> = const { Cell::new(0) };
        }
        SPAWN_RNG.with(|c| {
            let mut x = c.get();
            if x == 0 {
                // First use on this thread: fold a per-thread nonce (the TLS
                // cell's address) into the chaos seed so sibling workers draw
                // decorrelated streams.
                x = (seed ^ c as *const Cell<u64> as u64) | 1;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.set(x);
            x & 1 == 0
        })
    }

    /// First slot a steal sweep visits, per the configured [`StealOrder`].
    fn steal_start(&self, idx: usize) -> usize {
        match self.config.steal_order {
            StealOrder::Sequential => idx.wrapping_add(1),
            StealOrder::Randomized => {
                thread_local! {
                    static STEAL_RNG: Cell<u64> = const { Cell::new(0) };
                }
                // The table is as long as the pool's peak (see
                // `spawn_worker`).
                let n = self.peak.load(Ordering::Relaxed).max(1);
                STEAL_RNG.with(|c| {
                    let mut x = c.get();
                    if x == 0 {
                        // First use on this thread: derive a per-worker seed.
                        x = (idx as u64)
                            .wrapping_add(1)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            | 1;
                    }
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    c.set(x);
                    (x % n as u64) as usize
                })
            }
        }
    }

    /// The one walk every search shares: visits, from slot `start` round to
    /// the slot before it, the stealer of each deque the index marks
    /// non-empty except slot `skip`'s, until `visit` returns `Some`.  The
    /// table is locked (for reading) only once a set bit turns up, and the
    /// deques visited are counted into [`PoolStats::steal_probes`] with one
    /// add per walk.
    fn search<R>(
        &self,
        start: usize,
        skip: usize,
        mut visit: impl FnMut(&Stealer) -> Option<R>,
    ) -> Option<R> {
        let mut table = None;
        let mut probes = 0;
        let found = self.index.find_from(start, |slot| {
            if slot == skip {
                return None;
            }
            let table = table.get_or_insert_with(|| self.slots.read());
            // A bit read before its worker retired can name an empty slot.
            let (stealer, _) = table.slots.get(slot)?.worker.as_ref()?;
            probes += 1;
            visit(stealer)
        });
        if probes > 0 {
            self.steal_probes.fetch_add(probes, Ordering::Relaxed);
        }
        found
    }

    fn try_steal(&self, idx: usize) -> Option<Job> {
        let start = self.steal_start(idx);
        // A second sweep only if the first lost a race it could not settle.
        for _sweep in 0..2 {
            let mut saw_retry = false;
            let job = self.search(start, idx, |stealer| {
                // Retry while we lose CAS races; they resolve in a few spins.
                for _ in 0..=16 {
                    match stealer.steal() {
                        Steal::Success(job) => return Some(job),
                        Steal::Empty => return None,
                        Steal::Retry => std::hint::spin_loop(),
                    }
                }
                saw_retry = true;
                None
            });
            if job.is_some() {
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return job;
            }
            if !saw_retry {
                break;
            }
        }
        None
    }

    /// Whether any sibling deque (not `idx`) holds stealable work.
    fn any_stealable(&self, idx: usize) -> bool {
        self.search(0, idx, |stealer| (!stealer.is_empty()).then_some(()))
            .is_some()
    }

    /// Whether any queue in the scheduler holds work (including the deque of
    /// the — possibly blocked — calling worker).
    fn has_pending_work(&self) -> bool {
        !self.injector.is_empty() || self.any_stealable(NO_WORKER)
    }

    fn note_blocked(self: &Arc<Self>) {
        let me = Arc::as_ptr(self) as *const ();
        let worker = CURRENT_WORKER.with(Cell::get).filter(|w| w.sched == me);
        let Some(worker) = worker else { return };
        self.blocked.fetch_add(1, Ordering::SeqCst);
        // Hand the local queue off: this thread stops draining its deque for
        // an unbounded time, so move its jobs to the injector, where any
        // searcher finds them in O(shards) instead of scanning every worker
        // slot.  Safe: `on_task_blocked` runs on the owning worker thread,
        // so the owner-only `pop` is legal, and the deque outlives the loop.
        let local = unsafe { &*worker.local };
        let mut moved = 0usize;
        while let Some(job) = local.pop() {
            self.injector.push(job);
            moved += 1;
        }
        if moved > 0 {
            // Trigger 2 of the grow-on-block invariant for the handed-off
            // jobs, batched under one park-lock acquisition.
            self.signal_many(moved);
        } else if self.has_pending_work() {
            // Also cover jobs queued elsewhere (other deques, injector) that
            // this worker would otherwise have been the one to pick up.
            if self.idle.load(Ordering::SeqCst) == 0 {
                self.grow(1);
            } else {
                self.signal_many(1);
            }
        }
    }

    /// Assigns searchers to `jobs` just-enqueued jobs: parked siblings are
    /// woken (see [`grant_wakeups`](Self::grant_wakeups)), and if nobody is
    /// parked a worker is spawned per job (§6.3 — each may block).
    fn signal_many(self: &Arc<Self>, jobs: usize) {
        let mut st = self.park.lock();
        if st.idle == 0 {
            // No parked worker — or the one the caller saw woke up, and may
            // block on what it picked: the growth rule.
            drop(st);
            self.grow(jobs);
            return;
        }
        self.grant_wakeups(&mut st, jobs);
    }

    fn note_unblocked(self: &Arc<Self>) {
        let me = Arc::as_ptr(self) as *const ();
        if CURRENT_WORKER.with(Cell::get).is_none_or(|w| w.sched != me) {
            return;
        }
        self.blocked.fetch_sub(1, Ordering::SeqCst);
    }

    fn run_job(&self, stamp: &WorkerStamp, job: Job) {
        // Progress stamp: non-zero while on a job (the raw value is the
        // busy-episode id the watchdog dedupes on), zeroed when done.
        let now = (self.epoch.elapsed().as_nanos() as u64).max(1);
        stamp.busy_since_ns.store(now, Ordering::Relaxed);
        // A panicking job must not take the worker down; panics are surfaced
        // through the task's promises by the spawn wrapper.
        let panicked = catch_unwind(AssertUnwindSafe(|| job.run())).is_err();
        if panicked {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        stamp.jobs.fetch_add(1, Ordering::Relaxed);
        stamp.busy_since_ns.store(0, Ordering::Relaxed);
    }

    /// Runs one job picked up by a *blocked* getter (steal-to-wait helping;
    /// see [`Executor::try_help`]).  Differs from [`run_job`](Self::run_job)
    /// in the stamp protocol: the helper is already inside a busy episode
    /// (its own suspended job), so the stamp is re-armed with a *fresh*
    /// episode for the helped job and again on return to the suspended frame
    /// — each helped job and each cell re-check between jobs counts as
    /// watchdog-visible progress, never as one long stall.  Worker helpers
    /// pass their own stamp; non-worker helpers (a blocked root task) pass
    /// a transient stamp enrolled in `helper_stamps` for this job.
    fn run_helped(&self, stamp: &WorkerStamp, job: Job) {
        let fresh = || (self.epoch.elapsed().as_nanos() as u64).max(1);
        stamp.busy_since_ns.store(fresh(), Ordering::Relaxed);
        // Containment: a panicking helped job must not unwind into (and
        // corrupt) the suspended frame below; the spawn wrapper has already
        // settled the helped task's promises by the time the panic reaches
        // this boundary.
        let panicked = catch_unwind(AssertUnwindSafe(|| job.run())).is_err();
        if panicked {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.helped.fetch_add(1, Ordering::Relaxed);
        stamp.jobs.fetch_add(1, Ordering::Relaxed);
        stamp.busy_since_ns.store(fresh(), Ordering::Relaxed);
    }

    /// Checks out a helper progress stamp for watchdog sampling, returning
    /// its slot in the helper index space.  Slots (and their stamps) are
    /// recycled via `helper_free`, so only the first registration at a given
    /// concurrency depth allocates — helped joins stay zero-alloc in steady
    /// state.
    fn register_helper(&self) -> (usize, Arc<WorkerStamp>) {
        if let Some(slot) = self.helper_free.lock().pop() {
            let stamp = Arc::clone(&self.helper_stamps.read()[slot]);
            return (slot, stamp);
        }
        let mut stamps = self.helper_stamps.write();
        let stamp = WorkerStamp::new();
        stamps.push(Arc::clone(&stamp));
        (stamps.len() - 1, stamp)
    }

    /// Disarms the slot's stamp (the thread returns to its blocked wait,
    /// which must read as idle) and recycles it.
    fn unregister_helper(&self, slot: usize) {
        self.helper_stamps.read()[slot]
            .busy_since_ns
            .store(0, Ordering::Relaxed);
        self.helper_free.lock().push(slot);
    }

    fn worker_loop(self: &Arc<Self>, idx: usize, local: &LocalQueue, stamp: &WorkerStamp) {
        let keep_alive = self.config.base.keep_alive;
        // Whether this worker is counted in `searching`: from the wake-up
        // token it consumes to the job it finds (or fails to).
        let mut searching = false;
        loop {
            if let Some(job) = self.find_work(idx, local) {
                if std::mem::take(&mut searching) {
                    self.pass_the_baton();
                }
                self.run_job(stamp, job);
                continue;
            }
            // Nothing found: decide between parking, retiring, and exiting.
            let was_searching = std::mem::take(&mut searching);
            if was_searching {
                // Searcher half of the Dekker pairing (module docs): leave
                // the count, then re-check the queues.
                self.searching.fetch_sub(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
            }
            let mut st = self.park.lock();
            // Recheck under the park lock: a submitter that saw idle == 0
            // before we registered has spawned a worker, but one that saw a
            // stale idle count (or a searcher still counted) may only have
            // queued — never sleep on work.
            if !self.injector.is_empty() || self.any_stealable(idx) {
                if was_searching {
                    // Still the searcher local pushes may be relying on.
                    self.searching.fetch_add(1, Ordering::SeqCst);
                    searching = true;
                }
                continue;
            }
            if st.shutdown {
                break;
            }
            st.idle += 1;
            self.idle.fetch_add(1, Ordering::SeqCst);
            // Blocked-aware mode needs a second queue re-check *after* the
            // idle increment: a submitter that loaded `idle == 0` just
            // before it skips both the wake and (when a runnable worker
            // exists — us, mid-park) the spawn.  The SeqCst orderings give
            // the Dekker guarantee: either the submitter's `idle` load sees
            // our increment (and hands out a wake token under this lock),
            // or this check sees its enqueued job.  The literal rule needs
            // no re-check — it spawns unconditionally on idle == 0.
            if self.config.blocked_aware_growth
                && (!self.injector.is_empty() || self.any_stealable(idx))
            {
                st.idle -= 1;
                self.idle.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let mut timed_out = false;
            loop {
                if st.wakeups > 0 {
                    // Join `searching` before the token is given up (see
                    // `ensure_progress`).
                    searching = true;
                    self.searching.fetch_add(1, Ordering::SeqCst);
                    st.wakeups -= 1;
                    self.pending_wakeups.store(st.wakeups, Ordering::SeqCst);
                    break;
                }
                if st.shutdown {
                    break;
                }
                if self.park_cv.wait_for(&mut st, keep_alive).timed_out() {
                    timed_out = true;
                    break;
                }
            }
            st.idle -= 1;
            self.idle.fetch_sub(1, Ordering::SeqCst);
            let shutting_down = st.shutdown;
            drop(st);
            if timed_out && !shutting_down {
                // Final sweep, then retire to let the pool shrink again.
                if !self.injector.is_empty() || self.any_stealable(idx) {
                    continue;
                }
                break;
            }
            // Woken (or shutting down): search again; on shutdown the loop
            // exits at the park step once every queue is drained.
        }
        // Retire: our own deque is empty (pop failed just before exiting),
        // so our index bit is clear.  The join handle stays in the slot for
        // whoever reuses it.
        {
            let mut table = self.slots.write();
            table.slots[idx].worker = None;
            table.free.push_back(idx);
            self.current.fetch_sub(1, Ordering::SeqCst);
        }
        // Close the blocked-aware retire race: a submission that raced this
        // retirement may have loaded `current` *before* the decrement above,
        // counted this worker as runnable, and skipped its spawn — and once
        // this thread is gone nothing would re-evaluate, stranding the job
        // forever.  Re-checking after the SeqCst decrement restores the
        // Dekker pairing: either the submitter's `current` load saw the
        // decrement (and spawned), or this check sees its enqueued job and
        // grows on its behalf.  (`grow` itself refuses while another
        // runnable worker exists, which is then that worker's job to cover,
        // and `spawn_worker` refuses after shutdown, whose final sweep
        // settles leftovers.)
        if self.config.blocked_aware_growth
            && self.has_pending_work()
            && self.idle.load(Ordering::SeqCst) == 0
        {
            self.grow(1);
        }
    }
}

fn worker_entry(state: Arc<SchedState>, idx: usize, deque: WorkerDeque, stamp: Arc<WorkerStamp>) {
    struct ResetTls;
    impl Drop for ResetTls {
        fn drop(&mut self) {
            CURRENT_WORKER.with(|c| c.set(None));
        }
    }
    // Claim a counter shard for this worker so its event counters (promise
    // gets/sets, spawns, …) land in a private cache-padded cell instead of
    // the shared overflow cell.
    let _counter_slot = promise_core::counters::register_worker();
    let local = LocalQueue {
        deque,
        word: &state.index.nth(idx / 64).bits,
        bit: 1 << (idx % 64),
        marked: Cell::new(false),
    };
    CURRENT_WORKER.with(|c| {
        c.set(Some(WorkerRef {
            sched: Arc::as_ptr(&state) as *const (),
            local: std::ptr::from_ref(&local).cast(),
            idx,
            stamp: Arc::as_ptr(&stamp),
        }))
    });
    let _reset = ResetTls;
    state.worker_loop(idx, &local, &stamp);
    // Retirement hook: the runtime sweeps fully-free arena chunks here.  The
    // worker has no cache of its own to hand back (see
    // `promise_core::magazine`).
    if let Some(hook) = &state.config.base.worker_exit_hook {
        hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    fn small_config() -> SchedulerConfig {
        SchedulerConfig {
            base: PoolConfig {
                keep_alive: Duration::from_millis(50),
                ..PoolConfig::default()
            },
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn runs_submitted_jobs() {
        let sched = WorkStealingScheduler::new(small_config());
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..128 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            sched
                .submit(Job::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    tx.send(()).unwrap();
                }))
                .ok()
                .unwrap();
        }
        for _ in 0..128 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 128);
        assert!(sched.stats().threads_started >= 1);
    }

    #[test]
    fn worker_exit_hook_runs_when_workers_retire() {
        let exits = Arc::new(AtomicUsize::new(0));
        let exits2 = Arc::clone(&exits);
        let mut config = small_config();
        config.base.worker_exit_hook = Some(Arc::new(move || {
            exits2.fetch_add(1, Ordering::Relaxed);
        }));
        let sched = WorkStealingScheduler::new(config);
        let (tx, rx) = mpsc::channel();
        sched
            .submit(Job::new(move || tx.send(()).unwrap()))
            .ok()
            .unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        sched.shutdown();
        let started = sched.stats().threads_started;
        assert!(started >= 1);
        assert_eq!(
            exits.load(Ordering::Relaxed),
            started,
            "every started worker runs the exit hook exactly once"
        );
    }

    #[test]
    fn local_submissions_land_on_the_worker_deque() {
        let sched = WorkStealingScheduler::new(small_config());
        let (tx, rx) = mpsc::channel();
        let sched2 = Arc::clone(&sched);
        sched
            .submit(Job::new(move || {
                // Runs on a worker: nested submissions take the local path
                // and must still execute.
                for i in 0..32 {
                    let tx = tx.clone();
                    sched2
                        .submit(Job::new(move || tx.send(i).unwrap()))
                        .ok()
                        .unwrap();
                }
            }))
            .ok()
            .unwrap();
        let mut got: Vec<i32> = (0..32)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn grows_when_all_workers_block() {
        let sched = WorkStealingScheduler::new(small_config());
        let n = 8;
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let (started_tx, started_rx) = mpsc::channel();
        for _ in 0..n {
            let started_tx = started_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            sched
                .submit(Job::new(move || {
                    started_tx.send(()).unwrap();
                    let guard = release_rx.lock();
                    let _ = guard.recv_timeout(Duration::from_secs(10));
                }))
                .ok()
                .unwrap();
        }
        for _ in 0..n {
            started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(
            sched.stats().peak_workers >= n,
            "the scheduler must have grown to at least {} workers, saw {:?}",
            n,
            sched.stats()
        );
        for _ in 0..n {
            release_tx.send(()).unwrap();
        }
        sched.shutdown();
    }

    #[test]
    fn index_walk_starts_anywhere_wraps_and_grows_by_the_word() {
        let index = IndexWord::new();
        assert!(index.next.get().is_none(), "an idle index is one word");
        for slot in [3usize, 64, 130] {
            index
                .nth(slot / 64)
                .bits
                .fetch_or(1 << (slot % 64), Ordering::SeqCst);
        }
        let walk = |start| {
            let mut seen = Vec::new();
            index.find_from(start, |slot| {
                seen.push(slot);
                None::<()>
            });
            seen
        };
        assert_eq!(walk(0), [3, 64, 130]);
        assert_eq!(walk(4), [64, 130, 3]);
        assert_eq!(walk(64), [64, 130, 3]);
        assert_eq!(walk(65), [130, 3, 64]);
        assert_eq!(walk(131), [3, 64, 130]);
        assert_eq!(walk(NO_WORKER.wrapping_add(1)), [3, 64, 130]);
        assert_eq!(walk(10_000), [3, 64, 130], "a start past the last word");
        assert_eq!(
            index.find_from(4, |slot| (slot > 64).then_some(slot)),
            Some(130)
        );
    }

    /// The search-cost satellite: a search inspects the deques the index
    /// marks, not the worker table.  512 workers sit in jobs that wait on a
    /// latch; one of them has pushed a job onto its own deque first.  The
    /// blocked-aware growth rule keeps the pool from answering that push
    /// with a thread (every worker is busy, none is promise-blocked), so
    /// the job stays put for the one search this test makes itself.
    #[test]
    fn a_search_probes_only_the_marked_deques() {
        const WORKERS: usize = 512;
        let sched = WorkStealingScheduler::new(SchedulerConfig {
            blocked_aware_growth: true,
            base: PoolConfig {
                initial_workers: WORKERS,
                keep_alive: Duration::from_secs(30),
                ..PoolConfig::default()
            },
            ..SchedulerConfig::default()
        });
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let hold = {
            let latch = Arc::clone(&latch);
            move || {
                let mut open = latch.0.lock();
                while !*open {
                    latch.1.wait(&mut open);
                }
            }
        };
        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (pushed_tx, pushed_rx) = mpsc::channel();
        let (ran_tx, ran_rx) = mpsc::channel();
        let mut pusher = Some((Arc::clone(&sched), go_rx, pushed_tx, ran_tx));
        for _ in 0..WORKERS {
            let (hold, started_tx, pusher) = (hold.clone(), started_tx.clone(), pusher.take());
            sched
                .submit(Job::new(move || {
                    started_tx.send(()).unwrap();
                    if let Some((sched, go_rx, pushed_tx, ran_tx)) = pusher {
                        // Push only once every sibling is inside its job:
                        // a parked one would be woken for the child.
                        go_rx.recv().unwrap();
                        sched
                            .submit(Job::new(move || ran_tx.send(()).unwrap()))
                            .ok()
                            .unwrap();
                        pushed_tx.send(()).unwrap();
                    }
                    hold();
                }))
                .ok()
                .unwrap();
        }
        for _ in 0..WORKERS {
            started_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        go_tx.send(()).unwrap();
        pushed_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let before = sched.stats();
        assert_eq!(before.current_workers, WORKERS);
        assert_eq!(
            before.queued_jobs, 1,
            "the pushed job waits on its owner's deque"
        );

        let job = sched
            .state
            .try_steal(NO_WORKER)
            .expect("the one queued job");
        let probes = sched.stats().steal_probes - before.steal_probes;
        assert!(
            (1..=2).contains(&probes),
            "one search over {WORKERS} workers with one marked deque made {probes} probes"
        );
        job.run();
        ran_rx.recv_timeout(Duration::from_secs(5)).unwrap();

        *latch.0.lock() = true;
        latch.1.notify_all();
        sched.shutdown();
    }

    #[test]
    fn batch_submission_runs_every_job_and_counts_it() {
        let sched = WorkStealingScheduler::new(small_config());
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Job> = (0..32)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let tx = tx.clone();
                Job::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    tx.send(()).unwrap();
                })
            })
            .collect();
        sched.submit_batch(jobs).ok().unwrap();
        for _ in 0..32 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        let stats = sched.stats();
        assert_eq!(stats.batches_submitted, 1);
        assert_eq!(stats.jobs_batch_submitted, 32);
    }

    #[test]
    fn worker_local_batch_places_the_first_job_on_the_own_deque() {
        let sched = WorkStealingScheduler::new(small_config());
        let (tx, rx) = mpsc::channel();
        let sched2 = Arc::clone(&sched);
        sched
            .submit(Job::new(move || {
                // Runs on a worker: the nested batch takes the local-first
                // path and every job must still execute.
                let jobs: Vec<Job> = (0..8)
                    .map(|i| {
                        let tx = tx.clone();
                        Job::new(move || tx.send(i).unwrap())
                    })
                    .collect();
                sched2.submit_batch(jobs).ok().unwrap();
            }))
            .ok()
            .unwrap();
        let mut got: Vec<i32> = (0..8)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn batch_after_shutdown_is_rejected_with_all_jobs() {
        let sched = WorkStealingScheduler::new(small_config());
        sched.shutdown();
        let jobs: Vec<Job> = (0..4).map(|_| Job::new(|| {})).collect();
        let back = sched.submit_batch(jobs).unwrap_err();
        assert_eq!(back.len(), 4, "a post-shutdown batch is handed back whole");
    }

    #[test]
    fn randomized_steal_order_still_finds_all_work() {
        let sched = WorkStealingScheduler::new(SchedulerConfig {
            steal_order: StealOrder::Randomized,
            base: PoolConfig {
                initial_workers: 4,
                keep_alive: Duration::from_millis(100),
                ..PoolConfig::default()
            },
            ..SchedulerConfig::default()
        });
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..128 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            sched
                .submit(Job::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    tx.send(()).unwrap();
                }))
                .ok()
                .unwrap();
        }
        for _ in 0..128 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 128);
        sched.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_scheduler() {
        let sched = WorkStealingScheduler::new(small_config());
        let (tx, rx) = mpsc::channel();
        sched.submit(Job::new(|| panic!("job panic"))).ok().unwrap();
        sched
            .submit(Job::new(move || tx.send(42).unwrap()))
            .ok()
            .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        // Join the workers before reading the counter: the panicking worker
        // may still be unwinding when the second job's send arrives.
        sched.shutdown();
        assert_eq!(sched.stats().panics, 1, "caught panic is counted");
    }

    #[test]
    fn worker_progress_reports_a_busy_worker() {
        let sched = WorkStealingScheduler::new(small_config());
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel();
        sched
            .submit(Job::new(move || {
                started_tx.send(()).unwrap();
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
            }))
            .ok()
            .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // The worker is now stuck inside the job; its stamp must say so.
        let mut saw_busy = false;
        for _ in 0..100 {
            if let Some(p) = sched
                .worker_progress()
                .iter()
                .find(|p| p.busy_for.is_some())
            {
                assert_ne!(p.episode, 0, "busy episode id is non-zero");
                saw_busy = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_busy, "a worker executing a job must sample as busy");
        release_tx.send(()).unwrap();
        sched.shutdown();
        assert!(
            sched.worker_progress().is_empty(),
            "retired workers drop their stamps"
        );
    }

    #[test]
    fn deadline_bounded_shutdown_gives_up_on_a_stuck_worker() {
        let sched = WorkStealingScheduler::new(small_config());
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel();
        sched
            .submit(Job::new(move || {
                started_tx.send(()).unwrap();
                // Stuck outside the promise hooks: invisible to cancellation.
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
            }))
            .ok()
            .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        sched.begin_shutdown();
        let deadline = std::time::Instant::now() + Duration::from_millis(100);
        assert!(
            !sched.try_join_workers(deadline),
            "the stuck worker must defeat the bounded join"
        );
        sched.detach_workers();
        release_tx.send(()).unwrap();
        // With the straggler detached, the blocking shutdown returns
        // immediately instead of waiting on it.
        sched.shutdown();
    }

    #[test]
    fn bounded_join_succeeds_when_workers_drain_in_time() {
        let sched = WorkStealingScheduler::new(small_config());
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            sched
                .submit(Job::new(move || tx.send(i).unwrap()))
                .ok()
                .unwrap();
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        sched.begin_shutdown();
        assert!(
            sched.try_join_workers(std::time::Instant::now() + Duration::from_secs(5)),
            "idle workers must exit well before the deadline"
        );
        assert_eq!(sched.stats().current_workers, 0);
        assert_eq!(sched.drain_queued(), 0);
    }

    #[test]
    fn shutdown_runs_queued_jobs_and_rejects_new_ones() {
        let sched = WorkStealingScheduler::new(small_config());
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            sched
                .submit(Job::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }))
                .ok()
                .unwrap();
        }
        sched.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert!(
            sched.submit(Job::new(|| {})).is_err(),
            "the scheduler must reject jobs after shutdown"
        );
        assert_eq!(sched.stats().current_workers, 0);
    }

    #[test]
    fn idle_workers_retire_after_keep_alive() {
        let sched = WorkStealingScheduler::new(SchedulerConfig {
            base: PoolConfig {
                keep_alive: Duration::from_millis(20),
                ..PoolConfig::default()
            },
            ..SchedulerConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        sched
            .submit(Job::new(move || tx.send(()).unwrap()))
            .ok()
            .unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(sched.stats().current_workers, 0);
        // The scheduler still works afterwards.
        let (tx2, rx2) = mpsc::channel();
        sched
            .submit(Job::new(move || tx2.send(7).unwrap()))
            .ok()
            .unwrap();
        assert_eq!(rx2.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
    }

    #[test]
    fn initial_workers_are_started_eagerly() {
        let sched = WorkStealingScheduler::new(SchedulerConfig {
            base: PoolConfig {
                initial_workers: 3,
                ..PoolConfig::default()
            },
            ..SchedulerConfig::default()
        });
        assert_eq!(sched.stats().threads_started, 3);
        sched.shutdown();
    }

    #[test]
    fn heavy_fanout_executes_every_job_once() {
        let sched = WorkStealingScheduler::new(SchedulerConfig {
            base: PoolConfig {
                initial_workers: 4,
                keep_alive: Duration::from_millis(200),
                ..PoolConfig::default()
            },
            ..SchedulerConfig::default()
        });
        let total = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let fanout = 64;
        for _ in 0..fanout {
            let sched2 = Arc::clone(&sched);
            let total = Arc::clone(&total);
            let tx = tx.clone();
            sched
                .submit(Job::new(move || {
                    for _ in 0..16 {
                        let total = Arc::clone(&total);
                        let tx = tx.clone();
                        sched2
                            .submit(Job::new(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                                tx.send(()).unwrap();
                            }))
                            .ok()
                            .unwrap();
                    }
                }))
                .ok()
                .unwrap();
        }
        for _ in 0..fanout * 16 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), fanout * 16);
        let stats = sched.stats();
        assert_eq!(stats.queued_jobs, 0);
    }
}
