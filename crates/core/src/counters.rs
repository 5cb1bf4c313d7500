//! Lightweight sharded event counters.
//!
//! Table 1 of the paper reports, per benchmark, the total number of tasks and
//! the average rates of `get` and `set` operations per millisecond.  These
//! counters collect exactly those totals (plus a few more that the ablation
//! benches use).  They are maintained in *both* the baseline and the verified
//! configurations so that enabling them does not perturb the overhead
//! comparison.
//!
//! # Sharding
//!
//! Every `get`/`set` bumps a counter, so a single set of process-shared
//! atomics turns the counters themselves into a contention point: all
//! workers RMW the same cache line on every promise operation.  The counters
//! are therefore **sharded**: a [`Counters`] instance owns an array of
//! [`CachePadded`] cells, and each *worker thread* registers a slot index
//! (via [`register_worker`], called by the runtime's schedulers when a
//! worker thread starts) that picks its shard.  Threads that never
//! registered — the root task's thread, tests driving promises from plain
//! `std::thread`s — fall back to a shared *overflow* cell.
//!
//! Registration is only a shard hint for these counters.  Nothing else
//! hangs off it: the item caches of [`crate::magazine`] serve registered
//! and unregistered threads alike, sharded by `thread_home`.
//!
//! Increments stay `Relaxed` fetch-adds; [`Counters::snapshot`] sums across
//! all shards plus the overflow cell, preserving the [`CounterSnapshot`]
//! semantics the bench harness and `table1 --json` depend on.  The
//! "set counted before waiters observe fulfilment" invariant also survives
//! sharding: the increment is sequenced before the release store that
//! publishes the fulfilment, so the acquire-observing waiter's later
//! relaxed read of that shard is coherence-ordered after the increment.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Number of per-worker shards (power of two; slot indices wrap onto it).
///
/// More live workers than shards merely means some workers share a padded
/// cell — sharding is a performance hint, never a correctness requirement.
const COUNTER_SHARDS: usize = 16;

/// Recycled worker-slot ids plus the next never-used id.  Registration is
/// rare (worker thread start), so a mutex is fine here.
static SLOT_IDS: parking_lot::Mutex<SlotIdPool> = parking_lot::Mutex::new(SlotIdPool {
    free: Vec::new(),
    next: 0,
});

struct SlotIdPool {
    free: Vec<usize>,
    next: usize,
}

/// Unregistered sentinel for the thread-local slot id.
const NO_SLOT: usize = usize::MAX;

thread_local! {
    /// This thread's worker slot id, or [`NO_SLOT`] when unregistered.
    static WORKER_SLOT: Cell<usize> = const { Cell::new(NO_SLOT) };
}

/// RAII registration of the calling thread as a counter-sharded worker.
///
/// Returned by [`register_worker`]; dropping it unregisters the thread and
/// releases the slot id for reuse by later workers.  A registration made
/// while the thread is already registered shares the outer one's slot and
/// owns nothing, so guards may be dropped in any order without the thread
/// ever carrying a released id.  `!Send`: the drop writes the *registering*
/// thread's thread-local slot, so the guard must not migrate to another
/// thread.
#[derive(Debug)]
#[must_use = "dropping the WorkerSlot immediately undoes the registration"]
pub struct WorkerSlot {
    /// The slot id this guard took from the pool; `None` for a nested
    /// registration.
    slot: Option<usize>,
    /// Pins the guard to its thread (`*mut ()` is `!Send + !Sync`).
    _thread_bound: std::marker::PhantomData<*mut ()>,
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            WORKER_SLOT.with(|c| c.set(NO_SLOT));
            SLOT_IDS.lock().free.push(slot);
        }
    }
}

/// Registers the calling thread as a worker, assigning it a shard of every
/// [`Counters`] instance it touches.
///
/// Runtimes call this once per worker thread.  Slot ids are recycled when
/// workers exit, so a stable worker set occupies a stable, dense range of
/// shards.  Threads that never register fall back to the shared overflow
/// cell — correct, just contended.
pub fn register_worker() -> WorkerSlot {
    WORKER_SLOT.with(|c| {
        let slot = (c.get() == NO_SLOT).then(|| {
            let mut pool = SLOT_IDS.lock();
            let id = match pool.free.pop() {
                Some(id) => id,
                None => {
                    pool.next += 1;
                    pool.next - 1
                }
            };
            c.set(id);
            id
        });
        WorkerSlot {
            slot,
            _thread_bound: std::marker::PhantomData,
        }
    })
}

/// Next home index to hand out.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home index, assigned at first use.
    static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's *home index*: handed out round-robin the first time
/// a thread asks, registered or not, and kept for its lifetime.  The item
/// caches ([`crate::magazine`]) and the epoch's pin cells ([`crate::epoch`])
/// start their search for a free shard at `home % shards`, which spreads
/// the threads that run at the same time without any of them owning one.
#[inline]
pub(crate) fn thread_home() -> usize {
    HOME.with(|home| match home.get() {
        usize::MAX => {
            let assigned = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
            home.set(assigned);
            assigned
        }
        assigned => assigned,
    })
}

/// One shard's worth of counter cells (fits one padded cache-line pair).
#[derive(Default)]
struct CounterCells {
    gets: AtomicU64,
    sets: AtomicU64,
    promises_created: AtomicU64,
    tasks_spawned: AtomicU64,
    transfers: AtomicU64,
    detector_runs: AtomicU64,
    detector_steps: AtomicU64,
    deadlocks_detected: AtomicU64,
    omitted_sets_detected: AtomicU64,
    tasks_panicked: AtomicU64,
    tasks_cancelled: AtomicU64,
    gets_timed_out: AtomicU64,
}

/// Monotonic event counters for one [`crate::Context`], sharded per worker.
pub struct Counters {
    shards: Box<[CachePadded<CounterCells>]>,
    overflow: CachePadded<CounterCells>,
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

/// A point-in-time copy of every counter.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Number of `get` operations started.
    pub gets: u64,
    /// Number of successful `set` operations.
    pub sets: u64,
    /// Number of promises created.
    pub promises_created: u64,
    /// Number of tasks spawned (including root tasks).
    pub tasks_spawned: u64,
    /// Number of promise-ownership transfers performed at spawns.
    pub transfers: u64,
    /// Number of times the deadlock detector ran (blocking gets in Full mode).
    pub detector_runs: u64,
    /// Total owner/waitingOn edges traversed by the detector.
    pub detector_steps: u64,
    /// Number of deadlock cycles detected.
    pub deadlocks_detected: u64,
    /// Number of omitted-set violations detected.
    pub omitted_sets_detected: u64,
    /// Number of task bodies that panicked (contained by the runtime).
    pub tasks_panicked: u64,
    /// Number of tasks that exited with a cancelled [`crate::CancelToken`]
    /// (their remaining obligations were settled as `Cancelled`).
    pub tasks_cancelled: u64,
    /// Number of timed `get`s that gave up before the promise was set.
    pub gets_timed_out: u64,
}

impl CounterSnapshot {
    /// Element-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            gets: self.gets.saturating_sub(earlier.gets),
            sets: self.sets.saturating_sub(earlier.sets),
            promises_created: self
                .promises_created
                .saturating_sub(earlier.promises_created),
            tasks_spawned: self.tasks_spawned.saturating_sub(earlier.tasks_spawned),
            transfers: self.transfers.saturating_sub(earlier.transfers),
            detector_runs: self.detector_runs.saturating_sub(earlier.detector_runs),
            detector_steps: self.detector_steps.saturating_sub(earlier.detector_steps),
            deadlocks_detected: self
                .deadlocks_detected
                .saturating_sub(earlier.deadlocks_detected),
            omitted_sets_detected: self
                .omitted_sets_detected
                .saturating_sub(earlier.omitted_sets_detected),
            tasks_panicked: self.tasks_panicked.saturating_sub(earlier.tasks_panicked),
            tasks_cancelled: self.tasks_cancelled.saturating_sub(earlier.tasks_cancelled),
            gets_timed_out: self.gets_timed_out.saturating_sub(earlier.gets_timed_out),
        }
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// One authoritative field list for exporters — the observability
    /// plane's Prometheus exposition and JSONL feed both render from this,
    /// so adding a counter here automatically reaches every surface.
    pub fn named_fields(&self) -> [(&'static str, u64); 12] {
        [
            ("gets", self.gets),
            ("sets", self.sets),
            ("promises_created", self.promises_created),
            ("tasks_spawned", self.tasks_spawned),
            ("transfers", self.transfers),
            ("detector_runs", self.detector_runs),
            ("detector_steps", self.detector_steps),
            ("deadlocks_detected", self.deadlocks_detected),
            ("omitted_sets_detected", self.omitted_sets_detected),
            ("tasks_panicked", self.tasks_panicked),
            ("tasks_cancelled", self.tasks_cancelled),
            ("gets_timed_out", self.gets_timed_out),
        ]
    }

    /// Whether every counter in `self` is at least its value in `earlier` —
    /// i.e. `self` could be a later snapshot of the same monotone counters.
    /// The observability stress suite asserts this across sampler diffs.
    pub fn monotonically_includes(&self, earlier: &CounterSnapshot) -> bool {
        self.named_fields()
            .iter()
            .zip(earlier.named_fields().iter())
            .all(|((_, later), (_, early))| later >= early)
    }

    /// `get` operations per millisecond over a wall-clock duration.
    pub fn gets_per_ms(&self, wall: std::time::Duration) -> f64 {
        rate_per_ms(self.gets, wall)
    }

    /// `set` operations per millisecond over a wall-clock duration.
    pub fn sets_per_ms(&self, wall: std::time::Duration) -> f64 {
        rate_per_ms(self.sets, wall)
    }
}

fn rate_per_ms(count: u64, wall: std::time::Duration) -> f64 {
    let ms = wall.as_secs_f64() * 1e3;
    if ms <= 0.0 {
        0.0
    } else {
        count as f64 / ms
    }
}

impl Counters {
    /// Creates a zeroed set of counters.
    pub fn new() -> Self {
        Counters {
            shards: (0..COUNTER_SHARDS)
                .map(|_| CachePadded::new(CounterCells::default()))
                .collect(),
            overflow: CachePadded::new(CounterCells::default()),
        }
    }

    /// The calling thread's shard: its registered slot's cell, or the shared
    /// overflow cell for unregistered threads.
    #[inline]
    fn cells(&self) -> &CounterCells {
        match WORKER_SLOT.with(Cell::get) {
            NO_SLOT => &self.overflow,
            // COUNTER_SHARDS is a power of two, so the mask is a cheap mod.
            slot => &self.shards[slot & (COUNTER_SHARDS - 1)],
        }
    }

    #[inline]
    pub(crate) fn record_get(&self) {
        self.cells().gets.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_set(&self) {
        self.cells().sets.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_promise_created(&self) {
        self.cells()
            .promises_created
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_task_spawned(&self) {
        self.cells().tasks_spawned.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_transfers(&self, n: u64) {
        if n > 0 {
            self.cells().transfers.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn record_detector_run(&self, steps: u64) {
        let cells = self.cells();
        cells.detector_runs.fetch_add(1, Ordering::Relaxed);
        cells.detector_steps.fetch_add(steps, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_deadlock(&self) {
        self.cells()
            .deadlocks_detected
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_omitted_set(&self) {
        self.cells()
            .omitted_sets_detected
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_task_panicked(&self) {
        self.cells().tasks_panicked.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_task_cancelled(&self) {
        self.cells().tasks_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_get_timed_out(&self) {
        self.cells().gets_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters: each cell is read
    /// atomically and the shards are summed; the set as a whole is not a
    /// single atomic snapshot, which is fine for reporting.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut snap = CounterSnapshot::default();
        for cells in self.shards.iter().map(|s| &**s).chain([&*self.overflow]) {
            snap.gets += cells.gets.load(Ordering::Relaxed);
            snap.sets += cells.sets.load(Ordering::Relaxed);
            snap.promises_created += cells.promises_created.load(Ordering::Relaxed);
            snap.tasks_spawned += cells.tasks_spawned.load(Ordering::Relaxed);
            snap.transfers += cells.transfers.load(Ordering::Relaxed);
            snap.detector_runs += cells.detector_runs.load(Ordering::Relaxed);
            snap.detector_steps += cells.detector_steps.load(Ordering::Relaxed);
            snap.deadlocks_detected += cells.deadlocks_detected.load(Ordering::Relaxed);
            snap.omitted_sets_detected += cells.omitted_sets_detected.load(Ordering::Relaxed);
            snap.tasks_panicked += cells.tasks_panicked.load(Ordering::Relaxed);
            snap.tasks_cancelled += cells.tasks_cancelled.load(Ordering::Relaxed);
            snap.gets_timed_out += cells.gets_timed_out.load(Ordering::Relaxed);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_start_at_zero() {
        let c = Counters::new();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn named_fields_cover_every_counter_and_order_monotonicity() {
        let c = Counters::new();
        c.record_get();
        c.record_set();
        let early = c.snapshot();
        // The pairs round-trip the struct completely: summing named values
        // must equal summing the fields via `since` of the zero snapshot.
        let named_sum: u64 = early.named_fields().iter().map(|(_, v)| v).sum();
        assert_eq!(named_sum, early.gets + early.sets);
        c.record_get();
        c.record_detector_run(5);
        let later = c.snapshot();
        assert!(later.monotonically_includes(&early));
        assert!(!early.monotonically_includes(&later));
        assert!(later.monotonically_includes(&later));
    }

    #[test]
    fn increments_are_visible_in_snapshots() {
        let c = Counters::new();
        c.record_get();
        c.record_get();
        c.record_set();
        c.record_promise_created();
        c.record_task_spawned();
        c.record_transfers(3);
        c.record_transfers(0);
        c.record_detector_run(5);
        c.record_deadlock();
        c.record_omitted_set();
        c.record_task_panicked();
        c.record_task_cancelled();
        c.record_get_timed_out();
        let s = c.snapshot();
        assert_eq!(s.gets, 2);
        assert_eq!(s.sets, 1);
        assert_eq!(s.promises_created, 1);
        assert_eq!(s.tasks_spawned, 1);
        assert_eq!(s.transfers, 3);
        assert_eq!(s.detector_runs, 1);
        assert_eq!(s.detector_steps, 5);
        assert_eq!(s.deadlocks_detected, 1);
        assert_eq!(s.omitted_sets_detected, 1);
        assert_eq!(s.tasks_panicked, 1);
        assert_eq!(s.tasks_cancelled, 1);
        assert_eq!(s.gets_timed_out, 1);
    }

    #[test]
    fn since_subtracts_elementwise() {
        let c = Counters::new();
        c.record_get();
        let a = c.snapshot();
        c.record_get();
        c.record_set();
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.gets, 1);
        assert_eq!(d.sets, 1);
        assert_eq!(d.promises_created, 0);
    }

    #[test]
    fn rates_per_ms() {
        let s = CounterSnapshot {
            gets: 5000,
            sets: 2500,
            ..Default::default()
        };
        assert!((s.gets_per_ms(Duration::from_secs(1)) - 5.0).abs() < 1e-9);
        assert!((s.sets_per_ms(Duration::from_secs(1)) - 2.5).abs() < 1e-9);
        assert_eq!(s.gets_per_ms(Duration::from_secs(0)), 0.0);
    }

    #[test]
    fn registered_workers_land_in_shards_and_snapshots_sum_them() {
        let c = std::sync::Arc::new(Counters::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    let _slot = register_worker();
                    for _ in 0..10_000 {
                        c.record_get();
                        c.record_set();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The unregistered main thread writes the overflow cell.
        c.record_get();
        let s = c.snapshot();
        assert_eq!(s.gets, 40_001);
        assert_eq!(s.sets, 40_000);
    }

    #[test]
    fn non_lifo_guard_drops_never_leave_a_dead_token() {
        // A nested registration shares the outer slot and owns nothing, so
        // dropping the outer guard first unregisters the thread outright:
        // the inner guard has no saved id to restore, and the thread never
        // ends up carrying an id that went back to the pool.
        let c = Counters::new();
        let slot = || WORKER_SLOT.with(Cell::get);
        let a = register_worker();
        let a_slot = slot();
        assert_ne!(a_slot, NO_SLOT);
        let b = register_worker();
        assert_eq!(slot(), a_slot, "the nested registration shares a's slot");
        drop(a);
        assert_eq!(slot(), NO_SLOT, "a's id left the thread when a released it");
        c.record_get(); // overflow cell
        drop(b);
        assert_eq!(slot(), NO_SLOT, "b restores nothing");
        c.record_get();
        assert_eq!(c.snapshot().gets, 2);
    }

    #[test]
    fn worker_registration_is_scoped_and_nestable() {
        let c = Counters::new();
        let outer = register_worker();
        c.record_get();
        {
            let _inner = register_worker();
            c.record_get();
        }
        c.record_get();
        drop(outer);
        c.record_get(); // back on the overflow cell
        assert_eq!(c.snapshot().gets, 4);
    }
}
