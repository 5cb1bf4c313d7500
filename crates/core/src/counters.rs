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
//! worker thread starts) that picks its private shard.  Threads that never
//! registered — the root task's thread, tests driving promises from plain
//! `std::thread`s — fall back to a shared *overflow* cell, which is exactly
//! the old behaviour.
//!
//! Worker registration is also the seam the arena's per-worker slot
//! magazines hang off (see [`crate::arena`]): a registration is a
//! `(slot id, epoch)` pair, slot ids are recycled when workers exit, and the
//! per-slot epoch lets another thread distinguish a *live* registration from
//! a dead one whose caches may be adopted.
//!
//! Increments stay `Relaxed` fetch-adds; [`Counters::snapshot`] sums across
//! all shards plus the overflow cell, preserving the [`CounterSnapshot`]
//! semantics the bench harness and `table1 --json` depend on.  The
//! "set counted before waiters observe fulfilment" invariant also survives
//! sharding: the increment is sequenced before the release store that
//! publishes the fulfilment, so the acquire-observing waiter's later
//! relaxed read of that shard is coherence-ordered after the increment.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// Number of per-worker shards (power of two; slot indices wrap onto it).
///
/// More live workers than shards merely means some workers share a padded
/// cell — sharding is a performance hint, never a correctness requirement.
const COUNTER_SHARDS: usize = 16;

/// Number of worker-slot ids whose registration *epochs* are tracked.
///
/// Slot ids below this bound carry an epoch that other subsystems (the
/// arena's per-worker slot magazines, see [`crate::arena`]) use to tell a
/// live registration from a dead one, so that caches claimed by an exited
/// worker can be adopted instead of leaking.  More than this many
/// *concurrently* registered workers is far outside any realistic pool size;
/// the excess ids simply carry no epoch (their holders fall back to the
/// shared paths everywhere, which is always correct).
pub(crate) const MAX_TRACKED_SLOTS: usize = 256;

/// Per-slot registration epochs.  Odd = the slot id is currently registered
/// by some live thread; even = released.  Each register/release bumps the
/// epoch, so a `(slot, epoch)` pair uniquely identifies one registration
/// period of one thread and can never be impersonated after that thread
/// unregisters (ids are only reused after the release bump).
static SLOT_EPOCHS: [AtomicU32; MAX_TRACKED_SLOTS] =
    [const { AtomicU32::new(0) }; MAX_TRACKED_SLOTS];

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

/// Unregistered sentinel for the packed thread-local token.
const NO_TOKEN: u64 = u64::MAX;

thread_local! {
    /// This thread's packed worker token: `(slot << 32) | epoch`, or
    /// [`NO_TOKEN`] when unregistered.  For untracked slot ids
    /// (≥ [`MAX_TRACKED_SLOTS`]) the epoch half is zero.
    static WORKER_TOKEN: Cell<u64> = const { Cell::new(NO_TOKEN) };
}

/// A worker registration token: the slot id plus the registration epoch
/// under which it was claimed.  Used by per-worker caches (the arena's slot
/// magazines) to distinguish a live claim from one left behind by an exited
/// worker.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct WorkerToken {
    pub(crate) slot: u32,
    pub(crate) epoch: u32,
}

impl WorkerToken {
    /// Packs the token into a non-zero u64 (`(slot+1) << 32 | epoch`) for
    /// storage in an `AtomicU64` claim word where 0 means "unclaimed".
    #[inline]
    pub(crate) fn pack_nonzero(self) -> u64 {
        ((self.slot as u64 + 1) << 32) | self.epoch as u64
    }

    /// Inverse of [`pack_nonzero`](Self::pack_nonzero); `bits` must be
    /// non-zero.
    #[inline]
    pub(crate) fn unpack_nonzero(bits: u64) -> WorkerToken {
        WorkerToken {
            slot: ((bits >> 32) - 1) as u32,
            epoch: (bits & 0xFFFF_FFFF) as u32,
        }
    }

    /// Whether the registration this token was minted under is still the
    /// slot's current one (i.e. the registering thread has not released it).
    ///
    /// Acquire: a `false` answer is used to *adopt* state left behind by the
    /// dead registration, so the caller must also observe every write that
    /// preceded the release bump.
    #[inline]
    pub(crate) fn is_current(self) -> bool {
        match SLOT_EPOCHS.get(self.slot as usize) {
            Some(e) => e.load(Ordering::Acquire) == self.epoch,
            None => false,
        }
    }
}

/// The calling thread's worker token, if it is registered with a tracked
/// slot id.  Untracked registrations (beyond [`MAX_TRACKED_SLOTS`]) report
/// `None` so per-worker caches fall back to their shared paths.
#[inline]
pub(crate) fn current_worker_token() -> Option<WorkerToken> {
    let packed = WORKER_TOKEN.with(Cell::get);
    if packed == NO_TOKEN {
        return None;
    }
    let slot = (packed >> 32) as usize;
    if slot >= MAX_TRACKED_SLOTS {
        return None;
    }
    Some(WorkerToken {
        slot: slot as u32,
        epoch: (packed & 0xFFFF_FFFF) as u32,
    })
}

/// RAII registration of the calling thread as a counter-sharded worker.
///
/// Returned by [`register_worker`]; dropping it restores the thread's
/// previous slot (so nested registrations compose) and releases the slot id
/// for reuse by later workers.  `!Send`: the drop writes the *registering*
/// thread's thread-local slot, so the guard must not migrate to another
/// thread.
#[derive(Debug)]
#[must_use = "dropping the WorkerSlot immediately undoes the registration"]
pub struct WorkerSlot {
    prev: u64,
    own: u64,
    slot: usize,
    /// Pins the guard to its thread (`*mut ()` is `!Send + !Sync`).
    _thread_bound: std::marker::PhantomData<*mut ()>,
}

/// `packed` if it still names a *current* registration, else [`NO_TOKEN`].
///
/// Guards against non-LIFO guard drops: a restored saved token must never
/// resurrect a registration that was released in the meantime — a thread
/// carrying a dead token could satisfy a magazine claim-word match while a
/// new holder of the recycled slot id adopts the same magazine (see
/// [`crate::arena`]), i.e. two threads with exclusive access.
fn validate_token(packed: u64) -> u64 {
    if packed == NO_TOKEN {
        return NO_TOKEN;
    }
    let slot = (packed >> 32) as usize;
    match SLOT_EPOCHS.get(slot) {
        // Untracked ids carry no epoch and can never claim magazines;
        // restoring them is harmless (counter sharding tolerates sharing).
        None => packed,
        Some(e) => {
            if e.load(Ordering::Acquire) == (packed & 0xFFFF_FFFF) as u32 {
                packed
            } else {
                NO_TOKEN
            }
        }
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        WORKER_TOKEN.with(|c| {
            // Only touch the TLS token if this guard is the thread's active
            // registration; a non-LIFO drop must not clobber the inner
            // (still live) one.  The restored `prev` is re-validated: it may
            // itself have been released by a non-LIFO drop.
            if c.get() == self.own {
                c.set(validate_token(self.prev));
            }
        });
        // Release order matters: the epoch bump publishes (with Release
        // ordering) every per-worker-cache write this thread made, *then*
        // the id goes back to the pool.  A later claimant that observes the
        // bumped epoch (Acquire) therefore sees those writes and can adopt
        // the dead registration's caches.
        if let Some(e) = SLOT_EPOCHS.get(self.slot) {
            e.fetch_add(1, Ordering::Release);
        }
        SLOT_IDS.lock().free.push(self.slot);
    }
}

/// Registers the calling thread as a worker, assigning it a private shard of
/// every [`Counters`] instance it touches and making it eligible for the
/// per-worker slot magazines of [`crate::arena::SlotArena`].
///
/// Runtimes call this once per worker thread.  Slot ids are recycled when
/// workers exit, so a stable worker set occupies a stable, dense range of
/// shards.  Threads that never register fall back to
/// the shared overflow cell / global free list — correct, just contended.
pub fn register_worker() -> WorkerSlot {
    let slot = {
        let mut pool = SLOT_IDS.lock();
        match pool.free.pop() {
            Some(id) => id,
            None => {
                let id = pool.next;
                pool.next += 1;
                id
            }
        }
    };
    let epoch = match SLOT_EPOCHS.get(slot) {
        // Even (released) → odd (registered).  AcqRel so the new
        // registration is ordered with the previous holder's release.
        Some(e) => e.fetch_add(1, Ordering::AcqRel).wrapping_add(1),
        None => 0,
    };
    let packed = ((slot as u64) << 32) | epoch as u64;
    WORKER_TOKEN.with(|c| {
        let prev = c.get();
        c.set(packed);
        WorkerSlot {
            prev,
            own: packed,
            slot,
            _thread_bound: std::marker::PhantomData,
        }
    })
}

/// Simulated worker registrations for the deterministic magazine
/// interleaving kit (see `crate::test_support::interleave`).
///
/// A [`SimWorker`] is a real registration in the epoch table — it flips the
/// slot's epoch odd on creation and even again on death, exactly like
/// [`register_worker`]/[`WorkerSlot::drop`] — but it does **not** occupy
/// the thread-local token.  Instead the kit *activates* it around each
/// simulated step, so one driver thread can play several workers (live and
/// dead) against each other in a chosen order.  Slot ids are picked by the
/// kit from the top of the tracked range ([`MAX_TRACKED_SLOTS`]), which
/// real registrations never reach (they allocate densely from 0), so
/// simulated and real workers cannot collide.
///
/// Test-support seam: not part of the public API.
#[doc(hidden)]
pub mod sim {
    use super::*;

    /// A simulated worker registration pinned to an explicit slot id.
    #[derive(Debug)]
    pub struct SimWorker {
        slot: usize,
        epoch: u32,
    }

    impl SimWorker {
        /// Registers a simulated worker on `slot`.
        ///
        /// # Panics
        ///
        /// Panics if `slot` is outside the tracked range or currently
        /// registered (by a real worker or another live `SimWorker`).
        pub fn register(slot: usize) -> SimWorker {
            let cell = SLOT_EPOCHS
                .get(slot)
                .expect("sim slot must be inside the tracked range");
            // Even (released) → odd (registered); AcqRel orders this
            // registration with the previous holder's release, exactly like
            // `register_worker`.
            let prev = cell.fetch_add(1, Ordering::AcqRel);
            assert!(
                prev.is_multiple_of(2),
                "sim slot {slot} is already registered (epoch {prev})"
            );
            SimWorker {
                slot,
                epoch: prev.wrapping_add(1),
            }
        }

        /// The slot id this simulated worker occupies.
        pub fn slot(&self) -> usize {
            self.slot
        }

        /// Whether this registration is still the slot's current one.
        pub fn is_live(&self) -> bool {
            WorkerToken {
                slot: self.slot as u32,
                epoch: self.epoch,
            }
            .is_current()
        }

        /// Makes this worker the calling thread's current registration for
        /// the lifetime of the returned guard (the previous thread-local
        /// token is restored on drop).  Steps of the interleaving kit run
        /// inside such an activation.
        pub fn activate(&self) -> ActiveSim {
            let packed = ((self.slot as u64) << 32) | self.epoch as u64;
            let prev = WORKER_TOKEN.with(|c| {
                let prev = c.get();
                c.set(packed);
                prev
            });
            ActiveSim {
                prev,
                _thread_bound: std::marker::PhantomData,
            }
        }

        /// Ends the registration *without* flushing anything — the simulated
        /// equivalent of a worker dying with a claimed, non-empty magazine.
        /// The epoch bump uses Release ordering so a later adopter (whose
        /// `is_current` check reads the epoch with Acquire) observes every
        /// write this worker made, exactly as for real registrations.
        pub fn die(self) {
            // Drop runs the bump.
        }
    }

    impl Drop for SimWorker {
        fn drop(&mut self) {
            if let Some(cell) = SLOT_EPOCHS.get(self.slot) {
                cell.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Guard for an activated [`SimWorker`]; restores the thread's previous
    /// token on drop.  `!Send`: it manipulates the activating thread's TLS.
    #[derive(Debug)]
    pub struct ActiveSim {
        prev: u64,
        _thread_bound: std::marker::PhantomData<*mut ()>,
    }

    impl Drop for ActiveSim {
        fn drop(&mut self) {
            WORKER_TOKEN.with(|c| c.set(validate_token(self.prev)));
        }
    }

    /// The top of the tracked slot-id range, for kits picking private ids.
    pub const TRACKED_SLOTS: usize = MAX_TRACKED_SLOTS;
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
        let token = WORKER_TOKEN.with(Cell::get);
        if token == NO_TOKEN {
            &self.overflow
        } else {
            // COUNTER_SHARDS is a power of two, so the mask is a cheap mod.
            &self.shards[(token >> 32) as usize & (COUNTER_SHARDS - 1)]
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
        let _workers = crate::test_support::pool::worker_serial();
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
        let _workers = crate::test_support::pool::worker_serial();
        // drop(a) while b is live releases a's registration; drop(b) must
        // not restore a's now-dead token (a thread carrying a dead token
        // could alias a recycled magazine claim in the arena).
        let a = register_worker();
        let a_token = current_worker_token().expect("a is tracked");
        let b = register_worker();
        drop(a);
        // b is still the active registration.
        let cur = current_worker_token().expect("b still registered");
        assert!(cur.is_current());
        drop(b);
        // Not a's dead token: either unregistered, or (if this test thread
        // had an outer registration) a still-current one.
        match current_worker_token() {
            None => {}
            Some(t) => {
                assert!(t.is_current(), "restored token must be live");
                assert_ne!(t, a_token, "a's released token must not return");
            }
        }
        assert!(!a_token.is_current(), "a's registration was released");
    }

    #[test]
    fn worker_registration_is_scoped_and_nestable() {
        let _workers = crate::test_support::pool::worker_serial();
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
