//! A deterministic virtual-interleaving harness for the shard-lock magazine
//! protocol of [`crate::magazine`].
//!
//! Seeded multi-thread stress catches protocol races only probabilistically:
//! whether a second thread arrives exactly while the first sits between its
//! refill and its pop depends on the scheduler's mood.  This kit removes the
//! scheduler from the picture, in the spirit of model-checking tools
//! (POPACheck et al.): a single driver thread plays several *simulated
//! threads* against one [`MagazinePool`], each operation split into the four
//! steps the protocol has — **lock** (home shard, else its neighbour, else
//! the shared path), **refill-or-flush**, **pop-or-push**, **unlock** — and
//! **exhaustively enumerates every interleaving** of those steps over small
//! bounded scripts.  A simulated thread parked between two steps keeps its
//! [`ShardGuard`], exactly like a real thread preempted mid-operation.
//!
//! After **every step** the kit checks the invariants stated in the
//! [`crate::magazine`] module docs:
//!
//! * **exclusivity** — no two simulated threads hold the same shard;
//! * **no double handout** — a popped item is never already checked out;
//! * **no loss** — every item the backend ever created is accounted for:
//!   `created == outstanding + cached-in-magazines + backstop-free-list`;
//! * **accounting** — magazine live deltas plus the shared-path counter
//!   equal the outstanding count, and served + shared-path operations equal
//!   the operations performed.
//!
//! At the end of every schedule the kit frees all held items, drains the
//! pool, and checks it ends empty with the backstop holding every created
//! item.
//!
//! Schedules are replayable: the exhaustive explorer is fully
//! deterministic, the sampled explorer derives its schedules from a seed
//! (see [`explore_sampled`]), and an invariant failure panics with the
//! exact schedule prefix that produced it.

use std::collections::HashSet;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::magazine::{MagazineBackend, MagazinePool, ShardGuard, MAG_SHARDS};
use crate::test_support::rng;

/// One operation of a simulated thread's script; each takes
/// [`STEPS_PER_OP`] schedule steps.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Allocate one item.
    Alloc,
    /// Free the oldest item this thread holds (four no-op steps when it
    /// holds none).
    Free,
}

/// Schedule steps per [`Op`]: lock, refill-or-flush, pop-or-push, unlock.
/// An operation that found both shards held does all its work (on the
/// shared path) in the first step; its other three are no-ops.
pub const STEPS_PER_OP: usize = 4;

/// One simulated thread: its home shard plus its operation script.
#[derive(Clone, Debug)]
pub struct Script {
    /// Home shard; two scripts with the same `home` contend for one lock.
    pub home: usize,
    /// Operations run to completion, in order, before the interleaved part
    /// starts (to bring a magazine to a boundary).
    pub warmup: Vec<Op>,
    /// The operations whose steps are interleaved with the other scripts'.
    pub ops: Vec<Op>,
}

/// Aggregate result of an exploration, for reporting and sanity checks.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Number of complete schedules executed.
    pub schedules: usize,
    /// Total interleaved steps executed (invariants were checked after each).
    pub steps: usize,
    /// Interleaved operations that locked their home's neighbour.
    pub neighbour_locks: usize,
    /// Interleaved operations that found both shards held.
    pub shared_path_ops: usize,
}

/// The kit's shared backstop: a free vector plus a fresh-item counter, with
/// refill/flush counters the tests use to observe which path served an
/// allocation.
#[derive(Default)]
pub struct KitBackend {
    free: Mutex<Vec<u32>>,
    next_fresh: AtomicU32,
    /// Number of [`MagazineBackend::refill`] calls.
    pub refills: AtomicUsize,
    /// Number of [`MagazineBackend::flush`] calls.
    pub flushes: AtomicUsize,
}

impl KitBackend {
    /// Total items ever created from the fresh region.
    pub fn created(&self) -> usize {
        self.next_fresh.load(Ordering::Relaxed) as usize
    }

    /// Items currently on the backstop free list.
    pub fn free_len(&self) -> usize {
        self.free.lock().len()
    }

    /// The shared-path allocation (what a caller does when both shards are
    /// held): pop the backstop, else create fresh.
    pub fn alloc_direct(&self) -> u32 {
        if let Some(item) = self.free.lock().pop() {
            return item;
        }
        self.next_fresh.fetch_add(1, Ordering::Relaxed)
    }

    /// The shared-path free.
    pub fn free_direct(&self, item: u32) {
        self.free.lock().push(item);
    }
}

impl MagazineBackend for KitBackend {
    type Item = u32;

    fn refill(&self, buf: &mut [MaybeUninit<u32>]) -> usize {
        self.refills.fetch_add(1, Ordering::Relaxed);
        let mut n = 0;
        let mut free = self.free.lock();
        while n < buf.len() {
            match free.pop() {
                Some(item) => {
                    buf[n].write(item);
                    n += 1;
                }
                None => break,
            }
        }
        drop(free);
        if n == 0 {
            let base = self
                .next_fresh
                .fetch_add(buf.len() as u32, Ordering::Relaxed);
            for (k, slot) in buf.iter_mut().enumerate() {
                slot.write(base + k as u32);
            }
            n = buf.len();
        }
        n
    }

    fn flush(&self, items: &[u32]) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.free.lock().extend_from_slice(items);
    }
}

/// Where a simulated thread stands inside its current operation.
enum Phase<'p> {
    /// Between operations.
    Idle,
    /// Holding a shard, at some step after the lock.
    Locked(ShardGuard<'p, u32>),
    /// The operation already completed on the shared path (or had nothing
    /// to free); its remaining steps are no-ops.
    Finished,
}

struct SimThread<'p> {
    home: usize,
    held: Vec<u32>,
    phase: Phase<'p>,
}

/// One schedule's isolated world: a fresh pool, a fresh backend, and the
/// simulated threads of the scripts.
struct Sandbox<'p> {
    pool: &'p MagazinePool<u32>,
    backend: &'p KitBackend,
    threads: Vec<SimThread<'p>>,
    outstanding: HashSet<u32>,
    /// The shared-path live counter the real callers keep next to the pool
    /// (the arena's `live_overflow`, the block pool's `GLOBAL_LIVE`).
    overflow: i64,
    /// Completed pops and pushes, magazine and shared path together.
    moves: u64,
    shared: u64,
    neighbours: usize,
}

impl<'p> Sandbox<'p> {
    /// Runs step `step` (0..[`STEPS_PER_OP`]) of `op` on thread `t`.
    fn step(&mut self, t: usize, op: Op, step: usize, trace: &[usize]) {
        let (pool, backend) = (self.pool, self.backend);
        let thread = &mut self.threads[t];
        match (step, std::mem::replace(&mut thread.phase, Phase::Idle)) {
            (0, Phase::Idle) if op == Op::Free && thread.held.is_empty() => {
                thread.phase = Phase::Finished;
            }
            (0, Phase::Idle) => match pool.try_lock_from(thread.home) {
                Some(guard) => {
                    self.neighbours += usize::from(guard.shard() != thread.home % MAG_SHARDS);
                    thread.phase = Phase::Locked(guard);
                }
                None => {
                    self.shared += 1;
                    self.moves += 1;
                    match op {
                        Op::Alloc => {
                            self.overflow += 1;
                            let item = backend.alloc_direct();
                            Self::check_out(&mut self.outstanding, thread, item, trace);
                        }
                        Op::Free => {
                            self.overflow -= 1;
                            let item = thread.held.remove(0);
                            assert!(self.outstanding.remove(&item), "freed item was not live");
                            backend.free_direct(item);
                        }
                    }
                    thread.phase = Phase::Finished;
                }
            },
            (1, Phase::Locked(mut guard)) => {
                match op {
                    Op::Alloc => guard.refill_if_empty(backend),
                    Op::Free => guard.flush_if_full(backend),
                }
                thread.phase = Phase::Locked(guard);
            }
            (2, Phase::Locked(mut guard)) => {
                self.moves += 1;
                match op {
                    Op::Alloc => {
                        let item = guard.pop(backend);
                        Self::check_out(&mut self.outstanding, thread, item, trace);
                    }
                    Op::Free => {
                        let item = thread.held.remove(0);
                        assert!(self.outstanding.remove(&item), "freed item was not live");
                        guard.push(backend, item);
                    }
                }
                thread.phase = Phase::Locked(guard);
            }
            // Unlock: the guard taken out of `phase` drops here.
            (3, Phase::Locked(_) | Phase::Finished) => {}
            (1 | 2, Phase::Finished) => thread.phase = Phase::Finished,
            _ => unreachable!("step {step} in the wrong phase"),
        }
    }

    fn check_out(
        outstanding: &mut HashSet<u32>,
        thread: &mut SimThread<'_>,
        item: u32,
        trace: &[usize],
    ) {
        assert!(
            outstanding.insert(item),
            "DOUBLE HANDOUT of item {item} in schedule {trace:?}"
        );
        thread.held.push(item);
    }

    fn check_invariants(&self, trace: &[usize]) {
        let mut held_shards = HashSet::new();
        for thread in &self.threads {
            if let Phase::Locked(guard) = &thread.phase {
                assert!(
                    held_shards.insert(guard.shard()),
                    "SHARD {} LOCKED TWICE in schedule {trace:?}",
                    guard.shard()
                );
            }
        }
        let created = self.backend.created();
        let (cached, free) = (self.pool.cached(), self.backend.free_len());
        assert_eq!(
            created,
            self.outstanding.len() + cached + free,
            "ITEM LOST OR DUPLICATED at the last step of schedule {trace:?}: created \
             {created} != outstanding {} + cached {cached} + free {free}",
            self.outstanding.len(),
        );
        assert_eq!(
            self.pool.live() + self.overflow,
            self.outstanding.len() as i64,
            "live accounting (magazines {} + overflow {}) disagrees with the \
             outstanding items in schedule {trace:?}",
            self.pool.live(),
            self.overflow,
        );
        assert_eq!(self.pool.shared_path_ops(), self.shared);
        assert_eq!(self.pool.magazine_ops() + self.shared, self.moves);
    }

    /// End-of-schedule teardown: free everything, drain the pool, and
    /// verify the world ends empty.
    fn finish(mut self, trace: &[usize]) {
        for thread in &mut self.threads {
            assert!(matches!(thread.phase, Phase::Idle), "schedule ended mid-op");
            for item in thread.held.drain(..) {
                assert!(self.outstanding.remove(&item));
                let mut guard = self
                    .pool
                    .try_lock_from(thread.home)
                    .expect("every shard is unlocked once all operations completed");
                guard.push(self.backend, item);
            }
        }
        self.pool.drain(self.backend);
        assert_eq!(
            self.pool.cached(),
            0,
            "schedule {trace:?}: drain left items"
        );
        assert_eq!(
            self.backend.free_len(),
            self.backend.created(),
            "schedule {trace:?}: an item was lost — every created item must \
             end on the backstop after the drain"
        );
        assert_eq!(
            self.pool.live() + self.overflow,
            0,
            "schedule {trace:?}: live delta leaked"
        );
    }
}

fn run_schedule(scripts: &[Script], schedule: &[usize], out: &mut Outcome) {
    let pool = MagazinePool::new();
    let backend = KitBackend::default();
    let mut sandbox = Sandbox {
        pool: &pool,
        backend: &backend,
        threads: scripts
            .iter()
            .map(|s| SimThread {
                home: s.home,
                held: Vec::new(),
                phase: Phase::Idle,
            })
            .collect(),
        outstanding: HashSet::new(),
        overflow: 0,
        moves: 0,
        shared: 0,
        neighbours: 0,
    };
    // The warm-up is sequential and the same for every schedule, so it is
    // checked once, not per step.
    for (t, script) in scripts.iter().enumerate() {
        for &op in &script.warmup {
            for step in 0..STEPS_PER_OP {
                sandbox.step(t, op, step, &[]);
            }
        }
    }
    sandbox.check_invariants(&[]);
    let (warm_shared, warm_neighbours) = (sandbox.shared, sandbox.neighbours);
    let mut cursors = vec![0usize; scripts.len()];
    for (step_no, &t) in schedule.iter().enumerate() {
        let op = scripts[t].ops[cursors[t] / STEPS_PER_OP];
        let trace = &schedule[..=step_no];
        sandbox.step(t, op, cursors[t] % STEPS_PER_OP, trace);
        sandbox.check_invariants(trace);
        cursors[t] += 1;
    }
    out.schedules += 1;
    out.steps += schedule.len();
    out.shared_path_ops += (sandbox.shared - warm_shared) as usize;
    out.neighbour_locks += sandbox.neighbours - warm_neighbours;
    sandbox.finish(schedule);
}

fn step_counts(scripts: &[Script]) -> Vec<usize> {
    scripts.iter().map(|s| s.ops.len() * STEPS_PER_OP).collect()
}

/// Exhaustively explores **every** interleaving of the scripts' steps (the
/// full multinomial of the step counts), replaying each schedule in a fresh
/// sandbox and checking the invariants after every step.  Panics (with the
/// offending schedule) on any violation; returns the exploration size
/// otherwise.
pub fn explore(scripts: &[Script]) -> Outcome {
    let mut outcome = Outcome::default();
    let mut remaining = step_counts(scripts);
    let mut schedule: Vec<usize> = Vec::with_capacity(remaining.iter().sum());
    dfs(scripts, &mut remaining, &mut schedule, &mut outcome);
    outcome
}

fn dfs(scripts: &[Script], remaining: &mut [usize], schedule: &mut Vec<usize>, out: &mut Outcome) {
    if remaining.iter().all(|&r| r == 0) {
        run_schedule(scripts, schedule, out);
        return;
    }
    for t in 0..remaining.len() {
        if remaining[t] == 0 {
            continue;
        }
        remaining[t] -= 1;
        schedule.push(t);
        dfs(scripts, remaining, schedule, out);
        schedule.pop();
        remaining[t] += 1;
    }
}

/// Explores `samples` schedules drawn deterministically from `seed`
/// (xorshift over the eligible threads at each step) — the long-script
/// complement to [`explore`] when the full multinomial is too large.
/// Replay any failure by re-running with the same seed.
pub fn explore_sampled(scripts: &[Script], seed: u64, samples: usize) -> Outcome {
    let lens = step_counts(scripts);
    let total: usize = lens.iter().sum();
    let mut outcome = Outcome::default();
    let mut state = seed | 1;
    for _ in 0..samples {
        let mut remaining = lens.clone();
        let mut schedule = Vec::with_capacity(total);
        for _ in 0..total {
            let eligible: Vec<usize> = (0..remaining.len()).filter(|&t| remaining[t] > 0).collect();
            let pick = eligible[(rng::xorshift(&mut state) % eligible.len() as u64) as usize];
            remaining[pick] -= 1;
            schedule.push(pick);
        }
        run_schedule(scripts, &schedule, &mut outcome);
    }
    outcome
}
