//! Pins the spawn plane's headline property: **steady-state
//! spawn → run → retire performs zero global-allocator calls** — including
//! the fused completion cell, which since the pooled refcount blocks
//! (`promise_core::pool_arc`) comes from the same recycled block pool as
//! the job records.
//!
//! The test installs a counting global allocator (this file is its own
//! binary, so the allocator is private to it), warms every pool on the path
//! — job-block magazines, promise-cell blocks, arena slot magazines, deque
//! capacity, injector shards, the backstop vectors' capacity — and then
//! asserts that a long measured run of spawn+join performs **no**
//! allocation at all.
//!
//! Two shapes are pinned: an empty-transfer spawn with a one-word body, and
//! the `churn` workload's spawn — a transferred `Promise<u64>` plus two
//! words captured by a body that `set`s the promise — through both `spawn`
//! and `SpawnBatch`.  The second shape is the one a growing task record
//! breaks first: its job record is the prepared task, the completion handle
//! and a 24-byte body in one 256-byte block, so it also asserts that
//! `JobPoolStats::heap_records` does not move.
//!
//! If this test starts failing after a change, something put an allocator
//! call back on the per-spawn path; `spawn_path` benches will show the
//! regression as well.

use std::sync::{Mutex, MutexGuard};

use promise_core::job::job_pool_stats;
use promise_core::Promise;
use promise_runtime::{spawn, Runtime, SpawnBatch, TaskHandle};
use promise_stats::{AllocStats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The counting allocator is process-wide: one case at a time, so no case
/// measures another's traffic.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn runtime() -> Runtime {
    Runtime::builder()
        .initial_workers(2)
        // Workers must not retire (and respawn) mid-measurement: thread
        // churn allocates stacks and names.
        .worker_keep_alive(std::time::Duration::from_secs(300))
        // Growth is a policy decision to add *threads*, which allocates by
        // nature and fires spuriously under CPU contention with the literal
        // §6.3 rule (a transient idle==0 read at submission).  The
        // blocked-aware heuristic grows only when every worker is actually
        // blocked — never, for these trivial bodies — so the measurement
        // isolates the per-spawn path itself.
        .blocked_aware_growth(true)
        .build()
}

/// Runs `round` in windows of `rounds` calls until a window allocates at
/// most `allowed` times (five windows at most); returns each window's
/// allocation count.
///
/// Pool capacity grows monotonically and is never given back (fresh blocks
/// join the circulating float, the backstop vector keeps its peak
/// capacity), so under scheduler noise a window may still witness one
/// capacity event — but the system must then converge.  A genuine
/// per-spawn allocation fires in *every* window and fails the caller's
/// assertion deterministically.
fn measured_windows(rounds: usize, allowed: u64, mut round: impl FnMut()) -> Vec<u64> {
    let mut windows = Vec::with_capacity(5);
    for _ in 0..5 {
        let before = AllocStats::snapshot();
        for _ in 0..rounds {
            round();
        }
        let after = AllocStats::snapshot();
        let allocs = after.total_allocations - before.total_allocations;
        windows.push(allocs);
        if allocs <= allowed {
            break;
        }
    }
    windows
}

fn spawn_join_round(i: u64) -> u64 {
    spawn((), move || i.wrapping_mul(3)).join().unwrap()
}

#[test]
fn steady_state_spawn_run_retire_allocates_nothing() {
    let _serial = serial();
    let rt = runtime();
    rt.block_on(|| {
        // Warm-up: fill the job-block and promise-cell magazines, the arena
        // slot magazines of both arenas, the deque/injector capacity, the
        // wait-queue paths (join parks while workers run), and grow the
        // backstop vectors to their steady-state capacity.
        for i in 0..4000u64 {
            assert_eq!(spawn_join_round(i), i.wrapping_mul(3));
        }
        // Prime the pool's circulating float: hold 256 spawns in flight at
        // once (512 blocks: job record + completion cell each), then join
        // them all.  The released blocks stay in the pool, so the float
        // afterwards far exceeds the worst-case cached-level drift between
        // magazines (2 workers × 64-block cap + backstop oscillation) and
        // the measured loop can never run the backstop dry.
        let burst: Vec<_> = (0..256u64).map(|i| spawn((), move || i)).collect();
        for (i, h) in burst.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u64);
        }

        // Measured steady state: a window of 2000 spawns with **zero**
        // global allocations.
        let mut i = 0u64;
        let windows = measured_windows(2000, 0, || {
            assert_eq!(spawn_join_round(i), i.wrapping_mul(3));
            i += 1;
        });
        assert_eq!(
            *windows.last().unwrap(),
            0,
            "steady-state spawn→run→retire must reach an allocation-free \
             window of 2000 spawns; allocation counts per window: {windows:?}"
        );
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    rt.shutdown();
}

/// Children per churn-shaped round: all in flight at once, as in one
/// `churn` wave.
const WAVE: usize = 64;

/// The `churn` workload's task body: it captures its transferred promise
/// and two words (a seed and a work count) — 24 bytes — and `set`s the
/// promise.
fn churn_body(p: Promise<u64>, seed: u64, work: u64) -> impl FnOnce() + Send + 'static {
    move || {
        let mut x = seed.wrapping_add(1);
        for _ in 0..work {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        p.set(x | 1).expect("the child owns its promise");
    }
}

/// Reads every promise of a wave, joins every child, and clears both lists
/// (their capacity stays, so a round allocates no list).
fn settle_wave(promises: &mut Vec<Promise<u64>>, handles: &mut Vec<TaskHandle<()>>) -> u64 {
    let mut acc = 0u64;
    for p in promises.iter() {
        acc = acc.wrapping_add(p.get().expect("churn promise fulfilled"));
    }
    for h in handles.drain(..) {
        h.join().expect("churn child failed");
    }
    promises.clear();
    acc
}

/// Warms the pools for `round` — many rounds, then several more with every
/// block of the previous ones back in circulation — and then measures it.
fn churn_windows(rounds: usize, allowed: u64, mut round: impl FnMut(u64)) -> Vec<u64> {
    for r in 0..200 {
        round(r);
    }
    let heap_before = job_pool_stats().heap_records;
    let mut r = 200;
    let windows = measured_windows(rounds, allowed, || {
        round(r);
        r += 1;
    });
    assert_eq!(
        job_pool_stats().heap_records,
        heap_before,
        "a churn-shaped spawn record must fit its pooled block"
    );
    windows
}

#[test]
fn churn_shaped_spawn_allocates_nothing() {
    let _serial = serial();
    let rt = runtime();
    rt.block_on(|| {
        let mut promises = Vec::with_capacity(WAVE);
        let mut handles = Vec::with_capacity(WAVE);
        let windows = churn_windows(40, 0, |round| {
            for i in 0..WAVE as u64 {
                let p: Promise<u64> = Promise::new();
                promises.push(p.clone());
                handles.push(spawn([p.clone()], churn_body(p, (round << 32) | i, 8)));
            }
            std::hint::black_box(settle_wave(&mut promises, &mut handles));
        });
        assert_eq!(
            *windows.last().unwrap(),
            0,
            "churn-shaped spawns must reach an allocation-free window of \
             {} spawns; allocation counts per window: {windows:?}",
            40 * WAVE
        );
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    rt.shutdown();
}

#[test]
fn churn_shaped_batch_allocates_only_its_own_lists() {
    let _serial = serial();
    let rt = runtime();
    rt.block_on(|| {
        let mut promises = Vec::with_capacity(WAVE);
        let rounds = 40;
        // A batch owns two lists, its jobs and its handles, sized once up
        // front: the only allocations a batch may make, whatever its size.
        let windows = churn_windows(rounds, 2 * rounds as u64, |round| {
            let mut batch = SpawnBatch::with_capacity(WAVE);
            for i in 0..WAVE as u64 {
                let p: Promise<u64> = Promise::new();
                promises.push(p.clone());
                batch.spawn([p.clone()], churn_body(p, (round << 32) | i, 8));
            }
            let mut handles = batch.submit();
            std::hint::black_box(settle_wave(&mut promises, &mut handles));
        });
        assert!(
            *windows.last().unwrap() <= 2 * rounds as u64,
            "churn-shaped batches of {WAVE} must allocate nothing per spawn \
             (two lists per batch); allocation counts per window of \
             {rounds} batches: {windows:?}"
        );
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    rt.shutdown();
}
