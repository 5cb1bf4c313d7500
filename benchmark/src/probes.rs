//! The probe suite: what one call into each layer's public functions costs,
//! timed from outside.  Runs once per traced run.
//!
//! Every probe reports the median over [`REPS`] repetitions of a batch, so a
//! pre-empted batch on this small box does not move the number.  Probes that
//! need a task context run as the root task of a runtime built the same way
//! the workloads' is; only one runtime (or scheduler) is alive at a time.

use std::hint::black_box;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use promise_core::arena::{SlotArena, CHUNK_SIZE};
use promise_core::counters::register_worker;
use promise_core::slots::TaskSlot;
use promise_core::{bench_support, epoch, Context, Job, OneShotCell, Promise, VerificationMode};
use promise_runtime::{
    spawn, spawn_batch, PoolConfig, SchedulerConfig, TaskHandle, WorkStealingScheduler,
};
use promise_sync::Channel;

use crate::alloc;
use crate::stats;
use crate::workloads::build_runtime;

/// Repetitions per probe (after one discarded warm-up repetition).
const REPS: usize = 11;

/// Median nanoseconds per call of `op` over `REPS` batches of `batch` calls.
fn ns_per_op(batch: usize, mut op: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        let ns = start.elapsed().as_nanos() as f64 / batch as f64;
        if rep > 0 {
            samples.push(ns);
        }
    }
    stats::median(&samples)
}

/// Probes that need a task context, for one verification mode.
#[derive(Clone, Debug, Default)]
pub struct TaskProbes {
    pub create_set_get_ns: f64,
    pub channel_send_recv_ns: f64,
    pub channel_allocs_per_msg: f64,
    pub spawn_join_ns: f64,
    pub spawn_batch64_ns: f64,
    pub allocs_per_spawn: f64,
    /// Per promise moved at spawn (verified runtime only).
    pub transfer_ns: f64,
    /// Per ledger entry swept at task exit (verified runtime only).
    pub exit_sweep_ns: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub cell_set_get_ns: f64,
    pub cell_get_fulfilled_ns: f64,
    pub arena_alloc_free_ns: f64,
    pub arena_alloc_free_contended_ns: f64,
    pub arena_reclaim_us: f64,
    pub epoch_pin_ns: f64,
    pub detector_step_ns: f64,
    pub detector_walk_short_ns: f64,
    pub job_new_run_ns: f64,
    pub waitq_park_wake_us: f64,
    pub scheduler_submit_run_ns: f64,
    pub scheduler_submit_batch_ns: f64,
    pub verified: TaskProbes,
    pub baseline: TaskProbes,
}

pub fn run_all() -> Probes {
    let _worker = register_worker();
    let (step, short) = detector();
    let (submit, submit_batch) = scheduler();
    Probes {
        cell_set_get_ns: ns_per_op(20_000, || {
            let cell = OneShotCell::<u64>::new();
            let _ = cell.try_fill(black_box(41), false);
            black_box(cell.get_ref());
        }),
        cell_get_fulfilled_ns: cell_get_fulfilled(),
        arena_alloc_free_ns: {
            let arena: SlotArena<TaskSlot> = SlotArena::new();
            ns_per_op(50_000, || arena.free(black_box(arena.alloc())))
        },
        arena_alloc_free_contended_ns: arena_contended(),
        arena_reclaim_us: arena_reclaim(),
        epoch_pin_ns: ns_per_op(100_000, || drop(black_box(epoch::pin()))),
        detector_step_ns: step,
        detector_walk_short_ns: short,
        job_new_run_ns: ns_per_op(50_000, || {
            Job::new(|| {
                black_box(1u64);
            })
            .run()
        }),
        waitq_park_wake_us: park_wake(),
        scheduler_submit_run_ns: submit,
        scheduler_submit_batch_ns: submit_batch,
        verified: task_probes(VerificationMode::Full),
        baseline: task_probes(VerificationMode::Unverified),
    }
}

/// One read of an already-filled cell is below the clock's resolution, so
/// each call reads 64 filled cells.
fn cell_get_fulfilled() -> f64 {
    let filled: Vec<OneShotCell<u64>> = (0..64)
        .map(|i| {
            let cell = OneShotCell::new();
            let _ = cell.try_fill(i, false);
            cell
        })
        .collect();
    ns_per_op(2_000, || {
        let sum: u64 = black_box(&filled).iter().filter_map(|c| c.get_ref()).sum();
        black_box(sum);
    }) / 64.0
}

/// Two registered threads allocating and freeing on one arena at once; the
/// figure is what one alloc+free pair costs a thread meanwhile.
fn arena_contended() -> f64 {
    const PAIRS: usize = 50_000;
    let arena: Arc<SlotArena<TaskSlot>> = Arc::new(SlotArena::new());
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (arena, barrier) = (Arc::clone(&arena), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let _worker = register_worker();
                    barrier.wait();
                    let start = Instant::now();
                    for _ in 0..PAIRS {
                        arena.free(black_box(arena.alloc()));
                    }
                    let ns = start.elapsed().as_nanos() as f64 / PAIRS as f64;
                    arena.release_worker_shard();
                    ns
                })
            })
            .collect();
        let per_thread: Vec<f64> = threads
            .into_iter()
            .map(|t| t.join().expect("arena probe thread panicked"))
            .collect();
        samples.push(stats::median(&per_thread));
    }
    stats::median(&samples)
}

/// One `reclaim()` call that has four fully-free chunks to retire and free.
fn arena_reclaim() -> f64 {
    const CHUNKS: usize = 4;
    let arena: SlotArena<TaskSlot> = SlotArena::new();
    let mut samples = Vec::new();
    for _ in 0..REPS {
        let refs: Vec<_> = (0..CHUNKS * CHUNK_SIZE).map(|_| arena.alloc()).collect();
        for r in refs {
            arena.free(r);
        }
        // Frees land in this thread's magazine; reclamation only sees the
        // global free list.
        arena.release_worker_shard();
        let start = Instant::now();
        black_box(arena.reclaim());
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    stats::median(&samples)
}

/// `(ns per step of a long walk, ns of a walk over a 2-task chain)`: the
/// marginal and the fixed (publish, fence, verify, clear) cost of one
/// detector run.
fn detector() -> (f64, f64) {
    const LONG: usize = 1024;
    let ctx = Context::new_verified();
    let (t0, p0) = bench_support::build_chain(&ctx, 2);
    let short = ns_per_op(20_000, || {
        black_box(bench_support::chain_walk(&ctx, t0, p0));
    });
    let (t0, p0) = bench_support::build_chain(&ctx, LONG);
    let long = ns_per_op(200, || {
        black_box(bench_support::chain_walk(&ctx, t0, p0));
    });
    (((long - short) / (LONG - 2) as f64).max(0.0), short)
}

/// Two threads handing a token back and forth through blocked
/// `OneShotCell::wait` / `try_fill`: each hop is one park and one wake.
fn park_wake() -> f64 {
    const HOPS: usize = 2_000;
    let ping: Arc<Vec<OneShotCell<()>>> = Arc::new((0..HOPS).map(|_| OneShotCell::new()).collect());
    let pong: Arc<Vec<OneShotCell<()>>> = Arc::new((0..HOPS).map(|_| OneShotCell::new()).collect());
    let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
    let echo = std::thread::spawn(move || {
        for i in 0..HOPS {
            if !ping2[i].is_filled() {
                ping2[i].wait(None);
            }
            let _ = pong2[i].try_fill((), false);
        }
    });
    let mut samples = Vec::with_capacity(HOPS);
    for i in 0..HOPS {
        let start = Instant::now();
        let _ = ping[i].try_fill((), false);
        if !pong[i].is_filled() {
            pong[i].wait(None);
        }
        // A round trip is two hops.
        samples.push(start.elapsed().as_nanos() as f64 / 2e3);
    }
    echo.join().expect("park/wake echo thread panicked");
    stats::median(&samples)
}

/// `(ns per job through submit, ns per job through submit_batch)`: 64 no-op
/// jobs handed to a one-worker scheduler and drained, so production cannot
/// outrun consumption.
fn scheduler() -> (f64, f64) {
    const JOBS: usize = 64;
    let sched = WorkStealingScheduler::new(SchedulerConfig {
        base: PoolConfig {
            initial_workers: 1,
            keep_alive: Duration::from_secs(60),
            ..PoolConfig::default()
        },
        ..SchedulerConfig::default()
    });
    let (tx, rx) = mpsc::channel::<()>();
    let make_jobs = || -> Vec<Job> {
        (0..JOBS)
            .map(|_| {
                let tx = tx.clone();
                Job::new(move || {
                    let _ = tx.send(());
                })
            })
            .collect()
    };
    let drain = || {
        for _ in 0..JOBS {
            rx.recv().expect("a submitted job was dropped");
        }
    };
    let single = ns_per_op(100, || {
        for job in make_jobs() {
            assert!(sched.submit(job).is_ok(), "scheduler refused a job");
        }
        drain();
    }) / JOBS as f64;
    let batch = ns_per_op(100, || {
        assert!(
            sched.submit_batch(make_jobs()).is_ok(),
            "scheduler refused a batch"
        );
        drain();
    }) / JOBS as f64;
    sched.shutdown();
    (single, batch)
}

fn task_probes(mode: VerificationMode) -> TaskProbes {
    const FANOUT: usize = 64;
    let rt = build_runtime(mode, false);
    let mut out = rt
        .block_on(|| {
            let create_set_get_ns = ns_per_op(5_000, || {
                let p = Promise::<u64>::new();
                p.set(black_box(1)).expect("owner sets its promise");
                black_box(p.get().expect("fulfilled promise"));
            });
            let ch = Channel::<u64>::new();
            let mut send_recv = || {
                ch.send(black_box(7)).expect("owner sends");
                black_box(ch.recv().expect("ready message"));
            };
            let channel_send_recv_ns = ns_per_op(5_000, &mut send_recv);
            let (_, counted) = alloc::counted(|| (0..5_000).for_each(|_| send_recv()));
            let channel_allocs_per_msg = counted.allocations as f64 / 5_000.0;
            // The root owns the sending end; leaving it open is an omitted set.
            ch.stop().expect("owner stops its channel");

            let mut fork_join = || {
                let handles: Vec<TaskHandle<u64>> = (0..FANOUT as u64)
                    .map(|i| spawn((), move || black_box(i)))
                    .collect();
                for h in handles {
                    black_box(h.join().expect("probe task failed"));
                }
            };
            let spawn_join_ns = ns_per_op(60, &mut fork_join) / FANOUT as f64;
            let (_, counted) = alloc::counted(|| (0..60).for_each(|_| fork_join()));
            let allocs_per_spawn = counted.allocations as f64 / (60 * FANOUT) as f64;
            let spawn_batch64_ns = ns_per_op(60, || {
                let handles = spawn_batch(|b| {
                    for i in 0..FANOUT as u64 {
                        b.spawn((), move || black_box(i));
                    }
                });
                for h in handles {
                    black_box(h.join().expect("probe task failed"));
                }
            }) / FANOUT as f64;
            TaskProbes {
                create_set_get_ns,
                channel_send_recv_ns,
                channel_allocs_per_msg,
                spawn_join_ns,
                spawn_batch64_ns,
                allocs_per_spawn,
                transfer_ns: 0.0,
                exit_sweep_ns: 0.0,
            }
        })
        .expect("probe root task failed");
    if mode.tracks_ownership() {
        out.transfer_ns = rt.block_on(transfer).expect("probe root task failed");
        out.exit_sweep_ns = exit_sweep(&rt);
    }
    rt.shutdown();
    out
}

/// Cost per promise moved at spawn, on the spawning side: the `spawn` call
/// alone is timed, handing the child 8 promises against handing it none.
/// (What the child pays for 8 more ledger entries is the exit sweep's.)
fn transfer() -> f64 {
    const K: usize = 8;
    let set_all = |ps: &[Promise<u64>]| {
        for p in ps {
            p.set(1).expect("the owner sets its promise");
        }
    };
    let spawn_call_ns = |moved: bool| {
        let mut samples = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let mut in_spawn = Duration::ZERO;
            for _ in 0..500 {
                let ps: Vec<Promise<u64>> = (0..K).map(|_| Promise::new()).collect();
                let theirs = ps.clone();
                let mut kept = Some(ps);
                let start = Instant::now();
                let h = if moved {
                    let ps = kept.take().expect("just set");
                    spawn(ps, move || set_all(&theirs))
                } else {
                    // Same closure size; the parent keeps and sets them.
                    spawn((), move || drop(theirs))
                };
                in_spawn += start.elapsed();
                if let Some(ps) = kept {
                    set_all(&ps);
                }
                h.join().expect("probe task failed");
            }
            samples.push(in_spawn.as_nanos() as f64 / 500.0);
        }
        stats::median(&samples)
    };
    ((spawn_call_ns(true) - spawn_call_ns(false)) / K as f64).max(0.0)
}

/// Cost per ledger entry of the exit sweep: a root task that holds 1 024
/// fulfilled promises in its ledger returns, and the time from its body's
/// last statement to `block_on` returning is the sweep.
///
/// All promises are created before any is set: the ledger prunes fulfilled
/// entries on append once it holds eight, so a create-set loop would leave
/// the exit nothing to sweep.  Entries keep their slots alive, so the
/// handles are dropped before the clock is read.
fn exit_sweep(rt: &promise_runtime::Runtime) -> f64 {
    const ENTRIES: usize = 1024;
    let mut samples = Vec::new();
    for _ in 0..=REPS {
        let body_done = rt
            .block_on(|| {
                let held: Vec<Promise<u64>> = (0..ENTRIES).map(|_| Promise::new()).collect();
                for p in &held {
                    p.set(1).expect("owner sets its promise");
                }
                drop(held);
                Instant::now()
            })
            .expect("probe root task failed");
        samples.push(body_done.elapsed().as_nanos() as f64 / ENTRIES as f64);
    }
    stats::median(&samples[1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An exit that finds the ledger already pruned reads well under 1 ns
    /// per entry (`block_on`'s fixed return cost over 1 024).
    #[test]
    fn the_exit_sweep_probe_has_entries_to_sweep() {
        let rt = build_runtime(VerificationMode::Full, false);
        let per_entry_ns = exit_sweep(&rt);
        rt.shutdown();
        assert!(
            per_entry_ns >= 1.0,
            "{per_entry_ns} ns per entry: the ledger was empty at exit"
        );
    }
}
