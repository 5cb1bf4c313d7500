//! Microbenchmarks of the task spawn plane: the fused/recycled spawn path,
//! and batched vs individual submission.
//! Numbers below are medians of `cargo bench -p promise-bench --bench
//! spawn_path` on the 1-CPU reference container (re-run to refresh; the
//! module-doc protocol mirrors the `data_plane` benches):
//!
//! * `spawn/batch-submit` — a 64-task fork published through `spawn_batch`
//!   (one injector push-chain + one wake sweep) vs 64 individual `spawn`
//!   calls, joins included in both.  batch-64 ≈ 2.4 µs vs individual-64
//!   ≈ 6.0 µs per task end-to-end (≈ 2.5×).  PR 4 timed the same 64
//!   individual spawns as `spawn/spawn-join` against the pre-fusion spawn
//!   path (separate completion promise + `Arc<Mutex<Option<R>>>` side
//!   channel + unpooled record): ≈ 2.8 µs vs ≈ 6.9 µs per spawn+join
//!   (≈ 2.5×).  PR 15 deleted that path, and the group with it — its
//!   remaining arm was a second copy of `individual-64`.
//! * `submit/drain-64` — pure submission cost at the scheduler seam: 64
//!   pre-built no-op jobs enqueued with `submit_batch` (chain) vs a loop of
//!   `submit`, timed together with the drain-completion signal so
//!   production cannot outrun the 1-CPU consumer.  chain ≈ 0.9 µs vs
//!   individual ≈ 3.1 µs per job (≈ 3.4× — the per-job park-lock/wake
//!   round trips collapse into one sweep).
//! * `spawn/steal-after-batch` — a 64-task batch published from the
//!   *external* (root) thread: the whole chain lands on one injector shard
//!   and is drained/stolen by the worker pool, joins included.
//!   ≈ 0.9 µs per task.
//! * `spawn/allocs-per-spawn` (reported on stderr, not timed) — global
//!   allocator calls per steady-state spawn+join, counted by the installed
//!   `CountingAllocator`: **fused+pooled = 0.000/op** (job record, fused
//!   completion cell — a pooled refcount block since PR 5 — transfer list
//!   and arena slots are all recycled); the pre-fusion path read
//!   2.000/op at PR 5 (the `Arc<Mutex<…>>` result side channel + its
//!   unpooled job record).  The `zero_alloc_spawn` integration test
//!   asserts the 0.

use std::sync::mpsc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use promise_core::Job;
use promise_runtime::{spawn, spawn_batch, Runtime, SchedulerConfig, WorkStealingScheduler};
use promise_stats::{AllocStats, CountingAllocator};

/// Counts every global-allocator call in this bench binary so
/// `bench_allocs_per_spawn` can report allocations per operation.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Children per measured fork: large enough that one worker wake amortises
/// and the per-spawn path cost dominates.
const FANOUT: usize = 64;

fn bench_runtime() -> Runtime {
    Runtime::builder()
        // Keep workers hot between iterations, like the paper's persistent
        // pool within one VM instance.
        .worker_keep_alive(Duration::from_secs(5))
        .build()
}

fn bench_batch_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("spawn/batch-submit");
    group.throughput(Throughput::Elements(FANOUT as u64));
    let rt = bench_runtime();
    rt.block_on(|| {
        group.bench_function("batch-64", |b| {
            b.iter(|| {
                let handles = spawn_batch(|batch| {
                    for i in 0..FANOUT as u64 {
                        batch.spawn((), move || black_box(i));
                    }
                });
                handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            })
        });
        group.bench_function("individual-64", |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..FANOUT as u64)
                    .map(|i| spawn((), move || black_box(i)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            })
        });
    })
    .unwrap();
    group.finish();
}

/// Pure submission cost at the scheduler seam: enqueue 64 no-op jobs (batch
/// chain vs individual submits) and wait for the drain signal, so the
/// producer cannot outrun the single-CPU consumer across iterations.
fn bench_submit_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("submit/drain-64");
    group.throughput(Throughput::Elements(FANOUT as u64));
    let sched = WorkStealingScheduler::new(SchedulerConfig {
        base: promise_runtime::PoolConfig {
            initial_workers: 1,
            keep_alive: Duration::from_secs(5),
            ..promise_runtime::PoolConfig::default()
        },
        ..SchedulerConfig::default()
    });

    let make_jobs = |tx: &mpsc::Sender<()>| -> Vec<Job> {
        (0..FANOUT)
            .map(|_| {
                let tx = tx.clone();
                Job::new(move || {
                    let _ = tx.send(());
                })
            })
            .collect()
    };

    let (tx, rx) = mpsc::channel();
    group.bench_function("chain", |b| {
        b.iter(|| {
            sched.submit_batch(make_jobs(&tx)).ok().unwrap();
            for _ in 0..FANOUT {
                rx.recv().unwrap();
            }
        })
    });
    group.bench_function("individual", |b| {
        b.iter(|| {
            for job in make_jobs(&tx) {
                sched.submit(job).ok().unwrap();
            }
            for _ in 0..FANOUT {
                rx.recv().unwrap();
            }
        })
    });
    group.finish();
    sched.shutdown();
}

fn bench_steal_after_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("spawn/steal-after-batch");
    group.throughput(Throughput::Elements(FANOUT as u64));
    let rt = Runtime::builder()
        .initial_workers(2)
        .worker_keep_alive(Duration::from_secs(5))
        .build();
    // The root task is *not* a scheduler worker: the whole batch takes the
    // injector push-chain and is picked up (and cross-stolen) by the pool.
    rt.block_on(|| {
        group.bench_function("external-batch-64", |b| {
            b.iter(|| {
                let handles = spawn_batch(|batch| {
                    for i in 0..FANOUT as u64 {
                        batch.spawn((), move || black_box(i).wrapping_mul(3))
                    }
                });
                handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            })
        });
    })
    .unwrap();
    group.finish();
}

/// Not a timing benchmark: counts global-allocator calls per steady-state
/// spawn+join and prints the per-op number.  Proves the zero-alloc claim on
/// the same build the timing numbers come from.
fn bench_allocs_per_spawn(_c: &mut Criterion) {
    const WARMUP: u64 = 4000;
    const MEASURE: u64 = 2000;
    let rt = Runtime::builder()
        .initial_workers(2)
        .worker_keep_alive(Duration::from_secs(60))
        .build();
    rt.block_on(|| {
        for i in 0..WARMUP {
            let _ = spawn((), move || black_box(i)).join().unwrap();
        }
        let before = AllocStats::snapshot();
        for i in 0..MEASURE {
            let _ = spawn((), move || black_box(i)).join().unwrap();
        }
        let fused = AllocStats::snapshot().total_allocations - before.total_allocations;

        eprintln!(
            "spawn/allocs-per-spawn: fused+pooled {:.3}/op \
             (over {MEASURE} steady-state spawn+join)",
            fused as f64 / MEASURE as f64,
        );
    })
    .unwrap();
    rt.shutdown();
}

criterion_group!(
    benches,
    bench_batch_submit,
    bench_submit_drain,
    bench_steal_after_batch,
    bench_allocs_per_spawn
);
criterion_main!(benches);
