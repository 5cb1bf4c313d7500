//! Microbenchmarks of the verifier's primitive costs:
//!
//! * `ops/*` — the cost of one promise create + set + get, and of one task
//!   spawn with an ownership transfer, under the baseline and verified
//!   configurations;
//! * `chain/*` — the cost of building and resolving a chain of `n` tasks each
//!   blocked on the next task's promise, under both configurations.  In the
//!   verified configuration every blocking `get` entering the chain traverses
//!   the alternating owner/waitingOn edges below it, so the verified-to-
//!   baseline ratio grows with the chain length.  This is the mechanism
//!   behind the Sieve outlier in Table 1 (§6.3): Sieve keeps thousands of
//!   tasks blocked in one long chain.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use promise_core::{HelpConfig, OneShotCell, Promise, VerificationMode};
use promise_runtime::{spawn, Runtime, SchedulerKind};

const CELL: &str = "lockfree-cell";

fn filled_cell(v: u64) -> OneShotCell<u64> {
    let cell = OneShotCell::new();
    cell.try_fill(v, false).unwrap();
    cell
}

/// The one-shot cell on its three shapes:
///
/// * `set_get_uncontended` — create + fill + read, nobody waiting: the
///   common fulfil-before-anyone-asks case (fast `set` must skip all wake
///   machinery);
/// * `get_on_fulfilled` — repeated reads of one already-filled cell: the
///   fulfilled fast path (`Promise::get` after the value landed);
/// * `wake_8_waiters` — fill with 8 parked readers: the slow path (thread
///   spawn/join dominates; this guards against the wake regressing).
///
/// PR 2 measured these against the mutex + condvar cell (deleted in PR 15):
/// `set_get_uncontended` and `get_on_fulfilled` favoured this cell by well
/// over 1.5×, `wake_8_waiters` read parity.
fn cell_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("cell");
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("set_get_uncontended", CELL), |b| {
        b.iter(|| *filled_cell(black_box(41)).get_ref().unwrap());
    });
    // One fulfilled read is sub-nanosecond — below the harness's
    // per-iteration resolution — so each iteration reads a batch of 64
    // filled cells (throughput-annotated).
    let filled: Vec<_> = (0..64).map(filled_cell).collect();
    group.throughput(Throughput::Elements(64));
    group.bench_function(BenchmarkId::new("get_on_fulfilled", CELL), |b| {
        // black_box the slice so the acquire loads cannot be hoisted out
        // of the timing loop.
        b.iter(|| {
            black_box(&filled)
                .iter()
                .map(|c| *c.get_ref().unwrap())
                .sum::<u64>()
        });
    });
    group.throughput(Throughput::Elements(8));
    group.bench_function(BenchmarkId::new("wake_8_waiters", CELL), |b| {
        b.iter(|| {
            let cell = Arc::new(OneShotCell::<u64>::new());
            let waiters: Vec<_> = (0..8)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    std::thread::spawn(move || {
                        if !cell.is_filled() {
                            cell.wait(None);
                        }
                        *cell.get_ref().unwrap()
                    })
                })
                .collect();
            cell.try_fill(9, false).unwrap();
            waiters.into_iter().map(|w| w.join().unwrap()).sum::<u64>()
        });
    });
    group.finish();
}

fn promise_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    for mode in [VerificationMode::Unverified, VerificationMode::Full] {
        let rt = Runtime::builder().verification(mode).build();
        group.bench_function(BenchmarkId::new("create_set_get", mode.label()), |b| {
            b.iter(|| {
                rt.block_on(|| {
                    let p = Promise::<u64>::new();
                    p.set(1).unwrap();
                    p.get().unwrap()
                })
                .unwrap()
            });
        });
        // Regression guard for the PR 8 timed-get API: on an
        // already-fulfilled promise, `get_timeout` must take the same
        // single-acquire-load fast path as `get` — the deadline machinery
        // (Instant::now, interruptible wait registration) may only be paid
        // by gets that actually block.  Compare against `create_set_get`:
        // any divergence beyond noise means the fast path regressed.
        group.bench_function(
            BenchmarkId::new("get_timeout_fulfilled", mode.label()),
            |b| {
                b.iter(|| {
                    rt.block_on(|| {
                        let p = Promise::<u64>::new();
                        p.set(1).unwrap();
                        p.get_timeout(Duration::from_secs(1)).unwrap()
                    })
                    .unwrap()
                });
            },
        );
        group.bench_function(BenchmarkId::new("spawn_transfer_join", mode.label()), |b| {
            b.iter(|| {
                rt.block_on(|| {
                    let p = Promise::<u64>::new();
                    let h = spawn(&p, {
                        let p = p.clone();
                        move || p.set(7).unwrap()
                    });
                    let v = p.get().unwrap();
                    h.join().unwrap();
                    v
                })
                .unwrap()
            });
        });
    }
    group.finish();
}

/// The cost of one *blocking* `get` under steal-to-wait helping on vs off
/// (PR 9): the root spawns a fulfiller with a short compute and immediately
/// gets, reaching the unfulfilled promise first.  With helping on the
/// blocked root pops the fulfiller from the injector and runs it inline
/// (no park, no wake hand-off); with helping off the get takes the
/// pre-helping park-and-grow path — `HelpConfig::disabled()` must cost
/// exactly one untaken branch there, so this pair is the regression guard
/// for the "off means unchanged" claim: the help-off number must track the
/// bench's own history, not the help-on number.
fn blocked_get_help(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    group.measurement_time(Duration::from_secs(2));
    for (label, config) in [
        ("help-on", HelpConfig::default()),
        ("help-off", HelpConfig::disabled()),
    ] {
        let rt = Runtime::builder()
            .verification(VerificationMode::Full)
            .help(config)
            .initial_workers(1)
            .worker_keep_alive(Duration::from_secs(10))
            .build();
        // Warm the pool so thread creation is off the measured path.
        rt.block_on(|| {
            let h = spawn((), || 1u64);
            h.join().unwrap()
        })
        .unwrap();
        group.bench_function(BenchmarkId::new("blocked_get_help", label), |b| {
            b.iter(|| {
                rt.block_on(|| {
                    let h = spawn((), || {
                        let mut x = 1u64;
                        for i in 0..black_box(200u64) {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                        }
                        x
                    });
                    h.join().unwrap()
                })
                .unwrap()
            });
        });
    }
    group.finish();
}

/// Builds a chain of `n` tasks, each blocked on the next task's promise, then
/// resolves it from the tail and waits for the head.  Every blocking `get`
/// issued while the chain forms traverses the already-blocked suffix, so the
/// verified configuration pays a per-get cost that grows with `n`.
fn resolve_chain(rt: &Runtime, n: usize) -> u64 {
    rt.block_on(|| {
        let promises: Vec<Promise<u64>> = (0..n).map(|_| Promise::new()).collect();
        let release = Promise::<u64>::new();
        let mut handles = Vec::new();
        for i in 0..n {
            let own = promises[i].clone();
            let next = promises.get(i + 1).cloned();
            let release = release.clone();
            handles.push(spawn(&promises[i], move || {
                let v = match next {
                    Some(next) => next.get().unwrap(),
                    None => release.get().unwrap(),
                };
                own.set(v + 1).unwrap();
            }));
        }
        release.set(0).unwrap();
        let head = promises[0].get().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        head
    })
    .unwrap()
}

fn detector_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain");
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for &n in &[4usize, 32, 128, 256] {
        group.throughput(Throughput::Elements(n as u64));
        for mode in [VerificationMode::Unverified, VerificationMode::Full] {
            let rt = Runtime::builder()
                .verification(mode)
                .worker_keep_alive(Duration::from_secs(5))
                .build();
            group.bench_with_input(BenchmarkId::new(mode.label(), n), &n, |b, &n| {
                b.iter(|| resolve_chain(&rt, n))
            });
        }
    }
    group.finish();
}

/// Flat spawn/join fan-out: the root spawns `width` tasks that each fulfil
/// one promise, then joins all of them.  Pure external-submission (injector)
/// throughput.
fn fanout_flat(rt: &Runtime, width: usize) -> u64 {
    rt.block_on(|| {
        let mut handles = Vec::with_capacity(width);
        for i in 0..width as u64 {
            let p = Promise::<u64>::new();
            let h = spawn(&p, {
                let p = p.clone();
                move || p.set(i).unwrap()
            });
            handles.push((p, h));
        }
        let mut sum = 0u64;
        for (p, h) in handles {
            sum += p.get().unwrap();
            h.join().unwrap();
        }
        sum
    })
    .unwrap()
}

/// Nested fan-out: every root-spawned task spawns one nested task and blocks
/// on its promise — the worker-local submission path plus the grow-on-block
/// hand-off, the shape that stresses `GrowingPool`'s single queue hardest.
fn fanout_nested(rt: &Runtime, width: usize) -> u64 {
    rt.block_on(|| {
        let mut handles = Vec::with_capacity(width);
        for i in 0..width as u64 {
            let p = Promise::<u64>::new();
            let h = spawn(&p, {
                let p = p.clone();
                move || {
                    let q = Promise::<u64>::new();
                    let inner = spawn(&q, {
                        let q = q.clone();
                        move || q.set(i).unwrap()
                    });
                    let v = q.get().unwrap();
                    inner.join().unwrap();
                    p.set(v).unwrap();
                }
            });
            handles.push((p, h));
        }
        let mut sum = 0u64;
        for (p, h) in handles {
            sum += p.get().unwrap();
            h.join().unwrap();
        }
        sum
    })
    .unwrap()
}

/// Binary fork/join tree with a little leaf compute: each task spawns its
/// left half and recurses into the right half inline, then joins — the
/// divide-and-conquer shape of QSort/Strassen.
fn forkjoin_tree(rt: &Runtime, depth: u32) -> u64 {
    fn node(depth: u32) -> u64 {
        if depth == 0 {
            let mut x = 1u64;
            for i in 0..300 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            return (x & 7) + 1;
        }
        let left = Promise::<u64>::new();
        let h = spawn(&left, {
            let left = left.clone();
            move || left.set(node(depth - 1)).unwrap()
        });
        let r = node(depth - 1);
        let l = left.get().unwrap();
        h.join().unwrap();
        l + r
    }
    rt.block_on(|| node(depth)).unwrap()
}

/// Both schedulers on three spawn/join-heavy shapes, with ≥ 4 workers kept
/// warm.  Both stay because neither dominates: at PR 15 (2 CPUs, unverified,
/// three runs) the two fan-outs read parity and `forkjoin_tree/8` 2.24 1.76
/// 2.24 ms for `GrowingPool` against 3.17 3.49 3.42 ms for work-stealing,
/// while the pinned `churn` workload favours work-stealing by 13–21 %.
fn scheduler_compare(c: &mut Criterion) {
    type Shape = (&'static str, u64, fn(&Runtime) -> u64);
    let mut group = c.benchmark_group("scheduler");
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let shapes: [Shape; 3] = [
        ("fanout_flat/64", 64, |rt| fanout_flat(rt, 64)),
        ("fanout_nested/64", 128, |rt| fanout_nested(rt, 64)),
        ("forkjoin_tree/8", 255, |rt| forkjoin_tree(rt, 8)),
    ];
    for (shape, tasks, run) in shapes {
        group.throughput(Throughput::Elements(tasks));
        for kind in [SchedulerKind::GrowingPool, SchedulerKind::WorkStealing] {
            let rt = Runtime::builder()
                .verification(VerificationMode::Unverified)
                .scheduler(kind)
                .initial_workers(4)
                .worker_keep_alive(Duration::from_secs(10))
                .build();
            // Warm the pool up so thread creation is off the measured path.
            let _ = run(&rt);
            group.bench_function(BenchmarkId::new(shape, kind.label()), |b| {
                b.iter(|| run(&rt))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    cell_ops,
    promise_ops,
    blocked_get_help,
    detector_chain,
    scheduler_compare
);
criterion_main!(benches);
