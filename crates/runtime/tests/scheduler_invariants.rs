//! Integration tests for the §6.3 grow-on-block invariant and shutdown
//! semantics of the scheduler.
//!
//! The invariant: a submitted task must never starve behind workers that are
//! all blocked on promises — the pool has to keep growing, because promises
//! put no a-priori bound on the number of simultaneously blocked tasks.

use std::sync::Arc;
use std::time::Duration;

use promise_core::{Promise, PromiseError, VerificationMode};
use promise_runtime::{spawn, Runtime, RuntimeBuilder};

/// N tasks that all block on a promise fulfilled only by task N+1: every
/// task must get a worker (blocked workers must not absorb the pool), and
/// the chain must fully resolve.
#[test]
fn blocked_chain_completes_without_starvation() {
    for &n in &[4usize, 16, 48] {
        let rt = Runtime::new();
        let head = rt
            .block_on(|| {
                let promises: Vec<Promise<usize>> = (0..n).map(|_| Promise::new()).collect();
                let release = Promise::<usize>::new();
                let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
                let mut handles = Vec::new();
                for i in 0..n {
                    let own = promises[i].clone();
                    let next = promises.get(i + 1).cloned();
                    let release = release.clone();
                    let started = Arc::clone(&started);
                    handles.push(spawn(&promises[i], move || {
                        started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        let v = match next {
                            Some(next) => next.get().unwrap(),
                            None => release.get().unwrap(),
                        };
                        own.set(v + 1).unwrap();
                    }));
                }
                // Hold the resolution back until every task is running —
                // all n must be simultaneously alive (and about to block),
                // which is exactly what forces the pool to n workers.
                while started.load(std::sync::atomic::Ordering::SeqCst) < n {
                    std::thread::yield_now();
                }
                // Task "N+1": the root resolves the tail, which unblocks
                // the whole chain one task at a time.
                release.set(0).unwrap();
                let head = promises[0].get().unwrap();
                for h in handles {
                    h.join().unwrap();
                }
                head
            })
            .unwrap();
        assert_eq!(head, n, "mis-resolved the chain of {n}");
        assert!(
            rt.pool_stats().peak_workers >= n,
            "must have grown to ≥ {n} workers, saw {:?}",
            rt.pool_stats()
        );
        assert_eq!(rt.context().alarm_count(), 0);
    }
}

/// The starvation race the single-queue pool had: a task queued while every
/// live worker is (or is about to be) blocked must still run, via the
/// on-block replacement trigger.  The fulfiller task is submitted *after*
/// the blockers, so if growth ever under-fires, `get` hangs forever.
#[test]
fn tasks_queued_behind_blockers_still_run() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let gate = Promise::<u64>::with_name("gate");
        let mut blockers = Vec::new();
        for _ in 0..8 {
            let gate = gate.clone();
            blockers.push(spawn((), move || gate.get().unwrap()));
        }
        let fulfiller = spawn(&gate, {
            let gate = gate.clone();
            move || gate.set(7).unwrap()
        });
        for b in blockers {
            assert_eq!(b.join().unwrap(), 7);
        }
        fulfiller.join().unwrap();
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0, "raised an alarm");
}

/// A deadlock cycle spawned through the scheduler must still be caught by
/// the detector (Algorithm 2), not hang.
#[test]
fn deadlock_cycle_is_detected() {
    let rt = RuntimeBuilder::new()
        .verification(VerificationMode::Full)
        .build();
    rt.block_on(|| {
        let p = Promise::<i32>::with_name("p");
        let q = Promise::<i32>::with_name("q");
        let t2 = spawn(&q, {
            let (p, q) = (p.clone(), q.clone());
            move || {
                let r = p.get();
                q.set(0).unwrap();
                r.is_err()
            }
        });
        let root_detected = q.get().is_err();
        if !p.is_fulfilled() {
            p.set(0).unwrap();
        }
        let child_detected = t2.join().unwrap();
        assert!(
            root_detected || child_detected,
            "the cycle must be detected by someone"
        );
    })
    .unwrap();
    assert!(
        rt.context().counter_snapshot().deadlocks_detected >= 1,
        "missed the deadlock"
    );
}

/// Deep worker-side fan-out: tasks spawned from workers take the local-deque
/// path and are stolen by siblings; every leaf must run exactly once.
#[test]
fn worker_side_spawns_complete_via_stealing() {
    let rt = RuntimeBuilder::new()
        .initial_workers(4)
        .worker_keep_alive(Duration::from_secs(2))
        .build();
    let total = rt
        .block_on(|| {
            fn tree(depth: u32) -> u64 {
                if depth == 0 {
                    return 1;
                }
                let left = Promise::<u64>::new();
                let right = Promise::<u64>::new();
                let hl = spawn(&left, {
                    let left = left.clone();
                    move || left.set(tree(depth - 1)).unwrap()
                });
                let hr = spawn(&right, {
                    let right = right.clone();
                    move || right.set(tree(depth - 1)).unwrap()
                });
                let sum = left.get().unwrap() + right.get().unwrap();
                hl.join().unwrap();
                hr.join().unwrap();
                sum
            }
            tree(7)
        })
        .unwrap();
    assert_eq!(total, 128);
    assert_eq!(rt.context().alarm_count(), 0);
    assert_eq!(rt.pool_stats().queued_jobs, 0);
    // The executed counter is bumped after a job's body returns, so it can
    // lag the join by one step; give it a moment to settle.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.pool_stats().jobs_executed < 254 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let stats = rt.pool_stats();
    assert!(
        stats.jobs_executed >= 254,
        "every spawned task must have run: {stats:?}"
    );
}

/// Spawning after shutdown must fail with a real error, and the never-run
/// task's promises must complete exceptionally so nobody can hang on them.
#[test]
fn spawn_after_shutdown_errors_and_settles_promises() {
    let rt = Runtime::new();
    let ctx = Arc::clone(rt.context());
    // Shut the scheduler down while keeping the context (and therefore
    // the installed executor handle) alive.
    rt.shutdown();

    let root = ctx.root_task(Some("post-shutdown"));
    let p = Promise::<i32>::with_name("orphan");
    let err = promise_runtime::try_spawn(&p, {
        let p = p.clone();
        move || p.set(1).unwrap()
    })
    .unwrap_err();
    assert!(
        matches!(err, PromiseError::RuntimeShutdown { .. }),
        "returned {err:?} instead of RuntimeShutdown"
    );
    // The transferred promise was settled exceptionally — a waiter gets
    // an error immediately instead of blocking forever.
    let got = p.get();
    assert!(got.is_err(), "orphan promise must not resolve normally");
    root.finish();
}

/// `blocked_workers` rises while workers sit in a promise wait and returns
/// to zero afterwards (the counter driving the grow-on-block trigger).
#[test]
fn blocked_worker_count_is_tracked() {
    // Helping off: `blocked_workers` counts *parked* workers, and with
    // steal-to-wait helping blocked tasks stack onto fewer threads (a
    // helping worker is running jobs, not parked), so fewer parks happen —
    // the very effect `help_stress` pins.  This test pins the counter.
    let rt = RuntimeBuilder::new()
        .help(promise_runtime::HelpConfig::disabled())
        .build();
    rt.block_on(|| {
        let gate = Promise::<()>::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut blockers = Vec::new();
        for _ in 0..4 {
            let gate = gate.clone();
            let tx = tx.clone();
            blockers.push(spawn((), move || {
                tx.send(()).unwrap();
                gate.get().unwrap();
            }));
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // All four have announced themselves; give them a moment to park.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rt.pool_stats().blocked_workers < 4 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            rt.pool_stats().blocked_workers >= 4,
            "expected ≥ 4 blocked workers, saw {:?}",
            rt.pool_stats()
        );
        let fulfiller = spawn(&gate, {
            let gate = gate.clone();
            move || gate.set(()).unwrap()
        });
        for b in blockers {
            b.join().unwrap();
        }
        fulfiller.join().unwrap();
    })
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.pool_stats().blocked_workers > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(rt.pool_stats().blocked_workers, 0);
}

/// Sanity at moderate scale: hundreds of small tasks, with spawns from both
/// the root and workers.
#[test]
fn stress_mixed_spawn_paths() {
    let rt = RuntimeBuilder::new()
        .worker_keep_alive(Duration::from_secs(2))
        .build();
    let n = 500u64;
    let sum = rt
        .block_on(|| {
            let mut handles = Vec::new();
            for i in 0..n {
                let p = Promise::<u64>::new();
                let h = spawn(&p, {
                    let p = p.clone();
                    move || {
                        // Worker-side nested spawn for odd i.
                        if i % 2 == 1 {
                            let q = Promise::<u64>::new();
                            let inner = spawn(&q, {
                                let q = q.clone();
                                move || q.set(i).unwrap()
                            });
                            let v = q.get().unwrap();
                            inner.join().unwrap();
                            p.set(v).unwrap();
                        } else {
                            p.set(i).unwrap();
                        }
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
        .unwrap();
    assert_eq!(sum, n * (n - 1) / 2, "lost tasks");
    assert_eq!(rt.context().alarm_count(), 0);
}
