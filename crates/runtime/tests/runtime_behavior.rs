//! Behavioural tests for the promise runtime: spawning, ownership transfer,
//! joins, finish scopes, omitted-set and deadlock propagation, and the
//! measurement hooks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use promise_core::{Promise, PromiseError};
use promise_runtime::{finish, spawn, spawn_named, try_spawn, Runtime};

#[test]
fn spawn_and_join_returns_the_value() {
    let rt = Runtime::new();
    let out = rt
        .block_on(|| {
            let h = spawn((), || 21 * 2);
            h.join().unwrap()
        })
        .unwrap();
    assert_eq!(out, 42);
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn transferred_promise_is_fulfilled_by_child() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let p = Promise::<String>::with_name("greeting");
        let h = spawn_named("greeter", &p, {
            let p = p.clone();
            move || p.set("hi".to_string()).unwrap()
        });
        assert_eq!(p.get().unwrap(), "hi");
        h.join().unwrap();
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn join_surfaces_task_panics() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let h = spawn((), || -> i32 { panic!("boom") });
        let err = h.join().unwrap_err();
        match err {
            PromiseError::TaskPanicked { message, .. } => assert!(message.contains("boom")),
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    })
    .unwrap();
}

#[test]
fn join_surfaces_omitted_sets_and_waiters_unblock() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let p = Promise::<i32>::with_name("never-set");
        let h = spawn_named("forgetful", &p, || {
            // forgot to set p
        });
        let join_err = h.join().unwrap_err();
        assert!(matches!(join_err, PromiseError::OmittedSet(_)));
        // The abandoned promise was completed exceptionally, so this get
        // observes the bug instead of blocking forever.
        let get_err = p.get().unwrap_err();
        match get_err {
            PromiseError::OmittedSet(report) => {
                assert_eq!(report.task_name.as_deref(), Some("forgetful"));
                assert_eq!(report.promises.len(), 1);
                assert_eq!(
                    report.promises[0].promise_name.as_deref(),
                    Some("never-set")
                );
            }
            other => panic!("expected OmittedSet, got {other:?}"),
        }
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 1);
}

#[test]
fn panicking_task_poisons_its_owned_promises() {
    // The AWS SDK scenario (§1.4): a task responsible for completing a
    // promise dies on an error path without completing it.  Consumers must
    // observe the failure promptly.
    let rt = Runtime::new();
    rt.block_on(|| {
        let download = Promise::<Vec<u8>>::with_name("download");
        let h = spawn_named("checksum-validator", &download, || {
            panic!("checksum mismatch");
        });
        let err = download.get().unwrap_err();
        assert!(
            err.is_alarm(),
            "waiters must see an alarm-class error, got {err:?}"
        );
        assert!(h.join().is_err());
    })
    .unwrap();
    assert!(rt.context().alarm_count() >= 1);
}

#[test]
fn deadlock_between_root_and_child_is_detected() {
    // Listing 1 of the paper, on the real runtime.
    let rt = Runtime::new();
    let detected = rt
        .block_on(|| {
            let p = Promise::<i32>::with_name("p");
            let q = Promise::<i32>::with_name("q");
            let _t1 = spawn_named("t1", (), || {
                // long-running unrelated task; owns nothing
                std::thread::sleep(Duration::from_millis(10));
            });
            let t2 = spawn_named("t2", &q, {
                let p = p.clone();
                let q = q.clone();
                move || {
                    let r = p.get();
                    match r {
                        Ok(_) => q.set(1).unwrap(),
                        Err(_) => q.set(-1).unwrap(),
                    }
                    r.map(|_| ())
                }
            });
            let root_result = q.get();
            let root_detected = matches!(root_result, Err(PromiseError::DeadlockDetected(_)));
            // Whatever happened, honour the root's own obligation so that the
            // child can finish.
            if !p.is_fulfilled() {
                p.set(7).unwrap();
            }
            let child_result = t2.join().unwrap();
            let child_detected = matches!(child_result, Err(PromiseError::DeadlockDetected(_)));
            root_detected || child_detected
        })
        .unwrap();
    assert!(
        detected,
        "one of the two tasks in the cycle must raise the alarm"
    );
    assert!(rt.context().alarms().iter().any(|a| a.kind() == "deadlock"));
}

#[test]
fn self_deadlock_is_detected_immediately() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let p = Promise::<i32>::with_name("self");
        // The root owns p and awaits it: a cycle of length one.
        let err = p.get().unwrap_err();
        match err {
            PromiseError::DeadlockDetected(cycle) => assert_eq!(cycle.len(), 1),
            other => panic!("expected deadlock, got {other:?}"),
        }
        p.set(1).unwrap();
    })
    .unwrap();
}

#[test]
fn chained_joins_do_not_false_alarm() {
    let rt = Runtime::new();
    let total = rt
        .block_on(|| {
            let mut handles = Vec::new();
            for i in 0..32 {
                handles.push(spawn((), move || {
                    let inner = spawn((), move || i);
                    inner.join().unwrap()
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum::<i32>()
        })
        .unwrap();
    assert_eq!(total, (0..32).sum());
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn finish_scope_awaits_transitively_spawned_tasks() {
    let rt = Runtime::new();
    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&counter);
    rt.block_on(move || {
        finish(|scope| {
            for _ in 0..4 {
                let scope2 = scope.clone();
                let c3 = Arc::clone(&c2);
                scope.spawn((), move || {
                    c3.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..3 {
                        let c4 = Arc::clone(&c3);
                        scope2.spawn((), move || {
                            c4.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        })
        .unwrap();
    })
    .unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 4 + 4 * 3);
}

#[test]
fn finish_scope_propagates_task_failures() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let result = finish(|scope| {
            scope.spawn((), || {});
            scope.spawn((), || panic!("inner failure"));
            scope.spawn((), || {});
        });
        assert!(result.is_err());
    })
    .unwrap();
}

#[test]
fn block_on_reports_root_omitted_sets() {
    let rt = Runtime::new();
    let result = rt.block_on(|| {
        let _leak = Promise::<i32>::with_name("forgotten-by-root");
        // root never sets it
    });
    match result {
        Err(PromiseError::OmittedSet(report)) => {
            assert_eq!(report.promises.len(), 1);
        }
        other => panic!("expected root omitted-set, got {other:?}"),
    }
}

#[test]
fn unverified_runtime_runs_the_same_programs_without_alarms() {
    let rt = Runtime::unverified();
    let out = rt
        .block_on(|| {
            let p = Promise::<i32>::new();
            let h = spawn(&p, {
                let p = p.clone();
                move || p.set(5).unwrap()
            });
            let v = p.get().unwrap();
            h.join().unwrap();
            // And an *unreported* omitted set: baseline mode never alarms.
            let _forgotten = Promise::<i32>::new();
            let h2 = spawn((), || {});
            h2.join().unwrap();
            v
        })
        .unwrap();
    assert_eq!(out, 5);
    assert_eq!(rt.context().alarm_count(), 0);
    assert_eq!(rt.context().live_tasks(), 0);
}

#[test]
fn many_blocking_tasks_force_pool_growth() {
    // Helping off: this test pins the pure §6.3 growth machinery (a thread
    // per simultaneously blocked task).  With steal-to-wait helping the
    // blocked root runs chain jobs inline and the pool legitimately grows
    // less — that behaviour has its own coverage in `help_stress`.
    let rt = Runtime::builder()
        .help(promise_runtime::HelpConfig::disabled())
        .build();
    let n = 16usize;
    rt.block_on(|| {
        // A chain of tasks each waiting for the next one's promise; all block
        // simultaneously, so the pool must grow to at least n workers.
        let promises: Vec<Promise<usize>> = (0..n).map(|_| Promise::new()).collect();
        let mut handles = Vec::new();
        for i in 0..n {
            let own = promises[i].clone();
            let next = promises.get(i + 1).cloned();
            handles.push(spawn(&promises[i], move || {
                let value = match next {
                    Some(next) => next.get().unwrap() + 1,
                    None => 0,
                };
                own.set(value).unwrap();
            }));
        }
        assert_eq!(promises[0].get().unwrap(), n - 1);
        for h in handles {
            h.join().unwrap();
        }
    })
    .unwrap();
    assert!(
        rt.pool_stats().peak_workers >= n,
        "expected at least {n} workers, saw {:?}",
        rt.pool_stats()
    );
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn measure_reports_tasks_gets_and_sets() {
    let rt = Runtime::new();
    let (out, metrics) = rt
        .measure(|| {
            let mut handles = Vec::new();
            for i in 0..10 {
                let p = Promise::<u32>::new();
                let h = spawn(&p, {
                    let p = p.clone();
                    move || p.set(i).unwrap()
                });
                assert_eq!(p.get().unwrap(), i);
                handles.push(h);
            }
            for h in handles {
                h.join().unwrap();
            }
            "done"
        })
        .unwrap();
    assert_eq!(out, "done");
    // 10 spawned tasks + 1 root.
    assert_eq!(metrics.tasks(), 11);
    // 10 user promises + 10 completion promises.
    assert_eq!(metrics.counters.promises_created, 20);
    // 10 user sets + 10 completion sets.
    assert_eq!(metrics.counters.sets, 20);
    // 10 user gets + 10 joins.
    assert_eq!(metrics.counters.gets, 20);
    assert!(metrics.gets_per_ms() > 0.0);
    assert!(metrics.sets_per_ms() > 0.0);
}

#[test]
fn lazy_ledger_works_end_to_end() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let p = Promise::<i32>::new();
        let h = spawn(&p, {
            let p = p.clone();
            move || p.set(1).unwrap()
        });
        assert_eq!(p.get().unwrap(), 1);
        h.join().unwrap();
        // and a violation
        let q = Promise::<i32>::new();
        let h2 = spawn(&q, || {});
        assert!(h2.join().is_err(), "the ledger must still catch omissions");
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 1);
}

#[test]
fn try_spawn_outside_a_runtime_fails_cleanly() {
    let err = try_spawn((), || ()).unwrap_err();
    assert!(matches!(err, PromiseError::NoCurrentTask { .. }));
}

#[test]
fn sequential_block_on_calls_reuse_the_runtime() {
    let rt = Runtime::new();
    for round in 0..5 {
        let v = rt
            .block_on(|| {
                let h = spawn((), move || round * 2);
                h.join().unwrap()
            })
            .unwrap();
        assert_eq!(v, round * 2);
    }
    assert_eq!(rt.context().alarm_count(), 0);
    assert_eq!(rt.context().live_tasks(), 0);
    // A worker that just fulfilled a completion promise may still hold its
    // handle for a few instructions after the join returned; wait for the
    // last drops to land before asserting zero residue.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.context().live_promises() > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(rt.context().live_promises(), 0);
}

#[test]
fn stress_many_small_tasks() {
    let rt = Runtime::new();
    let n = 2000u64;
    let total = rt
        .block_on(|| {
            finish(|scope| {
                let acc = Arc::new(AtomicUsize::new(0));
                for i in 0..n {
                    let acc = Arc::clone(&acc);
                    scope.spawn((), move || {
                        acc.fetch_add(i as usize, Ordering::Relaxed);
                    });
                }
                acc
            })
            .unwrap()
            .load(Ordering::Relaxed) as u64
        })
        .unwrap();
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(rt.context().alarm_count(), 0);
}
