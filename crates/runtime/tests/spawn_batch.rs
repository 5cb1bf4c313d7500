//! Behavioural tests for batched task submission ([`SpawnBatch`]): ordered
//! transfer validation, handle/result plumbing, drop settlement, and the
//! shutdown path.

use std::sync::Arc;

use promise_core::{Promise, PromiseError};
use promise_runtime::{finish, spawn_batch, Runtime, SpawnBatch};

#[test]
fn batch_handles_return_results_in_preparation_order() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let handles = spawn_batch(|batch| {
            for i in 0..16u64 {
                batch.spawn((), move || i * 10);
            }
        });
        assert_eq!(handles.len(), 16);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u64 * 10);
        }
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn batch_transfers_move_ownership_at_prepare_time_in_order() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let p = Promise::<i32>::with_name("payload");
        let mut batch = SpawnBatch::<()>::new();
        let p_in_child = p.clone();
        batch.spawn_named("setter", &p, move || {
            p_in_child.set(7).unwrap();
        });
        // Rule 2 ran at the `spawn` call above, not at submit: the parent no
        // longer owns `p`, so transferring it to a second child is refused
        // and the batch is left unchanged.
        let err = batch
            .try_spawn_named(Some("thief"), &p, || ())
            .expect_err("second transfer of the same promise must be refused");
        assert!(matches!(err, PromiseError::TransferNotOwned { .. }));
        assert_eq!(batch.len(), 1);

        let handles = batch.submit();
        assert_eq!(p.get().unwrap(), 7);
        for h in handles {
            h.join().unwrap();
        }
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn dropping_an_unsubmitted_batch_settles_its_promises() {
    let rt = Runtime::new();
    rt.block_on(|| {
        let p = Promise::<i32>::with_name("never-set");
        let mut batch = SpawnBatch::<()>::new();
        let p2 = p.clone();
        batch.spawn_named("doomed", &p, move || {
            let _ = p2.set(1);
        });
        drop(batch);
        // The prepared child never ran: its exit machinery completed the
        // transferred promise exceptionally, so this get does not hang.
        assert!(matches!(p.get(), Err(PromiseError::OmittedSet(_))));
    })
    .unwrap();
    assert!(rt.context().alarm_count() >= 1);
}

#[test]
fn batch_submitted_after_shutdown_settles_exceptionally() {
    let rt = Runtime::new();
    let ctx = Arc::clone(rt.context());
    rt.shutdown();

    let root = ctx.root_task(Some("post-shutdown"));
    let p = Promise::<i32>::with_name("orphan");
    let mut batch = SpawnBatch::<i32>::new();
    let p2 = p.clone();
    batch.spawn_named("rejected", &p, move || {
        p2.set(5).unwrap();
        5
    });
    let handles = batch.submit();
    assert_eq!(handles.len(), 1);
    // The scheduler refused the batch; the never-run child's promises were
    // completed exceptionally, and the handle's join observes it.
    for h in handles {
        assert!(h.join().is_err());
    }
    assert!(p.get().is_err());
    root.finish();
}

#[test]
fn batch_submits_to_the_preparing_context_from_any_thread() {
    // A batch is Send; submitting it from a thread with no active task must
    // still publish to the runtime it was prepared in.
    let rt = Runtime::new();
    rt.block_on(|| {
        let mut batch = SpawnBatch::<u64>::new();
        for i in 0..4u64 {
            batch.spawn((), move || i + 100);
        }
        let handles = std::thread::spawn(move || batch.submit())
            .join()
            .expect("submit from a task-less thread must not panic");
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u64 + 100);
        }
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn finish_scope_awaits_batched_children() {
    let rt = Runtime::new();
    let total = rt
        .block_on(|| {
            let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            finish(|scope| {
                let mut batch = SpawnBatch::with_capacity(8);
                for _ in 0..8 {
                    let counter = Arc::clone(&counter);
                    batch.spawn((), move || {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
                scope.spawn_batch(batch);
            })
            .unwrap();
            // `finish` returned, so every batched child has been joined.
            counter.load(std::sync::atomic::Ordering::Relaxed)
        })
        .unwrap();
    assert_eq!(total, 8);
    assert_eq!(rt.context().alarm_count(), 0);
}

#[test]
fn nested_batches_from_worker_tasks_take_the_local_path() {
    // A batch published from inside a task exercises the worker-local LIFO
    // placement of the first child; everything must still run exactly once.
    let rt = Runtime::new();
    let out = rt
        .block_on(|| {
            let outer = spawn_batch(|batch| {
                for i in 0..4u64 {
                    batch.spawn((), move || {
                        let inner = spawn_batch(|inner| {
                            for j in 0..4u64 {
                                inner.spawn((), move || i * 4 + j);
                            }
                        });
                        inner.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
                    });
                }
            });
            outer.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
    assert_eq!(out, (0..16u64).sum());
    assert_eq!(rt.context().alarm_count(), 0);
}
