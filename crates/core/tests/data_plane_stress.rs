//! Seeded multi-thread stress for the sharded verification data plane:
//!
//! * the arena's sharded slot magazines — cross-thread free → re-alloc
//!   cycles (a slot allocated through worker A's home magazine, freed into
//!   worker B's, re-allocated by worker B), the drain to the global list,
//!   and the guarantee that generation validation keeps rejecting stale
//!   references no matter which magazine a slot's index travelled through;
//! * the lock-free alarm sink behind `Context::record_alarm` — concurrent
//!   recorders with snapshot readers that never block them, and the
//!   record-before-snapshot visibility contract (`alarms()` observes every
//!   alarm recorded before the snapshot in happens-before order).
//!
//! "Seeded" = schedules are perturbed deterministically by xorshift-driven
//! spin counts, so failures reproduce.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use promise_core::arena::{SlotArena, SlotValue, MAG_CAP};
use promise_core::counters::register_worker;
use promise_core::error::{CycleEntry, DeadlockCycle};
use promise_core::refs::PackedRef;
use promise_core::test_support::rng::{jitter_bounded, seed_from_env_echoed};
use promise_core::{Alarm, Context, PromiseId, TaskId};

struct StampCell {
    stamp: AtomicU64,
}

impl SlotValue for StampCell {
    fn new_empty() -> Self {
        StampCell {
            stamp: AtomicU64::new(0),
        }
    }
    fn reset(&self) {
        self.stamp.store(0, Ordering::Relaxed);
    }
}

fn jitter(seed: &mut u64) {
    jitter_bounded(seed, 127);
}

/// Worker threads pass every allocated ref to the *next* worker over a
/// channel ring; the receiver validates the payload stamp, frees the slot
/// into its own magazine (cross-thread free), and re-allocates.  Stale refs
/// retained from before a free must keep failing validation even after the
/// slot index has migrated between magazines and been re-published.
#[test]
fn sharded_magazines_survive_cross_thread_free_and_realloc() {
    let workers = 4;
    let rounds = 800u64;
    let base_seed = seed_from_env_echoed(0xdead_beef_0bad_cafe, "data_plane_stress");
    let arena: Arc<SlotArena<StampCell>> = Arc::new(SlotArena::new());

    let (txs, rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| mpsc::channel::<(PackedRef, u64)>())
        .unzip();

    let mut joins = Vec::new();
    for (w, rx) in rxs.into_iter().enumerate() {
        let arena = Arc::clone(&arena);
        // Worker w sends to worker (w+1) % workers.
        let tx_next = txs[(w + 1) % workers].clone();
        joins.push(std::thread::spawn(move || {
            let _slot = register_worker();
            let mut seed = base_seed ^ (w as u64 + 1).wrapping_mul(0x9e37);
            let mut stale: Vec<(PackedRef, u64)> = Vec::new();
            for i in 0..rounds {
                let stamp = (w as u64) << 32 | (i + 1);
                let r = arena.alloc();
                arena
                    .read(r, |c| c.stamp.store(stamp, Ordering::Relaxed))
                    .expect("freshly allocated slot is live");
                tx_next.send((r, stamp)).unwrap();
                jitter(&mut seed);

                let (incoming, expect) = rx.recv().unwrap();
                let seen = arena.read(incoming, |c| c.stamp.load(Ordering::Relaxed));
                assert_eq!(
                    seen,
                    Some(expect),
                    "live ref from another worker must read its own stamp"
                );
                // Cross-thread free: the slot was allocated by the previous
                // worker's magazine (or the global path) and now lands in
                // this worker's magazine.
                arena.free(incoming);
                stale.push((incoming, expect));

                // Every stale ref must stay dead forever, even after its
                // index was recycled by any magazine.
                if i % 97 == 0 {
                    for (s, _) in &stale {
                        assert_eq!(
                            arena.read(*s, |c| c.stamp.load(Ordering::Relaxed)),
                            None,
                            "stale ref revived after cross-magazine recycling"
                        );
                        assert!(!arena.is_live(*s));
                    }
                }
            }
            // Drain on the way out: the last worker to get here leaves
            // every magazine empty and every index on the global free list.
            arena.release_worker_shard();
            stale
        }));
    }
    drop(txs);

    let mut all_stale = Vec::new();
    for j in joins {
        all_stale.extend(j.join().unwrap());
    }
    // Every send was matched by exactly one free on the receiving side.
    assert_eq!(arena.live(), 0, "every allocated slot was freed");
    for (s, _) in &all_stale {
        assert!(!arena.is_live(*s));
    }

    // All magazines were drained: this thread refills from the global list
    // and takes every recycled slot without growing the fresh region.
    let footprint = arena.high_water_slots();
    assert!(
        footprint >= MAG_CAP / 2,
        "workers allocated at least one batch"
    );
    let drained: Vec<_> = (0..footprint).map(|_| arena.alloc()).collect();
    assert_eq!(
        arena.high_water_slots(),
        footprint,
        "post-flush allocations must be served from recycled slots"
    );
    for r in drained {
        arena.free(r);
    }
}

fn deadlock_alarm(task: u64) -> Alarm {
    Alarm::Deadlock(Arc::new(DeadlockCycle {
        entries: vec![CycleEntry {
            task: TaskId(task),
            task_name: None,
            promise: PromiseId(task),
            promise_name: None,
        }],
    }))
}

/// `alarms()` must include every alarm recorded before the snapshot (in
/// happens-before order), and concurrent snapshots must never block
/// recorders or observe torn state.
#[test]
fn alarm_sink_observes_all_alarms_recorded_before_snapshot() {
    let recorders = 4;
    let per_thread = 500u64;
    let base_seed = seed_from_env_echoed(0x1234_5678_9abc_def0, "data_plane_stress");
    let ctx = Context::new_verified();

    let mut joins = Vec::new();
    for t in 0..recorders {
        let ctx = Arc::clone(&ctx);
        joins.push(std::thread::spawn(move || {
            let mut seed = base_seed ^ (t as u64 + 1);
            for i in 0..per_thread {
                ctx.record_alarm(deadlock_alarm((t as u64) << 32 | i));
                jitter(&mut seed);
                // A recorder's own snapshot must always contain everything it
                // recorded so far (same-thread happens-before).
                if i % 131 == 0 {
                    let own = (i + 1) as usize;
                    assert!(
                        ctx.alarm_count() >= own,
                        "count fell behind this thread's own records"
                    );
                }
            }
        }));
    }

    // A reader snapshots while recorders run: snapshots never block and are
    // monotone in the happens-before sense (len never shrinks).
    let reader = {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || {
            let mut last = 0usize;
            for _ in 0..200 {
                let count = ctx.alarm_count();
                let snap = ctx.alarms();
                assert!(count >= last, "alarm count went backwards");
                assert!(
                    snap.len() >= count.min(last),
                    "snapshot missed previously observed alarms"
                );
                last = count;
            }
        })
    };

    for j in joins {
        j.join().unwrap();
    }
    reader.join().unwrap();

    // Joining the recorders is the happens-before edge: everything recorded
    // is now visible, exactly once.
    let total = recorders as usize * per_thread as usize;
    assert_eq!(ctx.alarm_count(), total);
    let snap = ctx.alarms();
    assert_eq!(snap.len(), total);
    let mut ids: Vec<u64> = snap
        .iter()
        .map(|a| match a {
            Alarm::Deadlock(c) => c.detecting_task().0,
            _ => unreachable!("only deadlock alarms recorded"),
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), total, "every alarm appears exactly once");
    // The deadlock counter was bumped before each publish: it can never be
    // behind the log.
    assert_eq!(ctx.counter_snapshot().deadlocks_detected, total as u64);
}
