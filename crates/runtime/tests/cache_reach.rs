//! Cache reach: the arena and block magazines serve the thread that is
//! *running*, however many threads exist.
//!
//! The §6.3 pool starts a thread whenever every existing one is in use, so a
//! runtime routinely holds far more registered workers than there are
//! magazine shards while only a CPU's worth of them run.  A cache claimed
//! for a registration's lifetime serves the first sixteen workers and sends
//! everyone after them — and every unregistered root thread — down the
//! shared path; the per-operation shard lock serves whoever asks.  The
//! counters on `ArenaMemoryStats` / `JobPoolStats` make that visible, and
//! this test pins it.
//!
//! Alone in its binary: the block pool and its counters are process-global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use promise_core::job::job_pool_stats;
use promise_core::magazine::MAG_SHARDS;
use promise_core::{HelpConfig, Promise};
use promise_runtime::{spawn, Runtime};

/// Workers held blocked while the measurement runs.
const PARKED: usize = 4 * MAG_SHARDS;
const ROUNDS: u64 = 10_000;

/// One promise created, set, read and dropped per round: an arena slot and
/// a pooled block allocated and freed each time.
fn churn() {
    for i in 0..ROUNDS {
        let p: Promise<u64> = Promise::new();
        p.set(i).unwrap();
        assert_eq!(p.get().unwrap(), i);
    }
}

#[test]
fn late_worker_and_root_thread_are_served_with_64_workers_parked() {
    // Helping off, so each blocked task keeps a worker thread of its own.
    let rt = Runtime::builder().help(HelpConfig::disabled()).build();
    rt.block_on(|| {
        let gate: Promise<()> = Promise::new();
        let arrived = Arc::new(AtomicUsize::new(0));
        let parked: Vec<_> = (0..PARKED)
            .map(|_| {
                let (gate, arrived) = (gate.clone(), Arc::clone(&arrived));
                spawn((), move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    gate.get().unwrap();
                })
            })
            .collect();
        while arrived.load(Ordering::SeqCst) < PARKED || rt.pool_stats().blocked_workers < PARKED {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(rt.pool_stats().current_workers >= PARKED);

        let (slots_before, blocks_before) = (rt.memory_stats(), job_pool_stats());
        // The root thread never registered; the late worker registered
        // after all the others (the pool starts it because they are all in
        // use) and while they are all still alive.
        churn();
        spawn((), churn).join().unwrap();
        let (slots, blocks) = (rt.memory_stats(), job_pool_stats());

        for (what, served, shared) in [
            (
                "arena slots",
                slots.magazine_ops - slots_before.magazine_ops,
                slots.shared_path_ops - slots_before.shared_path_ops,
            ),
            (
                "blocks",
                blocks.magazine_ops - blocks_before.magazine_ops,
                blocks.shared_path_ops - blocks_before.shared_path_ops,
            ),
        ] {
            // Two threads, one alloc and one free per round each.
            assert!(
                served + shared >= 4 * ROUNDS,
                "{what}: {served} + {shared} operations counted"
            );
            assert!(
                (shared as f64) < 0.01 * (served + shared) as f64,
                "{what}: {shared} of {} operations took the shared path",
                served + shared
            );
        }

        gate.set(()).unwrap();
        for h in parked {
            h.join().unwrap();
        }
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    rt.shutdown();
}
