//! Keep-alive churn on the work-stealing scheduler: a retired worker is
//! joined when its slot turns over, not at shutdown.
//!
//! The scheduler keeps one record per worker slot and recycles slots, so
//! the join handles it holds are bounded by the most workers that were ever
//! alive at once (`peak_workers`) — an exited but unjoined thread keeps its
//! stack mapped, and a pool that "shrinks" without joining frees nothing.
//! Before slots were recycled the handles accumulated one per thread ever
//! started (`threads_started`), which this test's five waves push to five
//! times the peak.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use promise_core::Job;
use promise_runtime::{PoolConfig, SchedulerConfig, WorkStealingScheduler};

const WAVES: usize = 5;
const JOBS: usize = 64;

fn assert_handles_bounded(sched: &WorkStealingScheduler) {
    let (held, peak) = (sched.join_handles_held(), sched.stats().peak_workers);
    assert!(
        held <= peak,
        "{held} join handles held by a pool that peaked at {peak} workers"
    );
}

#[test]
fn retired_workers_are_joined_when_their_slot_turns_over() {
    let sched = WorkStealingScheduler::new(SchedulerConfig {
        base: PoolConfig {
            keep_alive: Duration::from_millis(20),
            ..PoolConfig::default()
        },
        ..SchedulerConfig::default()
    });
    let ran = Arc::new(AtomicUsize::new(0));
    for wave in 0..WAVES {
        // Every job of the wave waits on the latch, so the wave needs (and
        // §6.3 growth provides) one worker per job.
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let (started_tx, started_rx) = mpsc::channel();
        for _ in 0..JOBS {
            let (latch, started_tx, ran) =
                (Arc::clone(&latch), started_tx.clone(), Arc::clone(&ran));
            sched
                .submit(Job::new(move || {
                    started_tx.send(()).unwrap();
                    let mut open = latch.0.lock().unwrap();
                    while !*open {
                        open = latch.1.wait(open).unwrap();
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                }))
                .ok()
                .unwrap();
        }
        for _ in 0..JOBS {
            started_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        assert!(sched.stats().current_workers >= JOBS, "wave {wave}");
        assert_handles_bounded(&sched);
        *latch.0.lock().unwrap() = true;
        latch.1.notify_all();
        // The next wave starts a keep-alive later: once every worker of
        // this one has retired, so it must start its threads afresh.
        let deadline = Instant::now() + Duration::from_secs(30);
        while sched.stats().current_workers > 0 {
            assert!(Instant::now() < deadline, "workers never retired");
            assert_handles_bounded(&sched);
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(ran.load(Ordering::Relaxed), WAVES * JOBS, "every job ran");
    let stats = sched.stats();
    assert!(
        stats.threads_started >= 2 * stats.peak_workers,
        "the waves were meant to churn threads: {stats:?}"
    );
    assert_handles_bounded(&sched);
    sched.shutdown();
    assert_eq!(sched.join_handles_held(), 0, "shutdown joins the rest");
}
