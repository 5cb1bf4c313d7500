//! Keep-alive churn: a retired worker is joined while the scheduler runs,
//! not at shutdown.
//!
//! An exited but unjoined thread keeps its stack mapped, and a pool that
//! "shrinks" without joining frees nothing.  The scheduler keeps one record
//! per worker slot and joins a retired thread when its slot turns over, so
//! the join handles held are bounded by the most workers that were ever
//! alive at once (`peak_workers`).  A pool that only joins at
//! shutdown accumulates one handle per thread ever started
//! (`threads_started`), which this test's five waves push to five times the
//! peak.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use promise_core::Job;
use promise_runtime::{PoolConfig, SchedulerConfig, WorkStealingScheduler};

const WAVES: usize = 5;
const JOBS: usize = 64;

/// Counts a worker thread as finished from its thread-local destructor,
/// which std runs after the thread's closure has returned its result — the
/// point from which `JoinHandle::is_finished` reads `true`.
struct ThreadFinished(Arc<AtomicUsize>);

impl Drop for ThreadFinished {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// The latch a wave's jobs wait on.  Opened on drop, so a failed assertion
/// releases the workers and the pool's own drop can join them.
struct Latch(Arc<(Mutex<bool>, Condvar)>);

impl Drop for Latch {
    fn drop(&mut self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }
}

thread_local! {
    static THREAD_FINISHED: RefCell<Option<ThreadFinished>> = const { RefCell::new(None) };
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
    let assert_handles_bounded = || {
        let (held, peak) = (sched.join_handles_held(), sched.stats().peak_workers);
        assert!(
            held <= peak,
            "{held} join handles held by a pool that peaked at {peak} workers"
        );
    };
    let ran = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    for wave in 0..WAVES {
        // Every job of the wave waits on the latch and declares the wait
        // through the blocking hooks, so the wave needs (and the growth rule
        // provides) one worker per job, each running one job.
        let latch = Latch(Arc::new((Mutex::new(false), Condvar::new())));
        let (started_tx, started_rx) = mpsc::channel();
        for _ in 0..JOBS {
            let (latch, started_tx, ran, finished, exec) = (
                Arc::clone(&latch.0),
                started_tx.clone(),
                Arc::clone(&ran),
                Arc::clone(&finished),
                Arc::clone(&sched),
            );
            let job = Job::new(move || {
                THREAD_FINISHED.with(|slot| *slot.borrow_mut() = Some(ThreadFinished(finished)));
                started_tx.send(()).unwrap();
                exec.on_task_blocked();
                let mut open = latch.0.lock().unwrap();
                while !*open {
                    open = latch.1.wait(open).unwrap();
                }
                drop(open);
                exec.on_task_unblocked();
                ran.fetch_add(1, Ordering::Relaxed);
            });
            sched.submit(job).ok().unwrap();
        }
        for _ in 0..JOBS {
            started_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        assert!(sched.stats().current_workers >= JOBS, "wave {wave}");
        assert_handles_bounded();
        drop(latch);
        // The next wave starts a keep-alive later: once every worker of
        // this one has retired and its thread has finished, so the wave
        // must start its threads afresh and finds every old one joinable.
        let deadline = Instant::now() + Duration::from_secs(30);
        while sched.stats().current_workers > 0
            || finished.load(Ordering::SeqCst) < (wave + 1) * JOBS
        {
            assert!(Instant::now() < deadline, "workers never retired");
            assert_handles_bounded();
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(ran.load(Ordering::Relaxed), WAVES * JOBS, "every job ran");
    let totals = sched.stats();
    assert!(
        totals.threads_started >= 2 * totals.peak_workers,
        "the waves were meant to churn threads: {totals:?}"
    );
    assert_handles_bounded();
    sched.shutdown();
    assert_eq!(sched.join_handles_held(), 0, "shutdown joins the rest");
}
