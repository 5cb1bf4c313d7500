//! Fixed heap cost of a runtime and of a worker, under a counting global
//! allocator (this file is its own binary, so the allocator is private to
//! it; the tests serialise on a lock because the counter is process-wide —
//! run with `--test-threads=1` for quiet numbers).
//!
//! * A default runtime build leaves at most 64 KiB live: the arenas' chunk
//!   directories cost 1 KiB each until a chunk is mapped, not a table sized
//!   for the largest arena.
//! * A parked worker holds at most 1 KiB: its deque starts at 8 slots
//!   (64 B) and grows only when used.  It measures ~710 B on x86-64 Linux;
//!   a 64-slot starting ring (512 B) pushes it past the bound.
//!
//! If one of these fails after a change, something put a fixed cost back on
//! every runtime or every worker thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use promise_core::{Executor, Job};
use promise_runtime::{Runtime, SchedulerConfig, WorkStealingScheduler};
use promise_stats::{AllocStats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const RUNTIME_BUDGET: usize = 64 * 1024;
const WORKERS: usize = 256;
const WORKER_BUDGET: usize = 1024;

fn live_bytes() -> usize {
    AllocStats::snapshot().live_bytes
}

#[test]
fn a_default_runtime_build_leaves_at_most_64_kib_live() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // One build first, so once-per-process state (the epoch registry, the
    // block pool's shards) is not charged to the measured build.
    Runtime::builder().build().shutdown();
    let before = live_bytes();
    let rt = Runtime::builder().build();
    let held = live_bytes().saturating_sub(before);
    rt.shutdown();
    assert!(
        held <= RUNTIME_BUDGET,
        "a default runtime build left {held} B live (budget {RUNTIME_BUDGET} B)"
    );
}

/// A latch held shut while the workers are counted.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
    arrived: AtomicUsize,
}

impl Latch {
    fn wait(&self) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Live bytes per worker while `WORKERS` jobs hold one worker each on a
/// std latch.  Each job declares its wait through the blocking hooks, so the
/// scheduler replaces every blocked worker and each job gets a thread of
/// its own.
fn bytes_per_parked_worker() -> usize {
    let sched = WorkStealingScheduler::new(SchedulerConfig::default());
    let latch = Arc::new(Latch::default());
    let before = live_bytes();
    for _ in 0..WORKERS {
        let (latch, exec) = (Arc::clone(&latch), Arc::clone(&sched));
        let job = Job::new(move || {
            exec.on_task_blocked();
            latch.wait();
            exec.on_task_unblocked();
        });
        assert!(sched.submit(job).is_ok());
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while latch.arrived.load(Ordering::SeqCst) < WORKERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let held = live_bytes().saturating_sub(before);
    let (arrived, workers) = (
        latch.arrived.load(Ordering::SeqCst),
        sched.stats().current_workers,
    );
    // Released before any assertion, so a failure cannot leave the
    // shutdown below joining blocked workers forever.
    latch.release();
    sched.shutdown();
    assert_eq!(arrived, WORKERS, "not every job got a worker within 60 s");
    assert!(workers >= WORKERS, "{workers} workers for {WORKERS} jobs");
    held / workers
}

#[test]
fn a_parked_worker_costs_at_most_1_kib() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A first round fills the job-block pool, which never shrinks, so the
    // measured round does not pay for it.
    bytes_per_parked_worker();
    let held = bytes_per_parked_worker();
    assert!(
        held <= WORKER_BUDGET,
        "a parked worker holds {held} B (budget {WORKER_BUDGET} B)"
    );
}
