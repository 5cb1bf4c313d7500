//! The benchmark's own global allocator: the system allocator plus counters
//! that can be switched off.
//!
//! `promise_stats::CountingAllocator` does four shared atomic read-modify-
//! writes on every allocation; Sieve allocates 2.3 M times per iteration, so
//! timing under it measures the counters.  Here counting is **off** during
//! every timed segment (one relaxed load per call) and **on** only in the
//! memory segment and the `*allocs_per_*` probes.
//!
//! Live bytes are counted relative to the moment counting was switched on
//! (signed: memory allocated before the switch may be freed after it).  The
//! harness switches counting on while only its own thread exists and before
//! it builds the runtime under test, so the figure is the heap attributable
//! to the runtime and the workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Installed with `#[global_allocator]` in `main.rs`.
pub struct SwitchableCounter;

#[inline]
fn counting() -> bool {
    // Relaxed: the flag publishes no data; it is flipped only while the
    // harness thread is the only thread running.
    COUNTING.load(Ordering::Relaxed)
}

#[inline]
fn count_alloc(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES_REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the extra work is a
// relaxed flag load and, when counting, relaxed counter updates that never
// allocate.
unsafe impl GlobalAlloc for SwitchableCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let ptr = unsafe { System.alloc(layout) };
        if counting() && !ptr.is_null() {
            count_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if counting() && !ptr.is_null() {
            count_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        if counting() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if counting() && !new_ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            let grown = new_size as i64 - layout.size() as i64;
            if grown > 0 {
                BYTES_REQUESTED.fetch_add(grown as u64, Ordering::Relaxed);
            }
            LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
        }
        new_ptr
    }
}

/// Counter values at one moment (totals since the last [`start_counting`]).
#[derive(Copy, Clone, Debug, Default)]
pub struct AllocSnapshot {
    pub allocations: u64,
    pub bytes_requested: u64,
}

impl AllocSnapshot {
    /// What was counted between `earlier` and this snapshot.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations - earlier.allocations,
            bytes_requested: self.bytes_requested - earlier.bytes_requested,
        }
    }
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes_requested: BYTES_REQUESTED.load(Ordering::Relaxed),
    }
}

/// Zeroes the counters and switches counting on.  Call while no other
/// thread is allocating.
pub fn start_counting() {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    BYTES_REQUESTED.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
}

/// Switches counting off.  Call after the runtime under test has shut down.
pub fn stop_counting() {
    COUNTING.store(false, Ordering::SeqCst);
}

/// Runs `f` with counting on and returns its result and the allocations
/// made meanwhile (on any thread).  For probes; not nested in a memory
/// segment.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocSnapshot) {
    start_counting();
    let out = f();
    let made = snapshot();
    stop_counting();
    (out, made)
}

/// Samples the live-heap counter every 10 ms (the paper's Table 1 memory
/// statistic) on its own thread, keeping only a running sum.
pub struct HeapSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(f64, u64)>,
}

impl HeapSampler {
    pub fn start() -> HeapSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("heap-sampler".into())
            .spawn(move || {
                let (mut sum, mut n) = (0f64, 0u64);
                while !stop2.load(Ordering::Relaxed) {
                    sum += LIVE_BYTES.load(Ordering::Relaxed).max(0) as f64;
                    n += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                (sum, n)
            })
            .expect("start the heap sampler thread");
        HeapSampler { stop, thread }
    }

    /// Stops sampling; returns the average live heap in MiB and the number
    /// of samples.
    pub fn stop(self) -> (f64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let (sum, n) = self.thread.join().expect("heap sampler panicked");
        (sum / n.max(1) as f64 / (1024.0 * 1024.0), n)
    }
}
