//! The unit of work shipped to an [`Executor`](crate::Executor), backed by a
//! recycled block pool.
//!
//! Before this module existed a spawned task travelled as a
//! `Box<dyn FnOnce()>`: one allocator round trip per spawn for the closure
//! (plus a second one inside the scheduler's Chase–Lev deque, whose slots
//! are thin words and had to box the fat pointer again).  On fork-heavy
//! workloads (Sieve's task chain, QSort's ~1k-task tree at default scale and
//! ~786k at paper scale) the allocator becomes a per-spawn tax and a shared
//! contention point.
//!
//! [`Job`] replaces the boxed closure with a **thin pointer** to a
//! header-prefixed record:
//!
//! ```text
//!   Job ── *mut JobHeader ──► ┌────────────────────────────┐
//!                             │ invoke / abandon fn ptrs   │  (the "vtable")
//!                             │ pooled flag                │
//!                             ├────────────────────────────┤
//!                             │ closure payload (inline)   │
//!                             └────────────────────────────┘
//! ```
//!
//! * The record is thin, so the deque stores it directly in an `AtomicPtr`
//!   slot — the second allocation is gone structurally.
//! * Records whose payload fits [`JOB_BLOCK_SIZE`] come from the
//!   **recycled block pool** of this module: sharded magazines driven by
//!   the generic [`MagazinePool`](crate::magazine) (the same protocol
//!   implementation the arena's slot magazines use — see
//!   [`crate::magazine`] for the per-operation shard lock and its
//!   correctness argument), over a mutex-guarded backstop vector topped up
//!   from the allocator.  Any thread — worker, root or helper — allocates
//!   and frees blocks with plain array operations under an uncontended
//!   shard lock; steady-state spawn → run → retire touches neither the
//!   global allocator nor the backstop mutex.  `Job::new` + `run` costs
//!   ≈ 22 ns from a lone thread and the same with 64 other registered
//!   threads alive, against ≈ 50 ns through the backstop mutex
//!   (`cargo bench -p promise-bench --bench data_plane -- blocks/`, 2-CPU
//!   container).
//! * Oversized payloads fall back to a plain heap allocation (the `pooled`
//!   flag routes the release); correctness never depends on fitting.
//!
//! # One block pool, two clients
//!
//! The pool is process-global (blocks are untyped 256-byte storage, so
//! records from different runtimes can share it), and it serves **two**
//! kinds of allocation: job records (this module) and the refcounted
//! promise-cell records of [`crate::pool_arc`] — the fused completion cell
//! of a spawn comes from the same recycled blocks, which is what closes the
//! last per-spawn allocator call.  [`job_pool_stats`] therefore accounts
//! for both.  A block's *contents* never outlive the one record written
//! into it: a job is consumed (payload moved out or dropped in place) and a
//! refcounted cell is dropped in place before its block re-enters the pool,
//! so recycling cannot resurrect any task or promise state.
//!
//! An operation that finds its home shard and the neighbour both locked
//! takes the shared backstop list directly — one lock instead of a malloc,
//! and the blocks it frees are reusable by everyone.
//! [`JobPoolStats::shared_path_ops`] counts how often that happens.  Blocks
//! cached in a magazine belong to the pool, not to the thread that freed
//! them, so a retiring worker has nothing to flush.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::magazine::{MagazineBackend, MagazinePool};

/// Size in bytes of one pooled job block (header + inline payload).
///
/// A spawn record is the 24-byte [`Job`] header, the 152-byte
/// [`PreparedTask`](crate::task::PreparedTask) (its inline four-entry
/// ledger is 64 bytes of one-word
/// [`ErasedPromiseRef`](crate::ErasedPromiseRef)s), the 8-byte completion
/// handle and the body closure: a body capturing up to **72 bytes** fits;
/// a larger one falls back to the heap (counted in
/// [`JobPoolStats::heap_records`]).  A promise cell is a 24-byte
/// [`pool_arc`](crate::pool_arc) header plus the promise.
pub const JOB_BLOCK_SIZE: usize = 256;

/// Alignment of pooled job blocks (covers every payload the runtime builds;
/// over-aligned payloads fall back to the heap).
pub const JOB_BLOCK_ALIGN: usize = 16;

/// Whether a record of `layout` fits a pooled block — the one routing
/// rule of both clients, [`Job::new`] and [`PoolArc`](crate::PoolArc).
pub(crate) const fn fits_block(layout: Layout) -> bool {
    layout.size() <= JOB_BLOCK_SIZE && layout.align() <= JOB_BLOCK_ALIGN
}

fn block_layout() -> Layout {
    // Infallible: both constants are valid at compile time.
    Layout::from_size_align(JOB_BLOCK_SIZE, JOB_BLOCK_ALIGN).expect("valid block layout")
}

/// The block magazines (the generic per-operation-locked protocol of
/// [`crate::magazine`]; items are block addresses).
static MAGAZINES: MagazinePool<usize> = MagazinePool::new();

/// Backstop free list (block addresses) shared by the fallback path and
/// magazine refill/flush batches.
static GLOBAL_FREE: parking_lot::Mutex<Vec<usize>> = parking_lot::Mutex::new(Vec::new());

/// Outstanding-block contribution of the global (non-magazine) path.
static GLOBAL_LIVE: AtomicI64 = AtomicI64::new(0);

/// Records too large for a block, allocated on the heap instead.
static HEAP_RECORDS: AtomicU64 = AtomicU64::new(0);

/// Counts one record that did not fit a block ([`JobPoolStats::heap_records`]).
/// Called on the cold fallback path of both clients only.
pub(crate) fn count_heap_record() {
    HEAP_RECORDS.fetch_add(1, Ordering::Relaxed);
}

fn fresh_block() -> usize {
    // SAFETY: the layout has non-zero size.
    let ptr = unsafe { alloc(block_layout()) };
    if ptr.is_null() {
        handle_alloc_error(block_layout());
    }
    ptr as usize
}

/// The block pool's storage half of the magazine protocol: refills drain
/// the backstop vector and top up from the allocator; flushes extend the
/// backstop in one batch under its lock.
struct BlockBackend;

impl MagazineBackend for BlockBackend {
    type Item = usize;

    fn refill(&self, buf: &mut [MaybeUninit<usize>]) -> usize {
        let mut n = 0;
        let mut global = GLOBAL_FREE.lock();
        while n < buf.len() {
            match global.pop() {
                Some(b) => {
                    buf[n].write(b);
                    n += 1;
                }
                None => break,
            }
        }
        drop(global);
        while n < buf.len() {
            buf[n].write(fresh_block());
            n += 1;
        }
        n
    }

    fn flush(&self, items: &[usize]) {
        GLOBAL_FREE.lock().extend_from_slice(items);
    }
}

/// Allocates one pooled block ([`JOB_BLOCK_SIZE`] bytes,
/// [`JOB_BLOCK_ALIGN`]-aligned): the calling thread's home magazine when its
/// lock is free, the shared backstop list otherwise.  Shared with
/// [`crate::pool_arc`], which draws its refcounted promise-cell records
/// from the same pool.
pub(crate) fn pool_alloc() -> *mut u8 {
    let block = match MAGAZINES.alloc(&BlockBackend) {
        Some(block) => block,
        None => {
            GLOBAL_LIVE.fetch_add(1, Ordering::Relaxed);
            match GLOBAL_FREE.lock().pop() {
                Some(b) => b,
                None => fresh_block(),
            }
        }
    };
    block as *mut u8
}

/// Releases a block obtained from [`pool_alloc`] back into the pool.
pub(crate) fn pool_free(ptr: *mut u8) {
    if let Err(block) = MAGAZINES.free(&BlockBackend, ptr as usize) {
        GLOBAL_LIVE.fetch_sub(1, Ordering::Relaxed);
        GLOBAL_FREE.lock().push(block);
    }
}

/// Point-in-time accounting of the shared block pool (for tests and
/// diagnostics; concurrent activity makes the numbers advisory).
///
/// "Outstanding" covers both clients of the pool: blocks inside live
/// [`Job`]s *and* blocks holding pooled promise-cell records (see
/// [`crate::pool_arc`]) — a promise cell's block is released when its last
/// handle drops.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct JobPoolStats {
    /// Pooled blocks currently checked out (allocated, not yet released).
    /// Exact once all mutating threads are quiescent.
    pub outstanding: i64,
    /// Blocks cached in magazines.
    pub cached: usize,
    /// Blocks on the shared backstop free list.
    pub free: usize,
    /// Block allocs plus frees served by a magazine so far.
    pub magazine_ops: u64,
    /// Block allocs plus frees that found both probed magazines locked and
    /// took the backstop mutex instead.
    pub shared_path_ops: u64,
    /// Job and promise-cell records, so far, too large for a block and
    /// allocated on the heap instead.  Stays 0 while every spawn body fits
    /// its block (see [`JOB_BLOCK_SIZE`]).
    pub heap_records: u64,
}

/// Reads the pool accounting.  See [`JobPoolStats`].
pub fn job_pool_stats() -> JobPoolStats {
    JobPoolStats {
        outstanding: GLOBAL_LIVE.load(Ordering::Relaxed) + MAGAZINES.live(),
        cached: MAGAZINES.cached(),
        free: GLOBAL_FREE.lock().len(),
        magazine_ops: MAGAZINES.magazine_ops(),
        shared_path_ops: MAGAZINES.shared_path_ops(),
        heap_records: HEAP_RECORDS.load(Ordering::Relaxed),
    }
}

/// The header at offset 0 of every job record.
struct JobHeader {
    /// Consumes the record: moves the payload out, releases the storage,
    /// runs the payload.
    invoke: unsafe fn(*mut JobHeader),
    /// Consumes the record without running it: drops the payload in place
    /// and releases the storage (the shutdown/rejection path — for a spawned
    /// task this runs the `PreparedTask` exit machinery via the closure's
    /// captured state).
    abandon: unsafe fn(*mut JobHeader),
    /// Whether the storage came from the block pool (vs a plain heap
    /// allocation sized for an oversized payload).
    pooled: bool,
}

/// A concrete record: header followed by the closure, `repr(C)` so the
/// header is at offset 0 and a `*mut JobHeader` can be cast back.
#[repr(C)]
struct Packed<F> {
    header: JobHeader,
    payload: ManuallyDrop<F>,
}

unsafe fn release_record<F>(ptr: *mut JobHeader, pooled: bool) {
    if pooled {
        pool_free(ptr.cast());
    } else {
        // SAFETY (caller): `ptr` was allocated with this exact layout.
        unsafe { dealloc(ptr.cast(), Layout::new::<Packed<F>>()) };
    }
}

unsafe fn invoke_record<F: FnOnce()>(ptr: *mut JobHeader) {
    let packed = ptr.cast::<Packed<F>>();
    // SAFETY (caller): `ptr` is a live record of type `Packed<F>`, consumed
    // exactly once.  The payload is moved out *before* the storage is
    // released, and the storage is released *before* the closure runs, so a
    // nested spawn inside the closure can immediately reuse the block.
    unsafe {
        let pooled = (*packed).header.pooled;
        let f = ManuallyDrop::take(&mut (*packed).payload);
        release_record::<F>(ptr, pooled);
        f();
    }
}

unsafe fn abandon_record<F>(ptr: *mut JobHeader) {
    let packed = ptr.cast::<Packed<F>>();
    // SAFETY (caller): as in `invoke_record`; the payload is dropped in
    // place instead of run.
    unsafe {
        let pooled = (*packed).header.pooled;
        ManuallyDrop::drop(&mut (*packed).payload);
        release_record::<F>(ptr, pooled);
    }
}

/// An owned, type-erased unit of work: the spawn path's replacement for
/// `Box<dyn FnOnce() + Send>`.  See the [module docs](self).
///
/// Dropping a `Job` without running it drops the closure (and everything it
/// captured) in place — for a spawned task that triggers the rule-3 exit
/// machinery exactly like dropping the old boxed closure did.
pub struct Job {
    ptr: NonNull<JobHeader>,
}

// SAFETY: the record owns its payload, which is required to be `Send`; the
// header fields are plain function pointers and a bool.
unsafe impl Send for Job {}

impl Job {
    /// Whether a job wrapping a closure of type `F` fits a pooled block
    /// (compile-time layout check, the job-side twin of
    /// [`PoolArc::fits_pool_block`](crate::PoolArc::fits_pool_block)).
    pub const fn fits<F>() -> bool {
        fits_block(Layout::new::<Packed<F>>())
    }

    /// Wraps a closure, using a recycled block when the record fits
    /// [`JOB_BLOCK_SIZE`].
    pub fn new<F: FnOnce() + Send + 'static>(f: F) -> Job {
        let layout = Layout::new::<Packed<F>>();
        let pooled = Self::fits::<F>();
        let raw = if pooled {
            pool_alloc()
        } else {
            count_heap_record();
            // SAFETY: `Packed<F>` is never zero-sized (it contains the
            // header's function pointers).
            let ptr = unsafe { alloc(layout) };
            if ptr.is_null() {
                handle_alloc_error(layout);
            }
            ptr
        };
        let record = raw.cast::<Packed<F>>();
        // SAFETY: `raw` is valid for writes of `Packed<F>` (pool blocks are
        // JOB_BLOCK_SIZE/JOB_BLOCK_ALIGN and the pooled branch checked fit).
        unsafe {
            record.write(Packed {
                header: JobHeader {
                    invoke: invoke_record::<F>,
                    abandon: abandon_record::<F>,
                    pooled,
                },
                payload: ManuallyDrop::new(f),
            });
        }
        Job {
            ptr: NonNull::new(record.cast()).expect("allocation is non-null"),
        }
    }

    /// Runs the job, consuming it.
    pub fn run(self) {
        let ptr = self.ptr.as_ptr();
        std::mem::forget(self);
        // SAFETY: `ptr` is the live record this Job owned; forgetting `self`
        // above makes this the single consumption.
        unsafe { ((*ptr).invoke)(ptr) };
    }

    /// Disassembles the job into its raw record pointer (for queue slots
    /// that store thin words).  The caller becomes responsible for
    /// re-assembling it with [`from_raw`](Self::from_raw) exactly once.
    #[doc(hidden)]
    pub fn into_raw(self) -> *mut () {
        let ptr = self.ptr.as_ptr().cast();
        std::mem::forget(self);
        ptr
    }

    /// Re-assembles a job from [`into_raw`](Self::into_raw).
    ///
    /// # Safety
    ///
    /// `ptr` must come from `into_raw` and must not be reused afterwards.
    #[doc(hidden)]
    pub unsafe fn from_raw(ptr: *mut ()) -> Job {
        Job {
            ptr: NonNull::new(ptr.cast()).expect("job pointer is non-null"),
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        let ptr = self.ptr.as_ptr();
        // SAFETY: the record is live (run/into_raw forget `self` first);
        // this is the single consumption.
        unsafe { ((*ptr).abandon)(ptr) };
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Job(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use crate::test_support::pool::{assert_outstanding_settles_to, pool_serial};

    #[test]
    fn run_executes_the_closure_once() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let job = Job::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        job.run();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dropping_an_unrun_job_drops_the_payload() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let canary = Canary(Arc::clone(&drops));
        let job = Job::new(move || drop(canary));
        drop(job);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "payload dropped, not run");
    }

    #[test]
    fn oversized_payloads_fall_back_to_the_heap() {
        let big = [7u8; 4 * JOB_BLOCK_SIZE];
        assert!(!Job::fits::<[u8; 4 * JOB_BLOCK_SIZE]>());
        assert!(Job::fits::<[u8; 64]>());
        let out = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&out);
        let heap_before = job_pool_stats().heap_records;
        let job = Job::new(move || {
            o.store(big.iter().map(|&b| b as usize).sum(), Ordering::Relaxed);
        });
        assert!(job_pool_stats().heap_records > heap_before, "counted");
        job.run();
        assert_eq!(out.load(Ordering::Relaxed), 7 * 4 * JOB_BLOCK_SIZE);
    }

    #[test]
    fn raw_round_trip_preserves_the_job() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let raw = Job::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        })
        .into_raw();
        let job = unsafe { Job::from_raw(raw) };
        job.run();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn registered_worker_recycles_blocks_through_its_magazine() {
        let _guard = pool_serial();
        let before = job_pool_stats().outstanding;
        std::thread::spawn(move || {
            let _worker = counters::register_worker();
            for i in 0..if cfg!(miri) { 20 } else { 200 } {
                let job = Job::new(move || {
                    std::hint::black_box(i);
                });
                job.run();
            }
            let cached = job_pool_stats().cached;
            assert!(cached > 0, "the magazine caches recycled blocks");
        })
        .join()
        .unwrap();
        assert_outstanding_settles_to(before);
    }

    #[test]
    fn cross_thread_run_returns_blocks_to_the_receivers_side() {
        // Jobs created on one registered worker and run on another must not
        // corrupt either magazine; accounting stays balanced.
        let _guard = pool_serial();
        let before = job_pool_stats().outstanding;
        let jobs = if cfg!(miri) { 50 } else { 500 };
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let consumer = std::thread::spawn(move || {
            let _worker = counters::register_worker();
            let mut sum = 0usize;
            while let Ok(job) = rx.recv() {
                job.run();
                sum += 1;
            }
            sum
        });
        std::thread::spawn(move || {
            let _worker = counters::register_worker();
            for i in 0..jobs {
                tx.send(Job::new(move || {
                    std::hint::black_box(i);
                }))
                .unwrap();
            }
        })
        .join()
        .unwrap();
        assert_eq!(consumer.join().unwrap(), jobs);
        assert_outstanding_settles_to(before);
    }
}
