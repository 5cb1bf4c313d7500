//! A Chase–Lev work-stealing deque specialised for scheduler jobs.
//!
//! One worker thread owns the deque and pushes/pops at the *bottom* in LIFO
//! order (hot, uncontended path); any number of other workers steal from the
//! *top* in FIFO order.  This is the classic dynamic circular work-stealing
//! deque of Chase & Lev with the memory-ordering fixes of Lê et al.
//! ("Correct and Efficient Work-Stealing for Weak Memory Models", PPoPP'13),
//! with two implementation choices that keep the unsafe surface small:
//!
//! * **Slots hold thin pointers.**  A [`Job`] is already a thin pointer to
//!   its (pool-recycled) record, so a slot is a single machine word stored
//!   in an `AtomicPtr` with no re-boxing — the extra per-push allocation
//!   the old `Box<Box<dyn FnOnce()>>` scheme paid is gone structurally.
//!   Every slot access is a plain atomic load/store, so the algorithm's
//!   benign speculative reads (a stealer reading a slot it then fails to
//!   claim) never produce a torn value.
//! * **Rings start small and retired rings are kept alive until the deque
//!   dies.**  A worker's ring starts at 8 slots (64 B) and doubles when a
//!   push finds it full, so a worker that never queues more than a few
//!   jobs — most of a §6.3 pool — never holds more.  The new ring records
//!   the one it replaced in its `retired` header field before it is
//!   published, so a stealer that raced the growth still reads from valid
//!   memory; the chain is written only by the owner (`grow`) and read only
//!   by `Drop`, which has the deque exclusively, so it needs no lock.
//!   Rings double in size, so the chain holds less memory than the live
//!   ring.
//!
//! Ownership of a popped/stolen pointer transfers to exactly one caller: the
//! single successful CAS on `top` (steals and the last-element pop) or the
//! owner's uncontended bottom decrement.  Everyone else discards the value
//! they read.

use std::ptr;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Arc;

use promise_core::Job;

/// A slot value: the job's raw record pointer ([`Job::into_raw`]).
type Slot = *mut ();

struct Buffer {
    cap: usize,
    /// The ring this one replaced (null for a deque's first ring); written
    /// before the ring is published, read only by `Drop`.
    retired: *mut Buffer,
    slots: Box<[AtomicPtr<()>]>,
}

impl Buffer {
    fn alloc(cap: usize, retired: *mut Buffer) -> *mut Buffer {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        Box::into_raw(Box::new(Buffer {
            cap,
            retired,
            slots,
        }))
    }

    #[inline]
    fn slot(&self, index: isize) -> &AtomicPtr<()> {
        &self.slots[index as usize & (self.cap - 1)]
    }
}

struct DequeState {
    /// Next push position; only the owner writes it.
    bottom: AtomicIsize,
    /// Next steal position; advanced by successful CASes.
    top: AtomicIsize,
    /// The live ring buffer; replaced (never mutated in place) on growth.
    /// Its `retired` chain keeps the rings it replaced alive for stealers
    /// that raced a growth.
    buffer: AtomicPtr<Buffer>,
}

impl Drop for DequeState {
    fn drop(&mut self) {
        // Exclusive access: free unclaimed jobs, the live buffer, and the
        // chain of retired ones.  Dropping a job box drops its captured
        // state (for a spawned task this runs the `PreparedTask` exit
        // machinery).
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        let mut buf_ptr = self.buffer.load(Ordering::Relaxed);
        unsafe {
            let buf = &*buf_ptr;
            for i in t..b {
                let slot = buf.slot(i).load(Ordering::Relaxed);
                if !slot.is_null() {
                    drop(Job::from_raw(slot));
                }
            }
            // Each ring has exactly one owning pointer — the live one
            // `buffer`, every retired one its successor's `retired` — so
            // walking the chain frees each once.
            while !buf_ptr.is_null() {
                let buf = Box::from_raw(buf_ptr);
                buf_ptr = buf.retired;
            }
        }
    }
}

/// The owning (worker-side) handle of a deque.  Not cloneable; push/pop may
/// only be called from the thread that owns it.
pub(crate) struct WorkerDeque {
    state: Arc<DequeState>,
}

/// A stealing handle; cloneable and shareable across threads.
#[derive(Clone)]
pub(crate) struct Stealer {
    state: Arc<DequeState>,
}

/// Outcome of a steal attempt.
pub(crate) enum Steal {
    /// The deque was observed empty.
    Empty,
    /// A concurrent operation claimed the observed item; try again.
    Retry,
    /// One job was stolen.
    Success(Job),
}

impl WorkerDeque {
    /// Creates an empty deque (and its stealer) with room for `cap_hint`
    /// (rounded up to a power of two) jobs before the first growth.
    pub(crate) fn new(cap_hint: usize) -> (WorkerDeque, Stealer) {
        let cap = cap_hint.next_power_of_two();
        let state = Arc::new(DequeState {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Buffer::alloc(cap, ptr::null_mut())),
        });
        (
            WorkerDeque {
                state: Arc::clone(&state),
            },
            Stealer { state },
        )
    }

    /// Pushes a job at the bottom (owner only).
    pub(crate) fn push(&self, job: Job) {
        let cell: Slot = job.into_raw();
        let s = &*self.state;
        let b = s.bottom.load(Ordering::Relaxed);
        let t = s.top.load(Ordering::Acquire);
        let mut buf = unsafe { &*s.buffer.load(Ordering::Relaxed) };
        if b - t >= buf.cap as isize {
            buf = self.grow(t, b);
        }
        buf.slot(b).store(cell, Ordering::Relaxed);
        // Publish: a stealer that acquires this bottom also sees the slot.
        s.bottom.store(b + 1, Ordering::Release);
    }

    /// Pops a job from the bottom (owner only, LIFO).
    pub(crate) fn pop(&self) -> Option<Job> {
        let s = &*self.state;
        let b = s.bottom.load(Ordering::Relaxed) - 1;
        let buf = unsafe { &*s.buffer.load(Ordering::Relaxed) };
        s.bottom.store(b, Ordering::Relaxed);
        // The store above must be globally visible before the load of `top`
        // below (Lê et al., fig. 23): otherwise owner and stealer can both
        // claim the same last element.
        fence(Ordering::SeqCst);
        let t = s.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty: undo.
            s.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let cell = buf.slot(b).load(Ordering::Relaxed);
        if t < b {
            // More than one element: the bottom one is ours uncontended.
            return Some(unsafe { Job::from_raw(cell) });
        }
        // Exactly one element: race stealers for it via `top`.
        let won = s
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        s.bottom.store(b + 1, Ordering::Relaxed);
        if won {
            Some(unsafe { Job::from_raw(cell) })
        } else {
            None
        }
    }

    /// Number of jobs currently queued (approximate under concurrency).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let s = &*self.state;
        let b = s.bottom.load(Ordering::Relaxed);
        let t = s.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque is empty from the owner's perspective.
    pub(crate) fn is_empty(&self) -> bool {
        let s = &*self.state;
        let b = s.bottom.load(Ordering::Relaxed);
        let t = s.top.load(Ordering::SeqCst);
        t >= b
    }

    /// Doubles the ring, copying live entries; returns the new buffer.
    fn grow(&self, t: isize, b: isize) -> &Buffer {
        let s = &*self.state;
        let old_ptr = s.buffer.load(Ordering::Relaxed);
        let old = unsafe { &*old_ptr };
        let new_ptr = Buffer::alloc(old.cap * 2, old_ptr);
        let new = unsafe { &*new_ptr };
        for i in t..b {
            new.slot(i)
                .store(old.slot(i).load(Ordering::Relaxed), Ordering::Relaxed);
        }
        // Publish the new ring; stealers still reading the old one keep a
        // valid view because the new ring's `retired` chain keeps it alive.
        s.buffer.store(new_ptr, Ordering::Release);
        new
    }
}

impl Stealer {
    /// Attempts to steal the oldest job (FIFO side).
    pub(crate) fn steal(&self) -> Steal {
        let s = &*self.state;
        let t = s.top.load(Ordering::Acquire);
        // The load of `bottom` must not be reordered before the load of
        // `top`, or we can observe a shrunken window and miss real work.
        fence(Ordering::SeqCst);
        let b = s.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = unsafe { &*s.buffer.load(Ordering::Acquire) };
        // Speculative read; only the CAS below makes it ours.  The slot is a
        // single atomic word, so a racing overwrite can never tear it.
        let cell = buf.slot(t).load(Ordering::Relaxed);
        if s.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(unsafe { Job::from_raw(cell) })
        } else {
            Steal::Retry
        }
    }

    /// Whether the deque was observed empty.
    pub(crate) fn is_empty(&self) -> bool {
        let s = &*self.state;
        let t = s.top.load(Ordering::Acquire);
        let b = s.bottom.load(Ordering::Acquire);
        t >= b
    }

    /// Number of queued jobs (approximate under concurrency).
    pub(crate) fn len(&self) -> usize {
        let s = &*self.state;
        let t = s.top.load(Ordering::Acquire);
        let b = s.bottom.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::super::LOCAL_QUEUE_CAPACITY;
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn lifo_for_the_owner() {
        let (q, _s) = WorkerDeque::new(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let log = Arc::clone(&log);
            q.push(Job::new(move || log.lock().push(i)));
        }
        assert_eq!(q.len(), 10);
        while let Some(job) = q.pop() {
            job.run();
        }
        assert_eq!(*log.lock(), (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn growth_preserves_all_jobs() {
        let (q, _s) = WorkerDeque::new(4);
        let n = if cfg!(miri) { 40 } else { 1000 }; // several doublings from 4
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..n {
            let hits = Arc::clone(&hits);
            q.push(Job::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        while let Some(job) = q.pop() {
            job.run();
        }
        assert_eq!(hits.load(Ordering::Relaxed), n);
    }

    #[test]
    fn unclaimed_jobs_are_dropped_with_the_deque() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let (q, _s) = WorkerDeque::new(4);
        for _ in 0..5 {
            let c = Canary(Arc::clone(&drops));
            q.push(Job::new(move || drop(c)));
        }
        let job = q.pop().unwrap();
        drop(job); // one dropped unrun
        drop(q);
        drop(_s);
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_stealing_claims_each_job_exactly_once() {
        let n = if cfg!(miri) { 200 } else { 20_000usize };
        let stealers = 4;
        // A worker's starting ring, so the stealers race every doubling
        // from 8 slots up.
        let (q, s) = WorkerDeque::new(LOCAL_QUEUE_CAPACITY);
        let executed = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let handles: Vec<_> = (0..stealers)
            .map(|_| {
                let s = s.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || loop {
                    match s.steal() {
                        Steal::Success(job) => job.run(),
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        for i in 0..n {
            let executed = Arc::clone(&executed);
            q.push(Job::new(move || {
                executed.fetch_add(1, Ordering::Relaxed);
                std::hint::black_box(i);
            }));
            if i % 3 == 0 {
                if let Some(job) = q.pop() {
                    job.run();
                }
            }
        }
        while let Some(job) = q.pop() {
            job.run();
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        // Every job ran exactly once: the counter saw all n pushes and no
        // double-execution (which would overshoot).
        assert_eq!(executed.load(Ordering::Relaxed), n);
    }
}
