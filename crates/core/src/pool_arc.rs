//! Pooled atomic reference counting: the recycled refcount block behind
//! promise cells.
//!
//! Every promise — including the fused completion cell of each spawn — used
//! to live in an `Arc<PromiseInner<…>>`, and `Arc::new` is an unavoidable
//! global-allocator call: `Arc` owns its own layout.  With job records,
//! transfer lists and arena slots recycled, that `Arc` is the one allocation
//! every promise would still make.  (A *named* promise also needs its name;
//! [`Name`](crate::Name) keeps that to one string per named task or channel
//! rather than one per promise.)
//!
//! [`PoolArc<T>`] removes it.  It is a hand-rolled `Arc` whose *storage*
//! comes from the shared 256-byte block pool of [`crate::job`] (sharded
//! magazines over the generic [`crate::magazine`] protocol, each locked for
//! one alloc or free, so a cell created on the root thread is served from a
//! magazine like one created on a worker):
//!
//! ```text
//!   PoolArc<T> ──► ┌──────────────────────────────┐  one pooled block
//!                  │ strong: AtomicUsize          │  (or a heap fallback
//!                  │ release fn ptr  + pooled flag│   for oversized T)
//!                  ├──────────────────────────────┤
//!                  │ payload: T  (PromiseInner)   │
//!                  └──────────────────────────────┘
//! ```
//!
//! * Records whose `RcRecord<T>` layout fits a pool block
//!   ([`JOB_BLOCK_SIZE`](crate::job::JOB_BLOCK_SIZE) /
//!   [`JOB_BLOCK_ALIGN`](crate::job::JOB_BLOCK_ALIGN)) are allocated from
//!   and released to the block pool; oversized payloads fall back to a
//!   plain heap allocation.  The flag routes the release; correctness never
//!   depends on fitting.
//! * When the last handle drops — on whatever thread that happens — the
//!   payload is dropped **in place** and only then is the block recycled,
//!   so a reused block carries no trace of the previous cell (and the
//!   one-shot machinery inside a promise rejects late operations through
//!   its own state, independent of storage reuse).
//! * [`ErasedPromiseRef`] is the type-erased sibling (the replacement for
//!   the old `Arc<dyn ErasedPromise>` in transfer lists and ledgers): a fat
//!   pointer to the payload as `dyn ErasedPromise` plus the record's
//!   header, sharing the same strong count.  Erasing performs **no**
//!   allocation — unsized coercion of the payload reference is free — which
//!   is what lets the ledger/transfer machinery keep working without
//!   re-introducing a per-spawn `Arc`.
//!
//! # Reference-count protocol (identical to `Arc`)
//!
//! Clones increment `strong` with `Relaxed` (the handle being cloned proves
//! the count is ≥ 1 and keeps the record alive).  Drops decrement with
//! `Release`; the thread that takes the count to zero issues an `Acquire`
//! fence before destroying the payload, so every access through any handle
//! happens-before the destruction.  The count is capped like `Arc`'s to
//! rule out overflow via `mem::forget` loops.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::job;
use crate::promise::ErasedPromise;

/// Refcount saturation guard, as in `std::sync::Arc`.
const MAX_REFCOUNT: usize = isize::MAX as usize;

/// The header at offset 0 of every refcounted record.
#[repr(C)]
struct RcHeader {
    /// Number of live handles (typed + erased).
    strong: AtomicUsize,
    /// Drops the payload in place and releases the storage.  Monomorphized
    /// per payload type so the erased handle can destroy the record without
    /// knowing `T`.
    release: unsafe fn(*mut RcHeader),
    /// Whether the storage came from the block pool (vs a plain heap
    /// allocation for an oversized payload).
    pooled: bool,
}

/// A concrete record: header followed by the payload, `repr(C)` so the
/// header is at offset 0 and a `*mut RcHeader` can be cast back.
#[repr(C)]
struct RcRecord<T> {
    header: RcHeader,
    payload: T,
}

unsafe fn release_record<T>(header: *mut RcHeader) {
    let record = header.cast::<RcRecord<T>>();
    // SAFETY (caller): the strong count reached zero, so this thread has
    // exclusive access to the record; the payload is dropped exactly once,
    // here, before its storage is recycled.
    unsafe {
        let pooled = (*header).pooled;
        std::ptr::drop_in_place(std::ptr::addr_of_mut!((*record).payload));
        if pooled {
            job::pool_free(record.cast());
        } else {
            dealloc(record.cast(), Layout::new::<RcRecord<T>>());
        }
    }
}

/// A pooled atomically-reference-counted pointer.  See the
/// [module docs](self).
pub struct PoolArc<T> {
    record: NonNull<RcRecord<T>>,
}

// SAFETY: same bounds as `Arc<T>` — handles share `&T` across threads
// (needs `T: Sync`) and the last handle may drop the payload on any thread
// (needs `T: Send`).
unsafe impl<T: Send + Sync> Send for PoolArc<T> {}
unsafe impl<T: Send + Sync> Sync for PoolArc<T> {}

impl<T: Send + Sync> PoolArc<T> {
    /// Whether `T`'s record fits a pool block (compile-time layout check).
    #[doc(hidden)]
    pub const fn fits_pool_block() -> bool {
        std::mem::size_of::<RcRecord<T>>() <= job::JOB_BLOCK_SIZE
            && std::mem::align_of::<RcRecord<T>>() <= job::JOB_BLOCK_ALIGN
    }

    /// Allocates a record — from the shared block pool when the payload
    /// fits, from the heap otherwise — and moves `payload` into it.
    pub fn new(payload: T) -> PoolArc<T> {
        let pooled = Self::fits_pool_block();
        let raw = if pooled {
            job::pool_alloc()
        } else {
            let layout = Layout::new::<RcRecord<T>>();
            // SAFETY: `RcRecord` is never zero-sized (the header holds a
            // function pointer and a counter).
            let ptr = unsafe { alloc(layout) };
            if ptr.is_null() {
                handle_alloc_error(layout);
            }
            ptr
        };
        let record = raw.cast::<RcRecord<T>>();
        // SAFETY: `raw` is valid for writes of `RcRecord<T>` (pool blocks
        // are JOB_BLOCK_SIZE/JOB_BLOCK_ALIGN and the pooled branch checked
        // the fit).
        unsafe {
            record.write(RcRecord {
                header: RcHeader {
                    strong: AtomicUsize::new(1),
                    release: release_record::<T>,
                    pooled,
                },
                payload,
            });
        }
        PoolArc {
            record: NonNull::new(record).expect("allocation is non-null"),
        }
    }
}

// The records the hot paths create must stay pooled: a field added to
// `PromiseInner` that pushes one past a block silently puts an allocator
// call back on every message or spawn.  (Channel cells are checked beside
// their definition in `promise-sync`.)
const _: () = {
    use crate::cell::ResultSlot;
    use crate::promise::PromiseInner;
    assert!(PoolArc::<PromiseInner<u64>>::fits_pool_block());
    assert!(PoolArc::<PromiseInner<(), ResultSlot<u64>>>::fits_pool_block());
};

impl<T> PoolArc<T> {
    #[inline]
    fn header(&self) -> &RcHeader {
        // SAFETY: the record is alive as long as any handle exists.
        unsafe { &self.record.as_ref().header }
    }

    /// Bumps the strong count on behalf of a new handle.
    #[inline]
    fn inc_strong(&self) {
        let old = self.header().strong.fetch_add(1, Ordering::Relaxed);
        // Same overflow guard as `Arc`: unreachable without `mem::forget`
        // abuse, but must not be UB even then.  Abort (as `Arc` does), not
        // panic: the increment has already landed, so a caught panic would
        // let a clone loop keep incrementing until the count wraps and a
        // drop frees the record under live handles.
        if old > MAX_REFCOUNT {
            std::process::abort();
        }
    }

    /// Exclusive access to the payload if this is the only handle, typed or
    /// erased — `Arc::get_mut`, with no weak handles to rule out.
    pub fn get_mut(this: &mut PoolArc<T>) -> Option<&mut T> {
        // Acquire pairs with the Release decrement of every handle dropped
        // so far: their accesses happen-before the exclusive borrow.
        if this.header().strong.load(Ordering::Acquire) != 1 {
            return None;
        }
        // SAFETY: the count is 1, so `this` is the only handle, and it is
        // borrowed mutably for as long as the payload borrow lives, so no
        // other handle can be made from it meanwhile.
        Some(unsafe { &mut this.record.as_mut().payload })
    }

    /// Whether this record's storage came from the block pool (tests and
    /// diagnostics).
    #[doc(hidden)]
    pub fn is_pooled(&self) -> bool {
        self.header().pooled
    }

    /// Type-erases the handle into an [`ErasedPromiseRef`] sharing the same
    /// record and strong count.  Performs no allocation.
    pub fn erase(this: &PoolArc<T>) -> ErasedPromiseRef
    where
        T: ErasedPromise + Sized + 'static,
    {
        this.inc_strong();
        // Unsized coercion of the payload pointer: the fat pointer carries
        // `T`'s vtable, the record stays refcounted through `header`.
        let payload = unsafe { std::ptr::addr_of!((*this.record.as_ptr()).payload) };
        let obj = payload as *const dyn ErasedPromise;
        ErasedPromiseRef {
            header: this.record.cast::<RcHeader>(),
            obj: NonNull::new(obj.cast_mut()).expect("payload pointer is non-null"),
        }
    }
}

impl<T> Deref for PoolArc<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the record is alive as long as any handle exists, and a
        // shared payload borrow is tied to `&self`.
        unsafe { &self.record.as_ref().payload }
    }
}

impl<T> Clone for PoolArc<T> {
    fn clone(&self) -> Self {
        self.inc_strong();
        PoolArc {
            record: self.record,
        }
    }
}

impl<T> Drop for PoolArc<T> {
    fn drop(&mut self) {
        if self.header().strong.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Pair with every other handle's Release decrement so all their
        // accesses happen-before the destruction below.
        fence(Ordering::Acquire);
        let header = self.record.cast::<RcHeader>().as_ptr();
        // SAFETY: the count reached zero, so this is the single destruction.
        unsafe { ((*header).release)(header) };
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PoolArc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A type-erased, refcounted promise handle — the pooled replacement for
/// `Arc<dyn ErasedPromise>` in transfer lists and task ledgers.
///
/// Produced by [`PoolArc::erase`] (or
/// [`Promise::as_erased`](crate::Promise::as_erased)); shares the strong
/// count of the typed handles to the same promise.  Dereferences to
/// [`dyn ErasedPromise`](crate::ErasedPromise).
pub struct ErasedPromiseRef {
    header: NonNull<RcHeader>,
    obj: NonNull<dyn ErasedPromise + 'static>,
}

// SAFETY: `dyn ErasedPromise` has `Send + Sync` supertraits, so sharing and
// moving the handle across threads is sound; the count is atomic, and the
// record outlives every handle by the refcount protocol.
unsafe impl Send for ErasedPromiseRef {}
unsafe impl Sync for ErasedPromiseRef {}

impl Deref for ErasedPromiseRef {
    type Target = dyn ErasedPromise + 'static;
    #[inline]
    fn deref(&self) -> &(dyn ErasedPromise + 'static) {
        // SAFETY: the record (and with it the payload `obj` points into) is
        // alive as long as any handle exists.
        unsafe { self.obj.as_ref() }
    }
}

impl Clone for ErasedPromiseRef {
    fn clone(&self) -> Self {
        // SAFETY: the header is alive as long as this handle exists.
        let old = unsafe { self.header.as_ref() }
            .strong
            .fetch_add(1, Ordering::Relaxed);
        // Abort, not panic — see `PoolArc::inc_strong`.
        if old > MAX_REFCOUNT {
            std::process::abort();
        }
        ErasedPromiseRef {
            header: self.header,
            obj: self.obj,
        }
    }
}

impl Drop for ErasedPromiseRef {
    fn drop(&mut self) {
        // SAFETY: as in `PoolArc::drop` — same protocol, same record.
        unsafe {
            if self.header.as_ref().strong.fetch_sub(1, Ordering::Release) != 1 {
                return;
            }
            fence(Ordering::Acquire);
            let header = self.header.as_ptr();
            ((*header).release)(header);
        }
    }
}

impl std::fmt::Debug for ErasedPromiseRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedPromiseRef")
            .field("id", &self.id())
            .field("fulfilled", &self.is_fulfilled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::job_pool_stats;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    struct Canary {
        drops: Arc<StdAtomicUsize>,
        value: u64,
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn payload_drops_exactly_once_when_the_last_handle_goes() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let a = PoolArc::new(Canary {
            drops: Arc::clone(&drops),
            value: 9,
        });
        assert!(a.is_pooled(), "a small record must come from the pool");
        let b = a.clone();
        let c = b.clone();
        assert_eq!(a.value, 9);
        drop(a);
        drop(b);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn get_mut_needs_the_only_handle() {
        let mut a = PoolArc::new(1u64);
        *PoolArc::get_mut(&mut a).expect("sole handle") += 1;
        let b = a.clone();
        assert!(PoolArc::get_mut(&mut a).is_none(), "shared with `b`");
        drop(b);
        assert_eq!(PoolArc::get_mut(&mut a).copied(), Some(2));
    }

    #[test]
    fn oversized_payloads_fall_back_to_the_heap() {
        let big = PoolArc::new([0u8; 512]);
        assert!(!big.is_pooled());
        assert_eq!(big.len(), 512);
        drop(big);
    }

    #[test]
    fn pooled_records_balance_the_block_pool_accounting() {
        // Outstanding rises while the record lives and settles back once the
        // last handle drops (the pool is process-global, so only deltas are
        // meaningful under concurrent tests — poll for the settle).
        let before = job_pool_stats().outstanding;
        let a = PoolArc::new(0u64);
        assert!(a.is_pooled());
        let b = a.clone();
        drop(a);
        drop(b);
        crate::test_support::pool::assert_outstanding_settles_to(before);
    }

    #[test]
    fn cross_thread_handoff_and_drop() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let a = PoolArc::new(Canary {
            drops: Arc::clone(&drops),
            value: 7,
        });
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = a.clone();
                std::thread::spawn(move || h.value)
            })
            .collect();
        for t in handles {
            assert_eq!(t.join().unwrap(), 7);
        }
        drop(a);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
