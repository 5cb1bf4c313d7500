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
//!   PoolArc<T> ───────► ┌──────────────────────────────┐  one pooled block
//!   ErasedPromiseRef ─► │ strong: AtomicUsize          │  (or a heap fallback
//!                       │ obj: *dyn ErasedPromise ──┐  │   for oversized T)
//!                       ├───────────────────────────┼──┤
//!                       │ payload: T (PromiseInner)◄┘  │
//!                       └──────────────────────────────┘
//! ```
//!
//! * The payload must be an [`ErasedPromise`] (its only users are promise
//!   cells).  [`PoolArc::new`] — the one constructor — writes the header's
//!   `obj`, a `dyn ErasedPromise` pointer to the record's own payload,
//!   before any handle exists, so every record can be erased and no record
//!   lacks the pointer.  Its vtable also carries the payload's drop glue
//!   and layout, which is all the release needs: the header holds no
//!   release function and no pooled flag, just 24 bytes.
//! * Records whose `RcRecord<T>` layout fits a pool block
//!   ([`JOB_BLOCK_SIZE`](crate::job::JOB_BLOCK_SIZE) /
//!   [`JOB_BLOCK_ALIGN`](crate::job::JOB_BLOCK_ALIGN)) are allocated from
//!   and released to the block pool; oversized payloads fall back to a
//!   plain heap allocation (counted in
//!   [`JobPoolStats::heap_records`](crate::job::JobPoolStats::heap_records)).
//!   The release recomputes the same fit from the vtable's layout;
//!   correctness never depends on fitting.
//! * When the last handle drops — on whatever thread that happens — the
//!   payload is dropped **in place** and only then is the block recycled,
//!   so a reused block carries no trace of the previous cell (and the
//!   one-shot machinery inside a promise rejects late operations through
//!   its own state, independent of storage reuse).
//! * [`ErasedPromiseRef`] is the type-erased sibling (the replacement for
//!   the old `Arc<dyn ErasedPromise>` in transfer lists and ledgers): **one
//!   word**, a pointer to the record's header, sharing the same strong
//!   count.  Dereferencing it is a single load of `obj`.  Erasing performs
//!   **no** allocation.  Being one word is what keeps a spawn's inline
//!   ledger (`TransferList`, four entries) at 64 bytes and the prepared
//!   task at 152, leaving a spawn body 72 bytes of its 256-byte job block
//!   (see [`crate::job`]).
//!
//! # Reference-count protocol (identical to `Arc`)
//!
//! Clones increment `strong` with `Relaxed` (the handle being cloned proves
//! the count is ≥ 1 and keeps the record alive).  Drops decrement with
//! `Release`; the thread that takes the count to zero issues an `Acquire`
//! fence before destroying the payload, so every access through any handle
//! happens-before the destruction.  The count is capped like `Arc`'s to
//! rule out overflow via `mem::forget` loops.  Typed and erased handles run
//! the same two functions (`RcHeader::inc_strong`, `drop_handle`).

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::Deref;
use std::ptr::{addr_of, addr_of_mut, NonNull};
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
    /// The record's own payload as `dyn ErasedPromise`.  Written once, by
    /// [`PoolArc::new`], before the first handle exists; read by every
    /// erased deref and by [`release`].
    obj: NonNull<dyn ErasedPromise>,
}

impl RcHeader {
    /// Bumps the strong count on behalf of a new handle.
    #[inline]
    fn inc_strong(&self) {
        let old = self.strong.fetch_add(1, Ordering::Relaxed);
        // Same overflow guard as `Arc`: unreachable without `mem::forget`
        // abuse, but must not be UB even then.  Abort (as `Arc` does), not
        // panic: the increment has already landed, so a caught panic would
        // let a clone loop keep incrementing until the count wraps and a
        // drop frees the record under live handles.
        if old > MAX_REFCOUNT {
            std::process::abort();
        }
    }
}

/// A concrete record: header followed by the payload, `repr(C)` so the
/// header is at offset 0 and a `*mut RcHeader` can be cast back.
#[repr(C)]
struct RcRecord<T> {
    header: RcHeader,
    payload: T,
}

/// The layout of a record whose payload has layout `payload`: what
/// `Layout::new::<RcRecord<T>>()` is for `repr(C)` (the payload at the next
/// multiple of its alignment after the header, the whole padded to the
/// larger alignment).
const fn record_layout(payload: Layout) -> Layout {
    match Layout::new::<RcHeader>().extend(payload) {
        Ok((layout, _)) => layout.pad_to_align(),
        Err(_) => panic!("a record layout never overflows"),
    }
}

/// Drops one handle's share of the record at `header`; the handle that
/// takes the count to zero destroys the record.
///
/// # Safety
///
/// `header` is a live record and the caller gives up one handle to it.
unsafe fn drop_handle(header: NonNull<RcHeader>) {
    // SAFETY (caller): the record is alive until this decrement lands.
    if unsafe { header.as_ref() }
        .strong
        .fetch_sub(1, Ordering::Release)
        != 1
    {
        return;
    }
    // Pair with every other handle's Release decrement so all their
    // accesses happen-before the destruction below.
    fence(Ordering::Acquire);
    // SAFETY: the count reached zero, so this is the single destruction.
    unsafe { release(header) };
}

/// Drops the payload in place, then returns the storage to wherever
/// [`PoolArc::new`] took it from.
///
/// # Safety
///
/// The strong count reached zero: this thread has exclusive access to the
/// record, and the payload is dropped exactly once, here.
unsafe fn release(header: NonNull<RcHeader>) {
    // SAFETY (caller): exclusive access; `obj` points at the live payload
    // of this very record (written by `PoolArc::new`).  The layout is read
    // before the drop, the storage freed only after it.
    unsafe {
        let obj = header.as_ref().obj.as_ptr();
        let layout = record_layout(Layout::for_value(&*obj));
        std::ptr::drop_in_place(obj);
        if job::fits_block(layout) {
            job::pool_free(header.as_ptr().cast());
        } else {
            dealloc(header.as_ptr().cast(), layout);
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

impl<T: ErasedPromise + 'static> PoolArc<T> {
    /// Allocates a record — from the shared block pool when the payload
    /// fits, from the heap otherwise — and moves `payload` into it.
    pub fn new(payload: T) -> PoolArc<T> {
        let layout = Layout::new::<RcRecord<T>>();
        // `release` frees the record with the layout it recomputes from the
        // vtable: it must be this one.
        const {
            let recomputed = record_layout(Layout::new::<T>());
            let layout = Layout::new::<RcRecord<T>>();
            assert!(layout.size() == recomputed.size() && layout.align() == recomputed.align());
        }
        let raw = if Self::fits_pool_block() {
            job::pool_alloc()
        } else {
            job::count_heap_record();
            // SAFETY: `RcRecord` is never zero-sized (the header holds a
            // counter and a pointer).
            let ptr = unsafe { alloc(layout) };
            if ptr.is_null() {
                handle_alloc_error(layout);
            }
            ptr
        };
        let record = raw.cast::<RcRecord<T>>();
        // SAFETY: `raw` is valid for writes of `RcRecord<T>` (pool blocks
        // are JOB_BLOCK_SIZE/JOB_BLOCK_ALIGN and the pooled branch checked
        // the fit).  `obj` is derived from `record` itself, so it carries
        // the provenance of the whole allocation.
        unsafe {
            let payload_ptr = addr_of_mut!((*record).payload);
            payload_ptr.write(payload);
            let obj: *mut dyn ErasedPromise = payload_ptr;
            addr_of_mut!((*record).header).write(RcHeader {
                strong: AtomicUsize::new(1),
                obj: NonNull::new_unchecked(obj),
            });
        }
        PoolArc {
            record: NonNull::new(record).expect("allocation is non-null"),
        }
    }

    /// Type-erases the handle into an [`ErasedPromiseRef`] sharing the same
    /// record and strong count.  Performs no allocation.
    pub fn erase(this: &PoolArc<T>) -> ErasedPromiseRef {
        this.header().inc_strong();
        ErasedPromiseRef {
            header: this.record.cast(),
        }
    }
}

impl<T> PoolArc<T> {
    /// Whether `T`'s record fits a pool block (compile-time layout check).
    #[doc(hidden)]
    pub const fn fits_pool_block() -> bool {
        job::fits_block(Layout::new::<RcRecord<T>>())
    }

    #[inline]
    fn header(&self) -> &RcHeader {
        // SAFETY: the record is alive as long as any handle exists.
        unsafe { &*addr_of!((*self.record.as_ptr()).header) }
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
        // other handle can be made from it meanwhile.  The borrow covers the
        // payload only, never the header.
        Some(unsafe { &mut *addr_of_mut!((*this.record.as_ptr()).payload) })
    }

    /// Whether this record's storage came from the block pool (tests and
    /// diagnostics).
    #[doc(hidden)]
    pub fn is_pooled(&self) -> bool {
        Self::fits_pool_block()
    }
}

// The records the hot paths create must stay pooled: a field added to
// `PromiseInner` that pushes one past a block silently puts an allocator
// call back on every message or spawn.  (Channel cells are checked beside
// their definition in `promise-sync`.)  The erased handle must stay one
// word: four of them sit inline in every spawn's ledger (see the
// `PreparedTask` size guard in `crate::task`).
const _: () = {
    use crate::cell::ResultSlot;
    use crate::promise::PromiseInner;
    assert!(PoolArc::<PromiseInner<u64>>::fits_pool_block());
    assert!(PoolArc::<PromiseInner<(), ResultSlot<u64>>>::fits_pool_block());
    assert!(std::mem::size_of::<ErasedPromiseRef>() == 8);
};

impl<T> Deref for PoolArc<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the record is alive as long as any handle exists, and a
        // shared payload borrow is tied to `&self`.
        unsafe { &*addr_of!((*self.record.as_ptr()).payload) }
    }
}

impl<T> Clone for PoolArc<T> {
    fn clone(&self) -> Self {
        self.header().inc_strong();
        PoolArc {
            record: self.record,
        }
    }
}

impl<T> Drop for PoolArc<T> {
    fn drop(&mut self) {
        // SAFETY: this handle is live and is given up here.
        unsafe { drop_handle(self.record.cast()) };
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
/// count of the typed handles to the same promise.  One word: a pointer to
/// the record header, whose `dyn ErasedPromise` pointer its
/// [`Deref`] loads.  Dereferences to
/// [`dyn ErasedPromise`](crate::ErasedPromise).
pub struct ErasedPromiseRef {
    header: NonNull<RcHeader>,
}

impl ErasedPromiseRef {
    /// Whether both handles refer to the same promise — `Arc::ptr_eq`: a
    /// promise has exactly one record, so this compares identity without
    /// dereferencing either handle.
    #[inline]
    pub fn ptr_eq(a: &ErasedPromiseRef, b: &ErasedPromiseRef) -> bool {
        a.header == b.header
    }
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
        // alive as long as any handle exists; `obj` was written before the
        // first handle and never changes.
        unsafe { self.header.as_ref().obj.as_ref() }
    }
}

impl Clone for ErasedPromiseRef {
    fn clone(&self) -> Self {
        // SAFETY: the header is alive as long as this handle exists.
        unsafe { self.header.as_ref() }.inc_strong();
        ErasedPromiseRef {
            header: self.header,
        }
    }
}

impl Drop for ErasedPromiseRef {
    fn drop(&mut self) {
        // SAFETY: this handle is live and is given up here.
        unsafe { drop_handle(self.header) };
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
    use crate::context::Context;
    use crate::error::PromiseError;
    use crate::ids::PromiseId;
    use crate::job::job_pool_stats;
    use crate::name::Name;
    use crate::promise::Promise;
    use crate::refs::PackedRef;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    /// A refcount-protocol probe: an [`ErasedPromise`] only as far as an
    /// erased handle's `id`/`is_fulfilled` go — it belongs to no context.
    struct Canary<P = u64> {
        drops: Arc<StdAtomicUsize>,
        value: P,
    }

    /// A canary and the counter its drop bumps.
    fn canary<P>(value: P) -> (Canary<P>, Arc<StdAtomicUsize>) {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let c = Canary {
            drops: Arc::clone(&drops),
            value,
        };
        (c, drops)
    }

    impl<P> Drop for Canary<P> {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl<P: Send + Sync + 'static> ErasedPromise for Canary<P> {
        fn id(&self) -> PromiseId {
            PromiseId(41)
        }
        fn name_ref(&self) -> Option<&Name> {
            None
        }
        fn slot(&self) -> PackedRef {
            PackedRef::NULL
        }
        fn context(&self) -> &Arc<Context> {
            unreachable!("a canary belongs to no context")
        }
        fn is_fulfilled(&self) -> bool {
            false
        }
        fn complete_abandoned(&self, _err: PromiseError) -> bool {
            false
        }
    }

    #[test]
    fn payload_drops_exactly_once_when_the_last_handle_goes() {
        let (c, drops) = canary(9u64);
        let a = PoolArc::new(c);
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
        let mut a = PoolArc::new(canary(1u64).0);
        PoolArc::get_mut(&mut a).expect("sole handle").value += 1;
        let b = a.clone();
        assert!(PoolArc::get_mut(&mut a).is_none(), "shared with `b`");
        drop(b);
        let e = PoolArc::erase(&a);
        assert!(PoolArc::get_mut(&mut a).is_none(), "shared with `e`");
        drop(e);
        assert_eq!(PoolArc::get_mut(&mut a).map(|c| c.value), Some(2));
    }

    #[test]
    fn oversized_payloads_fall_back_to_the_heap() {
        let heap_before = job_pool_stats().heap_records;
        let (c, drops) = canary([0u8; 512]);
        let big = PoolArc::new(c);
        assert!(!big.is_pooled());
        assert!(job_pool_stats().heap_records > heap_before, "counted");
        assert_eq!(big.value.len(), 512);
        // The erased handle frees the heap record with the layout it reads
        // back from the vtable.
        let erased = PoolArc::erase(&big);
        drop(big);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(erased);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pooled_records_balance_the_block_pool_accounting() {
        // Outstanding rises while the record lives and settles back once the
        // last handle drops (the pool is process-global, so only deltas are
        // meaningful under concurrent tests — poll for the settle).
        let before = job_pool_stats().outstanding;
        let a = PoolArc::new(canary(0u64).0);
        assert!(a.is_pooled());
        let b = a.clone();
        let e = PoolArc::erase(&b);
        drop(a);
        drop(b);
        drop(e);
        crate::test_support::pool::assert_outstanding_settles_to(before);
    }

    #[test]
    fn cross_thread_handoff_and_drop() {
        let (c, drops) = canary(7u64);
        let a = PoolArc::new(c);
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

    #[test]
    fn an_erased_handle_sent_away_outlives_the_typed_ones() {
        let (c, drops) = canary(3u64);
        let a = PoolArc::new(c);
        let b = a.clone();
        let erased = PoolArc::erase(&a);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            assert_eq!(erased.id(), PromiseId(41));
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // The typed handles are gone: this drop is the last one.
            drop(erased);
        });
        ready_rx.recv().unwrap();
        drop(a);
        drop(b);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "the erased handle holds it"
        );
        go_tx.send(()).unwrap();
        t.join().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dropped exactly once");
    }

    #[test]
    fn erasing_a_clone_reports_the_typed_handles_identity() {
        let ctx = Context::new_verified();
        let root = ctx.root_task(None);
        let p = Promise::<u64>::new();
        let erased = p.clone().as_erased();
        assert_eq!(erased.id(), p.id());
        assert_eq!(erased.is_fulfilled(), p.is_fulfilled());
        assert!(ErasedPromiseRef::ptr_eq(&erased, &p.as_erased()));
        let other = Promise::<u64>::new();
        assert!(!ErasedPromiseRef::ptr_eq(&erased, &other.as_erased()));
        other.set(6).unwrap();
        assert!(!erased.is_fulfilled());
        p.set(5).unwrap();
        assert!(erased.is_fulfilled());
        assert_eq!(erased.is_fulfilled(), p.is_fulfilled());
        drop(p);
        assert_eq!(erased.id(), erased.clone().id());
        drop(erased);
        assert!(root.finish().is_none(), "the root fulfilled its promise");
    }
}
