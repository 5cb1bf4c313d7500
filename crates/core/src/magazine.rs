//! The generic sharded magazine — the one implementation of the
//! lock/refill/flush protocol shared by every small-item cache in this
//! crate.
//!
//! Three subsystems recycle fixed-size resources on their hot paths:
//!
//! * the slot arena ([`crate::arena`]) recycles slot *indices*,
//! * the job block pool ([`crate::job`]) recycles 256-byte *blocks* for task
//!   records, and
//! * the pooled promise cells ([`crate::pool_arc`]) recycle the same blocks
//!   for refcounted promise allocations.
//!
//! All three want the same shape: a small cache (a *magazine*) of free items
//! popped and pushed with plain array operations, backed by a shared
//! *backstop* (a Treiber list, a mutex-guarded vector) that magazines refill
//! from and flush to in batches.
//!
//! # The protocol
//!
//! A [`MagazinePool<T>`] owns [`MAG_SHARDS`] cache-line-aligned magazines,
//! each a `[T; MAG_CAP]` plus a lock word.  A magazine belongs to the
//! *pool*, never to a thread: the paper's §6.3 pool holds hundreds to
//! thousands of threads of which a CPU's worth run at any moment, and a
//! cache owned for a thread's lifetime serves whoever came first, not
//! whoever is running.  So every operation locks a shard for its own
//! duration:
//!
//! * [`MagazinePool::alloc`] / [`MagazinePool::free`] start at the shard the
//!   calling thread's `counters::thread_home` index maps to (no
//!   registration, so root and helper threads are served like workers) and
//!   **try-lock** it with one `compare_exchange(false → true, Acquire)`; on
//!   failure they try the neighbouring shard, and then return `None`/`Err`
//!   so the caller takes its shared path.  Nobody ever waits: a holder
//!   preempted inside the critical section (a handful of loads and stores)
//!   costs the others one fallback, never a stall.  Sharding is a
//!   performance hint, never a correctness requirement.
//! * Under the lock, an empty magazine refills with one
//!   [`MagazineBackend::refill`] call for up to [`MAG_REFILL`] items and a
//!   full one flushes its *oldest* half with one [`MagazineBackend::flush`]
//!   call — half-capacity, so alternating allocs and frees near a boundary
//!   do not thrash.  The guard's drop unlocks with a `Release` store.
//!
//! A thread that dies strands nothing: between operations it holds nothing,
//! and what it cached serves the next thread that locks the shard.
//! [`MagazinePool::drain`] (a cold path) empties every magazine onto the
//! backstop for callers that need the items *there*.
//!
//! # Why no item is ever lost or handed out twice
//!
//! An item is in exactly one of four places — a magazine (`items[..len]`),
//! the backstop, the backend's not-yet-created fresh region, or a caller's
//! hands — and every transition is a move.  The lock is the exclusivity
//! argument: `len`/`items` are touched only between a successful lock CAS
//! and the guard's drop.  `Acquire`/`Release` on the lock word is the
//! visibility argument: each holder sees every write of the previous one.
//! The interleaving kit in [`crate::test_support::interleave`] checks both
//! invariants after every lock / refill-or-flush / pop-or-push / unlock
//! step of exhaustively enumerated schedules of two and three threads.
//!
//! # Accounting
//!
//! Each magazine keeps a `live` delta (`+1` per pool alloc, `-1` per pool
//! free) and a count of operations it served, written with plain load/store
//! under the lock (no RMW) and summed by [`MagazinePool::live`] /
//! [`MagazinePool::magazine_ops`]; operations that found both probed shards
//! busy bump one pool-wide relaxed counter
//! ([`MagazinePool::shared_path_ops`]).  Callers keep their own live
//! counter for their shared path.
//!
//! Each magazine also keeps a high-water mark `hwm`: the largest `live` the
//! shard has reached since its last *boundary event* (refill, flush, or
//! drain).  At every boundary the pool reports the shard's *residual* —
//! `(hwm - live).max(0)`, the part of a past excursion that plain `live()`
//! sampling can no longer see — to [`MagazineBackend::note_residual`] and
//! resets `hwm := live`; between boundaries [`MagazinePool::max_residual`]
//! exposes the largest outstanding residual so peak-gauge readers (the
//! arena's `peak_live`) can fold it in on the read path.  See
//! [`crate::arena`]'s "peak accounting" docs for the exactness guarantees
//! this buys.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

use crate::counters::thread_home;

/// Number of magazines in a pool.  Sized for the threads that *run* at once
/// (CPUs), not the threads that exist.
pub const MAG_SHARDS: usize = 16;

/// Capacity of one magazine, in cached items.
pub const MAG_CAP: usize = 64;

/// Batch size for refills and flushes.  Half the capacity, so alternating
/// allocs and frees near a boundary do not thrash refill/flush.
pub const MAG_REFILL: usize = MAG_CAP / 2;

/// The shared backstop a [`MagazinePool`] refills from and flushes to.
///
/// Implementations provide the storage-specific halves of the protocol (the
/// arena's Treiber list + fresh-index range, the block pool's mutex-guarded
/// vector + allocator top-up); the pool provides the exclusivity.  Every
/// method is called with a shard lock held, but the backend must still be
/// safe to call concurrently from many threads (different magazines refill
/// and flush in parallel, and callers' shared paths use the same storage).
pub trait MagazineBackend {
    /// The cached item type (a slot index, a block address).
    type Item: Copy + Send;

    /// Writes at least one and at most `buf.len()` items into the prefix of
    /// `buf` and returns how many were written.  `buf.len()` is
    /// [`MAG_REFILL`].  Must never return 0 — when the backstop is empty the
    /// backend creates fresh items (and may take that as its cue to sample
    /// any derived statistics, e.g. the arena's peak-live high-water mark).
    fn refill(&self, buf: &mut [MaybeUninit<Self::Item>]) -> usize;

    /// Takes `items` back onto the backstop in one batch.  `items` is the
    /// *oldest* end of the flushing magazine, in cache order.
    fn flush(&self, items: &[Self::Item]);

    /// Called at every magazine boundary event (refill, flush, drain) with
    /// the shard's unsampled peak excursion: how far above its current
    /// `live` delta the shard's high-water mark climbed since the previous
    /// boundary.  Backends that derive a peak gauge from `live` sampling
    /// (the slot arena) fold the residual into the gauge here; the default
    /// is a no-op.  Called before the refill/flush itself.
    fn note_residual(&self, _residual: usize) {}
}

/// One magazine (see the [module docs](self)).
///
/// `items[..len]` are only ever accessed between a successful CAS of
/// `locked` and the [`ShardGuard`] drop that clears it.  `len`, `live`,
/// `hwm` and `hits` are atomics solely so stats readers can load them
/// without a data race — the lock holder uses plain relaxed loads/stores.
/// Aligned so neighbouring magazines never share a cache line.
#[repr(align(128))]
struct Magazine<T> {
    locked: AtomicBool,
    len: AtomicUsize,
    live: AtomicI64,
    hwm: AtomicI64,
    hits: AtomicU64,
    items: UnsafeCell<MaybeUninit<[T; MAG_CAP]>>,
}

// SAFETY: `items` is only accessed by the holder of the `locked` word (see
// the module docs); everything else is atomic.  Items move between threads
// via the magazine, so `T: Send` is required.
unsafe impl<T: Copy + Send> Sync for Magazine<T> {}

impl<T: Copy + Send> Magazine<T> {
    const fn new() -> Self {
        Magazine {
            locked: AtomicBool::new(false),
            len: AtomicUsize::new(0),
            live: AtomicI64::new(0),
            hwm: AtomicI64::new(0),
            hits: AtomicU64::new(0),
            items: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }
}

/// Exclusive access to one locked magazine; unlocks on drop.
///
/// [`MagazinePool::alloc`] / [`MagazinePool::free`] hold one for a single
/// [`pop`](Self::pop) / [`push`](Self::push).  The boundary halves are
/// exposed separately so the interleaving kit can park a simulated thread
/// between any two steps of an operation.
#[doc(hidden)]
pub struct ShardGuard<'a, T> {
    magazine: &'a Magazine<T>,
    shard: usize,
}

impl<T> Drop for ShardGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // Release publishes this holder's writes to `items` and the
        // counters to the next holder's Acquire lock.
        self.magazine.locked.store(false, Ordering::Release);
    }
}

impl<T: Copy + Send> ShardGuard<'_, T> {
    /// Index of the locked shard.
    pub fn shard(&self) -> usize {
        self.shard
    }

    #[inline]
    fn items_ptr(&self) -> *mut T {
        self.magazine.items.get().cast::<T>()
    }

    /// Reports the shard's unsampled peak excursion to the backend and
    /// resets the high-water mark.  Called at every boundary event, before
    /// the refill/flush itself.
    #[inline]
    fn note_boundary<B: MagazineBackend<Item = T>>(&mut self, backend: &B) {
        let m = self.magazine;
        let live = m.live.load(Ordering::Relaxed);
        let residual = (m.hwm.load(Ordering::Relaxed) - live).max(0) as usize;
        backend.note_residual(residual);
        m.hwm.store(live, Ordering::Relaxed);
    }

    /// Refills the magazine from `backend` if it is empty.
    #[inline]
    pub fn refill_if_empty<B: MagazineBackend<Item = T>>(&mut self, backend: &B) {
        if self.magazine.len.load(Ordering::Relaxed) != 0 {
            return;
        }
        self.note_boundary(backend);
        // SAFETY: the guard holds the shard lock, so `items` is exclusively
        // ours; the first MAG_REFILL entries are in bounds.
        let buf = unsafe { std::slice::from_raw_parts_mut(self.items_ptr().cast(), MAG_REFILL) };
        let len = backend.refill(buf);
        assert!((1..=MAG_REFILL).contains(&len), "backend refill contract");
        self.magazine.len.store(len, Ordering::Relaxed);
    }

    /// Flushes the oldest [`MAG_REFILL`] items to `backend` if the magazine
    /// is full.
    #[inline]
    pub fn flush_if_full<B: MagazineBackend<Item = T>>(&mut self, backend: &B) {
        if self.magazine.len.load(Ordering::Relaxed) != MAG_CAP {
            return;
        }
        self.note_boundary(backend);
        let items = self.items_ptr();
        // SAFETY: lock held (exclusive `items`); the magazine is full, so
        // all MAG_CAP entries are initialised.
        unsafe {
            backend.flush(std::slice::from_raw_parts(items.cast_const(), MAG_REFILL));
            std::ptr::copy(items.add(MAG_REFILL), items, MAG_CAP - MAG_REFILL);
        }
        self.magazine
            .len
            .store(MAG_CAP - MAG_REFILL, Ordering::Relaxed);
    }

    /// Pops an item, refilling from `backend` first when empty.
    #[inline]
    pub fn pop<B: MagazineBackend<Item = T>>(&mut self, backend: &B) -> T {
        self.refill_if_empty(backend);
        let m = self.magazine;
        let len = m.len.load(Ordering::Relaxed) - 1;
        // SAFETY: lock held; `refill_if_empty` left at least one
        // initialised item, so `items[len]` is in bounds and initialised.
        let item = unsafe { self.items_ptr().add(len).read() };
        m.len.store(len, Ordering::Relaxed);
        let live = m.live.load(Ordering::Relaxed) + 1;
        m.live.store(live, Ordering::Relaxed);
        if live > m.hwm.load(Ordering::Relaxed) {
            m.hwm.store(live, Ordering::Relaxed);
        }
        m.hits
            .store(m.hits.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        item
    }

    /// Pushes an item, flushing the oldest half to `backend` first when
    /// full.
    #[inline]
    pub fn push<B: MagazineBackend<Item = T>>(&mut self, backend: &B, item: T) {
        self.flush_if_full(backend);
        let m = self.magazine;
        let len = m.len.load(Ordering::Relaxed);
        // SAFETY: lock held; `flush_if_full` left `len < MAG_CAP`.
        unsafe { self.items_ptr().add(len).write(item) };
        m.len.store(len + 1, Ordering::Relaxed);
        m.live
            .store(m.live.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
        m.hits
            .store(m.hits.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// A sharded set of per-operation-locked magazines.  See the
/// [module docs](self) for the protocol and its correctness argument.
pub struct MagazinePool<T> {
    shards: [Magazine<T>; MAG_SHARDS],
    /// Operations that found every probed shard busy.  Behind the shards'
    /// 128-byte alignment, so it shares a line with none of them.
    shared_path: AtomicU64,
}

impl<T: Copy + Send> Default for MagazinePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Send> MagazinePool<T> {
    /// Creates a pool with all magazines empty and unlocked.
    ///
    /// `const` so users can place pools in `static`s (the job block pool).
    pub const fn new() -> Self {
        MagazinePool {
            shards: [const { Magazine::new() }; MAG_SHARDS],
            shared_path: AtomicU64::new(0),
        }
    }

    /// Try-locks shard `home % MAG_SHARDS`, then its neighbour; `None` when
    /// both are held.  Never waits.
    #[doc(hidden)]
    #[inline]
    pub fn try_lock_from(&self, home: usize) -> Option<ShardGuard<'_, T>> {
        for shard in [home % MAG_SHARDS, (home + 1) % MAG_SHARDS] {
            let magazine = &self.shards[shard];
            if magazine.try_lock() {
                return Some(ShardGuard { magazine, shard });
            }
        }
        self.shared_path.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Pops an item from the calling thread's home magazine (or its
    /// neighbour), refilling from `backend` when empty.  Returns `None`
    /// when both are locked by other threads — the caller then takes its
    /// shared path.
    #[inline]
    pub fn alloc<B: MagazineBackend<Item = T>>(&self, backend: &B) -> Option<T> {
        let mut guard = self.try_lock_from(thread_home())?;
        Some(guard.pop(backend))
    }

    /// Pushes an item into the calling thread's home magazine (or its
    /// neighbour), flushing the oldest [`MAG_REFILL`] items to `backend`
    /// when full.  Hands the item back as `Err` when both are locked by
    /// other threads — the caller then takes its shared path.
    #[inline]
    pub fn free<B: MagazineBackend<Item = T>>(&self, backend: &B, item: T) -> Result<(), T> {
        let Some(mut guard) = self.try_lock_from(thread_home()) else {
            return Err(item);
        };
        guard.push(backend, item);
        Ok(())
    }

    /// Flushes every magazine to `backend`, one shard lock at a time.
    ///
    /// The one place that *waits* for a shard (yielding while a holder
    /// finishes its operation): a cold path for callers that need cached
    /// items on the backstop, never called per operation.  Items cached by
    /// operations that run concurrently with the drain may remain.
    pub fn drain<B: MagazineBackend<Item = T>>(&self, backend: &B) {
        for (shard, magazine) in self.shards.iter().enumerate() {
            while !magazine.try_lock() {
                std::thread::yield_now();
            }
            let mut guard = ShardGuard { magazine, shard };
            guard.note_boundary(backend);
            let len = magazine.len.load(Ordering::Relaxed);
            if len > 0 {
                // SAFETY: lock held; `items[..len]` are initialised.
                backend.flush(unsafe { std::slice::from_raw_parts(guard.items_ptr(), len) });
                magazine.len.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Sum of the per-shard outstanding deltas (allocs minus frees routed
    /// through magazines).  Advisory while mutating threads run; exact once
    /// they are quiescent or joined.
    pub fn live(&self) -> i64 {
        self.shards
            .iter()
            .map(|m| m.live.load(Ordering::Relaxed))
            .sum()
    }

    /// The largest outstanding per-shard residual: the maximum over
    /// magazines of how far `hwm` sits above `live` right now — i.e. the
    /// biggest peak excursion no boundary event has reported to
    /// [`MagazineBackend::note_residual`] yet.  Peak-gauge readers fold this
    /// into their read path so a quiescent pool's gauge is exact without
    /// waiting for the next refill or flush.  The *max* (not the sum) keeps
    /// the fold's possible over-report under concurrent churn bounded by one
    /// magazine's excursion instead of all of them; see [`crate::arena`].
    pub fn max_residual(&self) -> usize {
        let residual =
            |m: &Magazine<T>| m.hwm.load(Ordering::Relaxed) - m.live.load(Ordering::Relaxed);
        self.shards.iter().map(residual).max().unwrap_or(0).max(0) as usize
    }

    /// Total number of items currently cached across all magazines.
    pub fn cached(&self) -> usize {
        self.shards
            .iter()
            .map(|m| m.len.load(Ordering::Relaxed))
            .sum()
    }

    /// Operations (allocs plus frees) served by a magazine so far.
    pub fn magazine_ops(&self) -> u64 {
        self.shards
            .iter()
            .map(|m| m.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Operations that found both probed shards locked and fell to the
    /// caller's shared path.
    pub fn shared_path_ops(&self) -> u64 {
        self.shared_path.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::interleave::KitBackend;
    use std::sync::{mpsc, Arc};

    #[test]
    fn unregistered_threads_are_served() {
        // No `register_worker` anywhere: the test thread and a plain
        // spawned thread both get a magazine.
        let pool: Arc<MagazinePool<u32>> = Arc::new(MagazinePool::new());
        let backend = Arc::new(KitBackend::default());
        let item = pool.alloc(&*backend).expect("the root thread is served");
        assert_eq!(pool.free(&*backend, item), Ok(()));
        let (p2, b2) = (Arc::clone(&pool), Arc::clone(&backend));
        std::thread::spawn(move || {
            let item = p2.alloc(&*b2).expect("a plain thread is served");
            assert_eq!(p2.free(&*b2, item), Ok(()));
        })
        .join()
        .unwrap();
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.magazine_ops(), 4);
        assert_eq!(pool.shared_path_ops(), 0);
    }

    #[test]
    fn registered_worker_allocates_and_recycles_through_its_magazine() {
        let pool: MagazinePool<u32> = MagazinePool::new();
        let backend = KitBackend::default();
        let _worker = crate::counters::register_worker();
        let items: Vec<u32> = (0..(MAG_CAP * 2))
            .map(|_| pool.alloc(&backend).expect("an idle pool serves"))
            .collect();
        assert_eq!(pool.live(), (MAG_CAP * 2) as i64);
        // All handed-out items are distinct.
        let mut sorted = items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), items.len());
        for item in items {
            pool.free(&backend, item)
                .expect("magazine takes the item back");
        }
        assert_eq!(pool.live(), 0);
        // Recycling works: the next alloc is served from cache, not fresh.
        let fresh_before = backend.created();
        let r = pool.alloc(&backend).unwrap();
        assert_eq!(backend.created(), fresh_before);
        pool.free(&backend, r).unwrap();
    }

    #[test]
    fn drain_returns_everything_to_the_backend() {
        let pool: Arc<MagazinePool<u32>> = Arc::new(MagazinePool::new());
        let backend = Arc::new(KitBackend::default());
        let (p2, b2) = (Arc::clone(&pool), Arc::clone(&backend));
        std::thread::spawn(move || {
            let items: Vec<u32> = (0..8).map(|_| p2.alloc(&*b2).unwrap()).collect();
            for item in items {
                p2.free(&*b2, item).unwrap();
            }
        })
        .join()
        .unwrap();
        assert!(pool.cached() > 0);
        // Whatever shard the other thread used, a drain from here finds it.
        pool.drain(&*backend);
        assert_eq!(pool.cached(), 0, "the drain emptied every magazine");
        assert_eq!(pool.live(), 0);
        assert_eq!(backend.free_len(), backend.created(), "no item was lost");
    }

    #[test]
    fn dead_threads_cache_serves_the_next_thread() {
        let pool: Arc<MagazinePool<u32>> = Arc::new(MagazinePool::new());
        let backend = Arc::new(KitBackend::default());
        // The first thread dies with items cached; it ran no hook.
        let home = {
            let (p2, b2) = (Arc::clone(&pool), Arc::clone(&backend));
            std::thread::spawn(move || {
                let item = p2.alloc(&*b2).unwrap();
                p2.free(&*b2, item).unwrap();
                thread_home()
            })
            .join()
            .unwrap()
        };
        assert!(pool.cached() > 0, "the dead thread's cache is in the pool");
        // The next holder of that shard is served from it as it stands:
        // no refill, no adoption step.
        let refills_before = backend.refills.load(Ordering::Relaxed);
        let mut guard = pool.try_lock_from(home).expect("nobody holds the shard");
        assert_eq!(guard.shard(), home % MAG_SHARDS);
        let item = guard.pop(&*backend);
        assert_eq!(backend.refills.load(Ordering::Relaxed), refills_before);
        guard.push(&*backend, item);
        drop(guard);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn parked_holder_sends_others_to_the_neighbour_then_the_shared_path() {
        let pool: Arc<MagazinePool<u32>> = Arc::new(MagazinePool::new());
        let backend = Arc::new(KitBackend::default());
        // A thread parks *inside* an operation on shard 3: lock taken, item
        // popped, guard still held.
        let (held_tx, held_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let holder = {
            let (p2, b2) = (Arc::clone(&pool), Arc::clone(&backend));
            std::thread::spawn(move || {
                let mut guard = p2.try_lock_from(3).unwrap();
                let item = guard.pop(&*b2);
                held_tx.send(item).unwrap();
                resume_rx.recv().unwrap();
                guard.push(&*b2, item);
            })
        };
        let held_item = held_rx.recv().unwrap();
        // A second thread homed on shard 3 takes the neighbour...
        let mut second = pool.try_lock_from(3).expect("the neighbour is free");
        assert_eq!(second.shard(), 4);
        let other = second.pop(&*backend);
        assert_ne!(other, held_item, "nothing is handed out twice");
        // ...and with both held, a third gets nothing and counts a miss.
        assert!(pool.try_lock_from(3).is_none());
        assert_eq!(pool.shared_path_ops(), 1);
        second.push(&*backend, other);
        drop(second);
        resume_tx.send(()).unwrap();
        holder.join().unwrap();
        // Nothing was lost: every created item is cached or on the backstop.
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.cached() + backend.free_len(), backend.created());
    }

    #[test]
    fn residual_tracks_unsampled_peak_excursions() {
        let pool: MagazinePool<u32> = MagazinePool::new();
        let backend = KitBackend::default();
        // Climb to a peak of 8, then free back down: plain `live` sampling
        // between boundaries never sees the excursion, the residual does.
        let items: Vec<u32> = (0..8).map(|_| pool.alloc(&backend).unwrap()).collect();
        assert_eq!(pool.max_residual(), 0, "at the peak, hwm == live");
        for item in items {
            pool.free(&backend, item).unwrap();
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(
            pool.max_residual(),
            8,
            "the whole excursion is still unreported"
        );
        // A boundary event reports the residual and resets the high-water.
        pool.drain(&backend);
        assert_eq!(pool.max_residual(), 0);
    }

    #[test]
    fn full_magazine_flushes_its_oldest_half() {
        let pool: MagazinePool<u32> = MagazinePool::new();
        let backend = KitBackend::default();
        // Fill the magazine to capacity with frees of fresh items.
        let items: Vec<u32> = (0..MAG_CAP + 1)
            .map(|_| pool.alloc(&backend).unwrap())
            .collect();
        let flushes_before = backend.flushes.load(Ordering::Relaxed);
        for item in items {
            pool.free(&backend, item).unwrap();
        }
        // MAG_CAP + 1 frees into an (at most) MAG_CAP magazine force at
        // least one half-capacity flush.
        assert!(backend.flushes.load(Ordering::Relaxed) > flushes_before);
        assert_eq!(pool.live(), 0);
        let created = backend.created();
        assert_eq!(
            pool.cached() + backend.free_len(),
            created,
            "flush moved items, never duplicated or dropped them"
        );
    }
}
