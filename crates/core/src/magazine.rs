//! The generic epoch-claimed per-worker magazine — the one implementation of
//! the claim/adopt/refill/flush protocol shared by every per-worker cache in
//! this crate.
//!
//! Three subsystems recycle fixed-size resources on their hot paths:
//!
//! * the slot arena ([`crate::arena`]) recycles slot *indices*,
//! * the job block pool ([`crate::job`]) recycles 256-byte *blocks* for task
//!   records, and
//! * the pooled promise cells ([`crate::pool_arc`]) recycle the same blocks
//!   for refcounted promise allocations.
//!
//! All three want the same shape: a small per-worker cache (a *magazine*) of
//! free items that the owning worker pops and pushes with plain array
//! operations on a private cache line — no atomic RMW, no shared-line
//! traffic — backed by a shared *backstop* (a Treiber list, a mutex-guarded
//! vector) that magazines refill from and flush to in batches.  The protocol
//! used to exist twice (arena slot magazines, job block magazines); this
//! module is the single implementation both are rebased on, so the subtle
//! lock-free part is stated — and verified — once.
//!
//! # The protocol
//!
//! A [`MagazinePool<T>`] owns [`MAG_SHARDS`] cache-padded magazines, each a
//! `[T; MAG_CAP]` plus a claim word.  What the pool implements:
//!
//! * **Exclusive claim.**  A thread registered through
//!   [`counters::register_worker`](crate::counters::register_worker) owns a
//!   `(slot id, epoch)` token; it claims the magazine picked by
//!   `slot % MAG_SHARDS` by CAS-ing its packed token into the claim word.
//!   From then on the magazine's `len`/`items` are accessed only by that
//!   registration, which makes the `UnsafeCell` accesses data-race free:
//!   worker tokens are unique per registration and the per-slot epochs of
//!   [`crate::counters`] retire them on release, so the claiming thread is
//!   unique.
//! * **Adoption of dead claims.**  A claim whose token no longer matches its
//!   slot's current epoch belongs to an exited worker.  The next thread that
//!   maps onto the magazine adopts it with a claim-steal CAS, so cached
//!   items are never stranded behind a dead thread.  Ordering: the
//!   would-be adopter's [`WorkerToken::is_current`] performs an *Acquire*
//!   load of the slot epoch, pairing with the *Release* epoch bump in the
//!   dead registration's drop — so the adopter observes every write the
//!   dead owner made to the magazine before it died.  The claim CAS itself
//!   is AcqRel: Acquire to pair with the previous owner's releasing store
//!   of the claim word (the [`flush_current_worker`] path), Release so a
//!   later adopter of *this* claim synchronises the same way.
//! * **Live collisions fall back.**  If the claim is held by a *live* other
//!   registration (more live workers than shards, or two slot ids mapping
//!   onto one magazine), the loser gets `None`/`Err` and takes the caller's
//!   shared path.  Sharding is a performance hint, never a correctness
//!   requirement.
//! * **Batched refill / half-capacity flush.**  An empty magazine refills
//!   with one [`MagazineBackend::refill`] call for up to [`MAG_REFILL`]
//!   items (the arena pops a batch off its global Treiber list, or claims a
//!   fresh index range with one `fetch_add`; the block pool drains the
//!   shared free vector and tops up from the allocator).  A full magazine
//!   flushes its *oldest* half back with one [`MagazineBackend::flush`]
//!   call (the arena pre-links the batch into a chain and publishes it with
//!   a single CAS).  Refill and flush are half-capacity so a worker
//!   alternating alloc and free near a boundary does not thrash.
//! * **Worker-exit drain.**  [`flush_current_worker`] flushes everything and
//!   releases the claim with a *Release* store of 0, publishing the empty
//!   state (and the final `live` delta) to the next claimant.  Runtimes call
//!   this via `Context::flush_worker_caches` from both schedulers'
//!   worker-exit hooks so a retiring worker's cached items become reusable
//!   immediately instead of waiting for adoption.
//!
//! # Why no item is ever lost or handed out twice
//!
//! *No double handout*: an item is in exactly one of four places — inside a
//! magazine (`items[..len]`), on the backend's backstop, inside the
//! backend's not-yet-created fresh region, or checked out to a caller.
//! Magazine pops and pushes are exclusive (claim protocol above); backstop
//! pops/pushes are the backend's own linearizable operations; a refill moves
//! items backstop→magazine and a flush magazine→backstop while holding the
//! claim, so no step duplicates an item.  *No loss*: every transition is a
//! move, and the exit/adoption paths guarantee a magazine's contents survive
//! its owner — either the owner flushed (exit hook), or its epoch bump
//! published the magazine for adoption.  The deterministic interleaving kit
//! in [`crate::test_support::interleave`] checks exactly these two
//! invariants after every step of exhaustively enumerated bounded schedules
//! (claim vs. adopt, flush vs. refill, death with and without flush).
//!
//! # Accounting
//!
//! Each magazine keeps a per-shard `live` delta — `+1` per pool alloc, `-1`
//! per pool free — written only by the claim holder with plain
//! load/store (no RMW) and summed by [`MagazinePool::live`].  Callers keep
//! their own overflow counter for their shared path.  Note the delta stays
//! with the *magazine*, not the worker: after a release or adoption the
//! accumulated delta remains valid because it counts items, not owners.
//!
//! Each magazine also keeps a per-shard high-water mark `hwm`: the largest
//! `live` value the shard has reached since its last *boundary event*
//! (refill, flush, or exit drain).  Owners update it with the same plain
//! load/branch/store discipline as `live`, so the hot path still performs no
//! RMW.  At every boundary the pool reports the shard's *residual* —
//! `(hwm - live).max(0)`, the part of a past excursion that plain
//! `live()` sampling can no longer see — to
//! [`MagazineBackend::note_residual`] and resets `hwm := live`.  Between
//! boundaries, [`MagazinePool::max_residual`] exposes the largest
//! outstanding residual so peak-gauge readers (the arena's
//! `peak_live`) can fold it in on the read path.  See
//! [`crate::arena`]'s "peak accounting" docs for the exactness guarantees
//! this buys.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use crate::counters::{self, WorkerToken};

/// Number of per-worker magazines in a pool (power of two; worker slot ids
/// wrap onto it).
pub const MAG_SHARDS: usize = 16;

/// Capacity of one magazine, in cached items.
pub const MAG_CAP: usize = 64;

/// Batch size for refills and flushes.  Half the capacity, so a worker
/// alternating allocs and frees near a boundary does not thrash
/// refill/flush.
pub const MAG_REFILL: usize = MAG_CAP / 2;

/// The shared backstop a [`MagazinePool`] refills from and flushes to.
///
/// Implementations provide the storage-specific halves of the protocol (the
/// arena's Treiber list + fresh-index range, the block pool's mutex-guarded
/// vector + allocator top-up); the pool provides the claim/adopt/exclusivity
/// machinery.  Both methods are called while the calling thread holds a
/// magazine claim, but the backend must still be safe to call concurrently
/// from many threads (different magazines refill and flush in parallel, and
/// callers' shared paths use the same storage).
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

    /// Called at every magazine boundary event (refill, flush, exit drain)
    /// with the shard's unsampled peak excursion: how far above its current
    /// `live` delta the shard's high-water mark climbed since the previous
    /// boundary.  Backends that derive a peak gauge from `live` sampling
    /// (the slot arena) fold the residual into the gauge here; the default
    /// is a no-op.  Called while the claim is held, before the
    /// refill/flush itself.
    fn note_residual(&self, _residual: usize) {}
}

/// One epoch-claimed magazine (see the [module docs](self)).
///
/// `owner` holds the packed [`WorkerToken`] of the claiming registration
/// (0 = unclaimed).  `items[..len]` are only ever accessed by the thread
/// whose *current* token matches `owner` (`len` is an atomic solely so
/// stats readers can load it without a data race — the owner uses plain
/// relaxed loads/stores).  `live` is the shard's contribution to the
/// pool-wide outstanding count: written (no RMW) only by the owner, read by
/// anyone summing.  `hwm` is the largest `live` since the shard's last
/// boundary event (same single-writer plain-store discipline as `live`).
struct Magazine<T> {
    owner: AtomicU64,
    len: AtomicUsize,
    live: AtomicI64,
    hwm: AtomicI64,
    items: UnsafeCell<MaybeUninit<[T; MAG_CAP]>>,
}

// SAFETY: `items` is only accessed by the magazine's unique claimant (see
// the claim protocol in the module docs); everything else is atomic.  Items
// move between threads via the magazine, so `T: Send` is required.
unsafe impl<T: Copy + Send> Sync for Magazine<T> {}

impl<T: Copy + Send> Magazine<T> {
    const fn new() -> Self {
        Magazine {
            owner: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            live: AtomicI64::new(0),
            hwm: AtomicI64::new(0),
            items: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Reports the shard's unsampled peak excursion to the backend and
    /// resets the high-water mark.  Called by the claim holder at every
    /// boundary event, before the refill/flush itself.
    #[inline]
    fn note_boundary<B: MagazineBackend<Item = T>>(&self, backend: &B) {
        let live = self.live.load(Ordering::Relaxed);
        let residual = (self.hwm.load(Ordering::Relaxed) - live).max(0) as usize;
        backend.note_residual(residual);
        self.hwm.store(live, Ordering::Relaxed);
    }

    /// Base pointer of the item array.
    ///
    /// # Safety
    /// Dereferencing requires the calling thread to hold the claim.
    #[inline]
    fn items_ptr(&self) -> *mut T {
        self.items.get().cast::<T>()
    }
}

/// Padding wrapper so neighbouring magazines never share a cache line.
#[repr(align(128))]
struct Padded<T>(Magazine<T>);

/// A sharded set of epoch-claimed per-worker magazines.  See the
/// [module docs](self) for the protocol and its correctness argument.
pub struct MagazinePool<T> {
    shards: [Padded<T>; MAG_SHARDS],
}

impl<T: Copy + Send> Default for MagazinePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Send> MagazinePool<T> {
    /// Creates a pool with all magazines empty and unclaimed.
    ///
    /// `const` so users can place pools in `static`s (the job block pool).
    pub const fn new() -> Self {
        MagazinePool {
            shards: [const { Padded(Magazine::new()) }; MAG_SHARDS],
        }
    }

    /// The magazine this thread's worker registration owns (claiming or
    /// adopting it if necessary), or `None` when the thread is unregistered
    /// or its magazine is held by another live worker.
    #[inline]
    fn claimed(&self) -> Option<&Magazine<T>> {
        let token = counters::current_worker_token()?;
        let magazine = &self.shards[token.slot as usize % MAG_SHARDS].0;
        let mine = token.pack_nonzero();
        let current = magazine.owner.load(Ordering::Acquire);
        if current == mine {
            return Some(magazine);
        }
        self.try_claim(magazine, current, mine)
    }

    #[cold]
    fn try_claim<'a>(
        &'a self,
        magazine: &'a Magazine<T>,
        mut current: u64,
        mine: u64,
    ) -> Option<&'a Magazine<T>> {
        loop {
            if current == mine {
                return Some(magazine);
            }
            if current != 0 {
                let holder = WorkerToken::unpack_nonzero(current);
                if holder.is_current() {
                    // Live collision (two live registrations map onto the
                    // same magazine): the loser takes the caller's shared
                    // path.  Sharding is a performance hint, never a
                    // correctness requirement.
                    return None;
                }
                // Dead claim: `is_current` read the holder's release epoch
                // bump with Acquire, so adopting its magazine contents below
                // is ordered after every write the dead owner made.
            }
            match magazine.owner.compare_exchange(
                current,
                mine,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(magazine),
                Err(actual) => current = actual,
            }
        }
    }

    /// Pops an item from the calling worker's magazine, refilling from
    /// `backend` when empty.  Returns `None` when the thread is unregistered
    /// or its magazine is claimed by another live worker — the caller then
    /// takes its shared path.
    #[inline]
    pub fn alloc<B: MagazineBackend<Item = T>>(&self, backend: &B) -> Option<T> {
        let magazine = self.claimed()?;
        // SAFETY: `claimed` only returns a magazine whose claim word holds
        // the calling thread's current registration token, and tokens are
        // unique per registration, so this thread has exclusive access to
        // `len`/`items` until it releases or its registration ends.
        let item = unsafe {
            let items = magazine.items_ptr();
            let mut len = magazine.len.load(Ordering::Relaxed);
            if len == 0 {
                magazine.note_boundary(backend);
                let buf = std::slice::from_raw_parts_mut(items.cast(), MAG_REFILL);
                len = backend.refill(buf);
                debug_assert!((1..=MAG_REFILL).contains(&len), "backend refill contract");
            }
            len -= 1;
            let item = items.add(len).read();
            magazine.len.store(len, Ordering::Relaxed);
            item
        };
        let live = magazine.live.load(Ordering::Relaxed) + 1;
        magazine.live.store(live, Ordering::Relaxed);
        if live > magazine.hwm.load(Ordering::Relaxed) {
            magazine.hwm.store(live, Ordering::Relaxed);
        }
        Some(item)
    }

    /// Pushes an item into the calling worker's magazine, flushing the
    /// oldest [`MAG_REFILL`] items to `backend` when full.  Hands the item
    /// back as `Err` when the thread is unregistered or its magazine is
    /// claimed by another live worker — the caller then takes its shared
    /// path.
    #[inline]
    pub fn free<B: MagazineBackend<Item = T>>(&self, backend: &B, item: T) -> Result<(), T> {
        let Some(magazine) = self.claimed() else {
            return Err(item);
        };
        // SAFETY: exclusive magazine access, as in `alloc`.
        unsafe {
            let items = magazine.items_ptr();
            let mut len = magazine.len.load(Ordering::Relaxed);
            if len == MAG_CAP {
                magazine.note_boundary(backend);
                let oldest = std::slice::from_raw_parts(items.cast_const(), MAG_REFILL);
                backend.flush(oldest);
                std::ptr::copy(items.add(MAG_REFILL), items, MAG_CAP - MAG_REFILL);
                len -= MAG_REFILL;
            }
            items.add(len).write(item);
            magazine.len.store(len + 1, Ordering::Relaxed);
        }
        magazine
            .live
            .store(magazine.live.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes the calling worker's magazine to `backend` and releases its
    /// claim, so the cached items become immediately reusable by everyone
    /// instead of waiting to be adopted by the next thread that maps onto
    /// the same magazine.  No-op when the calling thread holds no claim.
    ///
    /// Runtimes reach this through `Context::flush_worker_caches`, wired
    /// into both schedulers' worker-exit hooks.
    pub fn flush_current_worker<B: MagazineBackend<Item = T>>(&self, backend: &B) {
        let Some(token) = counters::current_worker_token() else {
            return;
        };
        let magazine = &self.shards[token.slot as usize % MAG_SHARDS].0;
        if magazine.owner.load(Ordering::Acquire) != token.pack_nonzero() {
            return;
        }
        // SAFETY: the claim word holds this thread's current token, so the
        // accesses below are exclusive (as in `alloc`).
        magazine.note_boundary(backend);
        unsafe {
            let len = magazine.len.load(Ordering::Relaxed);
            if len > 0 {
                let items = std::slice::from_raw_parts(magazine.items_ptr().cast_const(), len);
                backend.flush(items);
                magazine.len.store(0, Ordering::Relaxed);
            }
        }
        // Release publishes the flushed (empty) magazine state — and this
        // claimant's accumulated `live` delta — to the next claimant.
        magazine.owner.store(0, Ordering::Release);
    }

    /// Sum of the per-shard outstanding deltas (allocs minus frees routed
    /// through magazines).  Advisory while mutating threads run; exact once
    /// they are quiescent or joined.
    pub fn live(&self) -> i64 {
        self.shards
            .iter()
            .map(|s| s.0.live.load(Ordering::Relaxed))
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
        self.shards
            .iter()
            .map(|s| {
                let m = &s.0;
                (m.hwm.load(Ordering::Relaxed) - m.live.load(Ordering::Relaxed)).max(0) as usize
            })
            .max()
            .unwrap_or(0)
    }

    /// Total number of items currently cached across all magazines.
    pub fn cached(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.0.len.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::interleave::KitBackend;
    use crate::test_support::pool::worker_serial;
    use std::sync::Arc;

    #[test]
    fn unregistered_threads_get_no_magazine() {
        let pool: MagazinePool<u32> = MagazinePool::new();
        let backend = KitBackend::default();
        assert_eq!(pool.alloc(&backend), None);
        assert_eq!(pool.free(&backend, 7), Err(7));
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.cached(), 0);
        // flush with no claim is a no-op.
        pool.flush_current_worker(&backend);
    }

    #[test]
    fn registered_worker_allocates_and_recycles_through_its_magazine() {
        let _workers = worker_serial();
        let pool: MagazinePool<u32> = MagazinePool::new();
        let backend = KitBackend::default();
        let _worker = counters::register_worker();
        let items: Vec<u32> = (0..(MAG_CAP * 2))
            .map(|_| {
                pool.alloc(&backend)
                    .expect("registered worker has a magazine")
            })
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
    fn flush_current_worker_returns_everything_to_the_backend() {
        let _workers = worker_serial();
        let pool: Arc<MagazinePool<u32>> = Arc::new(MagazinePool::new());
        let backend = Arc::new(KitBackend::default());
        let (p2, b2) = (Arc::clone(&pool), Arc::clone(&backend));
        std::thread::spawn(move || {
            let _worker = counters::register_worker();
            let items: Vec<u32> = (0..8).map(|_| p2.alloc(&*b2).unwrap()).collect();
            for item in items {
                p2.free(&*b2, item).unwrap();
            }
            p2.flush_current_worker(&*b2);
        })
        .join()
        .unwrap();
        assert_eq!(pool.cached(), 0, "the exit flush drained the magazine");
        assert_eq!(pool.live(), 0);
        let created = backend.created();
        assert_eq!(backend.free_len(), created, "no item was lost");
    }

    #[test]
    fn dead_workers_magazine_is_adopted_with_its_contents() {
        let _workers = worker_serial();
        let pool: Arc<MagazinePool<u32>> = Arc::new(MagazinePool::new());
        let backend = Arc::new(KitBackend::default());
        let (p2, b2) = (Arc::clone(&pool), Arc::clone(&backend));
        // The worker dies without flushing: its registration guard drops
        // (epoch bump) but `flush_current_worker` is never called.
        let slot_id = std::thread::spawn(move || {
            let worker = counters::register_worker();
            let item = p2.alloc(&*b2).unwrap();
            p2.free(&*b2, item).unwrap();
            let token = counters::current_worker_token().unwrap();
            drop(worker);
            token.slot
        })
        .join()
        .unwrap();
        assert!(pool.cached() > 0, "the dead claim strands its cache");
        // A new worker registers; slot ids are LIFO-recycled, so it maps to
        // the same magazine and adopts the dead claim.
        let (p2, b2) = (Arc::clone(&pool), Arc::clone(&backend));
        std::thread::spawn(move || {
            let _worker = counters::register_worker();
            let token = counters::current_worker_token().unwrap();
            assert_eq!(token.slot, slot_id, "slot ids are recycled LIFO");
            let refills_before = b2.refills.load(Ordering::Relaxed);
            let _item = p2.alloc(&*b2).expect("adopter owns the magazine");
            assert_eq!(
                b2.refills.load(Ordering::Relaxed),
                refills_before,
                "the alloc was served from the adopted cache, not a refill"
            );
            p2.free(&*b2, _item).unwrap();
            p2.flush_current_worker(&*b2);
        })
        .join()
        .unwrap();
        assert_eq!(pool.cached(), 0);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn residual_tracks_unsampled_peak_excursions() {
        let _workers = worker_serial();
        let pool: MagazinePool<u32> = MagazinePool::new();
        let backend = KitBackend::default();
        let _worker = counters::register_worker();
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
        pool.flush_current_worker(&backend);
        assert_eq!(pool.max_residual(), 0);
    }

    #[test]
    fn full_magazine_flushes_its_oldest_half() {
        let _workers = worker_serial();
        let pool: MagazinePool<u32> = MagazinePool::new();
        let backend = KitBackend::default();
        let _worker = counters::register_worker();
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
        pool.flush_current_worker(&backend);
    }
}
