//! A lock-free, generation-tagged slot arena with sharded free-index
//! magazines.
//!
//! The ownership policy and the deadlock detector need two pieces of shared
//! state per object:
//!
//! * for every promise, the `owner` field (Algorithm 1), and
//! * for every task, the `waitingOn` field (Algorithm 2).
//!
//! The detector traverses chains of these fields *concurrently with* promise
//! fulfilment, ownership transfer, task termination and task creation, and it
//! must do so without locks (the paper's detection algorithm is lock-free)
//! and without ever touching freed memory.  At the same time the cells must
//! be reclaimable, otherwise long-running programs that create hundreds of
//! thousands of short-lived tasks (QSort in the evaluation spawns ~786 k)
//! would leak unbounded memory and the verification memory overhead reported
//! in Table 1 could not stay near 1×.
//!
//! [`SlotArena`] solves both problems:
//!
//! * Slots live in chunks that are allocated on demand; raw chunk pointers
//!   are only dereferenced while the chunk is guaranteed resident — by
//!   holding one of its slot indices, or by an **epoch pin**
//!   ([`crate::epoch`]) that delays the freeing of any chunk the thread
//!   could have observed.  Fully-free chunks are *reclaimed*
//!   ([`SlotArena::reclaim`]): unmapped from the chunk table, parked in
//!   limbo for two grace periods, then returned to the allocator — so a
//!   long-lived process whose live set shrinks actually shrinks.
//! * Each slot carries a *generation* counter.  A slot is live while its
//!   generation is even and non-zero; allocation and deallocation each bump
//!   the generation, so a [`PackedRef`] captured when the slot was allocated
//!   can be validated later: if the generation changed, the object died and
//!   the reference is treated like null.  Reclaimed chunks remember an even
//!   *generation floor* strictly above everything the old mapping handed
//!   out, so occupancies of a remapped chunk can never validate a stale
//!   reference either.
//!
//! # Allocation: the magazine protocol
//!
//! Every task spawn and promise creation allocates a slot and every
//! termination frees one, so on spawn-heavy workloads (QSort allocates
//! ~786 k task/promise pairs) the free list itself becomes the hottest
//! shared state.  A single global Treiber stack plus global `live` /
//! `peak_live` counters would put two contended cache lines — and an epoch
//! pin — on every allocation.  Allocation is therefore **sharded** through
//! the generic [`MagazinePool`] of [`crate::magazine`] — the single
//! implementation of the per-operation shard lock and the refill/flush
//! batching, shared with the job block pool; see that module for the
//! protocol and its correctness argument.  Any thread is served, registered
//! or not.  The arena contributes only its storage-specific backend:
//!
//! * an empty magazine refills with a batch popped off the global **Treiber
//!   free list**, or — when the list is dry — a batch of fresh indices
//!   claimed with one `fetch_add`;
//! * a full magazine flushes its oldest [`MAG_REFILL`] indices back as one
//!   **pre-linked chain** published with a single CAS
//!   ([`SlotArena::push_free_chain`]);
//! * an operation that finds its home shard and the neighbour both locked
//!   falls back to the shared global path
//!   (`SlotArena::new_global_only` forces it for all threads, which is how
//!   the unit and interleaving tests reach it deterministically);
//!   [`ArenaMemoryStats::shared_path_ops`] counts how often that happens;
//! * [`SlotArena::release_worker_shard`] drains every magazine onto the
//!   global list (a cold path, for callers about to [`reclaim`]).
//!
//! `live` / `peak_live` accounting is sharded the same way: each magazine
//! keeps a live delta written under its lock (no RMW), an overflow cell
//! covers the global path, and [`SlotArena::live`] sums the shards.
//!
//! Measured with `cargo bench -p promise-bench --bench data_plane -- arena/`
//! on the 2-CPU container: one alloc + free pair costs ≈ 23 ns through a
//! magazine — two uncontended lock-CAS / unlock-store pairs — against
//! ≈ 65 ns on the global path, from a lone thread (`arena/alloc-free`) and
//! equally with 64 other registered threads alive
//! (`arena/alloc-free-many-live-threads`), which is the situation a §6.3
//! pool is in.
//!
//! [`reclaim`]: SlotArena::reclaim
//!
//! ## Peak accounting on the magazine path: residual folding
//!
//! `peak_live` is maintained by **sampling plus residual folding**.  The
//! samples are the same as ever: every global-path allocation (exact, as
//! before, for arenas driven only through the global path), every magazine
//! refill/flush boundary, and every [`SlotArena::peak_live`] read.  Plain
//! sampling alone under-reported by up to [`MAG_REFILL`] per magazine,
//! because an excursion that rose and fell *between* two boundary events
//! was never observed.  Each magazine therefore also tracks a per-shard
//! high-water mark with the same plain-store-under-the-lock discipline as
//! its live delta, and its *residual* —
//! how far the shard's past peak sits above its current delta — is folded
//! in at two points: boundary events fold it into the stored maximum
//! (`peak ← max(peak, live + residual)` via
//! [`MagazineBackend::note_residual`](crate::magazine::MagazineBackend::note_residual),
//! which also resets the shard's high-water mark), and `peak_live` reads
//! fold the largest *outstanding* residual
//! ([`MagazinePool::max_residual`](crate::magazine::MagazinePool::max_residual)).
//!
//! The resulting guarantees:
//!
//! * **Exact when observable.**  For a quiescent arena — no allocation or
//!   free racing the read, e.g. a metrics snapshot after a phase, or the
//!   single-mutator regression test — the reported peak equals the true
//!   simultaneous-live peak.  Pinned by
//!   `peak_live_underreport_is_bounded_by_one_refill_batch`.
//! * **Never below a sample.**  The gauge is monotone and at least every
//!   folded sample; the old silent under-report of a fully-unsampled
//!   excursion is gone.
//! * **Bounded over-report under races.**  Concurrent churn can combine a
//!   residual from one moment with live deltas from another; folding the
//!   *max* (not the sum) of per-shard residuals keeps any over-report
//!   within one magazine's excursion (≤ [`MAG_CAP`]) per fold.  An exact
//!   concurrent peak of a sharded sum would require a global RMW on every
//!   alloc — precisely what the magazines exist to avoid.  The bound is per
//!   magazine, so it does not depend on how many threads pass through one.
//!
//! # Reclamation: epochs for memory, generations for identity
//!
//! The two concerns concurrent reads must survive are separated cleanly:
//!
//! * **Memory safety** (may this pointer be dereferenced at all?) is the
//!   epoch machinery's job.  Every raw-pointer read happens either while
//!   holding a slot index — [`SlotArena::reclaim`] retires a chunk only
//!   when it holds *all* `CHUNK_SIZE` of the chunk's indices, detached from
//!   the free list in one CAS, so a held index structurally pins its chunk
//!   — or under an [`epoch::pin`].  A retired chunk is unlinked from the
//!   chunk table with a `SeqCst` store and *then* stamped with the global
//!   epoch `g`; it is freed only once the global epoch reaches `g + 2`.
//!   The reader-side argument (in the `SeqCst` total order): a thread
//!   pinned at epoch `e` with `e ≤ g` blocks every advance beyond `e + 1 ≤
//!   g + 1`, so the deadline never arrives while it is pinned; and a thread
//!   pinned at `e ≥ g + 1` pinned *after* the epoch moved past `g`, which
//!   ordered its pin fence after the unlink store — its chunk-table loads
//!   can no longer observe the unlinked pointer at all.  Either way no
//!   pinned thread dereferences freed chunk memory.
//! * **Object identity** (is this value the object my reference named?) is
//!   the generation check's job, exactly as before reclamation existed.
//!   Stale references into a retired chunk read as `None` (table entry is
//!   null); stale references into a *remapped* chunk fail the generation
//!   check against the new mapping's floor.
//!
//! An index cached in a magazine is a held index like any other: it keeps
//! its chunk out of reach of retirement, and [`SlotArena::reclaim`] does
//! not drain magazines.  The magazines belong to the arena, not to threads,
//! so at most `MAG_SHARDS × MAG_CAP` = 1 024 indices per arena are ever
//! cached, whatever the thread count.
//!
//! # Reads: which protocols may see cross-occupancy values
//!
//! The slot payload type must consist of atomics (or otherwise interiorly
//! mutable, `Sync` state) so that resetting a recycled slot cannot race with
//! a stale reader: stale readers may observe torn *logical* state, but
//! generation validation makes them discard it.  Three read protocols exist:
//!
//! * [`SlotArena::read`] (and [`SlotHandle::read_validated`]) validate the
//!   generation **before and after** the closure runs — the seqlock-style
//!   protocol.  A value observed from a slot recycled mid-read is never
//!   attributed to the original object.  `read` pins internally;
//!   `SlotArena::read_live` is the same protocol without the pin, for the
//!   policy bookkeeping's hot reads of slots the caller holds live (own
//!   task slot, promise slots reached through an owning handle) — there the
//!   liveness itself keeps the chunk resident via the hold-all-indices
//!   retire condition, and the per-read `SeqCst` fence would be pure
//!   overhead.
//! * [`SlotHandle::read_field`] validates **once, before** the load.  The
//!   value returned may therefore belong to a *newer* occupancy of the slot
//!   (if the slot is freed and re-allocated between the generation check
//!   and the field load).  This is the detector's fast path; see
//!   [`crate::detector`] for the argument why Algorithm 2 tolerates such a
//!   cross-occupancy read on its `owner` (lines 6/13) and `waitingOn`
//!   (line 9) loads.
//! * [`SlotHandle::read_gen_fenced`] validates **once, after** the load —
//!   the generation fence.  Given an earlier matching observation on the
//!   same handle, monotonic generations make the bracket equivalent to the
//!   full seqlock double check at half the validation cost: this is the
//!   detector's line-11 `owner` re-read, the one load that must *not*
//!   return a cross-occupancy value for Theorem 5.1 (no false alarms) to
//!   hold.
//!
//! [`SlotArena::resolve`] turns a [`PackedRef`] into a [`SlotHandle`]
//! carrying the slot's raw address, so repeated reads of the same slot (the
//! detector's line-11 re-read of an already-resolved promise) skip the
//! chunk-table indirection and bounds check entirely.  Handle-producing
//! APIs take (and bound their lifetimes by) a [`PinGuard`], making "handle
//! outlives pin" a compile error; [`CachedResolver`] additionally
//! revalidates its cached chunk pointer against the chunk's *remap stamp*,
//! so a chunk reclaimed and remapped between two cached steps is refetched
//! rather than read through the stale mapping.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::epoch::{self, PinGuard};
use crate::magazine::{MagazineBackend, MagazinePool};
use crate::refs::PackedRef;

pub use crate::magazine::{MAG_CAP, MAG_REFILL, MAG_SHARDS as ARENA_SHARDS};

/// Number of slots per chunk.  A power of two so index arithmetic is cheap.
pub const CHUNK_SIZE: usize = 1024;

/// Maximum number of chunks an arena can grow to (16 M slots).
pub const MAX_CHUNKS: usize = 16 * 1024;

/// Values stored in arena slots.
///
/// Implementations must be fully interiorly mutable (atomics, mutexes): the
/// arena resets recycled slots through a shared reference.
pub trait SlotValue: Send + Sync + 'static {
    /// A fresh, empty value (used when a chunk is first allocated).
    fn new_empty() -> Self;
    /// Resets the value in place before the slot is handed out again.
    fn reset(&self);
}

struct Slot<T> {
    /// Even and non-zero while the slot is live; odd while free or in
    /// transition.  Generation 0 means "never allocated".
    generation: AtomicU32,
    /// Free-list link: 1-based index of the next free slot, 0 = end of list.
    next_free: AtomicU32,
    value: T,
}

struct Chunk<T> {
    slots: Box<[Slot<T>]>,
}

impl<T: SlotValue> Chunk<T> {
    fn new() -> Self {
        Self::with_generation(0)
    }

    /// A chunk whose slots all start at generation `floor` (0 for brand-new
    /// chunks; the recorded even generation floor when a reclaimed chunk is
    /// mapped back in, so stale references into the previous mapping can
    /// never match a new occupancy).
    fn with_generation(floor: u32) -> Self {
        let slots = (0..CHUNK_SIZE)
            .map(|_| Slot {
                generation: AtomicU32::new(floor),
                next_free: AtomicU32::new(0),
                value: T::new_empty(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Chunk { slots }
    }
}

/// Per-chunk reclamation metadata, in a side table parallel to the chunk
/// table (so readers touch it only on chunk-cache misses, never per slot).
struct ChunkMeta {
    /// Even lower bound for the generations of the chunk's *next* mapping:
    /// strictly above every generation the previous mapping ever handed out.
    gen_floor: AtomicU32,
    /// Bumped on every retire and every resurrect of this chunk index; a
    /// [`CachedResolver`] revalidates its cached chunk pointer against it.
    remap_stamp: AtomicU32,
}

/// A chunk unlinked from the chunk table, awaiting its grace periods.
struct LimboChunk<T> {
    ptr: *mut Chunk<T>,
    /// Global epoch observed *after* the chunk-table entry was nulled; the
    /// chunk may be freed once the global epoch reaches `retired_at + 2`.
    retired_at: u64,
}

/// State behind the grow/reclaim lock: limbo chunks waiting out their grace
/// periods, and retired chunk indices available for remapping.
struct ReclaimState<T> {
    limbo: Vec<LimboChunk<T>>,
    /// Chunk indices whose table entries are currently null (retired).
    /// Their slot indices are out of circulation until the chunk is
    /// resurrected, which re-mints all `CHUNK_SIZE` of them at once.
    retired: Vec<u32>,
}

/// A growable, lock-free arena of generation-tagged slots with epoch-based
/// chunk reclamation (see [`SlotArena::reclaim`]).
pub struct SlotArena<T> {
    chunks: Box<[AtomicPtr<Chunk<T>>]>,
    /// Per-chunk generation floors and remap stamps (see [`ChunkMeta`]).
    meta: Box<[ChunkMeta]>,
    /// Number of chunks currently mapped (excludes limbo chunks, which are
    /// unlinked but still resident; see [`SlotArena::resident_bytes`]).
    mapped_chunks: AtomicUsize,
    /// Number of chunks currently in limbo (unlinked, not yet freed).
    limbo_chunks: AtomicUsize,
    /// High-water mark of `mapped_chunks + limbo_chunks`.
    peak_resident_chunks: AtomicUsize,
    /// Total bytes of chunk storage returned to the allocator so far.
    bytes_freed: AtomicU64,
    /// Total chunks returned to the allocator so far.
    chunks_reclaimed: AtomicU64,
    /// Next never-used slot index.
    next_fresh: AtomicU32,
    /// Treiber-stack head: high 32 bits = 1-based slot index (0 = empty),
    /// low 32 bits = ABA tag.
    free_head: AtomicU64,
    /// Guards mapping, retiring and resurrecting of chunks (cold paths
    /// only), and owns the limbo / retired-index lists.
    grow_lock: Mutex<ReclaimState<T>>,
    /// Free-index magazines, driven by the generic per-operation-locked
    /// protocol of [`crate::magazine`] (unused when `use_magazines` is off).
    magazines: MagazinePool<u32>,
    /// Whether allocation goes through the magazines (off for
    /// [`SlotArena::new_global_only`], which forces the shared fallback).
    use_magazines: bool,
    /// Live-count contribution of the global (non-magazine) path.
    live_overflow: CachePadded<AtomicI64>,
    /// Sampled high-water mark of live slots (see the module docs).
    peak_live: AtomicUsize,
}

/// The arena's storage half of the magazine protocol: refills come from the
/// global Treiber list (or a fresh-index range claim), flushes go back as
/// one pre-linked chain.  See the module docs of [`crate::magazine`] for the
/// lock/refill/flush machinery this plugs into.
struct ArenaBackend<'a, T>(&'a SlotArena<T>);

impl<T: SlotValue> MagazineBackend for ArenaBackend<'_, T> {
    type Item = u32;

    fn refill(&self, buf: &mut [MaybeUninit<u32>]) -> usize {
        let arena = self.0;
        let mut n = 0;
        // One pin covers the whole batch of pops (the fence is paid once
        // per refill, not per index).
        {
            let pin = epoch::pin();
            while n < buf.len() {
                match arena.pop_free(&pin) {
                    Some(idx) => {
                        buf[n].write(idx);
                        n += 1;
                    }
                    None => break,
                }
            }
        }
        if n == 0 && arena.try_resurrect() {
            // A reclaimed chunk was mapped back in and its indices pushed;
            // retry the free list before growing the fresh frontier.
            let pin = epoch::pin();
            while n < buf.len() {
                match arena.pop_free(&pin) {
                    Some(idx) => {
                        buf[n].write(idx);
                        n += 1;
                    }
                    None => break,
                }
            }
        }
        if n == 0 {
            // Claim a fresh index range with one fetch_add; store it in
            // reverse so pops hand out ascending indices.
            let count = buf.len();
            let base = arena.next_fresh.fetch_add(count as u32, Ordering::Relaxed);
            let first_chunk = base as usize / CHUNK_SIZE;
            let last_chunk = (base as usize + count - 1) / CHUNK_SIZE;
            for chunk_idx in first_chunk..=last_chunk {
                arena.ensure_chunk(chunk_idx);
            }
            for (k, slot) in buf.iter_mut().enumerate() {
                slot.write(base + (count - 1 - k) as u32);
            }
            n = count;
        }
        arena.note_peak();
        n
    }

    fn flush(&self, items: &[u32]) {
        let arena = self.0;
        // Pre-link the batch through `next_free`, then publish the whole
        // chain with a single CAS.
        for i in 0..items.len() - 1 {
            let next = items[i + 1];
            arena
                .slot(items[i])
                .expect("magazine entry must be mapped")
                .next_free
                .store(next + 1, Ordering::Relaxed);
        }
        arena.push_free_chain(items[0], items[items.len() - 1]);
        arena.note_peak();
    }

    fn note_residual(&self, residual: usize) {
        self.0.note_peak_with_residual(residual);
    }
}

impl<T: SlotValue> Default for SlotArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SlotValue> SlotArena<T> {
    fn with_magazines(use_magazines: bool) -> Self {
        let chunks = (0..MAX_CHUNKS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let meta = (0..MAX_CHUNKS)
            .map(|_| ChunkMeta {
                gen_floor: AtomicU32::new(0),
                remap_stamp: AtomicU32::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SlotArena {
            chunks,
            meta,
            mapped_chunks: AtomicUsize::new(0),
            limbo_chunks: AtomicUsize::new(0),
            peak_resident_chunks: AtomicUsize::new(0),
            bytes_freed: AtomicU64::new(0),
            chunks_reclaimed: AtomicU64::new(0),
            next_fresh: AtomicU32::new(0),
            free_head: AtomicU64::new(0),
            grow_lock: Mutex::new(ReclaimState {
                limbo: Vec::new(),
                retired: Vec::new(),
            }),
            magazines: MagazinePool::new(),
            use_magazines,
            live_overflow: CachePadded::new(AtomicI64::new(0)),
            peak_live: AtomicUsize::new(0),
        }
    }

    /// Creates an empty arena.  No chunk is mapped until the first
    /// allocation.
    pub fn new() -> Self {
        Self::with_magazines(true)
    }

    /// Creates an arena whose allocations always take the shared global
    /// free-list path — the fallback every thread takes when both of its
    /// shard try-locks fail.
    ///
    /// Not a second implementation: tests use it to reach that fallback
    /// deterministically, and the `arena/*` microbenchmarks to price it.
    #[doc(hidden)]
    pub fn new_global_only() -> Self {
        Self::with_magazines(false)
    }

    /// Number of currently live slots.
    ///
    /// Sums the per-shard live deltas; concurrent allocations make the
    /// result advisory (exact once the mutating threads are quiescent or
    /// joined).
    pub fn live(&self) -> usize {
        let total = self.live_overflow.load(Ordering::Relaxed) + self.magazines.live();
        total.max(0) as usize
    }

    /// Highest number of simultaneously live slots observed so far.
    ///
    /// Exact for arenas driven only through the global path
    /// (`new_global_only`) and for quiescent reads
    /// with magazines in play (the read folds in each
    /// magazine's unsampled peak excursion — see "peak accounting" in the
    /// module docs for the concurrent-read bounds).
    pub fn peak_live(&self) -> usize {
        let folded = self.live() + self.magazines.max_residual();
        self.peak_live
            .fetch_max(folded, Ordering::Relaxed)
            .max(folded)
    }

    /// Total number of slots ever handed out from the fresh region (i.e. the
    /// arena's footprint in slots, ignoring recycling).  Magazine refills
    /// claim fresh indices in batches of [`MAG_REFILL`], so up to one batch
    /// per magazine may be counted before being handed out.
    pub fn high_water_slots(&self) -> usize {
        self.next_fresh.load(Ordering::Relaxed) as usize
    }

    /// Resolves an index to its slot through the chunk table.  `None` for
    /// out-of-range indices and for indices whose chunk is not currently
    /// mapped (retired, or never allocated).
    ///
    /// The returned borrow is only safe to use while the chunk is guaranteed
    /// to stay resident.  Chunk residency is protected by (either of):
    ///
    /// * **holding the index** — a slot index held exclusively by the caller
    ///   (a live occupancy being published/retired, a magazine entry being
    ///   linked, a popped free-list index) pins its chunk logically:
    ///   [`SlotArena::reclaim`] only retires a chunk when *all*
    ///   `CHUNK_SIZE` of its indices are on the detached free list, so a
    ///   held index keeps its chunk out of reach of retirement entirely; or
    /// * **an epoch pin** ([`epoch::pin`]) — a retired chunk sits in limbo
    ///   for two grace periods before being freed, and the grace periods
    ///   cannot elapse while any thread that could have observed the chunk
    ///   pointer remains pinned (see [`crate::epoch`] and the module docs).
    #[inline]
    fn slot(&self, index: u32) -> Option<&Slot<T>> {
        let chunk_idx = index as usize / CHUNK_SIZE;
        if chunk_idx >= MAX_CHUNKS {
            return None;
        }
        let ptr = self.chunks[chunk_idx].load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        // Safety: non-null entries point at fully initialised chunks
        // (published with Release under `grow_lock`); residency across the
        // returned borrow is the caller's obligation per the doc comment
        // above (held index or epoch pin).
        let chunk = unsafe { &*ptr };
        Some(&chunk.slots[index as usize % CHUNK_SIZE])
    }

    fn ensure_chunk(&self, chunk_idx: usize) {
        assert!(
            chunk_idx < MAX_CHUNKS,
            "SlotArena exhausted: more than {} slots live at once",
            MAX_CHUNKS * CHUNK_SIZE
        );
        if !self.chunks[chunk_idx].load(Ordering::Acquire).is_null() {
            return;
        }
        let g = self.grow_lock.lock();
        if !self.chunks[chunk_idx].load(Ordering::Acquire).is_null() {
            return;
        }
        // Fresh indices only ever land in chunks at the `next_fresh`
        // frontier, which have never had all their indices freed and so can
        // never be on the retired list (whose chunks must be resurrected —
        // with their recorded generation floor — rather than remapped fresh).
        debug_assert!(
            !g.retired.contains(&(chunk_idx as u32)),
            "fresh mapping of a retired chunk"
        );
        let chunk = Box::into_raw(Box::new(Chunk::new()));
        self.chunks[chunk_idx].store(chunk, Ordering::Release);
        self.mapped_chunks.fetch_add(1, Ordering::Relaxed);
        self.note_resident_peak();
    }

    /// Samples the resident-chunk high-water mark (cold paths only: chunk
    /// mapping and resurrection).
    fn note_resident_peak(&self) {
        let resident =
            self.mapped_chunks.load(Ordering::Relaxed) + self.limbo_chunks.load(Ordering::Relaxed);
        self.peak_resident_chunks
            .fetch_max(resident, Ordering::Relaxed);
    }

    /// Bytes of slot storage in one chunk (the unit tracked by
    /// [`bytes_freed`](Self::bytes_freed) / [`resident_bytes`](Self::resident_bytes)).
    pub const fn chunk_bytes() -> usize {
        CHUNK_SIZE * std::mem::size_of::<Slot<T>>()
    }

    /// Pops one index off the global Treiber free list.
    ///
    /// Requires a pin: the `next_free` read below dereferences the head
    /// slot *before* the CAS confirms the head is still current, so a head
    /// loaded just before [`reclaim`](Self::reclaim) detached the list may
    /// point into a chunk that has since been retired.  The pin keeps such
    /// a chunk's memory resident (limbo outlives every straddling pin); the
    /// tag bumped by the detach makes the subsequent CAS fail, so the stale
    /// value is never *used*.
    fn pop_free(&self, _pin: &PinGuard) -> Option<u32> {
        loop {
            let head = self.free_head.load(Ordering::Acquire);
            let idx_plus_one = (head >> 32) as u32;
            if idx_plus_one == 0 {
                return None;
            }
            let idx = idx_plus_one - 1;
            let Some(slot) = self.slot(idx) else {
                // The head is stale and its chunk has been retired since we
                // loaded it (a freshly loaded head never points into a
                // retired chunk — retirement takes the chunk's indices out
                // of circulation).  The detach bumped the ABA tag, so the
                // CAS would fail anyway: just re-read the head.
                continue;
            };
            let next = slot.next_free.load(Ordering::Relaxed);
            let tag = (head as u32).wrapping_add(1);
            let new_head = ((next as u64) << 32) | tag as u64;
            if self
                .free_head
                .compare_exchange_weak(head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(idx);
            }
        }
    }

    fn push_free(&self, index: u32) {
        self.push_free_chain(index, index);
    }

    /// Pushes a pre-linked chain `head_idx → … → tail_idx` (linked through
    /// `next_free`, which this call re-points for the tail) onto the global
    /// free list with a single CAS.
    fn push_free_chain(&self, head_idx: u32, tail_idx: u32) {
        let tail = self.slot(tail_idx).expect("freed slot must be mapped");
        loop {
            let head = self.free_head.load(Ordering::Acquire);
            let head_idx_plus_one = (head >> 32) as u32;
            tail.next_free.store(head_idx_plus_one, Ordering::Relaxed);
            let tag = (head as u32).wrapping_add(1);
            let new_head = (((head_idx + 1) as u64) << 32) | tag as u64;
            if self
                .free_head
                .compare_exchange_weak(head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Runs the generation protocol on a just-acquired free slot and returns
    /// the live reference to the new occupancy.
    fn publish_slot(&self, index: u32) -> PackedRef {
        let slot = self.slot(index).expect("allocated slot must be mapped");
        // Generation protocol: live occupancies have an even, non-zero
        // generation; a freed (or never-used) slot has an odd generation or
        // generation zero.  Both non-live states fail reference validation,
        // so resetting the value below cannot be confused with live data.
        let old_gen = slot.generation.load(Ordering::Relaxed);
        let new_gen = if old_gen.is_multiple_of(2) {
            // Never-allocated slot (generation 0, or an even value left over
            // from a wrap-around): mark it as in-transition first.
            slot.generation
                .store(old_gen.wrapping_add(1), Ordering::Relaxed);
            old_gen.wrapping_add(2)
        } else {
            // Recycled from the free list: the odd "freed" generation already
            // acts as the in-transition marker.
            old_gen.wrapping_add(1)
        };
        slot.value.reset();
        // A live generation must be even and non-zero; skip zero on
        // wrap-around (a 2^31-recycle ABA on a single slot is not a practical
        // concern, but avoid the null-looking value regardless).
        let new_gen = if new_gen == 0 { 2 } else { new_gen };
        slot.generation.store(new_gen, Ordering::Release);
        PackedRef::new(index, new_gen)
    }

    /// Validates and kills the occupancy referred to by `r` (generation →
    /// odd).  The slot index is not yet back on any free list.
    fn retire_slot(&self, r: PackedRef) {
        let slot = self.slot(r.index()).expect("freed ref must be mapped");
        let current = slot.generation.load(Ordering::Relaxed);
        assert_eq!(
            current,
            r.generation(),
            "double free or stale free of arena slot {}",
            r.index()
        );
        slot.generation
            .store(r.generation().wrapping_add(1), Ordering::Release);
    }

    /// Samples the current live count into the peak high-water mark (called
    /// on slow paths only; see the module docs for the peak semantics).
    fn note_peak(&self) {
        self.peak_live.fetch_max(self.live(), Ordering::Relaxed);
    }

    /// Boundary-event fold: samples `live + residual`, recovering a
    /// magazine excursion that plain live sampling missed (see "peak
    /// accounting" in the module docs).
    fn note_peak_with_residual(&self, residual: usize) {
        self.peak_live
            .fetch_max(self.live() + residual, Ordering::Relaxed);
    }

    fn alloc_global(&self) -> PackedRef {
        let index = loop {
            let popped = {
                let pin = epoch::pin();
                self.pop_free(&pin)
            };
            if let Some(idx) = popped {
                break idx;
            }
            // Free list dry: map a reclaimed chunk back in (its indices go
            // onto the free list) before growing the fresh frontier.
            if !self.try_resurrect() {
                let idx = self.next_fresh.fetch_add(1, Ordering::Relaxed);
                self.ensure_chunk(idx as usize / CHUNK_SIZE);
                break idx;
            }
        };
        let r = self.publish_slot(index);
        self.live_overflow.fetch_add(1, Ordering::Relaxed);
        self.note_peak();
        r
    }

    fn free_global(&self, index: u32) {
        self.live_overflow.fetch_sub(1, Ordering::Relaxed);
        self.push_free(index);
    }

    /// Allocates a slot, resets its value, and returns a generation-tagged
    /// reference to it.
    pub fn alloc(&self) -> PackedRef {
        if self.use_magazines {
            if let Some(index) = self.magazines.alloc(&ArenaBackend(self)) {
                return self.publish_slot(index);
            }
        }
        self.alloc_global()
    }

    /// Releases a slot previously returned by [`alloc`](Self::alloc).
    ///
    /// After this call, any [`PackedRef`] captured for the old occupancy
    /// fails validation and is treated as null by readers.
    pub fn free(&self, r: PackedRef) {
        if r.is_null() {
            return;
        }
        self.retire_slot(r);
        // Both probed shards locked by other threads: the global path.
        if self.use_magazines && self.magazines.free(&ArenaBackend(self), r.index()).is_ok() {
            return;
        }
        self.free_global(r.index());
    }

    /// Drains every magazine, returning every cached free slot to the
    /// global list — after it returns, whatever the calling thread freed
    /// before is there, where [`reclaim`](Self::reclaim) can see it.
    ///
    /// A cold path (it takes each shard lock in turn, waiting out a holder
    /// that is mid-operation); nothing on a per-operation or worker-exit
    /// path calls it.
    pub fn release_worker_shard(&self) {
        self.magazines.drain(&ArenaBackend(self));
    }

    /// Retires every fully-free chunk and frees every limbo chunk whose two
    /// grace periods have elapsed.  Returns the number of bytes returned to
    /// the allocator by this call.
    ///
    /// The scan detaches the entire global free list with one CAS, groups
    /// the detached indices by chunk, and retires exactly the chunks *all*
    /// `CHUNK_SIZE` of whose indices it holds — which structurally excludes
    /// chunks with live occupancies, magazine-cached indices, in-flight
    /// frees, and the fresh frontier.  Retiring unlinks the chunk from the
    /// chunk table (stale readers see `None`; pinned readers that already
    /// hold the pointer stay safe) and parks it in limbo stamped with the
    /// global epoch; the remaining indices go back as one pre-linked chain.
    /// The call then nudges the global epoch forward (twice, so a quiescent
    /// caller frees its own retirees immediately) and drains whatever limbo
    /// entries have expired.
    ///
    /// Indices of a retired chunk leave circulation entirely; they are
    /// re-minted when allocation pressure maps the chunk back in with a
    /// fresh generation floor (see `try_resurrect`).  Callers: explicit
    /// `Context::reclaim_memory`, the runtime's worker-exit hook, and
    /// plateau boundaries in the churn workload.  Never called on any
    /// per-operation path.
    pub fn reclaim(&self) -> usize {
        let mut freed = 0;
        {
            let mut state = self.grow_lock.lock();
            freed += self.drain_limbo_locked(&mut state);
            // Detach the whole free list (the tag bump invalidates every
            // in-flight `pop_free` CAS).
            let mut indices: Vec<u32> = Vec::new();
            loop {
                let head = self.free_head.load(Ordering::Acquire);
                let tag = (head as u32).wrapping_add(1);
                if self
                    .free_head
                    .compare_exchange(head, tag as u64, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    let mut next = (head >> 32) as u32;
                    while next != 0 {
                        let idx = next - 1;
                        indices.push(idx);
                        // The index was on the free list, so its chunk was
                        // never retired (retirement consumes the indices);
                        // we hold the whole detached chain exclusively and
                        // `grow_lock` keeps every chunk where it is.
                        let slot = self.slot(idx).expect("free-list chunk is mapped");
                        next = slot.next_free.load(Ordering::Relaxed);
                    }
                    break;
                }
            }
            indices.sort_unstable();
            let mut keep: Vec<u32> = Vec::with_capacity(indices.len());
            let mut i = 0;
            while i < indices.len() {
                let chunk_idx = indices[i] as usize / CHUNK_SIZE;
                let mut j = i;
                while j < indices.len() && indices[j] as usize / CHUNK_SIZE == chunk_idx {
                    j += 1;
                }
                if j - i == CHUNK_SIZE {
                    self.retire_chunk_locked(&mut state, chunk_idx);
                } else {
                    keep.extend_from_slice(&indices[i..j]);
                }
                i = j;
            }
            if !keep.is_empty() {
                for k in 0..keep.len() - 1 {
                    self.slot(keep[k])
                        .expect("kept index is mapped")
                        .next_free
                        .store(keep[k + 1] + 1, Ordering::Relaxed);
                }
                self.push_free_chain(keep[0], keep[keep.len() - 1]);
            }
        }
        // Nudge the epoch past the retirees just parked (each attempt only
        // succeeds at quiescence), then drain what expired.
        epoch::try_advance();
        epoch::try_advance();
        let mut state = self.grow_lock.lock();
        freed += self.drain_limbo_locked(&mut state);
        freed
    }

    /// Frees every limbo chunk whose grace periods have elapsed; returns
    /// bytes freed.
    fn drain_limbo_locked(&self, state: &mut ReclaimState<T>) -> usize {
        let mut freed = 0;
        state.limbo.retain(|lc| {
            if epoch::is_expired(lc.retired_at) {
                // Safety: the pointer came from `Box::into_raw` and was
                // unlinked from the chunk table at retire time; expiry
                // means every pin that could have observed it has since
                // been dropped (see `crate::epoch`), and `grow_lock` makes
                // this the only path that frees it.
                drop(unsafe { Box::from_raw(lc.ptr) });
                freed += Self::chunk_bytes();
                self.limbo_chunks.fetch_sub(1, Ordering::Relaxed);
                self.chunks_reclaimed.fetch_add(1, Ordering::Relaxed);
                false
            } else {
                true
            }
        });
        self.bytes_freed.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }

    /// Unlinks a fully-free chunk (all of whose indices the caller holds,
    /// detached from the free list) and parks it in limbo.
    fn retire_chunk_locked(&self, state: &mut ReclaimState<T>, chunk_idx: usize) {
        let ptr = self.chunks[chunk_idx].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null(), "retiring an unmapped chunk");
        // Safety: the chunk is mapped and `grow_lock` (held) is what frees
        // or remaps chunks.
        let chunk = unsafe { &*ptr };
        // Every slot is free (odd generation) or never used (0): record an
        // even floor strictly above all of them, so the resurrected
        // mapping's first occupancies (floor + 2) can never collide with a
        // stale reference into this mapping.
        let mut max_gen = 0u32;
        for s in chunk.slots.iter() {
            max_gen = max_gen.max(s.generation.load(Ordering::Relaxed));
        }
        let floor = max_gen.wrapping_add(max_gen & 1);
        self.meta[chunk_idx]
            .gen_floor
            .store(floor, Ordering::Relaxed);
        self.meta[chunk_idx]
            .remap_stamp
            .fetch_add(1, Ordering::AcqRel);
        // Unlink first (SeqCst — the reader-side argument in the module
        // docs runs through the SeqCst total order), then stamp with the
        // epoch observed *after* the unlink.
        self.chunks[chunk_idx].store(std::ptr::null_mut(), Ordering::SeqCst);
        let retired_at = epoch::global_epoch();
        state.limbo.push(LimboChunk { ptr, retired_at });
        state.retired.push(chunk_idx as u32);
        self.mapped_chunks.fetch_sub(1, Ordering::Relaxed);
        self.limbo_chunks.fetch_add(1, Ordering::Relaxed);
    }

    /// Maps one retired chunk back in (fresh storage, generations at the
    /// recorded floor) and pushes its `CHUNK_SIZE` indices onto the free
    /// list.  Returns `false` when no retired chunk is available.
    fn try_resurrect(&self) -> bool {
        let chunk_idx;
        let base;
        {
            let mut state = self.grow_lock.lock();
            let Some(idx) = state.retired.pop() else {
                return false;
            };
            chunk_idx = idx as usize;
            base = (chunk_idx * CHUNK_SIZE) as u32;
            let floor = self.meta[chunk_idx].gen_floor.load(Ordering::Relaxed);
            let chunk = Box::new(Chunk::with_generation(floor));
            // Pre-link the chunk's indices (ascending) while nothing else
            // can reach them; the tail is re-pointed by `push_free_chain`.
            for k in 0..CHUNK_SIZE - 1 {
                chunk.slots[k]
                    .next_free
                    .store(base + k as u32 + 2, Ordering::Relaxed);
            }
            self.meta[chunk_idx]
                .remap_stamp
                .fetch_add(1, Ordering::AcqRel);
            self.chunks[chunk_idx].store(Box::into_raw(chunk), Ordering::Release);
            self.mapped_chunks.fetch_add(1, Ordering::Relaxed);
            self.note_resident_peak();
        }
        self.push_free_chain(base, base + CHUNK_SIZE as u32 - 1);
        true
    }

    /// Total bytes of chunk storage returned to the allocator so far.
    pub fn bytes_freed(&self) -> u64 {
        self.bytes_freed.load(Ordering::Relaxed)
    }

    /// Total chunks returned to the allocator so far.
    pub fn chunks_reclaimed(&self) -> u64 {
        self.chunks_reclaimed.load(Ordering::Relaxed)
    }

    /// Bytes of slot storage currently resident (mapped chunks plus limbo
    /// chunks awaiting their grace periods).
    pub fn resident_bytes(&self) -> usize {
        let resident =
            self.mapped_chunks.load(Ordering::Relaxed) + self.limbo_chunks.load(Ordering::Relaxed);
        resident * Self::chunk_bytes()
    }

    /// High-water mark of [`resident_bytes`](Self::resident_bytes).
    pub fn peak_resident_bytes(&self) -> usize {
        self.note_resident_peak();
        self.peak_resident_chunks.load(Ordering::Relaxed) * Self::chunk_bytes()
    }

    /// A snapshot of the arena's memory counters.
    pub fn memory_stats(&self) -> ArenaMemoryStats {
        ArenaMemoryStats {
            resident_bytes: self.resident_bytes(),
            peak_resident_bytes: self.peak_resident_bytes(),
            bytes_freed: self.bytes_freed(),
            chunks_reclaimed: self.chunks_reclaimed(),
            magazine_ops: self.magazines.magazine_ops(),
            shared_path_ops: self.magazines.shared_path_ops(),
        }
    }

    /// Whether `r` still refers to a live occupancy of its slot.
    pub fn is_live(&self, r: PackedRef) -> bool {
        if r.is_null() {
            return false;
        }
        let _pin = epoch::pin();
        match self.slot(r.index()) {
            Some(slot) => slot.generation.load(Ordering::Acquire) == r.generation(),
            None => false,
        }
    }

    /// Resolves `r` to a [`SlotHandle`] carrying the slot's raw address, so
    /// repeated reads skip the chunk-table indirection.  Returns `None` for
    /// null references and references into unmapped (out-of-range, never
    /// allocated, or reclaimed) chunks; liveness is *not* checked here — the
    /// handle's read methods validate the generation per read.
    ///
    /// The handle borrows the caller's pin: the pin is what keeps the
    /// resolved chunk resident (see [`crate::epoch`]), and the borrow makes
    /// a handle outliving its pin a compile error.
    #[inline]
    pub fn resolve<'p>(&'p self, r: PackedRef, pin: &'p PinGuard) -> Option<SlotHandle<'p, T>> {
        let _ = pin;
        if r.is_null() {
            return None;
        }
        let slot = self.slot(r.index())?;
        Some(SlotHandle {
            slot,
            generation: r.generation(),
        })
    }

    /// A resolver that caches the last chunk-table lookup, for pointer-chasing
    /// consumers (the detector traversal) whose successive references almost
    /// always land in the same chunk: the per-resolve chunk-pointer load —
    /// a *dependent* load right on the traversal's critical path — is then
    /// replaced by an index comparison against a register plus one
    /// read-mostly remap-stamp load (which detects the cached chunk having
    /// been reclaimed and remapped; see [`CachedResolver::resolve`]).
    ///
    /// Holds the caller's pin for its whole lifetime, so every handle it
    /// returns — and its cached chunk pointer — stays resident until the
    /// resolver and pin are dropped.
    #[inline]
    pub fn cached_resolver<'p>(&'p self, pin: &'p PinGuard) -> CachedResolver<'p, T> {
        let _ = pin;
        CachedResolver {
            arena: self,
            chunk_idx: usize::MAX,
            chunk: std::ptr::null(),
            stamp: 0,
        }
    }

    /// Runs `f` against the slot value if — and only if — the reference is
    /// still valid both before and after `f` runs.
    ///
    /// This is the seqlock-style read: if the slot was recycled
    /// concurrently, whatever `f` observed is discarded and the read behaves
    /// as if the object no longer exists (`None`).  Pins internally for the
    /// duration of the read.
    #[inline]
    pub fn read<R>(&self, r: PackedRef, f: impl FnOnce(&T) -> R) -> Option<R> {
        let pin = epoch::pin();
        self.resolve(r, &pin)?.read_validated(f)
    }

    /// Like [`read`](Self::read), but without taking an epoch pin — for
    /// callers that already hold the occupancy live.
    ///
    /// This is the data plane's hot-path read: the policy bookkeeping on
    /// `get`/`set`/spawn reads slots it holds alive by construction (the
    /// calling task's own slot, or a promise slot kept live by the very
    /// reference the caller reads through), and a pin per such read is a
    /// full `SeqCst` fence of pure overhead — the liveness itself already
    /// excludes reclamation.
    ///
    /// # Safety
    ///
    /// The occupancy `r` refers to must be **live** (allocated and not yet
    /// freed) for the whole duration of the call.  A live occupancy keeps
    /// its slot index out of the detached free chain, which structurally
    /// excludes its chunk from retirement (the hold-all-indices invariant
    /// in the module docs) — so the chunk stays mapped without a pin.  For
    /// an occupancy that may have been freed concurrently, this read could
    /// dereference an unmapped chunk; use the pinned [`read`](Self::read)
    /// instead.  The generation is still validated seqlock-style, so a
    /// stale-but-live-chunk reference behaves exactly as in `read`.
    #[inline]
    pub(crate) unsafe fn read_live<R>(&self, r: PackedRef, f: impl FnOnce(&T) -> R) -> Option<R> {
        if r.is_null() {
            return None;
        }
        let slot = self.slot(r.index())?;
        SlotHandle {
            slot,
            generation: r.generation(),
        }
        .read_validated(f)
    }
}

/// A snapshot of one arena's (or, summed, a context's) memory counters —
/// the observability half of chunk reclamation: a long-lived service whose
/// live set shrinks can *assert* that its arenas shrank.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaMemoryStats {
    /// Bytes of slot storage currently resident (mapped + limbo chunks).
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: usize,
    /// Total bytes returned to the allocator so far.
    pub bytes_freed: u64,
    /// Total chunks returned to the allocator so far.
    pub chunks_reclaimed: u64,
    /// Slot allocs plus frees served by a magazine so far.
    pub magazine_ops: u64,
    /// Slot allocs plus frees that found both probed magazines locked and
    /// took the global free-list path instead (the cache-reach signal: a
    /// healthy runtime keeps this under 1 % of `magazine_ops`).
    pub shared_path_ops: u64,
}

impl ArenaMemoryStats {
    /// Element-wise sum (for aggregating the task and promise arenas).
    pub fn merged(self, other: ArenaMemoryStats) -> ArenaMemoryStats {
        ArenaMemoryStats {
            resident_bytes: self.resident_bytes + other.resident_bytes,
            peak_resident_bytes: self.peak_resident_bytes + other.peak_resident_bytes,
            bytes_freed: self.bytes_freed + other.bytes_freed,
            chunks_reclaimed: self.chunks_reclaimed + other.chunks_reclaimed,
            magazine_ops: self.magazine_ops + other.magazine_ops,
            shared_path_ops: self.shared_path_ops + other.shared_path_ops,
        }
    }
}

/// A resolved reference to an arena slot: the slot's raw address plus the
/// generation the originating [`PackedRef`] was captured at.
///
/// Obtained from [`SlotArena::resolve`] or [`CachedResolver::resolve`];
/// `'a` is bounded by the epoch pin passed in at resolution, and it is that
/// pin — not the arena borrow — that keeps the backing chunk resident now
/// that chunks can be reclaimed (see [`crate::epoch`]).  The handle itself
/// proves nothing about liveness — each read validates the generation.
pub struct SlotHandle<'a, T> {
    slot: &'a Slot<T>,
    generation: u32,
}

// Manual impls: the handle is a (reference, u32) pair and is Copy regardless
// of `T` (a derive would needlessly demand `T: Copy`).
impl<T> Copy for SlotHandle<'_, T> {}
impl<T> Clone for SlotHandle<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> SlotHandle<'_, T> {
    /// Single-validation read: checks the generation once (Acquire), then
    /// runs `f`.
    ///
    /// If the slot is freed and re-allocated between the check and the loads
    /// inside `f`, the observed value belongs to the *new* occupancy.  Only
    /// use this where the consumer tolerates cross-occupancy values — see
    /// the arena module docs and [`crate::detector`] for the detector's
    /// argument; everything else wants
    /// [`read_validated`](Self::read_validated).
    #[inline]
    pub fn read_field<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        if self.slot.generation.load(Ordering::Acquire) != self.generation {
            return None;
        }
        Some(f(&self.slot.value))
    }

    /// Seqlock-style read: validates the generation before **and after**
    /// `f`, so a value observed from a slot recycled mid-read is discarded.
    #[inline]
    pub fn read_validated<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        if self.slot.generation.load(Ordering::Acquire) != self.generation {
            return None;
        }
        let out = f(&self.slot.value);
        if self.slot.generation.load(Ordering::Acquire) != self.generation {
            return None;
        }
        Some(out)
    }

    /// Generation-fenced read: runs `f`, then validates the generation
    /// **once**, after — the single trailing check is the "generation
    /// fence" that replaces the seqlock double check on re-reads.
    ///
    /// Sound only when a previous read on this same handle already observed
    /// a matching generation: slot generations are strictly monotonic
    /// (wrap-around aside), so *matched earlier* + *matching after* brackets
    /// `f` exactly like [`read_validated`](Self::read_validated) — the slot
    /// cannot have been recycled and re-reached the same generation in
    /// between.  Memory safety is the pin's job (the handle's lifetime is
    /// bounded by one), so the fence carries *logical* validity only.  The
    /// loads inside `f` must be `Acquire` (as the detector's are) so the
    /// trailing acquire generation load cannot be reordered ahead of them.
    ///
    /// This is the detector's line-11 `owner` re-read (see
    /// [`crate::detector`]); PR 6 measured the `detector/chain-walk` step at
    /// ~8.4 ns with it against ~53 ns with the double-checked
    /// [`read_validated`](Self::read_validated).
    #[inline]
    pub fn read_gen_fenced<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        let out = f(&self.slot.value);
        if self.slot.generation.load(Ordering::Acquire) != self.generation {
            return None;
        }
        Some(out)
    }
}

/// A [`SlotArena::resolve`] variant that caches the last chunk-table lookup
/// (see [`SlotArena::cached_resolver`]).  `'a` is bounded by the epoch pin
/// the resolver was created with, which keeps every chunk it caches — and
/// every handle it returns — resident.
pub struct CachedResolver<'a, T> {
    arena: &'a SlotArena<T>,
    chunk_idx: usize,
    chunk: *const Chunk<T>,
    /// The chunk's remap stamp at cache-fill time; a mismatch on a later
    /// hit means the chunk was retired (and possibly remapped) in between,
    /// so the cached pointer is refetched.
    stamp: u32,
}

impl<'a, T> CachedResolver<'a, T> {
    /// Resolves `r` like [`SlotArena::resolve`], hitting the chunk table
    /// only when `r` lands in a different chunk than the previous call *or*
    /// the cached chunk's remap stamp moved.
    ///
    /// The stamp check is what makes caching sound across reclamation: the
    /// pin keeps a retired chunk's *memory* resident, but once the chunk is
    /// remapped, new occupancies live in the replacement storage — a stale
    /// cached pointer would misresolve them into the old (dead-generation)
    /// storage and report a live slot as dead.  Retire and resurrect both
    /// bump the stamp, so a hit with a matching stamp resolves through the
    /// same mapping `r`'s occupancy lives in.  The stamp is read *before*
    /// the chunk pointer at fill time, so a retire racing between the two
    /// loads strands a stale stamp in the cache — forcing a refetch on the
    /// next hit — and never the reverse.
    #[inline]
    pub fn resolve(&mut self, r: PackedRef) -> Option<SlotHandle<'a, T>> {
        if r.is_null() {
            return None;
        }
        let index = r.index() as usize;
        let chunk_idx = index / CHUNK_SIZE;
        if chunk_idx >= MAX_CHUNKS {
            return None;
        }
        if chunk_idx != self.chunk_idx
            || self.arena.meta[chunk_idx]
                .remap_stamp
                .load(Ordering::Acquire)
                != self.stamp
        {
            let stamp = self.arena.meta[chunk_idx]
                .remap_stamp
                .load(Ordering::Acquire);
            let ptr = self.arena.chunks[chunk_idx].load(Ordering::Acquire);
            if ptr.is_null() {
                return None;
            }
            self.chunk_idx = chunk_idx;
            self.chunk = ptr;
            self.stamp = stamp;
        }
        // Safety: the cached pointer was read from the chunk table under the
        // resolver's pin (`'a` is bounded by it), so even if the chunk has
        // since been retired, its memory stays resident until the pin drops
        // (see `crate::epoch`); the stamp check above makes a stale mapping
        // at most a transient `None`, never a misattributed read, per the
        // module docs.
        let chunk = unsafe { &*self.chunk };
        Some(SlotHandle {
            slot: &chunk.slots[index % CHUNK_SIZE],
            generation: r.generation(),
        })
    }
}

impl<T> Drop for SlotArena<T> {
    fn drop(&mut self) {
        for chunk in self.chunks.iter() {
            let ptr = chunk.load(Ordering::Acquire);
            if !ptr.is_null() {
                // Safety: pointers were created by `Box::into_raw` in
                // `ensure_chunk` / `try_resurrect` and each table entry is
                // dropped exactly once, here.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
        // Chunks still waiting out their grace periods: `&mut self` proves
        // no pinned reader can reach this arena any more, so the grace
        // periods are moot.
        let state = self.grow_lock.get_mut();
        for lc in state.limbo.drain(..) {
            // Safety: limbo pointers were unlinked from the table (so the
            // loop above cannot also see them) and are freed exactly once.
            drop(unsafe { Box::from_raw(lc.ptr) });
        }
    }
}

// Safety: all shared state inside the arena is atomics, mutex-protected, or
// the `MagazinePool`, whose shard locks (see `crate::magazine`) make its
// interior-mutable cells exclusive to one thread at a time.  The chunks are
// owned through raw pointers, so Send/Sync must be asserted manually; the
// payload type is required to be Send + Sync (via `SlotValue`).
unsafe impl<T: SlotValue> Send for SlotArena<T> {}
unsafe impl<T: SlotValue> Sync for SlotArena<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    struct TestCell {
        value: AtomicU64,
    }

    impl SlotValue for TestCell {
        fn new_empty() -> Self {
            TestCell {
                value: AtomicU64::new(0),
            }
        }
        fn reset(&self) {
            self.value.store(0, Ordering::Relaxed);
        }
    }

    #[test]
    fn alloc_read_free_cycle() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let r = arena.alloc();
        assert!(arena.is_live(r));
        assert_eq!(arena.live(), 1);
        arena
            .read(r, |c| c.value.store(42, Ordering::Relaxed))
            .expect("live slot is readable");
        assert_eq!(arena.read(r, |c| c.value.load(Ordering::Relaxed)), Some(42));
        arena.free(r);
        assert!(!arena.is_live(r));
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.read(r, |c| c.value.load(Ordering::Relaxed)), None);
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let a = arena.alloc();
        arena
            .read(a, |c| c.value.store(7, Ordering::Relaxed))
            .unwrap();
        arena.free(a);
        let b = arena.alloc();
        // The same physical slot is reused…
        assert_eq!(a.index(), b.index());
        // …but the old reference stays dead and the new occupancy is reset.
        assert_ne!(a, b);
        assert!(!arena.is_live(a));
        assert!(arena.is_live(b));
        assert_eq!(arena.read(b, |c| c.value.load(Ordering::Relaxed)), Some(0));
        assert_eq!(arena.read(a, |c| c.value.load(Ordering::Relaxed)), None);
    }

    #[test]
    fn null_ref_reads_as_none() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        assert_eq!(arena.read(PackedRef::NULL, |_| ()), None);
        assert!(!arena.is_live(PackedRef::NULL));
        let pin = epoch::pin();
        assert!(arena.resolve(PackedRef::NULL, &pin).is_none());
        // Freeing null is a no-op.
        arena.free(PackedRef::NULL);
    }

    #[test]
    fn out_of_range_ref_reads_as_none() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let bogus = PackedRef::new(123_456, 2);
        assert_eq!(arena.read(bogus, |_| ()), None);
        assert!(!arena.is_live(bogus));
        let pin = epoch::pin();
        assert!(arena.resolve(bogus, &pin).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let r = arena.alloc();
        arena.free(r);
        arena.free(r);
    }

    #[test]
    fn grows_across_chunks() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let refs: Vec<_> = (0..(CHUNK_SIZE * 2 + 10)).map(|_| arena.alloc()).collect();
        assert_eq!(arena.live(), refs.len());
        assert!(arena.high_water_slots() >= CHUNK_SIZE * 2);
        for (i, r) in refs.iter().enumerate() {
            arena
                .read(*r, |c| c.value.store(i as u64, Ordering::Relaxed))
                .unwrap();
        }
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(
                arena.read(*r, |c| c.value.load(Ordering::Relaxed)),
                Some(i as u64)
            );
        }
        for r in refs {
            arena.free(r);
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn peak_live_tracks_high_water_mark() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let a = arena.alloc();
        let b = arena.alloc();
        arena.free(a);
        let c = arena.alloc();
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.peak_live(), 2);
        arena.free(b);
        arena.free(c);
        assert_eq!(arena.peak_live(), 2);
    }

    /// Pins the peak semantics on the magazine path: the residual fold
    /// makes the quiescent snapshot exact even for an excursion that rose
    /// and fell entirely between refill/flush boundaries — the case plain
    /// live sampling used to under-report by up to [`MAG_REFILL`].
    #[test]
    fn peak_live_underreport_is_bounded_by_one_refill_batch() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        // First alloc refills (samples at live == 0), then `extra` more
        // allocations ride the magazine without crossing a boundary: the
        // second refill samples at live == MAG_REFILL, and the final
        // `extra` live slots are never boundary-sampled — only the
        // read-path residual fold can recover them.
        let extra = 3;
        let refs: Vec<_> = (0..MAG_REFILL + extra).map(|_| arena.alloc()).collect();
        let true_peak = refs.len();
        for r in refs {
            arena.free(r);
        }
        assert_eq!(arena.live(), 0);
        let reported = arena.peak_live();
        assert_eq!(
            reported, true_peak,
            "quiescent snapshot path reports the exact peak"
        );
        // And the fold is sticky: the stored maximum now carries it.
        assert_eq!(arena.peak_live(), true_peak);
    }

    #[test]
    fn handle_reads_validate_generations() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let r = arena.alloc();
        let pin = epoch::pin();
        let h = arena.resolve(r, &pin).expect("live ref resolves");
        h.read_field(|c| c.value.store(5, Ordering::Relaxed))
            .expect("live handle reads");
        assert_eq!(
            h.read_validated(|c| c.value.load(Ordering::Relaxed)),
            Some(5)
        );
        arena.free(r);
        // Both protocols reject the dead generation up front.
        assert_eq!(h.read_field(|c| c.value.load(Ordering::Relaxed)), None);
        assert_eq!(h.read_validated(|c| c.value.load(Ordering::Relaxed)), None);
        // A stale handle also rejects the slot's next occupancy.
        let fresh = arena.alloc();
        assert_eq!(fresh.index(), r.index());
        assert_eq!(h.read_field(|c| c.value.load(Ordering::Relaxed)), None);
        arena.free(fresh);
    }

    #[test]
    fn magazine_path_allocates_and_recycles() {
        let arena: SlotArena<TestCell> = SlotArena::new();
        let refs: Vec<_> = (0..(MAG_CAP * 3)).map(|_| arena.alloc()).collect();
        assert_eq!(arena.live(), MAG_CAP * 3);
        for r in &refs {
            assert!(arena.is_live(*r));
        }
        for r in refs {
            arena.free(r);
        }
        assert_eq!(arena.live(), 0);
        // Recycling goes through the magazine: footprint stops growing.
        let footprint = arena.high_water_slots();
        for _ in 0..4 {
            let r = arena.alloc();
            arena.free(r);
        }
        assert_eq!(arena.high_water_slots(), footprint);
    }

    #[test]
    fn release_worker_shard_returns_cached_slots_to_global() {
        let arena: Arc<SlotArena<TestCell>> = Arc::new(SlotArena::new());
        let arena2 = Arc::clone(&arena);
        // The thread that cached the slots is gone by the time of the
        // drain; whichever shard it used, the drain finds it.
        std::thread::spawn(move || {
            let refs: Vec<_> = (0..8).map(|_| arena2.alloc()).collect();
            for r in refs {
                arena2.free(r);
            }
        })
        .join()
        .unwrap();
        assert_eq!(arena.live(), 0);
        assert!(arena.magazines.cached() > 0);
        arena.release_worker_shard();
        assert_eq!(arena.magazines.cached(), 0);
        // The drained slots are on the global list: the next refill reuses
        // them without growing the fresh region.
        let footprint = arena.high_water_slots();
        let r = arena.alloc();
        assert_eq!(arena.high_water_slots(), footprint);
        arena.free(r);
    }

    #[test]
    fn global_only_arena_ignores_worker_registration() {
        let arena: SlotArena<TestCell> = SlotArena::new_global_only();
        let _worker = crate::counters::register_worker();
        let r = arena.alloc();
        assert_eq!(arena.live(), 1);
        assert_eq!(arena.peak_live(), 1);
        arena.free(r);
        assert_eq!(arena.live(), 0);
        // Exact footprint (no magazine batching): one slot handed out, recycled.
        let r2 = arena.alloc();
        assert_eq!(arena.high_water_slots(), 1);
        arena.free(r2);
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        let arena: Arc<SlotArena<TestCell>> = Arc::new(SlotArena::new());
        let threads = 8;
        let per_thread = 2000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..per_thread {
                        let r = arena.alloc();
                        arena
                            .read(r, |c| {
                                c.value
                                    .store((t * per_thread + i) as u64, Ordering::Relaxed)
                            })
                            .expect("freshly allocated slot is live");
                        held.push((r, (t * per_thread + i) as u64));
                        if i % 3 == 0 {
                            let (old, v) = held.remove(0);
                            assert_eq!(
                                arena.read(old, |c| c.value.load(Ordering::Relaxed)),
                                Some(v)
                            );
                            arena.free(old);
                        }
                    }
                    for (r, v) in held {
                        assert_eq!(arena.read(r, |c| c.value.load(Ordering::Relaxed)), Some(v));
                        arena.free(r);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn concurrent_readers_of_recycled_slots_never_misattribute() {
        // A reader spinning on a stale ref must only ever see `None` once the
        // slot has been recycled, never the new occupant's data.
        let arena: Arc<SlotArena<TestCell>> = Arc::new(SlotArena::new());
        let r = arena.alloc();
        arena
            .read(r, |c| c.value.store(1, Ordering::Relaxed))
            .unwrap();

        let reader = {
            let arena = Arc::clone(&arena);
            std::thread::spawn(move || {
                let mut saw_value = 0u64;
                for _ in 0..100_000 {
                    match arena.read(r, |c| c.value.load(Ordering::Relaxed)) {
                        Some(v) => {
                            assert_eq!(v, 1, "stale reference must never observe recycled data");
                            saw_value += 1;
                        }
                        None => break,
                    }
                }
                saw_value
            })
        };

        std::thread::sleep(std::time::Duration::from_millis(1));
        arena.free(r);
        let fresh = arena.alloc();
        arena
            .read(fresh, |c| c.value.store(999, Ordering::Relaxed))
            .unwrap();
        reader.join().unwrap();
    }

    /// Drives `reclaim` until it frees at least one chunk.  Other tests in
    /// this process pin transiently (blocking individual epoch advances), so
    /// reclamation is retried rather than asserted on the first attempt.
    fn reclaim_until_freed(arena: &SlotArena<TestCell>) -> usize {
        let mut freed = 0;
        for _ in 0..100_000 {
            freed += arena.reclaim();
            if freed > 0 {
                return freed;
            }
            std::thread::yield_now();
        }
        panic!("reclaim never freed a chunk (epoch stuck?)");
    }

    #[test]
    fn reclaim_frees_fully_empty_chunks() {
        let arena: SlotArena<TestCell> = SlotArena::new_global_only();
        let refs: Vec<_> = (0..CHUNK_SIZE * 2).map(|_| arena.alloc()).collect();
        let resident_at_peak = arena.resident_bytes();
        assert_eq!(resident_at_peak, 2 * SlotArena::<TestCell>::chunk_bytes());
        for r in refs {
            arena.free(r);
        }
        assert_eq!(arena.live(), 0);
        let freed = reclaim_until_freed(&arena);
        // Both chunks were fully free, so both retire and eventually free.
        assert!(freed > 0, "bytes were returned to the allocator");
        assert!(
            arena.resident_bytes() < resident_at_peak,
            "resident memory decreased after reclaim"
        );
        assert!(arena.bytes_freed() >= freed as u64);
        assert!(arena.chunks_reclaimed() >= 1);
        assert!(arena.peak_resident_bytes() >= resident_at_peak);
    }

    #[test]
    fn stale_refs_into_reclaimed_chunks_read_as_none() {
        let arena: SlotArena<TestCell> = SlotArena::new_global_only();
        let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| arena.alloc()).collect();
        let stale = refs[0];
        for r in refs {
            arena.free(r);
        }
        reclaim_until_freed(&arena);
        // The chunk is unmapped: every protocol treats the stale ref as
        // dead rather than panicking or touching freed memory.
        assert!(!arena.is_live(stale));
        assert_eq!(arena.read(stale, |c| c.value.load(Ordering::Relaxed)), None);
        let pin = epoch::pin();
        assert!(arena.resolve(stale, &pin).is_none());
        assert!(arena.cached_resolver(&pin).resolve(stale).is_none());
    }

    #[test]
    fn reclaimed_chunks_are_resurrected_before_fresh_growth() {
        let arena: SlotArena<TestCell> = SlotArena::new_global_only();
        let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| arena.alloc()).collect();
        let stale = refs[0];
        for r in refs {
            arena.free(r);
        }
        reclaim_until_freed(&arena);
        let footprint = arena.high_water_slots();
        // New allocations remap the reclaimed chunk instead of growing the
        // fresh frontier, and the remapped occupancies never validate stale
        // references from the previous mapping.
        let fresh = arena.alloc();
        assert_eq!(arena.high_water_slots(), footprint);
        assert_eq!(fresh.index() as usize / CHUNK_SIZE, 0);
        assert!(arena.is_live(fresh));
        assert!(!arena.is_live(stale));
        assert_eq!(arena.read(stale, |c| c.value.load(Ordering::Relaxed)), None);
        arena.free(fresh);
    }

    #[test]
    fn pinned_reader_blocks_chunk_free_until_unpin() {
        let arena: SlotArena<TestCell> = SlotArena::new_global_only();
        let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| arena.alloc()).collect();
        let pin = epoch::pin();
        // The pin pre-dates every retire below, so nothing the reclaim
        // parks in limbo can pass two grace periods while it is held.
        for r in refs {
            arena.free(r);
        }
        for _ in 0..64 {
            assert_eq!(
                arena.reclaim(),
                0,
                "no chunk may be freed while a pre-retire pin is held"
            );
        }
        // Retirement itself is not blocked — the chunk is unlinked and the
        // pinned reader's stale refs already read as dead.
        assert!(arena.chunks_reclaimed() == 0 && arena.limbo_chunks.load(Ordering::Relaxed) == 1);
        drop(pin);
        reclaim_until_freed(&arena);
        assert_eq!(arena.chunks_reclaimed(), 1);
    }

    /// Regression test (PR 6): a `CachedResolver` used to key its cache on
    /// the chunk index alone, so a chunk reclaimed *and remapped* between
    /// two cached steps would resolve new occupancies through the stale
    /// mapping and report live slots as dead.  The remap stamp invalidates
    /// the cache across a forced reclaim.
    #[test]
    fn cached_resolver_survives_forced_reclaim_between_steps() {
        let arena: SlotArena<TestCell> = SlotArena::new_global_only();
        let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| arena.alloc()).collect();
        let pin = epoch::pin();
        let mut resolver = arena.cached_resolver(&pin);
        // Step 1: warm the cache with chunk 0's mapping.
        let h = resolver.resolve(refs[0]).expect("live ref resolves");
        assert_eq!(h.read_field(|c| c.value.load(Ordering::Relaxed)), Some(0));
        // Forced reclaim between cached steps: free everything, retire the
        // chunk (retirement does not need a grace period — only the final
        // free does, which our own pin legitimately delays), then remap it
        // through a fresh allocation.
        for r in refs {
            arena.free(r);
        }
        arena.reclaim();
        let fresh = arena.alloc();
        assert_eq!(fresh.index() as usize / CHUNK_SIZE, 0);
        arena
            .read(fresh, |c| c.value.store(77, Ordering::Relaxed))
            .unwrap();
        // Step 2: the resolver must notice the remap (stamp moved) and
        // resolve the new occupancy through the *new* mapping.
        let h2 = resolver
            .resolve(fresh)
            .expect("remapped chunk resolves through a refreshed cache");
        assert_eq!(
            h2.read_field(|c| c.value.load(Ordering::Relaxed)),
            Some(77),
            "the new occupancy must be readable — a stale cached chunk \
             pointer would have reported it dead"
        );
        arena.free(fresh);
    }

    #[test]
    fn memory_stats_snapshot_is_consistent() {
        let arena: SlotArena<TestCell> = SlotArena::new_global_only();
        let r = arena.alloc();
        let stats = arena.memory_stats();
        assert_eq!(stats.resident_bytes, SlotArena::<TestCell>::chunk_bytes());
        assert!(stats.peak_resident_bytes >= stats.resident_bytes);
        assert_eq!(stats.bytes_freed, 0);
        let merged = stats.merged(stats);
        assert_eq!(merged.resident_bytes, 2 * stats.resident_bytes);
        arena.free(r);
    }
}
