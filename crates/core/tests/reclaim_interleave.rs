//! Deterministic interleaving coverage for **chunk reclamation** —
//! the epoch-protected free → retire → grace → reuse path of
//! [`promise_core::arena::SlotArena::reclaim`] — played against a pinned
//! reader, in the style of `magazine_interleave.rs`.
//!
//! A single driver thread merges two fixed scripts in **every** possible
//! order (per-script order preserved, schedules enumerated exhaustively):
//!
//! * the *writer*: free a whole chunk's occupancies, reclaim (retiring the
//!   chunk into limbo), nudge the epoch twice, drain, allocate again
//!   (resurrecting the retired chunk before any fresh growth);
//! * the *reader*: pin, resolve a probe reference into the chunk, read a
//!   field through the resolved handle, unpin — the exact step shape of a
//!   detector traversal.
//!
//! Because the epoch machinery is process-global, one thread really does
//! exercise the concurrency that matters: while the reader's pin is live
//! the writer's `try_advance` calls fail, so a pin taken before the retire
//! *provably* holds the chunk in limbo (its retire stamp can never expire
//! under the pin).  After every step the harness checks the full read
//! contract — the probe resolves to its original value before the free,
//! reads as dead (never as garbage, never a crash) afterwards — and that
//! not one byte is returned to the allocator while a pre-retire pin is
//! held.  Every schedule must end with the chunk actually freed once the
//! pin is gone.
//!
//! A note on thread death: limbo is **arena-global by design** — retired
//! chunks are parked on the arena itself, not on the retiring thread — and
//! so are the magazines of cached slot indices, so a dying thread strands
//! nothing.  What the magazines *do* is hold indices, which blocks the
//! hold-all-indices retire condition for the affected chunk until they are
//! drained.  `cached_indices_block_retire_until_drained` covers that path
//! end to end, with the caching thread dead by the time of the drain.
//!
//! Tests serialise on a file-level lock: the pin table and global epoch
//! are process-wide, and the `bytes_freed == 0` assertions are only
//! meaningful while no other test holds pins.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use promise_core::arena::{SlotArena, SlotValue, CHUNK_SIZE};
use promise_core::epoch::{self, PinGuard};
use promise_core::refs::PackedRef;
use promise_core::test_support::rng::{seed_from_env_echoed, xorshift};

/// Serialises the tests in this binary: epoch pins are process-global, so
/// a concurrently pinning test would make the no-free-under-pin
/// assertions unsound (and spuriously block advances).
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

struct Cell {
    v: AtomicU64,
}

impl SlotValue for Cell {
    fn new_empty() -> Self {
        Cell {
            v: AtomicU64::new(0),
        }
    }
    fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// One step of the writer script.
#[derive(Copy, Clone, Debug)]
enum W {
    /// Free every occupancy of the target chunk (generations go odd; all
    /// indices land on the global free list).
    FreeAll,
    /// `reclaim()`: with the chunk fully free this *retires* it — unlinks
    /// it from the chunk table and parks it in limbo, epoch-stamped.
    Reclaim,
    /// `epoch::try_advance()` — refused while the reader is pinned.
    Advance,
    /// `reclaim()` again, as a pure limbo drain (nothing left to retire).
    Drain,
    /// Allocate after the retire: must resurrect the retired chunk (at a
    /// generation floor above every old occupancy) before growing fresh.
    AllocReuse,
}

/// One step of the reader script (a detector traversal's shape).
#[derive(Copy, Clone, Debug)]
enum R {
    Pin,
    Resolve,
    ReadField,
    Unpin,
}

const WRITER: [W; 6] = [
    W::FreeAll,
    W::Reclaim,
    W::Advance,
    W::Advance,
    W::Drain,
    W::AllocReuse,
];
const READER: [R; 4] = [R::Pin, R::Resolve, R::ReadField, R::Unpin];

/// The probe's slot within the chunk and the value written to it.
const PROBE_SLOT: usize = 7;
const PROBE_VALUE: u64 = 0x5107_u64;

struct World {
    arena: SlotArena<Cell>,
    refs: Vec<PackedRef>,
    probe: PackedRef,
    reused: Vec<PackedRef>,
    pin: Option<PinGuard>,
    freed: bool,
    retired: bool,
    /// The reader was pinned when the retire happened: until it unpins,
    /// the retire stamp cannot expire, so nothing may be freed.
    pin_spans_retire: bool,
}

impl World {
    fn new() -> World {
        let arena: SlotArena<Cell> = SlotArena::new_global_only();
        let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| arena.alloc()).collect();
        for (i, r) in refs.iter().enumerate() {
            arena
                .read(*r, |c| c.v.store(PROBE_VALUE + i as u64, Ordering::Relaxed))
                .expect("fresh occupancy is readable");
        }
        let probe = refs[PROBE_SLOT];
        World {
            arena,
            refs,
            probe,
            reused: Vec::new(),
            pin: None,
            freed: false,
            retired: false,
            pin_spans_retire: false,
        }
    }

    fn expected_probe_value(&self) -> Option<u64> {
        if self.freed {
            None
        } else {
            Some(PROBE_VALUE + PROBE_SLOT as u64)
        }
    }

    /// The central safety assertion: while a pin taken before the retire
    /// is still held, the retired chunk must sit in limbo, unfree-able.
    fn check_no_free_under_pin(&self, trace: &[usize]) {
        if self.pin_spans_retire && self.pin.is_some() {
            assert_eq!(
                self.arena.bytes_freed(),
                0,
                "schedule {trace:?}: chunk freed while a pre-retire pin is live"
            );
        }
    }

    fn step_writer(&mut self, op: W, trace: &[usize]) {
        match op {
            W::FreeAll => {
                for r in self.refs.drain(..) {
                    self.arena.free(r);
                }
                self.freed = true;
            }
            W::Reclaim | W::Drain => {
                self.arena.reclaim();
                if self.freed && !self.retired {
                    self.retired = true;
                    self.pin_spans_retire = self.pin.is_some();
                }
            }
            W::Advance => {
                let _ = epoch::try_advance();
            }
            W::AllocReuse => {
                // The retire already happened (script order), so this must
                // resurrect the retired chunk — the new reference lands in
                // the same chunk and the footprint does not grow.
                let before = self.arena.resident_bytes();
                let r = self.arena.alloc();
                assert!(self.arena.is_live(r));
                assert_eq!(
                    r.index() as usize / CHUNK_SIZE,
                    self.probe.index() as usize / CHUNK_SIZE,
                    "schedule {trace:?}: reuse must resurrect the retired chunk"
                );
                assert!(
                    self.arena.resident_bytes() <= before + SlotArena::<Cell>::chunk_bytes(),
                    "schedule {trace:?}: reuse must not grow past one remap"
                );
                self.arena
                    .read(r, |c| c.v.store(1, Ordering::Relaxed))
                    .expect("resurrected occupancy is readable");
                self.reused.push(r);
            }
        }
        self.check_no_free_under_pin(trace);
        self.check_probe(trace);
    }

    fn step_reader(&mut self, op: R, trace: &[usize]) {
        match op {
            R::Pin => self.pin = Some(epoch::pin()),
            R::Resolve => {
                // `resolve` answers "is the chunk mapped", not "is the
                // occupancy live": a `None` is only legal once every
                // occupancy was freed (retired chunks are fully free), and
                // any returned handle must uphold the validated-read
                // contract.  The cached resolver must agree through its
                // remap-stamp revalidation, even when the chunk was
                // retired (and possibly resurrected) since the cache was
                // last warm.
                let pin = self.pin.as_ref().expect("reader script pins first");
                match self.arena.resolve(self.probe, pin) {
                    Some(h) => assert_eq!(
                        h.read_validated(|c| c.v.load(Ordering::Relaxed)),
                        self.expected_probe_value(),
                        "schedule {trace:?}: validated read through a pinned handle"
                    ),
                    None => assert!(
                        self.freed,
                        "schedule {trace:?}: a live occupancy's chunk unmapped"
                    ),
                }
                let mut cached = self.arena.cached_resolver(pin);
                match cached.resolve(self.probe) {
                    Some(h) => assert_eq!(
                        h.read_validated(|c| c.v.load(Ordering::Relaxed)),
                        self.expected_probe_value(),
                        "schedule {trace:?}: validated read through the cached resolver"
                    ),
                    None => assert!(self.freed),
                }
            }
            R::ReadField => {
                // The detector's leading-check read (line 6/13/9 shape):
                // generation checked before the field load; a dead probe
                // reads as `None`, a live one as its original value.
                let pin = self.pin.as_ref().expect("reader script pins first");
                match self.arena.resolve(self.probe, pin) {
                    Some(h) => assert_eq!(
                        h.read_field(|c| c.v.load(Ordering::Relaxed)),
                        self.expected_probe_value(),
                        "schedule {trace:?}: pinned read saw a wrong value"
                    ),
                    None => assert!(self.freed, "schedule {trace:?}: live probe read as dead"),
                }
            }
            R::Unpin => {
                self.pin = None;
            }
        }
        self.check_no_free_under_pin(trace);
        self.check_probe(trace);
    }

    /// The read contract holds after *every* step: the probe reads as its
    /// original value before the free and as dead after — never garbage,
    /// never a crash, whatever the chunk's mapping state is.
    fn check_probe(&self, trace: &[usize]) {
        assert_eq!(
            self.arena.read(self.probe, |c| c.v.load(Ordering::Relaxed)),
            self.expected_probe_value(),
            "schedule {trace:?}: probe read contract violated"
        );
        assert_eq!(self.arena.is_live(self.probe), !self.freed);
    }

    /// Every schedule ends the same way: with the reader gone, two epoch
    /// nudges expire the retire stamp and the drain returns the chunk's
    /// bytes to the allocator.
    fn finish(mut self, trace: &[usize]) {
        assert!(self.pin.is_none(), "reader script ends unpinned");
        assert!(self.retired, "writer script always retires the chunk");
        for r in self.reused.drain(..) {
            self.arena.free(r);
        }
        let _ = epoch::try_advance();
        let _ = epoch::try_advance();
        self.arena.reclaim();
        assert!(
            self.arena.bytes_freed() > 0,
            "schedule {trace:?}: retired chunk never freed after unpin"
        );
        assert!(self.arena.chunks_reclaimed() >= 1);
        // Stale reference into the freed (or resurrected) mapping still
        // reads as dead.
        assert_eq!(
            self.arena.read(self.probe, |c| c.v.load(Ordering::Relaxed)),
            None
        );
    }
}

fn run_schedule(schedule: &[usize]) {
    let mut world = World::new();
    let mut w = 0usize;
    let mut r = 0usize;
    for (step, &who) in schedule.iter().enumerate() {
        let trace = &schedule[..=step];
        if who == 0 {
            world.step_writer(WRITER[w], trace);
            w += 1;
        } else {
            world.step_reader(READER[r], trace);
            r += 1;
        }
    }
    world.finish(schedule);
}

fn dfs(remaining: &mut [usize; 2], schedule: &mut Vec<usize>, count: &mut usize) {
    if remaining[0] == 0 && remaining[1] == 0 {
        run_schedule(schedule);
        *count += 1;
        return;
    }
    for who in 0..2 {
        if remaining[who] == 0 {
            continue;
        }
        remaining[who] -= 1;
        schedule.push(who);
        dfs(remaining, schedule, count);
        schedule.pop();
        remaining[who] += 1;
    }
}

/// Every interleaving of the writer's 6 steps against the reader's 4:
/// C(10,4) = 210 schedules, read contract + no-free-under-pin checked
/// after every single step, eventual free checked at the end of each.
#[test]
fn free_retire_grace_reuse_vs_pinned_reader_exhaustive() {
    let _guard = test_lock();
    let mut count = 0usize;
    dfs(
        &mut [WRITER.len(), READER.len()],
        &mut Vec::with_capacity(10),
        &mut count,
    );
    assert_eq!(count, 210, "C(10,4) interleavings of the two scripts");
}

/// Seeded random walks over a *longer* mixed history on one arena:
/// repeated waves of alloc / free / reclaim / advance interleaved with
/// pinned probe reads, driven by `STRESS_SEED` (the CI matrix re-runs
/// this under four seeds).  The per-step contract is the same as in the
/// exhaustive test; this covers multi-wave retire → resurrect → retire
/// histories the short scripts cannot reach.
#[test]
fn seeded_multi_wave_churn_with_pinned_reads() {
    let _guard = test_lock();
    let mut seed = seed_from_env_echoed(0xc1ea_0000_5eed_c0de, "reclaim_interleave") | 1;
    let arena: SlotArena<Cell> = SlotArena::new_global_only();
    // Warm-up: put two full chunks' worth of indices into circulation.  A
    // chunk whose fresh range was never fully handed out can never satisfy
    // the hold-all-indices retire condition, so without this the walk's
    // modest net growth would leave nothing reclaimable by design.
    let mut live: Vec<PackedRef> = (0..2 * CHUNK_SIZE).map(|_| arena.alloc()).collect();
    let mut stale: Vec<PackedRef> = Vec::new();
    let mut pin: Option<PinGuard> = None;
    for step in 0..6_000 {
        match xorshift(&mut seed) % 10 {
            // Allocate (weighted: keeps a standing population).
            0..=3 => {
                let r = arena.alloc();
                arena
                    .read(r, |c| c.v.store(step as u64 + 1, Ordering::Relaxed))
                    .expect("fresh occupancy readable");
                live.push(r);
            }
            // Free a random live reference.
            4..=6 => {
                if !live.is_empty() {
                    let i = (xorshift(&mut seed) % live.len() as u64) as usize;
                    let r = live.swap_remove(i);
                    arena.free(r);
                    stale.push(r);
                }
            }
            7 => {
                arena.reclaim();
            }
            8 => {
                let _ = epoch::try_advance();
            }
            // Toggle a long-lived pin; while pinned, probe reads.
            _ => match pin.take() {
                Some(g) => drop(g),
                None => pin = Some(epoch::pin()),
            },
        }
        // Contract checks after every step, pinned or not.
        if let Some(r) = live.last() {
            assert!(arena.is_live(*r));
        }
        if let Some(r) = stale.last() {
            assert!(!arena.is_live(*r));
            assert_eq!(arena.read(*r, |c| c.v.load(Ordering::Relaxed)), None);
            if let Some(g) = &pin {
                let via_handle = arena
                    .resolve(*r, g)
                    .and_then(|h| h.read_validated(|c| c.v.load(Ordering::Relaxed)));
                assert_eq!(via_handle, None, "stale ref must not validate");
            }
        }
        if stale.len() > 4 * CHUNK_SIZE {
            stale.drain(..2 * CHUNK_SIZE);
        }
    }
    drop(pin);
    for r in live.drain(..) {
        arena.free(r);
    }
    // With everything dead and no pins, reclamation must fully converge.
    let _ = epoch::try_advance();
    let _ = epoch::try_advance();
    arena.reclaim();
    assert_eq!(arena.live(), 0);
    assert!(
        arena.bytes_freed() > 0,
        "a 6000-step churn must free at least one chunk"
    );
}

/// Slot indices cached in a magazine block the hold-all-indices retire
/// condition for the affected chunk — `reclaim()` does not drain magazines
/// — until `release_worker_shard()` drains them, after which the chunk
/// retires and frees normally.  The thread that cached them is dead by
/// then and ran no exit hook: the cache belongs to the arena, so any thread
/// can drain it.
#[test]
fn cached_indices_block_retire_until_drained() {
    let _guard = test_lock();
    let arena: SlotArena<Cell> = SlotArena::new(); // magazines on

    // A thread allocates a chunk's worth and frees it all; the tail of the
    // frees stays cached in whichever magazine served it.  Then it dies.
    std::thread::scope(|s| {
        s.spawn(|| {
            let refs: Vec<_> = (0..CHUNK_SIZE).map(|_| arena.alloc()).collect();
            for r in refs {
                arena.free(r);
            }
        });
    });
    assert_eq!(arena.live(), 0);

    // The chunk cannot retire: a magazine holds some of its indices.
    for _ in 0..8 {
        let _ = epoch::try_advance();
        assert_eq!(
            arena.reclaim(),
            0,
            "no chunk may retire while a magazine caches its indices"
        );
        assert_eq!(arena.chunks_reclaimed(), 0);
    }

    // Draining from this thread — not the one that cached — makes the
    // chunk fully free.
    arena.release_worker_shard();

    let _ = epoch::try_advance();
    let _ = epoch::try_advance();
    arena.reclaim();
    let _ = epoch::try_advance();
    let _ = epoch::try_advance();
    arena.reclaim();
    assert!(
        arena.bytes_freed() > 0,
        "after the drain the chunk must retire and free"
    );
    assert!(arena.chunks_reclaimed() >= 1);
}
