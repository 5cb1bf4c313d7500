//! Process-global epoch-based reclamation (EBR) for the slot arenas.
//!
//! The detector traverses promise/task cells through raw chunk pointers
//! while other threads allocate and free those cells.  Generation tags
//! already rule out *recycling* confusion (a stale reference never reads a
//! newer occupancy as its own object), but they cannot make it safe to
//! **unmap** a chunk: a traversal may hold the chunk's address across the
//! generation check.  This module supplies the missing liveness guarantee —
//! the lightweight pin/unpin/grace-period machinery that
//! [`crate::arena::SlotArena`] builds chunk reclamation on:
//!
//! * A **pinned** thread ([`pin`]) advertises the global epoch it observed
//!   in a cache-padded cell it holds for as long as it stays pinned.  All
//!   raw-pointer reads of arena chunk memory happen under a pin.
//! * Memory retired at epoch `e` (the arena's limbo list of unmapped
//!   chunks) may be freed once the global epoch reaches `e + 2` — two
//!   *grace periods*.
//! * The global epoch only advances ([`try_advance`]) when every pinned
//!   thread advertises the current epoch, so a thread pinned at epoch `e`
//!   holds the global epoch at or below `e + 1` for as long as it stays
//!   pinned: nothing retired while (or after) it was pinned can reach its
//!   `e + 2` deadline.  Whatever chunk pointer the pinned thread read from
//!   the chunk table therefore stays mapped until it unpins.
//!
//! # The pin protocol (crossbeam-style)
//!
//! [`pin`] loads the global epoch, stores it into the thread's cell, issues
//! a `SeqCst` fence, and re-checks the global epoch (retrying if it moved).
//! (The first store of a pin section is the CAS that claims the cell.)
//! The fence gives the one ordering fact the grace-period argument needs:
//! in the `SeqCst` total order, either the advancer's scan sees the
//! thread's advertisement (and refuses to advance), or the pinner's fence —
//! and hence **every chunk-pointer load after it** — comes after the scan,
//! in which case the pinner re-reads the epoch the advancer published and
//! advertises a fresh epoch.  Combined with the two-period deadline, a
//! pinned thread can never dereference a chunk that has already been
//! handed back to the allocator.  (This is the classic EBR recipe; see
//! SNIPPETS.md §3 for the reference implementation shape.)
//!
//! Pins nest: only the outermost [`pin`] writes a cell and pays the
//! fence; inner pins bump a thread-local depth counter.
//!
//! # Cells and overflow
//!
//! The domain is **process-global** (all arenas share it): a pin is a
//! statement about the *thread*, not about one arena, and conservative
//! pins only delay reclamation, never break it.  There are [`PIN_CELLS`]
//! cache-padded cells, and a cell is held for one **pin section**, not for
//! a thread's lifetime: the outermost [`pin`] claims a cell by CAS-ing it
//! from `UNPINNED` to the epoch it advertises (starting at the thread's
//! `counters::thread_home` index and walking on while cells are taken), and
//! the outermost unpin's store of `UNPINNED` hands it back.  A pool of
//! thousands of threads therefore contends for cells only with the threads
//! pinned at the same moment — the running ones, plus any preempted
//! mid-section.  When all cells are taken, the thread pins through a shared
//! *overflow counter* instead; a non-zero overflow count blocks epoch
//! advancement entirely while held, which is conservative but correct.
//!
//! Registered workers (see [`crate::counters::register_worker`]) and
//! unregistered threads (the root task's thread, plain `std::thread`
//! tests) take exactly the same path — the detector must be able to pin
//! from any thread that can call `get`.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

use crate::counters::thread_home;

/// Number of pin cells (with this many threads pinned at once, further
/// ones pin through the shared overflow counter, which blocks advancement
/// while held).
pub const PIN_CELLS: usize = 64;

/// The cell value meaning "not pinned".  Real epochs start at
/// [`FIRST_EPOCH`] and only grow, so 0 is never a valid advertisement.
const UNPINNED: u64 = 0;

/// The initial global epoch.  Starting above 0 keeps `retired_epoch + 2`
/// arithmetic trivially correct and reserves 0 for [`UNPINNED`].
const FIRST_EPOCH: u64 = 2;

static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(FIRST_EPOCH);

/// Advertisement cells: [`UNPINNED`] when free, else the epoch advertised
/// by the thread that claimed the cell for its current pin section.
static PIN_TABLE: [CachePadded<AtomicU64>; PIN_CELLS] =
    [const { CachePadded::new(AtomicU64::new(UNPINNED)) }; PIN_CELLS];

/// Number of threads currently pinned through the overflow path.
static OVERFLOW_PINS: AtomicUsize = AtomicUsize::new(0);

/// `ThreadPin::held` while the current pin section went through the
/// overflow counter.
const OVERFLOW: usize = usize::MAX;

/// The calling thread's pin state: the current pin nesting depth, and what
/// the current outermost pin holds.
struct ThreadPin {
    depth: Cell<usize>,
    /// The cell index held by the current outermost pin, or [`OVERFLOW`]
    /// (only meaningful while `depth > 0`).
    held: Cell<usize>,
}

impl ThreadPin {
    const fn new() -> Self {
        ThreadPin {
            depth: Cell::new(0),
            held: Cell::new(OVERFLOW),
        }
    }

    /// Outermost pin: claim a cell by advertising the current global epoch
    /// in it (or take the overflow path when every cell is taken).
    fn enter(&self) {
        let home = thread_home();
        let mut seen = GLOBAL_EPOCH.load(Ordering::Relaxed);
        for probe in 0..PIN_CELLS {
            let idx = (home + probe) % PIN_CELLS;
            let cell = &PIN_TABLE[idx];
            // The CAS is both the claim and the advertisement.  Acquire
            // pairs with the previous holder's Release unpin store.
            if cell
                .compare_exchange(UNPINNED, seen, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            loop {
                // The SeqCst fence orders the advertisement before every
                // subsequent chunk-pointer load, against the advancer's
                // SeqCst scan (module docs).
                fence(Ordering::SeqCst);
                let now = GLOBAL_EPOCH.load(Ordering::Relaxed);
                if now == seen {
                    break;
                }
                seen = now;
                // The cell is ours until we store UNPINNED: re-advertise.
                cell.store(seen, Ordering::Relaxed);
            }
            self.held.set(idx);
            return;
        }
        OVERFLOW_PINS.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        self.held.set(OVERFLOW);
    }

    /// Outermost unpin.
    fn exit(&self) {
        match self.held.get() {
            OVERFLOW => {
                OVERFLOW_PINS.fetch_sub(1, Ordering::SeqCst);
            }
            // Release: publishes every read this pin section performed
            // before an advancer (Acquire scan) treats the thread as gone,
            // and hands the cell to the next claimant.
            idx => PIN_TABLE[idx].store(UNPINNED, Ordering::Release),
        }
    }
}

thread_local! {
    static THREAD_PIN: ThreadPin = const { ThreadPin::new() };
}

/// An active pin on the calling thread (RAII).  While any [`PinGuard`]
/// lives, no arena chunk the thread can reach through a chunk-table load is
/// returned to the allocator.  `!Send`: the guard manipulates the pinning
/// thread's own pin state.
#[must_use = "dropping the PinGuard immediately unpins the thread"]
#[derive(Debug)]
pub struct PinGuard {
    /// Pins the guard to its thread (`*mut ()` is `!Send + !Sync`).
    _thread_bound: PhantomData<*mut ()>,
}

/// Pins the calling thread (see the [module docs](self)).  Nested pins are
/// cheap: only the outermost call advertises an epoch and pays the fence.
#[inline]
pub fn pin() -> PinGuard {
    THREAD_PIN.with(|tp| {
        let depth = tp.depth.get();
        tp.depth.set(depth + 1);
        if depth == 0 {
            tp.enter();
        }
    });
    PinGuard {
        _thread_bound: PhantomData,
    }
}

impl Drop for PinGuard {
    #[inline]
    fn drop(&mut self) {
        // Thread-exit teardown note: PinGuards never outlive their pin
        // section in practice (they are stack-held), but TLS destruction
        // order is unspecified, so tolerate a torn-down THREAD_PIN.
        let _ = THREAD_PIN.try_with(|tp| {
            let depth = tp.depth.get();
            debug_assert!(depth > 0, "unbalanced unpin");
            tp.depth.set(depth - 1);
            if depth == 1 {
                tp.exit();
            }
        });
    }
}

/// Whether the calling thread currently holds at least one pin.
#[inline]
pub fn is_pinned() -> bool {
    THREAD_PIN.with(|tp| tp.depth.get() > 0)
}

/// The current global epoch.
#[inline]
pub fn global_epoch() -> u64 {
    GLOBAL_EPOCH.load(Ordering::SeqCst)
}

/// Attempts to advance the global epoch by one and returns the global epoch
/// after the attempt.  The advance succeeds only when every pinned thread
/// advertises the current epoch and no overflow pins are held — i.e. every
/// thread that could hold a pre-advance chunk pointer has re-advertised or
/// unpinned since the epoch last moved.
///
/// Callers (the arena's reclaim path, worker-exit hooks) treat this as a
/// hint: failure just means some thread is mid-traversal and the limbo
/// chunks stay queued for a later attempt.
pub fn try_advance() -> u64 {
    let global = GLOBAL_EPOCH.load(Ordering::SeqCst);
    if OVERFLOW_PINS.load(Ordering::SeqCst) != 0 {
        return global;
    }
    for cell in PIN_TABLE.iter() {
        let e = cell.load(Ordering::SeqCst);
        if e != UNPINNED && e != global {
            return global;
        }
    }
    match GLOBAL_EPOCH.compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => global + 1,
        // Lost the race: someone else advanced; report what they published.
        Err(now) => now,
    }
}

/// Whether memory retired at `retired_epoch` has passed its two grace
/// periods and may be freed.
#[inline]
pub fn is_expired(retired_epoch: u64) -> bool {
    global_epoch() >= retired_epoch.saturating_add(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn pin_unpin_round_trip_and_nesting() {
        assert!(!is_pinned());
        let outer = pin();
        assert!(is_pinned());
        {
            let _inner = pin();
            assert!(is_pinned());
        }
        assert!(is_pinned());
        drop(outer);
        assert!(!is_pinned());
    }

    #[test]
    fn advance_succeeds_when_quiescent() {
        // No pins held by this test (other tests may pin concurrently, in
        // which case the advance legitimately fails — so retry briefly).
        let before = global_epoch();
        let mut after = try_advance();
        for _ in 0..1000 {
            if after > before {
                break;
            }
            std::thread::yield_now();
            after = try_advance();
        }
        assert!(after >= before, "the global epoch never moves backwards");
    }

    #[test]
    fn a_pinned_thread_blocks_the_second_advance() {
        // A thread pinned at epoch e allows at most one advance (to e+1):
        // the advance to e+2 requires it to re-advertise, which it cannot
        // while staying pinned.  Hence nothing retired at >= e is ever
        // expired while the pin is held.
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let observed = Arc::new(AtomicU64::new(0));
        let obs = Arc::clone(&observed);
        let t = std::thread::spawn(move || {
            let g = pin();
            // Record the epoch this pin advertises (re-read under the pin:
            // the pin loop guarantees cell == global at pin time).
            obs.store(global_epoch(), Ordering::SeqCst);
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            drop(g);
        });
        pinned_rx.recv().unwrap();
        let e = observed.load(Ordering::SeqCst);
        // Try hard to advance twice; the second step must be refused.
        for _ in 0..64 {
            try_advance();
        }
        assert!(
            global_epoch() <= e + 1,
            "a pinned thread must hold the global epoch at its epoch + 1"
        );
        assert!(!is_expired(e), "garbage retired at the pin epoch survives");
        release_tx.send(()).unwrap();
        t.join().unwrap();
        // Once unpinned, the epoch can pass e + 2 (retry: other tests'
        // transient pins can refuse individual attempts).
        for _ in 0..10_000 {
            if is_expired(e) {
                break;
            }
            try_advance();
            std::thread::yield_now();
        }
        assert!(is_expired(e), "after unpin the grace periods can elapse");
    }

    #[test]
    fn pin_cells_are_recycled_after_thread_exit() {
        // Spawn more sequential threads than PIN_CELLS; a cell is held only
        // for a pin section, so sequential threads never exhaust the table
        // (no overflow advancement block afterwards).
        for _ in 0..(PIN_CELLS + 8) {
            std::thread::spawn(|| {
                let _g = pin();
            })
            .join()
            .unwrap();
        }
        assert_eq!(OVERFLOW_PINS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn more_live_threads_than_cells_still_pin_through_a_cell() {
        // PIN_CELLS + 8 threads have all pinned once and are still alive
        // (parked on a barrier, unpinned): none of them holds a cell, so a
        // late thread — and each of them again — pins through the table,
        // not through the overflow counter that blocks advancement.
        let threads = PIN_CELLS + 8;
        let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
        let through_cell = || {
            let _g = pin();
            THREAD_PIN.with(|tp| tp.held.get() != OVERFLOW)
        };
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let first = through_cell();
                    barrier.wait();
                    barrier.wait();
                    first && through_cell()
                })
            })
            .collect();
        barrier.wait();
        assert!(through_cell(), "the late thread found a free cell");
        barrier.wait();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }
}
