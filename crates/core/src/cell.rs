//! One-shot payload cells: the storage half of a promise.
//!
//! A promise is two things glued together: a *policy identity* (id, owner
//! edge, arena slot) and a *one-shot cell* that carries the payload from the
//! single `set` to every `get`.  This module provides the cell:
//! [`OneShotCell`], a lock-free state machine over an `AtomicU32` plus an
//! uninitialised payload slot.  Filling is one CAS + payload write + release
//! `swap`; reading a filled cell is a single acquire load + payload read.
//! Neither path touches a lock, and the waker is only invoked when a waiter
//! announced itself.
//!
//! # The state machine
//!
//! The low two bits of the state word hold the phase, one extra bit flags
//! parked (or about-to-park) waiters:
//!
//! ```text
//!            CAS                 swap(Release)
//!   EMPTY ───────► FILLING ───────────────────► SET | FAILED
//!     │               │                              ▲
//!     └── fetch_or(HAS_WAITERS) by a blocking get ───┘  (bit preserved by
//!                                                        the CAS, consumed
//!                                                        by the swap)
//! ```
//!
//! * `EMPTY → FILLING` is a compare-exchange that preserves `HAS_WAITERS`;
//!   winning it grants exclusive write access to the payload slot (losing it
//!   reports "already fulfilled" without touching the payload).
//! * The filler writes the payload, runs the caller's pre-publish hook (the
//!   counter-recording seam — see below), then publishes with
//!   `swap(SET|FAILED, AcqRel)`.  The swap's return value tells the filler
//!   whether any waiter set `HAS_WAITERS`; only then does it sweep the
//!   [`WaitQueue`]'s parking shards to wake.  The uncontended fill never
//!   touches the queue.
//! * A blocking reader announces itself with `fetch_or(HAS_WAITERS, AcqRel)`
//!   — if the returned phase is already `SET`/`FAILED` it returns on the
//!   spot — and then parks on the [`WaitQueue`], whose enrol-before-check
//!   protocol makes the announce/park vs. publish/wake race lossless (see
//!   [`waitq`](crate::waitq)).
//!
//! # Memory ordering
//!
//! The payload write is sequenced before the `Release` swap that publishes
//! `SET`/`FAILED`; every reader performs an `Acquire` load of the state word
//! (directly, via the `HAS_WAITERS` RMW, or inside the wait predicate)
//! before touching the payload, so the payload read is data-race-free.  The
//! pre-publish hook inherits the same guarantee: anything it does (such as
//! bumping an event counter) happens-before any observation of the filled
//! state — the invariant the measurement harness relies on ("a set is
//! counted before any waiter can observe the fulfilment").
//!
//! Once filled, the payload is never written again through `&self` (the CAS
//! can only be won once); it is reached mutably (`get_mut`) or dropped only
//! through `&mut self`, so handing out `&V` borrows tied to `&self` is sound.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Instant;

use crate::waitq::WaitQueue;

/// Phase: nothing written yet.
const EMPTY: u32 = 0;
/// Phase: a filler won the CAS and is writing the payload.
const FILLING: u32 = 1;
/// Phase: payload published, success.
const SET: u32 = 2;
/// Phase: payload published, failure.
const FAILED: u32 = 3;
/// Mask selecting the phase bits.
const PHASE_MASK: u32 = 0b011;
/// Flag: at least one waiter has announced itself since the last publish.
const HAS_WAITERS: u32 = 0b100;

/// How an interruptible wait on a [`OneShotCell`] ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CellWait {
    /// The cell was filled (a fill always wins ties against the other two).
    Filled,
    /// The deadline passed with the cell still empty.
    TimedOut,
    /// The external interrupt condition (cancellation) became true first.
    Interrupted,
}

/// How a steal-to-wait helping loop on a [`OneShotCell`] ended (see
/// [`OneShotCell::wait_helping`]).  Unlike [`CellWait`] it has a fourth
/// outcome: the loop ran out of runnable work and the caller should fall
/// through to a real park.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HelpWait {
    /// The cell was filled (possibly by a job the loop ran inline).
    Filled,
    /// The external interrupt condition (cancellation) became true.
    Interrupted,
    /// The deadline passed; a timed `get` must fall back to a bounded park
    /// to report its timeout with the usual semantics.
    TimedOut,
    /// No runnable job was found; park (and grow) as §6.3 prescribes.
    NoWork,
}

/// A lock-free one-shot cell: filled at most once, readable forever after.
///
/// See the [module docs](self) for the state machine and ordering argument.
pub struct OneShotCell<V> {
    state: AtomicU32,
    waiters: WaitQueue,
    payload: UnsafeCell<MaybeUninit<V>>,
}

// SAFETY: the cell owns its payload; moving the cell to another thread moves
// the (at most one) `V` inside, so `V: Send` suffices for `Send`.
unsafe impl<V: Send> Send for OneShotCell<V> {}
// SAFETY: concurrent `&OneShotCell` access hands out `&V` to many threads
// (requiring `V: Sync`) and moves a `V` in from the filling thread
// (requiring `V: Send`).  The payload slot itself is protected by the state
// machine: writes happen only between a won EMPTY→FILLING CAS and the
// release publish, and reads only after an acquire load observes the
// publish.
unsafe impl<V: Send + Sync> Sync for OneShotCell<V> {}

impl<V> Default for OneShotCell<V> {
    fn default() -> Self {
        OneShotCell::new()
    }
}

impl<V> OneShotCell<V> {
    /// Creates an empty cell.
    pub const fn new() -> OneShotCell<V> {
        OneShotCell {
            state: AtomicU32::new(EMPTY),
            waiters: WaitQueue::new(),
            payload: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Whether the cell has been filled (successfully or exceptionally).
    ///
    /// A `true` result acquire-synchronises with the fill, so the payload
    /// (and everything the filler did before publishing) is visible.
    #[inline]
    pub fn is_filled(&self) -> bool {
        self.state.load(Ordering::Acquire) & PHASE_MASK >= SET
    }

    /// Whether the cell was filled exceptionally (`failed = true`).
    #[inline]
    pub fn is_failed(&self) -> bool {
        self.state.load(Ordering::Acquire) & PHASE_MASK == FAILED
    }

    /// Fills the cell, running `before_publish` after the payload is written
    /// but *before* the release store that makes the fill observable.
    ///
    /// Exactly one fill ever succeeds; a lost race returns the value back so
    /// nothing is leaked.  `failed` selects the terminal phase reported by
    /// [`is_failed`](Self::is_failed).
    pub fn try_fill_with(
        &self,
        value: V,
        failed: bool,
        before_publish: impl FnOnce(),
    ) -> Result<(), V> {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur & PHASE_MASK != EMPTY {
                // Losing filler.  `Err` must imply the winning value is
                // already observable (fills are linearizable), so wait out
                // the winner's (payload-write-sized) FILLING window before
                // reporting "already fulfilled".
                let mut spins = 0u32;
                while self.state.load(Ordering::Acquire) & PHASE_MASK < SET {
                    spins += 1;
                    if spins > 64 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                return Err(value);
            }
            // Exclusivity comes from the RMW itself (at most one thread wins
            // the EMPTY→FILLING transition); publication ordering comes from
            // the release swap below, so Relaxed is enough here.
            match self.state.compare_exchange_weak(
                cur,
                (cur & HAS_WAITERS) | FILLING,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        // SAFETY: we won the one-time EMPTY→FILLING transition, so no other
        // thread writes the payload, and no thread reads it until the
        // publishing swap (readers load-acquire the state first).
        unsafe { (*self.payload.get()).write(value) };
        // Publish via a drop guard so that a panicking hook cannot strand
        // the cell in FILLING (which would park waiters forever, spin
        // losing fillers forever, and leak the written payload): the swap
        // and wake run even during unwinding, then the panic propagates.
        struct Publish<'a, V> {
            cell: &'a OneShotCell<V>,
            target: u32,
        }
        impl<V> Drop for Publish<'_, V> {
            fn drop(&mut self) {
                // Release publishes the payload write and the hook's
                // effects; the returned old value carries the waiter bit
                // accumulated since the claim.
                let old = self.cell.state.swap(self.target, Ordering::AcqRel);
                if old & HAS_WAITERS != 0 {
                    self.cell.waiters.wake_all();
                }
            }
        }
        let publish = Publish {
            cell: self,
            target: if failed { FAILED } else { SET },
        };
        before_publish();
        drop(publish);
        Ok(())
    }

    /// Fills the cell with no pre-publish hook.
    pub fn try_fill(&self, value: V, failed: bool) -> Result<(), V> {
        self.try_fill_with(value, failed, || {})
    }

    /// Blocks until the cell is filled or `deadline` passes.  Returns `true`
    /// if the cell is filled, `false` on timeout.
    ///
    /// Callers should try [`is_filled`](Self::is_filled) first; this is the
    /// slow path that announces a waiter and parks.
    ///
    /// A timed-out waiter leaves `HAS_WAITERS` set (only the publishing
    /// swap consumes the bit), so a later fill pays one uncontended
    /// queue-lock + notify for waiters that already left.  Cost only, never
    /// correctness — accepted for a one-shot cell, where each instance
    /// fills at most once.
    pub fn wait(&self, deadline: Option<Instant>) -> bool {
        // Announce the waiter.  The RMW doubles as the fulfilled re-check:
        // if the phase is already terminal we return without ever touching
        // the wait queue (Acquire pairs with the filler's release swap).
        let old = self.state.fetch_or(HAS_WAITERS, Ordering::AcqRel);
        if old & PHASE_MASK >= SET {
            return true;
        }
        self.waiters.wait_until(deadline, || self.is_filled())
    }

    /// Like [`wait`](Self::wait), but additionally woken by an external
    /// `interrupted` condition (cancellation).  The caller is responsible for
    /// arranging the wake-up — typically by registering
    /// [`waiters`](Self::waiters) on a [`crate::CancelToken`] before calling,
    /// so the token's `cancel` goes through the same queue lock as the
    /// predicate check (lossless, like a fill).
    ///
    /// A fill wins ties: if the cell is filled by the time the waiter wakes,
    /// the result is [`CellWait::Filled`] even if `interrupted` is also true.
    pub fn wait_interruptible(
        &self,
        deadline: Option<Instant>,
        mut interrupted: impl FnMut() -> bool,
    ) -> CellWait {
        let old = self.state.fetch_or(HAS_WAITERS, Ordering::AcqRel);
        if old & PHASE_MASK >= SET {
            return CellWait::Filled;
        }
        if interrupted() {
            return CellWait::Interrupted;
        }
        self.waiters
            .wait_until(deadline, || self.is_filled() || interrupted());
        if self.is_filled() {
            CellWait::Filled
        } else if interrupted() {
            CellWait::Interrupted
        } else {
            CellWait::TimedOut
        }
    }

    /// Spins the steal-to-wait helping loop: between re-checks of the cell,
    /// run **one** pending job via `help` (the scheduler's `try_help` hook)
    /// instead of parking.  Never announces a waiter and never parks — on
    /// [`HelpWait::NoWork`] (or a bound hit upstream) the caller falls
    /// through to the ordinary [`wait_interruptible`] park path, which is
    /// where `HAS_WAITERS`, cancel registration, and §6.3 growth happen.
    ///
    /// A fill wins ties (checked first each round); the deadline is checked
    /// *between* jobs, so a timed `get` can overshoot by at most one helped
    /// job before it reports [`HelpWait::TimedOut`] and performs its real
    /// bounded wait.
    ///
    /// [`wait_interruptible`]: Self::wait_interruptible
    pub fn wait_helping(
        &self,
        deadline: Option<Instant>,
        mut interrupted: impl FnMut() -> bool,
        mut help: impl FnMut() -> bool,
    ) -> HelpWait {
        loop {
            if self.is_filled() {
                return HelpWait::Filled;
            }
            if interrupted() {
                return HelpWait::Interrupted;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return HelpWait::TimedOut;
                }
            }
            if !help() {
                return HelpWait::NoWork;
            }
        }
    }

    /// The cell's wait queue, for wiring external wake sources (cancellation
    /// tokens) to parked waiters.
    #[inline]
    pub fn waiters(&self) -> &crate::waitq::WaitQueue {
        &self.waiters
    }

    /// The filled payload, or `None` if the cell is still empty/filling.
    ///
    /// The borrow is tied to `&self`: a filled payload is immutable while
    /// the cell is shared (see the module docs), so this is safe to hold
    /// while other threads read concurrently.
    #[inline]
    pub fn get_ref(&self) -> Option<&V> {
        if !self.is_filled() {
            return None;
        }
        // SAFETY: the acquire load above observed SET/FAILED, which is
        // published only after the payload write; the payload is written
        // again or dropped only with exclusive access.
        Some(unsafe { (*self.payload.get()).assume_init_ref() })
    }

    /// The filled payload through an exclusive borrow of the cell, or
    /// `None` if the cell is empty.
    pub fn get_mut(&mut self) -> Option<&mut V> {
        // `&mut self`: no fill is in flight and no `get_ref` borrow is
        // alive, so the phase is EMPTY, SET or FAILED and stays that.
        if *self.state.get_mut() & PHASE_MASK < SET {
            return None;
        }
        // SAFETY: the payload was initialised by the successful fill.
        Some(unsafe { self.payload.get_mut().assume_init_mut() })
    }
}

impl<V> Drop for OneShotCell<V> {
    fn drop(&mut self) {
        // `&mut self` means no concurrent fill is in flight, so the phase is
        // EMPTY, SET or FAILED — never FILLING.
        if *self.state.get_mut() & PHASE_MASK >= SET {
            // SAFETY: the payload was initialised by the (unique) successful
            // fill and has not been dropped before; this is the only drop.
            unsafe { self.payload.get_mut().assume_init_drop() };
        }
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for OneShotCell<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneShotCell")
            .field("filled", &self.is_filled())
            .field("failed", &self.is_failed())
            .finish()
    }
}

/// Slot state: nothing written yet.
const SLOT_EMPTY: u8 = 0;
/// Slot state: a writer claimed the slot and is writing the payload.
const SLOT_WRITING: u8 = 1;
/// Slot state: payload present.
const SLOT_READY: u8 = 2;
/// Slot state: payload moved out by [`ResultSlot::take`].
const SLOT_TAKEN: u8 = 3;

/// A write-once, take-once typed payload slot: the storage half of a *fused*
/// task-completion cell.
///
/// The runtime's spawn path ships a task's return value through it: the
/// slot lives *inside* the completion promise's allocation (the `extra`
/// payload of [`Promise`](crate::Promise)'s fused form), the task wrapper
/// `put`s the body's result exactly once before it settles the completion
/// promise, and `join` `take`s it after observing the fulfilment — one
/// allocation and two atomic operations, where a dedicated
/// `Arc<Mutex<Option<R>>>` side channel next to the completion promise costs
/// an extra `Arc` plus two mutex round trips.
///
/// The slot carries its own tiny state machine
/// (`EMPTY → WRITING → READY → TAKEN`) so it is safe independently of the
/// surrounding promise: `put` publishes with a release store, `take` claims
/// with an acquire CAS, and both reject misuse (double put, double take)
/// instead of racing.  Unlike [`OneShotCell`] it has no waiters — ordering
/// and wakeups come from the completion promise it is fused with.
pub struct ResultSlot<V> {
    state: AtomicU8,
    slot: UnsafeCell<MaybeUninit<V>>,
}

// SAFETY: the slot owns at most one `V`; moving the slot moves it.
unsafe impl<V: Send> Send for ResultSlot<V> {}
// SAFETY: a `&ResultSlot` is only ever used to move a `V` in (`put`, one
// winning writer gated by the CAS) or out (`take`, one winning reader gated
// by the CAS) — values cross threads but are never aliased, so `V: Send`
// suffices, exactly as for `Mutex<Option<V>>`.
unsafe impl<V: Send> Sync for ResultSlot<V> {}

impl<V> Default for ResultSlot<V> {
    fn default() -> Self {
        ResultSlot::new()
    }
}

impl<V> ResultSlot<V> {
    /// Creates an empty slot.
    pub const fn new() -> ResultSlot<V> {
        ResultSlot {
            state: AtomicU8::new(SLOT_EMPTY),
            slot: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Whether a payload is currently stored (written and not yet taken).
    pub fn is_ready(&self) -> bool {
        self.state.load(Ordering::Acquire) == SLOT_READY
    }

    /// Stores the payload.  Exactly one `put` ever succeeds; a second one
    /// gets its value back.
    pub fn put(&self, value: V) -> Result<(), V> {
        if self
            .state
            .compare_exchange(
                SLOT_EMPTY,
                SLOT_WRITING,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return Err(value);
        }
        // SAFETY: winning the one-time EMPTY→WRITING transition grants
        // exclusive write access; no reader touches the payload until the
        // release store below.
        unsafe { (*self.slot.get()).write(value) };
        self.state.store(SLOT_READY, Ordering::Release);
        Ok(())
    }

    /// Moves the payload out.  Exactly one `take` ever succeeds; `None`
    /// means the slot is empty, mid-write, or already taken.
    pub fn take(&self) -> Option<V> {
        if self
            .state
            .compare_exchange(SLOT_READY, SLOT_TAKEN, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // SAFETY: the acquire CAS observed READY (published after the
        // payload write) and transitioned it away, so this thread has the
        // unique right to move the value out.
        Some(unsafe { (*self.slot.get()).assume_init_read() })
    }
}

impl<V> Drop for ResultSlot<V> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent put/take.  Only READY holds a live
        // payload (TAKEN was moved out, WRITING is unreachable here).
        if *self.state.get_mut() == SLOT_READY {
            // SAFETY: READY implies the payload was written and never taken.
            unsafe { self.slot.get_mut().assume_init_drop() };
        }
    }
}

impl<V> std::fmt::Debug for ResultSlot<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultSlot")
            .field("ready", &self.is_ready())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fill_then_read() {
        let cell = OneShotCell::<u64>::new();
        assert!(!cell.is_filled());
        assert!(cell.get_ref().is_none());
        cell.try_fill(7, false).unwrap();
        assert!(cell.is_filled());
        assert!(!cell.is_failed());
        assert_eq!(*cell.get_ref().unwrap(), 7);
    }

    #[test]
    fn get_mut_reaches_the_payload_once_filled() {
        let mut cell = OneShotCell::<String>::new();
        assert!(cell.get_mut().is_none());
        cell.try_fill("a".into(), false).unwrap();
        cell.get_mut().unwrap().push('b');
        assert_eq!(cell.get_ref().unwrap(), "ab");
    }

    #[test]
    fn second_fill_loses_and_returns_the_value() {
        let cell = OneShotCell::<String>::new();
        cell.try_fill("first".into(), false).unwrap();
        let back = cell.try_fill("second".into(), true).unwrap_err();
        assert_eq!(back, "second");
        assert_eq!(cell.get_ref().unwrap(), "first");
        assert!(!cell.is_failed());
    }

    #[test]
    fn failed_phase_is_reported() {
        let cell = OneShotCell::<&'static str>::new();
        cell.try_fill("boom", true).unwrap();
        assert!(cell.is_filled());
        assert!(cell.is_failed());
    }

    #[test]
    fn wait_times_out_on_empty_cell() {
        let cell = OneShotCell::<u8>::new();
        assert!(!cell.wait(Some(Instant::now() + Duration::from_millis(15))));
    }

    #[test]
    fn hook_runs_exactly_once_and_only_for_the_winner() {
        let cell = OneShotCell::<u8>::new();
        let calls = AtomicUsize::new(0);
        cell.try_fill_with(1, false, || {
            calls.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        let _ = cell.try_fill_with(2, false, || {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_hook_still_publishes() {
        let cell = OneShotCell::<u32>::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cell.try_fill_with(5, false, || panic!("hook"));
        }));
        assert!(unwound.is_err());
        assert!(cell.is_filled(), "the fill must publish despite the panic");
        assert_eq!(*cell.get_ref().unwrap(), 5);
        assert!(cell.try_fill(6, false).is_err());
    }

    #[test]
    fn losing_fill_returns_only_after_the_winner_published() {
        // The winner stalls inside its pre-publish hook; the loser must not
        // report "already fulfilled" until the value is observable.
        let cell = Arc::new(OneShotCell::<u32>::new());
        let winner = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                cell.try_fill_with(1, false, || {
                    std::thread::sleep(Duration::from_millis(20));
                })
                .unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        let back = cell.try_fill(2, false).unwrap_err();
        assert_eq!(back, 2);
        assert!(
            cell.is_filled(),
            "Err from a losing fill must imply the winning fill is observable"
        );
        assert_eq!(*cell.get_ref().unwrap(), 1);
        winner.join().unwrap();
    }

    #[test]
    fn cross_thread_fill_wakes_waiters() {
        let cell = Arc::new(OneShotCell::<u32>::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            joins.push(std::thread::spawn(move || {
                assert!(cell.wait(None));
                *cell.get_ref().unwrap()
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        cell.try_fill(99, false).unwrap();
        for j in joins {
            assert_eq!(j.join().unwrap(), 99);
        }
    }

    #[derive(Debug)]
    struct CountsDrops(Arc<AtomicUsize>);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn payload_drop_runs_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = OneShotCell::<CountsDrops>::new();
        cell.try_fill(CountsDrops(Arc::clone(&drops)), false)
            .unwrap();
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(cell);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_cell_drop_does_not_touch_the_payload() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = OneShotCell::<CountsDrops>::new();
        drop(cell);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn losing_fill_drops_its_value_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = OneShotCell::<CountsDrops>::new();
        cell.try_fill(CountsDrops(Arc::clone(&drops)), false)
            .unwrap();
        let loser = cell.try_fill(CountsDrops(Arc::clone(&drops)), false);
        assert!(loser.is_err());
        drop(loser);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "only the loser dropped");
        drop(cell);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn result_slot_put_take_round_trip() {
        let slot = ResultSlot::<String>::new();
        assert!(!slot.is_ready());
        assert!(slot.take().is_none());
        slot.put("value".to_string()).unwrap();
        assert!(slot.is_ready());
        assert_eq!(slot.put("second".to_string()).unwrap_err(), "second");
        assert_eq!(slot.take().as_deref(), Some("value"));
        assert!(!slot.is_ready());
        assert!(slot.take().is_none(), "a slot can only be taken once");
        assert!(slot.put("late".to_string()).is_err());
    }

    #[test]
    fn result_slot_drops_an_untaken_payload_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = ResultSlot::<CountsDrops>::new();
        slot.put(CountsDrops(Arc::clone(&drops))).unwrap();
        drop(slot);
        assert_eq!(drops.load(Ordering::Relaxed), 1);

        let drops2 = Arc::new(AtomicUsize::new(0));
        let slot = ResultSlot::<CountsDrops>::new();
        slot.put(CountsDrops(Arc::clone(&drops2))).unwrap();
        drop(slot.take());
        assert_eq!(drops2.load(Ordering::Relaxed), 1);
        // Taken: the slot's own drop must not double-free.
    }

    #[test]
    fn result_slot_cross_thread_handoff() {
        let slot = Arc::new(ResultSlot::<Vec<u64>>::new());
        let writer = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.put(vec![1, 2, 3]).unwrap())
        };
        writer.join().unwrap();
        assert_eq!(slot.take(), Some(vec![1, 2, 3]));
    }
}
