//! A small futex-style wait queue for lock-free primitives — with *sharded,
//! address-keyed* parking for heavy fan-in.
//!
//! [`WaitQueue`] is the parking half of a fast/slow-path split: a data
//! structure keeps its *state* in an atomic word that the hot paths touch
//! with plain loads and RMWs, and only threads that actually have to block
//! fall back to the queue.  The protocol mirrors a futex (and the parking
//! pattern already proven in the runtime's work-stealing scheduler):
//!
//! * a **waiter** first publishes its presence in the owner's atomic state
//!   (e.g. by OR-ing a `HAS_WAITERS` bit), then calls
//!   [`wait_until`](WaitQueue::wait_until) with a predicate re-checking that
//!   state;
//! * a **waker** first publishes the state change that makes the predicate
//!   true (with `Release` ordering), then calls
//!   [`wake_all`](WaitQueue::wake_all) — and only needs to do so when the
//!   waiter-present bit was observed.
//!
//! # Sharded, address-keyed parking
//!
//! The ROADMAP's fan-in item: a promise that many tasks `get` concurrently
//! (a broadcast cell, the shutdown token's registry, help-heavy fork/join
//! joins) used to funnel every parker through the queue's **one** embedded
//! mutex and condvar.  Parking now goes through a process-wide table of
//! cache-line-aligned shards — the same global-table trick a futex (or
//! parking-lot) uses — so the queue itself shrinks to a single waiter
//! counter (it *must* stay tiny: one lives inside every pooled promise
//! cell).  A waiter parks on the shard picked by the queue's address plus a
//! per-thread offset (assigned round-robin at first use), so concurrent
//! waiters on one queue spread over a [`WINDOW`]-wide window of shards, and
//! unrelated queues start their windows at different table positions.
//!
//! Each shard holds a **list of parked waiters keyed by their queue's
//! address**, and a waker unparks exactly the entries whose key matches —
//! never a whole shard.  This matters when *many distinct queues* have
//! parked waiters at once (Sieve keeps thousands of chain links blocked
//! concurrently): an earlier condvar-broadcast design woke every thread on
//! the shard per fill, turning N fills over N parked waiters into O(N²/64)
//! spurious wake/re-park cycles — an ~8× wall-time blowup on the chain
//! workloads.  With address-keyed wakes a collision costs the waker a
//! pointer-sized key compare while scanning, never a context switch.
//!
//! ## Why no wake-up can be lost
//!
//! Parking uses `std::thread::park`, whose token survives an `unpark` that
//! arrives *before* the park — so the waiter's check-then-park window is
//! already race-free once the waker can see its entry.  The enrol order
//! makes sure of that: the waiter pushes its entry (under the shard lock)
//! **before** first evaluating the predicate, and the waker publishes the
//! state change **before** scanning the shard lists.  Either the waker's
//! scan finds the entry (its `unpark` token releases the waiter, at the
//! latest, the moment it parks), or the scan ran before the entry was
//! pushed — in which case the waiter acquired the shard lock *after* the
//! waker released it, and its first predicate check observes the published
//! state through that lock's ordering.
//!
//! One subtlety keeps that argument inductive: a wake is keyed to the
//! *queue*, not to the waiter's own condition.  On a shared queue (many
//! tasks gated on one promise, each with its own cancel token) a wake
//! raised for a sibling removes and unparks every entry, including waiters
//! whose predicates are still false.  Such a waiter re-enrols before
//! re-parking — [`wait_until`](WaitQueue::wait_until)'s loop restores the
//! entry (and repeats the fence) whenever an unpark consumed it — so the
//! enrol-before-check invariant holds for every park, not just the first.
//!
//! `wake_all` also skips the table outright when the queue's waiter count
//! reads zero, and skips shards whose counts read zero, so the counts must
//! be reliable.  This is the classic store/load (Dekker) pattern, resolved
//! with sequentially consistent fences:
//!
//! * the waiter increments the queue count and its shard's count with
//!   `SeqCst` RMWs and then issues a `SeqCst` fence **before** first
//!   evaluating the predicate;
//! * the waker issues a `SeqCst` fence **after** the caller's state publish
//!   and before loading any count.
//!
//! In the SC order, at least one of the two loads observes the other side's
//! store: either the waiter's predicate sees the published state (it never
//! parks), or the waker's count loads see the waiter (and the lock-ordered
//! scan above takes over).  The count loads themselves may then be
//! `Relaxed`.
//!
//! The shard a thread parks on is a pure function of the queue address and
//! the thread's fixed offset, so a waker sweeping the queue's window always
//! covers every shard its waiters can be on.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Instant;

use parking_lot::Mutex;

use crate::smallvec::SmallVec;

/// Size of the process-wide parking table.
const TABLE_SIZE: usize = 64;

/// How many table shards one queue's waiters spread over.  Eight matches
/// the scheduler's default injector sharding: enough to decorrelate a
/// join-storm on small machines.
const WINDOW: usize = 8;

/// One thread parked (or about to park) on a shard: the queue it waits for
/// (as an address key), its thread handle for the targeted `unpark`, and a
/// flag tracking whether the entry is still enrolled in a shard list.
///
/// A live entry is only ever *read* by wakers (under the shard lock); the
/// owning thread re-initialises `addr` only between waits, when the entry
/// is in no list.  One entry per thread is cached in TLS — a thread parks
/// on at most one queue at a time (nested waits exist only while a helped
/// job runs *between* checks, never while parked), but the cache degrades
/// to a fresh allocation instead of assuming that.
struct Waiter {
    addr: AtomicUsize,
    thread: Thread,
    /// True while the entry sits in a shard's list.  Flipped under the
    /// shard lock; lets a woken waiter skip the deregistration lock when
    /// the waker already removed it.
    enrolled: AtomicBool,
}

/// One parking shard: a waiter count consulted by wakers before touching
/// the lock, and the address-keyed list of parked entries.  Cache-line
/// aligned so waiters on different shards never false-share.
#[repr(align(128))]
struct Shard {
    /// Threads currently parked (or about to park) on this shard, across
    /// all queues hashing onto it.
    waiters: AtomicUsize,
    /// The first few entries live inline: a shard's first parker must not
    /// be an allocator call (queues hash onto new shards for as long as a
    /// process runs, which the spawn path's allocation budget would see).
    list: Mutex<SmallVec<Arc<Waiter>, 4>>,
}

impl Shard {
    const fn new() -> Shard {
        Shard {
            waiters: AtomicUsize::new(0),
            list: Mutex::new(SmallVec::new()),
        }
    }
}

/// The process-wide parking table (see the module docs).
static TABLE: [Shard; TABLE_SIZE] = [const { Shard::new() }; TABLE_SIZE];

/// The calling thread's fixed offset within a queue's shard window,
/// assigned round-robin at first use so concurrent parkers spread out.
fn thread_offset() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static OFFSET: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    OFFSET.with(|s| {
        let mut off = s.get();
        if off == usize::MAX {
            off = NEXT.fetch_add(1, Ordering::Relaxed) % WINDOW;
            s.set(off);
        }
        off
    })
}

/// The calling thread's cached parking entry, or a fresh one if the cached
/// entry is still referenced (a shard list from an unfinished wait — only
/// reachable through re-entrant use, which the wait loop never does, but
/// allocating is strictly safer than asserting).
fn my_waiter() -> Arc<Waiter> {
    thread_local! {
        static CACHED: Arc<Waiter> = Arc::new(Waiter {
            addr: AtomicUsize::new(0),
            thread: std::thread::current(),
            enrolled: AtomicBool::new(false),
        });
    }
    CACHED.with(|w| {
        if Arc::strong_count(w) == 1 {
            Arc::clone(w)
        } else {
            Arc::new(Waiter {
                addr: AtomicUsize::new(0),
                thread: std::thread::current(),
                enrolled: AtomicBool::new(false),
            })
        }
    })
}

/// A sharded parking slot for threads waiting on an external atomic
/// condition.  The struct itself is one machine word — the waiter count —
/// because the parked-thread lists live in the process-wide [`TABLE`].
///
/// See the [module docs](self) for the protocol.
pub struct WaitQueue {
    /// Threads currently inside [`wait_until`](Self::wait_until) on *this*
    /// queue; lets [`wake_all`](Self::wake_all) return without touching the
    /// table at all when nobody waits.
    waiters: AtomicUsize,
}

impl Default for WaitQueue {
    fn default() -> Self {
        WaitQueue::new()
    }
}

impl WaitQueue {
    /// Creates an empty wait queue.
    pub const fn new() -> WaitQueue {
        WaitQueue {
            waiters: AtomicUsize::new(0),
        }
    }

    /// Start of this queue's shard window in the table (Fibonacci hash of
    /// the queue's address; pooled cells recycle addresses, which merely
    /// reuses the same window).
    #[inline]
    fn base(&self) -> usize {
        (self as *const WaitQueue as usize).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48
    }

    /// Parks the calling thread until `cond()` returns `true` or `deadline`
    /// passes.  Returns the final value of `cond()` — `true` means the
    /// condition was met, `false` means the wait timed out first.
    ///
    /// The entry is enrolled with the parking table *before* `cond` is
    /// first evaluated, so a waker that makes the condition true before
    /// calling [`wake_all`](Self::wake_all) can never be missed (module
    /// docs).  The predicate should be a cheap atomic load (typically
    /// `Acquire`, pairing with the waker's `Release` store); it is
    /// re-evaluated on every wake-up, including spurious ones.
    pub fn wait_until(&self, deadline: Option<Instant>, mut cond: impl FnMut() -> bool) -> bool {
        let shard = &TABLE[(self.base() + thread_offset()) % TABLE_SIZE];
        // Presence must be withdrawn on every exit path, including a
        // panicking predicate, or later wakers would sweep (or skip!)
        // stale counts forever.
        struct Depart<'a>(&'a AtomicUsize);
        impl Drop for Depart<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let _depart_queue = Depart(&self.waiters);
        shard.waiters.fetch_add(1, Ordering::SeqCst);
        let _depart_shard = Depart(&shard.waiters);

        // Enrol in the shard list before the first predicate check.  The
        // same guard discipline: a panicking predicate must not leave the
        // entry enrolled (the TLS cache would then refuse to reuse it, and
        // a recycled queue address could unpark a thread that long moved
        // on — harmless, but stale).
        let me = my_waiter();
        me.addr
            .store(self as *const WaitQueue as usize, Ordering::Relaxed);
        me.enrolled.store(true, Ordering::Relaxed);
        shard.list.lock().push(Arc::clone(&me));
        struct Deregister<'a> {
            shard: &'a Shard,
            me: &'a Arc<Waiter>,
        }
        impl Drop for Deregister<'_> {
            fn drop(&mut self) {
                // `enrolled` is flipped under the shard lock, so a relaxed
                // read here can at worst see a stale `true` and take the
                // lock for nothing.
                if self.me.enrolled.load(Ordering::Relaxed) {
                    let mut list = self.shard.list.lock();
                    let at = list.iter().position(|w| Arc::ptr_eq(w, self.me));
                    if let Some(i) = at {
                        list.swap_remove(i);
                        self.me.enrolled.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
        let _deregister = Deregister { shard, me: &me };

        // SC-fence half of the Dekker handshake with `wake_all` (see the
        // module docs): ordered before the first predicate evaluation.
        fence(Ordering::SeqCst);
        loop {
            if cond() {
                return true;
            }
            match deadline {
                None => std::thread::park(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // One final check: the condition may have become
                        // true exactly at the deadline.
                        return cond();
                    }
                    std::thread::park_timeout(d - now);
                }
            }
            // A wake that consumed this entry is not necessarily *our*
            // wake: `wake_all` removes and unparks every waiter keyed to
            // the queue's address, and on a shared queue a sibling's
            // reason (one token of many being cancelled, say) can wake us
            // while our own predicate is still false.  Re-parking without
            // re-enrolling would make every later wake — including the
            // real one — miss us forever, so restore the entry first.
            // The waker flips `enrolled` under the shard lock *before*
            // the unpark whose token this park consumed, so the relaxed
            // load here cannot miss the removal.
            if !me.enrolled.load(Ordering::Relaxed) {
                me.enrolled.store(true, Ordering::Relaxed);
                shard.list.lock().push(Arc::clone(&me));
                // Re-run the Dekker handshake for the re-enrolled entry
                // before the loop's next predicate check, exactly as on
                // first enrolment.
                fence(Ordering::SeqCst);
            }
        }
    }

    /// Wakes every thread currently parked in [`wait_until`](Self::wait_until)
    /// on **this** queue.
    ///
    /// Costs one fence and one relaxed load when nobody waits on this
    /// queue; otherwise the queue's shard window is swept, and within each
    /// non-empty shard exactly the entries keyed to this queue are removed
    /// (under the shard lock) and unparked (after it is released) — threads
    /// parked on other queues sharing the shard are never woken (their
    /// entries cost one key compare each).
    pub fn wake_all(&self) {
        // SC-fence half of the Dekker handshake with `wait_until`: ordered
        // after the caller's state publish, before the count loads.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return;
        }
        let addr = self as *const WaitQueue as usize;
        let base = self.base();
        for i in 0..WINDOW {
            let shard = &TABLE[(base + i) % TABLE_SIZE];
            if shard.waiters.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // Take the matching entries out under the lock, unpark after it
            // is released: `unpark` is a futex syscall, and a woken thread
            // that preempts this one would otherwise leave every parker and
            // waker hashed to the shard queued behind a descheduled lock
            // holder.  Only the thread handles leave the lock (a refcount
            // bump each, inline for the common single waiter, so a wake
            // makes no allocator call); the entries themselves are dropped
            // under it, which keeps each waiter's cached entry reusable the
            // moment it wakes.
            let mut woken: SmallVec<Thread, 4> = SmallVec::new();
            shard.list.lock().retain(|w| {
                if w.addr.load(Ordering::Relaxed) == addr {
                    w.enrolled.store(false, Ordering::Relaxed);
                    woken.push(w.thread.clone());
                    false
                } else {
                    true
                }
            });
            for thread in woken {
                thread.unpark();
            }
        }
    }
}

impl std::fmt::Debug for WaitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WaitQueue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn condition_already_true_returns_immediately() {
        let q = WaitQueue::new();
        assert!(q.wait_until(None, || true));
    }

    #[test]
    fn timeout_returns_false_when_condition_stays_false() {
        let q = WaitQueue::new();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(!q.wait_until(Some(deadline), || false));
    }

    #[test]
    fn wake_all_releases_a_parked_waiter() {
        let q = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (q2, flag2) = (Arc::clone(&q), Arc::clone(&flag));
        let t = std::thread::spawn(move || q2.wait_until(None, || flag2.load(Ordering::Acquire)));
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        q.wake_all();
        assert!(t.join().unwrap());
    }

    #[test]
    fn publish_then_wake_is_never_lost() {
        // Hammer the race window: waiters that check just before the waker
        // publishes must still be woken — either the waker's scan finds the
        // enrolled entry (the unpark token outruns the park), or the
        // waiter's post-enrol check sees the published flag.
        for round in 0..200 {
            let q = Arc::new(WaitQueue::new());
            let flag = Arc::new(AtomicBool::new(false));
            let (q2, flag2) = (Arc::clone(&q), Arc::clone(&flag));
            let waiter =
                std::thread::spawn(move || q2.wait_until(None, || flag2.load(Ordering::Acquire)));
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            flag.store(true, Ordering::Release);
            q.wake_all();
            assert!(waiter.join().unwrap());
        }
    }

    #[test]
    fn fan_in_wake_reaches_waiters_on_every_shard() {
        // More waiters than the shard window is wide, from distinct threads
        // (each thread gets its own round-robin offset), all released by
        // one wake_all.
        let q = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let woken = Arc::new(AtomicUsize::new(0));
        let n = WINDOW * 3;
        let mut threads = Vec::new();
        for _ in 0..n {
            let (q2, flag2, woken2) = (Arc::clone(&q), Arc::clone(&flag), Arc::clone(&woken));
            threads.push(std::thread::spawn(move || {
                let ok = q2.wait_until(Some(Instant::now() + Duration::from_secs(10)), || {
                    flag2.load(Ordering::Acquire)
                });
                assert!(ok, "fan-in waiter timed out");
                woken2.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // Let most of them park (no correctness dependence on the sleep —
        // late parkers see the published flag on their post-enrol check).
        std::thread::sleep(Duration::from_millis(50));
        flag.store(true, Ordering::Release);
        q.wake_all();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(woken.load(Ordering::Relaxed), n);
    }

    #[test]
    fn waiter_woken_for_a_siblings_reason_is_still_wakeable_later() {
        // The shared-gate shape that deadlocked the Resilience workload:
        // wake_all is keyed to the queue, so a wake raised for a sibling
        // waiter removes *every* entry — including one whose own condition
        // is still false.  That waiter re-parks, and the later, real wake
        // must still find it (it must have re-enrolled).
        let q = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (q2, flag2) = (Arc::clone(&q), Arc::clone(&flag));
        let waiter =
            std::thread::spawn(move || q2.wait_until(None, || flag2.load(Ordering::Acquire)));
        std::thread::sleep(Duration::from_millis(50));
        // Spurious for this waiter: its flag is still false, so it wakes,
        // re-checks, and parks again.
        q.wake_all();
        std::thread::sleep(Duration::from_millis(50));
        flag.store(true, Ordering::Release);
        q.wake_all();
        // Bounded join: pre-fix the waiter is parked with no enrolled
        // entry and this would hang forever.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !waiter.is_finished() {
            assert!(
                Instant::now() < deadline,
                "waiter missed the real wake after a sibling-keyed one"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn every_waiter_on_a_shared_queue_survives_one_by_one_wakes() {
        // N waiters on one queue, each with a private condition, released
        // one at a time — every wake_all sweeps all remaining waiters off
        // the shard lists, so each must re-enrol to see its own release.
        const N: usize = 12;
        let q = Arc::new(WaitQueue::new());
        let flags: Arc<Vec<AtomicBool>> =
            Arc::new((0..N).map(|_| AtomicBool::new(false)).collect());
        let mut threads = Vec::new();
        for i in 0..N {
            let (q2, flags2) = (Arc::clone(&q), Arc::clone(&flags));
            threads.push(std::thread::spawn(move || {
                let ok = q2.wait_until(Some(Instant::now() + Duration::from_secs(30)), || {
                    flags2[i].load(Ordering::Acquire)
                });
                assert!(ok, "shared-queue waiter {i} timed out");
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        for flag in flags.iter() {
            flag.store(true, Ordering::Release);
            q.wake_all();
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn colliding_queues_do_not_wake_each_other() {
        // Two queues whose windows may overlap in the global table: waking
        // one must not unpark (or logically satisfy) the other's waiter —
        // the wake is keyed by queue address.
        let a = Arc::new(WaitQueue::new());
        let b = Arc::new(WaitQueue::new());
        let flag_b = Arc::new(AtomicBool::new(false));
        let (b2, flag_b2) = (Arc::clone(&b), Arc::clone(&flag_b));
        let waiter_b = std::thread::spawn(move || {
            b2.wait_until(Some(Instant::now() + Duration::from_secs(10)), || {
                flag_b2.load(Ordering::Acquire)
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        // Waking `a` (no state change for b) must leave b's waiter parked.
        a.wake_all();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter_b.is_finished(), "b's waiter must still be parked");
        flag_b.store(true, Ordering::Release);
        b.wake_all();
        assert!(waiter_b.join().unwrap());
    }

    #[test]
    fn many_queues_parked_at_once_wake_independently() {
        // The chain-workload shape that broke the condvar-broadcast design:
        // far more *distinct queues* than shards, each with one parked
        // waiter, released one at a time.  Every release must unpark its
        // own waiter only, and the whole chain must drain without timeouts.
        const QUEUES: usize = 4 * TABLE_SIZE;
        let queues: Arc<Vec<(WaitQueue, AtomicBool)>> = Arc::new(
            (0..QUEUES)
                .map(|_| (WaitQueue::new(), AtomicBool::new(false)))
                .collect(),
        );
        let mut threads = Vec::new();
        for i in 0..QUEUES {
            let qs = Arc::clone(&queues);
            threads.push(std::thread::spawn(move || {
                let (q, flag) = &qs[i];
                let ok = q.wait_until(Some(Instant::now() + Duration::from_secs(30)), || {
                    flag.load(Ordering::Acquire)
                });
                assert!(ok, "chain waiter {i} timed out");
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        for (q, flag) in queues.iter() {
            flag.store(true, Ordering::Release);
            q.wake_all();
        }
        for t in threads {
            t.join().unwrap();
        }
    }
}
