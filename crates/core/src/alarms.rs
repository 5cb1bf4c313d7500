//! A lock-free, append-only alarm sink.
//!
//! Every deadlock / omitted-set alarm a [`Context`](crate::Context) records
//! lands here.  Alarms are rare in correct programs, but the *bug-hunting*
//! configurations that keep running after an alarm
//! (`OmittedSetAction::CompleteAndReport`, the default) can record them from
//! many workers at once, and observability calls (`Context::alarms`,
//! `alarm_count`) must not block recorders — a lock here would sit inside
//! what is otherwise a lock-free verification data plane.
//!
//! [`AlarmSink`] is an append-only **segment list**:
//!
//! * Records reserve a slot with one `fetch_add` on the tail segment and
//!   publish the written value with one release store of a ready flag (plus
//!   a release `fetch_add` of the committed counter).  A full segment is
//!   extended by CAS-installing a new segment — pushes never block and never
//!   wait for readers.
//! * Readers ([`AlarmSink::snapshot`], [`AlarmSink::for_each`]) walk the
//!   segments without synchronising with writers at all: they observe every
//!   entry whose ready flag they can see (acquire), so any record that
//!   *happened before* the snapshot — in particular one made by this thread,
//!   or by a thread that has since been joined — is guaranteed to appear.
//!   Entries still mid-publication are simply skipped.
//! * [`AlarmSink::claim_next`] is the **live tail**: a shared take-cursor
//!   (one CAS per delivered entry) hands each published entry to exactly one
//!   of any number of concurrent tail readers, in slot order, without ever
//!   blocking recorders.  This is the consumption primitive behind
//!   `Runtime::alarm_tail`: an entry that races the call is not dropped (not
//!   yet claimable now, it is claimable on the next call) and none is
//!   delivered twice.
//! * [`AlarmSink::read_from`] walks published entries from an absolute
//!   cursor position *without* consuming them, so independent observers
//!   (e.g. a metrics sampler's alarm feed) each keep a private cursor and
//!   see every entry exactly once without stealing from the shared tail.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// Entries per segment.  Alarms are rare; one segment almost always
/// suffices, and growth is geometric in chain length anyway.
const SEG_CAP: usize = 32;

struct Segment<T> {
    /// Slots reserved in this segment (may overshoot [`SEG_CAP`]; the excess
    /// moved on to the next segment).
    reserved: AtomicUsize,
    /// Per-slot publication flags: set (release) after the value is written.
    ready: [AtomicBool; SEG_CAP],
    values: [UnsafeCell<MaybeUninit<T>>; SEG_CAP],
    next: AtomicPtr<Segment<T>>,
}

impl<T> Segment<T> {
    fn new() -> Box<Segment<T>> {
        Box::new(Segment {
            reserved: AtomicUsize::new(0),
            ready: [const { AtomicBool::new(false) }; SEG_CAP],
            values: std::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
            next: AtomicPtr::new(std::ptr::null_mut()),
        })
    }
}

/// A lock-free, append-only log of `T`s (see the module docs).
pub struct AlarmSink<T> {
    head: AtomicPtr<Segment<T>>,
    tail: AtomicPtr<Segment<T>>,
    /// Entries fully published (ready flag set).
    committed: AtomicUsize,
    /// Shared take-cursor of the live tail ([`claim_next`](Self::claim_next)):
    /// absolute slot index of the next entry to hand out.
    taken: AtomicUsize,
}

impl<T> Default for AlarmSink<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> AlarmSink<T> {
    /// Creates an empty sink (one segment is allocated eagerly).
    pub fn new() -> Self {
        let first = Box::into_raw(Segment::new());
        AlarmSink {
            head: AtomicPtr::new(first),
            tail: AtomicPtr::new(first),
            committed: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
        }
    }

    /// Resolves the absolute slot index `pos` to its segment slot.  `None`
    /// when `pos` has not been reserved yet (or its segment does not exist).
    ///
    /// Absolute indexing is stable: pushes fill a segment's `SEG_CAP` slots
    /// completely before the next segment is installed, so slot `k` of the
    /// `s`-th segment is always entry `s * SEG_CAP + k`.
    fn locate(&self, pos: usize) -> Option<(&Segment<T>, usize)> {
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        for _ in 0..pos / SEG_CAP {
            if seg_ptr.is_null() {
                return None;
            }
            // Safety: segments are never freed while the sink is alive.
            seg_ptr = unsafe { &*seg_ptr }.next.load(Ordering::Acquire);
        }
        if seg_ptr.is_null() {
            return None;
        }
        // Safety: as above.
        let seg = unsafe { &*seg_ptr };
        let idx = pos % SEG_CAP;
        (idx < seg.reserved.load(Ordering::Acquire).min(SEG_CAP)).then_some((seg, idx))
    }

    /// Appends `value`.  Lock-free: one `fetch_add` to reserve, one release
    /// store to publish (plus, rarely, a CAS to extend the segment list).
    pub fn push(&self, value: T) {
        let mut seg_ptr = self.tail.load(Ordering::Acquire);
        loop {
            // Safety: segments are never freed while the sink is alive.
            let seg = unsafe { &*seg_ptr };
            let idx = seg.reserved.fetch_add(1, Ordering::Relaxed);
            if idx < SEG_CAP {
                // Safety: the reservation makes this slot exclusively ours,
                // and it is only read after `ready` is set below.
                unsafe { (*seg.values[idx].get()).write(value) };
                seg.ready[idx].store(true, Ordering::Release);
                // Release pairs with the acquire load in `len`/readers, so a
                // count observed implies the flags behind it are visible.
                self.committed.fetch_add(1, Ordering::Release);
                return;
            }
            // Segment full: install (or follow) the next one, advance the
            // tail cache, and retry there.
            let mut next = seg.next.load(Ordering::Acquire);
            if next.is_null() {
                let fresh = Box::into_raw(Segment::new());
                match seg.next.compare_exchange(
                    std::ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => next = fresh,
                    Err(actual) => {
                        // Safety: `fresh` never escaped.
                        drop(unsafe { Box::from_raw(fresh) });
                        next = actual;
                    }
                }
            }
            let _ = self
                .tail
                .compare_exchange(seg_ptr, next, Ordering::AcqRel, Ordering::Acquire);
            seg_ptr = next;
        }
    }

    /// Number of fully published entries.
    pub fn len(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Whether no entry has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every published entry in segment order.
    ///
    /// Entries whose publication races this walk may or may not be visited;
    /// entries published *before* the walk started (in happens-before order)
    /// always are.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() {
            // Safety: segments are never freed while the sink is alive.
            let seg = unsafe { &*seg_ptr };
            let reserved = seg.reserved.load(Ordering::Acquire).min(SEG_CAP);
            for idx in 0..reserved {
                if seg.ready[idx].load(Ordering::Acquire) {
                    // Safety: ready (acquire) orders this read after the
                    // writer's initialisation, and published slots are never
                    // written again.
                    f(unsafe { (*seg.values[idx].get()).assume_init_ref() });
                }
            }
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
    }

    /// Clones every published entry into a `Vec`.
    pub fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|v| out.push(v.clone()));
        out
    }

    /// Takes the next published entry off the shared tail, or `None` when no
    /// further entry is claimable right now.
    ///
    /// **Exactly-once across concurrent readers**: the take-cursor advances
    /// with one CAS per delivered entry, so however many threads tail the
    /// sink concurrently, each published entry is returned by precisely one
    /// `claim_next` call.  Delivery is in slot (reservation) order; an entry
    /// still mid-publication merely delays the tail — `None` now, delivered
    /// by a later call — it is never skipped and never delivered twice.
    /// The tail delivers every entry ever pushed, starting from the first.
    pub fn claim_next(&self) -> Option<T>
    where
        T: Clone,
    {
        loop {
            let pos = self.taken.load(Ordering::Acquire);
            let (seg, idx) = self.locate(pos)?;
            if !seg.ready[idx].load(Ordering::Acquire) {
                // Reserved but still being written: the push is in flight
                // (reserve → write → publish has no early exit), so the next
                // call gets it.  Returning `None` keeps the tail non-blocking.
                return None;
            }
            if self
                .taken
                .compare_exchange(pos, pos + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Safety: ready (acquire) orders this read after the writer's
                // initialisation, and published slots are never written again.
                return Some(unsafe { (*seg.values[idx].get()).assume_init_ref() }.clone());
            }
            // Lost the claim race to another tail reader; retry at the new
            // cursor position.
        }
    }

    /// Number of entries the shared tail has delivered so far.
    pub fn taken(&self) -> usize {
        self.taken.load(Ordering::Acquire)
    }

    /// Visits published entries from absolute position `start` onwards in
    /// slot order, stopping at the first slot that is unreserved or still
    /// mid-publication, and returns the next cursor position.
    ///
    /// This is the non-consuming counterpart of
    /// [`claim_next`](Self::claim_next): each observer keeps its own cursor
    /// (`start` = previous return value, beginning at 0) and sees every
    /// entry exactly once without affecting the shared tail or other
    /// observers.  Stopping at a publication gap preserves order — the gap
    /// entry and everything behind it are delivered by a later call.
    pub fn read_from(&self, start: usize, mut f: impl FnMut(&T)) -> usize {
        let mut pos = start;
        while let Some((seg, idx)) = self.locate(pos) {
            if !seg.ready[idx].load(Ordering::Acquire) {
                break;
            }
            // Safety: as in `claim_next`.
            f(unsafe { (*seg.values[idx].get()).assume_init_ref() });
            pos += 1;
        }
        pos
    }
}

impl<T> Drop for AlarmSink<T> {
    fn drop(&mut self) {
        let mut seg_ptr = *self.head.get_mut();
        while !seg_ptr.is_null() {
            // Safety: created by `Box::into_raw`, dropped exactly once here;
            // `&mut self` means no concurrent access.
            let mut seg = unsafe { Box::from_raw(seg_ptr) };
            let reserved = (*seg.reserved.get_mut()).min(SEG_CAP);
            for idx in 0..reserved {
                if *seg.ready[idx].get_mut() {
                    // Safety: ready implies initialised; dropped once.
                    unsafe { (*seg.values[idx].get()).assume_init_drop() };
                }
            }
            seg_ptr = *seg.next.get_mut();
        }
    }
}

// Safety: values are published through the ready-flag protocol (release
// store, acquire load) and never mutated afterwards; all other state is
// atomic.  Shared readers hand out `&T`, hence the `Sync` bound on `T`.
unsafe impl<T: Send> Send for AlarmSink<T> {}
unsafe impl<T: Send + Sync> Sync for AlarmSink<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_snapshot_roundtrip() {
        let sink: AlarmSink<u64> = AlarmSink::new();
        assert!(sink.is_empty());
        for i in 0..100 {
            sink.push(i);
        }
        assert_eq!(sink.len(), 100);
        let snap = sink.snapshot();
        assert_eq!(snap, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn spans_many_segments_in_order() {
        let sink: AlarmSink<usize> = AlarmSink::new();
        let n = SEG_CAP * 5 + 7;
        for i in 0..n {
            sink.push(i);
        }
        assert_eq!(sink.len(), n);
        assert_eq!(sink.snapshot(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn tail_delivers_in_order_from_the_first_entry() {
        let sink: AlarmSink<u32> = AlarmSink::new();
        let n = (SEG_CAP * 2 + 5) as u32;
        for i in 0..n {
            sink.push(i);
        }
        for i in 0..n {
            assert_eq!(sink.claim_next(), Some(i));
        }
        assert_eq!(sink.claim_next(), None);
        assert_eq!(sink.taken(), n as usize);
        sink.push(99);
        assert_eq!(sink.claim_next(), Some(99));
        assert_eq!(sink.claim_next(), None);
    }

    #[test]
    fn read_from_is_a_private_cursor_that_does_not_consume() {
        let sink: AlarmSink<u32> = AlarmSink::new();
        for i in 0..10 {
            sink.push(i);
        }
        let mut seen = Vec::new();
        let cursor = sink.read_from(0, |v| seen.push(*v));
        assert_eq!(cursor, 10);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        // A second observer starting at 0 sees everything again...
        let mut again = 0;
        assert_eq!(sink.read_from(0, |_| again += 1), 10);
        assert_eq!(again, 10);
        // ...and resuming from the cursor sees only what is new.
        sink.push(10);
        let mut tail = Vec::new();
        assert_eq!(sink.read_from(cursor, |v| tail.push(*v)), 11);
        assert_eq!(tail, vec![10]);
        // None of this consumed from the shared tail.
        assert_eq!(sink.claim_next(), Some(0));
    }

    #[test]
    fn concurrent_tail_readers_get_every_entry_exactly_once() {
        use std::sync::Mutex;
        let sink: Arc<AlarmSink<u64>> = Arc::new(AlarmSink::new());
        let writers = 4;
        let readers = 4;
        let per_writer = 500u64;
        let total = writers as u64 * per_writer;
        let got: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..writers {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_writer {
                    sink.push(t as u64 * per_writer + i);
                }
            }));
        }
        for _ in 0..readers {
            let sink = Arc::clone(&sink);
            let got = Arc::clone(&got);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while sink.taken() < total as usize {
                    while let Some(v) = sink.claim_next() {
                        mine.push(v);
                    }
                    std::hint::spin_loop();
                }
                got.lock().unwrap().extend(mine);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all = got.lock().unwrap().clone();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>(), "lost or duplicated");
    }

    #[test]
    fn drops_entries_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink: AlarmSink<Probe> = AlarmSink::new();
        for _ in 0..(SEG_CAP + 3) {
            sink.push(Probe(Arc::clone(&counter)));
        }
        drop(sink);
        assert_eq!(counter.load(Ordering::Relaxed), SEG_CAP + 3);
    }

    #[test]
    fn concurrent_pushes_all_arrive() {
        let sink: Arc<AlarmSink<u64>> = Arc::new(AlarmSink::new());
        let threads = 8;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        sink.push(t as u64 * per_thread + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), threads as usize * per_thread as usize);
        let mut snap = sink.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, (0..threads as u64 * per_thread).collect::<Vec<_>>());
    }

    #[test]
    fn iteration_never_blocks_concurrent_pushes() {
        // Readers walk while writers push; every reader sees at least the
        // entries committed before it started and never a torn value.
        let sink: Arc<AlarmSink<(u64, u64)>> = Arc::new(AlarmSink::new());
        let writer = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    sink.push((i, !i));
                }
            })
        };
        let reader = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                let mut max_seen = 0usize;
                for _ in 0..200 {
                    let before = sink.len();
                    let mut count = 0usize;
                    sink.for_each(|(a, b)| {
                        assert_eq!(*b, !*a, "published entries are never torn");
                        count += 1;
                    });
                    assert!(count >= before, "snapshot missed a committed entry");
                    max_seen = max_seen.max(count);
                }
                max_seen
            })
        };
        writer.join().unwrap();
        let max_seen = reader.join().unwrap();
        assert!(max_seen <= 5_000);
        assert_eq!(sink.len(), 5_000);
    }
}
