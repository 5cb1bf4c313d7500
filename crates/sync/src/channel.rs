//! The promise-backed channel of Listing 4.
//!
//! A [`Channel`] behaves like a promise that can be used repeatedly: the
//! *n*-th `recv` obtains the value supplied by the *n*-th `send`.  Internally
//! it is a linked list of one-shot promises:
//!
//! * the channel holds a `producer` promise (the next cell the sender will
//!   fill) and a `consumer` promise (the next cell the receiver will read);
//! * `send(v)` allocates a fresh promise `next`, fulfils the current producer
//!   cell with `(v, next)`, and advances the producer to `next`;
//! * `recv()` gets the consumer cell, advances to its `next`, and returns the
//!   value;
//! * `stop()` fulfils the producer cell with an end-of-stream marker.
//!
//! Performance: a `send` takes the `producer` lock once — creating the next
//! cell, fulfilling the current one and advancing the tail all happen under
//! it — and a `recv` takes the `consumer` lock once and reads an already-set
//! cell with one acquire load.  The two locks guard *which promise is
//! current* (the chain's head and tail), not the payload, and deliberately
//! serialise competing receivers on one end.  Under them a message costs one
//! promise create, set and get: the cell record comes from the recycled
//! refcount-block pool and its arena slot from a magazine, so in
//! steady state a message makes **no allocator call**, named channel or not.
//! A labelled channel allocates its label once, in `with_name`; cell *n* is
//! named by the pair (label, *n*) and the text `label[n]` is written only if
//! an alarm or the event log reads it.
//!
//! Ownership: the sender always owns exactly one unfulfilled promise — the
//! current producer cell.  The channel implements
//! [`PromiseCollection`], contributing exactly that promise, so `spawn(&ch,
//! …)` moves the *sending responsibility* to the new task (Listing 4
//! line 39), while any task may receive.  A sender that terminates without
//! either stopping the channel or handing it to another task is reported as
//! an omitted set — exactly the paper's notion of an abandoned obligation.

use std::sync::Arc;

use parking_lot::Mutex;

use promise_core::{Name, Promise, PromiseCollection, PromiseError, TransferList};

/// One cell of the channel's promise chain.
enum Cell<T> {
    /// A value plus the promise that will carry the following cell.
    Item(T, Next<T>),
    /// End of stream.
    Closed,
}

/// A cell's link to its successor: the promise, until the link is followed
/// ([`Next::into_promise`]) or unhooked by the drop below.
struct Next<T>(Option<Promise<Cell<T>>>);

impl<T> Next<T> {
    fn into_promise(mut self) -> Promise<Cell<T>> {
        self.0.take().expect("only a dying link is empty")
    }
}

/// Each cell's payload holds the next cell, so letting go of the first cell
/// of an unreceived chain the obvious way recurses once per message and
/// overflows the stack on a long one.  Walk instead: a successor nobody else
/// holds has its own link unhooked before it dies, so its death stops there.
/// The walk ends at the first cell someone else still holds (the channel's
/// other end, a receiver's clone, a task ledger's entry) and starts again
/// when that holder lets go, so it does not matter who holds a chain last.
impl<T> Drop for Next<T> {
    fn drop(&mut self) {
        let mut link = self.0.take();
        while let Some(mut successor) = link {
            link = match successor.value_mut() {
                Some(Cell::Item(_, next)) => next.0.take(),
                _ => None,
            };
        }
    }
}

// A cell of a channel of word-sized values fits one recycled pool block, so
// sending one allocates nothing.
const _: () = assert!(Promise::<Cell<u64>>::fits_pool_block());

impl<T: Clone> Clone for Cell<T> {
    fn clone(&self) -> Self {
        match self {
            Cell::Item(v, next) => Cell::Item(v.clone(), Next(next.0.clone())),
            Cell::Closed => Cell::Closed,
        }
    }
}

/// The sending end: what the `producer` lock guards.
struct Producer<T> {
    /// The promise the next `send`/`stop` will fulfil.
    cell: Promise<Cell<T>>,
    /// How many cells `send` has created after the first; the next one's
    /// index in the channel's names.
    sent: u64,
}

struct ChannelState<T: Clone + Send + Sync + 'static> {
    producer: Mutex<Producer<T>>,
    /// The promise the next `recv` will read.
    consumer: Mutex<Promise<Cell<T>>>,
    /// Optional label, shared by the names of all the channel's cells.
    label: Option<Arc<str>>,
}

/// A multi-shot, promise-backed channel (Listing 4 of the paper).
///
/// Handles are cheap clones of a shared state; the ownership policy — not the
/// handle — decides who may send: only the task owning the current producer
/// promise can `send` or `stop`, and that ownership moves between tasks by
/// listing the channel in a spawn's transfer set.
pub struct Channel<T: Clone + Send + Sync + 'static> {
    state: Arc<ChannelState<T>>,
}

impl<T: Clone + Send + Sync + 'static> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            state: Arc::clone(&self.state),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Channel<T> {
    /// Creates a channel whose sending end is initially owned by the current
    /// task.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread has no active task.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Creates a named channel; the label shows up in alarms that involve the
    /// channel's internal promises.
    pub fn with_name(label: &str) -> Self {
        Self::build(Some(label))
    }

    fn build(label: Option<&str>) -> Self {
        let label: Option<Arc<str>> = label.map(Arc::from);
        let first = Self::cell_promise(label.as_ref(), 0);
        Channel {
            state: Arc::new(ChannelState {
                producer: Mutex::new(Producer {
                    cell: first.clone(),
                    sent: 0,
                }),
                consumer: Mutex::new(first),
                label,
            }),
        }
    }

    /// Creates cell `index`, owned by the current task.
    fn cell_promise(label: Option<&Arc<str>>, index: u64) -> Promise<Cell<T>> {
        Promise::try_new_named(|| label.map(|l| Name::Indexed(Arc::clone(l), index)), ()).expect(
            "a channel requires a current task; run inside Runtime::block_on / a spawned task",
        )
    }

    /// Sends a value.  Fails if the calling task does not own the sending end
    /// (ownership policy) or the channel has been stopped.
    pub fn send(&self, value: T) -> Result<(), PromiseError> {
        let mut producer = self.state.producer.lock();
        // Allocate the next cell first (Listing 4 line 19): the new promise
        // is owned by the sending task, which thereby keeps exactly one
        // outstanding obligation — the tail of the stream.
        producer.sent += 1;
        let next = Self::cell_promise(self.state.label.as_ref(), producer.sent);
        let item = Cell::Item(value, Next(Some(next.clone())));
        if let Err(e) = producer.cell.set(item) {
            // The send was refused (not the owner / already stopped).  The
            // speculatively allocated tail promise belongs to the caller and
            // would otherwise linger as a bogus obligation; retire it.
            let _ = next.set(Cell::Closed);
            return Err(e);
        }
        producer.cell = next;
        Ok(())
    }

    /// Closes the channel: receivers see end-of-stream after all previously
    /// sent values.  Fails if the calling task does not own the sending end.
    pub fn stop(&self) -> Result<(), PromiseError> {
        self.state.producer.lock().cell.set(Cell::Closed)
    }

    /// Receives the next value, blocking until one is available.  Returns
    /// `Ok(None)` at end-of-stream.
    ///
    /// Blocking uses a promise `get`, so a receive that would complete a
    /// deadlock cycle raises [`PromiseError::DeadlockDetected`], and a sender
    /// that died without stopping the channel surfaces as
    /// [`PromiseError::OmittedSet`].
    pub fn recv(&self) -> Result<Option<T>, PromiseError> {
        let mut consumer = self.state.consumer.lock();
        let cell = consumer.get()?;
        match cell {
            Cell::Item(value, next) => {
                *consumer = next.into_promise();
                Ok(Some(value))
            }
            Cell::Closed => Ok(None),
        }
    }

    /// Non-blocking receive: `Ok(None)` means "nothing available yet", while
    /// `Ok(Some(None))` means the channel is closed.
    pub fn try_recv(&self) -> Result<Option<Option<T>>, PromiseError> {
        let mut consumer = self.state.consumer.lock();
        match consumer.try_get() {
            None => Ok(None),
            Some(Err(e)) => Err(e),
            Some(Ok(Cell::Item(value, next))) => {
                *consumer = next.into_promise();
                Ok(Some(Some(value)))
            }
            Some(Ok(Cell::Closed)) => Ok(Some(None)),
        }
    }

    /// Drains the channel until end-of-stream, collecting every value.
    pub fn recv_all(&self) -> Result<Vec<T>, PromiseError> {
        let mut out = Vec::new();
        while let Some(v) = self.recv()? {
            out.push(v);
        }
        Ok(out)
    }

    /// Number of values sent so far (diagnostics).
    pub fn sent_count(&self) -> u64 {
        self.state.producer.lock().sent
    }

    /// The channel's label, if any.
    pub fn label(&self) -> Option<String> {
        self.state.label.as_deref().map(str::to_owned)
    }
}

impl<T: Clone + Send + Sync + 'static> Default for Channel<T> {
    fn default() -> Self {
        Channel::new()
    }
}

impl<T: Clone + Send + Sync + 'static> PromiseCollection for Channel<T> {
    /// Moving a channel moves its *current producer promise* — i.e. the
    /// responsibility for the sending end (Listing 4, `getPromises`).
    fn append_promises(&self, out: &mut TransferList) {
        out.push(self.state.producer.lock().cell.as_erased());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promise_core::VerificationMode;
    use promise_runtime::{spawn, spawn_named, Runtime};

    #[test]
    fn in_task_send_then_recv_preserves_fifo_order() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<i32>::with_name("fifo");
            for i in 0..10 {
                ch.send(i).unwrap();
            }
            ch.stop().unwrap();
            assert_eq!(ch.recv_all().unwrap(), (0..10).collect::<Vec<_>>());
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn listing_4_example() {
        // main: send(1); async(ch) { send(2); stop() }; recv()==1; recv()==2
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<i32>::with_name("ch");
            ch.send(1).unwrap();
            let h = spawn_named("producer", &ch, {
                let ch = ch.clone();
                move || {
                    ch.send(2).unwrap();
                    ch.stop().unwrap();
                }
            });
            assert_eq!(ch.recv().unwrap(), Some(1));
            assert_eq!(ch.recv().unwrap(), Some(2));
            assert_eq!(ch.recv().unwrap(), None);
            h.join().unwrap();
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn sender_that_abandons_the_channel_is_blamed() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<i32>::with_name("abandoned");
            let h = spawn_named("lazy-producer", &ch, {
                let ch = ch.clone();
                move || {
                    ch.send(1).unwrap();
                    // forgot to stop() or hand the channel off
                }
            });
            assert_eq!(ch.recv().unwrap(), Some(1));
            // The tail promise was abandoned; the receiver observes the
            // omitted set instead of blocking forever.
            let err = ch.recv().unwrap_err();
            assert!(matches!(err, PromiseError::OmittedSet(_)));
            // The report names cell 1 of the labelled channel and the
            // producer, byte for byte as it always has.
            assert_eq!(
                err.to_string(),
                "omitted set: lazy-producer(task#2) terminated while still owning 1 unfulfilled \
                 promise(s): abandoned[1](promise#3)"
            );
            assert!(h.join().is_err());
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 1);
    }

    #[test]
    fn non_owner_cannot_send() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<i32>::new();
            // Hand the sending end to a child…
            let h = spawn_named("owner", &ch, {
                let ch = ch.clone();
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    ch.send(7).unwrap();
                    ch.stop().unwrap();
                }
            });
            // …then the parent may no longer send.
            let err = ch.send(0).unwrap_err();
            assert!(matches!(err, PromiseError::NotOwner { .. }));
            assert_eq!(ch.recv().unwrap(), Some(7));
            assert_eq!(ch.recv().unwrap(), None);
            h.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn try_recv_reports_pending_then_values_then_close() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<u8>::new();
            assert_eq!(ch.try_recv().unwrap(), None);
            ch.send(9).unwrap();
            assert_eq!(ch.try_recv().unwrap(), Some(Some(9)));
            assert_eq!(ch.try_recv().unwrap(), None);
            ch.stop().unwrap();
            assert_eq!(ch.try_recv().unwrap(), Some(None));
        })
        .unwrap();
    }

    #[test]
    fn ping_pong_between_two_tasks() {
        let rt = Runtime::new();
        let rounds = 50;
        rt.block_on(|| {
            let ping = Channel::<u32>::with_name("ping");
            let pong = Channel::<u32>::with_name("pong");
            // The child owns the sending end of `pong`; the root keeps `ping`.
            let h = spawn_named("pong-side", &pong, {
                let ping = ping.clone();
                let pong = pong.clone();
                move || {
                    while let Some(v) = ping.recv().unwrap() {
                        pong.send(v + 1).unwrap();
                    }
                    pong.stop().unwrap();
                }
            });
            let mut value = 0;
            for _ in 0..rounds {
                ping.send(value).unwrap();
                value = pong.recv().unwrap().unwrap();
            }
            ping.stop().unwrap();
            assert_eq!(pong.recv().unwrap(), None);
            assert_eq!(value, rounds);
            h.join().unwrap();
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn channels_work_in_baseline_mode_too() {
        let rt = Runtime::builder()
            .verification(VerificationMode::Unverified)
            .build();
        rt.block_on(|| {
            let ch = Channel::<i32>::new();
            let h = spawn(&ch, {
                let ch = ch.clone();
                move || {
                    for i in 0..100 {
                        ch.send(i).unwrap();
                    }
                    ch.stop().unwrap();
                }
            });
            assert_eq!(ch.recv_all().unwrap().len(), 100);
            h.join().unwrap();
        })
        .unwrap();
    }
}
