//! All-to-all barrier built from promises.
//!
//! The StreamCluster benchmark (§6.3) replaces PARSEC's OpenMP barriers with
//! promises "in an all-to-all dependence pattern".  [`AllToAllBarrier`]
//! realises that pattern: for `rounds` barrier episodes and `n` participants
//! it pre-allocates an `rounds × n` matrix of arrival promises.  In round
//! `r`, participant `i` *sets* its own arrival promise `(r, i)` and then
//! *gets* the arrival promise of every other participant — an O(n²)
//! communication pattern per episode, exactly the synchronization load the
//! paper's StreamCluster exercises.
//!
//! Performance: the `n − 1` arrival `get`s a participant issues per round
//! mostly target promises that other participants have already set, and a
//! `get` on a fulfilled promise is a single acquire load on the lock-free
//! cell — so the barrier's `O(n²)` communication is `O(n²)` cheap loads plus
//! at most one real park per laggard, not `O(n²)` lock acquisitions.
//!
//! Ownership: the whole matrix is allocated by the task that constructs the
//! barrier (typically the root, before it spawns the workers), and each
//! column is transferred to its worker by listing
//! [`BarrierParticipant`] in the spawn's transfer set — this is the
//! "allocate in the root, move later" ownership pattern the paper observes in
//! SmithWaterman and Randomized.

use std::sync::Arc;

use promise_core::{Name, Promise, PromiseCollection, PromiseError, TransferList};

struct BarrierState {
    /// `arrivals[round][participant]`
    arrivals: Vec<Vec<Promise<()>>>,
    participants: usize,
}

/// A multi-round, promise-based all-to-all barrier.
pub struct AllToAllBarrier {
    state: Arc<BarrierState>,
}

impl Clone for AllToAllBarrier {
    fn clone(&self) -> Self {
        AllToAllBarrier {
            state: Arc::clone(&self.state),
        }
    }
}

impl AllToAllBarrier {
    /// Pre-allocates a barrier for `participants` workers and `rounds`
    /// episodes.  All arrival promises are owned by the calling task until
    /// the per-participant columns are transferred at spawn time.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0` or if the calling thread has no active
    /// task.
    pub fn new(participants: usize, rounds: usize) -> Self {
        assert!(participants > 0, "a barrier needs at least one participant");
        let arrivals = (0..rounds)
            .map(|r| {
                (0..participants)
                    .map(|i| {
                        // The name is formatted only where names are kept.
                        let name = || Some(Name::Plain(format!("barrier[r{r},p{i}]").into()));
                        Promise::try_new_named(name, ()).expect(
                            "a barrier requires a current task; run inside Runtime::block_on / \
                             a spawned task",
                        )
                    })
                    .collect()
            })
            .collect();
        AllToAllBarrier {
            state: Arc::new(BarrierState {
                arrivals,
                participants,
            }),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.state.participants
    }

    /// Number of pre-allocated rounds.
    pub fn rounds(&self) -> usize {
        self.state.arrivals.len()
    }

    /// The transferable handle for participant `index`: moving it to a task
    /// moves ownership of that participant's arrival promise in every round.
    pub fn participant(&self, index: usize) -> BarrierParticipant {
        assert!(
            index < self.state.participants,
            "participant index out of range"
        );
        BarrierParticipant {
            barrier: self.clone(),
            index,
        }
    }

    /// All per-participant handles, in index order (convenient when spawning
    /// the full worker set).
    pub fn all_participants(&self) -> Vec<BarrierParticipant> {
        (0..self.state.participants)
            .map(|i| self.participant(i))
            .collect()
    }
}

/// The role of one participant in an [`AllToAllBarrier`].
///
/// Implements [`PromiseCollection`]: transferring it at spawn time moves
/// ownership of this participant's arrival promises (all rounds) to the
/// worker task, which is then obliged to arrive at every round (or be blamed
/// for an omitted set if it terminates early).
pub struct BarrierParticipant {
    barrier: AllToAllBarrier,
    index: usize,
}

impl Clone for BarrierParticipant {
    fn clone(&self) -> Self {
        BarrierParticipant {
            barrier: self.barrier.clone(),
            index: self.index,
        }
    }
}

impl BarrierParticipant {
    /// This participant's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of pre-allocated rounds.
    pub fn rounds(&self) -> usize {
        self.barrier.rounds()
    }

    /// Announces arrival at round `round` and blocks until every other
    /// participant has arrived at the same round.
    pub fn arrive_and_wait(&self, round: usize) -> Result<(), PromiseError> {
        self.arrive(round)?;
        self.wait_others(round)
    }

    /// Announces arrival at round `round` without waiting.
    pub fn arrive(&self, round: usize) -> Result<(), PromiseError> {
        self.barrier.state.arrivals[round][self.index].set(())
    }

    /// Blocks until every *other* participant has arrived at `round`.
    pub fn wait_others(&self, round: usize) -> Result<(), PromiseError> {
        let row = &self.barrier.state.arrivals[round];
        for (i, p) in row.iter().enumerate() {
            if i != self.index {
                p.wait()?;
            }
        }
        Ok(())
    }
}

impl PromiseCollection for BarrierParticipant {
    fn append_promises(&self, out: &mut TransferList) {
        for row in &self.barrier.state.arrivals {
            out.push(row[self.index].as_erased());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promise_runtime::{spawn_named, Runtime};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_cannot_leave_a_round_early() {
        let rt = Runtime::new();
        let n = 4;
        let rounds = 6;
        rt.block_on(|| {
            let barrier = AllToAllBarrier::new(n, rounds);
            assert_eq!(barrier.participants(), n);
            assert_eq!(barrier.rounds(), rounds);
            let counter = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for part in barrier.all_participants() {
                let counter = Arc::clone(&counter);
                let name = format!("worker-{}", part.index());
                handles.push(spawn_named(&name, part.clone(), move || {
                    for r in 0..rounds {
                        // Every worker must observe that all `n` workers have
                        // incremented the counter for round r before any
                        // worker proceeds to round r+1.
                        counter.fetch_add(1, Ordering::SeqCst);
                        part.arrive_and_wait(r).unwrap();
                        let seen = counter.load(Ordering::SeqCst);
                        assert!(
                            seen >= (r + 1) * n,
                            "round {r}: saw only {seen} arrivals before leaving the barrier"
                        );
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn a_worker_that_dies_mid_phase_is_blamed_and_unblocks_the_others() {
        let rt = Runtime::new();
        let n = 3;
        let rounds = 2;
        rt.block_on(|| {
            let barrier = AllToAllBarrier::new(n, rounds);
            let mut handles = Vec::new();
            for part in barrier.all_participants() {
                let idx = part.index();
                handles.push(spawn_named(&format!("w{idx}"), part.clone(), move || {
                    for r in 0..rounds {
                        if idx == 2 && r == 1 {
                            // Worker 2 dies before arriving at round 1.
                            panic!("worker 2 crashed");
                        }
                        part.arrive_and_wait(r)?;
                    }
                    Ok::<(), PromiseError>(())
                }));
            }
            let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            // Worker 2 panicked; its unarrived promise was completed
            // exceptionally, so workers 0 and 1 return an alarm error instead
            // of blocking forever.
            assert!(results[2].is_err());
            for inner in results[0..2].iter().flatten() {
                assert!(inner.is_err());
            }
        })
        .unwrap();
        assert!(rt.context().alarm_count() >= 1);
    }

    #[test]
    fn participant_column_transfer_counts_promises() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let barrier = AllToAllBarrier::new(2, 5);
            let p0 = barrier.participant(0);
            assert_eq!(p0.promise_count(), 5, "one arrival promise per round");
            // Arrive at every round on behalf of both participants so the
            // root leaves no obligations behind.
            for r in 0..5 {
                barrier.participant(0).arrive(r).unwrap();
                barrier.participant(1).arrive(r).unwrap();
            }
        })
        .unwrap();
    }
}
