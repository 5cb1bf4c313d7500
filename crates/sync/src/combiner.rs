//! All-to-one combining + broadcast, the reduced-synchronization pattern of
//! StreamCluster2.
//!
//! StreamCluster2 (§6.3) "reduces synchronization in StreamCluster by
//! replacing some of the all-to-all patterns with all-to-one when it is
//! correct to do so".  [`Combiner`] captures that pattern:
//!
//! * every round, each of the `n` workers publishes one contribution value on
//!   its own per-round promise (owned by that worker);
//! * a single coordinator gets all `n` contributions (all-to-one), combines
//!   them, and publishes the combined result on a per-round result promise it
//!   owns;
//! * all workers get the result promise (one-to-all broadcast).
//!
//! Compared to the all-to-all barrier this performs `O(n)` promise
//! operations per round instead of `O(n²)`, which is exactly why the paper's
//! StreamCluster2 has a much lower get/set rate (and lower verification
//! overhead) than StreamCluster.
//!
//! Performance: the broadcast leg — `n − 1` workers reading one result
//! promise — rides the lock-free fulfilled fast path: after the result is
//! set, every read is one acquire load with no stores, so concurrent readers
//! no longer serialise on a payload mutex.

use std::sync::Arc;

use promise_core::{Name, Promise, PromiseCollection, PromiseError, TransferList};

struct CombinerState<V: Clone + Send + Sync + 'static> {
    /// `contributions[round][worker]`
    contributions: Vec<Vec<Promise<V>>>,
    /// `results[round]`
    results: Vec<Promise<V>>,
    workers: usize,
}

/// A multi-round all-to-one combiner with broadcast.
pub struct Combiner<V: Clone + Send + Sync + 'static> {
    state: Arc<CombinerState<V>>,
}

/// A promise whose name is formatted only where names are kept.
fn named<T: Send + Sync + 'static>(name: impl FnOnce() -> String) -> Promise<T> {
    Promise::try_new_named(|| Some(Name::Plain(name().into())), ())
        .expect("a combiner requires a current task; run inside Runtime::block_on / a spawned task")
}

impl<V: Clone + Send + Sync + 'static> Clone for Combiner<V> {
    fn clone(&self) -> Self {
        Combiner {
            state: Arc::clone(&self.state),
        }
    }
}

impl<V: Clone + Send + Sync + 'static> Combiner<V> {
    /// Pre-allocates promises for `workers` contributors over `rounds`
    /// rounds.  All promises are owned by the calling task until the worker
    /// and coordinator roles are transferred at spawn time.
    pub fn new(workers: usize, rounds: usize) -> Self {
        assert!(workers > 0, "a combiner needs at least one worker");
        let contributions = (0..rounds)
            .map(|r| {
                (0..workers)
                    .map(|i| named(|| format!("contrib[r{r},w{i}]")))
                    .collect()
            })
            .collect();
        let results = (0..rounds)
            .map(|r| named(|| format!("combined[r{r}]")))
            .collect();
        Combiner {
            state: Arc::new(CombinerState {
                contributions,
                results,
                workers,
            }),
        }
    }

    /// Number of contributing workers.
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// Number of pre-allocated rounds.
    pub fn rounds(&self) -> usize {
        self.state.results.len()
    }

    /// The transferable role of worker `index` (owns that worker's
    /// contribution promise in every round).
    pub fn worker(&self, index: usize) -> CombinerWorker<V> {
        assert!(index < self.state.workers, "worker index out of range");
        CombinerWorker {
            combiner: self.clone(),
            index,
        }
    }

    /// The transferable coordinator role (owns every per-round result
    /// promise).
    pub fn coordinator(&self) -> CombinerCoordinator<V> {
        CombinerCoordinator {
            combiner: self.clone(),
        }
    }
}

/// The contributing-worker role of a [`Combiner`].
pub struct CombinerWorker<V: Clone + Send + Sync + 'static> {
    combiner: Combiner<V>,
    index: usize,
}

impl<V: Clone + Send + Sync + 'static> Clone for CombinerWorker<V> {
    fn clone(&self) -> Self {
        CombinerWorker {
            combiner: self.combiner.clone(),
            index: self.index,
        }
    }
}

impl<V: Clone + Send + Sync + 'static> CombinerWorker<V> {
    /// This worker's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Publishes this worker's contribution for `round`.
    pub fn contribute(&self, round: usize, value: V) -> Result<(), PromiseError> {
        self.combiner.state.contributions[round][self.index].set(value)
    }

    /// Waits for the coordinator's combined result of `round`.
    pub fn wait_result(&self, round: usize) -> Result<V, PromiseError> {
        self.combiner.state.results[round].get()
    }

    /// Convenience: contribute and then wait for the combined result.
    pub fn contribute_and_wait(&self, round: usize, value: V) -> Result<V, PromiseError> {
        self.contribute(round, value)?;
        self.wait_result(round)
    }
}

impl<V: Clone + Send + Sync + 'static> PromiseCollection for CombinerWorker<V> {
    fn append_promises(&self, out: &mut TransferList) {
        for row in &self.combiner.state.contributions {
            out.push(row[self.index].as_erased());
        }
    }
}

/// The coordinator role of a [`Combiner`].
pub struct CombinerCoordinator<V: Clone + Send + Sync + 'static> {
    combiner: Combiner<V>,
}

impl<V: Clone + Send + Sync + 'static> Clone for CombinerCoordinator<V> {
    fn clone(&self) -> Self {
        CombinerCoordinator {
            combiner: self.combiner.clone(),
        }
    }
}

impl<V: Clone + Send + Sync + 'static> CombinerCoordinator<V> {
    /// Collects every worker's contribution for `round` (all-to-one).
    pub fn collect(&self, round: usize) -> Result<Vec<V>, PromiseError> {
        self.combiner.state.contributions[round]
            .iter()
            .map(|p| p.get())
            .collect()
    }

    /// Publishes the combined result for `round` (broadcast).
    pub fn publish(&self, round: usize, value: V) -> Result<(), PromiseError> {
        self.combiner.state.results[round].set(value)
    }

    /// Collects all contributions, folds them with `combine`, publishes the
    /// result and returns it.
    pub fn combine_round(
        &self,
        round: usize,
        combine: impl FnOnce(Vec<V>) -> V,
    ) -> Result<V, PromiseError> {
        let inputs = self.collect(round)?;
        let combined = combine(inputs);
        self.publish(round, combined.clone())?;
        Ok(combined)
    }
}

impl<V: Clone + Send + Sync + 'static> PromiseCollection for CombinerCoordinator<V> {
    fn append_promises(&self, out: &mut TransferList) {
        for p in &self.combiner.state.results {
            out.push(p.as_erased());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promise_runtime::{spawn_named, Runtime};

    #[test]
    fn workers_contribute_and_receive_the_combined_sum() {
        let rt = Runtime::new();
        let n = 4;
        let rounds = 5;
        rt.block_on(|| {
            let combiner = Combiner::<u64>::new(n, rounds);
            assert_eq!(combiner.workers(), n);
            assert_eq!(combiner.rounds(), rounds);

            // Coordinator task.
            let coord = combiner.coordinator();
            let coord_handle = spawn_named("coordinator", coord.clone(), move || {
                for r in 0..rounds {
                    coord.combine_round(r, |vs| vs.into_iter().sum()).unwrap();
                }
            });

            // Worker tasks.
            let mut handles = Vec::new();
            for i in 0..n {
                let w = combiner.worker(i);
                handles.push(spawn_named(&format!("worker-{i}"), w.clone(), move || {
                    let mut results = Vec::new();
                    for r in 0..rounds {
                        let contribution = (r as u64 + 1) * (i as u64 + 1);
                        results.push(w.contribute_and_wait(r, contribution).unwrap());
                    }
                    results
                }));
            }

            let expected: Vec<u64> = (0..rounds)
                .map(|r| (0..n).map(|i| (r as u64 + 1) * (i as u64 + 1)).sum())
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
            coord_handle.join().unwrap();
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn dead_coordinator_is_blamed_and_workers_unblock() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let combiner = Combiner::<u32>::new(2, 1);
            let coord = combiner.coordinator();
            let coord_handle = spawn_named("flaky-coordinator", coord.clone(), move || {
                let _ = coord.collect(0).unwrap();
                // dies before publishing the combined result
                panic!("coordinator crash");
            });
            let mut worker_handles = Vec::new();
            for i in 0..2 {
                let w = combiner.worker(i);
                worker_handles.push(spawn_named(&format!("w{i}"), w.clone(), move || {
                    w.contribute_and_wait(0, i as u32)
                }));
            }
            assert!(coord_handle.join().is_err());
            for h in worker_handles {
                let inner = h.join().unwrap();
                assert!(
                    inner.is_err(),
                    "workers must observe the coordinator's failure"
                );
            }
        })
        .unwrap();
        assert!(rt.context().alarm_count() >= 1);
    }

    #[test]
    fn all_to_one_uses_linearly_many_promise_operations() {
        let rt = Runtime::new();
        let n = 8;
        rt.block_on(|| {
            let combiner = Combiner::<u32>::new(n, 1);
            let coord = combiner.coordinator();
            let coord_handle = spawn_named("coordinator", coord.clone(), move || {
                coord.combine_round(0, |vs| vs.iter().sum()).unwrap()
            });
            let mut handles = Vec::new();
            for i in 0..n {
                let w = combiner.worker(i);
                handles.push(spawn_named(&format!("w{i}"), w.clone(), move || {
                    w.contribute_and_wait(0, 1).unwrap()
                }));
            }
            for h in handles {
                assert_eq!(h.join().unwrap(), n as u32);
            }
            assert_eq!(coord_handle.join().unwrap(), n as u32);
        })
        .unwrap();
        let snap = rt.context().counter_snapshot();
        // n contributions + 1 combined result per round, plus completion
        // promises: far fewer than the n² of an all-to-all exchange.
        assert!(snap.sets <= (2 * n + 4) as u64);
    }
}
