//! The sharded global injection queue of the work-stealing scheduler.
//!
//! Tasks submitted from threads that are not scheduler workers (the root
//! task, external callers) land here; workers drain it when their local
//! deque is empty.  The queue is split into [`Injector::shards`] independent
//! FIFO segments, each behind its own cache-padded lock, with pushes spread
//! round-robin: concurrent submitters (and concurrent draining workers) hit
//! different shards and proceed in parallel instead of serialising on one
//! global lock (`GrowingPool`'s single queue is the one-lock design; the
//! pinned `churn` root fan-out is where the difference shows).
//!
//! A shared `len` counter gives workers a cheap is-there-anything-at-all
//! probe so the common empty case costs one atomic load, not a lock sweep.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use promise_core::Job;

pub(crate) struct Injector {
    shards: Box<[CachePadded<Mutex<VecDeque<Job>>>]>,
    /// Round-robin cursor for pushes.
    push_cursor: AtomicUsize,
    /// Total queued jobs across all shards.
    len: AtomicUsize,
}

impl Injector {
    /// Creates an injector with `shards` independent segments (rounded up to
    /// a power of two, minimum 1).
    pub(crate) fn new(shards: usize) -> Injector {
        let n = shards.max(1).next_power_of_two();
        Injector {
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
                .collect(),
            push_cursor: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueues a job on the next shard in round-robin order.
    pub(crate) fn push(&self, job: Job) {
        let mask = self.shards.len() - 1;
        let shard = self.push_cursor.fetch_add(1, Ordering::Relaxed) & mask;
        // Count first so a concurrent `is_empty` probe can never miss a job
        // that is already visible in a shard.
        self.len.fetch_add(1, Ordering::Release);
        self.shards[shard].lock().push_back(job);
    }

    /// Enqueues `job` unless `closed` is set, checking the flag *under the
    /// shard lock*.  A closer that sets the flag and then drains every shard
    /// (also under the shard locks) is thereby race-free against concurrent
    /// pushes: either the drain observes the pushed job, or the pusher
    /// observes the flag and gets the job back — a job can never slip in
    /// after the final drain.
    pub(crate) fn push_unless(
        &self,
        job: Job,
        closed: &std::sync::atomic::AtomicBool,
    ) -> Result<(), Job> {
        let mask = self.shards.len() - 1;
        let shard = self.push_cursor.fetch_add(1, Ordering::Relaxed) & mask;
        let mut queue = self.shards[shard].lock();
        if closed.load(Ordering::SeqCst) {
            return Err(job);
        }
        self.len.fetch_add(1, Ordering::Release);
        queue.push_back(job);
        Ok(())
    }

    /// Enqueues a whole batch on **one** shard under a single lock
    /// acquisition (the push-chain of batched submission), unless `closed`
    /// is set — checked under the shard lock with the same race-freedom
    /// argument as [`push_unless`](Self::push_unless).
    ///
    /// On success the vector is drained; on refusal it is left untouched so
    /// the caller can settle the jobs.  Keeping the batch on one shard
    /// preserves its relative FIFO order and costs one lock instead of N;
    /// different batches still spread round-robin via the shared cursor.
    pub(crate) fn push_chain_unless(
        &self,
        jobs: &mut Vec<Job>,
        closed: &std::sync::atomic::AtomicBool,
    ) -> Result<(), ()> {
        if jobs.is_empty() {
            return Ok(());
        }
        let mask = self.shards.len() - 1;
        let shard = self.push_cursor.fetch_add(1, Ordering::Relaxed) & mask;
        let mut queue = self.shards[shard].lock();
        if closed.load(Ordering::SeqCst) {
            return Err(());
        }
        self.len.fetch_add(jobs.len(), Ordering::Release);
        queue.extend(jobs.drain(..));
        Ok(())
    }

    /// Dequeues one job, scanning shards from `hint` so different workers
    /// start at different shards.
    pub(crate) fn pop(&self, hint: usize) -> Option<Job> {
        if self.is_empty() {
            return None;
        }
        let n = self.shards.len();
        for i in 0..n {
            let shard = &self.shards[(hint + i) & (n - 1)];
            if let Some(job) = shard.lock().pop_front() {
                self.len.fetch_sub(1, Ordering::Release);
                return Some(job);
            }
        }
        None
    }

    /// Removes and returns every queued job, visiting each shard under its
    /// lock (never consulting the `len` fast path, whose relaxed ordering
    /// could miss an in-flight flag-checked push).  Pairs with
    /// [`push_unless`](Self::push_unless): call this after setting the close
    /// flag and no job can remain or arrive afterwards.
    pub(crate) fn drain_locked(&self) -> Vec<Job> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let mut queue = shard.lock();
            if !queue.is_empty() {
                self.len.fetch_sub(queue.len(), Ordering::Release);
                out.extend(queue.drain(..));
            }
        }
        out
    }

    /// Whether any shard holds a job.  May transiently report non-empty for
    /// a job that a concurrent `pop` is about to take; never reports empty
    /// while an unclaimed job is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    /// Total queued jobs (approximate under concurrency).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn round_robin_spreads_and_pop_finds_everything() {
        let inj = Injector::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..17 {
            let hits = Arc::clone(&hits);
            inj.push(Job::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        assert_eq!(inj.len(), 17);
        let mut drained = 0;
        while let Some(job) = inj.pop(drained) {
            job.run();
            drained += 1;
        }
        assert_eq!(drained, 17);
        assert!(inj.is_empty());
        assert_eq!(hits.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn concurrent_push_pop_loses_nothing() {
        let inj = Arc::new(Injector::new(8));
        let produced = 8_000usize;
        let done = Arc::new(AtomicUsize::new(0));
        let pushers: Vec<_> = (0..4)
            .map(|_| {
                let inj = Arc::clone(&inj);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    for _ in 0..produced / 4 {
                        let done = Arc::clone(&done);
                        inj.push(Job::new(move || {
                            done.fetch_add(1, Ordering::Relaxed);
                        }));
                    }
                })
            })
            .collect();
        let poppers: Vec<_> = (0..4)
            .map(|i| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    let mut idle_rounds = 0;
                    while idle_rounds < 1000 {
                        match inj.pop(i * 7) {
                            Some(job) => {
                                job.run();
                                idle_rounds = 0;
                            }
                            None => {
                                idle_rounds += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                })
            })
            .collect();
        for h in pushers {
            h.join().unwrap();
        }
        for h in poppers {
            h.join().unwrap();
        }
        while let Some(job) = inj.pop(0) {
            job.run();
        }
        assert_eq!(done.load(Ordering::Relaxed), produced);
    }

    #[test]
    fn push_chain_lands_on_one_shard_and_respects_the_close_flag() {
        let inj = Injector::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        let closed = std::sync::atomic::AtomicBool::new(false);
        let mut jobs: Vec<Job> = (0..10)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Job::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        inj.push_chain_unless(&mut jobs, &closed).unwrap();
        assert!(jobs.is_empty());
        assert_eq!(inj.len(), 10);
        // One shard holds the whole chain: popping with any hint finds all
        // ten in FIFO order relative to each other.
        let mut drained = 0;
        while let Some(job) = inj.pop(0) {
            job.run();
            drained += 1;
        }
        assert_eq!(drained, 10);
        assert_eq!(hits.load(Ordering::Relaxed), 10);

        closed.store(true, Ordering::SeqCst);
        let mut refused: Vec<Job> = vec![Job::new(|| {})];
        assert!(inj.push_chain_unless(&mut refused, &closed).is_err());
        assert_eq!(refused.len(), 1, "refused jobs are handed back");
        assert!(inj.is_empty());
    }
}
