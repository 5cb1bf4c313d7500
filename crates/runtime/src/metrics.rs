//! Per-run measurement data.
//!
//! Table 1 of the paper reports, for every benchmark, the baseline execution
//! time, the number of tasks, and the rates of `get` and `set` operations per
//! millisecond.  [`RunMetrics`] carries exactly that information for one
//! measured [`Runtime::measure`](crate::Runtime::measure) call.

use std::time::Duration;

use promise_core::{ArenaMemoryStats, CounterSnapshot};

use promise_core::PoolStats;

/// Measurements of one workload run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Event counts accumulated during the run (tasks, gets, sets, …).
    pub counters: CounterSnapshot,
    /// Thread-pool statistics at the end of the run.
    pub pool: PoolStats,
    /// High-water mark of simultaneously live tasks (0 in baseline mode).
    pub peak_live_tasks: usize,
    /// High-water mark of simultaneously live promises (0 in baseline mode).
    pub peak_live_promises: usize,
    /// Arena memory counters at the end of the run (resident bytes, bytes
    /// freed by chunk reclamation, …).  Like [`RunMetrics::pool`], these
    /// are runtime-lifetime totals, not per-run deltas.
    pub memory: ArenaMemoryStats,
    /// Chaos-verification detection quality, when the run was a chaos
    /// campaign (the `chaos` workload attaches this; plain measured runs
    /// leave it `None`).
    pub detection: Option<DetectionStats>,
}

impl RunMetrics {
    /// Total tasks spawned during the run (including the root task).
    pub fn tasks(&self) -> u64 {
        self.counters.tasks_spawned
    }

    /// Spawns during the run, excluding the root task — the number of trips
    /// through the runtime's spawn fast path.
    pub fn spawns(&self) -> u64 {
        self.counters.tasks_spawned.saturating_sub(1)
    }

    /// Jobs executed after being stolen cross-worker.
    ///
    /// Like [`RunMetrics::pool`] as a whole this is the scheduler-lifetime
    /// total at the end of the run, not a per-run delta (the pool outlives
    /// individual measured runs).
    pub fn steals(&self) -> usize {
        self.pool.jobs_stolen
    }

    /// Jobs run inline by blocked getters instead of parking — steal-to-wait
    /// helping (lifetime total, see [`steals`](Self::steals)).  Helped jobs
    /// are also counted in the pool's `jobs_executed`.
    pub fn helped(&self) -> usize {
        self.pool.jobs_helped
    }

    /// Highest number of simultaneously alive worker threads the scheduler
    /// reached (lifetime high-water mark, see [`steals`](Self::steals)).
    /// The growth rule keeps it at the core count plus the workers that
    /// were blocked at once in promise (or declared) waits; steal-to-wait
    /// helping shrinks the blocked share.
    pub fn peak_threads(&self) -> usize {
        self.pool.peak_workers
    }

    /// Batched submissions accepted by the scheduler (lifetime total, see
    /// [`steals`](Self::steals)).
    pub fn batches(&self) -> usize {
        self.pool.batches_submitted
    }

    /// Jobs that arrived through batched submissions (lifetime total, see
    /// [`steals`](Self::steals)).
    pub fn batched_jobs(&self) -> usize {
        self.pool.jobs_batch_submitted
    }

    /// Tasks whose body panicked during the run.  Each panic was contained
    /// at the task boundary: the worker survived and the task's promises
    /// were settled as `PromiseError::TaskPanicked`.
    pub fn panics(&self) -> u64 {
        self.counters.tasks_panicked
    }

    /// Tasks that exited via cancellation during the run (their obligations
    /// were settled as `PromiseError::Cancelled`, without omitted-set
    /// alarms).
    pub fn cancelled(&self) -> u64 {
        self.counters.tasks_cancelled
    }

    /// Blocking `get`s that returned `PromiseError::Timeout` during the run.
    pub fn timed_out(&self) -> u64 {
        self.counters.gets_timed_out
    }

    /// Average `get` operations per millisecond (Table 1 "Gets/ms").
    pub fn gets_per_ms(&self) -> f64 {
        self.counters.gets_per_ms(self.wall)
    }

    /// Average `set` operations per millisecond (Table 1 "Sets/ms").
    pub fn sets_per_ms(&self) -> f64 {
        self.counters.sets_per_ms(self.wall)
    }

    /// Arena bytes returned to the allocator by chunk reclamation (runtime
    /// lifetime total, see [`RunMetrics::memory`]).
    pub fn arena_bytes_freed(&self) -> u64 {
        self.memory.bytes_freed
    }

    /// Currently resident arena bytes at the end of the run.
    pub fn arena_resident_bytes(&self) -> usize {
        self.memory.resident_bytes
    }
}

/// Detection-quality metrics of a chaos-verification campaign: how well the
/// runtime's online verifier (ownership policy + deadlock detector) recovered
/// bugs that a generator *planted on purpose*, cross-checked against the
/// abstract-machine oracle of `promise-model`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectionStats {
    /// Generated programs executed in the campaign.
    pub programs: u64,
    /// Programs with a planted deadlock cycle.
    pub planted_deadlocks: u64,
    /// Planted deadlocks for which the runtime raised a deadlock alarm.
    pub detected_deadlocks: u64,
    /// Programs with a planted omitted set.
    pub planted_omitted_sets: u64,
    /// Planted omitted sets for which the runtime reported the abandoned
    /// promise.
    pub detected_omitted_sets: u64,
    /// Alarms raised that the oracle says are spurious (Theorem 5.1 predicts
    /// exactly zero).
    pub false_alarms: u64,
    /// Median deadlock-detection latency (cycle-closing `get` recorded →
    /// alarm recorded), in nanoseconds.
    pub latency_p50_ns: u64,
    /// 90th-percentile deadlock-detection latency, in nanoseconds.
    pub latency_p90_ns: u64,
    /// 99th-percentile deadlock-detection latency, in nanoseconds.
    pub latency_p99_ns: u64,
    /// Worst observed deadlock-detection latency, in nanoseconds.
    pub latency_max_ns: u64,
}

impl DetectionStats {
    /// Fraction of planted bugs (deadlocks + omitted sets) the runtime
    /// detected, in `[0, 1]`; `1.0` when nothing was planted.
    pub fn recall(&self) -> f64 {
        let planted = self.planted_deadlocks + self.planted_omitted_sets;
        if planted == 0 {
            return 1.0;
        }
        (self.detected_deadlocks + self.detected_omitted_sets) as f64 / planted as f64
    }

    /// False alarms per executed program, in `[0, 1]`-ish (a program could in
    /// principle raise several).
    pub fn false_alarm_rate(&self) -> f64 {
        if self.programs == 0 {
            return 0.0;
        }
        self.false_alarms as f64 / self.programs as f64
    }
}

impl std::fmt::Display for DetectionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "programs={} recall={:.1}% ({}/{} deadlocks, {}/{} omitted sets) false_alarms={} \
             latency_ns p50={} p90={} p99={} max={}",
            self.programs,
            self.recall() * 100.0,
            self.detected_deadlocks,
            self.planted_deadlocks,
            self.detected_omitted_sets,
            self.planted_omitted_sets,
            self.false_alarms,
            self.latency_p50_ns,
            self.latency_p90_ns,
            self.latency_p99_ns,
            self.latency_max_ns,
        )
    }
}

impl std::fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wall={:.3}s tasks={} gets/ms={:.2} sets/ms={:.2} peak_threads={} steals={} \
             helped={} batched={}",
            self.wall.as_secs_f64(),
            self.tasks(),
            self.gets_per_ms(),
            self.sets_per_ms(),
            self.pool.peak_workers,
            self.steals(),
            self.helped(),
            self.batched_jobs(),
        )
    }
}
