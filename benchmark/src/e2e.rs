//! The end-to-end run of one workload: what a user of the verified runtime
//! sees.  Tracing is off and the allocator does not count while anything is
//! timed.
//!
//! A run is a series of *timed segments* (fresh runtime, warm-ups, five
//! timed iterations, shutdown) and then a series of *memory segments* (the
//! same with the allocator counting and the heap sampled, over three
//! iterations or one whole rotation of the generated inputs).  Segments of
//! a fixed, small number of iterations, as many as the run's time allows,
//! because how far a runtime's worker pool grew in its first iterations
//! decides how fast its later ones are and how much heap it holds (one build
//! of `randomized` peaks at 1 800 workers, the next at 3 500): the more
//! builds a run pools, the less one lucky or unlucky pool decides its
//! medians.  (Timed segments of a whole rotation each were tried on
//! `randomized`: half as many builds per run, `wall_ms` no steadier.)
//!
//! Generated inputs are indexed from 0 in each series: the timed series
//! walks the rotation five inputs per segment, and a memory segment counts
//! every input exactly once, so the allocation figures do not depend on how
//! many timed iterations happened to fit.

use std::time::{Duration, Instant};

use promise_core::VerificationMode;

use crate::alloc::AllocSnapshot;
use crate::catalog::Values;
use crate::segment::{allocs_per_iter, run_segment, Segment, SegmentSpec, Tally, WARMUPS};
use crate::stats::{self, Tail};
use crate::workloads::Case;

/// Timed iterations per timed segment, and fewest timed segments per run.
pub const TIMED_ITERATIONS: usize = 5;
pub const MIN_TIMED_SEGMENTS: usize = 3;
/// Fewest counted iterations per memory segment (a workload with generated
/// inputs counts one whole rotation), and fewest memory segments.
pub const MEMORY_ITERATIONS: usize = 3;
pub const MIN_MEMORY_SEGMENTS: usize = 3;
/// Share of the run's time that goes to timed segments; the rest goes to
/// memory segments.
const TIMED_SHARE: f64 = 0.75;

pub struct E2eRun {
    pub values: Values,
    pub tally: Tally,
    /// Wall time of every timed iteration.
    pub walls_ms: Vec<f64>,
    pub tail: Tail,
    pub slowest_ms: f64,
    pub setups_s: Vec<f64>,
    pub timed_segments: usize,
    pub memory_segments: usize,
    /// Iterations per timed and per memory segment.
    pub timed_iterations: usize,
    pub memory_iterations: usize,
    /// Allocations of every counted iteration, in order.
    pub memory_allocs: Vec<f64>,
    pub heap_samples: u64,
    pub peak_workers: usize,
}

/// `seconds` is the wall time the run's segments are given: segments are
/// added to a series until the series has taken its share (but never fewer
/// than the least number, so a slow workload overruns).
pub fn run(case: &Case, seconds: f64) -> E2eRun {
    let clock = Instant::now();
    let oracle = case.oracle();
    let mut tally = Tally::default();
    let mut series = |memory: bool, least: usize, budget_s: f64| -> Vec<Segment> {
        let mut segments: Vec<Segment> = Vec::new();
        let series_start = Instant::now();
        while !tally.stopped
            && (segments.len() < least || series_start.elapsed().as_secs_f64() < budget_s)
        {
            let seg = run_segment(
                &SegmentSpec {
                    pass: if memory { "pass.memory" } else { "pass.timed" },
                    case,
                    mode: VerificationMode::Full,
                    oracle: &oracle,
                    budget: Duration::ZERO,
                    warmups: WARMUPS,
                    min_iterations: if memory {
                        MEMORY_ITERATIONS
                    } else {
                        TIMED_ITERATIONS
                    },
                    first_input: if memory {
                        0
                    } else {
                        segments.len() * TIMED_ITERATIONS
                    },
                    rotation: if memory { case.workload.inputs() } else { 1 },
                    memory,
                },
                &mut tally,
                clock,
            );
            segments.push(seg);
        }
        segments
    };
    let timed = series(false, MIN_TIMED_SEGMENTS, seconds * TIMED_SHARE);
    let memory = series(true, MIN_MEMORY_SEGMENTS, seconds * (1.0 - TIMED_SHARE));

    let walls_ms: Vec<f64> = timed.iter().flat_map(Segment::walls_ms).collect();
    let setups_s: Vec<f64> = timed.iter().map(|s| s.setup_s).collect();
    // Per iteration, so that one stalled iteration (seen on `randomized`:
    // 10 s against a median of 0.17 s) is one sample, not a tenth of the
    // run's time.  With one client this is the reciprocal view of `wall_ms`,
    // in operations (for `chaos`, generated programs).
    let throughputs: Vec<f64> = timed
        .iter()
        .flat_map(|s| &s.iterations)
        .map(|i| (i.checked.attempted - i.checked.failed) as f64 / i.wall.as_secs_f64().max(1e-9))
        .collect();
    let per_iter = |f: fn(&AllocSnapshot) -> u64| -> f64 {
        allocs_per_iter(&memory, case.workload.inputs(), f)
    };
    let heaps: Vec<f64> = memory.iter().map(|s| s.heap_avg_mb).collect();

    let mut values = Values::default();
    values.set("setup_s", stats::median(&setups_s));
    values.set("wall_ms", stats::median(&walls_ms));
    values.set("allocs_per_iter", per_iter(|a| a.allocations));
    values.set(
        "alloc_kb_per_iter",
        per_iter(|a| a.bytes_requested) / 1024.0,
    );
    values.set("heap_avg_mb", stats::median(&heaps));
    values.set("ops_per_s", stats::median(&throughputs));
    E2eRun {
        values,
        tally,
        tail: stats::tail(&walls_ms),
        slowest_ms: walls_ms.iter().copied().fold(0.0, f64::max),
        walls_ms,
        setups_s,
        timed_segments: timed.len(),
        memory_segments: memory.len(),
        timed_iterations: timed.first().map_or(0, |s| s.iterations.len()),
        memory_iterations: memory.first().map_or(0, |s| s.iterations.len()),
        memory_allocs: memory
            .iter()
            .flat_map(|s| s.allocs.iter().map(|a| a.allocations as f64))
            .collect(),
        heap_samples: memory.iter().map(|s| s.heap_samples).sum(),
        peak_workers: timed.iter().map(|s| s.pool.peak_workers).max().unwrap_or(0),
    }
}
