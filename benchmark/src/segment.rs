//! One *segment*: fresh runtime, warm-ups, a timed closed loop of
//! iterations, shutdown.  The end-to-end run and the traced run are both
//! made of segments; a *memory* segment is the same loop with the counting
//! allocator switched on and the live heap sampled.

use std::time::{Duration, Instant};

use promise_core::VerificationMode;
use promise_runtime::{PoolStats, Runtime};

use crate::alloc::{self, AllocSnapshot, HeapSampler};
use crate::spans::HarnessSpan;
use crate::stats;
use crate::workloads::{build_runtime, Case, Checked, Iteration, Oracle};

/// Warm-up iterations after every runtime build: they grow the worker pool
/// and fill the arenas, magazines and job blocks, so timed iterations see
/// the steady state a long-lived service would.
pub const WARMUPS: usize = 3;

/// Running totals of checked operations over a whole run (warm-ups
/// included: their outputs are checked too).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// Set when the thread-growth guard stopped the workload.
    pub stopped: bool,
}

impl Tally {
    pub fn add(&mut self, checked: &Checked) {
        self.attempted += checked.attempted;
        self.failed += checked.failed;
        if let Some(why) = &checked.reason {
            if self.reasons.len() < 5 {
                self.reasons.push(why.clone());
            }
        }
        self.stopped |= checked.stop;
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub struct SegmentSpec<'a> {
    /// Names the segment's span, the parent of the spans inside it.
    pub pass: &'static str,
    pub case: &'a Case,
    pub mode: VerificationMode,
    pub oracle: &'a Oracle,
    pub budget: Duration,
    pub warmups: usize,
    pub min_iterations: usize,
    /// Measured iteration `k` runs generated input `first_input + k` (and
    /// warm-up `w` input `first_input + w`): which inputs a segment measures
    /// never depends on how long anything took.
    pub first_input: usize,
    /// The measured loop ends only on a multiple of this many iterations.
    /// Passing the workload's number of inputs makes every input count
    /// equally often in the segment's figures; 1 asks for nothing.
    pub rotation: usize,
    /// Count allocations and sample the live heap over the measured
    /// iterations (never together with timing that is reported).
    pub memory: bool,
}

pub struct Segment {
    /// Runtime build plus the warm-ups: what a user waits before the first
    /// steady-state iteration.
    pub setup_s: f64,
    pub build_ms: f64,
    pub reclaim_ms: f64,
    pub shutdown_ms: f64,
    pub iterations: Vec<Iteration>,
    /// Per measured iteration, when `memory`.
    pub allocs: Vec<AllocSnapshot>,
    pub heap_avg_mb: f64,
    pub heap_samples: u64,
    /// Process CPU time per measured iteration.
    pub cpu_ms_per_iter: f64,
    /// Scheduler totals when the last iteration returned.
    pub pool: PoolStats,
    pub spans: Vec<HarnessSpan>,
}

impl Segment {
    pub fn walls_ms(&self) -> Vec<f64> {
        self.iterations
            .iter()
            .map(|i| i.wall.as_secs_f64() * 1e3)
            .collect()
    }
}

/// `f` per iteration over memory segments of whole rotations of `inputs`
/// generated inputs: for each input the median over every counted iteration
/// that ran it, then the mean over the inputs.  The median, because an
/// iteration in which the worker pool grew allocates up to a sixth more than
/// its input otherwise does; the mean, so that every input weighs the same.
pub fn allocs_per_iter(segments: &[Segment], inputs: usize, f: fn(&AllocSnapshot) -> u64) -> f64 {
    let counted: Vec<&[AllocSnapshot]> = segments.iter().map(|s| s.allocs.as_slice()).collect();
    mean_of_input_medians(&counted, inputs, f)
}

fn mean_of_input_medians(
    counted: &[&[AllocSnapshot]],
    inputs: usize,
    f: fn(&AllocSnapshot) -> u64,
) -> f64 {
    let per_input = (0..inputs).map(|input| {
        let counts: Vec<f64> = counted
            .iter()
            .flat_map(|s| s.iter().skip(input).step_by(inputs))
            .map(|a| f(a) as f64)
            .collect();
        stats::median(&counts)
    });
    per_input.sum::<f64>() / inputs as f64
}

/// Runs one segment.  Exactly one runtime is alive while it runs and none
/// when it returns.
pub fn run_segment(spec: &SegmentSpec<'_>, tally: &mut Tally, clock: Instant) -> Segment {
    let case = spec.case;
    let mut spans = Vec::new();
    // Records the span from `start` to now and returns its length in ms.
    let mut span = |name: &'static str, layer: &'static str, start: Instant| -> f64 {
        let s = HarnessSpan::since(name, layer, Some(spec.pass), clock, start);
        let ms = s.ms();
        spans.push(s);
        ms
    };
    if spec.memory {
        alloc::start_counting();
    }
    let setup_start = Instant::now();
    let rt: Option<Runtime> = case
        .workload
        .uses_harness_runtime()
        .then(|| build_runtime(spec.mode, false));
    let build_ms = span("runtime.build", "runtime", setup_start);
    let warm_start = Instant::now();
    for w in 0..spec.warmups {
        if tally.stopped {
            break;
        }
        tally.add(
            &case
                .iterate(rt.as_ref(), spec.first_input + w, spec.oracle)
                .checked,
        );
    }
    span("harness.warmup", "harness", warm_start);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let sampler = spec.memory.then(HeapSampler::start);
    let cpu_before = process_cpu_ms();
    let loop_start = Instant::now();
    let mut iterations = Vec::new();
    let mut allocs = Vec::new();
    while !tally.stopped
        && (iterations.len() < spec.min_iterations
            || loop_start.elapsed() < spec.budget
            || iterations.len() % spec.rotation != 0)
    {
        let before = alloc::snapshot();
        let input = spec.first_input + iterations.len();
        let it = case.iterate(rt.as_ref(), input, spec.oracle);
        let after = alloc::snapshot();
        tally.add(&it.checked);
        if spec.memory {
            allocs.push(after.since(&before));
        }
        iterations.push(it);
    }
    span("harness.measure", "harness", loop_start);
    let cpu_ms_per_iter = (process_cpu_ms() - cpu_before) / iterations.len().max(1) as f64;
    let (heap_avg_mb, heap_samples) = sampler.map(HeapSampler::stop).unwrap_or((0.0, 0));

    let mut pool = PoolStats::default();
    let (mut reclaim_ms, mut shutdown_ms) = (0.0, 0.0);
    if let Some(rt) = rt {
        pool = rt.pool_stats();
        let t = Instant::now();
        rt.reclaim_memory();
        reclaim_ms = span("runtime.reclaim", "runtime", t);
        let t = Instant::now();
        rt.shutdown();
        shutdown_ms = span("runtime.shutdown", "runtime", t);
    }
    if spec.memory {
        alloc::stop_counting();
    }
    spans.push(HarnessSpan::since(
        spec.pass,
        "harness",
        None,
        clock,
        setup_start,
    ));
    Segment {
        setup_s,
        build_ms,
        reclaim_ms,
        shutdown_ms,
        iterations,
        allocs,
        heap_avg_mb,
        heap_samples,
        cpu_ms_per_iter,
        pool,
        spans,
    }
}

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 10 ms).
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(allocations: &[u64]) -> Vec<AllocSnapshot> {
        allocations
            .iter()
            .map(|&allocations| AllocSnapshot {
                allocations,
                bytes_requested: 0,
            })
            .collect()
    }

    #[test]
    fn allocations_are_a_median_per_input_and_a_mean_over_inputs() {
        // Two inputs, three segments of one rotation each; the pool grew
        // during one iteration of input 0.
        let segments = [
            counted(&[100, 200]),
            counted(&[160, 202]),
            counted(&[102, 198]),
        ];
        let slices: Vec<&[AllocSnapshot]> = segments.iter().map(Vec::as_slice).collect();
        let per_iter = mean_of_input_medians(&slices, 2, |a| a.allocations);
        assert_eq!(per_iter, (102.0 + 200.0) / 2.0);
        // One input: the median over every counted iteration.
        let one = [counted(&[5, 9, 6])];
        let slices: Vec<&[AllocSnapshot]> = one.iter().map(Vec::as_slice).collect();
        assert_eq!(mean_of_input_medians(&slices, 1, |a| a.allocations), 6.0);
    }
}
