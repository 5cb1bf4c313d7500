//! The traced run of one workload: every per-layer metric, from outside.
//!
//! Passes, in order (one runtime alive at a time):
//!
//! 0. the probe suite ([`crate::probes`]).
//! 1. `pass.verified` — a timed verified segment; per-iteration counter,
//!    scheduler and arena deltas come from it, and its wall-time median is
//!    the base of every ratio below.
//! 2. `pass.verified_memory`, 3. `pass.baseline`, 4. `pass.baseline_memory` —
//!    the paper's Table 1 columns (unverified against verified time,
//!    allocations and heap).
//! 5. `pass.event_log` — one iteration on a fresh runtime with the public
//!    event log on, from which task, queue and get spans are derived; its
//!    wall time against pass 1's median is the price of the log.
//!
//! `chaos` runs its campaign in place of 1–2 and has no 3, 4 or 5.
//!
//! Every pass starts at generated input 0 and measures whole rotations of
//! the inputs, so the verified and the unverified side of each ratio ran the
//! same task trees equally often; the logged iteration runs input 0 and is
//! compared with the untraced iterations of input 0.

use std::io::Write as _;
use std::time::{Duration, Instant};

use promise_core::VerificationMode;
use promise_runtime::{DetectionStats, PoolStats, RunMetrics};

use crate::catalog::{Values, PER_LAYER};
use crate::probes::{self, Probes};
use crate::report;
use crate::segment::{allocs_per_iter, run_segment, Segment, SegmentSpec, Tally, WARMUPS};
use crate::spans::{self, Derived, Event, HarnessSpan};
use crate::stats;
use crate::workloads::{build_runtime, Case, Oracle, Size};

/// Iterations the shorter passes of the traced run time at least.
const MIN_ITERATIONS: usize = 3;

pub struct TracedRun {
    pub values: Values,
    pub tally: Tally,
    pub trace_path: std::path::PathBuf,
    pub spans_written: usize,
}

fn medians<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Median of the differences between consecutive readings of a running
/// total.
fn median_step(totals: &[f64]) -> f64 {
    stats::median(&totals.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(case: &Case, seconds: f64) -> std::io::Result<TracedRun> {
    let clock = Instant::now();
    let mut tally = Tally::default();
    let mut values = Values::default();
    let mut harness_spans: Vec<HarnessSpan> = Vec::new();
    // First, while worker slot ids are still dense from 0: a thread that
    // registers after a runtime grew past 256 workers gets an untracked slot
    // and no magazine, and the arena and job probes would time the shared
    // fallback path instead (60 ns against 11 ns).
    let probe_start = Instant::now();
    let probes = probes::run_all();
    harness_spans.push(HarnessSpan::since(
        "pass.probes",
        "harness",
        None,
        clock,
        probe_start,
    ));
    probe_values(&mut values, &probes);

    let oracle = case.oracle();

    let mut pass = |name: &'static str,
                    mode: VerificationMode,
                    share: f64,
                    memory: bool,
                    tally: &mut Tally|
     -> Segment {
        let mut seg = run_segment(
            &SegmentSpec {
                pass: name,
                case,
                mode,
                oracle: &oracle,
                budget: Duration::from_secs_f64(seconds * share),
                warmups: if memory { 1 } else { WARMUPS },
                min_iterations: MIN_ITERATIONS,
                first_input: 0,
                rotation: case.workload.inputs(),
                memory,
            },
            tally,
            clock,
        );
        harness_spans.append(&mut seg.spans);
        seg
    };

    // Chaos has no baseline pass; its campaign gets that time too.
    let verified_share = if case.workload.uses_harness_runtime() {
        3.0 / 16.0
    } else {
        8.0 / 16.0
    };
    let verified = pass(
        "pass.verified",
        VerificationMode::Full,
        verified_share,
        false,
        &mut tally,
    );
    values.set("harness.rss_peak_mb", report::rss_peak_mb());
    let verified_mem = pass(
        "pass.verified_memory",
        VerificationMode::Full,
        1.0 / 16.0,
        true,
        &mut tally,
    );
    let walls = verified.walls_ms();
    let wall_ms = stats::median(&walls);
    let (q1, q3) = stats::quartiles(&walls);
    let tail = stats::tail(&walls);
    values.set("harness.iterations", walls.len() as f64);
    values.set("harness.wall_tail_ms", tail.value);
    values.set("harness.wall_tail_pct", tail.pct);
    values.set("harness.wall_iqr_ms", q3 - q1);
    values.set("harness.cpu_ms", verified.cpu_ms_per_iter);
    let allocs_of = |seg: &Segment| {
        allocs_per_iter(std::slice::from_ref(seg), case.workload.inputs(), |a| {
            a.allocations
        })
    };
    let allocs = allocs_of(&verified_mem);

    let runs: Vec<&RunMetrics> = verified
        .iterations
        .iter()
        .filter_map(|i| i.metrics.as_ref())
        .collect();
    counters(&mut values, &runs, &verified.pool);
    values.set("runtime.build_ms", verified.build_ms);
    values.set("runtime.shutdown_ms", verified.shutdown_ms);
    values.set("runtime.reclaim_ms", verified.reclaim_ms);
    let detections: Vec<&DetectionStats> = verified
        .iterations
        .iter()
        .filter_map(|i| i.detection.as_ref())
        .collect();
    if !detections.is_empty() {
        values.set(
            "detector.alarm_p50_us",
            medians(&detections, |d| d.latency_p50_ns as f64 / 1e3),
        );
        values.set(
            "detector.alarm_p99_us",
            medians(&detections, |d| d.latency_p99_ns as f64 / 1e3),
        );
        values.set("detector.recall", medians(&detections, |d| d.recall()));
        values.set(
            "detector.false_alarms",
            detections.iter().map(|d| d.false_alarms as f64).sum(),
        );
    }

    let mut baseline_wall_ms = 0.0;
    if case.workload.uses_harness_runtime() {
        let mode = VerificationMode::Unverified;
        let baseline = pass("pass.baseline", mode, 5.0 / 16.0, false, &mut tally);
        let baseline_mem = pass("pass.baseline_memory", mode, 1.0 / 16.0, true, &mut tally);
        baseline_wall_ms = stats::median(&baseline.walls_ms());
        let base_allocs = allocs_of(&baseline_mem);
        values.set("harness.baseline_wall_ms", baseline_wall_ms);
        values.set("harness.baseline_allocs_per_iter", base_allocs);
        values.set("harness.baseline_heap_avg_mb", baseline_mem.heap_avg_mb);
        values.set(
            "harness.time_overhead_ratio",
            ratio(wall_ms, baseline_wall_ms),
        );
        values.set("harness.alloc_overhead_ratio", ratio(allocs, base_allocs));
        values.set(
            "harness.mem_overhead_ratio",
            ratio(verified_mem.heap_avg_mb, baseline_mem.heap_avg_mb),
        );
    } else {
        // The campaign builds one runtime per generated program where the
        // harness cannot reach; span the same calls on an idle runtime.
        idle_runtime(&mut values, &mut harness_spans, clock);
    }

    let mut logged = None;
    if case.workload.uses_harness_runtime() {
        let l = event_log_pass(case, &oracle, &mut tally, &mut harness_spans, clock);
        let same_input: Vec<f64> = walls
            .iter()
            .copied()
            .step_by(case.workload.inputs())
            .collect();
        values.set(
            "events.on_overhead_ratio",
            ratio(l.wall_ms, stats::median(&same_input)),
        );
        span_values(&mut values, &l.derived);
        model(&mut values, &probes, wall_ms, baseline_wall_ms);
        logged = Some(l);
    }

    std::fs::create_dir_all(report::out_dir())?;
    let trace_path = report::out_dir().join(format!("trace-{}.jsonl", case.workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&trace_path)?);
    writeln!(
        out,
        "{{\"benchmark\": \"traced-run\", \"environment\": {}, \"case\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}}}",
        report::environment_json(),
        report::case_json(case, seconds),
        tally.attempted,
        tally.failed,
        values.to_json(&PER_LAYER)
    )?;
    let mut spans_written = harness_spans.len();
    for s in &harness_spans {
        writeln!(out, "{}", s.to_json())?;
    }
    if let Some(l) = &logged {
        spans_written += l.derived.tasks.len() + l.derived.queues.len();
        for t in &l.derived.tasks {
            writeln!(
                out,
                "{}",
                t.to_json(l.offset_ns, "harness.logged_iteration")
            )?;
        }
        for q in &l.derived.queues {
            writeln!(out, "{}", q.to_json(l.offset_ns))?;
        }
    }
    out.flush()?;
    Ok(TracedRun {
        values,
        tally,
        trace_path,
        spans_written,
    })
}

/// Counter, scheduler and arena metrics of the verified pass: medians of
/// per-iteration deltas where the source is a running total.
fn counters(values: &mut Values, runs: &[&RunMetrics], end: &PoolStats) {
    if runs.is_empty() {
        return;
    }
    let c = |f: fn(&RunMetrics) -> u64| medians(runs, |m| f(m) as f64);
    let steps = c(|m| m.counters.detector_steps);
    let detector_runs = c(|m| m.counters.detector_runs);
    values.set("promise.gets", c(|m| m.counters.gets));
    values.set("promise.sets", c(|m| m.counters.sets));
    values.set("promise.created", c(|m| m.counters.promises_created));
    values.set("ownership.transfers", c(|m| m.counters.transfers));
    values.set("detector.runs", detector_runs);
    values.set("detector.steps", steps);
    values.set("detector.steps_per_run", ratio(steps, detector_runs));
    values.set("spawn.tasks", c(|m| m.counters.tasks_spawned));
    values.set(
        "arena.peak_live_promises",
        c(|m| m.peak_live_promises as u64),
    );
    values.set("arena.peak_live_tasks", c(|m| m.peak_live_tasks as u64));
    let last = runs[runs.len() - 1];
    values.set(
        "arena.resident_kb",
        last.memory.resident_bytes as f64 / 1024.0,
    );
    let totals = |f: fn(&RunMetrics) -> f64| runs.iter().map(|m| f(m)).collect::<Vec<f64>>();
    values.set(
        "arena.freed_kb",
        median_step(&totals(|m| m.memory.bytes_freed as f64)) / 1024.0,
    );
    values.set("scheduler.peak_workers", end.peak_workers as f64);
    values.set("scheduler.threads_started", end.threads_started as f64);
    values.set(
        "scheduler.jobs_executed",
        median_step(&totals(|m| m.pool.jobs_executed as f64)),
    );
    let first = runs[0];
    let executed = (last.pool.jobs_executed - first.pool.jobs_executed) as f64;
    values.set(
        "scheduler.steal_share",
        ratio(
            (last.pool.jobs_stolen - first.pool.jobs_stolen) as f64,
            executed,
        ),
    );
    values.set(
        "scheduler.help_share",
        ratio(
            (last.pool.jobs_helped - first.pool.jobs_helped) as f64,
            executed,
        ),
    );
}

fn idle_runtime(values: &mut Values, spans: &mut Vec<HarnessSpan>, clock: Instant) {
    let mut timed = |name: &'static str, start: Instant| -> f64 {
        let s = HarnessSpan::since(name, "runtime", Some("pass.idle_runtime"), clock, start);
        let ms = s.ms();
        spans.push(s);
        ms
    };
    let pass_start = Instant::now();
    let t = Instant::now();
    let rt = build_runtime(VerificationMode::Full, false);
    values.set("runtime.build_ms", timed("runtime.build", t));
    let t = Instant::now();
    rt.reclaim_memory();
    values.set("runtime.reclaim_ms", timed("runtime.reclaim", t));
    let t = Instant::now();
    rt.shutdown();
    values.set("runtime.shutdown_ms", timed("runtime.shutdown", t));
    spans.push(HarnessSpan::since(
        "pass.idle_runtime",
        "harness",
        None,
        clock,
        pass_start,
    ));
}

fn probe_values(values: &mut Values, p: &Probes) {
    values.set("cell.set_get_ns", p.cell_set_get_ns);
    values.set("cell.get_fulfilled_ns", p.cell_get_fulfilled_ns);
    values.set("promise.create_set_get_ns", p.verified.create_set_get_ns);
    values.set(
        "promise.create_set_get_base_ns",
        p.baseline.create_set_get_ns,
    );
    values.set("channel.send_recv_ns", p.verified.channel_send_recv_ns);
    values.set("channel.send_recv_base_ns", p.baseline.channel_send_recv_ns);
    values.set("channel.allocs_per_msg", p.verified.channel_allocs_per_msg);
    values.set("arena.alloc_free_ns", p.arena_alloc_free_ns);
    values.set(
        "arena.alloc_free_contended_ns",
        p.arena_alloc_free_contended_ns,
    );
    values.set("arena.reclaim_us", p.arena_reclaim_us);
    values.set("epoch.pin_ns", p.epoch_pin_ns);
    values.set("ownership.transfer_ns", p.verified.transfer_ns);
    values.set("ownership.exit_sweep_ns", p.verified.exit_sweep_ns);
    values.set("detector.step_ns", p.detector_step_ns);
    values.set("detector.walk_short_ns", p.detector_walk_short_ns);
    values.set("job.new_run_ns", p.job_new_run_ns);
    values.set("waitq.park_wake_us", p.waitq_park_wake_us);
    values.set("spawn.spawn_join_ns", p.verified.spawn_join_ns);
    values.set("spawn.spawn_join_base_ns", p.baseline.spawn_join_ns);
    values.set("spawn.batch64_ns", p.verified.spawn_batch64_ns);
    values.set("spawn.allocs_per_spawn", p.verified.allocs_per_spawn);
    values.set("scheduler.submit_run_ns", p.scheduler_submit_run_ns);
    values.set("scheduler.submit_batch_ns", p.scheduler_submit_batch_ns);
}

struct Logged {
    wall_ms: f64,
    derived: Derived,
    /// Adds to a log timestamp to put it on the run's clock.
    offset_ns: u64,
}

/// One iteration with the event log on.  The log is append-only, so the
/// runtime is warmed at the smoke size and only records stamped after the
/// pinned iteration began are kept.
fn event_log_pass(
    case: &Case,
    oracle: &Oracle,
    tally: &mut Tally,
    spans: &mut Vec<HarnessSpan>,
    clock: Instant,
) -> Logged {
    let pass_start = Instant::now();
    let rt = build_runtime(VerificationMode::Full, true);
    let warm = Case::new(case.workload, Size::Smoke, case.seed);
    // Checked against nothing: the smoke size only grows the pool.
    let _ = warm.iterate(Some(&rt), 0, &Oracle::unchecked());
    let log = rt
        .context()
        .event_log()
        .expect("the runtime was built with the event log on");
    let offset_ns = (clock.elapsed().as_nanos() as u64).saturating_sub(log.now_ns());
    let begin_ns = log.now_ns();
    let iter_start = Instant::now();
    let it = case.iterate(Some(&rt), 0, oracle);
    spans.push(HarnessSpan::since(
        "harness.logged_iteration",
        "harness",
        Some("pass.event_log"),
        clock,
        iter_start,
    ));
    tally.add(&it.checked);
    let events: Vec<Event> = log
        .snapshot()
        .iter()
        .filter(|r| r.ts_ns >= begin_ns)
        .map(Event::of)
        .collect();
    let derived = spans::derive(&events);
    rt.shutdown();
    spans.push(HarnessSpan::since(
        "pass.event_log",
        "harness",
        None,
        clock,
        pass_start,
    ));
    Logged {
        wall_ms: it.wall.as_secs_f64() * 1e3,
        derived,
        offset_ns,
    }
}

fn span_values(values: &mut Values, d: &Derived) {
    let gets = stats::sorted(&d.get_ns);
    values.set(
        "promise.get_span_p50_ns",
        stats::percentile_sorted(&gets, 50.0),
    );
    values.set(
        "promise.get_span_p99_us",
        stats::percentile_sorted(&gets, 99.0) / 1e3,
    );
    values.set("promise.blocked_ms_total", gets.iter().sum::<f64>() / 1e6);
    let queue = stats::sorted(
        &d.queues
            .iter()
            .map(|q| (q.end_ns - q.start_ns) as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    values.set(
        "scheduler.queue_delay_p50_us",
        stats::percentile_sorted(&queue, 50.0),
    );
    values.set(
        "scheduler.queue_delay_p99_us",
        stats::percentile_sorted(&queue, 99.0),
    );
    values.set(
        "task.run_p50_us",
        medians(&d.tasks, |t| (t.end_ns - t.start_ns) as f64 / 1e3),
    );
    values.set(
        "task.self_ms_total",
        d.tasks.iter().map(|t| t.self_ns as f64).sum::<f64>() / 1e6,
    );
}

/// Predicted verification overhead: each counter times what the probes say
/// one such operation costs verified over unverified.  Terms (ns):
///
/// * promise operations outside spawn/join — a third of
///   gets + sets + creates, less one of each per task (the completion
///   promise, which the spawn term already carries) — at the
///   create-set-get difference;
/// * spawns at the spawn-join difference;
/// * promises moved at spawn at `ownership.transfer_ns`;
/// * ledger entries swept at exit (one per promise created) at
///   `ownership.exit_sweep_ns`;
/// * detector runs at `detector.walk_short_ns` plus steps at
///   `detector.step_ns`.
///
/// The sum is CPU time; on a box with more than one CPU part of it hides
/// behind parallel slack, so `explained_share` can exceed 1.  It is 0 when
/// the measured overhead is not positive (the unverified baseline never
/// helps at blocked joins and loses on fork/join shapes).
fn model(values: &mut Values, p: &Probes, wall_ms: f64, baseline_wall_ms: f64) {
    let v = |name: &str| values.get(name);
    let tasks = v("spawn.tasks");
    let promise_ops =
        ((v("promise.gets") + v("promise.sets") + v("promise.created")) / 3.0 - tasks).max(0.0);
    let d_promise = (p.verified.create_set_get_ns - p.baseline.create_set_get_ns).max(0.0);
    let d_spawn = (p.verified.spawn_join_ns - p.baseline.spawn_join_ns).max(0.0);
    let predicted_ns = promise_ops * d_promise
        + tasks * d_spawn
        + v("ownership.transfers") * p.verified.transfer_ns
        + v("promise.created") * p.verified.exit_sweep_ns
        + v("detector.runs") * p.detector_walk_short_ns
        + v("detector.steps") * p.detector_step_ns;
    let predicted_ms = predicted_ns / 1e6;
    let measured_ms = wall_ms - baseline_wall_ms;
    values.set("model.predicted_overhead_ms", predicted_ms);
    values.set("model.measured_overhead_ms", measured_ms);
    values.set("model.explained_share", ratio(predicted_ms, measured_ms));
}
