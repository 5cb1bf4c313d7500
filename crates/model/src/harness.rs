//! The chaos-verification harness: run generated programs on the **real**
//! runtime and grade its verifier against the model oracle.
//!
//! For every [`GeneratedProgram`](crate::generator::GeneratedProgram) the
//! harness
//!
//! 1. derives the ground truth twice — from the generator's planting record
//!    *and* by executing the program on the abstract-machine simulator
//!    ([`oracle_outcome`]); the two must agree, so a generator bug cannot
//!    silently miscalibrate the campaign;
//! 2. executes the program on a fresh verified [`Runtime`] with the event
//!    log on and (optionally) the chaos fault-injection layer enabled;
//! 3. compares the runtime's alarms against the oracle: a planted bug that
//!    produced no alarm is a **miss** (recall < 1 — Theorem 5.6 says this
//!    must not happen for deadlocks, rule 3 for omitted sets), an alarm the
//!    oracle cannot justify is a **false alarm** (Theorem 5.1 says zero),
//!    and the racy *duplicate* deadlock alarm of §3.1 is accepted as
//!    correct;
//! 4. extracts the deadlock **detection latency** from the event log: the
//!    time from the cycle-closing `get` being recorded to the first deadlock
//!    alarm being recorded.
//!
//! [`run_batch`] aggregates a whole campaign into a
//! [`DetectionStats`](promise_runtime::DetectionStats) and keeps each
//! program's canonical event log, which the determinism tests compare
//! byte-for-byte across runs.
//!
//! Every program runs with its own fresh runtime, driven from a small pool
//! of reused harness runner threads (capped at four): fresh OS threads are
//! needed at all only because the harness may itself be invoked from inside
//! a task (the `chaos` benchmark workload runs under `Runtime::measure`) and
//! `Runtime::block_on` must not nest on one thread — but a thread per
//! *program* would churn thousands of threads per campaign, so the runners
//! claim program indices from a shared counter instead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use promise_core::{Alarm, ChaosConfig, EventKind, EventRecord, Promise};
use promise_runtime::{spawn_named, DetectionStats, Runtime};

use crate::generator::{generate, GenConfig, GeneratedProgram};
use crate::program::{Instr, Program, PromiseName};
use crate::sim::{SimState, StepResult};

/// Ground truth for one program, derived by running the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Whether the simulated execution raised a deadlock alarm.
    pub deadlock: bool,
    /// Promises reported abandoned by the simulated rule-3 exit checks.
    pub omitted: Vec<PromiseName>,
}

/// Runs the program on the simulator (round-robin over enabled tasks, the
/// detector on) and classifies the outcome.  Planted bugs manifest under
/// *every* schedule, so one representative interleaving suffices as ground
/// truth; determinism of the schedule keeps the oracle itself replayable.
pub fn oracle_outcome(program: &Program) -> OracleOutcome {
    let mut state = SimState::new(program, true);
    let mut steps = 0usize;
    loop {
        let enabled = state.enabled_tasks();
        if enabled.is_empty() {
            break;
        }
        let t = enabled[steps % enabled.len()];
        state.step(t);
        steps += 1;
        assert!(steps < 1_000_000, "runaway oracle simulation");
    }
    let mut deadlock = false;
    let mut omitted = Vec::new();
    for alarm in state.alarms() {
        match alarm {
            StepResult::DeadlockAlarm(_) => deadlock = true,
            StepResult::OmittedSetAlarm(ps) => omitted.extend(ps.iter().copied()),
            StepResult::PolicyViolation(v) => {
                panic!("generated program raised a policy violation: {v}")
            }
            StepResult::Ok => {}
        }
    }
    omitted.sort_unstable();
    OracleOutcome { deadlock, omitted }
}

/// The graded outcome of one program run — pure booleans plus counts, all of
/// which are deterministic for a given `(program, seed)` (unlike latencies
/// or raw event timestamps).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramVerdict {
    /// The program's generator seed.
    pub seed: u64,
    /// A deadlock ring was planted.
    pub deadlock_planted: bool,
    /// The runtime raised at least one deadlock alarm.
    pub deadlock_detected: bool,
    /// An omitted set was planted.
    pub omitted_planted: bool,
    /// The runtime reported the planted promise as abandoned.
    pub omitted_detected: bool,
    /// Alarms the oracle cannot justify (expected: 0, Theorem 5.1).
    pub false_alarms: u64,
}

/// One executed program: verdict, run-specific latency, and the two log
/// exports.
#[derive(Clone, Debug)]
pub struct ProgramRun {
    /// The graded, deterministic outcome.
    pub verdict: ProgramVerdict,
    /// Cycle-closing-`get` → first-deadlock-alarm latency, if a deadlock was
    /// planted and detected (run-specific; not part of the verdict).
    pub deadlock_latency_ns: Option<u64>,
    /// Canonical (schedule-independent) event log, byte-identical across
    /// runs of the same program.
    pub canonical_log: String,
    /// Full event log with timestamps (JSONL, replayable).
    pub full_log: String,
}

/// Serializes a run as a replayable log file: the program header line
/// followed by the full event JSONL (the format `promise-model`'s `replay`
/// binary consumes).
pub fn export_log(gp: &GeneratedProgram, run: &ProgramRun) -> String {
    let mut out = crate::generator::program_to_json(gp);
    out.push('\n');
    out.push_str(&run.full_log);
    out
}

/// Derives the seed of program `index` within a batch (SplitMix64 over the
/// batch seed — programs are independent, reordering-safe, and reproducible
/// individually).
pub fn program_seed(batch_seed: u64, index: u64) -> u64 {
    let mut z = batch_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Executes one generated program on a fresh verified runtime and grades the
/// verifier's alarms against the oracle.
///
/// Panics if the generator's planting record disagrees with the simulator
/// oracle (that would be a harness bug, not a runtime bug).
pub fn run_program(gp: &GeneratedProgram, chaos: Option<ChaosConfig>) -> ProgramRun {
    let oracle = oracle_outcome(&gp.program);
    assert_eq!(
        oracle.deadlock,
        gp.has_deadlock(),
        "generator/oracle deadlock mismatch (seed {:#x})",
        gp.seed
    );
    let planted_omitted: Vec<PromiseName> = gp.omitted.map(|(_, m)| m).into_iter().collect();
    assert_eq!(
        oracle.omitted, planted_omitted,
        "generator/oracle omitted-set mismatch (seed {:#x})",
        gp.seed
    );

    let mut builder = Runtime::builder().event_log(true);
    if let Some(c) = chaos {
        builder = builder.chaos(c);
    }
    let rt = builder.build();
    let ctx = Arc::clone(rt.context());
    execute_on_runtime(&rt, &gp.program);
    // Shutdown waits for every spawned task (blocked tasks resolve: the
    // detector unblocks rings, rule 3 completes abandoned promises), so the
    // alarm list and event log are complete afterwards.
    rt.shutdown();

    let log = ctx.event_log().expect("event log was enabled");
    let events = log.snapshot();
    let canonical_log = log.canonical_jsonl();
    let full_log = log.to_jsonl();

    // Fault-injection awareness: when chaos panics or cancels fired during
    // this program (recorded as `Panic` / `Cancel` events in the full log),
    // grading must not blame the verifier for their side effects.
    //
    // * A task that *panicked* legitimately abandons whatever it still owned
    //   — the resulting omitted-set alarms are justified (the paper's §6.2
    //   abandonment semantics), not false alarms.
    // * A planted bug that goes undetected while faults were flying is
    //   graded as **defused**, not missed: a panic or cancellation can break
    //   the planted ring (a ring task dies before its `get`; its promise
    //   settles exceptionally and wakes the ring) or settle the planted
    //   omission's subtree, so the bug never actually occurred in this
    //   execution.  Defused programs are excluded from the planted counts so
    //   recall measures only bugs that really happened.
    // * Injected faults never *create* cycles, so a deadlock alarm the
    //   oracle cannot justify stays a false alarm even under injection.
    let panicked_tasks: std::collections::HashSet<promise_core::TaskId> = events
        .iter()
        .filter(|e| e.kind == EventKind::Panic)
        .map(|e| e.task)
        .collect();
    let any_fault =
        !panicked_tasks.is_empty() || events.iter().any(|e| e.kind == EventKind::Cancel);

    let mut deadlock_detected = false;
    let mut omitted_detected = false;
    let mut false_alarms = 0u64;
    let planted_name = gp.omitted.map(|(_, m)| format!("p{m}"));
    for alarm in ctx.alarms() {
        match alarm {
            Alarm::Deadlock(_) => {
                if oracle.deadlock {
                    // One or two alarms per cycle are both correct (§3.1).
                    deadlock_detected = true;
                } else {
                    false_alarms += 1;
                }
            }
            Alarm::OmittedSet(report) => {
                let blamed_task_panicked = panicked_tasks.contains(&report.task);
                for abandoned in &report.promises {
                    let name = abandoned.promise_name.as_deref().map(str::to_owned);
                    if name.is_some() && name == planted_name {
                        omitted_detected = true;
                    } else if blamed_task_panicked {
                        // The owner died by (injected) panic: abandoning its
                        // promises is the contained-failure contract working
                        // as designed, not a spurious report.
                    } else {
                        false_alarms += 1;
                    }
                }
                if report.promises.is_empty() {
                    // Count-only ledgers carry no names; grade on planting.
                    if gp.has_omitted() || blamed_task_panicked {
                        omitted_detected = gp.has_omitted();
                    } else {
                        false_alarms += 1;
                    }
                }
            }
            // Stall alarms are heuristic liveness flags from the watchdog
            // (never enabled by this harness); they carry no oracle verdict.
            Alarm::Stall(_) => {}
        }
    }

    // Defusal (see above): a planted bug that did not materialise because a
    // fault rewrote the schedule is dropped from the planted counts.
    let deadlock_planted = gp.has_deadlock() && (deadlock_detected || !any_fault);
    let omitted_planted = gp.has_omitted() && (omitted_detected || !any_fault);

    let deadlock_latency_ns = if deadlock_detected {
        deadlock_latency(&events, gp)
    } else {
        None
    };

    ProgramRun {
        verdict: ProgramVerdict {
            seed: gp.seed,
            deadlock_planted,
            deadlock_detected,
            omitted_planted,
            omitted_detected,
            false_alarms,
        },
        deadlock_latency_ns,
        canonical_log,
        full_log,
    }
}

/// Cycle-closing-`get` → first-deadlock-alarm latency from the event log:
/// the first `alarm` record with kind `deadlock`, minus the latest ring-`get`
/// record at or before it.
fn deadlock_latency(events: &[EventRecord], gp: &GeneratedProgram) -> Option<u64> {
    let alarm_ts = events
        .iter()
        .filter(|e| e.kind == EventKind::Alarm && e.alarm == Some("deadlock"))
        .map(|e| e.ts_ns)
        .min()?;
    let ring_names: Vec<String> = gp.ring_promises.iter().map(|p| format!("p{p}")).collect();
    let closing_get_ts = events
        .iter()
        .filter(|e| e.kind == EventKind::Get && e.ts_ns <= alarm_ts)
        .filter(|e| {
            e.promise_name.as_ref().is_some_and(|n| {
                let name = n.render();
                ring_names.iter().any(|r| **r == *name)
            })
        })
        .map(|e| e.ts_ns)
        .max()?;
    Some(alarm_ts - closing_get_ts)
}

/// Executes the abstract program on the real runtime: the calling thread
/// becomes the root task; promise-op errors (deadlock alarms, omitted-set
/// completions) are swallowed and the body continues, mirroring the
/// simulator's semantics where an alarm advances the program counter.
fn execute_on_runtime(rt: &Runtime, program: &Program) {
    let program = Arc::new(program.clone());
    let registry: Arc<Vec<OnceLock<Promise<u64>>>> =
        Arc::new((0..program.promises).map(|_| OnceLock::new()).collect());
    rt.block_on(|| run_body(0, &program, &registry))
        .expect("root task failed");
}

fn run_body(t: usize, program: &Arc<Program>, registry: &Arc<Vec<OnceLock<Promise<u64>>>>) {
    // Children are joined at the end of the body (after every `set`, so a
    // join can never complete a cycle): each task outlives its subtree,
    // hence the root outlives all tasks and shutdown never races a spawn.
    let mut children = Vec::new();
    for instr in &program.tasks[t] {
        match instr {
            Instr::New(p) => {
                let promise = Promise::<u64>::with_name(&format!("p{p}"));
                registry[*p]
                    .set(promise)
                    .expect("each promise is new-ed once");
            }
            Instr::Set(p) => {
                let promise = registry[*p].get().expect("root allocates before spawns");
                let _ = promise.set(1);
            }
            Instr::Get(p) => {
                let promise = registry[*p].get().expect("root allocates before spawns");
                let _ = promise.get();
            }
            Instr::Async { task, transfers } => {
                let handles: Vec<Promise<u64>> = transfers
                    .iter()
                    .map(|p| {
                        registry[*p]
                            .get()
                            .expect("root allocates before spawns")
                            .clone()
                    })
                    .collect();
                let child = *task;
                let program = Arc::clone(program);
                let registry = Arc::clone(registry);
                children.push(spawn_named(&format!("t{child}"), handles, move || {
                    run_body(child, &program, &registry)
                }));
            }
            Instr::Work => {
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
            }
        }
    }
    for child in children {
        let _ = child.join();
    }
}

/// Configuration of a whole chaos campaign.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Master seed; program `i` uses [`program_seed`]`(seed, i)`.
    pub seed: u64,
    /// Number of programs to generate and run.
    pub programs: usize,
    /// Generator knobs.
    pub gen: GenConfig,
    /// Chaos layer for the executing runtimes (`None` = run without fault
    /// injection; the event log stays on either way).  The per-program chaos
    /// seed is derived from the program seed, so one master seed pins the
    /// whole campaign.
    pub chaos: Option<ChaosConfig>,
    /// Harness worker threads (`0` = automatic).  Each program additionally
    /// grows its own runtime's pool, so this stays small.
    pub threads: usize,
}

impl BatchConfig {
    /// A campaign of `programs` programs from `seed` with full chaos.
    pub fn chaotic(seed: u64, programs: usize) -> BatchConfig {
        BatchConfig {
            seed,
            programs,
            gen: GenConfig::default(),
            chaos: Some(ChaosConfig::from_seed(seed)),
            threads: 0,
        }
    }
}

/// The aggregated result of a campaign.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Recall / false-alarm / latency metrics over the whole campaign.
    pub stats: DetectionStats,
    /// Per-program verdicts, in program order (deterministic per seed).
    pub verdicts: Vec<ProgramVerdict>,
    /// Per-program canonical event logs, in program order (deterministic per
    /// seed — the determinism tests compare these across runs).
    pub canonical_logs: Vec<String>,
}

/// One program's outcome slot: verdict, detection latency, canonical log.
type ProgramSlot = Mutex<Option<(ProgramVerdict, Option<u64>, String)>>;

/// Runs a whole campaign, distributing programs over a few harness threads.
/// Results are keyed by program index, so the outcome is independent of how
/// the programs were interleaved.
pub fn run_batch(config: &BatchConfig) -> BatchResult {
    let n = config.programs;
    let threads = if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .min(4)
    }
    .max(1);

    let next = AtomicUsize::new(0);
    let slots: Vec<ProgramSlot> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let seed = program_seed(config.seed, i as u64);
                let gp = generate(seed, &config.gen);
                let chaos = config.chaos.clone().map(|mut c| {
                    c.seed = program_seed(seed, 0xC4A0_5EED);
                    c
                });
                let run = run_program(&gp, chaos);
                *slots[i].lock().unwrap() =
                    Some((run.verdict, run.deadlock_latency_ns, run.canonical_log));
            });
        }
    });

    let mut stats = DetectionStats {
        programs: n as u64,
        ..DetectionStats::default()
    };
    let mut verdicts = Vec::with_capacity(n);
    let mut canonical_logs = Vec::with_capacity(n);
    let mut latencies = Vec::new();
    for slot in slots {
        let (verdict, latency, canonical) = slot
            .into_inner()
            .unwrap()
            .expect("every program index was claimed");
        stats.planted_deadlocks += u64::from(verdict.deadlock_planted);
        stats.detected_deadlocks +=
            u64::from(verdict.deadlock_planted && verdict.deadlock_detected);
        stats.planted_omitted_sets += u64::from(verdict.omitted_planted);
        stats.detected_omitted_sets +=
            u64::from(verdict.omitted_planted && verdict.omitted_detected);
        stats.false_alarms += verdict.false_alarms;
        if let Some(ns) = latency {
            latencies.push(ns);
        }
        verdicts.push(verdict);
        canonical_logs.push(canonical);
    }
    latencies.sort_unstable();
    if !latencies.is_empty() {
        stats.latency_p50_ns = percentile(&latencies, 50);
        stats.latency_p90_ns = percentile(&latencies, 90);
        stats.latency_p99_ns = percentile(&latencies, 99);
        stats.latency_max_ns = *latencies.last().unwrap();
    }
    BatchResult {
        stats,
        verdicts,
        canonical_logs,
    }
}

/// Nearest-rank percentile over a sorted, non-empty slice.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let idx = (sorted.len() - 1) * pct / 100;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program;

    #[test]
    fn oracle_classifies_the_paper_listings() {
        let o = oracle_outcome(&program::listing1());
        assert!(o.deadlock && o.omitted.is_empty());
        let o = oracle_outcome(&program::listing2());
        assert!(!o.deadlock);
        assert_eq!(o.omitted, vec![1]);
        let o = oracle_outcome(&program::correct_pipeline());
        assert!(!o.deadlock && o.omitted.is_empty());
    }

    #[test]
    fn a_correct_generated_program_runs_clean_on_the_runtime() {
        // Find a seed with no planted bugs.
        let cfg = GenConfig {
            deadlock_percent: 0,
            omitted_percent: 0,
            ..GenConfig::default()
        };
        let gp = generate(7, &cfg);
        let run = run_program(&gp, None);
        assert!(!run.verdict.deadlock_detected);
        assert!(!run.verdict.omitted_detected);
        assert_eq!(run.verdict.false_alarms, 0);
        assert!(!run.canonical_log.is_empty());
    }

    #[test]
    fn planted_bugs_are_detected_with_chaos_enabled() {
        let cfg = GenConfig {
            deadlock_percent: 100,
            omitted_percent: 100,
            ..GenConfig::default()
        };
        let gp = generate(11, &cfg);
        assert!(gp.has_deadlock());
        let run = run_program(&gp, Some(ChaosConfig::from_seed(11)));
        assert!(run.verdict.deadlock_detected, "planted deadlock missed");
        assert_eq!(run.verdict.false_alarms, 0);
        if gp.has_omitted() {
            assert!(run.verdict.omitted_detected, "planted omission missed");
        }
        if run.verdict.deadlock_detected {
            assert!(run.deadlock_latency_ns.is_some(), "latency not measured");
        }
    }

    #[test]
    fn small_batch_has_full_recall_and_no_false_alarms() {
        let result = run_batch(&BatchConfig::chaotic(0xBA7C4, 24));
        assert_eq!(result.stats.programs, 24);
        assert_eq!(result.stats.recall(), 1.0, "stats: {}", result.stats);
        assert_eq!(result.stats.false_alarms, 0, "stats: {}", result.stats);
        assert_eq!(result.verdicts.len(), 24);
        assert_eq!(result.canonical_logs.len(), 24);
    }
}
