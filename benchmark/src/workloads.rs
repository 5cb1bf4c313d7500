//! The five pinned workloads: literal sizes, one iteration, and the check
//! that says whether the iteration's output is correct.
//!
//! Sizes are literal values on purpose (not `for_scale` presets): a preset
//! retuned elsewhere must not silently change what this benchmark measures.

use std::time::Duration;

use promise_core::VerificationMode;
use promise_runtime::{DetectionStats, RunMetrics, Runtime};
use promise_workloads::{chaos, churn, heat, randomized, sieve};

/// Worker threads past which a workload is stopped and counted as failed,
/// so thread growth ends in a message instead of `EAGAIN`.
pub const PEAK_WORKERS_GUARD: usize = 20_000;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Sieve,
    Heat,
    Randomized,
    Churn,
    Chaos,
}

pub const ALL: [Workload; 5] = [
    Workload::Sieve,
    Workload::Heat,
    Workload::Randomized,
    Workload::Churn,
    Workload::Chaos,
];

/// `Pinned` is what `BENCHMARK.json` names; `Smoke` is the same code at
/// tiny sizes for the `smoke` subcommand and the unit tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    Pinned,
    Smoke,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sieve => "sieve",
            Workload::Heat => "heat",
            Workload::Randomized => "randomized",
            Workload::Churn => "churn",
            Workload::Chaos => "chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload runs on the harness's runtime.  `chaos` builds
    /// one runtime per generated program itself and fixes its own mode, so
    /// it has no baseline pass, no counters and no event-log iteration.
    pub fn uses_harness_runtime(self) -> bool {
        self != Workload::Chaos
    }

    /// How many generated inputs the workload rotates through, one per
    /// iteration.  One `--seed` is a sequence of inputs, not one input: from
    /// one generated task tree to the next `randomized` moves by ±15 % in
    /// wall time and ±3 % in bytes allocated, one `chaos` campaign to the
    /// next by ±3.5 % in allocations, and a benchmark that is handed another
    /// seed must still read the same.  `chaos` gets more because its
    /// iterations are short (70 ms against 160 ms).
    pub fn inputs(self) -> usize {
        match self {
            Workload::Randomized => 16,
            Workload::Chaos => 32,
            Workload::Sieve | Workload::Heat | Workload::Churn => 1,
        }
    }
}

/// The checksum a correct iteration returns, per generated input.
pub struct Oracle(Vec<Option<u64>>);

impl Oracle {
    /// For warm-ups at another size: nothing to compare with.
    pub fn unchecked() -> Oracle {
        Oracle(vec![None])
    }

    fn expected(&self, input: usize) -> Option<u64> {
        self.0[input % self.0.len()]
    }
}

/// One workload at one size with its generated parameters.
#[derive(Copy, Clone, Debug)]
pub struct Case {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
}

/// What the check of one iteration found.
#[derive(Clone, Debug, Default)]
pub struct Checked {
    /// Operations attempted: 1, or the number of generated programs.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Why, for the first failure (printed once per run).
    pub reason: Option<String>,
    /// The thread-growth guard tripped: the run must not start another
    /// iteration.
    pub stop: bool,
}

/// One measured iteration.
pub struct Iteration {
    pub metrics: Option<RunMetrics>,
    pub wall: Duration,
    pub detection: Option<DetectionStats>,
    pub checked: Checked,
}

impl Case {
    pub fn new(workload: Workload, size: Size, seed: u64) -> Case {
        Case {
            workload,
            size,
            seed,
        }
    }

    fn sieve(&self) -> sieve::SieveParams {
        sieve::SieveParams {
            limit: match self.size {
                Size::Pinned => 10_000,
                Size::Smoke => 300,
            },
        }
    }

    fn heat(&self) -> heat::HeatParams {
        match self.size {
            Size::Pinned => heat::HeatParams {
                tasks: 160,
                cells_per_task: 200,
                iterations: 400,
                alpha: 0.25,
            },
            Size::Smoke => heat::HeatParams {
                tasks: 8,
                cells_per_task: 32,
                iterations: 20,
                alpha: 0.25,
            },
        }
    }

    /// The seed of generated input `input` (taken modulo the rotation).
    fn plan_seed(&self, input: usize) -> u64 {
        let inputs = self.workload.inputs();
        self.seed
            .wrapping_mul(inputs as u64)
            .wrapping_add((input % inputs) as u64)
    }

    fn randomized(&self, input: usize) -> randomized::RandomizedParams {
        let seed = self.plan_seed(input);
        match self.size {
            Size::Pinned => randomized::RandomizedParams {
                tasks: 2_535,
                promises: 5_000,
                branching: 3,
                await_probability: 0.8,
                work: 2_000,
                seed,
            },
            Size::Smoke => randomized::RandomizedParams {
                tasks: 40,
                promises: 80,
                branching: 3,
                await_probability: 0.8,
                work: 200,
                seed,
            },
        }
    }

    fn churn(&self) -> churn::ChurnParams {
        match self.size {
            Size::Pinned => churn::ChurnParams {
                base_tasks: 20_000,
                waves: 6,
                floor_tasks: 256,
                work: 64,
            },
            Size::Smoke => churn::ChurnParams {
                base_tasks: 512,
                waves: 3,
                floor_tasks: 32,
                work: 16,
            },
        }
    }

    fn chaos(&self, input: usize) -> chaos::ChaosParams {
        chaos::ChaosParams {
            seed: self.plan_seed(input),
            programs: match self.size {
                Size::Pinned => 200,
                Size::Smoke => 12,
            },
        }
    }

    /// The pinned parameters, for the provenance block of every output.
    pub fn params_text(&self) -> String {
        match self.workload {
            Workload::Sieve => format!("{:?}", self.sieve()),
            Workload::Heat => format!("{:?}", self.heat()),
            Workload::Randomized => format!(
                "{:?} and the next {} seeds in rotation",
                self.randomized(0),
                self.workload.inputs() - 1
            ),
            Workload::Churn => format!("{:?}", self.churn()),
            Workload::Chaos => format!(
                "{:?} and the next {} seeds in rotation",
                self.chaos(0),
                self.workload.inputs() - 1
            ),
        }
    }

    /// What correct iterations return.  Sieve and Heat have sequential
    /// oracles; Randomized and Churn are compared with an unverified run of
    /// the same parameters (on a runtime built and shut down here, so only
    /// one runtime is ever alive); Chaos is graded per campaign.
    pub fn oracle(&self) -> Oracle {
        let unverified = |inputs: usize| {
            let rt = build_runtime(VerificationMode::Unverified, false);
            let out = (0..inputs)
                .map(|i| rt.block_on(|| self.run_body(i)).ok())
                .collect();
            rt.shutdown();
            out
        };
        Oracle(match self.workload {
            Workload::Sieve => vec![Some(sieve::run_sequential(&self.sieve()))],
            Workload::Heat => vec![Some(heat::run_sequential(&self.heat()))],
            Workload::Randomized | Workload::Churn => unverified(self.workload.inputs()),
            Workload::Chaos => vec![None],
        })
    }

    fn run_body(&self, input: usize) -> u64 {
        match self.workload {
            Workload::Sieve => sieve::run(&self.sieve()),
            Workload::Heat => heat::run(&self.heat()),
            Workload::Randomized => randomized::run(&self.randomized(input)),
            Workload::Churn => churn::run(&self.churn()),
            Workload::Chaos => chaos::run(&self.chaos(input)),
        }
    }

    /// Runs one iteration as the root task of `rt` (closed loop, one
    /// client: the caller starts the next one when this returns) and checks
    /// its output.  A failure is counted, never panicked.  `input`
    /// selects the generated input.
    pub fn iterate(&self, rt: Option<&Runtime>, input: usize, oracle: &Oracle) -> Iteration {
        if self.workload == Workload::Chaos {
            let start = std::time::Instant::now();
            let _checksum = self.run_body(input);
            let wall = start.elapsed();
            let stats = chaos::take_last_stats();
            let checked = grade_campaign(stats.as_ref(), self.chaos(input).programs as u64);
            return Iteration {
                metrics: None,
                wall,
                detection: stats,
                checked,
            };
        }
        let rt = rt.expect("every workload but chaos runs on the harness's runtime");
        let alarms_before = rt.context().alarm_count();
        let start = std::time::Instant::now();
        let expected = oracle.expected(input);
        let outcome = rt.measure(|| self.run_body(input));
        let fallback_wall = start.elapsed();
        let mut checked = Checked {
            attempted: 1,
            ..Checked::default()
        };
        let mut fail = |why: String| {
            checked.failed = 1;
            checked.reason.get_or_insert(why);
        };
        let (metrics, wall) = match outcome {
            Ok((checksum, metrics)) => {
                if Some(checksum) != expected {
                    fail(format!("checksum {checksum:#x}, expected {expected:x?}"));
                }
                let wall = metrics.wall;
                (Some(metrics), wall)
            }
            Err(e) => {
                fail(format!("root task failed: {e}"));
                (None, fallback_wall)
            }
        };
        let alarms = rt.context().alarm_count() - alarms_before;
        if alarms != 0 {
            fail(format!("{alarms} alarm(s) on a bug-free workload"));
        }
        let peak = rt.pool_stats().peak_workers;
        if peak > PEAK_WORKERS_GUARD {
            fail(format!(
                "peak_workers {peak} passed the guard of {PEAK_WORKERS_GUARD}; workload stopped"
            ));
            checked.stop = true;
        }
        Iteration {
            metrics,
            wall,
            detection: None,
            checked,
        }
    }
}

/// A generated program fails when a planted bug was missed or a false alarm
/// was raised.  The campaign publishes totals, so the count is the number of
/// such events capped at the number of programs.
fn grade_campaign(stats: Option<&DetectionStats>, programs: u64) -> Checked {
    let Some(s) = stats else {
        return Checked {
            attempted: programs,
            failed: programs,
            reason: Some("the campaign published no detection stats".into()),
            stop: false,
        };
    };
    let missed = (s.planted_deadlocks - s.detected_deadlocks.min(s.planted_deadlocks))
        + (s.planted_omitted_sets - s.detected_omitted_sets.min(s.planted_omitted_sets));
    let failed = (missed + s.false_alarms).min(programs);
    Checked {
        attempted: programs,
        failed,
        reason: (failed > 0).then(|| format!("campaign graded: {s}")),
        stop: false,
    }
}

/// The one way this benchmark builds a runtime: the stated mode, workers
/// kept alive for 60 s (so the pool an iteration grew is still there for the
/// next), everything else at its default.
pub fn build_runtime(mode: VerificationMode, event_log: bool) -> Runtime {
    Runtime::builder()
        .verification(mode)
        .worker_keep_alive(Duration::from_secs(60))
        .event_log(event_log)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn a_missed_bug_or_false_alarm_fails_programs_not_the_run() {
        let clean = DetectionStats {
            programs: 10,
            planted_deadlocks: 4,
            detected_deadlocks: 4,
            planted_omitted_sets: 3,
            detected_omitted_sets: 3,
            ..DetectionStats::default()
        };
        let c = grade_campaign(Some(&clean), 10);
        assert_eq!((c.attempted, c.failed), (10, 0));
        let bad = DetectionStats {
            detected_deadlocks: 3,
            false_alarms: 2,
            ..clean
        };
        let c = grade_campaign(Some(&bad), 10);
        assert_eq!((c.attempted, c.failed), (10, 3));
        assert!(c.reason.is_some());
        assert_eq!(grade_campaign(None, 10).failed, 10);
    }

    #[test]
    fn a_seed_is_a_rotation_of_inputs_and_the_oracle_follows_it() {
        let case = Case::new(Workload::Randomized, Size::Smoke, 7);
        let inputs = Workload::Randomized.inputs();
        assert_eq!(case.plan_seed(0), case.plan_seed(inputs));
        assert_ne!(case.plan_seed(0), case.plan_seed(1));
        // Another seed shares no input with this one.
        let other = Case::new(Workload::Randomized, Size::Smoke, 8);
        assert!((0..inputs).all(|i| (0..inputs).all(|j| case.plan_seed(i) != other.plan_seed(j))));
        let oracle = case.oracle();
        let rt = build_runtime(VerificationMode::Full, false);
        for i in 0..inputs + 1 {
            assert_eq!(
                case.iterate(Some(&rt), i, &oracle).checked.failed,
                0,
                "input {i}"
            );
        }
        rt.shutdown();
    }

    #[test]
    fn a_wrong_checksum_is_counted_as_a_failed_operation() {
        let case = Case::new(Workload::Sieve, Size::Smoke, 33);
        let rt = build_runtime(VerificationMode::Full, false);
        assert_eq!(case.iterate(Some(&rt), 0, &case.oracle()).checked.failed, 0);
        let wrong = case.iterate(Some(&rt), 0, &Oracle(vec![Some(1)]));
        assert_eq!((wrong.checked.attempted, wrong.checked.failed), (1, 1));
        rt.shutdown();
    }
}
