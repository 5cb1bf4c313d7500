//! # promise-bench
//!
//! The measurement harness that regenerates the paper's evaluation artifacts:
//!
//! * `cargo run -p promise-bench --release --bin table1` — **Table 1**:
//!   per-benchmark baseline execution time, verification time overhead,
//!   baseline memory, memory overhead, task count, gets/ms, sets/ms, and the
//!   geometric-mean overheads.
//! * `cargo run -p promise-bench --release --bin figure1` — **Figure 1**:
//!   per-benchmark mean execution time with a 95 % confidence interval for
//!   the baseline and verified configurations (text chart + CSV).
//! * `cargo run -p promise-bench --release --bin ablation` — the §6.2 / §6.3
//!   design-choice ablations (ledger representation, detection level).
//! * `cargo bench -p promise-bench` — Criterion microbenchmarks: per-workload
//!   baseline-vs-verified timing and the detector's chain-length sweep that
//!   explains the Sieve outlier.
//!
//! This library crate holds the shared harness logic so that the binaries and
//! the Criterion benches stay thin.

#![warn(missing_docs)]

pub mod compare;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use promise_core::{CounterSnapshot, VerificationMode};
use promise_runtime::{DetectionStats, ObserveConfig, RunMetrics, Runtime};
use promise_stats::{geometric_mean, MeasurementProtocol, MemorySampler, Summary, Table};
use promise_workloads::{all_workloads, Scale, Workload};

/// One benchmark's measurements across the two configurations.
#[derive(Clone, Debug)]
pub struct BenchmarkResult {
    /// Benchmark name (Table 1 row label).
    pub name: String,
    /// Whether this row is one of the paper's Table 1 nine (extra workloads
    /// like Churn are excluded from the paper-comparable geomean lines).
    pub table1: bool,
    /// Baseline (unverified) execution-time statistics, seconds.
    pub baseline_time: Summary,
    /// Verified execution-time statistics, seconds.
    pub verified_time: Summary,
    /// Baseline average memory footprint, MB (0 when allocation tracking is
    /// not installed).
    pub baseline_mem_mb: f64,
    /// Verified average memory footprint, MB.
    pub verified_mem_mb: f64,
    /// Total tasks per run (from the verified run; identical in both).
    pub tasks: u64,
    /// Average `get` operations per millisecond of baseline execution.
    pub gets_per_ms: f64,
    /// Average `set` operations per millisecond of baseline execution.
    pub sets_per_ms: f64,
    /// Counter deltas of the last baseline run.
    pub baseline_counters: CounterSnapshot,
    /// Counter deltas of the last verified run (detector runs/steps live
    /// here; they are zero in the baseline).
    pub verified_counters: CounterSnapshot,
    /// Planted-bug campaign metrics, for workloads that run one (the Chaos
    /// workload); `None` for the compute benchmarks.
    pub detection: Option<DetectionStats>,
}

impl BenchmarkResult {
    /// Verified / baseline execution-time ratio (Table 1 "Time Overhead").
    pub fn time_overhead(&self) -> f64 {
        if self.baseline_time.mean == 0.0 {
            f64::NAN
        } else {
            self.verified_time.mean / self.baseline_time.mean
        }
    }

    /// Verified / baseline memory ratio (Table 1 "Memory Overhead").
    pub fn memory_overhead(&self) -> f64 {
        if self.baseline_mem_mb == 0.0 {
            f64::NAN
        } else {
            self.verified_mem_mb / self.baseline_mem_mb
        }
    }
}

/// Process-wide switch: when set (the `--no-help` CLI flag), [`runtime_for`]
/// builds runtimes with steal-to-wait helping disabled
/// (`RuntimeBuilder::help(HelpConfig::disabled())`) — the soak variant that
/// pins the park-always baseline and the `blocked_get_help` bench's
/// off-path parity claim.
pub static HELP_DISABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide observe sink: when set (the `--observe PATH` CLI flag),
/// [`runtime_for`] builds runtimes with the streaming observability plane
/// on, appending JSONL snapshot diffs to `PATH`.  The plane is pull-based —
/// measured hot paths are identical either way — but the sampler thread
/// shares the machine, so Table 1 numbers published for comparison should
/// be taken with it off; the flag exists to watch a long soak live
/// (`tail -f PATH`).
pub static OBSERVE_JSONL: OnceLock<PathBuf> = OnceLock::new();

/// Builds a runtime for one of the two evaluated configurations.
pub fn runtime_for(mode: VerificationMode) -> Runtime {
    let mut builder = Runtime::builder()
        .verification(mode)
        // Keep idle workers around between repeated runs, like the paper's
        // persistent thread pool within one VM instance.
        .worker_keep_alive(Duration::from_secs(2));
    if HELP_DISABLED.load(Ordering::Relaxed) {
        builder = builder.help(promise_runtime::HelpConfig::disabled());
    }
    if let Some(path) = OBSERVE_JSONL.get() {
        builder = builder.observe(ObserveConfig::new().jsonl(path));
    }
    builder.build()
}

/// Runs `workload` once on `rt` and returns its metrics.  Panics if the
/// workload raises an alarm (the evaluation programs are all bug-free).
pub fn run_once(rt: &Runtime, workload: &Workload, scale: Scale) -> RunMetrics {
    let (out, mut metrics) = rt
        .measure(|| workload.run(scale))
        .expect("workload violated the policy");
    assert!(out.checksum != 0, "workload produced an empty checksum");
    assert_eq!(
        rt.context().alarm_count(),
        0,
        "evaluation workloads must not raise alarms ({})",
        workload.name
    );
    // The Chaos workload publishes its campaign's recall/false-alarm/latency
    // stats out of band (its alarms live on inner per-program runtimes, not
    // on the measuring runtime); attach them to this run's metrics.
    metrics.detection = promise_workloads::chaos::take_last_stats();
    metrics
}

/// Measures execution times of `workload` under `mode` according to the
/// protocol.  Returns the per-run seconds and the metrics of the last run.
pub fn measure_time(
    workload: &Workload,
    scale: Scale,
    mode: VerificationMode,
    protocol: &MeasurementProtocol,
) -> (Summary, RunMetrics) {
    let rt = runtime_for(mode);
    let mut last_metrics: Option<RunMetrics> = None;
    let measurements = protocol.run_reported(|_warmup| {
        let metrics = run_once(&rt, workload, scale);
        let secs = metrics.wall.as_secs_f64();
        last_metrics = Some(metrics);
        secs
    });
    (
        measurements.summary(),
        last_metrics.expect("at least one run"),
    )
}

/// Measures the average live-heap footprint of one run of `workload` under
/// `mode`, sampled every 10 ms (requires the binary to install
/// [`promise_stats::CountingAllocator`]).
pub fn measure_memory(workload: &Workload, scale: Scale, mode: VerificationMode) -> f64 {
    let rt = runtime_for(mode);
    // One warm-up to populate pools and lazily allocated structures.
    let _ = run_once(&rt, workload, scale);
    let sampler = MemorySampler::start(Duration::from_millis(10));
    let _ = run_once(&rt, workload, scale);
    let usage = sampler.stop();
    usage.average_mb()
}

/// Runs the full Table 1 measurement for the given workloads.
pub fn run_suite(
    workloads: &[Workload],
    scale: Scale,
    protocol: &MeasurementProtocol,
    measure_mem: bool,
) -> Vec<BenchmarkResult> {
    workloads
        .iter()
        .map(|w| {
            eprintln!(
                "[promise-bench] measuring {} ({} scale)…",
                w.name,
                scale.name()
            );
            let (baseline_time, baseline_metrics) =
                measure_time(w, scale, VerificationMode::Unverified, protocol);
            let (verified_time, verified_metrics) =
                measure_time(w, scale, VerificationMode::Full, protocol);
            let (baseline_mem_mb, verified_mem_mb) = if measure_mem {
                (
                    measure_memory(w, scale, VerificationMode::Unverified),
                    measure_memory(w, scale, VerificationMode::Full),
                )
            } else {
                (0.0, 0.0)
            };
            BenchmarkResult {
                name: w.name.to_string(),
                table1: w.table1,
                baseline_time,
                verified_time,
                baseline_mem_mb,
                verified_mem_mb,
                tasks: verified_metrics.tasks(),
                gets_per_ms: baseline_metrics.gets_per_ms(),
                sets_per_ms: baseline_metrics.sets_per_ms(),
                baseline_counters: baseline_metrics.counters,
                detection: verified_metrics.detection.clone(),
                verified_counters: verified_metrics.counters,
            }
        })
        .collect()
}

/// Renders Table 1 from a set of results.
pub fn render_table1(results: &[BenchmarkResult]) -> String {
    let mut table = Table::new(vec![
        "Benchmark",
        "Baseline (s)",
        "Time Overhead",
        "Baseline (MB)",
        "Mem Overhead",
        "Tasks",
        "Gets/ms",
        "Sets/ms",
    ]);
    for r in results {
        table.add_row(vec![
            r.name.clone(),
            format!("{:.3}", r.baseline_time.mean),
            format!("{:.2}x", r.time_overhead()),
            if r.baseline_mem_mb > 0.0 {
                format!("{:.2}", r.baseline_mem_mb)
            } else {
                "n/a".into()
            },
            if r.baseline_mem_mb > 0.0 {
                format!("{:.2}x", r.memory_overhead())
            } else {
                "n/a".into()
            },
            r.tasks.to_string(),
            format!("{:.2}", r.gets_per_ms),
            format!("{:.2}", r.sets_per_ms),
        ]);
    }
    // Geomeans cover the paper's Table 1 benchmarks only, so the numbers
    // stay comparable to the paper (and to earlier artifacts) even when
    // extra workloads such as Churn ride along in the table above.
    let time_geo = geometric_mean(
        &results
            .iter()
            .filter(|r| r.table1)
            .map(|r| r.time_overhead())
            .collect::<Vec<_>>(),
    );
    let mem_factors: Vec<f64> = results
        .iter()
        .filter(|r| r.table1)
        .map(|r| r.memory_overhead())
        .filter(|v| v.is_finite())
        .collect();
    let mut out = table.render();
    // Detection-campaign rows (the Chaos workload) carry recall/false-alarm/
    // latency metrics that have no column in Table 1; print them as footnotes.
    for r in results {
        if let Some(d) = &r.detection {
            out.push_str(&format!("\n{} detection: {d}\n", r.name));
        }
    }
    out.push_str(&format!(
        "\nGeometric mean time overhead:   {time_geo:.2}x (paper: 1.12x; Table 1 benchmarks only)\n"
    ));
    if !mem_factors.is_empty() {
        out.push_str(&format!(
            "Geometric mean memory overhead: {:.2}x (paper: 1.06x)\n",
            geometric_mean(&mem_factors)
        ));
    } else {
        out.push_str(
            "Geometric mean memory overhead: n/a (run the `table1` binary, which installs the \
             counting allocator)\n",
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_counters(c: &CounterSnapshot) -> String {
    format!(
        "{{\"gets\": {}, \"sets\": {}, \"promises_created\": {}, \"tasks_spawned\": {}, \
         \"transfers\": {}, \"detector_runs\": {}, \"detector_steps\": {}, \
         \"deadlocks_detected\": {}, \"omitted_sets_detected\": {}}}",
        c.gets,
        c.sets,
        c.promises_created,
        c.tasks_spawned,
        c.transfers,
        c.detector_runs,
        c.detector_steps,
        c.deadlocks_detected,
        c.omitted_sets_detected,
    )
}

fn json_summary(s: &Summary) -> String {
    let ci = s.ci95();
    format!(
        "{{\"mean_s\": {}, \"median_s\": {}, \"ci95_low_s\": {}, \"ci95_high_s\": {}, \
         \"runs\": {}}}",
        json_f64(s.mean),
        json_f64(s.median),
        json_f64(ci.low),
        json_f64(ci.high),
        s.count
    )
}

/// Renders the Table 1 results as machine-readable JSON (wall-time summaries
/// plus per-workload counter deltas), so later revisions have a perf
/// trajectory to regress against.  Hand-rolled: the build environment has no
/// registry access for a serde dependency.
pub fn render_table1_json(results: &[BenchmarkResult], scale: Scale, runs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema\": \"promise-bench/table1/v1\",\n  \"scale\": \"{}\",\n  \"runs\": {},\n",
        scale.name(),
        runs
    ));
    // Like the text renderer, the geomean fields cover the Table 1 nine
    // only; per-workload rows (including extras like Churn) carry their own
    // overheads.
    let time_geo = geometric_mean(
        &results
            .iter()
            .filter(|r| r.table1)
            .map(|r| r.time_overhead())
            .collect::<Vec<_>>(),
    );
    out.push_str(&format!(
        "  \"geomean_time_overhead\": {},\n",
        json_f64(time_geo)
    ));
    let mem_factors: Vec<f64> = results
        .iter()
        .filter(|r| r.table1)
        .map(|r| r.memory_overhead())
        .filter(|v| v.is_finite())
        .collect();
    if mem_factors.is_empty() {
        out.push_str("  \"geomean_memory_overhead\": null,\n");
    } else {
        out.push_str(&format!(
            "  \"geomean_memory_overhead\": {},\n",
            json_f64(geometric_mean(&mem_factors))
        ));
    }
    out.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&r.name)));
        out.push_str(&format!("      \"table1\": {},\n", r.table1));
        out.push_str(&format!(
            "      \"baseline_time\": {},\n",
            json_summary(&r.baseline_time)
        ));
        out.push_str(&format!(
            "      \"verified_time\": {},\n",
            json_summary(&r.verified_time)
        ));
        out.push_str(&format!(
            "      \"time_overhead\": {},\n",
            json_f64(r.time_overhead())
        ));
        out.push_str(&format!(
            "      \"baseline_mem_mb\": {},\n",
            json_f64(r.baseline_mem_mb)
        ));
        out.push_str(&format!(
            "      \"verified_mem_mb\": {},\n",
            json_f64(r.verified_mem_mb)
        ));
        out.push_str(&format!("      \"tasks\": {},\n", r.tasks));
        out.push_str(&format!(
            "      \"gets_per_ms\": {},\n",
            json_f64(r.gets_per_ms)
        ));
        out.push_str(&format!(
            "      \"sets_per_ms\": {},\n",
            json_f64(r.sets_per_ms)
        ));
        out.push_str(&format!(
            "      \"baseline_counters\": {},\n",
            json_counters(&r.baseline_counters)
        ));
        out.push_str(&format!(
            "      \"verified_counters\": {}\n",
            json_counters(&r.verified_counters)
        ));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the Figure 1 data: per-benchmark mean execution time with a 95 %
/// confidence interval for both configurations, as a text chart plus CSV.
pub fn render_figure1(results: &[BenchmarkResult]) -> String {
    let mut out = String::new();
    out.push_str("Figure 1: execution times (mean with 95% confidence interval)\n\n");
    let max_time = results
        .iter()
        .map(|r| r.verified_time.mean.max(r.baseline_time.mean))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for r in results {
        for (label, s) in [
            ("baseline", &r.baseline_time),
            ("verified", &r.verified_time),
        ] {
            let ci = s.ci95();
            let width = ((s.mean / max_time) * 50.0).round() as usize;
            out.push_str(&format!(
                "{:<15} {:<9} {:>8.3}s  [{:>8.3}, {:>8.3}]  |{}\n",
                r.name,
                label,
                s.mean,
                ci.low,
                ci.high,
                "#".repeat(width.max(1)),
            ));
        }
        out.push('\n');
    }
    out.push_str("CSV:\nbenchmark,config,mean_s,ci_low_s,ci_high_s,runs\n");
    for r in results {
        for (label, s) in [
            ("baseline", &r.baseline_time),
            ("verified", &r.verified_time),
        ] {
            let ci = s.ci95();
            out.push_str(&format!(
                "{},{},{:.6},{:.6},{:.6},{}\n",
                r.name, label, s.mean, ci.low, ci.high, s.count
            ));
        }
    }
    out
}

/// Command-line options shared by the evaluation binaries.
#[derive(Clone, Debug)]
pub struct CliOptions {
    /// Workload scale preset.
    pub scale: Scale,
    /// Measured runs per configuration.
    pub runs: usize,
    /// Discarded warm-up runs per configuration.
    pub warmups: usize,
    /// Only run benchmarks whose name contains this filter.
    pub filter: Option<String>,
    /// Skip the memory measurement passes.
    pub skip_memory: bool,
    /// Where the Table 1 binary writes its machine-readable results
    /// (`None` disables the JSON artifact).
    pub json_path: Option<String>,
    /// Compare-only mode: `(old, new)` artifact paths.  When set, the
    /// `table1` binary runs no measurements and prints the per-workload
    /// median delta table between the two artifacts instead.
    pub compare: Option<(String, String)>,
    /// Build the measured runtimes with steal-to-wait helping disabled
    /// (see [`HELP_DISABLED`]; helping is on by default).
    pub no_help: bool,
    /// Stream live JSONL metrics snapshots to this path while measuring
    /// (see [`OBSERVE_JSONL`]; off by default).
    pub observe: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: Scale::Default,
            runs: 5,
            warmups: 2,
            filter: None,
            skip_memory: false,
            json_path: Some("BENCH_table1.json".to_string()),
            compare: None,
            no_help: false,
            observe: None,
        }
    }
}

impl CliOptions {
    /// Parses options from `args` (everything after the program name).
    /// Recognised flags: `--scale <smoke|default|stress|paper>`, `--runs N`,
    /// `--warmups N`, `--filter NAME`, `--no-memory`, `--paper-protocol`,
    /// `--json PATH`, `--no-json`, `--compare OLD.json NEW.json`,
    /// `--no-help`, `--observe PATH`.
    pub fn parse(args: &[String]) -> Result<CliOptions, String> {
        let mut opts = CliOptions::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    let v = args.get(i).ok_or("--scale needs a value")?;
                    opts.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
                }
                "--runs" => {
                    i += 1;
                    opts.runs = args
                        .get(i)
                        .ok_or("--runs needs a value")?
                        .parse()
                        .map_err(|_| "--runs needs an integer")?;
                }
                "--warmups" => {
                    i += 1;
                    opts.warmups = args
                        .get(i)
                        .ok_or("--warmups needs a value")?
                        .parse()
                        .map_err(|_| "--warmups needs an integer")?;
                }
                "--filter" => {
                    i += 1;
                    opts.filter = Some(args.get(i).ok_or("--filter needs a value")?.clone());
                }
                "--no-memory" => opts.skip_memory = true,
                "--no-help" => opts.no_help = true,
                "--observe" => {
                    i += 1;
                    opts.observe = Some(args.get(i).ok_or("--observe needs a path")?.clone());
                }
                "--json" => {
                    i += 1;
                    opts.json_path = Some(args.get(i).ok_or("--json needs a path")?.clone());
                }
                "--no-json" => opts.json_path = None,
                "--compare" => {
                    let old = args
                        .get(i + 1)
                        .ok_or("--compare needs two artifact paths (old new)")?
                        .clone();
                    let new = args
                        .get(i + 2)
                        .ok_or("--compare needs two artifact paths (old new)")?
                        .clone();
                    i += 2;
                    opts.compare = Some((old, new));
                }
                "--paper-protocol" => {
                    opts.runs = 30;
                    opts.warmups = 5;
                }
                other => return Err(format!("unknown option `{other}`")),
            }
            i += 1;
        }
        Ok(opts)
    }

    /// The measurement protocol implied by these options.
    pub fn protocol(&self) -> MeasurementProtocol {
        MeasurementProtocol::default()
            .with_warmups(self.warmups)
            .with_runs(self.runs)
    }

    /// The workloads selected by the filter (all nine when unfiltered).
    pub fn workloads(&self) -> Vec<Workload> {
        all_workloads()
            .into_iter()
            .filter(|w| match &self.filter {
                Some(f) => w
                    .name
                    .to_ascii_lowercase()
                    .contains(&f.to_ascii_lowercase()),
                None => true,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parsing_handles_all_flags() {
        let args: Vec<String> = [
            "--scale",
            "smoke",
            "--runs",
            "2",
            "--warmups",
            "0",
            "--filter",
            "heat",
            "--no-memory",
            "--no-help",
            "--observe",
            "feed.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = CliOptions::parse(&args).unwrap();
        assert_eq!(opts.scale, Scale::Smoke);
        assert_eq!(opts.runs, 2);
        assert_eq!(opts.warmups, 0);
        assert!(opts.skip_memory);
        assert!(opts.no_help);
        assert_eq!(opts.observe.as_deref(), Some("feed.jsonl"));
        assert!(CliOptions::parse(&["--observe".to_string()]).is_err());
        assert_eq!(opts.workloads().len(), 1);
        assert_eq!(opts.workloads()[0].name, "Heat");

        assert!(CliOptions::parse(&["--bogus".to_string()]).is_err());
        assert!(CliOptions::parse(&["--scale".to_string(), "warp".to_string()]).is_err());

        let paper = CliOptions::parse(&["--paper-protocol".to_string()]).unwrap();
        assert_eq!(paper.runs, 30);
        assert_eq!(paper.warmups, 5);

        let cmp =
            CliOptions::parse(&["--compare", "old.json", "new.json"].map(String::from)).unwrap();
        assert_eq!(cmp.compare, Some(("old.json".into(), "new.json".into())));
        assert!(
            CliOptions::parse(&["--compare".to_string(), "only-one.json".to_string()]).is_err()
        );
    }

    #[test]
    fn overhead_ratios() {
        let r = BenchmarkResult {
            name: "X".into(),
            table1: true,
            baseline_time: Summary::of(&[1.0, 1.0]),
            verified_time: Summary::of(&[1.2, 1.2]),
            baseline_mem_mb: 100.0,
            verified_mem_mb: 106.0,
            tasks: 10,
            gets_per_ms: 1.0,
            sets_per_ms: 1.0,
            baseline_counters: CounterSnapshot::default(),
            verified_counters: CounterSnapshot::default(),
            detection: None,
        };
        assert!((r.time_overhead() - 1.2).abs() < 1e-9);
        assert!((r.memory_overhead() - 1.06).abs() < 1e-9);
    }

    #[test]
    fn rendering_contains_all_benchmarks_and_geomean() {
        let results: Vec<BenchmarkResult> = ["A", "B"]
            .iter()
            .map(|n| BenchmarkResult {
                name: n.to_string(),
                table1: true,
                baseline_time: Summary::of(&[1.0]),
                verified_time: Summary::of(&[1.1]),
                baseline_mem_mb: 10.0,
                verified_mem_mb: 11.0,
                tasks: 5,
                gets_per_ms: 2.0,
                sets_per_ms: 2.0,
                baseline_counters: CounterSnapshot::default(),
                verified_counters: CounterSnapshot::default(),
                detection: None,
            })
            .collect();
        let t = render_table1(&results);
        assert!(t.contains("A") && t.contains("B"));
        assert!(t.contains("Geometric mean time overhead"));
        let f = render_figure1(&results);
        assert!(f.contains("baseline") && f.contains("verified"));
        assert!(f.contains("CSV:"));

        let j = render_table1_json(&results, Scale::Smoke, 3);
        assert!(j.contains("\"schema\": \"promise-bench/table1/v1\""));
        assert!(j.contains("\"name\": \"A\"") && j.contains("\"name\": \"B\""));
        assert!(j.contains("\"geomean_time_overhead\""));
        assert!(j.contains("\"tasks_spawned\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn end_to_end_smoke_measurement_of_one_workload() {
        let w = promise_workloads::workload_by_name("Heat").unwrap();
        let protocol = MeasurementProtocol {
            warmups: 0,
            runs: 1,
            budget: None,
        };
        let results = run_suite(&[w], Scale::Smoke, &protocol, false);
        assert_eq!(results.len(), 1);
        assert!(results[0].baseline_time.mean > 0.0);
        assert!(results[0].verified_time.mean > 0.0);
        assert!(results[0].tasks > 0);
    }
}
