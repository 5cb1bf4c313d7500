//! Pinned benchmark of the promise runtime: five workloads, end-to-end
//! metrics and an outside-in per-layer trace.  See `README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line is the result
//! benchmark run   [--seed N] [--seconds S]                  end-to-end run of all five
//! benchmark trace [--seed N] [--seconds S]                  traced run of all five
//! benchmark set --out FILE [--seed N] [--seconds S]         five end-to-end runs of each
//! benchmark check-repeat A.json B.json
//! benchmark smoke
//! ```

mod alloc;
mod catalog;
mod e2e;
mod json;
mod probes;
mod repeat;
mod report;
mod segment;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use catalog::{Values, END_TO_END, PER_LAYER};
use segment::Tally;
use workloads::{Case, Size, Workload, ALL};

#[global_allocator]
static ALLOCATOR: alloc::SwitchableCounter = alloc::SwitchableCounter;

/// Measuring time of one run when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;
const DEFAULT_SEED: u64 = 33;
/// End-to-end runs of each workload in a set, the unit `check-repeat`
/// compares.
const SET_RUNS: usize = 5;

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--out" => args.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

/// The result line the driver reads: the last line of standard output.
fn result_line(tally: &Tally, values: &Values, defs: &[catalog::MetricDef]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        values.to_json(defs)
    )
}

fn numbers(values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
    rendered.join(", ")
}

fn print_failures(tally: &Tally) {
    for why in &tally.reasons {
        println!("  FAILED: {why}");
    }
}

/// One end-to-end run: prints every end-to-end metric by name and unit, the
/// failure count, the iteration count and the tail; writes
/// `out/run-<workload>.json`; returns the record and whether it was correct.
fn end_to_end(case: &Case, seconds: f64) -> (String, bool) {
    let run = e2e::run(case, seconds);
    let name = case.workload.name();
    println!(
        "end-to-end run: {name} seed={} {}",
        case.seed,
        case.params_text()
    );
    print!("{}", run.values.to_text(&END_TO_END));
    println!(
        "  {:<36} {:>16.4} ratio ({} of {} operations)",
        "failed_share",
        run.tally.failed_share(),
        run.tally.failed,
        run.tally.attempted
    );
    println!(
        "  iterations={} in {} timed segments of {}; {} memory segments of {} ({} heap samples); \
         wall p{:.1}={:.3} ms, slowest {:.3} ms; peak_workers={}",
        run.walls_ms.len(),
        run.timed_segments,
        run.timed_iterations,
        run.memory_segments,
        run.memory_iterations,
        run.heap_samples,
        run.tail.pct,
        run.tail.value,
        run.slowest_ms,
        run.peak_workers
    );
    print_failures(&run.tally);
    let record = format!(
        "{{\"benchmark\": \"end-to-end-run\", \"environment\": {}, \"case\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"iterations\": {}, \
         \"timed_segments\": {}, \"iterations_per_timed_segment\": {}, \"memory_segments\": {}, \
         \"iterations_per_memory_segment\": {}, \"heap_samples\": {}, \"setups_s\": [{}], \
         \"walls_ms\": [{}], \"memory_allocs\": [{}], \
         \"wall_tail\": {{\"pct\": {}, \"ms\": {}}}, \"slowest_ms\": {}, \"peak_workers\": {}, \
         \"metrics\": {}}}",
        report::environment_json(),
        report::case_json(case, seconds),
        run.tally.failed == 0,
        run.tally.attempted,
        run.tally.failed,
        json::number(run.tally.failed_share()),
        run.walls_ms.len(),
        run.timed_segments,
        run.timed_iterations,
        run.memory_segments,
        run.memory_iterations,
        run.heap_samples,
        numbers(&run.setups_s),
        numbers(&run.walls_ms),
        numbers(&run.memory_allocs),
        json::number(run.tail.pct),
        json::number(run.tail.value),
        json::number(run.slowest_ms),
        run.peak_workers,
        run.values.to_json(&END_TO_END)
    );
    let path = report::out_dir().join(format!("run-{name}.json"));
    if let Err(e) = std::fs::create_dir_all(report::out_dir())
        .and_then(|()| std::fs::write(&path, format!("{record}\n")))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{}", result_line(&run.tally, &run.values, &END_TO_END));
    (record, run.tally.failed == 0)
}

/// One traced run: prints every per-layer metric, writes the trace file.
fn traced(case: &Case, seconds: f64) -> bool {
    let run = match traced::run(case, seconds) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("traced run of {} failed: {e}", case.workload.name());
            return false;
        }
    };
    println!(
        "traced run: {} seed={} {}",
        case.workload.name(),
        case.seed,
        case.params_text()
    );
    print!("{}", run.values.to_text(&PER_LAYER));
    println!(
        "  {} spans written to {}",
        run.spans_written,
        run.trace_path.display()
    );
    print_failures(&run.tally);
    println!("{}", result_line(&run.tally, &run.values, &PER_LAYER));
    run.tally.failed == 0
}

/// Tiny sizes, all five workloads, both runs: the first thing to run after
/// a change to the benchmark.
fn smoke() -> bool {
    let ok = every_workload(|w| {
        let case = Case::new(w, Size::Smoke, DEFAULT_SEED);
        end_to_end(&case, 0.4).1 & traced(&case, 0.4)
    });
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn write_set(args: &Args) -> Result<bool, String> {
    let out = args.out.as_deref().ok_or("set needs --out FILE")?;
    let mut records = Vec::new();
    let mut ok = true;
    for round in 0..SET_RUNS {
        for w in ALL {
            println!("-- set run {} of {SET_RUNS}", round + 1);
            let (record, correct) =
                end_to_end(&Case::new(w, Size::Pinned, args.seed), args.seconds);
            records.push(record);
            ok &= correct;
        }
    }
    let doc = format!(
        "{{\"benchmark\": \"run-set\", \"environment\": {}, \"runs\": [\n{}\n]}}\n",
        report::environment_json(),
        records.join(",\n")
    );
    std::fs::write(out, doc).map_err(|e| format!("could not write {out}: {e}"))?;
    println!("wrote {} runs to {out}", records.len());
    Ok(ok)
}

/// Runs `f` on all five workloads (no short circuit: a failure on one must
/// not hide the others' numbers) and says whether all were correct.
fn every_workload(mut f: impl FnMut(Workload) -> bool) -> bool {
    let mut ok = true;
    for w in ALL {
        ok &= f(w);
    }
    ok
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let pinned = |w| Case::new(w, Size::Pinned, args.seed);
    match args.command.as_deref() {
        None => {
            let w = args
                .workload
                .ok_or("give --workload NAME, or a subcommand (see benchmark/README.md)")?;
            Ok(if args.trace {
                traced(&pinned(w), args.seconds)
            } else {
                end_to_end(&pinned(w), args.seconds).1
            })
        }
        Some("run") => Ok(every_workload(|w| end_to_end(&pinned(w), args.seconds).1)),
        Some("trace") => Ok(every_workload(|w| traced(&pinned(w), args.seconds))),
        Some("set") => write_set(args),
        Some("smoke") => Ok(smoke()),
        Some("check-repeat") => match args.positional.as_slice() {
            [a, b] => repeat::check(a, b),
            _ => Err("check-repeat takes two run-set files".into()),
        },
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        // A run whose operations failed still reports (the result line says
        // so); only `check-repeat` and `smoke` turn a finding into the exit
        // code.
        Ok(ok) => {
            let gate = matches!(args.command.as_deref(), Some("check-repeat" | "smoke"));
            if gate && !ok {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload heat --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Heat));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(a.command.is_none());
        let a = parse("check-repeat a.json b.json").unwrap();
        assert_eq!(a.command.as_deref(), Some("check-repeat"));
        assert_eq!(a.positional, ["a.json", "b.json"]);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn the_default_run_length_is_the_one_benchmark_json_states() {
        let text = std::fs::read_to_string(report::benchmark_json_path()).unwrap();
        let doc = json::Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(json::Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
