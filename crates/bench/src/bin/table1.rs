//! Regenerates **Table 1** of the paper: per-benchmark baseline execution
//! time and memory plus the overhead factors of enabling the ownership policy
//! and deadlock detector, together with the task counts and get/set rates.
//!
//! ```text
//! cargo run -p promise-bench --release --bin table1 -- \
//!     [--scale smoke|default|stress|paper] [--runs N] [--warmups N] \
//!     [--filter NAME] [--no-memory] [--paper-protocol] \
//!     [--no-help] \
//!     [--json PATH | --no-json] [--compare OLD.json NEW.json]
//! ```
//!
//! Besides the human-readable table, the run writes machine-readable results
//! (wall-time summaries plus per-workload counter deltas) to
//! `BENCH_table1.json` by default, giving later revisions a perf trajectory
//! to regress against.  `--compare OLD.json NEW.json` runs no measurements:
//! it prints the per-workload median delta table between two such artifacts
//! (the ROADMAP perf-trajectory protocol, mechanised).

use promise_bench::{render_table1, render_table1_json, run_suite, CliOptions};

#[global_allocator]
static ALLOC: promise_stats::CountingAllocator = promise_stats::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match CliOptions::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: table1 [--scale smoke|default|stress|paper] [--runs N] [--warmups N] \
                 [--filter NAME] [--no-memory] [--paper-protocol] [--no-help] \
                 [--observe PATH] [--json PATH | --no-json] \
                 [--compare OLD.json NEW.json]"
            );
            std::process::exit(2);
        }
    };

    if opts.no_help {
        promise_bench::HELP_DISABLED.store(true, std::sync::atomic::Ordering::Relaxed);
        println!("(runtimes built with help(HelpConfig::disabled()))");
    }
    if let Some(path) = &opts.observe {
        promise_bench::OBSERVE_JSONL
            .set(path.into())
            .expect("--observe is set once, before any runtime is built");
        println!("(live metrics feed: {path} — tail -f to watch the soak)");
    }

    if let Some((old_path, new_path)) = &opts.compare {
        let load = |path: &str| -> promise_bench::compare::Table1Artifact {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: could not read {path}: {e}");
                std::process::exit(1);
            });
            promise_bench::compare::parse_table1_artifact(&text).unwrap_or_else(|e| {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            })
        };
        let old = load(old_path);
        let new = load(new_path);
        print!("{}", promise_bench::compare::render_compare(&old, &new));
        return;
    }

    println!(
        "Table 1 reproduction — scale: {}, runs: {}, warmups: {}{}",
        opts.scale.name(),
        opts.runs,
        opts.warmups,
        if opts.skip_memory {
            ", memory measurement skipped"
        } else {
            ""
        }
    );
    println!();

    let workloads = opts.workloads();
    let results = run_suite(&workloads, opts.scale, &opts.protocol(), !opts.skip_memory);
    println!("{}", render_table1(&results));

    if let Some(path) = &opts.json_path {
        let json = render_table1_json(&results, opts.scale, opts.runs);
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("[promise-bench] wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
