//! Where every output starts: the environment the numbers were taken in and
//! the parameters that were pinned.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use crate::json;
use crate::segment::WARMUPS;
use crate::workloads::Case;

/// Output files go to `benchmark/out/` (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

pub fn benchmark_json_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The machine and toolchain, as a JSON object.  Unknown facts read
/// `"unknown"` (the driver's checkout is not a git repository).
pub fn environment_json() -> &'static str {
    static ENVIRONMENT: OnceLock<String> = OnceLock::new();
    ENVIRONMENT.get_or_init(probe_environment)
}

fn probe_environment() -> String {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(unknown);
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \"git_commit\": {}}}",
        json::quote(&kernel),
        json::quote(&rustc),
        json::quote(&commit)
    )
}

/// What was run: workload, seed, pinned parameters, protocol constants.
pub fn case_json(case: &Case, seconds: f64) -> String {
    format!(
        "{{\"workload\": {}, \"size\": {}, \"seed\": {}, \"params\": {}, \"seconds\": {}, \
         \"warmups\": {WARMUPS}}}",
        json::quote(case.workload.name()),
        json::quote(&format!("{:?}", case.size)),
        case.seed,
        json::quote(&case.params_text()),
        json::number(seconds)
    )
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
