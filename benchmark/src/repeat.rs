//! `check-repeat A.json B.json`: do two sets of runs of the same commit agree
//! within the bounds `BENCHMARK.json` fixes?
//!
//! For every (end-to-end metric, workload) pair the medians of the two sets
//! may differ, in either direction, by at most the metric's bound as a share
//! of the first set's median: an instrument that moves further than that on
//! its own cannot tell a regression of that size from noise.  Any failed
//! operation in either set is a breach too.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report;
use crate::stats;

/// `workload → metric → values`, plus failed operations per workload.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, f64>,
}

fn load_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_set(text: &str) -> Result<RunSet, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no \"runs\" array")?;
    let mut set = RunSet::default();
    for run in runs {
        let workload = run
            .get("case")
            .and_then(|c| c.get("workload"))
            .and_then(Json::as_str)
            .ok_or("a run without case.workload")?;
        let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        *set.failed.entry(workload.to_string()).or_default() += failed;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err("a run without metrics".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("metric {name} without a value"))?;
            set.values
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// `(metric, bound)` from `BENCHMARK.json`.
fn parse_bounds(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(text)?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no \"end_to_end\" array")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One row of the comparison.
#[derive(Debug, PartialEq)]
struct Row {
    metric: String,
    workload: String,
    median_a: f64,
    median_b: f64,
    /// `|B − A| / A`.
    moved: f64,
    bound: f64,
    breach: bool,
}

fn compare(a: &RunSet, b: &RunSet, bounds: &[(String, f64)]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in &a.values {
        let metrics_b = b
            .values
            .get(workload)
            .ok_or(format!("the second set has no runs of {workload}"))?;
        for (metric, bound) in bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(metric), metrics_b.get(metric)) else {
                return Err(format!("{metric} on {workload} is missing from a set"));
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let moved = if ma == 0.0 {
                0.0
            } else {
                (mb - ma).abs() / ma.abs()
            };
            rows.push(Row {
                metric: metric.clone(),
                workload: workload.clone(),
                median_a: ma,
                median_b: mb,
                moved,
                bound: *bound,
                breach: moved > *bound,
            });
        }
    }
    Ok(rows)
}

pub fn check(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load_set(path_a)?, load_set(path_b)?);
    let bench = report::benchmark_json_path();
    let bounds = std::fs::read_to_string(&bench)
        .map_err(|e| format!("{}: {e}", bench.display()))
        .and_then(|t| parse_bounds(&t))?;
    let rows = compare(&a, &b, &bounds)?;
    println!(
        "{:<18} {:<11} {:>14} {:>24} {:>14} {:>24} {:>8} {:>7}",
        "metric",
        "workload",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "moved",
        "bound"
    );
    let quartiles = |set: &RunSet, r: &Row| {
        let (q1, q3) = stats::quartiles(&set.values[&r.workload][&r.metric]);
        format!("[{q1:.4}, {q3:.4}]")
    };
    let mut ok = true;
    for r in &rows {
        println!(
            "{:<18} {:<11} {:>14.4} {:>24} {:>14.4} {:>24} {:>7.2}% {:>6.1}%{}",
            r.metric,
            r.workload,
            r.median_a,
            quartiles(&a, r),
            r.median_b,
            quartiles(&b, r),
            r.moved * 100.0,
            r.bound * 100.0,
            if r.breach { "  BREACH" } else { "" }
        );
        ok &= !r.breach;
    }
    for (set, name) in [(&a, path_a), (&b, path_b)] {
        for (workload, failed) in &set.failed {
            if *failed > 0.0 {
                println!(
                    "failed_share: {failed} failed operation(s) on {workload} in {name}  BREACH"
                );
                ok = false;
            }
        }
    }
    println!(
        "check-repeat: {}",
        if ok { "the two sets agree" } else { "BREACH" }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: &[f64], failed: u64) -> String {
        let runs: Vec<String> = wall
            .iter()
            .map(|w| {
                format!(
                    "{{\"case\": {{\"workload\": \"sieve\"}}, \"failed\": {failed}, \
                     \"metrics\": {{\"wall_ms\": {{\"value\": {w}, \"unit\": \"ms\"}}}}}}"
                )
            })
            .collect();
        format!("{{\"runs\": [{}]}}", runs.join(","))
    }

    const BOUNDS: &str =
        r#"{"end_to_end": [{"name": "wall_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;

    #[test]
    fn medians_within_the_bound_agree_and_beyond_it_breach() {
        let bounds = parse_bounds(BOUNDS).unwrap();
        let a = parse_set(&set(&[100.0, 90.0, 110.0, 101.0, 99.0], 0)).unwrap();
        let near = parse_set(&set(&[105.0, 95.0, 109.0, 300.0, 104.0], 0)).unwrap();
        let rows = compare(&a, &near, &bounds).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].median_a, rows[0].median_b), (100.0, 105.0));
        assert!(!rows[0].breach, "one outlier run must not move a median");
        // Either direction counts: the instrument moved, whichever way.
        for far in [[89.0; 5], [111.0; 5]] {
            let far = parse_set(&set(&far, 0)).unwrap();
            assert!(compare(&a, &far, &bounds).unwrap()[0].breach);
        }
    }

    #[test]
    fn a_missing_workload_or_metric_is_an_error_not_a_pass() {
        let bounds = parse_bounds(BOUNDS).unwrap();
        let a = parse_set(&set(&[100.0], 0)).unwrap();
        let empty = parse_set("{\"runs\": []}").unwrap();
        assert!(compare(&a, &empty, &bounds).is_err());
        assert!(parse_set("{}").is_err());
        assert_eq!(
            parse_set(&set(&[1.0, 2.0], 3)).unwrap().failed["sieve"],
            6.0
        );
    }
}
