//! The names and units of every metric this benchmark reports, in the order
//! `BENCHMARK.json` lists them (a unit test holds the two together).  Bounds
//! live in `BENCHMARK.json` only.

use std::collections::BTreeMap;

use crate::json;

/// `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

/// What a user of the runtime sees, per workload, verified configuration.
pub const END_TO_END: [MetricDef; 6] = [
    ("setup_s", "s"),
    ("wall_ms", "ms"),
    ("allocs_per_iter", "count"),
    ("alloc_kb_per_iter", "KiB"),
    ("heap_avg_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// One group per layer (module name); see the README for what each should
/// move.  A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 70] = [
    ("cell.set_get_ns", "ns"),
    ("cell.get_fulfilled_ns", "ns"),
    ("promise.create_set_get_ns", "ns"),
    ("promise.create_set_get_base_ns", "ns"),
    ("promise.gets", "count"),
    ("promise.sets", "count"),
    ("promise.created", "count"),
    ("promise.get_span_p50_ns", "ns"),
    ("promise.get_span_p99_us", "us"),
    ("promise.blocked_ms_total", "ms"),
    ("channel.send_recv_ns", "ns"),
    ("channel.send_recv_base_ns", "ns"),
    ("channel.allocs_per_msg", "count"),
    ("arena.alloc_free_ns", "ns"),
    ("arena.alloc_free_contended_ns", "ns"),
    ("arena.reclaim_us", "us"),
    ("arena.resident_kb", "KiB"),
    ("arena.freed_kb", "KiB"),
    ("arena.peak_live_promises", "count"),
    ("arena.peak_live_tasks", "count"),
    ("epoch.pin_ns", "ns"),
    ("ownership.transfer_ns", "ns"),
    ("ownership.exit_sweep_ns", "ns"),
    ("ownership.transfers", "count"),
    ("detector.step_ns", "ns"),
    ("detector.walk_short_ns", "ns"),
    ("detector.runs", "count"),
    ("detector.steps", "count"),
    ("detector.steps_per_run", "ratio"),
    ("detector.alarm_p50_us", "us"),
    ("detector.alarm_p99_us", "us"),
    ("detector.recall", "ratio"),
    ("detector.false_alarms", "count"),
    ("job.new_run_ns", "ns"),
    ("waitq.park_wake_us", "us"),
    ("spawn.spawn_join_ns", "ns"),
    ("spawn.spawn_join_base_ns", "ns"),
    ("spawn.batch64_ns", "ns"),
    ("spawn.allocs_per_spawn", "count"),
    ("spawn.tasks", "count"),
    ("scheduler.submit_run_ns", "ns"),
    ("scheduler.submit_batch_ns", "ns"),
    ("scheduler.peak_workers", "count"),
    ("scheduler.threads_started", "count"),
    ("scheduler.jobs_executed", "count"),
    ("scheduler.steal_share", "ratio"),
    ("scheduler.help_share", "ratio"),
    ("scheduler.queue_delay_p50_us", "us"),
    ("scheduler.queue_delay_p99_us", "us"),
    ("runtime.build_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("runtime.reclaim_ms", "ms"),
    ("events.on_overhead_ratio", "ratio"),
    ("task.run_p50_us", "us"),
    ("task.self_ms_total", "ms"),
    ("harness.iterations", "count"),
    ("harness.wall_tail_ms", "ms"),
    ("harness.wall_tail_pct", "%"),
    ("harness.wall_iqr_ms", "ms"),
    ("harness.cpu_ms", "ms"),
    ("harness.rss_peak_mb", "MiB"),
    ("harness.baseline_wall_ms", "ms"),
    ("harness.baseline_allocs_per_iter", "count"),
    ("harness.baseline_heap_avg_mb", "MiB"),
    ("harness.time_overhead_ratio", "ratio"),
    ("harness.alloc_overhead_ratio", "ratio"),
    ("harness.mem_overhead_ratio", "ratio"),
    ("model.predicted_overhead_ms", "ms"),
    ("model.measured_overhead_ms", "ms"),
    ("model.explained_share", "ratio"),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `"metrics"` object of the result line: every metric of `defs`,
    /// in catalog order.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let fields: Vec<String> = defs
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(self.get(name)),
                    json::quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One `name value unit` line per metric of `defs`.
    pub fn to_text(&self, defs: &[MetricDef]) -> String {
        defs.iter()
            .map(|(name, unit)| format!("  {name:<36} {:>16.4} {unit}\n", self.get(name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the catalog");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_metrics_parse_and_keep_every_digit() {
        let mut v = Values::default();
        v.set("wall_ms", 123.456789012345);
        let doc = Json::parse(&v.to_json(&END_TO_END)).unwrap();
        let wall = doc.get("wall_ms").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(123.456789012345));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("ms"));
        // Not measured reads 0, so every listed metric is always present.
        assert_eq!(
            doc.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }
}
