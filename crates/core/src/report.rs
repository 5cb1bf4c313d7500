//! Human-readable rendering of verification alarms.
//!
//! When a deadlock or omitted set is detected, the diagnostic information the
//! paper calls for (§3.2: "the task, the awaited promise, as well as every
//! other task and promise in the cycle") is carried by
//! [`DeadlockCycle`](crate::DeadlockCycle) and
//! [`OmittedSetReport`](crate::OmittedSetReport).  This module provides
//! report-style rendering of a context's alarm log, used by examples and the
//! benchmark harness.

use std::fmt::Write as _;

use crate::context::{Alarm, Context};

/// Renders a single alarm as a multi-line, indented block.
pub fn render_alarm(alarm: &Alarm) -> String {
    let mut out = String::new();
    match alarm {
        Alarm::Deadlock(cycle) => {
            let _ = writeln!(out, "DEADLOCK CYCLE ({} tasks)", cycle.len());
            for (i, e) in cycle.entries.iter().enumerate() {
                let next = &cycle.entries[(i + 1) % cycle.entries.len()];
                let task = e
                    .task_name
                    .as_deref()
                    .map(|n| format!("{n} ({})", e.task))
                    .unwrap_or_else(|| e.task.to_string());
                let promise = e
                    .promise_name
                    .as_deref()
                    .map(|n| format!("{n} ({})", e.promise))
                    .unwrap_or_else(|| e.promise.to_string());
                let owner = next
                    .task_name
                    .as_deref()
                    .map(|n| format!("{n} ({})", next.task))
                    .unwrap_or_else(|| next.task.to_string());
                let _ = writeln!(out, "  {task} awaits {promise}, owned by {owner}");
            }
        }
        Alarm::OmittedSet(report) => {
            let task = report
                .task_name
                .as_deref()
                .map(|n| format!("{n} ({})", report.task))
                .unwrap_or_else(|| report.task.to_string());
            let _ = writeln!(
                out,
                "OMITTED SET: {task} terminated owning {} unfulfilled promise(s)",
                report.promises.len()
            );
            for p in &report.promises {
                let promise = p
                    .promise_name
                    .as_deref()
                    .map(|n| format!("{n} ({})", p.promise))
                    .unwrap_or_else(|| p.promise.to_string());
                let _ = writeln!(out, "  never fulfilled: {promise}");
            }
        }
        Alarm::Stall(report) => {
            let _ = writeln!(out, "STALL: {report}");
        }
    }
    out
}

/// Renders every alarm recorded in a context, or a short "no alarms" line.
pub fn render_alarms(ctx: &Context) -> String {
    let alarms = ctx.alarms();
    if alarms.is_empty() {
        return "no alarms recorded\n".to_string();
    }
    let mut out = String::new();
    for (i, alarm) in alarms.iter().enumerate() {
        let _ = writeln!(out, "--- alarm {} of {} ---", i + 1, alarms.len());
        out.push_str(&render_alarm(alarm));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{AbandonedPromise, CycleEntry, DeadlockCycle, OmittedSetReport};
    use crate::ids::{PromiseId, TaskId};
    use std::sync::Arc;

    #[test]
    fn renders_deadlock_with_owner_attribution() {
        let cycle = Arc::new(DeadlockCycle {
            entries: vec![
                CycleEntry {
                    task: TaskId(1),
                    task_name: Some(Arc::from("root")),
                    promise: PromiseId(10),
                    promise_name: Some(Arc::from("q")),
                },
                CycleEntry {
                    task: TaskId(2),
                    task_name: Some(Arc::from("t2")),
                    promise: PromiseId(11),
                    promise_name: Some(Arc::from("p")),
                },
            ],
        });
        let s = render_alarm(&Alarm::Deadlock(cycle));
        assert!(s.contains("DEADLOCK CYCLE (2 tasks)"));
        assert!(s.contains("root (task#1) awaits q (promise#10), owned by t2 (task#2)"));
        assert!(s.contains("t2 (task#2) awaits p (promise#11), owned by root (task#1)"));
    }

    #[test]
    fn renders_omitted_set_with_blame() {
        let report = Arc::new(OmittedSetReport {
            task: TaskId(4),
            task_name: Some(Arc::from("t4")),
            promises: vec![AbandonedPromise {
                promise: PromiseId(9),
                promise_name: Some(Arc::from("s")),
            }],
        });
        let s = render_alarm(&Alarm::OmittedSet(report));
        assert!(s.contains("OMITTED SET: t4 (task#4)"));
        assert!(s.contains("never fulfilled: s (promise#9)"));
    }

    #[test]
    fn renders_context_alarm_log() {
        let ctx = crate::Context::new_verified();
        assert_eq!(render_alarms(&ctx), "no alarms recorded\n");
        ctx.record_alarm(Alarm::OmittedSet(Arc::new(OmittedSetReport {
            task: TaskId(1),
            task_name: None,
            promises: vec![],
        })));
        let s = render_alarms(&ctx);
        assert!(s.contains("alarm 1 of 1"));
        assert!(s.contains("OMITTED SET"));
    }
}
