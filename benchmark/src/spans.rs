//! Spans: the harness's own (around its calls into the runtime) and the
//! ones derived from the runtime's public event log.
//!
//! Everything here looks at the program from outside.  A task span runs from
//! the task's `TaskStart` record to its `TaskEnd`; a queue span from the
//! parent's `Spawn` record to the child's `TaskStart`; a get span from a
//! `Get` record to the same task's next record, whatever it is — an upper
//! bound on the time inside `get`, because the log has no "get returned"
//! record (spans inside the program are a later issue).  A task's self time
//! is its span minus the get spans inside it.  The `TaskId` is the identifier
//! every span of one task shares; a task span's parent is the span of the
//! task that spawned it.

use std::collections::HashMap;
use std::time::Instant;

use promise_core::{EventKind, EventRecord};

use crate::json;
use crate::stats;

/// A span recorded by the harness around one of its own calls.  `parent`
/// names the enclosing harness span (a pass of the run), if any.
#[derive(Clone, Debug)]
pub struct HarnessSpan {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl HarnessSpan {
    /// A span from `start` to now, on the run's clock.
    pub fn since(
        name: &'static str,
        layer: &'static str,
        parent: Option<&'static str>,
        clock: Instant,
        start: Instant,
    ) -> HarnessSpan {
        HarnessSpan {
            name,
            layer,
            parent,
            start_ns: start.duration_since(clock).as_nanos() as u64,
            end_ns: clock.elapsed().as_nanos() as u64,
        }
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"span\":{},\"layer\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            json::quote(self.name),
            json::quote(self.layer),
            self.parent.map_or_else(|| "null".to_string(), json::quote),
            self.start_ns,
            self.end_ns
        )
    }
}

/// The part of an event record the span derivation needs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub kind: EventKind,
    pub ts_ns: u64,
    pub task: u64,
    pub seq: u64,
    pub child: u64,
}

impl Event {
    pub fn of(rec: &EventRecord) -> Event {
        Event {
            kind: rec.kind,
            ts_ns: rec.ts_ns,
            task: rec.task.0,
            seq: rec.seq,
            child: rec.child.0,
        }
    }
}

/// The get spans of one task, folded (Sieve logs 780 k of them).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GetFold {
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub max_ns: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpan {
    pub task: u64,
    /// The spawning task, when its `Spawn` record is in the window.
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the get spans inside it.
    pub self_ns: u64,
    pub gets: GetFold,
}

#[derive(Clone, Debug, PartialEq)]
pub struct QueueSpan {
    pub task: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Derived {
    pub tasks: Vec<TaskSpan>,
    pub queues: Vec<QueueSpan>,
    /// Every get span's duration, for the workload-wide percentiles.
    pub get_ns: Vec<f64>,
}

/// A span's self time: its duration minus the part its children cover.
/// Children are clipped to the parent and overlapping children are counted
/// once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Derives task, queue and get spans from event records.  Records outside
/// any task are ignored; a task without both a start and an end in the
/// window yields no task span.
pub fn derive(events: &[Event]) -> Derived {
    let mut by_task: HashMap<u64, Vec<Event>> = HashMap::new();
    let mut spawned: HashMap<u64, (u64, u64)> = HashMap::new();
    for e in events {
        if e.seq == u64::MAX {
            continue;
        }
        by_task.entry(e.task).or_default().push(*e);
        if e.kind == EventKind::Spawn {
            spawned.insert(e.child, (e.task, e.ts_ns));
        }
    }
    let mut out = Derived::default();
    // Sorted so the trace file is the same for the same log.
    let mut ids: Vec<u64> = by_task.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let mut evs = by_task.remove(&id).expect("id came from the map");
        evs.sort_unstable_by_key(|e| e.seq);
        let start = evs.iter().find(|e| e.kind == EventKind::TaskStart);
        let end = evs.iter().rev().find(|e| e.kind == EventKind::TaskEnd);
        let mut gets: Vec<(u64, u64)> = Vec::new();
        for pair in evs.windows(2) {
            if pair[0].kind == EventKind::Get {
                gets.push((pair[0].ts_ns, pair[1].ts_ns.max(pair[0].ts_ns)));
            }
        }
        let durations: Vec<f64> = gets.iter().map(|(s, e)| (e - s) as f64).collect();
        out.get_ns.extend_from_slice(&durations);
        let parent = spawned.get(&id).copied();
        if let (Some((parent_id, spawn_ts)), Some(start)) = (parent, start) {
            out.queues.push(QueueSpan {
                task: id,
                parent: parent_id,
                start_ns: spawn_ts,
                end_ns: start.ts_ns.max(spawn_ts),
            });
        }
        if let (Some(start), Some(end)) = (start, end) {
            let (s, e) = (start.ts_ns, end.ts_ns.max(start.ts_ns));
            let sorted = stats::sorted(&durations);
            out.tasks.push(TaskSpan {
                task: id,
                parent: parent.map(|(p, _)| p),
                start_ns: s,
                end_ns: e,
                self_ns: self_time(s, e, &gets),
                gets: GetFold {
                    count: gets.len() as u64,
                    total_ns: durations.iter().sum::<f64>() as u64,
                    p50_ns: stats::percentile_sorted(&sorted, 50.0),
                    p99_ns: stats::percentile_sorted(&sorted, 99.0),
                    max_ns: sorted.last().copied().unwrap_or(0.0) as u64,
                },
            });
        }
    }
    out
}

/// How a span line names the span of task `id`.
fn task_ref(id: u64) -> String {
    format!("\"task:{id}\"")
}

impl TaskSpan {
    /// One trace line.  `offset_ns` moves the log's clock onto the run's;
    /// a task whose spawn is not in the window (the root task) hangs under
    /// the harness span `root_parent`.
    pub fn to_json(&self, offset_ns: u64, root_parent: &str) -> String {
        let parent = self
            .parent
            .map_or_else(|| json::quote(root_parent), task_ref);
        format!(
            "{{\"span\":\"task\",\"layer\":\"task\",\"task\":{},\"parent\":{},\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{},\"gets\":{{\"layer\":\"promise\",\"count\":{},\
             \"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}}}",
            self.task,
            parent,
            self.start_ns + offset_ns,
            self.end_ns + offset_ns,
            self.self_ns,
            self.gets.count,
            self.gets.total_ns,
            json::number(self.gets.p50_ns),
            json::number(self.gets.p99_ns),
            self.gets.max_ns
        )
    }
}

impl QueueSpan {
    pub fn to_json(&self, offset_ns: u64) -> String {
        format!(
            "{{\"span\":\"queue\",\"layer\":\"scheduler\",\"task\":{},\"parent\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            self.task,
            task_ref(self.parent),
            self.start_ns + offset_ns,
            self.end_ns + offset_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, ts_ns: u64, task: u64, seq: u64, child: u64) -> Event {
        Event {
            kind,
            ts_ns,
            task,
            seq,
            child,
        }
    }

    #[test]
    fn self_time_subtracts_clipped_and_merged_children() {
        assert_eq!(self_time(100, 200, &[]), 100);
        assert_eq!(self_time(100, 200, &[(120, 150)]), 70);
        // Overlapping children are covered once; a child that sticks out of
        // the parent is clipped to it.
        assert_eq!(
            self_time(100, 200, &[(120, 150), (140, 160), (190, 250)]),
            50
        );
        // A child wholly outside covers nothing; one covering all leaves 0.
        assert_eq!(self_time(100, 200, &[(0, 50), (300, 400)]), 100);
        assert_eq!(self_time(100, 200, &[(0, 400)]), 0);
    }

    #[test]
    fn derives_task_queue_and_get_spans_from_a_synthetic_log() {
        use EventKind::*;
        // Task 1 (root) spawns task 2 at t=100; task 2 starts at t=130,
        // blocks in a get from 150 until its next record at 400, ends at
        // 450.  The root gets at 200 and its next record (end) is at 500.
        // Records arrive out of order, as segments of a concurrent log do.
        let log = vec![
            ev(TaskStart, 130, 2, 0, 0),
            ev(TaskStart, 10, 1, 0, 0),
            ev(Spawn, 100, 1, 1, 2),
            ev(Get, 150, 2, 1, 0),
            ev(Set, 400, 2, 2, 0),
            ev(Get, 200, 1, 2, 0),
            ev(TaskEnd, 450, 2, 3, 0),
            ev(TaskEnd, 500, 1, 3, 0),
            // Recorded outside any task: ignored.
            ev(Alarm, 460, 0, u64::MAX, 0),
            // A task cut off by the window: a get span but no task span.
            ev(Get, 300, 9, 5, 0),
            ev(TaskEnd, 320, 9, 6, 0),
        ];
        let d = derive(&log);
        assert_eq!(
            d.queues,
            vec![QueueSpan {
                task: 2,
                parent: 1,
                start_ns: 100,
                end_ns: 130
            }]
        );
        assert_eq!(d.tasks.len(), 2);
        let root = &d.tasks[0];
        assert_eq!((root.task, root.parent), (1, None));
        assert_eq!((root.start_ns, root.end_ns), (10, 500));
        assert_eq!(root.gets.count, 1);
        assert_eq!(root.gets.total_ns, 300);
        assert_eq!(root.self_ns, 490 - 300);
        let child = &d.tasks[1];
        assert_eq!((child.task, child.parent), (2, Some(1)));
        assert_eq!(child.gets.total_ns, 250);
        assert_eq!(child.self_ns, 320 - 250);
        let mut gets = d.get_ns.clone();
        gets.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(gets, vec![20.0, 250.0, 300.0]);
        // Span lines are valid JSON with the shared identifier and parent.
        let line = json::Json::parse(&child.to_json(1_000, "iteration")).unwrap();
        assert_eq!(line.get("task").unwrap().as_f64(), Some(2.0));
        assert_eq!(line.get("parent").unwrap().as_str(), Some("task:1"));
        assert_eq!(line.get("start_ns").unwrap().as_f64(), Some(1_130.0));
        let line = json::Json::parse(&root.to_json(0, "iteration")).unwrap();
        assert_eq!(line.get("parent").unwrap().as_str(), Some("iteration"));
        let line = json::Json::parse(&d.queues[0].to_json(0)).unwrap();
        assert_eq!(line.get("parent").unwrap().as_str(), Some("task:1"));
    }
}
