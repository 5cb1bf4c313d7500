//! The lock-free event log behind chaos verification and schedule replay.
//!
//! When enabled on a [`Context`](crate::Context), every policy-relevant
//! operation appends one [`EventRecord`] — task start/end, spawn, ownership
//! transfer, `get`, `set`, and alarms — into an append-only segment list
//! ([`AlarmSink`], the same push-never-blocks idiom as the alarm log:
//! reserve with one `fetch_add`, write the value, publish with a release
//! flag).  Recording is wait-free for the writer and never blocks readers;
//! when the log is disabled the hooks cost one pointer load and branch.
//!
//! Records carry two complementary keys:
//!
//! * a **per-task sequence number** (`seq`), assigned from the recording
//!   task's thread-confined counter.  Within one task the instruction stream
//!   is sequential, so `(task, seq)` totally orders a task's own events
//!   deterministically across runs — the backbone of the *canonical
//!   projection* used by the determinism tests;
//! * a **wall-clock timestamp** (`ts_ns`, nanoseconds since the log was
//!   created), which orders events *across* tasks well enough for post-mortem
//!   replay and for detection-latency measurement, but is inherently
//!   run-specific.
//!
//! [`EventLog::to_jsonl`] exports the full log (one JSON object per line);
//! [`EventLog::canonical_jsonl`] exports the schedule-independent projection:
//! all non-alarm events sorted by `(task key, seq)` with timestamps dropped.
//! Two runs of the same program with the same seed produce byte-identical
//! canonical exports even though their raw interleavings (and the racy alarm
//! multiplicity of §3.1) differ.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crate::alarms::AlarmSink;
use crate::ids::{PromiseId, TaskId};
use crate::name::Name;

/// The kind of one logged event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A task was bound to a thread and began executing.
    TaskStart,
    /// A task terminated (its rule-3 exit check ran).
    TaskEnd,
    /// The recording task spawned a child (`child` / `child_name`).
    Spawn,
    /// Ownership of `promise` moved from the recording task to `child`.
    Transfer,
    /// The recording task entered a (potentially blocking) `get`/`wait`.
    Get,
    /// The recording task fulfilled `promise`.
    Set,
    /// An alarm was recorded (`alarm` holds the kind label).
    Alarm,
    /// The recording task's body panicked (contained by panic isolation).
    Panic,
    /// The recording task exited with a cancelled token (its remaining
    /// obligations were settled as `Cancelled`).
    Cancel,
}

impl EventKind {
    /// Stable lowercase label used in the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::TaskStart => "task-start",
            EventKind::TaskEnd => "task-end",
            EventKind::Spawn => "spawn",
            EventKind::Transfer => "transfer",
            EventKind::Get => "get",
            EventKind::Set => "set",
            EventKind::Alarm => "alarm",
            EventKind::Panic => "panic",
            EventKind::Cancel => "cancel",
        }
    }
}

/// One logged event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// What happened.
    pub kind: EventKind,
    /// Nanoseconds since the log was created (run-specific; excluded from
    /// the canonical projection).
    pub ts_ns: u64,
    /// The recording task ([`TaskId::NONE`] when no task was bound).
    pub task: TaskId,
    /// The recording task's captured name, if any.
    pub task_name: Option<Arc<str>>,
    /// Per-task sequence number of this event (0-based; `u64::MAX` when the
    /// event was recorded outside any task).
    pub seq: u64,
    /// The promise involved ([`PromiseId::NONE`] for task-lifecycle events).
    pub promise: PromiseId,
    /// The involved promise's captured name, if any.
    pub promise_name: Option<Name>,
    /// For [`EventKind::Spawn`] / [`EventKind::Transfer`]: the child task.
    pub child: TaskId,
    /// The child task's captured name, if any.
    pub child_name: Option<Arc<str>>,
    /// For [`EventKind::Alarm`]: the alarm kind label
    /// (`"deadlock"` / `"omitted-set"`).
    pub alarm: Option<&'static str>,
}

impl EventRecord {
    fn blank(kind: EventKind, ts_ns: u64) -> EventRecord {
        EventRecord {
            kind,
            ts_ns,
            task: TaskId::NONE,
            task_name: None,
            seq: u64::MAX,
            promise: PromiseId::NONE,
            promise_name: None,
            child: TaskId::NONE,
            child_name: None,
            alarm: None,
        }
    }

    /// Serializes the record as one JSON object (no trailing newline).
    /// Absent optional fields are omitted.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        push_field(&mut out, "kind", &json_str(self.kind.label()));
        push_field(&mut out, "ts_ns", &self.ts_ns.to_string());
        push_field(&mut out, "task", &self.task.0.to_string());
        if let Some(n) = &self.task_name {
            push_field(&mut out, "task_name", &json_str(n));
        }
        if self.seq != u64::MAX {
            push_field(&mut out, "seq", &self.seq.to_string());
        }
        if self.promise.is_some() {
            push_field(&mut out, "promise", &self.promise.0.to_string());
        }
        if let Some(n) = &self.promise_name {
            push_name(&mut out, "promise_name", n);
        }
        if self.child.is_some() {
            push_field(&mut out, "child", &self.child.0.to_string());
        }
        if let Some(n) = &self.child_name {
            push_field(&mut out, "child_name", &json_str(n));
        }
        if let Some(a) = self.alarm {
            push_field(&mut out, "alarm", &json_str(a));
        }
        out.push('}');
        out
    }

    /// The canonical (schedule-independent) serialization: task key, per-task
    /// sequence number, kind, and the names involved — no timestamps, no raw
    /// ids (runtime ids are assigned by racy global counters).  Returns
    /// `None` for events excluded from the projection: alarms (their
    /// multiplicity and order are racy by §3.1), injected faults
    /// (panic/cancel — the assignment of seeded fault draws to operations is
    /// racy by design), and events recorded outside any task.
    pub fn to_canonical_json(&self) -> Option<String> {
        if matches!(
            self.kind,
            EventKind::Alarm | EventKind::Panic | EventKind::Cancel
        ) || self.seq == u64::MAX
        {
            return None;
        }
        let mut out = String::with_capacity(64);
        out.push('{');
        push_field(&mut out, "task", &json_str(&self.task_key()));
        push_field(&mut out, "seq", &self.seq.to_string());
        push_field(&mut out, "kind", &json_str(self.kind.label()));
        if let Some(n) = &self.promise_name {
            push_name(&mut out, "promise", n);
        }
        if let Some(n) = &self.child_name {
            push_field(&mut out, "child", &json_str(n));
        }
        out.push('}');
        Some(out)
    }

    /// The task's stable key: its captured name when present (names are
    /// caller-chosen and survive re-runs), otherwise its numeric id.
    pub fn task_key(&self) -> String {
        match &self.task_name {
            Some(n) => n.to_string(),
            None => format!("#{}", self.task.0),
        }
    }
}

fn push_field(out: &mut String, key: &str, rendered: &str) {
    if out.len() > 1 {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(rendered);
}

/// Writes `"key":"name"`, escaping the name's text as it is produced: a
/// structured name is written out here, for the log's consumers, and takes
/// no intermediate string.
fn push_name(out: &mut String, key: &str, name: &Name) {
    push_field(out, key, "\"");
    let _ = write!(JsonEscaped(out), "{name}");
    out.push('"');
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let _ = JsonEscaped(&mut out).write_str(s);
    out.push('"');
    out
}

/// A writer that JSON-escapes what is written through it.
struct JsonEscaped<'a>(&'a mut String);

impl std::fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// The append-only event log of one context.
///
/// Built on [`AlarmSink`]: pushes are lock-free (one reserve `fetch_add`, a
/// value write, a release publish), segments are never recycled while the
/// log lives, and readers ([`snapshot`](EventLog::snapshot), the exports)
/// never block writers.
pub struct EventLog {
    sink: AlarmSink<EventRecord>,
    epoch: Instant,
}

impl EventLog {
    /// Creates an empty log; timestamps count from this call.
    pub fn new() -> EventLog {
        EventLog {
            sink: AlarmSink::new(),
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the log was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends a record for the current task (`info` as produced by the task
    /// module's per-task sequence counter).
    pub(crate) fn record(
        &self,
        kind: EventKind,
        info: Option<(TaskId, Option<Arc<str>>, u64)>,
        promise: PromiseId,
        promise_name: Option<Name>,
    ) {
        let mut rec = EventRecord::blank(kind, self.now_ns());
        if let Some((task, task_name, seq)) = info {
            rec.task = task;
            rec.task_name = task_name;
            rec.seq = seq;
        }
        rec.promise = promise;
        rec.promise_name = promise_name;
        self.sink.push(rec);
    }

    /// Appends a spawn/transfer record naming the child task.
    pub(crate) fn record_child(
        &self,
        kind: EventKind,
        info: Option<(TaskId, Option<Arc<str>>, u64)>,
        promise: PromiseId,
        promise_name: Option<Name>,
        child: TaskId,
        child_name: Option<Arc<str>>,
    ) {
        let mut rec = EventRecord::blank(kind, self.now_ns());
        if let Some((task, task_name, seq)) = info {
            rec.task = task;
            rec.task_name = task_name;
            rec.seq = seq;
        }
        rec.promise = promise;
        rec.promise_name = promise_name;
        rec.child = child;
        rec.child_name = child_name;
        self.sink.push(rec);
    }

    /// Appends an alarm record.
    pub(crate) fn record_alarm(
        &self,
        info: Option<(TaskId, Option<Arc<str>>, u64)>,
        alarm: &'static str,
    ) {
        let mut rec = EventRecord::blank(EventKind::Alarm, self.now_ns());
        if let Some((task, task_name, seq)) = info {
            rec.task = task;
            rec.task_name = task_name;
            rec.seq = seq;
        }
        rec.alarm = Some(alarm);
        self.sink.push(rec);
    }

    /// Number of records logged so far.
    pub fn len(&self) -> usize {
        self.sink.len()
    }

    /// Whether no records have been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every record logged so far, in publish order per segment
    /// (records racing the snapshot may be missed; see [`AlarmSink`]).
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.sink.snapshot()
    }

    /// Full JSONL export: one JSON object per line, in log order, with
    /// timestamps.  This is what the `replay` bin consumes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Canonical JSONL export: non-alarm events sorted by `(task key, seq)`,
    /// timestamps and raw ids dropped.  Byte-identical across runs with the
    /// same program and seed — the determinism oracle of the chaos tests.
    pub fn canonical_jsonl(&self) -> String {
        let mut recs = self.snapshot();
        recs.sort_by_key(|a| (a.task_key(), a.seq));
        let mut out = String::new();
        for rec in recs {
            if let Some(line) = rec.to_canonical_json() {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(task: u64, name: &str, seq: u64) -> Option<(TaskId, Option<Arc<str>>, u64)> {
        Some((TaskId(task), Some(Arc::from(name)), seq))
    }

    #[test]
    fn records_serialize_with_optional_fields_omitted() {
        let log = EventLog::new();
        log.record(
            EventKind::Get,
            info(3, "t1", 0),
            PromiseId(7),
            Some(Name::plain("p2")),
        );
        log.record_alarm(info(3, "t1", 1), "deadlock");
        log.record(EventKind::TaskStart, None, PromiseId::NONE, None);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"get\""));
        assert!(lines[0].contains("\"promise_name\":\"p2\""));
        assert!(lines[1].contains("\"alarm\":\"deadlock\""));
        assert!(!lines[2].contains("seq"), "task-less records carry no seq");
    }

    #[test]
    fn structured_names_are_written_and_escaped_like_their_text() {
        let log = EventLog::new();
        let label: Arc<str> = Arc::from("in\"bound");
        log.record(
            EventKind::Set,
            info(2, "t\\2", 0),
            PromiseId(4),
            Some(Name::Indexed(label, 17)),
        );
        let rec = &log.snapshot()[0];
        let json = rec.to_json();
        assert!(json.contains(r#""task_name":"t\\2""#), "{json}");
        assert!(json.contains(r#""promise_name":"in\"bound[17]""#), "{json}");
        assert_eq!(
            rec.to_canonical_json().unwrap(),
            r#"{"task":"t\\2","seq":0,"kind":"set","promise":"in\"bound[17]"}"#
        );
    }

    #[test]
    fn canonical_projection_drops_alarms_and_timestamps_and_sorts() {
        let log = EventLog::new();
        // Recorded "out of order" across tasks; canonical sorts by task/seq.
        log.record(
            EventKind::Set,
            info(2, "t2", 0),
            PromiseId(9),
            Some(Name::plain("p1")),
        );
        log.record(
            EventKind::Get,
            info(1, "t1", 1),
            PromiseId(9),
            Some(Name::plain("p1")),
        );
        log.record(
            EventKind::Get,
            info(1, "t1", 0),
            PromiseId(8),
            Some(Name::plain("p0")),
        );
        log.record_alarm(info(1, "t1", 2), "deadlock");
        let canon = log.canonical_jsonl();
        let lines: Vec<&str> = canon.lines().collect();
        assert_eq!(lines.len(), 3, "alarm excluded");
        assert!(lines[0].contains("\"task\":\"t1\"") && lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"task\":\"t1\"") && lines[1].contains("\"seq\":1"));
        assert!(lines[2].contains("\"task\":\"t2\""));
        assert!(!canon.contains("ts_ns"));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let log = std::sync::Arc::new(EventLog::new());
        let threads = 8;
        let per = 500;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..per {
                        log.record(
                            EventKind::Get,
                            Some((TaskId(t + 1), None, i)),
                            PromiseId(1),
                            None,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len() as u64, threads * per);
        assert_eq!(log.snapshot().len() as u64, threads * per);
    }
}
