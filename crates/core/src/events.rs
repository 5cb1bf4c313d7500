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
//! Two exports render a slice of records, such as one
//! [`snapshot`](EventLog::snapshot) taken once and kept: [`jsonl`] writes the
//! full log (one JSON object per line, with timestamps); [`canonical_jsonl`]
//! writes the schedule-independent projection: all non-alarm events sorted
//! by `(task key, seq)` with timestamps dropped.  Two runs of the same
//! program with the same seed produce byte-identical canonical exports even
//! though their raw interleavings (and the racy alarm multiplicity of §3.1)
//! differ.  [`EventLog::to_jsonl`] and [`EventLog::canonical_jsonl`] are the
//! same exports over a fresh snapshot.
//!
//! The exports allocate only what they return: every record is written
//! straight into one string, sized exactly by a first pass that only counts
//! bytes, and the canonical sort compares borrowed task keys.  `jsonl`
//! makes one allocation and `canonical_jsonl` two, whatever the record
//! count.

use std::cmp::Ordering;
use std::fmt::{self, Write};
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

    /// Appends the record to `out` as one JSON object (no trailing
    /// newline).  Absent optional fields are omitted.  Integers and names
    /// are written straight into `out`: no field takes a temporary string.
    pub fn write_json(&self, out: &mut String) {
        let _ = self.write_json_to(out);
    }

    /// Serializes the record as one JSON object (no trailing newline); see
    /// [`write_json`](Self::write_json).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    fn write_json_to<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        write!(
            out,
            "{{\"kind\":\"{}\",\"ts_ns\":{},\"task\":{}",
            self.kind.label(),
            self.ts_ns,
            self.task.0
        )?;
        if let Some(n) = &self.task_name {
            write_str_field(out, "task_name", n)?;
        }
        if self.seq != u64::MAX {
            write!(out, ",\"seq\":{}", self.seq)?;
        }
        if self.promise.is_some() {
            write!(out, ",\"promise\":{}", self.promise.0)?;
        }
        if let Some(n) = &self.promise_name {
            write_name_field(out, "promise_name", n)?;
        }
        if self.child.is_some() {
            write!(out, ",\"child\":{}", self.child.0)?;
        }
        if let Some(n) = &self.child_name {
            write_str_field(out, "child_name", n)?;
        }
        if let Some(a) = self.alarm {
            write_str_field(out, "alarm", a)?;
        }
        out.write_char('}')
    }

    /// Whether the record is part of the canonical projection.  Excluded:
    /// alarms (their multiplicity and order are racy by §3.1), injected
    /// faults (panic/cancel — the assignment of seeded fault draws to
    /// operations is racy by design), and events recorded outside any task.
    fn is_canonical(&self) -> bool {
        !matches!(
            self.kind,
            EventKind::Alarm | EventKind::Panic | EventKind::Cancel
        ) && self.seq != u64::MAX
    }

    /// The canonical (schedule-independent) serialization: task key, per-task
    /// sequence number, kind, and the names involved — no timestamps, no raw
    /// ids (runtime ids are assigned by racy global counters).  Returns
    /// `None` for events excluded from the projection: alarms, injected
    /// faults and events recorded outside any task.
    pub fn to_canonical_json(&self) -> Option<String> {
        self.is_canonical().then(|| {
            let mut out = String::with_capacity(64);
            let _ = self.write_canonical_json(&mut out);
            out
        })
    }

    fn write_canonical_json<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let mut key = [0; KEY_BUF];
        out.write_str("{\"task\":\"")?;
        JsonEscaped(&mut *out).write_str(self.key(&mut key))?;
        write!(
            out,
            "\",\"seq\":{},\"kind\":\"{}\"",
            self.seq,
            self.kind.label()
        )?;
        if let Some(n) = &self.promise_name {
            write_name_field(out, "promise", n)?;
        }
        if let Some(n) = &self.child_name {
            write_str_field(out, "child", n)?;
        }
        out.write_char('}')
    }

    /// The task's stable key: its captured name when present (names are
    /// caller-chosen and survive re-runs), otherwise its numeric id.
    pub fn task_key(&self) -> String {
        self.key(&mut [0; KEY_BUF]).to_owned()
    }

    /// [`task_key`](Self::task_key) without a string: the name itself, or
    /// `#<id>` written into `buf`.
    fn key<'a>(&'a self, buf: &'a mut [u8; KEY_BUF]) -> &'a str {
        if let Some(n) = &self.task_name {
            return n;
        }
        let mut i = KEY_BUF;
        let mut id = self.task.0;
        loop {
            i -= 1;
            buf[i] = b'0' + (id % 10) as u8;
            id /= 10;
            if id == 0 {
                break;
            }
        }
        i -= 1;
        buf[i] = b'#';
        std::str::from_utf8(&buf[i..]).expect("`#` and ASCII digits")
    }
}

/// Room for `#` and the 20 digits of `u64::MAX`.
const KEY_BUF: usize = 21;

/// The canonical order: task key (compared as bytes, as the strings of
/// [`EventRecord::task_key`] compare — so `#12` sorts before `#3`), then
/// `seq`.  Ties keep log order: every record compared lies in one slice, so
/// address order is log order and an unstable sort needs no scratch buffer
/// to be stable.
fn canonical_order(a: &EventRecord, b: &EventRecord) -> Ordering {
    let (mut ka, mut kb) = ([0; KEY_BUF], [0; KEY_BUF]);
    a.key(&mut ka)
        .cmp(b.key(&mut kb))
        .then(a.seq.cmp(&b.seq))
        .then_with(|| std::ptr::from_ref(a).cmp(&std::ptr::from_ref(b)))
}

/// Full JSONL export of `records`: one JSON object per line, in slice
/// order, with timestamps.  One allocation, the returned string.
pub fn jsonl(records: &[EventRecord]) -> String {
    lines(records.iter(), |rec, out| rec.write_json_to(out))
}

/// Canonical JSONL export of `records`: the records of the canonical
/// projection sorted by `(task key, seq)`, timestamps and raw ids dropped.
/// Two allocations: the sorted references and the returned string.
pub fn canonical_jsonl(records: &[EventRecord]) -> String {
    let mut recs = Vec::with_capacity(records.len());
    recs.extend(records.iter().filter(|r| r.is_canonical()));
    recs.sort_unstable_by(|a, b| canonical_order(a, b));
    lines(recs.iter().copied(), |rec, out| {
        rec.write_canonical_json(out)
    })
}

/// Writes one line per record into a string of exactly the right size: a
/// first pass only counts the bytes.
fn lines<'a, I>(records: I, line: impl Fn(&EventRecord, &mut dyn Write) -> fmt::Result) -> String
where
    I: Iterator<Item = &'a EventRecord> + Clone,
{
    let mut len = ByteCount(0);
    for rec in records.clone() {
        let _ = line(rec, &mut len);
        len.0 += 1;
    }
    let mut out = String::with_capacity(len.0);
    for rec in records {
        let _ = line(rec, &mut out);
        out.push('\n');
    }
    out
}

/// A writer that only counts the bytes written through it.
struct ByteCount(usize);

impl Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Writes `,"key":"value"`, escaping the value.
fn write_str_field<W: Write + ?Sized>(out: &mut W, key: &str, value: &str) -> fmt::Result {
    write!(out, ",\"{key}\":\"")?;
    JsonEscaped(&mut *out).write_str(value)?;
    out.write_char('"')
}

/// Writes `,"key":"name"`, escaping the name's text as it is produced: a
/// structured name is written out here, for the log's consumers, and takes
/// no intermediate string.
fn write_name_field<W: Write + ?Sized>(out: &mut W, key: &str, name: &Name) -> fmt::Result {
    write!(out, ",\"{key}\":\"")?;
    write!(JsonEscaped(&mut *out), "{name}")?;
    out.write_char('"')
}

/// A writer that JSON-escapes what is written through it.
struct JsonEscaped<'a, W: ?Sized>(&'a mut W);

impl<W: Write + ?Sized> Write for JsonEscaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Every character that needs escaping is ASCII, and no byte of a
        // multi-byte UTF-8 sequence is, so `s` can be cut at those bytes.
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            self.0.write_str(&s[plain..i])?;
            match b {
                b'"' => self.0.write_str("\\\"")?,
                b'\\' => self.0.write_str("\\\\")?,
                b'\n' => self.0.write_str("\\n")?,
                b'\t' => self.0.write_str("\\t")?,
                b => write!(self.0, "\\u{b:04x}")?,
            }
            plain = i + 1;
        }
        self.0.write_str(&s[plain..])
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
        jsonl(&self.snapshot())
    }

    /// Canonical JSONL export: non-alarm events sorted by `(task key, seq)`,
    /// timestamps and raw ids dropped.  Byte-identical across runs with the
    /// same program and seed — the determinism oracle of the chaos tests.
    pub fn canonical_jsonl(&self) -> String {
        canonical_jsonl(&self.snapshot())
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
        let per = if cfg!(miri) { 50 } else { 500 };
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

    /// A hand-built log: named and unnamed tasks (ids 3 and 12, so `#12`
    /// sorts before `#3`), a named task whose key ties an unnamed one,
    /// escaped, non-ASCII and structured names, out-of-order `seq`s, and
    /// alarm, panic, cancel and task-less records.
    fn sample_log() -> Vec<EventRecord> {
        let rec = |kind, ts_ns, task: u64, name: Option<&str>, seq| EventRecord {
            task: TaskId(task),
            task_name: name.map(Arc::from),
            seq,
            ..EventRecord::blank(kind, ts_ns)
        };
        let with_promise = |mut r: EventRecord, p: u64, name: Name| {
            r.promise = PromiseId(p);
            r.promise_name = Some(name);
            r
        };
        let with_child = |mut r: EventRecord, c: u64, name: Option<&str>| {
            r.child = TaskId(c);
            r.child_name = name.map(Arc::from);
            r
        };
        let alarm = |mut r: EventRecord, a| {
            r.alarm = Some(a);
            r
        };
        let label: Arc<str> = Arc::from("in\"bound");
        vec![
            rec(EventKind::TaskStart, 10, 1, Some("root"), 0),
            with_child(rec(EventKind::Spawn, 20, 1, Some("root"), 1), 12, None),
            with_child(
                with_promise(
                    rec(EventKind::Transfer, 25, 1, Some("root"), 2),
                    5,
                    Name::Indexed(label.clone(), 17),
                ),
                7,
                Some("t\"q"),
            ),
            with_promise(
                rec(EventKind::Get, 40, 12, None, 1),
                5,
                Name::Indexed(label, 17),
            ),
            rec(EventKind::TaskStart, 30, 12, None, 0),
            rec(EventKind::TaskStart, 35, 3, None, 0),
            with_promise(rec(EventKind::Set, 50, 3, None, 1), 8, Name::plain("p8")),
            with_promise(
                rec(EventKind::Get, 52, 4, Some("#3"), 1),
                8,
                Name::plain("p8"),
            ),
            alarm(rec(EventKind::Alarm, 60, 3, None, 2), "deadlock"),
            rec(EventKind::Panic, 70, 12, None, 2),
            rec(EventKind::Cancel, 80, 7, Some("t\"q"), 0),
            alarm(rec(EventKind::Alarm, 90, 0, None, u64::MAX), "omitted-set"),
            rec(EventKind::TaskStart, 95, 0, None, u64::MAX),
            with_promise(
                rec(EventKind::Get, 100, 7, Some("t\"q"), 1),
                9,
                Name::Completion(Arc::from("t\\3")),
            ),
            with_promise(
                rec(EventKind::Set, 105, 9, Some("tab\there\u{1}é"), 0),
                10,
                Name::plain("new\nline"),
            ),
            rec(EventKind::TaskEnd, 110, 1, Some("root"), 3),
        ]
    }

    /// The full export, byte for byte, as the per-record `to_json` loop of
    /// earlier versions wrote it.
    const SAMPLE_JSONL: &[&str] = &[
        r##"{"kind":"task-start","ts_ns":10,"task":1,"task_name":"root","seq":0}"##,
        r##"{"kind":"spawn","ts_ns":20,"task":1,"task_name":"root","seq":1,"child":12}"##,
        r##"{"kind":"transfer","ts_ns":25,"task":1,"task_name":"root","seq":2,"promise":5,"promise_name":"in\"bound[17]","child":7,"child_name":"t\"q"}"##,
        r##"{"kind":"get","ts_ns":40,"task":12,"seq":1,"promise":5,"promise_name":"in\"bound[17]"}"##,
        r##"{"kind":"task-start","ts_ns":30,"task":12,"seq":0}"##,
        r##"{"kind":"task-start","ts_ns":35,"task":3,"seq":0}"##,
        r##"{"kind":"set","ts_ns":50,"task":3,"seq":1,"promise":8,"promise_name":"p8"}"##,
        r##"{"kind":"get","ts_ns":52,"task":4,"task_name":"#3","seq":1,"promise":8,"promise_name":"p8"}"##,
        r##"{"kind":"alarm","ts_ns":60,"task":3,"seq":2,"alarm":"deadlock"}"##,
        r##"{"kind":"panic","ts_ns":70,"task":12,"seq":2}"##,
        r##"{"kind":"cancel","ts_ns":80,"task":7,"task_name":"t\"q","seq":0}"##,
        r##"{"kind":"alarm","ts_ns":90,"task":0,"alarm":"omitted-set"}"##,
        r##"{"kind":"task-start","ts_ns":95,"task":0}"##,
        r##"{"kind":"get","ts_ns":100,"task":7,"task_name":"t\"q","seq":1,"promise":9,"promise_name":"t\\3::completion"}"##,
        r##"{"kind":"set","ts_ns":105,"task":9,"task_name":"tab\there\u0001é","seq":0,"promise":10,"promise_name":"new\nline"}"##,
        r##"{"kind":"task-end","ts_ns":110,"task":1,"task_name":"root","seq":3}"##,
    ];

    /// The canonical export, byte for byte, as the earlier
    /// `sort_by_key(task_key(), seq)` over owned key strings wrote it.
    const SAMPLE_CANONICAL: &[&str] = &[
        r##"{"task":"#12","seq":0,"kind":"task-start"}"##,
        r##"{"task":"#12","seq":1,"kind":"get","promise":"in\"bound[17]"}"##,
        r##"{"task":"#3","seq":0,"kind":"task-start"}"##,
        r##"{"task":"#3","seq":1,"kind":"set","promise":"p8"}"##,
        r##"{"task":"#3","seq":1,"kind":"get","promise":"p8"}"##,
        r##"{"task":"root","seq":0,"kind":"task-start"}"##,
        r##"{"task":"root","seq":1,"kind":"spawn"}"##,
        r##"{"task":"root","seq":2,"kind":"transfer","promise":"in\"bound[17]","child":"t\"q"}"##,
        r##"{"task":"root","seq":3,"kind":"task-end"}"##,
        r##"{"task":"t\"q","seq":1,"kind":"get","promise":"t\\3::completion"}"##,
        r##"{"task":"tab\there\u0001é","seq":0,"kind":"set","promise":"new\nline"}"##,
    ];

    fn joined(lines: &[&str]) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn exports_of_a_hand_built_log_are_pinned_byte_for_byte() {
        let recs = sample_log();
        assert_eq!(jsonl(&recs), joined(SAMPLE_JSONL));
        assert_eq!(canonical_jsonl(&recs), joined(SAMPLE_CANONICAL));
        assert_eq!(jsonl(&[]), "");
        assert_eq!(canonical_jsonl(&[]), "");
    }

    #[test]
    fn canonical_keys_match_the_task_key_strings() {
        let mut recs = sample_log();
        for id in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX] {
            recs.push(EventRecord {
                task: TaskId(id),
                seq: 0,
                ..EventRecord::blank(EventKind::TaskStart, 0)
            });
        }
        assert_eq!(
            EventRecord {
                task: TaskId(u64::MAX),
                ..EventRecord::blank(EventKind::TaskStart, 0)
            }
            .task_key(),
            format!("#{}", u64::MAX)
        );
        for a in &recs {
            for b in &recs {
                assert_eq!(
                    canonical_order(a, b),
                    (a.task_key(), a.seq)
                        .cmp(&(b.task_key(), b.seq))
                        .then(std::ptr::from_ref(a).cmp(&std::ptr::from_ref(b))),
                );
            }
        }
    }
}
