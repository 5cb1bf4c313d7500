//! Golden text: every place a task or promise name is *read* renders the
//! same bytes as when names were stored as eagerly built strings — the
//! deadlock report, the omitted-set report, the event log's JSON lines and
//! the replay tool's stable task key.
//!
//! Ids are deterministic here: each test builds a fresh context and drives
//! it from one thread, so tasks and promises are numbered in program order.

use promise_core::ownership::prepare_task;
use promise_core::{Context, EventKind, PolicyConfig, Promise, PromiseError};

/// The one run-specific field of an event line.
fn without_timestamp(line: &str) -> String {
    let start = line.find("\"ts_ns\":").expect("every line carries ts_ns");
    let digits = start + "\"ts_ns\":".len();
    let end = digits
        + line[digits..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("a field follows ts_ns");
    format!("{}\"ts_ns\":T{}", &line[..start], &line[end..])
}

#[test]
fn deadlock_report_names_its_first_entry_as_before() {
    let ctx = Context::new_verified();
    let root = ctx.root_task(Some("main"));
    let p = Promise::<u32>::with_name("p");
    let Err(PromiseError::DeadlockDetected(cycle)) = p.get() else {
        panic!("a task awaiting its own promise closes a cycle of one");
    };
    let first = &cycle.entries[0];
    assert_eq!(first.task_name.as_deref(), Some("main"));
    assert_eq!(first.promise_name.as_deref(), Some("p"));
    assert_eq!(
        cycle.to_string(),
        "deadlock cycle of 1 task(s): main(task#1) awaits p(promise#1) -> back to task#1"
    );
    p.set(0).unwrap();
    root.finish();
}

#[test]
fn omitted_set_report_names_task_and_promise_as_before() {
    let ctx = Context::new_verified();
    let _root = ctx.root_task(None);
    let p = Promise::<u32>::with_name("checksum");
    let child = prepare_task(Some("downloader"), vec![p.as_erased()]).unwrap();
    let report = std::thread::spawn(move || child.activate().finish())
        .join()
        .unwrap()
        .expect("the child exits owning `checksum`");
    assert_eq!(
        report.to_string(),
        "omitted set: downloader(task#2) terminated while still owning 1 unfulfilled \
         promise(s): checksum(promise#1)"
    );
    assert_eq!(
        p.get().unwrap_err().to_string(),
        report.to_string(),
        "the waiter's error is the same report"
    );
}

#[test]
fn transfer_and_set_event_lines_and_the_replay_key_are_unchanged() {
    let ctx = Context::new_instrumented(PolicyConfig::verified(), None, true);
    let root = ctx.root_task(None);
    let p = Promise::<u32>::with_name("p7");
    let child = prepare_task(Some("t3"), vec![p.as_erased()]).unwrap();
    let p_in_child = p.clone();
    std::thread::spawn(move || {
        let scope = child.activate();
        p_in_child.set(1).unwrap();
        scope.finish()
    })
    .join()
    .unwrap();
    assert_eq!(p.get().unwrap(), 1);
    root.finish();

    let events = ctx.event_log().expect("the log is on").snapshot();
    let line_of = |kind: EventKind| {
        let rec = events
            .iter()
            .find(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} record"));
        (rec.clone(), without_timestamp(&rec.to_json()))
    };

    let (transfer, transfer_line) = line_of(EventKind::Transfer);
    assert_eq!(
        transfer_line,
        "{\"kind\":\"transfer\",\"ts_ns\":T,\"task\":1,\"task_name\":\"root\",\"seq\":2,\
         \"promise\":1,\"promise_name\":\"p7\",\"child\":2,\"child_name\":\"t3\"}"
    );
    assert_eq!(transfer.task_key(), "root");
    assert_eq!(
        transfer.to_canonical_json().as_deref(),
        Some("{\"task\":\"root\",\"seq\":2,\"kind\":\"transfer\",\"promise\":\"p7\",\"child\":\"t3\"}")
    );

    let (set, set_line) = line_of(EventKind::Set);
    assert_eq!(
        set_line,
        "{\"kind\":\"set\",\"ts_ns\":T,\"task\":2,\"task_name\":\"t3\",\"seq\":1,\
         \"promise\":1,\"promise_name\":\"p7\"}"
    );
    assert_eq!(set.task_key(), "t3", "the replay tool's stable task key");

    // An unnamed task keys by id.
    let unnamed = Context::new_instrumented(PolicyConfig::unverified(), None, true);
    let root = unnamed.root_task(None);
    root.finish();
    let events = unnamed.event_log().unwrap().snapshot();
    assert_eq!(events[0].task_key(), "#1");
}
