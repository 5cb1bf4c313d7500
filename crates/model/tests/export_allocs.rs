//! Allocator calls of the event log's two exports, under a counting global
//! allocator (this file is its own binary, so the allocator is private to
//! it; run with `--test-threads=1` — the counter is process-wide).
//!
//! `events::jsonl` writes every record into one string sized by a first,
//! counting pass: one allocation.  `events::canonical_jsonl` also sorts
//! references to the records by borrowed task keys: two.  Neither count
//! may grow with the number of records; if one does, something put a
//! per-record or per-comparison string back on the export path (a rendered
//! field, an owned sort key, a growing output buffer).

use std::sync::Arc;

use promise_core::events::{self, EventKind, EventRecord};
use promise_core::ids::{PromiseId, TaskId};
use promise_core::name::Name;
use promise_stats::{AllocStats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    AllocStats::snapshot().total_allocations
}

/// `n` records as a chaos program logs them: named and unnamed tasks with
/// interleaved per-task sequence numbers, named promises and children, and
/// an alarm now and then.
fn records(n: usize) -> Vec<EventRecord> {
    let names: Vec<Arc<str>> = (0..8).map(|t| Arc::from(format!("t{t}"))).collect();
    let label: Arc<str> = Arc::from("ch\"an");
    (0..n)
        .map(|i| {
            let task = (i % 11) as u64 + 1;
            let kind = match i % 7 {
                0 => EventKind::Spawn,
                1 | 2 => EventKind::Get,
                3 | 4 => EventKind::Set,
                5 => EventKind::Transfer,
                _ => EventKind::Alarm,
            };
            EventRecord {
                kind,
                ts_ns: 1_000 + 37 * i as u64,
                task: TaskId(task),
                task_name: names.get(task as usize).cloned(),
                seq: (n - i) as u64 / 11,
                promise: PromiseId(i as u64 + 1),
                promise_name: Some(Name::Indexed(Arc::clone(&label), i as u64)),
                child: TaskId(task + 1),
                child_name: names.get(task as usize + 1).cloned(),
                alarm: (kind == EventKind::Alarm).then_some("deadlock"),
            }
        })
        .collect()
}

/// Allocations made by `export` over `recs`, and the export's length.
fn counted(recs: &[EventRecord], export: fn(&[EventRecord]) -> String) -> (u64, usize) {
    let before = allocations();
    let text = export(recs);
    let made = allocations() - before;
    (made, text.len())
}

#[test]
fn exports_make_a_constant_number_of_allocations() {
    let small = records(10);
    let large = records(1_000);
    for (label, export, bound) in [
        ("jsonl", events::jsonl as fn(&[EventRecord]) -> String, 1),
        ("canonical_jsonl", events::canonical_jsonl, 2),
    ] {
        let (few, small_len) = counted(&small, export);
        let (many, large_len) = counted(&large, export);
        assert!(
            large_len > 50 * small_len,
            "{label}: the large log renders more"
        );
        assert!(
            many <= bound,
            "{label}: {many} allocations for 1 000 records"
        );
        assert_eq!(few, many, "{label}: allocations grow with the record count");
    }
}
