//! Allocation budget of the message and spawn paths, under a counting global
//! allocator (this file is its own binary, so the allocator is private to
//! it; the tests serialise on a lock because the counter is process-wide).
//!
//! * A steady-state `send` + `recv` on a **named** channel makes no
//!   allocator call, verified or not: cell *n*'s name is the pair
//!   (label, *n*), and the text `label[n]` is written only when read.
//! * A named spawn allocates its name once: the task and its completion
//!   promise `name::completion` share the string.
//!
//! If one of these fails after a change, something put an allocator call
//! back on a per-message or per-spawn path.

use std::sync::Mutex;

use promise_core::VerificationMode;
use promise_runtime::{spawn_named, Runtime};
use promise_stats::{AllocStats, CountingAllocator};
use promise_sync::Channel;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const WINDOW: u64 = 2_000;

/// Allocator calls made by `window`, for up to five windows, stopping at the
/// first one that makes none.  Pools grow monotonically and are never given
/// back, so a window may still witness one capacity event; a genuine
/// per-operation allocation shows in *every* window.
fn allocations_per_window(mut window: impl FnMut()) -> Vec<u64> {
    let mut counts = Vec::new();
    for _ in 0..5 {
        let before = AllocStats::snapshot().total_allocations;
        window();
        let count = AllocStats::snapshot().total_allocations - before;
        counts.push(count);
        if count == 0 {
            break;
        }
    }
    counts
}

fn runtime(mode: VerificationMode) -> Runtime {
    Runtime::builder()
        .verification(mode)
        .initial_workers(2)
        // Thread churn allocates stacks and names; see `zero_alloc_spawn`.
        .worker_keep_alive(std::time::Duration::from_secs(300))
        .blocked_aware_growth(true)
        .build()
}

fn named_channel_messages_allocate_nothing(mode: VerificationMode) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rt = runtime(mode);
    rt.block_on(|| {
        let ch = Channel::<u64>::with_name("budget");
        let mut round_trip = |i: u64| {
            ch.send(i).unwrap();
            assert_eq!(ch.recv().unwrap(), Some(i));
        };
        // Warm the cell-block and arena-slot pools.
        (0..4 * WINDOW).for_each(&mut round_trip);
        let counts = allocations_per_window(|| (0..WINDOW).for_each(&mut round_trip));
        assert_eq!(
            *counts.last().unwrap(),
            0,
            "{mode:?}: a named channel must reach a window of {WINDOW} messages with no \
             allocator call; calls per window: {counts:?}"
        );
        ch.stop().unwrap();
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    rt.shutdown();
}

#[test]
fn named_channel_messages_allocate_nothing_verified() {
    named_channel_messages_allocate_nothing(VerificationMode::Full);
}

#[test]
fn named_channel_messages_allocate_nothing_unverified() {
    named_channel_messages_allocate_nothing(VerificationMode::Unverified);
}

#[test]
fn a_named_spawn_allocates_its_name_once() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rt = runtime(VerificationMode::Full);
    rt.block_on(|| {
        let h = spawn_named("budget-worker", (), || 0u64);
        assert_eq!(
            h.completion().name().as_deref(),
            Some("budget-worker::completion"),
            "the completion promise is named after the task, as ever"
        );
        h.join().unwrap();

        let mut round = |i: u64| {
            let h = spawn_named("budget-worker", (), move || i + 1);
            assert_eq!(h.join().unwrap(), i + 1);
        };
        // Warm every pool on the spawn path, as `zero_alloc_spawn` does.
        (0..4 * WINDOW).for_each(&mut round);
        let burst: Vec<_> = (0..256u64)
            .map(|i| spawn_named("budget-worker", (), move || i))
            .collect();
        for h in burst {
            h.join().unwrap();
        }
        let counts = allocations_per_window(|| (0..WINDOW).for_each(&mut round));
        let best = *counts.iter().min().unwrap();
        assert!(
            best <= WINDOW,
            "a named spawn may allocate its name and nothing else; allocator calls per window \
             of {WINDOW} spawns: {counts:?}"
        );
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    rt.shutdown();
}
