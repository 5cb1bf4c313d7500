//! What a channel keeps alive, and how it lets go.
//!
//! * A parent that creates channels, hands their sending ends to children
//!   and then only joins must not keep every message alive: its lazy ledger
//!   still lists cell 0 of each channel, cell *n*'s payload holds cell
//!   *n + 1*, and the append-triggered ledger sweep never runs for a task
//!   that stops creating promises.  The ledger is swept when the task parks.
//! * Dropping a long unreceived chain must not recurse once per message,
//!   whoever holds its first cell last.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use promise_core::task::current_context;
use promise_runtime::{spawn, spawn_named, Runtime};
use promise_sync::Channel;

#[test]
fn a_parent_that_only_joins_does_not_pin_its_childrens_messages() {
    const ROUNDS: u32 = 20_000;
    let rt = Runtime::new();
    let live_at_the_end = rt
        .block_on(|| {
            let ping = Channel::<u32>::with_name("ping");
            let pong = Channel::<u32>::with_name("pong");
            let pinger = spawn_named("pinger", &ping, {
                let (ping, pong) = (ping.clone(), pong.clone());
                move || {
                    let mut value = 0;
                    for _ in 0..ROUNDS {
                        ping.send(value).unwrap();
                        value = pong.recv().unwrap().expect("pong answers every ping");
                    }
                    assert_eq!(value, ROUNDS);
                    let live = current_context().unwrap().live_promises();
                    ping.stop().unwrap();
                    live
                }
            });
            let ponger = spawn_named("ponger", &pong, {
                let (ping, pong) = (ping.clone(), pong.clone());
                move || {
                    while let Some(v) = ping.recv().unwrap() {
                        pong.send(v + 1).unwrap();
                    }
                    pong.stop().unwrap();
                }
            });
            // The root does nothing but join.
            drop((ping, pong));
            let live = pinger.join().unwrap();
            ponger.join().unwrap();
            live
        })
        .unwrap();
    let ctx = rt.context();
    assert_eq!(ctx.alarm_count(), 0);
    assert_eq!(
        ctx.counter_snapshot().promises_created,
        2 * u64::from(ROUNDS) + 4,
        "one promise per message, two first cells, two completions"
    );
    assert!(
        live_at_the_end < 64,
        "after {ROUNDS} one-at-a-time round trips a handful of promises are live, not \
         {live_at_the_end}"
    );
    // The peak reads 7 to 9 when the root parks in its first join before
    // the children's first round trip.  The margin is for a root that is
    // preempted on its way there while the children already run (it pins
    // what they exchange until it parks) and for the gauge's bounded
    // over-report under racing folds.  Pinning everything reads 40 004.
    let peak = ctx.peak_live_promises();
    assert!(peak < 2_000, "peak live promises: {peak}");
}

#[test]
fn dropping_a_long_unreceived_channel_on_a_worker_does_not_overflow_the_stack() {
    const MESSAGES: u64 = 2_000_000;
    let rt = Runtime::new();
    let sent = rt
        .block_on(|| {
            // On a spawned task: workers have the smallest stacks (2 MiB).
            spawn((), || {
                let ch = Channel::<u64>::new();
                for i in 0..MESSAGES {
                    ch.send(i).unwrap();
                }
                ch.stop().unwrap();
                let sent = ch.sent_count();
                drop(ch);
                sent
            })
            .join()
            .unwrap()
        })
        .unwrap();
    assert_eq!(sent, MESSAGES);
    assert_eq!(rt.context().alarm_count(), 0);
    assert_eq!(rt.context().live_promises(), 0, "the whole chain was freed");
}

/// The same chain, let go of last by a ledger rather than by the channel:
/// the root made the channel and handed its sending end away, so its lazy
/// ledger still lists cell 0 when every `Channel` handle is gone, and the
/// chain dies when the root's exit sweep drops that entry.
#[test]
fn a_chain_whose_first_cell_outlives_the_channel_in_a_ledger_is_freed_iteratively() {
    const MESSAGES: u64 = 500_000;
    let rt = Runtime::new();
    rt.block_on(|| {
        let ch = Channel::<u64>::new();
        let channel_gone = Arc::new(AtomicBool::new(false));
        let sender = spawn(&ch, {
            let (ch, channel_gone) = (ch.clone(), Arc::clone(&channel_gone));
            move || {
                for i in 0..MESSAGES {
                    ch.send(i).unwrap();
                }
                ch.stop().unwrap();
                drop(ch);
                channel_gone.store(true, Ordering::Release);
            }
        });
        drop(ch);
        // Do not park (parking sweeps the ledger) until the ledger entry is
        // the chain's only holder.
        while !channel_gone.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        assert!(
            current_context().unwrap().live_promises() > MESSAGES as usize,
            "the root's ledger entry for cell 0 keeps the whole chain"
        );
        sender.join().unwrap();
    })
    .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    assert_eq!(rt.context().live_promises(), 0, "the whole chain was freed");
}
