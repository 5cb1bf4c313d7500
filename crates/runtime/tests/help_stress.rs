//! Seeded stress for steal-to-wait helping (PR 9): blocked `get`s that run
//! pending jobs instead of parking.
//!
//! The suite pins the four properties the tentpole claims:
//!
//! * **thread-peak reduction** — on a deep fork/join tree where every
//!   interior node blocks at its joins, helping must cut the worker peak at
//!   least in half versus the blocked-aware growth heuristic alone (the
//!   ISSUE's acceptance criterion);
//! * **bounded nesting** — a ladder far deeper than `max_depth` completes
//!   correctly: the bound forces the conservative park-and-grow path, never
//!   a lost wake-up;
//! * **fault containment inside help frames** — a helped job that panics is
//!   contained exactly like a worker-run job: the helper's own ledger
//!   survives, its exit sweep runs, and no alarm is fabricated;
//! * **deadlines beat helping** — a timed `get` re-checks its deadline
//!   between helped jobs and still settles with a typed `Timeout`.
//!
//! Like the other stress suites, `STRESS_SEED` varies the schedule between
//! CI jobs and the echoed replay line reproduces any failure in one command.
//! The help × cancel interplay is covered at campaign scale by
//! `chaos_harness::recall_survives_panic_and_cancel_injection` in
//! `promise-model`, which injects subtree cancellation while the runtime
//! builds with helping on by default.

use std::time::{Duration, Instant};

use promise_core::test_support::rng::{seed_from_env_echoed, xorshift};
use promise_core::{HelpConfig, Promise, PromiseError};
use promise_runtime::{spawn, spawn_named, Runtime};

/// Fork-both binary tree: *every* interior node spawns both halves and
/// blocks at the joins with no work of its own — the shape where the
/// park-and-grow rule pays one thread per frontier node, and the shape
/// helping collapses (the blocked parent pops its own children off the
/// LIFO deque and runs them inline).  The values flow back through the
/// join handles (completion promises), so each node's only obligation
/// while blocked is its *exempt* completion promise — the idiom the help
/// eligibility gate admits.  A node that instead owed an unfulfilled
/// transferred promise (`spawn(&p, …)` with the `set` after the joins)
/// would be refused by the gate and park exactly as before.
fn fork_both_tree(depth: u32, salt: u64) -> u64 {
    if depth == 0 {
        let mut x = salt | 1;
        for i in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        return (x & 7) + 1;
    }
    let hl = spawn((), move || fork_both_tree(depth - 1, salt ^ 0x9e37));
    let hr = spawn((), move || fork_both_tree(depth - 1, salt.rotate_left(7)));
    let l = hl.join().unwrap();
    let r = hr.join().unwrap();
    l + r
}

/// With helping on, the thread peak of a deep fork/join run drops at least
/// 2× versus parking at every join.  Full verification throughout — the
/// help gate only admits tasks whose ledger is clean, which is exactly the
/// fork/join shape.
#[test]
fn helping_halves_thread_peak_on_deep_forkjoin() {
    let mut seed = seed_from_env_echoed(0x5eed_4e1b_0001, "help_stress");
    const DEPTH: u32 = 8; // 2^9 - 2 = 510 spawned tasks

    let run = |helping: bool, salt: u64| {
        let rt = Runtime::builder()
            .worker_keep_alive(Duration::from_secs(5))
            .help(if helping {
                HelpConfig::default()
            } else {
                HelpConfig::disabled()
            })
            .build();
        let (sum, metrics) = rt.measure(|| fork_both_tree(DEPTH, salt)).unwrap();
        assert!(
            (1u64 << DEPTH..=8u64 << DEPTH).contains(&sum),
            "tree mis-joined: {sum}"
        );
        assert_eq!(rt.context().alarm_count(), 0);
        if helping {
            assert!(
                metrics.helped() > 0,
                "blocked joins never helped: {metrics}"
            );
        } else {
            assert_eq!(
                metrics.helped(),
                0,
                "helping disabled must never run a helped job: {metrics}"
            );
        }
        metrics.peak_threads()
    };

    // Medians over three runs each: thread counts jitter with scheduling.
    let median = |helping: bool, seed: &mut u64| {
        let mut xs: Vec<usize> = (0..3).map(|_| run(helping, xorshift(seed))).collect();
        xs.sort();
        xs[1]
    };
    let parked = median(false, &mut seed);
    let helped = median(true, &mut seed);
    assert!(
        parked >= 4,
        "baseline never grew — the tree did not block enough to measure \
         (parked peak {parked})"
    );
    assert!(
        helped * 2 <= parked,
        "helping must at least halve the deep fork/join thread peak: \
         helped peak {helped} vs parked peak {parked}"
    );
}

/// A blocking ladder far deeper than `max_depth`: task `i` spawns task
/// `i + 1` and blocks joining it, so helping nests one frame per rung
/// until the bound refuses and the refused `get` parks and grows.  The
/// ladder must resolve exactly (no lost wake-up at the bound) for several
/// depth bounds, including `max_depth: 1` (helping barely nests) and the
/// default.
#[test]
fn nested_helping_to_the_depth_bound_completes_exactly() {
    const RUNGS: u64 = 24; // 6× the default max_depth of 4

    fn ladder(rung: u64) -> u64 {
        if rung == 0 {
            return 1;
        }
        let h = spawn_named(&format!("rung-{rung}"), (), move || ladder(rung - 1));
        // A leaf job pushed after the rung: thieves steal from the far end
        // of the deque, so the blocked join below almost always finds *this*
        // job on its LIFO pop even when an idle worker wins the race for the
        // rung itself — keeping "did any helping happen" deterministic
        // while the rung-runs-rung case exercises the nesting bound.
        let pad = spawn_named("pad", (), move || rung.wrapping_mul(0x9e37_79b9));
        let v = h.join().unwrap() + 1;
        pad.join().unwrap();
        v
    }

    for max_depth in [1usize, 2, 4, 16] {
        let rt = Runtime::builder()
            .help(HelpConfig {
                max_depth,
                ..HelpConfig::default()
            })
            .worker_keep_alive(Duration::from_secs(5))
            .build();
        let (got, metrics) = rt.measure(|| ladder(RUNGS)).unwrap();
        assert_eq!(
            got,
            RUNGS + 1,
            "ladder mis-resolved at max_depth {max_depth}"
        );
        assert!(
            metrics.helped() > 0,
            "no rung was ever helped at max_depth {max_depth}: {metrics}"
        );
        assert_eq!(rt.context().alarm_count(), 0);
    }
}

/// A panicking helped job must be contained exactly like a worker-run job:
/// the panic is typed on the doomed task's handle, the *helper's* ledger is
/// untouched (it still fulfils its own promise and its exit sweep raises no
/// omitted-set alarm), and `tasks_panicked` accounts for every plant.
#[test]
fn panicking_helped_job_does_not_corrupt_the_helper() {
    const PARENTS: usize = 24;

    let mut seed = seed_from_env_echoed(0x5eed_4e1b_0002, "help_stress");
    let rt = Runtime::builder()
        .worker_keep_alive(Duration::from_secs(5))
        .build();
    let (sum, metrics) = rt
        .measure(|| {
            let mut handles = Vec::new();
            for i in 0..PARENTS as u64 {
                let p = Promise::<u64>::new();
                let salt = xorshift(&mut seed);
                let h = spawn_named("parent", &p, {
                    let p = p.clone();
                    move || {
                        // Fulfil the transferred obligation *first*: the
                        // eligibility gate admits a blocked task whose
                        // ledger holds only fulfilled entries (plus the
                        // exempt completion promise), so this parent may
                        // help at the join below.
                        p.set(i).unwrap();
                        // The doomed child is the freshest entry in this
                        // worker's deque when `join` blocks, so helping
                        // runs it *inline in this task's frame* — the
                        // panic unwinds through the help boundary, not a
                        // worker loop.  It claims a local promise first so
                        // the unwind also exercises slot release.
                        let doomed = spawn_named("doomed", (), move || {
                            let local: Promise<u64> = Promise::new();
                            local.set(salt).unwrap();
                            assert_eq!(local.get().unwrap(), salt);
                            panic!("injected help-frame panic {salt:#x}");
                        });
                        match doomed.join() {
                            Err(PromiseError::TaskPanicked { .. }) => {}
                            other => panic!("doomed child settled as {other:?}"),
                        }
                        // The helper's exit sweep still runs over its
                        // (fulfilled) ledger: corruption would surface
                        // below as an omitted-set alarm or a bad value.
                    }
                });
                handles.push((p, h));
            }
            let mut sum = 0;
            for (p, h) in handles {
                sum += p.get().unwrap();
                h.join().unwrap();
            }
            sum
        })
        .unwrap();

    assert_eq!(sum, (PARENTS as u64 * (PARENTS as u64 - 1)) / 2);
    assert_eq!(
        metrics.panics(),
        PARENTS as u64,
        "every planted panic must be typed and counted: {metrics}"
    );
    assert!(
        metrics.helped() > 0,
        "no doomed child was ever run inline: {metrics}"
    );
    assert_eq!(
        rt.context().alarm_count(),
        0,
        "contained help-frame panics must not fabricate alarms: {:?}",
        rt.context().alarms()
    );
}

/// A timed `get` that enters the help loop must still honour its deadline:
/// the wait re-checks the clock between helped jobs, so a waiter racing a
/// queue full of runnable work settles with the value or a typed
/// `Timeout` — never a hang, and the timeout accounting stays exact.
#[test]
fn timed_get_deadline_survives_helping() {
    const ROUNDS: usize = 8;
    const WAITERS: usize = 8;

    let mut seed = seed_from_env_echoed(0x5eed_4e1b_0003, "help_stress");
    let rt = Runtime::builder()
        .initial_workers(2)
        .worker_keep_alive(Duration::from_secs(5))
        .build();
    let ((values, timeouts), metrics) = rt
        .measure(|| {
            let mut values = 0u64;
            let mut timeouts = 0u64;
            for round in 0..ROUNDS {
                let gate: Promise<u64> = Promise::new();
                // Background fodder: short spin jobs that keep the queues
                // non-empty, so blocked timed waiters have something to
                // help with while their deadlines run down.
                let fodder: Vec<_> = (0..16u64)
                    .map(|_| {
                        let spin = 1 + xorshift(&mut seed) % 3;
                        spawn((), move || {
                            let until = Instant::now() + Duration::from_millis(spin);
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        })
                    })
                    .collect();
                let waiters: Vec<_> = (0..WAITERS)
                    .map(|_| {
                        let budget = Duration::from_millis(1 + xorshift(&mut seed) % 8);
                        let gate = gate.clone();
                        spawn_named("timed-helper", (), move || match gate.get_timeout(budget) {
                            Ok(v) => (v, 0u64),
                            Err(PromiseError::Timeout { .. }) => (0, 1),
                            Err(other) => panic!("waiter settled untyped: {other}"),
                        })
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(xorshift(&mut seed) % 8));
                gate.set(round as u64 + 1).unwrap();
                for h in waiters {
                    let (v, t) = h.join().unwrap();
                    assert!(
                        (v == round as u64 + 1 && t == 0) || (v == 0 && t == 1),
                        "waiter neither got the value nor timed out: ({v}, {t})"
                    );
                    values += u64::from(v != 0);
                    timeouts += t;
                }
                for f in fodder {
                    f.join().unwrap();
                }
            }
            (values, timeouts)
        })
        .unwrap();

    assert_eq!(
        values + timeouts,
        (ROUNDS * WAITERS) as u64,
        "a timed waiter vanished"
    );
    assert_eq!(
        metrics.timed_out(),
        timeouts,
        "gets_timed_out diverged from observed timeouts: {metrics}"
    );
    assert_eq!(metrics.panics(), 0);
    assert_eq!(rt.context().alarm_count(), 0);
}
