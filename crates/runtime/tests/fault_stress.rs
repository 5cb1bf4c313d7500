//! Seeded stress for the fault-containment layer (PR 8): shutdown racing
//! live submissions, timed-get storms with mixed timeout/fulfil orderings,
//! and panics that unwind through workers holding magazine state.
//!
//! Like the other stress suites, `STRESS_SEED` varies the schedule between
//! CI jobs and the echoed replay line reproduces any failure in one
//! command.  The pool-accounting tests take `pool_serial` so concurrent
//! tests in this binary cannot perturb the global job-pool counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use promise_core::job::job_pool_stats;
use promise_core::test_support::pool::{assert_outstanding_settles_to, pool_serial};
use promise_core::test_support::rng::{seed_from_env_echoed, xorshift};
use promise_core::{Promise, PromiseError};
use promise_runtime::{spawn, spawn_named, try_spawn, Runtime};

/// The grace period `shutdown_with_deadline` grants past the deadline
/// (phase 4's "one scheduling quantum"); must match the runtime's value.
const QUANTUM: Duration = Duration::from_millis(100);

/// Extra allowance on top of `deadline + QUANTUM` for CI scheduling noise
/// (the bound itself is poll-granular; a loaded box can delay the final
/// join/detach sweep by a few dozen milliseconds).
const SLOP: Duration = Duration::from_millis(400);

/// The ISSUE's acceptance criterion: `shutdown_with_deadline` returns
/// within the deadline plus one scheduling quantum, even when submissions
/// race the shutdown, getters are blocked on a promise nobody will fulfil
/// in time, and one worker is stuck in user code past every grace period.
#[test]
fn shutdown_under_load_returns_within_deadline_plus_quantum() {
    let _guard = pool_serial();
    let baseline = job_pool_stats().outstanding;
    let mut seed = seed_from_env_echoed(0x5eed_f417_0001, "fault_stress");

    let rt = Runtime::builder().initial_workers(4).build();
    let spawned = Arc::new(AtomicU64::new(0));
    rt.block_on(|| {
        // Generators race submission against the shutdown: each spins
        // spawning trivial children until admission is stopped, which must
        // surface as a typed `RuntimeShutdown` rejection — never a panic,
        // never a hang.  Spawned first so they claim the initial workers
        // (this may be a single-core box; late spawns can sit unscheduled
        // for a while).
        for _ in 0..3 {
            let spawned = Arc::clone(&spawned);
            let jitter = xorshift(&mut seed) % 64;
            spawn((), move || {
                for spin in 0..1_000_000u64 {
                    match try_spawn((), move || spin.wrapping_mul(0x9e37_79b9)) {
                        Ok(_) => {
                            spawned.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(PromiseError::RuntimeShutdown { .. }) => break,
                        Err(other) => panic!("unexpected spawn rejection: {other}"),
                    }
                    for _ in 0..jitter {
                        std::hint::spin_loop();
                    }
                }
            });
        }

        // One worker wedged in user code (a sleep the cancellation cannot
        // interrupt) while owning the gate everybody else waits on.  It
        // fulfils the gate when it wakes — *after* the runtime has already
        // detached it — so the block eventually returns to the pool.
        let gate: Promise<u64> = Promise::new();
        {
            let gate = gate.clone();
            spawn_named("stuck-holder", [gate.clone()], move || {
                std::thread::sleep(Duration::from_millis(1500));
                let _ = gate.set(1);
            });
        }

        // Blocked getters: stuck until phase 3 cancels the context-wide
        // shutdown token, which must wake them with `Cancelled` so they
        // exit inside the quantum instead of pinning their workers.
        for _ in 0..8 {
            let gate = gate.clone();
            spawn((), move || match gate.get() {
                Ok(v) => v,
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            PromiseError::Cancelled { .. } | PromiseError::Timeout { .. }
                        ),
                        "blocked getter woke with an unexpected error: {e}"
                    );
                    0
                }
            });
        }
    })
    .unwrap();

    // Let the race actually develop — the freshly grown worker threads need
    // to get scheduled at least once each — before pulling the plug.
    let armed = Instant::now();
    while spawned.load(Ordering::Relaxed) == 0 && armed.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(20));

    let deadline = Duration::from_millis(300);
    let start = Instant::now();
    let report = rt.shutdown_with_deadline(deadline);
    let elapsed = start.elapsed();

    assert!(
        elapsed <= deadline + QUANTUM + SLOP,
        "shutdown_with_deadline overran the deadline + quantum bound: \
         {elapsed:?} > {:?} ({report:?})",
        deadline + QUANTUM + SLOP,
    );
    assert!(
        !report.clean,
        "the wedged holder should have forced an unclean shutdown: {report:?}"
    );
    assert!(
        report.wall <= elapsed,
        "report wall time exceeds observed wall time: {report:?}"
    );
    assert!(
        spawned.load(Ordering::Relaxed) > 0,
        "the generators never got a submission in — the race did not happen"
    );

    // The detached holder wakes, fulfils the gate, and its worker thread
    // exits; every job block (including the straggler's) returns to the
    // pool.  Polling here also keeps the detached thread from leaking into
    // the next `pool_serial` section.
    assert_outstanding_settles_to(baseline);
}

/// A quiet runtime must finish in phase 2 — workers drain and exit well
/// before the deadline, the report is clean, and nothing is dropped.
#[test]
fn quiet_runtime_shuts_down_clean_within_deadline() {
    let rt = Runtime::builder().initial_workers(2).build();
    rt.block_on(|| {
        let handles: Vec<_> = (0..64u64)
            .map(|i| spawn((), move || i.wrapping_mul(3)))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), (i as u64).wrapping_mul(3));
        }
    })
    .unwrap();

    let report = rt.shutdown_with_deadline(Duration::from_secs(5));
    assert!(report.clean, "idle workers failed to drain: {report:?}");
    assert_eq!(report.dropped_jobs, 0, "{report:?}");
    assert_eq!(report.panicked_tasks, 0, "{report:?}");
    assert!(report.wall < Duration::from_secs(5), "{report:?}");
}

/// Timed-get storm: 16 waiters per round race a fulfiller with seeded,
/// deliberately overlapping timings, so rounds mix early fulfils (every
/// waiter gets the value), late fulfils (every waiter times out), and
/// photo-finishes (both).  Every waiter must settle with the value or a
/// typed `Timeout` — nothing else, and never a hang — and the runtime's
/// `gets_timed_out` counter must equal the observed timeouts exactly.
#[test]
fn timed_get_storm_settles_every_waiter_with_exact_accounting() {
    const ROUNDS: usize = 12;
    const WAITERS: usize = 16;

    let mut seed = seed_from_env_echoed(0x5eed_f417_0002, "fault_stress");
    let rt = Runtime::builder().initial_workers(4).build();
    let ((values, timeouts), metrics) = rt
        .measure(|| {
            let mut values = 0u64;
            let mut timeouts = 0u64;
            for round in 0..ROUNDS {
                let p: Promise<u64> = Promise::new();
                let handles: Vec<_> = (0..WAITERS)
                    .map(|_| {
                        // 1..=8 ms per-waiter budget straddles the
                        // fulfiller's 0..=7 ms delay below.
                        let budget = Duration::from_millis(1 + xorshift(&mut seed) % 8);
                        let p = p.clone();
                        spawn_named("timed-waiter", (), move || match p.get_timeout(budget) {
                            Ok(v) => (v, 0u64),
                            Err(PromiseError::Timeout { .. }) => (0, 1),
                            Err(other) => panic!("waiter settled untyped: {other}"),
                        })
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(xorshift(&mut seed) % 8));
                p.set(round as u64 + 1).unwrap();
                for h in handles {
                    let (v, t) = h.join().unwrap();
                    assert!(
                        (v == round as u64 + 1 && t == 0) || (v == 0 && t == 1),
                        "waiter neither got the value nor timed out: ({v}, {t})"
                    );
                    values += u64::from(v != 0);
                    timeouts += t;
                }
            }
            (values, timeouts)
        })
        .unwrap();

    assert_eq!(
        values + timeouts,
        (ROUNDS * WAITERS) as u64,
        "a waiter vanished"
    );
    assert_eq!(
        metrics.timed_out(),
        timeouts,
        "gets_timed_out counter diverged from observed timeouts"
    );
    assert_eq!(metrics.panics(), 0);
    assert_eq!(rt.context().alarm_count(), 0, "timed gets must not alarm");
    rt.shutdown();
}

/// Panics that unwind through a worker holding magazine state: each
/// panicking task takes arena slots (promises, child task records) from
/// the magazines before dying, and the short keep-alive retires workers
/// between waves so what they cached must serve the next wave's threads.
/// The pool accounting has to balance afterwards — a block leaked
/// mid-unwind shows up as a non-zero residue — and every panic must be
/// typed and counted.
#[test]
fn panics_holding_magazine_state_are_adopted_and_drained() {
    const WAVES: usize = 8;
    const PANICS_PER_WAVE: usize = 6;
    const NORMAL_PER_WAVE: usize = 10;

    let _guard = pool_serial();
    let baseline = job_pool_stats().outstanding;
    let mut seed = seed_from_env_echoed(0x5eed_f417_0003, "fault_stress");

    let rt = Runtime::builder()
        .initial_workers(3)
        .worker_keep_alive(Duration::from_millis(30))
        .build();
    let (observed_panics, metrics) = rt
        .measure(|| {
            let mut observed = 0u64;
            for wave in 0..WAVES {
                let mut doomed = Vec::new();
                let mut fine = Vec::new();
                for k in 0..PANICS_PER_WAVE.max(NORMAL_PER_WAVE) {
                    if k < PANICS_PER_WAVE {
                        let salt = xorshift(&mut seed);
                        doomed.push(spawn_named("doomed", (), move || {
                            // Claim magazine state: a local promise (arena
                            // slot) set-then-read, plus a spawned child
                            // (job block from this worker's magazine).
                            let local: Promise<u64> = Promise::new();
                            local.set(salt).unwrap();
                            assert_eq!(local.get().unwrap(), salt);
                            let child = spawn((), move || salt ^ 0xffff);
                            assert_eq!(child.join().unwrap(), salt ^ 0xffff);
                            // `local` is still alive here: the unwind frees
                            // its slot into the dying task's worker.
                            panic!("injected wave-{wave} panic");
                        }));
                    }
                    if k < NORMAL_PER_WAVE {
                        let x = xorshift(&mut seed);
                        fine.push((x, spawn((), move || x.rotate_left(9))));
                    }
                }
                for h in doomed {
                    match h.join() {
                        Err(PromiseError::TaskPanicked { .. }) => observed += 1,
                        other => panic!("doomed task settled as {other:?}"),
                    }
                }
                for (x, h) in fine {
                    assert_eq!(h.join().unwrap(), x.rotate_left(9));
                }
                // Outlive the keep-alive so idle workers retire before the
                // next wave.
                std::thread::sleep(Duration::from_millis(45));
            }
            observed
        })
        .unwrap();

    assert_eq!(observed_panics, (WAVES * PANICS_PER_WAVE) as u64);
    assert_eq!(
        metrics.panics(),
        observed_panics,
        "tasks_panicked counter diverged from joined panics"
    );
    assert_eq!(
        rt.context().alarm_count(),
        0,
        "contained panics (no abandoned obligations) must not alarm"
    );
    rt.shutdown();
    assert_outstanding_settles_to(baseline);
}

/// Tentpole part 4, the stall watchdog: a worker wedged in user code past
/// the threshold raises exactly one `Alarm::Stall` for that busy episode
/// (the monitor samples it many times but dedups per episode), while a
/// runtime doing only fast jobs raises none.
#[test]
fn watchdog_flags_a_wedged_worker_once_and_quiet_runs_not_at_all() {
    use promise_core::Alarm;
    use promise_runtime::WatchdogConfig;

    let config = WatchdogConfig {
        // Far above any fast job, far below the wedged sleep — and wide
        // enough that a loaded CI box descheduling a trivial job for a
        // few dozen milliseconds cannot trip it.
        stall_threshold: Duration::from_millis(150),
        poll_interval: Duration::from_millis(15),
    };

    // Quiet run: plenty of fast jobs, none on one job near the threshold.
    let quiet = Runtime::builder()
        .initial_workers(2)
        .watchdog(config.clone())
        .build();
    quiet
        .block_on(|| {
            let handles: Vec<_> = (0..64u64)
                .map(|i| spawn((), move || i.wrapping_mul(3)))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
        .unwrap();
    assert_eq!(
        quiet.context().alarm_count(),
        0,
        "fast jobs must not trip the watchdog: {:?}",
        quiet.context().alarms()
    );
    quiet.shutdown();

    // Wedged run: one job sits in user code for many sample periods.
    // Helping stays ON (the default): wherever the wedged job lands — a
    // pool worker, or inline on the joining root thread via steal-to-wait
    // helping — it is watchdog-visible, because non-worker helpers enroll
    // a transient progress stamp per helped job.  Either way the one busy
    // episode raises exactly one stall.
    let rt = Runtime::builder()
        .initial_workers(2)
        .watchdog(config)
        .build();
    rt.block_on(|| {
        let h = spawn_named("wedged", (), || {
            std::thread::sleep(Duration::from_millis(600));
        });
        h.join().unwrap();
    })
    .unwrap();
    let alarms = rt.context().alarms();
    let stalls: Vec<_> = alarms
        .iter()
        .filter_map(|a| match a {
            Alarm::Stall(report) => Some(report),
            _ => None,
        })
        .collect();
    assert_eq!(
        stalls.len(),
        1,
        "one busy episode must raise exactly one stall alarm: {alarms:?}"
    );
    assert!(
        stalls[0].busy_for >= Duration::from_millis(150),
        "flagged before the threshold elapsed: {:?}",
        stalls[0]
    );
    assert_eq!(
        alarms.len(),
        1,
        "a stall is a liveness hint; no deadlock/omitted alarms here: {alarms:?}"
    );
    rt.shutdown();
}

/// The watchdog blind spot for helped jobs is closed: with blocked-aware
/// growth and the sole worker pinned inside a busy (not promise-blocked)
/// job, the root's join is forced to run the wedged job *inline* via
/// steal-to-wait helping on a non-worker thread — which used to be
/// invisible to the watchdog.  The transient helper stamp makes it
/// sampled like any worker, and the stall report says `helper`.
#[test]
fn watchdog_flags_a_wedged_helped_job_on_the_root_thread() {
    use promise_core::Alarm;
    use promise_runtime::WatchdogConfig;
    use std::sync::mpsc;

    let rt = Runtime::builder()
        .initial_workers(1)
        .blocked_aware_growth(true)
        .watchdog(WatchdogConfig {
            stall_threshold: Duration::from_millis(150),
            poll_interval: Duration::from_millis(15),
        })
        .build();
    rt.block_on(|| {
        // Pin the sole worker inside a busy job.  It blocks on a channel,
        // not a promise, so blocked-aware growth spawns no replacement —
        // the wedged job below can only run on the root thread, helped.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let pin = spawn((), move || {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv_timeout(Duration::from_secs(10));
        });
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the pin job must start on the sole worker");
        let wedged = spawn_named("wedged-helped", (), || {
            std::thread::sleep(Duration::from_millis(600));
        });
        wedged.join().unwrap();
        release_tx.send(()).unwrap();
        pin.join().unwrap();
    })
    .unwrap();
    let alarms = rt.context().alarms();
    let stalls: Vec<_> = alarms
        .iter()
        .filter_map(|a| match a {
            Alarm::Stall(report) => Some(report),
            _ => None,
        })
        .collect();
    // Two genuine stalls: the pin job holds the sole worker past the
    // threshold (helper == false), and the wedged job runs helped on the
    // root thread (helper == true) — the flag that used to be impossible.
    let helper_stalls: Vec<_> = stalls.iter().filter(|s| s.helper).collect();
    assert_eq!(
        helper_stalls.len(),
        1,
        "the wedged helped job must raise exactly one helper stall: {alarms:?}"
    );
    assert!(
        helper_stalls[0].busy_for >= Duration::from_millis(150),
        "flagged before the threshold elapsed: {:?}",
        helper_stalls[0]
    );
    assert_eq!(
        stalls.len(),
        2,
        "expected the helper stall plus the pinned worker's: {alarms:?}"
    );
    assert_eq!(alarms.len(), 2, "no other alarms expected: {alarms:?}");
    rt.shutdown();
}
