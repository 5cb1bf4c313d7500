//! Seeded stress for the scheduler's wake rule: a worker-local push signals
//! nobody while a woken sibling is still searching (or a wake-up token is
//! outstanding), and the searcher that finds a job passes the baton.
//!
//! One worker pushes a fan of children onto its own deque while every
//! sibling is parked — the shape where almost every push skips its signal —
//! with children that return, that block (through the `Executor` blocking
//! seam, all of them at once, so the fan only completes if every child gets
//! a thread), that panic, and with shutdown racing the pushes.  Each round
//! checks the three things the rule must not cost:
//!
//! * every accepted job runs exactly once;
//! * the pool settles: no job left queued beside parked workers;
//! * the searching count returns to 0.
//!
//! `STRESS_SEED` varies the schedule between CI jobs; the echoed replay
//! line reproduces a failure in one command.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use promise_core::test_support::rng::{jitter, seed_from_env_echoed, xorshift};
use promise_core::{Executor, Job};
use promise_runtime::{PoolConfig, SchedulerConfig, WorkStealingScheduler};

const CHILDREN: usize = 64;
const ROUNDS: usize = 16;
const PATIENCE: Duration = Duration::from_secs(30);

fn wait_for(what: &str, sched: &WorkStealingScheduler, done: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(
            Instant::now() < deadline,
            "{what}: searching={} {:?}",
            sched.searching_workers(),
            sched.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A scheduler whose `workers` workers are all parked.
fn parked_pool(workers: usize) -> Arc<WorkStealingScheduler> {
    let sched = WorkStealingScheduler::new(SchedulerConfig {
        base: PoolConfig {
            initial_workers: workers,
            keep_alive: Duration::from_secs(60),
            ..PoolConfig::default()
        },
        ..SchedulerConfig::default()
    });
    wait_for("initial workers never parked", &sched, || {
        sched.stats().idle_workers == workers
    });
    sched
}

/// Nothing queued, nobody searching, every live worker parked.
fn assert_settles(sched: &WorkStealingScheduler) {
    wait_for("the pool never settled", sched, || {
        let stats = sched.stats();
        stats.queued_jobs == 0
            && sched.searching_workers() == 0
            && stats.idle_workers == stats.current_workers
    });
}

/// What one child does after recording that it ran.
#[derive(Copy, Clone)]
enum Child {
    Return,
    /// Block until every child of the fan has arrived.
    Rendezvous,
    /// Every third child unwinds.
    Panic,
}

/// Submits a root job that pushes `CHILDREN` children onto its worker's own
/// deque.  Returns the per-child run counts and a receiver that yields the
/// number of pushes the scheduler accepted once the root is done pushing.
fn push_fan(
    sched: &Arc<WorkStealingScheduler>,
    kind: Child,
    mut seed: u64,
    pushed: Arc<AtomicUsize>,
) -> (Arc<Vec<AtomicU8>>, mpsc::Receiver<usize>) {
    let ran: Arc<Vec<AtomicU8>> = Arc::new((0..CHILDREN).map(|_| AtomicU8::new(0)).collect());
    let arrived = Arc::new((Mutex::new(0usize), Condvar::new()));
    let (done_tx, done_rx) = mpsc::channel();
    let root = {
        let (sched, ran) = (Arc::clone(sched), Arc::clone(&ran));
        Job::new(move || {
            let mut accepted = 0;
            for i in 0..CHILDREN {
                let (ran, arrived, exec) =
                    (Arc::clone(&ran), Arc::clone(&arrived), Arc::clone(&sched));
                let child = Job::new(move || {
                    ran[i].fetch_add(1, Ordering::SeqCst);
                    match kind {
                        Child::Return => {}
                        Child::Rendezvous => {
                            exec.on_task_blocked();
                            let mut n = arrived.0.lock().unwrap();
                            *n += 1;
                            arrived.1.notify_all();
                            while *n < CHILDREN {
                                n = arrived.1.wait(n).unwrap();
                            }
                            drop(n);
                            exec.on_task_unblocked();
                        }
                        // `resume_unwind` skips the panic hook: the worker's
                        // `catch_unwind` sees a panic, the test log does not.
                        Child::Panic if i % 3 == 0 => std::panic::resume_unwind(Box::new("child")),
                        Child::Panic => {}
                    }
                });
                // A refusal (shutdown won the race) hands the job back.
                if sched.submit(child).is_ok() {
                    accepted += 1;
                }
                pushed.fetch_add(1, Ordering::SeqCst);
                jitter(&mut seed);
            }
            done_tx.send(accepted).unwrap();
        })
    };
    sched.submit(root).ok().unwrap();
    (ran, done_rx)
}

fn run_counts(ran: &[AtomicU8]) -> Vec<u8> {
    ran.iter().map(|r| r.load(Ordering::SeqCst)).collect()
}

fn fan_rounds(suite: &str, kind: Child) {
    let mut seed = seed_from_env_echoed(0x5eed_3a4e_0001, suite);
    for round in 0..ROUNDS {
        let workers = 2 + (xorshift(&mut seed) % 7) as usize;
        let sched = parked_pool(workers);
        let (ran, done) = push_fan(&sched, kind, xorshift(&mut seed), Arc::default());
        assert_eq!(done.recv_timeout(PATIENCE).unwrap(), CHILDREN);
        wait_for("children never all ran", &sched, || {
            run_counts(&ran).iter().all(|&n| n >= 1)
        });
        assert_settles(&sched);
        assert_eq!(
            run_counts(&ran),
            [1; CHILDREN],
            "round {round}: exactly once"
        );
        if let Child::Panic = kind {
            assert_eq!(sched.stats().panics, CHILDREN.div_ceil(3), "round {round}");
        }
        sched.shutdown();
        assert_eq!(sched.searching_workers(), 0, "round {round}");
    }
}

#[test]
fn local_fan_runs_every_child_once_and_settles() {
    fan_rounds("wake_stress", Child::Return);
}

/// The progress half: the children block all at once, so a child whose push
/// skipped its signal must still reach a thread — through the pusher's own
/// pop or hand-off, and the growth each blocking worker triggers.
#[test]
fn blocking_children_all_get_a_thread() {
    fan_rounds("wake_stress", Child::Rendezvous);
}

#[test]
fn panicking_children_leave_the_count_balanced() {
    fan_rounds("wake_stress", Child::Panic);
}

#[test]
fn shutdown_racing_the_pushes_loses_and_repeats_nothing() {
    let mut seed = seed_from_env_echoed(0x5eed_3a4e_0002, "wake_stress");
    for round in 0..ROUNDS {
        let workers = 2 + (xorshift(&mut seed) % 7) as usize;
        let sched = parked_pool(workers);
        let pushed = Arc::new(AtomicUsize::new(0));
        let (ran, done) = push_fan(
            &sched,
            Child::Return,
            xorshift(&mut seed),
            Arc::clone(&pushed),
        );
        // Close admission somewhere inside the fan.
        let cut = (xorshift(&mut seed) % CHILDREN as u64) as usize;
        wait_for("the root never pushed", &sched, || {
            pushed.load(Ordering::SeqCst) >= cut
        });
        sched.begin_shutdown();
        let accepted = done.recv_timeout(PATIENCE).unwrap();
        assert!(
            accepted >= cut,
            "round {round}: pushes before the cut are accepted"
        );
        // Submission is sequential, so the accepted children are a prefix.
        sched.shutdown();
        let counts = run_counts(&ran);
        assert!(
            counts[..accepted].iter().all(|&n| n == 1)
                && counts[accepted..].iter().all(|&n| n == 0),
            "round {round}: accepted {accepted}, ran {counts:?}"
        );
        let stats = sched.stats();
        assert_eq!(
            (stats.current_workers, stats.queued_jobs),
            (0, 0),
            "round {round}"
        );
        assert_eq!(sched.searching_workers(), 0, "round {round}");
    }
}
