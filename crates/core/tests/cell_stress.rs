//! Seeded multi-thread stress races for the lock-free one-shot cell behind
//! `Promise<T>`, plus drop-exactly-once coverage for the manually managed
//! payload.
//!
//! The races exercised (per the state machine `EMPTY → FILLING → SET|FAILED`
//! with a `HAS_WAITERS` bit):
//!
//! * one `set` racing N concurrent `get`s (waiters park and must all wake
//!   with the value, late getters must take the lock-free fulfilled path);
//! * `get_timeout` racing `set` (every call ends in exactly one of
//!   `Ok(value)` / `Timeout`, never a hang or a torn read);
//! * `complete_abandoned` racing `set` (exactly one filler wins; every
//!   observer sees the single winning outcome);
//! * dropping a fulfilled promise that was never `get` (payload `Drop` runs
//!   exactly once — no leak, no double drop).
//!
//! "Seeded" = the schedules are perturbed deterministically by a per-round
//! xorshift value driving spin counts, so failures reproduce.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use promise_core::test_support::rng::{jitter, seed_from_env_echoed, xorshift};
use promise_core::{Context, OneShotCell, Promise, PromiseError};

#[test]
fn set_races_n_concurrent_gets() {
    let mut seed = seed_from_env_echoed(0x9e3779b97f4a7c15, "cell_stress");
    for round in 0..60 {
        let ctx = Context::new_unverified();
        let root = ctx.root_task(None);
        let p = Promise::<u64>::new();
        let getters = 6;
        let mut joins = Vec::new();
        for g in 0..getters {
            let p = p.clone();
            let mut s = seed ^ (g as u64).wrapping_mul(round + 1);
            joins.push(std::thread::spawn(move || {
                jitter(&mut s);
                p.get().unwrap()
            }));
        }
        jitter(&mut seed);
        p.set(round).unwrap();
        for j in joins {
            assert_eq!(j.join().unwrap(), round);
        }
        // Fulfilled fast path after the dust settles.
        assert_eq!(p.get().unwrap(), round);
        root.finish();
    }
}

#[test]
fn get_timeout_races_set() {
    let mut seed = seed_from_env_echoed(0x853c49e6748fea9b, "cell_stress");
    let mut timeouts = 0usize;
    let mut values = 0usize;
    for round in 0..80u64 {
        let ctx = Context::new_unverified();
        let root = ctx.root_task(None);
        let p = Promise::<u64>::new();
        let setter = {
            let p = p.clone();
            let mut s = seed ^ round;
            std::thread::spawn(move || {
                jitter(&mut s);
                // Half the rounds set "late" so timeouts actually occur.
                if round % 2 == 1 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                p.set(round).unwrap();
            })
        };
        let mut s = seed.rotate_left(round as u32);
        jitter(&mut s);
        match p.get_timeout(Duration::from_millis(1)) {
            Ok(v) => {
                assert_eq!(v, round);
                values += 1;
            }
            Err(PromiseError::Timeout { .. }) => timeouts += 1,
            Err(other) => panic!("unexpected error from timed get: {other}"),
        }
        setter.join().unwrap();
        // After the setter is done the value must be observable regardless
        // of how the timed wait ended.
        assert_eq!(p.get().unwrap(), round);
        jitter(&mut seed);
        root.finish();
    }
    // Both outcomes must actually have been exercised on any sane box.
    assert!(values > 0, "no timed get ever saw the value");
    assert!(timeouts > 0, "no timed get ever timed out");
}

#[test]
fn complete_abandoned_races_set() {
    let mut seed = seed_from_env_echoed(0xda942042e4dd58b5, "cell_stress");
    let mut sets_won = 0usize;
    let mut abandons_won = 0usize;
    for round in 0..80u64 {
        let ctx = Context::new_unverified();
        let root = ctx.root_task(None);
        let p = Promise::<u64>::new();
        let erased = p.as_erased();
        // Both fillers leave from one starting line, and take turns at
        // being the one that fires the gun: starting a thread takes far
        // longer than the jitter, so the set would otherwise win every
        // round on a quiet box.  Stages: 1 = the abandoner is running,
        // 2 = so is the setter, 3 = (odd rounds) the abandoner fires.
        let stage = Arc::new(AtomicUsize::new(0));
        let wait_for = |stage: &AtomicUsize, at_least: usize| {
            while stage.load(Ordering::Acquire) < at_least {
                std::hint::spin_loop();
            }
        };
        let abandoner_fires = round % 2 == 1;
        let abandoner = {
            let mut s = seed ^ round;
            let stage = Arc::clone(&stage);
            std::thread::spawn(move || {
                stage.store(1, Ordering::Release);
                wait_for(&stage, 2);
                if abandoner_fires {
                    stage.store(3, Ordering::Release);
                }
                jitter(&mut s);
                erased.complete_abandoned(PromiseError::TaskPanicked {
                    task: promise_core::TaskId(999),
                    message: Arc::from("owner died"),
                })
            })
        };
        wait_for(&stage, 1);
        stage.store(2, Ordering::Release);
        if abandoner_fires {
            wait_for(&stage, 3);
        }
        let mut s = seed.rotate_right((round % 63) as u32);
        jitter(&mut s);
        let set_result = p.set(round);
        let abandon_won = abandoner.join().unwrap();
        // Exactly one of the two fillers wins.
        assert_ne!(
            set_result.is_ok(),
            abandon_won,
            "set and complete_abandoned must not both win (or both lose)"
        );
        match p.get() {
            Ok(v) => {
                assert!(set_result.is_ok());
                assert_eq!(v, round);
                sets_won += 1;
            }
            Err(PromiseError::TaskPanicked { .. }) => {
                assert!(abandon_won);
                abandons_won += 1;
            }
            Err(other) => panic!("unexpected outcome: {other}"),
        }
        jitter(&mut seed);
        root.finish();
    }
    assert!(sets_won > 0, "the set never won the race");
    assert!(abandons_won > 0, "complete_abandoned never won the race");
}

/// Payload type that counts its drops; clones count independently so the
/// "exactly once" assertion isolates the cell-owned instance.
#[derive(Debug)]
struct DropCounter {
    drops: Arc<AtomicUsize>,
    /// Cloned payloads must not count against the cell's own copy.
    is_clone: bool,
}

impl Clone for DropCounter {
    fn clone(&self) -> Self {
        DropCounter {
            drops: Arc::clone(&self.drops),
            is_clone: true,
        }
    }
}

impl Drop for DropCounter {
    fn drop(&mut self) {
        if !self.is_clone {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn drop_without_get_runs_payload_drop_exactly_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let ctx = Context::new_unverified();
        let root = ctx.root_task(None);
        let p = Promise::<DropCounter>::new();
        p.set(DropCounter {
            drops: Arc::clone(&drops),
            is_clone: false,
        })
        .unwrap();
        // Never read: the only live copy of the payload sits in the cell.
        drop(p);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "dropping the promise must drop the un-got payload exactly once"
        );
        root.finish();
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1, "no double drop later");
}

#[test]
fn drop_after_gets_still_drops_the_cell_copy_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    let ctx = Context::new_unverified();
    let root = ctx.root_task(None);
    let p = Promise::<DropCounter>::new();
    p.set(DropCounter {
        drops: Arc::clone(&drops),
        is_clone: false,
    })
    .unwrap();
    for _ in 0..4 {
        let got = p.get().unwrap();
        assert!(got.is_clone, "get hands out clones, not the original");
    }
    assert_eq!(drops.load(Ordering::SeqCst), 0, "gets must not consume");
    drop(p);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    root.finish();
}

#[test]
fn unfulfilled_promise_drop_touches_no_payload() {
    let drops = Arc::new(AtomicUsize::new(0));
    let ctx = Context::new_unverified();
    let root = ctx.root_task(None);
    let p = Promise::<DropCounter>::new();
    drop(p);
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    root.finish();
}

/// Many handles dropped from many threads while getters race: the payload
/// must still drop exactly once, after the last handle goes away.
#[test]
fn concurrent_handle_drops_never_double_drop() {
    for round in 0..40u64 {
        let drops = Arc::new(AtomicUsize::new(0));
        let ctx = Context::new_unverified();
        let root = ctx.root_task(None);
        let p = Promise::<DropCounter>::new();
        p.set(DropCounter {
            drops: Arc::clone(&drops),
            is_clone: false,
        })
        .unwrap();
        let mut joins = Vec::new();
        for t in 0..4 {
            let p = p.clone();
            let mut s = 0xc0ffee ^ round.wrapping_mul(t + 3);
            joins.push(std::thread::spawn(move || {
                jitter(&mut s);
                let _ = p.get().unwrap();
                drop(p);
            }));
        }
        drop(p);
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "round {round}");
        root.finish();
    }
}

/// Heavy fan-in on one cell (the ROADMAP's "promise waiter queue under
/// heavy fan-in" item): many threads park in a blocking wait on a single
/// promise while seeded wake storms hammer the waiter bit — racing timed
/// getters that announce `HAS_WAITERS`, time out, and re-arm — and several
/// racing fillers of which exactly one may win.
///
/// Asserts, per round:
/// * exactly one filler wins (value observation is exactly-once in the
///   sense that every observer sees the single winning value);
/// * every parked getter wakes with that value — the joins below hang (and
///   the harness times out) if even one parker is stranded;
/// * storm threads only ever observe `Timeout` or the winning value.
#[test]
fn heavy_fanin_waiter_storm_wakes_every_parker_exactly_once() {
    let mut seed = seed_from_env_echoed(0xfa11_1234_u64 ^ 0x9e37_79b9, "cell_stress");
    for round in 0..12u64 {
        let ctx = Context::new_unverified();
        let root = ctx.root_task(None);
        let p = Promise::<u64>::new();
        let winning = Arc::new(AtomicUsize::new(0));

        // 16 blocking getters park on the one cell.
        let parked: Vec<_> = (0..16)
            .map(|g| {
                let p = p.clone();
                let mut s = seed ^ (g as u64 + 1).wrapping_mul(round + 1);
                std::thread::spawn(move || {
                    jitter(&mut s);
                    p.get().unwrap()
                })
            })
            .collect();

        // 4 storm threads churn the waiter bit with short timed waits.
        let storms: Vec<_> = (0..4)
            .map(|t| {
                let p = p.clone();
                let mut s = seed.rotate_left(t + 1) | 1;
                std::thread::spawn(move || {
                    let mut observed = None;
                    for _ in 0..200 {
                        jitter(&mut s);
                        match p.get_timeout(Duration::from_micros(xorshift(&mut s) % 200)) {
                            Ok(v) => {
                                observed = Some(v);
                                break;
                            }
                            Err(PromiseError::Timeout { .. }) => continue,
                            Err(other) => panic!("storm observed {other}"),
                        }
                    }
                    observed
                })
            })
            .collect();

        // 3 racing fillers; exactly one may win.
        let fillers: Vec<_> = (0..3u64)
            .map(|f| {
                let p = p.clone();
                let winning = Arc::clone(&winning);
                let mut s = seed ^ (0xf111 + f);
                std::thread::spawn(move || {
                    jitter(&mut s);
                    // Bypass ownership so all three threads may race the
                    // fill itself (the unverified context skips rule 4
                    // anyway; fulfill_detached makes the race explicit).
                    if p.fulfill_detached(round * 1000 + f) {
                        winning.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();

        for f in fillers {
            f.join().unwrap();
        }
        assert_eq!(
            winning.load(Ordering::SeqCst),
            1,
            "exactly one filler must win the race"
        );
        let value = p.get().unwrap();
        assert_eq!(value / 1000, round, "value belongs to this round");
        for t in parked {
            assert_eq!(
                t.join().unwrap(),
                value,
                "every parked getter observes the single winning value"
            );
        }
        for s in storms {
            if let Some(v) = s.join().unwrap() {
                assert_eq!(v, value);
            }
        }
        xorshift(&mut seed);
        root.finish();
    }
}

/// The same fan-in shape driven directly on `OneShotCell`, with no promise
/// machinery in the way: N waiters on `wait(None)`, racing fillers, seeded
/// wake storms of timed waiters.  Exactly one fill wins, everyone wakes
/// with the winner's value, nobody strands.
#[test]
fn oneshot_cell_fanin_storm() {
    let mut seed = seed_from_env_echoed(0xce11_5707_u64 ^ 0xb5297a4d, "cell_stress");
    for round in 0..20u64 {
        let cell = Arc::new(OneShotCell::<u64>::new());
        let waiters: Vec<_> = (0..12)
            .map(|w| {
                let cell = Arc::clone(&cell);
                let mut s = seed ^ (w as u64 + 17).wrapping_mul(round + 3);
                std::thread::spawn(move || {
                    jitter(&mut s);
                    assert!(cell.wait(None), "untimed wait only returns on fill");
                    *cell.get_ref().unwrap()
                })
            })
            .collect();
        let stormers: Vec<_> = (0..3)
            .map(|t| {
                let cell = Arc::clone(&cell);
                let mut s = seed.rotate_right(t + 5) | 1;
                std::thread::spawn(move || {
                    for _ in 0..300 {
                        let deadline = std::time::Instant::now()
                            + Duration::from_micros(xorshift(&mut s) % 100);
                        if cell.wait(Some(deadline)) {
                            return true;
                        }
                    }
                    cell.wait(None)
                })
            })
            .collect();
        let fillers: Vec<_> = (0..2u64)
            .map(|f| {
                let cell = Arc::clone(&cell);
                let mut s = seed ^ f.wrapping_mul(0x1234_5678);
                std::thread::spawn(move || {
                    jitter(&mut s);
                    cell.try_fill(round * 10 + f, false).is_ok()
                })
            })
            .collect();
        let wins: usize = fillers
            .into_iter()
            .map(|f| f.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1, "exactly one fill succeeds");
        let value = *cell.get_ref().unwrap();
        for w in waiters {
            assert_eq!(w.join().unwrap(), value);
        }
        for s in stormers {
            assert!(
                s.join().unwrap(),
                "storm waiter eventually observed the fill"
            );
        }
        xorshift(&mut seed);
    }
}
