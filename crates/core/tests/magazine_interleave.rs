//! Deterministic, exhaustive interleaving coverage for the shard-lock
//! magazine protocol (`promise_core::magazine`), using the
//! model-checking-style kit of `promise_core::test_support::interleave`.
//!
//! Each test enumerates **every** interleaving of the lock /
//! refill-or-flush / pop-or-push / unlock steps of a small set of simulated
//! threads (or, for the long boundary scripts, a seeded sample of them) and
//! checks exclusivity, no-double-handout, no-loss and the accounting
//! identities after every single step, plus a full drain at the end of
//! every schedule.  A failure panics with the exact schedule, so any
//! regression is immediately replayable.
//!
//! Simulated threads with the same `home` contend for one lock: the loser
//! takes the neighbouring shard, and with that held too, the shared path.

use promise_core::magazine::{MAG_CAP, MAG_REFILL};
use promise_core::test_support::interleave::{
    explore, explore_sampled, Op, Outcome, Script, STEPS_PER_OP,
};
use promise_core::test_support::rng::seed_from_env_echoed;

fn script(home: usize, ops: &[Op]) -> Script {
    Script {
        home,
        warmup: Vec::new(),
        ops: ops.to_vec(),
    }
}

/// Two threads homed on one shard, an alloc and a free each.  Depending on
/// the schedule the second arrives before the first locks, while it is
/// parked at any of its three held steps (→ the neighbour serves it, and
/// its free may land in a different magazine than its alloc came from), or
/// after the unlock (→ it is served from what the first left cached).
/// C(16,8) = 12 870 interleavings.
#[test]
fn two_threads_one_shard_exhaustive() {
    let scripts = [
        script(0, &[Op::Alloc, Op::Free]),
        script(0, &[Op::Alloc, Op::Free]),
    ];
    let out = explore(&scripts);
    assert_eq!(
        out.schedules, 12_870,
        "C(16,8) interleavings of 8 + 8 steps"
    );
    assert_eq!(out.steps, out.schedules * 4 * STEPS_PER_OP);
    assert!(out.neighbour_locks > 0, "some schedule took the neighbour");
    assert_eq!(
        out.shared_path_ops, 0,
        "two threads never exhaust two probes"
    );
}

/// Three threads homed on one shard: with the first parked holding the
/// home shard and the second parked holding the neighbour, the third finds
/// both probes taken and allocates on the shared path — concurrently with
/// the other two's refills from the same backstop.
/// 12!/(4!·4!·4!) = 34 650 interleavings.
#[test]
fn three_threads_one_shard_reach_the_shared_path_exhaustive() {
    let scripts = [
        script(5, &[Op::Alloc]),
        script(5, &[Op::Alloc]),
        script(5, &[Op::Alloc]),
    ];
    let out = explore(&scripts);
    assert_eq!(out.schedules, 34_650);
    assert!(out.neighbour_locks > 0);
    assert!(
        out.shared_path_ops > 0,
        "some schedule exhausted both probes"
    );
}

/// Three threads on two adjacent shards, the last one (`MAG_SHARDS - 1`)
/// wrapping onto shard 0: thread A's fallback is thread B's home, so a
/// parked A can push B onto shard 0 and a parked B leaves A's rival with
/// nothing.  The second round has the rival come in holding an item and
/// *free* it, so a shared-path free (and a free into a magazine other than
/// the one the item came from) runs against the other two's refills.
#[test]
fn three_threads_two_shards_exhaustive() {
    let scripts = [
        script(14, &[Op::Alloc]),
        script(15, &[Op::Alloc]),
        script(14, &[Op::Alloc]),
    ];
    let out = explore(&scripts);
    assert_eq!(out.schedules, 34_650);
    assert!(out.neighbour_locks > 0);
    assert!(out.shared_path_ops > 0);

    let scripts = [
        script(14, &[Op::Alloc]),
        script(15, &[Op::Alloc]),
        Script {
            home: 14,
            warmup: vec![Op::Alloc],
            ops: vec![Op::Free],
        },
    ];
    let out = explore(&scripts);
    assert_eq!(out.schedules, 34_650);
    assert!(out.shared_path_ops > 0);
}

/// `n` allocations followed by `m` frees, run to completion.
fn churn(allocs: usize, frees: usize) -> Vec<Op> {
    let mut ops = vec![Op::Alloc; allocs];
    ops.extend(vec![Op::Free; frees]);
    ops
}

/// Flush vs. refill through the shared backstop, on three magazines no two
/// of which are neighbours.  Thread A's warm-up leaves its magazine full
/// (65 allocs take three refills and leave 31 cached; 33 frees make 64) with
/// items still in hand, so its free flushes the oldest half; B and C start
/// empty, so their allocs refill — from A's flushed batch or from the fresh
/// region, depending on which side of A's flush step they run.
#[test]
fn flush_vs_refill_across_magazines_exhaustive() {
    let scripts = [
        Script {
            home: 0,
            warmup: churn(MAG_CAP + 1, MAG_REFILL + 1),
            ops: vec![Op::Free],
        },
        script(2, &[Op::Alloc]),
        script(4, &[Op::Alloc]),
    ];
    let out = explore(&scripts);
    assert_eq!(out.schedules, 34_650);
    assert_eq!(out.neighbour_locks, 0, "the three shards never collide");
}

/// Magazine boundary behaviour under interleaving: two threads on one shard
/// whose scripts cross refill boundaries on the way up and flush boundaries
/// on the way down.  Scripts are long here, so the explorer samples a
/// seeded subset of the schedule space; re-run with the same `STRESS_SEED`
/// to replay.
#[test]
fn boundary_churn_sampled_by_seed() {
    let scripts = [
        script(0, &churn(MAG_CAP + 6, MAG_CAP + 6)),
        script(0, &churn(MAG_REFILL + 3, MAG_REFILL + 3)),
    ];
    let seed = seed_from_env_echoed(0x5eed_1e1e_a5ed_c0de, "magazine_interleave");
    let out: Outcome = explore_sampled(&scripts, seed, 400);
    assert_eq!(out.schedules, 400);
    assert!(out.neighbour_locks > 0);
}

/// The kit itself is deterministic: the same seed explores the same
/// schedules and performs the same number of steps.
#[test]
fn sampled_exploration_replays_by_seed() {
    let scripts = [
        script(0, &[Op::Alloc, Op::Alloc, Op::Free, Op::Free]),
        script(0, &[Op::Alloc, Op::Free]),
        script(1, &[Op::Alloc, Op::Free]),
    ];
    let a = explore_sampled(&scripts, 42, 64);
    let b = explore_sampled(&scripts, 42, 64);
    assert_eq!(a, b, "same seed, same exploration");
    let c = explore_sampled(&scripts, 43, 64);
    assert_eq!(c.schedules, 64);
}
