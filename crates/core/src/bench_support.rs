//! Benchmark seams for the `promise-bench` crate — **not a public API**.
//!
//! The detector's traversal and the arena's allocation paths are
//! `pub(crate)` internals; the `detector/*` and `arena/*` criterion
//! microbenches need to drive them against hand-built waits-for graphs.
//! Everything here is `#[doc(hidden)]` and may change without notice.

#![allow(missing_docs)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::context::Context;
use crate::detector::{self, DetectionSubject};
use crate::ids::{PromiseId, TaskId};
use crate::refs::PackedRef;

/// Allocates a raw task cell directly in the arena (bypassing the TLS task
/// binding).
pub fn raw_task(ctx: &Arc<Context>, id: u64) -> PackedRef {
    let slot = ctx.tasks.alloc();
    ctx.tasks
        .read(slot, |s| s.task_id.store(id, Ordering::Relaxed))
        .unwrap();
    slot
}

/// Allocates a raw promise cell with the given owner.
pub fn raw_promise(ctx: &Arc<Context>, id: u64, owner: PackedRef) -> PackedRef {
    let slot = ctx.promises.alloc();
    ctx.promises
        .read(slot, |s| {
            s.promise_id.store(id, Ordering::Relaxed);
            s.owner.store(owner.to_bits(), Ordering::Release);
        })
        .unwrap();
    slot
}

/// Builds a non-cyclic waits-for chain of `n` tasks —
/// `t0 → p0 owned by t1 → p1 owned by t2 → … → t_{n-1}` (not blocked) —
/// and returns `(t0, p0)`.
pub fn build_chain(ctx: &Arc<Context>, n: usize) -> (PackedRef, PackedRef) {
    assert!(n >= 2, "a chain needs at least two tasks");
    let tasks: Vec<_> = (0..n).map(|i| raw_task(ctx, i as u64 + 1)).collect();
    let mut promises = Vec::with_capacity(n - 1);
    for i in 0..n - 1 {
        promises.push(raw_promise(ctx, 1000 + i as u64, tasks[i + 1]));
    }
    for i in 1..n - 1 {
        ctx.tasks
            .read(tasks[i], |s| {
                s.waiting_on.store(promises[i].to_bits(), Ordering::SeqCst)
            })
            .unwrap();
    }
    (tasks[0], promises[0])
}

/// Runs the detector traversal for `t0` blocking on `p0`, then clears the
/// published mark so the walk can be repeated.  Returns `true` if a cycle
/// was detected.
pub fn chain_walk(ctx: &Arc<Context>, t0: PackedRef, p0: PackedRef) -> bool {
    let subject = DetectionSubject {
        t0_slot: t0,
        t0_id: TaskId(1),
        t0_name: None,
        p0_slot: p0,
        p0_id: PromiseId(1000),
        p0_name: None,
    };
    let out = detector::verify_and_mark(ctx, subject);
    detector::clear_mark(ctx, t0);
    out.is_err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_walks_agree_on_a_chain() {
        let ctx = Context::new_verified();
        let (t0, p0) = build_chain(&ctx, 50);
        assert!(!chain_walk(&ctx, t0, p0));
        // The mark is cleared between runs, so walks are repeatable.
        assert!(!chain_walk(&ctx, t0, p0));
    }
}
