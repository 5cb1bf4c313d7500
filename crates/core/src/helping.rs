//! Bounded inline helping at blocked joins ("steal-to-wait").
//!
//! The paper's §6.3 growth rule makes *blocking* the most expensive
//! operation in the runtime: a worker that parks inside `Promise::get`
//! triggers a replacement thread so the queued work behind it can still
//! run.  Helping attacks that cost at its root: before parking, the
//! blocked worker *runs pending jobs itself* (its own deque, then bounded
//! steals, then the injector — see
//! [`WorkStealingScheduler::try_help`](crate::WorkStealingScheduler::try_help)),
//! re-checking the awaited cell between jobs, and only parks — triggering
//! the usual grow hook — when no runnable work exists or one of the bounds
//! below is hit.
//!
//! This module owns the *bounds*: helping nests (a helped job that blocks
//! may help again), and every nesting level keeps the suspended outer
//! frame's stack alive, so both the nesting depth and the consumed stack
//! must be capped.  [`enter`] hands out an RAII [`HelpFrame`] per level and
//! refuses once [`HelpConfig::max_depth`] levels are live on the thread or
//! the thread has sunk more than [`HelpConfig::stack_budget`] bytes of
//! stack below the outermost helping frame.
//!
//! # Why helping preserves the §6.3 invariant
//!
//! The growth rule exists so that a blocked task can never strand runnable
//! work: some thread always exists to run it.  Helping preserves this *by
//! construction*: the helper only runs jobs that were already runnable, and
//! when a helped task itself blocks, its `get` re-enters the same
//! wait-with-help seam — help again if the bounds allow, otherwise fall
//! through to `on_task_blocked` and park, which triggers growth exactly as
//! before.  The bounds only ever force the conservative path (park + grow),
//! never a lost wake-up.
//!
//! Eligibility (which blocked tasks may help at all, the deadlock-freedom
//! half of the argument) is a *task-layer* question answered by
//! `task::current_task_may_help`; this module is only the depth/stack
//! accountant.

use std::cell::Cell;

/// Configuration of steal-to-wait helping (see `RuntimeBuilder::help`).
///
/// Helping is **on by default**; disabling it
/// ([`HelpConfig::disabled`]) restores the pure park-and-grow §6.3
/// behaviour at the cost of one predictable branch on the blocking path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelpConfig {
    /// Master switch.  When `false` the blocking `get` path never attempts
    /// to help (a single well-predicted branch — the park path is otherwise
    /// unchanged).
    pub enabled: bool,
    /// Maximum number of simultaneously live helping frames per thread.
    /// Each frame is a suspended `get` whose stack stays pinned while the
    /// helped job runs, so this bounds both recursion and worst-case
    /// latency added to the outermost join.
    pub max_depth: usize,
    /// Approximate stack bytes the thread may sink below its outermost
    /// helping frame before further helping is refused (the helped job's
    /// own frames are what consume this).  A backstop against deep
    /// fork/join chains overflowing the worker stack; the refused `get`
    /// parks and grows instead, which is always safe.
    pub stack_budget: usize,
}

impl Default for HelpConfig {
    fn default() -> Self {
        HelpConfig {
            enabled: true,
            max_depth: 4,
            stack_budget: 512 << 10,
        }
    }
}

impl HelpConfig {
    /// A configuration with helping switched off entirely.
    pub fn disabled() -> HelpConfig {
        HelpConfig {
            enabled: false,
            ..HelpConfig::default()
        }
    }
}

thread_local! {
    /// Live helping frames on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Stack position of the outermost live frame (meaningful only while
    /// `DEPTH > 0`).
    static BASE_SP: Cell<usize> = const { Cell::new(0) };
}

/// One level of help nesting; dropping it exits the level.  Obtained from
/// [`enter`], held across the helped job's execution.
#[must_use = "dropping the frame immediately exits the helping level"]
pub struct HelpFrame {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Tries to enter one helping level on the current thread, refusing when
/// the depth bound is reached or the stack budget is exhausted.
///
/// The stack probe is the address of a local — an approximation (Rust
/// gives no portable stack-pointer read), but a faithful one: it is taken
/// inside the blocked `get`'s frame, below everything the suspended waits
/// above it have pinned.
pub fn enter(cfg: &HelpConfig) -> Option<HelpFrame> {
    let sp = approximate_sp();
    let depth = DEPTH.with(Cell::get);
    if depth >= cfg.max_depth {
        return None;
    }
    if depth == 0 {
        BASE_SP.with(|b| b.set(sp));
    } else if BASE_SP.with(Cell::get).abs_diff(sp) > cfg.stack_budget {
        return None;
    }
    DEPTH.with(|d| d.set(depth + 1));
    Some(HelpFrame {
        _not_send: std::marker::PhantomData,
    })
}

impl Drop for HelpFrame {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Number of live helping frames on the current thread (0 outside any
/// helping wait).  Exposed for tests and diagnostics.
pub fn current_depth() -> usize {
    DEPTH.with(Cell::get)
}

/// The current stack position, approximated by a local's address.
#[inline]
fn approximate_sp() -> usize {
    let probe = 0u8;
    std::ptr::addr_of!(probe) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_bound_is_enforced_and_raii_restores() {
        let cfg = HelpConfig {
            max_depth: 2,
            ..HelpConfig::default()
        };
        assert_eq!(current_depth(), 0);
        let f1 = enter(&cfg).expect("first level admitted");
        assert_eq!(current_depth(), 1);
        let f2 = enter(&cfg).expect("second level admitted");
        assert_eq!(current_depth(), 2);
        assert!(enter(&cfg).is_none(), "third level refused at max_depth=2");
        drop(f2);
        assert_eq!(current_depth(), 1);
        let f2b = enter(&cfg).expect("level freed by drop is reusable");
        drop(f2b);
        drop(f1);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn stack_budget_refuses_deep_frames() {
        let cfg = HelpConfig {
            max_depth: 64,
            stack_budget: 1024,
            ..HelpConfig::default()
        };
        let _outer = enter(&cfg).expect("outermost frame always admitted");
        // Recurse far enough that the probe lands > 1 KiB below the base.
        fn deep(cfg: &HelpConfig, n: usize) -> bool {
            // A sizeable local per frame so the budget is exceeded quickly.
            let pad = [0u8; 512];
            std::hint::black_box(&pad);
            if n == 0 {
                enter(cfg).is_none()
            } else {
                deep(cfg, n - 1)
            }
        }
        assert!(
            deep(&cfg, 8),
            "an enter() attempted deep below the base frame must be refused"
        );
        // Back at the base depth the budget is satisfied again.
        let f = enter(&cfg);
        assert!(f.is_some(), "shallow re-entry is admitted again");
    }

    #[test]
    fn disabled_config_keeps_defaults_for_bounds() {
        let cfg = HelpConfig::disabled();
        assert!(!cfg.enabled);
        assert_eq!(cfg.max_depth, HelpConfig::default().max_depth);
    }
}
