//! Error and alarm types.
//!
//! The paper identifies two promise-specific blocking bugs (§1.2):
//!
//! * the **deadlock cycle** — tasks mutually blocked on promises that would
//!   only be set after those tasks unblock — represented by
//!   [`DeadlockCycle`] and raised as [`PromiseError::DeadlockDetected`] in
//!   the task whose `get` completes the cycle (Algorithm 2); and
//! * the **omitted set** — a task terminates while still owning unfulfilled
//!   promises — represented by [`OmittedSetReport`] and surfaced both as an
//!   alarm on the terminating task and, via exceptional completion, as
//!   [`PromiseError::OmittedSet`] to every task blocked on one of the
//!   abandoned promises (Algorithm 1 rule 3, §6.2).
//!
//! Ordinary misuse of the API (setting a promise twice, setting a promise the
//! current task does not own, transferring a promise the parent does not own)
//! also surfaces here.

use std::fmt;
use std::sync::Arc;

use crate::ids::{PromiseId, TaskId};

/// One hop of a deadlock cycle: `task` is blocked in `get(promise)` and
/// `promise` is owned by the *next* entry's task (cyclically).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleEntry {
    /// The blocked task.
    pub task: TaskId,
    /// Optional human-readable name of the blocked task.
    pub task_name: Option<Arc<str>>,
    /// The promise it is blocked on.
    pub promise: PromiseId,
    /// Optional human-readable name of the promise.
    pub promise_name: Option<Arc<str>>,
}

/// A deadlock cycle of `n` tasks and `n` promises (§3): task `i` awaits
/// promise `i`, which is owned by task `(i + 1) mod n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockCycle {
    /// The entries of the cycle, starting with the task that detected it
    /// (i.e. the last task to arrive, whose `get` completed the cycle).
    pub entries: Vec<CycleEntry>,
}

impl DeadlockCycle {
    /// Number of tasks (equivalently promises) in the cycle.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cycle is empty (never true for a reported deadlock).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The task that detected (and therefore completed) the cycle.
    pub fn detecting_task(&self) -> TaskId {
        self.entries.first().map(|e| e.task).unwrap_or(TaskId::NONE)
    }

    /// The promise whose `get` raised the alarm.
    pub fn detecting_promise(&self) -> PromiseId {
        self.entries
            .first()
            .map(|e| e.promise)
            .unwrap_or(PromiseId::NONE)
    }

    /// Ids of every task participating in the cycle.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.entries.iter().map(|e| e.task)
    }

    /// Ids of every promise participating in the cycle.
    pub fn promises(&self) -> impl Iterator<Item = PromiseId> + '_ {
        self.entries.iter().map(|e| e.promise)
    }
}

impl fmt::Display for DeadlockCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock cycle of {} task(s): ", self.entries.len())?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            match (&e.task_name, &e.promise_name) {
                (Some(tn), Some(pn)) => write!(f, "{tn}({}) awaits {pn}({})", e.task, e.promise)?,
                (Some(tn), None) => write!(f, "{tn}({}) awaits {}", e.task, e.promise)?,
                (None, Some(pn)) => write!(f, "{} awaits {pn}({})", e.task, e.promise)?,
                (None, None) => write!(f, "{} awaits {}", e.task, e.promise)?,
            }
        }
        write!(
            f,
            " -> back to {}",
            self.entries.first().map(|e| e.task).unwrap_or(TaskId::NONE)
        )
    }
}

/// A record of an unfulfilled promise found when its owning task terminated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbandonedPromise {
    /// The promise that was never set.
    pub promise: PromiseId,
    /// Optional human-readable name of the promise.
    pub promise_name: Option<Arc<str>>,
}

/// An omitted-set violation: `task` terminated while still owning the listed
/// promises (Algorithm 1 rule 3).  Blame is attributed to `task`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OmittedSetReport {
    /// The task that terminated without fulfilling its obligations.
    pub task: TaskId,
    /// Optional human-readable name of the offending task.
    pub task_name: Option<Arc<str>>,
    /// The promises it still owned.
    pub promises: Vec<AbandonedPromise>,
}

impl fmt::Display for OmittedSetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self
            .task_name
            .as_deref()
            .map(|n| format!("{n}({})", self.task))
            .unwrap_or_else(|| self.task.to_string());
        write!(
            f,
            "omitted set: {name} terminated while still owning {} unfulfilled promise(s)",
            self.promises.len()
        )?;
        if !self.promises.is_empty() {
            write!(f, ": ")?;
            for (i, p) in self.promises.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match &p.promise_name {
                    Some(n) => write!(f, "{n}({})", p.promise)?,
                    None => write!(f, "{}", p.promise)?,
                }
            }
        }
        Ok(())
    }
}

/// Errors produced by promise operations and by the verification policy.
#[derive(Clone, Debug)]
pub enum PromiseError {
    /// The current task's `get` would have completed a deadlock cycle
    /// (Algorithm 2 raised an alarm instead of blocking).
    DeadlockDetected(Arc<DeadlockCycle>),
    /// The awaited promise was abandoned: its owner terminated without
    /// setting it, and the runtime completed it exceptionally (§6.2).
    OmittedSet(Arc<OmittedSetReport>),
    /// `set` was called by a task that does not own the promise
    /// (Algorithm 1 rule 4).
    NotOwner {
        /// The promise being set.
        promise: PromiseId,
        /// The task that attempted the set (NONE if there was no current task).
        task: TaskId,
    },
    /// `set` was called on a promise that has already been fulfilled.
    AlreadyFulfilled {
        /// The promise that was set twice.
        promise: PromiseId,
    },
    /// A spawn tried to transfer a promise the parent task does not own
    /// (Algorithm 1 rule 2).
    TransferNotOwned {
        /// The promise whose transfer was refused.
        promise: PromiseId,
        /// The task that attempted the transfer.
        task: TaskId,
    },
    /// An operation that requires a current task (promise creation, spawning)
    /// was invoked on a thread with no active task.
    NoCurrentTask {
        /// The operation that was attempted.
        operation: &'static str,
    },
    /// The promise was completed exceptionally because the body of the task
    /// responsible for it panicked.  The panic was *contained*: the worker
    /// thread survived, the task's rule-3 exit sweep ran (so every promise it
    /// owned was settled, exactly as for a normal termination), and the
    /// runtime keeps serving.
    TaskPanicked {
        /// The task whose body panicked.
        task: TaskId,
        /// The panic payload, rendered as a message.
        message: Arc<str>,
    },
    /// The operation was interrupted by cancellation: either the blocked
    /// task's [`CancelToken`](crate::CancelToken) was cancelled while it
    /// waited, or the promise belonged to a cancelled subtree whose exit
    /// sweep settled it exceptionally instead of raising an omitted-set
    /// alarm.
    Cancelled {
        /// The cancelled task: the blocked getter, or the owner whose
        /// cancelled exit settled the promise.
        task: TaskId,
    },
    /// The promise was explicitly completed exceptionally by its owner.
    Poisoned {
        /// The promise that was poisoned.
        promise: PromiseId,
        /// A description supplied at poisoning time.
        message: Arc<str>,
    },
    /// A blocking `get` with a timeout elapsed before the promise was set.
    Timeout {
        /// The promise that was being awaited.
        promise: PromiseId,
    },
    /// A spawn was refused because the runtime's scheduler has shut down.
    ///
    /// The task never ran; every promise transferred to it (including its
    /// completion promise) is completed exceptionally so no waiter can hang.
    RuntimeShutdown {
        /// The task that could not be scheduled.
        task: TaskId,
    },
}

impl PromiseError {
    /// Whether this error is one of the two bug-class alarms from the paper
    /// (deadlock cycle or omitted set), as opposed to ordinary API misuse.
    pub fn is_alarm(&self) -> bool {
        matches!(
            self,
            PromiseError::DeadlockDetected(_) | PromiseError::OmittedSet(_)
        )
    }

    /// A short machine-readable label for the error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            PromiseError::DeadlockDetected(_) => "deadlock",
            PromiseError::OmittedSet(_) => "omitted-set",
            PromiseError::NotOwner { .. } => "not-owner",
            PromiseError::AlreadyFulfilled { .. } => "already-fulfilled",
            PromiseError::TransferNotOwned { .. } => "transfer-not-owned",
            PromiseError::NoCurrentTask { .. } => "no-current-task",
            PromiseError::TaskPanicked { .. } => "task-panicked",
            PromiseError::Cancelled { .. } => "cancelled",
            PromiseError::Poisoned { .. } => "poisoned",
            PromiseError::Timeout { .. } => "timeout",
            PromiseError::RuntimeShutdown { .. } => "runtime-shutdown",
        }
    }
}

impl fmt::Display for PromiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromiseError::DeadlockDetected(cycle) => write!(f, "{cycle}"),
            PromiseError::OmittedSet(report) => write!(f, "{report}"),
            PromiseError::NotOwner { promise, task } => {
                write!(f, "{task} attempted to set {promise} which it does not own")
            }
            PromiseError::AlreadyFulfilled { promise } => {
                write!(f, "{promise} has already been fulfilled")
            }
            PromiseError::TransferNotOwned { promise, task } => {
                write!(
                    f,
                    "{task} attempted to transfer {promise} which it does not own"
                )
            }
            PromiseError::NoCurrentTask { operation } => {
                write!(f, "`{operation}` requires a current task on this thread")
            }
            PromiseError::TaskPanicked { task, message } => {
                write!(f, "promise abandoned because {task} panicked: {message}")
            }
            PromiseError::Cancelled { task } => {
                write!(f, "cancelled: {task} was asked to stop")
            }
            PromiseError::Poisoned { promise, message } => {
                write!(f, "{promise} was completed exceptionally: {message}")
            }
            PromiseError::Timeout { promise } => {
                write!(f, "timed out waiting for {promise}")
            }
            PromiseError::RuntimeShutdown { task } => {
                write!(f, "{task} was rejected: the runtime has shut down")
            }
        }
    }
}

impl std::error::Error for PromiseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, p: u64) -> CycleEntry {
        CycleEntry {
            task: TaskId(t),
            task_name: None,
            promise: PromiseId(p),
            promise_name: None,
        }
    }

    #[test]
    fn cycle_accessors() {
        let c = DeadlockCycle {
            entries: vec![entry(1, 10), entry(2, 20)],
        };
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.detecting_task(), TaskId(1));
        assert_eq!(c.detecting_promise(), PromiseId(10));
        assert_eq!(c.tasks().collect::<Vec<_>>(), vec![TaskId(1), TaskId(2)]);
        assert_eq!(
            c.promises().collect::<Vec<_>>(),
            vec![PromiseId(10), PromiseId(20)]
        );
    }

    #[test]
    fn cycle_display_mentions_every_participant() {
        let c = DeadlockCycle {
            entries: vec![entry(1, 10), entry(2, 20)],
        };
        let s = c.to_string();
        assert!(s.contains("task#1"));
        assert!(s.contains("task#2"));
        assert!(s.contains("promise#10"));
        assert!(s.contains("promise#20"));
        assert!(s.contains("deadlock cycle of 2 task(s)"));
    }

    #[test]
    fn omitted_set_display_names_the_offender() {
        let r = OmittedSetReport {
            task: TaskId(4),
            task_name: Some(Arc::from("downloader")),
            promises: vec![AbandonedPromise {
                promise: PromiseId(9),
                promise_name: Some(Arc::from("checksum")),
            }],
        };
        let s = r.to_string();
        assert!(s.contains("downloader"));
        assert!(s.contains("task#4"));
        assert!(s.contains("checksum"));
        assert!(s.contains("1 unfulfilled promise"));
    }

    #[test]
    fn error_kinds_and_alarm_classification() {
        let cycle = Arc::new(DeadlockCycle {
            entries: vec![entry(1, 1)],
        });
        let report = Arc::new(OmittedSetReport {
            task: TaskId(1),
            task_name: None,
            promises: vec![],
        });
        assert!(PromiseError::DeadlockDetected(cycle).is_alarm());
        assert!(PromiseError::OmittedSet(report).is_alarm());
        let not_owner = PromiseError::NotOwner {
            promise: PromiseId(1),
            task: TaskId(2),
        };
        assert!(!not_owner.is_alarm());
        assert_eq!(not_owner.kind(), "not-owner");
        assert_eq!(
            PromiseError::AlreadyFulfilled {
                promise: PromiseId(1)
            }
            .kind(),
            "already-fulfilled"
        );
        assert_eq!(
            PromiseError::Timeout {
                promise: PromiseId(1)
            }
            .kind(),
            "timeout"
        );
        let panicked = PromiseError::TaskPanicked {
            task: TaskId(3),
            message: Arc::from("boom"),
        };
        assert!(!panicked.is_alarm());
        assert_eq!(panicked.kind(), "task-panicked");
        assert!(panicked.to_string().contains("panicked"));
        let cancelled = PromiseError::Cancelled { task: TaskId(3) };
        assert!(!cancelled.is_alarm());
        assert_eq!(cancelled.kind(), "cancelled");
        assert!(cancelled.to_string().contains("task#3"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = PromiseError::NotOwner {
            promise: PromiseId(3),
            task: TaskId(7),
        };
        assert!(e.to_string().contains("task#7"));
        assert!(e.to_string().contains("promise#3"));
        let e = PromiseError::NoCurrentTask {
            operation: "Promise::new",
        };
        assert!(e.to_string().contains("Promise::new"));
        let e = PromiseError::Poisoned {
            promise: PromiseId(5),
            message: Arc::from("boom"),
        };
        assert!(e.to_string().contains("boom"));
    }
}
