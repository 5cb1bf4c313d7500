//! # promise-runtime
//!
//! A task-parallel runtime for ownership-verified promises, reproducing the
//! execution environment of the paper's evaluation (§6.3):
//!
//! * a **growing scheduler**: a new OS thread is spawned whenever a task is
//!   submitted and every existing worker is busy, and whenever a worker
//!   blocks on a promise while work is queued.  This is the execution
//!   strategy the paper requires, because with promises there is no a-priori
//!   bound on the number of tasks that may block simultaneously.  Two
//!   implementations exist, each faster on some pinned workload: the
//!   sharded work-stealing [`scheduler`] (default) and the single-queue
//!   [`pool`] (selectable via [`RuntimeBuilder::scheduler`]);
//! * **spawning with ownership transfer** ([`spawn()`], [`spawn_named`]): the
//!   `async (p1, …, pn) { … }` construct of the paper — the listed promises
//!   move from the parent to the child before the child becomes runnable,
//!   and the child's termination runs the rule-3 exit check.  The spawn
//!   path is zero-alloc in steady state: fused result/completion cells,
//!   recycled job records, and inline transfer lists (see [`mod@spawn`]);
//! * **batched submission** ([`spawn_batch`], [`SpawnBatch`]): prepare N
//!   children (transfers validated in order) and publish them with one
//!   injector push-chain and one wake sweep;
//! * **task handles** ([`TaskHandle`]): joinable results implemented with the
//!   `new p; async (p, …) { …; set p }` pattern of §2.1;
//! * **finish scopes** ([`finish()`], [`FinishScope`]): await the termination
//!   of a dynamically growing set of tasks (used by the QSort benchmark);
//! * **measurement hooks** ([`RunMetrics`]): wall time plus the task / get /
//!   set counts that Table 1 reports.
//!
//! ## Example
//!
//! ```
//! use promise_runtime::{Runtime, spawn};
//! use promise_core::{Promise, VerificationMode};
//!
//! let rt = Runtime::builder().verification(VerificationMode::Full).build();
//! let out = rt.block_on(|| {
//!     let p = Promise::<u64>::with_name("answer");
//!     let child = spawn(&p, {
//!         let p = p.clone();
//!         move || {
//!             p.set(42).unwrap();
//!             "done"
//!         }
//!     });
//!     let v = p.get().unwrap();
//!     assert_eq!(child.join().unwrap(), "done");
//!     v
//! }).unwrap();
//! assert_eq!(out, 42);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod finish;
pub mod handle;
pub mod metrics;
pub mod observe;
pub mod pool;
pub mod runtime;
pub mod scheduler;
pub mod spawn;

pub use batch::{spawn_batch, SpawnBatch};
pub use finish::{finish, FinishScope};
pub use handle::{CompletionPromise, TaskHandle};
pub use metrics::{DetectionStats, RunMetrics};
pub use observe::{AlarmTail, ObserveConfig};
pub use pool::{GrowingPool, PoolConfig, PoolStats};
pub use promise_core::HelpConfig;
pub use runtime::{Runtime, RuntimeBuilder, SchedulerKind, ShutdownReport, WatchdogConfig};
pub use scheduler::{SchedulerConfig, StealOrder, WorkStealingScheduler, WorkerProgress};
pub use spawn::{
    spawn, spawn_cancellable, spawn_named, try_spawn, try_spawn_named, try_spawn_with_token,
};
