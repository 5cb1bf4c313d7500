//! # promise-core
//!
//! The core of the reproduction of *"An Ownership Policy and Deadlock
//! Detector for Promises"* (Voss & Sarkar, PPoPP 2021).
//!
//! This crate implements, from scratch:
//!
//! * the **promise** synchronization primitive with the synchronous
//!   `get`/`set` API the paper studies ([`Promise`]);
//! * the **ownership policy** `P_o` of §2 / Algorithm 1 — every promise is
//!   owned by exactly one task, ownership moves only at task-spawn time, the
//!   owner must fulfill the promise before it terminates
//!   ([`ownership`], [`task`]);
//! * the **omitted-set** bug class: a task terminating while still owning
//!   unfulfilled promises is reported immediately with blame attached
//!   ([`OmittedSetReport`]);
//! * the **lock-free deadlock detector** of §3 / Algorithm 2, which runs at
//!   every `get` and raises an alarm at the moment a cycle of tasks blocked
//!   on each other's promises is created ([`detector`], [`DeadlockCycle`]);
//! * the memory-ordering discipline of §5 mapped onto the Rust (C++11)
//!   memory model (documented in [`detector`]);
//! * the growing work-stealing [`scheduler`] of the §6.3 execution strategy,
//!   which a blocking `get` tells when its worker is about to block.
//!
//! A task runtime (see the `promise-runtime` crate) creates one [`Context`],
//! installs a [`WorkStealingScheduler`] in it, and registers its worker
//! threads' current tasks against it.  Everything except spawning can also
//! be driven directly from plain `std::thread` threads, which is what most
//! unit tests do.
//!
//! ## Layering
//!
//! ```text
//!   Promise<T>  ── get/set ──►  ownership (Algorithm 1)  ──►  Context
//!        │                            │                          │
//!        └── blocking get ──►  detector (Algorithm 2) ──►  SlotArena (lock-free
//!                                                           task / promise cells)
//! ```
//!
//! The concurrently-read state that the detector traverses (`owner` on each
//! promise, `waitingOn` on each task) lives in two generation-tagged
//! [`arena::SlotArena`]s so that the traversal is lock-free and never touches
//! freed memory, while still allowing cells to be recycled when promises and
//! tasks die (keeping the memory overhead of verification small, per §6.3).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alarms;
pub mod arena;
#[doc(hidden)]
pub mod bench_support;
pub mod cancel;
pub mod cell;
pub mod chaos;
pub mod collection;
pub mod context;
pub mod counters;
pub mod detector;
pub mod epoch;
pub mod error;
pub mod events;
pub mod helping;
pub mod ids;
pub mod job;
pub mod magazine;
pub mod name;
pub mod ownership;
pub mod policy;
pub mod pool;
pub mod pool_arc;
pub mod promise;
pub mod refs;
pub mod report;
pub mod scheduler;
pub mod slots;
pub mod smallvec;
pub mod task;
#[doc(hidden)]
pub mod test_support;
pub mod waitq;

pub use alarms::AlarmSink;
pub use arena::ArenaMemoryStats;
pub use cancel::CancelToken;
pub use cell::{CellWait, HelpWait, OneShotCell, ResultSlot};
pub use chaos::{ChaosConfig, ChaosSite};
pub use collection::{collect_promises, PromiseCollection, TransferList};
pub use context::{Alarm, Context, StallReport};
pub use counters::{CounterSnapshot, Counters};
pub use error::{CycleEntry, DeadlockCycle, OmittedSetReport, PromiseError};
pub use events::{EventKind, EventLog, EventRecord};
pub use helping::HelpConfig;
pub use ids::{PromiseId, TaskId};
pub use job::Job;
pub use name::Name;
pub use policy::VerificationMode;
pub use pool::{PoolConfig, PoolStats, WorkerExitHook};
pub use pool_arc::{ErasedPromiseRef, PoolArc};
pub use promise::{ErasedPromise, Promise};
pub use scheduler::{SchedulerConfig, WorkStealingScheduler, WorkerProgress};
pub use smallvec::SmallVec;
pub use task::{current_task_id, has_current_task, PreparedTask, RootTask, TaskScope};
pub use waitq::WaitQueue;
