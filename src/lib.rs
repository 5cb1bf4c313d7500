//! # promises — an ownership policy and deadlock detector for promises
//!
//! This facade crate re-exports the public API of the reproduction of
//! *"An Ownership Policy and Deadlock Detector for Promises"* (Voss & Sarkar,
//! PPoPP 2021).  It is the crate that examples, integration tests, and
//! downstream users are expected to depend on.
//!
//! The system is split into three layers:
//!
//! * [`core`] (crate `promise-core`) — the promise primitive, the ownership
//!   policy of §2 (Algorithm 1), and the lock-free deadlock detector of §3
//!   (Algorithm 2), together with the error/report types used for alarms.
//! * [`runtime`] (crate `promise-runtime`) — a task-parallel runtime with a
//!   growing thread pool (the execution strategy of §6.3), task spawning with
//!   ownership transfer, task handles, and finish scopes.
//! * [`sync`] (crate `promise-sync`) — higher-level synchronization objects
//!   built from promises: the channel of Listing 4, all-to-all and all-to-one
//!   barriers, and pipeline helpers.
//!
//! ## Quickstart
//!
//! ```
//! use promises::prelude::*;
//!
//! let rt = Runtime::builder().verification(VerificationMode::Full).build();
//! let sum = rt.block_on(|| {
//!     // The promise is created by (and owned by) the root task.
//!     let p = Promise::<i32>::new();
//!     // Ownership of `p` moves to the child, which is now responsible for
//!     // fulfilling it (Algorithm 1, rule 2).
//!     let child = spawn(&p, {
//!         let p = p.clone();
//!         move || p.set(20).unwrap()
//!     });
//!     let v = p.get().unwrap();
//!     child.join().unwrap();
//!     v + 22
//! }).unwrap();
//! assert_eq!(sum, 42);
//! ```

pub use promise_core as core;
pub use promise_runtime as runtime;
pub use promise_sync as sync;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use promise_core::{
        DeadlockCycle, Promise, PromiseCollection, PromiseError, TaskId, VerificationMode,
    };
    pub use promise_runtime::{
        spawn, spawn_named, AlarmTail, FinishScope, ObserveConfig, Runtime, RuntimeBuilder,
        TaskHandle,
    };
    pub use promise_sync::{AllToAllBarrier, Channel, Combiner};
}
