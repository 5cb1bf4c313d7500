//! Shared test scaffolding: seeded RNGs, pool-accounting helpers, and the
//! deterministic magazine interleaving kit.
//!
//! This module is compiled into the library (not `#[cfg(test)]`) so the
//! integration-test binaries of this crate *and* of `promise-runtime` can
//! share one copy of the scaffolding that used to be duplicated across
//! `cell_stress.rs`, `data_plane_stress.rs` and `spawn_recycle_stress.rs`.
//! It is `#[doc(hidden)]` and carries no stability promise — it is test
//! support, not API.
//!
//! Contents:
//!
//! * [`rng`] — the xorshift jitter / LCG helpers the seeded stress suites
//!   share, plus [`rng::seed_from_env`] so CI can vary the seeds between
//!   runs (`STRESS_SEED`);
//! * [`pool`] — serialization and settle-polling helpers for tests that
//!   assert on the process-global block pool accounting;
//! * [`interleave`] — the deterministic, model-checking-style interleaving
//!   kit for the shard-lock magazine protocol (see [`crate::magazine`]).

pub mod interleave;
pub mod pool;
pub mod rng;
