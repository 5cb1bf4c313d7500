//! Helpers for tests that assert on the process-global block pool
//! accounting ([`crate::job::job_pool_stats`]).

use crate::job::job_pool_stats;

/// Serialises tests that assert on the (process-global) block pool within
/// one test binary: returns a guard on a shared lock.  The harness runs
/// `#[test]`s concurrently, and two tests watching `outstanding` settle
/// would otherwise race each other's jobs and promise cells.
pub fn pool_serial() -> parking_lot::MutexGuard<'static, ()> {
    static POOL_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    POOL_LOCK.lock()
}

/// Polls until the pool's outstanding-block count settles to `expected`
/// (worker threads release their blocks a beat after joins return), then
/// asserts it.
pub fn assert_outstanding_settles_to(expected: i64) {
    for _ in 0..5000 {
        if job_pool_stats().outstanding == expected {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(job_pool_stats().outstanding, expected);
}
