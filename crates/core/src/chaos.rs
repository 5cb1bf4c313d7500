//! Seeded fault injection for chaos verification.
//!
//! Chaos mode widens the race windows the verifier's concurrent algorithms
//! have to survive: a seeded, per-site pseudo-random delay is injected
//! immediately **before** the three operations whose interleavings the
//! ownership policy and the deadlock detector reason about —
//!
//! * **pre-`get`** ([`ChaosSite::Get`]): before a blocking wait publishes
//!   its `waitingOn` edge and runs Algorithm 2, so detector traversals race
//!   real publish/verify interleavings (the §3.1 window);
//! * **pre-`set`** ([`ChaosSite::Set`]): before rule 4 clears the owner and
//!   the cell publishes fulfilment, so fulfilments race detector traversals
//!   and waiter parking;
//! * **pre-`transfer`** ([`ChaosSite::Transfer`]): before a spawn's batch
//!   ownership transfer (rule 2), so ownership re-assignment races sibling
//!   detector reads.
//!
//! Two scheduler-level perturbations complete the picture (implemented in
//! the [`scheduler`](crate::scheduler), driven by the same seed through
//! [`SchedulerConfig::scramble`](crate::SchedulerConfig::scramble)):
//! spawn-order scrambling (a worker-local spawn is randomly routed through
//! the global injector instead of the LIFO fast path) and steal-order
//! scrambling (randomized victim selection).
//!
//! The design follows the *stress-test* idiom of delay-injection deadlock
//! tools: delays are derived from a user-supplied seed through a counter, so
//! a failing run is repeatable by seed, and the whole layer is **zero-cost
//! when disabled** — a runtime built without [`ChaosConfig`] pays one
//! pointer-load-and-branch per hook (the `Option` in the context is `None`),
//! never a random-number draw.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which injection site a chaos delay is drawn for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChaosSite {
    /// Immediately before a blocking `get` publishes its wait and runs the
    /// deadlock detector.
    Get,
    /// Immediately before a `set` runs the rule-4 ownership check and
    /// publishes fulfilment.
    Set,
    /// Immediately before a spawn's ownership transfer (rule 2) re-assigns
    /// the batch to the child.
    Transfer,
}

/// Upper bound, in *spin-loop iterations*, of the delay injected at every
/// site (roughly a few hundred nanoseconds to a microsecond of jitter per
/// operation).
pub const DELAY_BOUND: u32 = 512;

/// Configuration of the chaos fault-injection layer.
///
/// Passed to `RuntimeBuilder::chaos(...)` in `promise-runtime`.  Chaos on
/// means every site's delay and both scheduler scramblings; the concrete
/// delay of each individual operation is drawn pseudo-randomly (and
/// repeatably) from `seed`, below [`DELAY_BOUND`].  Panic and cancel
/// injection are opt-in on top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for every pseudo-random decision the chaos layer makes.  Two
    /// runs with the same seed and config draw identical delay sequences.
    pub seed: u64,
    /// Per-mille probability (0–1000) that a `get`/`set` hook *panics* the
    /// current task body instead of proceeding (0 = off).  Injected panics
    /// are contained by the runtime's panic isolation: the task's promises
    /// settle as `TaskPanicked`, the worker survives.  Root tasks are never
    /// panicked (a root panic would escape `block_on` and kill the driver).
    pub panic_per_mille: u32,
    /// Per-mille probability (0–1000) that a `get`/`set` hook *cancels* the
    /// current task's [`CancelToken`](crate::CancelToken), if it carries one
    /// (0 = off).  Tasks without a token are unaffected.
    pub cancel_per_mille: u32,
}

impl ChaosConfig {
    /// Chaos from a seed: all three delay sites, spawn and steal scrambling
    /// on, no panic or cancel injection.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: 0,
            cancel_per_mille: 0,
        }
    }

    /// Sets the per-mille panic-injection rate at the `get`/`set` hooks
    /// (clamped to 1000; 0 disables).
    pub fn panic_injection(mut self, per_mille: u32) -> Self {
        self.panic_per_mille = per_mille.min(1000);
        self
    }

    /// Sets the per-mille cancel-injection rate at the `get`/`set` hooks
    /// (clamped to 1000; 0 disables).
    pub fn cancel_injection(mut self, per_mille: u32) -> Self {
        self.cancel_per_mille = per_mille.min(1000);
        self
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mix used to turn
/// `(seed, draw-counter)` pairs into independent-looking delay draws.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shared, lock-free state of one context's chaos layer: the config plus a
/// single draw counter (`fetch_add`) that makes every injected delay a
/// deterministic function of `(seed, draw index, site)`.
///
/// The *assignment* of draw indices to tasks is racy by nature (that is the
/// point — it varies the interleaving), but the multiset of delays for a
/// given seed is fixed, so a seed reproduces the same statistical schedule
/// pressure.
pub struct ChaosState {
    config: ChaosConfig,
    draws: AtomicU64,
}

impl ChaosState {
    /// Builds the state for one context.
    pub(crate) fn new(config: ChaosConfig) -> ChaosState {
        ChaosState {
            config,
            draws: AtomicU64::new(0),
        }
    }

    /// The configuration driving this state.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Number of delay draws performed so far (diagnostics).
    pub fn draw_count(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }

    /// Injects the seeded delay for `site`: a busy spin of
    /// `mix(seed, n, site) % DELAY_BOUND` iterations, with an occasional
    /// `yield_now` so the OS scheduler also gets a chance to reorder threads
    /// (the widest race-window lever available without sleeping).
    #[inline]
    pub(crate) fn delay(&self, site: ChaosSite) {
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let site_salt = match site {
            ChaosSite::Get => 0x67u64,
            ChaosSite::Set => 0x73u64,
            ChaosSite::Transfer => 0x74u64,
        };
        let r = mix64(self.config.seed ^ mix64(n ^ (site_salt << 56)));
        let spins = (r % u64::from(DELAY_BOUND)) as u32;
        // Roughly one draw in eight additionally yields the thread: pure
        // spinning only perturbs sub-microsecond interleavings, a yield lets
        // whole quanta reorder.
        if r & 0x700 == 0 {
            std::thread::yield_now();
        }
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }

    /// Seeded decision: should this `get`/`set` hook panic the current task
    /// body?  Deterministic in the draw index; the assignment of draws to
    /// operations is racy by design (same caveat as delays).
    #[inline]
    pub(crate) fn should_panic(&self, site: ChaosSite) -> bool {
        self.should_fault(site, self.config.panic_per_mille, 0x50u64)
    }

    /// Seeded decision: should this `get`/`set` hook cancel the current
    /// task's token?
    #[inline]
    pub(crate) fn should_cancel(&self, site: ChaosSite) -> bool {
        self.should_fault(site, self.config.cancel_per_mille, 0x43u64)
    }

    fn should_fault(&self, site: ChaosSite, per_mille: u32, fault_salt: u64) -> bool {
        if per_mille == 0 {
            return false;
        }
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let site_salt = match site {
            ChaosSite::Get => 0x67u64,
            ChaosSite::Set => 0x73u64,
            ChaosSite::Transfer => 0x74u64,
        };
        let r = mix64(self.config.seed ^ mix64(n ^ (site_salt << 56) ^ (fault_salt << 48)));
        (r % 1000) < u64::from(per_mille)
    }
}

impl std::fmt::Debug for ChaosState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosState")
            .field("config", &self.config)
            .field("draws", &self.draw_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_draw_and_count() {
        let st = ChaosState::new(ChaosConfig::from_seed(0xC0FFEE));
        for _ in 0..64 {
            st.delay(ChaosSite::Get);
            st.delay(ChaosSite::Set);
            st.delay(ChaosSite::Transfer);
        }
        assert_eq!(st.draw_count(), 192);
        // Fault decisions at a zero rate never draw.
        assert!(!st.should_panic(ChaosSite::Get));
        assert!(!st.should_cancel(ChaosSite::Set));
        assert_eq!(st.draw_count(), 192);
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn fault_injection_rates_activate_and_fire_at_roughly_the_rate() {
        let c = ChaosConfig::from_seed(7);
        assert_eq!((c.panic_per_mille, c.cancel_per_mille), (0, 0));
        let c = c.panic_injection(9999).cancel_injection(5);
        assert_eq!((c.panic_per_mille, c.cancel_per_mille), (1000, 5));
        let st = ChaosState::new(
            ChaosConfig::from_seed(0)
                .panic_injection(250)
                .cancel_injection(250),
        );
        let panics = (0..4000)
            .filter(|_| st.should_panic(ChaosSite::Get))
            .count();
        let cancels = (0..4000)
            .filter(|_| st.should_cancel(ChaosSite::Set))
            .count();
        // ~1000 expected at 250‰; generous bounds keep the test seed-robust.
        assert!((500..1500).contains(&panics), "panics fired {panics}x");
        assert!((500..1500).contains(&cancels), "cancels fired {cancels}x");
    }
}
