//! Verification policy.
//!
//! The paper evaluates an *unverified baseline* against a *verified* build in
//! which Algorithm 1 (ownership tracking / omitted-set detection) and
//! Algorithm 2 (deadlock-cycle detection) are active.  This module exposes
//! that switch.  The verified build is the one §6.2 describes: each task
//! keeps a lazily filtered list of the promises it owns, so an omitted-set
//! alarm can name them, and a task that exits owning unfulfilled promises
//! completes them exceptionally so that no waiter hangs.

/// How much verification is performed at runtime.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum VerificationMode {
    /// No ownership tracking and no deadlock detection.  This is the
    /// *baseline* configuration of the paper's evaluation: promises behave
    /// like ordinary unrestricted promises.
    Unverified,
    /// Ownership tracking plus the lock-free deadlock detector at every
    /// blocking `get` (Algorithms 1 and 2).  This is the *verified*
    /// configuration of the paper's evaluation.
    #[default]
    Full,
}

impl VerificationMode {
    /// Whether the ownership policy (Algorithm 1) and the deadlock detector
    /// (Algorithm 2) are active.
    #[inline]
    pub fn tracks_ownership(self) -> bool {
        matches!(self, VerificationMode::Full)
    }

    /// A short label used by benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            VerificationMode::Unverified => "baseline",
            VerificationMode::Full => "verified",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{with_current_body, Ledger};
    use crate::Context;

    #[test]
    fn mode_predicates() {
        assert!(!VerificationMode::Unverified.tracks_ownership());
        assert!(VerificationMode::Full.tracks_ownership());
    }

    #[test]
    fn default_config_is_fully_verified_lazy_ledger() {
        let ctx = Context::new(VerificationMode::default());
        assert_eq!(ctx.mode(), VerificationMode::Full);
        let root = ctx.root_task(None);
        let lazy = with_current_body(|b| matches!(b.ledger, Ledger::List { .. })).unwrap();
        assert!(lazy, "a verified task keeps the lazy list ledger");
        root.finish();
    }

    #[test]
    fn presets() {
        assert_eq!(
            Context::new_unverified().mode(),
            VerificationMode::Unverified
        );
        assert_eq!(Context::new_verified().mode(), VerificationMode::Full);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(VerificationMode::Unverified.label(), "baseline");
        assert_eq!(VerificationMode::Full.label(), "verified");
    }
}
