//! Verification policy configuration.
//!
//! The paper evaluates an *unverified baseline* against a *verified* build in
//! which Algorithm 1 (ownership tracking / omitted-set detection) and
//! Algorithm 2 (deadlock-cycle detection) are active.  This module exposes
//! that switch, plus the implementation trade-offs discussed in §6.2
//! (owned-ledger representation, reaction to an omitted set).

/// How much verification is performed at runtime.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum VerificationMode {
    /// No ownership tracking and no deadlock detection.  This is the
    /// *baseline* configuration of the paper's evaluation: promises behave
    /// like ordinary unrestricted promises.
    Unverified,
    /// Ownership tracking only (Algorithm 1): ownership transfers are
    /// checked, sets require ownership, and omitted sets are detected when a
    /// task terminates.  The deadlock detector does not run at `get`.
    OwnershipOnly,
    /// Ownership tracking plus the lock-free deadlock detector at every
    /// blocking `get` (Algorithms 1 and 2).  This is the *verified*
    /// configuration of the paper's evaluation.
    #[default]
    Full,
}

impl VerificationMode {
    /// Whether Algorithm 1 (ownership policy) is active.
    #[inline]
    pub fn tracks_ownership(self) -> bool {
        !matches!(self, VerificationMode::Unverified)
    }

    /// Whether Algorithm 2 (deadlock detection) runs at blocking `get`s.
    #[inline]
    pub fn detects_deadlocks(self) -> bool {
        matches!(self, VerificationMode::Full)
    }

    /// Whether task and promise names are kept for diagnostics.  Names are
    /// read by alarms, error messages and the event log; the unverified
    /// baseline raises no alarm, so it keeps none and `name()` reads `None`
    /// there.  Keeping a name costs one string per named task, promise or
    /// channel — a channel's cells and a task's completion promise share
    /// their base string (see [`Name`](crate::Name)) — and nothing per
    /// message or per `get`/`set`.
    #[inline]
    pub fn captures_names(self) -> bool {
        self.tracks_ownership()
    }

    /// A short label used by benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            VerificationMode::Unverified => "baseline",
            VerificationMode::OwnershipOnly => "ownership",
            VerificationMode::Full => "verified",
        }
    }
}

/// Representation of each task's owned-promise ledger (`owner⁻¹`).
///
/// §6.2: the implementation evaluated in the paper keeps an actual list so
/// that an omitted-set alarm can *name* the unfulfilled promises, and — as a
/// speed/space trade-off — does not eagerly remove entries on transfer or
/// fulfilment, instead re-checking `p.owner == t` when the task terminates.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum LedgerMode {
    /// Append-only list; entries are filtered by an `owner == self` check at
    /// task exit.  (The paper's evaluated configuration.)
    #[default]
    Lazy,
    /// List with eager removal at transfer and fulfilment.  Slightly more
    /// work per operation, smaller ledgers for long-lived tasks.
    Eager,
    /// A plain counter.  Cheapest, but an omitted-set alarm can only report
    /// *how many* promises went unfulfilled, not which ones (the trade-off
    /// §6.2 declines for the evaluated build).
    CountOnly,
}

impl LedgerMode {
    /// A short label used by benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            LedgerMode::Lazy => "lazy-list",
            LedgerMode::Eager => "eager-list",
            LedgerMode::CountOnly => "count-only",
        }
    }
}

/// What to do when a task terminates while still owning unfulfilled promises
/// (an *omitted set*, Algorithm 1 rule 3).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum OmittedSetAction {
    /// Record an alarm, and complete every leftover promise exceptionally so
    /// that any task blocked on one of them observes the error instead of
    /// hanging forever.  (The behaviour of the paper's implementation, §6.2.)
    #[default]
    CompleteAndReport,
    /// Record an alarm but leave the promises unfulfilled (waiters keep
    /// blocking).  Useful for tests that want to observe the raw policy.
    ReportOnly,
    /// Panic in the terminating task.  The most aggressive option; mirrors
    /// treating the failed assertion of Algorithm 1 line 16 as fatal.
    Panic,
}

/// Full policy configuration installed in a [`crate::Context`].
#[derive(Clone, Debug)]
pub struct PolicyConfig {
    /// How much verification is performed.
    pub mode: VerificationMode,
    /// Owned-ledger representation.
    pub ledger: LedgerMode,
    /// Reaction to an omitted set.
    pub omitted_set: OmittedSetAction,
    /// Upper bound multiplier on detector traversal length, as a multiple of
    /// the number of live tasks.  Algorithm 2 cannot cycle for the task that
    /// completes a deadlock, but a task that is merely *part* of a cycle
    /// completed by someone else could traverse that foreign cycle
    /// indefinitely; the bound makes such a traversal commit to the blocking
    /// wait instead (which is always safe — committing never creates a false
    /// alarm and the completing task still raises the alarm).
    pub max_traversal_factor: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            mode: VerificationMode::Full,
            ledger: LedgerMode::Lazy,
            omitted_set: OmittedSetAction::CompleteAndReport,
            max_traversal_factor: 2,
        }
    }
}

impl PolicyConfig {
    /// The unverified baseline configuration used by the evaluation.
    pub fn unverified() -> Self {
        PolicyConfig {
            mode: VerificationMode::Unverified,
            ..Default::default()
        }
    }

    /// The fully verified configuration used by the evaluation.
    pub fn verified() -> Self {
        PolicyConfig::default()
    }

    /// Ownership checks without the deadlock detector.
    pub fn ownership_only() -> Self {
        PolicyConfig {
            mode: VerificationMode::OwnershipOnly,
            ..Default::default()
        }
    }

    /// Builder-style: set the verification mode.
    pub fn with_mode(mut self, mode: VerificationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style: set the ledger representation.
    pub fn with_ledger(mut self, ledger: LedgerMode) -> Self {
        self.ledger = ledger;
        self
    }

    /// Builder-style: set the omitted-set reaction.
    pub fn with_omitted_set(mut self, action: OmittedSetAction) -> Self {
        self.omitted_set = action;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(!VerificationMode::Unverified.tracks_ownership());
        assert!(!VerificationMode::Unverified.detects_deadlocks());
        assert!(VerificationMode::OwnershipOnly.tracks_ownership());
        assert!(!VerificationMode::OwnershipOnly.detects_deadlocks());
        assert!(VerificationMode::Full.tracks_ownership());
        assert!(VerificationMode::Full.detects_deadlocks());
        assert!(!VerificationMode::Unverified.captures_names());
        assert!(VerificationMode::OwnershipOnly.captures_names());
        assert!(VerificationMode::Full.captures_names());
    }

    #[test]
    fn default_config_is_fully_verified_lazy_ledger() {
        let c = PolicyConfig::default();
        assert_eq!(c.mode, VerificationMode::Full);
        assert_eq!(c.ledger, LedgerMode::Lazy);
        assert_eq!(c.omitted_set, OmittedSetAction::CompleteAndReport);
    }

    #[test]
    fn presets() {
        assert_eq!(
            PolicyConfig::unverified().mode,
            VerificationMode::Unverified
        );
        assert_eq!(PolicyConfig::verified().mode, VerificationMode::Full);
        assert_eq!(
            PolicyConfig::ownership_only().mode,
            VerificationMode::OwnershipOnly
        );
    }

    #[test]
    fn builder_methods_compose() {
        let c = PolicyConfig::default()
            .with_mode(VerificationMode::OwnershipOnly)
            .with_ledger(LedgerMode::CountOnly)
            .with_omitted_set(OmittedSetAction::Panic);
        assert_eq!(c.mode, VerificationMode::OwnershipOnly);
        assert_eq!(c.ledger, LedgerMode::CountOnly);
        assert_eq!(c.omitted_set, OmittedSetAction::Panic);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(VerificationMode::Unverified.label(), "baseline");
        assert_eq!(VerificationMode::Full.label(), "verified");
        assert_eq!(LedgerMode::Lazy.label(), "lazy-list");
        assert_eq!(LedgerMode::CountOnly.label(), "count-only");
    }
}
