//! End-to-end deadline budgets for provider exchanges.
//!
//! A production lookup has one deadline — "this page-load check gets
//! 800 ms" — that every layer of the transport stack must respect: the
//! retry layer must stop retrying when the budget is spent (its attempt
//! cap is a fallback, not the contract), and the TCP layer must derive its
//! per-frame I/O timeouts from what *remains* rather than a fixed default.
//! [`DeadlineBudget`] is that shared deadline: one instance per batch,
//! passed by reference down the stack.
//!
//! # Charge-based, not wall-clock-based
//!
//! The budget deliberately does **not** read a clock.  Each layer
//! *charges* the time it knows it consumed — the retry layer charges its
//! backoff delays, the TCP transport charges measured round-trip time —
//! and the budget is exhausted when the charges reach the total.  This
//! keeps it exact under a virtual clock (a recorded-but-not-slept retry
//! delay still depletes the budget, so zero-sleep tests exercise the real
//! depletion logic) and free of double counting (a layer charges only
//! what it spent itself, never what its callee already charged).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Floor on any I/O timeout derived from a budget: the remaining budget is
/// clamped up to this before being handed to the OS, because
/// `set_read_timeout(Some(Duration::ZERO))` is an OS-level error, and a
/// nanoseconds-scale timeout is indistinguishable from one.
pub const MIN_IO_TIMEOUT: Duration = Duration::from_millis(1);

/// One end-to-end deadline, shared by reference across the transport
/// stack and depleted by explicit charges.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use sb_protocol::DeadlineBudget;
///
/// let budget = DeadlineBudget::new(Duration::from_millis(800));
/// budget.charge(Duration::from_millis(300));
/// assert_eq!(budget.remaining(), Duration::from_millis(500));
/// // An I/O timeout is capped by what remains...
/// assert_eq!(
///     budget.cap_timeout(Duration::from_secs(30)),
///     Duration::from_millis(500),
/// );
/// budget.charge(Duration::from_secs(1));
/// assert!(budget.is_exhausted());
/// // ...but never collapses to zero (an OS error): see MIN_IO_TIMEOUT.
/// assert_eq!(
///     budget.cap_timeout(Duration::from_secs(30)),
///     sb_protocol::MIN_IO_TIMEOUT,
/// );
/// ```
#[derive(Debug)]
pub struct DeadlineBudget {
    total: Duration,
    spent_nanos: AtomicU64,
}

impl DeadlineBudget {
    /// A fresh budget of `total`.
    pub fn new(total: Duration) -> Self {
        DeadlineBudget {
            total,
            spent_nanos: AtomicU64::new(0),
        }
    }

    /// The budget of a caller with no deadline: `total` is
    /// [`Duration::MAX`], so [`Self::cap_timeout`] always yields the
    /// layer's own default and [`Self::is_exhausted`] is never true
    /// (charges saturate far below the total).
    pub fn unbounded() -> Self {
        DeadlineBudget::new(Duration::MAX)
    }

    /// The budget this deadline started with.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Time charged so far.
    pub fn spent(&self) -> Duration {
        Duration::from_nanos(self.spent_nanos.load(Ordering::Relaxed))
    }

    /// What is left of the budget (zero once exhausted).
    pub fn remaining(&self) -> Duration {
        self.total.saturating_sub(self.spent())
    }

    /// True once the charges have consumed the whole budget.
    pub fn is_exhausted(&self) -> bool {
        self.remaining().is_zero()
    }

    /// Charges `elapsed` against the budget (saturating).
    pub fn charge(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // Saturating add: a second overflowing charge must not wrap the
        // budget back to "barely spent".
        let mut current = self.spent_nanos.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(nanos);
            match self.spent_nanos.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Caps a layer's default timeout by the remaining budget, clamped to
    /// at least [`MIN_IO_TIMEOUT`] so the result is always a duration the
    /// OS accepts.  Callers that want "fail instead of a last micro-wait"
    /// check [`Self::is_exhausted`] first.
    pub fn cap_timeout(&self, default: Duration) -> Duration {
        default.min(self.remaining()).max(MIN_IO_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_exhaust() {
        let budget = DeadlineBudget::new(Duration::from_millis(100));
        assert!(!budget.is_exhausted());
        budget.charge(Duration::from_millis(60));
        assert_eq!(budget.remaining(), Duration::from_millis(40));
        budget.charge(Duration::from_millis(60));
        assert!(budget.is_exhausted());
        assert_eq!(budget.remaining(), Duration::ZERO);
        assert_eq!(budget.spent(), Duration::from_millis(120));
    }

    #[test]
    fn overflowing_charges_saturate() {
        let budget = DeadlineBudget::new(Duration::from_secs(1));
        budget.charge(Duration::MAX);
        budget.charge(Duration::MAX);
        assert!(budget.is_exhausted());
        assert_eq!(budget.remaining(), Duration::ZERO);
    }

    #[test]
    fn a_saturated_budget_never_wraps() {
        let budget = DeadlineBudget::new(Duration::from_secs(1));
        // Drive the spent counter right up to the u64 nanosecond ceiling,
        // then keep charging: the CAS loop must peg at the ceiling, not
        // wrap back to "barely spent" and resurrect the budget.
        budget.charge(Duration::from_nanos(u64::MAX - 1));
        assert!(budget.is_exhausted());
        budget.charge(Duration::from_nanos(2));
        budget.charge(Duration::from_secs(5));
        assert_eq!(budget.spent(), Duration::from_nanos(u64::MAX));
        assert_eq!(budget.remaining(), Duration::ZERO);
        assert!(budget.is_exhausted());
        assert_eq!(budget.cap_timeout(Duration::from_secs(30)), MIN_IO_TIMEOUT);
    }

    #[test]
    fn an_unbounded_budget_never_caps_and_never_exhausts() {
        let budget = DeadlineBudget::unbounded();
        assert_eq!(budget.total(), Duration::MAX);
        budget.charge(Duration::MAX);
        budget.charge(Duration::MAX);
        assert!(!budget.is_exhausted());
        assert_eq!(
            budget.cap_timeout(Duration::from_secs(30)),
            Duration::from_secs(30)
        );
    }

    #[test]
    fn cap_timeout_tracks_the_remaining_budget() {
        let budget = DeadlineBudget::new(Duration::from_millis(500));
        // Plenty left: the layer's own default wins.
        assert_eq!(
            budget.cap_timeout(Duration::from_millis(200)),
            Duration::from_millis(200)
        );
        budget.charge(Duration::from_millis(450));
        // Less left than the default: the budget wins.
        assert_eq!(
            budget.cap_timeout(Duration::from_millis(200)),
            Duration::from_millis(50)
        );
        budget.charge(Duration::from_secs(1));
        // Exhausted: clamped to the OS-acceptable floor, never zero.
        assert_eq!(
            budget.cap_timeout(Duration::from_millis(200)),
            MIN_IO_TIMEOUT
        );
    }
}
