//! An injectable source of time, shared by every layer that sleeps or
//! measures elapsed time (client retry/backoff, circuit breaking, server
//! shard-health tracking).
//!
//! Determinism is a design requirement across this repo: the paper's
//! experiments replay provider/client interactions and assert on exactly
//! what happened, so anything time-dependent takes its notion of time from
//! a [`Clock`] instead of calling [`std::thread::sleep`] or
//! [`std::time::Instant`] directly.  Production code runs on the
//! [`SystemClock`]; tests inject a [`VirtualClock`] whose time advances
//! only when something *sleeps* on it — a scripted multi-retry,
//! breaker-cool-down, shard-quarantine scenario runs in microseconds of
//! wall-clock time.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A source of (blocking) time.
///
/// Two capabilities, kept deliberately minimal:
///
/// * [`Clock::sleep`] blocks the calling thread (or records the request,
///   for virtual clocks);
/// * [`Clock::now`] reads a monotonic elapsed-time counter measured from
///   an arbitrary process-local epoch — only *differences* between two
///   readings are meaningful.
///
/// On a [`VirtualClock`] the two are coupled: `now()` is the total time
/// slept so far, which is what makes cool-down and quarantine periods
/// testable without wall-clock waits (a recorded sleep advances time).
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Blocks the calling thread for `duration` (or records it, for
    /// virtual clocks).
    fn sleep(&self, duration: Duration);

    /// Monotonic elapsed time since an arbitrary fixed epoch.
    ///
    /// The default implementation measures real time from a process-global
    /// [`Instant`] epoch, which suits any clock whose `sleep` really
    /// blocks.  Clocks that virtualize `sleep` must override `now` to
    /// match, as [`VirtualClock`] does.
    fn now(&self) -> Duration {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed()
    }
}

/// The production [`Clock`]: delegates to [`std::thread::sleep`] and real
/// monotonic time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, duration: Duration) {
        if !duration.is_zero() {
            std::thread::sleep(duration);
        }
    }
}

/// A deterministic [`Clock`] that records every requested sleep instead of
/// blocking — the injectable clock of the retry, circuit-breaker and
/// shard-health tests, and of the fleet simulation.
///
/// Virtual time advances **only** through [`Clock::sleep`]: [`Clock::now`]
/// returns the total slept so far, so "wait out the cool-down" is spelled
/// `clock.sleep(cool_down)` and costs no wall-clock time.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use sb_protocol::{Clock, VirtualClock};
///
/// let clock = VirtualClock::new();
/// clock.sleep(Duration::from_secs(5));
/// clock.sleep(Duration::ZERO);
/// assert_eq!(clock.total_slept(), Duration::from_secs(5));
/// assert_eq!(clock.now(), Duration::from_secs(5));
/// assert_eq!(clock.sleeps().len(), 2); // zero-length sleeps are recorded too
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    sleeps: Mutex<Vec<Duration>>,
}

impl VirtualClock {
    /// Creates a virtual clock with an empty sleep log.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Every sleep requested so far, in order (including zero-length ones).
    pub fn sleeps(&self) -> Vec<Duration> {
        self.lock().clone()
    }

    /// Total virtual time slept.
    pub fn total_slept(&self) -> Duration {
        self.lock().iter().sum()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Duration>> {
        self.sleeps.lock().expect("virtual clock lock poisoned")
    }
}

impl Clock for VirtualClock {
    fn sleep(&self, duration: Duration) {
        self.lock().push(duration);
    }

    fn now(&self) -> Duration {
        self.total_slept()
    }
}

/// Shared clocks are clocks (a test keeps one handle, the transport the
/// other).
impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn sleep(&self, duration: Duration) {
        (**self).sleep(duration);
    }

    fn now(&self) -> Duration {
        (**self).now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_now_is_monotonic() {
        let clock = SystemClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_now_advances_only_by_sleeping() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        clock.sleep(Duration::from_millis(750));
        assert_eq!(clock.now(), Duration::from_secs(1));
    }

    #[test]
    fn arc_clock_forwards_both_capabilities() {
        let clock = Arc::new(VirtualClock::new());
        let shared: Arc<dyn Clock> = clock.clone();
        shared.sleep(Duration::from_secs(2));
        // The Arc wrapper must not fall back to the system-time default.
        assert_eq!(shared.now(), Duration::from_secs(2));
        assert_eq!(clock.total_slept(), Duration::from_secs(2));
    }
}
