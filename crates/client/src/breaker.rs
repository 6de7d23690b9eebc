//! A circuit breaker as a [`Transport`] decorator.
//!
//! A retry layer makes one exchange resilient; a circuit breaker protects
//! everything *else* from an endpoint that is down hard.  Once enough
//! consecutive retryable failures accumulate, [`CircuitBreakerTransport`]
//! **opens**: further calls fail fast with a retryable
//! [`ServiceError::Unavailable`] without touching the wire, so lookup
//! threads stop queueing on a dead socket and the provider gets room to
//! recover.  After a cool-down, one **half-open** probe is let through: if
//! it succeeds the breaker closes, if it fails the breaker re-opens for
//! another cool-down.
//!
//! The state machine is deterministic over the injectable
//! [`Clock`](sb_protocol::Clock) — under a
//! [`VirtualClock`](sb_protocol::VirtualClock) the cool-down elapses by
//! *sleeping on the shared clock*, so breaker scenarios run without any
//! wall-clock waiting.  Composition with [`RetryingTransport`] works in
//! both orders:
//!
//! * `Retrying(Breaker(Tcp))` — retry delays (on the same shared clock)
//!   advance the breaker's cool-down, so a retry loop rides through an
//!   open-then-recovered breaker;
//! * `Breaker(Retrying(Tcp))` — the breaker counts whole exchanges that
//!   failed even after retrying, opening only for sustained outages.
//!
//! Non-retryable errors pass through **without** counting as failures:
//! a deterministic protocol rejection proves the endpoint is alive and
//! answering, which is the opposite of an outage.
//!
//! [`RetryingTransport`]: crate::RetryingTransport

use std::sync::Mutex;
use std::time::Duration;

use sb_protocol::{
    Clock, DeadlineBudget, FullHashRequest, FullHashResponse, ServiceError, SystemClock,
    UpdateRequest, UpdateResponse,
};
use sb_telemetry::{Counter, Telemetry, TraceKind};

use crate::transport::Transport;

/// Tuning knobs of a [`CircuitBreakerTransport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive retryable failures that open the breaker (minimum 1).
    pub failure_threshold: u32,
    /// How long the breaker stays open before letting a half-open probe
    /// through.
    pub cool_down: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            cool_down: Duration::from_secs(30),
        }
    }
}

impl BreakerPolicy {
    /// Sets the consecutive-failure threshold (clamped to at least 1).
    pub fn with_failure_threshold(mut self, failure_threshold: u32) -> Self {
        self.failure_threshold = failure_threshold.max(1);
        self
    }

    /// Sets the open-state cool-down.
    pub fn with_cool_down(mut self, cool_down: Duration) -> Self {
        self.cool_down = cool_down;
        self
    }
}

/// The observable state of a [`CircuitBreakerTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow to the inner transport; failures are being counted.
    Closed,
    /// Calls fail fast until the cool-down elapses.
    Open,
    /// One probe call is in flight; its outcome decides open vs. closed.
    HalfOpen,
}

/// Counters accumulated by a [`CircuitBreakerTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Exchanges requested by the caller.
    pub calls: usize,
    /// Exchanges that reached the inner transport.
    pub inner_calls: usize,
    /// Exchanges failed fast because the breaker was open (or a half-open
    /// probe was already in flight).
    pub fast_failures: usize,
    /// Closed→open and half-open→open transitions.
    pub opens: usize,
    /// Half-open→closed transitions (a probe succeeded).
    pub closes: usize,
    /// Open→half-open transitions (a probe was admitted).
    pub half_open_probes: usize,
}

#[derive(Debug)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { since: Duration },
    HalfOpen,
}

/// The `value` a [`TraceKind::BreakerTransition`] event carries for each
/// state entered.
fn state_code(state: &State) -> u64 {
    match state {
        State::Closed { .. } => 0,
        State::Open { .. } => 1,
        State::HalfOpen => 2,
    }
}

/// Registry handles backing [`BreakerStats`]; registered once at
/// construction, bumped with relaxed atomic adds.
#[derive(Debug, Clone)]
struct BreakerHandles {
    calls: Counter,
    inner_calls: Counter,
    fast_failures: Counter,
    opens: Counter,
    closes: Counter,
    half_open_probes: Counter,
}

impl BreakerHandles {
    fn register(telemetry: &Telemetry) -> Self {
        let metrics = telemetry.metrics();
        BreakerHandles {
            calls: metrics.counter("breaker.calls"),
            inner_calls: metrics.counter("breaker.inner_calls"),
            fast_failures: metrics.counter("breaker.fast_failures"),
            opens: metrics.counter("breaker.opens"),
            closes: metrics.counter("breaker.closes"),
            half_open_probes: metrics.counter("breaker.half_open_probes"),
        }
    }

    fn view(&self) -> BreakerStats {
        BreakerStats {
            calls: self.calls.get() as usize,
            inner_calls: self.inner_calls.get() as usize,
            fast_failures: self.fast_failures.get() as usize,
            opens: self.opens.get() as usize,
            closes: self.closes.get() as usize,
            half_open_probes: self.half_open_probes.get() as usize,
        }
    }
}

/// A closed/open/half-open circuit breaker around any [`Transport`]; see
/// the module-level docs for the state machine and composition rules.
///
/// # Examples
///
/// Deterministic open → half-open → closed cycle on a virtual clock:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use sb_client::{
///     BreakerPolicy, BreakerState, CircuitBreakerTransport, InProcessTransport,
///     SimulatedTransport, Transport,
/// };
/// use sb_protocol::{Clock, Provider, ServiceError, UpdateRequest, VirtualClock};
/// use sb_server::SafeBrowsingServer;
///
/// let server = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
/// let flaky = SimulatedTransport::new(InProcessTransport::new(server));
/// flaky.push_update_fault(ServiceError::Unavailable { reason: "down".into() });
/// flaky.push_update_fault(ServiceError::Unavailable { reason: "down".into() });
///
/// let clock = Arc::new(VirtualClock::new());
/// let breaker = CircuitBreakerTransport::with_clock(
///     flaky,
///     BreakerPolicy::default()
///         .with_failure_threshold(2)
///         .with_cool_down(Duration::from_secs(10)),
///     clock.clone(),
/// );
///
/// // Two consecutive failures open the breaker; the third call fails fast.
/// assert!(breaker.update(&UpdateRequest::default()).is_err());
/// assert!(breaker.update(&UpdateRequest::default()).is_err());
/// assert_eq!(breaker.state(), BreakerState::Open);
/// assert!(breaker.update(&UpdateRequest::default()).is_err());
/// assert_eq!(breaker.stats().fast_failures, 1);
///
/// // The cool-down elapses on the shared clock; the probe closes it.
/// clock.sleep(Duration::from_secs(10));
/// assert!(breaker.update(&UpdateRequest::default()).is_ok());
/// assert_eq!(breaker.state(), BreakerState::Closed);
/// assert_eq!(breaker.stats().closes, 1);
/// ```
#[derive(Debug)]
pub struct CircuitBreakerTransport<T> {
    inner: T,
    policy: BreakerPolicy,
    clock: Box<dyn Clock>,
    telemetry: Telemetry,
    handles: BreakerHandles,
    state: Mutex<State>,
}

impl<T: Transport> CircuitBreakerTransport<T> {
    /// Decorates `inner` with `policy` on the real [`SystemClock`].
    pub fn new(inner: T, policy: BreakerPolicy) -> Self {
        Self::with_clock(inner, policy, SystemClock)
    }

    /// Decorates `inner` with `policy` and an injected [`Clock`] — the
    /// deterministic-test constructor.
    pub fn with_clock(inner: T, policy: BreakerPolicy, clock: impl Clock + 'static) -> Self {
        let telemetry = Telemetry::new();
        let handles = BreakerHandles::register(&telemetry);
        CircuitBreakerTransport {
            inner,
            policy,
            clock: Box::new(clock),
            telemetry,
            handles,
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
        }
    }

    /// Publishes this breaker's `breaker.*` counters and
    /// [`TraceKind::BreakerTransition`] events into `telemetry` instead of
    /// the private default plane.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.handles = BreakerHandles::register(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The telemetry plane this breaker publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &BreakerPolicy {
        &self.policy
    }

    /// The counters accumulated so far — a view over the `breaker.*`
    /// metrics in the telemetry registry.
    pub fn stats(&self) -> BreakerStats {
        self.handles.view()
    }

    /// The breaker's current state.
    pub fn state(&self) -> BreakerState {
        match *self.lock() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen => BreakerState::HalfOpen,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("circuit breaker lock poisoned")
    }

    /// Moves to `next` and records the transition event.
    fn transition(&self, state: &mut State, next: State) {
        self.telemetry
            .event(TraceKind::BreakerTransition, state_code(&next));
        *state = next;
    }

    /// Gate for one exchange.  `Ok(is_probe)` admits the call; `Err` is
    /// the fail-fast rejection.
    fn admit(&self) -> Result<bool, ServiceError> {
        let mut state = self.lock();
        self.handles.calls.inc();
        let admitted = match *state {
            State::Closed { .. } => Ok(false),
            State::HalfOpen => {
                // A probe is already in flight; its outcome decides.
                Err(Duration::ZERO)
            }
            State::Open { since } => {
                let waited = self.clock.now().saturating_sub(since);
                if waited >= self.policy.cool_down {
                    self.transition(&mut state, State::HalfOpen);
                    self.handles.half_open_probes.inc();
                    Ok(true)
                } else {
                    Err(self.policy.cool_down - waited)
                }
            }
        };
        match admitted {
            Ok(is_probe) => {
                self.handles.inner_calls.inc();
                Ok(is_probe)
            }
            Err(remaining) => {
                self.handles.fast_failures.inc();
                Err(ServiceError::Unavailable {
                    reason: format!("circuit breaker open (fail-fast; probe in {remaining:?})"),
                })
            }
        }
    }

    /// Records the outcome of an admitted exchange.
    fn settle(&self, was_probe: bool, retryable_failure: bool) {
        let mut state = self.lock();
        if retryable_failure {
            if was_probe {
                // The probe failed: back to open for another cool-down.
                self.transition(
                    &mut state,
                    State::Open {
                        since: self.clock.now(),
                    },
                );
                self.handles.opens.inc();
            } else if let State::Closed {
                consecutive_failures,
            } = &mut *state
            {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.policy.failure_threshold {
                    self.transition(
                        &mut state,
                        State::Open {
                            since: self.clock.now(),
                        },
                    );
                    self.handles.opens.inc();
                }
            }
            // A concurrent transition already moved the state: leave it.
        } else if was_probe {
            self.transition(
                &mut state,
                State::Closed {
                    consecutive_failures: 0,
                },
            );
            self.handles.closes.inc();
        } else if let State::Closed {
            consecutive_failures,
        } = &mut *state
        {
            *consecutive_failures = 0;
        }
    }

    /// The admit/call/settle cycle shared by both exchanges.
    fn run<R>(&self, call: impl FnOnce() -> Result<R, ServiceError>) -> Result<R, ServiceError> {
        let was_probe = self.admit()?;
        let result = call();
        // Only retryable failures are outages; a deterministic rejection
        // (malformed request, unknown list) proves the endpoint answers.
        let retryable_failure = matches!(&result, Err(error) if error.is_retryable());
        self.settle(was_probe, retryable_failure);
        result
    }
}

impl<T: Transport> Transport for CircuitBreakerTransport<T> {
    fn update_within(
        &self,
        request: &UpdateRequest,
        budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError> {
        self.run(|| self.inner.update_within(request, budget))
    }

    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.run(|| self.inner.full_hashes_batch_within(requests, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcessTransport, SimulatedTransport, Transport};
    use sb_hash::prefix32;
    use sb_protocol::{Provider, VirtualClock};
    use sb_server::SafeBrowsingServer;
    use std::sync::Arc;

    fn harness(
        policy: BreakerPolicy,
    ) -> (
        Arc<VirtualClock>,
        Arc<SimulatedTransport>,
        CircuitBreakerTransport<Arc<SimulatedTransport>>,
    ) {
        let server = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
        let flaky = Arc::new(SimulatedTransport::new(InProcessTransport::new(server)));
        let clock = Arc::new(VirtualClock::new());
        let breaker = CircuitBreakerTransport::with_clock(flaky.clone(), policy, clock.clone());
        (clock, flaky, breaker)
    }

    fn unavailable() -> ServiceError {
        ServiceError::Unavailable {
            reason: "down".into(),
        }
    }

    fn lookup(breaker: &impl Transport) -> Result<FullHashResponse, ServiceError> {
        breaker.full_hashes(&FullHashRequest::new(vec![prefix32("a.example/")]))
    }

    #[test]
    fn stays_closed_below_the_threshold() {
        let policy = BreakerPolicy::default().with_failure_threshold(3);
        let (_clock, flaky, breaker) = harness(policy);
        // Two failures, then a success: the failure streak resets.
        flaky.push_full_hash_fault(unavailable());
        flaky.push_full_hash_fault(unavailable());
        assert!(lookup(&breaker).is_err());
        assert!(lookup(&breaker).is_err());
        assert!(lookup(&breaker).is_ok());
        // Two more failures still do not reach the threshold.
        flaky.push_full_hash_fault(unavailable());
        flaky.push_full_hash_fault(unavailable());
        assert!(lookup(&breaker).is_err());
        assert!(lookup(&breaker).is_err());
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.stats().opens, 0);
        assert_eq!(breaker.stats().fast_failures, 0);
    }

    #[test]
    fn opens_after_consecutive_failures_and_fails_fast() {
        let policy = BreakerPolicy::default().with_failure_threshold(2);
        let (_clock, flaky, breaker) = harness(policy);
        flaky.push_full_hash_fault(unavailable());
        flaky.push_full_hash_fault(unavailable());
        assert!(lookup(&breaker).is_err());
        assert!(lookup(&breaker).is_err());
        assert_eq!(breaker.state(), BreakerState::Open);

        // While open: fail fast, nothing reaches the inner transport.
        let calls_before = flaky.stats().full_hash_calls;
        let err = lookup(&breaker).unwrap_err();
        assert!(err.is_retryable(), "fail-fast must stay retryable");
        assert_eq!(flaky.stats().full_hash_calls, calls_before);
        assert_eq!(breaker.stats().fast_failures, 1);
        assert_eq!(breaker.stats().opens, 1);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let policy = BreakerPolicy::default()
            .with_failure_threshold(1)
            .with_cool_down(Duration::from_secs(60));
        let (clock, flaky, breaker) = harness(policy);
        flaky.push_full_hash_fault(unavailable());
        assert!(lookup(&breaker).is_err());
        assert_eq!(breaker.state(), BreakerState::Open);

        // Not yet: the cool-down has not elapsed.
        clock.sleep(Duration::from_secs(59));
        assert!(lookup(&breaker).is_err());
        assert_eq!(breaker.stats().half_open_probes, 0);

        // Cool-down over: the probe goes through and closes the breaker.
        clock.sleep(Duration::from_secs(1));
        assert!(lookup(&breaker).is_ok());
        assert_eq!(breaker.state(), BreakerState::Closed);
        let stats = breaker.stats();
        assert_eq!(stats.half_open_probes, 1);
        assert_eq!(stats.closes, 1);
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let policy = BreakerPolicy::default()
            .with_failure_threshold(1)
            .with_cool_down(Duration::from_secs(10));
        let (clock, flaky, breaker) = harness(policy);
        flaky.push_full_hash_fault(unavailable());
        assert!(lookup(&breaker).is_err());

        clock.sleep(Duration::from_secs(10));
        flaky.push_full_hash_fault(unavailable());
        assert!(lookup(&breaker).is_err()); // the probe itself fails
        assert_eq!(breaker.state(), BreakerState::Open);
        let stats = breaker.stats();
        assert_eq!(stats.half_open_probes, 1);
        assert_eq!(stats.opens, 2, "initial open + probe-failure re-open");
        assert_eq!(stats.closes, 0);

        // The re-open starts a fresh cool-down.
        clock.sleep(Duration::from_secs(10));
        assert!(lookup(&breaker).is_ok());
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn non_retryable_errors_do_not_count_as_failures() {
        let policy = BreakerPolicy::default().with_failure_threshold(1);
        let (_clock, _flaky, breaker) = harness(policy);
        // An empty full-hash request is rejected deterministically by the
        // provider — proof the endpoint is alive, not an outage.
        let err = breaker
            .full_hashes_batch(&[FullHashRequest::new(Vec::new())])
            .unwrap_err();
        assert!(!err.is_retryable());
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.stats().opens, 0);
    }

    #[test]
    fn composes_under_a_retrying_transport() {
        use crate::retry::{RetryPolicy, RetryingTransport};

        // Retrying(Breaker(flaky)): the retry delays run on the same
        // virtual clock, so they advance the breaker's cool-down and the
        // exchange rides through an open-then-recovered breaker.
        let server = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
        let flaky = Arc::new(SimulatedTransport::new(InProcessTransport::new(server)));
        flaky.push_full_hash_fault(unavailable());
        flaky.push_full_hash_fault(unavailable());
        let clock = Arc::new(VirtualClock::new());
        let breaker = CircuitBreakerTransport::with_clock(
            flaky.clone(),
            BreakerPolicy::default()
                .with_failure_threshold(2)
                .with_cool_down(Duration::from_millis(200)),
            clock.clone(),
        );
        let retrying = RetryingTransport::with_clock(
            breaker,
            RetryPolicy::default()
                .with_max_attempts(6)
                .with_base_delay(Duration::from_millis(500)),
            clock.clone(),
        );
        // Attempts 1–2 fail and open the breaker; the 500 ms-scale retry
        // delay outlasts the 200 ms cool-down, so a later attempt probes
        // and succeeds.
        assert!(lookup(&retrying).is_ok());
        let stats = retrying.inner().stats();
        assert_eq!(stats.opens, 1);
        assert_eq!(stats.closes, 1);
        assert_eq!(retrying.inner().state(), BreakerState::Closed);
    }
}
