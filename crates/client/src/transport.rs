//! The client↔provider transport layer.
//!
//! A [`SafeBrowsingClient`](crate::SafeBrowsingClient) owns a boxed
//! [`Transport`] handle instead of borrowing a provider on every call.  The
//! transport carries the two protocol exchanges of the v3 API (updates and
//! batched full-hash resolution) and is where failure, latency and — in
//! later iterations — sharding and asynchrony live, without the client or
//! the analysis code changing shape:
//!
//! * [`InProcessTransport`] wraps any shared [`SafeBrowsingService`]
//!   implementation (typically an `Arc<SafeBrowsingServer>`) with no
//!   overhead — the configuration used by the reproduction experiments;
//! * [`SimulatedTransport`] decorates another transport with deterministic
//!   fault injection (scripted errors, every-Nth failures) and optional
//!   accounted per-round-trip latency, for the failure-mode scenarios.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_protocol::{
    DeadlineBudget, FullHashRequest, FullHashResponse, SafeBrowsingService, ServiceError,
    UpdateRequest, UpdateResponse,
};

/// A handle to a Safe Browsing provider.
///
/// The contract mirrors [`SafeBrowsingService`]: batched full-hash calls
/// return one response per request, in request order, and an empty batch is
/// a no-op.  Implementations must be usable from multiple client threads
/// (`Send + Sync`) and printable for diagnostics (`Debug`).
///
/// # Implementing
///
/// Implement [`Self::update_within`] and [`Self::full_hashes_batch_within`]
/// — the two protocol exchanges, each under the caller's
/// [`DeadlineBudget`] — and nothing else.  A decorator passes the budget it
/// was given to the transport it wraps; a leaf that cannot time out (an
/// in-process call) may ignore it.  [`Self::update`],
/// [`Self::full_hashes_batch`] and [`Self::full_hashes`] are conveniences
/// for callers with no deadline: they pass
/// [`DeadlineBudget::unbounded`].  There is no budget-less exchange to
/// implement, so a decorator cannot forget to forward the deadline — it
/// would have nothing to call.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Performs a database-update round trip under an end-to-end
    /// [`DeadlineBudget`].
    ///
    /// Budget-aware transports (the retry layer, the TCP transport) charge
    /// the time they consume against the budget and refuse to start work
    /// once it is exhausted.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] from the provider or the path to it; a
    /// retryable [`ServiceError::Unavailable`] when the budget is already
    /// spent (for budget-aware implementations).
    fn update_within(
        &self,
        request: &UpdateRequest,
        budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError>;

    /// Performs one full-hash round trip carrying a batch of requests
    /// under an end-to-end [`DeadlineBudget`]; see [`Self::update_within`]
    /// for the budget contract.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] from the provider or the path to it, plus
    /// budget exhaustion for budget-aware implementations.
    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError>;

    /// [`Self::update_within`] for a caller with no deadline.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] from the provider or the path to it.
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        self.update_within(request, &DeadlineBudget::unbounded())
    }

    /// [`Self::full_hashes_batch_within`] for a caller with no deadline.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] from the provider or the path to it.
    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.full_hashes_batch_within(requests, &DeadlineBudget::unbounded())
    }

    /// Performs a single-request full-hash round trip with no deadline.
    ///
    /// # Errors
    ///
    /// Propagates batch errors; the non-retryable error of
    /// [`sb_protocol::expect_single_response`] if the provider miscounts
    /// the batch.
    fn full_hashes(&self, request: &FullHashRequest) -> Result<FullHashResponse, ServiceError> {
        sb_protocol::expect_single_response(self.full_hashes_batch(std::slice::from_ref(request))?)
    }
}

/// Shared transports are transports: cloning the `Arc` lets a test or
/// experiment keep a handle (to script faults, read stats) while the client
/// owns the other.
impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn update_within(
        &self,
        request: &UpdateRequest,
        budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError> {
        (**self).update_within(request, budget)
    }

    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        (**self).full_hashes_batch_within(requests, budget)
    }
}

/// An in-process transport: direct calls into a shared
/// [`SafeBrowsingService`] implementation.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sb_client::InProcessTransport;
/// use sb_protocol::Provider;
/// use sb_server::SafeBrowsingServer;
///
/// let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
/// let transport = InProcessTransport::new(server.clone());
/// ```
#[derive(Debug)]
pub struct InProcessTransport<S> {
    service: Arc<S>,
}

impl<S> InProcessTransport<S> {
    /// Wraps a shared service.
    pub fn new(service: Arc<S>) -> Self {
        InProcessTransport { service }
    }
}

impl<S> Clone for InProcessTransport<S> {
    fn clone(&self) -> Self {
        InProcessTransport {
            service: Arc::clone(&self.service),
        }
    }
}

impl<S> Transport for InProcessTransport<S>
where
    S: SafeBrowsingService + Send + Sync + std::fmt::Debug,
{
    // A direct call cannot time out: the budget is neither consulted nor
    // charged.
    fn update_within(
        &self,
        request: &UpdateRequest,
        _budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError> {
        self.service.update(request)
    }

    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        _budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.service.full_hashes_batch(requests)
    }
}

/// Counters accumulated by a [`SimulatedTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Update round trips attempted (including failed ones).
    pub update_calls: usize,
    /// Full-hash round trips attempted (including failed ones).
    pub full_hash_calls: usize,
    /// Individual full-hash requests carried by successful round trips.
    pub full_hash_requests_carried: usize,
    /// Errors injected by the fault plan (not forwarded to the inner
    /// transport).
    pub faults_injected: usize,
    /// Total latency simulated across all round trips.
    pub simulated_latency: Duration,
}

#[derive(Debug, Default)]
struct SimulatedState {
    /// Errors to inject on upcoming update calls, in order.
    update_faults: VecDeque<ServiceError>,
    /// Errors to inject on upcoming full-hash calls, in order.
    full_hash_faults: VecDeque<ServiceError>,
    /// When set, every Nth round trip (counting both kinds) fails.
    fail_every: Option<(usize, ServiceError)>,
    round_trips: usize,
    stats: TransportStats,
}

/// A fault- and latency-injecting decorator around another [`Transport`].
///
/// Failures are deterministic: either scripted per-call (push an error, the
/// next call of that kind returns it) or periodic (every Nth round trip
/// fails).  Latency is accounted per round trip (nothing sleeps) — batched
/// lookups therefore pay it once where per-URL lookups pay it per request,
/// which is exactly the effect the batched client API exists to exploit.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sb_client::{InProcessTransport, SimulatedTransport, Transport};
/// use sb_protocol::{Provider, ServiceError, UpdateRequest};
/// use sb_server::SafeBrowsingServer;
///
/// let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
/// let flaky = SimulatedTransport::new(InProcessTransport::new(server));
/// flaky.push_update_fault(ServiceError::Backoff { retry_after_seconds: 60 });
///
/// assert!(flaky.update(&UpdateRequest::default()).is_err());
/// assert!(flaky.update(&UpdateRequest::default()).is_ok());
/// ```
#[derive(Debug)]
pub struct SimulatedTransport {
    inner: Box<dyn Transport>,
    latency_per_round_trip: Duration,
    state: Mutex<SimulatedState>,
}

impl SimulatedTransport {
    /// Decorates `inner` with no faults and no latency.
    pub fn new(inner: impl Transport + 'static) -> Self {
        SimulatedTransport {
            inner: Box::new(inner),
            latency_per_round_trip: Duration::ZERO,
            state: Mutex::new(SimulatedState::default()),
        }
    }

    /// Sets a simulated latency per round trip, accounted in
    /// [`TransportStats::simulated_latency`].
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency_per_round_trip = latency;
        self
    }

    /// Scripts `error` for the next update round trip (FIFO when called
    /// repeatedly).
    pub fn push_update_fault(&self, error: ServiceError) {
        self.state().update_faults.push_back(error);
    }

    /// Scripts `error` for the next full-hash round trip (FIFO).
    pub fn push_full_hash_fault(&self, error: ServiceError) {
        self.state().full_hash_faults.push_back(error);
    }

    /// Makes every `n`-th round trip (of either kind) fail with `error`.
    /// `n = 0` disables periodic failures.
    pub fn fail_every(&self, n: usize, error: ServiceError) {
        self.state().fail_every = if n == 0 { None } else { Some((n, error)) };
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> TransportStats {
        self.state().stats
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SimulatedState> {
        self.state
            .lock()
            .expect("simulated transport lock poisoned")
    }

    /// Accounts one round trip and runs the fault plan.  `count_and_pop`
    /// bumps the exchange's own call counter and pops its next scripted
    /// fault.  `Err` is the injected fault (scripted first, then
    /// periodic), `Ok(())` means the call may proceed to the inner
    /// transport.
    fn preamble(
        &self,
        count_and_pop: impl FnOnce(&mut SimulatedState) -> Option<ServiceError>,
    ) -> Result<(), ServiceError> {
        let mut state = self.state();
        state.round_trips += 1;
        state.stats.simulated_latency += self.latency_per_round_trip;
        let fault = count_and_pop(&mut state).or_else(|| match &state.fail_every {
            Some((n, error)) if state.round_trips.is_multiple_of(*n) => Some(error.clone()),
            _ => None,
        });
        match fault {
            Some(error) => {
                state.stats.faults_injected += 1;
                Err(error)
            }
            None => Ok(()),
        }
    }
}

// A decorator forwards the budget; injected faults and simulated latency do
// not charge it (they model the *provider's* behaviour, not time this
// process spent).
impl Transport for SimulatedTransport {
    fn update_within(
        &self,
        request: &UpdateRequest,
        budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError> {
        self.preamble(|state| {
            state.stats.update_calls += 1;
            state.update_faults.pop_front()
        })?;
        self.inner.update_within(request, budget)
    }

    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.preamble(|state| {
            state.stats.full_hash_calls += 1;
            state.full_hash_faults.pop_front()
        })?;
        let responses = self.inner.full_hashes_batch_within(requests, budget)?;
        self.state().stats.full_hash_requests_carried += requests.len();
        Ok(responses)
    }
}

/// Adapts any [`Transport`] into a [`SafeBrowsingService`], closing the
/// loop between the two traits: a service can already be used as a
/// transport (via [`InProcessTransport`]), and with this wrapper a
/// transport can stand in anywhere a provider is expected.
///
/// The main use is building provider *fleets*: a
/// `sb_server::ShardedProvider` shard handle is a service, so wrapping a
/// [`SimulatedTransport`] in `TransportService` is how the fleet tests
/// script per-shard outages.  Keep a clone of the
/// inner `Arc` to drive the fault plan:
///
/// ```
/// use std::sync::Arc;
/// use sb_client::{InProcessTransport, SimulatedTransport, TransportService};
/// use sb_protocol::{Provider, SafeBrowsingService, UpdateRequest};
/// use sb_server::SafeBrowsingServer;
///
/// let server = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
/// let shard = Arc::new(SimulatedTransport::new(InProcessTransport::new(server)));
/// let service = TransportService::new(shard.clone());
/// assert!(service.update(&UpdateRequest::default()).is_ok());
/// assert_eq!(shard.stats().update_calls, 1);
/// ```
#[derive(Debug)]
pub struct TransportService<T>(T);

impl<T: Transport> TransportService<T> {
    /// Wraps a transport.
    pub fn new(transport: T) -> Self {
        TransportService(transport)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.0
    }
}

impl<T: Transport> SafeBrowsingService for TransportService<T> {
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        self.0.update(request)
    }

    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.0.full_hashes_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_hash::prefix32;
    use sb_protocol::{Provider, ThreatCategory};
    use sb_server::SafeBrowsingServer;

    fn in_process() -> (
        Arc<SafeBrowsingServer>,
        InProcessTransport<SafeBrowsingServer>,
    ) {
        let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
        server.create_list("goog-malware-shavar", ThreatCategory::Malware);
        let transport = InProcessTransport::new(server.clone());
        (server, transport)
    }

    /// A leaf that records the budget each exchange arrived with and
    /// charges it, so the caller can tell its own budget reached the leaf.
    #[derive(Debug, Default)]
    struct RecordingLeaf {
        totals_seen: Mutex<Vec<Duration>>,
    }

    const LEAF_CHARGE: Duration = Duration::from_millis(7);

    impl RecordingLeaf {
        fn note(&self, budget: &DeadlineBudget) {
            self.totals_seen.lock().unwrap().push(budget.total());
            budget.charge(LEAF_CHARGE);
        }
    }

    impl Transport for RecordingLeaf {
        fn update_within(
            &self,
            _: &UpdateRequest,
            budget: &DeadlineBudget,
        ) -> Result<UpdateResponse, ServiceError> {
            self.note(budget);
            Ok(UpdateResponse::default())
        }

        fn full_hashes_batch_within(
            &self,
            requests: &[FullHashRequest],
            budget: &DeadlineBudget,
        ) -> Result<Vec<FullHashResponse>, ServiceError> {
            self.note(budget);
            Ok(vec![FullHashResponse::default(); requests.len()])
        }
    }

    #[test]
    fn every_decorator_hands_the_callers_budget_to_the_leaf() {
        use crate::{BreakerPolicy, CircuitBreakerTransport, RetryPolicy, RetryingTransport};

        type Wrap = fn(Arc<RecordingLeaf>) -> Box<dyn Transport>;
        let decorators: [(&str, Wrap); 5] = [
            ("Arc", |leaf| Box::new(leaf)),
            ("SimulatedTransport", |leaf| {
                Box::new(SimulatedTransport::new(leaf))
            }),
            ("CircuitBreakerTransport", |leaf| {
                Box::new(CircuitBreakerTransport::new(leaf, BreakerPolicy::default()))
            }),
            ("RetryingTransport", |leaf| {
                Box::new(RetryingTransport::new(leaf, RetryPolicy::default()))
            }),
            ("all four stacked", |leaf| {
                Box::new(Arc::new(RetryingTransport::new(
                    CircuitBreakerTransport::new(
                        SimulatedTransport::new(leaf),
                        BreakerPolicy::default(),
                    ),
                    RetryPolicy::default(),
                )))
            }),
        ];
        let total = Duration::from_millis(1234);
        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        for (name, wrap) in decorators {
            let leaf = Arc::new(RecordingLeaf::default());
            let transport = wrap(leaf.clone());

            let budget = DeadlineBudget::new(total);
            transport
                .update_within(&UpdateRequest::default(), &budget)
                .unwrap();
            assert_eq!(budget.spent(), LEAF_CHARGE, "{name}: update");
            transport
                .full_hashes_batch_within(std::slice::from_ref(&request), &budget)
                .unwrap();
            assert_eq!(budget.spent(), 2 * LEAF_CHARGE, "{name}: full hashes");

            // The budget-less conveniences arrive as the unbounded budget.
            transport.update(&UpdateRequest::default()).unwrap();
            transport.full_hashes(&request).unwrap();
            assert_eq!(
                *leaf.totals_seen.lock().unwrap(),
                [total, total, Duration::MAX, Duration::MAX],
                "{name}"
            );
        }
    }

    #[test]
    fn in_process_transport_forwards_both_exchanges() {
        let (server, transport) = in_process();
        let digest = server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();

        let update = transport.update(&UpdateRequest::default()).unwrap();
        assert!(update.chunks.is_empty());

        let response = transport
            .full_hashes(&FullHashRequest::new(vec![digest.prefix32()]))
            .unwrap();
        assert!(response.contains_digest(&digest));
        assert_eq!(server.query_log().len(), 1);
    }

    #[test]
    fn scripted_faults_fire_once_in_order() {
        let (_server, inner) = in_process();
        let transport = SimulatedTransport::new(inner);
        transport.push_full_hash_fault(ServiceError::Unavailable {
            reason: "first".into(),
        });
        transport.push_full_hash_fault(ServiceError::Backoff {
            retry_after_seconds: 5,
        });

        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        assert_eq!(
            transport.full_hashes(&request).unwrap_err(),
            ServiceError::Unavailable {
                reason: "first".into()
            }
        );
        assert_eq!(
            transport.full_hashes(&request).unwrap_err(),
            ServiceError::Backoff {
                retry_after_seconds: 5
            }
        );
        assert!(transport.full_hashes(&request).is_ok());
        assert_eq!(transport.stats().faults_injected, 2);
        assert_eq!(transport.stats().full_hash_calls, 3);
    }

    #[test]
    fn periodic_faults_hit_every_nth_round_trip() {
        let (_server, inner) = in_process();
        let transport = SimulatedTransport::new(inner);
        transport.fail_every(
            3,
            ServiceError::Unavailable {
                reason: "periodic".into(),
            },
        );
        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        let outcomes: Vec<bool> = (0..6)
            .map(|_| transport.full_hashes(&request).is_ok())
            .collect();
        assert_eq!(outcomes, vec![true, true, false, true, true, false]);
    }

    #[test]
    fn injected_faults_never_reach_the_provider() {
        let (server, inner) = in_process();
        let transport = SimulatedTransport::new(inner);
        transport.push_full_hash_fault(ServiceError::Unavailable {
            reason: "offline".into(),
        });
        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        assert!(transport.full_hashes(&request).is_err());
        assert!(server.query_log().is_empty());
    }

    #[test]
    fn latency_is_accounted_per_round_trip() {
        let (_server, inner) = in_process();
        let transport = SimulatedTransport::new(inner).with_latency(Duration::from_millis(40));
        let requests: Vec<FullHashRequest> = (0..8)
            .map(|i| FullHashRequest::new(vec![prefix32(&format!("h{i}.example/"))]))
            .collect();
        // One batched round trip: 8 requests, 40 ms simulated.
        transport.full_hashes_batch(&requests).unwrap();
        assert_eq!(
            transport.stats().simulated_latency,
            Duration::from_millis(40)
        );
        assert_eq!(transport.stats().full_hash_requests_carried, 8);
        // Eight sequential round trips: 8 × 40 ms.
        for request in &requests {
            transport.full_hashes(request).unwrap();
        }
        assert_eq!(
            transport.stats().simulated_latency,
            Duration::from_millis(40 * 9)
        );
    }

    #[test]
    fn update_faults_and_batch_forwarding() {
        let (server, inner) = in_process();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let transport = SimulatedTransport::new(inner);
        transport.push_update_fault(ServiceError::Backoff {
            retry_after_seconds: 1800,
        });
        let request = UpdateRequest {
            lists: vec![("goog-malware-shavar".into(), Default::default())],
        };
        assert!(transport.update(&request).unwrap_err().is_retryable());
        let response = transport.update(&request).unwrap();
        assert_eq!(response.chunks.len(), 1);
        assert_eq!(transport.stats().update_calls, 2);
    }
}
