//! Chaos tests of the network tier: the full client stack — retry policy,
//! circuit breaker, pooled TCP transport — driven through a
//! fault-injecting `ChaosProxy` in front of a real `TcpServingTier`, with
//! connection resets, byte corruption, blackholes, stalls and slow-drip
//! reads injected on the wire.
//!
//! Test hygiene matches `tcp_serving.rs`: every listener binds
//! `127.0.0.1:0`, retry/backoff and breaker cool-downs run on a
//! `VirtualClock` (zero wall-clock sleeps), and the only real delays are
//! the ones the proxy itself injects (kept in the low milliseconds).
//! Ephemeral-port discipline: tier and proxy both bind `:0` and hand the
//! *listening socket* (never a bare port number) to their accept threads,
//! and no test here rebinds a released port — so parallel `cargo test -q`
//! runs cannot race these tests on port assignment.  Keep it that way:
//! a fixed-port rebind belongs in `tcp_serving.rs`, guarded by its
//! `PORT_REUSE` lock and `AddrInUse` retry helper.
//! Chaos schedules are seeded or scripted, so every run injects the
//! identical fault sequence — these tests are deterministic, not "usually
//! passes".
//!
//! Stack under test (see `docs/ARCHITECTURE.md`, "Failure domains"):
//!
//! ```text
//! SafeBrowsingClient
//!   └─ RetryingTransport (VirtualClock)     budget-aware retry/backoff
//!        └─ CircuitBreakerTransport         closed/open/half-open
//!             └─ TcpTransport               pooled sb-wire round trips
//!                  ═══ ChaosProxy ═══       deterministic wire faults
//!             TcpServingTier                accept loop + worker pool
//!                  └─ SafeBrowsingServer / ShardedProvider
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use safe_browsing_privacy::client::{
    BreakerPolicy, BreakerState, CircuitBreakerTransport, ClientConfig, ClientError, RetryPolicy,
    RetryingTransport, SafeBrowsingClient, TcpTransport, Transport,
};
use safe_browsing_privacy::hash::Prefix;
use safe_browsing_privacy::protocol::{
    Clock, FullHashRequest, FullHashResponse, Provider, SafeBrowsingService, ServiceError,
    ThreatCategory, UpdateRequest, UpdateResponse, VirtualClock, MIN_IO_TIMEOUT,
};
use safe_browsing_privacy::server::{
    ChaosProxy, ChaosSchedule, Fault, HealthPolicy, SafeBrowsingServer, ShardHandle,
    ShardedProvider, TcpServingTier, TierConfig,
};

const LIST: &str = "goog-malware-shavar";

fn build_server(urls: &[String]) -> Arc<SafeBrowsingServer> {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    for url in urls {
        server.blacklist_url(LIST, url).unwrap();
    }
    server
}

fn evil_urls(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("http://evil{i}.example/payload.html"))
        .collect()
}

/// The retryable fault palette: every kind here either completes the
/// exchange (delay, slow-drip) or produces a failure the transport stack
/// classifies as retryable (reset, stall, corruption on either side,
/// blackhole), so a client with enough retry attempts must reach a
/// verdict for every URL.
fn retryable_palette() -> Vec<Fault> {
    vec![
        Fault::Delay(Duration::from_millis(2)),
        Fault::ResetMidFrame,
        Fault::Stall {
            pause: Duration::from_millis(2),
        },
        Fault::CorruptRequest,
        Fault::CorruptReply,
        Fault::Blackhole,
        Fault::SlowDrip {
            chunk: 7,
            pause: Duration::from_millis(1),
        },
    ]
}

/// The tentpole end-to-end contract: verdicts under injected wire chaos
/// match a fault-free in-process client exactly, with **zero** failed
/// lookups — the retry layer rides out every retryable fault.
#[test]
fn verdicts_survive_wire_chaos() {
    let urls = evil_urls(40);
    let server = build_server(&urls);
    let tier = TcpServingTier::bind(server.clone(), TierConfig::default()).unwrap();
    // Roughly one exchange in three draws a fault from the full palette
    // (this seed provably covers every palette entry within the exchange
    // count this test generates).
    let proxy = ChaosProxy::start(
        tier.local_addr(),
        ChaosSchedule::seeded(5, 3, retryable_palette()),
    )
    .unwrap();

    let clock = Arc::new(VirtualClock::new());
    // Plenty of attempts (consecutive faults on one exchange are expected
    // under a one-in-three schedule) and a breaker threshold high enough
    // that chaos degrades service without tripping it.
    let transport = RetryingTransport::with_clock(
        CircuitBreakerTransport::new(
            TcpTransport::new(proxy.local_addr()).unwrap(),
            BreakerPolicy::default().with_failure_threshold(1_000),
        ),
        RetryPolicy::default()
            .with_max_attempts(10)
            .with_base_delay(Duration::from_millis(100)),
        clock.clone(),
    );
    let mut chaotic = SafeBrowsingClient::new(ClientConfig::subscribed_to([LIST]), transport);
    let mut calm = SafeBrowsingClient::in_process(ClientConfig::subscribed_to([LIST]), server);
    chaotic.update().unwrap();
    calm.update().unwrap();

    let mut probes = urls;
    probes.push("http://benign.example/".to_string());
    let mut failed_lookups = 0usize;
    for url in &probes {
        match chaotic.check_url(url) {
            Ok(outcome) => assert_eq!(
                outcome.is_malicious(),
                calm.check_url(url).unwrap().is_malicious(),
                "verdict diverged under chaos for {url}"
            ),
            Err(error) => {
                failed_lookups += 1;
                eprintln!("lookup failed under chaos: {url}: {error:?}");
            }
        }
    }
    assert_eq!(
        failed_lookups, 0,
        "every injected fault is retryable, so no lookup may fail"
    );

    let stats = proxy.shutdown();
    assert!(stats.exchanges > 0);
    assert!(
        stats.faults_injected >= stats.exchanges / 6,
        "a one-in-three schedule must actually inject: {stats:?}"
    );
    // Every fault kind in the palette fired at least once (the seeded
    // schedule is deterministic, so this is a fixed property of the seed,
    // not a probabilistic hope).
    assert!(stats.delays > 0, "no delays injected: {stats:?}");
    assert!(stats.resets_mid_frame > 0, "no resets injected: {stats:?}");
    assert!(stats.stalls > 0, "no stalls injected: {stats:?}");
    assert!(
        stats.corrupted_requests > 0,
        "no request corruption injected: {stats:?}"
    );
    assert!(
        stats.corrupted_replies > 0,
        "no reply corruption injected: {stats:?}"
    );
    assert!(stats.blackholes > 0, "no blackholes injected: {stats:?}");
    assert!(stats.slow_drips > 0, "no slow drips injected: {stats:?}");
}

/// The breaker's full open → half-open → closed cycle, observed through
/// real sockets: scripted blackholes trip it, fail-fast calls never reach
/// the wire, and after the (virtual) cool-down a probe closes it again.
#[test]
fn breaker_opens_and_recovers_over_the_wire() {
    let urls = evil_urls(1);
    let server = build_server(&urls);
    let tier = TcpServingTier::bind(server.clone(), TierConfig::default()).unwrap();
    // The first two exchanges are swallowed; everything after runs clean.
    let proxy = ChaosProxy::start(
        tier.local_addr(),
        ChaosSchedule::scripted(vec![Some(Fault::Blackhole), Some(Fault::Blackhole)]),
    )
    .unwrap();

    let clock = Arc::new(VirtualClock::new());
    let cool_down = Duration::from_secs(5);
    let breaker = CircuitBreakerTransport::with_clock(
        TcpTransport::new(proxy.local_addr()).unwrap(),
        BreakerPolicy::default()
            .with_failure_threshold(2)
            .with_cool_down(cool_down),
        clock.clone(),
    );
    let request = [FullHashRequest::new(vec![Prefix::from_u32(0x11223344)])];

    // Two blackholed exchanges open the breaker.
    assert!(breaker.full_hashes_batch(&request).is_err());
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert!(breaker.full_hashes_batch(&request).is_err());
    assert_eq!(breaker.state(), BreakerState::Open);

    // While open, calls fail fast without touching the wire.
    let exchanges_when_open = proxy.stats().exchanges;
    let err = breaker.full_hashes_batch(&request).unwrap_err();
    assert!(err.is_retryable());
    assert_eq!(proxy.stats().exchanges, exchanges_when_open);

    // After the cool-down (virtual time only) the next call is the
    // half-open probe; the schedule is clean now, so it closes the breaker.
    clock.sleep(cool_down);
    breaker.full_hashes_batch(&request).unwrap();
    assert_eq!(breaker.state(), BreakerState::Closed);

    let stats = breaker.stats();
    assert_eq!(stats.opens, 1);
    assert_eq!(stats.closes, 1);
    assert_eq!(stats.half_open_probes, 1);
    assert!(stats.fast_failures >= 1);
    assert_eq!(proxy.shutdown().blackholes, 2);
}

/// One end-to-end lookup deadline over real sockets: a reply that hangs
/// longer than `with_lookup_budget` allows is abandoned when the budget
/// runs out — the TCP layer waits only for what remains, the retry layer
/// stops instead of backing off — and the next lookup starts with a fresh
/// budget.  Without the budget the same stack would ride both faults out
/// (ten attempts, clean wire from the fourth exchange on) and succeed.
#[test]
fn a_lookup_budget_bounds_a_hanging_exchange_over_the_wire() {
    let budget = Duration::from_millis(100);
    let hang = Duration::from_millis(300);
    let urls = evil_urls(1);
    let server = build_server(&urls);
    let tier = TcpServingTier::bind(server.clone(), TierConfig::default()).unwrap();
    // The update runs clean; the first lookup's pooled connection is
    // swallowed, its transparent reconnect gets half a reply that hangs.
    let proxy = ChaosProxy::start(
        tier.local_addr(),
        ChaosSchedule::scripted(vec![
            None,
            Some(Fault::Blackhole),
            Some(Fault::Stall { pause: hang }),
        ]),
    )
    .unwrap();

    let clock = Arc::new(VirtualClock::new());
    let transport = Arc::new(RetryingTransport::with_clock(
        CircuitBreakerTransport::new(
            TcpTransport::new(proxy.local_addr()).unwrap(),
            BreakerPolicy::default().with_failure_threshold(1_000),
        ),
        RetryPolicy::default()
            .with_max_attempts(10)
            .with_base_delay(Duration::from_millis(4)),
        clock.clone(),
    ));
    let mut client = SafeBrowsingClient::new(
        ClientConfig::subscribed_to([LIST]).with_lookup_budget(budget),
        transport.clone(),
    );
    client.update().unwrap();

    let started = std::time::Instant::now();
    let error = client.check_url(&urls[0]).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(&error, ClientError::Service(error) if error.is_retryable()),
        "a spent budget surfaces the last retryable error, got {error:?}"
    );
    // The wait ended with the budget (plus at most one floor-clamped I/O
    // timeout), not with the proxy closing the hung connection.
    assert!(
        elapsed < hang,
        "lookup took {elapsed:?} under a {budget:?} budget (+ {MIN_IO_TIMEOUT:?})"
    );
    let stats = transport.stats();
    assert_eq!(stats.budget_stops, 1);
    assert_eq!((stats.retries, stats.unavailable_retries), (0, 0));
    assert_eq!(clock.total_slept(), Duration::ZERO);
    assert_eq!(proxy.stats().exchanges, 3, "update, blackhole, stall");

    // A fresh budget per lookup: the wire is clean now, the verdicts match
    // the blacklist.
    assert!(client.check_url(&urls[0]).unwrap().is_malicious());
    assert!(!client
        .check_url("http://benign.example/")
        .unwrap()
        .is_malicious());
    assert_eq!(transport.stats().budget_stops, 1);

    // The ledger is the provider's log: the stalled request reached the
    // provider (its reply hung), the blackholed one never did, and the
    // failed lookup's group is recorded once however often it was sent.
    let logged: Vec<Vec<Prefix>> = server
        .query_log()
        .requests()
        .iter()
        .map(|r| r.prefixes.clone())
        .collect();
    let recorded: Vec<Vec<Prefix>> = client
        .disclosure_ledger()
        .groups()
        .map(|g| g.prefixes.clone())
        .collect();
    assert_eq!(logged, recorded);
    assert_eq!(recorded.len(), 2, "the failed lookup and its repeat");

    drop(client);
    drop(transport);
    let stats = proxy.shutdown();
    assert_eq!((stats.blackholes, stats.stalls), (1, 1));
}

/// A shard that fails retryably while `down` is set — the flaky member of
/// the fleet behind the serving tier.
#[derive(Debug)]
struct FlakyShard {
    inner: Arc<SafeBrowsingServer>,
    down: AtomicBool,
    calls: AtomicUsize,
}

impl SafeBrowsingService for FlakyShard {
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        self.inner.update(request)
    }

    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.down.load(Ordering::SeqCst) {
            return Err(ServiceError::Unavailable {
                reason: "shard down".into(),
            });
        }
        self.inner.full_hashes_batch(requests)
    }
}

/// Shard health end to end: a flaky shard behind the tier is quarantined
/// after consecutive failures (its requests fail open over the wire), then
/// probed and reinstated once it recovers — all on virtual time.
#[test]
fn a_flaky_shard_is_quarantined_and_reinstated_behind_the_tier() {
    let server = build_server(&evil_urls(4));
    let flaky = Arc::new(FlakyShard {
        inner: server.clone(),
        down: AtomicBool::new(true),
        calls: AtomicUsize::new(0),
    });
    let clock = Arc::new(VirtualClock::new());
    let quarantine_period = Duration::from_secs(30);
    let fleet = Arc::new(
        ShardedProvider::new(vec![flaky.clone() as ShardHandle, server.clone()])
            .with_health_policy(
                HealthPolicy::default()
                    .with_failure_threshold(2)
                    .with_quarantine_period(quarantine_period),
            )
            .with_clock(clock.clone()),
    );
    let tier = TcpServingTier::bind(fleet.clone(), TierConfig::default()).unwrap();
    let transport = TcpTransport::new(tier.local_addr()).unwrap();

    // One request per shard of the 2-shard fleet (lead bytes 0x00 / 0xFF).
    let batch = [
        FullHashRequest::new(vec![Prefix::from_u32(0x00010203)]),
        FullHashRequest::new(vec![Prefix::from_u32(0xFF010203)]),
    ];

    // Two failing batches quarantine shard 0; both still answer (shard 1
    // serves its half, shard 0's requests fail open as empty responses).
    for _ in 0..2 {
        let responses = transport.full_hashes_batch(&batch).unwrap();
        assert_eq!(responses.len(), 2);
    }
    assert_eq!(fleet.quarantined_shards(), vec![0]);
    assert_eq!(fleet.stats().quarantines, 1);

    // Inside the quarantine the shard is not even called.
    let calls_at_quarantine = flaky.calls.load(Ordering::SeqCst);
    transport.full_hashes_batch(&batch).unwrap();
    assert_eq!(flaky.calls.load(Ordering::SeqCst), calls_at_quarantine);
    assert!(fleet.stats().quarantined_skips >= 1);

    // The shard recovers; after the period the next batch probes and
    // reinstates it.
    flaky.down.store(false, Ordering::SeqCst);
    clock.sleep(quarantine_period);
    transport.full_hashes_batch(&batch).unwrap();
    assert!(fleet.quarantined_shards().is_empty());
    let stats = fleet.stats();
    assert_eq!(stats.reinstatements, 1);
    assert!(stats.probes >= 1);
    drop(transport);
    tier.shutdown();
}

/// Satellite: chaos is deterministic — the same seed and schedule over the
/// same request sequence yields the identical fault log and counters.
#[test]
fn the_same_seed_replays_the_identical_fault_sequence() {
    let run = || {
        let server = build_server(&evil_urls(6));
        let tier = TcpServingTier::bind(server.clone(), TierConfig::default()).unwrap();
        let proxy = ChaosProxy::start(
            tier.local_addr(),
            ChaosSchedule::seeded(7, 2, retryable_palette()),
        )
        .unwrap();
        let clock = Arc::new(VirtualClock::new());
        let transport = RetryingTransport::with_clock(
            TcpTransport::new(proxy.local_addr()).unwrap(),
            RetryPolicy::default()
                .with_max_attempts(10)
                .with_base_delay(Duration::from_millis(50)),
            clock,
        );
        // A fixed, single-threaded request sequence: the proxy's exchange
        // counter advances identically on every run.
        for lead in 0..12u32 {
            let batch = [FullHashRequest::new(vec![Prefix::from_u32(lead << 24 | 7)])];
            transport.full_hashes_batch(&batch).unwrap();
        }
        drop(transport);
        let log = proxy.fault_log();
        let stats = proxy.stats();
        drop(proxy);
        tier.shutdown();
        (log, stats)
    };

    let (log_a, stats_a) = run();
    let (log_b, stats_b) = run();
    assert!(
        stats_a.faults_injected > 0,
        "the schedule must inject something for determinism to mean anything"
    );
    assert_eq!(log_a, log_b, "fault logs diverged between identical runs");
    assert_eq!(stats_a, stats_b, "counters diverged between identical runs");
}
