//! End-to-end tests of the network tier: a real `TcpServingTier` on a
//! loopback socket, clients on pooled `TcpTransport`s, every exchange an
//! `sb-wire` frame over the kernel.
//!
//! Test hygiene: every tier binds `127.0.0.1:0` (the kernel picks a free
//! port), there are **no sleeps on the happy path** — `TcpListener::bind`
//! returns a listening socket, so a tier is ready the moment `bind`
//! returns — and every test shuts its tier down (or drops it)
//! deterministically, so repeated runs never hit address-in-use.
//!
//! The two tests that deliberately *rebind a just-released port* are the
//! one place an ephemeral-port race exists: any parallel test (this
//! binary or another, under `cargo test -q`) binding `127.0.0.1:0` in the
//! gap can be handed exactly the port under test.  They serialise through
//! [`PORT_REUSE`] (closing the intra-binary window) and ride out the
//! cross-binary window by retrying `AddrInUse` briefly via
//! [`rebind_released_port`] instead of flaking.
//!
//! Stack under test (see `docs/ARCHITECTURE.md`):
//!
//! ```text
//! SafeBrowsingClient
//!   └─ RetryingTransport (VirtualClock)      retry/backoff policy
//!        └─ TcpTransport                     pooled connections, sb-wire frames
//!             ═══ loopback TCP ═══
//!        TcpServingTier                      accept loop + worker pool
//!             └─ ObservingService (per conn) adversary's tap
//!                  └─ SafeBrowsingServer / ShardedProvider
//! ```

use std::net::TcpStream;
use std::sync::Arc;

use safe_browsing_privacy::client::{
    ClientConfig, RetryPolicy, RetryingTransport, SafeBrowsingClient, TcpTransport, Transport,
};
use safe_browsing_privacy::protocol::{
    FullHashRequest, ListName, Provider, ServiceError, ThreatCategory, UpdateRequest, VirtualClock,
};
use safe_browsing_privacy::server::{
    ObservationLog, ObservingService, SafeBrowsingServer, ShardHandle, ShardedProvider,
    TcpServingTier, TierConfig,
};
use safe_browsing_privacy::wire::{read_message, write_message, Message};

const LIST: &str = "goog-malware-shavar";

fn build_server(urls: &[String]) -> Arc<SafeBrowsingServer> {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    for url in urls {
        server.blacklist_url(LIST, url).unwrap();
    }
    server
}

/// Serialises the port-reuse tests: while one of them holds a freed port
/// "in flight", no other test in this binary may bind `127.0.0.1:0` *as
/// part of a reuse test* and be handed that port.  (A poisoned lock just
/// means an earlier reuse test failed; the port discipline still holds.)
static PORT_REUSE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Rebinds a port the test just released.  The release itself is
/// deterministic — shutdown/drop joins the accept loop before returning —
/// but a parallel test binary binding `:0` can transiently be handed the
/// freed port, so `AddrInUse` is retried for a bounded window before it is
/// treated as "the tier failed to release the port".
fn rebind_released_port(
    addr: std::net::SocketAddr,
    server: Arc<SafeBrowsingServer>,
    why: &str,
) -> safe_browsing_privacy::server::TcpServingTier {
    let mut last_err = None;
    for _ in 0..80 {
        match TcpServingTier::bind_addr(addr, server.clone(), TierConfig::default()) {
            Ok(tier) => return tier,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                last_err = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => panic!("{why}: {e}"),
        }
    }
    panic!("{why}: {}", last_err.unwrap());
}

fn evil_urls(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("http://evil{i}.example/payload.html"))
        .collect()
}

/// The core parity contract: a client whose transport is a pooled TCP
/// connection to a serving tier reaches exactly the verdicts of a client
/// calling the same provider in-process.
#[test]
fn tcp_client_matches_in_process_verdicts() {
    let urls = evil_urls(24);
    let server = build_server(&urls);
    let tier = TcpServingTier::bind(server.clone(), TierConfig::default()).unwrap();

    let transport = Arc::new(TcpTransport::new(tier.local_addr()).unwrap());
    let mut over_tcp =
        SafeBrowsingClient::new(ClientConfig::subscribed_to([LIST]), Arc::clone(&transport));
    let mut in_process =
        SafeBrowsingClient::in_process(ClientConfig::subscribed_to([LIST]), server.clone());
    over_tcp.update().unwrap();
    in_process.update().unwrap();

    let mut probes = urls.clone();
    probes.push("http://benign.example/".to_string());
    for url in &probes {
        assert_eq!(
            over_tcp.check_url(url).unwrap().is_malicious(),
            in_process.check_url(url).unwrap().is_malicious(),
            "verdict diverged over TCP for {url}"
        );
    }

    // The wire actually carried the exchanges: the transport pooled (not
    // re-dialed) its connection, and the tier's counters agree with the
    // client's byte accounting.
    let stats = transport.stats();
    assert!(stats.round_trips > urls.len() as u64 / 2);
    assert_eq!(stats.connections_opened, 1, "pool must reuse, not re-dial");
    assert_eq!(stats.connections_reused, stats.round_trips - 1);
    // `shutdown` joins every worker first, so the counters it returns are
    // final — a mid-run `stats()` could trail the reply the client just
    // read by one `frames_sent` increment.
    let wire = tier.shutdown();
    assert_eq!(wire.frames_received, stats.round_trips);
    assert_eq!(wire.frames_sent, stats.round_trips);
    assert_eq!(wire.bytes_received, stats.bytes_sent);
    assert_eq!(wire.bytes_sent, stats.bytes_received);
    assert_eq!(wire.protocol_errors, 0);
}

/// The whole resilience/privacy stack composes over the network tier with
/// zero call-site changes: retry layer (virtual clock) over a pooled
/// transport, against a sharded fleet behind the tier.
#[test]
fn retry_and_fleet_stack_runs_unchanged_over_tcp() {
    let urls = evil_urls(32);
    let server = build_server(&urls);
    let fleet = Arc::new(ShardedProvider::new(
        (0..4).map(|_| server.clone() as ShardHandle).collect(),
    ));
    let tier = TcpServingTier::bind(fleet.clone(), TierConfig::default()).unwrap();

    let clock = Arc::new(VirtualClock::new());
    let transport = Arc::new(TcpTransport::new(tier.local_addr()).unwrap());
    let retrying = RetryingTransport::with_clock(
        Arc::clone(&transport),
        RetryPolicy::default(),
        clock.clone(),
    );
    let mut client = SafeBrowsingClient::new(ClientConfig::subscribed_to([LIST]), retrying);
    client.update().unwrap();

    for url in &urls {
        assert!(client.check_url(url).unwrap().is_malicious());
    }
    assert!(!client
        .check_url("http://benign.example/")
        .unwrap()
        .is_malicious());

    // The fleet behind the tier spread the load across shards.
    let routed = fleet.stats().requests_routed;
    assert!(
        routed.iter().filter(|&&n| n > 0).count() > 1,
        "expected multiple shards to serve requests, got {routed:?}"
    );
    // Nothing failed, so the retry layer never slept.
    assert_eq!(clock.total_slept(), std::time::Duration::ZERO);
    tier.shutdown();
}

/// Per-connection observation over real sockets: each accepted TCP
/// connection gets its own `ObservingService` tap, so the adversary's view
/// is segmented exactly by transport connection — the tracking-attack
/// linkage unit.
#[test]
fn each_tcp_connection_gets_its_own_observation_stream() {
    let urls = evil_urls(8);
    let server = build_server(&urls);
    let log = Arc::new(ObservationLog::new());
    let tier = {
        let server = server.clone();
        let log = log.clone();
        TcpServingTier::bind_per_connection(
            move || Arc::new(ObservingService::attach(server.clone(), log.clone())),
            TierConfig::default(),
        )
        .unwrap()
    };

    // Two clients = two TCP connections = two observation streams.
    let mut clients: Vec<SafeBrowsingClient> = (0..2)
        .map(|_| {
            let mut client = SafeBrowsingClient::new(
                ClientConfig::subscribed_to([LIST]),
                TcpTransport::new(tier.local_addr()).unwrap(),
            );
            client.update().unwrap();
            client
        })
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        for url in urls.iter().skip(i * 4).take(4) {
            assert!(client.check_url(url).unwrap().is_malicious());
        }
    }

    let connections = log.connections();
    assert_eq!(
        connections.len(),
        2,
        "each TCP connection must observe under its own id"
    );
    for connection in connections {
        let stream = log.stream_for(connection);
        assert!(
            !stream.is_empty(),
            "connection {connection} observed nothing"
        );
    }
    assert!(log.update_exchanges() >= 2);
    tier.shutdown();
}

/// Provider errors cross the wire as typed error frames and come back as
/// the same `ServiceError` — retryability classification intact.
#[test]
fn service_errors_survive_the_round_trip() {
    let server = build_server(&[]);
    let tier = TcpServingTier::bind(server, TierConfig::default()).unwrap();
    let transport = TcpTransport::new(tier.local_addr()).unwrap();

    // Unknown list: non-retryable, carries the list name.
    let unknown = UpdateRequest {
        lists: vec![("ghost-shavar".into(), Default::default())],
    };
    match transport.update(&unknown) {
        Err(ServiceError::ListUnknown(name)) => {
            assert_eq!(name, ListName::from("ghost-shavar"));
        }
        other => panic!("expected ListUnknown over the wire, got {other:?}"),
    }

    // Empty full-hash request: the provider's MalformedRequest, unchanged.
    let err = transport
        .full_hashes_batch(&[FullHashRequest::new(Vec::new())])
        .unwrap_err();
    assert!(matches!(err, ServiceError::MalformedRequest { .. }));
    assert!(!err.is_retryable());

    // The error frames used (and pooled) a healthy connection throughout.
    assert_eq!(transport.stats().connections_opened, 1);
    tier.shutdown();
}

/// A peer speaking garbage gets a typed `MalformedRequest` error frame
/// back, then the tier closes that connection — and keeps serving others.
#[test]
fn hostile_bytes_get_an_error_frame_then_the_connection_closes() {
    let urls = evil_urls(1);
    let server = build_server(&urls);
    let tier = TcpServingTier::bind(server, TierConfig::default()).unwrap();

    let mut hostile = TcpStream::connect(tier.local_addr()).unwrap();
    std::io::Write::write_all(&mut hostile, b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let (reply, _) = read_message(&mut hostile).unwrap();
    match reply {
        Message::Error(ServiceError::MalformedRequest { .. }) => {}
        other => panic!("expected a MalformedRequest error frame, got {other:?}"),
    }
    // The desynchronized connection is closed...
    assert!(matches!(
        read_message(&mut hostile),
        Err(e) if e.transport_level()
    ));

    // ...while a well-behaved peer on a fresh connection is served.
    let mut good = TcpStream::connect(tier.local_addr()).unwrap();
    let digest = safe_browsing_privacy::hash::digest_url("evil0.example/payload.html");
    write_message(
        &mut good,
        &Message::FullHashRequests(vec![FullHashRequest::new(vec![digest.prefix32()])]),
    )
    .unwrap();
    match read_message(&mut good).unwrap().0 {
        Message::FullHashResponses(responses) => {
            assert_eq!(responses.len(), 1);
            assert!(responses[0].contains_digest(&digest));
        }
        other => panic!("expected full-hash responses, got {other:?}"),
    }
    assert_eq!(tier.stats().protocol_errors, 1);
    tier.shutdown();
}

/// A stale pooled connection (server restarted underneath) is replaced
/// transparently: the round trip succeeds on a fresh connection and the
/// reconnect is counted, without surfacing an error.
#[test]
fn stale_pooled_connections_reconnect_transparently() {
    let _port_guard = PORT_REUSE.lock().unwrap_or_else(|e| e.into_inner());
    let urls = evil_urls(1);
    let server = build_server(&urls);
    let digest = safe_browsing_privacy::hash::digest_url("evil0.example/payload.html");
    let request = FullHashRequest::new(vec![digest.prefix32()]);

    let first = TcpServingTier::bind(server.clone(), TierConfig::default()).unwrap();
    let addr = first.local_addr();
    let transport = TcpTransport::new(addr).unwrap();
    transport
        .full_hashes_batch(std::slice::from_ref(&request))
        .unwrap();
    assert_eq!(transport.pooled_connections(), 1);

    // Restart the tier on the same address: the pooled connection is dead.
    first.shutdown();
    let second = rebind_released_port(
        addr,
        server,
        "shutdown must release the port for an immediate rebind",
    );

    let responses = transport
        .full_hashes_batch(std::slice::from_ref(&request))
        .expect("stale pooled connection must be replaced, not surfaced");
    assert!(responses[0].contains_digest(&digest));
    let stats = transport.stats();
    assert_eq!(stats.reconnects, 1);
    assert_eq!(stats.connections_opened, 2);
    second.shutdown();
}

/// Dropping a tier (no explicit shutdown) joins its threads and releases
/// the listener: the port refuses new connections afterwards, and can be
/// rebound immediately — repeated bind/drop cycles never accumulate state.
#[test]
fn drop_releases_listener_and_port_deterministically() {
    let _port_guard = PORT_REUSE.lock().unwrap_or_else(|e| e.into_inner());
    let urls = evil_urls(1);
    let server = build_server(&urls);
    let mut last_addr = None;
    for _ in 0..3 {
        let tier = TcpServingTier::bind(server.clone(), TierConfig::default()).unwrap();
        let addr = tier.local_addr();
        let transport = TcpTransport::new(addr).unwrap();
        let digest = safe_browsing_privacy::hash::digest_url("evil0.example/payload.html");
        let responses = transport
            .full_hashes_batch(&[FullHashRequest::new(vec![digest.prefix32()])])
            .unwrap();
        assert!(responses[0].contains_digest(&digest));
        drop(tier); // implicit shutdown: joins workers, closes the listener
                    // A leaked listener keeps accepting forever; a parallel test binary
                    // handed this freed port by a `:0` bind releases it when its own
                    // test ends.  Re-probe briefly to tell the two apart.
        let mut accepting = TcpStream::connect(addr).is_ok();
        for _ in 0..80 {
            if !accepting {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
            accepting = TcpStream::connect(addr).is_ok();
        }
        assert!(!accepting, "dropped tier must not keep accepting");
        last_addr = Some(addr);
    }
    // The port a dropped tier held is immediately bindable again.
    let addr = last_addr.unwrap();
    let tier = rebind_released_port(
        addr,
        server,
        "drop must release the port for an immediate rebind",
    );
    tier.shutdown();
}

/// The reconnect contract under a double failure: a dead pooled connection
/// buys exactly **one** transparent reconnect; when the fresh connection
/// also dies, the failure surfaces as a retryable `Unavailable` — and the
/// dead connection is not returned to the pool.
#[test]
fn a_second_consecutive_failure_surfaces_after_one_reconnect() {
    use safe_browsing_privacy::protocol::FullHashResponse;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        // Connection 1: serve exactly one exchange, then close — the
        // pooled connection dies while idle.
        let (mut conn, _) = listener.accept().unwrap();
        let (request, _) = read_message(&mut conn).unwrap();
        let replies = match request {
            Message::FullHashRequests(requests) => requests
                .iter()
                .map(|_| FullHashResponse::default())
                .collect(),
            other => panic!("unexpected {other:?}"),
        };
        write_message(&mut conn, &Message::FullHashResponses(replies)).unwrap();
        drop(conn);
        // Connection 2 (the transparent reconnect): close it immediately,
        // before any reply.
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
    });

    let transport = TcpTransport::new(addr).unwrap();
    let request = [FullHashRequest::new(vec![
        safe_browsing_privacy::hash::digest_url("evil.example/").prefix32(),
    ])];

    // Exchange 1 succeeds and pools its connection.
    transport.full_hashes_batch(&request).unwrap();
    assert_eq!(transport.pooled_connections(), 1);

    // Exchange 2: the reused connection is dead (one reconnect), and the
    // fresh one dies too (surface the failure).
    let err = transport.full_hashes_batch(&request).unwrap_err();
    match &err {
        ServiceError::Unavailable { reason } => assert!(
            reason.contains("failed twice"),
            "the double failure must be visible in the error: {reason}"
        ),
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert!(err.is_retryable(), "a dead server is a retryable condition");

    let stats = transport.stats();
    assert_eq!(stats.reconnects, 1, "exactly one transparent reconnect");
    assert_eq!(
        transport.pooled_connections(),
        0,
        "a connection that died mid-exchange must not return to the pool"
    );
    server_thread.join().unwrap();
}
