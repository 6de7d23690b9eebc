//! Resilient provider fleet: a client with a retry/backoff policy talking
//! to a 4-shard provider fleet that keeps serving through a partial
//! outage.
//!
//! The stack assembled here (bottom-up):
//!
//! * one authoritative [`SafeBrowsingServer`] (the blacklist owner);
//! * four shard handles — each a fault-scriptable [`SimulatedTransport`]
//!   path to the backend — combined into a [`ShardedProvider`] that routes
//!   every full-hash request to the shard owning its prefix lead byte and
//!   fans sub-batches out across threads;
//! * a [`RetryingTransport`] in front, honouring provider back-off delays
//!   and retrying unavailability with deterministic jittered exponential
//!   fallback (on a [`VirtualClock`] here, so the demo runs instantly);
//! * a [`SafeBrowsingClient`] on top, unchanged — resilience is entirely a
//!   transport-stack property.
//!
//! Run with: `cargo run --example resilient_fleet`

use std::sync::Arc;

use safe_browsing_privacy::client::{
    ClientConfig, InProcessTransport, RetryPolicy, RetryingTransport, SafeBrowsingClient,
    SimulatedTransport, TransportService,
};
use safe_browsing_privacy::protocol::{
    FullHashRequest, Provider, SafeBrowsingService, ServiceError, ThreatCategory, VirtualClock,
};
use safe_browsing_privacy::server::{SafeBrowsingServer, ShardHandle, ShardedProvider};

const LIST: &str = "goog-malware-shavar";

fn main() {
    // ---- authoritative backend --------------------------------------------
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    let urls: Vec<String> = (0..24)
        .map(|i| format!("http://evil{i}.example/exploit.html"))
        .collect();
    for url in &urls {
        server.blacklist_url(LIST, url).expect("list exists");
    }

    // ---- 4-shard fleet ----------------------------------------------------
    // Each shard is an independently fault-scriptable path to the backend;
    // in a networked deployment each would be a replica endpoint.
    let shards: Vec<Arc<SimulatedTransport>> = (0..4)
        .map(|_| {
            Arc::new(SimulatedTransport::new(InProcessTransport::new(
                server.clone(),
            )))
        })
        .collect();
    let fleet = Arc::new(ShardedProvider::new(
        shards
            .iter()
            .map(|s| Arc::new(TransportService::new(s.clone())) as ShardHandle)
            .collect(),
    ));
    println!("fleet: {} shards, lead-byte routed", fleet.shard_count());

    // ---- retrying client --------------------------------------------------
    // A fault-scriptable "front door" between client and fleet, with the
    // retry layer on top.
    let front = Arc::new(SimulatedTransport::new(InProcessTransport::new(
        fleet.clone(),
    )));
    let clock = Arc::new(VirtualClock::new());
    let retrying = Arc::new(RetryingTransport::with_clock(
        front.clone(),
        RetryPolicy::default(),
        clock.clone(),
    ));
    let mut client = SafeBrowsingClient::new(ClientConfig::subscribed_to([LIST]), retrying.clone());
    client.update().expect("fleet reachable");
    println!(
        "client: {} prefixes synced, next update in {} s\n",
        client.database_prefix_count(),
        retrying.next_update_hint().unwrap_or(0),
    );

    // ---- healthy fleet ----------------------------------------------------
    let flagged = urls
        .iter()
        .filter(|u| client.check_url(u).expect("lookup").is_malicious())
        .count();
    let routed = fleet.stats().requests_routed;
    println!("healthy fleet: {flagged}/{} URLs flagged", urls.len());
    println!("  requests per shard: {routed:?}");

    // ---- provider asks for back-off ---------------------------------------
    // The front path reports Backoff twice on the same exchange; the retry
    // layer honours the delays (on the virtual clock) and the lookup still
    // succeeds.
    client.clear_cache();
    front.push_full_hash_fault(ServiceError::Backoff {
        retry_after_seconds: 30,
    });
    front.push_full_hash_fault(ServiceError::Backoff {
        retry_after_seconds: 60,
    });
    let outcome = client.check_url(&urls[0]).expect("retried through backoff");
    println!(
        "\nbackoff scenario: verdict still {}, {} retries, {:?} virtual delay",
        if outcome.is_malicious() {
            "MALICIOUS"
        } else {
            "SAFE"
        },
        retrying.stats().retries,
        clock.total_slept(),
    );

    // ---- partial outage, gateway view -------------------------------------
    // Shard 1 goes dark.  A multi-request batch (what an aggregating
    // gateway forwards on behalf of many clients) keeps its request order:
    // the dead shard's requests fail open with empty responses, every
    // other slot is answered normally.
    shards[1].fail_every(
        1,
        ServiceError::Unavailable {
            reason: "shard 1 offline".into(),
        },
    );
    let batch: Vec<FullHashRequest> = urls
        .iter()
        .map(|u| {
            let expr = u.trim_start_matches("http://").to_string();
            FullHashRequest::new(vec![safe_browsing_privacy::hash::prefix32(&expr)])
        })
        .collect();
    let responses = fleet
        .full_hashes_batch(&batch)
        .expect("healthy shards carry the batch");
    let confirmed = responses.iter().filter(|r| !r.entries.is_empty()).count();
    let stats = fleet.stats();
    println!(
        "\npartial outage (batch of {}): {} confirmed, {} failed open, shard failures {:?}",
        batch.len(),
        confirmed,
        stats.degraded_requests,
        stats.shard_failures,
    );

    // ---- partial outage, single-client view --------------------------------
    // A single lookup is one request owned by one shard: clients of the
    // dead shard see a (retried, then surfaced) outage, everyone else is
    // untouched.
    client.clear_cache();
    let mut intact = 0;
    let mut failed = 0;
    for url in &urls {
        match client.check_url(url) {
            Ok(outcome) if outcome.is_malicious() => intact += 1,
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    println!(
        "single-client sweep: {intact} verdicts intact, {failed} lookups surfaced the outage \
         after retries"
    );

    // ---- retry accounting --------------------------------------------------
    let stats = retrying.stats();
    println!(
        "\nretry layer: {} exchanges, {} attempts, {} retries \
         ({} backoff, {} unavailable), {} exhausted, {:?} total virtual delay",
        stats.update_calls + stats.full_hash_calls,
        stats.attempts,
        stats.retries,
        stats.backoff_retries,
        stats.unavailable_retries,
        stats.exhausted,
        stats.total_delay,
    );
}
