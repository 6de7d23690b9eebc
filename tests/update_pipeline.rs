//! End-to-end tests of the generational update pipeline: server chunk
//! journal → exact range-based deltas → generational client store behind
//! an atomically swapped snapshot → scheduled update driving.
//!
//! Pipeline under test (see `docs/ARCHITECTURE.md`, "The update
//! pipeline"):
//!
//! ```text
//! SafeBrowsingServer          per-list ChunkJournal (append + compaction)
//!   └─ update(ranges)         exactly the missing chunks, subs first
//!        └─ LocalDatabase     hygiene → ordering → net delta
//!             └─ GenerationalStore   overlay absorb / threshold rebuild
//!                  └─ DatabaseReader concurrent lookups, never blocked
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use safe_browsing_privacy::client::{ClientConfig, SafeBrowsingClient, UpdateDriver};
use safe_browsing_privacy::hash::{prefix32, Prefix};
use safe_browsing_privacy::protocol::{
    ChunkKind, ClientListState, Provider, SafeBrowsingService, ThreatCategory, UpdateRequest,
    VirtualClock,
};
use safe_browsing_privacy::server::SafeBrowsingServer;
use safe_browsing_privacy::store::StoreBackend;

const LIST: &str = "goog-malware-shavar";

fn server() -> Arc<SafeBrowsingServer> {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    server
}

fn client(server: &Arc<SafeBrowsingServer>, backend: StoreBackend) -> SafeBrowsingClient {
    SafeBrowsingClient::in_process(
        ClientConfig::subscribed_to([LIST]).with_backend(backend),
        server.clone(),
    )
}

/// The acceptance shape: after a bulk load, a small (≤1%) delta applies on
/// the overlay path — no O(n) rebuild — and lookups see it immediately.
#[test]
fn small_delta_applies_without_a_store_rebuild() {
    let server = server();
    let bulk: Vec<Prefix> = (0..50_000u32).map(Prefix::from_u32).collect();
    server.inject_prefixes(LIST, bulk).unwrap();

    let mut client = client(&server, StoreBackend::Indexed);
    client.update().unwrap();
    let before = client.database_store_stats();

    // A 0.1% delta: 50 adds and 10 removals.
    server
        .inject_prefixes(LIST, (100_000..100_050u32).map(Prefix::from_u32))
        .unwrap();
    server
        .remove_prefixes(LIST, (0..10u32).map(Prefix::from_u32))
        .unwrap();
    client.update().unwrap();

    let after = client.database_store_stats();
    assert_eq!(
        after.rebuilds, before.rebuilds,
        "overlay path must be taken"
    );
    assert_eq!(after.generation, before.generation);
    assert!(after.deltas_absorbed > before.deltas_absorbed);
    assert!(after.overlay_len > 0);
    // Verdict correctness through the overlay.
    assert!(client.metrics().deltas_absorbed > 0);
    assert!(client.database_contains(&Prefix::from_u32(100_025)));
    assert!(!client.database_contains(&Prefix::from_u32(5)));
    assert!(client.database_contains(&Prefix::from_u32(30_000)));
}

/// The server journal serves exactly the missing chunks for a range-based
/// state — including out-of-order holes a high-water mark cannot express.
#[test]
fn server_serves_exact_deltas_for_out_of_order_states() {
    let server = server();
    server.blacklist_expressions(LIST, ["a.example/"]).unwrap(); // add 1
    server.blacklist_expressions(LIST, ["b.example/"]).unwrap(); // add 2
    server.blacklist_expressions(LIST, ["c.example/"]).unwrap(); // add 3

    // A client holding adds {1, 3} (hole at 2) gets exactly add 2.
    let mut state = ClientListState::default();
    state.record(ChunkKind::Add, 1);
    state.record(ChunkKind::Add, 3);
    let response = server
        .update(&UpdateRequest {
            lists: vec![(LIST.into(), state)],
        })
        .unwrap();
    assert_eq!(response.chunks.len(), 1);
    assert_eq!(response.chunks[0].number, 2);
    assert!(response.next_update_seconds > 0);
}

/// Journal compaction nets removed prefixes out of history: a fresh
/// client's replay shrinks, while an already-synced client stays correct.
#[test]
fn journal_compaction_preserves_convergence() {
    let server = server();
    let mut synced = client(&server, StoreBackend::Indexed);

    // Churn: add 40 prefixes across 8 chunks, remove most of them.
    for round in 0..8u32 {
        let base = round * 5;
        server
            .inject_prefixes(LIST, (base..base + 5).map(Prefix::from_u32))
            .unwrap();
        synced.update().unwrap();
    }
    server
        .remove_prefixes(LIST, (0..38u32).map(Prefix::from_u32))
        .unwrap();

    let before = server.journal_stats();
    server.compact_journal();
    let after = server.journal_stats();
    assert!(after.netted_prefixes >= 38, "netting must fire: {after:?}");
    assert!(after.live_prefixes < before.live_prefixes);
    assert!(after.compactions > before.compactions);

    // A fresh client syncing after compaction converges to the same
    // membership as the long-synced client.
    synced.update().unwrap();
    let mut fresh = client(&server, StoreBackend::Indexed);
    fresh.update().unwrap();
    for v in 0..45u32 {
        let p = Prefix::from_u32(v);
        assert_eq!(
            fresh.database_contains(&p),
            synced.database_contains(&p),
            "prefix {v} diverged after compaction"
        );
    }
    assert_eq!(fresh.database_prefix_count(), 2); // 40 added, 38 removed
}

/// Lookups on other threads keep returning correct verdicts while updates
/// stream in: the snapshot swap never exposes a half-applied delta, and
/// sentinel prefixes never flicker.
#[test]
fn concurrent_lookups_stay_correct_mid_update() {
    let server = server();
    let stable = server
        .blacklist_url(LIST, "http://always-bad.example/")
        .unwrap();
    let absent = prefix32("never-bad.example/");

    let mut client = client(&server, StoreBackend::Indexed);
    client.update().unwrap();
    let reader = client.database_reader();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let reader = &reader;
        let stop = &stop;
        let checkers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    // Check-then-test-stop: every checker observes the
                    // sentinels at least once, even if this thread is
                    // scheduled only after the update stream finished (a
                    // loaded single-core test runner can do that).
                    let mut lookups = 0usize;
                    loop {
                        // The two sentinels must hold in every generation.
                        assert!(reader.contains(&stable.prefix32()));
                        assert!(!reader.contains(&absent));
                        lookups += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    lookups
                })
            })
            .collect();

        // Stream 30 churn updates through the client while lookups run.
        for round in 0..30u32 {
            let base = 1_000 + round * 10;
            server
                .inject_prefixes(LIST, (base..base + 10).map(Prefix::from_u32))
                .unwrap();
            if round % 3 == 2 {
                server
                    .remove_prefixes(LIST, (base..base + 5).map(Prefix::from_u32))
                    .unwrap();
            }
            client.update().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let total: usize = checkers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "checkers must have observed lookups");
    });

    // The reader converged with the owning client.
    assert_eq!(reader.prefix_count(), client.database_prefix_count());
    assert!(client.metrics().updates == 30 + 1);
}

/// Updates only read the journal, so polls race the provider's writes:
/// readers loop `update()` from their own evolving chunk state while one
/// writer injects, removes and compacts.  No reader ever sees a removed
/// prefix come back, every reader ends on the provider's final membership,
/// and the test returning at all shows the `lists` → `journal` lock order
/// holds on every path.
#[test]
fn concurrent_updates_race_journal_writes_and_converge() {
    const READERS: usize = 4;
    const ROUNDS: u32 = 60;
    let server = server();
    server
        .inject_prefixes(LIST, (0..2_000u32).map(Prefix::from_u32))
        .unwrap();
    let start = Barrier::new(READERS + 1);
    let written = AtomicBool::new(false);

    let streams: Vec<BTreeSet<Prefix>> = std::thread::scope(|scope| {
        let (server, start, written) = (&server, &start, &written);
        let readers: Vec<_> = (0..READERS as u32)
            .map(|reader| {
                scope.spawn(move || {
                    let mut state = ClientListState::default();
                    let mut members: BTreeSet<Prefix> = BTreeSet::new();
                    let mut removed: BTreeSet<Prefix> = BTreeSet::new();
                    start.wait();
                    for poll in 0u32.. {
                        // Read before polling: once set, this poll sees
                        // every write, takes every chunk and is the last.
                        let last = written.load(Ordering::Acquire);
                        let response = server
                            .update(&UpdateRequest {
                                lists: vec![(LIST.into(), state.clone())],
                            })
                            .unwrap();
                        for chunk in &response.chunks {
                            match chunk.kind {
                                ChunkKind::Sub => {
                                    for p in &chunk.prefixes {
                                        members.remove(p);
                                        removed.insert(*p);
                                    }
                                }
                                // Leave holes: an add skipped now is
                                // served later, netted against subs this
                                // reader already holds.
                                ChunkKind::Add
                                    if !last && (poll + chunk.number + reader) % 3 == 0 =>
                                {
                                    continue
                                }
                                ChunkKind::Add => members.extend(chunk.prefixes.iter().copied()),
                            }
                            state.record(chunk.kind, chunk.number);
                        }
                        // The writer never re-adds what it removed.
                        assert!(
                            members.is_disjoint(&removed),
                            "reader {reader}, poll {poll}: a removed prefix was resurrected"
                        );
                        if last {
                            break;
                        }
                    }
                    members
                })
            })
            .collect();

        start.wait();
        for round in 0..ROUNDS {
            let fresh = 10_000 + round * 20;
            server
                .inject_prefixes(LIST, (fresh..fresh + 20).map(Prefix::from_u32))
                .unwrap();
            // Remove half of an earlier round's chunk and a slice of the
            // bulk load.
            let stale = fresh.saturating_sub(40);
            server
                .remove_prefixes(LIST, (stale..stale + 10).map(Prefix::from_u32))
                .unwrap();
            server
                .remove_prefixes(LIST, (round * 10..round * 10 + 10).map(Prefix::from_u32))
                .unwrap();
            if round % 7 == 6 {
                server.compact_journal();
            }
        }
        written.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader panicked"))
            .collect()
    });

    let snapshot = server.list_snapshot(&LIST.into()).unwrap();
    let expected: BTreeSet<Prefix> = snapshot.prefixes().collect();
    assert!(server.journal_stats().compactions >= ROUNDS as usize / 7);
    for members in &streams {
        assert_eq!(members, &expected);
    }
}

/// The update driver sleeps the provider's schedule between rounds, over a
/// virtual clock — the whole cadence runs with zero wall-clock sleeps.
#[test]
fn update_driver_follows_the_provider_schedule() {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google).with_next_update_seconds(600));
    server.create_list(LIST, ThreatCategory::Malware);
    let mut client = SafeBrowsingClient::in_process(
        ClientConfig::subscribed_to([LIST]).with_backend(StoreBackend::Indexed),
        server.clone(),
    );

    let clock = Arc::new(VirtualClock::new());
    let mut driver = UpdateDriver::with_clock(clock.clone());

    server.blacklist_expressions(LIST, ["a.example/"]).unwrap();
    driver.run_round(&mut client).unwrap();
    server.blacklist_expressions(LIST, ["b.example/"]).unwrap();
    driver.run_round(&mut client).unwrap();
    driver.run_round(&mut client).unwrap(); // nothing new

    assert_eq!(clock.sleeps(), vec![Duration::from_secs(600); 3]);
    let stats = driver.stats();
    assert_eq!(stats.updates_ok, 3);
    assert_eq!(stats.chunks_applied, 2);
    assert_eq!(client.metrics().next_update_hint, Some(600));
    assert_eq!(client.database_prefix_count(), 2);
}

/// A provider whose response violates chunk hygiene is rejected without
/// touching the database — surfaced as a non-retryable MalformedResponse.
#[test]
fn malformed_update_responses_are_rejected_atomically() {
    use safe_browsing_privacy::client::Transport;
    use safe_browsing_privacy::protocol::{
        Chunk, DeadlineBudget, FullHashRequest, FullHashResponse, ServiceError, UpdateResponse,
    };

    /// A provider that duplicates a chunk number within one response.
    #[derive(Debug)]
    struct DuplicatingProvider;
    impl Transport for DuplicatingProvider {
        fn update_within(
            &self,
            _: &UpdateRequest,
            _: &DeadlineBudget,
        ) -> Result<UpdateResponse, ServiceError> {
            Ok(UpdateResponse {
                chunks: vec![
                    Chunk::add(LIST, 1, vec![prefix32("a.example/")]),
                    Chunk::add(LIST, 1, vec![prefix32("b.example/")]),
                ],
                next_update_seconds: 60,
            })
        }
        fn full_hashes_batch_within(
            &self,
            _: &[FullHashRequest],
            _: &DeadlineBudget,
        ) -> Result<Vec<FullHashResponse>, ServiceError> {
            Ok(Vec::new())
        }
    }

    let mut client =
        SafeBrowsingClient::new(ClientConfig::subscribed_to([LIST]), DuplicatingProvider);
    let err = client.update().unwrap_err();
    assert!(matches!(err, ServiceError::MalformedResponse { .. }));
    assert!(!err.is_retryable());
    assert_eq!(client.database_prefix_count(), 0);
    assert_eq!(client.metrics().updates, 0);
    assert_eq!(client.metrics().service_errors, 1);
}
