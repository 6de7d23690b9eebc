//! The simulated Safe Browsing provider.
//!
//! [`SafeBrowsingServer`] plays the role of Google's or Yandex's backend: it
//! owns the blacklists, serves incremental updates (add/sub chunks), answers
//! full-hash requests, and — following the paper's threat model — logs every
//! full-hash request together with the client cookie.  It also exposes the
//! tampering operations the paper shows are indistinguishable from normal
//! operation for the client: injecting arbitrary prefixes (the basis of the
//! tracking system of Section 6.3) and injecting orphan prefixes
//! (Section 7.2).

use std::collections::BTreeMap;
use std::sync::{Mutex, RwLock};

use sb_hash::Prefix;
use sb_protocol::{
    ChunkKind, FullHashEntry, FullHashRequest, FullHashResponse, ListName, Provider,
    SafeBrowsingService, ServiceError, ThreatCategory, UpdateRequest, UpdateResponse,
};
use sb_url::CanonicalUrl;

use crate::blacklist::{shard_of, Blacklist};
use crate::journal::{ChunkJournal, JournalStats};
use crate::log::{LoggedRequest, QueryLog};

/// Default minimum delay between update requests, in seconds (the deployed
/// services ask clients to respect a similar back-off).
pub const DEFAULT_NEXT_UPDATE_SECONDS: u64 = 30 * 60;

/// Below this many prefixes in a batch, full-hash resolution stays on the
/// calling thread: spawning workers costs more than a handful of hash-map
/// probes.
const PARALLEL_RESOLVE_THRESHOLD: usize = 32;

/// Upper bound on resolver threads per batch.
const MAX_RESOLVE_WORKERS: usize = 16;

/// The query log and its logical clock, under one lock so timestamps are
/// assigned in arrival order.
#[derive(Debug)]
struct LogState {
    query_log: QueryLog,
    clock: u64,
}

/// A simulated Google/Yandex Safe Browsing backend.
///
/// # Examples
///
/// ```
/// use sb_protocol::{FullHashRequest, Provider, SafeBrowsingService, ThreatCategory};
/// use sb_server::SafeBrowsingServer;
///
/// let server = SafeBrowsingServer::new(Provider::Google);
/// server.create_list("goog-malware-shavar", ThreatCategory::Malware);
/// let digest = server
///     .blacklist_url("goog-malware-shavar", "http://evil.example/exploit.html")
///     .unwrap();
///
/// let response = server
///     .full_hashes(&FullHashRequest::new(vec![digest.prefix32()]))
///     .unwrap();
/// assert!(response.contains_digest(&digest));
/// ```
#[derive(Debug)]
pub struct SafeBrowsingServer {
    provider: Provider,
    /// The blacklists, on their own reader-writer lock: full-hash
    /// resolution only needs shared access, so any number of batches can
    /// resolve concurrently (and fan out internally) while updates and
    /// logging proceed under the other locks.
    lists: RwLock<BTreeMap<ListName, Blacklist>>,
    /// Per-list chunk journal (append + compaction), used to serve exact
    /// incremental deltas.  Updates and stats read it, so polls run
    /// concurrently; appends and compaction write.  Lock order where both
    /// are held: `lists`, then `journal`.
    journal: RwLock<ChunkJournal>,
    log: Mutex<LogState>,
    next_update_seconds: u64,
    /// Half-width of the deterministic per-response jitter applied to the
    /// `next_update_seconds` hint (0 = every client gets the same hint).
    next_update_jitter: u64,
    /// Update responses served — the jitter sequence position.
    update_serial: std::sync::atomic::AtomicU64,
}

impl SafeBrowsingServer {
    /// Creates a server with no lists.
    pub fn new(provider: Provider) -> Self {
        SafeBrowsingServer {
            provider,
            lists: RwLock::new(BTreeMap::new()),
            journal: RwLock::new(ChunkJournal::default()),
            log: Mutex::new(LogState {
                query_log: QueryLog::new(),
                clock: 0,
            }),
            next_update_seconds: DEFAULT_NEXT_UPDATE_SECONDS,
            next_update_jitter: 0,
            update_serial: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Overrides the `next_update_seconds` schedule hint returned by every
    /// update response (the deployed services' 30-minute default
    /// otherwise) — update drivers and their tests steer polling cadence
    /// with this.
    pub fn with_next_update_seconds(mut self, seconds: u64) -> Self {
        self.next_update_seconds = seconds;
        self
    }

    /// Publishes the server's chunk-journal counters and trace events
    /// into a shared [`sb_telemetry::Telemetry`] plane — one scrape then
    /// spans the backend alongside every other layer sharing the handle.
    pub fn with_telemetry(mut self, telemetry: sb_telemetry::Telemetry) -> Self {
        let journal = self
            .journal
            .get_mut()
            .expect("server journal lock poisoned");
        *journal = std::mem::take(journal).with_telemetry(telemetry);
        self
    }

    /// Spreads the `next_update_seconds` hint deterministically over
    /// `[base, base + jitter)`, varying per update response served.
    ///
    /// With a fixed hint every client that updated in the same burst comes
    /// back in the same burst — the thundering herd the fleet simulation
    /// measures.  Per-response jitter (a splitmix64 walk over the response
    /// serial, so the sequence is a pure function of server construction
    /// and arrival order) breaks the herd up without any shared state
    /// between clients.  A `jitter` of 0 disables the spread.
    pub fn with_next_update_jitter(mut self, jitter: u64) -> Self {
        self.next_update_jitter = jitter;
        self
    }

    /// The `next_update_seconds` hint for the next update response:
    /// the configured base plus this response's deterministic jitter.
    fn next_update_hint(&self) -> u64 {
        if self.next_update_jitter == 0 {
            return self.next_update_seconds;
        }
        let serial = self
            .update_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // splitmix64: a well-mixed pure function of the serial.
        let mut z = serial.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.next_update_seconds
            .saturating_add(z % self.next_update_jitter)
    }

    /// Creates a server pre-populated with every (empty) list of the
    /// provider's published inventory (Tables 1 and 3).
    pub fn with_standard_lists(provider: Provider) -> Self {
        let server = Self::new(provider);
        for descriptor in sb_protocol::lists_for(provider) {
            server.create_list(descriptor.name.as_str(), descriptor.category);
        }
        server
    }

    /// The provider this server simulates.
    pub fn provider(&self) -> Provider {
        self.provider
    }

    /// Registers an empty blacklist.  Returns false if it already existed.
    pub fn create_list(&self, name: impl Into<ListName>, category: ThreatCategory) -> bool {
        let name = name.into();
        let mut lists = self.write_lists();
        if lists.contains_key(&name) {
            return false;
        }
        lists.insert(name.clone(), Blacklist::new(name, category));
        true
    }

    /// Names of the lists currently served.
    pub fn list_names(&self) -> Vec<ListName> {
        self.read_lists().keys().cloned().collect()
    }

    /// A point-in-time copy of one blacklist (used by the audit
    /// experiments, which play the role of an external analyst crawling the
    /// database exactly as the paper does in Section 7.1).
    pub fn list_snapshot(&self, name: &ListName) -> Option<Blacklist> {
        self.read_lists().get(name).cloned()
    }

    /// Blacklists the *exact canonical expression* of a URL in a list and
    /// returns its digest.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownList`] if the list does not exist and
    /// [`ServerError::InvalidUrl`] if the URL cannot be canonicalized.
    pub fn blacklist_url(
        &self,
        list: impl Into<ListName>,
        url: &str,
    ) -> Result<sb_hash::Digest, ServerError> {
        let canon = CanonicalUrl::parse(url).map_err(|e| ServerError::InvalidUrl(e.to_string()))?;
        let expr = canon.expression();
        let digests = self.blacklist_expressions(list, [expr.as_str()])?;
        Ok(digests[0])
    }

    /// Blacklists a batch of canonical expressions in a list, producing one
    /// add chunk.  Returns the digests in input order.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownList`] if the list does not exist.
    pub fn blacklist_expressions<'a>(
        &self,
        list: impl Into<ListName>,
        expressions: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<sb_hash::Digest>, ServerError> {
        let name = list.into();
        let mut lists = self.write_lists();
        let Some(blacklist) = lists.get_mut(&name) else {
            return Err(ServerError::UnknownList(name));
        };
        let mut digests = Vec::new();
        let mut prefixes = Vec::new();
        for expr in expressions {
            let d = blacklist.insert_expression(expr);
            prefixes.push(d.prefix32());
            digests.push(d);
        }
        self.push_chunk(name, ChunkKind::Add, prefixes);
        Ok(digests)
    }

    /// Injects arbitrary prefixes into a list — the tampering primitive the
    /// paper shows an SB provider (or a coercing third party) can use to
    /// build a tracking database.  The prefixes get no full digests, so they
    /// also show up as orphans in an audit unless full digests are added
    /// separately.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownList`] if the list does not exist.
    pub fn inject_prefixes(
        &self,
        list: impl Into<ListName>,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Result<usize, ServerError> {
        let name = list.into();
        let mut lists = self.write_lists();
        let Some(blacklist) = lists.get_mut(&name) else {
            return Err(ServerError::UnknownList(name));
        };
        let prefixes: Vec<Prefix> = prefixes.into_iter().collect();
        for p in &prefixes {
            blacklist.insert_orphan_prefix(*p);
        }
        let count = prefixes.len();
        self.push_chunk(name, ChunkKind::Add, prefixes);
        Ok(count)
    }

    /// Injects both the prefix and the full digest of each given canonical
    /// expression — the "shadow database" variant of tampering used by the
    /// tracking system, which keeps the injected entries consistent so they
    /// do not appear as orphans.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownList`] if the list does not exist.
    pub fn inject_tracking_expressions<'a>(
        &self,
        list: impl Into<ListName>,
        expressions: impl IntoIterator<Item = &'a str>,
    ) -> Result<usize, ServerError> {
        Ok(self.blacklist_expressions(list, expressions)?.len())
    }

    /// Removes prefixes from a list via a sub chunk.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownList`] if the list does not exist.
    pub fn remove_prefixes(
        &self,
        list: impl Into<ListName>,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Result<usize, ServerError> {
        let name = list.into();
        let mut lists = self.write_lists();
        let Some(blacklist) = lists.get_mut(&name) else {
            return Err(ServerError::UnknownList(name));
        };
        let prefixes: Vec<Prefix> = prefixes.into_iter().collect();
        let mut removed = 0;
        for p in &prefixes {
            if blacklist.remove_prefix(p) {
                removed += 1;
            }
        }
        self.push_chunk(name, ChunkKind::Sub, prefixes);
        Ok(removed)
    }

    /// The provider's query log (the attacker's view of client traffic).
    pub fn query_log(&self) -> QueryLog {
        self.lock_log().query_log.clone()
    }

    /// Clears the query log.
    pub fn clear_query_log(&self) {
        self.lock_log().query_log.clear();
    }

    /// Total number of prefixes across all lists.
    pub fn total_prefixes(&self) -> usize {
        self.read_lists()
            .values()
            .map(Blacklist::prefix_count)
            .sum()
    }

    fn read_lists(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<ListName, Blacklist>> {
        self.lists.read().expect("server list lock poisoned")
    }

    fn write_lists(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<ListName, Blacklist>> {
        self.lists.write().expect("server list lock poisoned")
    }

    fn lock_log(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.log.lock().expect("server log lock poisoned")
    }

    fn push_chunk(&self, list: ListName, kind: ChunkKind, prefixes: Vec<Prefix>) {
        self.write_journal().append(list, kind, prefixes);
    }

    /// Journal accounting: live chunks and prefixes per kind, appends,
    /// compaction effects.
    pub fn journal_stats(&self) -> JournalStats {
        self.read_journal().stats()
    }

    /// Compacts every list's journal now (netting subbed prefixes out of
    /// earlier add chunks, dropping emptied add chunks).  Compaction also
    /// runs automatically when a list's journal outgrows its bound.
    pub fn compact_journal(&self) {
        self.write_journal().compact_all();
    }

    fn read_journal(&self) -> std::sync::RwLockReadGuard<'_, ChunkJournal> {
        self.journal.read().expect("server journal lock poisoned")
    }

    fn write_journal(&self) -> std::sync::RwLockWriteGuard<'_, ChunkJournal> {
        self.journal.write().expect("server journal lock poisoned")
    }
}

/// Resolves one prefix against every list, in list-name order — the
/// read-only kernel each resolver worker runs over its shard of the batch.
fn resolve_prefix(lists: &BTreeMap<ListName, Blacklist>, prefix: &Prefix) -> Vec<FullHashEntry> {
    let mut entries = Vec::new();
    for (name, blacklist) in lists {
        for digest in blacklist.full_digests(prefix) {
            entries.push(FullHashEntry {
                list: name.clone(),
                digest: *digest,
            });
        }
    }
    entries
}

impl SafeBrowsingService for SafeBrowsingServer {
    /// Serves the exact missing delta for each requested list: the journal
    /// is consulted with the client's advertised chunk ranges, so chunks
    /// the client already holds are never re-sent, and each list's chunks
    /// come back **subs first** (the response ordering contract).  Takes
    /// only read locks, so any number of polls are served concurrently.
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        let lists = self.read_lists();
        // Validate the whole request up-front, as `full_hashes_batch`
        // does: a rejected request costs O(lists), not the deltas of the
        // lists named before the unknown one.
        if let Some((unknown, _)) = request.lists.iter().find(|(l, _)| !lists.contains_key(l)) {
            return Err(ServiceError::ListUnknown(unknown.clone()));
        }
        let journal = self.read_journal();
        let mut chunks = Vec::new();
        for (list, client_state) in &request.lists {
            chunks.extend(journal.missing_chunks(list, client_state));
        }
        Ok(UpdateResponse {
            chunks,
            next_update_seconds: self.next_update_hint(),
        })
    }

    /// Answers a batch of full-hash requests.
    ///
    /// Requests are logged serially (timestamps in arrival order), then the
    /// batch's prefixes are resolved **concurrently**: workers fan out under
    /// [`std::thread::scope`], each handling the prefixes whose lead byte
    /// maps to it, so a worker only ever touches its own [`Blacklist`]
    /// shards.  Responses are reassembled in request order with entries in
    /// the same (prefix order × list order) sequence the serial resolver
    /// produced, so the parallelism is observationally invisible.
    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        // Validate the whole batch up-front: a malformed member rejects the
        // batch without logging anything, as partial application would break
        // the one-response-per-request pairing.
        if let Some(position) = requests.iter().position(|r| r.prefixes.is_empty()) {
            return Err(ServiceError::MalformedRequest {
                reason: format!("full-hash request {position} carries no prefixes"),
            });
        }

        {
            let mut log = self.lock_log();
            for request in requests {
                log.clock += 1;
                let timestamp = log.clock;
                log.query_log.record(LoggedRequest {
                    timestamp,
                    cookie: request.cookie,
                    prefixes: request.prefixes.clone(),
                });
            }
        }

        let lists = self.read_lists();
        // Flatten the batch into (request index, prefix) work items.
        let flat: Vec<(usize, &Prefix)> = requests
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.prefixes.iter().map(move |p| (i, p)))
            .collect();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_RESOLVE_WORKERS);

        // Assign each lead byte present in the batch to one worker,
        // round-robin in order of first appearance: workers own disjoint
        // sets of `Blacklist` shards (no two touch the same shard), the
        // assignment balances whatever lead bytes the batch actually
        // contains, and no thread is spawned without work.  A batch
        // concentrated on a single lead byte degrades to one worker — i.e.
        // to the serial path's performance, never below it.
        let mut worker_of_lead = [usize::MAX; Blacklist::SHARD_COUNT];
        let mut leads_seen = 0usize;
        for (_, prefix) in &flat {
            let lead = shard_of(prefix);
            if worker_of_lead[lead] == usize::MAX {
                worker_of_lead[lead] = leads_seen % workers;
                leads_seen += 1;
            }
        }
        let active_workers = leads_seen.min(workers);

        let resolved: Vec<Vec<FullHashEntry>> =
            if flat.len() < PARALLEL_RESOLVE_THRESHOLD || active_workers <= 1 {
                flat.iter()
                    .map(|(_, p)| resolve_prefix(&lists, p))
                    .collect()
            } else {
                let mut out: Vec<Vec<FullHashEntry>> = vec![Vec::new(); flat.len()];
                std::thread::scope(|scope| {
                    let lists = &*lists;
                    let flat = &flat;
                    let worker_of_lead = &worker_of_lead;
                    let handles: Vec<_> = (0..active_workers)
                        .map(|worker| {
                            scope.spawn(move || {
                                let mut mine = Vec::new();
                                for (slot, (_, prefix)) in flat.iter().enumerate() {
                                    if worker_of_lead[shard_of(prefix)] == worker {
                                        mine.push((slot, resolve_prefix(lists, prefix)));
                                    }
                                }
                                mine
                            })
                        })
                        .collect();
                    for handle in handles {
                        for (slot, entries) in
                            handle.join().expect("full-hash resolver thread panicked")
                        {
                            out[slot] = entries;
                        }
                    }
                });
                out
            };

        let mut responses: Vec<FullHashResponse> = requests
            .iter()
            .map(|_| FullHashResponse::default())
            .collect();
        for ((request_index, _), entries) in flat.iter().zip(resolved) {
            responses[*request_index].entries.extend(entries);
        }
        Ok(responses)
    }
}

/// Errors returned by the simulated server's management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The referenced list does not exist on this server.
    UnknownList(ListName),
    /// The URL could not be canonicalized.
    InvalidUrl(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownList(name) => write!(f, "unknown list `{name}`"),
            ServerError::InvalidUrl(err) => write!(f, "invalid URL: {err}"),
        }
    }
}

impl std::error::Error for ServerError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_hash::prefix32;
    use sb_protocol::{ClientCookie, ClientListState};

    fn server_with_list() -> SafeBrowsingServer {
        let server = SafeBrowsingServer::new(Provider::Google);
        server.create_list("goog-malware-shavar", ThreatCategory::Malware);
        server
    }

    #[test]
    fn standard_lists_match_inventory() {
        let google = SafeBrowsingServer::with_standard_lists(Provider::Google);
        assert_eq!(google.list_names().len(), 5);
        let yandex = SafeBrowsingServer::with_standard_lists(Provider::Yandex);
        // Table 3 has 19 rows but goog-malware-shavar / goog-mobile-only /
        // goog-phish names are shared with the Google inventory, so the
        // name-keyed map holds the distinct names.
        assert_eq!(yandex.list_names().len(), 19);
    }

    #[test]
    fn blacklist_and_full_hash_round_trip() {
        let server = server_with_list();
        let digest = server
            .blacklist_url("goog-malware-shavar", "http://evil.example/mal.html")
            .unwrap();
        let resp = server
            .full_hashes(&FullHashRequest::new(vec![digest.prefix32()]))
            .unwrap();
        assert_eq!(resp.entries.len(), 1);
        assert!(resp.contains_digest(&digest));
        // Unrelated prefix: no entries (and a second log line).
        let resp2 = server
            .full_hashes(&FullHashRequest::new(vec![prefix32("benign.org/")]))
            .unwrap();
        assert!(resp2.entries.is_empty());
        assert_eq!(server.query_log().len(), 2);
    }

    #[test]
    fn unknown_list_errors() {
        let server = SafeBrowsingServer::new(Provider::Google);
        let err = server.blacklist_url("nope", "http://a.b/").unwrap_err();
        assert!(matches!(err, ServerError::UnknownList(_)));
        assert!(err.to_string().contains("nope"));
        let err = server
            .inject_prefixes("nope", vec![prefix32("a/")])
            .unwrap_err();
        assert!(matches!(err, ServerError::UnknownList(_)));
    }

    #[test]
    fn invalid_url_errors() {
        let server = server_with_list();
        let err = server
            .blacklist_url("goog-malware-shavar", "   ")
            .unwrap_err();
        assert!(matches!(err, ServerError::InvalidUrl(_)));
    }

    #[test]
    fn update_serves_only_new_chunks() {
        let server = server_with_list();
        server
            .blacklist_expressions("goog-malware-shavar", ["a.example/", "b.example/"])
            .unwrap();
        server
            .blacklist_expressions("goog-malware-shavar", ["c.example/"])
            .unwrap();

        let all = server
            .update(&UpdateRequest {
                lists: vec![("goog-malware-shavar".into(), ClientListState::default())],
            })
            .unwrap();
        assert_eq!(all.chunks.len(), 2);

        let partial = server
            .update(&UpdateRequest {
                lists: vec![("goog-malware-shavar".into(), ClientListState::up_to(1, 0))],
            })
            .unwrap();
        assert_eq!(partial.chunks.len(), 1);
        assert_eq!(partial.chunks[0].number, 2);
        assert!(partial.next_update_seconds > 0);
    }

    #[test]
    fn sub_chunks_remove_prefixes() {
        let server = server_with_list();
        let digest = server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let removed = server
            .remove_prefixes("goog-malware-shavar", vec![digest.prefix32()])
            .unwrap();
        assert_eq!(removed, 1);
        let snapshot = server.list_snapshot(&"goog-malware-shavar".into()).unwrap();
        assert!(snapshot.is_empty());
        let update = server
            .update(&UpdateRequest {
                lists: vec![("goog-malware-shavar".into(), ClientListState::default())],
            })
            .unwrap();
        assert!(update.chunks.iter().any(|c| c.kind == ChunkKind::Sub));
    }

    #[test]
    fn injected_prefixes_are_orphans() {
        let server = server_with_list();
        let orphan = Prefix::from_u32(0x1234_5678);
        server
            .inject_prefixes("goog-malware-shavar", vec![orphan])
            .unwrap();
        let snapshot = server.list_snapshot(&"goog-malware-shavar".into()).unwrap();
        assert!(snapshot.contains_prefix(&orphan));
        assert_eq!(snapshot.prefix_digest_histogram().orphans, 1);
        // Full-hash request on the orphan returns nothing.
        let resp = server
            .full_hashes(&FullHashRequest::new(vec![orphan]))
            .unwrap();
        assert!(resp.entries.is_empty());
    }

    #[test]
    fn query_log_records_cookie_and_prefixes() {
        let server = server_with_list();
        let cookie = ClientCookie::new(99);
        server
            .full_hashes(
                &FullHashRequest::new(vec![prefix32("a.example/"), prefix32("a.example/x")])
                    .with_cookie(cookie),
            )
            .unwrap();
        let log = server.query_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log.requests()[0].cookie, Some(cookie));
        assert_eq!(log.requests()[0].prefixes.len(), 2);
        assert_eq!(log.requests()[0].timestamp, 1);
        server.clear_query_log();
        assert!(server.query_log().is_empty());
    }

    #[test]
    fn update_for_an_unknown_list_is_a_service_error() {
        let server = server_with_list();
        let err = server
            .update(&UpdateRequest {
                lists: vec![("ghost-shavar".into(), ClientListState::default())],
            })
            .unwrap_err();
        assert_eq!(err, ServiceError::ListUnknown("ghost-shavar".into()));
        assert!(!err.is_retryable());
    }

    #[test]
    fn update_validates_every_list_name_before_serving_any() {
        let server = server_with_list();
        server
            .inject_prefixes(
                "goog-malware-shavar",
                (0..10_000).map(Prefix::from_u32).collect::<Vec<_>>(),
            )
            .unwrap();
        let err = server
            .update(&UpdateRequest {
                lists: vec![
                    ("goog-malware-shavar".into(), ClientListState::default()),
                    ("ghost".into(), ClientListState::default()),
                ],
            })
            .unwrap_err();
        assert_eq!(err, ServiceError::ListUnknown("ghost".into()));
    }

    #[test]
    fn empty_full_hash_request_is_malformed_and_unlogged() {
        let server = server_with_list();
        let requests = [
            FullHashRequest::new(vec![prefix32("a.example/")]),
            FullHashRequest::new(Vec::new()),
        ];
        let err = server.full_hashes_batch(&requests).unwrap_err();
        assert!(matches!(err, ServiceError::MalformedRequest { .. }));
        // A rejected batch leaves no trace in the query log.
        assert!(server.query_log().is_empty());
    }

    #[test]
    fn batch_responses_preserve_request_order_and_log_each_request() {
        let server = server_with_list();
        let hit = server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let requests = [
            FullHashRequest::new(vec![prefix32("miss-one.example/")]),
            FullHashRequest::new(vec![hit.prefix32()]),
            FullHashRequest::new(vec![prefix32("miss-two.example/")]),
        ];
        let responses = server.full_hashes_batch(&requests).unwrap();
        assert_eq!(responses.len(), 3);
        assert!(responses[0].entries.is_empty());
        assert!(responses[1].contains_digest(&hit));
        assert!(responses[2].entries.is_empty());
        // One log line per request, timestamped in order.
        let log = server.query_log();
        assert_eq!(log.len(), 3);
        let timestamps: Vec<u64> = log.requests().iter().map(|r| r.timestamp).collect();
        assert_eq!(timestamps, vec![1, 2, 3]);
    }

    #[test]
    fn large_batches_resolve_concurrently_with_serial_semantics() {
        // Enough prefixes to cross PARALLEL_RESOLVE_THRESHOLD: the fan-out
        // path must produce exactly what the serial path would — same
        // request order, same per-request entry order, same log.
        let server = SafeBrowsingServer::with_standard_lists(Provider::Google);
        let digests: Vec<_> = (0..50)
            .map(|i| {
                server
                    .blacklist_url(
                        "goog-malware-shavar",
                        &format!("http://evil{i}.example/mal.html"),
                    )
                    .unwrap()
            })
            .collect();
        // One multi-prefix request (hits interleaved with misses) plus many
        // single-prefix requests.
        let mut mixed = Vec::new();
        for (i, d) in digests.iter().enumerate().take(20) {
            mixed.push(d.prefix32());
            mixed.push(prefix32(&format!("miss{i}.example/")));
        }
        let mut requests = vec![FullHashRequest::new(mixed)];
        requests.extend(
            digests
                .iter()
                .map(|d| FullHashRequest::new(vec![d.prefix32()])),
        );

        let responses = server.full_hashes_batch(&requests).unwrap();
        assert_eq!(responses.len(), requests.len());
        // The mixed request resolves its 20 hits in prefix order.
        assert_eq!(responses[0].entries.len(), 20);
        for (entry, digest) in responses[0].entries.iter().zip(digests.iter().take(20)) {
            assert_eq!(entry.digest, *digest);
        }
        for (response, digest) in responses[1..].iter().zip(&digests) {
            assert_eq!(response.entries.len(), 1);
            assert!(response.contains_digest(digest));
        }
        // One log line per request, timestamps in arrival order.
        let log = server.query_log();
        assert_eq!(log.len(), requests.len());
        let timestamps: Vec<u64> = log.requests().iter().map(|r| r.timestamp).collect();
        assert_eq!(timestamps, (1..=requests.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_batches_from_many_threads_stay_consistent() {
        let server = SafeBrowsingServer::with_standard_lists(Provider::Google);
        let digest = server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let requests: Vec<FullHashRequest> = (0..40)
                        .map(|i| {
                            FullHashRequest::new(vec![
                                digest.prefix32(),
                                prefix32(&format!("miss{i}.example/")),
                            ])
                        })
                        .collect();
                    let responses = server.full_hashes_batch(&requests).unwrap();
                    for response in responses {
                        assert!(response.contains_digest(&digest));
                        assert_eq!(response.entries.len(), 1);
                    }
                });
            }
        });
        // 8 threads × 40 requests, each logged exactly once with a unique
        // timestamp.
        let log = server.query_log();
        assert_eq!(log.len(), 8 * 40);
        let mut timestamps: Vec<u64> = log.requests().iter().map(|r| r.timestamp).collect();
        timestamps.sort_unstable();
        assert_eq!(timestamps, (1..=(8 * 40) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let server = server_with_list();
        let responses = server.full_hashes_batch(&[]).unwrap();
        assert!(responses.is_empty());
        assert!(server.query_log().is_empty());
    }

    #[test]
    fn total_prefixes_counts_all_lists() {
        let server = SafeBrowsingServer::with_standard_lists(Provider::Google);
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        server
            .blacklist_url("googpub-phish-shavar", "http://phish.example/")
            .unwrap();
        assert_eq!(server.total_prefixes(), 2);
    }

    #[test]
    fn multiple_lists_can_match_one_prefix() {
        let server = SafeBrowsingServer::with_standard_lists(Provider::Yandex);
        server
            .blacklist_url("ydx-malware-shavar", "http://dual.example/")
            .unwrap();
        server
            .blacklist_url("ydx-porno-hosts-top-shavar", "http://dual.example/")
            .unwrap();
        let resp = server
            .full_hashes(&FullHashRequest::new(vec![prefix32("dual.example/")]))
            .unwrap();
        assert_eq!(resp.entries.len(), 2);
        let lists: Vec<String> = resp.entries.iter().map(|e| e.list.to_string()).collect();
        assert!(lists.contains(&"ydx-malware-shavar".to_string()));
        assert!(lists.contains(&"ydx-porno-hosts-top-shavar".to_string()));
    }
}
