//! The client's local prefix database.
//!
//! The database mirrors the provider's blacklists as a set of ℓ-bit
//! prefixes, kept current through add/sub chunks and materialized into a
//! [`GenerationalStore`] for membership queries (Section 2.2.2).
//!
//! # The generational update pipeline
//!
//! Applying an update used to rebuild the whole query structure; now a
//! chunk delta flows through three stages:
//!
//! 1. **Hygiene** — every chunk is validated first (uniform prefix length
//!    matching the database, unique chunk numbers per list within the
//!    response); a malformed response is rejected atomically and the
//!    database is left untouched.  Re-delivery of an already-applied chunk
//!    number is idempotent and skipped.
//! 2. **Ordering** — sub chunks apply before add chunks (ascending chunk
//!    number per list), the contract documented on
//!    [`UpdateResponse`](sb_protocol::UpdateResponse).
//! 3. **Generational apply** — the *net* union-membership delta is
//!    absorbed into the snapshot's overlay; only an overlay past the
//!    [`OverlayPolicy`] bound pays for a full rebuild.  The new snapshot is
//!    published by an atomic [`Arc`] swap, so concurrent readers
//!    ([`DatabaseReader`]) never block on an update and always see a fully
//!    consistent generation.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, RwLock};

use sb_hash::{Prefix, PrefixLen};
use sb_protocol::{Chunk, ChunkKind, ClientListState, ListName, MixedPrefixLengths};
use sb_store::{
    serialize_snapshot, GenerationalStats, GenerationalStore, IndexedPrefixTable, OverlayPolicy,
    PrefixStore, SharedSnapshot, SnapshotError, StoreBackend,
};

/// The atomically-swapped snapshot slot shared by the database and its
/// readers.  The write lock is held only for the pointer swap — the
/// expensive work (overlay clone, any rebuild) happens before publishing —
/// so a reader is never blocked behind a store build.
#[derive(Debug)]
struct SnapshotCell {
    store: RwLock<Arc<GenerationalStore>>,
}

impl SnapshotCell {
    fn new(store: GenerationalStore) -> Self {
        Self::from_arc(Arc::new(store))
    }

    fn from_arc(store: Arc<GenerationalStore>) -> Self {
        SnapshotCell {
            store: RwLock::new(store),
        }
    }

    /// The current snapshot (an `Arc` clone: no allocation, no blocking
    /// beyond the pointer read).
    fn load(&self) -> Arc<GenerationalStore> {
        self.store
            .read()
            .expect("database snapshot lock poisoned")
            .clone()
    }

    fn publish(&self, next: Arc<GenerationalStore>) {
        *self.store.write().expect("database snapshot lock poisoned") = next;
    }
}

/// A shareable read handle onto a [`LocalDatabase`]'s query snapshot.
///
/// Readers on any thread keep resolving lookups against the snapshot that
/// was current when they loaded it, while the owning client applies
/// updates and publishes new generations — lookups never block on an
/// update and never observe a half-applied delta.
///
/// # Examples
///
/// ```
/// use sb_client::LocalDatabase;
/// use sb_hash::{prefix32, PrefixLen};
/// use sb_protocol::Chunk;
/// use sb_store::StoreBackend;
///
/// let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
/// db.subscribe("goog-malware-shavar");
/// let reader = db.reader();
/// db.apply_chunks(&[Chunk::add("goog-malware-shavar", 1, vec![prefix32("evil.example/")])])
///     .unwrap();
/// assert!(reader.contains(&prefix32("evil.example/")));
/// ```
#[derive(Debug, Clone)]
pub struct DatabaseReader {
    cell: Arc<SnapshotCell>,
}

impl DatabaseReader {
    /// Membership test against the snapshot current at call time.
    pub fn contains(&self, prefix: &Prefix) -> bool {
        self.cell.load().contains(prefix)
    }

    /// The base generation of the current snapshot.
    pub fn generation(&self) -> u64 {
        self.cell.load().generation()
    }

    /// Number of prefixes in the current snapshot.
    pub fn prefix_count(&self) -> usize {
        self.cell.load().len()
    }
}

/// A malformed update response rejected by
/// [`LocalDatabase::apply_chunks`].  Validation is atomic: when any chunk
/// is rejected, no chunk of the response has been applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyChunksError {
    /// A chunk mixes prefix lengths.
    MixedPrefixLengths(MixedPrefixLengths),
    /// A chunk's (uniform) prefix length differs from the database's.
    WrongPrefixLength {
        /// The offending chunk's list.
        list: ListName,
        /// The offending chunk's number.
        number: u32,
        /// The prefix length this database stores.
        expected: PrefixLen,
        /// The prefix length the chunk carried.
        found: PrefixLen,
    },
    /// Two distinct chunks in one response share a (list, kind, number).
    DuplicateChunk {
        /// The duplicated chunk's list.
        list: ListName,
        /// The duplicated chunk's kind.
        kind: ChunkKind,
        /// The duplicated chunk number.
        number: u32,
    },
}

impl std::fmt::Display for ApplyChunksError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyChunksError::MixedPrefixLengths(inner) => inner.fmt(f),
            ApplyChunksError::WrongPrefixLength {
                list,
                number,
                expected,
                found,
            } => write!(
                f,
                "chunk {number} of list `{list}` carries {found}-bit prefixes, database stores {expected}-bit"
            ),
            ApplyChunksError::DuplicateChunk { list, kind, number } => {
                let kind = match kind {
                    ChunkKind::Add => "add",
                    ChunkKind::Sub => "sub",
                };
                write!(
                    f,
                    "duplicate {kind} chunk {number} for list `{list}` in one response"
                )
            }
        }
    }
}

impl std::error::Error for ApplyChunksError {}

/// The local, per-list prefix database of a Safe Browsing client.
pub struct LocalDatabase {
    backend: StoreBackend,
    prefix_len: PrefixLen,
    /// Master copy: per-list sets of prefixes — the authoritative
    /// membership the generational store consolidates from when its
    /// overlay outgrows the policy bound.
    lists: BTreeMap<ListName, BTreeSet<Prefix>>,
    /// Per-list chunk state echoed back in update requests.
    states: BTreeMap<ListName, ClientListState>,
    /// Materialized query snapshot over the union of all lists, shared
    /// with any [`DatabaseReader`] handles.
    snapshot: Arc<SnapshotCell>,
    policy: OverlayPolicy,
    /// Shared-snapshot mode (see [`Self::shared_from_snapshot`]): the
    /// query snapshot is borrowed from a donor database, so
    /// [`Self::apply_chunks`] tracks chunk *state* without materializing
    /// prefix data — the fleet-simulation construction that lets 10⁵+
    /// clients share one store.
    shared: bool,
}

impl std::fmt::Debug for LocalDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalDatabase")
            .field("backend", &self.backend)
            .field("prefix_len", &self.prefix_len)
            .field("lists", &self.lists.len())
            .field("prefixes", &self.prefix_count())
            .field("generation", &self.snapshot.load().generation())
            .finish()
    }
}

impl LocalDatabase {
    /// Creates an empty database using the given backend and the default
    /// [`OverlayPolicy`].
    pub fn new(backend: StoreBackend, prefix_len: PrefixLen) -> Self {
        Self::with_overlay_policy(backend, prefix_len, OverlayPolicy::default())
    }

    /// Creates an empty database with an explicit overlay/rebuild policy.
    pub fn with_overlay_policy(
        backend: StoreBackend,
        prefix_len: PrefixLen,
        policy: OverlayPolicy,
    ) -> Self {
        LocalDatabase {
            backend,
            prefix_len,
            lists: BTreeMap::new(),
            states: BTreeMap::new(),
            snapshot: Arc::new(SnapshotCell::new(GenerationalStore::with_policy(
                backend,
                prefix_len,
                std::iter::empty(),
                policy,
            ))),
            policy,
            shared: false,
        }
    }

    /// A database that *shares* a prebuilt query snapshot instead of
    /// owning a master prefix copy — the simulation-friendly construction.
    ///
    /// Lookups resolve against `snapshot` (typically taken from a
    /// reference database via [`Self::snapshot`], an `Arc` clone).
    /// [`Self::apply_chunks`] still runs full response hygiene and records
    /// chunk numbers into the per-list [`ClientListState`] — so update
    /// requests carry the real held-chunk state and the provider computes
    /// real deltas — but prefix data is **not** materialized per client;
    /// the owner of the donor snapshot is responsible for keeping it
    /// current (see [`Self::rebind_snapshot`]).  This keeps the marginal
    /// cost of one more simulated client to a few hundred bytes.
    pub fn shared_from_snapshot(
        backend: StoreBackend,
        prefix_len: PrefixLen,
        snapshot: Arc<GenerationalStore>,
    ) -> Self {
        let mut db = Self::new(backend, prefix_len);
        db.snapshot = Arc::new(SnapshotCell::from_arc(snapshot));
        db.shared = true;
        db
    }

    /// True when this database shares a donor snapshot (see
    /// [`Self::shared_from_snapshot`]).
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    /// Serializes the current membership into the `sb-store` snapshot
    /// format (always the indexed layout, whatever the query backend).
    ///
    /// When the current store base is already snapshot-backed and the
    /// overlay is empty, this is **free** — the returned buffer is an
    /// `Arc` clone of the very bytes the store queries.  Otherwise the
    /// full membership is serialized from the master copy (overlay adds
    /// and tombstones flushed in).
    ///
    /// Returns `None` only for a shared database whose donor snapshot
    /// cannot be cheaply re-serialized (non-empty overlay or a
    /// non-indexed donor base): a shared database holds no master copy to
    /// flush from.
    pub fn save_snapshot(&self) -> Option<Arc<[u8]>> {
        let snap = self.snapshot.load();
        if snap.overlay_len() == 0 {
            if let Some(buf) = snap.base_snapshot() {
                return Some(Arc::clone(buf));
            }
        }
        if self.shared {
            return None;
        }
        let table = IndexedPrefixTable::from_prefixes(self.prefix_len, self.master_prefixes());
        Some(Arc::from(serialize_snapshot(&table).into_boxed_slice()))
    }

    /// Loads a database directly over a serialized snapshot buffer with
    /// the default [`OverlayPolicy`] — the instant-start path: O(header +
    /// index) validation, zero per-row work, no copy of the rows.
    ///
    /// The result is a **shared-mode** database (see
    /// [`Self::shared_from_snapshot`]) whose donor store is built over
    /// `bytes`: lookups resolve against the snapshot, and
    /// [`Self::apply_chunks`] tracks chunk state without materializing
    /// prefix data.  Callers that need an owning master copy repopulate
    /// through the normal update protocol instead.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when `bytes` is not a valid snapshot — typed
    /// rejection, never a panic, nothing partially loaded.
    pub fn load_snapshot(bytes: Arc<[u8]>) -> Result<Self, SnapshotError> {
        let shared = SharedSnapshot::new(bytes)?;
        let prefix_len = shared.prefix_len();
        let store = GenerationalStore::from_shared_snapshot(shared, OverlayPolicy::default());
        Ok(Self::shared_from_snapshot(
            StoreBackend::Indexed,
            prefix_len,
            Arc::new(store),
        ))
    }

    /// Repoints a shared database at a newer donor snapshot (an `Arc`
    /// clone — no data is copied).  Existing [`DatabaseReader`] handles
    /// observe the change atomically, exactly like an owned update.
    ///
    /// # Panics
    ///
    /// Panics when called on an owning database: the owner's snapshot is
    /// derived from its master copy, and rebinding it would desynchronize
    /// the two.
    pub fn rebind_snapshot(&mut self, snapshot: Arc<GenerationalStore>) {
        assert!(
            self.shared,
            "rebind_snapshot is only valid on a shared database"
        );
        self.snapshot.publish(snapshot);
    }

    /// Subscribes to a list (idempotent).
    pub fn subscribe(&mut self, list: impl Into<ListName>) {
        let list = list.into();
        self.lists.entry(list.clone()).or_default();
        self.states.entry(list).or_default();
    }

    /// The lists the client subscribes to, with their chunk state — the body
    /// of an update request.
    pub fn update_request_lists(&self) -> Vec<(ListName, ClientListState)> {
        self.states
            .iter()
            .map(|(name, state)| (name.clone(), state.clone()))
            .collect()
    }

    /// A cheap, cloneable read handle sharing this database's snapshot.
    pub fn reader(&self) -> DatabaseReader {
        DatabaseReader {
            cell: self.snapshot.clone(),
        }
    }

    /// Applies the chunks of an update response through the generational
    /// pipeline.  Chunks for lists the client does not subscribe to are
    /// ignored; chunks whose number the client already holds are skipped
    /// (idempotent re-delivery).  Returns the number of chunks applied.
    ///
    /// Sub chunks are applied before add chunks (ascending number per
    /// list), per the response ordering contract.  The resulting net
    /// union-membership delta is absorbed into the snapshot's overlay; a
    /// full store rebuild happens only when the overlay crosses the
    /// [`OverlayPolicy`] bound.  The new snapshot is published atomically:
    /// concurrent [`DatabaseReader`]s never see a partial delta.
    ///
    /// # Errors
    ///
    /// [`ApplyChunksError`] when the response is malformed (mixed or wrong
    /// prefix lengths, duplicate chunk numbers).  Validation is atomic —
    /// on error, nothing has been applied.
    pub fn apply_chunks(&mut self, chunks: &[Chunk]) -> Result<usize, ApplyChunksError> {
        // ---- phase 1: hygiene over the whole response ----------------------
        let mut seen: HashSet<(&ListName, ChunkKind, u32)> = HashSet::new();
        for chunk in chunks {
            if !self.lists.contains_key(&chunk.list) {
                continue; // unsubscribed lists are ignored wholesale
            }
            match chunk.uniform_prefix_len() {
                Err(mixed) => return Err(ApplyChunksError::MixedPrefixLengths(mixed)),
                Ok(Some(found)) if found != self.prefix_len => {
                    return Err(ApplyChunksError::WrongPrefixLength {
                        list: chunk.list.clone(),
                        number: chunk.number,
                        expected: self.prefix_len,
                        found,
                    });
                }
                Ok(_) => {}
            }
            if !seen.insert((&chunk.list, chunk.kind, chunk.number)) {
                return Err(ApplyChunksError::DuplicateChunk {
                    list: chunk.list.clone(),
                    kind: chunk.kind,
                    number: chunk.number,
                });
            }
        }

        // ---- phase 2: ordering — subs before adds, ascending numbers -------
        let mut subs: Vec<&Chunk> = Vec::new();
        let mut adds: Vec<&Chunk> = Vec::new();
        for chunk in chunks {
            let Some(state) = self.states.get(&chunk.list) else {
                continue;
            };
            if state.holds(chunk.kind, chunk.number) {
                continue; // idempotent re-delivery
            }
            match chunk.kind {
                ChunkKind::Sub => subs.push(chunk),
                ChunkKind::Add => adds.push(chunk),
            }
        }
        subs.sort_by(|a, b| (&a.list, a.number).cmp(&(&b.list, b.number)));
        adds.sort_by(|a, b| (&a.list, a.number).cmp(&(&b.list, b.number)));

        // A shared database tracks chunk *state* only: the donor snapshot
        // carries the data (see `shared_from_snapshot`), so recording the
        // numbers keeps update requests honest while phases 3–4 — the
        // per-client data cost — are skipped entirely.
        if self.shared {
            let mut applied = 0usize;
            for chunk in subs.iter().chain(adds.iter()) {
                self.states
                    .get_mut(&chunk.list)
                    .expect("subscription checked in phase 2")
                    .record(chunk.kind, chunk.number);
                applied += 1;
            }
            return Ok(applied);
        }

        // ---- phase 3: mutate the master copy, tracking the union delta -----
        // `union_before` memoizes each touched prefix's union membership
        // *before* this response, so the net delta handed to the store is
        // exact even when several chunks touch the same prefix.
        let mut union_before: HashMap<Prefix, bool> = HashMap::new();
        let mut applied = 0usize;
        for chunk in subs.iter().chain(adds.iter()) {
            for p in &chunk.prefixes {
                if !union_before.contains_key(p) {
                    union_before.insert(*p, self.union_contains(p));
                }
            }
            let set = self
                .lists
                .get_mut(&chunk.list)
                .expect("subscription checked in phase 2");
            match chunk.kind {
                ChunkKind::Add => {
                    for p in &chunk.prefixes {
                        set.insert(*p);
                    }
                }
                ChunkKind::Sub => {
                    for p in &chunk.prefixes {
                        set.remove(p);
                    }
                }
            }
            self.states
                .get_mut(&chunk.list)
                .expect("subscription checked in phase 2")
                .record(chunk.kind, chunk.number);
            applied += 1;
        }

        // ---- phase 4: absorb the net delta, publish the new snapshot -------
        let mut delta_adds: Vec<Prefix> = Vec::new();
        let mut delta_subs: Vec<Prefix> = Vec::new();
        for (p, before) in &union_before {
            let after = self.union_contains(p);
            match (before, after) {
                (false, true) => delta_adds.push(*p),
                (true, false) => delta_subs.push(*p),
                _ => {}
            }
        }
        if !delta_adds.is_empty() || !delta_subs.is_empty() {
            let mut next = (*self.snapshot.load()).clone();
            next.apply_delta(&delta_adds, &delta_subs);
            if next.needs_rebuild() {
                next.consolidate_from(self.master_prefixes());
            }
            self.snapshot.publish(Arc::new(next));
        }
        Ok(applied)
    }

    /// Membership test against the union of all subscribed lists.
    ///
    /// Loads the current snapshot per call; hot paths probing several
    /// prefixes for one URL should call [`Self::snapshot`] once and query
    /// the returned store directly.
    pub fn contains(&self, prefix: &Prefix) -> bool {
        self.snapshot.load().contains(prefix)
    }

    /// The current query snapshot (an `Arc` clone — no allocation).  All
    /// probes against the returned store see one consistent generation,
    /// and the per-lookup cost drops to a single lock-and-clone however
    /// many decompositions a URL has.
    pub fn snapshot(&self) -> Arc<GenerationalStore> {
        self.snapshot.load()
    }

    /// Number of distinct prefixes across all lists (for a shared
    /// database: the donor snapshot's prefix count).
    pub fn prefix_count(&self) -> usize {
        if self.shared {
            self.snapshot.load().len()
        } else {
            // Each list contributes the members no earlier list holds, so
            // the union is counted without being materialised.
            let mut earlier: Vec<&BTreeSet<Prefix>> = Vec::new();
            let mut count = 0;
            for set in self.lists.values() {
                count += if earlier.is_empty() {
                    set.len()
                } else {
                    set.iter()
                        .filter(|p| !earlier.iter().any(|seen| seen.contains(p)))
                        .count()
                };
                earlier.push(set);
            }
            count
        }
    }

    /// Approximate memory used by the materialized query structure.
    pub fn memory_bytes(&self) -> usize {
        self.snapshot.load().memory_bytes()
    }

    /// The backend in use.
    pub fn backend(&self) -> StoreBackend {
        self.backend
    }

    /// The prefix length stored.
    pub fn prefix_len(&self) -> PrefixLen {
        self.prefix_len
    }

    /// The overlay/rebuild policy in use.
    pub fn overlay_policy(&self) -> OverlayPolicy {
        self.policy
    }

    /// Update-pipeline counters of the current snapshot: generation,
    /// deltas absorbed on the overlay path, full rebuilds, overlay size.
    pub fn store_stats(&self) -> GenerationalStats {
        self.snapshot.load().stats()
    }

    fn union_contains(&self, prefix: &Prefix) -> bool {
        self.lists.values().any(|set| set.contains(prefix))
    }

    /// Every list's prefixes, one list after the other (so a prefix on
    /// two lists appears twice): the store's row sorter dedups, so the
    /// union is never materialised on the way to a rebuild.
    fn master_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.lists.values().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_hash::{digest_url, prefix32};

    fn add_chunk(list: &str, number: u32, exprs: &[&str]) -> Chunk {
        Chunk::add(list, number, exprs.iter().map(|e| prefix32(e)).collect())
    }

    #[test]
    fn apply_add_and_sub_chunks() {
        let mut db = LocalDatabase::new(StoreBackend::DeltaCoded, PrefixLen::L32);
        db.subscribe("goog-malware-shavar");
        let applied = db
            .apply_chunks(&[add_chunk(
                "goog-malware-shavar",
                1,
                &["evil.example/", "bad.example/"],
            )])
            .unwrap();
        assert_eq!(applied, 1);
        assert_eq!(db.prefix_count(), 2);
        assert!(db.contains(&prefix32("evil.example/")));

        let sub = Chunk::sub("goog-malware-shavar", 1, vec![prefix32("evil.example/")]);
        db.apply_chunks(&[sub]).unwrap();
        assert!(!db.contains(&prefix32("evil.example/")));
        assert!(db.contains(&prefix32("bad.example/")));
        assert_eq!(db.prefix_count(), 1);
    }

    #[test]
    fn chunks_for_unsubscribed_lists_are_ignored() {
        let mut db = LocalDatabase::new(StoreBackend::Raw, PrefixLen::L32);
        db.subscribe("goog-malware-shavar");
        let applied = db
            .apply_chunks(&[add_chunk("other-list", 1, &["evil.example/"])])
            .unwrap();
        assert_eq!(applied, 0);
        assert_eq!(db.prefix_count(), 0);
    }

    #[test]
    fn chunk_state_tracks_ranges() {
        let mut db = LocalDatabase::new(StoreBackend::Raw, PrefixLen::L32);
        db.subscribe("l");
        db.apply_chunks(&[
            add_chunk("l", 1, &["a/"]),
            add_chunk("l", 3, &["b/"]),
            Chunk::sub("l", 2, vec![]),
        ])
        .unwrap();
        let lists = db.update_request_lists();
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].1.max_add_chunk(), 3);
        assert_eq!(lists[0].1.max_sub_chunk(), 2);
        // The hole at add 2 is advertised, not papered over.
        assert!(!lists[0].1.holds(ChunkKind::Add, 2));
        assert!(lists[0].1.holds(ChunkKind::Add, 1));
    }

    #[test]
    fn union_across_lists() {
        let mut db = LocalDatabase::new(StoreBackend::Bloom, PrefixLen::L32);
        db.subscribe("a");
        db.subscribe("b");
        db.apply_chunks(&[
            add_chunk("a", 1, &["x.example/"]),
            add_chunk("b", 1, &["y.example/"]),
        ])
        .unwrap();
        assert!(db.contains(&prefix32("x.example/")));
        assert!(db.contains(&prefix32("y.example/")));
        assert_eq!(db.prefix_count(), 2);
        assert!(db.memory_bytes() > 0);
    }

    #[test]
    fn removing_from_one_list_keeps_shared_prefix() {
        // A prefix on two lists survives removal from one: the net union
        // delta is empty and the store must still contain it.
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        db.subscribe("a");
        db.subscribe("b");
        db.apply_chunks(&[
            add_chunk("a", 1, &["shared.example/"]),
            add_chunk("b", 1, &["shared.example/"]),
        ])
        .unwrap();
        db.apply_chunks(&[Chunk::sub("a", 1, vec![prefix32("shared.example/")])])
            .unwrap();
        assert!(db.contains(&prefix32("shared.example/")));
        db.apply_chunks(&[Chunk::sub("b", 1, vec![prefix32("shared.example/")])])
            .unwrap();
        assert!(!db.contains(&prefix32("shared.example/")));
    }

    #[test]
    fn subscribe_is_idempotent() {
        let mut db = LocalDatabase::new(StoreBackend::Raw, PrefixLen::L32);
        db.subscribe("a");
        db.subscribe("a");
        assert_eq!(db.update_request_lists().len(), 1);
        assert_eq!(db.backend(), StoreBackend::Raw);
        assert_eq!(db.prefix_len(), PrefixLen::L32);
    }

    // ---- hygiene ---------------------------------------------------------

    #[test]
    fn mixed_prefix_lengths_are_rejected_atomically() {
        let mut db = LocalDatabase::new(StoreBackend::Raw, PrefixLen::L32);
        db.subscribe("l");
        let mixed = Chunk::add(
            "l",
            2,
            vec![prefix32("a/"), digest_url("b/").prefix(PrefixLen::L64)],
        );
        let err = db
            .apply_chunks(&[add_chunk("l", 1, &["c/"]), mixed])
            .unwrap_err();
        assert!(matches!(err, ApplyChunksError::MixedPrefixLengths(_)));
        assert!(err.to_string().contains("mixes prefix lengths"));
        // Atomic rejection: the valid first chunk was not applied either.
        assert_eq!(db.prefix_count(), 0);
        assert_eq!(db.update_request_lists()[0].1.max_add_chunk(), 0);
    }

    #[test]
    fn wrong_prefix_length_is_rejected() {
        let mut db = LocalDatabase::new(StoreBackend::Raw, PrefixLen::L32);
        db.subscribe("l");
        let wide = Chunk::add("l", 1, vec![digest_url("a/").prefix(PrefixLen::L64)]);
        let err = db.apply_chunks(&[wide]).unwrap_err();
        assert_eq!(
            err,
            ApplyChunksError::WrongPrefixLength {
                list: "l".into(),
                number: 1,
                expected: PrefixLen::L32,
                found: PrefixLen::L64,
            }
        );
        assert!(err.to_string().contains("64-bit"));
    }

    #[test]
    fn duplicate_chunk_numbers_in_one_response_are_rejected() {
        let mut db = LocalDatabase::new(StoreBackend::Raw, PrefixLen::L32);
        db.subscribe("l");
        let err = db
            .apply_chunks(&[add_chunk("l", 1, &["a/"]), add_chunk("l", 1, &["b/"])])
            .unwrap_err();
        assert!(matches!(err, ApplyChunksError::DuplicateChunk { .. }));
        assert!(err.to_string().contains("duplicate add chunk 1"));
        assert_eq!(db.prefix_count(), 0);
        // Same number, different kind: fine (independent number spaces).
        db.apply_chunks(&[add_chunk("l", 1, &["a/"]), Chunk::sub("l", 1, vec![])])
            .unwrap();
        // Duplicates on unsubscribed lists are ignored, not rejected.
        db.apply_chunks(&[
            add_chunk("ghost", 5, &["x/"]),
            add_chunk("ghost", 5, &["y/"]),
        ])
        .unwrap();
    }

    #[test]
    fn re_delivered_chunks_are_skipped_idempotently() {
        let mut db = LocalDatabase::new(StoreBackend::Raw, PrefixLen::L32);
        db.subscribe("l");
        assert_eq!(db.apply_chunks(&[add_chunk("l", 1, &["a/"])]).unwrap(), 1);
        // The provider re-sends chunk 1 with different content; the client
        // holds it already, so nothing is applied.
        assert_eq!(db.apply_chunks(&[add_chunk("l", 1, &["b/"])]).unwrap(), 0);
        assert!(db.contains(&prefix32("a/")));
        assert!(!db.contains(&prefix32("b/")));
    }

    // ---- ordering --------------------------------------------------------

    #[test]
    fn subs_apply_before_adds_within_one_response() {
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        db.subscribe("l");
        db.apply_chunks(&[add_chunk("l", 1, &["churn.example/"])])
            .unwrap();
        // One response both removes (sub) and re-adds the prefix; the
        // ordering contract says it must end up present — even though the
        // add chunk appears *before* the sub in the response vector.
        db.apply_chunks(&[
            add_chunk("l", 2, &["churn.example/"]),
            Chunk::sub("l", 1, vec![prefix32("churn.example/")]),
        ])
        .unwrap();
        assert!(db.contains(&prefix32("churn.example/")));
    }

    // ---- generational pipeline -------------------------------------------

    #[test]
    fn small_deltas_take_the_overlay_path() {
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        db.subscribe("l");
        let bulk: Vec<Prefix> = (0..10_000).map(Prefix::from_u32).collect();
        db.apply_chunks(&[Chunk::add("l", 1, bulk)]).unwrap();
        // The initial bulk load consolidates (it dwarfs the overlay bound);
        // what matters is that the *small* delta afterwards does not.
        let before = db.store_stats();

        // A ~1% delta must be absorbed without a rebuild.
        let delta: Vec<Prefix> = (20_000..20_100).map(Prefix::from_u32).collect();
        db.apply_chunks(&[
            Chunk::add("l", 2, delta),
            Chunk::sub("l", 1, vec![Prefix::from_u32(5)]),
        ])
        .unwrap();
        let stats = db.store_stats();
        assert_eq!(
            stats.generation, before.generation,
            "no rebuild for a small delta"
        );
        assert_eq!(stats.rebuilds, before.rebuilds);
        assert!(stats.deltas_absorbed > before.deltas_absorbed);
        assert!(stats.overlay_len > 0);
        assert!(db.contains(&Prefix::from_u32(20_050)));
        assert!(!db.contains(&Prefix::from_u32(5)));
        assert_eq!(db.prefix_count(), 10_099);
    }

    #[test]
    fn oversized_overlay_triggers_consolidation() {
        let policy = OverlayPolicy {
            min_overlay: 4,
            max_overlay_fraction: 0.0,
        };
        let mut db =
            LocalDatabase::with_overlay_policy(StoreBackend::Indexed, PrefixLen::L32, policy);
        db.subscribe("l");
        db.apply_chunks(&[Chunk::add("l", 1, (0..100).map(Prefix::from_u32).collect())])
            .unwrap();
        let before = db.store_stats();
        // 10 overlay entries > bound of 4: the apply consolidates.
        db.apply_chunks(&[Chunk::add(
            "l",
            2,
            (1000..1010).map(Prefix::from_u32).collect(),
        )])
        .unwrap();
        let stats = db.store_stats();
        assert_eq!(stats.rebuilds, before.rebuilds + 1);
        assert_eq!(stats.generation, before.generation + 1);
        assert_eq!(stats.overlay_len, 0, "consolidation empties the overlay");
        assert!(db.contains(&Prefix::from_u32(1005)));
        assert_eq!(db.prefix_count(), 110);
    }

    #[test]
    fn prefix_count_counts_overlapping_lists_once() {
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        for list in ["a", "b", "c"] {
            db.subscribe(list);
        }
        db.apply_chunks(&[
            Chunk::add("a", 1, (0..10).map(Prefix::from_u32).collect()),
            Chunk::add("b", 1, (5..15).map(Prefix::from_u32).collect()),
            // Overlaps both earlier lists, and holds one prefix of its own.
            Chunk::add("c", 1, (8..13).chain([99]).map(Prefix::from_u32).collect()),
        ])
        .unwrap();
        assert_eq!(db.prefix_count(), 16);
        let union: BTreeSet<Prefix> = db.master_prefixes().collect();
        assert_eq!(db.prefix_count(), union.len());
        assert!(format!("{db:?}").contains("prefixes: 16"));
    }

    // ---- snapshot persistence --------------------------------------------

    #[test]
    fn save_and_load_snapshot_round_trip() {
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        db.subscribe("l");
        let bulk: Vec<Prefix> = (0..5000).map(Prefix::from_u32).collect();
        db.apply_chunks(&[Chunk::add("l", 1, bulk)]).unwrap();

        let bytes = db.save_snapshot().expect("owning database always saves");
        let loaded = LocalDatabase::load_snapshot(bytes).expect("valid snapshot");
        assert!(loaded.is_shared());
        assert_eq!(loaded.prefix_len(), PrefixLen::L32);
        assert_eq!(loaded.prefix_count(), db.prefix_count());
        for v in 0..6000u32 {
            let p = Prefix::from_u32(v);
            assert_eq!(loaded.contains(&p), db.contains(&p), "{v}");
        }
    }

    #[test]
    fn save_with_pending_overlay_flushes_it() {
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        db.subscribe("l");
        db.apply_chunks(&[Chunk::add(
            "l",
            1,
            (0..5000).map(Prefix::from_u32).collect(),
        )])
        .unwrap();
        // A small delta sits on the overlay — the saved snapshot must
        // include it anyway.
        db.apply_chunks(&[
            Chunk::add("l", 2, vec![Prefix::from_u32(99_999)]),
            Chunk::sub("l", 1, vec![Prefix::from_u32(7)]),
        ])
        .unwrap();
        assert!(db.store_stats().overlay_len > 0, "delta stayed on overlay");

        let loaded = LocalDatabase::load_snapshot(db.save_snapshot().unwrap()).unwrap();
        assert!(loaded.contains(&Prefix::from_u32(99_999)));
        assert!(!loaded.contains(&Prefix::from_u32(7)));
        assert_eq!(loaded.prefix_count(), 5000);
    }

    #[test]
    fn save_of_consolidated_base_shares_the_queried_bytes() {
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        db.subscribe("l");
        // 10k prefixes exceed the default overlay bound, forcing a
        // consolidation that leaves the overlay empty.
        db.apply_chunks(&[Chunk::add(
            "l",
            1,
            (0..10_000).map(Prefix::from_u32).collect(),
        )])
        .unwrap();
        assert_eq!(db.store_stats().overlay_len, 0);
        let saved = db.save_snapshot().unwrap();
        let base = db.snapshot();
        let base_buf = base
            .base_snapshot()
            .expect("indexed base is snapshot-backed");
        assert!(
            Arc::ptr_eq(&saved, base_buf),
            "empty-overlay save is an Arc clone of the queried bytes"
        );
    }

    #[test]
    fn non_indexed_backends_also_save_indexed_snapshots() {
        let mut db = LocalDatabase::new(StoreBackend::DeltaCoded, PrefixLen::L32);
        db.subscribe("l");
        db.apply_chunks(&[Chunk::add("l", 1, (0..100).map(Prefix::from_u32).collect())])
            .unwrap();
        let loaded = LocalDatabase::load_snapshot(db.save_snapshot().unwrap()).unwrap();
        assert_eq!(loaded.prefix_count(), 100);
        assert!(loaded.contains(&Prefix::from_u32(50)));
    }

    #[test]
    fn load_snapshot_rejects_garbage() {
        let err = LocalDatabase::load_snapshot(Arc::from(vec![0u8; 40].into_boxed_slice()));
        assert!(err.is_err());
        let err = LocalDatabase::load_snapshot(Arc::from(Vec::new().into_boxed_slice()));
        assert!(err.is_err());
    }

    #[test]
    fn loaded_database_tracks_chunk_state_without_data() {
        let mut donor = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        donor.subscribe("l");
        donor
            .apply_chunks(&[add_chunk("l", 1, &["evil.example/"])])
            .unwrap();
        let mut loaded = LocalDatabase::load_snapshot(donor.save_snapshot().unwrap()).unwrap();
        loaded.subscribe("l");
        // Chunk state is recorded (honest update requests)...
        assert_eq!(
            loaded
                .apply_chunks(&[add_chunk("l", 5, &["new.example/"])])
                .unwrap(),
            1
        );
        assert!(loaded.update_request_lists()[0].1.holds(ChunkKind::Add, 5));
        // ...but data stays donor-backed (shared mode: no materialization).
        assert!(loaded.contains(&prefix32("evil.example/")));
        assert!(!loaded.contains(&prefix32("new.example/")));
    }

    #[test]
    fn readers_see_published_generations() {
        let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        db.subscribe("l");
        let reader = db.reader();
        assert!(!reader.contains(&prefix32("a/")));
        assert_eq!(reader.prefix_count(), 0);
        db.apply_chunks(&[add_chunk("l", 1, &["a/"])]).unwrap();
        assert!(reader.contains(&prefix32("a/")));
        assert_eq!(reader.prefix_count(), 1);
        // Readers are cloneable and independent.
        let other = reader.clone();
        assert!(other.contains(&prefix32("a/")));
        assert_eq!(other.generation(), reader.generation());
    }
}
