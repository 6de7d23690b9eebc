//! The per-list chunk journal: the server-side source of incremental
//! updates.
//!
//! Every blacklist mutation appends a numbered add/sub chunk to its list's
//! journal.  An update request carries the exact chunk ranges the client
//! holds ([`ClientListState`]), so [`ChunkJournal::missing_chunks`] serves
//! precisely the delta — no replay of already-applied history, no scan over
//! other lists' chunks.
//!
//! Unbounded append would make the journal (and a fresh client's first
//! update) grow forever, so the journal **compacts**: a sub chunk's
//! prefixes are netted out of the *earlier* add chunks they cancel, and add
//! chunks that become empty are dropped.  Sub chunks are never dropped —
//! a client that already holds the original (un-netted) add chunk still
//! needs the sub to remove the prefix; a fresh client applies the sub as a
//! harmless no-op.  Netting only touches prefixes that are not re-added by
//! a *later* add chunk, so the subs-before-adds application order of
//! [`UpdateResponse`](sb_protocol::UpdateResponse) converges to the same
//! membership for every client, however stale.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use sb_hash::Prefix;
use sb_protocol::{Chunk, ChunkKind, ClientListState, ListName};
use sb_telemetry::{Counter, Telemetry, TraceKind};

/// Journal of one list: chronological chunks plus the number allocators.
#[derive(Debug, Default, Clone)]
struct ListJournal {
    /// Chunks in append (chronological) order — the true mutation order,
    /// which compaction relies on.
    chunks: Vec<Chunk>,
    /// Next add-chunk number to allocate (numbers start at 1).
    next_add: u32,
    /// Next sub-chunk number to allocate.
    next_sub: u32,
    /// Live chunk count right after the last compaction pass — the
    /// baseline of the geometric re-compaction trigger.  Compaction
    /// cannot shrink below the un-nettable chunks (subs are never
    /// dropped; a pure-add history nets nothing), so retriggering on a
    /// fixed size would re-walk the whole journal on *every* append once
    /// past the bound.  Requiring the journal to grow by half since the
    /// last pass keeps the amortized cost per append O(1).
    compacted_at: usize,
}

impl ListJournal {
    fn allocate(&mut self, kind: ChunkKind) -> u32 {
        let counter = match kind {
            ChunkKind::Add => &mut self.next_add,
            ChunkKind::Sub => &mut self.next_sub,
        };
        *counter += 1;
        *counter
    }
}

/// Aggregate statistics over a [`ChunkJournal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Lists with at least one journal entry.
    pub lists: usize,
    /// Add chunks currently live in the journal.
    pub add_chunks: usize,
    /// Sub chunks currently live in the journal.
    pub sub_chunks: usize,
    /// Prefix entries *stored* across all live chunks, subs included.
    /// Serving nets adds against later subs before compaction has, so this
    /// is an upper bound on the prefixes a fresh client's replay carries,
    /// not the count itself.
    pub live_prefixes: usize,
    /// Chunks appended over the journal's lifetime.
    pub appends: usize,
    /// Prefixes removed from add chunks by compaction netting.
    pub netted_prefixes: usize,
    /// Add chunks dropped because netting emptied them.
    pub dropped_chunks: usize,
    /// Compaction passes run (automatic + explicit).
    pub compactions: usize,
}

/// The journal's registered metric handles (under `journal.*`): the only
/// store of its lifetime counters, read back by [`ChunkJournal::stats`].
#[derive(Debug)]
struct JournalHandles {
    appends: Counter,
    netted_prefixes: Counter,
    dropped_chunks: Counter,
    compactions: Counter,
}

impl JournalHandles {
    fn register(telemetry: &Telemetry) -> Self {
        let metrics = telemetry.metrics();
        JournalHandles {
            appends: metrics.counter("journal.appends"),
            netted_prefixes: metrics.counter("journal.netted_prefixes"),
            dropped_chunks: metrics.counter("journal.dropped_chunks"),
            compactions: metrics.counter("journal.compactions"),
        }
    }

    fn counters(&self) -> [&Counter; 4] {
        [
            &self.appends,
            &self.netted_prefixes,
            &self.dropped_chunks,
            &self.compactions,
        ]
    }
}

/// The server's chunk journal: one per-list journal with append, delta
/// computation and compaction.
#[derive(Debug)]
pub struct ChunkJournal {
    lists: BTreeMap<ListName, ListJournal>,
    /// A list is compacted automatically when its live chunk count exceeds
    /// this bound after an append.
    auto_compact_above: usize,
    telemetry: Telemetry,
    handles: JournalHandles,
}

/// Default per-list chunk count above which an append triggers compaction.
pub const DEFAULT_AUTO_COMPACT_ABOVE: usize = 64;

impl Default for ChunkJournal {
    fn default() -> Self {
        Self::new(DEFAULT_AUTO_COMPACT_ABOVE)
    }
}

impl ChunkJournal {
    /// Creates an empty journal with the given auto-compaction bound.
    pub fn new(auto_compact_above: usize) -> Self {
        let telemetry = Telemetry::default();
        let handles = JournalHandles::register(&telemetry);
        ChunkJournal {
            lists: BTreeMap::new(),
            auto_compact_above,
            telemetry,
            handles,
        }
    }

    /// Publishes the journal's counters (and chunk-apply / compaction
    /// trace events) into a shared [`Telemetry`] plane instead of the
    /// one it has published into so far; the counts so far are added onto
    /// the new plane, so [`Self::stats`] loses nothing.  Pass a plane other than
    /// the current one: its own counts would be added to themselves.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        let handles = JournalHandles::register(&telemetry);
        for (to, from) in handles.counters().into_iter().zip(self.handles.counters()) {
            to.add(from.get());
        }
        self.handles = handles;
        self.telemetry = telemetry;
        self
    }

    /// The telemetry plane the journal publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Appends a chunk to `list`, allocating its number.  Returns the
    /// allocated chunk number.  Compacts the list automatically when its
    /// journal has outgrown the bound *and* grown by half since the last
    /// pass (amortized O(1) per append — see `ListJournal::compacted_at`).
    pub fn append(&mut self, list: ListName, kind: ChunkKind, prefixes: Vec<Prefix>) -> u32 {
        let journal = self.lists.entry(list.clone()).or_default();
        let number = journal.allocate(kind);
        journal.chunks.push(Chunk {
            list: list.clone(),
            number,
            kind,
            prefixes,
        });
        let prefix_count = journal.chunks.last().map_or(0, |c| c.prefixes.len());
        let len = journal.chunks.len();
        let due =
            len > self.auto_compact_above && len >= journal.compacted_at + journal.compacted_at / 2;
        self.handles.appends.inc();
        self.telemetry
            .event(TraceKind::ChunkApply, prefix_count as u64);
        if due {
            self.compact_list_inner(&list);
        }
        number
    }

    /// The chunks of `list` the client is missing, **sub chunks first**,
    /// each group in ascending chunk number — the emission side of the
    /// response ordering contract.
    ///
    /// The served view is *netted*: an add chunk's copy of `p` is
    /// stripped iff some chronologically later sub chunk of the **whole
    /// journal** carries `p`, whether or not that sub is in the response.
    /// Subs-before-adds application would otherwise resurrect a removed
    /// prefix (the sub applies first, then the add re-inserts) —
    /// permanently so on a client that holds the sub but not the add it
    /// cancels.  It also makes the served view identical to what stored
    /// compaction would persist, so a response does not depend on whether
    /// compaction has run yet.  Adds emptied by netting are still emitted
    /// (number intact, no prefixes) so the client records them as applied
    /// instead of re-requesting them forever.
    ///
    /// Cost follows what the client lacks, not what the journal holds: a
    /// caught-up client is answered from `(kind, number)` comparisons
    /// alone, a delta reads the chunks from its oldest missing add
    /// onwards, and only a fresh client walks the whole list.
    pub fn missing_chunks(&self, list: &ListName, state: &ClientListState) -> Vec<Chunk> {
        let Some(journal) = self.lists.get(list) else {
            return Vec::new();
        };
        // Numbers are allocated in append order and compaction never
        // reorders, so each kind is already ascending in `chunks`.
        let chunks = &journal.chunks;
        let lacks = |chunk: &Chunk| !state.holds(chunk.kind, chunk.number);
        let mut missing: Vec<Chunk> = chunks
            .iter()
            .filter(|c| c.kind == ChunkKind::Sub && lacks(c))
            .cloned()
            .collect();
        missing.extend(netted_adds(chunks, lacks).into_iter().map(|add| {
            Chunk::add(
                list.clone(),
                chunks[add.idx].number,
                add.prefixes.into_owned(),
            )
        }));
        missing
    }

    /// True when the journal has entries for `list`.
    pub fn has_list(&self, list: &ListName) -> bool {
        self.lists.contains_key(list)
    }

    /// Compacts one list now (netting + empty-add-chunk dropping).
    pub fn compact_list(&mut self, list: &ListName) {
        self.compact_list_inner(list);
    }

    /// Compacts every list now.
    pub fn compact_all(&mut self) {
        let names: Vec<ListName> = self.lists.keys().cloned().collect();
        for name in &names {
            self.compact_list_inner(name);
        }
    }

    /// Aggregate statistics: the live-journal fields are counted here, the
    /// lifetime counters are a view over the `journal.*` metrics in the
    /// telemetry registry.
    pub fn stats(&self) -> JournalStats {
        let mut stats = JournalStats {
            lists: self.lists.len(),
            appends: self.handles.appends.get() as usize,
            netted_prefixes: self.handles.netted_prefixes.get() as usize,
            dropped_chunks: self.handles.dropped_chunks.get() as usize,
            compactions: self.handles.compactions.get() as usize,
            ..JournalStats::default()
        };
        for journal in self.lists.values() {
            for chunk in &journal.chunks {
                match chunk.kind {
                    ChunkKind::Add => stats.add_chunks += 1,
                    ChunkKind::Sub => stats.sub_chunks += 1,
                }
                stats.live_prefixes += chunk.prefixes.len();
            }
        }
        stats
    }

    /// The stored netting pass: every add chunk [`netted_adds`] changed is
    /// replaced by its netted form, and dropped when that form is empty.
    /// Sub chunks are kept verbatim (stale clients need them).
    fn compact_list_inner(&mut self, list: &ListName) {
        let Some(journal) = self.lists.get_mut(list) else {
            return;
        };
        let changed: Vec<(usize, Vec<Prefix>, usize)> = netted_adds(&journal.chunks, |_| true)
            .into_iter()
            .filter_map(|add| match add.prefixes {
                Cow::Owned(prefixes) => Some((add.idx, prefixes, add.stripped)),
                Cow::Borrowed(_) => None,
            })
            .collect();
        let mut changed = changed.into_iter().peekable();
        let mut netted_count = 0usize;
        let mut dropped = 0usize;
        let mut kept: Vec<Chunk> = Vec::with_capacity(journal.chunks.len());
        for (idx, mut chunk) in journal.chunks.drain(..).enumerate() {
            if let Some((_, prefixes, stripped)) = changed.next_if(|(at, ..)| *at == idx) {
                netted_count += stripped;
                if prefixes.is_empty() {
                    dropped += 1;
                    continue; // an emptied add chunk vanishes
                }
                chunk.prefixes = prefixes;
            }
            kept.push(chunk);
        }
        journal.compacted_at = kept.len();
        journal.chunks = kept;
        let live = journal.compacted_at;
        self.handles.netted_prefixes.add(netted_count as u64);
        self.handles.dropped_chunks.add(dropped as u64);
        self.handles.compactions.inc();
        self.telemetry.event(TraceKind::Compaction, live as u64);
    }
}

/// One wanted add chunk as [`netted_adds`] nets it.
struct NettedAdd<'a> {
    /// The chunk's position in the journal's chronological order.
    idx: usize,
    /// The chunk's prefixes without the netted ones — borrowed when none
    /// was netted, so an untouched chunk is never copied here.
    prefixes: Cow<'a, [Prefix]>,
    /// Distinct prefixes netted out of this chunk.
    stripped: usize,
}

/// The netting rule, in the one function that serve-time netting
/// ([`ChunkJournal::missing_chunks`]) and stored compaction share — which
/// is what guarantees the served view and the stored view net identically:
/// **an add chunk's copy of `p` is stripped iff some chronologically later
/// sub chunk carries `p`.**  A copy added *after* the sub stays — the
/// prefix was re-added.
///
/// One newest → oldest walk carries the prefixes of the sub chunks passed
/// so far and nets each add chunk `wanted` selects against them, stopping
/// at the oldest wanted add: nothing older can change the answer.  With no
/// add wanted no chunk body is read and nothing is allocated.  Returns the
/// wanted adds in chronological order.
fn netted_adds(chunks: &[Chunk], wanted: impl Fn(&Chunk) -> bool) -> Vec<NettedAdd<'_>> {
    let is_wanted = |chunk: &Chunk| chunk.kind == ChunkKind::Add && wanted(chunk);
    let Some(oldest) = chunks.iter().position(is_wanted) else {
        return Vec::new();
    };
    // Later-sub prefix → the add chunk it was last stripped from, so a
    // prefix a chunk carries twice counts once in `stripped`.
    let mut later_subs: HashMap<Prefix, usize> = HashMap::new();
    let mut netted = Vec::new();
    for (idx, chunk) in chunks.iter().enumerate().skip(oldest).rev() {
        if chunk.kind == ChunkKind::Sub {
            later_subs.extend(chunk.prefixes.iter().map(|p| (*p, usize::MAX)));
        } else if is_wanted(chunk) {
            let all = chunk.prefixes.as_slice();
            let mut stripped = 0usize;
            let prefixes = match all.iter().position(|p| later_subs.contains_key(p)) {
                None => Cow::Borrowed(all),
                Some(first) => {
                    let mut kept = Vec::with_capacity(all.len());
                    kept.extend_from_slice(&all[..first]);
                    kept.extend(all[first..].iter().filter(|p| {
                        let Some(last) = later_subs.get_mut(p) else {
                            return true;
                        };
                        if *last != idx {
                            *last = idx;
                            stripped += 1;
                        }
                        false
                    }));
                    Cow::Owned(kept)
                }
            };
            netted.push(NettedAdd {
                idx,
                prefixes,
                stripped,
            });
        }
    }
    netted.reverse();
    netted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> Prefix {
        Prefix::from_u32(v)
    }

    fn list() -> ListName {
        ListName::new("goog-malware-shavar")
    }

    #[test]
    fn append_allocates_independent_number_spaces() {
        let mut journal = ChunkJournal::default();
        assert_eq!(journal.append(list(), ChunkKind::Add, vec![p(1)]), 1);
        assert_eq!(journal.append(list(), ChunkKind::Add, vec![p(2)]), 2);
        assert_eq!(journal.append(list(), ChunkKind::Sub, vec![p(1)]), 1);
        assert_eq!(journal.append(list(), ChunkKind::Add, vec![p(3)]), 3);
        let stats = journal.stats();
        assert_eq!(stats.appends, 4);
        assert_eq!(stats.add_chunks, 3);
        assert_eq!(stats.sub_chunks, 1);
    }

    #[test]
    fn missing_chunks_serves_exact_delta_subs_first() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]); // add 1
        journal.append(list(), ChunkKind::Add, vec![p(2)]); // add 2
        journal.append(list(), ChunkKind::Sub, vec![p(1)]); // sub 1
        journal.append(list(), ChunkKind::Add, vec![p(3)]); // add 3

        // Client holds add 2 only (out-of-order hole at add 1).
        let mut state = ClientListState::default();
        state.record(ChunkKind::Add, 2);
        let missing = journal.missing_chunks(&list(), &state);
        let shape: Vec<(ChunkKind, u32)> = missing.iter().map(|c| (c.kind, c.number)).collect();
        assert_eq!(
            shape,
            vec![
                (ChunkKind::Sub, 1),
                (ChunkKind::Add, 1),
                (ChunkKind::Add, 3),
            ]
        );

        // A fully caught-up client gets nothing.
        let mut caught_up = ClientListState::default();
        for n in 1..=3 {
            caught_up.record(ChunkKind::Add, n);
        }
        caught_up.record(ChunkKind::Sub, 1);
        assert!(journal.missing_chunks(&list(), &caught_up).is_empty());
    }

    #[test]
    fn served_adds_are_netted_against_later_subs_in_the_same_response() {
        // Server chronology: add {1, 2}, then remove {1}.  A fresh client
        // applies subs first, so serving the add un-netted would
        // resurrect p(1).  The served add must carry only p(2).
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1), p(2)]);
        journal.append(list(), ChunkKind::Sub, vec![p(1)]);

        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        let add = missing.iter().find(|c| c.kind == ChunkKind::Add).unwrap();
        assert_eq!(add.prefixes, vec![p(2)]);
        let sub = missing.iter().find(|c| c.kind == ChunkKind::Sub).unwrap();
        assert_eq!(sub.prefixes, vec![p(1)], "the sub itself stays intact");

        // Subs-first application converges to the server's membership.
        let mut membership = std::collections::BTreeSet::new();
        for chunk in &missing {
            match chunk.kind {
                ChunkKind::Sub => {
                    for q in &chunk.prefixes {
                        membership.remove(q);
                    }
                }
                ChunkKind::Add => membership.extend(chunk.prefixes.iter().copied()),
            }
        }
        assert_eq!(membership.into_iter().collect::<Vec<_>>(), vec![p(2)]);

        // Netting is computed over the whole journal, not just the served
        // chunks: a client already holding the sub (a hole state the range
        // protocol can express) must get the add netted too, or applying
        // it would permanently resurrect p(1) on that client.
        let mut holds_sub = ClientListState::default();
        holds_sub.record(ChunkKind::Sub, 1);
        let for_synced = journal.missing_chunks(&list(), &holds_sub);
        assert_eq!(for_synced.len(), 1);
        assert_eq!(for_synced[0].prefixes, vec![p(2)]);
    }

    #[test]
    fn served_netting_respects_re_adds() {
        // add {1}, sub {1}, add {1} again: the final add keeps p(1), the
        // first is netted — replay converges to "present".
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]);
        journal.append(list(), ChunkKind::Sub, vec![p(1)]);
        journal.append(list(), ChunkKind::Add, vec![p(1)]);

        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        let adds: Vec<&Chunk> = missing
            .iter()
            .filter(|c| c.kind == ChunkKind::Add)
            .collect();
        assert_eq!(adds[0].number, 1);
        assert!(adds[0].prefixes.is_empty(), "first add netted");
        assert_eq!(adds[1].number, 2);
        assert_eq!(adds[1].prefixes, vec![p(1)], "re-add survives");
    }

    #[test]
    fn unknown_list_has_no_chunks() {
        let journal = ChunkJournal::default();
        assert!(journal
            .missing_chunks(&list(), &ClientListState::default())
            .is_empty());
        assert!(!journal.has_list(&list()));
    }

    #[test]
    fn compaction_nets_subbed_prefixes_out_of_earlier_adds() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1), p(2)]);
        journal.append(list(), ChunkKind::Sub, vec![p(1)]);
        journal.compact_list(&list());

        let stats = journal.stats();
        assert_eq!(stats.netted_prefixes, 1);
        assert_eq!(stats.dropped_chunks, 0);
        assert_eq!(stats.compactions, 1);

        // Fresh client: add 1 now carries only p(2); the sub is preserved.
        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        let add = missing.iter().find(|c| c.kind == ChunkKind::Add).unwrap();
        assert_eq!(add.prefixes, vec![p(2)]);
        let sub = missing.iter().find(|c| c.kind == ChunkKind::Sub).unwrap();
        assert_eq!(sub.prefixes, vec![p(1)]);
    }

    #[test]
    fn compaction_drops_emptied_add_chunks_but_keeps_subs() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]);
        journal.append(list(), ChunkKind::Sub, vec![p(1)]);
        journal.compact_list(&list());

        let stats = journal.stats();
        assert_eq!(stats.dropped_chunks, 1);
        assert_eq!(stats.add_chunks, 0);
        assert_eq!(stats.sub_chunks, 1);

        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].kind, ChunkKind::Sub);
    }

    #[test]
    fn compaction_keeps_re_added_prefixes() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]); // add 1: netted
        journal.append(list(), ChunkKind::Sub, vec![p(1)]); // sub 1
        journal.append(list(), ChunkKind::Add, vec![p(1)]); // add 2: re-added, kept
        journal.compact_list(&list());

        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        let adds: Vec<&Chunk> = missing
            .iter()
            .filter(|c| c.kind == ChunkKind::Add)
            .collect();
        assert_eq!(adds.len(), 1);
        assert_eq!(adds[0].number, 2);
        assert_eq!(adds[0].prefixes, vec![p(1)]);

        // Fresh-client application (subs first) converges to {p(1)}.
        let mut membership = std::collections::BTreeSet::new();
        for chunk in &missing {
            match chunk.kind {
                ChunkKind::Sub => {
                    for q in &chunk.prefixes {
                        membership.remove(q);
                    }
                }
                ChunkKind::Add => membership.extend(chunk.prefixes.iter().copied()),
            }
        }
        assert!(membership.contains(&p(1)));
    }

    #[test]
    fn auto_compaction_bounds_journal_growth() {
        let mut journal = ChunkJournal::new(8);
        // Alternate add/sub of the same prefix: history grows, membership
        // stays empty — compaction keeps only the subs.
        for _ in 0..16 {
            journal.append(list(), ChunkKind::Add, vec![p(7)]);
            journal.append(list(), ChunkKind::Sub, vec![p(7)]);
        }
        let auto = journal.stats();
        assert!(auto.compactions > 0, "auto-compaction must have fired");
        // The trigger is geometric (amortized O(1) per append), so a tail
        // of un-netted chunks may remain; an explicit pass finishes it.
        journal.compact_all();
        let stats = journal.stats();
        assert_eq!(stats.add_chunks, 0, "all adds were netted away");
        // A fresh client's replay cost is bounded by the surviving subs.
        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        assert!(missing.iter().all(|c| c.kind == ChunkKind::Sub));
    }

    #[test]
    fn auto_compaction_is_amortized_not_per_append() {
        // A pure-add journal has nothing to net, so compaction can never
        // shrink it below the bound; the geometric trigger must not
        // degenerate into one full-journal pass per append.
        let mut journal = ChunkJournal::new(4);
        for i in 0..200u32 {
            journal.append(list(), ChunkKind::Add, vec![p(i)]);
        }
        let stats = journal.stats();
        assert_eq!(stats.add_chunks, 200, "nothing nettable, nothing lost");
        assert!(
            stats.compactions <= 16,
            "expected O(log n) passes over 200 appends, got {}",
            stats.compactions
        );
    }

    #[test]
    fn stats_count_live_prefixes() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1), p(2), p(3)]);
        journal.append(ListName::new("other"), ChunkKind::Add, vec![p(9)]);
        let stats = journal.stats();
        assert_eq!(stats.lists, 2);
        assert_eq!(stats.live_prefixes, 4);
    }

    #[test]
    fn stats_and_registry_agree_after_a_late_with_telemetry() {
        let mut journal = ChunkJournal::new(2);
        journal.append(list(), ChunkKind::Add, vec![p(1), p(2)]);
        journal.append(list(), ChunkKind::Add, vec![p(3)]);
        journal.append(list(), ChunkKind::Sub, vec![p(3)]);
        let before = journal.stats();
        assert!(before.compactions >= 1 && before.dropped_chunks == 1);

        // The counts so far move onto the new plane; later events land on
        // it too, so the two views never diverge.
        let plane = Telemetry::default();
        let mut journal = journal.with_telemetry(plane.clone());
        assert_eq!(journal.stats(), before);
        journal.append(list(), ChunkKind::Add, vec![p(4)]);
        journal.compact_all();

        let stats = journal.stats();
        let registry = plane.snapshot();
        assert_eq!(stats.appends, before.appends + 1);
        for (name, field) in [
            ("journal.appends", stats.appends),
            ("journal.netted_prefixes", stats.netted_prefixes),
            ("journal.dropped_chunks", stats.dropped_chunks),
            ("journal.compactions", stats.compactions),
        ] {
            assert_eq!(registry.counter(name), Some(field as u64), "{name}");
        }
    }

    // ---- differential + convergence properties of the netting walk ------

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::{BTreeSet, HashSet};

    /// The forward pending-map pass `netted_adds` replaced, kept as the
    /// reference: an occurrence of `p` in an add chunk is *pending* until
    /// a later sub chunk carries `p`, at which point every pending
    /// occurrence is netted.  Returns, per chunk index, the prefixes to
    /// strip from that add chunk.
    fn net_strip_map(chunks: &[Chunk]) -> HashMap<usize, HashSet<Prefix>> {
        let mut pending: HashMap<Prefix, Vec<usize>> = HashMap::new();
        let mut netted: HashMap<usize, HashSet<Prefix>> = HashMap::new();
        for (idx, chunk) in chunks.iter().enumerate() {
            match chunk.kind {
                ChunkKind::Add => {
                    for p in &chunk.prefixes {
                        pending.entry(*p).or_default().push(idx);
                    }
                }
                ChunkKind::Sub => {
                    for p in &chunk.prefixes {
                        if let Some(holders) = pending.remove(p) {
                            for holder in holders {
                                netted.entry(holder).or_default().insert(*p);
                            }
                        }
                    }
                }
            }
        }
        netted
    }

    /// Reference serving: clone every missing chunk, strip, subs first.
    fn reference_missing(chunks: &[Chunk], state: &ClientListState) -> Vec<Chunk> {
        let strips = net_strip_map(chunks);
        let mut missing: Vec<Chunk> = Vec::new();
        for (idx, chunk) in chunks.iter().enumerate() {
            if state.holds(chunk.kind, chunk.number) {
                continue;
            }
            let mut chunk = chunk.clone();
            if let Some(strip) = strips.get(&idx) {
                chunk.prefixes.retain(|p| !strip.contains(p));
            }
            missing.push(chunk);
        }
        let (mut subs, mut adds): (Vec<Chunk>, Vec<Chunk>) =
            missing.into_iter().partition(|c| c.kind == ChunkKind::Sub);
        subs.sort_by_key(|c| c.number);
        adds.sort_by_key(|c| c.number);
        subs.extend(adds);
        subs
    }

    /// Reference compaction of one list; returns (netted, dropped).
    fn reference_compact(chunks: &mut Vec<Chunk>) -> (usize, usize) {
        let netted = net_strip_map(chunks);
        let netted_count = netted.values().map(HashSet::len).sum();
        let mut dropped = 0;
        let mut kept = Vec::new();
        for (idx, mut chunk) in chunks.drain(..).enumerate() {
            if let Some(strip) = netted.get(&idx) {
                chunk.prefixes.retain(|p| !strip.contains(p));
                if chunk.prefixes.is_empty() {
                    dropped += 1;
                    continue;
                }
            }
            kept.push(chunk);
        }
        *chunks = kept;
        (netted_count, dropped)
    }

    /// A client that evolves through the protocol alone.  Each poll it
    /// applies every served sub and the adds `take` selects, subs first —
    /// so its state grows holes, subs held without the adds they cancel,
    /// and numbers compaction has since dropped.
    #[derive(Default)]
    struct ModelClient {
        state: ClientListState,
        members: BTreeSet<Prefix>,
    }

    impl ModelClient {
        fn apply(&mut self, response: &[Chunk], take: u64) {
            let mut adds_seen = 0u32;
            for chunk in response {
                match chunk.kind {
                    ChunkKind::Sub => {
                        for q in &chunk.prefixes {
                            self.members.remove(q);
                        }
                    }
                    ChunkKind::Add => {
                        adds_seen += 1;
                        if take >> (adds_seen % 64) & 1 == 0 {
                            continue;
                        }
                        self.members.extend(chunk.prefixes.iter().copied());
                    }
                }
                self.state.record(chunk.kind, chunk.number);
            }
        }
    }

    /// A client state holding exactly the chunk numbers whose bit is set.
    fn masked_state(adds: u64, subs: u64) -> ClientListState {
        let mut state = ClientListState::default();
        for n in 1..=64u32 {
            if adds >> (n - 1) & 1 == 1 {
                state.record(ChunkKind::Add, n);
            }
            if subs >> (n - 1) & 1 == 1 {
                state.record(ChunkKind::Sub, n);
            }
        }
        state
    }

    /// One op: (list, action, prefix values, bits).  Actions 0–3 append an
    /// add chunk, 4–6 a sub chunk, 7 compacts the list, 8–9 poll it.
    type Op = (usize, u8, Vec<u32>, u64);

    fn run_case(
        auto_compact_above: usize,
        ops: &[Op],
        masks: &[(u64, u64)],
    ) -> Result<(), TestCaseError> {
        let names = [ListName::new("a"), ListName::new("b")];
        let mut journal = ChunkJournal::new(auto_compact_above);
        // The reference side: stored chunks, true membership, counters.
        let mut stored: [Vec<Chunk>; 2] = Default::default();
        let mut members: [BTreeSet<Prefix>; 2] = Default::default();
        let (mut netted, mut dropped) = (0usize, 0usize);
        let mut clients: [ModelClient; 2] = Default::default();

        for (which, action, values, bits) in ops {
            let (which, list) = (*which, &names[*which]);
            let prefixes: Vec<Prefix> = values.iter().copied().map(p).collect();
            let compactions = journal.stats().compactions;
            match action {
                0..=6 => {
                    let kind = if *action <= 3 {
                        members[which].extend(prefixes.iter().copied());
                        ChunkKind::Add
                    } else {
                        for q in &prefixes {
                            members[which].remove(q);
                        }
                        ChunkKind::Sub
                    };
                    let number = journal.append(list.clone(), kind, prefixes.clone());
                    stored[which].push(Chunk {
                        list: list.clone(),
                        number,
                        kind,
                        prefixes,
                    });
                }
                7 => journal.compact_list(list),
                _ => {
                    let client = &mut clients[which];
                    let response = journal.missing_chunks(list, &client.state);
                    prop_assert_eq!(&response, &reference_missing(&stored[which], &client.state));
                    client.apply(&response, *bits);
                }
            }
            // Whenever the journal compacted (explicitly or by its own
            // trigger), so does the reference; the stored views must agree.
            if journal.stats().compactions > compactions {
                let (n, d) = reference_compact(&mut stored[which]);
                netted += n;
                dropped += d;
            }
            let live = journal.lists.get(list).map_or(&[][..], |l| &l.chunks);
            prop_assert_eq!(live, &stored[which][..]);
        }
        let stats = journal.stats();
        prop_assert_eq!(stats.netted_prefixes, netted);
        prop_assert_eq!(stats.dropped_chunks, dropped);

        for (which, list) in names.iter().enumerate() {
            // Arbitrary held sets — fresh, caught up, every sub but no
            // add, every add but no sub, random holes — are served chunk
            // for chunk as the reference serves them, order included.
            let fixed = [(0, 0), (u64::MAX, u64::MAX), (0, u64::MAX), (u64::MAX, 0)];
            for (adds, subs) in fixed.iter().chain(masks) {
                let state = masked_state(*adds, *subs);
                prop_assert_eq!(
                    journal.missing_chunks(list, &state),
                    reference_missing(&stored[which], &state)
                );
            }
            // Convergence: one complete poll brings the client, whatever
            // it skipped on the way, to the server's membership, and the
            // next poll finds nothing.
            let client = &mut clients[which];
            let response = journal.missing_chunks(list, &client.state);
            client.apply(&response, u64::MAX);
            prop_assert_eq!(&client.members, &members[which]);
            prop_assert!(journal.missing_chunks(list, &client.state).is_empty());
        }
        Ok(())
    }

    proptest! {
        /// Small prefix domain and chunk count, so re-adds, duplicates
        /// inside one chunk, subs of absent prefixes and emptied adds are
        /// the common case rather than the rare one.
        fn netting_walk_matches_the_forward_reference_and_converges(
            bound in 0usize..3,
            ops in prop::collection::vec(
                (0usize..2, 0u8..10, prop::collection::vec(0u32..8, 0..5), any::<u64>()),
                0..48,
            ),
            masks in prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        ) {
            run_case([3, 8, usize::MAX][bound], &ops, &masks)?;
        }
    }
}
