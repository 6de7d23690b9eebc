//! The workload generator: URL pools with their ground-truth verdicts, and
//! the provider contents that make those verdicts true.  Everything is a
//! pure function of `(workload, sizes, clients, seed)`.
//!
//! Ground truth holds by construction, without asking the system under
//! test: a blacklisted URL's *exact* expression is blacklisted, and only
//! URLs with a file leaf on a subdomain host are eligible, so that
//! expression is a decomposition of no other URL of the corpus (nothing is
//! hosted below a subdomain, and no other URL of the host has that path).
//! Accidental 32-bit prefix collisions with the provider's random prefixes
//! do happen (≈ 0.2 % of URLs at 1M prefixes), as they do in deployment:
//! they cost a round trip and resolve to "safe", so the verdict stands.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_corpus::{CorpusConfig, ProfileSampler, WebCorpus};
use sb_hash::{digest_url, Prefix};

/// The one list the provider serves.
pub const LIST: &str = "goog-malware-shavar";

/// URLs per `check_urls` call on `page_batch_shaped`.
pub const BATCH_URLS: usize = 16;
/// Batch positions holding a blacklisted URL (4 of 16).
const BATCH_HIT_SLOTS: [usize; 4] = [3, 7, 11, 15];
/// One blacklisted URL per this many on the browse pools (0.1 %).
const BROWSE_HIT_PERIOD: usize = 1000;
/// Rounds an injected churn chunk lives before `update_churn` removes it.
/// With twelve 500-prefix chunks injected and twelve removed per round, the
/// client overlay (bound 20k) outgrows its bound every second round and
/// the journal (bound 64 chunks) compacts every second round too.
pub const CHURN_LAG_ROUNDS: usize = 2;
/// Chunks injected (and as many removed) per churn round.
pub const CHURN_CHUNKS_PER_ROUND: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseLocal,
    HitsTcp,
    PageBatchShaped,
    UpdateChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BrowseLocal,
        Workload::HitsTcp,
        Workload::PageBatchShaped,
        Workload::UpdateChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseLocal => "browse_local",
            Workload::HitsTcp => "hits_tcp",
            Workload::PageBatchShaped => "page_batch_shaped",
            Workload::UpdateChurn => "update_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn over_tcp(self) -> bool {
        matches!(self, Workload::HitsTcp | Workload::PageBatchShaped)
    }

    /// URLs per public call (`check_url`: 1, `check_urls`: a page load).
    pub fn batch_urls(self) -> usize {
        match self {
            Workload::PageBatchShaped => BATCH_URLS,
            _ => 1,
        }
    }
}

/// Input sizes.  `full()` is the benchmark; `smoke()` is a seconds-long
/// self-check whose numbers are never recorded.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Distinct 32-bit prefixes the provider serves.
    pub prefixes: usize,
    pub corpus_hosts: usize,
    pub corpus_page_cap: u64,
    /// Distinct URLs per client on `browse_local` / `update_churn`.
    pub browse_pool: usize,
    /// Distinct (all blacklisted or orphaned) URLs per client on `hits_tcp`.
    pub hit_pool: usize,
    /// Distinct page-load batches per client on `page_batch_shaped`.
    pub batches: usize,
    /// Prefixes per churn chunk on `update_churn`.
    pub churn_chunk: usize,
    /// Lookups per client per round on `update_churn`.
    pub churn_lookups: usize,
    /// Rounds `update_churn` always runs, however short `--seconds` is.
    pub churn_min_rounds: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            prefixes: 1_000_000,
            corpus_hosts: 4_000,
            corpus_page_cap: 2_000,
            browse_pool: 500_000,
            hit_pool: 200_000,
            batches: 60_000,
            churn_chunk: 500,
            churn_lookups: 100_000,
            churn_min_rounds: 6,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            prefixes: 20_000,
            corpus_hosts: 400,
            corpus_page_cap: 500,
            browse_pool: 20_000,
            hit_pool: 8_000,
            batches: 2_000,
            churn_chunk: 100,
            churn_lookups: 2_000,
            churn_min_rounds: 4,
        }
    }

    /// Operations (public calls) per client over which the exact counts
    /// are taken.  A run always completes them, whatever `--seconds` says,
    /// so the counts repeat bit for bit for a seed on any machine.
    pub fn audit_ops(&self, workload: Workload) -> usize {
        match workload {
            // One pass over the pool: the full-hash cache is cleared at
            // every wrap, so later passes repeat the first.
            Workload::BrowseLocal => self.browse_pool,
            Workload::HitsTcp => self.hit_pool / 5,
            Workload::PageBatchShaped => self.batches / 6,
            Workload::UpdateChurn => self.churn_min_rounds * self.churn_lookups,
        }
    }
}

/// One client's operation stream: `urls` is consumed `batch` at a time and
/// wraps around; `malicious[i]` is the ground-truth verdict of `urls[i]`.
#[derive(Debug)]
pub struct ClientOps<'c> {
    pub urls: Vec<&'c str>,
    pub malicious: Vec<bool>,
    pub batch: usize,
}

impl ClientOps<'_> {
    pub fn calls_per_pass(&self) -> usize {
        self.urls.len() / self.batch
    }
}

/// Everything a run needs besides the corpus it borrows from.
#[derive(Debug)]
pub struct Plan<'c> {
    pub clients: Vec<ClientOps<'c>>,
    /// Expressions blacklisted with their full digest.
    pub confirmed: Vec<&'c str>,
    /// Prefixes injected without a digest: a local hit the provider
    /// answers with nothing (the paper's Table 11 case), verdict safe.
    pub orphans: Vec<Prefix>,
    /// Random prefixes with no URL behind them, up to `Sizes::prefixes`.
    pub filler: Vec<Prefix>,
    /// Chunks `update_churn` will remove first (injected at build time).
    pub churn_seed: Vec<Vec<Prefix>>,
    /// Every prefix value ever present in the provider, so churn draws
    /// fresh ones and the list size stays exact.
    pub occupied: HashSet<u32>,
    /// FNV-1a over every input above: same seed, same digest.
    pub digest: u64,
}

pub fn generate_corpus(sizes: &Sizes, seed: u64) -> WebCorpus {
    WebCorpus::generate(
        &CorpusConfig::alexa_like(sizes.corpus_hosts, seed).with_page_cap(sizes.corpus_page_cap),
    )
}

/// A corpus URL with its eligibility for blacklisting (see module doc).
#[derive(Clone, Copy)]
struct Candidate<'c> {
    url: &'c str,
    eligible: bool,
}

fn shuffled_candidates<'c>(corpus: &'c WebCorpus, rng: &mut StdRng) -> Vec<Candidate<'c>> {
    let mut all: Vec<Candidate<'c>> = Vec::with_capacity(corpus.total_urls());
    for site in corpus.sites() {
        for url in site.urls() {
            let host = url.split('/').next().unwrap_or("");
            all.push(Candidate {
                url,
                eligible: host != site.domain() && !url.ends_with('/'),
            });
        }
    }
    // Fisher–Yates.
    for i in (1..all.len()).rev() {
        all.swap(i, rng.gen_range(0..i + 1));
    }
    all
}

impl<'c> Plan<'c> {
    pub fn build(
        workload: Workload,
        sizes: &Sizes,
        clients: usize,
        seed: u64,
        corpus: &'c WebCorpus,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_6f6c);
        let all = shuffled_candidates(corpus, &mut rng);
        let mut plan = Plan {
            clients: Vec::with_capacity(clients),
            confirmed: Vec::new(),
            orphans: Vec::new(),
            filler: Vec::new(),
            churn_seed: Vec::new(),
            occupied: HashSet::with_capacity(sizes.prefixes * 2),
            digest: 0,
        };
        match workload {
            Workload::BrowseLocal | Workload::UpdateChurn => plan.browse(&all, sizes, clients),
            Workload::HitsTcp => plan.hits(&all, sizes, clients),
            Workload::PageBatchShaped => plan.page_batches(&all, sizes, clients, seed, corpus),
        }
        if workload == Workload::UpdateChurn {
            for _ in 0..CHURN_LAG_ROUNDS * CHURN_CHUNKS_PER_ROUND {
                let chunk = fresh_prefixes(&mut plan.occupied, &mut rng, sizes.churn_chunk);
                plan.churn_seed.push(chunk);
            }
        }
        let missing = sizes.prefixes.saturating_sub(plan.occupied.len());
        plan.filler = fresh_prefixes(&mut plan.occupied, &mut rng, missing);
        plan.digest = plan.compute_digest();
        plan
    }

    /// Browse pools: disjoint slices of the shuffled corpus, one URL in
    /// `BROWSE_HIT_PERIOD` blacklisted, spread evenly over the pool.
    fn browse(&mut self, all: &[Candidate<'c>], sizes: &Sizes, clients: usize) {
        assert!(
            all.len() >= clients * sizes.browse_pool,
            "corpus of {} URLs is too small for {clients} pools of {}",
            all.len(),
            sizes.browse_pool
        );
        for slice in all.chunks(sizes.browse_pool).take(clients) {
            let mut malicious = vec![false; slice.len()];
            let mut next_target = BROWSE_HIT_PERIOD / 2;
            for (i, candidate) in slice.iter().enumerate() {
                if i >= next_target && candidate.eligible {
                    malicious[i] = true;
                    self.blacklist(candidate.url);
                    next_target += BROWSE_HIT_PERIOD;
                }
            }
            self.clients.push(ClientOps {
                urls: slice.iter().map(|c| c.url).collect(),
                malicious,
                batch: 1,
            });
        }
    }

    /// Hit pools: every URL is a local hit, three in four confirmed
    /// malicious and every fourth an orphan prefix.
    fn hits(&mut self, all: &[Candidate<'c>], sizes: &Sizes, clients: usize) {
        let eligible: Vec<&'c str> = all.iter().filter(|c| c.eligible).map(|c| c.url).collect();
        assert!(
            eligible.len() >= clients * sizes.hit_pool,
            "only {} eligible URLs for {clients} hit pools of {}",
            eligible.len(),
            sizes.hit_pool
        );
        for slice in eligible.chunks(sizes.hit_pool).take(clients) {
            let mut malicious = Vec::with_capacity(slice.len());
            for (i, &url) in slice.iter().enumerate() {
                let orphan = i % 4 == 3;
                malicious.push(!orphan);
                if orphan {
                    let prefix = digest_url(url).prefix32();
                    self.occupied.insert(prefix.value());
                    self.orphans.push(prefix);
                } else {
                    self.blacklist(url);
                }
            }
            self.clients.push(ClientOps {
                urls: slice.to_vec(),
                malicious,
                batch: 1,
            });
        }
    }

    /// Page-load batches: the benign URLs of batch `b` are client `c`'s
    /// `ProfileSampler` session `b` (same-site pages, revisits allowed —
    /// a benign lookup leaves no state behind), topped up with unused
    /// corpus URLs; the four blacklisted URLs are never reused.
    fn page_batches(
        &mut self,
        all: &[Candidate<'c>],
        sizes: &Sizes,
        clients: usize,
        seed: u64,
        corpus: &'c WebCorpus,
    ) {
        let hits_needed = clients * sizes.batches * BATCH_HIT_SLOTS.len();
        let hit_urls: Vec<&'c str> = all
            .iter()
            .filter(|c| c.eligible)
            .map(|c| c.url)
            .take(hits_needed)
            .collect();
        assert!(
            hit_urls.len() == hits_needed,
            "only {} eligible URLs for {hits_needed} batch hits",
            hit_urls.len()
        );
        // Corpus strings are unique allocations: identity is membership.
        let is_hit: HashSet<*const u8> = hit_urls.iter().map(|u| u.as_ptr()).collect();
        let mut top_up = all
            .iter()
            .map(|c| c.url)
            .filter(|u| !is_hit.contains(&u.as_ptr()))
            .cycle();
        let mut hits = hit_urls.iter().copied();
        let sampler = ProfileSampler::new(corpus, seed);
        let benign_slots = BATCH_URLS - BATCH_HIT_SLOTS.len();
        for client in 0..clients {
            let profile = sampler.profile_for(client as u64);
            let mut urls = Vec::with_capacity(sizes.batches * BATCH_URLS);
            let mut malicious = Vec::with_capacity(sizes.batches * BATCH_URLS);
            for batch in 0..sizes.batches {
                let mut benign: Vec<&'c str> = profile
                    .session_urls(corpus, batch as u64)
                    .into_iter()
                    .filter(|u| !is_hit.contains(&u.as_ptr()))
                    .take(benign_slots)
                    .collect();
                while benign.len() < benign_slots {
                    benign.push(top_up.next().expect("cycle over a non-empty corpus"));
                }
                let mut benign = benign.into_iter();
                for slot in 0..BATCH_URLS {
                    if BATCH_HIT_SLOTS.contains(&slot) {
                        let url = hits.next().expect("hit supply sized above");
                        self.blacklist(url);
                        urls.push(url);
                        malicious.push(true);
                    } else {
                        urls.push(benign.next().expect("benign slots filled above"));
                        malicious.push(false);
                    }
                }
            }
            self.clients.push(ClientOps {
                urls,
                malicious,
                batch: BATCH_URLS,
            });
        }
    }

    fn blacklist(&mut self, url: &'c str) {
        self.occupied.insert(digest_url(url).prefix32().value());
        self.confirmed.push(url);
    }

    fn compute_digest(&self) -> u64 {
        let mut hash = Fnv::new();
        for ops in &self.clients {
            for (url, malicious) in ops.urls.iter().zip(&ops.malicious) {
                hash.write(url.as_bytes());
                hash.write(&[*malicious as u8]);
            }
        }
        for url in &self.confirmed {
            hash.write(url.as_bytes());
        }
        let chunks = [&self.orphans, &self.filler].into_iter();
        for prefix in chunks.chain(&self.churn_seed).flatten() {
            hash.write(&prefix.value().to_le_bytes());
        }
        hash.0
    }
}

/// Draws `count` prefixes that were never in the provider and marks them
/// occupied.
pub fn fresh_prefixes(occupied: &mut HashSet<u32>, rng: &mut StdRng, count: usize) -> Vec<Prefix> {
    let mut fresh = Vec::with_capacity(count);
    while fresh.len() < count {
        let value: u32 = rng.gen();
        if occupied.insert(value) {
            fresh.push(Prefix::from_u32(value));
        }
    }
    fresh
}

/// FNV-1a, 64 bit: enough to tell two input sets apart, and dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 = (self.0 ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_url::{decompose, CanonicalUrl};

    fn plan_digest(workload: Workload, seed: u64) -> u64 {
        let sizes = Sizes::smoke();
        let corpus = generate_corpus(&sizes, seed);
        Plan::build(workload, &sizes, 2, seed, &corpus).digest
    }

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        for workload in Workload::ALL {
            assert_eq!(
                plan_digest(workload, 7),
                plan_digest(workload, 7),
                "{}",
                workload.name()
            );
            assert_ne!(
                plan_digest(workload, 7),
                plan_digest(workload, 8),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn provider_holds_exactly_the_configured_prefix_count() {
        let sizes = Sizes::smoke();
        let corpus = generate_corpus(&sizes, 3);
        for workload in Workload::ALL {
            let plan = Plan::build(workload, &sizes, 2, 3, &corpus);
            let mut distinct: HashSet<u32> = plan
                .confirmed
                .iter()
                .map(|url| digest_url(url).prefix32().value())
                .collect();
            let bare = [&plan.orphans, &plan.filler].into_iter();
            distinct.extend(bare.chain(&plan.churn_seed).flatten().map(Prefix::value));
            assert_eq!(distinct.len(), sizes.prefixes, "{}", workload.name());
            assert_eq!(plan.occupied, distinct, "{}", workload.name());
        }
    }

    #[test]
    fn workload_shapes_are_as_documented() {
        let sizes = Sizes::smoke();
        let corpus = generate_corpus(&sizes, 5);

        let browse = Plan::build(Workload::BrowseLocal, &sizes, 2, 5, &corpus);
        for ops in &browse.clients {
            assert_eq!(ops.urls.len(), sizes.browse_pool);
            let hits = ops.malicious.iter().filter(|m| **m).count();
            assert_eq!(hits, sizes.browse_pool / BROWSE_HIT_PERIOD);
        }
        let a: HashSet<&str> = browse.clients[0].urls.iter().copied().collect();
        assert_eq!(a.len(), sizes.browse_pool, "drawn without replacement");
        assert!(browse.clients[1].urls.iter().all(|u| !a.contains(u)));

        let hits = Plan::build(Workload::HitsTcp, &sizes, 2, 5, &corpus);
        let ops = &hits.clients[0];
        assert_eq!(ops.urls.len(), sizes.hit_pool);
        assert_eq!(
            ops.malicious.iter().filter(|m| **m).count(),
            sizes.hit_pool * 3 / 4
        );
        assert_eq!(hits.orphans.len(), 2 * sizes.hit_pool / 4);

        let pages = Plan::build(Workload::PageBatchShaped, &sizes, 2, 5, &corpus);
        let ops = &pages.clients[1];
        assert_eq!(ops.calls_per_pass(), sizes.batches);
        for batch in ops.malicious.chunks(BATCH_URLS) {
            assert_eq!(batch.iter().filter(|m| **m).count(), 4);
        }
        let hit_urls: Vec<&str> = pages
            .clients
            .iter()
            .flat_map(|ops| ops.urls.iter().zip(&ops.malicious))
            .filter(|(_, m)| **m)
            .map(|(u, _)| *u)
            .collect();
        let distinct: HashSet<&str> = hit_urls.iter().copied().collect();
        assert_eq!(distinct.len(), hit_urls.len(), "hits are never reused");

        let churn = Plan::build(Workload::UpdateChurn, &sizes, 2, 5, &corpus);
        assert_eq!(
            churn.churn_seed.len(),
            CHURN_LAG_ROUNDS * CHURN_CHUNKS_PER_ROUND
        );
    }

    /// The construction argument of the module doc, checked against the
    /// system's own decomposer: a blacklisted expression is a
    /// decomposition of exactly the URLs marked malicious.
    #[test]
    fn ground_truth_agrees_with_the_decomposer() {
        let sizes = Sizes::smoke();
        let corpus = generate_corpus(&sizes, 11);
        for workload in [Workload::BrowseLocal, Workload::PageBatchShaped] {
            let plan = Plan::build(workload, &sizes, 2, 11, &corpus);
            let blacklisted: HashSet<&str> = plan.confirmed.iter().copied().collect();
            for ops in &plan.clients {
                for (url, expected) in ops.urls.iter().zip(&ops.malicious) {
                    let canon = CanonicalUrl::parse(url).expect("corpus URLs parse");
                    let hit = decompose(&canon)
                        .iter()
                        .any(|d| blacklisted.contains(d.expression()));
                    assert_eq!(hit, *expected, "{url}");
                }
            }
        }
    }
}
