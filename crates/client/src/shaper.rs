//! The composable privacy pipeline: query shapers and query plans.
//!
//! The paper's core observation is that what a Safe Browsing client reveals
//! *per request* — a single prefix vs. several correlated decomposition
//! prefixes — determines both the k-anonymity of a lookup (Section 5) and
//! whether the visited URL can be re-identified (Section 6).  Its Section 8
//! mitigations are therefore exactly *request-shaping policies*: rules for
//! turning the set of locally-matched prefixes into wire requests.
//!
//! A [`QueryShaper`] makes that rule a first-class, composable object.  The
//! client hands the shaper the whole batch of local hits (with per-URL
//! provenance, [`ShaperHit`]) and receives a [`QueryPlan`]: an ordered set
//! of planned wire requests, each knowing which of its prefixes are *real*
//! (resolve actual browsing) and which are cover traffic, and optionally
//! which URL it serves (enabling early-stop sequencing).  The client
//! executes the plan **batch-natively** — independent planned requests of a
//! batch share one transport round trip — and appends everything that was
//! revealed to its [`DisclosureLedger`](crate::DisclosureLedger), the
//! client-side mirror of the provider's query log.
//!
//! Built-in shapers (the paper's three Section 8 mitigations plus one
//! further design point):
//!
//! | Shaper | Wire shape | Defeats |
//! |---|---|---|
//! | [`ExactShaper`] | all uncached hit prefixes coalesced into one request | nothing (deployed behaviour) |
//! | [`DeterministicDummiesShaper`] | coalesced real request + per-URL single-prefix dummy requests | raises single-prefix k-anonymity only |
//! | [`OnePrefixAtATimeShaper`] | one prefix per request, most generic first, stop on verdict | URL-level re-identification |
//! | [`PaddedBucketShaper`] | every real prefix in its own request, padded with dummies to a fixed bucket | URL-level re-identification **and** raises per-request k-anonymity, with no sequential waves |

use std::collections::HashSet;

use sb_hash::{Prefix, Sha256};

/// One locally-matched prefix handed to a [`QueryShaper`], with the
/// provenance the shaping decision may need.
///
/// The client computes these from the local-database pass; the digest
/// itself is withheld — a shaper decides *what to reveal*, it never needs
/// the full hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShaperHit {
    /// Index of the URL (within the batch being checked) this hit belongs
    /// to.  Single-URL lookups use index 0.
    pub url: usize,
    /// The 32-bit prefix that matched the local database.
    pub prefix: Prefix,
    /// Whether the matching decomposition is the bare domain root (the
    /// most generic — and most identifying — decomposition).
    pub domain_root: bool,
    /// Length of the decomposition expression, a generality proxy:
    /// shorter expressions are more generic.
    pub expression_len: usize,
    /// Whether the full-hash cache already holds this prefix's digests.
    /// A cached prefix needs no wire request; shapers must not re-reveal
    /// it.
    pub cached: bool,
}

/// One wire request of a [`QueryPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedRequest {
    /// The prefixes sent in this request, in wire order (real prefixes and
    /// cover dummies mixed however the shaper chooses).
    pub prefixes: Vec<Prefix>,
    /// The subset of [`Self::prefixes`] that corresponds to real browsing:
    /// their responses are cached and drive the verdict.  A request with no
    /// real prefixes is pure cover traffic — it is sent fire-and-forget
    /// (failures cannot fail the lookup, responses are never cached).
    pub real: Vec<Prefix>,
    /// When set, this request exists only to resolve the given URL (batch
    /// index): the client sequences such requests per URL and **skips**
    /// the remainder once that URL's verdict is confirmed — the
    /// early-stop semantics of the one-prefix-at-a-time mitigation.
    /// `None` requests are unconditional and all share one round trip.
    pub serves_url: Option<usize>,
}

impl PlannedRequest {
    /// An unconditional request revealing exactly its real prefixes.
    pub fn exact(prefixes: Vec<Prefix>) -> Self {
        PlannedRequest {
            real: prefixes.clone(),
            prefixes,
            serves_url: None,
        }
    }

    /// A fire-and-forget cover request (no real prefixes).
    pub fn cover(prefixes: Vec<Prefix>) -> Self {
        PlannedRequest {
            prefixes,
            real: Vec::new(),
            serves_url: None,
        }
    }

    /// Number of cover (dummy) prefixes in the request.
    pub fn dummy_count(&self) -> usize {
        self.prefixes.len() - self.real.len()
    }

    /// True when the request carries no real prefixes (pure cover
    /// traffic).
    pub fn is_cover(&self) -> bool {
        self.real.is_empty()
    }
}

/// The ordered set of wire requests a shaper emits for one batch of local
/// hits.
///
/// Execution semantics (see
/// [`SafeBrowsingClient`](crate::SafeBrowsingClient)):
///
/// 1. all unconditional real-bearing requests go out in **one** transport
///    round trip;
/// 2. all cover requests go out in one further fire-and-forget round trip;
/// 3. per-URL sequenced requests (`serves_url: Some(_)`) advance in
///    *waves*: each wave sends the next pending request of every URL whose
///    verdict is still undecided, all in one round trip.
///
/// The per-request privacy surface — which prefixes appear together in one
/// provider-visible request — is exactly what the shaper planned; the
/// round-trip sharing is invisible to the provider's query log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryPlan {
    /// The planned requests, in emission order.
    pub requests: Vec<PlannedRequest>,
}

impl QueryPlan {
    /// A plan that sends nothing (all hits cached, or no hits).
    pub fn empty() -> Self {
        QueryPlan::default()
    }

    /// Every prefix the plan would reveal, in plan order (reals and
    /// dummies).
    pub fn revealed_prefixes(&self) -> Vec<Prefix> {
        self.requests
            .iter()
            .flat_map(|r| r.prefixes.iter().copied())
            .collect()
    }

    /// Total number of planned wire requests.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Largest number of real prefixes co-occurring in one planned request
    /// — the quantity the multi-prefix re-identification attack exploits.
    pub fn max_real_co_occurrence(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.real.len())
            .max()
            .unwrap_or(0)
    }
}

/// A request-shaping policy: turns the batch of local hits into the wire
/// requests that reveal them.
///
/// Shapers are **batch-native**: they see every hit of a
/// [`check_urls`](crate::SafeBrowsingClient::check_urls) batch at once
/// (with URL provenance) and plan the whole exchange, so a mitigation no
/// longer forces per-URL round trips.  Implementations must be
/// deterministic for a given input — reproducibility is what makes the
/// disclosure ledger and the re-identification experiments meaningful.
///
/// Contract:
///
/// * every `real` prefix must appear in its request's `prefixes`;
/// * `serves_url` indices refer to the batch positions present in the
///   input hits;
/// * prefixes marked [`ShaperHit::cached`] must not be re-revealed (they
///   resolve from the cache without a wire exchange);
/// * an all-cached or empty input yields [`QueryPlan::empty`].
pub trait QueryShaper: Send + Sync + std::fmt::Debug {
    /// A stable human-readable name (used by metrics, benches and
    /// examples, e.g. `"padded-bucket(4)"`).
    fn name(&self) -> String;

    /// Plans the wire requests for one batch of local hits.
    fn shape(&self, hits: &[ShaperHit]) -> QueryPlan;
}

/// Generates `count` deterministic dummy prefixes derived from a real
/// prefix, skipping any candidate that collides with the real prefix, a
/// previously-generated sibling, or an entry of `avoid` — a collision
/// would silently shrink the anonymity set the dummies exist to provide.
///
/// The candidate stream is `SHA-256(prefix-bytes ‖ counter)` truncated to
/// 32 bits, with the counter bumped past rejected candidates, so the
/// output is deterministic for a given real prefix (per Firefox's design:
/// fresh random dummies would be separable by differential analysis) yet
/// uniform over the prefix space.
pub fn dummy_prefixes_for(real: &Prefix, count: usize, avoid: &[Prefix]) -> Vec<Prefix> {
    let mut dummies = Vec::with_capacity(count);
    let mut taken: HashSet<Prefix> = avoid.iter().copied().collect();
    taken.insert(*real);
    let mut counter: u64 = 0;
    while dummies.len() < count {
        let mut hasher = Sha256::new();
        hasher.update(real.as_bytes());
        hasher.update(counter.to_be_bytes());
        counter += 1;
        let candidate = hasher.finalize().prefix32();
        if taken.insert(candidate) {
            dummies.push(candidate);
        }
    }
    dummies
}

/// Distinct uncached real prefixes of a hit slice, in first-appearance
/// order — the coalesced request body shared by several shapers.
fn distinct_uncached(hits: &[ShaperHit]) -> Vec<Prefix> {
    let mut seen = HashSet::new();
    hits.iter()
        .filter(|h| !h.cached)
        .filter(|h| seen.insert(h.prefix))
        .map(|h| h.prefix)
        .collect()
}

/// The deployed services' behaviour: every uncached hit prefix of the
/// batch is coalesced into **one** wire request — maximum throughput,
/// maximum correlation (the provider sees all matching decompositions
/// together, the situation Sections 5–6 analyze).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactShaper;

impl QueryShaper for ExactShaper {
    fn name(&self) -> String {
        "exact".to_string()
    }

    fn shape(&self, hits: &[ShaperHit]) -> QueryPlan {
        let unresolved = distinct_uncached(hits);
        if unresolved.is_empty() {
            return QueryPlan::empty();
        }
        QueryPlan {
            requests: vec![PlannedRequest::exact(unresolved)],
        }
    }
}

/// Firefox-style deterministic dummy queries, batch-native: one coalesced
/// real request (as [`ExactShaper`]) plus, per URL with hits, `dummies`
/// single-prefix cover requests derived from that URL's first hit prefix.
///
/// Raises the k-anonymity of the *requests* in the log but leaves the
/// real multi-prefix request intact, so URL re-identification still
/// succeeds — the paper's critique, reproduced by `mitigation_eval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicDummiesShaper {
    /// Cover requests emitted per URL with local hits.
    pub dummies: usize,
}

impl QueryShaper for DeterministicDummiesShaper {
    fn name(&self) -> String {
        format!("dummy-queries({})", self.dummies)
    }

    fn shape(&self, hits: &[ShaperHit]) -> QueryPlan {
        let mut requests = Vec::new();
        let unresolved = distinct_uncached(hits);
        if !unresolved.is_empty() {
            requests.push(PlannedRequest::exact(unresolved));
        }
        // One dummy volley per URL that produced hits, derived from the
        // URL's first hit prefix (cached or not: re-visits keep emitting
        // the same cover traffic, as Firefox does).
        let mut urls_seen = HashSet::new();
        let reals: Vec<Prefix> = hits.iter().map(|h| h.prefix).collect();
        for hit in hits {
            if !urls_seen.insert(hit.url) {
                continue;
            }
            for dummy in dummy_prefixes_for(&hit.prefix, self.dummies, &reals) {
                requests.push(PlannedRequest::cover(vec![dummy]));
            }
        }
        QueryPlan { requests }
    }
}

/// The paper's Section 8 proposal: reveal one prefix per request, most
/// generic decomposition first, and stop as soon as the URL's verdict is
/// known — the provider learns the domain but (usually) not the full URL.
///
/// Batch-native sequencing: the k-th probe of every still-undecided URL
/// shares one round trip, so a large batch costs `max probes per URL`
/// round trips instead of `sum`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnePrefixAtATimeShaper;

impl QueryShaper for OnePrefixAtATimeShaper {
    fn name(&self) -> String {
        "one-prefix-at-a-time".to_string()
    }

    fn shape(&self, hits: &[ShaperHit]) -> QueryPlan {
        // Group hits per URL, preserving batch order of first appearance.
        let mut urls: Vec<usize> = Vec::new();
        for hit in hits {
            if !urls.contains(&hit.url) {
                urls.push(hit.url);
            }
        }
        let mut requests = Vec::new();
        for url in urls {
            let mut ordered: Vec<&ShaperHit> =
                hits.iter().filter(|h| h.url == url && !h.cached).collect();
            // Most generic first: domain roots, then shorter expressions.
            ordered.sort_by_key(|h| (std::cmp::Reverse(h.domain_root), h.expression_len));
            let mut seen = HashSet::new();
            for hit in ordered {
                if !seen.insert(hit.prefix) {
                    continue;
                }
                requests.push(PlannedRequest {
                    prefixes: vec![hit.prefix],
                    real: vec![hit.prefix],
                    serves_url: Some(url),
                });
            }
        }
        QueryPlan { requests }
    }
}

/// Padded-bucket shaping — the new design point: every real prefix goes
/// out in its **own** request, padded with deterministic dummy prefixes to
/// a fixed bucket size, all requests sharing one round trip.
///
/// No two real prefixes ever co-occur in a request (URL-level
/// re-identification is defeated, like one-prefix-at-a-time) *and* every
/// request carries exactly `bucket` prefixes, multiplying its k-anonymity
/// set by the bucket size while hiding which prefix is real.  Unlike
/// one-prefix-at-a-time there is no sequential early-stop, so the whole
/// batch still resolves in a single round trip and verdicts are exactly
/// those of the unshaped path — privacy without the adaptive latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddedBucketShaper {
    /// Prefixes per wire request (1 real + `bucket - 1` dummies).  A
    /// bucket of 1 degenerates to pure request-splitting.
    pub bucket: usize,
}

impl QueryShaper for PaddedBucketShaper {
    fn name(&self) -> String {
        format!("padded-bucket({})", self.bucket)
    }

    fn shape(&self, hits: &[ShaperHit]) -> QueryPlan {
        let bucket = self.bucket.max(1);
        let reals: Vec<Prefix> = hits.iter().map(|h| h.prefix).collect();
        let requests = distinct_uncached(hits)
            .into_iter()
            .map(|real| {
                let mut prefixes = dummy_prefixes_for(&real, bucket - 1, &reals);
                // Deterministic but prefix-dependent slot for the real
                // prefix, so "first in the request" reveals nothing.
                let slot = real.value() as usize % bucket;
                prefixes.insert(slot.min(prefixes.len()), real);
                PlannedRequest {
                    prefixes,
                    real: vec![real],
                    serves_url: None,
                }
            })
            .collect();
        QueryPlan { requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_hash::prefix32;

    fn hit(url: usize, expr: &str, domain_root: bool, cached: bool) -> ShaperHit {
        ShaperHit {
            url,
            prefix: prefix32(expr),
            domain_root,
            expression_len: expr.len(),
            cached,
        }
    }

    #[test]
    fn exact_coalesces_distinct_uncached_prefixes() {
        let hits = [
            hit(0, "a.example/", true, false),
            hit(0, "a.example/x", false, false),
            hit(1, "a.example/", true, false), // duplicate across URLs
            hit(1, "b.example/", true, true),  // cached: must not be revealed
        ];
        let plan = ExactShaper.shape(&hits);
        assert_eq!(plan.request_count(), 1);
        assert_eq!(
            plan.requests[0].prefixes,
            vec![prefix32("a.example/"), prefix32("a.example/x")]
        );
        assert_eq!(plan.requests[0].real, plan.requests[0].prefixes);
        assert_eq!(plan.max_real_co_occurrence(), 2);
    }

    #[test]
    fn exact_plan_is_empty_when_everything_is_cached() {
        let hits = [hit(0, "a.example/", true, true)];
        assert_eq!(ExactShaper.shape(&hits), QueryPlan::empty());
        assert_eq!(ExactShaper.shape(&[]), QueryPlan::empty());
    }

    #[test]
    fn dummies_add_cover_requests_per_url() {
        let shaper = DeterministicDummiesShaper { dummies: 3 };
        let hits = [
            hit(0, "a.example/", true, false),
            hit(0, "a.example/x", false, false),
            hit(2, "b.example/", true, false),
        ];
        let plan = shaper.shape(&hits);
        // 1 coalesced real request + 3 dummies for URL 0 + 3 for URL 2.
        assert_eq!(plan.request_count(), 7);
        assert!(!plan.requests[0].is_cover());
        assert!(plan.requests[1..].iter().all(|r| r.is_cover()));
        assert!(plan.requests[1..]
            .iter()
            .all(|r| r.prefixes.len() == 1 && r.dummy_count() == 1));
        // Dummies never collide with any real prefix of the batch.
        let reals: HashSet<Prefix> = hits.iter().map(|h| h.prefix).collect();
        for request in &plan.requests[1..] {
            assert!(!reals.contains(&request.prefixes[0]));
        }
    }

    #[test]
    fn dummy_volley_fires_even_when_the_real_prefix_is_cached() {
        let shaper = DeterministicDummiesShaper { dummies: 2 };
        let plan = shaper.shape(&[hit(0, "a.example/", true, true)]);
        assert_eq!(plan.request_count(), 2);
        assert!(plan.requests.iter().all(|r| r.is_cover()));
    }

    #[test]
    fn one_prefix_at_a_time_orders_most_generic_first() {
        let hits = [
            hit(0, "a.example/long/path", false, false),
            hit(0, "a.example/", true, false),
            hit(0, "a.example/long", false, false),
        ];
        let plan = OnePrefixAtATimeShaper.shape(&hits);
        assert_eq!(plan.request_count(), 3);
        assert!(plan.requests.iter().all(|r| r.prefixes.len() == 1));
        assert!(plan.requests.iter().all(|r| r.serves_url == Some(0)));
        assert_eq!(plan.requests[0].prefixes[0], prefix32("a.example/"));
        assert_eq!(plan.requests[1].prefixes[0], prefix32("a.example/long"));
        assert_eq!(plan.max_real_co_occurrence(), 1);
    }

    #[test]
    fn one_prefix_at_a_time_sequences_each_url_separately() {
        let hits = [
            hit(0, "a.example/", true, false),
            hit(1, "b.example/", true, false),
            hit(1, "b.example/x", false, false),
        ];
        let plan = OnePrefixAtATimeShaper.shape(&hits);
        assert_eq!(plan.request_count(), 3);
        assert_eq!(plan.requests[0].serves_url, Some(0));
        assert_eq!(plan.requests[1].serves_url, Some(1));
        assert_eq!(plan.requests[2].serves_url, Some(1));
    }

    #[test]
    fn padded_bucket_isolates_reals_and_pads_to_bucket() {
        let shaper = PaddedBucketShaper { bucket: 4 };
        let hits = [
            hit(0, "a.example/", true, false),
            hit(0, "a.example/x", false, false),
        ];
        let plan = shaper.shape(&hits);
        assert_eq!(plan.request_count(), 2);
        for request in &plan.requests {
            assert_eq!(request.prefixes.len(), 4);
            assert_eq!(request.real.len(), 1);
            assert_eq!(request.dummy_count(), 3);
            assert!(request.prefixes.contains(&request.real[0]));
            assert_eq!(request.serves_url, None);
        }
        assert_eq!(plan.max_real_co_occurrence(), 1);
        // The other URL's real prefix never appears as padding.
        assert!(!plan.requests[0].prefixes.contains(&prefix32("a.example/x")));
        assert!(!plan.requests[1].prefixes.contains(&prefix32("a.example/")));
    }

    #[test]
    fn padded_bucket_of_one_is_pure_splitting() {
        let shaper = PaddedBucketShaper { bucket: 1 };
        let plan = shaper.shape(&[
            hit(0, "a.example/", true, false),
            hit(0, "a.example/x", false, false),
        ]);
        assert_eq!(plan.request_count(), 2);
        assert!(plan.requests.iter().all(|r| r.prefixes.len() == 1));
    }

    #[test]
    fn dummy_generation_is_deterministic_and_collision_free() {
        let real = prefix32("petsymposium.org/2016/cfp.php");
        let a = dummy_prefixes_for(&real, 16, &[]);
        let b = dummy_prefixes_for(&real, 16, &[]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let unique: HashSet<&Prefix> = a.iter().collect();
        assert_eq!(unique.len(), 16);
        assert!(!a.contains(&real));
        // The stream is keyed by the real prefix, and asking for none
        // yields none.
        assert_ne!(
            a,
            dummy_prefixes_for(&prefix32("petsymposium.org/"), 16, &[])
        );
        assert!(dummy_prefixes_for(&real, 0, &[]).is_empty());
    }

    #[test]
    fn dummy_generation_skips_avoided_prefixes() {
        let real = prefix32("petsymposium.org/");
        // Force a collision: put the first two natural candidates on the
        // avoid list and check they are skipped, not silently dropped.
        let natural = dummy_prefixes_for(&real, 2, &[]);
        let avoided = dummy_prefixes_for(&real, 4, &natural);
        assert_eq!(avoided.len(), 4);
        for p in &natural {
            assert!(!avoided.contains(p));
        }
        assert!(!avoided.contains(&real));
    }

    #[test]
    fn shaper_names_are_stable() {
        assert_eq!(ExactShaper.name(), "exact");
        assert_eq!(
            DeterministicDummiesShaper { dummies: 4 }.name(),
            "dummy-queries(4)"
        );
        assert_eq!(OnePrefixAtATimeShaper.name(), "one-prefix-at-a-time");
        assert_eq!(PaddedBucketShaper { bucket: 8 }.name(), "padded-bucket(8)");
    }
}
