//! Stage replay, and the reduction of a traced run's spans to per-layer
//! figures.
//!
//! `check_url` is one public call: its stages cannot be timed from outside
//! while it runs.  On a traced run the input of every sampled operation is
//! therefore pushed again, one stage at a time, through the public
//! functions the client calls inside — `CanonicalUrl::parse`,
//! `visit_decompositions`, `digest_url`, `DatabaseReader::contains` — by
//! the same load thread, right after the operation and outside its timed
//! interval.  Replaying on the spot rather than after the phase keeps the
//! stages comparable with their parent on a machine whose speed drifts
//! over seconds, and keeps the other lanes' contention in place; the price
//! is that the replayed URL is warm in the cache.  The codec is replayed
//! after the phase from the messages [`SpanTransport`] captured.
//!
//! [`SpanTransport`]: crate::span::SpanTransport

use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use sb_client::{DatabaseReader, SafeBrowsingClient};
use sb_hash::{digest_url, Digest, PrefixLen};
use sb_protocol::{ClientListState, SafeBrowsingService, UpdateRequest};
use sb_store::{serialize_snapshot, IndexedPrefixTable, SharedSnapshot};
use sb_url::{visit_decompositions, CanonicalUrl, DecomposeScratch};
use sb_wire::{decode_frame, encode_frame, Message};

use crate::alloc::thread_allocations;
use crate::pool::{Plan, LIST};
use crate::run::RunConfig;
use crate::span::{group_by_op, root_self_time_ns, write_jsonl, Lane, LaneRecord, RawSpan, Tracer};
use crate::stack::Stack;
use crate::stats::{median, percentile_of};

/// Sampled operations per lane written to the trace file at most.
const TRACE_FILE_OPS: usize = 10_000;
/// Locally-resolved lookups behind `client.allocs_per_local_lookup`.
const LOCAL_ALLOC_PROBES: usize = 1_000;

/// Replays one URL's stages; one per load thread.
pub struct StageReplayer {
    reader: DatabaseReader,
    scratch: DecomposeScratch,
    expressions: Vec<String>,
    digests: Vec<Digest>,
}

impl StageReplayer {
    pub fn new(client: &SafeBrowsingClient) -> Self {
        StageReplayer {
            reader: client.database_reader(),
            scratch: DecomposeScratch::default(),
            expressions: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Pushes `url` through the four stages and records one replay span
    /// per stage under operation `op`.  `detail` carries the stage's work
    /// count: expression bytes for `url.decompose`, digests for
    /// `hash.sha256`, prefixes for `store.probe`.
    pub fn url(&mut self, url: &str, op: u64, tracer: &Tracer, lane: &Lane) {
        // `check_url` builds the canonical form and lets go of it again:
        // both ends of its lifetime are canonicalisation's cost.
        let t0 = Instant::now();
        drop(black_box(CanonicalUrl::parse(black_box(url))));
        let t1 = Instant::now();
        let canonical = CanonicalUrl::parse(url).expect("pool URLs canonicalise");
        let t2 = Instant::now();
        let mut decomps = 0usize;
        visit_decompositions(&canonical, &mut self.scratch, |d| {
            black_box(d.expression());
            decomps += 1;
        });
        let t3 = Instant::now();

        // Untimed: keep the expressions, as the client's visitor sees them.
        let mut at = 0;
        let expressions = &mut self.expressions;
        visit_decompositions(&canonical, &mut self.scratch, |d| {
            if at == expressions.len() {
                expressions.push(String::new());
            }
            expressions[at].clear();
            expressions[at].push_str(d.expression());
            at += 1;
        });
        self.digests.clear();
        let bytes: usize = self.expressions[..decomps].iter().map(String::len).sum();

        let t4 = Instant::now();
        for expression in &self.expressions[..decomps] {
            self.digests.push(digest_url(black_box(expression)));
        }
        let t5 = Instant::now();
        let mut hit = false;
        for digest in &self.digests {
            hit |= self.reader.contains(&digest.prefix(PrefixLen::L32));
        }
        black_box(hit);
        let t6 = Instant::now();

        for (name, start, end, detail) in [
            ("url.canonicalize", t0, t1, 1),
            ("url.decompose", t2, t3, bytes),
            ("hash.sha256", t4, t5, decomps),
            ("store.probe", t5, t6, decomps),
        ] {
            lane.push(RawSpan {
                name,
                op,
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(end),
                replay: true,
                detail: detail as u32,
            });
        }
    }
}

/// Per-layer figures that come out of the spans and the replays.  Times are
/// medians unless named otherwise; 0 where a layer saw no traffic.
#[derive(Debug, Default)]
pub struct Replay {
    // Stage replay, per URL.
    pub canonicalize_ns: f64,
    pub decompose_ns: f64,
    pub decomps_per_url: f64,
    pub sha256_ns_per_url: f64,
    pub sha256_ns_per_digest: f64,
    pub bytes_per_digest: f64,
    pub probe_ns: f64,
    pub urls_replayed: usize,
    // Codec replay, per frame.
    pub encode_request_ns: f64,
    pub decode_request_ns: f64,
    pub encode_response_ns: f64,
    pub decode_response_ns: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
    pub frames_replayed: usize,
    pub update_bytes_per_prefix: f64,
    pub snapshot_load_ms: f64,
    pub allocs_per_local_lookup: f64,
    // Boundary spans.
    /// Parent span of a public lookup call, minus what its recorded
    /// children cover (sampled operations).
    pub call_self_ns: f64,
    /// What the recorded children of a public lookup call cover.
    pub call_children_ns: f64,
    pub retry_round_trip_us: f64,
    pub tcp_rtt_us: f64,
    pub tcp_rtt_p99_us: f64,
    pub server_full_hashes_us: f64,
    pub server_full_hashes_p99_us: f64,
    pub server_update_ms: f64,
    /// `client.update` minus its recorded children: what the client does
    /// itself, `LocalDatabase::apply_chunks` above all.
    pub client_update_self_ms: f64,
    pub server_requests_per_batch: f64,
    pub server_prefixes_per_request: f64,
    pub spans_recorded: usize,
    pub spans_written: u64,
    pub trace_path: Option<PathBuf>,
}

/// Median cost of one back-to-back pair of clock readings: what every
/// replayed stage's span contains besides the stage.
fn timer_overhead_ns() -> f64 {
    let mut pairs: Vec<u64> = (0..2_001)
        .map(|_| {
            let start = Instant::now();
            black_box(Instant::now().duration_since(start).as_nanos() as u64)
        })
        .collect();
    percentile_of(&mut pairs, 0.5) as f64
}

fn p50(values: &mut [u64]) -> f64 {
    percentile_of(values, 0.5) as f64
}

/// The spans named `name` that satisfy `keep`.
fn spans_named<'a>(
    records: &'a [LaneRecord],
    name: &'a str,
    keep: fn(&RawSpan) -> bool,
) -> impl Iterator<Item = &'a RawSpan> {
    records
        .iter()
        .flat_map(|record| &record.spans)
        .filter(move |span| span.name == name && keep(span))
}

fn durations(records: &[LaneRecord], name: &str, keep: fn(&RawSpan) -> bool) -> Vec<u64> {
    spans_named(records, name, keep)
        .map(RawSpan::duration_ns)
        .collect()
}

/// Reduces what the traced phase recorded to per-layer figures, replays
/// the codec, takes the one-off layer measurements and writes the trace.
pub fn reduce(
    config: &RunConfig,
    plan: &Plan<'_>,
    stack: &mut Stack,
    records: Vec<LaneRecord>,
) -> Replay {
    let mut replay = Replay::default();
    let overhead = timer_overhead_ns();
    let net = |values: &mut [u64]| (p50(values) - overhead).max(0.0);
    let any = |_: &RawSpan| true;

    // ---- boundary spans ---------------------------------------------------
    replay.spans_recorded = records.iter().map(|r| r.spans.len()).sum();
    let mut retry = durations(&records, "retry.round_trip", RawSpan::is_lookup);
    let mut rtt = durations(&records, "tcp_client.rtt", RawSpan::is_lookup);
    let mut full_hashes = durations(&records, "server.full_hashes", RawSpan::is_lookup);
    let mut server_update = durations(&records, "server.update", RawSpan::is_update);
    replay.retry_round_trip_us = p50(&mut retry) / 1e3;
    replay.tcp_rtt_us = p50(&mut rtt) / 1e3;
    replay.tcp_rtt_p99_us = percentile_of(&mut rtt, 0.99) as f64 / 1e3;
    replay.server_full_hashes_us = p50(&mut full_hashes) / 1e3;
    replay.server_full_hashes_p99_us = percentile_of(&mut full_hashes, 0.99) as f64 / 1e3;
    replay.server_update_ms = p50(&mut server_update) / 1e6;
    let batches: u64 = records.iter().map(|r| r.batches).sum();
    let requests: u64 = records.iter().map(|r| r.requests).sum();
    let prefixes: u64 = records.iter().map(|r| r.prefixes).sum();
    replay.server_requests_per_batch = requests as f64 / batches.max(1) as f64;
    replay.server_prefixes_per_request = prefixes as f64 / requests.max(1) as f64;

    // ---- stage replay -----------------------------------------------------
    let mut canonicalize = durations(&records, "url.canonicalize", any);
    let mut decompose = durations(&records, "url.decompose", any);
    let mut sha256 = durations(&records, "hash.sha256", any);
    let mut probe: Vec<u64> = spans_named(&records, "store.probe", any)
        .map(|span| span.duration_ns() / u64::from(span.detail.max(1)))
        .collect();
    let digests: u64 = spans_named(&records, "hash.sha256", any)
        .map(|span| u64::from(span.detail))
        .sum();
    let bytes: u64 = spans_named(&records, "url.decompose", any)
        .map(|span| u64::from(span.detail))
        .sum();
    replay.urls_replayed = canonicalize.len();
    let urls = replay.urls_replayed.max(1) as f64;
    let sha256_total: u64 = sha256.iter().sum();
    replay.canonicalize_ns = net(&mut canonicalize);
    replay.decompose_ns = net(&mut decompose);
    replay.sha256_ns_per_url = net(&mut sha256);
    replay.sha256_ns_per_digest =
        (sha256_total as f64 - overhead * urls).max(0.0) / digests.max(1) as f64;
    replay.decomps_per_url = digests as f64 / urls;
    // The clock pair is amortised over the URL's probes.
    replay.probe_ns = (p50(&mut probe) - overhead / replay.decomps_per_url.max(1.0)).max(0.0);
    replay.bytes_per_digest = bytes as f64 / digests.max(1) as f64;

    // Per lane, the operations whose parent span was kept (the sampled
    // lookups and every update), each with all of its spans.
    let mut captured: Vec<(Message, Message)> = Vec::new();
    let mut lanes: Vec<Vec<Vec<RawSpan>>> = Vec::new();
    for record in records {
        captured.extend(record.captured);
        let ops = group_by_op(record.spans)
            .into_iter()
            .filter(|spans| spans.iter().any(|s| s.name.starts_with("client.")))
            .collect();
        lanes.push(ops);
    }
    let mut call_self: Vec<u64> = Vec::new();
    let mut call_children: Vec<u64> = Vec::new();
    let mut update_self: Vec<u64> = Vec::new();
    for spans in lanes.iter().flatten() {
        let Some(own) = root_self_time_ns(spans) else {
            continue;
        };
        if spans[0].is_lookup() {
            call_self.push(own);
            call_children.push(spans[0].duration_ns() - own);
        } else if spans[0].is_update() {
            update_self.push(own);
        }
    }
    replay.call_self_ns = p50(&mut call_self);
    replay.call_children_ns = p50(&mut call_children);
    replay.client_update_self_ms = p50(&mut update_self) / 1e6;

    // ---- codec replay -------------------------------------------------------
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    for (request, response) in &captured {
        for (message, encode, decode, size) in [
            (request, &mut enc_req, &mut dec_req, &mut req_bytes),
            (response, &mut enc_resp, &mut dec_resp, &mut resp_bytes),
        ] {
            let t0 = Instant::now();
            let frame = encode_frame(black_box(message)).expect("captured message encodes");
            let t1 = Instant::now();
            black_box(decode_frame(black_box(&frame)).expect("own frame decodes"));
            let t2 = Instant::now();
            encode.push(t1.duration_since(t0).as_nanos() as u64);
            decode.push(t2.duration_since(t1).as_nanos() as u64);
            size.push(frame.len() as u64);
        }
    }
    replay.frames_replayed = captured.len() * 2;
    replay.encode_request_ns = net(&mut enc_req);
    replay.decode_request_ns = net(&mut dec_req);
    replay.encode_response_ns = net(&mut enc_resp);
    replay.decode_response_ns = net(&mut dec_resp);
    replay.request_bytes = p50(&mut req_bytes);
    replay.response_bytes = p50(&mut resp_bytes);

    // ---- one-off layer figures ---------------------------------------------
    // A fresh client's full sync, as it would go over the wire.
    let full_sync = stack
        .server
        .update(&UpdateRequest {
            lists: vec![(LIST.into(), ClientListState::default())],
        })
        .expect("the provider serves its list");
    let frame = encode_frame(&Message::UpdateResponse(full_sync)).expect("update encodes");
    replay.update_bytes_per_prefix = frame.len() as f64 / stack.server.total_prefixes() as f64;
    drop(frame);

    let list = stack
        .server
        .list_snapshot(&LIST.into())
        .expect("the provider serves its list");
    let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, list.prefixes());
    let snapshot: std::sync::Arc<[u8]> = serialize_snapshot(&table).into();
    let loads: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(SharedSnapshot::new(snapshot.clone()).expect("own snapshot loads"));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    replay.snapshot_load_ms = median(&loads);

    let pool = &plan.clients[0];
    let (mut local, mut allocations) = (0u64, 0u64);
    let benign = pool.urls.iter().zip(&pool.malicious).filter(|(_, m)| !**m);
    for (url, _) in benign.take(LOCAL_ALLOC_PROBES) {
        let before = thread_allocations();
        let outcome = stack.clients[0].check_url(url);
        let spent = thread_allocations() - before;
        if matches!(outcome, Ok(outcome) if outcome.was_resolved_locally()) {
            local += 1;
            allocations += spent;
        }
    }
    replay.allocs_per_local_lookup = allocations as f64 / local.max(1) as f64;

    // ---- the trace file -----------------------------------------------------
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("trace-{}.jsonl", config.workload.name()));
    match write_trace(&path, &lanes) {
        Ok(written) => {
            replay.spans_written = written;
            replay.trace_path = Some(path);
        }
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    replay
}

/// Writes, per lane, the first `TRACE_FILE_OPS` sampled lookups and every
/// update, each as one tree of spans.
fn write_trace(path: &std::path::Path, lanes: &[Vec<Vec<RawSpan>>]) -> std::io::Result<u64> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut next_span_id = 1;
    let mut written = 0;
    for (lane, ops) in lanes.iter().enumerate() {
        let lookups = ops
            .iter()
            .filter(|spans| spans[0].is_lookup())
            .take(TRACE_FILE_OPS);
        let updates = ops.iter().filter(|spans| spans[0].is_update());
        written += write_jsonl(&mut out, lane, lookups.chain(updates), &mut next_span_id)?;
    }
    out.flush()?;
    Ok(written)
}
