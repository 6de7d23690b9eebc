//! The traced run's span plane, recorded from outside the crates under
//! test: the driver loop records the parent span around each public call,
//! [`SpanTransport`] and [`SpanService`] record the layer boundaries, and
//! stage replay (see `replay.rs`) adds the stages that cannot be cut from
//! outside.  Spans stay in memory until the run ends.
//!
//! Spans of one operation share `(lane, op)`: a lane is one closed-loop
//! client, which has at most one operation in flight, so the decorators
//! read the lane's current operation instead of carrying an id in band.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sb_client::Transport;
use sb_protocol::{
    DeadlineBudget, FullHashRequest, FullHashResponse, SafeBrowsingService, ServiceError,
    UpdateRequest, UpdateResponse,
};
use sb_wire::Message;

/// Every `SAMPLE_EVERY`-th operation of a lane is sampled: its parent span
/// is kept, its codec messages are captured and its inputs are replayed.
pub const SAMPLE_EVERY: u64 = 64;

/// Operation ids at or above this are `update()` calls, below it lookups.
pub const UPDATE_OP_BASE: u64 = 1 << 40;

/// The operation id in force while the stack is being set up.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded span.  Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Produced by stage replay: its duration is real, its position in
    /// time is after its parent's interval, not inside it.
    pub replay: bool,
    /// The span's work count, where it has one (see `StageReplayer::url`;
    /// prefixes carried for `server.full_hashes`).
    pub detail: u32,
}

impl RawSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn is_lookup(&self) -> bool {
        self.op < UPDATE_OP_BASE
    }

    pub fn is_update(&self) -> bool {
        self.op >= UPDATE_OP_BASE && self.op != SETUP_OP
    }
}

/// One closed-loop client's recording state.
#[derive(Debug)]
pub struct Lane {
    current_op: AtomicU64,
    spans: Mutex<Vec<RawSpan>>,
    /// Request/response pairs of sampled operations, for codec replay.
    captured: Mutex<Vec<(Message, Message)>>,
    /// `full_hashes_batch` calls, requests and prefixes the provider saw.
    batches: AtomicU64,
    requests: AtomicU64,
    prefixes: AtomicU64,
}

impl Lane {
    fn new() -> Self {
        Lane {
            current_op: AtomicU64::new(SETUP_OP),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            captured: Mutex::new(Vec::new()),
            batches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            prefixes: AtomicU64::new(0),
        }
    }

    /// Declares the operation the lane's client is about to perform.
    pub fn begin(&self, op: u64) {
        // Relaxed: the value is read by the same thread (in-process) or by
        // the tier worker serving this client's request, which the socket
        // round trip orders after this store.
        self.current_op.store(op, Ordering::Relaxed);
    }

    pub fn push(&self, span: RawSpan) {
        self.spans.lock().expect("lane spans poisoned").push(span);
    }

    fn op(&self) -> u64 {
        self.current_op.load(Ordering::Relaxed)
    }
}

/// What one lane recorded, handed over when the run ends.
#[derive(Debug, Default)]
pub struct LaneRecord {
    pub spans: Vec<RawSpan>,
    pub captured: Vec<(Message, Message)>,
    pub batches: u64,
    pub requests: u64,
    pub prefixes: u64,
}

/// The span sink shared by the driver loops and both decorators.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lanes: Vec<Lane>,
    /// Lane whose client is inside `update()` (updates carry no cookie;
    /// the drivers run them one client at a time), or `usize::MAX`.
    updater: AtomicUsize,
    /// Off during set-up syncs, whose spans are not part of any metric.
    recording: AtomicBool,
}

impl Tracer {
    pub fn new(lanes: usize) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
            updater: AtomicUsize::new(usize::MAX),
            recording: AtomicBool::new(false),
        })
    }

    pub fn lane(&self, index: usize) -> &Lane {
        &self.lanes[index]
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn is_recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Declares which lane's client is about to call `update()`.
    pub fn set_updater(&self, lane: usize) {
        self.updater.store(lane, Ordering::SeqCst);
    }

    /// Takes every lane's record, leaving the tracer empty.
    pub fn drain(&self) -> Vec<LaneRecord> {
        self.lanes
            .iter()
            .map(|lane| LaneRecord {
                spans: std::mem::take(&mut *lane.spans.lock().expect("lane spans poisoned")),
                captured: std::mem::take(
                    &mut *lane.captured.lock().expect("lane captures poisoned"),
                ),
                batches: lane.batches.swap(0, Ordering::Relaxed),
                requests: lane.requests.swap(0, Ordering::Relaxed),
                prefixes: lane.prefixes.swap(0, Ordering::Relaxed),
            })
            .collect()
    }
}

/// Boundary decorator around a client transport: one span per round trip,
/// named after the layer it wraps (`retry.round_trip`, `tcp_client.rtt`).
#[derive(Debug)]
pub struct SpanTransport<T> {
    inner: T,
    name: &'static str,
    tracer: Arc<Tracer>,
    lane: usize,
    /// Keep the codec messages of sampled operations (innermost decorator
    /// only: what it sees is what goes on the wire).
    capture: bool,
}

impl<T: Transport> SpanTransport<T> {
    pub fn new(inner: T, name: &'static str, tracer: Arc<Tracer>, lane: usize) -> Self {
        SpanTransport {
            inner,
            name,
            tracer,
            lane,
            capture: false,
        }
    }

    pub fn capturing(mut self) -> Self {
        self.capture = true;
        self
    }

    fn timed<R>(&self, call: impl FnOnce() -> R) -> (R, u64) {
        if !self.tracer.is_recording() {
            return (call(), SETUP_OP);
        }
        let lane = self.tracer.lane(self.lane);
        let op = lane.op();
        let start_ns = self.tracer.now_ns();
        let result = call();
        lane.push(RawSpan {
            name: self.name,
            op,
            start_ns,
            end_ns: self.tracer.now_ns(),
            replay: false,
            detail: 0,
        });
        (result, op)
    }

    fn full_hashes_spanned(
        &self,
        requests: &[FullHashRequest],
        call: impl FnOnce() -> Result<Vec<FullHashResponse>, ServiceError>,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        let (result, op) = self.timed(call);
        if self.capture && op < UPDATE_OP_BASE && op % SAMPLE_EVERY == 0 {
            if let Ok(responses) = &result {
                self.tracer
                    .lane(self.lane)
                    .captured
                    .lock()
                    .expect("lane captures poisoned")
                    .push((
                        Message::FullHashRequests(requests.to_vec()),
                        Message::FullHashResponses(responses.clone()),
                    ));
            }
        }
        result
    }
}

impl<T: Transport> Transport for SpanTransport<T> {
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        self.timed(|| self.inner.update(request)).0
    }

    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.full_hashes_spanned(requests, || self.inner.full_hashes_batch(requests))
    }

    // The budget-aware twins forward explicitly: the trait defaults would
    // strip the budget from the wrapped transport.
    fn update_within(
        &self,
        request: &UpdateRequest,
        budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError> {
        self.timed(|| self.inner.update_within(request, budget)).0
    }

    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.full_hashes_spanned(requests, || {
            self.inner.full_hashes_batch_within(requests, budget)
        })
    }
}

/// Boundary decorator between the serving tier (or the in-process
/// transport) and the provider: `server.full_hashes` and `server.update`.
#[derive(Debug)]
pub struct SpanService<S> {
    inner: Arc<S>,
    tracer: Arc<Tracer>,
}

impl<S> SpanService<S> {
    pub fn new(inner: Arc<S>, tracer: Arc<Tracer>) -> Self {
        SpanService { inner, tracer }
    }
}

impl<S: SafeBrowsingService> SafeBrowsingService for SpanService<S> {
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        let lane = self.tracer.updater.load(Ordering::SeqCst);
        if !self.tracer.is_recording() || lane >= self.tracer.lanes.len() {
            return self.inner.update(request);
        }
        let lane = self.tracer.lane(lane);
        let start_ns = self.tracer.now_ns();
        let result = self.inner.update(request);
        lane.push(RawSpan {
            name: "server.update",
            op: lane.op(),
            start_ns,
            end_ns: self.tracer.now_ns(),
            replay: false,
            detail: 0,
        });
        result
    }

    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        // Every benchmark client carries cookie `lane + 1`.
        let lane = requests
            .first()
            .and_then(|request| request.cookie)
            .map(|cookie| cookie.id().wrapping_sub(1) as usize)
            .filter(|&lane| lane < self.tracer.lanes.len());
        let Some(lane) = lane.filter(|_| self.tracer.is_recording()) else {
            return self.inner.full_hashes_batch(requests);
        };
        let lane = self.tracer.lane(lane);
        let prefixes: u64 = requests.iter().map(|r| r.prefixes.len() as u64).sum();
        let start_ns = self.tracer.now_ns();
        let result = self.inner.full_hashes_batch(requests);
        lane.push(RawSpan {
            name: "server.full_hashes",
            op: lane.op(),
            start_ns,
            end_ns: self.tracer.now_ns(),
            replay: false,
            detail: prefixes as u32,
        });
        lane.batches.fetch_add(1, Ordering::Relaxed);
        lane.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        lane.prefixes.fetch_add(prefixes, Ordering::Relaxed);
        result
    }
}

/// A layer's self time: the span's duration minus the part of its interval
/// that its child spans cover.  Children may overlap each other and may
/// stick out of the parent; overlaps count once and the excess is clipped.
pub fn self_time_ns(parent: &RawSpan, children: &[RawSpan]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in clipped {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Links the spans of **one operation** into a tree: a replayed span hangs
/// under the operation's root (the longest recorded span), every other
/// span under the innermost recorded span that contains it.  Returns each
/// span's parent index.
pub fn link_parents(spans: &[RawSpan]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).filter(|&i| !spans[i].replay).collect();
    // Outermost first: earlier start, then later end.
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
    let mut parents = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[top].end_ns >= spans[i].end_ns && spans[top].start_ns <= spans[i].start_ns {
                break;
            }
            stack.pop();
        }
        parents[i] = stack.last().copied();
        stack.push(i);
    }
    let root = order.first().copied();
    for (i, span) in spans.iter().enumerate() {
        if span.replay {
            parents[i] = root;
        }
    }
    parents
}

/// Self time of the root span of one operation's spans (see
/// [`link_parents`]), or `None` when nothing was recorded for it.
pub fn root_self_time_ns(spans: &[RawSpan]) -> Option<u64> {
    let parents = link_parents(spans);
    let root = (0..spans.len()).find(|&i| !spans[i].replay && parents[i].is_none())?;
    let children: Vec<RawSpan> = (0..spans.len())
        .filter(|&i| parents[i] == Some(root) && !spans[i].replay)
        .map(|i| spans[i])
        .collect();
    Some(self_time_ns(&spans[root], &children))
}

/// Groups a lane's spans by operation (ascending op id).
pub fn group_by_op(mut spans: Vec<RawSpan>) -> Vec<Vec<RawSpan>> {
    spans.sort_by_key(|s| (s.op, s.replay, s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut groups: Vec<Vec<RawSpan>> = Vec::new();
    for span in spans {
        match groups.last_mut() {
            Some(group) if group[0].op == span.op => group.push(span),
            _ => groups.push(vec![span]),
        }
    }
    groups
}

/// Writes operations as JSON lines `(op_id, span_id, parent, name,
/// start_ns, end_ns, replay, detail)`; `op_id` is `lane << 48 | op`.  Returns the
/// number of spans written.
pub fn write_jsonl<'a>(
    out: &mut impl Write,
    lane: usize,
    ops: impl IntoIterator<Item = &'a Vec<RawSpan>>,
    next_span_id: &mut u64,
) -> std::io::Result<u64> {
    let mut written = 0;
    for spans in ops {
        let parents = link_parents(spans);
        let base = *next_span_id;
        for (i, span) in spans.iter().enumerate() {
            let parent = match parents[i] {
                Some(p) => (base + p as u64).to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"op_id\":{},\"span_id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replay\":{},\"detail\":{}}}",
                (lane as u64) << 48 | span.op,
                base + i as u64,
                parent,
                span.name,
                span.start_ns,
                span.end_ns,
                span.replay,
                span.detail,
            )?;
        }
        *next_span_id += spans.len() as u64;
        written += spans.len() as u64;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> RawSpan {
        RawSpan {
            name,
            op: 0,
            start_ns,
            end_ns,
            replay: false,
            detail: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span("p", 0, 100);
        let children = [span("a", 10, 30), span("b", 20, 40), span("c", 60, 70)];
        // a ∪ b covers 10..40 (30), c covers 10 more.
        assert_eq!(self_time_ns(&parent, &children), 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let parent = span("p", 100, 200);
        let children = [
            span("before", 0, 50),    // entirely outside
            span("early", 90, 110),   // 10 inside
            span("late", 190, 250),   // 10 inside
            span("nested", 195, 198), // already covered by `late`
        ];
        assert_eq!(self_time_ns(&parent, &children), 80);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[span("all", 0, 300)]), 0);
    }

    #[test]
    fn parents_are_the_innermost_enclosing_span() {
        let mut replayed = span("url.canonicalize", 900, 901);
        replayed.replay = true;
        let spans = [
            span("tcp_client.rtt", 20, 80),
            span("client.check_url", 0, 100),
            span("server.full_hashes", 40, 60),
            span("retry.round_trip", 10, 90),
            replayed,
        ];
        let parents = link_parents(&spans);
        assert_eq!(parents, vec![Some(3), None, Some(0), Some(1), Some(1)]);
        // check_url's only direct recorded child is retry.round_trip.
        assert_eq!(root_self_time_ns(&spans), Some(20));
    }

    #[test]
    fn siblings_do_not_adopt_each_other() {
        // A real round trip followed by a cover round trip.
        let spans = [
            span("client.check_urls", 0, 100),
            span("retry.round_trip", 10, 40),
            span("retry.round_trip", 50, 90),
        ];
        assert_eq!(link_parents(&spans), vec![None, Some(0), Some(0)]);
        assert_eq!(root_self_time_ns(&spans), Some(30));
    }

    #[test]
    fn jsonl_rows_carry_ids_and_parents() {
        let ops = group_by_op(vec![
            span("client.check_url", 0, 10),
            RawSpan {
                op: 64,
                ..span("client.check_url", 20, 30)
            },
            RawSpan {
                op: 64,
                ..span("server.full_hashes", 22, 25)
            },
        ]);
        assert_eq!(ops.len(), 2);
        let mut out = Vec::new();
        let mut next = 1;
        let written = write_jsonl(&mut out, 1, &ops, &mut next).unwrap();
        assert_eq!((written, next), (3, 4));
        let text = String::from_utf8(out).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(
            rows[0],
            format!(
                "{{\"op_id\":{},\"span_id\":1,\"parent\":null,\"name\":\"client.check_url\",\"start_ns\":0,\"end_ns\":10,\"replay\":false,\"detail\":0}}",
                1u64 << 48
            )
        );
        assert!(rows[2].contains("\"span_id\":3,\"parent\":2,\"name\":\"server.full_hashes\""));
    }
}
