//! The timed phase: closed-loop load threads, one per client, each
//! checking its own operation stream against the generator's ground truth.
//!
//! A client's next call starts when the previous verdict arrived (a
//! browser waits for its verdict), and one clock reading per call serves
//! as the end of one operation and the start of the next.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sb_client::SafeBrowsingClient;
use sb_hash::Prefix;
use sb_server::SafeBrowsingServer;

use crate::alloc::thread_allocations;
use crate::pool::{fresh_prefixes, ClientOps, Plan, Sizes, Workload, CHURN_CHUNKS_PER_ROUND, LIST};
use crate::replay::StageReplayer;
use crate::span::{RawSpan, Tracer, SAMPLE_EVERY, UPDATE_OP_BASE};
use crate::stack::Stack;

/// The three counts that must repeat bit for bit for a seed, read off the
/// client's public counters after a fixed number of operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounts {
    pub urls: u64,
    pub round_trips: u64,
    pub prefixes_revealed: u64,
    /// `database_memory_bytes()` at the audit mark (on `update_churn` the
    /// overlay's size, and with it this figure, depends on the round).
    pub database_bytes: u64,
}

/// What one load thread measured.
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Nanoseconds per public call, in call order.
    pub latencies: Vec<u32>,
    pub urls: u64,
    /// Time spent inside lookup segments (the whole phase, except on
    /// `update_churn`, where mutation and update time is excluded).
    pub busy: Duration,
    pub errors: u64,
    pub mismatches: u64,
    pub audit: ExactCounts,
    /// Heap allocations this thread made inside lookup segments.
    pub allocations: u64,
    /// Wall time of each mid-run `update()`.
    pub update_ms: Vec<f64>,
}

/// Stop rule of one lookup segment.
#[derive(Clone, Copy)]
enum Until {
    Calls(usize),
    /// Run to the deadline, and at least to the audit mark.
    Deadline(Instant),
}

struct LoadThread<'a, 'c> {
    lane: usize,
    client: &'a mut SafeBrowsingClient,
    ops: &'a ClientOps<'c>,
    tracer: Option<&'a Tracer>,
    audit_calls: usize,
    calls: usize,
    updates: u64,
    replayer: StageReplayer,
    result: ClientResult,
}

impl LoadThread<'_, '_> {
    fn lookups(&mut self, until: Until) {
        let batch = self.ops.batch;
        let span_name = if batch == 1 {
            "client.check_url"
        } else {
            "client.check_urls"
        };
        let allocations = thread_allocations();
        let started = Instant::now();
        let mut previous = started;
        let mut done = 0usize;
        let mut audit_time = Duration::ZERO;
        loop {
            let finished = match until {
                Until::Calls(calls) => done >= calls,
                Until::Deadline(at) => self.calls >= self.audit_calls && previous >= at,
            };
            if finished {
                break;
            }
            let position = self.calls % self.ops.calls_per_pass();
            if position == 0 && self.calls > 0 {
                // A new pass over the pool: expire the full-hash cache, as
                // a browser does, so every pass behaves like the first.
                self.client.clear_cache();
            }
            if let Some(tracer) = self.tracer {
                tracer.lane(self.lane).begin(self.calls as u64);
            }
            let at = position * batch;
            if batch == 1 {
                match self.client.check_url(self.ops.urls[at]) {
                    Ok(outcome) => {
                        self.result.mismatches +=
                            u64::from(outcome.is_malicious() != self.ops.malicious[at]);
                    }
                    Err(_) => self.result.errors += 1,
                }
            } else {
                match self.client.check_urls(&self.ops.urls[at..at + batch]) {
                    Ok(outcomes) => {
                        let expected = &self.ops.malicious[at..at + batch];
                        self.result.mismatches += outcomes
                            .iter()
                            .zip(expected)
                            .filter(|(outcome, expected)| outcome.is_malicious() != **expected)
                            .count() as u64;
                    }
                    Err(_) => self.result.errors += batch as u64,
                }
            }
            let now = Instant::now();
            let nanos = now.duration_since(previous).as_nanos();
            self.result
                .latencies
                .push(u32::try_from(nanos).unwrap_or(u32::MAX));
            let op = self.calls as u64;
            self.calls += 1;
            done += 1;
            // The next operation starts now, unless the harness does work
            // of its own first.
            let mut next_start = now;
            if let Some(tracer) = self.tracer.filter(|_| op.is_multiple_of(SAMPLE_EVERY)) {
                let lane = tracer.lane(self.lane);
                lane.push(RawSpan {
                    name: span_name,
                    op,
                    start_ns: tracer.ns(previous),
                    end_ns: tracer.ns(now),
                    replay: false,
                    detail: batch as u32,
                });
                // Stage replay of the operation just timed: outside every
                // operation's interval, but inside the segment — it is
                // part of what tracing costs.
                for url in &self.ops.urls[at..at + batch] {
                    self.replayer.url(url, op, tracer, lane);
                }
                next_start = Instant::now();
            }
            if self.calls == self.audit_calls {
                self.result.audit = ExactCounts {
                    urls: (self.calls * batch) as u64,
                    round_trips: self.client.metrics().full_hash_round_trips as u64,
                    prefixes_revealed: self.client.disclosure_ledger().prefixes_revealed() as u64,
                    database_bytes: self.client.database_memory_bytes() as u64,
                };
                // Reading the ledger is the harness's work, not a lookup's:
                // it counts neither as latency nor as lookup time.
                let audited = Instant::now();
                audit_time = audited.duration_since(next_start);
                next_start = audited;
            }
            previous = next_start;
        }
        self.result.urls += (done * batch) as u64;
        self.result.busy += started.elapsed() - audit_time;
        self.result.allocations += thread_allocations() - allocations;
    }

    fn update(&mut self) {
        let (ms, ok) = timed_update(self.client, self.lane, self.updates, self.tracer);
        self.updates += 1;
        self.result.update_ms.push(ms);
        self.result.errors += u64::from(!ok);
    }
}

/// One timed `update()` of lane `lane`'s client: its wall time in
/// milliseconds and whether it succeeded.  The caller guarantees no other
/// client is updating: updates carry no cookie to tell lanes apart by, and
/// concurrent updates would queue on the provider's journal lock and make
/// the latency bimodal.
fn timed_update(
    client: &mut SafeBrowsingClient,
    lane: usize,
    index: u64,
    tracer: Option<&Tracer>,
) -> (f64, bool) {
    let op = UPDATE_OP_BASE + index;
    if let Some(tracer) = tracer {
        tracer.set_updater(lane);
        tracer.lane(lane).begin(op);
    }
    let started = Instant::now();
    let ok = client.update().is_ok();
    let ended = Instant::now();
    if let Some(tracer) = tracer {
        tracer.lane(lane).push(RawSpan {
            name: "client.update",
            op,
            start_ns: tracer.ns(started),
            end_ns: tracer.ns(ended),
            replay: false,
            detail: 0,
        });
    }
    (ended.duration_since(started).as_secs_f64() * 1e3, ok)
}

/// Latency slots pre-touched per client and second, so the buffer's share
/// of peak RSS does not grow when the code under test gets faster (about
/// 2.4× today's fastest workload).
const LATENCY_SLOTS_PER_SECOND: usize = 800_000;

fn latency_buffer(seconds: f64) -> Vec<u32> {
    let mut buffer = vec![1u32; (seconds * LATENCY_SLOTS_PER_SECOND as f64) as usize];
    buffer.clear();
    buffer
}

/// What the provider-mutating thread of `update_churn` measured.
#[derive(Debug, Default)]
pub struct ChurnResult {
    pub rounds: usize,
    /// Wall time of each round's mutation step (`CHURN_CHUNKS_PER_ROUND`
    /// chunks injected and as many removed).
    pub mutate_ms: Vec<f64>,
}

/// Provider-side churn state: chunks are removed in the order they were
/// injected, `CHURN_LAG_ROUNDS` rounds later.
struct Churn {
    rng: StdRng,
    live: VecDeque<Vec<Prefix>>,
    occupied: HashSet<u32>,
    chunk: usize,
    result: ChurnResult,
}

impl Churn {
    /// One round's mutation, timed.
    fn mutate(&mut self, server: &SafeBrowsingServer) {
        let started = Instant::now();
        self.inject_and_remove(server);
        self.result
            .mutate_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        self.result.rounds += 1;
    }

    fn inject_and_remove(&mut self, server: &SafeBrowsingServer) {
        for _ in 0..CHURN_CHUNKS_PER_ROUND {
            let fresh = fresh_prefixes(&mut self.occupied, &mut self.rng, self.chunk);
            server
                .inject_prefixes(LIST, fresh.iter().copied())
                .expect("list exists");
            self.live.push_back(fresh);
            let oldest = self.live.pop_front().expect("seeded at build time");
            server.remove_prefixes(LIST, oldest).expect("list exists");
        }
    }
}

/// Runs the timed phase of `workload` on `stack` for at least `seconds`
/// (and at least to the audit mark).  Returns one result per client, plus
/// the churn accounting on `update_churn`.
pub fn run_phase(
    workload: Workload,
    sizes: &Sizes,
    plan: &mut Plan<'_>,
    stack: &mut Stack,
    seconds: f64,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> (Vec<ClientResult>, ChurnResult) {
    let count = stack.clients.len();
    let audit_calls = sizes.audit_ops(workload);
    let barrier = Barrier::new(count);
    let stop = AtomicBool::new(false);
    let churn = Mutex::new(Churn {
        rng: StdRng::seed_from_u64(seed ^ 0x0063_6875_726e),
        live: std::mem::take(&mut plan.churn_seed).into(),
        occupied: std::mem::take(&mut plan.occupied),
        chunk: sizes.churn_chunk,
        result: ChurnResult::default(),
    });
    let server = stack.server.clone();
    let plan = &*plan;

    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let (barrier, stop, churn, server) = (&barrier, &stop, &churn, &server);
                scope.spawn(move || {
                    let mut thread = LoadThread {
                        lane,
                        replayer: StageReplayer::new(client),
                        client,
                        ops: &plan.clients[lane],
                        tracer: tracer.map(Arc::as_ref),
                        audit_calls,
                        calls: 0,
                        updates: 0,
                        result: ClientResult {
                            latencies: latency_buffer(seconds),
                            ..ClientResult::default()
                        },
                    };
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    if workload != Workload::UpdateChurn {
                        thread.lookups(Until::Deadline(deadline));
                        return thread.result;
                    }
                    for round in 0usize.. {
                        thread.lookups(Until::Calls(sizes.churn_lookups));
                        barrier.wait();
                        if lane == 0 {
                            churn.lock().expect("churn state poisoned").mutate(server);
                            stop.store(
                                round + 1 >= sizes.churn_min_rounds && Instant::now() >= deadline,
                                Ordering::SeqCst,
                            );
                        }
                        for turn in 0..count {
                            barrier.wait();
                            if turn == lane {
                                thread.update();
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    thread.result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let churn = churn.into_inner().expect("churn state poisoned");
    (results, churn.result)
}

/// The update polls after the timed phase of a workload without mid-run
/// updates: `clients + 1` sequential `update()` calls that find nothing
/// new — the common case of a browser's periodic poll.  Returns each
/// poll's wall time and the number that failed.
pub fn run_update_polls(stack: &mut Stack, tracer: Option<&Arc<Tracer>>) -> (Vec<f64>, u64) {
    let count = stack.clients.len();
    let mut update_ms = Vec::with_capacity(count + 1);
    let mut errors = 0;
    for poll in 0..=count {
        let lane = poll % count;
        let (ms, ok) = timed_update(
            &mut stack.clients[lane],
            lane,
            poll as u64,
            tracer.map(Arc::as_ref),
        );
        update_ms.push(ms);
        errors += u64::from(!ok);
    }
    (update_ms, errors)
}
