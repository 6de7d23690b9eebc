//! One measured run: set-up, the timed phase, the oracle, and the counters
//! read off the layers' public surfaces afterwards.

use std::sync::Arc;
use std::time::Instant;

use sb_server::{JournalStats, WireStats};
use sb_store::GenerationalStats;
use sb_telemetry::RegistrySnapshot;

use crate::drive::{run_phase, run_update_polls, ChurnResult, ClientResult};
use crate::pool::{generate_corpus, Plan, Sizes, Workload};
use crate::replay::{reduce, Replay};
use crate::span::Tracer;
use crate::stack::Stack;
use crate::stats::median;

pub struct RunConfig {
    pub workload: Workload,
    pub sizes: Sizes,
    pub clients: usize,
    pub seed: u64,
    pub seconds: f64,
}

/// Everything one run produced, detached from the corpus it ran over.
pub struct Measured {
    pub setup_s: f64,
    pub corpus_generate_ms: f64,
    pub build_ms: f64,
    pub full_sync_ms: f64,
    pub pool_digest: u64,
    pub results: Vec<ClientResult>,
    pub churn: ChurnResult,
    /// Mid-run updates on `update_churn`, post-phase polls elsewhere.
    pub update_ms: Vec<f64>,
    /// Per client: its telemetry plane after the run.
    pub telemetry: Vec<RegistrySnapshot>,
    /// Requests in the clients' disclosure ledgers / the provider's log.
    pub ledger_requests: u64,
    pub query_log_requests: u64,
    /// Ledger records: lookup calls that had to ask the provider.
    pub ledger_records: u64,
    /// Client bytes sent plus received during the timed phase alone.
    pub phase_wire_bytes: u64,
    /// Client 0's store counters before and after the timed phase.
    pub store_before: GenerationalStats,
    pub store_after: GenerationalStats,
    pub journal_before: JournalStats,
    pub journal_after: JournalStats,
    pub tier: Option<WireStats>,
    /// Client bytes sent/received ≡ tier bytes received/sent (trivially
    /// true without a tier).
    pub bytes_parity: bool,
    /// URLs checked plus updates performed.
    pub attempted: u64,
    /// What the oracle found wrong, one line each (empty on a correct run).
    pub violations: Vec<String>,
    /// Operations that errored plus verdicts that differ from ground truth
    /// plus invariant violations.
    pub failed: u64,
    /// The spans and replays reduced to per-layer figures (traced runs only).
    pub replay: Option<Replay>,
}

impl Measured {
    /// Sum of a counter over the clients' telemetry planes.
    pub fn counter(&self, name: &str) -> u64 {
        sum_counter(&self.telemetry, name)
    }

    pub fn urls(&self) -> u64 {
        self.results.iter().map(|r| r.urls).sum()
    }

    /// URLs per second: each client's URLs over its own time in lookup
    /// segments, summed.
    pub fn lookups_per_s(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.urls as f64 / r.busy.as_secs_f64())
            .sum()
    }
}

/// Sets the stack up from nothing (corpus generation on), runs the timed
/// phase and checks it.
pub fn measure(config: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Measured {
    let started = Instant::now();
    let corpus = generate_corpus(&config.sizes, config.seed);
    let corpus_generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut plan = Plan::build(
        config.workload,
        &config.sizes,
        config.clients,
        config.seed,
        &corpus,
    );
    let mut stack = Stack::build(config.workload, &plan, tracer);
    let setup_s = started.elapsed().as_secs_f64();
    let (build_ms, full_sync_ms) = (stack.build_ms, median(&stack.full_sync_ms));

    let store_before = stack.clients[0].database_store_stats();
    let journal_before = stack.server.journal_stats();
    if let Some(tracer) = tracer {
        tracer.set_recording(true);
    }
    let wire_bytes = |stack: &Stack| -> u64 {
        let planes: Vec<RegistrySnapshot> = stack
            .clients
            .iter()
            .map(|client| client.telemetry().snapshot())
            .collect();
        sum_counter(&planes, "tcp_client.bytes_sent")
            + sum_counter(&planes, "tcp_client.bytes_received")
    };
    let wire_bytes_before = wire_bytes(&stack);
    let (results, churn) = run_phase(
        config.workload,
        &config.sizes,
        &mut plan,
        &mut stack,
        config.seconds,
        config.seed,
        tracer,
    );
    let phase_wire_bytes = wire_bytes(&stack) - wire_bytes_before;
    let (update_ms, poll_errors) = if config.workload == Workload::UpdateChurn {
        let mid_run = results.iter().flat_map(|r| &r.update_ms).copied().collect();
        (mid_run, 0)
    } else {
        run_update_polls(&mut stack, tracer)
    };
    let store_after = stack.clients[0].database_store_stats();
    let journal_after = stack.server.journal_stats();

    let replay = tracer.map(|tracer| {
        tracer.set_recording(false);
        reduce(config, &plan, &mut stack, tracer.drain())
    });

    // ---- the oracle -------------------------------------------------------
    let errors: u64 = results.iter().map(|r| r.errors).sum::<u64>() + poll_errors;
    let mismatches: u64 = results.iter().map(|r| r.mismatches).sum();
    // Broken invariants, one line each; each counts as one failure.
    let mut violations = Vec::new();
    let telemetry: Vec<RegistrySnapshot> = stack
        .clients
        .iter()
        .map(|client| client.telemetry().snapshot())
        .collect();
    let ledgers = || stack.clients.iter().map(|c| c.disclosure_ledger());
    let ledger_requests: u64 = ledgers().map(|l| l.requests_revealed() as u64).sum();
    let ledger_records: u64 = ledgers().map(|l| l.len() as u64).sum();
    let query_log_requests = stack.server.query_log().len() as u64;
    if ledger_requests != query_log_requests {
        violations.push(format!(
            "ledger holds {ledger_requests} requests, the provider logged {query_log_requests}"
        ));
    }
    let provider_prefixes = stack.server.total_prefixes();
    for (lane, client) in stack.clients.iter().enumerate() {
        let held = client.database_prefix_count();
        if held != provider_prefixes || held != config.sizes.prefixes {
            violations.push(format!(
                "client {lane} holds {held} prefixes, provider {provider_prefixes}, configured {}",
                config.sizes.prefixes
            ));
        }
    }
    let retries = sum_counter(&telemetry, "retry.retries");
    if retries > 0 {
        violations.push(format!("{retries} round trips were retried"));
    }
    let tier = stack.shutdown();
    let bytes_parity = tier.is_none_or(|tier| {
        sum_counter(&telemetry, "tcp_client.bytes_sent") == tier.bytes_received
            && sum_counter(&telemetry, "tcp_client.bytes_received") == tier.bytes_sent
    });
    if !bytes_parity {
        violations.push("client bytes sent/received differ from tier bytes received/sent".into());
    }
    let failed = errors + mismatches + violations.len() as u64;
    if errors > 0 {
        violations.push(format!("{errors} operations returned an error"));
    }
    if mismatches > 0 {
        violations.push(format!("{mismatches} verdicts differ from ground truth"));
    }
    Measured {
        setup_s,
        corpus_generate_ms,
        build_ms,
        full_sync_ms,
        pool_digest: plan.digest,
        attempted: results.iter().map(|r| r.urls).sum::<u64>() + update_ms.len() as u64,
        results,
        churn,
        update_ms,
        telemetry,
        ledger_requests,
        query_log_requests,
        ledger_records,
        phase_wire_bytes,
        store_before,
        store_after,
        journal_before,
        journal_after,
        tier,
        bytes_parity,
        violations,
        failed,
        replay,
    }
}

fn sum_counter(planes: &[RegistrySnapshot], name: &str) -> u64 {
    planes
        .iter()
        .map(|plane| plane.counter(name).unwrap_or(0))
        .sum()
}
