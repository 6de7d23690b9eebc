//! Builds the system under test for one run: the provider, the serving
//! tier on TCP workloads, and one synced client per load thread.  On a
//! traced run the two boundary decorators of `span.rs` are spliced in; the
//! untraced stack contains nothing of the benchmark's own.

use std::sync::Arc;
use std::time::Instant;

use sb_client::{
    ClientConfig, PaddedBucketShaper, RetryPolicy, RetryingTransport, SafeBrowsingClient,
    TcpTransport,
};
use sb_protocol::{ClientCookie, Provider, ThreatCategory};
use sb_server::{SafeBrowsingServer, TcpServingTier, TierConfig, WireStats};
use sb_store::StoreBackend;
use sb_telemetry::Telemetry;

use crate::pool::{Plan, Workload, LIST};
use crate::span::{SpanService, SpanTransport, Tracer};

/// Prefixes each padded request carries on `page_batch_shaped`.
const SHAPER_BUCKET: usize = 4;

pub struct Stack {
    pub server: Arc<SafeBrowsingServer>,
    tier: Option<TcpServingTier>,
    /// Each client has a telemetry plane of its own, shared by its client,
    /// retry and TCP layers: `client.telemetry().snapshot()` spans them.
    pub clients: Vec<SafeBrowsingClient>,
    /// Wall time of the provider build.
    pub build_ms: f64,
    /// Wall time of each client's initial full `update()`.
    pub full_sync_ms: Vec<f64>,
}

pub fn build_provider(plan: &Plan<'_>) -> Arc<SafeBrowsingServer> {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    // Orphans first: a later digest for the same prefix is then kept.
    for bare in [&plan.orphans, &plan.filler]
        .into_iter()
        .chain(&plan.churn_seed)
    {
        if !bare.is_empty() {
            server
                .inject_prefixes(LIST, bare.iter().copied())
                .expect("list exists");
        }
    }
    if !plan.confirmed.is_empty() {
        server
            .blacklist_expressions(LIST, plan.confirmed.iter().copied())
            .expect("list exists");
    }
    server
}

impl Stack {
    /// Builds provider, tier and clients, and syncs every client (in
    /// parallel, as a fleet starting up would).
    pub fn build(workload: Workload, plan: &Plan<'_>, tracer: Option<&Arc<Tracer>>) -> Self {
        let started = Instant::now();
        let server = build_provider(plan);
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let count = plan.clients.len();

        let tier = workload.over_tcp().then(|| {
            // One worker per pooled client connection: at most `count`
            // tier threads are ever runnable beside the `count` clients.
            let config = TierConfig::default().with_workers(count);
            match tracer {
                Some(tracer) => TcpServingTier::bind(
                    Arc::new(SpanService::new(server.clone(), tracer.clone())),
                    config,
                ),
                None => TcpServingTier::bind(server.clone(), config),
            }
            .expect("bind the serving tier on loopback")
        });

        let mut clients: Vec<SafeBrowsingClient> = (0..count)
            .map(|lane| {
                let telemetry = Telemetry::new();
                let mut config = ClientConfig::subscribed_to([LIST])
                    .with_backend(StoreBackend::Indexed)
                    // Browsers cannot disable the cookie (Section 2.2.3);
                    // the traced run also reads the lane off it.
                    .with_cookie(ClientCookie::new(lane as u64 + 1))
                    .with_telemetry(telemetry.clone());
                if workload == Workload::PageBatchShaped {
                    config = config.with_shaper(PaddedBucketShaper {
                        bucket: SHAPER_BUCKET,
                    });
                }
                match (&tier, tracer) {
                    (None, None) => SafeBrowsingClient::in_process(config, server.clone()),
                    (None, Some(tracer)) => SafeBrowsingClient::in_process(
                        config,
                        Arc::new(SpanService::new(server.clone(), tracer.clone())),
                    ),
                    (Some(tier), None) => SafeBrowsingClient::new(
                        config,
                        RetryingTransport::new(tcp(tier, &telemetry), RetryPolicy::default())
                            .with_telemetry(telemetry),
                    ),
                    (Some(tier), Some(tracer)) => SafeBrowsingClient::new(
                        config,
                        SpanTransport::new(
                            RetryingTransport::new(
                                SpanTransport::new(
                                    tcp(tier, &telemetry),
                                    "tcp_client.rtt",
                                    tracer.clone(),
                                    lane,
                                )
                                .capturing(),
                                RetryPolicy::default(),
                            )
                            .with_telemetry(telemetry),
                            "retry.round_trip",
                            tracer.clone(),
                            lane,
                        ),
                    ),
                }
            })
            .collect();

        let full_sync_ms: Vec<f64> = clients
            .iter_mut()
            .map(|client| {
                let started = Instant::now();
                client.update().expect("initial full update");
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();

        Stack {
            server,
            tier,
            clients,
            build_ms,
            full_sync_ms,
        }
    }

    /// Closes the client connections, drains the tier and returns its
    /// final counters (`None` on in-process workloads).
    pub fn shutdown(self) -> Option<WireStats> {
        drop(self.clients);
        self.tier.map(TcpServingTier::shutdown)
    }
}

fn tcp(tier: &TcpServingTier, telemetry: &Telemetry) -> TcpTransport {
    TcpTransport::new(tier.local_addr())
        .expect("tier address resolves")
        .with_telemetry(telemetry.clone())
}
