//! # sb-client
//!
//! The Safe Browsing client: local prefix database (with the raw, Bloom and
//! delta-coded backends of `sb-store`), incremental updates, the lookup flow
//! of Figure 3 (canonicalize → decompose → local check → full-hash request →
//! verdict), batched lookups that coalesce cache misses into one round
//! trip, a full-hash cache, per-client metrics, and the composable privacy
//! pipeline: a [`QueryShaper`] turns local hits into a [`QueryPlan`] of
//! wire requests (Section 8's mitigations are the built-in shapers —
//! [`ExactShaper`], [`DeterministicDummiesShaper`],
//! [`OnePrefixAtATimeShaper`], [`PaddedBucketShaper`]), and everything
//! revealed is recorded in the client's [`DisclosureLedger`].
//!
//! The client owns its provider connection as a [`Transport`] handle:
//! [`InProcessTransport`] for direct calls into a simulated provider,
//! [`TcpTransport`] for pooled `sb-wire` round trips to a real
//! `sb_server::TcpServingTier` socket, [`SimulatedTransport`] to inject
//! faults and latency on top of any other transport, and
//! [`RetryingTransport`] to add the deployed services' retry/backoff policy
//! (honouring provider back-off delays, deterministic jittered exponential
//! fallback, injectable [`Clock`](sb_protocol::Clock)).  Every provider
//! exchange is fallible (`Result<_, ServiceError>`).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use sb_client::{ClientConfig, SafeBrowsingClient};
//! use sb_protocol::{Provider, ThreatCategory};
//! use sb_server::SafeBrowsingServer;
//!
//! let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
//! server.create_list("goog-malware-shavar", ThreatCategory::Malware);
//! server.blacklist_url("goog-malware-shavar", "http://evil.example/").unwrap();
//!
//! let mut client = SafeBrowsingClient::in_process(
//!     ClientConfig::subscribed_to(["goog-malware-shavar"]),
//!     server.clone(),
//! );
//! client.update().unwrap();
//! assert!(client.check_url("http://evil.example/install.exe").unwrap().is_malicious());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod cache;
mod client;
mod database;
mod driver;
mod ledger;
mod metrics;
mod preview;
mod retry;
pub(crate) mod shaper;
mod tcp;
mod transport;

pub use breaker::{BreakerPolicy, BreakerState, BreakerStats, CircuitBreakerTransport};
pub use cache::FullHashCache;
pub use client::{ClientConfig, ClientError, ConfirmedMatch, LookupOutcome, SafeBrowsingClient};
pub use database::{ApplyChunksError, DatabaseReader, LocalDatabase};
pub use driver::{DriverPolicy, DriverStats, UpdateDriver};
pub use ledger::{DisclosureGroup, DisclosureLedger, DisclosureRecord};
pub use metrics::ClientMetrics;
pub use preview::{LookupPreview, PreviewedDecomposition};
pub use retry::{RetryPolicy, RetryStats, RetryingTransport};
// The end-to-end deadline budget lives in `sb-protocol` (every layer of
// the stack shares it); re-exported here because transports are where
// callers meet it.
pub use sb_protocol::DeadlineBudget;
pub use shaper::{
    dummy_prefixes_for, DeterministicDummiesShaper, ExactShaper, OnePrefixAtATimeShaper,
    PaddedBucketShaper, PlannedRequest, QueryPlan, QueryShaper, ShaperHit,
};
pub use tcp::{TcpTransport, TcpTransportStats};
pub use transport::{
    InProcessTransport, SimulatedTransport, Transport, TransportService, TransportStats,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SafeBrowsingClient>();
        assert_send_sync::<LocalDatabase>();
        assert_send_sync::<FullHashCache>();
        assert_send_sync::<ClientMetrics>();
    }
}
