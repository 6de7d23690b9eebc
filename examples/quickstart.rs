//! Quickstart: stand up a simulated Google Safe Browsing provider, sync a
//! client, and look up a few URLs — the complete flow of Figure 3 of the
//! paper (canonicalize → decompose → local prefix check → full-hash request
//! → verdict).
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use safe_browsing_privacy::client::{ClientConfig, LookupOutcome, SafeBrowsingClient};
use safe_browsing_privacy::protocol::{ClientCookie, Provider};
use safe_browsing_privacy::server::SafeBrowsingServer;
use safe_browsing_privacy::store::StoreBackend;

fn main() {
    // ---- provider side -----------------------------------------------------
    // A Google-like provider with its published list inventory (Table 1).
    let server = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
    server
        .blacklist_url(
            "goog-malware-shavar",
            "http://evil.example/drive-by/exploit.html",
        )
        .expect("list exists");
    server
        .blacklist_url("goog-malware-shavar", "http://malware-domain.example/")
        .expect("list exists");
    server
        .blacklist_url("googpub-phish-shavar", "http://phishing.example/login.php")
        .expect("list exists");

    println!(
        "provider: {} lists, {} prefixes total",
        server.list_names().len(),
        server.total_prefixes()
    );

    // ---- client side -------------------------------------------------------
    // A browser-embedded client: delta-coded local database, SB cookie.
    // The browser owns an in-process transport handle to the provider.
    let mut browser = SafeBrowsingClient::in_process(
        ClientConfig::subscribed_to(["goog-malware-shavar", "googpub-phish-shavar"])
            .with_cookie(ClientCookie::new(0xC0FFEE)),
        server.clone(),
    );
    let chunks = browser.update().expect("provider reachable");
    println!(
        "client: applied {chunks} chunks, {} prefixes, {} bytes of local database\n",
        browser.database_prefix_count(),
        browser.database_memory_bytes()
    );

    // ---- lookups -----------------------------------------------------------
    let urls = [
        "http://evil.example/drive-by/exploit.html", // exact blacklisted URL
        "http://malware-domain.example/any/page.html", // domain blacklisted
        "http://phishing.example/login.php",         // phishing list
        "https://petsymposium.org/2016/cfp.php",     // benign
    ];
    for url in urls {
        let outcome = browser
            .check_url(url)
            .expect("valid URL and provider reachable");
        let verdict = match &outcome {
            LookupOutcome::Safe => "SAFE (resolved locally, nothing sent)".to_string(),
            LookupOutcome::SafeAfterConfirmation { .. } => {
                "SAFE (prefix hit was a false positive)".to_string()
            }
            LookupOutcome::Malicious { matches } => format!(
                "MALICIOUS (blacklisted decomposition: {})",
                matches
                    .iter()
                    .map(|m| m.expression.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        println!("{url}\n  -> {verdict}");
    }

    // ---- batched lookups -----------------------------------------------------
    // A page load with many subresources checks them in one batch: every
    // uncached local hit across the batch is coalesced into a single
    // full-hash round trip.
    browser.clear_cache();
    let before = browser.metrics().requests_sent;
    let outcomes = browser
        .check_urls(&urls)
        .expect("valid URLs and provider reachable");
    println!(
        "\nbatched re-check of all {} URLs: {} malicious, {} full-hash round trip(s)",
        outcomes.len(),
        outcomes.iter().filter(|o| o.is_malicious()).count(),
        browser.metrics().requests_sent - before
    );

    // ---- picking a store backend ---------------------------------------------
    // Chromium's delta-coded table is the default; `StoreBackend::Indexed`
    // trades a fixed 256 KB lead index for the fastest membership test
    // (`cargo bench -p sb-bench --bench stores` compares the backends at 1M
    // prefixes; the `benchmark/` workloads run on this one).
    let mut fast = SafeBrowsingClient::in_process(
        ClientConfig::subscribed_to(["goog-malware-shavar"]).with_backend(StoreBackend::Indexed),
        server.clone(),
    );
    fast.update().expect("provider reachable");
    println!(
        "\nindexed-backend client: {} prefixes in {} bytes, verdicts agree: {}",
        fast.database_prefix_count(),
        fast.database_memory_bytes(),
        fast.check_url(urls[0]).expect("valid URL").is_malicious()
    );

    // ---- what the provider learned ------------------------------------------
    let metrics = browser.metrics();
    println!(
        "\nclient metrics: {} lookups, {} full-hash requests, {} prefixes revealed",
        metrics.lookups, metrics.requests_sent, metrics.prefixes_sent
    );
    println!("provider log:");
    for request in server.query_log().requests() {
        println!(
            "  t={} cookie={:?} prefixes={:?}",
            request.timestamp,
            request.cookie.map(|c| c.to_string()),
            request
                .prefixes
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
        );
    }
}
