//! The zero-allocation contract of the lookup hot path: once a client's
//! scratch buffers have warmed up, `check_canonical` on a URL the local
//! database resolves performs no heap allocation, on every store backend.
//!
//! This is its own test binary so it can install a counting
//! `#[global_allocator]`; the count is per thread, so the test runner's
//! other threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use safe_browsing_privacy::client::{ClientConfig, SafeBrowsingClient};
use safe_browsing_privacy::hash::Prefix;
use safe_browsing_privacy::protocol::{
    ClientListState, Provider, SafeBrowsingService, ThreatCategory, UpdateRequest,
};
use safe_browsing_privacy::server::SafeBrowsingServer;
use safe_browsing_privacy::store::StoreBackend;
use safe_browsing_privacy::url::CanonicalUrl;

struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so reading it from inside
    // the allocator neither allocates nor touches a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call defers to the system allocator unchanged; the only
// addition is a thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const LIST: &str = "goog-malware-shavar";

/// URLs with no blacklisted decomposition, from one decomposition to the
/// maximum (five host suffixes × six path prefixes), so the scratch
/// buffers see their largest shapes during warm-up.
fn locally_resolved_urls() -> Vec<CanonicalUrl> {
    let mut urls = vec![
        "http://benign.example/".to_string(),
        "http://a.b.c.d.e.f.benign.example/1/2/3/4/5/6/page.html?q=1&r=2".to_string(),
        "http://192.0.2.7/status".to_string(),
    ];
    urls.extend(
        (0..64).map(|i| format!("http://m{i}.cdn.miss.example/content/{i}/item.html?id={i}")),
    );
    urls.iter()
        .map(|url| CanonicalUrl::parse(url).expect("test URL parses"))
        .collect()
}

#[test]
fn locally_resolved_lookups_do_not_allocate() {
    // The counter must see this thread's allocations, or a zero below
    // would mean nothing.
    let before = thread_allocations();
    std::hint::black_box(Box::new(7u64));
    assert!(
        thread_allocations() > before,
        "counting allocator not installed"
    );

    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    let blacklisted: Vec<String> = (0..5_000).map(|i| format!("evil{i}.example/")).collect();
    server
        .blacklist_expressions(LIST, blacklisted.iter().map(String::as_str))
        .expect("list exists");
    let urls = locally_resolved_urls();

    for backend in [
        StoreBackend::Raw,
        StoreBackend::DeltaCoded,
        StoreBackend::Indexed,
    ] {
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to([LIST]).with_backend(backend),
            server.clone(),
        );
        client.update().expect("initial sync");
        assert_eq!(client.database_prefix_count(), blacklisted.len());

        // Warm-up grows the scratch buffers to their steady-state size.
        for url in &urls {
            let outcome = client.check_canonical(url).expect("warm-up lookup");
            assert!(outcome.was_resolved_locally(), "{backend}: {url:?} hit");
        }

        let before = thread_allocations();
        for url in &urls {
            let outcome = client.check_canonical(url).expect("measured lookup");
            std::hint::black_box(outcome);
        }
        let allocations = thread_allocations() - before;
        assert_eq!(
            allocations,
            0,
            "{backend}: {allocations} heap allocations over {} locally-resolved lookups",
            urls.len()
        );
    }
}

/// This thread's allocations for (a) one caught-up `client.update()` and
/// (b) the provider serving one fixed six-chunk delta, against a list of
/// `list_prefixes` prefixes.
fn update_allocations(list_prefixes: u32) -> (u64, u64) {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    server
        .inject_prefixes(LIST, (0..list_prefixes).map(Prefix::from_u32))
        .expect("list exists"); // add 1: the whole list
    let mut client = SafeBrowsingClient::in_process(
        ClientConfig::subscribed_to([LIST]).with_backend(StoreBackend::Indexed),
        server.clone(),
    );
    client.update().expect("initial sync");
    client.update().expect("warm-up poll");

    let before = thread_allocations();
    client.update().expect("caught-up poll");
    let caught_up = thread_allocations() - before;

    // The same delta at every list size: four adds above the list's value
    // range, one sub that nets the first of them, one sub that reaches
    // into the big chunk the requesting client already holds.
    const DELTA_BASE: u32 = 1_000_000;
    for chunk in 0..4 {
        let start = DELTA_BASE + chunk * 100;
        server
            .inject_prefixes(LIST, (start..start + 100).map(Prefix::from_u32))
            .expect("list exists");
    }
    for removed in [DELTA_BASE..DELTA_BASE + 50, 0..10] {
        server
            .remove_prefixes(LIST, removed.map(Prefix::from_u32))
            .expect("list exists");
    }
    let request = UpdateRequest {
        lists: vec![(LIST.into(), ClientListState::up_to(1, 0))],
    };
    // `server.update` directly: client-side tree growth is not in the count.
    let before = thread_allocations();
    let response = server.update(&request).expect("delta served");
    let serving = thread_allocations() - before;
    assert_eq!(response.chunks.len(), 6);
    assert_eq!(
        response.chunks[2].prefixes.len(),
        50,
        "add 2 is served netted"
    );
    (caught_up, serving)
}

/// `update()` costs what the client is missing, not what the journal
/// holds — as allocation counts, which repeat exactly where clocks drift.
#[test]
fn update_allocations_do_not_grow_with_the_list() {
    let (small_poll, small_delta) = update_allocations(10_000);
    let (large_poll, large_delta) = update_allocations(200_000);
    assert_eq!(
        small_poll, large_poll,
        "a caught-up poll allocates the same at 10k and 200k prefixes"
    );
    assert!(small_poll <= 64, "caught-up poll: {small_poll} allocations");
    assert_eq!(
        small_delta, large_delta,
        "serving a fixed delta allocates the same at 10k and 200k prefixes"
    );
}
