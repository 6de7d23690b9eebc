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
use safe_browsing_privacy::protocol::{Provider, ThreatCategory};
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
