//! Counting allocator hook: heap allocations per thread.
//!
//! The counter is thread-local, so a client thread's count attributes its
//! own allocations (client, retry, TCP transport, client-side codec) and
//! never the serving tier's; and the hook costs one non-atomic increment,
//! so it stays installed on untraced runs too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Global allocator that counts `alloc` and `realloc` calls per thread.
pub struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator can neither allocate nor hit a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so an allocation during thread teardown is merely not
    // counted instead of panicking inside the allocator.
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

/// Allocations made so far by the calling thread.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = thread_allocations();
        let boxed = std::hint::black_box(Box::new(7u64));
        let mut grown: Vec<u64> = Vec::with_capacity(1);
        grown.push(*boxed);
        grown.reserve(1024); // realloc
        std::hint::black_box(&grown);
        let after = thread_allocations();
        assert!(
            after - before >= 3,
            "box + vec + realloc, got {}",
            after - before
        );

        // Another thread's allocations land on its own counter.
        let here = thread_allocations();
        let there = std::thread::spawn(|| {
            let start = thread_allocations();
            std::hint::black_box(vec![1u8; 4096]);
            thread_allocations() - start
        })
        .join()
        .expect("thread joins");
        assert!(there >= 1);
        // Spawning and joining allocate here, but not 4096-byte vectors'
        // worth of calls; what matters is that the counters are separate.
        assert!(thread_allocations() - here < 64);
    }

    #[test]
    fn a_non_allocating_section_counts_zero() {
        let mut buf = Vec::with_capacity(16);
        let before = thread_allocations();
        for i in 0..16u32 {
            buf.push(i);
        }
        std::hint::black_box(&buf);
        assert_eq!(thread_allocations() - before, 0);
    }
}
