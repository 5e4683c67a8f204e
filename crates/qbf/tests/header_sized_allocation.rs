//! QDIMACS parsing never allocates by the header's declared variable
//! count. `p cnf 2147483648 0` is 19 bytes; a buffer sized by its
//! 2^31 variables would need gigabytes and abort a process that runs
//! under an address-space limit.
//!
//! The global allocator here is the system allocator plus one counter:
//! the largest single request since the counter was last reset. This
//! file holds one test, so nothing else runs while it parses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sebmc_qbf::qdimacs;

/// The largest request, in bytes, since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// [`System`], recording each request's size in [`LARGEST`].
struct Counting;

// SAFETY: every call goes to `System` unchanged; only a counter is
// updated beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_declared_variable_count_alone_allocates_nothing_large() {
    let input = "p cnf 2147483648 0\n";
    LARGEST.store(0, Ordering::Relaxed);
    let parsed = qdimacs::parse(input);
    let largest = LARGEST.load(Ordering::Relaxed);
    let qbf = parsed.expect("an empty formula over 2^31 declared variables parses");
    assert_eq!(qbf.matrix().num_vars(), 1 << 31);
    assert!(
        largest <= 1 << 20,
        "parsing {} bytes requested {largest} bytes at once",
        input.len()
    );
}
