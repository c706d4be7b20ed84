//! A counting global allocator for the workspace's no-allocation tests.
//!
//! A test binary that wants to assert "this path does not allocate"
//! installs the allocator and brackets the path with [`measure`]:
//!
//! ```
//! use everest_alloc_counter::{measure, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOCATOR: CountingAllocator = CountingAllocator;
//!
//! let (allocations, bytes) = measure(|| drop(std::hint::black_box(vec![0u8; 64])));
//! assert_eq!(allocations, 1);
//! assert_eq!(bytes, 64);
//! ```
//!
//! Counting is per thread, so the libtest harness's main thread and
//! sibling tests running concurrently never perturb a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting the calling thread's allocations and
/// the bytes they ask for. Frees are not counted: the tests bound what a
/// path requests, not what it retains.
pub struct CountingAllocator;

// Const-initialized Cell<u64> TLS: the access itself never allocates
// and registers no destructor, so it is safe inside the allocator.
std::thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local cells.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is one allocation of the bytes it grows by.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns `(allocations, bytes)` the calling thread
/// requested meanwhile. Both are 0 unless [`CountingAllocator`] is the
/// binary's `#[global_allocator]`.
pub fn measure(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (ALLOCATIONS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}
