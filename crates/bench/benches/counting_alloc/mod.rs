//! The `figures` runner's global allocator: the system allocator, counting
//! every allocation into the window being measured (the trajectory's
//! `allocs_per_op` and `alloc_bytes_per_op`). A `GlobalAlloc` is an unsafe
//! trait; this file is the one outside the crypto crate's x86 kernels that
//! CI's unsafe fence lets through.

use std::alloc::{GlobalAlloc, Layout, System};

use precursor_bench::note_allocation;

/// The system allocator, counting.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting is two relaxed atomic adds and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;
