//! A counting `#[global_allocator]` for the contract tests that promise
//! "this path allocates nothing of its own". Each test binary installs
//! it itself: `#[global_allocator] static GLOBAL: Counting = Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (and growing reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the calling thread makes while `f` runs.
pub fn allocs_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// FNV-1a digest of a world's recordings, rank by rank: every
/// `(stage, WorkItem)` and then every `(stage, CommItem)` of a rank, in
/// order, each through `{:?}`. What the replay charges for a step, held
/// item for item.
#[allow(dead_code)]
pub fn op_stream_digest(ranks: &[nektar::opstream::OpRecording]) -> u64 {
    let mut h = nkt_ckpt::Fnv1a::new();
    for rec in ranks {
        let work = rec.work.iter().map(|item| format!("{item:?}"));
        for item in work.chain(rec.comm.iter().map(|item| format!("{item:?}"))) {
            h.update(item.as_bytes());
        }
    }
    h.finish()
}
