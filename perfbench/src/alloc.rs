//! A counting global allocator: allocation calls, bytes requested and the
//! live-heap high-water mark. The meters are process-wide atomics, so they
//! also see the valuation shards' worker threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and meters every call.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(size: u64) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the meters only read sizes and never
// touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    /// Counted as one allocation call of `new_size` bytes; the live heap
    /// moves by the difference.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Allocation meters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Meter {
    /// Allocation calls so far (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the cumulative meters.
pub fn meter() -> Meter {
    Meter {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

impl Meter {
    /// What was allocated between `self` and `later`.
    pub fn until(self, later: Meter) -> Meter {
        Meter {
            calls: later.calls - self.calls,
            bytes: later.bytes - self.bytes,
        }
    }
}

/// Restarts the high-water mark from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The live-heap high-water mark since the last [`reset_peak`], in
/// megabytes (10^6 bytes).
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / 1e6
}
