//! A counting global allocator: live heap bytes and their peak.
//!
//! Resident size (`VmHWM`) swings by 20% between runs of identical work
//! with glibc's per-thread arenas, because how far they fragment depends
//! on thread timing. The live bytes the program has asked for do not, so
//! the benchmark reports their peak instead.
//!
//! Each thread batches its net change and publishes it once it reaches
//! [`PUBLISH`] bytes, so two busy workers do not contend on one counter
//! per allocation. The peak is exact to within that many bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

const PUBLISH: isize = 16 * 1024;

struct Counting;

// Statistics only: no other data is published through these counters.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// This thread's net allocation since it last published.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn account(delta: isize) {
    let due = PENDING.try_with(|p| {
        let v = p.get() + delta;
        p.set(if v.abs() < PUBLISH { v } else { 0 });
        (v.abs() >= PUBLISH).then_some(v)
    });
    // a thread whose locals are gone publishes directly
    if let Some(v) = due.unwrap_or(Some(delta)) {
        let now = LIVE.fetch_add(v, Relaxed) + v;
        if now > PEAK.load(Relaxed) {
            PEAK.fetch_max(now, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting never touches
// the memory handed out and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc`'s requirements.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and every block this allocator hands out is
        // `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Restart the peak from the bytes live now.
pub(crate) fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MiB.
pub(crate) fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
