//! Allocation budget of one journaled campaign trial.
//!
//! A campaign trial hands the engine a fresh recorder and keeps only its
//! registry and journal, so recording must not cost much more than the
//! simulation itself. A counting global allocator measures one journaled
//! micro trial and one journaled VM trial, run on the test thread, and
//! holds each to an allocation-count and byte bound. Bytes are the sum
//! of the sizes requested by `alloc` and `realloc`, so a buffer that
//! doubles its way up is charged for every step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vds_core::recording::{
    campaign_journal_header_for, campaign_trial_for, vm_campaign_journal_header_for,
    vm_campaign_trial_for,
};
use vds_core::Scheme;
use vds_obs::{JournalHeader, Recorder};

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested on this thread so far.
    static USAGE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn charge(bytes: usize) {
    // `try_with` tolerates allocations made while the thread is torn down
    let _ = USAGE.try_with(|u| {
        let (n, b) = u.get();
        u.set((n + 1, b + bytes as u64));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SEED: u64 = 1;
const ROUNDS: u64 = 40;

/// `(allocations, bytes)` made by `trial` on a journaled shard recorder
/// set up the way `run_campaign_journaled` sets one up.
fn usage(header: &JournalHeader, trial: impl Fn(&mut Recorder)) -> (u64, u64) {
    let mut shard = Recorder::with_span_capacity(2);
    shard.enable_journal(header.clone());
    // warm-up: one-time caches (seed programs, workload text) fill here
    trial(&mut shard);
    let before = USAGE.with(Cell::get);
    trial(&mut shard);
    let after = USAGE.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_journaled_trial_allocates_within_budget() {
    let scheme = Scheme::SmtProbabilistic;
    let header = campaign_journal_header_for(scheme, 2, SEED, ROUNDS);
    let micro = usage(&header, |rec| {
        campaign_trial_for(scheme, 0, SEED, ROUNDS, rec);
    });
    let scheme = Scheme::SmtDeterministic;
    let header = vm_campaign_journal_header_for("checksum", scheme, 2, SEED, ROUNDS);
    let vm = usage(&header, |rec| {
        vm_campaign_trial_for("checksum", scheme, 0, SEED, ROUNDS, rec);
    });
    println!("micro trial: {} allocations, {} bytes", micro.0, micro.1);
    println!("vm trial: {} allocations, {} bytes", vm.0, vm.1);
    // about 25% above what the trials measured when the bounds were set
    // (micro 657 allocations / 166 KB, vm 364 / 66 KB)
    assert!(
        micro.0 <= 820 && micro.1 <= 200 << 10,
        "micro trial: {micro:?}"
    );
    assert!(vm.0 <= 455 && vm.1 <= 80 << 10, "vm trial: {vm:?}");
}
