//! Heap allocations per simulated operation, counted.
//!
//! The paper's kernel keeps a directory entry's name and ACL in
//! fixed-size storage, and moves network input through buffers it keeps.
//! The simulator does the same on the host: decoded entries, ACLs, the
//! fleet's wire frames and channel reads, and the per-op bookkeeping
//! live in values and reused buffers, so a simulated operation costs the
//! host few heap allocations. This binary installs a counting global
//! allocator, in this test binary only, and holds each run shape the
//! wall-clock benchmark runs under a ceiling of allocation calls per
//! simulated operation: the load engine on both designs, C1 and S1
//! crash recovery, and a 4-machine fleet. Each ceiling sits just above
//! what the run takes, so a `String` or a `Vec` put back on a per-op
//! path fails here.
//!
//! A count is an `alloc`, `alloc_zeroed` or `realloc` call made by the
//! thread running the test, so the harness's other threads never add to
//! it. Setup (boot, the world build, the scripts) and the oracles are in
//! the count, as they are in each op's share of a benchmark unit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mx_load::{
    run_kernel_c1, run_kernel_fleet, run_kernel_load, run_kernel_s1, run_legacy_c1,
    run_legacy_fleet, run_legacy_load, run_legacy_s1, C1Policy, C1Spec, FleetSpec, LoadSpec,
};

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation call on the calling
/// thread.
struct Counting;

fn count() {
    // A thread being torn down has no counter left to add to.
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed through unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `run` makes on this thread, and the simulated ops
/// it reports.
fn allocations(run: impl FnOnce() -> u64) -> (u64, u64) {
    let before = CALLS.with(Cell::get);
    let ops = run();
    (CALLS.with(Cell::get) - before, ops)
}

/// Fails unless `run` makes fewer than `ceiling` allocation calls per
/// simulated op.
fn holds(what: &str, ceiling: f64, run: impl FnOnce() -> u64) {
    let (calls, ops) = allocations(run);
    assert!(ops > 0, "{what}: no simulated op ran");
    let per_op = calls as f64 / ops as f64;
    eprintln!("{what}: {calls} allocation calls over {ops} ops, {per_op:.2} an op");
    assert!(
        per_op < ceiling,
        "{what}: {per_op:.2} allocation calls per simulated op, ceiling {ceiling}"
    );
}

/// The wall-clock benchmark's `steady` population. One allocation an op
/// is the label's text, rendered once per run into `parity` (DESIGN.md,
/// "What a simulated operation allocates").
const SESSIONS: usize = 256;
const SEED: u64 = 1977;

#[test]
fn the_load_engine_stays_under_its_allocation_ceiling() {
    let spec = LoadSpec::new(SESSIONS, SEED);
    holds("kernel load", 4.5, || run_kernel_load(&spec, None).ops);
    holds("legacy load", 3.5, || run_legacy_load(&spec).ops);
}

/// The wall-clock benchmark's `recovery` shape: 64 users, 3 crashes.
fn recovery() -> C1Spec {
    C1Spec::new(64, 0xC1_1977, SEED, 3, C1Policy::Fifo)
}

#[test]
fn crash_recovery_stays_under_its_allocation_ceiling() {
    let spec = recovery();
    holds("kernel c1", 7.5, || run_kernel_c1(&spec).ops);
    holds("legacy c1", 5.75, || run_legacy_c1(&spec).ops);
    holds("kernel s1", 7.5, || run_kernel_s1(&spec).ops);
    holds("legacy s1", 5.75, || run_legacy_s1(&spec).ops);
}

#[test]
fn a_fleet_stays_under_its_allocation_ceiling() {
    let spec = FleetSpec::new(4, SESSIONS, SEED);
    holds("kernel fleet", 4.0, || run_kernel_fleet(&spec, None).ops);
    holds("legacy fleet", 3.5, || run_legacy_fleet(&spec, None).ops);
}
