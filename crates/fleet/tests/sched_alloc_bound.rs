//! Allocation bound for the scheduler's event loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! counts every allocation and reallocation made while one seeded
//! model-backed simulation runs on one worker: 64 boards in 8 shards
//! serve 20 000 requests over 8 regions × 256 variants at a 5% fault
//! rate. The trace is generated before the count starts. Filing a board
//! in the idle indexes, queueing arrivals, running a window on the
//! driver thread, listing a job's riders and sorting the outcomes must
//! not allocate per request, so the whole run stays under
//! [`MAX_PER_REQUEST`] allocations per request. What remains is set-up,
//! one small index set per key a shard files idle boards under, the
//! model's port-fault messages and the growth of the outcome, event and
//! index vectors: 6 256 allocations (0.31 per request) on this spec,
//! against 25 772 (1.29) when tree sets and per-window shard lists
//! allocated.
//!
//! This file holds exactly one test: the allocator count is global, so
//! a sibling test on another harness thread would pollute the window.

use fleet::sim::{simulate_trace, FleetSimSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no memory it hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const REQUESTS: usize = 20_000;

/// Allocations (reallocations included) per request of the whole run.
const MAX_PER_REQUEST: f64 = 0.4;

#[test]
fn event_loop_allocations_stay_below_the_per_request_bound() {
    let spec = FleetSimSpec {
        boards: 64,
        shards: 8,
        workers: 1,
        requests: REQUESTS,
        regions: 8,
        variants: 256,
        fault_rate: 0.05,
        seed: 7,
        ..FleetSimSpec::default()
    };
    let trace = spec.trace_spec().generate();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = simulate_trace(&spec, trace);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.outcomes.len(), REQUESTS);
    assert!(report.retries > 0, "a 5% fault rate must force retries");
    let per_request = allocs as f64 / REQUESTS as f64;
    eprintln!("{allocs} allocations, {per_request:.3} per request");
    assert!(
        per_request <= MAX_PER_REQUEST,
        "{allocs} allocations over {REQUESTS} requests is {per_request:.3} per request \
         (bound {MAX_PER_REQUEST})"
    );
}
