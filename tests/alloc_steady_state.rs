//! Allocation bound for the production partial-generation path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass (working buffers sized, per-call-site metric handles
//! initialized), every steady-state iteration — mark dirty, collect
//! dirty frames, cache-filter, coalesce, emit with
//! `bitgen::partial_bitstream`, drop the partial — must allocate the
//! same number of times: at most two (the stream, reserved once from
//! the ranges, and the pad frame), and never reallocate. Spans are left
//! in their default state: no collector is installed, as in every
//! process that does not call `obs::collect`.
//!
//! This file holds exactly one test: the allocator count is global, so
//! a sibling test on another harness thread would pollute the window.

use bitstream::bitgen;
use jpg::FrameCache;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use virtex::{ConfigMemory, Device};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

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
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn generation_loop_allocates_only_stream_and_pad_at_steady_state() {
    let device = Device::XCV50;
    let base = ConfigMemory::new(device);
    let cache = FrameCache::new();
    cache.prime_frames(&base, 0..base.frame_count());

    let mut mem = base.clone();
    let mut frames = Vec::new();
    let mut changed = Vec::new();
    let mut ranges = Vec::new();

    // The iteration under test: the repeated-partial-generation loop of
    // a reconfiguration service, every stage before emission in its
    // `_into` form.
    let mut iteration = |mem: &mut ConfigMemory, flip: bool| {
        for f in [3usize, 4, 5, 40, 41, 120] {
            mem.set_bit(f, 17, true);
            mem.set_bit(f, 63, flip);
        }
        frames.clear();
        mem.dirty_frames_into(&mut frames);
        changed.clear();
        cache.filter_changed_into(mem, frames.iter().copied(), &mut changed);
        bitgen::coalesce_frames_bridged_into(&mut changed, 2, &mut ranges);
        let bytes = bitgen::partial_bitstream(mem, &ranges).byte_len();
        mem.clear_dirty();
        bytes
    };

    // Strictly alternate the second write so every iteration really
    // toggles frame content (a same-value `set_bit` marks nothing dirty).
    let mut flip = false;

    // Warm-up: size every working buffer, initialize metric handles.
    let mut expected = 0;
    for _ in 0..4 {
        flip = !flip;
        expected = iteration(&mut mem, flip);
    }

    let mut per_iteration = [0u64; 10];
    let reallocs_before = REALLOCS.load(Ordering::Relaxed);
    for count in &mut per_iteration {
        flip = !flip;
        let before = ALLOCS.load(Ordering::Relaxed);
        let bytes = iteration(&mut mem, flip);
        *count = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(bytes, expected, "steady-state output changed size");
    }
    let reallocs = REALLOCS.load(Ordering::Relaxed) - reallocs_before;

    assert_eq!(reallocs, 0, "steady-state generation loop reallocated");
    assert!(
        per_iteration.iter().all(|&n| n == per_iteration[0]),
        "allocation count varies across iterations: {per_iteration:?}"
    );
    assert!(
        per_iteration[0] <= 2,
        "one iteration allocated {} times",
        per_iteration[0]
    );
}
