//! PIP lookups allocate nothing.
//!
//! A counting `#[global_allocator]` wraps the system allocator. After one
//! warm-up lookup (which builds the process-wide PIP tables), resolving
//! every PIP of several tiles — `Layout::pip_pos`, `RoutingGraph::pip_index`
//! and `RoutingGraph::tile_pip` — on a fresh `Layout` must allocate zero
//! times: the tables are immutable, and nothing is cached per tile.
//!
//! This file holds exactly one test: the allocator count is global, so
//! a sibling test on another harness thread would pollute the window.

use jbits::Layout;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use virtex::{Device, Pip, TileCoord};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn pip_lookups_allocate_nothing_after_warm_up() {
    let device = Device::XCV1000;
    let warm = Layout::new(device);
    let corner = TileCoord::new(0, 0);
    let first = warm.graph().tile_pip(corner, 0).expect("a CLB has PIPs");
    assert!(warm.pip_pos(&first).is_some());

    // Tiles of every kind, with and without edge taps; their PIP lists
    // are collected before counting starts.
    let tiles = [
        corner,
        TileCoord::new(2, 5),
        TileCoord::new(32, 48),
        TileCoord::new(63, 94),
        TileCoord::new(-1, 10),
        TileCoord::new(64, 10),
        TileCoord::new(10, -1),
        TileCoord::new(10, 96),
    ];
    let pips: Vec<(usize, Pip)> = (tiles.iter())
        .flat_map(|&t| warm.graph().tile_pips(t).into_iter().enumerate())
        .collect();
    assert!(pips.len() > 2000);
    let layout = Layout::new(device);
    let graph = layout.graph();

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut hits = 0;
    for &(i, pip) in &pips {
        hits += usize::from(layout.pip_pos(&pip) == Some(layout.pip_bit(pip.loc, i)));
        hits += usize::from(graph.pip_index(&pip) == Some(i));
        hits += usize::from(graph.tile_pip(pip.loc, i) == Some(pip));
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(hits, 3 * pips.len());
    assert_eq!(allocs, 0, "PIP lookups allocated {allocs} times");
}
