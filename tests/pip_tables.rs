//! The per-tile-kind PIP tables against a walk of the routing graph.
//!
//! `walk_tile_pips` is the enumeration `RoutingGraph::tile_pips` used
//! before the tables existed: it rebuilds a tile's PIP list from
//! `downhill` over slice outputs, OMUX, incoming singles, hex and long
//! taps and the clock spine. Its order is the canonical order that
//! assigns configuration bits, so the tables must reproduce it exactly,
//! and `pip_index` / `tile_pip` must be inverse to it. Every CLB and IOB
//! tile of the XCV50 and XCV100 is checked, and on the XCV1000 edge bands
//! deeper than a hex span plus an interior block covering every long-tap
//! residue.

use virtex::routing::{GLOBAL_CLOCKS, HEX_PER_DIR, HEX_SPAN, LONGS_PER_TRACK, OMUX_COUNT};
use virtex::routing::{PADS_PER_IOB, SINGLES_PER_DIR};
use virtex::WireKind;
use virtex::{Device, Dir, Pip, RoutingGraph, SliceId, SlicePin, TileCoord, TileKind, Wire};

/// The walk-based enumeration of a tile's PIPs, in canonical order.
fn walk_tile_pips(g: &RoutingGraph, tile: TileCoord) -> Vec<Pip> {
    let mut pips = Vec::new();
    match tile.kind(g.device()) {
        TileKind::Clb => {
            // 1. Locally driven wires: slice outputs, OMUX fan-out.
            for slice in SliceId::ALL {
                for pin in [SlicePin::X, SlicePin::Y, SlicePin::XQ, SlicePin::YQ] {
                    g.downhill(
                        Wire::new(tile, WireKind::SlicePin { slice, pin }),
                        &mut pips,
                    );
                }
            }
            for j in 0..OMUX_COUNT as u8 {
                g.downhill(Wire::new(tile, WireKind::Omux(j)), &mut pips);
            }
            // 2. Incoming singles (input muxes + bounces located here).
            incoming_single_pips(g, tile, &mut pips);
            // 3. Hex taps landing here.
            for dir in Dir::ALL {
                let (dr, dc) = dir.delta();
                for dist in [HEX_SPAN / 2, HEX_SPAN] {
                    let src = TileCoord::new(tile.row - dr * dist, tile.col - dc * dist);
                    for idx in 0..HEX_PER_DIR as u8 {
                        let h = Wire::new(src, WireKind::Hex { dir, idx });
                        if g.wire_exists(h) {
                            let mut tmp = Vec::new();
                            g.downhill(h, &mut tmp);
                            pips.extend(tmp.into_iter().filter(|p| p.loc == tile));
                        }
                    }
                }
            }
            // 4. Long-line taps at this tile.
            for idx in 0..LONGS_PER_TRACK as u8 {
                for long in [g.long_h(tile.row, idx), g.long_v(tile.col, idx)] {
                    let mut tmp = Vec::new();
                    g.downhill(long, &mut tmp);
                    pips.extend(tmp.into_iter().filter(|p| p.loc == tile));
                }
            }
            // 5. Global clock spine taps.
            for k in 0..GLOBAL_CLOCKS as u8 {
                for slice in SliceId::ALL {
                    pips.push(Pip {
                        loc: tile,
                        from: g.global_clock(k),
                        to: Wire::new(
                            tile,
                            WireKind::SlicePin {
                                slice,
                                pin: SlicePin::Clk,
                            },
                        ),
                    });
                }
            }
        }
        TileKind::IobTop | TileKind::IobBottom | TileKind::IobLeft | TileKind::IobRight => {
            for p in 0..PADS_PER_IOB as u8 {
                g.downhill(Wire::new(tile, WireKind::PadIn(p)), &mut pips);
            }
            incoming_single_pips(g, tile, &mut pips);
        }
        _ => {}
    }
    pips
}

/// PIPs located at `tile` that are fed by singles arriving from
/// neighbouring tiles.
fn incoming_single_pips(g: &RoutingGraph, tile: TileCoord, pips: &mut Vec<Pip>) {
    for dir in Dir::ALL {
        let (dr, dc) = dir.delta();
        let src = TileCoord::new(tile.row - dr, tile.col - dc);
        for idx in 0..SINGLES_PER_DIR as u8 {
            let s = Wire::new(src, WireKind::Single { dir, idx });
            if g.wire_exists(s) {
                let mut tmp = Vec::new();
                g.downhill(s, &mut tmp);
                pips.extend(tmp.into_iter().filter(|p| p.loc == tile));
            }
        }
    }
}

/// The tiles checked on `device`: every tile of a small device, ring and
/// corners included. On the XCV1000, every tile whose row and column each
/// lie within 8 of an end or in a middle strip of 4: the edge bands near
/// each corner and mid-edge, more than a hex span deep, and a 4×4
/// interior block. A tile's PIP list depends only on its kind, its
/// distance to each edge up to a hex span and its row and column modulo
/// the long-tap spacing, so these hold every class the device has.
fn tiles(device: Device) -> Vec<TileCoord> {
    let geo = device.geometry();
    let (rows, cols) = (geo.clb_rows as i32, geo.clb_cols as i32);
    let checked = |i: i32, n: i32| {
        let mid = n / 2 / 4 * 4;
        device != Device::XCV1000 || i < 8 || i >= n - 8 || (mid..mid + 4).contains(&i)
    };
    let mut tiles = Vec::new();
    for row in (-2..=rows + 1).filter(|&r| checked(r, rows)) {
        for col in (-2..=cols + 1).filter(|&c| checked(c, cols)) {
            tiles.push(TileCoord::new(row, col));
        }
    }
    tiles
}

/// splitmix64: seeded, dependency-free.
fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed;
    move |n| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// A random wire near `tile`: any kind with indices a little past their
/// range, offsets a little past a hex span, and now and then an anchor
/// (row or column 0), a far tile, or a valid wire of the tile's list.
fn random_wire(next: &mut impl FnMut(u64) -> u64, tile: TileCoord, list: &[Pip]) -> Wire {
    if !list.is_empty() && next(4) == 0 {
        let p = list[next(list.len() as u64) as usize];
        return if next(2) == 0 { p.from } else { p.to };
    }
    let i = next(10) as u8;
    let dir = Dir::ALL[next(4) as usize];
    let kind = match next(9) {
        0 => WireKind::SlicePin {
            slice: SliceId::ALL[next(2) as usize],
            pin: SlicePin::ALL[next(17) as usize],
        },
        1 => WireKind::Omux(i),
        2 => WireKind::Single { dir, idx: i },
        3 => WireKind::Hex { dir, idx: i % 6 },
        4 => WireKind::Long {
            horiz: next(2) == 0,
            idx: i % 3,
        },
        5 => WireKind::PadIn(i % 6),
        6 => WireKind::PadOut(i % 6),
        _ => WireKind::GlobalClock(i % 6),
    };
    let mut near = |base: i32| match next(8) {
        0 => 0,
        1 => base + next(200) as i32 - 100,
        _ => base + next(21) as i32 - 10,
    };
    Wire::new(TileCoord::new(near(tile.row), near(tile.col)), kind)
}

#[test]
fn tables_match_the_walk_on_every_checked_tile() {
    let mut next = rng(0x5EED_0019);
    for device in [Device::XCV50, Device::XCV100, Device::XCV1000] {
        let g = RoutingGraph::new(device);
        let (mut checked, mut pairs) = (0, 0);
        for tile in tiles(device) {
            // The same list in the same order, `pip_index` its inverse, and
            // `find_pip` locates a sample of it.
            let walked = walk_tile_pips(&g, tile);
            assert_eq!(g.tile_pip_count(tile), walked.len(), "{device} {tile}");
            for (i, p) in walked.iter().enumerate() {
                assert_eq!(
                    g.tile_pip(tile, i).as_ref(),
                    Some(p),
                    "{device} {tile} #{i}"
                );
                assert_eq!(g.pip_index(p), Some(i), "{device} {p}");
                if i % 16 == 0 {
                    assert_eq!(g.find_pip(p.from, p.to).as_ref(), Some(p), "{device}");
                }
            }
            for past in [walked.len(), walked.len() + 1, usize::MAX] {
                assert_eq!(g.tile_pip(tile, past), None, "{device} {tile} #{past}");
            }
            checked += usize::from(!walked.is_empty());

            // Random pairs: a table hit exactly when the walk has the PIP.
            for _ in 0..8 {
                let (mut from, mut to) = (
                    random_wire(&mut next, tile, &walked),
                    random_wire(&mut next, tile, &walked),
                );
                if !walked.is_empty() && next(4) == 0 {
                    let p = walked[next(walked.len() as u64) as usize];
                    (from, to) = (p.from, p.to);
                }
                let pip = Pip {
                    loc: tile,
                    from,
                    to,
                };
                let expect = walked.iter().position(|p| p.from == from && p.to == to);
                assert_eq!(g.pip_index(&pip), expect, "{device} {pip}");
                pairs += usize::from(expect.is_some());
            }
        }
        assert!(
            checked > 0 && pairs > 0,
            "{device}: {checked} tiles, {pairs} hits"
        );
    }
}

#[test]
fn invalid_anchors_and_indices_have_no_pip() {
    let g = RoutingGraph::new(Device::XCV100);
    let tile = TileCoord::new(4, 8); // taps idx-0 longs in both axes
    let pips = g.tile_pips(tile);
    let long_h = pips
        .iter()
        .find(|p| matches!(p.from.kind, WireKind::Long { horiz: true, .. }))
        .expect("tile taps a horizontal long");
    let clock = pips
        .iter()
        .find(|p| matches!(p.from.kind, WireKind::GlobalClock(_)))
        .expect("tile taps the clock tree");
    let moved = |p: &Pip, from: Wire| Pip { from, ..*p };
    let off_anchor = [
        // A horizontal long anchored off column 0 (at the tile itself, or
        // further along the row), or the anchored long of another row.
        moved(long_h, Wire::new(TileCoord::new(4, 8), long_h.from.kind)),
        moved(long_h, Wire::new(TileCoord::new(4, 4), long_h.from.kind)),
        moved(long_h, Wire::new(TileCoord::new(0, 0), long_h.from.kind)),
        // A clock anchored off (0, 0).
        moved(clock, Wire::new(TileCoord::new(0, 8), clock.from.kind)),
        moved(clock, Wire::new(tile, clock.from.kind)),
        // Out-of-range track, pad and clock indices.
        moved(
            long_h,
            Wire::new(
                TileCoord::new(4, 0),
                WireKind::Long {
                    horiz: true,
                    idx: 2,
                },
            ),
        ),
        moved(
            clock,
            Wire::new(
                TileCoord::new(0, 0),
                WireKind::GlobalClock(GLOBAL_CLOCKS as u8),
            ),
        ),
        moved(
            clock,
            Wire::new(
                tile,
                WireKind::Single {
                    dir: Dir::East,
                    idx: 8,
                },
            ),
        ),
        moved(clock, Wire::new(tile, WireKind::PadIn(4))),
    ];
    for p in off_anchor {
        assert_eq!(g.pip_index(&p), None, "{p}");
    }
    // Corner and off-device tiles have no PIPs.
    for t in [
        TileCoord::new(-1, -1),
        TileCoord::new(-5, 3),
        TileCoord::new(i32::MAX, 0),
    ] {
        assert_eq!(g.tile_pip_count(t), 0);
        assert_eq!(g.tile_pip(t, 0), None);
        let p = Pip { loc: t, ..*long_h };
        assert_eq!(g.pip_index(&p), None);
    }
    let far = Wire::new(TileCoord::new(i32::MIN, i32::MAX), WireKind::Omux(0));
    assert_eq!(g.pip_index(&moved(long_h, far)), None);
}
