//! The configuration-bit layout: where every resource and PIP lives.
//!
//! Each tile owns a rectangular window of the configuration memory: the
//! frames of its column × its 18-bit row slot. Within that window,
//! tile-local bit `b` maps to frame `first_frame + b / 18`, frame-bit
//! `row_slot + b % 18`:
//!
//! * **CLB tiles** use their CLB column and row slot `row + 1`; bits
//!   `0..ClbResource::total_bits()` hold slice logic in canonical
//!   [`virtex::ClbResource::all`] order and four CAPTURE slots, followed
//!   by one bit per PIP in [`virtex::RoutingGraph::tile_pip`] order.
//! * **Top/bottom IOB tiles** use the same CLB column but the pad row
//!   slots (0 and `rows + 1`); **left/right IOB tiles** use the IOB
//!   columns. Bits `0..PADS_PER_IOB * 7` hold pad logic, then PIPs.
//!
//! Budget: a CLB's window is 48 frames × 18 bits = 864 bits; slice logic
//! uses ~110 and the switch box at most 624, asserted in tests.
//!
//! PIP positions need no table of their own. A CLB's PIP list is its
//! kind's fixed *superset* in relative wire coordinates, less the groups
//! of hex and long taps the tile lacks near the die edges; an IOB tile
//! holds its edge kind's whole superset (see [`virtex::routing`]). So a
//! PIP's bit is one binary search of an immutable process-wide table plus
//! a sum over the tile's absent groups, and [`Layout`] keeps no state
//! beyond its column table.

use virtex::config::{Side, BITS_PER_ROW};
use virtex::{
    ClbResource, ColumnKind, ConfigGeometry, ConfigMemory, Device, IobCoord, IobResource, Pip,
    ResourceValue, RoutingGraph, TileCoord, TileKind,
};

/// CAPTURE slots per CLB tile: the four flip-flops' state, written into
/// the configuration plane by the capture facility so readback can
/// observe live register values (slice-major order: S0.X, S0.Y, S1.X,
/// S1.Y).
pub const CAPTURE_BITS: usize = 4;

/// An absolute configuration-bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitPos {
    /// Linear frame index.
    pub frame: usize,
    /// Bit within the frame.
    pub bit: usize,
}

/// A tile's configuration window, computed on demand from the column
/// table.
#[derive(Debug, Clone, Copy)]
struct TileWindow {
    first_frame: usize,
    frame_count: usize,
    row_slot: usize,
    pip_base: usize,
}

impl TileWindow {
    fn local_to_pos(&self, local: usize) -> BitPos {
        let minor = local / BITS_PER_ROW;
        assert!(
            minor < self.frame_count,
            "tile bit budget exceeded: local bit {local} needs minor {minor} of {}",
            self.frame_count
        );
        BitPos {
            frame: self.first_frame + minor,
            bit: self.row_slot + local % BITS_PER_ROW,
        }
    }
}

/// The device-wide layout: a per-column frame table.
#[derive(Debug)]
pub struct Layout {
    device: Device,
    geom: ConfigGeometry,
    graph: RoutingGraph,
    /// `(first_frame, frame_count)` per tile column, indexed by `col + 1`:
    /// the left IOB column, the CLB columns, then the right IOB column.
    columns: Vec<(usize, usize)>,
    /// First PIP bit of CLB and IOB tiles: a CLB's logic bits and four
    /// CAPTURE slots (flip-flop snapshots for readback) come first, an
    /// IOB's pad logic.
    pip_base: (usize, usize),
}

impl Layout {
    /// Build the layout for `device`: O(columns).
    pub fn new(device: Device) -> Self {
        let geom = ConfigGeometry::for_device(device);
        let clb_cols = device.geometry().clb_cols;
        let mut columns = vec![(0, 0); clb_cols + 2];
        for c in geom.columns() {
            let slot = match c.kind {
                ColumnKind::Iob(Side::Left) => 0,
                ColumnKind::Clb(col) => col + 1,
                ColumnKind::Iob(Side::Right) => clb_cols + 1,
                _ => continue,
            };
            columns[slot] = (c.first_frame_index(), c.frame_count());
        }
        Layout {
            device,
            geom,
            graph: RoutingGraph::new(device),
            columns,
            pip_base: (ClbResource::total_bits() + CAPTURE_BITS, iob_logic_bits()),
        }
    }

    /// The device.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The configuration geometry.
    pub fn geometry(&self) -> &ConfigGeometry {
        &self.geom
    }

    /// The routing graph (shared with the router).
    pub fn graph(&self) -> &RoutingGraph {
        &self.graph
    }

    /// The tile's window. CLB tiles and top/bottom IOB tiles use their
    /// CLB column, left/right IOB tiles the IOB columns; the row slot of
    /// row `r` starts at bit `18 * (r + 1)`, so the top and bottom IOB
    /// rows (`-1` and `rows`) land on the pad slots at the column ends.
    fn window(&self, tile: TileCoord) -> TileWindow {
        let pip_base = match tile.kind(self.device) {
            TileKind::Clb => self.pip_base.0,
            TileKind::IobTop | TileKind::IobBottom | TileKind::IobLeft | TileKind::IobRight => {
                self.pip_base.1
            }
            other => panic!("tile {tile} ({other:?}) has no configuration window"),
        };
        let (first_frame, frame_count) = self.columns[(tile.col + 1) as usize];
        TileWindow {
            first_frame,
            frame_count,
            row_slot: BITS_PER_ROW * (tile.row + 1) as usize,
            pip_base,
        }
    }

    /// Position of bit `i` of a slice resource. The bits of a resource
    /// occupy consecutive tile-local bits and may wrap onto the next frame.
    pub fn clb_resource_bit(&self, tile: TileCoord, res: ClbResource, i: usize) -> BitPos {
        debug_assert_eq!(tile.kind(self.device), TileKind::Clb, "{tile} not a CLB");
        debug_assert!(i < res.bit_width());
        self.window(tile).local_to_pos(clb_resource_offset(res) + i)
    }

    /// Position of bit `i` of an IOB pad resource.
    pub fn iob_resource_bit(&self, io: IobCoord, res: IobResource, i: usize) -> BitPos {
        debug_assert!(io.tile.is_iob(self.device), "{} not an IOB tile", io.tile);
        debug_assert!(i < res.bit_width());
        self.window(io.tile)
            .local_to_pos(iob_resource_offset(io.pad, res) + i)
    }

    /// Read a slice resource out of `mem`.
    pub fn read_clb(&self, mem: &ConfigMemory, tile: TileCoord, res: ClbResource) -> ResourceValue {
        debug_assert_eq!(tile.kind(self.device), TileKind::Clb, "{tile} not a CLB");
        let (w, off) = (self.window(tile), clb_resource_offset(res));
        read_field(mem, res.bit_width(), |i| w.local_to_pos(off + i))
    }

    /// Read an IOB pad resource out of `mem`.
    pub fn read_iob(&self, mem: &ConfigMemory, io: IobCoord, res: IobResource) -> ResourceValue {
        debug_assert!(io.tile.is_iob(self.device), "{} not an IOB tile", io.tile);
        let (w, off) = (self.window(io.tile), iob_resource_offset(io.pad, res));
        read_field(mem, res.bit_width(), |i| w.local_to_pos(off + i))
    }

    /// Position of the CAPTURE slot for a flip-flop: `x_ff` selects FFX
    /// (true) or FFY.
    pub fn capture_pos(&self, tile: TileCoord, slice: virtex::SliceId, x_ff: bool) -> BitPos {
        debug_assert_eq!(tile.kind(self.device), TileKind::Clb);
        let local = ClbResource::total_bits() + slice.index() * 2 + usize::from(!x_ff);
        self.window(tile).local_to_pos(local)
    }

    /// Bit position of a PIP's enable bit, or `None` if the PIP does not
    /// exist in the fabric: [`RoutingGraph::pip_index`], then
    /// [`Layout::pip_bit`].
    pub fn pip_pos(&self, pip: &Pip) -> Option<BitPos> {
        let index = self.graph.pip_index(pip)?;
        Some(self.pip_bit(pip.loc, index))
    }

    /// Bit position of the enable bit of PIP number `index` in `tile`'s
    /// canonical [`RoutingGraph::tile_pip`] order — the order that
    /// defines the bit assignment — with no table lookup.
    pub fn pip_bit(&self, tile: TileCoord, index: usize) -> BitPos {
        let w = self.window(tile);
        w.local_to_pos(w.pip_base + index)
    }

    /// The tile window's frame range (its whole column) and the
    /// per-frame bit offset of its 18-bit row slot.
    pub fn window_bounds(&self, tile: TileCoord) -> (std::ops::Range<usize>, usize) {
        let w = self.window(tile);
        (w.first_frame..w.first_frame + w.frame_count, w.row_slot)
    }

    /// Whether any bit of `tile`'s window is set in `mem`: one masked
    /// read of the 18-bit row slot (two when it straddles a word) per
    /// frame of the column.
    pub fn tile_in_use(&self, mem: &ConfigMemory, tile: TileCoord) -> bool {
        let w = self.window(tile);
        (w.first_frame..w.first_frame + w.frame_count)
            .any(|f| slot_bits(mem.frame(f), w.row_slot) != 0)
    }

    /// Every tile whose window holds a set bit, in [`virtex::grid::clb_tiles`]
    /// then [`virtex::grid::iob_tiles`] order: one OR over each column's
    /// frames, then one row-slot read per tile.
    pub fn tiles_in_use(&self, mem: &ConfigMemory) -> Vec<TileCoord> {
        let fw = mem.frame_words();
        let mut or = vec![0u32; self.columns.len() * fw];
        for (acc, &(first, count)) in or.chunks_mut(fw).zip(&self.columns) {
            for frame in mem.frame_span(first, count).chunks_exact(fw) {
                acc.iter_mut().zip(frame).for_each(|(a, w)| *a |= w);
            }
        }
        let used = |t: &TileCoord| {
            let column = &or[(t.col + 1) as usize * fw..][..fw];
            slot_bits(column, BITS_PER_ROW * (t.row + 1) as usize) != 0
        };
        let tiles =
            virtex::grid::clb_tiles(self.device).chain(virtex::grid::iob_tiles(self.device));
        tiles.filter(used).collect()
    }

    /// Canonical PIP indices (as [`Layout::pip_bit`] numbers them) whose
    /// enable bits are set in `mem`, ascending: a walk over the set bits
    /// of `tile`'s window at or past its PIP base. Set bits past the
    /// tile's last PIP are yielded too; [`RoutingGraph::tile_pip`]
    /// returns `None` for them.
    pub fn set_pip_indices<'a>(
        &self,
        mem: &'a ConfigMemory,
        tile: TileCoord,
    ) -> impl Iterator<Item = usize> + 'a {
        let w = self.window(tile);
        (w.pip_base / BITS_PER_ROW..w.frame_count)
            .flat_map(move |minor| {
                let mut slot = slot_bits(mem.frame(w.first_frame + minor), w.row_slot);
                std::iter::from_fn(move || {
                    (slot != 0).then(|| {
                        let b = slot.trailing_zeros() as usize;
                        slot &= slot - 1;
                        minor * BITS_PER_ROW + b
                    })
                })
            })
            .filter_map(move |local| local.checked_sub(w.pip_base))
    }
}

/// The 18-bit row slot that starts at bit `row_slot` of `frame`.
fn slot_bits(frame: &[u32], row_slot: usize) -> u32 {
    let (word, shift) = (row_slot / 32, row_slot % 32);
    let mut slot = u64::from(frame[word]) >> shift;
    if shift + BITS_PER_ROW > 32 {
        slot |= u64::from(frame[word + 1]) << (32 - shift);
    }
    slot as u32 & ((1 << BITS_PER_ROW) - 1)
}

/// Read the little-endian `width`-bit field whose bit `i` sits at `pos(i)`.
fn read_field(mem: &ConfigMemory, width: usize, pos: impl Fn(usize) -> BitPos) -> ResourceValue {
    let bit = |p: BitPos| u32::from(mem.get_bit(p.frame, p.bit));
    ResourceValue::new((0..width).fold(0, |acc, i| acc | bit(pos(i)) << i), width)
}

/// Tile-local bit offset of a slice resource: cumulative widths in
/// canonical order.
fn clb_resource_offset(res: ClbResource) -> usize {
    let mut off = 0;
    for r in ClbResource::all() {
        if r == res {
            return off;
        }
        off += r.bit_width();
    }
    panic!("resource not in canonical enumeration");
}

/// Bits of pad logic per IOB tile.
fn iob_logic_bits() -> usize {
    virtex::routing::PADS_PER_IOB
        * IobResource::ALL
            .iter()
            .map(|r| r.bit_width())
            .sum::<usize>()
}

/// Tile-local bit offset of an IOB pad resource.
fn iob_resource_offset(pad: u8, res: IobResource) -> usize {
    let per_pad: usize = IobResource::ALL.iter().map(|r| r.bit_width()).sum();
    let mut off = pad as usize * per_pad;
    for r in IobResource::ALL {
        if r == res {
            return off;
        }
        off += r.bit_width();
    }
    panic!("IOB resource not in canonical enumeration");
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{SliceId, SliceResource, Wire};

    #[test]
    fn clb_window_fits_budget_everywhere() {
        // Worst case: every CLB tile's logic + pips must fit 48 frames.
        let layout = Layout::new(Device::XCV50);
        let g = Device::XCV50.geometry();
        for &row in &[0usize, g.clb_rows / 2, g.clb_rows - 1] {
            for &col in &[0usize, g.clb_cols / 2, g.clb_cols - 1] {
                let tile = TileCoord::new(row as i32, col as i32);
                let pips = layout.graph.tile_pips(tile);
                let total = ClbResource::total_bits() + CAPTURE_BITS + pips.len();
                assert!(
                    total <= 48 * BITS_PER_ROW,
                    "{tile}: {total} bits exceed the window"
                );
                // Touch the last pip to exercise the assert in
                // local_to_pos.
                let last = pips.last().unwrap();
                layout.pip_pos(last).unwrap();
            }
        }
    }

    #[test]
    fn resource_positions_are_unique_within_tile() {
        let layout = Layout::new(Device::XCV50);
        let tile = TileCoord::new(2, 3);
        let mut seen = std::collections::HashSet::new();
        let w = layout.window(tile);
        for res in ClbResource::all() {
            let off = clb_resource_offset(res);
            for i in 0..res.bit_width() {
                let p = w.local_to_pos(off + i);
                assert!(seen.insert(p), "bit collision at {p:?} for {res:?}");
            }
        }
    }

    #[test]
    fn capture_slots_do_not_collide_with_logic_or_pips() {
        let layout = Layout::new(Device::XCV50);
        let tile = TileCoord::new(5, 5);
        let mut seen = std::collections::HashSet::new();
        let w = layout.window(tile);
        for res in ClbResource::all() {
            let off = clb_resource_offset(res);
            for i in 0..res.bit_width() {
                seen.insert(w.local_to_pos(off + i));
            }
        }
        for slice in virtex::SliceId::ALL {
            for x in [true, false] {
                let p = layout.capture_pos(tile, slice, x);
                assert!(seen.insert(p), "capture slot collides at {p:?}");
            }
        }
        for pip in layout.graph().tile_pips(tile) {
            let p = layout.pip_pos(&pip).unwrap();
            assert!(seen.insert(p), "pip collides with capture at {p:?}");
        }
    }

    #[test]
    fn different_tiles_use_disjoint_windows() {
        let layout = Layout::new(Device::XCV50);
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(1, 0); // same column, next row slot
        let c = TileCoord::new(0, 1); // different column
        let res = ClbResource::new(SliceId::S0, SliceResource::CkInv);
        let pa = layout.clb_resource_bit(a, res, 0);
        let pb = layout.clb_resource_bit(b, res, 0);
        let pc = layout.clb_resource_bit(c, res, 0);
        assert_eq!(pa.frame, pb.frame, "same column, same frames");
        assert_ne!(pa.bit, pb.bit, "different row slots");
        assert_ne!(pa.frame, pc.frame, "different columns");
    }

    #[test]
    fn iob_tiles_have_windows() {
        let layout = Layout::new(Device::XCV50);
        let g = Device::XCV50.geometry();
        for tile in [
            TileCoord::new(-1, 3),
            TileCoord::new(g.clb_rows as i32, 3),
            TileCoord::new(3, -1),
            TileCoord::new(3, g.clb_cols as i32),
        ] {
            let pos = layout.iob_resource_bit(IobCoord::new(tile, 2), IobResource::OutputEnable, 0);
            assert!(pos.frame < layout.geometry().total_frames());
            // All pips of the tile resolve.
            for p in layout.graph().tile_pips(tile) {
                assert!(layout.pip_pos(&p).is_some(), "{p} has no bit");
            }
        }
    }

    #[test]
    fn top_iob_shares_column_with_clbs_below() {
        let layout = Layout::new(Device::XCV50);
        let top = TileCoord::new(-1, 5);
        let clb = TileCoord::new(0, 5);
        let iob_pos = layout.iob_resource_bit(IobCoord::new(top, 0), IobResource::InputEnable, 0);
        let clb_pos =
            layout.clb_resource_bit(clb, ClbResource::new(SliceId::S0, SliceResource::CkInv), 0);
        let col_frames = layout.window_bounds(clb).0;
        assert!(col_frames.contains(&iob_pos.frame));
        assert!(col_frames.contains(&clb_pos.frame));
    }

    #[test]
    fn nonexistent_pip_has_no_position() {
        let layout = Layout::new(Device::XCV50);
        let t = TileCoord::new(3, 3);
        let bogus = Pip {
            loc: t,
            from: Wire::new(t, virtex::WireKind::Omux(0)),
            to: Wire::new(t, virtex::WireKind::Omux(1)),
        };
        assert_eq!(layout.pip_pos(&bogus), None);
    }

    #[test]
    fn layout_holds_no_per_tile_pip_state() {
        // Every PIP of a spread of tiles resolves on a fresh layout, and
        // resolving them changes nothing a layout holds: a used layout is
        // indistinguishable from a fresh one.
        let device = Device::XCV100;
        let layout = Layout::new(device);
        let fresh = format!("{layout:?}");
        let g = device.geometry();
        let (rows, cols) = (g.clb_rows as i32, g.clb_cols as i32);
        let mut resolved = 0;
        for tile in [
            TileCoord::new(0, 0),
            TileCoord::new(rows / 2, cols / 2 + 1),
            TileCoord::new(rows - 1, cols - 2),
            TileCoord::new(-1, 3),
            TileCoord::new(rows, 3),
            TileCoord::new(3, -1),
            TileCoord::new(3, cols),
        ] {
            for (i, pip) in layout.graph().tile_pips(tile).iter().enumerate() {
                assert_eq!(layout.pip_pos(pip), Some(layout.pip_bit(tile, i)), "{pip}");
                resolved += 1;
            }
        }
        assert!(resolved > 1000);
        assert_eq!(format!("{layout:?}"), fresh);
        assert_eq!(fresh, format!("{:?}", Layout::new(device)));
    }

    #[test]
    fn tiles_in_use_and_set_pip_indices_match_per_tile_reads() {
        let mut state = 7u64;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        for device in Device::ALL {
            let layout = Layout::new(device);
            let mut mem = ConfigMemory::new(device);
            let (frames, bits) = (mem.frame_count(), mem.geometry().frame_bits());
            let all: Vec<TileCoord> = virtex::grid::clb_tiles(device)
                .chain(virtex::grid::iob_tiles(device))
                .collect();
            assert!(layout.tiles_in_use(&mem).is_empty());
            let mut pips_found = 0;
            for round in 0..24 {
                // A random bit of a random tile's window (logic, PIP or
                // past the last PIP), and now and then one anywhere.
                let w = layout.window(all[next(all.len())]);
                let pos = w.local_to_pos(next(w.frame_count * BITS_PER_ROW));
                mem.set_bit(pos.frame, pos.bit, true);
                if round % 3 == 0 {
                    mem.set_bit(next(frames), next(bits), true);
                }
                let used = layout.tiles_in_use(&mem);
                let per_tile = all.iter().filter(|&&t| layout.tile_in_use(&mem, t));
                assert!(used.iter().eq(per_tile), "{device}");
                for &tile in &used {
                    let w = layout.window(tile);
                    let bitwise = (0..w.frame_count * BITS_PER_ROW - w.pip_base).filter(|&i| {
                        let p = layout.pip_bit(tile, i);
                        mem.get_bit(p.frame, p.bit)
                    });
                    let walked: Vec<usize> = layout.set_pip_indices(&mem, tile).collect();
                    assert!(walked.iter().copied().eq(bitwise), "{device} {tile}");
                    pips_found += walked.len();
                }
            }
            assert!(pips_found > 0, "{device}: no poke landed on a PIP bit");
        }
    }

    /// Reference emptiness test: every bit of the window, one by one.
    fn tile_in_use_bitwise(layout: &Layout, mem: &ConfigMemory, tile: TileCoord) -> bool {
        let (frames, slot) = layout.window_bounds(tile);
        frames
            .flat_map(|f| (slot..slot + BITS_PER_ROW).map(move |b| (f, b)))
            .any(|(f, b)| mem.get_bit(f, b))
    }

    #[test]
    fn masked_tile_in_use_matches_bitwise_scan() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            // splitmix64: seeded, dependency-free.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        for device in Device::ALL {
            let layout = Layout::new(device);
            let mut mem = ConfigMemory::new(device);
            let (total, frame_bits) = (mem.frame_count(), mem.geometry().frame_bits());
            let g = device.geometry();
            let (rows, cols) = (g.clb_rows as i32, g.clb_cols as i32);
            // Every row slot of three CLB columns and both IOB columns
            // (slots straddling a word boundary included), plus the top
            // and bottom pad slots.
            let mut tiles = Vec::new();
            for row in 0..rows {
                for col in [-1, 0, cols / 2, cols - 1, cols] {
                    tiles.push(TileCoord::new(row, col));
                }
            }
            for col in [0, cols / 2, cols - 1] {
                tiles.extend([TileCoord::new(-1, col), TileCoord::new(rows, col)]);
            }
            let mut straddling = 0;
            for tile in tiles {
                let (frames, slot) = layout.window_bounds(tile);
                let (first, last) = (frames.start, frames.end - 1);
                straddling += usize::from(slot / 32 != (slot + BITS_PER_ROW - 1) / 32);
                let inside = [
                    (first, slot),
                    (last, slot + BITS_PER_ROW - 1),
                    (first + next(frames.len()), slot + next(BITS_PER_ROW)),
                ];
                let outside = [
                    (first, slot.wrapping_sub(1)),
                    (last, slot + BITS_PER_ROW),
                    (first.wrapping_sub(1), slot + next(BITS_PER_ROW)),
                    (last + 1, slot + next(BITS_PER_ROW)),
                ];
                let pokes = inside.iter().map(|&p| (p, true));
                for ((f, b), expect) in pokes.chain(outside.iter().map(|&p| (p, false))) {
                    if f >= total || b >= frame_bits {
                        continue;
                    }
                    mem.set_bit(f, b, true);
                    let masked = layout.tile_in_use(&mem, tile);
                    assert_eq!(masked, tile_in_use_bitwise(&layout, &mem, tile));
                    assert_eq!(masked, expect, "{device} {tile}: poke ({f}, {b})");
                    mem.set_bit(f, b, false);
                }
            }
            assert!(straddling > 0, "{device}: no slot straddles a word");
        }
    }
}
