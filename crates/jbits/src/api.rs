//! The [`Jbits`] object: resource-level configuration with dirty-frame
//! tracking and partial-bitstream extraction.

use crate::layout::Layout;
use bitstream::{bitgen, Bitstream, ConfigError, Interpreter};
use std::collections::BTreeSet;
use virtex::{
    ClbResource, ConfigMemory, Device, IobCoord, IobResource, LutId, Pip, ResourceValue, SliceId,
    TileCoord,
};

/// Granularity of partial-bitstream extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Exactly the dirtied frames (finest the format allows).
    Frame,
    /// Every frame of each dirtied column — what JPG emits, since a
    /// module occupies whole CLB columns.
    Column,
}

/// A JBits session: a configuration-memory image and the bit layout.
///
/// Dirty-frame tracking lives in [`ConfigMemory`] itself (every write
/// through this API marks the frame it lands in), so the touched-frame
/// set falls out of a session as a byproduct — including writes that
/// bypass the resource API and go through
/// [`ConfigMemory::frame_mut`] directly.
#[derive(Debug)]
pub struct Jbits {
    mem: ConfigMemory,
    layout: Layout,
}

impl Jbits {
    /// Start from an erased device.
    pub fn new(device: Device) -> Self {
        Jbits {
            mem: ConfigMemory::new(device),
            layout: Layout::new(device),
        }
    }

    /// Start from an existing configuration image (e.g. the base design's
    /// complete bitstream, loaded with [`Jbits::from_bitstream`]). The
    /// image becomes the session baseline: any dirty marks it carries are
    /// cleared, so the dirty set afterwards reflects only this session's
    /// edits.
    pub fn from_memory(mut mem: ConfigMemory) -> Self {
        mem.clear_dirty();
        let layout = Layout::new(mem.device());
        Jbits { mem, layout }
    }

    /// Like [`Jbits::from_memory`], but preserving the dirty marks the
    /// image already carries. For callers that pre-edit the image outside
    /// the resource API (e.g. erasing a module's columns through
    /// [`ConfigMemory::frame_mut`]) and want those edits counted in the
    /// session's touched-frame set.
    pub fn from_memory_tracked(mem: ConfigMemory) -> Self {
        let layout = Layout::new(mem.device());
        Jbits { mem, layout }
    }

    /// Load a complete bitstream, as JPG does with the base design.
    pub fn from_bitstream(device: Device, bs: &Bitstream) -> Result<Self, ConfigError> {
        let mut interp = Interpreter::new(device);
        interp.feed(bs)?;
        Ok(Jbits::from_memory(interp.into_memory()))
    }

    /// The device.
    pub fn device(&self) -> Device {
        self.mem.device()
    }

    /// The configuration image.
    pub fn memory(&self) -> &ConfigMemory {
        &self.mem
    }

    /// Consume into the configuration image.
    pub fn into_memory(self) -> ConfigMemory {
        self.mem
    }

    /// The layout (shared with tools that need raw positions).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    // ----- slice logic ---------------------------------------------------

    /// Set a slice resource.
    pub fn set(&mut self, tile: TileCoord, res: ClbResource, value: ResourceValue) {
        assert_eq!(value.width(), res.bit_width(), "width mismatch for {res:?}");
        for i in 0..res.bit_width() {
            let pos = self.layout.clb_resource_bit(tile, res, i);
            self.mem
                .set_bit(pos.frame, pos.bit, (value.bits() >> i) & 1 == 1);
        }
    }

    /// Get a slice resource.
    pub fn get(&self, tile: TileCoord, res: ClbResource) -> ResourceValue {
        self.layout.read_clb(&self.mem, tile, res)
    }

    /// Set a LUT truth table (the classic JBits call).
    pub fn set_lut(&mut self, tile: TileCoord, slice: SliceId, lut: LutId, table: u16) {
        self.set(
            tile,
            ClbResource::new(slice, virtex::SliceResource::Lut(lut)),
            ResourceValue::lut(table),
        );
    }

    /// Get a LUT truth table.
    pub fn get_lut(&mut self, tile: TileCoord, slice: SliceId, lut: LutId) -> u16 {
        self.get(
            tile,
            ClbResource::new(slice, virtex::SliceResource::Lut(lut)),
        )
        .bits() as u16
    }

    // ----- IOB logic -----------------------------------------------------

    /// Set an IOB pad resource.
    pub fn set_iob(&mut self, tile: TileCoord, pad: u8, res: IobResource, value: ResourceValue) {
        assert_eq!(value.width(), res.bit_width(), "width mismatch for {res:?}");
        for i in 0..res.bit_width() {
            let pos = self
                .layout
                .iob_resource_bit(IobCoord::new(tile, pad), res, i);
            self.mem
                .set_bit(pos.frame, pos.bit, (value.bits() >> i) & 1 == 1);
        }
    }

    /// Get an IOB pad resource.
    pub fn get_iob(&self, tile: TileCoord, pad: u8, res: IobResource) -> ResourceValue {
        self.layout
            .read_iob(&self.mem, IobCoord::new(tile, pad), res)
    }

    // ----- routing -------------------------------------------------------

    /// Enable or disable a PIP. Returns `false` if the PIP does not exist
    /// in the fabric.
    pub fn set_pip(&mut self, pip: &Pip, on: bool) -> bool {
        match self.layout.pip_pos(pip) {
            Some(pos) => {
                self.mem.set_bit(pos.frame, pos.bit, on);
                true
            }
            None => false,
        }
    }

    /// Whether a PIP is enabled. `None` if it does not exist.
    pub fn get_pip(&self, pip: &Pip) -> Option<bool> {
        self.layout
            .pip_pos(pip)
            .map(|pos| self.mem.get_bit(pos.frame, pos.bit))
    }

    // ----- capture (readback of live FF state) ----------------------------

    /// Read a flip-flop's captured state: the value the capture facility
    /// last snapshot into the configuration plane (boards write these
    /// slots on [`crate::Xhwif`]-level capture; see `simboard`).
    pub fn get_captured_ff(&mut self, tile: TileCoord, slice: SliceId, x_ff: bool) -> bool {
        let pos = self.layout.capture_pos(tile, slice, x_ff);
        self.mem.get_bit(pos.frame, pos.bit)
    }

    /// Write a capture slot (device-side use).
    pub fn set_captured_ff(&mut self, tile: TileCoord, slice: SliceId, x_ff: bool, value: bool) {
        let pos = self.layout.capture_pos(tile, slice, x_ff);
        self.mem.set_bit(pos.frame, pos.bit, value);
    }

    // ----- block RAM content ----------------------------------------------

    /// Write one content bit of a BRAM. Returns `false` when the site or
    /// bit is out of range for the device.
    pub fn set_bram_bit(&mut self, bram: virtex::BramCoord, bit: usize, value: bool) -> bool {
        match virtex::bram::content_bit_pos(self.mem.geometry(), bram, bit) {
            Some((frame, fb)) => {
                self.mem.set_bit(frame, fb, value);
                true
            }
            None => false,
        }
    }

    /// Read one content bit of a BRAM.
    pub fn get_bram_bit(&mut self, bram: virtex::BramCoord, bit: usize) -> Option<bool> {
        virtex::bram::content_bit_pos(self.mem.geometry(), bram, bit)
            .map(|(frame, fb)| self.mem.get_bit(frame, fb))
    }

    /// Write a whole 4-kbit BRAM from 16-bit words (256 of them), the
    /// classic JBits coefficient-table update.
    pub fn set_bram_contents(&mut self, bram: virtex::BramCoord, words: &[u16; 256]) -> bool {
        for (w, &word) in words.iter().enumerate() {
            for b in 0..16 {
                if !self.set_bram_bit(bram, w * 16 + b, (word >> b) & 1 == 1) {
                    return false;
                }
            }
        }
        true
    }

    /// Read a whole BRAM back as 16-bit words.
    pub fn get_bram_contents(&mut self, bram: virtex::BramCoord) -> Option<[u16; 256]> {
        let mut out = [0u16; 256];
        for (w, word) in out.iter_mut().enumerate() {
            for b in 0..16 {
                if self.get_bram_bit(bram, w * 16 + b)? {
                    *word |= 1 << b;
                }
            }
        }
        Some(out)
    }

    /// Whether any configuration bit in `tile`'s window is set — a fast
    /// emptiness test decoders use to skip untouched tiles.
    pub fn tile_in_use(&self, tile: TileCoord) -> bool {
        self.layout.tile_in_use(&self.mem, tile)
    }

    // ----- dirty tracking & partials --------------------------------------

    /// Frames dirtied since the last [`Self::clear_dirty`], expanded to
    /// the requested granularity. Delegates to the memory's own dirty
    /// bitset, so frames touched through [`ConfigMemory::frame_mut`] by
    /// code outside this API are included too.
    pub fn dirty_frames(&self, gran: Granularity) -> Vec<usize> {
        let frames = self.mem.dirty_frames();
        match gran {
            Granularity::Frame => frames,
            Granularity::Column => expand_to_columns(&self.mem, frames),
        }
    }

    /// Forget the dirty set (e.g. after syncing with the board).
    pub fn clear_dirty(&mut self) {
        self.mem.clear_dirty();
    }

    /// Explicitly mark a frame dirty — used by scrubbers that want a
    /// partial covering known-good frames regardless of edits.
    pub fn mark_frame_dirty(&mut self, frame: usize) {
        assert!(frame < self.mem.frame_count(), "frame out of range");
        self.mem.mark_frame_dirty(frame);
    }

    /// Whether anything has been modified since the last sync.
    pub fn is_dirty(&self) -> bool {
        self.mem.any_dirty()
    }

    /// Build a partial bitstream covering the dirty frames.
    pub fn partial_bitstream(&self, gran: Granularity) -> Bitstream {
        let frames = self.dirty_frames(gran);
        let ranges = bitgen::coalesce_frames(frames);
        bitgen::partial_bitstream(&self.mem, &ranges)
    }

    /// Build a partial bitstream covering every frame that differs from
    /// `base` (the JBitsDiff primitive), at the given granularity.
    pub fn partial_against(&self, base: &ConfigMemory, gran: Granularity) -> Bitstream {
        let mut frames = self.mem.diff_frames(base);
        if gran == Granularity::Column {
            frames = expand_to_columns(&self.mem, frames);
        }
        let ranges = bitgen::coalesce_frames(frames);
        bitgen::partial_bitstream(&self.mem, &ranges)
    }

    /// Build the complete bitstream of the current image.
    pub fn full_bitstream(&self) -> Bitstream {
        bitgen::full_bitstream(&self.mem)
    }
}

/// Expand a frame set to whole configuration columns (what JPG emits,
/// since a module occupies full CLB columns).
pub fn expand_to_columns(mem: &ConfigMemory, frames: Vec<usize>) -> Vec<usize> {
    let geom = mem.geometry();
    let mut out = BTreeSet::new();
    for f in frames {
        let far = geom.frame_address(f).expect("frame valid");
        let col = geom.column(far.block, far.major).expect("column");
        out.extend(col.first_frame_index()..col.first_frame_index() + col.frame_count());
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{MuxSetting, SliceResource, Wire, WireKind};

    #[test]
    fn lut_set_get_roundtrip() {
        let mut jb = Jbits::new(Device::XCV50);
        let t = TileCoord::new(4, 9);
        jb.set_lut(t, SliceId::S0, LutId::F, 0xCAFE);
        jb.set_lut(t, SliceId::S0, LutId::G, 0x1234);
        jb.set_lut(t, SliceId::S1, LutId::F, 0xFFFF);
        assert_eq!(jb.get_lut(t, SliceId::S0, LutId::F), 0xCAFE);
        assert_eq!(jb.get_lut(t, SliceId::S0, LutId::G), 0x1234);
        assert_eq!(jb.get_lut(t, SliceId::S1, LutId::F), 0xFFFF);
        assert_eq!(jb.get_lut(t, SliceId::S1, LutId::G), 0x0000);
        // Neighbouring tile untouched.
        assert_eq!(jb.get_lut(TileCoord::new(4, 10), SliceId::S0, LutId::F), 0);
    }

    #[test]
    fn mux_resources_roundtrip() {
        let mut jb = Jbits::new(Device::XCV50);
        let t = TileCoord::new(0, 0);
        let res = ClbResource::new(SliceId::S1, SliceResource::CeMux);
        jb.set(t, res, ResourceValue::new(MuxSetting::One.encode(), 2));
        assert_eq!(
            MuxSetting::decode(jb.get(t, res).bits()),
            Some(MuxSetting::One)
        );
    }

    #[test]
    fn pip_set_get_and_nonexistent() {
        let mut jb = Jbits::new(Device::XCV50);
        let t = TileCoord::new(5, 5);
        let graph = virtex::RoutingGraph::new(Device::XCV50);
        let pip = graph.tile_pips(t)[0];
        assert_eq!(jb.get_pip(&pip), Some(false));
        assert!(jb.set_pip(&pip, true));
        assert_eq!(jb.get_pip(&pip), Some(true));
        let bogus = Pip {
            loc: t,
            from: Wire::new(t, WireKind::Omux(0)),
            to: Wire::new(t, WireKind::Omux(1)),
        };
        assert!(!jb.set_pip(&bogus, true));
        assert_eq!(jb.get_pip(&bogus), None);
    }

    #[test]
    fn dirty_tracking_column_granularity() {
        let mut jb = Jbits::new(Device::XCV100);
        assert!(!jb.is_dirty());
        let t = TileCoord::new(7, 13);
        jb.set_lut(t, SliceId::S0, LutId::F, 0xAAAA);
        assert!(jb.is_dirty());
        let frame_gran = jb.dirty_frames(Granularity::Frame);
        let col_gran = jb.dirty_frames(Granularity::Column);
        assert!(!frame_gran.is_empty());
        assert!(frame_gran.len() <= col_gran.len());
        assert_eq!(col_gran.len(), 48, "one CLB column");
        jb.clear_dirty();
        assert!(!jb.is_dirty());
        assert!(jb.dirty_frames(Granularity::Frame).is_empty());
    }

    #[test]
    fn partial_applies_on_top_of_base() {
        // The JPG invariant: base + partial == variant, bit for bit.
        let mut base_jb = Jbits::new(Device::XCV100);
        let t0 = TileCoord::new(3, 5);
        base_jb.set_lut(t0, SliceId::S0, LutId::F, 0x00FF);
        let base_mem = base_jb.memory().clone();
        let base_bs = base_jb.full_bitstream();

        // Variant: change a LUT in another column.
        let mut var_jb = Jbits::from_memory(base_mem.clone());
        let t1 = TileCoord::new(9, 20);
        var_jb.set_lut(t1, SliceId::S1, LutId::G, 0x9669);
        let partial = var_jb.partial_bitstream(Granularity::Column);

        // Device configured with base, then the partial applied.
        let mut dev = Interpreter::new(Device::XCV100);
        dev.feed(&base_bs).unwrap();
        dev.feed(&partial).unwrap();
        assert_eq!(dev.memory(), var_jb.memory());
        // The original column is untouched by the partial.
        let mut check = Jbits::from_memory(dev.into_memory());
        assert_eq!(check.get_lut(t0, SliceId::S0, LutId::F), 0x00FF);
        assert_eq!(check.get_lut(t1, SliceId::S1, LutId::G), 0x9669);
    }

    #[test]
    fn partial_against_base_matches_dirty_partial() {
        let mut jb = Jbits::new(Device::XCV50);
        let base = jb.memory().clone();
        jb.set_lut(TileCoord::new(2, 2), SliceId::S0, LutId::F, 0x5555);
        let a = jb.partial_bitstream(Granularity::Column);
        let b = jb.partial_against(&base, Granularity::Column);
        assert_eq!(a, b);
    }

    #[test]
    fn from_bitstream_restores_state() {
        let mut jb = Jbits::new(Device::XCV50);
        jb.set_lut(TileCoord::new(1, 1), SliceId::S0, LutId::G, 0xBEEF);
        let bs = jb.full_bitstream();
        let mut jb2 = Jbits::from_bitstream(Device::XCV50, &bs).unwrap();
        assert_eq!(
            jb2.get_lut(TileCoord::new(1, 1), SliceId::S0, LutId::G),
            0xBEEF
        );
        assert!(Jbits::from_bitstream(Device::XCV100, &bs).is_err());
    }

    #[test]
    fn bram_contents_roundtrip_and_dirty_only_content_frames() {
        let mut jb = Jbits::new(Device::XCV100);
        let bram = virtex::BramCoord::new(virtex::bram::Side::Left, 2);
        let mut words = [0u16; 256];
        for (i, w) in words.iter_mut().enumerate() {
            *w = (i as u16).wrapping_mul(0x9E3);
        }
        assert!(jb.set_bram_contents(bram, &words));
        assert_eq!(jb.get_bram_contents(bram), Some(words));
        // A different BRAM on the same column is untouched.
        let other = virtex::BramCoord::new(virtex::bram::Side::Left, 3);
        assert_eq!(jb.get_bram_contents(other), Some([0u16; 256]));
        // Dirty frames are all in the BRAM content block — a partial for
        // a coefficient update is tiny.
        let geom = jb.memory().geometry().clone();
        for f in jb.dirty_frames(Granularity::Frame) {
            assert_eq!(
                geom.frame_address(f).unwrap().block,
                virtex::BlockType::BramContent
            );
        }
        let partial = jb.partial_bitstream(Granularity::Frame);
        let full = jb.full_bitstream();
        assert!(partial.byte_len() * 10 < full.byte_len());
        // And it applies cleanly on a blank device.
        let mut dev = Interpreter::new(Device::XCV100);
        dev.feed(&jb.full_bitstream()).unwrap();
        assert_eq!(dev.memory(), jb.memory());
    }

    #[test]
    fn bram_out_of_range_rejected() {
        let mut jb = Jbits::new(Device::XCV50); // 4 BRAMs per column
        let bad = virtex::BramCoord::new(virtex::bram::Side::Right, 4);
        assert!(!jb.set_bram_bit(bad, 0, true));
        assert_eq!(jb.get_bram_bit(bad, 0), None);
        let ok = virtex::BramCoord::new(virtex::bram::Side::Right, 3);
        assert!(!jb.set_bram_bit(ok, virtex::BRAM_BITS, true));
    }

    #[test]
    fn iob_resources_roundtrip() {
        let mut jb = Jbits::new(Device::XCV50);
        let t = TileCoord::new(-1, 4);
        jb.set_iob(t, 1, IobResource::OutputEnable, ResourceValue::bit(true));
        jb.set_iob(t, 1, IobResource::PullMode, ResourceValue::new(2, 2));
        assert!(jb.get_iob(t, 1, IobResource::OutputEnable).as_bool());
        assert_eq!(jb.get_iob(t, 1, IobResource::PullMode).bits(), 2);
        assert!(!jb.get_iob(t, 0, IobResource::OutputEnable).as_bool());
    }
}
