//! [`SimBoard`]: the complete simulated board behind [`jbits::Xhwif`].
//!
//! Owns a SelectMAP port and re-decodes the fabric after every
//! configuration — including partial reconfigurations, where flip-flop
//! state *outside* the reconfigured region survives, as it does on real
//! hardware performing dynamic partial reconfiguration.
//!
//! A re-decode reads only the tile columns that hold a frame written
//! since the last successful decode, as the configuration memory's
//! dirty set records them, and copies every other tile's slices, pads
//! and PIPs from the previous model. A partial that rewrites a third of
//! the device costs about a third of a whole-device read; the first
//! decode of a fresh board is the same update with every column read.

use crate::fabric::{self, DecodeError, FabricSim, Prev, TileSpans};
use crate::port::SelectMap;
use bitstream::{Bitstream, ConfigError};
use jbits::{Layout, Xhwif};
use std::collections::HashMap;
use std::time::Duration;
use virtex::{Device, IobCoord, TileCoord};

/// A simulated single-FPGA board.
#[derive(Debug)]
pub struct SimBoard {
    port: SelectMap,
    sim: Option<FabricSim>,
    /// Where each tile's pieces sit in `sim`'s model.
    spans: TileSpans,
    layout: Layout,
    /// Sticky external pad drives, reapplied across reconfigurations.
    pad_drives: HashMap<(TileCoord, u8), bool>,
    user_clocks: u64,
    /// Whether the board advertises the XHWIF `readback_digest`
    /// capability (on by default; turned off to model older boards
    /// that only have the raw readback path).
    digest_readback: bool,
}

impl SimBoard {
    /// A powered-up board with a blank `device`.
    pub fn new(device: Device) -> Self {
        SimBoard {
            port: SelectMap::new(device),
            sim: None,
            spans: TileSpans::default(),
            layout: Layout::new(device),
            pad_drives: HashMap::new(),
            user_clocks: 0,
            digest_readback: true,
        }
    }

    /// Enable or disable the device-side digest readback capability.
    /// Disabled boards return `None` from
    /// [`Xhwif::get_region_digests`], forcing callers back onto the
    /// raw readback path.
    pub fn set_digest_readback(&mut self, enabled: bool) {
        self.digest_readback = enabled;
    }

    /// Rebuild the fabric simulation from the current configuration,
    /// carrying FF state over from the previous model where slices
    /// persist (partial-reconfiguration semantics). Only the tile
    /// columns written since the last successful re-decode are read;
    /// the dirty set is cleared once the new simulation has settled, so
    /// frames written by a load that failed stay pending until then.
    /// Host work, so it runs under a wall-clock `fabric_decode` span
    /// (the `download` span carries modelled port time only).
    fn redecode(&mut self) -> Result<(), DecodeError> {
        let _g = obs::span!("fabric_decode");
        obs::counter!("simboard_fabric_decodes_total").inc();
        let mem = self.port.interpreter().memory();
        let mut written = vec![false; self.layout.tile_columns()];
        self.layout
            .mark_tile_columns(&mem.dirty_frames(), &mut written);
        let prev = self.sim.as_ref().map(|sim| Prev {
            model: sim.model(),
            spans: &self.spans,
            written: &written,
        });
        let decoded = fabric::decode_columns(&self.layout, mem, prev)?;
        obs::counter!("simboard_fabric_tiles_decoded_total").add(decoded.tiles_read);
        let mut next = FabricSim::compile(decoded.model);
        if let Some(prev) = &self.sim {
            next.carry_state_from(prev);
        }
        for (&(tile, pad), &v) in &self.pad_drives {
            next.set_pad(tile, pad, v);
        }
        next.settle()?;
        self.sim = Some(next);
        self.spans = decoded.spans;
        self.port.interpreter_mut().memory_mut().clear_dirty();
        Ok(())
    }

    /// The live fabric simulation (None until something configures).
    pub fn fabric(&self) -> Option<&FabricSim> {
        self.sim.as_ref()
    }

    /// Drive an input pad.
    pub fn set_pad(&mut self, io: IobCoord, value: bool) {
        self.pad_drives.insert((io.tile, io.pad), value);
        if let Some(sim) = &mut self.sim {
            sim.set_pad(io.tile, io.pad, value);
            let _ = sim.settle();
        }
    }

    /// Read an output pad.
    pub fn get_pad(&self, io: IobCoord) -> bool {
        self.sim
            .as_ref()
            .map(|s| s.get_pad(io.tile, io.pad))
            .unwrap_or(false)
    }

    /// Cumulative configuration time (SelectMAP model).
    pub fn config_time(&self) -> Duration {
        self.port.total_config_time()
    }

    /// Bytes pushed through the configuration port.
    pub fn config_bytes(&self) -> u64 {
        self.port.bytes_loaded()
    }

    /// User clock cycles stepped so far.
    pub fn user_clocks(&self) -> u64 {
        self.user_clocks
    }

    /// The configuration port (for readback etc.).
    pub fn port_mut(&mut self) -> &mut SelectMap {
        &mut self.port
    }

    /// The configuration port, read-only (stats, fault-injector state).
    pub fn port(&self) -> &SelectMap {
        &self.port
    }

    /// Install (or clear) a fault injector on the board's configuration
    /// port — see [`crate::port::FaultInjector`].
    pub fn set_fault_injector(&mut self, injector: Option<crate::port::FaultInjector>) {
        self.port.set_fault_injector(injector);
    }

    /// Configure from a compressed wire container ([`wire`] `JWC1`),
    /// decoded stream-wise on the device side, then rebuild the fabric
    /// simulation — the wire-format counterpart of
    /// [`Xhwif::set_configuration`]. Delta sections XOR against the
    /// board's own resident frames, so incremental containers are only
    /// valid while the target region holds base content (the same
    /// contract as plain incremental partials, now checksum-enforced).
    /// On success the decoder's [`wire::ApplyStats`] come back
    /// (container bytes, decoded words, `peak_buffer_words`).
    pub fn set_configuration_wire(
        &mut self,
        container: &[u8],
    ) -> Result<wire::ApplyStats, ConfigError> {
        let stats = self.port.load_wire(container)?;
        self.redecode()
            .map_err(|e| ConfigError::InvalidConfiguration(e.to_string()))?;
        Ok(stats)
    }

    /// Inject a single-event upset: flip one configuration bit in place,
    /// exactly as ionizing radiation would, and let the (changed) circuit
    /// keep running with its flip-flop state intact. Returns `false` for
    /// an out-of-range position or if the flip produces an illegal
    /// configuration (in which case the bit is restored).
    pub fn inject_upset(&mut self, frame: usize, bit: usize) -> bool {
        if frame >= self.port.interpreter().memory().frame_count()
            || bit >= self.port.interpreter().memory().geometry().frame_bits()
        {
            return false;
        }
        let mem = self.port.interpreter_mut().memory_mut();
        let old = mem.get_bit(frame, bit);
        mem.set_bit(frame, bit, !old);
        if self.redecode().is_err() {
            // e.g. the flip created wire contention; real silicon would
            // be damaged — we restore instead.
            let mem = self.port.interpreter_mut().memory_mut();
            mem.set_bit(frame, bit, old);
            let _ = self.redecode();
            return false;
        }
        true
    }

    /// The CAPTURE facility: snapshot every live flip-flop value into its
    /// capture slot in the configuration plane, so readback (or
    /// [`jbits::Jbits::get_captured_ff`] over [`Xhwif::get_configuration`])
    /// can observe the running design's state.
    pub fn capture(&mut self) {
        let Some(sim) = &self.sim else { return };
        let states = sim.ff_states();
        let mut jb = jbits::Jbits::from_memory(self.port.interpreter().memory().clone());
        for (tile, slice, x_ff, value) in states {
            jb.set_captured_ff(tile, slice, x_ff, value);
        }
        let words: Vec<u32> = jb.memory().as_words().to_vec();
        self.port.interpreter_mut().memory_mut().load_words(&words);
    }
}

impl Xhwif for SimBoard {
    fn device(&self) -> Device {
        self.port.device()
    }

    fn set_configuration(&mut self, bits: &Bitstream) -> Result<(), ConfigError> {
        self.port.load(bits)?;
        // Surface decode problems as configuration failures: on real
        // hardware a contending configuration damages the part.
        self.redecode()
            .map_err(|e| ConfigError::InvalidConfiguration(e.to_string()))
    }

    fn get_configuration(&mut self) -> Result<Vec<u32>, ConfigError> {
        Ok(self.port.interpreter().memory().as_words().to_vec())
    }

    fn get_configuration_region(
        &mut self,
        range: bitstream::FrameRange,
    ) -> Result<Vec<u32>, ConfigError> {
        let mut out = Vec::with_capacity(range.len);
        self.get_configuration_region_into(range, &mut out)?;
        Ok(out)
    }

    fn get_configuration_region_into(
        &mut self,
        range: bitstream::FrameRange,
        out: &mut Vec<u32>,
    ) -> Result<(), ConfigError> {
        // Run the real frame-addressed readback command sequence against
        // the device-side interpreter, instead of the trait's dump-and-
        // slice fallback: the region verifier then exercises the same
        // FAR/RCFG/FDRO path hardware would.
        bitstream::readback::readback_frames_into(self.port.interpreter_mut(), range, out)
    }

    fn get_region_digests(
        &mut self,
        range: bitstream::FrameRange,
    ) -> Option<Result<virtex::RegionDigests, ConfigError>> {
        if !self.digest_readback {
            return None;
        }
        // The "device side" of the capability: frames travel the same
        // FAR/RCFG/FDRO readback path as a raw region readback, but
        // they are folded into digests before anything crosses the
        // port — only `8 * range.len + 8` bytes leave the board.
        let fw = self.port.interpreter().memory().frame_words();
        let mut words = Vec::with_capacity(range.len * fw);
        Some(
            bitstream::readback::readback_frames_into(
                self.port.interpreter_mut(),
                range,
                &mut words,
            )
            .map(|()| virtex::RegionDigests::from_words(&words, fw)),
        )
    }

    fn clock_step(&mut self, cycles: u64) {
        if let Some(sim) = &mut self.sim {
            for _ in 0..cycles {
                let _ = sim.clock();
            }
        }
        self.user_clocks += cycles;
    }

    fn reset(&mut self) {
        if let Some(sim) = &mut self.sim {
            sim.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::ConfigMemory;

    #[test]
    fn blank_board_reads_low_pads() {
        let b = SimBoard::new(Device::XCV50);
        assert!(!b.get_pad(IobCoord::new(TileCoord::new(-1, 0), 0)));
        assert_eq!(b.config_bytes(), 0);
    }

    #[test]
    fn configure_then_query() {
        let mem = ConfigMemory::new(Device::XCV50);
        let bs = bitstream::full_bitstream(&mem);
        let mut b = SimBoard::new(Device::XCV50);
        b.set_configuration(&bs).unwrap();
        assert!(b.fabric().is_some());
        assert!(b.config_time() > Duration::ZERO);
        let cfg = b.get_configuration().unwrap();
        assert_eq!(cfg.len(), mem.as_words().len());
    }

    #[test]
    fn region_readback_matches_whole_device_slice() {
        let mut mem = ConfigMemory::new(Device::XCV50);
        for f in 0..mem.frame_count() {
            mem.frame_mut(f)[1] = 0x1000 + f as u32;
        }
        let bs = bitstream::full_bitstream(&mem);
        let mut b = SimBoard::new(Device::XCV50);
        // Arbitrary frame content is not a legal circuit, so load through
        // the port (no fabric decode) — the readback path is what's
        // under test here.
        b.port_mut().load(&bs).unwrap();
        let fw = mem.frame_words();
        let whole = b.get_configuration().unwrap();
        let range = bitstream::FrameRange::new(12, 7);
        let region = b.get_configuration_region(range).unwrap();
        assert_eq!(region.len(), range.len * fw);
        assert_eq!(
            region,
            whole[range.start * fw..(range.start + range.len) * fw]
        );
    }

    #[test]
    fn digest_readback_matches_raw_frames_and_gates_off() {
        let mut mem = ConfigMemory::new(Device::XCV50);
        for f in 0..mem.frame_count() {
            mem.frame_mut(f)[2] = 0xA000 + f as u32;
        }
        let bs = bitstream::full_bitstream(&mem);
        let mut b = SimBoard::new(Device::XCV50);
        b.port_mut().load(&bs).unwrap();
        let range = bitstream::FrameRange::new(9, 5);
        let digests = b.get_region_digests(range).expect("capability on").unwrap();
        let raw = b.get_configuration_region(range).unwrap();
        let expected = virtex::RegionDigests::from_words(&raw, mem.frame_words());
        assert_eq!(digests, expected);
        assert_eq!(digests.port_bytes(), 5 * 8 + 8);

        // A single-bit upset in the region must perturb its digest.
        b.port_mut()
            .interpreter_mut()
            .memory_mut()
            .set_bit(10, 3, true);
        let dirty = b.get_region_digests(range).unwrap().unwrap();
        assert_ne!(dirty.frames[1], digests.frames[1]);
        assert_eq!(dirty.frames[0], digests.frames[0]);

        // Capability off: the board reports no digest path at all.
        b.set_digest_readback(false);
        assert!(b.get_region_digests(range).is_none());
    }
}
