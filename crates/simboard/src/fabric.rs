//! Functional simulation of a *configured* fabric.
//!
//! [`FabricModel::decode`] reads a configuration memory back into typed
//! resources — the inverse of what JPG writes — and
//! [`FabricSim`] executes the decoded circuit: wires carry values across
//! enabled PIPs, LUTs evaluate their truth tables, flip-flops update on
//! the global clock. Nothing here consults the original netlist: if the
//! simulated behaviour matches the golden model, the whole
//! flow→bitstream→device pipeline is correct end to end.

use jbits::Layout;
use std::collections::HashMap;
use virtex::{
    ClbResource, ConfigMemory, Device, IobCoord, IobResource, MuxSetting, SliceId, SlicePin,
    SliceResource, TileCoord, Wire, WireKind,
};

/// Decode failure: the configuration is not a legal circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Two enabled PIPs drive the same wire.
    Contention {
        /// The doubly driven wire.
        wire: String,
    },
    /// Combinational settling did not converge (a loop through enabled
    /// PIPs and LUTs).
    Oscillation,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Contention { wire } => write!(f, "wire {wire} has multiple drivers"),
            DecodeError::Oscillation => write!(f, "combinational loop does not settle"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One decoded slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSlice {
    /// Tile.
    pub tile: TileCoord,
    /// Slice.
    pub slice: SliceId,
    /// F LUT truth table.
    pub lut_f: u16,
    /// G LUT truth table.
    pub lut_g: u16,
    /// FFX present.
    pub ffx: bool,
    /// FFY present.
    pub ffy: bool,
    /// FFX power-on value.
    pub init_x: bool,
    /// FFY power-on value.
    pub init_y: bool,
    /// FFX D source: true = BX bypass, false = F LUT.
    pub dx_bypass: bool,
    /// FFY D source.
    pub dy_bypass: bool,
    /// X output driven by the F LUT.
    pub x_on: bool,
    /// Y output driven by the G LUT.
    pub y_on: bool,
    /// Clock-enable source.
    pub ce: MuxSetting,
    /// Whether the slice CLK pin hangs off the global clock tree.
    pub clocked: bool,
}

/// One decoded IOB pad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedIob {
    /// Ring tile.
    pub tile: TileCoord,
    /// Pad index.
    pub pad: u8,
    /// Input buffer enabled (pad drives fabric).
    pub inbuf: bool,
    /// Output buffer enabled (fabric drives pad).
    pub outbuf: bool,
}

/// A decoded configuration: everything needed to simulate the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricModel {
    /// Device decoded.
    pub device: Device,
    /// Active slices.
    pub slices: Vec<DecodedSlice>,
    /// Active pads.
    pub iobs: Vec<DecodedIob>,
    /// Enabled PIPs as `(from, to)` pairs.
    pub pips: Vec<(Wire, Wire)>,
}

impl FabricModel {
    /// Decode a configuration memory, reading only the bits that are set.
    /// Tile occupancy is one OR over each column's frames plus one
    /// row-slot read per tile. For each tile in use, slice and pad logic
    /// is read field by field, and PIPs come from a walk over the set
    /// bits of its window at or past the PIP base: each set bit maps to
    /// its wires with one read of the tile kind's PIP table
    /// ([`virtex::RoutingGraph::tile_pip`]), and bits past the tile's
    /// last PIP are skipped. Contention names the first doubly driven
    /// wire decoded.
    pub fn decode(mem: &ConfigMemory) -> Result<FabricModel, DecodeError> {
        let device = mem.device();
        let layout = Layout::new(device);
        let graph = layout.graph();
        let clb = |t, s, r| layout.read_clb(mem, t, ClbResource::new(s, r)).bits();
        let iob = |t, pad, r| layout.read_iob(mem, IobCoord::new(t, pad), r).as_bool();
        let mut model = FabricModel {
            device,
            slices: Vec::new(),
            iobs: Vec::new(),
            pips: Vec::new(),
        };

        for tile in layout.tiles_in_use(mem) {
            if tile.is_clb(device) {
                for slice in SliceId::ALL {
                    model
                        .slices
                        .extend(decode_slice(tile, slice, |r| clb(tile, slice, r)));
                }
            } else {
                for pad in 0..virtex::routing::PADS_PER_IOB as u8 {
                    let inbuf = iob(tile, pad, IobResource::InputEnable);
                    let outbuf = iob(tile, pad, IobResource::OutputEnable);
                    if inbuf || outbuf {
                        model.iobs.push(DecodedIob {
                            tile,
                            pad,
                            inbuf,
                            outbuf,
                        });
                    }
                }
            }
            let set = layout.set_pip_indices(mem, tile);
            let pips = set.filter_map(|i| graph.tile_pip(tile, i));
            model.pips.extend(pips.map(|p| (p.from, p.to)));
        }

        // Clock connectivity + contention check.
        let mut driver_count: HashMap<Wire, u32> = HashMap::new();
        for (_, to) in &model.pips {
            *driver_count.entry(*to).or_insert(0) += 1;
        }
        if let Some((_, w)) = model.pips.iter().find(|(_, to)| driver_count[to] > 1) {
            return Err(DecodeError::Contention { wire: w.name() });
        }
        for s in &mut model.slices {
            let clk = Wire::new(
                s.tile,
                WireKind::SlicePin {
                    slice: s.slice,
                    pin: SlicePin::Clk,
                },
            );
            s.clocked = driver_count.contains_key(&clk);
        }
        Ok(model)
    }
}

fn decode_slice(
    tile: TileCoord,
    slice: SliceId,
    get: impl Fn(SliceResource) -> u32,
) -> Option<DecodedSlice> {
    let lut_f = get(SliceResource::Lut(virtex::LutId::F)) as u16;
    let lut_g = get(SliceResource::Lut(virtex::LutId::G)) as u16;
    let ffx = get(SliceResource::FfX) == 1;
    let ffy = get(SliceResource::FfY) == 1;
    let x_on = MuxSetting::decode(get(SliceResource::FxMux)) == Some(MuxSetting::Primary);
    let y_on = MuxSetting::decode(get(SliceResource::GyMux)) == Some(MuxSetting::Primary);
    if !(ffx || ffy || x_on || y_on) {
        return None;
    }
    Some(DecodedSlice {
        tile,
        slice,
        lut_f,
        lut_g,
        ffx,
        ffy,
        init_x: get(SliceResource::InitX) == 1,
        init_y: get(SliceResource::InitY) == 1,
        dx_bypass: get(SliceResource::DxMux) == 1,
        dy_bypass: get(SliceResource::DyMux) == 1,
        x_on,
        y_on,
        ce: MuxSetting::decode(get(SliceResource::CeMux)).unwrap_or(MuxSetting::Off),
        clocked: false, // filled in by decode()
    })
}

/// The running simulation of a decoded fabric, compiled to a dense
/// netlist. [`FabricSim::new`] interns every wire the model touches (PIP
/// ends, slice pins, input-buffered pads) into an array index once, so a
/// settle pass costs `O(pads + slices + PIPs)` array reads and writes
/// with no hashing and no allocation, and a settle runs at most
/// `#PIPs + #slices + 2` passes.
#[derive(Debug, Clone)]
pub struct FabricSim {
    model: FabricModel,
    /// Dense index of every wire the model touches.
    index: HashMap<Wire, u32>,
    /// `(PadIn wire, model IOB)` for every input-buffered pad.
    pads: Vec<(u32, usize)>,
    /// Input pins of each model slice.
    pins: Vec<SlicePins>,
    /// Slice outputs in model order: `(wire, model slice, driver)`.
    outs: Vec<(u32, usize, Driver)>,
    /// Enabled PIPs as `(from, to)` wire indices.
    pips: Vec<(u32, u32)>,
    /// External value applied to each model IOB.
    pad_in: Vec<bool>,
    /// FF state per model slice: (X, Y).
    ff: Vec<(bool, bool)>,
    /// Wire values after the last settle.
    values: Vec<bool>,
    /// Values computed by a settle phase before any is written.
    scratch: Vec<bool>,
}

/// A slice's input pins as wire indices.
#[derive(Debug, Clone)]
struct SlicePins {
    f: [u32; 4],
    g: [u32; 4],
    ce: u32,
    bx: u32,
    by: u32,
}

/// What drives a slice output wire.
#[derive(Debug, Clone, Copy)]
enum Driver {
    LutF,
    LutG,
    FfX,
    FfY,
}

/// Evaluate a LUT whose inputs `A1..A4` sit on wires `pins`.
fn lut(values: &[bool], pins: &[u32; 4], table: u16) -> bool {
    let idx = (pins.iter().enumerate())
        .fold(0, |acc, (i, &w)| acc | usize::from(values[w as usize]) << i);
    (table >> idx) & 1 == 1
}

/// Write `v` to wire `w`; whether the value changed.
fn set(values: &mut [bool], w: u32, v: bool) -> bool {
    std::mem::replace(&mut values[w as usize], v) != v
}

impl FabricSim {
    /// Compile `model` and start simulating; FFs take their INIT values
    /// (the GSR behaviour on START).
    pub fn new(model: FabricModel) -> Result<FabricSim, DecodeError> {
        let wires = 2 * model.pips.len() + 15 * model.slices.len() + model.iobs.len();
        let mut index = HashMap::with_capacity(wires);
        let mut intern = |w: Wire| {
            let next = index.len() as u32;
            *index.entry(w).or_insert(next)
        };
        let pads = (model.iobs.iter().enumerate())
            .filter(|(_, io)| io.inbuf)
            .map(|(k, io)| (intern(Wire::new(io.tile, WireKind::PadIn(io.pad))), k))
            .collect();
        let mut pins = Vec::with_capacity(model.slices.len());
        let mut outs = Vec::new();
        for (i, s) in model.slices.iter().enumerate() {
            let mut pin = |pin| {
                intern(Wire::new(
                    s.tile,
                    WireKind::SlicePin {
                        slice: s.slice,
                        pin,
                    },
                ))
            };
            use SlicePin::*;
            pins.push(SlicePins {
                f: [F1, F2, F3, F4].map(&mut pin),
                g: [G1, G2, G3, G4].map(&mut pin),
                ce: pin(CE),
                bx: pin(BX),
                by: pin(BY),
            });
            let drivers = [
                (s.x_on, pin(X), Driver::LutF),
                (s.y_on, pin(Y), Driver::LutG),
                (s.ffx, pin(XQ), Driver::FfX),
                (s.ffy, pin(YQ), Driver::FfY),
            ];
            for (on, w, driver) in drivers {
                if on {
                    outs.push((w, i, driver));
                }
            }
        }
        let pips = (model.pips.iter())
            .map(|&(from, to)| (intern(from), intern(to)))
            .collect();
        let mut sim = FabricSim {
            pad_in: vec![false; model.iobs.len()],
            ff: model.slices.iter().map(|s| (s.init_x, s.init_y)).collect(),
            values: vec![false; index.len()],
            scratch: Vec::new(),
            model,
            index,
            pads,
            pins,
            outs,
            pips,
        };
        sim.settle()?;
        Ok(sim)
    }

    /// The decoded model.
    pub fn model(&self) -> &FabricModel {
        &self.model
    }

    /// Drive a pad from outside. A pad the model does not use ignores
    /// the drive.
    pub fn set_pad(&mut self, tile: TileCoord, pad: u8, value: bool) {
        let iobs = &self.model.iobs;
        if let Some(k) = iobs.iter().position(|io| io.tile == tile && io.pad == pad) {
            self.pad_in[k] = value;
        }
    }

    /// Read a pad's fabric-driven value (the board-visible output).
    pub fn get_pad(&self, tile: TileCoord, pad: u8) -> bool {
        let out = Wire::new(tile, WireKind::PadOut(pad));
        self.index
            .get(&out)
            .is_some_and(|&w| self.values[w as usize])
    }

    fn lut_out(&self, i: usize, g: bool) -> bool {
        let (s, p) = (&self.model.slices[i], &self.pins[i]);
        if g {
            lut(&self.values, &p.g, s.lut_g)
        } else {
            lut(&self.values, &p.f, s.lut_f)
        }
    }

    /// Propagate combinational logic to a fixed point. Each pass drives
    /// the pads, then every slice output (all read before any is
    /// written), then every PIP (likewise).
    pub fn settle(&mut self) -> Result<(), DecodeError> {
        // Upper bound on combinational depth: every pass fixes at least
        // one more wire, so #pips + #slices + 2 passes suffice for any
        // loop-free circuit.
        let max_passes = self.model.pips.len() + self.model.slices.len() + 2;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut passes = 0;
        let settled = loop {
            if passes == max_passes {
                break false;
            }
            passes += 1;
            let mut changed = false;
            for &(w, k) in &self.pads {
                changed |= set(&mut self.values, w, self.pad_in[k]);
            }
            scratch.clear();
            scratch.extend(self.outs.iter().map(|&(_, i, driver)| match driver {
                Driver::LutF => self.lut_out(i, false),
                Driver::LutG => self.lut_out(i, true),
                Driver::FfX => self.ff[i].0,
                Driver::FfY => self.ff[i].1,
            }));
            for (&(w, _, _), &v) in self.outs.iter().zip(&scratch) {
                changed |= set(&mut self.values, w, v);
            }
            scratch.clear();
            scratch.extend(
                self.pips
                    .iter()
                    .map(|&(from, _)| self.values[from as usize]),
            );
            for (&(_, to), &v) in self.pips.iter().zip(&scratch) {
                changed |= set(&mut self.values, to, v);
            }
            if !changed {
                break true;
            }
        };
        self.scratch = scratch;
        obs::counter!("simboard_fabric_settle_passes_total").add(passes as u64);
        if settled {
            Ok(())
        } else {
            Err(DecodeError::Oscillation)
        }
    }

    /// One rising edge of the global clock.
    pub fn clock(&mut self) -> Result<(), DecodeError> {
        self.settle()?;
        for (i, s) in self.model.slices.iter().enumerate() {
            if !(s.clocked && (s.ffx || s.ffy)) {
                continue;
            }
            let p = &self.pins[i];
            let en = s.ce != MuxSetting::Primary || self.values[p.ce as usize];
            if !en {
                continue;
            }
            let (x, y) = self.ff[i];
            let dx = if s.dx_bypass {
                self.values[p.bx as usize]
            } else {
                self.lut_out(i, false)
            };
            let dy = if s.dy_bypass {
                self.values[p.by as usize]
            } else {
                self.lut_out(i, true)
            };
            self.ff[i] = (if s.ffx { dx } else { x }, if s.ffy { dy } else { y });
        }
        self.settle()
    }

    /// Run `n` clock cycles.
    pub fn run(&mut self, n: usize) -> Result<(), DecodeError> {
        for _ in 0..n {
            self.clock()?;
        }
        Ok(())
    }

    /// Live flip-flop states: `(tile, slice, is_ffx, value)` for every
    /// present FF — what the CAPTURE facility snapshots.
    pub fn ff_states(&self) -> Vec<(TileCoord, SliceId, bool, bool)> {
        let mut out = Vec::new();
        for (i, s) in self.model.slices.iter().enumerate() {
            if s.ffx {
                out.push((s.tile, s.slice, true, self.ff[i].0));
            }
            if s.ffy {
                out.push((s.tile, s.slice, false, self.ff[i].1));
            }
        }
        out
    }

    /// Copy flip-flop state from a previous simulation for slices that
    /// exist in both models — what survives a *dynamic partial*
    /// reconfiguration on real silicon (only the rewritten columns lose
    /// state; here we conservatively keep state per surviving slice).
    pub fn carry_state_from(&mut self, prev: &FabricSim) {
        let prev_idx: HashMap<(TileCoord, SliceId), usize> = prev
            .model
            .slices
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.tile, s.slice), i))
            .collect();
        for (i, s) in self.model.slices.iter().enumerate() {
            if let Some(&j) = prev_idx.get(&(s.tile, s.slice)) {
                self.ff[i] = prev.ff[j];
            }
        }
    }

    /// Reset all FFs to their INIT values (board-level GSR).
    pub fn reset(&mut self) {
        for (i, s) in self.model.slices.iter().enumerate() {
            self.ff[i] = (s.init_x, s.init_y);
        }
        let _ = self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbits::Jbits;
    use virtex::LutId;

    /// Hand-build a tiny circuit with raw JBits calls: pad -> LUT(NOT) ->
    /// pad, no CAD flow involved.
    fn build_inverter() -> (ConfigMemory, TileCoord, TileCoord) {
        let device = Device::XCV50;
        let mut jb = Jbits::new(device);
        let graph = virtex::RoutingGraph::new(device);
        let in_tile = TileCoord::new(-1, 3); // top ring
        let lut_tile = TileCoord::new(0, 3);
        // Pad 0 drives single S0 into the CLB below; single hits F1 (idx
        // 0 class) of slice S0.
        jb.set_iob(
            in_tile,
            0,
            IobResource::InputEnable,
            virtex::ResourceValue::bit(true),
        );
        let s_in = Wire::new(
            in_tile,
            WireKind::Single {
                dir: virtex::Dir::South,
                idx: 0,
            },
        );
        let pin_f1 = Wire::new(
            lut_tile,
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin: SlicePin::F1,
            },
        );
        let p1 = graph
            .find_pip(Wire::new(in_tile, WireKind::PadIn(0)), s_in)
            .unwrap();
        let p2 = graph.find_pip(s_in, pin_f1).unwrap();
        assert!(jb.set_pip(&p1, true));
        assert!(jb.set_pip(&p2, true));
        // LUT = NOT(A1): output 1 when input bit0 is 0.
        jb.set_lut(lut_tile, SliceId::S0, LutId::F, 0x5555);
        jb.set(
            lut_tile,
            ClbResource::new(SliceId::S0, SliceResource::FxMux),
            virtex::ResourceValue::new(MuxSetting::Primary.encode(), 2),
        );
        // X -> OMUX -> single N back to the ring -> PadOut.
        let x = Wire::new(
            lut_tile,
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin: SlicePin::X,
            },
        );
        let mut cand = Vec::new();
        graph.downhill(x, &mut cand);
        let omux = cand[0].to;
        assert!(jb.set_pip(&cand[0], true));
        let mut cand2 = Vec::new();
        graph.downhill(omux, &mut cand2);
        let north = cand2
            .iter()
            .find(|p| {
                matches!(
                    p.to.kind,
                    WireKind::Single {
                        dir: virtex::Dir::North,
                        ..
                    }
                )
            })
            .unwrap();
        assert!(jb.set_pip(north, true));
        let mut cand3 = Vec::new();
        graph.downhill(north.to, &mut cand3);
        let to_pad = cand3
            .iter()
            .find(|p| matches!(p.to.kind, WireKind::PadOut(_)))
            .unwrap();
        assert!(jb.set_pip(to_pad, true));
        let out_pad = match to_pad.to.kind {
            WireKind::PadOut(p) => p,
            _ => unreachable!(),
        };
        jb.set_iob(
            in_tile,
            out_pad,
            IobResource::OutputEnable,
            virtex::ResourceValue::bit(true),
        );
        (jb.into_memory(), in_tile, in_tile)
    }

    #[test]
    fn decode_and_simulate_hand_built_inverter() {
        let (mem, in_tile, out_tile) = build_inverter();
        let model = FabricModel::decode(&mem).unwrap();
        assert_eq!(model.slices.len(), 1);
        assert!(!model.pips.is_empty());
        let mut sim = FabricSim::new(model).unwrap();
        sim.set_pad(in_tile, 0, false);
        sim.settle().unwrap();
        let out_pad_idx = sim
            .model()
            .iobs
            .iter()
            .find(|i| i.outbuf)
            .map(|i| i.pad)
            .unwrap();
        assert!(sim.get_pad(out_tile, out_pad_idx), "NOT(0) = 1");
        sim.set_pad(in_tile, 0, true);
        sim.settle().unwrap();
        assert!(!sim.get_pad(out_tile, out_pad_idx), "NOT(1) = 0");
    }

    #[test]
    fn contention_detected() {
        let device = Device::XCV50;
        let mut jb = Jbits::new(device);
        let graph = virtex::RoutingGraph::new(device);
        let t = TileCoord::new(2, 2);
        // Two different pips driving the same destination wire.
        let pips = graph.tile_pips(t);
        let dest = pips[10].to;
        let drivers: Vec<_> = pips.iter().filter(|p| p.to == dest).take(2).collect();
        assert!(drivers.len() >= 2, "need two drivers for the test");
        for p in &drivers {
            assert!(jb.set_pip(p, true));
        }
        // Give the tile a visible slice so decode keeps it.
        let err = FabricModel::decode(jb.memory()).unwrap_err();
        assert!(matches!(err, DecodeError::Contention { .. }));
    }

    #[test]
    fn contention_names_the_first_contended_wire_in_decode_order() {
        let device = Device::XCV50;
        let mut jb = Jbits::new(device);
        let graph = virtex::RoutingGraph::new(device);
        let pips = graph.tile_pips(TileCoord::new(2, 2));
        // Three destinations, each driven by two enabled PIPs.
        let mut dests = Vec::new();
        for p in &pips {
            let drivers: Vec<_> = pips.iter().filter(|q| q.to == p.to).take(2).collect();
            if dests.len() < 3 && drivers.len() == 2 && !dests.contains(&p.to) {
                for q in drivers {
                    assert!(jb.set_pip(q, true));
                }
                dests.push(p.to);
            }
        }
        assert_eq!(dests.len(), 3);
        let first = pips.iter().find(|p| jb.get_pip(p) == Some(true)).unwrap();
        let expected = DecodeError::Contention {
            wire: first.to.name(),
        };
        for _ in 0..32 {
            assert_eq!(FabricModel::decode(jb.memory()).unwrap_err(), expected);
        }
    }

    #[test]
    fn empty_device_decodes_to_empty_model() {
        let mem = ConfigMemory::new(Device::XCV50);
        let model = FabricModel::decode(&mem).unwrap();
        assert!(model.slices.is_empty());
        assert!(model.iobs.is_empty());
        assert!(model.pips.is_empty());
    }

    #[test]
    fn decode_holds_no_pip_state_and_skips_bits_past_the_last_pip() {
        use jbits::Xhwif;
        let (mem, ..) = build_inverter();
        let model = FabricModel::decode(&mem).unwrap();
        assert!(!model.pips.is_empty());

        // Upset the first window bit past the last PIP of an unused CLB.
        // No resource owns it, so the reference decoder, which reads PIP
        // bits only through `tile_pips`, sees the same model.
        let tile = TileCoord::new(5, 5);
        let layout = Layout::new(Device::XCV50);
        let past = layout.pip_bit(tile, layout.graph().tile_pip_count(tile));
        let mut board = crate::SimBoard::new(Device::XCV50);
        board
            .set_configuration(&bitstream::full_bitstream(&mem))
            .unwrap();
        assert!(board.inject_upset(past.frame, past.bit));
        let upset = board.port().interpreter().memory();
        assert!(layout.tiles_in_use(upset).contains(&tile));
        assert_eq!(board.fabric().unwrap().model(), &model);

        // A decode depends only on the memory it reads: decoding another
        // configuration in between (one driver of every wire a CLB's
        // switch box reaches) changes no later answer.
        let busy_tile = TileCoord::new(2, 2);
        let mut busy = Jbits::new(Device::XCV50);
        let mut driven = std::collections::HashSet::new();
        for pip in layout.graph().tile_pips(busy_tile) {
            if driven.insert(pip.to) {
                assert!(busy.set_pip(&pip, true));
            }
        }
        for _ in 0..3 {
            assert_eq!(FabricModel::decode(upset).unwrap(), model);
            let busy_model = FabricModel::decode(busy.memory()).unwrap();
            assert_eq!(busy_model.pips.len(), driven.len());
            assert_eq!(FabricModel::decode(&mem).unwrap(), model);
        }
    }
}
