//! `FabricSim` against a reference simulator: the original engine, kept
//! here as the oracle. It holds wire values in a `HashMap` and looks
//! every wire up by value on every pass. Both engines run the same
//! seeded pad drives, resets and clock bursts in lockstep; after every
//! step they must agree on every model pad, on the flip-flop states and
//! on the error, if any.

use bitstream::ConfigError;
use jbits::{Jbits, Xhwif};
use jpg::workflow::{
    base_modules, build_base, build_library_pipelined, fig4, RegionCatalogue, RegionSpec,
    FIG4_DEVICE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simboard::fabric::{DecodedIob, DecodedSlice};
use simboard::{DecodeError, FabricModel, FabricSim, SimBoard};
use std::collections::{HashMap, VecDeque};
use virtex::{
    ClbResource, ConfigMemory, Device, Dir, IobCoord, IobResource, LutId, MuxSetting, Pip,
    ResourceValue, RoutingGraph, SliceId, SlicePin, SliceResource, TileCoord, Wire, WireKind,
};

/// The original settle engine: wire values in a `HashMap`, pad drives by
/// `(tile, pad)`, each pass collecting its writes into fresh vectors.
#[derive(Debug)]
struct Oracle {
    model: FabricModel,
    pad_in: HashMap<(TileCoord, u8), bool>,
    ff: Vec<(bool, bool)>,
    values: HashMap<Wire, bool>,
}

impl Oracle {
    fn new(model: FabricModel) -> Result<Oracle, DecodeError> {
        let ff = model.slices.iter().map(|s| (s.init_x, s.init_y)).collect();
        let mut sim = Oracle {
            model,
            pad_in: HashMap::new(),
            ff,
            values: HashMap::new(),
        };
        sim.settle()?;
        Ok(sim)
    }

    fn set_pad(&mut self, tile: TileCoord, pad: u8, value: bool) {
        self.pad_in.insert((tile, pad), value);
    }

    fn get_pad(&self, tile: TileCoord, pad: u8) -> bool {
        self.wire(&Wire::new(tile, WireKind::PadOut(pad)))
    }

    fn wire(&self, w: &Wire) -> bool {
        self.values.get(w).copied().unwrap_or(false)
    }

    fn pin(&self, s: &DecodedSlice, pin: SlicePin) -> bool {
        self.wire(&Wire::new(
            s.tile,
            WireKind::SlicePin {
                slice: s.slice,
                pin,
            },
        ))
    }

    fn lut_out(&self, s: &DecodedSlice, g: bool) -> bool {
        let pins = if g {
            [SlicePin::G1, SlicePin::G2, SlicePin::G3, SlicePin::G4]
        } else {
            [SlicePin::F1, SlicePin::F2, SlicePin::F3, SlicePin::F4]
        };
        let mut idx = 0usize;
        for (i, p) in pins.iter().enumerate() {
            if self.pin(s, *p) {
                idx |= 1 << i;
            }
        }
        let table = if g { s.lut_g } else { s.lut_f };
        (table >> idx) & 1 == 1
    }

    fn settle(&mut self) -> Result<(), DecodeError> {
        let max_passes = self.model.pips.len() + self.model.slices.len() + 2;
        for _ in 0..max_passes {
            let mut changed = false;
            let set = |values: &mut HashMap<Wire, bool>, w: Wire, v: bool| {
                if values.get(&w).copied().unwrap_or(false) != v {
                    values.insert(w, v);
                    true
                } else {
                    false
                }
            };
            for iob in &self.model.iobs {
                if iob.inbuf {
                    let v = self
                        .pad_in
                        .get(&(iob.tile, iob.pad))
                        .copied()
                        .unwrap_or(false);
                    let w = Wire::new(iob.tile, WireKind::PadIn(iob.pad));
                    changed |= set(&mut self.values, w, v);
                }
            }
            let mut outs = Vec::new();
            for (i, s) in self.model.slices.iter().enumerate() {
                let mk = |pin| {
                    Wire::new(
                        s.tile,
                        WireKind::SlicePin {
                            slice: s.slice,
                            pin,
                        },
                    )
                };
                if s.x_on {
                    outs.push((mk(SlicePin::X), self.lut_out(s, false)));
                }
                if s.y_on {
                    outs.push((mk(SlicePin::Y), self.lut_out(s, true)));
                }
                if s.ffx {
                    outs.push((mk(SlicePin::XQ), self.ff[i].0));
                }
                if s.ffy {
                    outs.push((mk(SlicePin::YQ), self.ff[i].1));
                }
            }
            for (w, v) in outs {
                changed |= set(&mut self.values, w, v);
            }
            let moves: Vec<(Wire, bool)> = (self.model.pips.iter())
                .map(|(from, to)| (*to, self.wire(from)))
                .collect();
            for (w, v) in moves {
                changed |= set(&mut self.values, w, v);
            }
            if !changed {
                return Ok(());
            }
        }
        Err(DecodeError::Oscillation)
    }

    fn clock(&mut self) -> Result<(), DecodeError> {
        self.settle()?;
        let next: Vec<(usize, bool, bool)> = (self.model.slices.iter().enumerate())
            .filter(|(_, s)| s.clocked && (s.ffx || s.ffy))
            .map(|(i, s)| {
                let en = match s.ce {
                    MuxSetting::Primary => self.pin(s, SlicePin::CE),
                    _ => true,
                };
                let dx = if s.dx_bypass {
                    self.pin(s, SlicePin::BX)
                } else {
                    self.lut_out(s, false)
                };
                let dy = if s.dy_bypass {
                    self.pin(s, SlicePin::BY)
                } else {
                    self.lut_out(s, true)
                };
                let (cx, cy) = self.ff[i];
                (
                    i,
                    if en && s.ffx { dx } else { cx },
                    if en && s.ffy { dy } else { cy },
                )
            })
            .collect();
        for (i, x, y) in next {
            self.ff[i] = (x, y);
        }
        self.settle()
    }

    fn run(&mut self, n: usize) -> Result<(), DecodeError> {
        (0..n).try_for_each(|_| self.clock())
    }

    fn ff_states(&self) -> Vec<(TileCoord, SliceId, bool, bool)> {
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

    fn reset(&mut self) {
        for (i, s) in self.model.slices.iter().enumerate() {
            self.ff[i] = (s.init_x, s.init_y);
        }
        let _ = self.settle();
    }
}

fn assert_same_state(sim: &FabricSim, oracle: &Oracle, what: &str) {
    for io in &oracle.model.iobs {
        let (got, want) = (
            sim.get_pad(io.tile, io.pad),
            oracle.get_pad(io.tile, io.pad),
        );
        assert_eq!(got, want, "{what}: pad {}.{} diverges", io.tile, io.pad);
    }
    assert_eq!(
        sim.ff_states(),
        oracle.ff_states(),
        "{what}: flip-flops diverge"
    );
}

/// Start both engines on `model` and run `steps` seeded steps in
/// lockstep: a pad drive and settle, a reset, or 1–5 clocks. Returns
/// how many steps ended in an error on both engines.
fn lockstep(model: &FabricModel, seed: u64, steps: usize, what: &str) -> usize {
    let (mut sim, mut oracle) = match (FabricSim::new(model.clone()), Oracle::new(model.clone())) {
        (Ok(sim), Ok(oracle)) => (sim, oracle),
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{what}: start-up errors diverge");
            return 1;
        }
        (got, want) => panic!(
            "{what}: start-up diverges: {:?} vs {:?}",
            got.err(),
            want.err()
        ),
    };
    assert_same_state(&sim, &oracle, what);
    let pads: Vec<(TileCoord, u8)> = model.iobs.iter().map(|io| (io.tile, io.pad)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut errors = 0;
    for step in 0..steps {
        let (got, want) = match rng.gen_range(0..4u32) {
            0 | 1 if !pads.is_empty() => {
                let (tile, pad) = pads[rng.gen_range(0..pads.len())];
                let value = rng.gen_bool(0.5);
                sim.set_pad(tile, pad, value);
                oracle.set_pad(tile, pad, value);
                (sim.settle(), oracle.settle())
            }
            2 => {
                sim.reset();
                oracle.reset();
                (Ok(()), Ok(()))
            }
            _ => {
                let n = rng.gen_range(1..=5usize);
                (sim.run(n), oracle.run(n))
            }
        };
        let what = format!("{what}, step {step}");
        assert_eq!(got, want, "{what}: errors diverge");
        errors += usize::from(got.is_err());
        assert_same_state(&sim, &oracle, &what);
    }
    errors
}

#[test]
fn fig4_base_and_every_variant_settle_like_the_oracle() {
    let regions = fig4();
    let base =
        build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11).expect("Figure-4 base builds");
    let cats: Vec<RegionCatalogue<'_>> = regions.iter().map(RegionSpec::catalogue).collect();
    let library = build_library_pipelined(&base, &cats, 5, false).expect("library builds");

    let mut board = SimBoard::new(FIG4_DEVICE);
    board.set_configuration(&base.bitstream.bitstream).unwrap();
    let model = board.fabric().unwrap().model().clone();
    assert!(model.slices.iter().any(|s| s.clocked) && model.iobs.iter().any(|io| io.inbuf));
    lockstep(&model, 0, 60, "Figure-4 base");
    for (k, (prefix, name, partial)) in library.iter().enumerate() {
        board.set_configuration(&partial.bitstream).unwrap();
        let model = board.fabric().unwrap().model().clone();
        lockstep(&model, 1 + k as u64, 60, &format!("{prefix}{name}"));
    }
}

/// A seeded random circuit on `device`: a 3 × 3 block of CLBs under the
/// top pad ring. Every slice gets random LUTs, output muxes, flip-flops
/// and clock enables plus a global clock tap, every ring pad random
/// buffers, and every slice output and input pad two random walks of up
/// to six PIPs inside the block, which never drive a wire twice.
fn random_circuit(device: Device, seed: u64) -> ConfigMemory {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = RoutingGraph::new(device);
    let mut jb = Jbits::new(device);
    let col = rng.gen_range(0..device.geometry().clb_cols as i32 - 3);
    let in_block = |t: TileCoord| (-1..3).contains(&t.row) && (col..col + 3).contains(&t.col);
    let mut driven = HashMap::new();
    let mut sources = Vec::new();
    let bit = |rng: &mut StdRng| ResourceValue::bit(rng.gen_bool(0.5));
    for tile in (-1..3).flat_map(|row| (col..col + 3).map(move |col| TileCoord::new(row, col))) {
        if tile.row < 0 {
            for pad in 0..virtex::routing::PADS_PER_IOB as u8 {
                jb.set_iob(tile, pad, IobResource::InputEnable, bit(&mut rng));
                jb.set_iob(tile, pad, IobResource::OutputEnable, bit(&mut rng));
                sources.push(Wire::new(tile, WireKind::PadIn(pad)));
            }
            continue;
        }
        for slice in SliceId::ALL {
            use SliceResource::*;
            for res in [FfX, FfY, InitX, InitY, DxMux, DyMux] {
                jb.set(tile, ClbResource::new(slice, res), bit(&mut rng));
            }
            for res in [FxMux, GyMux, CeMux] {
                // Mostly `Primary`: LUT-driven outputs, so that LUTs
                // form loops, and CE-pin clock enables.
                let lut = rng.gen_bool(0.75).then_some(MuxSetting::Primary.encode());
                let mux = ResourceValue::new(lut.unwrap_or(rng.gen_range(0..4)), 2);
                jb.set(tile, ClbResource::new(slice, res), mux);
            }
            jb.set_lut(tile, slice, LutId::F, rng.gen_range(0..=u16::MAX));
            jb.set_lut(tile, slice, LutId::G, rng.gen_range(0..=u16::MAX));
            let pin = |pin| Wire::new(tile, WireKind::SlicePin { slice, pin });
            let clk = (0..virtex::routing::GLOBAL_CLOCKS as u8)
                .find_map(|k| graph.find_pip(graph.global_clock(k), pin(SlicePin::Clk)));
            connect(
                &mut jb,
                &mut driven,
                &[clk.expect("every slice has a clock tap")],
            );
            sources.extend([SlicePin::X, SlicePin::Y, SlicePin::XQ, SlicePin::YQ].map(pin));
        }
    }
    let mut hops = Vec::new();
    for &source in sources.iter().flat_map(|s| [s, s]) {
        let mut at = source;
        for _ in 0..6 {
            hops.clear();
            graph.downhill(at, &mut hops);
            hops.retain(|p| in_block(p.loc) && driven.get(&p.to).is_none_or(|&d| d == p.from));
            let Some(&pip) = hops.get(rng.gen_range(0..hops.len().max(1))) else {
                break;
            };
            connect(&mut jb, &mut driven, &[pip]);
            at = pip.to;
        }
    }
    jb.into_memory()
}

#[test]
fn seeded_circuits_under_campaigns_settle_like_the_oracle_on_every_device() {
    let mut circuits = 0;
    for device in Device::ALL {
        // The first two campaign seeds that land on `device`, each
        // applied over a random circuit drawn from the same seed.
        let campaigns = (0u64..)
            .map(conformance::Campaign::generate)
            .filter(|c| c.device == device)
            .take(2);
        for campaign in campaigns {
            let image = campaign.apply(&random_circuit(device, campaign.seed));
            // A campaign bit may enable a second driver of a wire.
            let Ok(model) = FabricModel::decode(&image) else {
                continue;
            };
            let clocked = model.slices.iter().any(|s| s.clocked && (s.ffx || s.ffy));
            let driven = model.iobs.iter().any(|io| io.inbuf);
            circuits += usize::from(clocked && driven);
            let what = format!("campaign seed {} on {device}", campaign.seed);
            lockstep(&model, campaign.seed, 40, &what);
        }
    }
    assert!(
        circuits >= 9,
        "only {circuits} images hold a clocked, pad-driven circuit"
    );
}

/// Shortest route of at most `max_pips` PIPs from `from` to `to` over
/// OMUX outputs and singles only, driving no wire `driven` already has a
/// different driver for.
fn route(
    graph: &RoutingGraph,
    from: Wire,
    to: Wire,
    max_pips: usize,
    driven: &HashMap<Wire, Wire>,
) -> Option<Vec<Pip>> {
    let mut via: HashMap<Wire, Pip> = HashMap::new();
    let mut queue = VecDeque::from([(from, 0)]);
    let mut out = Vec::new();
    while let Some((w, depth)) = queue.pop_front() {
        if w == to {
            let (mut path, mut at) = (Vec::new(), to);
            while at != from {
                path.push(via[&at]);
                at = via[&at].from;
            }
            path.reverse();
            return Some(path);
        }
        if depth == max_pips {
            continue;
        }
        out.clear();
        graph.downhill(w, &mut out);
        for &pip in &out {
            let free = driven.get(&pip.to).is_none_or(|&d| d == pip.from);
            let local = !matches!(
                pip.to.kind,
                WireKind::Hex { .. } | WireKind::Long { .. } | WireKind::GlobalClock(_)
            );
            if free && local && pip.to != from && !via.contains_key(&pip.to) {
                via.insert(pip.to, pip);
                queue.push_back((pip.to, depth + 1));
            }
        }
    }
    None
}

/// Enable every PIP of `path` and record the wires it drives.
fn connect(jb: &mut Jbits, driven: &mut HashMap<Wire, Wire>, path: &[Pip]) {
    for pip in path {
        assert!(jb.set_pip(pip, true), "{pip} has a bit");
        driven.insert(pip.to, pip.from);
    }
}

/// A LUT in CLB (0, 3) of an XCV50 whose X output feeds its own F1 back
/// through OMUX and singles that bounce around the neighbouring tiles,
/// reads pad 0 of the ring tile above on F2, and drives another pad of
/// that tile. Returns the image, the ring tile, the output pad and the
/// feedback route.
fn looped_lut(table: u16) -> (ConfigMemory, TileCoord, u8, Vec<Pip>) {
    let device = Device::XCV50;
    let graph = RoutingGraph::new(device);
    let (ring, tile) = (TileCoord::new(-1, 3), TileCoord::new(0, 3));
    let pin = |pin| {
        Wire::new(
            tile,
            WireKind::SlicePin {
                slice: SliceId::S0,
                pin,
            },
        )
    };
    let (x, pad_in) = (pin(SlicePin::X), Wire::new(ring, WireKind::PadIn(0)));
    let mut driven = HashMap::new();
    let mut jb = Jbits::new(device);
    let feedback = route(&graph, x, pin(SlicePin::F1), 6, &driven).expect("X reaches F1");
    connect(&mut jb, &mut driven, &feedback);
    let input = route(&graph, pad_in, pin(SlicePin::F2), 6, &driven).expect("pad reaches F2");
    connect(&mut jb, &mut driven, &input);
    let (out, output) = (1..virtex::routing::PADS_PER_IOB as u8)
        .find_map(|p| {
            let to = Wire::new(ring, WireKind::PadOut(p));
            Some((p, route(&graph, x, to, 3, &driven)?))
        })
        .expect("X reaches an output pad of the ring tile");
    connect(&mut jb, &mut driven, &output);
    jb.set_iob(ring, 0, IobResource::InputEnable, ResourceValue::bit(true));
    jb.set_iob(
        ring,
        out,
        IobResource::OutputEnable,
        ResourceValue::bit(true),
    );
    jb.set_lut(tile, SliceId::S0, LutId::F, table);
    jb.set(
        tile,
        ClbResource::new(SliceId::S0, SliceResource::FxMux),
        ResourceValue::new(MuxSetting::Primary.encode(), 2),
    );
    (jb.into_memory(), ring, out, feedback)
}

#[test]
fn a_looped_inverter_oscillates_on_both_engines_and_the_board_rejects_it() {
    // F = NOT A1: X inverts itself through the loop.
    let (mem, ..) = looped_lut(0x5555);
    let model = FabricModel::decode(&mem).expect("the loop decodes");
    assert_eq!(
        FabricSim::new(model.clone()).unwrap_err(),
        DecodeError::Oscillation
    );
    assert_eq!(Oracle::new(model).unwrap_err(), DecodeError::Oscillation);
    let mut board = SimBoard::new(Device::XCV50);
    let err = board
        .set_configuration(&bitstream::full_bitstream(&mem))
        .unwrap_err();
    assert!(
        matches!(err, ConfigError::InvalidConfiguration(_)),
        "{err:?}"
    );
}

#[test]
fn a_looped_or_gate_latches_on_both_engines() {
    // F = A1 OR A2: once pad 0 drives F2 high, the loop holds X high.
    let (mem, ring, out, feedback) = looped_lut(0xEEEE);
    let kinds: Vec<WireKind> = feedback.iter().map(|p| p.to.kind).collect();
    let ring_of_singles = matches!(kinds[..], [WireKind::Omux(_), ref singles @ .., WireKind::SlicePin { .. }]
        if singles.iter().all(|k| matches!(k, WireKind::Single { .. })));
    assert!(
        ring_of_singles,
        "feedback is not X -> OMUX -> singles -> F1: {feedback:?}"
    );
    let model = FabricModel::decode(&mem).expect("the loop decodes");
    let mut sim = FabricSim::new(model.clone()).unwrap();
    let mut oracle = Oracle::new(model).unwrap();
    let mut board = SimBoard::new(Device::XCV50);
    board
        .set_configuration(&bitstream::full_bitstream(&mem))
        .unwrap();
    for (drive, latched) in [(false, false), (true, true), (false, true)] {
        sim.set_pad(ring, 0, drive);
        oracle.set_pad(ring, 0, drive);
        board.set_pad(virtex::IobCoord::new(ring, 0), drive);
        assert_eq!(sim.settle(), Ok(()));
        assert_eq!(oracle.settle(), Ok(()));
        assert_same_state(&sim, &oracle, "latch");
        assert_eq!(sim.get_pad(ring, out), latched);
        assert_eq!(board.get_pad(virtex::IobCoord::new(ring, out)), latched);
    }
}

#[test]
fn a_gated_ring_oscillator_fails_and_recovers_in_lockstep() {
    // F = NOT A1 AND A2: the loop settles while pad 0 holds F2 low and
    // oscillates while it holds F2 high, so both engines must agree on
    // the values a failed settle leaves behind, not just on the error.
    let (mem, ..) = looped_lut(0x4444);
    let model = FabricModel::decode(&mem).expect("the loop decodes");
    let errors = lockstep(&model, 7, 40, "gated ring oscillator");
    assert!(errors > 0 && errors < 40, "{errors} of 40 steps failed");
}

/// A chain of exactly `n` PIPs on one single-line track of `device`,
/// from pad 0 of a top-ring tile to pad 0 of a right-ring tile: down
/// into CLB row 0, then a snake of `rows` rows `width` tiles wide whose
/// last row runs east off the array. Returns the chain and the two ring
/// tiles.
fn pad_chain(device: Device, n: usize) -> (Vec<Pip>, TileCoord, TileCoord) {
    let g = device.geometry();
    let cols = g.clb_cols;
    // A snake of `rows` rows (odd, so the last runs east) from column
    // `col` costs 2 + (rows - 1) * width + cols - col PIPs.
    let (rows, width, col) = (1..g.clb_rows)
        .step_by(2)
        .flat_map(|rows| (1..=cols).map(move |width| (rows, width)))
        .find_map(|(rows, width)| {
            let col = (2 + (rows - 1) * width + cols).checked_sub(n)?;
            (col + width <= cols).then_some((rows, width, col))
        })
        .expect("the array fits the chain");
    let mut dirs = vec![Dir::South];
    for row in 0..rows - 1 {
        let across = if row % 2 == 0 { Dir::East } else { Dir::West };
        dirs.extend(std::iter::repeat_n(across, width - 1));
        dirs.push(Dir::South);
    }
    dirs.extend(std::iter::repeat_n(Dir::East, cols - col));
    let graph = RoutingGraph::new(device);
    let start = TileCoord::new(-1, col as i32);
    let (mut at, mut tile) = (Wire::new(start, WireKind::PadIn(0)), start);
    let mut chain = Vec::with_capacity(n);
    for dir in dirs {
        let next = Wire::new(tile, WireKind::Single { dir, idx: 0 });
        chain.push(graph.find_pip(at, next).expect("the track turns there"));
        let (dr, dc) = dir.delta();
        (at, tile) = (next, TileCoord::new(tile.row + dr, tile.col + dc));
    }
    let out = Wire::new(tile, WireKind::PadOut(0));
    chain.push(graph.find_pip(at, out).expect("the track ends on a pad"));
    assert_eq!(chain.len(), n);
    (chain, start, tile)
}

#[test]
fn a_pad_toggle_down_a_chain_costs_evaluations_linear_in_its_length() {
    let device = Device::XCV300;
    let mut evals = Vec::new();
    for n in [16, 64, 256] {
        let (chain, ring_in, ring_out) = pad_chain(device, n);
        let mut jb = Jbits::new(device);
        connect(&mut jb, &mut HashMap::new(), &chain);
        let on = ResourceValue::bit(true);
        jb.set_iob(ring_in, 0, IobResource::InputEnable, on);
        jb.set_iob(ring_out, 0, IobResource::OutputEnable, on);
        let model = FabricModel::decode(jb.memory()).expect("the chain decodes");
        assert_eq!(model.pips.len(), n);
        lockstep(&model, n as u64, 12, &format!("chain of {n} PIPs"));

        let mut sim = FabricSim::new(model).unwrap();
        let before = sim.work();
        sim.set_pad(ring_in, 0, true);
        sim.settle().unwrap();
        assert!(sim.get_pad(ring_out, 0), "the toggle reaches the end");
        let (passes, toggle_evals) = (
            sim.work().passes - before.passes,
            sim.work().evals - before.evals,
        );
        // One hop per pass and a quiet last pass, as when every driver
        // runs on every pass; only the pad and each PIP run, once each.
        assert_eq!(passes, n as u64 + 1, "chain of {n}");
        assert_eq!(toggle_evals, n as u64 + 1, "chain of {n}");
        evals.push(toggle_evals);
    }
    for pair in evals.windows(2) {
        assert!(pair[1] <= 4 * pair[0] + 4, "evaluations {evals:?}");
    }
}

/// A board that takes a request's pad drives with `set_pads` settles
/// once per batch and lands where a twin driven pad by pad lands: the
/// same outputs and flip-flops after the drives, after a reset and after
/// every clock, in fewer settle passes.
#[test]
fn batched_pad_drives_match_pad_by_pad_drives_in_fewer_passes() {
    let regions = fig4();
    let base =
        build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11).expect("Figure-4 base builds");
    let [mut single, mut batched] = [0, 1].map(|_| {
        let mut board = SimBoard::new(FIG4_DEVICE);
        board.set_configuration(&base.bitstream.bitstream).unwrap();
        board
    });
    let model = single.fabric().unwrap().model().clone();
    let io = |io: &DecodedIob| IobCoord::new(io.tile, io.pad);
    let inputs: Vec<IobCoord> = model.iobs.iter().filter(|i| i.inbuf).map(io).collect();
    let outputs: Vec<IobCoord> = model.iobs.iter().filter(|i| i.outbuf).map(io).collect();
    assert!(inputs.len() > 1, "the base drives more than one pad");
    let same = |a: &SimBoard, b: &SimBoard, what: &str| {
        for &o in &outputs {
            assert_eq!(
                a.get_pad(o),
                b.get_pad(o),
                "{what}: pad {}/{}",
                o.tile,
                o.pad
            );
        }
        let ff = |board: &SimBoard| board.fabric().unwrap().ff_states();
        assert_eq!(ff(a), ff(b), "{what}: FFs");
    };
    let passes = |board: &SimBoard| board.fabric().unwrap().work().passes;

    let mut rng = StdRng::seed_from_u64(28);
    let (mut single_passes, mut batched_passes) = (0, 0);
    for round in 0..24 {
        let drives: Vec<(IobCoord, bool)> =
            (inputs.iter()).map(|&io| (io, rng.gen_bool(0.5))).collect();
        let before = (passes(&single), passes(&batched));
        for &(io, v) in &drives {
            single.set_pad(io, v);
        }
        batched.set_pads(drives.iter().copied());
        single_passes += passes(&single) - before.0;
        batched_passes += passes(&batched) - before.1;
        same(&single, &batched, &format!("round {round}, drives"));
        if rng.gen_bool(0.3) {
            single.reset();
            batched.reset();
            same(&single, &batched, &format!("round {round}, reset"));
        }
        for clock in 0..rng.gen_range(1..=4) {
            single.clock_step(1);
            batched.clock_step(1);
            same(&single, &batched, &format!("round {round}, clock {clock}"));
        }
    }
    assert!(
        batched_passes < single_passes,
        "drives settled in {batched_passes} passes batched, {single_passes} pad by pad"
    );
}
