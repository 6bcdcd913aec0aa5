//! `SimBoard`'s fabric re-decode reads only the tile columns written
//! since its last successful decode and copies every other tile from the
//! previous model. This test drives one Figure-4 board through every
//! kind of configuration change it meets and, after each step, demands
//! that the board's model equal a whole-device `FabricModel::decode` of
//! its memory, and that its simulation run like a freshly decoded one.
//! It also pins how many tiles the board read over the sequence (a
//! board that re-read the whole device per download reads several times
//! more), and how many settle passes and driver evaluations its
//! simulations ran.
//!
//! The test is alone in its binary, so the process-wide counters it
//! reads move only with its own board.

use cadflow::netlist::Netlist;
use fleet::ServingLibrary;
use jbits::{Layout, Xhwif};
use jpg::workflow::{base_modules, build_base, fig4, FIG4_DEVICE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simboard::{FabricModel, FabricSim, FaultInjector, FaultKind, SimBoard};
use virtex::{ClbResource, IobCoord, LutId, SliceResource};

/// Tiles the board reads over the whole sequence: 604 over 68
/// re-decodes. Re-reading every tile in use at each re-decode reads
/// 1 986.
const TILES_DECODED: u64 = 604;

/// Settle passes over the whole sequence, which running every driver on
/// every pass gives too: a settle that skips drivers must not move it.
const SETTLE_PASSES: u64 = 13_376;

/// Drivers the settles evaluate over the whole sequence. Running every
/// driver on every pass of the same settles evaluates 2 659 761.
const SETTLE_EVALS: u64 = 71_097;

/// The board's fabric against a fresh decode of its memory: the same
/// model, and the same pads and flip-flops when both simulations start
/// from the board's flip-flop state, take the same seeded pad drives
/// and run 1 to 5 clocks.
fn check(board: &SimBoard, rng: &mut StdRng, what: &str) {
    let mem = board.port().interpreter().memory();
    let live = board.fabric().expect("the board is configured");
    let model = FabricModel::decode(mem).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(live.model(), &model, "{what}: model");

    let mut fresh = FabricSim::new(model.clone()).unwrap();
    fresh.carry_state_from(live);
    let mut live = live.clone();
    for io in model.iobs.iter().filter(|io| io.inbuf) {
        let v = rng.gen_bool(0.5);
        live.set_pad(io.tile, io.pad, v);
        fresh.set_pad(io.tile, io.pad, v);
    }
    let same = |a: &FabricSim, b: &FabricSim, step: usize| {
        for io in model.iobs.iter().filter(|io| io.outbuf) {
            let (x, y) = (a.get_pad(io.tile, io.pad), b.get_pad(io.tile, io.pad));
            assert_eq!(x, y, "{what}, clock {step}: pad {}/{}", io.tile, io.pad);
        }
        assert_eq!(a.ff_states(), b.ff_states(), "{what}, clock {step}: FFs");
    };
    live.settle().unwrap();
    fresh.settle().unwrap();
    same(&live, &fresh, 0);
    for step in 1..=rng.gen_range(1..=5) {
        live.clock().unwrap();
        fresh.clock().unwrap();
        same(&live, &fresh, step);
    }
}

/// Drive the board's input pads at random and run a few clocks, so the
/// flip-flop state carried into the next re-decode is not all INIT.
fn run(board: &mut SimBoard, rng: &mut StdRng) {
    let pads: Vec<IobCoord> = (board.fabric().unwrap().model().iobs.iter())
        .filter(|io| io.inbuf)
        .map(|io| IobCoord::new(io.tile, io.pad))
        .collect();
    for io in pads {
        board.set_pad(io, rng.gen_bool(0.5));
    }
    board.clock_step(rng.gen_range(1..=5));
}

fn counter(name: &str) -> u64 {
    obs::global().counter(name, &[]).get()
}

/// The sequence's running tallies.
struct Steps {
    layout: Layout,
    rng: StdRng,
    /// Re-decodes the board ran.
    decodes: u64,
    /// Tiles in use summed over those re-decodes: what re-reading the
    /// whole device each time would read.
    whole_device: u64,
}

impl Steps {
    /// Count the re-decode a successful step ran, check the board, then
    /// run it a little.
    fn step(&mut self, board: &mut SimBoard, what: &str) {
        let mem = board.port().interpreter().memory();
        self.whole_device += self.layout.tiles_in_use(mem).len() as u64;
        self.decodes += 1;
        check(board, &mut self.rng, what);
        run(board, &mut self.rng);
    }
}

#[test]
fn redecode_equals_a_whole_device_decode_after_every_step() {
    let regions = fig4();
    let base =
        build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11).expect("Figure-4 base builds");
    let catalogues: Vec<(String, Vec<Netlist>)> = (regions.iter())
        .map(|r| (r.prefix.clone(), r.variants.clone()))
        .collect();
    let library = ServingLibrary::build(&base, &catalogues, 5).expect("library builds");
    assert_eq!(library.warm().expect("every entry generates"), 10);
    let entry = |r: usize, v: usize| library.resolve(r, v).0.expect("warmed entry");

    let mut t = Steps {
        layout: Layout::new(FIG4_DEVICE),
        rng: StdRng::seed_from_u64(26),
        decodes: 0,
        whole_device: 0,
    };
    let mut board = SimBoard::new(FIG4_DEVICE);
    board.set_configuration(&library.base_bitstream()).unwrap();
    t.step(&mut board, "base");

    // Every variant through all four containers. Incremental ones are
    // loaded only while their region holds base content (its first
    // variant), as their contract requires.
    for (r, cat) in library.regions().iter().enumerate() {
        let home = entry(r, 0);
        for v in 0..cat.variants.len() {
            let e = entry(r, v);
            let name = format!("{}{v}", cat.prefix);
            board.set_configuration(&e.incremental).unwrap();
            t.step(&mut board, &format!("{name} incremental"));
            board.set_configuration(&e.wholesale).unwrap();
            t.step(&mut board, &format!("{name} wholesale"));
            board
                .set_configuration_wire(&home.wire_wholesale.bytes)
                .unwrap();
            t.step(&mut board, &format!("{name} home, JWC1 wholesale"));
            board
                .set_configuration_wire(&e.wire_incremental.bytes)
                .unwrap();
            t.step(&mut board, &format!("{name} JWC1 incremental"));
            board
                .set_configuration_wire(&e.wire_wholesale.bytes)
                .unwrap();
            t.step(&mut board, &format!("{name} JWC1 wholesale"));
            board.set_configuration(&home.wholesale).unwrap();
            t.step(&mut board, &format!("{name} home, wholesale"));
        }
    }

    // An upset in a live LUT is accepted, and a second one restores it.
    let s = board.fabric().unwrap().model().slices[0].clone();
    let lut = ClbResource::new(s.slice, SliceResource::Lut(LutId::F));
    let bit = t.layout.clb_resource_bit(s.tile, lut, 0);
    for what in ["LUT upset", "LUT upset undone"] {
        assert!(board.inject_upset(bit.frame, bit.bit), "{what}");
        t.step(&mut board, what);
    }

    // An upset that enables a second driver of a driven wire is
    // rejected and the bit restored.
    let layout = &t.layout;
    let mem = board.port().interpreter().memory().clone();
    let contender = (layout.tiles_in_use(&mem).into_iter())
        .flat_map(|tile| {
            let pips = layout.graph().tile_pips(tile);
            let on = |p: &virtex::Pip| {
                let pos = layout.pip_pos(p).unwrap();
                mem.get_bit(pos.frame, pos.bit)
            };
            let driven: Vec<_> = pips.iter().filter(|p| on(p)).map(|p| p.to).collect();
            pips.into_iter()
                .filter(move |p| driven.contains(&p.to) && !on(p))
                .collect::<Vec<_>>()
        })
        .next()
        .expect("some driven wire has a second possible driver");
    let pos = layout.pip_pos(&contender).unwrap();
    assert!(
        !board.inject_upset(pos.frame, pos.bit),
        "contention is rejected"
    );
    assert_eq!(
        board.port().interpreter().memory(),
        &mem,
        "the bit is restored"
    );
    t.decodes += 1; // the rejected attempt
    t.step(&mut board, "rejected upset");

    // CAPTURE writes flip-flop state into the configuration plane and
    // decodes nothing; the model must still match, and the next load
    // re-reads the captured columns.
    board.capture();
    check(&board, &mut t.rng, "capture");

    // A stream cut inside a payload past its middle fails mid-apply
    // with its first frames written. Those frames stay pending through the next load, which
    // runs under a corrupt fault on another region.
    let (model, mem) = (
        board.fabric().unwrap().model().clone(),
        board.port().interpreter().memory().clone(),
    );
    let words = entry(0, 1).wholesale.words().to_vec();
    let fails = |n: &usize| {
        let mut device = bitstream::Interpreter::with_memory(mem.clone());
        device.feed_words(&words[..*n]).is_err()
    };
    let cut = (words.len() / 2..words.len())
        .find(fails)
        .expect("a cut inside a payload");
    let cut = bitstream::Bitstream::from_words(words[..cut].to_vec());
    assert!(board.set_configuration(&cut).is_err(), "a cut stream fails");
    assert_ne!(
        board.port().interpreter().memory(),
        &mem,
        "frames were written"
    );
    assert_eq!(board.fabric().unwrap().model(), &model, "no re-decode ran");
    let seed = (0..)
        .find(|&s| FaultInjector::new(1.0, s).draw() == FaultKind::Corrupt)
        .unwrap();
    board.set_fault_injector(Some(FaultInjector::new(1.0, seed)));
    board.set_configuration(&entry(2, 1).wholesale).unwrap();
    board.set_fault_injector(None);
    t.step(&mut board, "corrupt load after a failed one");
    for (r, what) in [(0, "region 1 healed"), (2, "region 3 healed")] {
        board.set_configuration(&entry(r, 0).wholesale).unwrap();
        t.step(&mut board, what);
    }

    let tiles = counter("simboard_fabric_tiles_decoded_total");
    assert_eq!(counter("simboard_fabric_decodes_total"), t.decodes);
    assert_eq!(
        tiles, TILES_DECODED,
        "tiles read over {} re-decodes (a whole-device read of each: {})",
        t.decodes, t.whole_device
    );
    let passes = counter("simboard_fabric_settle_passes_total");
    assert_eq!(passes, SETTLE_PASSES, "settle passes over the sequence");
    let evals = counter("simboard_fabric_settle_evals_total");
    assert_eq!(
        evals, SETTLE_EVALS,
        "drivers evaluated over {passes} passes"
    );
}
