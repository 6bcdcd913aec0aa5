//! The paper's quantified claims, asserted (EXPERIMENTS.md E1–E8 and
//! the ablations of DESIGN.md §5).
//!
//! Every figure here is a deterministic count, byte size or modelled
//! port time, so each assert takes an exact value or a tight band: a
//! change that breaks the paper's shape — the 36 vs 1 + 10 economics, a
//! partial at about a third of a complete bitstream, downloads
//! proportional to bytes — fails this suite. Wall-clock claims get a
//! deterministic proxy (E2) or live in the benchmark (`perfbench/`).

use baselines::fullflow::{combinations, full_flow_all_combinations};
use baselines::{diff_bitstreams, extract_partial, ParbitOptions};
use bitstream::{bitgen, Bitstream, FrameRange};
use cadflow::{gen, implement, FlowOptions};
use cadflow::{
    map_netlist, pack_with_prefix, place, route, PlaceOptions, RouteError, RouteOptions,
};
use jbits::{Granularity, Jbits};
use jpg::workflow::{
    base_modules, build_base, build_library_pipelined, fig4, implement_variant, module_constraints,
    BaseDesign, ModuleSpec, RegionSpec, FIG4_DEVICE,
};
use jpg::JpgProject;
use simboard::port::download_time;
use std::sync::OnceLock;
use std::time::Duration;
use virtex::{BlockType, ConfigMemory, Device, LutId, SliceId, TileCoord};
use xdl::{Constraints, Placement, Rect};

/// Bytes of the XCV100's complete bitstream.
const XCV100_COMPLETE: usize = 90_540;
/// Bytes of a JPG partial for an 8-column module in each Figure-4
/// region (the middle region's columns carry fewer configuration bits).
const FIG4_PARTIALS: [usize; 3] = [20_608, 20_108, 20_608];

/// The Figure-4 base design and its ten partials, built once.
struct Fig4 {
    regions: Vec<RegionSpec>,
    base: BaseDesign,
    /// One partial per (region, variant), in catalogue order.
    partials: Vec<Bitstream>,
}

/// `per_region(r)` for every partial of region `r`, in catalogue order.
fn per_partial<T>(lib: &Fig4, per_region: impl Fn(usize) -> T) -> Vec<T> {
    (lib.regions.iter().enumerate())
        .flat_map(|(r, spec)| spec.variants.iter().map(move |_| r))
        .map(per_region)
        .collect()
}

fn fig4_library() -> &'static Fig4 {
    static LIB: OnceLock<Fig4> = OnceLock::new();
    LIB.get_or_init(|| {
        let regions = fig4();
        let base = build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11)
            .expect("Figure-4 base builds");
        let cats: Vec<_> = regions.iter().map(RegionSpec::catalogue).collect();
        let partials = build_library_pipelined(&base, &cats, 11, false)
            .expect("Figure-4 library builds")
            .into_iter()
            .map(|(_, _, p)| p.bitstream)
            .collect();
        Fig4 {
            regions,
            base,
            partials,
        }
    })
}

/// A partial configuring CLB columns `0..cols` of `mem`.
fn column_partial(mem: &ConfigMemory, cols: usize) -> Bitstream {
    let geom = mem.geometry();
    let frames = (0..cols).flat_map(|c| {
        let major = geom.major_for_clb_col(c).expect("CLB column");
        FrameRange::for_column(geom, BlockType::Clb, major)
            .expect("CLB column range")
            .frames()
    });
    bitgen::partial_bitstream(mem, &bitgen::coalesce_frames(frames.collect()))
}

/// E1 (Figure 4, §4.1): 3 × 3 × 4 = 36 complete bitstreams under the
/// conventional flow against 1 complete + 3 + 3 + 4 = 10 partials with
/// JPG, each partial a fifth to a quarter of the complete bitstream, for
/// about 11× less storage.
#[test]
fn fig4_library_is_one_complete_plus_ten_partials() {
    let lib = fig4_library();
    let counts: Vec<usize> = lib.regions.iter().map(|r| r.variants.len()).collect();
    assert_eq!(counts, [3, 3, 4]);
    let conventional = combinations(&counts).len();
    assert_eq!(conventional, 36, "conventional flow");
    assert_eq!(lib.partials.len(), 10, "one partial per module variant");

    let complete = lib.base.bitstream.bitstream.byte_len();
    assert_eq!(complete, XCV100_COMPLETE);
    let sizes: Vec<usize> = lib.partials.iter().map(Bitstream::byte_len).collect();
    assert_eq!(sizes, per_partial(lib, |r| FIG4_PARTIALS[r]));
    let partial_bytes: usize = sizes.iter().sum();
    assert_eq!(partial_bytes, 204_580);
    let mean_share = partial_bytes as f64 / lib.partials.len() as f64 / complete as f64;
    assert!(
        (0.20..=0.25).contains(&mean_share),
        "mean share {mean_share}"
    );
    let storage = (conventional * complete) as f64 / (complete + partial_bytes) as f64;
    assert!((10.5..=11.5).contains(&storage), "storage ratio {storage}");
}

/// E1, conventional side: one combination of the whole-design flow
/// yields exactly one complete bitstream of the XCV100's size.
#[test]
fn conventional_flow_emits_complete_bitstreams() {
    let one_each: Vec<RegionSpec> = fig4()
        .into_iter()
        .map(|r| RegionSpec {
            variants: vec![r.variants[0].clone()],
            ..r
        })
        .collect();
    let stats = full_flow_all_combinations(FIG4_DEVICE, &one_each, 7).expect("full flow");
    assert_eq!(stats.bitstreams, 1);
    assert_eq!(stats.bytes_each, XCV100_COMPLETE);
    assert_eq!(stats.total_bytes, XCV100_COMPLETE);
}

/// Identical 8-column accumulator modules side by side on an XCV200.
fn accumulator_modules(n: usize) -> Vec<ModuleSpec> {
    let rows = Device::XCV200.geometry().clb_rows as i32;
    (0..n)
        .map(|i| {
            let c0 = 1 + i as i32 * 10;
            ModuleSpec {
                prefix: format!("m{i}/"),
                netlist: gen::accumulator(&format!("acc{i}"), 4),
                region: Rect::new(0, c0, rows - 1, c0 + 7),
            }
        })
        .collect()
}

/// E2 (§2.1), deterministic proxy for CAD run time: as the design grows
/// from 1 to 4 regions, whole-design placement work (annealing moves)
/// and netlist size grow with it, while re-implementing one module
/// costs the same however large the rest of the design is.
#[test]
fn module_implementation_work_stays_flat_as_the_design_grows() {
    let mut whole = Vec::new();
    let mut module = Vec::new();
    for n in 1..=4 {
        let base = build_base("pnr", Device::XCV200, &accumulator_modules(n), 3).expect("base");
        let moves: u64 = base.reports.iter().map(|r| r.place.moves).sum();
        let nets: usize = base.reports.iter().map(|r| r.nets).sum();
        whole.push((moves, nets));
        let v = implement_variant(&base, "m0/", &gen::accumulator("alt", 4), 9).expect("variant");
        module.push((v.report.place.moves, v.report.nets));
    }
    // The modules are identical, so whole-design work is exactly
    // linear in their number; guided re-implementation of one module
    // skips most of the annealing even against a one-region design.
    for (n, w) in (1..).zip(&whole) {
        assert_eq!(*w, (n * whole[0].0, n as usize * whole[0].1), "{whole:?}");
    }
    assert!(module.iter().all(|m| *m == module[0]), "{module:?}");
    assert!(
        module[0].0 < whole[0].0 && module[0].1 == whole[0].1,
        "{module:?}"
    );
}

/// E3 (§2.1): downloading a partial is faster in proportion to its
/// bytes. Modelled SelectMAP time is exactly 20 ns per byte (8 bits at
/// 50 MHz), and a third-of-the-device partial loads at least 3× faster
/// than the complete bitstream on every size of part.
#[test]
fn download_time_is_proportional_to_bytes() {
    for (device, complete, third) in [
        (Device::XCV50, 63_956, 17_472),
        (Device::XCV100, XCV100_COMPLETE, 25_744),
        (Device::XCV300, 208_352, 63_104),
        (Device::XCV800, 571_804, 181_728),
    ] {
        let mem = ConfigMemory::new(device);
        let full = bitstream::full_bitstream(&mem).byte_len();
        let part = column_partial(&mem, device.geometry().clb_cols / 3).byte_len();
        assert_eq!((full, part), (complete, third), "{device}");
        for bytes in [full, part] {
            assert_eq!(
                download_time(bytes),
                Duration::from_nanos(20 * bytes as u64)
            );
        }
        let speedup = download_time(full).as_secs_f64() / download_time(part).as_secs_f64();
        assert!(speedup >= 3.0, "{device}: {speedup:.2}x");
    }
    // The Figure-4 module partials are the paper's own downloads.
    let lib = fig4_library();
    let times: Vec<Duration> = lib
        .partials
        .iter()
        .map(|p| download_time(p.byte_len()))
        .collect();
    let want = per_partial(lib, |r| {
        Duration::from_nanos([412_160, 402_160, 412_160][r])
    });
    assert_eq!(times, want);
}

/// E5 (§2.3): from different inputs, JPG (module XDL + UCF) and PARBIT
/// (complete bitstream + options) emit the same partial, and JBitsDiff
/// (two complete bitstreams) finds the same swap as a 66-frame core.
#[test]
fn jpg_and_parbit_emit_the_same_partial() {
    let rows = FIG4_DEVICE.geometry().clb_rows as i32;
    let modules = [ModuleSpec {
        prefix: "mod1/".into(),
        netlist: gen::counter("up", 4),
        region: Rect::new(0, 2, rows - 1, 9),
    }];
    let base = build_base("single", FIG4_DEVICE, &modules, 5).expect("base");
    let variant = implement_variant(&base, "mod1/", &gen::lfsr("lfsr", 4), 6).expect("variant");
    let mut project = JpgProject::open(base.bitstream.clone()).expect("open");
    let jpg_out = project
        .generate_partial(&variant.xdl, &variant.ucf)
        .expect("partial");
    project.write_onto_base(&jpg_out).expect("merge");
    let variant_full = project.base_bitstream().bitstream;

    let opts = ParbitOptions {
        start_col: 2,
        end_col: 9,
        include_iobs: false,
    };
    let parbit_out = extract_partial(FIG4_DEVICE, &variant_full, &opts).expect("extract");
    assert_eq!(jpg_out.bitstream.byte_len(), FIG4_PARTIALS[0]);
    assert_eq!(parbit_out.to_bytes(), jpg_out.bitstream.to_bytes());

    let core =
        diff_bitstreams(FIG4_DEVICE, &base.bitstream.bitstream, &variant_full).expect("diff");
    assert_eq!(core.frame_count(), 66);
}

/// E6 (Figure 1, §3): the host's context switch — swapping region 1 of
/// the Figure-4 design — moves 90 540 B as a full reconfiguration but
/// 20 608 B as a JPG partial, a 4.4× shorter modelled download.
#[test]
fn context_switch_moves_a_partial_not_the_device() {
    let lib = fig4_library();
    let mut project = JpgProject::open(lib.base.bitstream.clone()).expect("open");
    let region1 = &lib.regions[0];
    let variant =
        implement_variant(&lib.base, &region1.prefix, &region1.variants[2], 4).expect("variant");
    let partial = project
        .generate_partial(&variant.xdl, &variant.ucf)
        .expect("partial");
    project.write_onto_base(&partial).expect("merge");
    let full = project.base_bitstream().bitstream.byte_len();
    let part = partial.bitstream.byte_len();
    assert_eq!((full, part), (XCV100_COMPLETE, FIG4_PARTIALS[0]));
    let speedup = download_time(full).as_secs_f64() / download_time(part).as_secs_f64();
    assert!((4.3..=4.5).contains(&speedup), "{speedup:.2}x");
}

/// E8 (derived from §4.1): a partial covering a third of the CLB
/// columns costs 27–33 % of the complete bitstream across the whole
/// family ("about a third"), and a one-column partial 2 240 B on the
/// smallest part to 7 532 B on the largest.
#[test]
fn third_of_the_columns_is_about_a_third_of_the_bitstream() {
    for device in Device::ALL {
        let mem = ConfigMemory::new(device);
        let full = bitstream::full_bitstream(&mem).byte_len();
        let third = column_partial(&mem, device.geometry().clb_cols / 3).byte_len();
        let share = third as f64 / full as f64;
        assert!((0.27..=0.33).contains(&share), "{device}: {share:.3}");
    }
    let one_col = |d| column_partial(&ConfigMemory::new(d), 1).byte_len();
    assert_eq!(one_col(Device::XCV50), 2_240);
    assert_eq!(one_col(Device::XCV1000), 7_532);
}

/// Ablation, partial granularity: a column-granular partial rewrites
/// all 48 frames of every CLB column it touches, a frame-granular one
/// only the frames the edits dirtied.
#[test]
fn column_granular_partials_cost_48_frames_per_column() {
    for cols in [1usize, 2, 4, 8] {
        let mut jb = Jbits::new(FIG4_DEVICE);
        for c in 0..cols {
            let tile = TileCoord::new(3, 1 + c as i32);
            jb.set_lut(tile, SliceId::S0, LutId::F, 0xBEE0 ^ c as u16);
        }
        let column = jb.dirty_frames(Granularity::Column).len();
        let frame = jb.dirty_frames(Granularity::Frame).len();
        assert_eq!(column, 48 * cols);
        assert!(frame < column, "{cols} columns: {frame} frames");
        assert!(
            jb.partial_bitstream(Granularity::Frame).byte_len()
                < jb.partial_bitstream(Granularity::Column).byte_len()
        );
    }
}

/// An accumulator placed into the leftmost `cols` columns of an XCV50.
fn placed_accumulator(cols: i32) -> xdl::Design {
    let mut d = pack_with_prefix(&map_netlist(&gen::accumulator("acc", 6)), Device::XCV50, "");
    let ucf = format!(
        "INST \"*\" AREA_GROUP = \"AG\" ;\nAREA_GROUP \"AG\" RANGE = {} ;\n",
        Rect::new(0, 0, 15, cols - 1).to_range_string()
    );
    let cons = Constraints::parse(&ucf).expect("UCF");
    place(
        &mut d,
        &cons,
        None,
        &PlaceOptions {
            seed: 3,
            effort: 1.0,
        },
    )
    .expect("place");
    d
}

/// Ablation, PathFinder negotiation: as the floorplan shrinks,
/// first-come-first-served routing leaves overused wires where
/// negotiated congestion still converges.
#[test]
fn negotiated_routing_converges_where_fcfs_fails() {
    let fcfs = RouteOptions {
        negotiate: false,
        max_iterations: 1,
        ..RouteOptions::default()
    };
    for cols in [12, 8, 6, 5] {
        let d0 = placed_accumulator(cols);
        let nego = route(&mut d0.clone(), &RouteOptions::default());
        assert!(nego.is_ok(), "{cols} columns: negotiation failed: {nego:?}");
        let first = route(&mut d0.clone(), &fcfs);
        assert!(
            matches!(first, Err(RouteError::Congested { .. })),
            "{cols} columns: FCFS {first:?}"
        );
    }
}

/// Ablation, guided floorplanning: Phase-2 placement guided by the base
/// design puts every pad back on its base site (the hot-swap interface);
/// placing the same variant from scratch keeps none of them.
#[test]
fn guided_placement_keeps_every_pad_on_its_base_site() {
    let rows = FIG4_DEVICE.geometry().clb_rows as i32;
    let region = Rect::new(0, 1, rows - 1, 8);
    let modules = [ModuleSpec {
        prefix: "mod1/".into(),
        netlist: gen::counter("up", 4),
        region,
    }];
    let base = build_base("single", FIG4_DEVICE, &modules, 2).expect("base");
    let cons = module_constraints("mod1/", region);
    let nl = gen::down_counter("down", 4);
    let mut opts = FlowOptions::default();
    opts.route.region_cols = Some((1, 8));
    opts.route.clock_index = Some(0);
    let pads_kept = |guide| {
        let (design, _) = implement(&nl, FIG4_DEVICE, &cons, "mod1/", guide, &opts).expect("flow");
        let kept = design
            .occupied_iobs()
            .filter(|(inst, io)| {
                base.design
                    .instance(&inst.name)
                    .is_some_and(|b| b.placement == Placement::Iob(*io))
            })
            .count();
        (kept, design.occupied_iobs().count())
    };
    let g = pads_kept(Some(&base.design));
    let s = pads_kept(None);
    assert_eq!(g, (6, 6), "guided");
    assert_eq!(s, (0, 6), "from scratch");
}

/// Ablation, logic optimization: the pre-mapping pass (constant folding,
/// CSE, dead-code elimination) never grows the gate count, the LUT count
/// or the critical path.
#[test]
fn optimization_never_grows_gates_luts_or_the_critical_path() {
    for nl in [
        gen::accumulator("acc8", 8),
        gen::adder("add8", 8),
        gen::gray_counter("gray6", 6),
    ] {
        let run = |optimize| {
            let mut opts = FlowOptions {
                optimize,
                ..FlowOptions::default()
            };
            opts.place.seed = 5;
            implement(&nl, FIG4_DEVICE, &Constraints::default(), "", None, &opts)
                .expect("flow")
                .1
        };
        let (raw, opt) = (run(false), run(true));
        let stats = opt.opt.expect("the pass ran");
        let crit = |r: &cadflow::FlowReport| r.timing.as_ref().expect("timing").critical_path_ns;
        assert_eq!(stats.gates_before, nl.gate_count());
        assert!(stats.gates_after <= stats.gates_before, "{}", nl.name);
        assert!(opt.luts <= raw.luts, "{}", nl.name);
        assert!(crit(&opt) <= crit(&raw), "{}", nl.name);
    }
}
