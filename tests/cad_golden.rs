//! Golden CAD fixture: the placer's and router's outputs and work
//! counters, pinned byte for byte.
//!
//! Each case records an FNV-1a-64 digest of the implemented design's XDL
//! text (which covers every placement and every PIP), the
//! `PlaceReport`, and the `RouteReport` including its expansion and
//! heap-push counters — or the error the flow ended in. The cases are
//! the Figure-4 catalogue through `implement_variant` on the XCV100 and
//! the XCV1000 (full-height regions) at three seeds, and the seeded
//! generator netlists on the XCV50, routed unconstrained, in an
//! 8-column region and in a 2-column first-come-first-served region
//! where some nets cannot all fit. A change to either algorithm, its
//! cost model, its tie-breaks or its RNG draw order shows here even when
//! the routes stay legal.
//!
//! Regenerate deliberately with
//! `BLESS_CAD_GOLDEN=1 cargo test --test cad_golden`.

use cadflow::gen;
use cadflow::map::map_netlist;
use cadflow::pack::pack_with_prefix;
use cadflow::place::{place, PlaceOptions, PlaceReport};
use cadflow::route::{route, RouteOptions, RouteReport};
use cadflow::{FlowError, Netlist};
use jpg::workflow::{build_base, fig4, implement_variant, ModuleSpec, WorkflowError};
use std::fmt::Write;
use virtex::Device;
use xdl::{Constraints, Rect};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/common/cad_golden.txt");

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn place_fields(r: &PlaceReport) -> String {
    format!(
        "place wl={} moves={} accepted={}",
        r.wirelength, r.moves, r.accepted
    )
}

fn route_fields(r: &RouteReport) -> String {
    format!(
        "route iterations={} wl={} pips={} expansions={} pushes={}",
        r.iterations, r.wirelength, r.pips, r.expansions, r.heap_pushes
    )
}

/// The Figure-4 catalogue on `device`, every region full height, each
/// variant re-implemented against the base at `seeds`.
fn fig4_cases(device: Device, seeds: &[u64], out: &mut String) {
    let rows = device.geometry().clb_rows as i32;
    let mut regions = fig4();
    for r in &mut regions {
        r.region = Rect::new(0, r.region.col0, rows - 1, r.region.col1);
    }
    let modules: Vec<ModuleSpec> = regions.iter().map(|r| r.module(0)).collect();
    let base = build_base("fig4", device, &modules, 11).expect("Figure-4 base builds");
    for &seed in seeds {
        for r in &regions {
            for nl in &r.variants {
                let what = format!("fig4 {device:?} seed={seed} {}{}", r.prefix, nl.name);
                let line = match implement_variant(&base, &r.prefix, nl, seed) {
                    Ok(v) => format!(
                        "xdl={:016x} {} {}",
                        fnv1a64(v.xdl.as_bytes()),
                        place_fields(&v.report.place),
                        route_fields(&v.report.route)
                    ),
                    Err(WorkflowError::Flow {
                        error: FlowError::Route(e),
                        ..
                    }) => format!("route error: {e}"),
                    Err(e) => format!("error: {e}"),
                };
                writeln!(out, "{what}: {line}").unwrap();
            }
        }
    }
}

/// The nine generator circuits of the router equivalence sweep.
fn generators() -> Vec<Netlist> {
    vec![
        gen::counter("cnt", 8),
        gen::down_counter("down", 8),
        gen::gray_counter("gray", 8),
        gen::lfsr("lfsr", 8),
        gen::parity("par", 12),
        gen::adder("add", 6),
        gen::string_matcher(
            "match",
            &[true, false, true, true, false, false, true, false],
        ),
        gen::accumulator("acc", 6),
        gen::tmr_counter("tmr", 4),
    ]
}

/// Each generator on the XCV50, placed and routed directly: `cols` is
/// `None` for the whole device, or a full-height column span confining
/// both placement and routing.
fn generator_cases(label: &str, cols: Option<(i32, i32)>, seed: u64, negotiate: bool) -> String {
    let device = Device::XCV50;
    let rows = device.geometry().clb_rows as i32;
    let mut out = String::new();
    for nl in generators() {
        let what = format!("gen {label} seed={seed} {}", nl.name);
        let mut d = pack_with_prefix(&map_netlist(&nl), device, "");
        let mut ucf = String::new();
        let mut opts = RouteOptions {
            seed,
            negotiate,
            ..RouteOptions::default()
        };
        if let Some((c0, c1)) = cols {
            let rect = Rect::new(0, c0, rows - 1, c1);
            ucf = format!(
                "INST \"*\" AREA_GROUP = \"AG\" ;\nAREA_GROUP \"AG\" RANGE = {} ;\n",
                rect.to_range_string()
            );
            opts.region_cols = Some((c0, c1));
            opts.clock_index = Some((seed % 4) as u8);
            if !negotiate {
                opts.max_iterations = 1;
            }
        }
        let cons = Constraints::parse(&ucf).expect("test UCF parses");
        let placed = match place(&mut d, &cons, None, &PlaceOptions { seed, effort: 1.0 }) {
            Ok(r) => r,
            Err(e) => {
                writeln!(out, "{what}: place error: {e}").unwrap();
                continue;
            }
        };
        let line = match route(&mut d, &opts) {
            Ok(r) => format!(
                "xdl={:016x} {} {}",
                fnv1a64(xdl::print(&d).as_bytes()),
                place_fields(&placed),
                route_fields(&r)
            ),
            Err(e) => format!("{} route error: {e}", place_fields(&placed)),
        };
        writeln!(out, "{what}: {line}").unwrap();
    }
    out
}

fn render() -> String {
    let mut out = String::new();
    for device in [Device::XCV100, Device::XCV1000] {
        fig4_cases(device, &[1, 2, 3], &mut out);
    }
    out += &generator_cases("unconstrained", None, 1, true);
    out += &generator_cases("8col", Some((8, 15)), 2, true);
    out += &generator_cases("2col-fcfs", Some((3, 4)), 5, false);
    out
}

#[test]
fn cad_outputs_match_the_golden_fixture() {
    let rendered = render();
    // The sweep covers what it claims: all ten Figure-4 variants at three
    // seeds on two parts, and a congested FCFS failure.
    assert_eq!(
        rendered.lines().filter(|l| l.starts_with("fig4 ")).count(),
        60
    );
    assert!(
        rendered.contains("route error: negotiation failed"),
        "no FCFS case congested"
    );
    if std::env::var_os("BLESS_CAD_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("bless fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing — run with BLESS_CAD_GOLDEN=1 to create it");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {}: CAD output diverged", i + 1);
    }
    assert_eq!(
        rendered, golden,
        "CAD output diverged from the golden fixture; if placement or \
         routing intentionally changed, re-bless with BLESS_CAD_GOLDEN=1"
    );
}
