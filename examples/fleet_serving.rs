//! Serving partial reconfigurations from a fleet of simulated boards.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```
//!
//! The paper's Figure-4 library — three regions with 3, 3 and 4
//! interchangeable modules — becomes a *request stream*: "run variant V
//! in region R, step the clock, return the outputs". A [`fleet::Fleet`]
//! drains the stream across a pool of boards, generating each partial
//! bitstream exactly once (content-addressed store), scheduling requests
//! onto the board that has to rewrite the fewest frames, and verifying
//! every download by region-scoped readback. The same service in
//! full-bitstream mode shows what the conventional one-complete-bitstream-
//! per-combination flow would cost in configuration traffic.

use cadflow::netlist::Netlist;
use fleet::{Fleet, FleetConfig, Request, ServeMode, ServingLibrary};
use jpg::workflow::{base_modules, build_base, fig4, BaseDesign, FIG4_DEVICE};
use std::sync::Arc;

/// The serving scenario: a base design, its variant catalogues, and the
/// request mix to drain.
struct Scenario {
    base: BaseDesign,
    catalogues: Vec<(String, Vec<Netlist>)>,
    boards: usize,
    requests: usize,
}

/// The Figure-4 scenario: the base design (first variant each), the
/// variant catalogues, four boards and sixty requests.
fn fig4_scenario() -> Scenario {
    let regions = fig4();
    let base = build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11).expect("base design");
    let catalogues = regions
        .into_iter()
        .map(|r| (r.prefix, r.variants))
        .collect();
    Scenario {
        base,
        catalogues,
        boards: 4,
        requests: 60,
    }
}

/// A deterministic request mix over the library: a hot variant (every
/// third request) amid a round-robin over all (region, variant) pairs.
fn request_mix(scn: &Scenario) -> Vec<Request> {
    let pairs: Vec<(usize, usize)> = scn
        .catalogues
        .iter()
        .enumerate()
        .flat_map(|(r, (_, vs))| (0..vs.len()).map(move |v| (r, v)))
        .collect();
    (0..scn.requests as u64)
        .map(|i| {
            let (region, variant) = if i % 3 == 0 {
                pairs[0] // the hot variant
            } else {
                pairs[(i as usize * 7 + 3) % pairs.len()]
            };
            let prefix = &scn.catalogues[region].0;
            Request {
                id: i,
                region,
                variant,
                drive: vec![(format!("{prefix}en"), true)],
                reset: true,
                clocks: 1 + i % 5,
            }
        })
        .collect()
}

fn run_mode(scn: &Scenario, lib: &Arc<ServingLibrary>, mode: ServeMode) -> (f64, u64, u64) {
    let cfg = FleetConfig {
        mode,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(lib.clone(), scn.boards, cfg).expect("fleet");
    let report = fleet.run(request_mix(scn));
    assert_eq!(report.failed, 0, "fault-free serving must not fail");
    println!(
        "  {:9} mode: {} served in {:?} simulated port time -> {:.0} req/s, {} bytes pushed",
        format!("{mode:?}"),
        report.served,
        report.makespan,
        report.throughput_rps(),
        fleet.metrics().download_bytes.get(),
    );
    (
        report.throughput_rps(),
        fleet.metrics().download_bytes.get(),
        fleet.metrics().verify_failures.get(),
    )
}

fn main() {
    let scn = fig4_scenario();
    let variants: usize = scn.catalogues.iter().map(|(_, v)| v.len()).sum();
    println!(
        "Library: {} regions, {} variants on {} — serving {} requests on {} boards",
        scn.catalogues.len(),
        variants,
        scn.base.memory.device(),
        scn.requests,
        scn.boards,
    );
    let lib = Arc::new(ServingLibrary::build(&scn.base, &scn.catalogues, 90).expect("library"));

    println!("\n== Partial-reconfiguration fleet vs full-bitstream fleet ==");
    let (rps_partial, bytes_partial, vf) = run_mode(&scn, &lib, ServeMode::Partial);
    assert_eq!(vf, 0, "no faults injected, no verify failures");
    let (rps_full, bytes_full, _) = run_mode(&scn, &lib, ServeMode::FullSwap);
    println!(
        "  -> partial serving: {:.2}x the throughput, {:.1}x less configuration traffic",
        rps_partial / rps_full,
        bytes_full as f64 / bytes_partial as f64,
    );

    println!("\n== Same stream with a faulty configuration port (10% fault rate) ==");
    let mut fleet = Fleet::new(lib.clone(), scn.boards, FleetConfig::default()).expect("fleet");
    fleet.inject_faults(0.10, 42);
    let report = fleet.run(request_mix(&scn));
    assert_eq!(
        report.failed, 0,
        "readback-verify + retry must recover every request"
    );
    println!(
        "  {} served, 0 failed; {} retries healed the injected faults",
        report.served,
        fleet.metrics().retries.get(),
    );
    println!("\n{}", fleet.metrics().report());
}
