//! Wire-format conformance smoke runner for CI.
//!
//! Three gates, all deterministic:
//!
//! 1. **Wire trio** — seeds `base..base+cases` each run one
//!    [`conformance::wire_case`]: round-trip byte identity, streaming
//!    device-side apply equivalence (delta sections included), and
//!    typed rejection of corrupted containers. A CI failure reproduces
//!    locally from the printed seed.
//! 2. **Figure-4 compression** — the paper's three-region XCV100
//!    library is built for real, every `(region, variant)` partial is
//!    wire-encoded, and a mixed first-touch + revisit request stream is
//!    served by two identical fleets, one plain and one compressed.
//!    The compressed fleet must produce identical outputs, verify every
//!    download by readback, and push at least 3x fewer bytes on the
//!    wire. The measured ratios are the calibration source for the
//!    model backend's `WireFormat::Compressed` scaling.
//! 3. **Wire determinism** — the model fleet in compressed mode at 10%
//!    port faults runs at 1, 2 and 8 workers; outcomes and event logs
//!    must be byte-identical and every request served.
//!
//! Usage: `wire_smoke [--cases N] [--seed S] [--bench-out PATH]
//!         [--skip-fleet]`

use cadflow::netlist::Netlist;
use conformance::wire_case;
use fleet::sim::{simulate, FleetSimSpec};
use fleet::{Fleet, FleetConfig, Request, ServingLibrary, WireFormat};
use jpg::workflow::{base_modules, build_base, fig4};
use std::fmt::Write as _;
use std::sync::Arc;
use virtex::Device;

struct EntryRatio {
    region: usize,
    variant: usize,
    plain_incremental: usize,
    wire_incremental: usize,
    plain_wholesale: usize,
    wire_wholesale: usize,
}

struct FleetComparison {
    plain_bytes: u64,
    compressed_bytes: u64,
    entries: Vec<EntryRatio>,
}

/// Gate 2: the real Figure-4 library under both wire formats.
fn fig4_gate() -> Result<FleetComparison, u64> {
    let regions = fig4();
    let modules = base_modules(&regions);
    let catalogues: Vec<(String, Vec<Netlist>)> = regions
        .into_iter()
        .map(|r| (r.prefix, r.variants))
        .collect();
    let build_lib = || {
        let base = build_base("fig4", Device::XCV100, &modules, 11).expect("fig4 base design");
        Arc::new(ServingLibrary::build(&base, &catalogues, 90).expect("fig4 library"))
    };
    let lib_plain = build_lib();
    let lib_wire = build_lib();
    let mut failures = 0u64;

    // Per-entry container ratios, off the store after warming.
    lib_wire.warm().expect("warm fig4 library");
    let mut entries = Vec::new();
    for (region, cat) in lib_wire.regions().iter().enumerate() {
        for variant in 0..cat.variants.len() {
            let (stored, _) = lib_wire.resolve(region, variant);
            let s = stored.expect("resolved entry");
            entries.push(EntryRatio {
                region,
                variant,
                plain_incremental: s.incremental.byte_len(),
                wire_incremental: s.wire_incremental.bytes.len(),
                plain_wholesale: s.wholesale.byte_len(),
                wire_wholesale: s.wire_wholesale.bytes.len(),
            });
        }
    }
    for e in &entries {
        // Header-only streams (the base variant's incremental partial
        // is ~64 bytes) are exempt: the container's fixed header can
        // exceed a payload that small, and such streams contribute
        // nothing to wire traffic anyway.
        let inc_bad = e.plain_incremental >= 1_024 && e.wire_incremental >= e.plain_incremental;
        let who_bad = e.plain_wholesale >= 1_024 && e.wire_wholesale >= e.plain_wholesale;
        if inc_bad || who_bad {
            eprintln!(
                "FAIL (fig4): entry ({}, {}) did not compress \
                 (incremental {} -> {}, wholesale {} -> {})",
                e.region,
                e.variant,
                e.plain_incremental,
                e.wire_incremental,
                e.plain_wholesale,
                e.wire_wholesale
            );
            failures += 1;
        }
    }

    // The served workload: first touch of every entry (incremental,
    // base-resident regions), then a second sweep revisiting every
    // entry (wholesale swaps within each region).
    let mut requests = Vec::new();
    let mut id = 0u64;
    for _sweep in 0..2 {
        for (region, cat) in lib_plain.regions().iter().enumerate() {
            for variant in 0..cat.variants.len() {
                requests.push(Request::new(id, region, variant, 1));
                id += 1;
            }
        }
    }
    let serve = |lib: Arc<ServingLibrary>, wire: WireFormat| {
        let f = Fleet::new(
            lib,
            1,
            FleetConfig {
                wire,
                ..FleetConfig::default()
            },
        )
        .expect("fleet");
        let report = f.run(requests.clone());
        let bytes = f.metrics().download_bytes.get();
        (report, bytes)
    };
    let (rp, plain_bytes) = serve(lib_plain, WireFormat::Plain);
    let (rc, compressed_bytes) = serve(lib_wire, WireFormat::Compressed);
    if rp.failed != 0 || rc.failed != 0 {
        eprintln!(
            "FAIL (fig4): {} plain / {} compressed requests failed",
            rp.failed, rc.failed
        );
        failures += 1;
    }
    for (a, b) in rp.responses.iter().zip(&rc.responses) {
        if a.outputs != b.outputs {
            eprintln!(
                "FAIL (fig4): request {} outputs diverge between wire formats",
                a.id
            );
            failures += 1;
        }
    }
    if compressed_bytes * 3 > plain_bytes {
        eprintln!(
            "FAIL (fig4): compressed wire pushed {compressed_bytes} bytes vs \
             {plain_bytes} plain — less than the required 3x reduction"
        );
        failures += 1;
    }
    println!(
        "fig4 gate: {} entries, workload {} -> {} wire bytes ({:.2}x), outputs identical",
        entries.len(),
        plain_bytes,
        compressed_bytes,
        plain_bytes as f64 / compressed_bytes.max(1) as f64
    );
    if failures > 0 {
        return Err(failures);
    }
    Ok(FleetComparison {
        plain_bytes,
        compressed_bytes,
        entries,
    })
}

/// Gate 3: model-fleet determinism in compressed wire mode.
fn determinism_gate(seed: u64) -> (u64, u64, u64) {
    let spec = |workers, wire| FleetSimSpec {
        boards: 48,
        shards: 12,
        workers,
        requests: 2_000,
        regions: 3,
        variants: 5,
        fault_rate: 0.10,
        log_events: true,
        wire,
        seed,
        ..FleetSimSpec::default()
    };
    let mut failures = 0u64;
    let base = simulate(&spec(1, WireFormat::Compressed));
    if base.served != 2_000 {
        eprintln!(
            "FAIL (determinism): {}/2000 served in compressed mode",
            base.served
        );
        failures += 1;
    }
    for workers in [2usize, 8] {
        let other = simulate(&spec(workers, WireFormat::Compressed));
        if other.event_log != base.event_log {
            eprintln!("FAIL (determinism): event log diverged at {workers} workers");
            failures += 1;
        }
        if other.outcomes != base.outcomes {
            eprintln!("FAIL (determinism): outcomes diverged at {workers} workers");
            failures += 1;
        }
    }
    let plain = simulate(&spec(1, WireFormat::Plain));
    if base.download_bytes * 3 > plain.download_bytes {
        eprintln!(
            "FAIL (determinism): modelled compressed traffic {} vs plain {} — \
             model is out of calibration with the 3x gate",
            base.download_bytes, plain.download_bytes
        );
        failures += 1;
    }
    println!(
        "determinism gate: {} served, logs identical at 1/2/8 workers, \
         modelled traffic {} -> {} bytes ({:.2}x)",
        base.served,
        plain.download_bytes,
        base.download_bytes,
        plain.download_bytes as f64 / base.download_bytes.max(1) as f64
    );
    (failures, plain.download_bytes, base.download_bytes)
}

fn render_bench_json(fig4: &FleetComparison, model_plain: u64, model_compressed: u64) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"device\": \"XCV100\",\n  \"entries\": [\n");
    for (i, e) in fig4.entries.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"region\": {}, \"variant\": {}, \
             \"plain_incremental\": {}, \"wire_incremental\": {}, \
             \"ratio_incremental\": {:.2}, \
             \"plain_wholesale\": {}, \"wire_wholesale\": {}, \
             \"ratio_wholesale\": {:.2}}}{}",
            e.region,
            e.variant,
            e.plain_incremental,
            e.wire_incremental,
            e.plain_incremental as f64 / e.wire_incremental.max(1) as f64,
            e.plain_wholesale,
            e.wire_wholesale,
            e.plain_wholesale as f64 / e.wire_wholesale.max(1) as f64,
            if i + 1 == fig4.entries.len() { "" } else { "," }
        );
    }
    let _ = write!(
        s,
        "  ],\n  \"workload\": {{\"plain_bytes\": {}, \"compressed_bytes\": {}, \
         \"ratio\": {:.2}}},\n  \"model\": {{\"plain_bytes\": {}, \
         \"compressed_bytes\": {}, \"ratio\": {:.2}}}\n}}\n",
        fig4.plain_bytes,
        fig4.compressed_bytes,
        fig4.plain_bytes as f64 / fig4.compressed_bytes.max(1) as f64,
        model_plain,
        model_compressed,
        model_plain as f64 / model_compressed.max(1) as f64,
    );
    s
}

fn main() {
    let mut cases: u64 = 800;
    let mut base_seed: u64 = 0;
    let mut bench_out: Option<String> = None;
    let mut skip_fleet = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |k: usize| {
            args.get(k + 1).cloned().unwrap_or_else(|| {
                eprintln!("{} needs an argument", args[k]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--cases" => {
                cases = need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--cases wants a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--seed" => {
                base_seed = need(i).parse().unwrap_or_else(|_| {
                    eprintln!("--seed wants a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--bench-out" => {
                bench_out = Some(need(i));
                i += 2;
            }
            "--skip-fleet" => {
                skip_fleet = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let t0 = std::time::Instant::now();
    let mut failures = 0u64;
    let mut delta_cases = 0u64;
    let mut encoded = 0u64;
    let mut decoded = 0u64;
    let mut devices = std::collections::BTreeMap::new();

    for seed in base_seed..base_seed + cases {
        match wire_case(seed) {
            Ok(o) => {
                delta_cases += u64::from(o.delta);
                encoded += o.encoded_bytes as u64;
                decoded += o.decoded_bytes as u64;
                *devices.entry(format!("{:?}", o.device)).or_insert(0u64) += 1;
            }
            Err(f) => {
                eprintln!("FAIL (wire): {f}");
                failures += 1;
            }
        }
        if failures >= 5 {
            eprintln!("stopping after 5 failures");
            break;
        }
    }
    println!(
        "{cases} wire cases ({delta_cases} delta-coded; {decoded} -> {encoded} \
         bytes across synthetic spans) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    let dev_summary: Vec<String> = devices.iter().map(|(d, n)| format!("{d}:{n}")).collect();
    println!("device mix: {}", dev_summary.join(" "));

    if !skip_fleet {
        let fig4 = match fig4_gate() {
            Ok(f) => Some(f),
            Err(n) => {
                failures += n;
                None
            }
        };
        let (det_failures, model_plain, model_compressed) = determinism_gate(base_seed ^ 0x31BE);
        failures += det_failures;
        if let (Some(fig4), Some(path)) = (&fig4, &bench_out) {
            let json = render_bench_json(fig4, model_plain, model_compressed);
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("FAIL: could not write {path}: {e}");
                failures += 1;
            } else {
                println!("wrote {path}");
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} failure(s)");
        std::process::exit(1);
    }
    println!("all checks passed");
}
