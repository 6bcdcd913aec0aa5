//! Verify-path conformance smoke runner for CI.
//!
//! Three gates, all deterministic:
//!
//! 1. **Verify trio** — seeds `base..base+cases` each run one
//!    [`conformance::verify_case`]: on a real faulted fleet the tiered
//!    digest verify must match the raw readback compare output for
//!    output, catch exactly the same corrupt downloads (digest
//!    mismatches escalate to raw, never fail a request by themselves),
//!    and pull several times fewer readback bytes when clean. A CI
//!    failure reproduces locally from the printed seed.
//! 2. **Figure-4 digest economy** — the paper's three-region library is
//!    built for real on the XCV400 (24-word frames, where raw readback
//!    replies hurt most) and a first-touch + revisit request stream is
//!    served under `Full` and `Adaptive` verify on clean boards. The
//!    adaptive fleet must produce identical outputs, verify every
//!    download on digests alone, and pull at least **10x** fewer
//!    readback bytes across the port — the E17→E18 tail fix.
//! 3. **Verify determinism** — the model fleet under
//!    `VerifyPolicy::Adaptive`, compressed wire and 10% port faults
//!    runs at 1, 2 and 8 workers; outcomes and event logs must be
//!    byte-identical, every request served, and the modelled digest
//!    economy must stay in calibration with the real gate (≥8x).
//!
//! Usage: `verify_smoke [--cases N] [--seed S] [--bench-out PATH]
//!         [--skip-fleet]`

use cadflow::netlist::Netlist;
use conformance::verify_case;
use fleet::sim::{simulate, FleetSimSpec};
use fleet::{Fleet, FleetConfig, Request, ServingLibrary, VerifyPolicy, WireFormat};
use jpg::workflow::{base_modules, build_base, fig4};
use std::fmt::Write as _;
use std::sync::Arc;
use virtex::Device;

struct DigestComparison {
    downloads: u64,
    full_readback: u64,
    adaptive_readback: u64,
    adaptive_digests: u64,
    compressed_download: u64,
    compressed_readback: u64,
}

/// Gate 2: the real Figure-4 library under `Full` and `Adaptive`
/// verify, on the XCV400 rather than the paper's XCV100: its 24-word
/// frames make raw readback replies roughly 12x the size of the
/// per-frame digest rollup the fast path pulls instead.
fn fig4_digest_gate() -> Result<DigestComparison, u64> {
    let regions = fig4();
    let modules = base_modules(&regions);
    let catalogues: Vec<(String, Vec<Netlist>)> = regions
        .into_iter()
        .map(|r| (r.prefix, r.variants))
        .collect();
    let base = build_base("fig4", Device::XCV400, &modules, 11).expect("fig4 base design");
    let lib = Arc::new(ServingLibrary::build(&base, &catalogues, 90).expect("fig4 library"));
    lib.warm().expect("warm fig4 library");
    let mut failures = 0u64;

    // First touch of every entry (incremental loads), then a second
    // sweep revisiting every entry (wholesale swaps within each region)
    // — the same workload the wire gate serves.
    let mut requests = Vec::new();
    let mut id = 0u64;
    for _sweep in 0..2 {
        for (region, cat) in lib.regions().iter().enumerate() {
            for variant in 0..cat.variants.len() {
                requests.push(Request::new(id, region, variant, 1));
                id += 1;
            }
        }
    }
    // The library is read-only after warming: all three fleets share it.
    let serve = |verify: VerifyPolicy, wire: WireFormat| {
        let f = Fleet::new(
            lib.clone(),
            1,
            FleetConfig {
                wire,
                verify,
                ..FleetConfig::default()
            },
        )
        .expect("fleet");
        let report = f.run(requests.clone());
        let m = f.metrics();
        (
            report,
            m.downloads.get(),
            m.download_bytes.get(),
            m.readback_bytes.get(),
            m.verify_digest.get(),
            m.verify_failures.get() + m.verify_escalations.get(),
        )
    };
    let (rf, downloads, _, full_readback, _, _) = serve(VerifyPolicy::Full, WireFormat::Plain);
    let (ra, _, _, adaptive_readback, adaptive_digests, noise) =
        serve(VerifyPolicy::Adaptive, WireFormat::Plain);
    let (rc, _, compressed_download, compressed_readback, _, _) =
        serve(VerifyPolicy::Adaptive, WireFormat::Compressed);

    if rf.failed != 0 || ra.failed != 0 || rc.failed != 0 {
        eprintln!(
            "FAIL (fig4): {} full / {} adaptive / {} compressed requests failed",
            rf.failed, ra.failed, rc.failed
        );
        failures += 1;
    }
    for other in [&ra, &rc] {
        for (a, b) in rf.responses.iter().zip(&other.responses) {
            if a.outputs != b.outputs {
                eprintln!(
                    "FAIL (fig4): request {} outputs diverge between verify policies",
                    a.id
                );
                failures += 1;
            }
        }
    }
    if noise != 0 {
        eprintln!("FAIL (fig4): {noise} verify failures/escalations on clean boards");
        failures += 1;
    }
    if adaptive_digests == 0 {
        eprintln!("FAIL (fig4): digest tier never engaged on the adaptive fleet");
        failures += 1;
    }
    if adaptive_readback * 10 > full_readback {
        eprintln!(
            "FAIL (fig4): adaptive verify pulled {adaptive_readback} readback bytes vs \
             {full_readback} raw — less than the required 10x reduction"
        );
        failures += 1;
    }
    println!(
        "fig4 digest gate: {} downloads, verify readback {} -> {} bytes ({:.2}x), \
         outputs identical",
        downloads,
        full_readback,
        adaptive_readback,
        full_readback as f64 / adaptive_readback.max(1) as f64
    );
    if failures > 0 {
        return Err(failures);
    }
    Ok(DigestComparison {
        downloads,
        full_readback,
        adaptive_readback,
        adaptive_digests,
        compressed_download,
        compressed_readback,
    })
}

/// Gate 3: model-fleet determinism under the adaptive digest tier.
fn determinism_gate(seed: u64) -> (u64, u64, u64) {
    let spec = |workers, verify| FleetSimSpec {
        boards: 48,
        shards: 12,
        workers,
        requests: 2_000,
        regions: 3,
        variants: 5,
        fault_rate: 0.10,
        log_events: true,
        wire: WireFormat::Compressed,
        verify,
        seed,
        ..FleetSimSpec::default()
    };
    let mut failures = 0u64;
    let base = simulate(&spec(1, VerifyPolicy::Adaptive));
    if base.served != 2_000 {
        eprintln!(
            "FAIL (determinism): {}/2000 served under adaptive verify",
            base.served
        );
        failures += 1;
    }
    for workers in [2usize, 8] {
        let other = simulate(&spec(workers, VerifyPolicy::Adaptive));
        if other.event_log != base.event_log {
            eprintln!("FAIL (determinism): event log diverged at {workers} workers");
            failures += 1;
        }
        if other.outcomes != base.outcomes {
            eprintln!("FAIL (determinism): outcomes diverged at {workers} workers");
            failures += 1;
        }
    }
    // Calibration runs at plain wire and zero faults: under
    // `Compressed` the raw reply is already wire-compressed 17-49x,
    // and under faults the adaptive tier legitimately re-verifies
    // retries raw — the digest economy is only visible against the
    // clean plain reply it replaces.
    let plain = |verify| FleetSimSpec {
        wire: WireFormat::Plain,
        fault_rate: 0.0,
        log_events: false,
        ..spec(1, verify)
    };
    let full = simulate(&plain(VerifyPolicy::Full));
    let adaptive = simulate(&plain(VerifyPolicy::Adaptive));
    if adaptive.readback_bytes * 8 > full.readback_bytes {
        eprintln!(
            "FAIL (determinism): modelled adaptive readback {} vs full {} — \
             model is out of calibration with the 10x real gate",
            adaptive.readback_bytes, full.readback_bytes
        );
        failures += 1;
    }
    println!(
        "determinism gate: {} served, logs identical at 1/2/8 workers, \
         modelled plain readback {} -> {} bytes ({:.2}x)",
        base.served,
        full.readback_bytes,
        adaptive.readback_bytes,
        full.readback_bytes as f64 / adaptive.readback_bytes.max(1) as f64
    );
    (failures, full.readback_bytes, adaptive.readback_bytes)
}

fn render_bench_json(fig4: &DigestComparison, model_full: u64, model_adaptive: u64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"device\": \"XCV400\",\n  \"workload\": {{\"downloads\": {}, \
         \"full_readback_bytes\": {}, \"adaptive_readback_bytes\": {}, \
         \"ratio\": {:.2}, \"digest_verifies\": {}}},\n  \
         \"compressed\": {{\"download_bytes\": {}, \"readback_bytes\": {}}},\n  \
         \"model\": {{\"full_readback_bytes\": {}, \"adaptive_readback_bytes\": {}, \
         \"ratio\": {:.2}}}\n}}\n",
        fig4.downloads,
        fig4.full_readback,
        fig4.adaptive_readback,
        fig4.full_readback as f64 / fig4.adaptive_readback.max(1) as f64,
        fig4.adaptive_digests,
        fig4.compressed_download,
        fig4.compressed_readback,
        model_full,
        model_adaptive,
        model_full as f64 / model_adaptive.max(1) as f64,
    );
    s
}

fn main() {
    let mut cases: u64 = 36;
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
    let mut caught = 0u64;
    let mut escalated = 0u64;
    let mut policies = std::collections::BTreeMap::new();

    for seed in base_seed..base_seed + cases {
        match verify_case(seed) {
            Ok(o) => {
                caught += o.corrupts_caught;
                escalated += o.escalations;
                *policies.entry(o.policy).or_insert(0u64) += 1;
            }
            Err(f) => {
                eprintln!("FAIL (verify): {f}");
                failures += 1;
            }
        }
        if failures >= 5 {
            eprintln!("stopping after 5 failures");
            break;
        }
    }
    println!(
        "{cases} verify cases ({caught} corrupt downloads caught, {escalated} digest \
         escalations) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    let mix: Vec<String> = policies.iter().map(|(p, n)| format!("{p}:{n}")).collect();
    println!("policy mix: {}", mix.join(" "));
    if cases >= 9 && (caught == 0 || escalated == 0) {
        eprintln!(
            "FAIL (verify): a full seed grid must both catch corruption and escalate \
             ({caught} caught, {escalated} escalated)"
        );
        failures += 1;
    }

    if !skip_fleet {
        let fig4 = match fig4_digest_gate() {
            Ok(f) => Some(f),
            Err(n) => {
                failures += n;
                None
            }
        };
        let (det_failures, model_full, model_adaptive) = determinism_gate(base_seed ^ 0x5A7E);
        failures += det_failures;
        if let (Some(fig4), Some(path)) = (&fig4, &bench_out) {
            let json = render_bench_json(fig4, model_full, model_adaptive);
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
