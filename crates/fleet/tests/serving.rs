//! End-to-end tests for the fleet service: a real base design, real
//! variant catalogues, real partial bitstreams, simulated boards.

use cadflow::gen;
use cadflow::netlist::Netlist;
use fleet::{Fleet, FleetConfig, Request, ServeMode, ServingLibrary};
use jpg::workflow::{build_base, BaseDesign, ModuleSpec};
use std::sync::Arc;
use virtex::Device;
use xdl::Rect;

/// Two full-height regions on an XCV50, two variants each. Small enough
/// that the CAD step stays fast, rich enough to exercise scheduling.
fn fixture() -> (BaseDesign, Vec<(String, Vec<Netlist>)>) {
    let rows = Device::XCV50.geometry().clb_rows as i32 - 1;
    let catalogues = vec![
        (
            "r1/".to_string(),
            vec![gen::counter("up", 3), gen::gray_counter("gray", 3)],
        ),
        (
            "r2/".to_string(),
            vec![gen::down_counter("down", 3), gen::lfsr("lfsr", 3)],
        ),
    ];
    let modules: Vec<ModuleSpec> = vec![
        ModuleSpec {
            prefix: "r1/".into(),
            netlist: catalogues[0].1[0].clone(),
            region: Rect::new(0, 1, rows, 4),
        },
        ModuleSpec {
            prefix: "r2/".into(),
            netlist: catalogues[1].1[0].clone(),
            region: Rect::new(0, 7, rows, 10),
        },
    ];
    let base = build_base("fleet-test", Device::XCV50, &modules, 7).expect("base design");
    (base, catalogues)
}

fn library() -> Arc<ServingLibrary> {
    let (base, catalogues) = fixture();
    Arc::new(ServingLibrary::build(&base, &catalogues, 90).expect("library"))
}

/// Count-up request: enable the counter, reset, step `clocks`.
fn counting_request(id: u64, region: usize, variant: usize, clocks: u64) -> Request {
    let prefix = if region == 0 { "r1/" } else { "r2/" };
    Request {
        id,
        region,
        variant,
        drive: vec![(format!("{prefix}en"), true)],
        reset: true,
        clocks,
    }
}

/// Decode a `q[i]` output bus from a response's pad list.
fn bus_value(outputs: &[(String, bool)], prefix: &str) -> u64 {
    let mut v = 0u64;
    for (name, bit) in outputs {
        if let Some(rest) = name.strip_prefix(prefix) {
            if let Some(i) = rest
                .strip_prefix("q[")
                .and_then(|s| s.strip_suffix(']'))
                .and_then(|s| s.parse::<u32>().ok())
            {
                v |= (*bit as u64) << i;
            }
        }
    }
    v
}

#[test]
fn serves_a_mixed_stream_with_functional_outputs() {
    let lib = library();
    let fleet = Fleet::new(lib.clone(), 2, FleetConfig::default()).expect("fleet");

    // Hit every (region, variant) pair, then revisit the up-counter with
    // a different clock count.
    let requests = vec![
        counting_request(0, 0, 0, 5), // r1 up-counter: 5 → q = 5
        counting_request(1, 0, 1, 1), // r1 gray: 1 → gray(1) = 1
        counting_request(2, 1, 0, 3), // r2 down-counter: 0 - 3 = 5 (mod 8)
        counting_request(3, 1, 1, 0), // r2 lfsr: seed = 1
        counting_request(4, 0, 0, 6), // r1 up-counter again: q = 6
    ];
    let report = fleet.run(requests);
    assert_eq!(report.served, 5);
    assert_eq!(report.failed, 0);
    assert_eq!(
        fleet.metrics().verify_failures.get(),
        0,
        "no faults → no mismatches"
    );
    assert!(report.makespan > std::time::Duration::ZERO);

    let q = |id: usize, prefix: &str| bus_value(&report.responses[id].outputs, prefix);
    assert_eq!(q(0, "r1/"), 5, "up-counter after 5 clocks");
    assert_eq!(q(1, "r1/"), 1, "gray code of 1");
    assert_eq!(q(2, "r2/"), 5, "down-counter wraps to 5");
    assert_eq!(q(3, "r2/"), 1, "lfsr power-on seed");
    assert_eq!(q(4, "r1/"), 6, "up-counter after 6 clocks");

    // Ten store lookups for five requests? No — one per request, four
    // distinct keys, so exactly 4 misses (each generated once).
    assert_eq!(fleet.metrics().store_misses.get(), 4);
    assert_eq!(fleet.metrics().store_hits.get(), 1);
    assert_eq!(lib.store().len(), 4);
}

#[test]
fn resident_variant_is_a_zero_traffic_fast_path() {
    let lib = library();
    let fleet = Fleet::new(lib, 1, FleetConfig::default()).expect("fleet");

    let first = fleet.run(vec![counting_request(0, 0, 1, 2)]);
    assert_eq!(first.served, 1);
    let downloads_after_first = fleet.metrics().downloads.get();
    assert!(downloads_after_first >= 1);

    // Same variant again: nothing touches the port, and the circuit
    // keeps counting from where it was (no reset this time).
    let mut again = counting_request(1, 0, 1, 1);
    again.reset = false;
    let second = fleet.run(vec![again]);
    assert_eq!(second.served, 1);
    let resp = &second.responses[0];
    assert!(
        resp.resident_hit,
        "second request rides the resident variant"
    );
    assert_eq!(resp.attempts, 0);
    assert_eq!(resp.bytes, 0);
    assert_eq!(
        resp.port_time,
        std::time::Duration::ZERO,
        "no port traffic at all on a resident hit"
    );
    assert_eq!(fleet.metrics().downloads.get(), downloads_after_first);
    assert_eq!(fleet.metrics().resident_hits.get(), 1);
    // Gray counter stepped 2 then 1 more: gray(3) = 0b10.
    assert_eq!(bus_value(&resp.outputs, "r1/"), 2);
}

#[test]
fn warm_prefetches_the_whole_catalogue_once() {
    let lib = library();
    assert_eq!(lib.warm().expect("warm"), 4, "2 regions x 2 variants");
    assert_eq!(lib.store().len(), 4);
    // Warming again (same epoch) is a no-op; every entry is a store hit.
    assert_eq!(lib.warm().expect("rewarm"), 0);
    assert_eq!(lib.store().len(), 4);

    // A warmed fleet serves the full mixed stream without a single
    // store miss on the request path.
    let fleet = Fleet::new(lib.clone(), 2, FleetConfig::default()).expect("fleet");
    let requests: Vec<Request> = (0..4)
        .map(|i| counting_request(i, (i % 2) as usize, ((i / 2) % 2) as usize, 1))
        .collect();
    let report = fleet.run(requests);
    assert_eq!(report.served, 4);
    assert_eq!(fleet.metrics().store_misses.get(), 0, "all prefetched");
    assert_eq!(fleet.metrics().store_hits.get(), 4);
}

#[test]
fn store_generates_each_partial_once_across_the_pool() {
    let lib = library();
    let fleet = Fleet::new(lib.clone(), 4, FleetConfig::default()).expect("fleet");

    // Twelve requests, all for the same (region, variant): every board
    // races to resolve it cold, but only one generation may happen.
    let requests: Vec<Request> = (0..12).map(|i| counting_request(i, 1, 1, 1)).collect();
    let report = fleet.run(requests);
    assert_eq!(report.served, 12);
    assert_eq!(fleet.metrics().store_misses.get(), 1, "generated once");
    assert_eq!(fleet.metrics().store_hits.get(), 11);
    assert_eq!(lib.store().len(), 1);
    // Four boards each downloaded it at most... once plus fast paths:
    // at least 8 of the 12 requests must have been resident fast-paths.
    assert!(fleet.metrics().resident_hits.get() >= 8);
}

#[test]
fn injected_port_faults_are_retried_to_full_success() {
    for (rate, seed) in [(0.1, 42), (0.4, 1234)] {
        let lib = library();
        let mut fleet = Fleet::new(lib, 2, FleetConfig::default()).expect("fleet");
        fleet.inject_faults(rate, seed);

        let requests: Vec<Request> = (0..10)
            .map(|i| counting_request(i, (i % 2) as usize, ((i / 2) % 2) as usize, 2))
            .collect();
        let report = fleet.run(requests);
        assert_eq!(
            report.served, 10,
            "every request eventually succeeds at {rate}"
        );
        assert_eq!(report.failed, 0);
        if rate > 0.3 {
            assert!(
                fleet.metrics().retries.get() > 0,
                "a 40% fault rate must force retries"
            );
        }
        // Drop faults surface as port errors; corrupt faults surface as
        // verify mismatches. Every served response must have verified
        // on its final attempt.
        for r in &report.responses {
            assert!(r.error.is_none());
        }
    }
}

#[test]
fn fault_free_boards_never_fail_verification() {
    let lib = library();
    let mut fleet = Fleet::new(lib, 2, FleetConfig::default()).expect("fleet");
    fleet.inject_faults(0.0, 77); // explicit zero rate clears injectors

    let requests: Vec<Request> = (0..8)
        .map(|i| counting_request(i, (i % 2) as usize, ((i / 3) % 2) as usize, 1))
        .collect();
    let report = fleet.run(requests);
    assert_eq!(report.served, 8);
    assert_eq!(fleet.metrics().verify_failures.get(), 0);
    assert_eq!(fleet.metrics().retries.get(), 0);
}

#[test]
fn full_swap_mode_serves_the_same_answers_for_more_bytes() {
    let lib_p = library();
    let lib_f = library();
    let partial = Fleet::new(lib_p, 1, FleetConfig::default()).expect("fleet");
    let full = Fleet::new(
        lib_f,
        1,
        FleetConfig {
            mode: ServeMode::FullSwap,
            ..FleetConfig::default()
        },
    )
    .expect("fleet");

    let stream = || {
        vec![
            counting_request(0, 0, 0, 4),
            counting_request(1, 1, 0, 2),
            counting_request(2, 0, 1, 1),
        ]
    };
    let rp = partial.run(stream());
    let rf = full.run(stream());
    assert_eq!(rp.served, 3);
    assert_eq!(rf.served, 3);
    for (a, b) in rp.responses.iter().zip(&rf.responses) {
        assert_eq!(a.outputs, b.outputs, "mode must not change semantics");
    }
    assert!(
        full.metrics().download_bytes.get() > 2 * partial.metrics().download_bytes.get(),
        "full-bitstream swaps push far more configuration data ({} vs {})",
        full.metrics().download_bytes.get(),
        partial.metrics().download_bytes.get()
    );
    assert!(rf.makespan > rp.makespan, "and take longer on the port");
}

#[test]
fn compressed_wire_serves_the_same_answers_for_fewer_bytes() {
    let lib_p = library();
    let lib_c = library();
    let plain = Fleet::new(lib_p, 1, FleetConfig::default()).expect("fleet");
    let compressed = Fleet::new(
        lib_c,
        1,
        FleetConfig {
            wire: fleet::WireFormat::Compressed,
            ..FleetConfig::default()
        },
    )
    .expect("fleet");

    // First visits download incrementals (base-resident regions, delta
    // sections decode against the boards' own frames); the revisit of
    // (0, 0) after (0, 1) downloads a wholesale.
    let stream = || {
        vec![
            counting_request(0, 0, 0, 4),
            counting_request(1, 1, 0, 2),
            counting_request(2, 0, 1, 1),
            counting_request(3, 0, 0, 2),
        ]
    };
    let rp = plain.run(stream());
    let rc = compressed.run(stream());
    assert_eq!(rp.served, 4);
    assert_eq!(rc.served, 4);
    assert_eq!(rc.failed, 0, "compressed downloads must verify");
    for (a, b) in rp.responses.iter().zip(&rc.responses) {
        assert_eq!(
            a.outputs, b.outputs,
            "wire format must not change semantics"
        );
    }
    assert!(
        compressed.metrics().download_bytes.get() < plain.metrics().download_bytes.get(),
        "containers must be smaller than plain partials ({} vs {})",
        compressed.metrics().download_bytes.get(),
        plain.metrics().download_bytes.get()
    );
    assert!(rc.makespan < rp.makespan, "and cheaper on the port");
    assert_eq!(compressed.metrics().verify_failures.get(), 0);
}

#[test]
fn rebase_bumps_the_epoch_and_regenerates_on_demand() {
    let (base, catalogues) = fixture();
    let lib = Arc::new(ServingLibrary::build(&base, &catalogues, 90).expect("library"));
    let fleet = Fleet::new(lib.clone(), 1, FleetConfig::default()).expect("fleet");

    let r1 = fleet.run(vec![counting_request(0, 0, 1, 1)]);
    assert_eq!(r1.served, 1);
    assert_eq!(lib.epoch(), 0);
    assert_eq!(lib.store().len(), 1);

    // Rebase onto the same image: epoch moves, stored partials drop.
    assert_eq!(lib.rebase(base.memory.clone()), 1);
    assert_eq!(lib.epoch(), 1);
    assert!(lib.store().is_empty(), "old-epoch entries purged");

    // The next request regenerates against the new base and still
    // verifies on a board whose resident content predates the rebase
    // (the image is identical, so the wholesale partial composes).
    let misses_before = fleet.metrics().store_misses.get();
    let r2 = fleet.run(vec![counting_request(1, 0, 1, 1)]);
    assert_eq!(r2.served, 1);
    assert_eq!(fleet.metrics().store_misses.get(), misses_before + 1);
    assert_eq!(lib.store().len(), 1);
}

#[test]
fn bad_requests_fail_cleanly_without_poisoning_the_fleet() {
    let lib = library();
    let fleet = Fleet::new(lib, 1, FleetConfig::default()).expect("fleet");
    let report = fleet.run(vec![
        Request::new(0, 9, 0, 1), // no such region
        Request::new(1, 0, 9, 1), // no such variant
        counting_request(2, 0, 0, 3),
    ]);
    assert_eq!(report.failed, 2);
    assert_eq!(report.served, 1);
    assert!(report.responses[0]
        .error
        .as_deref()
        .unwrap_or("")
        .contains("region"));
    assert!(report.responses[1]
        .error
        .as_deref()
        .unwrap_or("")
        .contains("variant"));
    assert_eq!(bus_value(&report.responses[2].outputs, "r1/"), 3);
}
