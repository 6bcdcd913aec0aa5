//! Integration tests for the conformance harness: the fixed seed blocks
//! every check runs over (differential harness and packet fuzz,
//! relocation, wire and verify trios), adversarial schedules pinned by
//! seed search, the project-level generator trio under the board
//! oracle, and the Figure-4 wire and digest economies on real fleets.
//! A failing block names every failing seed; each reproduces alone
//! from its case function.

use cadflow::netlist::Netlist;
use conformance::harness::{run_case, run_project_case, CaseOutcome, Schedule};
use conformance::{fuzz_case, reloc_case, seed_block, verify_case, wire_case, Campaign};
use fleet::{Fleet, FleetConfig, Request, ServingLibrary, VerifyPolicy, WireFormat};
use jpg::workflow::{base_modules, build_base, fig4};
use std::ops::Range;
use std::sync::Arc;
use virtex::{ConfigMemory, Device};

#[test]
fn first_256_seeds_pass_the_differential_harness() {
    for seed in 0..256 {
        run_case(seed).unwrap_or_else(|f| panic!("{f}"));
    }
}

#[test]
fn every_schedule_is_exercised_within_a_seed_block() {
    let mut seen = std::collections::HashSet::new();
    for seed in 0..64 {
        let o = run_case(seed).unwrap_or_else(|f| panic!("{f}"));
        seen.insert(match o.schedule {
            Schedule::Plain => 0,
            Schedule::ReadbackAfterReadback => 1,
            Schedule::InterleavedPartials => 2,
            Schedule::AbortAndRebase => 3,
        });
    }
    assert_eq!(seen.len(), 4, "64 seeds must cover all four schedules");
}

#[test]
fn packet_fuzz_first_128_seeds() {
    for seed in 0..128 {
        fuzz_case(seed).unwrap_or_else(|f| panic!("{f}"));
    }
}

#[test]
fn largest_device_campaigns_hold_up() {
    // XCV1000 is rare in the weighted device mix; force a block of
    // campaigns onto it by scanning seeds.
    let mut ran = 0;
    for seed in 0..2000 {
        if Campaign::generate(seed).device == Device::XCV1000 {
            run_case(seed).unwrap_or_else(|f| panic!("{f}"));
            ran += 1;
            if ran == 5 {
                return;
            }
        }
    }
    panic!("no XCV1000 campaigns in 2000 seeds");
}

#[test]
fn project_generator_trio_agrees_on_the_board_oracle() {
    for seed in 0..3 {
        run_project_case(seed).unwrap_or_else(|f| panic!("{f}"));
    }
}

#[test]
fn campaign_apply_is_pure() {
    // `apply` must not depend on hidden state: applying the same
    // campaign twice over the same base gives identical images and
    // identical dirty sets.
    let c = Campaign::generate(99);
    let base = ConfigMemory::new(c.device);
    let a = c.apply(&base);
    let b = c.apply(&base);
    assert_eq!(a, b);
    assert_eq!(a.dirty_frames(), b.dirty_frames());
}

/// The fuzz block: three seeds in four run a full harness case, the
/// fourth a packet-fuzz case. Returns the harness outcomes. Its project
/// cases (seeds 0..3) and mutation self-check (at least nine of ten
/// seeded bugs caught under seed `0xC0FFEE`) are
/// `project_generator_trio_agrees_on_the_board_oracle` above and the
/// `mutation` module's unit test.
fn fuzz_block(seeds: Range<u64>) -> Vec<CaseOutcome> {
    let outcomes = seed_block(seeds, |seed| {
        if seed % 4 == 3 {
            fuzz_case(seed).map(|_| None)
        } else {
            run_case(seed).map(Some)
        }
    });
    outcomes.into_iter().flatten().collect()
}

#[test]
fn fuzz_block_seeds_0_to_5000() {
    let harness = fuzz_block(0..5_000);
    // The first 96 harness cases already do real work on several devices.
    let first = &harness[..96];
    assert!(first.iter().map(|o| o.frames).sum::<usize>() > 100);
    let devices: std::collections::HashSet<_> = first.iter().map(|o| o.device).collect();
    assert!(devices.len() >= 3, "device mix too narrow: {devices:?}");
}

#[test]
fn fuzz_block_seeds_5000_to_10000() {
    fuzz_block(5_000..10_000);
}

/// The relocation block: byte identity against a fresh-at-target
/// partial, device-side readback against the oracle, typed rejection of
/// incompatible shifts.
fn reloc_block(seeds: Range<u64>) {
    let outcomes = seed_block(seeds, reloc_case);
    assert!(outcomes.iter().all(|o| o.frames > 0));
    assert!(
        outcomes.iter().any(|o| o.bram),
        "BRAM cases must be sampled"
    );
}

#[test]
fn reloc_block_seeds_0_to_600() {
    reloc_block(0..600);
}

#[test]
fn reloc_block_seeds_600_to_1200() {
    reloc_block(600..1_200);
}

/// The wire block: round-trip byte identity, streaming apply equal to
/// the plain feed (delta sections included), typed rejection of a
/// corrupted container.
fn wire_block(seeds: Range<u64>) {
    let outcomes = seed_block(seeds, wire_case);
    for o in &outcomes {
        assert!(o.sections > 0 && o.encoded_bytes > 0 && o.decoded_bytes > 0);
    }
    assert!(
        outcomes.iter().any(|o| o.delta),
        "delta-coded cases must be sampled"
    );
}

#[test]
fn wire_block_seeds_0_to_200() {
    wire_block(0..200);
}

#[test]
fn wire_block_seeds_200_to_400() {
    wire_block(200..400);
}

#[test]
fn wire_block_seeds_400_to_600() {
    wire_block(400..600);
}

#[test]
fn wire_block_seeds_600_to_800() {
    wire_block(600..800);
}

/// The verify block: over the policy × fault grid the tiered digest
/// verify matches the raw compare output for output and catches the
/// same corrupt downloads; across the block corruption is both caught
/// and escalated.
#[test]
fn verify_block_seeds_0_to_36() {
    let outcomes = seed_block(0..36, verify_case);
    let caught: u64 = outcomes.iter().map(|o| o.corrupts_caught).sum();
    let escalated: u64 = outcomes.iter().map(|o| o.escalations).sum();
    assert!(
        caught > 0 && escalated > 0,
        "{caught} corrupt downloads caught, {escalated} escalated"
    );
}

/// Build the paper's Figure-4 library on `device`, warm it, and serve a
/// first touch of every entry then a second sweep revisiting each, on
/// one single-board fleet per config. Every request must succeed, with
/// the same outputs under every config.
fn serve_fig4(device: Device, configs: &[FleetConfig]) -> (Arc<ServingLibrary>, Vec<Fleet>) {
    let regions = fig4();
    let modules = base_modules(&regions);
    let catalogues: Vec<(String, Vec<Netlist>)> = regions
        .into_iter()
        .map(|r| (r.prefix, r.variants))
        .collect();
    let base = build_base("fig4", device, &modules, 11).expect("fig4 base design");
    let lib = Arc::new(ServingLibrary::build(&base, &catalogues, 90).expect("fig4 library"));
    lib.warm().expect("warm fig4 library");
    let mut requests = Vec::new();
    for _sweep in 0..2 {
        for (region, cat) in lib.regions().iter().enumerate() {
            for variant in 0..cat.variants.len() {
                requests.push(Request::new(requests.len() as u64, region, variant, 1));
            }
        }
    }
    let mut expected = None;
    let fleets = configs
        .iter()
        .map(|cfg| {
            let fleet = Fleet::new(lib.clone(), 1, cfg.clone()).expect("fleet");
            let report = fleet.run(requests.clone());
            assert_eq!(report.failed, 0, "requests failed under {cfg:?}");
            let outputs: Vec<_> = report.responses.into_iter().map(|r| r.outputs).collect();
            let expected = expected.get_or_insert_with(|| outputs.clone());
            assert!(*expected == outputs, "outputs diverge under {cfg:?}");
            fleet
        })
        .collect();
    (lib, fleets)
}

/// Figure-4 on the XCV100, plain vs compressed wire: every entry's
/// container is smaller than its partial and the served workload pushes
/// at least 3x fewer bytes. These measured ratios calibrate the model
/// backend's `WireFormat::Compressed` scaling.
#[test]
fn fig4_compressed_wire_pushes_3x_fewer_bytes() {
    let compressed = FleetConfig {
        wire: WireFormat::Compressed,
        ..FleetConfig::default()
    };
    let (lib, fleets) = serve_fig4(Device::XCV100, &[FleetConfig::default(), compressed]);
    // Per entry: plain and wire bytes of the incremental partial, then
    // of the wholesale one.
    let mut entries = Vec::new();
    for (region, cat) in lib.regions().iter().enumerate() {
        for variant in 0..cat.variants.len() {
            let s = lib.resolve(region, variant).0.expect("stored entry");
            let inc = (s.incremental.byte_len(), s.wire_incremental.bytes.len());
            let who = (s.wholesale.byte_len(), s.wire_wholesale.bytes.len());
            // Header-only streams (the base variant's ~64-byte
            // incremental) are exempt: the container's fixed header can
            // exceed a payload that small.
            for (plain, wire) in [inc, who] {
                assert!(
                    plain < 1_024 || wire < plain,
                    "entry ({region}, {variant}) did not compress: {plain} -> {wire}"
                );
            }
            entries.push([inc.0, inc.1, who.0, who.1]);
        }
    }
    assert_eq!(
        entries,
        [
            [64, 108, 20_608, 940],
            [3_372, 1_236, 20_608, 996],
            [4_920, 1_512, 20_608, 1_112],
            [64, 108, 20_108, 448],
            [4_140, 1_344, 20_108, 408],
            [6_848, 1_972, 20_108, 448],
            [64, 108, 20_608, 1_108],
            [4_880, 1_408, 20_608, 1_180],
            [4_464, 1_364, 20_608, 1_124],
            [4_424, 1_300, 20_608, 1_152],
        ]
    );
    let [plain, wire] = [0, 1].map(|i| fleets[i].metrics().download_bytes.get());
    assert!(wire * 3 <= plain, "{plain} -> {wire} wire bytes");
    assert_eq!((plain, wire), (143_448, 6_744));
}

/// Figure-4 on the XCV400, whose 24-word frames make raw readback
/// replies ~12x the per-frame digest rollup: adaptive verify checks
/// every clean download on digests alone and pulls at least 10x fewer
/// readback bytes than the full raw compare.
#[test]
fn fig4_adaptive_verify_pulls_10x_fewer_readback_bytes() {
    let cfg = |verify, wire| FleetConfig {
        verify,
        wire,
        ..FleetConfig::default()
    };
    let (_, fleets) = serve_fig4(
        Device::XCV400,
        &[
            cfg(VerifyPolicy::Full, WireFormat::Plain),
            cfg(VerifyPolicy::Adaptive, WireFormat::Plain),
            cfg(VerifyPolicy::Adaptive, WireFormat::Compressed),
        ],
    );
    let [full, adaptive, compressed] = [0, 1, 2].map(|i| fleets[i].metrics());
    let noise = adaptive.verify_failures.get() + adaptive.verify_escalations.get();
    assert_eq!(noise, 0, "verify failures or escalations on clean boards");
    assert!(
        adaptive.verify_digest.get() > 0,
        "digest tier never engaged"
    );
    let (raw, digest) = (full.readback_bytes.get(), adaptive.readback_bytes.get());
    assert!(digest * 10 <= raw, "{raw} -> {digest} readback bytes");
    assert_eq!(
        (
            full.downloads.get(),
            raw,
            digest,
            adaptive.verify_digest.get()
        ),
        (10, 376_320, 30_800, 10)
    );
    assert_eq!(
        (
            compressed.download_bytes.get(),
            compressed.readback_bytes.get()
        ),
        (7_652, 30_800)
    );
}
