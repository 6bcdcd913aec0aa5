//! End-to-end test of the `jpg-cli` binary: real files in a temp
//! directory, the same way a designer would drive the tool.

use cadflow::gen;
use jpg::workflow::{build_base, implement_variant, ModuleSpec};
use std::path::PathBuf;
use std::process::Command;
use virtex::Device;
use xdl::Rect;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_jpg-cli")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jpg-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn partial_command_end_to_end() {
    let dir = tmpdir("partial");
    // Prepare inputs: base .bit, module .xdl/.ucf.
    let base = build_base(
        "cli_base",
        Device::XCV50,
        &[ModuleSpec {
            prefix: "m/".into(),
            netlist: gen::counter("up", 3),
            region: Rect::new(0, 1, 15, 8),
        }],
        31,
    )
    .unwrap();
    let variant = implement_variant(&base, "m/", &gen::down_counter("down", 3), 32).unwrap();
    let base_path = dir.join("base.bit");
    let xdl_path = dir.join("mod.xdl");
    let ucf_path = dir.join("mod.ucf");
    let out_path = dir.join("partial.bit");
    let merged_path = dir.join("updated.bit");
    std::fs::write(&base_path, base.bitstream.to_bytes()).unwrap();
    std::fs::write(&xdl_path, &variant.xdl).unwrap();
    std::fs::write(&ucf_path, &variant.ucf).unwrap();

    // Run the tool.
    let out = Command::new(bin())
        .args([
            "partial",
            "--base",
            base_path.to_str().unwrap(),
            "--xdl",
            xdl_path.to_str().unwrap(),
            "--ucf",
            ucf_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--merge",
            merged_path.to_str().unwrap(),
            "--floorplan",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "cli failed: {stderr}");
    assert!(stderr.contains("partial:"), "{stderr}");
    assert!(stderr.contains("XCV50"), "floorplan missing: {stderr}");

    // The emitted partial is a valid partial bit file that applies on the
    // base to give exactly the merged file's state.
    let partial = bitstream::BitFile::from_bytes(&std::fs::read(&out_path).unwrap()).unwrap();
    assert!(partial.partial);
    assert_eq!(partial.device, Device::XCV50);
    let merged = bitstream::BitFile::from_bytes(&std::fs::read(&merged_path).unwrap()).unwrap();
    assert!(!merged.partial);

    let mut a = bitstream::Interpreter::new(Device::XCV50);
    a.feed(&base.bitstream.bitstream).unwrap();
    a.feed(&partial.bitstream).unwrap();
    let mut b = bitstream::Interpreter::new(Device::XCV50);
    b.feed(&merged.bitstream).unwrap();
    assert_eq!(a.memory(), b.memory());

    // `info` describes the outputs.
    let out = Command::new(bin())
        .args(["info", out_path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("partial"), "{stdout}");
    assert!(stdout.contains("XCV50"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_command_prints_all_formats_and_passes_schema_check() {
    // The smoke workload keeps this affordable in a debug binary; the
    // fig4 workload is exercised in CI against the release binary.
    let table = Command::new(bin())
        .args(["report", "--workload", "smoke", "--check-schema"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&table.stderr);
    assert!(table.status.success(), "report failed: {stderr}");
    let stdout = String::from_utf8_lossy(&table.stdout);
    for stage in [
        "parse",
        "translate",
        "diff",
        "generate",
        "download",
        "verify",
    ] {
        assert!(stdout.contains(stage), "stage {stage} missing:\n{stdout}");
    }
    assert!(stdout.contains("0 verify failures"), "{stdout}");
    assert!(
        stderr.contains(&format!(
            "all {} required metrics present",
            jpg::report::REQUIRED_METRICS.len()
        )),
        "{stderr}"
    );

    let json = Command::new(bin())
        .args(["report", "--workload", "smoke", "--format", "json"])
        .output()
        .unwrap();
    assert!(json.status.success());
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.starts_with("{\"workload\":\"smoke\""), "{stdout}");
    for name in jpg::report::REQUIRED_METRICS {
        assert!(
            stdout.contains(&format!("\"name\":\"{name}\"")),
            "metric {name} missing from JSON:\n{stdout}"
        );
    }

    let prom = Command::new(bin())
        .args(["report", "--workload", "smoke", "--format", "prometheus"])
        .output()
        .unwrap();
    assert!(prom.status.success());
    let stdout = String::from_utf8_lossy(&prom.stdout);
    assert!(
        stdout.contains("# TYPE bitgen_bytes_total counter"),
        "{stdout}"
    );
    assert!(stdout.contains("interp_packets_total "), "{stdout}");

    // The JSONL dump is an `obs::trace` dump: it parses strictly, and
    // `jpg-cli trace` breaks it down into every pipeline stage.
    let jsonl = Command::new(bin())
        .args(["report", "--workload", "smoke", "--format", "jsonl"])
        .output()
        .unwrap();
    assert!(jsonl.status.success());
    let stdout = String::from_utf8_lossy(&jsonl.stdout);
    let spans = obs::trace::parse_jsonl_strict(&stdout).expect("report jsonl parses");
    assert!(spans.len() > 5, "{stdout}");
    let dir = tmpdir("report-jsonl");
    let dump = dir.join("report.jsonl");
    std::fs::write(&dump, stdout.as_bytes()).unwrap();
    let traced = Command::new(bin())
        .args(["trace", dump.to_str().unwrap()])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&traced.stdout);
    assert!(traced.status.success(), "{table}");
    for stage in jpg::report::STAGE_ORDER {
        assert!(
            table
                .lines()
                .any(|l| l.split_whitespace().next() == Some(stage)),
            "stage {stage} missing from the trace breakdown:\n{table}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // --repeat N aggregates stage medians over N runs.
    let repeated = Command::new(bin())
        .args([
            "report",
            "--workload",
            "smoke",
            "--format",
            "json",
            "--repeat",
            "3",
        ])
        .output()
        .unwrap();
    assert!(repeated.status.success());
    let stdout = String::from_utf8_lossy(&repeated.stdout);
    assert!(stdout.contains("\"repeats\":3"), "{stdout}");
    let repeated = Command::new(bin())
        .args(["report", "--workload", "smoke", "--repeat", "2"])
        .output()
        .unwrap();
    assert!(repeated.status.success());
    let stdout = String::from_utf8_lossy(&repeated.stdout);
    assert!(stdout.contains("medians over 2 runs"), "{stdout}");

    // Bad arguments are rejected.
    let bad = Command::new(bin())
        .args(["report", "--workload", "nope"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let bad = Command::new(bin())
        .args(["report", "--format", "xml"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let bad = Command::new(bin())
        .args(["report", "--repeat", "0"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn cli_rejects_bad_inputs() {
    let dir = tmpdir("bad");
    // Missing args.
    let out = Command::new(bin()).arg("partial").output().unwrap();
    assert!(!out.status.success());
    // Unknown subcommand.
    let out = Command::new(bin()).arg("bogus").output().unwrap();
    assert!(!out.status.success());
    // info on garbage.
    let junk = dir.join("junk.bit");
    std::fs::write(&junk, b"not a bit file").unwrap();
    let out = Command::new(bin())
        .args(["info", junk.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // partial with a partial as base.
    let partial_as_base = dir.join("p.bit");
    let bf = bitstream::BitFile::new(
        "p",
        Device::XCV50,
        true,
        bitstream::Bitstream::from_words(vec![]),
    );
    std::fs::write(&partial_as_base, bf.to_bytes()).unwrap();
    let out = Command::new(bin())
        .args([
            "partial",
            "--base",
            partial_as_base.to_str().unwrap(),
            "--xdl",
            "x",
            "--ucf",
            "y",
            "--out",
            "z",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("complete"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn relocate_command_moves_a_partial_end_to_end() {
    use bitstream::bitgen::{self, FrameRange};
    use virtex::{BlockType, ConfigMemory};

    let dir = tmpdir("relocate");
    let device = Device::XCV50;
    // Stamp a relative pattern into a column span and write it as a
    // partial .bit file (the same shape `jpg-cli partial` emits).
    let stamp = |cols: &[usize]| {
        let mut mem = ConfigMemory::new(device);
        let geom = mem.geometry().clone();
        for (rel, &c) in cols.iter().enumerate() {
            let major = geom.major_for_clb_col(c).unwrap();
            let r = FrameRange::for_column(&geom, BlockType::Clb, major).unwrap();
            for (minor, f) in r.frames().enumerate() {
                mem.frame_mut(f)[0] = 0x8000_0000 | (rel as u32) << 16 | minor as u32;
            }
        }
        let runs = bitgen::coalesce_frames(mem.dirty_frames());
        bitgen::partial_bitstream(&mem, &runs)
    };
    let src = stamp(&[3, 4]);
    let in_path = dir.join("src.bit");
    let out_path = dir.join("moved.bit");
    let bf = bitstream::BitFile::new("span", device, true, src);
    std::fs::write(&in_path, bf.to_bytes()).unwrap();

    let out = Command::new(bin())
        .args([
            "relocate",
            "--in",
            in_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--delta",
            "7",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "relocate failed: {stderr}");
    assert!(stderr.contains("+7 CLB columns"), "{stderr}");

    // The output file is a partial whose payload is byte-identical to a
    // partial freshly stamped at the target columns.
    let moved = bitstream::BitFile::from_bytes(&std::fs::read(&out_path).unwrap()).unwrap();
    assert!(moved.partial);
    assert_eq!(moved.device, device);
    assert_eq!(moved.bitstream.to_bytes(), stamp(&[10, 11]).to_bytes());

    // Incompatible shifts surface the engine's typed error, not a panic
    // and not an output file.
    let bad = Command::new(bin())
        .args([
            "relocate",
            "--in",
            in_path.to_str().unwrap(),
            "--out",
            dir.join("nope.bit").to_str().unwrap(),
            "--delta",
            "30",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("outside the device"), "{stderr}");
    assert!(!dir.join("nope.bit").exists());

    // Relocating a complete bitstream is refused up front.
    let full_path = dir.join("full.bit");
    let full = bitstream::BitFile::new(
        "full",
        device,
        false,
        bitstream::Bitstream::from_words(vec![]),
    );
    std::fs::write(&full_path, full.to_bytes()).unwrap();
    let bad = Command::new(bin())
        .args([
            "relocate",
            "--in",
            full_path.to_str().unwrap(),
            "--out",
            dir.join("x.bit").to_str().unwrap(),
            "--delta",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("partial bitstreams only"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compress_round_trips_a_partial_through_the_wire_container() {
    let dir = tmpdir("compress");
    let base = build_base(
        "wire_base",
        Device::XCV50,
        &[ModuleSpec {
            prefix: "m/".into(),
            netlist: gen::counter("up", 3),
            region: Rect::new(0, 1, 15, 8),
        }],
        41,
    )
    .unwrap();
    let variant = implement_variant(&base, "m/", &gen::gray_counter("gray", 3), 42).unwrap();
    let base_path = dir.join("base.bit");
    let xdl_path = dir.join("mod.xdl");
    let ucf_path = dir.join("mod.ucf");
    let partial_path = dir.join("partial.bit");
    std::fs::write(&base_path, base.bitstream.to_bytes()).unwrap();
    std::fs::write(&xdl_path, &variant.xdl).unwrap();
    std::fs::write(&ucf_path, &variant.ucf).unwrap();
    let out = Command::new(bin())
        .args([
            "partial",
            "--base",
            base_path.to_str().unwrap(),
            "--xdl",
            xdl_path.to_str().unwrap(),
            "--ucf",
            ucf_path.to_str().unwrap(),
            "--out",
            partial_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "partial failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Compress without a base, decompress, and demand byte identity.
    let jwc_path = dir.join("partial.jwc");
    let out = Command::new(bin())
        .args([
            "compress",
            "--in",
            partial_path.to_str().unwrap(),
            "--out",
            jwc_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "compress failed: {stderr}");
    assert!(stderr.contains("compress:"), "{stderr}");
    let plain = std::fs::read(&partial_path).unwrap();
    let packed = std::fs::read(&jwc_path).unwrap();
    let plain_file = bitstream::BitFile::from_bytes(&plain).unwrap();
    assert!(
        packed.len() < plain_file.bitstream.byte_len(),
        "container ({}) must beat the raw payload ({})",
        packed.len(),
        plain_file.bitstream.byte_len()
    );

    let back_path = dir.join("back.bit");
    let out = Command::new(bin())
        .args([
            "decompress",
            "--in",
            jwc_path.to_str().unwrap(),
            "--out",
            back_path.to_str().unwrap(),
            "--design",
            "roundtrip",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decompress failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let back = bitstream::BitFile::from_bytes(&std::fs::read(&back_path).unwrap()).unwrap();
    assert!(back.partial);
    assert_eq!(back.device, Device::XCV50);
    assert_eq!(
        back.bitstream.to_bytes(),
        plain_file.bitstream.to_bytes(),
        "round trip must be byte-identical"
    );

    // With --base the encoder may delta-code; the same base must then
    // be presented on decode, and the round trip still holds.
    let jwc_delta = dir.join("partial-delta.jwc");
    let out = Command::new(bin())
        .args([
            "compress",
            "--in",
            partial_path.to_str().unwrap(),
            "--out",
            jwc_delta.to_str().unwrap(),
            "--base",
            base_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "delta compress failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let back_delta = dir.join("back-delta.bit");
    let out = Command::new(bin())
        .args([
            "decompress",
            "--in",
            jwc_delta.to_str().unwrap(),
            "--out",
            back_delta.to_str().unwrap(),
            "--base",
            base_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "delta decompress failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let back = bitstream::BitFile::from_bytes(&std::fs::read(&back_delta).unwrap()).unwrap();
    assert_eq!(back.bitstream.to_bytes(), plain_file.bitstream.to_bytes());

    // Corrupting the container surfaces a typed wire error, not a panic
    // and not an output file.
    let mut bad = std::fs::read(&jwc_path).unwrap();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    let bad_path = dir.join("bad.jwc");
    std::fs::write(&bad_path, &bad).unwrap();
    let out = Command::new(bin())
        .args([
            "decompress",
            "--in",
            bad_path.to_str().unwrap(),
            "--out",
            dir.join("nope.bit").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    if !out.status.success() {
        assert!(!dir.join("nope.bit").exists());
    } else {
        // A flip in section padding is unchecked; the decode must then
        // still be byte-identical.
        let b =
            bitstream::BitFile::from_bytes(&std::fs::read(dir.join("nope.bit")).unwrap()).unwrap();
        assert_eq!(b.bitstream.to_bytes(), plain_file.bitstream.to_bytes());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_sim_compressed_wire_cuts_download_traffic() {
    let run = |wire: &str| {
        let out = Command::new(bin())
            .args([
                "fleet-sim",
                "--boards",
                "16",
                "--requests",
                "600",
                "--seed",
                "5",
                &format!("--wire={wire}"),
                "--format",
                "json",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "fleet-sim --wire={wire}: {stderr}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let plain = run("plain");
    let compressed = run("compressed");
    assert!(plain.contains("\"wire\":\"plain\""), "{plain}");
    assert!(
        compressed.contains("\"wire\":\"compressed\""),
        "{compressed}"
    );
    let bytes = |j: &str| -> u64 {
        let at = j.find("\"download_bytes\":").unwrap() + "\"download_bytes\":".len();
        j[at..].split(',').next().unwrap().parse().unwrap()
    };
    assert!(
        bytes(&compressed) * 3 <= bytes(&plain),
        "compressed wire must cut modelled traffic at least 3x ({} vs {})",
        bytes(&compressed),
        bytes(&plain)
    );

    let bad = Command::new(bin())
        .args(["fleet-sim", "--wire", "zip"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn fleet_sim_verify_policies_cut_readback_traffic() {
    let run = |verify: &str| {
        let out = Command::new(bin())
            .args([
                "fleet-sim",
                "--boards",
                "16",
                "--requests",
                "600",
                "--seed",
                "5",
                &format!("--verify={verify}"),
                "--format",
                "json",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "fleet-sim --verify={verify}: {stderr}"
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let field = |j: &str, key: &str| -> u64 {
        let pat = format!("\"{key}\":");
        let at = j.find(&pat).unwrap() + pat.len();
        j[at..].split(',').next().unwrap().parse().unwrap()
    };
    let full = run("full");
    let adaptive = run("adaptive");
    assert!(full.contains("\"verify\":\"full\""), "{full}");
    assert!(adaptive.contains("\"verify\":\"adaptive\""), "{adaptive}");
    assert_eq!(field(&adaptive, "verify_failures"), 0);
    assert!(field(&adaptive, "verify_digest") > 0, "{adaptive}");
    assert_eq!(field(&full, "verify_digest"), 0, "{full}");
    // A fault-free run under the digest tier reads back an order of
    // magnitude fewer verify bytes than the raw compare.
    assert!(
        field(&adaptive, "readback_bytes") * 10 <= field(&full, "readback_bytes"),
        "digest verify must cut readback traffic 10x ({} vs {})",
        field(&adaptive, "readback_bytes"),
        field(&full, "readback_bytes")
    );
    // Sampled adds per-frame spot checks on top of the digests.
    let sampled = run("sampled:2");
    assert!(sampled.contains("\"verify\":\"sampled\""), "{sampled}");
    assert!(field(&sampled, "verify_sampled") > 0, "{sampled}");
    assert!(
        field(&sampled, "readback_bytes") > field(&adaptive, "readback_bytes"),
        "sampling must cost more than digests alone"
    );

    // Table output names the policy tiers.
    let out = Command::new(bin())
        .args([
            "fleet-sim",
            "--boards",
            "16",
            "--requests",
            "200",
            "--verify",
            "digest",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("verify   : digest policy:"), "{table}");

    // Bad policies are rejected.
    for bad in ["zip", "sampled", "sampled:x", "sampled:-1", "sampled:0"] {
        let out = Command::new(bin())
            .args(["fleet-sim", "--verify", bad])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--verify={bad} must be rejected");
    }
}

/// Size flags that would empty the key space or size an allocation
/// past memory exit with a one-line error, never a panic or an abort.
#[test]
fn fleet_sim_rejects_empty_and_oversized_fleets() {
    for (args, error) in [
        (
            &["--regions", "0"][..],
            "--regions must be in 1..=256, got 0",
        ),
        (
            &["--variants", "0"],
            "--variants must be in 1..=4096, got 0",
        ),
        (&["--boards", "0"], "--boards must be in 1..=10000, got 0"),
        (
            &["--boards", "1000000000"],
            "--boards must be in 1..=10000, got 1000000000",
        ),
        (
            &["--requests", "1000000000"],
            "--requests must be in 1..=1000000, got 1000000000",
        ),
        (
            &["--regions", "100000", "--variants", "100000"],
            "--regions must be in 1..=256, got 100000",
        ),
        (
            &["--defrag", "--slots", "1000000000"],
            "--slots must be at most 1024, got 1000000000",
        ),
    ] {
        let out = Command::new(bin())
            .arg("fleet-sim")
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_rejects_empty_and_truncated_dumps_with_line_numbers() {
    let dir = tmpdir("trace-errors");

    // An empty dump is a typed error, not a zero-span report.
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let out = Command::new(bin())
        .args(["trace", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "empty dump must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no spans"), "{stderr}");
    assert!(stderr.contains("empty.jsonl"), "{stderr}");

    // A dump cut off mid-write names the offending line.
    let good = "{\"trace\":1,\"parent\":0,\"stage\":\"request\",\"start_ns\":0,\
                \"dur_ns\":10,\"shard\":0,\"seq\":0,\"board\":-1,\"fields\":{}}";
    let truncated = dir.join("truncated.jsonl");
    std::fs::write(&truncated, format!("{good}\n{}", &good[..good.len() / 2])).unwrap();
    let out = Command::new(bin())
        .args(["trace", truncated.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "truncated dump must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("truncated"), "{stderr}");

    // A fields object torn after a multi-byte character is a typed
    // error as well, not a panic.
    let torn = dir.join("torn.jsonl");
    let line = good.replace("\"fields\":{}}", "\"fields\":{\"k\":\"é}");
    std::fs::write(&torn, format!("{good}\n{line}\n")).unwrap();
    let out = Command::new(bin())
        .args(["trace", torn.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "torn dump must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_sim_defrag_compacts_and_stays_deterministic() {
    let run = |workers: &str| {
        let out = Command::new(bin())
            .args([
                "fleet-sim",
                "--boards",
                "16",
                "--requests",
                "800",
                "--seed",
                "21",
                "--fault-rate",
                "0.1",
                "--defrag",
                "--workers",
                workers,
                "--format",
                "json",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "fleet-sim --defrag failed: {stderr}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let one = run("1");
    assert!(one.contains("\"served\":800"), "{one}");
    assert!(one.contains("\"frag_final\":0"), "{one}");
    assert!(!one.contains("\"migrations\":0,"), "{one}");
    let cut = |j: &str, w: &str| {
        let at = j.find(",\"wall_s\"").unwrap();
        j[..at].replace(&format!("\"workers\":{w},"), "")
    };
    let four = run("4");
    assert_eq!(cut(&one, "1"), cut(&four, "4"), "defrag broke determinism");

    // Table output carries the compaction summary.
    let out = Command::new(bin())
        .args([
            "fleet-sim",
            "--boards",
            "16",
            "--requests",
            "800",
            "--seed",
            "21",
            "--defrag",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("defrag   : fragmentation"), "{table}");
    assert!(table.contains("-> 0"), "{table}");
}

#[test]
fn fleet_sim_reports_deterministic_scheduling() {
    // Table output carries the scheduling summary.
    let out = Command::new(bin())
        .args([
            "fleet-sim",
            "--boards",
            "32",
            "--requests",
            "2000",
            "--seed",
            "9",
            "--fault-rate",
            "0.1",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fleet-sim failed: {stderr}");
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(table.contains("2000 served"), "{table}");
    assert!(table.contains("p50"), "{table}");
    assert!(table.contains("p999"), "{table}");

    // JSON output is machine-readable and identical across worker
    // counts (the scheduler's determinism guarantee, end to end
    // through the binary).
    let run = |workers: &str| {
        let out = Command::new(bin())
            .args([
                "fleet-sim",
                "--boards",
                "32",
                "--requests",
                "2000",
                "--seed",
                "9",
                "--fault-rate",
                "0.1",
                "--workers",
                workers,
                "--format",
                "json",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let json = String::from_utf8_lossy(&out.stdout).to_string();
        // Strip the two fields that legitimately differ between runs:
        // the echoed worker count and the wall clock.
        let cut = json.find(",\"wall_s\"").unwrap();
        json[..cut].replace(&format!("\"workers\":{workers},"), "")
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one, four, "worker count changed virtual results");
    assert!(one.contains("\"served\":2000"), "{one}");

    // Bad arguments are rejected.
    let bad = Command::new(bin())
        .args(["fleet-sim", "--mode", "nope"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let bad = Command::new(bin())
        .args(["fleet-sim", "--fault-rate", "2.0"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let bad = Command::new(bin())
        .args(["fleet-sim", "--boards", "0"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn fleet_sim_trace_slo_and_trace_analysis_end_to_end() {
    let dir = tmpdir("trace");
    let jsonl = dir.join("fleet.jsonl");
    let chrome = dir.join("fleet.json");

    // Traced compressed-wire run: JSON report carries the decoder
    // high-water mark and the SLO block; the dump lands on disk.
    let run_sized = |trace_path: &str, size: &[&str]| {
        let out = Command::new(bin())
            .arg("fleet-sim")
            .args(size)
            .args([
                "--wire",
                "compressed",
                "--trace",
                trace_path,
                "--slo",
                "high:2000:99,normal:20000:95,low:200000:90",
                "--format",
                "json",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "fleet-sim --trace failed: {stderr}");
        assert!(
            stderr.contains("wrote") && stderr.contains("spans"),
            "{stderr}"
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let run = |trace_path: &str, workers: &str| {
        let size = [
            "--boards",
            "16",
            "--requests",
            "600",
            "--seed",
            "5",
            "--workers",
            workers,
        ];
        run_sized(trace_path, &size)
    };
    let json = run(jsonl.to_str().unwrap(), "1");
    let peak = {
        let at = json.find("\"peak_buffer_words\":").unwrap() + "\"peak_buffer_words\":".len();
        json[at..]
            .split(',')
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    assert!(
        peak > 0,
        "compressed wire must report a nonzero peak: {json}"
    );
    assert!(json.contains("\"slo\":{\"window_ns\":"), "{json}");

    // Plain wire never touches the streaming decoder.
    let out = Command::new(bin())
        .args([
            "fleet-sim",
            "--boards",
            "16",
            "--requests",
            "600",
            "--seed",
            "5",
            "--wire",
            "plain",
            "--trace",
            dir.join("plain.jsonl").to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let plain = String::from_utf8_lossy(&out.stdout);
    assert!(plain.contains("\"peak_buffer_words\":0,"), "{plain}");

    // The JSONL dump is byte-identical across worker counts.
    let first = std::fs::read(&jsonl).unwrap();
    run(jsonl.to_str().unwrap(), "4");
    assert_eq!(
        first,
        std::fs::read(&jsonl).unwrap(),
        "trace dump must not depend on worker count"
    );

    // A `.json` path selects the Chrome trace_event exporter, and the
    // file is well-formed JSON with the traceEvents envelope.
    run(chrome.to_str().unwrap(), "1");
    let chrome_text = std::fs::read_to_string(&chrome).unwrap();
    assert!(
        chrome_text.starts_with("{\"displayTimeUnit\""),
        "{chrome_text}"
    );
    obs::trace::validate_json(&chrome_text).expect("chrome trace is well-formed JSON");
    // A larger seeded fleet's Chrome export is well-formed too.
    let big = dir.join("fleet64.json");
    let size = ["--boards", "64", "--requests", "2000", "--seed", "11"];
    run_sized(big.to_str().unwrap(), &size);
    let big_text = std::fs::read_to_string(&big).unwrap();
    obs::trace::validate_json(&big_text).expect("64-board chrome trace is well-formed JSON");

    // `jpg-cli trace` ingests the JSONL dump and names the dominant
    // p99 stage plus the per-stage breakdown.
    let out = Command::new(bin())
        .args(["trace", jsonl.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "jpg-cli trace failed: {stderr}");
    let report = String::from_utf8_lossy(&out.stdout);
    for stage in ["request", "queue", "download"] {
        assert!(report.contains(stage), "stage {stage} missing:\n{report}");
    }
    assert!(report.contains("critical path:"), "{report}");
    assert!(report.contains("dominant stage:"), "{report}");

    // Flag errors are rejected.
    let bad = Command::new(bin())
        .args(["fleet-sim", "--trace", "--format", "json"])
        .output()
        .unwrap();
    assert!(!bad.status.success(), "--trace without a path must fail");
    let bad = Command::new(bin())
        .args(["fleet-sim", "--slo", "high:abc:99"])
        .output()
        .unwrap();
    assert!(!bad.status.success(), "malformed --slo must fail");
    let bad = Command::new(bin())
        .args(["trace", dir.join("missing.jsonl").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success(), "missing trace file must fail");

    let _ = std::fs::remove_dir_all(&dir);
}
