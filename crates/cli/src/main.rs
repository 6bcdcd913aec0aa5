//! Command-line front end for the JPG tool — the batch equivalent of the
//! paper's GUI.
//!
//! ```text
//! jpg-cli info <file.bit>
//! jpg-cli partial --base <base.bit> --xdl <mod.xdl> --ucf <mod.ucf>
//!         --out <partial.bit> [--merge <updated-base.bit>] [--floorplan]
//! jpg-cli report [--workload fig4|smoke] [--format table|json|prometheus|jsonl]
//!         [--repeat N] [--check-schema]
//! jpg-cli relocate --in <partial.bit> --out <moved.bit> --delta N [--bram-delta N]
//! jpg-cli compress --in <partial.bit> --out <partial.jwc> [--base <base.bit>]
//! jpg-cli decompress --in <partial.jwc> --out <partial.bit> [--base <base.bit>]
//!         [--design NAME]
//! jpg-cli fleet-sim [--boards N] [--requests N] [--shards N] [--workers N]
//!         [--seed S] [--zipf S] [--fault-rate F] [--mode partial|full]
//!         [--wire plain|compressed] [--verify full|digest|sampled:K|adaptive]
//!         [--regions N] [--variants N]
//!         [--queue-cap N] [--shed-watermark N]
//!         [--defrag] [--slots N] [--defrag-idle-ns N]
//!         [--trace <out.json|out.jsonl>] [--slo CLASS:OBJ_US:PCT[,...]]
//!         [--format table|json] [--log-events]
//! jpg-cli trace <trace.jsonl> [--quantile Q]
//! ```

use bitstream::BitFile;
use jpg::JpgProject;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => info(&args[1..]),
        Some("partial") => partial(&args[1..]),
        Some("report") => report(&args[1..]),
        Some("relocate") => relocate_cmd(&args[1..]),
        Some("compress") => compress_cmd(&args[1..]),
        Some("decompress") => decompress_cmd(&args[1..]),
        Some("fleet-sim") => fleet_sim(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  jpg-cli info <file.bit>\n  jpg-cli partial --base <base.bit> \
                 --xdl <mod.xdl> --ucf <mod.ucf> --out <partial.bit> \
                 [--merge <updated.bit>] [--floorplan]\n  jpg-cli report \
                 [--workload fig4|smoke] [--format table|json|prometheus|jsonl] \
                 [--repeat N] [--check-schema]\n  jpg-cli relocate --in <partial.bit> \
                 --out <moved.bit> --delta N [--bram-delta N]\n  jpg-cli compress \
                 --in <partial.bit> --out <partial.jwc> [--base <base.bit>]\n  \
                 jpg-cli decompress --in <partial.jwc> --out <partial.bit> \
                 [--base <base.bit>] [--design NAME]\n  jpg-cli fleet-sim \
                 [--boards N] [--requests N] [--shards N] [--workers N] [--seed S] \
                 [--zipf S] [--fault-rate F] [--mode partial|full] \
                 [--wire plain|compressed] \
                 [--verify full|digest|sampled:K|adaptive] [--regions N] \
                 [--variants N] [--queue-cap N] [--shed-watermark N] \
                 [--defrag] [--slots N] [--defrag-idle-ns N] \
                 [--trace <out.json|out.jsonl>] [--slo CLASS:OBJ_US:PCT[,...]] \
                 [--format table|json] [--log-events]\n  jpg-cli trace \
                 <trace.jsonl> [--quantile Q]"
            );
            ExitCode::from(2)
        }
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("jpg-cli: {msg}");
    ExitCode::FAILURE
}

fn info(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("info: missing file");
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    match BitFile::from_bytes(&bytes) {
        Ok(f) => {
            println!("design : {}", f.design);
            println!("device : {}", f.device);
            println!(
                "kind   : {}",
                if f.partial { "partial" } else { "complete" }
            );
            println!("payload: {} bytes", f.bitstream.byte_len());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut bare = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            // `--flag=value` and `--flag value` are both accepted.
            if let Some((name, value)) = name.split_once('=') {
                flags.insert(name.to_string(), value.to_string());
                continue;
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), it.next().unwrap().clone());
                }
                _ => {
                    flags.insert(name.to_string(), String::new());
                }
            }
        } else {
            bare.push(a.clone());
        }
    }
    (flags, bare)
}

fn partial(args: &[String]) -> ExitCode {
    let (flags, _) = parse_flags(args);
    let need = |k: &str| -> Result<String, String> {
        flags
            .get(k)
            .filter(|v| !v.is_empty())
            .cloned()
            .ok_or_else(|| format!("partial: missing --{k}"))
    };
    let run = || -> Result<(), String> {
        let base_path = need("base")?;
        let xdl_path = need("xdl")?;
        let ucf_path = need("ucf")?;
        let out_path = need("out")?;

        let base_bytes = std::fs::read(&base_path).map_err(|e| format!("{base_path}: {e}"))?;
        let base = BitFile::from_bytes(&base_bytes).map_err(|e| format!("{base_path}: {e}"))?;
        if base.partial {
            return Err(format!(
                "{base_path}: base design must be a complete bitstream"
            ));
        }
        let xdl_text =
            std::fs::read_to_string(&xdl_path).map_err(|e| format!("{xdl_path}: {e}"))?;
        let ucf_text =
            std::fs::read_to_string(&ucf_path).map_err(|e| format!("{ucf_path}: {e}"))?;

        let mut project = JpgProject::open(base).map_err(|e| e.to_string())?;
        let result = project
            .generate_partial(&xdl_text, &ucf_text)
            .map_err(|e| e.to_string())?;

        if flags.contains_key("floorplan") {
            eprintln!("{}", result.floorplan);
        }
        eprintln!(
            "partial: {} bytes over CLB columns {:?} ({} frames, {} JBits calls)",
            result.bitstream.byte_len(),
            result.clb_columns,
            result.frames,
            result.stats.total()
        );
        std::fs::write(&out_path, result.bitfile.to_bytes())
            .map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote {out_path}");

        if let Some(merge_path) = flags.get("merge").filter(|v| !v.is_empty()) {
            project
                .write_onto_base(&result)
                .map_err(|e| e.to_string())?;
            std::fs::write(merge_path, project.base_bitstream().to_bytes())
                .map_err(|e| format!("{merge_path}: {e}"))?;
            eprintln!("wrote {merge_path} (base with module applied)");
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Run a Figure-4-style workload with tracing live and print the stage
/// breakdown plus the metric snapshot (see `jpg::report`).
fn report(args: &[String]) -> ExitCode {
    let (flags, _) = parse_flags(args);
    let workload = match flags.get("workload").map(String::as_str) {
        None | Some("") => jpg::report::Workload::Fig4,
        Some(w) => match jpg::report::Workload::parse(w) {
            Some(w) => w,
            None => return fail(&format!("report: unknown workload {w:?}")),
        },
    };
    let format = match flags.get("format").map(String::as_str) {
        None | Some("") | Some("table") => "table",
        Some(f @ ("json" | "prometheus" | "jsonl")) => f,
        Some(f) => return fail(&format!("report: unknown format {f:?}")),
    };
    let repeats = match flags.get("repeat").map(String::as_str) {
        None | Some("") => 1,
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return fail(&format!(
                    "report: --repeat wants a positive integer, got {n:?}"
                ))
            }
        },
    };
    let r = match jpg::report::run_repeated(workload, repeats) {
        Ok(r) => r,
        Err(e) => return fail(&format!("report: {e}")),
    };
    match format {
        "json" => println!("{}", jpg::report::render_json(&r)),
        "prometheus" => print!("{}", jpg::report::render_prometheus(&r)),
        "jsonl" => print!("{}", jpg::report::render_jsonl(&r)),
        _ => print!("{}", jpg::report::render_table(&r)),
    }
    if flags.contains_key("check-schema") {
        let missing = jpg::report::missing_metrics(&r);
        if !missing.is_empty() {
            return fail(&format!(
                "report: snapshot is missing required metrics: {missing:?}"
            ));
        }
        eprintln!(
            "schema check: all {} required metrics present",
            jpg::report::REQUIRED_METRICS.len()
        );
    }
    if r.verify_failures > 0 {
        return fail(&format!("report: {} verify failures", r.verify_failures));
    }
    ExitCode::SUCCESS
}

/// Relocate a partial bitstream to a new column origin: rewrite its FAR
/// sequence, re-stitch the CRC, and reject resource-incompatible moves
/// with the engine's typed errors.
fn relocate_cmd(args: &[String]) -> ExitCode {
    let (flags, _) = parse_flags(args);
    let need = |k: &str| -> Result<String, String> {
        flags
            .get(k)
            .filter(|v| !v.is_empty())
            .cloned()
            .ok_or_else(|| format!("relocate: missing --{k}"))
    };
    let run = || -> Result<(), String> {
        let in_path = need("in")?;
        let out_path = need("out")?;
        let parse_delta = |k: &str| -> Result<i32, String> {
            match flags.get(k).filter(|v| !v.is_empty()) {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("relocate: --{k} wants an integer, got {v:?}")),
                None => Ok(0),
            }
        };
        let spec = reloc::RelocSpec {
            clb_delta: parse_delta("delta")?,
            bram_delta: parse_delta("bram-delta")?,
        };

        let bytes = std::fs::read(&in_path).map_err(|e| format!("{in_path}: {e}"))?;
        let file = BitFile::from_bytes(&bytes).map_err(|e| format!("{in_path}: {e}"))?;
        if !file.partial {
            return Err(format!(
                "{in_path}: relocation applies to partial bitstreams only"
            ));
        }
        let moved = reloc::relocate(file.device, &file.bitstream, spec)
            .map_err(|e| format!("{in_path}: {e}"))?;
        eprintln!(
            "relocate: {} on {} shifted by {:+} CLB columns / {:+} BRAM majors ({} bytes)",
            file.design,
            file.device,
            spec.clb_delta,
            spec.bram_delta,
            moved.byte_len()
        );
        let out = BitFile::new(file.design, file.device, true, moved);
        std::fs::write(&out_path, out.to_bytes()).map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote {out_path}");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Load a complete bitstream into a device-side interpreter so its
/// configuration memory can serve as the delta base for wire coding.
fn load_base(path: &str) -> Result<bitstream::Interpreter, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let file = BitFile::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    if file.partial {
        return Err(format!("{path}: --base must be a complete bitstream"));
    }
    let mut interp = bitstream::Interpreter::new(file.device);
    interp
        .feed(&file.bitstream)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(interp)
}

/// Pack a partial bitstream into a `JWC1` wire container: frame-delta
/// against `--base` when given (valid only for incremental partials
/// applied over base-resident regions), RLE, and entropy coding, with
/// per-section checksums.
fn compress_cmd(args: &[String]) -> ExitCode {
    let (flags, _) = parse_flags(args);
    let need = |k: &str| -> Result<String, String> {
        flags
            .get(k)
            .filter(|v| !v.is_empty())
            .cloned()
            .ok_or_else(|| format!("compress: missing --{k}"))
    };
    let run = || -> Result<(), String> {
        let in_path = need("in")?;
        let out_path = need("out")?;
        let bytes = std::fs::read(&in_path).map_err(|e| format!("{in_path}: {e}"))?;
        let file = BitFile::from_bytes(&bytes).map_err(|e| format!("{in_path}: {e}"))?;
        let base = match flags.get("base").filter(|v| !v.is_empty()) {
            Some(p) => {
                let interp = load_base(p)?;
                if interp.device() != file.device {
                    return Err(format!(
                        "compress: base is for {}, partial is for {}",
                        interp.device(),
                        file.device
                    ));
                }
                Some(interp)
            }
            None => None,
        };
        let enc = wire::encode(
            file.device,
            &file.bitstream,
            base.as_ref().map(|i| i.memory() as &dyn wire::FrameSource),
        );
        eprintln!(
            "compress: {} on {}: {} -> {} bytes ({:.2}x) over {} sections",
            file.design,
            file.device,
            enc.stats.decoded_bytes,
            enc.stats.encoded_bytes,
            enc.stats.ratio(),
            enc.stats.sections,
        );
        std::fs::write(&out_path, &enc.bytes).map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote {out_path}");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Unpack a `JWC1` wire container back to a plain partial `.bit` file.
/// Containers with delta sections need the same `--base` they were
/// encoded against.
fn decompress_cmd(args: &[String]) -> ExitCode {
    let (flags, _) = parse_flags(args);
    let need = |k: &str| -> Result<String, String> {
        flags
            .get(k)
            .filter(|v| !v.is_empty())
            .cloned()
            .ok_or_else(|| format!("decompress: missing --{k}"))
    };
    let run = || -> Result<(), String> {
        let in_path = need("in")?;
        let out_path = need("out")?;
        let container = std::fs::read(&in_path).map_err(|e| format!("{in_path}: {e}"))?;
        let base = match flags.get("base").filter(|v| !v.is_empty()) {
            Some(p) => Some(load_base(p)?),
            None => None,
        };
        let words = wire::decode_full(
            &container,
            base.as_ref().map(|i| i.memory() as &dyn wire::FrameSource),
        )
        .map_err(|e| format!("{in_path}: {e}"))?;
        let dec = wire::StreamingDecoder::new(&container).map_err(|e| format!("{in_path}: {e}"))?;
        let device = virtex::Device::from_idcode(dec.idcode())
            .ok_or_else(|| format!("{in_path}: unknown idcode {:#010x}", dec.idcode()))?;
        let design = flags
            .get("design")
            .filter(|v| !v.is_empty())
            .cloned()
            .unwrap_or_else(|| "decompressed".to_string());
        let bs = bitstream::Bitstream::from_words(words);
        eprintln!(
            "decompress: {} bytes -> {} bytes for {device}",
            container.len(),
            bs.byte_len()
        );
        let out = BitFile::new(design, device, true, bs);
        std::fs::write(&out_path, out.to_bytes()).map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote {out_path}");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Drive the event-driven fleet scheduler over a synthetic Zipf/bursty
/// trace and report virtual-time latency quantiles plus throughput.
fn fleet_sim(args: &[String]) -> ExitCode {
    let (flags, _) = parse_flags(args);
    let run = || -> Result<(), String> {
        let mut spec = fleet::FleetSimSpec::default();
        let parse_usize = |k: &str, into: &mut usize| -> Result<(), String> {
            if let Some(v) = flags.get(k).filter(|v| !v.is_empty()) {
                *into = v
                    .parse()
                    .map_err(|_| format!("fleet-sim: --{k} wants an integer, got {v:?}"))?;
            }
            Ok(())
        };
        parse_usize("boards", &mut spec.boards)?;
        parse_usize("requests", &mut spec.requests)?;
        parse_usize("shards", &mut spec.shards)?;
        parse_usize("workers", &mut spec.workers)?;
        parse_usize("queue-cap", &mut spec.queue_cap)?;
        parse_usize("shed-watermark", &mut spec.shed_watermark)?;
        if let Some(v) = flags.get("seed").filter(|v| !v.is_empty()) {
            spec.seed = v
                .parse()
                .map_err(|_| format!("fleet-sim: --seed wants an integer, got {v:?}"))?;
        }
        if let Some(v) = flags.get("zipf").filter(|v| !v.is_empty()) {
            spec.zipf_s = v
                .parse()
                .map_err(|_| format!("fleet-sim: --zipf wants a float, got {v:?}"))?;
        }
        if let Some(v) = flags.get("fault-rate").filter(|v| !v.is_empty()) {
            spec.fault_rate = v
                .parse()
                .map_err(|_| format!("fleet-sim: --fault-rate wants a float, got {v:?}"))?;
            if !(0.0..=1.0).contains(&spec.fault_rate) {
                return Err(format!(
                    "fleet-sim: --fault-rate must be in [0, 1], got {v}"
                ));
            }
        }
        let mut regions = spec.regions as usize;
        let mut variants = spec.variants as usize;
        parse_usize("regions", &mut regions)?;
        parse_usize("variants", &mut variants)?;
        spec.regions = regions as u32;
        spec.variants = variants as u32;
        match flags.get("mode").map(String::as_str) {
            None | Some("") | Some("partial") => spec.mode = fleet::ServeMode::Partial,
            Some("full") | Some("fullswap") => spec.mode = fleet::ServeMode::FullSwap,
            Some(m) => return Err(format!("fleet-sim: unknown mode {m:?}")),
        }
        match flags.get("wire").map(String::as_str) {
            None | Some("") | Some("plain") => spec.wire = fleet::WireFormat::Plain,
            Some("compressed") => spec.wire = fleet::WireFormat::Compressed,
            Some(w) => return Err(format!("fleet-sim: unknown wire format {w:?}")),
        }
        match flags.get("verify").map(String::as_str) {
            None | Some("") | Some("full") => spec.verify = fleet::VerifyPolicy::Full,
            Some("digest") => spec.verify = fleet::VerifyPolicy::Digest,
            Some("adaptive") => spec.verify = fleet::VerifyPolicy::Adaptive,
            Some(v) => match v
                .strip_prefix("sampled:")
                .and_then(|k| k.parse::<u32>().ok())
                .filter(|&k| k > 0)
            {
                Some(k) => spec.verify = fleet::VerifyPolicy::Sampled { k },
                None => {
                    return Err(format!(
                        "fleet-sim: unknown verify policy {v:?} \
                         (want full|digest|sampled:K|adaptive)"
                    ))
                }
            },
        }
        spec.log_events = flags.contains_key("log-events");
        let trace_path = flags.get("trace").filter(|v| !v.is_empty()).cloned();
        if flags.contains_key("trace") && trace_path.is_none() {
            return Err("fleet-sim: --trace wants an output path".into());
        }
        spec.trace = trace_path.is_some();
        if let Some(v) = flags.get("slo").filter(|v| !v.is_empty()) {
            spec.slo =
                Some(obs::SloPolicy::parse(v).map_err(|e| format!("fleet-sim: --slo: {e}"))?);
        }
        spec.defrag = flags.contains_key("defrag");
        parse_usize("slots", &mut spec.slots)?;
        if let Some(v) = flags.get("defrag-idle-ns").filter(|v| !v.is_empty()) {
            spec.defrag_idle_ns = v
                .parse()
                .map_err(|_| format!("fleet-sim: --defrag-idle-ns wants an integer, got {v:?}"))?;
        }
        // Every size must be positive, and bounded so that no flag can
        // size an allocation past memory (the caps admit every
        // documented run: 10 000 boards, 1 000 000 requests).
        for (flag, value, max) in [
            ("boards", spec.boards, 10_000),
            ("requests", spec.requests, 1_000_000),
            ("regions", regions, 256),
            ("variants", variants, 4_096),
        ] {
            if !(1..=max).contains(&value) {
                return Err(format!(
                    "fleet-sim: --{flag} must be in 1..={max}, got {value}"
                ));
            }
        }
        if spec.slots > 1_024 {
            return Err(format!(
                "fleet-sim: --slots must be at most 1024, got {}",
                spec.slots
            ));
        }

        let r = fleet::simulate(&spec);
        if spec.log_events {
            for line in &r.event_log {
                eprintln!("{line}");
            }
        }
        if let Some(path) = &trace_path {
            // Extension picks the exporter: `.json` gets a Chrome
            // trace_event file (load in Perfetto / chrome://tracing),
            // anything else the line-oriented JSONL stream.
            let dump = if path.ends_with(".json") {
                r.trace.chrome_json()
            } else {
                r.trace.jsonl()
            };
            std::fs::write(path, dump).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "fleet-sim: wrote {} spans to {path} ({} dropped)",
                r.trace.spans.len(),
                r.trace.dropped
            );
            for pm in &r.postmortems {
                eprintln!("postmortem: {pm}");
            }
        }
        let format = flags.get("format").map(String::as_str).unwrap_or("table");
        match format {
            "json" => println!("{}", render_fleet_json(&spec, &r)),
            "table" | "" => print!("{}", render_fleet_table(&spec, &r)),
            f => return Err(format!("fleet-sim: unknown format {f:?}")),
        }
        if r.failed + r.rejected + r.shed > 0 && spec.queue_cap == usize::MAX {
            // With unbounded admission every request must eventually be
            // served; anything else is a scheduler defect.
            return Err(format!(
                "fleet-sim: {} requests did not complete successfully",
                r.failed + r.rejected + r.shed
            ));
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn render_fleet_table(spec: &fleet::FleetSimSpec, r: &fleet::SimReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "fleet-sim: {} boards / {} shards, {} requests, zipf {}, fault rate {}, {:?}, {:?} wire\n",
        spec.boards,
        spec.sched_config().shards,
        spec.requests,
        spec.zipf_s,
        spec.fault_rate,
        spec.mode,
        spec.wire,
    ));
    s.push_str(&format!(
        "outcomes : {} served ({} resident-hit, {} coalesced), {} failed, {} rejected, {} shed\n",
        r.served, r.resident_hits, r.coalesced, r.failed, r.rejected, r.shed
    ));
    s.push_str(&format!(
        "traffic  : {} downloads, {} bytes pushed, {} bytes read back, {} retries, {} verify failures\n",
        r.downloads, r.download_bytes, r.readback_bytes, r.retries, r.verify_failures
    ));
    s.push_str(&format!(
        "verify   : {} policy: {} raw, {} digest, {} sampled, {} escalations\n",
        spec.verify.name(),
        r.verify_raw,
        r.verify_digest,
        r.verify_sampled,
        r.verify_escalations
    ));
    s.push_str(&format!(
        "schedule : virtual makespan {:.3} ms, {} stolen, throughput {:.0} req/s (virtual)\n",
        r.makespan_ns as f64 / 1e6,
        r.stolen,
        r.throughput_rps
    ));
    s.push_str(&format!(
        "latency  : p50 {} us, p99 {} us, p999 {} us (arrival to completion, virtual)\n",
        r.p50.as_micros(),
        r.p99.as_micros(),
        r.p999.as_micros()
    ));
    if spec.defrag {
        s.push_str(&format!(
            "defrag   : fragmentation {} -> {}, {} migrations ({} retried)\n",
            r.frag_initial, r.frag_final, r.migrations, r.migration_retries
        ));
    }
    if spec.trace {
        s.push_str(&format!(
            "trace    : {} spans ({} dropped), {} postmortems, peak decoder buffer {} words\n",
            r.trace.spans.len(),
            r.trace.dropped,
            r.postmortems.len(),
            r.peak_buffer_words
        ));
    }
    if let Some(slo) = &r.slo {
        s.push_str(&slo.render_lines());
    }
    s.push_str(&format!("wall     : {:.3} s\n", r.wall.as_secs_f64()));
    s
}

fn render_fleet_json(spec: &fleet::FleetSimSpec, r: &fleet::SimReport) -> String {
    let mut s = format!(
        concat!(
            "{{\"boards\":{},\"shards\":{},\"workers\":{},\"requests\":{},",
            "\"zipf_s\":{},\"fault_rate\":{},\"mode\":\"{}\",\"wire\":\"{}\",",
            "\"verify\":\"{}\",\"seed\":{},",
            "\"served\":{},\"failed\":{},\"rejected\":{},\"shed\":{},",
            "\"resident_hits\":{},\"coalesced\":{},\"downloads\":{},",
            "\"download_bytes\":{},\"readback_bytes\":{},\"retries\":{},",
            "\"verify_failures\":{},\"verify_raw\":{},\"verify_digest\":{},",
            "\"verify_sampled\":{},\"verify_escalations\":{},",
            "\"stolen\":{},\"makespan_ns\":{},",
            "\"throughput_rps\":{:.1},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},",
            "\"migrations\":{},\"migration_retries\":{},",
            "\"frag_initial\":{},\"frag_final\":{},",
            "\"peak_buffer_words\":{},",
            "\"wall_s\":{:.3}"
        ),
        spec.boards,
        spec.sched_config().shards,
        spec.workers,
        spec.requests,
        spec.zipf_s,
        spec.fault_rate,
        match spec.mode {
            fleet::ServeMode::Partial => "partial",
            fleet::ServeMode::FullSwap => "full",
        },
        match spec.wire {
            fleet::WireFormat::Plain => "plain",
            fleet::WireFormat::Compressed => "compressed",
        },
        spec.verify.name(),
        spec.seed,
        r.served,
        r.failed,
        r.rejected,
        r.shed,
        r.resident_hits,
        r.coalesced,
        r.downloads,
        r.download_bytes,
        r.readback_bytes,
        r.retries,
        r.verify_failures,
        r.verify_raw,
        r.verify_digest,
        r.verify_sampled,
        r.verify_escalations,
        r.stolen,
        r.makespan_ns,
        r.throughput_rps,
        r.p50.as_micros(),
        r.p99.as_micros(),
        r.p999.as_micros(),
        r.migrations,
        r.migration_retries,
        r.frag_initial,
        r.frag_final,
        r.peak_buffer_words,
        r.wall.as_secs_f64(),
    );
    if let Some(slo) = &r.slo {
        s.push_str(",\"slo\":");
        s.push_str(&slo.json());
    }
    s.push('}');
    s
}

/// Analyze a JSONL trace dump from `fleet-sim --trace`: per-stage
/// p50/p99 breakdown plus critical-path attribution for the requests at
/// or above the chosen end-to-end latency quantile.
fn trace_cmd(args: &[String]) -> ExitCode {
    let (flags, bare) = parse_flags(args);
    let run = || -> Result<(), String> {
        let Some(path) = bare.first() else {
            return Err("trace: missing <trace.jsonl>".into());
        };
        let q = match flags.get("quantile").filter(|v| !v.is_empty()) {
            Some(v) => {
                let q: f64 = v
                    .parse()
                    .map_err(|_| format!("trace: --quantile wants a float, got {v:?}"))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(format!("trace: --quantile must be in [0, 1], got {q}"));
                }
                q
            }
            None => 0.99,
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // Strict: an empty dump and a truncated line are both typed
        // errors naming the problem (and the offending line), not a
        // silent zero-span report or a bare parse failure.
        let spans = obs::trace::parse_jsonl_strict(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("trace: {} spans from {path}", spans.len());
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>14} {:>12}",
            "stage", "count", "p50_ns", "p99_ns", "total_ns", "max_ns"
        );
        for st in obs::trace::stage_breakdown(spans.iter().map(|s| (s.stage.as_str(), s.dur_ns))) {
            println!(
                "{:<10} {:>8} {:>12} {:>12} {:>14} {:>12}",
                st.stage, st.count, st.p50_ns, st.p99_ns, st.total_ns, st.max_ns
            );
        }
        match obs::trace::critical_path(&spans, q) {
            Some(cp) => {
                println!(
                    "critical path: {} requests at or above p{:.4} = {} ns",
                    cp.slow_requests,
                    q * 100.0,
                    cp.threshold_ns
                );
                for (stage, ns) in &cp.stage_ns {
                    println!("  {stage:<10} {ns} ns");
                }
                match cp.dominant() {
                    Some(d) => println!("dominant stage: {d}"),
                    None => println!("dominant stage: none (no child spans)"),
                }
            }
            None => println!("critical path: no request spans in trace"),
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
