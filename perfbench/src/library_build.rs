//! `library_build`: the paper's own job. A closed loop with one client
//! and no board takes every Figure-4 variant from netlist to both wire
//! containers, on the XCV100 and on full-height XCV1000 regions, each
//! variant under a fresh CAD seed drawn from the workload seed.

use crate::catalogue;
use crate::report::{derive, mean_milli, median_f64, ns_since, quantile, Report};
use crate::spans::Spans;
use bitstream::{bitgen, BitFile, Bitstream, FrameRange, Interpreter};
use cadflow::netlist::Netlist;
use cadflow::FlowOptions;
use jbits::Jbits;
use jpg::workflow::{build_library_pipelined, implement_variant, BaseDesign, RegionCatalogue};
use jpg::{FrameCache, JpgProject, TranslateStats};
use simboard::port::download_ns;
use std::time::Instant;
use virtex::{BlockType, ConfigMemory, Device};
use xdl::{Constraints, Design, Placement, Rect};

/// Rounds whose outputs feed the modelled and count metrics; the timed
/// loop always completes them, so those metrics are a pure function of
/// the seed while host metrics use every round the budget allows.
const FIXED_ROUNDS: usize = 8;

/// The parts one round builds the catalogue on, as indices into
/// [`setup`]'s parts: the paper's XCV100 twice (under different CAD
/// seeds) per XCV1000 pass, so the median partial is an XCV100 one and
/// the tail is set by the XCV1000's longer frames.
const ROUND_PARTS: [usize; 3] = [0, 0, 1];

/// One part's base design and the JPG state built from it.
struct Part {
    device: Device,
    base: BaseDesign,
    project: JpgProject,
    cache: FrameCache,
    rects: [Rect; 3],
}

fn setup() -> Vec<Part> {
    let cat = catalogue::fig4();
    [Device::XCV100, Device::XCV1000]
        .into_iter()
        .map(|device| {
            let base = catalogue::base(device, &cat);
            let project = JpgProject::from_memory("fig4", base.memory.clone());
            let cache = FrameCache::new();
            let rects = catalogue::regions(device);
            for rect in rects {
                cache.prime_frames(
                    &base.memory,
                    jpg::region_frame_ranges(&base.memory, rect)
                        .into_iter()
                        .flat_map(|r| r.frames()),
                );
            }
            Part {
                device,
                base,
                project,
                cache,
                rects,
            }
        })
        .collect()
}

/// Everything one variant produces.
struct Built {
    wholesale: Bitstream,
    incremental: Bitstream,
    /// The stamped image (the module in its region, base elsewhere).
    stamped: ConfigMemory,
    wire_wholesale: wire::Encoded,
    wire_incremental: wire::Encoded,
}

/// CAD runs per variant. A place-and-route run that fails to converge
/// is re-run under the next seed, as a designer would; the time of the
/// failed runs counts toward the result.
const CAD_ATTEMPTS: u64 = 4;

/// Run the CAD step `f` under `seed`, and under seeds derived from it
/// while it fails, up to [`CAD_ATTEMPTS`] runs.
fn reseeded<T, E: ToString>(
    seed: u64,
    mut f: impl FnMut(u64) -> Result<T, E>,
) -> Result<T, String> {
    let mut last = String::new();
    for attempt in 0..CAD_ATTEMPTS {
        match f(if attempt == 0 {
            seed
        } else {
            derive(seed, attempt)
        }) {
            Ok(v) => return Ok(v),
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// The production path: `implement_variant` → XDL/UCF text →
/// `generate_partial` → `generate_partial_incremental` → `wire::encode`
/// of both containers.
fn build(part: &Part, prefix: &str, nl: &Netlist, seed: u64) -> Result<Built, String> {
    let v = reseeded(seed, |s| implement_variant(&part.base, prefix, nl, s))?;
    let wholesale = part
        .project
        .generate_partial(&v.xdl, &v.ucf)
        .map_err(|e| e.to_string())?;
    let cons = Constraints::parse(&v.ucf).map_err(|e| e.to_string())?;
    let incremental = part
        .project
        .generate_partial_incremental(&v.design, &cons, &part.cache)
        .map_err(|e| e.to_string())?;
    let wire_wholesale = wire::encode(part.device, &wholesale.bitstream, None);
    let wire_incremental = wire::encode(
        part.device,
        &incremental.bitstream,
        Some(part.project.base_memory() as &dyn wire::FrameSource),
    );
    Ok(Built {
        wholesale: wholesale.bitstream,
        incremental: incremental.bitstream,
        stamped: wholesale.memory,
        wire_wholesale,
        wire_incremental,
    })
}

/// Both partials applied over the base must give the stamped image on
/// the region's frames, and both containers must decode to the plain
/// words.
fn check(part: &Part, rect: Rect, b: &Built) -> Result<(), String> {
    let base = part.project.base_memory();
    let frames: Vec<usize> = jpg::region_frame_ranges(base, rect)
        .into_iter()
        .flat_map(|r| r.frames())
        .collect();
    for (flavour, bits) in [("wholesale", &b.wholesale), ("incremental", &b.incremental)] {
        let mut dev = Interpreter::with_memory(base.clone());
        dev.feed(bits)
            .map_err(|e| format!("{flavour} partial rejected by the interpreter: {e}"))?;
        if let Some(f) = frames
            .iter()
            .find(|&&f| dev.memory().frame(f) != b.stamped.frame(f))
        {
            return Err(format!(
                "{flavour} partial over the base differs at frame {f}"
            ));
        }
    }
    let whole = wire::decode_full(&b.wire_wholesale.bytes, None)
        .map_err(|e| format!("wholesale container: {e}"))?;
    if whole != b.wholesale.words() {
        return Err("wholesale container decodes to other words".into());
    }
    let inc = wire::decode_full(
        &b.wire_incremental.bytes,
        Some(base as &dyn wire::FrameSource),
    )
    .map_err(|e| format!("incremental container: {e}"))?;
    if inc != b.incremental.words() {
        return Err("incremental container decodes to other words".into());
    }
    Ok(())
}

/// `(part, region, variant)` for every catalogue entry of a round.
fn jobs(cat: &[(String, Vec<Netlist>)]) -> Vec<(usize, usize, usize)> {
    ROUND_PARTS
        .iter()
        .flat_map(|&p| {
            cat.iter()
                .enumerate()
                .flat_map(move |(r, (_, vs))| (0..vs.len()).map(move |v| (p, r, v)))
        })
        .collect()
}

fn variant_seed(seed: u64, round: usize, job: usize) -> u64 {
    derive(seed, ((round as u64) << 16) | job as u64)
}

pub fn run(seed: u64, seconds: f64, traced: bool, corrupt: bool) -> Report {
    let mut report = Report::default();
    let parts = crate::repeat_setup(&mut report, setup);
    let cat = catalogue::fig4();
    let jobs = jobs(&cat);
    println!(
        "library_build: {} variants per round on {:?}",
        jobs.len(),
        ROUND_PARTS.map(|p| parts[p].device)
    );
    if traced {
        run_traced(&mut report, &parts, &cat, &jobs, seed, seconds);
        return report;
    }

    // Each round takes every variant serially from netlist to both
    // containers, then builds the same catalogues with the production
    // parallel builder, so both see the same stretch of host time.
    let cats: Vec<RegionCatalogue> = cat
        .iter()
        .map(|(prefix, variants)| RegionCatalogue { prefix, variants })
        .collect();
    let start = Instant::now();
    let (mut latency_ns, mut port_ns, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0;
    while round < FIXED_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (j, &(p, r, v)) in jobs.iter().enumerate() {
            let part = &parts[p];
            let (prefix, variants) = &cat[r];
            report.attempted += 1;
            let t = Instant::now();
            let built = build(part, prefix, &variants[v], variant_seed(seed, round, j));
            latency_ns.push(ns_since(t));
            let mut built = match built {
                Ok(b) => b,
                Err(e) => {
                    report.check(false, || format!("{prefix}{}: {e}", variants[v].name));
                    continue;
                }
            };
            if corrupt && round == 0 && j == 0 {
                built.wholesale = corrupted(&built.wholesale);
            }
            if round < FIXED_ROUNDS {
                port_ns.push(download_ns(built.wire_incremental.bytes.len()));
            }
            let verdict = check(part, part.rects[r], &built);
            report.check(verdict.is_ok(), || {
                format!("{prefix}{}: {}", variants[v].name, verdict.unwrap_err())
            });
        }

        let t = Instant::now();
        let mut partials = 0usize;
        for (k, &p) in ROUND_PARTS.iter().enumerate() {
            let build_seed = derive(seed, 1 << 40 | (round as u64) << 4 | k as u64);
            report.attempted += 1;
            match reseeded(build_seed, |s| {
                build_library_pipelined(&parts[p].base, &cats, s, false)
            }) {
                Ok(entries) => partials += entries.len(),
                Err(e) => report.check(false, || format!("pipelined build: {e}")),
            }
        }
        rates.push(partials as f64 / t.elapsed().as_secs_f64());
        round += 1;
    }
    println!(
        "library_build: {} serial and {} pipelined partials in {round} rounds",
        latency_ns.len(),
        rates.len() * jobs.len()
    );
    report.metric(
        "latency_us.p50",
        quantile(&mut latency_ns, 0.50) as f64 / 1e3,
        "us",
    );
    report.metric(
        "latency_us.p90",
        quantile(&mut latency_ns, 0.90) as f64 / 1e3,
        "us",
    );
    report.metric("ops_per_s", median_f64(&rates), "1/s");
    report.metric("port_us.mean", mean_milli(&port_ns), "us");
    report
}

/// A copy of `bits` with one configuration word flipped — the input the
/// benchmark's own test uses to show a failed check fails the run.
fn corrupted(bits: &Bitstream) -> Bitstream {
    let mut words = bits.words().to_vec();
    let i = words.len() / 2;
    words[i] ^= 1 << 7;
    Bitstream::from_words(words)
}

// ---------------------------------------------------------------------------
// Traced run: the same per-variant work, decomposed into the public calls
// each layer exposes, with a span around each.
// ---------------------------------------------------------------------------

/// `jpg::workflow`'s flow options for a Phase-2 variant.
fn flow_options(seed: u64, region: Rect, clock_index: u8) -> FlowOptions {
    let mut opts = FlowOptions::default();
    opts.place.seed = seed;
    opts.route.seed = seed;
    opts.route.region_cols = Some((region.col0, region.col1));
    opts.route.clock_index = Some(clock_index % virtex::routing::GLOBAL_CLOCKS as u8);
    opts
}

/// The front half of generation: DRC, target columns, erase them in a
/// copy of the base and stamp the module in with JBits calls.
fn stamp(
    base: &ConfigMemory,
    design: &Design,
    cons: &Constraints,
) -> Result<(ConfigMemory, Vec<FrameRange>, TranslateStats), String> {
    if !xdl::drc_check(design).is_empty() {
        return Err("DRC violations".into());
    }
    let g = base.device().geometry();
    let clb_cols = g.clb_cols as i32;
    let mut cols = design.occupied_clb_columns();
    let (mut left, mut right) = (false, false);
    let mut edge = |c: i32, cols: &mut Vec<usize>| {
        if c < 0 {
            left = true;
        } else if c >= clb_cols {
            right = true;
        } else {
            cols.push(c as usize);
        }
    };
    for inst in &design.instances {
        if let Some(r) = cons.region_for(&inst.name) {
            cols.extend(r.cols());
        }
        if let Placement::Iob(io) = inst.placement {
            edge(io.tile.col, &mut cols);
        }
    }
    for net in &design.nets {
        for pip in &net.pips {
            edge(pip.loc.col, &mut cols);
        }
    }
    cols.sort_unstable();
    cols.dedup();
    let geom = base.geometry();
    let column = |major: u8| FrameRange::for_column(geom, BlockType::Clb, major).expect("column");
    let mut ranges: Vec<FrameRange> = cols
        .iter()
        .map(|&c| column(geom.major_for_clb_col(c).expect("valid CLB column")))
        .collect();
    let iob_right_major = g.clb_cols as u8 + 1;
    if right {
        ranges.push(column(iob_right_major));
    }
    if left {
        ranges.push(column(iob_right_major + 1));
    }
    let mut mem = base.clone();
    mem.clear_dirty();
    for r in &ranges {
        for f in r.frames() {
            mem.clear_frame(f);
        }
    }
    let mut jb = Jbits::from_memory_tracked(mem);
    let stats = jpg::apply_design(&mut jb, design).map_err(|e| e.to_string())?;
    Ok((jb.into_memory(), ranges, stats))
}

/// The back half `JpgProject` adds to every partial: the floorplan
/// preview and the `.bit` wrapper.
fn finish(device: Device, design: &Design, cons: &Constraints, bits: &Bitstream) -> BitFile {
    let mut region: Option<Rect> = None;
    let mut extend = |r: Rect| {
        region = Some(match region {
            None => r,
            Some(p) => Rect::new(
                p.row0.min(r.row0),
                p.col0.min(r.col0),
                p.row1.max(r.row1),
                p.col1.max(r.col1),
            ),
        });
    };
    for inst in &design.instances {
        if let Some(g) = cons.region_for(&inst.name) {
            extend(g);
        }
        if let Placement::Slice(s) = inst.placement {
            extend(Rect::new(s.tile.row, s.tile.col, s.tile.row, s.tile.col));
        }
    }
    let _ = jpg::render_floorplan(device, design, region);
    BitFile::new(format!("fig4+{}", design.name), device, true, bits.clone())
}

/// Per-layer samples and counts from the traced passes.
#[derive(Default)]
struct Layers {
    place_ns: Vec<u64>,
    route_ns: Vec<u64>,
    // Byte totals over every traced variant (throughputs).
    xdl_bytes: u64,
    emit_bytes: u64,
    encode_in_bytes: u64,
    // Counts over the fixed rounds only (repeat exactly per seed).
    implement_calls: u64,
    jbits_writes: u64,
    frames_checked: u64,
    frames_changed: u64,
    emit_frames: u64,
    fixed_plain_bytes: u64,
    fixed_encoded_bytes: u64,
    /// Whether the current variant belongs to a fixed round.
    counting: bool,
}

/// One variant through the decomposed path, spans around each call.
fn build_traced(
    spans: &mut Spans,
    id: u64,
    part: &Part,
    prefix: &str,
    nl: &Netlist,
    seed: u64,
    layers: &mut Layers,
) -> Result<Built, String> {
    let device = part.device;
    let base_mem = part.project.base_memory();
    spans.enter(id, "request");
    let region = part
        .base
        .constraints
        .region_for(&format!("{prefix}x"))
        .expect("prefix has a region");
    let clock_index = part
        .base
        .module_prefixes
        .iter()
        .position(|p| p == prefix)
        .expect("prefix is in the base design") as u8;
    let cons = jpg::workflow::module_constraints(prefix, region);
    let (design, flow) = spans.time(id, "cadflow.implement", || {
        reseeded(seed, |s| {
            let opts = flow_options(s, region, clock_index);
            cadflow::implement(nl, device, &cons, prefix, Some(&part.base.design), &opts)
        })
    })?;
    layers.place_ns.push(flow.place_time.as_nanos() as u64);
    layers.route_ns.push(flow.route_time.as_nanos() as u64);
    let (xdl_text, ucf_text) = spans.time(id, "xdl.print", || (xdl::print(&design), cons.print()));
    let (design, cons) = spans.time(id, "xdl.parse", || {
        Ok::<_, String>((
            xdl::parse(&xdl_text).map_err(|e| e.to_string())?,
            Constraints::parse(&ucf_text).map_err(|e| e.to_string())?,
        ))
    })?;

    // Wholesale: the target columns, coalesced, emitted in parallel.
    let (stamped, ranges, stats) =
        spans.time(id, "translate", || stamp(base_mem, &design, &cons))?;
    let wholesale = spans.time(id, "emit", || {
        let runs = bitgen::coalesce_frames(ranges.iter().flat_map(|r| r.frames()).collect());
        bitgen::partial_bitstream_par(&stamped, &runs)
    });
    spans.time(id, "report", || finish(device, &design, &cons, &wholesale));

    // Incremental: the dirty frames that no longer match the base.
    let (inc_mem, inc_ranges, _) =
        spans.time(id, "translate", || stamp(base_mem, &design, &cons))?;
    let changed = spans.time(id, "diff", || {
        part.cache.filter_changed(
            &inc_mem,
            inc_ranges
                .iter()
                .flat_map(|r| r.frames())
                .filter(|&f| inc_mem.is_frame_dirty(f)),
        )
    });
    let checked = inc_ranges
        .iter()
        .flat_map(|r| r.frames())
        .filter(|&f| inc_mem.is_frame_dirty(f))
        .count();
    let changed_len = changed.len();
    let incremental = spans.time(id, "emit", || {
        let runs = bitgen::coalesce_frames_bridged(changed, 1);
        bitgen::partial_bitstream_par(&inc_mem, &runs)
    });
    spans.time(id, "report", || {
        finish(device, &design, &cons, &incremental)
    });

    let wire_wholesale = spans.time(id, "wire.encode", || wire::encode(device, &wholesale, None));
    let wire_incremental = spans.time(id, "wire.encode", || {
        wire::encode(
            device,
            &incremental,
            Some(base_mem as &dyn wire::FrameSource),
        )
    });
    spans.exit();

    let plain_bytes = (wholesale.byte_len() + incremental.byte_len()) as u64;
    layers.xdl_bytes += (xdl_text.len() + ucf_text.len()) as u64;
    layers.emit_bytes += plain_bytes;
    layers.encode_in_bytes += plain_bytes;
    if layers.counting {
        layers.implement_calls += 1;
        layers.jbits_writes += 2 * stats.total() as u64;
        layers.frames_checked += checked as u64;
        layers.frames_changed += changed_len as u64;
        layers.emit_frames += ranges.iter().map(|r| r.len).sum::<usize>() as u64;
        layers.fixed_plain_bytes += plain_bytes;
        layers.fixed_encoded_bytes +=
            (wire_wholesale.bytes.len() + wire_incremental.bytes.len()) as u64;
    }
    Ok(Built {
        wholesale,
        incremental,
        stamped,
        wire_wholesale,
        wire_incremental,
    })
}

fn run_traced(
    report: &mut Report,
    parts: &[Part],
    cat: &[(String, Vec<Netlist>)],
    jobs: &[(usize, usize, usize)],
    seed: u64,
    seconds: f64,
) {
    let mut spans = Spans::new();
    let mut layers = Layers::default();
    let start = Instant::now();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let mut round = 0;
    let mut id = 1;
    // Each round runs the production path untraced, then the traced
    // decomposition under the same seeds; the outputs must agree byte
    // for byte, and the wall difference is the tracing overhead.
    while round < FIXED_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (j, &(p, r, v)) in jobs.iter().enumerate() {
            let part = &parts[p];
            let (prefix, variants) = &cat[r];
            let vseed = variant_seed(seed, round, j);
            report.attempted += 1;
            let t = Instant::now();
            let production = build(part, prefix, &variants[v], vseed);
            plain_ns += ns_since(t);
            layers.counting = round < FIXED_ROUNDS;
            let t = Instant::now();
            let replay = build_traced(
                &mut spans,
                id,
                part,
                prefix,
                &variants[v],
                vseed,
                &mut layers,
            );
            traced_ns += ns_since(t);
            id += 1;
            let same = match (&production, &replay) {
                (Ok(a), Ok(b)) => {
                    a.wholesale.words() == b.wholesale.words()
                        && a.incremental.words() == b.incremental.words()
                        && a.wire_wholesale.bytes == b.wire_wholesale.bytes
                        && a.wire_incremental.bytes == b.wire_incremental.bytes
                }
                _ => false,
            };
            report.check(same, || {
                format!(
                    "{prefix}{}: traced replay diverged from production",
                    variants[v].name
                )
            });
        }
        round += 1;
    }

    let p50_ms = |stage: &str| quantile(&mut spans.durations(stage), 0.5) as f64 / 1e6;
    let mb_per_s = |bytes: u64, stage: &str| {
        bytes as f64 / 1e6 / (spans.durations(stage).iter().sum::<u64>() as f64 / 1e9)
    };
    report.metric(
        "cadflow.implement_ms.p50",
        p50_ms("cadflow.implement"),
        "ms",
    );
    report.metric(
        "cadflow.place_ms.p50",
        quantile(&mut layers.place_ns, 0.5) as f64 / 1e6,
        "ms",
    );
    report.metric(
        "cadflow.route_ms.p50",
        quantile(&mut layers.route_ns, 0.5) as f64 / 1e6,
        "ms",
    );
    report.metric("cadflow.calls", layers.implement_calls as f64, "count");
    report.metric("xdl.print_ms.p50", p50_ms("xdl.print"), "ms");
    report.metric("xdl.parse_ms.p50", p50_ms("xdl.parse"), "ms");
    report.metric(
        "xdl.parse_mb_per_s",
        mb_per_s(layers.xdl_bytes, "xdl.parse"),
        "MB/s",
    );
    report.metric("translate.ms.p50", p50_ms("translate"), "ms");
    report.metric(
        "translate.jbits_writes",
        layers.jbits_writes as f64,
        "count",
    );
    report.metric("diff.ms.p50", p50_ms("diff"), "ms");
    report.metric("diff.frames_checked", layers.frames_checked as f64, "count");
    report.metric(
        "diff.changed_ratio",
        layers.frames_changed as f64 / layers.frames_checked.max(1) as f64,
        "ratio",
    );
    report.metric("emit.ms.p50", p50_ms("emit"), "ms");
    report.metric("emit.mb_per_s", mb_per_s(layers.emit_bytes, "emit"), "MB/s");
    report.metric("emit.frames", layers.emit_frames as f64, "count");
    report.metric("wire.encode_ms.p50", p50_ms("wire.encode"), "ms");
    report.metric(
        "wire.encode_mb_per_s",
        mb_per_s(layers.encode_in_bytes, "wire.encode"),
        "MB/s",
    );
    report.metric(
        "wire.ratio",
        layers.fixed_plain_bytes as f64 / layers.fixed_encoded_bytes.max(1) as f64,
        "ratio",
    );
    crate::attribute(report, &spans, traced_ns, plain_ns);
    println!(
        "library_build traced: {round} rounds, {} spans",
        spans.len()
    );
    crate::finish_trace(report, &spans, "library_build", seed);
}
