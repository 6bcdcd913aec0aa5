//! The engine behind `jpg-cli report`: run a Figure-4-style workload
//! through the full pipeline — parse, translate, diff, generate,
//! download, verify — inside [`obs::collect`] with the metric registry
//! live, then render the per-stage breakdown and metric snapshot. The
//! stage table is a trace analysis: the same
//! [`obs::trace::stage_breakdown`] that `jpg-cli trace` runs on a dump,
//! over the collected spans.
//!
//! The workload mirrors the paper's evaluation scenario (§4.1,
//! Figure 4): a multi-region base design on a Virtex part, a library of
//! interchangeable module variants per region, partial bitstreams
//! generated for each variant and pushed to a simulated board with a
//! region readback compare after every download. Stage timings mix two
//! clocks deliberately: CAD-side stages (parse/translate/diff/generate)
//! are wall-clock spans, while download and verify carry the *simulated*
//! SelectMAP byte-cycle durations — the paper's argument is about port
//! time, not host time. The board's re-decode of its fabric after each
//! download is host work and shows as its own wall-clock
//! `fabric_decode` stage. Each span's `clock` field (`host` or `port`)
//! says which clock it ran on.

use crate::cache::FrameCache;
use crate::project::JpgProject;
use crate::workflow::{
    base_modules, build_base, fig4, implement_variant, BaseDesign, RegionSpec, FIG4_DEVICE,
};
use cadflow::gen;
use jbits::Xhwif;
use simboard::port::download_time;
use simboard::SimBoard;
use std::time::Duration;
use virtex::Device;
use xdl::{Constraints, Rect};

/// Metric names every report run must register — the CI schema-drift
/// guard (`jpg-cli report --check-schema`) fails if any is absent from
/// the snapshot. Keep this list in sync with the instrumentation sites;
/// a rename without a matching update here is exactly the drift the
/// guard exists to catch.
pub const REQUIRED_METRICS: &[&str] = &[
    "xdl_lines_parsed_total",
    "xdl_records_parsed_total",
    "jbits_writes_total",
    "jpg_frames_dirtied_total",
    "framecache_hits_total",
    "framecache_misses_total",
    "framecache_primed_total",
    "bitgen_runs_total",
    "bitgen_frames_emitted_total",
    "bitgen_bytes_total",
    "interp_packets_total",
    "simboard_downloads_total",
    "simboard_download_bytes_total",
    "simboard_fabric_decodes_total",
    "simboard_fabric_settle_passes_total",
    "simboard_fabric_tiles_decoded_total",
    "wire_encodes_total",
    "wire_bytes_on_wire_total",
    "wire_wholesale_fallback_total",
    "wire_applies_total",
    "cadflow_place_moves_total",
    "cadflow_route_expansions_total",
    "cadflow_route_heap_pushes_total",
];

/// The canonical pipeline order for the stage table; spans outside this
/// list (bitgen internals, …) sort after, heaviest first.
pub const STAGE_ORDER: &[&str] = &[
    "parse",
    "translate",
    "diff",
    "generate",
    "download",
    "fabric_decode",
    "verify",
];

/// Which scenario `report` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure-4 scenario: XCV100, three full-height regions,
    /// ten module variants.
    Fig4,
    /// A one-region, two-variant XCV50 scenario for fast runs (debug
    /// builds, CI smoke).
    Smoke,
}

impl Workload {
    /// Parse a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fig4" => Some(Workload::Fig4),
            "smoke" => Some(Workload::Smoke),
            _ => None,
        }
    }

    /// The workload's name as the CLI spells it.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Fig4 => "fig4",
            Workload::Smoke => "smoke",
        }
    }
}

fn plan(workload: Workload) -> (Device, u64, Vec<RegionSpec>) {
    match workload {
        Workload::Fig4 => (FIG4_DEVICE, 11, fig4()),
        Workload::Smoke => (
            Device::XCV50,
            7,
            vec![RegionSpec {
                prefix: "mod1/".into(),
                region: Rect::new(0, 2, 15, 7),
                variants: vec![gen::counter("up", 3), gen::down_counter("down", 3)],
            }],
        ),
    }
}

/// The outcome of one report run.
#[derive(Debug)]
pub struct Report {
    /// Which workload ran.
    pub workload: Workload,
    /// Runs aggregated into the stage table (1 = single shot; see
    /// [`run_repeated`]).
    pub repeats: usize,
    /// Per-stage aggregates, pipeline stages first. With repeats > 1,
    /// `count`/`total_ns` are per-run medians and `max_ns` the overall
    /// maximum.
    pub stages: Vec<obs::trace::StageStat>,
    /// The collected spans (for JSONL export).
    pub trace: obs::Trace,
    /// Snapshot of the global metric registry after the run.
    pub snapshot: obs::Snapshot,
    /// Partial bitstreams generated and downloaded.
    pub partials: usize,
    /// Bytes of the base design's complete bitstream.
    pub full_bytes: usize,
    /// Mean partial size in bytes.
    pub mean_partial_bytes: usize,
    /// Region readback compares that found a mismatch (0 on a clean run).
    pub verify_failures: usize,
}

/// Run `workload` end to end with tracing live and collect the report.
pub fn run(workload: Workload) -> Result<Report, String> {
    let (result, trace) = obs::collect(|| run_traced(workload));
    let (partials, full_bytes, partial_bytes, verify_failures) = result?;

    let mut stages = obs::trace::stage_breakdown(trace.spans.iter().map(|s| (s.stage, s.dur_ns)));
    stages.sort_by_key(|s| {
        STAGE_ORDER
            .iter()
            .position(|&n| n == s.stage)
            .unwrap_or(STAGE_ORDER.len())
    });
    Ok(Report {
        workload,
        repeats: 1,
        stages,
        trace,
        snapshot: obs::global().snapshot(),
        partials,
        full_bytes,
        mean_partial_bytes: partial_bytes.checked_div(partials).unwrap_or(0),
        verify_failures,
    })
}

/// Run `workload` `repeats` times and report per-stage **medians** of
/// the per-run totals (plus the overall per-stage maximum), damping
/// single-shot scheduling noise. Spans and scalar counts come from the
/// final run; the metric snapshot is the global registry after all
/// runs, so counter totals accumulate across repeats.
pub fn run_repeated(workload: Workload, repeats: usize) -> Result<Report, String> {
    if repeats == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let mut runs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        runs.push(run(workload)?);
    }
    let mut report = runs.pop().expect("at least one run");
    report.repeats = repeats;
    if runs.is_empty() {
        return Ok(report);
    }
    for stage in report.stages.iter_mut() {
        let mut totals: Vec<u64> = vec![stage.total_ns];
        let mut counts: Vec<u64> = vec![stage.count];
        for prior in &runs {
            if let Some(p) = prior.stages.iter().find(|s| s.stage == stage.stage) {
                totals.push(p.total_ns);
                counts.push(p.count);
                stage.max_ns = stage.max_ns.max(p.max_ns);
            }
        }
        stage.total_ns = median(&mut totals);
        stage.count = median(&mut counts);
    }
    Ok(report)
}

/// Lower median (in place): the middle element after sorting.
fn median(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

fn run_traced(workload: Workload) -> Result<(usize, usize, usize, usize), String> {
    let (device, seed, regions) = plan(workload);

    // Phase 1: the base design (counters for translate/bitgen fire here;
    // the stage spans start with the per-variant JPG runs below).
    let base: BaseDesign =
        build_base("report", device, &base_modules(&regions), seed).map_err(|e| e.to_string())?;
    let project = JpgProject::from_memory("report", base.memory.clone());
    let full_bytes = base.bitstream.bitstream.byte_len();

    // Prime the frame cache with the base image over the module regions
    // (plus the IOB edge columns the partials may touch).
    let cache = FrameCache::new();
    for r in &regions {
        cache.prime_frames(
            &base.memory,
            crate::workflow::region_frame_ranges(&base.memory, r.region)
                .iter()
                .flat_map(|fr| fr.frames()),
        );
    }

    // The board boots with the complete base bitstream — the download
    // stage's first, biggest sample.
    let mut board = SimBoard::new(device);
    board
        .set_configuration(&base.bitstream.bitstream)
        .map_err(|e| e.to_string())?;

    let mut partials = 0usize;
    let mut partial_bytes = 0usize;
    let mut verify_failures = 0usize;

    // Phase 2a (parallel): re-implement every non-base variant and
    // generate its partial two ways — incremental for the diff stage
    // (dirty-frame tracking + frame-cache compare; only valid over base
    // content, so generated but not downloaded) and wholesale from the
    // XDL/UCF text (the paper's JPG input path, safe over any variant).
    // The CAD stages of different variants overlap across worker
    // threads; spans land in the shared collector regardless of thread.
    let jobs: Vec<(&RegionSpec, usize)> = regions
        .iter()
        .flat_map(|r| (1..r.variants.len()).map(move |vi| (r, vi)))
        .collect();
    let generated: Vec<crate::project::PartialResult> =
        crate::par_map(&jobs, crate::available_threads(), |&(r, vi)| {
            let variant = implement_variant(&base, &r.prefix, &r.variants[vi], seed + vi as u64)
                .map_err(|e| e.to_string())?;
            let constraints = Constraints::parse(&variant.ucf).map_err(|e| e.to_string())?;
            let _incremental = project
                .generate_partial_incremental(&variant.design, &constraints, &cache)
                .map_err(|e| e.to_string())?;
            project
                .generate_partial(&variant.xdl, &variant.ucf)
                .map_err(|e| e.to_string())
        })
        .into_iter()
        .collect::<Result<_, String>>()?;

    // Phase 2b (serial, job order): push each partial to the single
    // board as a compressed wire container and verify its region — the
    // board models one SelectMAP port, so downloads cannot overlap.
    // The first partial onto a region may delta-code against the base
    // image (the device still holds base content there); every later
    // one lands on variant content, so the encoder must fall back to
    // the base-free wholesale container. The fallback counter is part
    // of the pinned metric schema, so register it even when the
    // workload is too small to ever take the fallback path.
    let fallbacks = obs::counter!("wire_wholesale_fallback_total");
    for (partial, &(_, vi)) in generated.iter().zip(&jobs) {
        partials += 1;
        partial_bytes += partial.bitstream.byte_len();

        let encoded = if vi == 1 {
            wire::encode(device, &partial.bitstream, Some(&base.memory))
        } else {
            fallbacks.inc();
            wire::encode(device, &partial.bitstream, None)
        };
        board
            .set_configuration_wire(&encoded.bytes)
            .map_err(|e| e.to_string())?;

        // Verify: read the partial's own columns back and compare with
        // the stamped image. Port time is simulated, so the verify stage
        // records the readback's modeled duration.
        let ranges = crate::workflow::region_frame_ranges(&partial.memory, partial.region);
        let mut readback_bytes = 0usize;
        let mut mismatch = false;
        for range in &ranges {
            let words = board
                .get_configuration_region(*range)
                .map_err(|e| e.to_string())?;
            readback_bytes += words.len() * 4;
            let fw = partial.memory.frame_words();
            for (i, f) in range.frames().enumerate() {
                if words[i * fw..(i + 1) * fw] != *partial.memory.frame(f) {
                    mismatch = true;
                }
            }
        }
        obs::record_duration(
            "verify",
            download_time(readback_bytes),
            &[("bytes", readback_bytes.into())],
        );
        if mismatch {
            verify_failures += 1;
        }
    }
    Ok((partials, full_bytes, partial_bytes, verify_failures))
}

/// Names from [`REQUIRED_METRICS`] missing from the snapshot — empty on
/// a healthy build.
pub fn missing_metrics(report: &Report) -> Vec<&'static str> {
    REQUIRED_METRICS
        .iter()
        .copied()
        .filter(|name| !report.snapshot.has_metric(name))
        .collect()
}

/// Human-readable report: workload summary, stage table, metric table.
pub fn render_table(report: &Report) -> String {
    let mut out = String::new();
    let runs = if report.repeats > 1 {
        format!(" (stage medians over {} runs)", report.repeats)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "workload {}: {} partials, full bitstream {} bytes, mean partial {} bytes ({:.1}%), {} verify failures{}\n\n",
        report.workload.name(),
        report.partials,
        report.full_bytes,
        report.mean_partial_bytes,
        100.0 * report.mean_partial_bytes as f64 / report.full_bytes.max(1) as f64,
        report.verify_failures,
        runs,
    ));
    let width = report
        .stages
        .iter()
        .map(|s| s.stage.len())
        .max()
        .unwrap_or(0)
        .max("stage".len());
    let row = |cells: [&str; 5]| {
        format!(
            "{:width$}  {:>6}  {:>12}  {:>12}  {:>12}\n",
            cells[0], cells[1], cells[2], cells[3], cells[4]
        )
    };
    let dur = |ns: u64| format!("{:?}", Duration::from_nanos(ns));
    out.push_str(&row(["stage", "count", "total", "mean", "max"]));
    for s in &report.stages {
        out.push_str(&row([
            &s.stage,
            &s.count.to_string(),
            &dur(s.total_ns),
            &dur(s.mean_ns()),
            &dur(s.max_ns),
        ]));
    }
    out.push('\n');
    out.push_str(&obs::table(&report.snapshot));
    out
}

/// JSON report: workload, stage aggregates, metric samples. One object,
/// stable key order (schema-checked in CI).
pub fn render_json(report: &Report) -> String {
    let stages: Vec<String> = report
        .stages
        .iter()
        .map(|s| {
            format!(
                "{{\"stage\":\"{}\",\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"max_ns\":{}}}",
                s.stage,
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.max_ns
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"repeats\":{},\"partials\":{},\"full_bytes\":{},\"mean_partial_bytes\":{},\"verify_failures\":{},\"stages\":[{}],\"metrics\":{}}}",
        report.workload.name(),
        report.repeats,
        report.partials,
        report.full_bytes,
        report.mean_partial_bytes,
        report.verify_failures,
        stages.join(","),
        obs::snapshot_json(&report.snapshot),
    )
}

/// Prometheus text-format export of the metric snapshot.
pub fn render_prometheus(report: &Report) -> String {
    obs::prometheus(&report.snapshot)
}

/// JSONL export of the collected spans in the `obs::trace` schema, the
/// format `jpg-cli trace` reads.
pub fn render_jsonl(report: &Report) -> String {
    report.trace.jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;

    // One in-process smoke run covers the engine; the CLI integration
    // tests (tests/cli.rs) cover the formats end to end in a subprocess
    // with a clean global registry.
    #[test]
    fn smoke_workload_covers_all_stages_and_metrics() {
        let report = run(Workload::Smoke).expect("smoke workload runs");
        assert_eq!(report.verify_failures, 0);
        assert!(report.partials >= 1);
        assert!(report.mean_partial_bytes > 0);
        assert!(report.mean_partial_bytes < report.full_bytes / 2);
        assert_eq!(missing_metrics(&report), Vec::<&str>::new());
        // All seven pipeline stages appear, in canonical order.
        let names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
        let canonical: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| STAGE_ORDER.contains(n))
            .collect();
        assert_eq!(canonical, STAGE_ORDER);
        let table = render_table(&report);
        for stage in STAGE_ORDER {
            assert!(table.contains(stage), "stage {stage} missing from table");
        }
        let json = render_json(&report);
        assert!(json.contains("\"workload\":\"smoke\""));
        assert!(json.contains("\"stage\":\"download\""));
        let prom = render_prometheus(&report);
        assert!(prom.contains("# TYPE bitgen_bytes_total counter"));
        let dump = obs::trace::parse_jsonl_strict(&render_jsonl(&report)).expect("jsonl parses");
        assert_eq!(dump.len(), report.trace.spans.len());
        assert!(dump
            .iter()
            .any(|s| s.stage == "download" && s.field("clock") == Some("port")));
        assert!(dump
            .iter()
            .any(|s| s.stage == "generate" && s.field("clock") == Some("host")));

        // Repeats ride in the same test, to keep the engine's runs in
        // one place.
        let rep = run_repeated(Workload::Smoke, 3).expect("repeated smoke runs");
        assert_eq!(rep.repeats, 3);
        assert_eq!(rep.verify_failures, 0);
        let canonical: Vec<&str> = rep
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .filter(|n| STAGE_ORDER.contains(n))
            .collect();
        assert_eq!(canonical, STAGE_ORDER);
        assert!(render_table(&rep).contains("medians over 3 runs"));
        assert!(render_json(&rep).contains("\"repeats\":3"));
        assert!(run_repeated(Workload::Smoke, 0).is_err());
    }
}
