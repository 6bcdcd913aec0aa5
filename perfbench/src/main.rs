//! The repository's benchmark: one command runs a named workload from a
//! seed, checks its outputs, and prints every metric by name with its
//! unit; the last stdout line is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload library_build --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced.
//! `--trace 1` is the separate traced run: spans around each layer's
//! public calls give the per-layer metrics, the unattributed remainder
//! and the tracing overhead, and the spans are written as `obs::trace`
//! JSONL for `jpg-cli trace`.

mod catalogue;
mod fleet_serve;
mod fleet_soak;
mod library_build;
mod report;
mod spans;

use report::Report;
use std::process::ExitCode;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_us.p50", "us"),
    ("latency_us.p90", "us"),
    ("ops_per_s", "1/s"),
    ("port_us.mean", "us"),
    ("setup_rss_mb", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A layer the
/// workload does not cross reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("cadflow.implement_ms.p50", "ms"),
    ("cadflow.place_ms.p50", "ms"),
    ("cadflow.route_ms.p50", "ms"),
    ("cadflow.calls", "count"),
    ("xdl.print_ms.p50", "ms"),
    ("xdl.parse_ms.p50", "ms"),
    ("xdl.parse_mb_per_s", "MB/s"),
    ("translate.ms.p50", "ms"),
    ("translate.jbits_writes", "count"),
    ("diff.ms.p50", "ms"),
    ("diff.frames_checked", "count"),
    ("diff.changed_ratio", "ratio"),
    ("emit.ms.p50", "ms"),
    ("emit.mb_per_s", "MB/s"),
    ("emit.frames", "count"),
    ("wire.encode_ms.p50", "ms"),
    ("wire.encode_mb_per_s", "MB/s"),
    ("wire.ratio", "ratio"),
    ("apply.ms.p50", "ms"),
    ("apply.mb_per_s", "MB/s"),
    ("apply.peak_buffer_words", "words"),
    ("fabric.decode_ms.p50", "ms"),
    ("fabric.build_ms.p50", "ms"),
    ("fabric.redecodes", "count"),
    ("fabric.clock_us.p50", "us"),
    ("fabric.share", "ratio"),
    ("readback.ms.p50", "ms"),
    ("digest.ms.p50", "ms"),
    ("verify.reply_bytes", "bytes"),
    ("verify.digest_share", "ratio"),
    ("verify.escalations", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.hit_us.p50", "us"),
    ("store.miss_ms.p50", "ms"),
    ("sched.self_s", "s"),
    ("sched.us_per_request", "us"),
    ("sched.backend_share", "ratio"),
    ("sched.downloads_per_request", "ratio"),
    ("sched.retries", "count"),
    ("sched.resident_share", "ratio"),
    ("sched.coalesced_share", "ratio"),
    ("sched.stolen", "count"),
    ("sched.parallel_speedup", "ratio"),
    ("sched.capacity_rps", "1/s"),
    ("tracegen.ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.spans", "count"),
    ("obs.dropped", "count"),
    ("trace.unattributed_frac", "ratio"),
];

/// Run `setup` at least 5 times and for at least 1 s of host time,
/// record the median as `setup_s` and the resident high-water mark after
/// it as `setup_rss_mb`, and return the last set-up's result.
pub fn repeat_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let start = std::time::Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let out = setup();
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= 5 && start.elapsed().as_secs_f64() >= 1.0 {
            report.metric("setup_s", report::median_f64(&secs), "s");
            report.metric("setup_rss_mb", report::peak_rss_mib(), "MiB");
            return out;
        }
    }
}

const WORKLOADS: &[&str] = &["library_build", "fleet_soak", "fleet_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_partial: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        corrupt_partial: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            // Test hook: corrupt the first wholesale partial of a
            // library_build run so its correctness check must fail.
            "--corrupt-partial" => args.corrupt_partial = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Write the traced run's spans and record their counts.
pub fn finish_trace(report: &mut Report, spans: &spans::Spans, workload: &str, seed: u64) {
    report.metric("obs.spans", spans.len() as f64, "count");
    report.metric("obs.dropped", 0.0, "count");
    match spans::write_dump(spans, workload, seed) {
        Ok(path) => println!("trace dump: {path} (read it with `jpg-cli trace {path}`)"),
        Err(e) => report.check(false, || format!("writing the trace dump: {e}")),
    }
}

/// Attribute the traced wall to layers by span self time, and report the
/// remainder and the tracing overhead.
pub fn attribute(report: &mut Report, spans: &spans::Spans, traced_ns: u64, plain_ns: u64) {
    let by_stage = spans.self_time_by_stage();
    let attributed: u64 = by_stage
        .iter()
        .filter(|(stage, _)| **stage != "request")
        .map(|(_, ns)| ns)
        .sum();
    for (stage, ns) in &by_stage {
        println!(
            "  self time {stage:<20} {:>10.3} s  {:>5.1}% of traced wall",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / traced_ns.max(1) as f64
        );
    }
    let remainder = traced_ns.saturating_sub(attributed);
    println!(
        "  unattributed remainder {:.3} s of {:.3} s traced wall",
        remainder as f64 / 1e9,
        traced_ns as f64 / 1e9
    );
    report.metric(
        "trace.unattributed_frac",
        remainder as f64 / traced_ns.max(1) as f64,
        "ratio",
    );
    report.metric(
        "obs.trace_overhead_frac",
        (traced_ns as f64 - plain_ns as f64) / plain_ns.max(1) as f64,
        "ratio",
    );
}

/// Host facts every report carries.
fn host_facts(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host: nproc={nproc} profile={profile} git={} rustc={:?} seed={seed}",
        run("git", &["rev-parse", "--short=12", "HEAD"]),
        run("rustc", &["--version"]),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_facts(args.seed));
    let run = match args.workload.as_str() {
        "library_build" => {
            library_build::run(args.seed, args.seconds, args.trace, args.corrupt_partial)
        }
        "fleet_soak" => fleet_soak::run(args.seed, args.seconds, args.trace),
        _ => fleet_serve::run(args.seed, args.seconds, args.trace),
    };
    println!("peak resident set {:.1} MiB", report::peak_rss_mib());
    for failure in &run.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in names {
        println!("  {name:<28} {:>16.6} {unit}", run.get(name).unwrap_or(0.0));
    }
    println!("{}", run.json_line(names));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
