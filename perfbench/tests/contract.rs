//! The benchmark's own checks, run against the built binary:
//! - one seed run twice gives identical virtual, modelled and count
//!   metrics;
//! - a corrupted partial fails the run;
//! - every metric the binary prints is declared in `BENCHMARK.json`.

use std::process::Command;

const SEED: &str = "5";

type Metrics = Vec<(String, String)>;

/// Run one short benchmark; returns whether it exited 0, its JSON result
/// line, and that line's metrics as `(name, value text)`.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (bool, String, Metrics) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "1"])
        .args(["--trace", trace])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line").to_string();
    let metrics = line
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1
        .split("}, ")
        .map(|m| {
            let (name, rest) = m
                .split_once("\": {\"value\": ")
                .expect("a name and a value");
            let value = rest.split(',').next().expect("a value");
            (name.trim_start_matches('"').to_string(), value.to_string())
        })
        .collect();
    (out.status.success(), line, metrics)
}

fn value<'a>(metrics: &'a Metrics, name: &str) -> Option<&'a str> {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn one_seed_twice_repeats_virtual_modelled_and_count_metrics() {
    let cases: [(&str, &str, &[&str]); 5] = [
        ("library_build", "0", &["port_us.mean"]),
        (
            "fleet_soak",
            "0",
            &["latency_us.p50", "latency_us.p90", "port_us.mean"],
        ),
        ("fleet_serve", "0", &["port_us.mean"]),
        (
            "library_build",
            "1",
            &[
                "cadflow.calls",
                "translate.jbits_writes",
                "diff.frames_checked",
                "diff.changed_ratio",
                "emit.frames",
                "wire.ratio",
            ],
        ),
        (
            "fleet_soak",
            "1",
            &[
                "sched.downloads_per_request",
                "sched.retries",
                "sched.resident_share",
                "sched.coalesced_share",
                "sched.stolen",
                "sched.capacity_rps",
                "verify.reply_bytes",
                "verify.digest_share",
                "verify.escalations",
                "store.hit_ratio",
            ],
        ),
    ];
    for (workload, trace, exact) in cases {
        let (ok_a, line, a) = run(workload, trace, &[]);
        let (ok_b, _, b) = run(workload, trace, &[]);
        assert!(ok_a && ok_b, "{workload} --trace {trace} failed: {line}");
        for name in exact {
            assert!(value(&a, name).is_some(), "{workload} prints no {name}");
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{workload} --trace {trace}: {name} differs between two runs of one seed"
            );
        }
    }
}

#[test]
fn a_corrupted_partial_fails_the_run() {
    let (ok, line, _) = run("library_build", "0", &["--corrupt-partial"]);
    assert!(!ok, "a failed check must fail the command: {line}");
    assert!(line.contains("\"correct\": false"), "{line}");
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the package");
    let mut printed = 0;
    for trace in ["0", "1"] {
        let (ok, line, metrics) = run("library_build", trace, &[]);
        assert!(ok, "{line}");
        printed += metrics.len();
        for (name, _) in &metrics {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} is not declared in BENCHMARK.json"
            );
        }
    }
    let workloads = 3;
    assert_eq!(
        printed + workloads,
        spec.matches("\"name\": \"").count(),
        "BENCHMARK.json declares a metric the binary does not print"
    );
}
