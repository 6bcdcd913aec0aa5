//! Golden-output tests for the exporters and a concurrency smoke test
//! for the registry. The exporters promise deterministic output for a
//! given snapshot — these tests pin the exact bytes.

use obs::{FieldValue, Registry, Trace, TraceSpan};
use std::time::Duration;

fn golden_registry() -> Registry {
    let r = Registry::new();
    r.counter("bitgen_bytes_total", &[]).add(4096);
    r.counter("interp_errors_total", &[("category", "crc")])
        .add(2);
    r.counter("interp_errors_total", &[("category", "sync\"odd\"")])
        .inc();
    let g = r.gauge("fleet_queue_depth", &[]);
    g.inc();
    g.inc();
    g.dec();
    let h = r.histogram_with("download_latency_us", &[], &[10, 100]);
    h.record(Duration::from_micros(5));
    h.record(Duration::from_micros(50));
    h.record(Duration::from_micros(2500)); // 2.5 ms → overflow bucket
    r
}

#[test]
fn prometheus_golden() {
    let text = obs::prometheus(&golden_registry().snapshot());
    let expected = "\
# TYPE bitgen_bytes_total counter
bitgen_bytes_total 4096
# TYPE download_latency_us histogram
download_latency_us_bucket{le=\"10\"} 1
download_latency_us_bucket{le=\"100\"} 2
download_latency_us_bucket{le=\"+Inf\"} 3
download_latency_us_sum 2555
download_latency_us_count 3
# TYPE fleet_queue_depth gauge
fleet_queue_depth 1
fleet_queue_depth_high_water 2
# TYPE interp_errors_total counter
interp_errors_total{category=\"crc\"} 2
interp_errors_total{category=\"sync\\\"odd\\\"\"} 1
";
    assert_eq!(text, expected);
}

#[test]
fn snapshot_json_golden() {
    let json = obs::snapshot_json(&golden_registry().snapshot());
    let expected = concat!(
        "{\"samples\":[",
        "{\"name\":\"bitgen_bytes_total\",\"labels\":{},\"type\":\"counter\",\"value\":4096},",
        "{\"name\":\"download_latency_us\",\"labels\":{},\"type\":\"histogram\",",
        "\"bounds_us\":[10,100],\"buckets\":[1,1,1],\"count\":3,\"sum_ns\":2555000,\"max_ns\":2500000},",
        "{\"name\":\"fleet_queue_depth\",\"labels\":{},\"type\":\"gauge\",\"current\":1,\"high_water\":2},",
        "{\"name\":\"interp_errors_total\",\"labels\":{\"category\":\"crc\"},\"type\":\"counter\",\"value\":2},",
        "{\"name\":\"interp_errors_total\",\"labels\":{\"category\":\"sync\\\"odd\\\"\"},\"type\":\"counter\",\"value\":1}",
        "]}"
    );
    assert_eq!(json, expected);
}

/// The JSONL span schema that `jpg-cli report --format jsonl` writes
/// and `jpg-cli trace` reads: a host-clock stage with a child that
/// carries modelled port time, and a stage name that needs escaping.
#[test]
fn trace_jsonl_golden() {
    let parse = TraceSpan::new(1, 0, "parse", 1_000, 42_000)
        .field("clock", FieldValue::Str("host"))
        .field("records", FieldValue::U64(7));
    let mut download = TraceSpan::new(2, 1, "line\"break\"", 50_000, 10)
        .field("clock", FieldValue::Str("port"))
        .field("delta", FieldValue::I64(-3));
    download.seq = 2;
    let trace = Trace {
        spans: vec![parse, download],
        dropped: 0,
    };
    let expected = "\
{\"trace\":1,\"parent\":0,\"stage\":\"parse\",\"start_ns\":1000,\"dur_ns\":42000,\"shard\":0,\"seq\":0,\"board\":-1,\"fields\":{\"clock\":\"host\",\"records\":7}}
{\"trace\":2,\"parent\":1,\"stage\":\"line\\\"break\\\"\",\"start_ns\":50000,\"dur_ns\":10,\"shard\":0,\"seq\":2,\"board\":-1,\"fields\":{\"clock\":\"port\",\"delta\":-3}}
";
    assert_eq!(trace.jsonl(), expected);
}

#[test]
fn table_renders_every_sample() {
    let text = obs::table(&golden_registry().snapshot());
    assert!(text.contains("bitgen_bytes_total"));
    assert!(text.contains("4096"));
    assert!(text.contains("1 (high 2)"));
    assert!(text.contains("interp_errors_total{category=\"crc\"}"));
    assert!(text.contains("n=3"));
}

#[test]
fn registry_survives_eight_thread_hammer() {
    const THREADS: usize = 8;
    const ITERS: u64 = 10_000;
    let r = Registry::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let r = &r;
            s.spawn(move || {
                // Re-register every iteration on half the threads to race
                // registration against recording on the others.
                let c = r.counter("hammer_total", &[]);
                let g = r.gauge("hammer_depth", &[]);
                let h = r.histogram("hammer_latency_us", &[]);
                for i in 0..ITERS {
                    if t % 2 == 0 {
                        r.counter("hammer_total", &[]).inc();
                    } else {
                        c.inc();
                    }
                    g.inc();
                    h.record(Duration::from_micros(i % 512));
                    g.dec();
                }
            });
        }
    });
    let snap = r.snapshot();
    assert_eq!(
        snap.counter_total("hammer_total"),
        Some(THREADS as u64 * ITERS)
    );
    let h = r.histogram("hammer_latency_us", &[]);
    assert_eq!(h.count(), THREADS as u64 * ITERS);
    assert_eq!(
        h.bucket_counts().iter().sum::<u64>(),
        THREADS as u64 * ITERS
    );
    let g = r.gauge("hammer_depth", &[]);
    assert_eq!(g.current(), 0);
    assert!(g.high_water() >= 1 && g.high_water() <= THREADS as i64);
}
