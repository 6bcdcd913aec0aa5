//! Metric exporters: Prometheus text format, JSON snapshot, and a
//! human-readable table. Spans export through [`crate::Trace`].
//!
//! All output is deterministic for a given [`Snapshot`]:
//! samples are already sorted by `(name, labels)`, JSON object keys are
//! emitted in a fixed order, and label values are escaped — so exporter
//! output can be golden-tested and diffed across runs.
//!
//! Unit conventions: histogram bucket bounds (`le`) are microseconds,
//! matching the `_us` suffix the workspace uses for latency metrics;
//! `_sum` is exported in microseconds as a decimal so bucket bounds and
//! sums share a unit.

use crate::registry::{Sample, Snapshot, Value};
use crate::trace::json_string;
use std::fmt::Write as _;
use std::time::Duration;

/// Escape a Prometheus label value: backslash, double quote, newline.
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render `{a="1",b="2"}` (empty string when there are no labels),
/// optionally with an extra label appended (used for `le`).
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// Counters and gauges map directly (the gauge's high-water mark is a
/// companion `<name>_high_water` gauge). Histograms emit cumulative
/// `<name>_bucket{le="…"}` series with microsecond bounds, then
/// `<name>_sum` (µs) and `<name>_count`.
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_typed: Option<(&str, &str)> = None;
    for s in &snap.samples {
        let kind = match s.value {
            Value::Counter(_) => "counter",
            Value::Gauge { .. } => "gauge",
            Value::Histogram { .. } => "histogram",
        };
        if last_typed != Some((s.name.as_str(), kind)) {
            let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
            last_typed = Some((s.name.as_str(), kind));
        }
        match &s.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", s.name, prom_labels(&s.labels, None), v);
            }
            Value::Gauge {
                current,
                high_water,
            } => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    s.name,
                    prom_labels(&s.labels, None),
                    current
                );
                let _ = writeln!(
                    out,
                    "{}_high_water{} {}",
                    s.name,
                    prom_labels(&s.labels, None),
                    high_water
                );
            }
            Value::Histogram {
                bounds_us,
                buckets,
                count,
                sum_ns,
                ..
            } => {
                let mut cum = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cum += b;
                    let le = match bounds_us.get(i) {
                        Some(us) => us.to_string(),
                        None => "+Inf".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        prom_labels(&s.labels, Some(("le", &le))),
                        cum
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    s.name,
                    prom_labels(&s.labels, None),
                    format_us(*sum_ns)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    s.name,
                    prom_labels(&s.labels, None),
                    count
                );
            }
        }
    }
    out
}

/// Nanoseconds as a microsecond decimal with no trailing zeros
/// (`1500` ns → `1.5`).
fn format_us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        whole.to_string()
    } else {
        let s = format!("{whole}.{frac:03}");
        s.trim_end_matches('0').to_string()
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

fn json_u64s(v: &[u64]) -> String {
    let parts: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn json_sample(s: &Sample) -> String {
    let head = format!(
        "{{\"name\":{},\"labels\":{}",
        json_string(&s.name),
        json_labels(&s.labels)
    );
    match &s.value {
        Value::Counter(v) => format!("{head},\"type\":\"counter\",\"value\":{v}}}"),
        Value::Gauge {
            current,
            high_water,
        } => format!(
            "{head},\"type\":\"gauge\",\"current\":{current},\"high_water\":{high_water}}}"
        ),
        Value::Histogram {
            bounds_us,
            buckets,
            count,
            sum_ns,
            max_ns,
        } => format!(
            "{head},\"type\":\"histogram\",\"bounds_us\":{},\"buckets\":{},\"count\":{count},\"sum_ns\":{sum_ns},\"max_ns\":{max_ns}}}",
            json_u64s(bounds_us),
            json_u64s(buckets)
        ),
    }
}

/// Render a snapshot as one JSON object: `{"samples":[…]}` with fixed
/// key order, samples sorted by `(name, labels)`.
pub fn snapshot_json(snap: &Snapshot) -> String {
    let parts: Vec<String> = snap.samples.iter().map(json_sample).collect();
    format!("{{\"samples\":[{}]}}", parts.join(","))
}

fn fmt_duration(ns: u64) -> String {
    format!("{:?}", Duration::from_nanos(ns))
}

/// Render a snapshot as an aligned human-readable table.
pub fn table(snap: &Snapshot) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for s in &snap.samples {
        let name = format!("{}{}", s.name, prom_labels(&s.labels, None));
        let value = match &s.value {
            Value::Counter(v) => v.to_string(),
            Value::Gauge {
                current,
                high_water,
            } => format!("{current} (high {high_water})"),
            Value::Histogram {
                count,
                sum_ns,
                max_ns,
                ..
            } => {
                let mean = if *count == 0 { 0 } else { sum_ns / count };
                format!(
                    "n={count} mean={} max={}",
                    fmt_duration(mean),
                    fmt_duration(*max_ns)
                )
            }
        };
        rows.push((name, value));
    }
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in rows {
        let _ = writeln!(out, "{name:width$}  {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_escaping() {
        assert_eq!(prom_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn json_escaping() {
        let r = crate::Registry::new();
        r.counter("c", &[("k", "a\"b\\c\n\t\u{1}")]).inc();
        let json = snapshot_json(&r.snapshot());
        assert!(
            json.contains(r#""labels":{"k":"a\"b\\c\n\t\u0001"}"#),
            "{json}"
        );
    }

    #[test]
    fn format_us_trims_zeros() {
        assert_eq!(format_us(1_500), "1.5");
        assert_eq!(format_us(2_000), "2");
        assert_eq!(format_us(1), "0.001");
        assert_eq!(format_us(0), "0");
    }
}
