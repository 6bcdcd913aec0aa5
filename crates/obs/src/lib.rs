//! Workspace-wide observability: metrics, span tracing, exporters.
//!
//! The paper's whole argument is quantitative — partial bitstreams are
//! about a third the size of complete ones and proportionally faster to
//! generate and download (PAPER.md §4.1, Figure 4) — so the pipeline
//! needs a first-class way to account for where bytes and time go.
//! This crate is that substrate:
//!
//! * [`metrics`] — lock-free [`Counter`]/[`Gauge`]/[`Histogram`]
//!   instruments (promoted from `fleet::metrics`, with configurable
//!   histogram buckets and a zero-saturating gauge);
//! * [`registry`] — named, labeled instruments in a [`Registry`]
//!   (process-global via [`global`], or per-component) with
//!   deterministic [`Snapshot`]s;
//! * [`mod@span`] — `obs::span!("stage")` RAII stage timers for host-clock
//!   work and [`record_duration`] for modelled SelectMAP port time, both
//!   recording [`TraceSpan`]s (tagged `clock=host` or `clock=port`, each
//!   pointing at the span open on its thread as `parent`) while a
//!   [`collect`] call is running, and nothing otherwise;
//! * [`export`] — Prometheus text, JSON snapshot and table renderers
//!   for metric snapshots, all golden-test stable;
//! * [`trace`] — the one span type, [`TraceSpan`], and what reads it:
//!   deterministic causal request tracing over virtual time
//!   ([`ShardTracer`] rings merged into a [`Trace`]), Chrome
//!   `trace_event`/JSONL exporters, the JSONL reader, the per-stage
//!   breakdown and critical-path analysis that `jpg-cli trace` and
//!   `jpg-cli report` share, and the [`SloPolicy`]/[`SloReport`]
//!   error-budget engine.
//!
//! The `obs-off` cargo feature compiles span recording out entirely;
//! metric instruments stay live either way.

pub mod export;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use export::{prometheus, snapshot_json, table};
pub use metrics::{presets, Counter, Gauge, Histogram};
pub use registry::{global, Registry, Sample, Snapshot, Value};
pub use span::{collect, enabled, record_duration, Span};
pub use trace::{
    FieldValue, ShardTracer, SloPolicy, SloReport, SloSample, Trace, TraceParseError, TraceSpan,
    TRACE_RING_CAPACITY,
};
