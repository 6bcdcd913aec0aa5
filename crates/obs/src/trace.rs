//! The one span type ([`TraceSpan`]) and its analysis: deterministic
//! causal request tracing over virtual time, plus the SLO engine.
//! Wall-clock stage spans from [`crate::span!`] use the same type, so
//! every exporter and reader below serves both.
//!
//! The fleet scheduler (`fleet::sched`) is a discrete-event simulator:
//! every interesting moment already has an exact virtual timestamp and
//! a total order within its shard. This module turns those moments into
//! *spans* — `(trace, parent, stage, start, duration)` tuples — without
//! giving up the determinism invariant the scheduler is built on:
//!
//! * each shard records into its own bounded [`ShardTracer`] ring, so
//!   recording never takes a cross-shard lock and never observes
//!   worker-count-dependent interleaving;
//! * shard rings are merged after the run by sorting on
//!   `(start_ns, shard, seq)` — all three components are pure functions
//!   of (config, trace, seed), so the merged [`Trace`] is byte-identical
//!   at 1, 2 or 8 workers;
//! * span timestamps are *virtual* nanoseconds, so a trace dump is a
//!   reproducible artifact, not a wall-clock measurement.
//!
//! Exporters: [`Trace::render_lines`] (golden-fixture text),
//! [`Trace::chrome_json`] (Chrome `trace_event` JSON — load directly
//! into `chrome://tracing` or Perfetto; pid = shard, tid = board), and
//! [`Trace::jsonl`] (one span object per line, the format
//! [`parse_jsonl`] reads back for offline analysis).
//!
//! The SLO half ([`SloPolicy`] / [`SloReport`]) evaluates per-class
//! latency objectives over the same virtual clock: error budget used
//! and worst per-window burn rate, all in integer ppm/milli units so an
//! independent recomputation from the raw trace reproduces the numbers
//! exactly.
//!
//! With the `obs-off` cargo feature every tracer is permanently
//! disabled: [`ShardTracer::record`] returns before touching the ring,
//! so the scheduler's trace hooks cost one predictable branch.

use crate::registry::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Default per-shard span-ring capacity. Sized so the determinism and
/// smoke workloads never drop, while a runaway soak stays bounded.
pub const TRACE_RING_CAPACITY: usize = 1 << 16;

/// A typed span attribute value. `&'static str` only — recording sits
/// on the scheduler hot path and must not allocate per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned quantity (bytes, attempt number, …).
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Static label (flavor, outcome, …).
    Str(&'static str),
}

/// Maximum attributes per span. Fixed so a [`TraceSpan`] is `Copy` and
/// recording one never touches the allocator.
pub const MAX_SPAN_FIELDS: usize = 6;

/// A span's attributes: an inline, bounded key/value list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSet {
    len: u8,
    items: [(&'static str, FieldValue); MAX_SPAN_FIELDS],
}

impl FieldSet {
    /// No attributes.
    pub const EMPTY: FieldSet = FieldSet {
        len: 0,
        items: [("", FieldValue::U64(0)); MAX_SPAN_FIELDS],
    };

    /// Append one attribute. Past [`MAX_SPAN_FIELDS`] the attribute is
    /// dropped (debug builds assert — a span wanting more fields is a
    /// recording-site bug, not a runtime condition).
    pub fn push(&mut self, key: &'static str, value: FieldValue) {
        debug_assert!(
            (self.len as usize) < MAX_SPAN_FIELDS,
            "span field overflow: {key}"
        );
        if (self.len as usize) < MAX_SPAN_FIELDS {
            self.items[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the attributes in push order.
    pub fn iter(&self) -> std::slice::Iter<'_, (&'static str, FieldValue)> {
        self.items[..self.len as usize].iter()
    }
}

impl Default for FieldSet {
    fn default() -> FieldSet {
        FieldSet::EMPTY
    }
}

/// Span fields given as counts (`obs::span!("stage", "runs" => n)`).
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One causally-linked span: the workspace's only span type. The
/// scheduler records them in virtual time; [`crate::span!`] and
/// [`crate::record_duration`] record host-clock and modelled port-time
/// spans (tagged by a `clock` field) inside [`crate::collect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Trace (request) identifier; spans sharing it belong to one
    /// request's story.
    pub trace: u64,
    /// Trace id of the causal parent, 0 for a root. A coalesced rider's
    /// spans point at the ridden download's trace.
    pub parent: u64,
    /// Stage name (`"queue"`, `"download"`, `"verify"`, …).
    pub stage: &'static str,
    /// Start time in nanoseconds (virtual, or since the collector
    /// started).
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Recording shard (filled in by [`ShardTracer::record`]).
    pub shard: u32,
    /// Per-shard record sequence (filled in by [`ShardTracer::record`]);
    /// breaks ties among spans starting at the same instant.
    pub seq: u64,
    /// Board the span ran on, or -1 when no board is involved yet.
    pub board: i64,
    /// Typed attributes, in recording order.
    pub fields: FieldSet,
}

impl TraceSpan {
    /// A span with no board and no fields; callers fill the rest.
    pub fn new(trace: u64, parent: u64, stage: &'static str, start_ns: u64, dur_ns: u64) -> Self {
        TraceSpan {
            trace,
            parent,
            stage,
            start_ns,
            dur_ns,
            shard: 0,
            seq: 0,
            board: -1,
            fields: FieldSet::EMPTY,
        }
    }

    /// Builder: set the board.
    pub fn on_board(mut self, board: u64) -> Self {
        self.board = board as i64;
        self
    }

    /// Builder: append a field.
    pub fn field(mut self, key: &'static str, value: FieldValue) -> Self {
        self.fields.push(key, value);
        self
    }
}

/// A bounded per-shard span ring. One per scheduler shard; recording is
/// single-threaded by construction (the shard owns it), so no atomics.
#[derive(Debug)]
pub struct ShardTracer {
    on: bool,
    shard: u32,
    seq: u64,
    cap: usize,
    ring: VecDeque<TraceSpan>,
    dropped: u64,
}

impl ShardTracer {
    /// A tracer for shard `shard` holding at most `cap` spans. With the
    /// `obs-off` feature the tracer is permanently disabled regardless
    /// of `on`.
    pub fn new(shard: u32, cap: usize, on: bool) -> ShardTracer {
        ShardTracer {
            on: on && cfg!(not(feature = "obs-off")),
            shard,
            seq: 0,
            cap: cap.max(1),
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A permanently disabled tracer (recording is a single branch).
    pub fn off() -> ShardTracer {
        ShardTracer::new(0, 1, false)
    }

    /// Whether [`ShardTracer::record`] stores anything.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Record one span, stamping this shard's id and the next sequence
    /// number. The oldest span is evicted (and counted dropped) when
    /// the ring is full. No-op when disabled.
    pub fn record(&mut self, mut span: TraceSpan) {
        if !self.on {
            return;
        }
        span.shard = self.shard;
        span.seq = self.seq;
        self.seq += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(span);
    }

    /// Spans dropped to eviction so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the tracer, yielding its spans (recording order) and
    /// drop count.
    pub fn into_spans(self) -> (Vec<TraceSpan>, u64) {
        (self.ring.into_iter().collect(), self.dropped)
    }
}

/// A merged, deterministically ordered trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// All spans, sorted by `(start_ns, shard, seq)`.
    pub spans: Vec<TraceSpan>,
    /// Spans evicted from full rings before the merge.
    pub dropped: u64,
}

impl Trace {
    /// Merge per-shard rings into one deterministic trace. Every sort
    /// key component is a pure function of (config, trace, seed), so
    /// the result is independent of worker count.
    pub fn merge(shards: impl IntoIterator<Item = (Vec<TraceSpan>, u64)>) -> Trace {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for (s, d) in shards {
            spans.extend(s);
            dropped += d;
        }
        // Spans are wide (inline field array); sorting them in place is
        // memory-bound on the element moves. Sort lightweight indices
        // by the key instead and apply the permutation with one pass.
        // `(shard, seq)` is unique, so unstable sorting is total.
        let mut order: Vec<u32> = (0..spans.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let s = &spans[i as usize];
            (s.start_ns, s.shard, s.seq)
        });
        let spans = order.into_iter().map(|i| spans[i as usize]).collect();
        Trace { spans, dropped }
    }

    /// Human-readable fixed-width dump, one span per line — the format
    /// the golden trace fixture and the cross-worker byte-identity
    /// gates compare.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{:>12} +{:<9} s{:02} t{:06} p{:06} b{:<5} {:<9}",
                s.start_ns, s.dur_ns, s.shard, s.trace, s.parent, s.board, s.stage
            );
            for (k, v) in s.fields.iter() {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "# dropped {} spans", self.dropped);
        }
        out
    }

    /// Chrome `trace_event` JSON (the "JSON Array Format" with a
    /// `traceEvents` envelope): complete (`"ph":"X"`) events, pid =
    /// shard, tid = board (+1 so "no board" renders as tid 0),
    /// timestamps in microseconds with nanosecond precision kept via
    /// three decimals. Loadable in `chrome://tracing` and Perfetto.
    pub fn chrome_json(&self) -> String {
        fn us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\"parent\":{},\"seq\":{}",
                json_string(s.stage),
                us(s.start_ns),
                us(s.dur_ns),
                s.shard,
                s.board + 1,
                s.trace,
                s.parent,
                s.seq,
            );
            for (k, v) in s.fields.iter() {
                match v {
                    FieldValue::U64(n) => {
                        let _ = write!(out, ",{}:{n}", json_string(k));
                    }
                    FieldValue::I64(n) => {
                        let _ = write!(out, ",{}:{n}", json_string(k));
                    }
                    FieldValue::Str(t) => {
                        let _ = write!(out, ",{}:{}", json_string(k), json_string(t));
                    }
                }
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"droppedSpans\":{}}}}}",
            self.dropped
        );
        out.push('\n');
        out
    }

    /// JSONL span stream: one JSON object per line, fixed key order,
    /// parseable by [`parse_jsonl`].
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"trace\":{},\"parent\":{},\"stage\":{},\"start_ns\":{},\"dur_ns\":{},\"shard\":{},\"seq\":{},\"board\":{},\"fields\":{{",
                s.trace,
                s.parent,
                json_string(s.stage),
                s.start_ns,
                s.dur_ns,
                s.shard,
                s.seq,
                s.board,
            );
            for (i, (k, v)) in s.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match v {
                    FieldValue::U64(n) => {
                        let _ = write!(out, "{}:{n}", json_string(k));
                    }
                    FieldValue::I64(n) => {
                        let _ = write!(out, "{}:{n}", json_string(k));
                    }
                    FieldValue::Str(t) => {
                        let _ = write!(out, "{}:{}", json_string(k), json_string(t));
                    }
                }
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// JSON-escape and quote a string (public so structured dumps built
/// outside this module — the fleet flight recorder — escape the same
/// way).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Offline analysis: parse a JSONL dump back and answer "where did the
// time go?".
// ---------------------------------------------------------------------------

/// A span read back from a JSONL dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpan {
    /// Trace identifier.
    pub trace: u64,
    /// Causal parent trace id (0 = root).
    pub parent: u64,
    /// Stage name.
    pub stage: String,
    /// Virtual start, nanoseconds.
    pub start_ns: u64,
    /// Virtual duration, nanoseconds.
    pub dur_ns: u64,
    /// Board id, -1 when none.
    pub board: i64,
    /// Raw attribute pairs (values kept as their literal text).
    pub fields: Vec<(String, String)>,
}

impl ParsedSpan {
    /// The raw text of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a JSONL dump failed to parse — typed so callers can tell a
/// dump that never had spans from one that was cut off mid-write, and
/// point at the exact line either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The dump holds no spans at all: an empty file, or nothing but
    /// blank lines. Only [`parse_jsonl_strict`] reports this.
    Empty,
    /// One line is not a well-formed span object — a truncated dump, a
    /// torn write, or not a trace dump at all.
    Line {
        /// 1-based number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Empty => write!(f, "dump contains no spans (empty trace file?)"),
            TraceParseError::Line { line, reason } => {
                write!(f, "line {line}: {reason} (truncated dump?)")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Parse a [`Trace::jsonl`] dump. This is a reader for our own writer,
/// not a general JSON parser; a malformed line produces
/// [`TraceParseError::Line`] naming it. An empty dump parses to an
/// empty span list — use [`parse_jsonl_strict`] to reject that too.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedSpan>, TraceParseError> {
    let mut spans = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        spans.push(
            parse_span_line(line).map_err(|reason| TraceParseError::Line {
                line: ln + 1,
                reason,
            })?,
        );
    }
    Ok(spans)
}

/// [`parse_jsonl`], but a dump with no spans is [`TraceParseError::Empty`]
/// instead of an empty list — the right contract for offline analysis
/// tools, where "no spans" means the wrong file, not a quiet run.
pub fn parse_jsonl_strict(text: &str) -> Result<Vec<ParsedSpan>, TraceParseError> {
    let spans = parse_jsonl(text)?;
    if spans.is_empty() {
        return Err(TraceParseError::Empty);
    }
    Ok(spans)
}

fn parse_span_line(line: &str) -> Result<ParsedSpan, String> {
    let mut r = JsonReader { text: line, at: 0 };
    let pairs = r.object(1)?;
    r.ws();
    if r.at != line.len() {
        return Err(format!("trailing data at byte {}", r.at));
    }
    let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let num = |key: &str| match get(key) {
        Some(JsonValue::Num(n)) => Ok(*n),
        Some(_) => Err(format!("bad number for {key}")),
        None => Err(format!("missing {key}")),
    };
    let unsigned = |key| {
        num(key)?
            .parse()
            .map_err(|_| format!("bad number for {key}"))
    };
    let stage = match get("stage") {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(_) => return Err("stage is not a string".into()),
        None => return Err("missing stage".into()),
    };
    let fields = match get("fields") {
        None => Vec::new(),
        Some(JsonValue::Obj(pairs)) => (pairs.iter())
            .map(|(k, v)| match v {
                JsonValue::Num(n) => Ok((k.clone(), n.to_string())),
                JsonValue::Str(s) => Ok((k.clone(), s.clone())),
                JsonValue::Obj(_) => Err(format!("field {k} is an object")),
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("fields is not an object".into()),
    };
    Ok(ParsedSpan {
        trace: unsigned("trace")?,
        parent: unsigned("parent")?,
        stage,
        start_ns: unsigned("start_ns")?,
        dur_ns: unsigned("dur_ns")?,
        board: num("board")?
            .parse()
            .map_err(|_| "bad number for board".to_string())?,
        fields,
    })
}

/// A value on a span line: the writer emits integers, strings and one
/// object (`fields`) of those.
enum JsonValue<'a> {
    /// An integer's literal text.
    Num(&'a str),
    /// A string, unescaped.
    Str(String),
    /// An object's pairs, in line order.
    Obj(Vec<(String, JsonValue<'a>)>),
}

/// A cursor over one span line.
struct JsonReader<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> JsonReader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.peek() != Some(c) {
            return Err(format!("expected '{}' at byte {}", c as char, self.at));
        }
        self.at += 1;
        Ok(())
    }

    /// An object whose values may nest `depth` more objects deep.
    fn object(&mut self, depth: usize) -> Result<Vec<(String, JsonValue<'a>)>, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(pairs);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            self.ws();
            let value = match self.peek() {
                Some(b'"') => JsonValue::Str(self.string()?),
                Some(b'{') if depth > 0 => JsonValue::Obj(self.object(depth - 1)?),
                _ => JsonValue::Num(self.number()?),
            };
            pairs.push((key, value));
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(pairs);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn number(&mut self) -> Result<&'a str, String> {
        let rest = &self.text[self.at..];
        let len = (rest.find(|c: char| !(c.is_ascii_digit() || c == '-'))).unwrap_or(rest.len());
        if len == 0 {
            return Err(format!("expected a number or string at byte {}", self.at));
        }
        self.at += len;
        Ok(&rest[..len])
    }

    /// A quoted string with its JSON escapes undone.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let end = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..end]);
            self.at += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let escape = self.peek().ok_or("unterminated string")?;
            self.at += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode()?,
                _ => return Err(format!("bad escape at byte {}", self.at - 2)),
            });
        }
    }

    /// The character of a `\u` escape (its `\u` already read): four hex
    /// digits, or a surrogate pair of two escapes.
    fn unicode(&mut self) -> Result<char, String> {
        let at = self.at - 2;
        let bad = || format!("bad \\u escape at byte {at}");
        let hex4 = |r: &mut Self| {
            let digits = r
                .text
                .get(r.at..r.at + 4)
                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
            r.at += 4;
            digits
                .map(|h| u32::from_str_radix(h, 16).expect("four hex digits"))
                .ok_or_else(bad)
        };
        let high = hex4(self)?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !self.text[self.at..].starts_with("\\u") {
                return Err(bad());
            }
            self.at += 2;
            let low = hex4(self)?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(bad());
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(bad)
    }
}

/// Per-stage latency statistics over a parsed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStat {
    /// Stage name.
    pub stage: String,
    /// Number of spans.
    pub count: u64,
    /// Exact p50 over span durations (ns).
    pub p50_ns: u64,
    /// Exact p99 over span durations (ns).
    pub p99_ns: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Largest duration (ns).
    pub max_ns: u64,
}

/// Exact quantile over raw values: `ceil(n·q)`-th order statistic.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl StageStat {
    /// Mean duration (ns), zero when empty.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-stage p50/p99 breakdown over `(stage, dur_ns)` pairs, sorted by
/// total duration descending (ties by stage name) so the dominant stage
/// leads.
pub fn stage_breakdown<'a>(spans: impl IntoIterator<Item = (&'a str, u64)>) -> Vec<StageStat> {
    let mut by_stage: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (stage, dur_ns) in spans {
        by_stage.entry(stage).or_default().push(dur_ns);
    }
    let mut stats: Vec<StageStat> = by_stage
        .into_iter()
        .map(|(stage, mut durs)| {
            durs.sort_unstable();
            StageStat {
                stage: stage.to_string(),
                count: durs.len() as u64,
                p50_ns: exact_quantile(&durs, 0.50),
                p99_ns: exact_quantile(&durs, 0.99),
                total_ns: durs.iter().sum(),
                max_ns: *durs.last().unwrap_or(&0),
            }
        })
        .collect();
    stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.stage.cmp(&b.stage)));
    stats
}

/// Where tail requests spend their time: aggregate stage durations over
/// the requests at or above the chosen end-to-end latency quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    /// The latency quantile that defined "slow".
    pub quantile: f64,
    /// End-to-end latency threshold (ns) at that quantile.
    pub threshold_ns: u64,
    /// Requests at or above the threshold.
    pub slow_requests: u64,
    /// Summed stage durations across slow requests, descending (ties by
    /// stage name). The first entry is the dominant stage.
    pub stage_ns: Vec<(String, u64)>,
}

impl CriticalPathReport {
    /// The stage slow requests spend most virtual time in.
    pub fn dominant(&self) -> Option<&str> {
        self.stage_ns.first().map(|(s, _)| s.as_str())
    }
}

/// Critical-path analysis: find the `"request"` root spans, take those
/// with end-to-end duration ≥ the `q`-quantile, and sum the durations
/// of their child spans per stage. `None` when the trace has no request
/// roots.
pub fn critical_path(spans: &[ParsedSpan], q: f64) -> Option<CriticalPathReport> {
    let mut e2e: Vec<u64> = spans
        .iter()
        .filter(|s| s.stage == "request")
        .map(|s| s.dur_ns)
        .collect();
    if e2e.is_empty() {
        return None;
    }
    e2e.sort_unstable();
    let threshold_ns = exact_quantile(&e2e, q);
    let slow: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.stage == "request" && s.dur_ns >= threshold_ns)
        .map(|s| s.trace)
        .collect();
    let mut stage_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        if s.stage != "request" && slow.contains(&s.trace) {
            *stage_ns.entry(&s.stage).or_default() += s.dur_ns;
        }
    }
    let mut stage_ns: Vec<(String, u64)> = stage_ns
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    stage_ns.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Some(CriticalPathReport {
        quantile: q,
        threshold_ns,
        slow_requests: slow.len() as u64,
        stage_ns,
    })
}

// ---------------------------------------------------------------------------
// SLO engine.
// ---------------------------------------------------------------------------

/// One per-class latency objective: "`target` of `class` requests must
/// complete (served, verified) within `objective_ns` of arrival".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloObjective {
    /// Priority class name (`"high"`, `"normal"`, `"low"`).
    pub class: String,
    /// Latency objective in virtual nanoseconds.
    pub objective_ns: u64,
    /// Success target in parts-per-million (999_000 = 99.9%). Strictly
    /// below 1_000_000 so the error budget is never zero.
    pub target_ppm: u32,
}

/// A set of objectives plus the rolling window the burn rate is
/// computed over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    /// Per-class objectives.
    pub objectives: Vec<SloObjective>,
    /// Burn-rate window in virtual nanoseconds.
    pub window_ns: u64,
}

/// Default burn-rate window: 10 ms of virtual time.
pub const SLO_DEFAULT_WINDOW_NS: u64 = 10_000_000;

impl SloPolicy {
    /// Parse the CLI form `CLASS:OBJECTIVE_US:TARGET_PCT[,...]`, e.g.
    /// `high:2000:99.9,normal:10000:99`. The target percentage takes up
    /// to four decimals (ppm resolution) and must be below 100.
    pub fn parse(s: &str) -> Result<SloPolicy, String> {
        let mut objectives = Vec::new();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let bits: Vec<&str> = part.trim().split(':').collect();
            if bits.len() != 3 {
                return Err(format!(
                    "bad SLO {part:?}: want CLASS:OBJECTIVE_US:TARGET_PCT"
                ));
            }
            let class = bits[0].to_string();
            if class.is_empty() {
                return Err(format!("bad SLO {part:?}: empty class"));
            }
            let objective_us: u64 = bits[1]
                .parse()
                .map_err(|_| format!("bad SLO {part:?}: objective must be integer µs"))?;
            let target_ppm = parse_pct_ppm(bits[2])
                .ok_or_else(|| format!("bad SLO {part:?}: target must be a percentage"))?;
            if target_ppm >= 1_000_000 {
                return Err(format!("bad SLO {part:?}: target must be below 100%"));
            }
            objectives.push(SloObjective {
                class,
                objective_ns: objective_us * 1000,
                target_ppm,
            });
        }
        if objectives.is_empty() {
            return Err("empty SLO policy".to_string());
        }
        Ok(SloPolicy {
            objectives,
            window_ns: SLO_DEFAULT_WINDOW_NS,
        })
    }

    /// Evaluate the policy over `(class, sample)` pairs. Classes with
    /// no objective are ignored; objectives with no traffic report zero
    /// requests.
    pub fn evaluate(&self, samples: &[(&str, SloSample)]) -> SloReport {
        let classes = self
            .objectives
            .iter()
            .map(|o| {
                let mut requests = 0u64;
                let mut violations = 0u64;
                // window index -> (requests, violations)
                let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
                for (class, s) in samples {
                    if *class != o.class {
                        continue;
                    }
                    requests += 1;
                    let violated = !s.served || s.latency_ns > o.objective_ns;
                    if violated {
                        violations += 1;
                    }
                    let w = windows
                        .entry(s.completed_ns / self.window_ns.max(1))
                        .or_default();
                    w.0 += 1;
                    if violated {
                        w.1 += 1;
                    }
                }
                let allowed_ppm = (1_000_000 - o.target_ppm) as u128;
                // budget used = (violations / requests) / (allowed_ppm / 1e6),
                // reported in ppm of the budget. Pure integer math so an
                // independent recomputation matches bit-for-bit.
                let budget_used_ppm = if requests == 0 {
                    0
                } else {
                    (violations as u128 * 1_000_000 * 1_000_000 / (requests as u128 * allowed_ppm))
                        as u64
                };
                // burn rate ×1000 per window: 1000 = consuming budget
                // exactly at the allowed rate.
                let worst_burn_milli = windows
                    .values()
                    .filter(|(n, _)| *n > 0)
                    .map(|(n, v)| {
                        (*v as u128 * 1_000_000 * 1000 / (*n as u128 * allowed_ppm)) as u64
                    })
                    .max()
                    .unwrap_or(0);
                SloClassReport {
                    class: o.class.clone(),
                    objective_ns: o.objective_ns,
                    target_ppm: o.target_ppm,
                    requests,
                    violations,
                    budget_used_ppm,
                    worst_burn_milli,
                    windows: windows.len() as u64,
                }
            })
            .collect();
        SloReport {
            classes,
            window_ns: self.window_ns,
        }
    }
}

/// Parse a percentage with up to four decimals into ppm (integer-exact:
/// `"99.9"` → 999_000).
fn parse_pct_ppm(s: &str) -> Option<u32> {
    let (whole, frac) = match s.split_once('.') {
        Some((w, f)) => (w, f),
        None => (s, ""),
    };
    if whole.is_empty() || frac.len() > 4 {
        return None;
    }
    let whole: u32 = whole.parse().ok()?;
    let mut frac_ppm = 0u32;
    if !frac.is_empty() {
        let digits: u32 = frac.parse().ok()?;
        frac_ppm = digits * 10u32.pow(4 - frac.len() as u32);
    }
    Some(whole * 10_000 + frac_ppm)
}

/// One request's contribution to an SLO evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSample {
    /// Virtual completion time (ns) — selects the burn-rate window.
    pub completed_ns: u64,
    /// End-to-end latency, arrival to completion (ns).
    pub latency_ns: u64,
    /// Whether the request was served and verified. Rejected, shed and
    /// terminally failed requests violate regardless of latency.
    pub served: bool,
}

/// One class's SLO evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloClassReport {
    /// Priority class.
    pub class: String,
    /// Objective (ns).
    pub objective_ns: u64,
    /// Success target (ppm).
    pub target_ppm: u32,
    /// Requests evaluated.
    pub requests: u64,
    /// Requests that missed the objective (or were never served).
    pub violations: u64,
    /// Error budget consumed, in ppm of the budget (1_000_000 = the
    /// whole budget, more = blown).
    pub budget_used_ppm: u64,
    /// Worst per-window burn rate ×1000 (1000 = burning exactly at the
    /// sustainable rate).
    pub worst_burn_milli: u64,
    /// Distinct burn-rate windows with traffic.
    pub windows: u64,
}

/// A full SLO evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloReport {
    /// Per-class results, in policy order.
    pub classes: Vec<SloClassReport>,
    /// Burn-rate window used (ns).
    pub window_ns: u64,
}

impl SloReport {
    /// Record the evaluation into `reg` as class-labelled instruments
    /// (`fleet_slo_*{class=...}`). Call once, post-run, from sequential
    /// code — cardinality is bounded by the policy's class list.
    pub fn record(&self, reg: &Registry) {
        for c in &self.classes {
            let labels = [("class", c.class.as_str())];
            reg.counter("fleet_slo_requests_total", &labels)
                .add(c.requests);
            reg.counter("fleet_slo_violations_total", &labels)
                .add(c.violations);
            reg.gauge("fleet_slo_budget_used_ppm", &labels)
                .record_level(c.budget_used_ppm.min(i64::MAX as u64) as i64);
            reg.gauge("fleet_slo_worst_burn_milli", &labels)
                .record_level(c.worst_burn_milli.min(i64::MAX as u64) as i64);
        }
    }

    /// Deterministic JSON object (fixed key order).
    pub fn json(&self) -> String {
        let mut out = String::from("{\"window_ns\":");
        let _ = write!(out, "{},\"classes\":[", self.window_ns);
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"class\":{},\"objective_ns\":{},\"target_ppm\":{},\"requests\":{},\"violations\":{},\"budget_used_ppm\":{},\"worst_burn_milli\":{},\"windows\":{}}}",
                json_string(&c.class),
                c.objective_ns,
                c.target_ppm,
                c.requests,
                c.violations,
                c.budget_used_ppm,
                c.worst_burn_milli,
                c.windows,
            );
        }
        out.push_str("]}");
        out
    }

    /// Human-readable table lines.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>10} {:>10} {:>10} {:>16} {:>12}",
            "class",
            "objective_us",
            "target_%",
            "requests",
            "violations",
            "budget_used_%",
            "burn_x"
        );
        for c in &self.classes {
            let _ = writeln!(
                out,
                "{:<8} {:>12} {:>10} {:>10} {:>10} {:>16} {:>12}",
                c.class,
                c.objective_ns / 1000,
                format_pct_ppm(c.target_ppm),
                c.requests,
                c.violations,
                format!(
                    "{}.{:04}",
                    c.budget_used_ppm / 10_000,
                    c.budget_used_ppm % 10_000
                ),
                format!(
                    "{}.{:03}",
                    c.worst_burn_milli / 1000,
                    c.worst_burn_milli % 1000
                ),
            );
        }
        out
    }
}

fn format_pct_ppm(ppm: u32) -> String {
    let frac = ppm % 10_000;
    if frac == 0 {
        format!("{}", ppm / 10_000)
    } else {
        format!("{}.{:04}", ppm / 10_000, frac)
            .trim_end_matches('0')
            .to_string()
    }
}

// ---------------------------------------------------------------------------
// A small JSON validator: enough to assert exported Chrome traces are
// well-formed without pulling in a JSON dependency.
// ---------------------------------------------------------------------------

/// Validate that `s` is one well-formed JSON value (with optional
/// trailing whitespace). Used by the trace-smoke tests on the Chrome
/// exporter's output.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, b"true"),
        Some(b'f') => parse_lit(b, i, b"false"),
        Some(b'n') => parse_lit(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *i += 1;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                *i += 1;
            }
            Ok(())
        }
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    fn span(trace: u64, stage: &'static str, start: u64, dur: u64) -> TraceSpan {
        TraceSpan::new(trace, 0, stage, start, dur)
    }

    #[test]
    fn ring_bounds_and_stamps() {
        let mut t = ShardTracer::new(3, 2, true);
        assert!(t.enabled());
        t.record(span(1, "a", 10, 1));
        t.record(span(2, "b", 20, 1));
        t.record(span(3, "c", 30, 1));
        let (spans, dropped) = t.into_spans();
        assert_eq!(dropped, 1);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "b");
        assert_eq!(spans[0].shard, 3);
        assert_eq!(spans[0].seq, 1);
        assert_eq!(spans[1].seq, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = ShardTracer::off();
        t.record(span(1, "a", 10, 1));
        let (spans, dropped) = t.into_spans();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn merge_orders_by_start_then_shard_then_seq() {
        let mut a = ShardTracer::new(0, 16, true);
        let mut b = ShardTracer::new(1, 16, true);
        a.record(span(1, "late", 30, 1));
        a.record(span(2, "tie_s0", 10, 1));
        b.record(span(3, "tie_s1", 10, 1));
        b.record(span(4, "early", 5, 1));
        let t = Trace::merge([a.into_spans(), b.into_spans()]);
        let stages: Vec<&str> = t.spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, ["early", "tie_s0", "tie_s1", "late"]);
    }

    #[test]
    fn exporters_round_trip_and_validate() {
        let mut tr = ShardTracer::new(0, 16, true);
        tr.record(
            span(7, "download", 1500, 2500)
                .on_board(4)
                .field("bytes", FieldValue::U64(4096))
                .field("flavor", FieldValue::Str("incremental")),
        );
        tr.record(span(7, "verify", 4000, 1000).on_board(4));
        let t = Trace::merge([tr.into_spans()]);
        validate_json(&t.chrome_json()).expect("chrome export must be well-formed JSON");
        let parsed = parse_jsonl(&t.jsonl()).expect("jsonl parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].stage, "download");
        assert_eq!(parsed[0].board, 4);
        assert_eq!(parsed[0].dur_ns, 2500);
        assert_eq!(parsed[0].field("bytes"), Some("4096"));
        assert_eq!(parsed[0].field("flavor"), Some("incremental"));
        assert_eq!(parsed[1].field("bytes"), None);
        for line in t.jsonl().lines() {
            validate_json(line).expect("each jsonl line is well-formed");
        }
        assert!(t.render_lines().contains("download"));
    }

    #[test]
    fn parse_errors_are_typed_and_name_the_line() {
        // Empty (or blank-line-only) dumps: lenient parse gives an
        // empty list, strict parse a typed Empty error.
        assert_eq!(parse_jsonl(""), Ok(vec![]));
        assert_eq!(parse_jsonl("\n  \n"), Ok(vec![]));
        assert_eq!(parse_jsonl_strict(""), Err(TraceParseError::Empty));
        assert!(TraceParseError::Empty.to_string().contains("no spans"));

        // A dump cut off mid-line fails on exactly that line, in both
        // parsers, with the reason preserved.
        let mut tr = ShardTracer::new(0, 16, true);
        tr.record(span(1, "download", 0, 10));
        tr.record(span(2, "verify", 10, 5));
        let dump = Trace::merge([tr.into_spans()]).jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        let truncated = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
        let err = parse_jsonl(&truncated).unwrap_err();
        match &err {
            TraceParseError::Line { line, .. } => assert_eq!(*line, 2),
            e => panic!("wrong error {e:?}"),
        }
        assert_eq!(parse_jsonl_strict(&truncated), Err(err.clone()));
        assert!(err.to_string().starts_with("line 2: "), "{err}");

        // A fields object cut off after a multi-byte character is a
        // typed error too, not a slice panic inside the character.
        let torn = format!(
            "{}\n{}",
            lines[0],
            r#"{"trace":2,"parent":0,"stage":"verify","start_ns":10,"dur_ns":5,"shard":0,"seq":1,"board":-1,"fields":{"k":"é}"#
        );
        match parse_jsonl(&torn) {
            Err(TraceParseError::Line { line: 2, .. }) => {}
            other => panic!("wrong result {other:?}"),
        }
    }

    #[test]
    fn jsonl_round_trips_quotes_separators_and_multibyte_text() {
        let odd = [
            "quo\"te",
            "back\\slash\\",
            "com,ma",
            "co:lon",
            "}}{\"fields\":{\"x\":1}",
            "ünï€😀",
            "tab\tnew\nline\u{1}",
            "",
        ];
        let spans = (odd.iter().zip(0u64..))
            .map(|(&text, i)| {
                TraceSpan::new(i + 1, i, text, 10 * i, u64::MAX - i)
                    .on_board(i)
                    .field(text, FieldValue::Str(text))
                    .field("n", FieldValue::I64(-(i as i64)))
                    .field("k,\":", FieldValue::U64(i))
            })
            .collect();
        let t = Trace { spans, dropped: 0 };
        let want: Vec<ParsedSpan> = (t.spans.iter())
            .map(|s| ParsedSpan {
                trace: s.trace,
                parent: s.parent,
                stage: s.stage.to_string(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                board: s.board,
                fields: (s.fields.iter())
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            })
            .collect();
        assert_eq!(parse_jsonl(&t.jsonl()), Ok(want));
    }

    #[test]
    fn span_lines_undo_every_json_escape_and_reject_bad_ones() {
        let line = |stage: &str, fields: &str| {
            format!(
                r#"{{"trace":1,"parent":0,"stage":"{stage}","start_ns":0,"dur_ns":1,"board":-1,"fields":{{{fields}}}}}"#
            )
        };
        let parsed = parse_jsonl(&line(r"\/\b\f\u00e9\ud83d\ude00", r#""a":"\"","b":7"#)).unwrap();
        assert_eq!(parsed[0].stage, "/\u{8}\u{c}é😀");
        assert_eq!(
            parsed[0].fields,
            [("a".into(), "\"".into()), ("b".into(), "7".into())]
        );
        let bad = [
            line(r"\x", ""),
            line(r"\u12", ""),
            line(r"\u+123", ""),
            line(r"\ud83d", ""),
            line(r"\ud83dx", ""),
            line(r"\udc00", ""),
            line("s", r#""a":{"b":1}"#),
            line("s", r#""a":true"#),
            line("s", "") + "x",
            line("s", "").replace(r#""stage":"s""#, r#""stage":5"#),
            line("s", "").replace(r#""trace":1"#, r#""trace":"1""#),
            line("s", "").replace(r#""dur_ns":1"#, r#""dur_ns":-1"#),
        ];
        for text in bad {
            match parse_jsonl(&text) {
                Err(TraceParseError::Line { line: 1, .. }) => {}
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn stage_breakdown_and_critical_path() {
        // Two requests: trace 1 fast (10 µs), trace 2 slow (100 µs,
        // dominated by its download).
        let t = Trace {
            spans: vec![
                span(1, "request", 0, 10_000),
                span(1, "queue", 0, 2_000),
                span(1, "download", 2_000, 8_000),
                span(2, "request", 0, 100_000),
                span(2, "queue", 0, 5_000),
                span(2, "download", 5_000, 95_000),
            ],
            dropped: 0,
        };
        let parsed = parse_jsonl(&t.jsonl()).unwrap();
        let stats = stage_breakdown(parsed.iter().map(|s| (s.stage.as_str(), s.dur_ns)));
        assert_eq!(stats[0].stage, "request");
        let dl = stats.iter().find(|s| s.stage == "download").unwrap();
        assert_eq!(dl.count, 2);
        assert_eq!(dl.p50_ns, 8_000);
        assert_eq!(dl.p99_ns, 95_000);
        let cp = critical_path(&parsed, 0.99).unwrap();
        assert_eq!(cp.threshold_ns, 100_000);
        assert_eq!(cp.slow_requests, 1);
        assert_eq!(cp.dominant(), Some("download"));
        assert_eq!(
            cp.stage_ns,
            [
                ("download".to_string(), 95_000),
                ("queue".to_string(), 5_000)
            ]
        );
    }

    #[test]
    fn slo_policy_parses_and_evaluates_exactly() {
        let p = SloPolicy::parse("high:2000:99.9,normal:10000:99").unwrap();
        assert_eq!(p.objectives.len(), 2);
        assert_eq!(p.objectives[0].objective_ns, 2_000_000);
        assert_eq!(p.objectives[0].target_ppm, 999_000);
        assert_eq!(p.objectives[1].target_ppm, 990_000);
        assert!(SloPolicy::parse("high:2000:100").is_err());
        assert!(SloPolicy::parse("high:2000").is_err());
        assert!(SloPolicy::parse("").is_err());

        // 1000 high requests, 3 violations (2 slow + 1 unserved).
        let mut samples = Vec::new();
        for i in 0..1000u64 {
            let late = i < 2;
            samples.push((
                "high",
                SloSample {
                    completed_ns: i * 20_000,
                    latency_ns: if late { 3_000_000 } else { 1_000_000 },
                    served: i != 2,
                },
            ));
        }
        let r = p.evaluate(&samples);
        let high = &r.classes[0];
        assert_eq!(high.requests, 1000);
        assert_eq!(high.violations, 3);
        // allowed = 1000 ppm; violation rate = 3000 ppm → budget ×3.
        assert_eq!(high.budget_used_ppm, 3_000_000);
        // Worst window (first 10 ms): 500 requests, 3 violations →
        // 3/500 / 0.001 = 6.0× burn.
        assert_eq!(high.worst_burn_milli, 6_000);
        assert_eq!(high.windows, 2);
        let normal = &r.classes[1];
        assert_eq!(normal.requests, 0);
        assert_eq!(normal.budget_used_ppm, 0);
        validate_json(&r.json()).unwrap();
        assert!(r.render_lines().contains("high"));
    }

    #[test]
    fn slo_record_is_class_labelled_and_bounded() {
        let p = SloPolicy::parse("high:2000:99.9").unwrap();
        let r = p.evaluate(&[(
            "high",
            SloSample {
                completed_ns: 0,
                latency_ns: 1,
                served: true,
            },
        )]);
        let reg = Registry::new();
        r.record(&reg);
        assert_eq!(reg.len(), 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("fleet_slo_requests_total"), Some(1));
        assert_eq!(snap.counter_total("fleet_slo_violations_total"), Some(0));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2,{\"b\":\"x\\\"y\"}],\"c\":null}").unwrap();
        validate_json("[]").unwrap();
        validate_json("-1.5e3").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json("{} extra").is_err());
    }
}

#[cfg(all(test, feature = "obs-off"))]
mod off_tests {
    use super::*;

    #[test]
    fn tracer_is_forced_off() {
        let mut t = ShardTracer::new(0, 16, true);
        assert!(!t.enabled());
        t.record(TraceSpan::new(1, 0, "a", 0, 1));
        let (spans, dropped) = t.into_spans();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }
}
