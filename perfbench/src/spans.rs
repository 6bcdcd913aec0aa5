//! The traced run's span recorder: host-clock spans recorded from the
//! benchmark around calls into each layer's public functions, kept in
//! memory and written at the end in the `obs::trace` JSONL schema, so
//! `jpg-cli trace <dump>` reads them without a new analyser.

use obs::trace::{FieldValue, Trace, TraceSpan};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    trace: u64,
    parent: Option<usize>,
    stage: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one run. A `"request"` root per partial or request; layer
/// spans nest under the root that is open when they start.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; it nests under the innermost open span.
    pub fn enter(&mut self, trace: u64, stage: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            trace,
            parent: self.open.last().copied(),
            stage,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, trace: u64, stage: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(trace, stage);
        let out = f();
        self.exit();
        out
    }

    /// Record an already measured interval as a child of the innermost
    /// open span (a backend total summed inside the scheduler, say).
    pub fn record(&mut self, trace: u64, stage: &'static str, start_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            trace,
            parent: self.open.last().copied(),
            stage,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Host nanoseconds since the recorder started.
    pub fn clock_ns(&self) -> u64 {
        self.now()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span named `stage`.
    pub fn durations(&self, stage: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time (duration minus the part its children cover) summed per
    /// stage, over every span.
    pub fn self_time_by_stage(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.stage).or_default() += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// The dump in the `obs::trace` JSONL schema: roots have parent 0,
    /// layer spans point at their request's trace id.
    pub fn jsonl(&self) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(seq, s)| {
                let parent = s.parent.map_or(0, |p| self.spans[p].trace);
                let mut span =
                    TraceSpan::new(s.trace, parent, s.stage, s.start_ns, s.end_ns - s.start_ns)
                        .field("clock", FieldValue::Str("host"));
                span.seq = seq as u64;
                span
            })
            .collect();
        Trace { spans, dropped: 0 }.jsonl()
    }
}

/// Write `spans` as `<dir>/<workload>-seed<seed>.jsonl` under the build
/// directory and return the path.
pub fn write_dump(spans: &Spans, workload: &str, seed: u64) -> std::io::Result<String> {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = std::path::Path::new(&root).join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, spans.jsonl())?;
    Ok(path.display().to_string())
}
