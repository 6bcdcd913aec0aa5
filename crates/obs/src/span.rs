//! Wall-clock stage spans, recorded as [`TraceSpan`]s into a scoped
//! collector.
//!
//! `obs::span!("stage")` is an RAII guard: it notes the host clock on
//! entry and, on drop, records a [`TraceSpan`] tagged `clock=host`.
//! Stages whose duration is *modelled* rather than measured —
//! SelectMAP port time in `simboard` and the report's readback — enter
//! through [`record_duration`], tagged `clock=port`. Each span takes a
//! fresh id as its `trace` (and `seq`) and names the span open on its
//! thread when it started as its `parent` (0 at top level), so the
//! stage tree survives in the `obs::trace` schema.
//!
//! Spans record only inside [`collect`]. With no collector installed a
//! span costs one relaxed atomic load and allocates nothing. The
//! `obs-off` cargo feature makes [`enabled`] a constant `false`, which
//! compiles every span to nothing.

use crate::trace::{FieldSet, FieldValue, Trace, TraceSpan};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Spans one [`collect`] call keeps; later spans count as dropped, so
/// a runaway stage cannot eat the heap.
pub const COLLECT_CAPACITY: usize = 1 << 17;

static COLLECTING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The installed collector: its clock origin and what it has kept.
struct Sink {
    t0: Instant,
    spans: Vec<TraceSpan>,
    dropped: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
/// Held for the whole of a [`collect`] call, so calls serialize.
static SCOPE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Id of the span open on this thread, 0 when none.
    static OPEN: Cell<u64> = const { Cell::new(0) };
}

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether spans currently record: a collector is installed and the
/// `obs-off` feature is not set.
pub fn enabled() -> bool {
    cfg!(not(feature = "obs-off")) && COLLECTING.load(Ordering::Relaxed)
}

/// Run `f` with a collector installed and return its result with every
/// span recorded meanwhile, from any thread, ordered by start time.
/// Timestamps count from the call's start. At most
/// [`COLLECT_CAPACITY`] spans are kept (the rest are counted in
/// `dropped`). Calls serialize, so `f` must not call `collect` itself.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            COLLECTING.store(false, Ordering::Release);
        }
    }
    let _scope = lock(&SCOPE);
    *lock(&SINK) = Some(Sink {
        t0: Instant::now(),
        spans: Vec::new(),
        dropped: 0,
    });
    NEXT_ID.store(1, Ordering::Relaxed);
    COLLECTING.store(true, Ordering::Release);
    let out = {
        let _uninstall = Uninstall;
        f()
    };
    let sink = lock(&SINK).take().expect("collector installed");
    (out, Trace::merge([(sink.spans, sink.dropped)]))
}

/// Record a completed stage whose duration the caller supplies — the
/// hook for modelled SelectMAP time that no host clock can measure. It
/// starts now, under the span open on this thread, tagged `clock=port`.
pub fn record_duration(stage: &'static str, dur: Duration, fields: &[(&'static str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(Cell::get);
    let fields = field_set("port", fields);
    push(id, parent, stage, Instant::now(), dur, fields);
}

fn field_set(clock: &'static str, fields: &[(&'static str, FieldValue)]) -> FieldSet {
    let mut set = FieldSet::EMPTY;
    set.push("clock", FieldValue::Str(clock));
    for &(k, v) in fields {
        set.push(k, v);
    }
    set
}

fn push(
    id: u64,
    parent: u64,
    stage: &'static str,
    start: Instant,
    dur: Duration,
    fields: FieldSet,
) {
    let mut sink = lock(&SINK);
    let Some(sink) = sink.as_mut() else {
        return;
    };
    if sink.spans.len() >= COLLECT_CAPACITY {
        sink.dropped += 1;
        return;
    }
    let start_ns = start.saturating_duration_since(sink.t0).as_nanos() as u64;
    let mut span = TraceSpan::new(id, parent, stage, start_ns, dur.as_nanos() as u64);
    span.seq = id;
    span.fields = fields;
    sink.spans.push(span);
}

struct Open {
    id: u64,
    parent: u64,
    stage: &'static str,
    start: Instant,
    fields: FieldSet,
}

/// An RAII stage timer: created by [`crate::span!`], records a
/// host-clock [`TraceSpan`] when dropped.
#[must_use = "a span measures the scope it is bound to; bind it to a named guard"]
pub struct Span(Option<Open>);

impl Span {
    /// Enter a stage with field annotations; a no-op guard when
    /// recording is off.
    pub fn enter(stage: &'static str, fields: &[(&'static str, FieldValue)]) -> Span {
        if !enabled() {
            return Span(None);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Span(Some(Open {
            id,
            parent: OPEN.with(|open| open.replace(id)),
            stage,
            start: Instant::now(),
            fields: field_set("host", fields),
        }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let dur = s.start.elapsed();
            OPEN.with(|open| open.set(s.parent));
            push(s.id, s.parent, s.stage, s.start, dur, s.fields);
        }
    }
}

/// Enter a named stage span: `let _g = obs::span!("generate");` or
/// `let _g = obs::span!("generate", "frames" => n);` (values convert
/// into [`FieldValue`]). The guard records on drop; bind it to a named
/// variable (`_g`), never `_`.
#[macro_export]
macro_rules! span {
    ($stage:expr $(, $k:expr => $v:expr)* $(,)?) => {
        $crate::Span::enter($stage, &[$(($k, $crate::FieldValue::from($v))),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    fn field<'a>(s: &'a TraceSpan, key: &str) -> Option<&'a FieldValue> {
        s.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    #[test]
    #[cfg(feature = "obs-off")]
    fn obs_off_records_nothing() {
        let ((), trace) = collect(|| {
            assert!(!enabled());
            let _g = crate::span!("quiet");
            record_duration("quiet", Duration::from_micros(1), &[]);
        });
        assert!(trace.spans.is_empty());
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn spans_record_nesting_and_order() {
        let ((), trace) = collect(|| {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner", "k" => 7usize);
        });
        let s = &trace.spans;
        assert_eq!(s.len(), 2);
        // Ordered by start: the outer span first, the inner one its child.
        assert_eq!(s[0].stage, "outer");
        assert_eq!(s[0].parent, 0);
        assert_eq!(s[1].stage, "inner");
        assert_eq!(s[1].parent, s[0].trace);
        assert!(s[0].start_ns <= s[1].start_ns);
        assert!(s[0].dur_ns >= s[1].dur_ns);
        assert_eq!(field(&s[1], "k"), Some(&FieldValue::U64(7)));
        assert_eq!(field(&s[0], "clock"), Some(&FieldValue::Str("host")));
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn record_duration_uses_given_time() {
        let ((), trace) = collect(|| {
            let _g = crate::span!("board");
            record_duration("download", Duration::from_micros(123), &[]);
        });
        let dl = trace.spans.iter().find(|s| s.stage == "download").unwrap();
        assert_eq!(dl.dur_ns, 123_000);
        assert_eq!(dl.parent, trace.spans[0].trace);
        assert_eq!(field(dl, "clock"), Some(&FieldValue::Str("port")));
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn disabled_spans_record_nothing() {
        // Holding the scope lock keeps any collector from being
        // installed meanwhile.
        let _scope = lock(&SCOPE);
        assert!(!enabled());
        let g = crate::span!("quiet", "k" => 1usize);
        assert!(g.0.is_none());
        record_duration("quiet", Duration::from_micros(1), &[]);
        assert!(lock(&SINK).is_none());
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn collect_is_bounded() {
        let ((), trace) = collect(|| {
            for _ in 0..COLLECT_CAPACITY + 10 {
                let _g = crate::span!("tick");
            }
        });
        assert_eq!(trace.spans.len(), COLLECT_CAPACITY);
        assert_eq!(trace.dropped, 10);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn collector_sees_cross_thread_events() {
        let ((), trace) = collect(|| {
            let _g = crate::span!("caller");
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _g = crate::span!("worker");
                    });
                }
            });
        });
        let workers: Vec<&TraceSpan> = trace.spans.iter().filter(|s| s.stage == "worker").collect();
        assert_eq!(workers.len(), 4);
        // A new thread has no open span: its spans are roots.
        assert!(workers.iter().all(|s| s.parent == 0));
        let mut ids: Vec<u64> = workers.iter().map(|s| s.trace).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }
}
