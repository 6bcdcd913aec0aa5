//! Lightweight span tracing: scoped stage timers recorded into a
//! bounded per-thread ring buffer, with an optional process-wide
//! [`Collector`].
//!
//! No external tracing crate: a [`Span`] is an RAII guard that notes the
//! wall-clock on entry and records a [`SpanEvent`] on drop. Nesting
//! depth is tracked per thread, so a collector can reconstruct the
//! stage tree (`generate` containing `bitgen_partial`, and so on). For
//! stages whose duration is *simulated* rather than measured — SelectMAP
//! port time in `simboard`/`fleet` — [`record_duration`] emits an event
//! with the model's duration directly.
//!
//! Two kill switches:
//! * [`set_enabled`]`(false)` stops recording at runtime (one relaxed
//!   atomic load per span);
//! * the `obs-off` cargo feature compiles every span to a no-op, for
//!   builds that must prove instrumentation costs nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Events kept per thread before the oldest is dropped.
pub const RING_CAPACITY: usize = 4096;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (static: span names are a closed vocabulary).
    pub name: &'static str,
    /// Start time in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (wall-clock, or simulated for
    /// [`record_duration`] events).
    pub dur_ns: u64,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: u32,
    /// Small per-thread id (assignment order, not OS thread id).
    pub thread: u64,
    /// Optional key/value annotations.
    pub fields: Vec<(&'static str, String)>,
}

/// A sink receiving every completed span from every thread.
pub trait Collector: Send + Sync {
    /// Called on span completion, on the completing thread.
    fn record(&self, event: &SpanEvent);
}

/// A [`Collector`] buffering events in a mutex-guarded, bounded vec —
/// the workhorse for reports and tests.
#[derive(Debug)]
pub struct VecCollector {
    events: Mutex<Vec<SpanEvent>>,
    cap: usize,
}

impl VecCollector {
    /// A collector keeping at most `cap` events (later events are
    /// dropped, earliest-wins, so a runaway stage cannot eat the heap).
    pub fn new(cap: usize) -> VecCollector {
        VecCollector {
            events: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// Take everything collected so far.
    pub fn take(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut *self.events.lock().expect("collector lock"))
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collector lock").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Collector for VecCollector {
    fn record(&self, event: &SpanEvent) {
        let mut ev = self.events.lock().expect("collector lock");
        if ev.len() < self.cap {
            ev.push(event.clone());
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static HAS_COLLECTOR: AtomicBool = AtomicBool::new(false);

fn collector_slot() -> &'static RwLock<Option<Arc<dyn Collector>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Collector>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Install (or clear) the process-wide span collector. Spans always
/// land in their thread's ring buffer; a collector additionally sees
/// every event, cross-thread.
pub fn set_collector(c: Option<Arc<dyn Collector>>) {
    let mut slot = collector_slot().write().expect("collector lock");
    HAS_COLLECTOR.store(c.is_some(), Ordering::Release);
    *slot = c;
}

/// Runtime kill switch for span recording (metric instruments are
/// unaffected). Returns the previous state.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Whether spans currently record.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && cfg!(not(feature = "obs-off"))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct ThreadSpans {
    id: u64,
    depth: u32,
    ring: std::collections::VecDeque<SpanEvent>,
}

thread_local! {
    static TLS: std::cell::RefCell<ThreadSpans> = std::cell::RefCell::new({
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        ThreadSpans {
            id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            ring: std::collections::VecDeque::with_capacity(64),
        }
    });
}

fn push_event(event: SpanEvent) {
    if HAS_COLLECTOR.load(Ordering::Acquire) {
        if let Some(c) = collector_slot().read().expect("collector lock").as_ref() {
            c.record(&event);
        }
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.ring.len() >= RING_CAPACITY {
            t.ring.pop_front();
        }
        t.ring.push_back(event);
    });
}

/// Drain the current thread's span ring buffer (oldest first).
pub fn take_thread_spans() -> Vec<SpanEvent> {
    TLS.with(|t| t.borrow_mut().ring.drain(..).collect())
}

/// Record a completed stage with an explicitly supplied duration — the
/// hook for simulated timings (SelectMAP byte-cycle downloads) that no
/// wall clock can measure.
pub fn record_duration(name: &'static str, dur: Duration) {
    record_duration_with(name, dur, Vec::new());
}

/// [`record_duration`] with field annotations.
pub fn record_duration_with(
    name: &'static str,
    dur: Duration,
    fields: Vec<(&'static str, String)>,
) {
    #[cfg(feature = "obs-off")]
    {
        let _ = (name, dur, fields);
    }
    #[cfg(not(feature = "obs-off"))]
    {
        if !enabled() {
            return;
        }
        let (thread, depth) = TLS.with(|t| {
            let t = t.borrow();
            (t.id, t.depth)
        });
        push_event(SpanEvent {
            name,
            start_ns: now_ns(),
            dur_ns: dur.as_nanos() as u64,
            depth,
            thread,
            fields,
        });
    }
}

#[cfg(not(feature = "obs-off"))]
struct ActiveSpan {
    name: &'static str,
    start: Instant,
    start_ns: u64,
    fields: Vec<(&'static str, String)>,
}

/// An RAII stage timer: created by [`crate::span!`], records a
/// [`SpanEvent`] when dropped.
#[must_use = "a span measures the scope it is bound to; bind it to a named guard"]
pub struct Span {
    #[cfg(not(feature = "obs-off"))]
    inner: Option<ActiveSpan>,
    #[cfg(feature = "obs-off")]
    _noop: (),
}

impl Span {
    /// A span that records nothing — what [`crate::span!`] hands out
    /// when recording is off, without ever materializing its fields.
    pub fn disabled() -> Span {
        #[cfg(feature = "obs-off")]
        {
            Span { _noop: () }
        }
        #[cfg(not(feature = "obs-off"))]
        {
            Span { inner: None }
        }
    }

    /// Enter a stage.
    pub fn enter(name: &'static str) -> Span {
        Span::enter_with(name, Vec::new())
    }

    /// Enter a stage with field annotations.
    pub fn enter_with(name: &'static str, fields: Vec<(&'static str, String)>) -> Span {
        #[cfg(feature = "obs-off")]
        {
            let _ = (name, fields);
            Span { _noop: () }
        }
        #[cfg(not(feature = "obs-off"))]
        {
            if !enabled() {
                return Span { inner: None };
            }
            TLS.with(|t| t.borrow_mut().depth += 1);
            Span {
                inner: Some(ActiveSpan {
                    name,
                    start: Instant::now(),
                    start_ns: now_ns(),
                    fields,
                }),
            }
        }
    }

    /// Attach a field to a live span (no-op when recording is off).
    pub fn add_field(&mut self, key: &'static str, value: impl std::fmt::Display) {
        #[cfg(feature = "obs-off")]
        {
            let _ = (key, value);
        }
        #[cfg(not(feature = "obs-off"))]
        if let Some(s) = &mut self.inner {
            s.fields.push((key, value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(not(feature = "obs-off"))]
        if let Some(s) = self.inner.take() {
            let dur_ns = s.start.elapsed().as_nanos() as u64;
            let (thread, depth) = TLS.with(|t| {
                let mut t = t.borrow_mut();
                t.depth = t.depth.saturating_sub(1);
                (t.id, t.depth)
            });
            push_event(SpanEvent {
                name: s.name,
                start_ns: s.start_ns,
                dur_ns,
                depth,
                thread,
                fields: s.fields,
            });
        }
    }
}

/// Enter a named stage span: `let _g = obs::span!("generate");` or
/// `let _g = obs::span!("generate", "frames" => n);`. The guard records
/// on drop; bind it to a named variable (`_g`), never `_`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($k:expr => $v:expr),+ $(,)?) => {
        // Fields are only materialized (vec + Display strings) when
        // recording is on, so disabled spans cost no allocation.
        if $crate::enabled() {
            $crate::Span::enter_with($name, vec![$(($k, $v.to_string())),+])
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share per-thread state; each uses its own thread to
    // stay independent of test-runner threading. They also share the
    // process-wide enable switch and collector slot, so tests that
    // record hold `GLOBAL` to keep one test's `set_enabled(false)` from
    // silencing another's spans.
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_global() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        let _global = lock_global();
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    #[test]
    #[cfg(feature = "obs-off")]
    fn obs_off_records_nothing() {
        on_fresh_thread(|| {
            let _ = take_thread_spans();
            assert!(!enabled());
            {
                let _g = crate::span!("quiet");
                record_duration("quiet", Duration::from_micros(1));
            }
            assert!(take_thread_spans().is_empty());
        });
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn spans_record_nesting_and_order() {
        on_fresh_thread(|| {
            let _ = take_thread_spans();
            {
                let _outer = crate::span!("outer");
                let _inner = crate::span!("inner", "k" => 7);
            }
            let ev = take_thread_spans();
            assert_eq!(ev.len(), 2);
            // Inner drops first.
            assert_eq!(ev[0].name, "inner");
            assert_eq!(ev[0].depth, 1);
            assert_eq!(ev[0].fields, vec![("k", "7".to_string())]);
            assert_eq!(ev[1].name, "outer");
            assert_eq!(ev[1].depth, 0);
            assert!(ev[1].start_ns <= ev[0].start_ns);
        });
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn record_duration_uses_given_time() {
        on_fresh_thread(|| {
            let _ = take_thread_spans();
            record_duration("download", Duration::from_micros(123));
            let ev = take_thread_spans();
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].dur_ns, 123_000);
        });
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn disabled_spans_record_nothing() {
        on_fresh_thread(|| {
            let _ = take_thread_spans();
            let was = set_enabled(false);
            {
                let _g = crate::span!("quiet");
                record_duration("quiet", Duration::from_micros(1));
            }
            set_enabled(was);
            assert!(take_thread_spans().is_empty());
        });
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn ring_is_bounded() {
        on_fresh_thread(|| {
            let _ = take_thread_spans();
            for _ in 0..RING_CAPACITY + 10 {
                let _g = crate::span!("tick");
            }
            let ev = take_thread_spans();
            assert_eq!(ev.len(), RING_CAPACITY);
        });
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn collector_sees_cross_thread_events() {
        let _global = lock_global();
        let c = Arc::new(VecCollector::new(1024));
        set_collector(Some(c.clone()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = crate::span!("worker");
                });
            }
        });
        set_collector(None);
        let ev: Vec<SpanEvent> = c
            .take()
            .into_iter()
            .filter(|e| e.name == "worker")
            .collect();
        assert_eq!(ev.len(), 4);
        // Thread ids are distinct per thread.
        let mut threads: Vec<u64> = ev.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn vec_collector_is_bounded() {
        let c = VecCollector::new(2);
        for _ in 0..5 {
            c.record(&SpanEvent {
                name: "x",
                start_ns: 0,
                dur_ns: 1,
                depth: 0,
                thread: 0,
                fields: Vec::new(),
            });
        }
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
