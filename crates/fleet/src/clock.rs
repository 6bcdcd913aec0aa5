//! Discrete-event virtual clock for the fleet scheduler.
//!
//! SelectMAP time is simulated anyway ([`simboard::port`] computes it
//! from byte counts, it never sleeps), so the serving layer does not
//! need wall time at all: boards advance by *virtual nanoseconds* and a
//! min-queue of timestamped events replaces the thread-per-board model.
//! Ten thousand boards and millions of requests then run in seconds of
//! wall clock — and, because event order is a pure function of the
//! trace, every schedule is deterministic and replayable from a seed.
//!
//! Ordering ties are broken by a per-queue insertion sequence number,
//! never by payload comparison, so event kinds need no `Ord` bound and
//! two events at the same instant always replay in the order they were
//! scheduled.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vt(u64);

impl Vt {
    /// The simulation epoch.
    pub const ZERO: Vt = Vt(0);

    /// A timestamp `ns` nanoseconds after the epoch.
    pub const fn from_ns(ns: u64) -> Vt {
        Vt(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn ns(self) -> u64 {
        self.0
    }

    /// This instant as a [`Duration`] since the epoch.
    pub const fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// The instant `d` later (saturating).
    pub fn after(self, d: Duration) -> Vt {
        Vt(self.0.saturating_add(d.as_nanos() as u64))
    }

    /// The instant `ns` nanoseconds later (saturating).
    pub const fn after_ns(self, ns: u64) -> Vt {
        Vt(self.0.saturating_add(ns))
    }
}

/// A scheduled event: a payload due at a virtual instant.
#[derive(Debug, Clone)]
pub struct Event<K> {
    /// When the event fires.
    pub at: Vt,
    /// Insertion order within the owning queue; the deterministic
    /// tie-break for simultaneous events.
    pub seq: u64,
    /// The payload.
    pub kind: K,
}

// Ordering is on (at, seq) only — reversed, because BinaryHeap is a
// max-heap and we want the earliest event on top.
impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Event<K>) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<K> Eq for Event<K> {}
impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Event<K>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Event<K>) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-ordered queue of timestamped events.
///
/// Each shard of the scheduler owns one; `seq` is assigned at push so
/// same-instant events pop in scheduling order regardless of heap
/// internals.
///
/// An event pushed at or after the last one in the FIFO `run` joins
/// that run; any other goes onto the heap. Sequence numbers only grow,
/// so the run stays sorted by `(at, seq)`, and every pop takes the
/// smaller of the run's front and the heap's top: exactly the order a
/// heap alone gives. A time-ordered batch of arrivals thus never enters
/// the heap, which only holds the events scheduled behind the run.
#[derive(Debug)]
pub struct EventQueue<K> {
    run: VecDeque<Event<K>>,
    heap: BinaryHeap<Event<K>>,
    next_seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> EventQueue<K> {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// An empty queue.
    pub fn new() -> EventQueue<K> {
        EventQueue::default()
    }

    /// Schedule `kind` at `at`.
    pub fn push(&mut self, at: Vt, kind: K) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Event { at, seq, kind };
        if self.run.back().is_none_or(|last| at >= last.at) {
            self.run.push_back(e);
        } else {
            self.heap.push(e);
        }
    }

    /// Where the earliest pending event sits (`true`: the run's front,
    /// `false`: the heap's top) and when it fires. `Event`'s order is
    /// reversed, so the earlier of two events compares greater.
    fn earliest(&self) -> Option<(bool, Vt)> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) if h > r => Some((false, h.at)),
            (Some(r), _) => Some((true, r.at)),
            (None, h) => h.map(|h| (false, h.at)),
        }
    }

    fn take(&mut self, from_run: bool) -> Option<Event<K>> {
        if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }
    }

    /// The instant of the earliest pending event.
    pub fn peek_at(&self) -> Option<Vt> {
        self.earliest().map(|(_, at)| at)
    }

    /// Pop the earliest event if it fires strictly before `limit`.
    ///
    /// The strict bound is what makes windowed parallel execution
    /// deterministic: every shard processes exactly the events in
    /// `[now, limit)` no matter which worker runs it.
    pub fn pop_if_before(&mut self, limit: Vt) -> Option<Event<K>> {
        let (from_run, at) = self.earliest()?;
        if at < limit {
            self.take(from_run)
        } else {
            None
        }
    }

    /// Pop the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<Event<K>> {
        let (from_run, _) = self.earliest()?;
        self.take(from_run)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The heap-only queue the run-plus-heap queue must match step for
    /// step.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Event<u32>>,
        next_seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, at: Vt, kind: u32) {
            self.heap.push(Event {
                at,
                seq: self.next_seq,
                kind,
            });
            self.next_seq += 1;
        }
    }

    fn triple(e: Option<Event<u32>>) -> Option<(Vt, u64, u32)> {
        e.map(|e| (e.at, e.seq, e.kind))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// Random interleavings of every operation, with pushes that
        /// mostly move forward, sometimes step back and often repeat an
        /// instant: each step answers exactly as the heap-only queue.
        #[test]
        fn run_plus_heap_matches_a_heap_only_queue(
            ops in proptest::collection::vec((0u8..5, 0u64..6), 0..300),
        ) {
            let (mut q, mut reference) = (EventQueue::new(), HeapQueue::default());
            let mut cursor = 0u64;
            for (i, (op, step)) in ops.into_iter().enumerate() {
                match op {
                    // Pushes: a cursor that drifts forward by up to 3 ns
                    // and back by up to 2 ns per push.
                    0 | 1 => {
                        cursor = (cursor + step).saturating_sub(2);
                        q.push(Vt::from_ns(cursor), i as u32);
                        reference.push(Vt::from_ns(cursor), i as u32);
                    }
                    2 => prop_assert_eq!(triple(q.pop()), triple(reference.heap.pop())),
                    3 => {
                        // A limit around the cursor: at, before or
                        // past the latest instants.
                        let limit = Vt::from_ns((cursor + step).saturating_sub(2));
                        let want = if reference.heap.peek().is_some_and(|e| e.at < limit) {
                            reference.heap.pop()
                        } else {
                            None
                        };
                        prop_assert_eq!(triple(q.pop_if_before(limit)), triple(want));
                    }
                    _ => prop_assert_eq!(q.peek_at(), reference.heap.peek().map(|e| e.at)),
                }
                prop_assert_eq!(q.len(), reference.heap.len());
                prop_assert_eq!(q.is_empty(), reference.heap.is_empty());
            }
            while let Some(want) = reference.heap.pop() {
                prop_assert_eq!(triple(q.pop()), triple(Some(want)));
            }
            prop_assert!(q.pop().is_none());
        }
    }

    #[test]
    fn time_ordered_pushes_never_enter_the_heap() {
        let mut q = EventQueue::new();
        for (i, at) in [0u64, 5, 5, 5, 9, 12, 12, 40].into_iter().enumerate() {
            q.push(Vt::from_ns(at), i);
        }
        assert!(q.heap.is_empty());
        assert_eq!(q.run.len(), 8);
        // An event behind the run's back goes to the heap and still pops
        // in time order.
        q.push(Vt::from_ns(7), 8);
        assert_eq!(q.heap.len(), 1);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.kind)).collect();
        assert_eq!(order, [0, 1, 2, 3, 8, 4, 5, 6, 7]);
    }

    #[test]
    fn vt_arithmetic() {
        let t = Vt::from_ns(100);
        assert_eq!(t.ns(), 100);
        assert_eq!(t.after(Duration::from_nanos(20)).ns(), 120);
        assert_eq!(t.after_ns(u64::MAX).ns(), u64::MAX);
        assert_eq!(Vt::ZERO.as_duration(), Duration::ZERO);
        assert!(Vt::from_ns(1) > Vt::ZERO);
    }

    #[test]
    fn events_pop_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(Vt::from_ns(30), "c");
        q.push(Vt::from_ns(10), "a1");
        q.push(Vt::from_ns(10), "a2");
        q.push(Vt::from_ns(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.kind)).collect();
        assert_eq!(order, ["a1", "a2", "b", "c"]);
    }

    #[test]
    fn pop_if_before_is_strict() {
        let mut q = EventQueue::new();
        q.push(Vt::from_ns(10), 1u32);
        q.push(Vt::from_ns(20), 2u32);
        assert_eq!(q.peek_at(), Some(Vt::from_ns(10)));
        assert!(q.pop_if_before(Vt::from_ns(10)).is_none());
        let e = q.pop_if_before(Vt::from_ns(11)).expect("10 < 11");
        assert_eq!((e.at, e.kind), (Vt::from_ns(10), 1));
        assert!(q.pop_if_before(Vt::from_ns(20)).is_none());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().kind, 2);
        assert!(q.is_empty());
    }
}
