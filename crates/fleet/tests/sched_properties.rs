//! Property tests for the event-driven scheduler, over randomized
//! fleet shapes, workloads, fault rates, and admission limits.
//!
//! Invariants pinned here:
//!  * conservation — every request gets exactly one outcome, none lost,
//!    none double-served, under any spec;
//!  * coalescing — riders are zero-cost, land on the same board at the
//!    same virtual instant as the download they rode, and observe the
//!    same store generation;
//!  * per-board serialization — one board never runs two downloads
//!    concurrently in virtual time;
//!  * backpressure — admission control only ever refuses requests with
//!    a typed `Rejected`/`Shed` outcome; an *admitted* request is never
//!    dropped: it terminates as served or failed-with-reason.

use fleet::sim::{simulate, FleetSimSpec};
use fleet::{OutcomeKind, Priority};
use proptest::prelude::*;
use std::collections::HashMap;

fn spec_from(
    seed: u64,
    boards: usize,
    shards: usize,
    requests: usize,
    fault_permille: u32,
    queue_cap: usize,
    shed_watermark: usize,
) -> FleetSimSpec {
    FleetSimSpec {
        boards,
        shards: shards.min(boards).max(1),
        workers: 0,
        requests,
        regions: 2,
        variants: 3,
        fault_rate: fault_permille as f64 / 1000.0,
        queue_cap,
        shed_watermark,
        seed,
        ..FleetSimSpec::default()
    }
}

proptest! {
    /// Conservation: one outcome per request, ids unique, the four
    /// outcome classes partition the stream exactly.
    #[test]
    fn no_request_is_lost_or_double_served(
        seed in 0u64..1_000_000,
        boards in 1usize..24,
        requests in 1usize..400,
        fault_permille in 0u32..400,
    ) {
        let r = simulate(&spec_from(seed, boards, 8, requests, fault_permille, usize::MAX, usize::MAX));
        prop_assert_eq!(r.outcomes.len(), requests);
        let mut ids: Vec<u64> = r.outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), requests, "duplicate or missing outcome ids");
        prop_assert_eq!(
            (r.served + r.failed + r.rejected + r.shed) as usize,
            requests
        );
    }

    /// Every rider is free (no bytes, no attempts, no port time) and
    /// observes the same generation, board, and completion instant as a
    /// real download of its key.
    #[test]
    fn coalesced_riders_are_free_and_consistent(
        seed in 0u64..1_000_000,
        boards in 1usize..8,
        requests in 20usize..300,
    ) {
        let r = simulate(&spec_from(seed, boards, 4, requests, 0, usize::MAX, usize::MAX));
        // (board, completed-instant) of every download that succeeded.
        let mut downloads: HashMap<(u32, u64), u64> = HashMap::new();
        for o in &r.outcomes {
            if matches!(o.kind, OutcomeKind::Served { resident: false, coalesced: false }) && o.bytes > 0 {
                downloads.insert((o.board.unwrap(), o.completed.ns()), o.generation);
            }
        }
        for o in &r.outcomes {
            if let OutcomeKind::Served { coalesced: true, .. } = o.kind {
                prop_assert_eq!(o.bytes, 0, "rider paid for bytes");
                prop_assert_eq!(o.attempts, 0, "rider spent attempts");
                prop_assert_eq!(o.port_ns, 0, "rider consumed port time");
                let key = (o.board.expect("rider has a board"), o.completed.ns());
                let gen = downloads.get(&key);
                prop_assert_eq!(
                    gen, Some(&o.generation),
                    "rider must complete with the download it rode"
                );
            }
        }
    }

    /// One board, one port: download spans on the same board never
    /// overlap in virtual time, whatever the fault rate does to retry
    /// schedules.
    #[test]
    fn per_board_downloads_are_serialized(
        seed in 0u64..1_000_000,
        boards in 1usize..12,
        requests in 10usize..250,
        fault_permille in 0u32..500,
    ) {
        let r = simulate(&spec_from(seed, boards, 8, requests, fault_permille, usize::MAX, usize::MAX));
        let mut spans: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for o in r.outcomes.iter().filter(|o| o.bytes > 0) {
            // A download job is contiguous: completion = start + port.
            prop_assert_eq!(o.completed.ns(), o.started.ns() + o.port_ns);
            spans
                .entry(o.board.expect("download has a board"))
                .or_default()
                .push((o.started.ns(), o.completed.ns()));
        }
        for (board, mut s) in spans {
            s.sort_unstable();
            for w in s.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].0,
                    "board {} ran two downloads concurrently: {:?}",
                    board, w
                );
            }
        }
    }

    /// Backpressure never drops an admitted request. Refusals are typed
    /// and happen only at admission; everything admitted terminates as
    /// served or failed-with-reason, and only Low priority is ever shed.
    #[test]
    fn backpressure_refuses_typed_and_never_drops_admitted(
        seed in 0u64..1_000_000,
        boards in 1usize..6,
        requests in 50usize..300,
        queue_cap in 1usize..8,
        shed_watermark in 1usize..6,
    ) {
        let mut spec = spec_from(seed, boards, 2, requests, 100, queue_cap, shed_watermark);
        spec.mean_gap_ns = 50; // slam admission
        let r = simulate(&spec);
        prop_assert_eq!(r.outcomes.len(), requests);
        for o in &r.outcomes {
            match o.kind {
                OutcomeKind::Served { .. } => prop_assert!(o.error.is_none()),
                OutcomeKind::Failed => prop_assert!(o.error.is_some(), "silent failure"),
                OutcomeKind::Rejected => prop_assert!(
                    o.error.as_deref().is_some_and(|e| e.contains("queue full"))
                ),
                OutcomeKind::Shed => {
                    prop_assert_eq!(o.priority, Priority::Low, "shed a non-Low request");
                    prop_assert!(o.error.as_deref().is_some_and(|e| e.contains("shed")));
                }
            }
        }
    }

    /// Worker count is invisible to virtual results even on randomized
    /// specs (the determinism suite pins one big scenario; this sweeps
    /// many small ones). With up to 16 shards and 400 requests, the
    /// 4-worker runs' larger windows start three and four threads.
    #[test]
    fn worker_count_never_changes_outcomes(
        seed in 0u64..1_000_000,
        boards in 12usize..32,
        requests in 1usize..400,
        fault_permille in 0u32..300,
    ) {
        let mut spec = spec_from(seed, boards, 16, requests, fault_permille, usize::MAX, usize::MAX);
        spec.workers = 1;
        let a = simulate(&spec);
        spec.workers = 4;
        let b = simulate(&spec);
        prop_assert_eq!(a.outcomes, b.outcomes);
        prop_assert_eq!(a.completed.ns(), b.completed.ns());
    }
}
