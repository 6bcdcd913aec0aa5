//! The scheduler's central guarantee: virtual results are a pure
//! function of `(config, trace, seed)` — never of the worker count, the
//! OS scheduler, or wall-clock interleaving. Same seed + same trace ⇒
//! byte-identical event log, identical per-request outcomes, identical
//! final residency, identical latency histograms, on any worker count.

use fleet::sim::{simulate, FleetSimSpec, SimReport};
use fleet::{OutcomeKind, Priority, VerifyPolicy, WireFormat};

fn spec() -> FleetSimSpec {
    FleetSimSpec {
        boards: 48,
        shards: 12,
        requests: 3_000,
        regions: 3,
        variants: 5,
        fault_rate: 0.15,
        queue_cap: 64,
        shed_watermark: 48,
        log_events: true,
        seed: 0xD15C0,
        ..FleetSimSpec::default()
    }
}

fn run_with_workers(workers: usize) -> SimReport {
    let mut s = spec();
    s.workers = workers;
    simulate(&s)
}

/// Everything the spec promises to hold fixed across worker counts.
fn fingerprint(r: &SimReport) -> (usize, u64, u64, u64, u64, u64, u64, u64, [u64; 3]) {
    (
        r.outcomes.len(),
        r.served,
        r.failed,
        r.rejected,
        r.shed,
        r.retries,
        r.download_bytes,
        r.completed.ns(),
        [r.migrations, r.migration_retries, r.frag_final],
    )
}

/// Run `spec` at 1, 2 and 8 workers and assert identical totals,
/// per-request outcomes, final residency, event logs and metric
/// snapshots. Returns the one-worker report.
fn identical_at_1_2_and_8_workers(spec: &FleetSimSpec) -> SimReport {
    let run = |workers| {
        simulate(&FleetSimSpec {
            workers,
            ..spec.clone()
        })
    };
    let base = run(1);
    for workers in [2, 8] {
        let other = run(workers);
        assert_eq!(
            fingerprint(&base),
            fingerprint(&other),
            "totals diverged at {workers} workers"
        );
        assert_eq!(
            base.outcomes, other.outcomes,
            "per-request outcomes diverged at {workers} workers"
        );
        assert_eq!(
            base.resident, other.resident,
            "final board residency diverged at {workers} workers"
        );
        assert_eq!(
            base.event_log, other.event_log,
            "event log diverged at {workers} workers"
        );
        // The full metric snapshot — counters, gauges, and every latency
        // histogram bucket — is also identical: latency quantiles are a
        // pure function of the trace, not the thread schedule.
        assert_eq!(
            base.snapshot, other.snapshot,
            "metric snapshot diverged at {workers} workers"
        );
    }
    base
}

#[test]
fn identical_results_at_1_2_and_8_workers() {
    identical_at_1_2_and_8_workers(&spec());
    // One shard per board under a 1 µs mean arrival gap: windows then
    // hold enough busy shards (24 or more) that the 8-worker run starts
    // all eight threads, not at most four as with 12 shards.
    identical_at_1_2_and_8_workers(&FleetSimSpec {
        shards: 48,
        mean_gap_ns: 1_000,
        ..spec()
    });
}

/// The defragmenter's migrations are ordinary scheduler events, so the
/// determinism guarantee extends to them unchanged: identical event
/// logs (migration lines included), outcomes, final fragmentation and
/// metric snapshots at 1, 2 and 8 workers.
#[test]
fn defrag_runs_are_identical_across_worker_counts() {
    let base = identical_at_1_2_and_8_workers(&FleetSimSpec {
        defrag: true,
        ..spec()
    });
    assert!(base.migrations > 0, "fragmented layout must migrate");
    assert!(base.frag_initial > 0);
    assert_eq!(base.frag_final, 0, "idle windows fully compact the fleet");
    assert_eq!(base.served, 3_000, "defrag never costs a request");
}

/// The sweep the three settings below share: 48 boards in 12 shards
/// serve 2 000 requests under 10% port faults.
fn sweep(seed: u64) -> FleetSimSpec {
    FleetSimSpec {
        boards: 48,
        shards: 12,
        requests: 2_000,
        regions: 3,
        variants: 5,
        fault_rate: 0.10,
        log_events: true,
        seed,
        ..FleetSimSpec::default()
    }
}

#[test]
fn defrag_sweep_compacts_and_serves_everything() {
    let base = identical_at_1_2_and_8_workers(&FleetSimSpec {
        defrag: true,
        ..sweep(0xDE_F2A6)
    });
    assert!(base.frag_initial > 0, "scattered layout starts fragmented");
    assert_eq!(base.frag_final, 0, "fleet must compact");
    assert!(base.migrations > 0);
    assert_eq!(base.served, 2_000, "defrag must not cost a request");
}

/// The modelled compressed-wire traffic stays in calibration with the
/// real Figure-4 gate's 3x floor (conformance's
/// `fig4_compressed_wire_pushes_3x_fewer_bytes`).
#[test]
fn compressed_wire_sweep_models_3x_fewer_bytes() {
    let compressed = FleetSimSpec {
        wire: WireFormat::Compressed,
        ..sweep(0x31BE)
    };
    let base = identical_at_1_2_and_8_workers(&compressed);
    assert_eq!(base.served, 2_000);
    let plain = simulate(&FleetSimSpec {
        wire: WireFormat::Plain,
        ..compressed
    });
    assert!(base.download_bytes * 3 <= plain.download_bytes);
    assert_eq!(
        (plain.download_bytes, base.download_bytes),
        (8_415_302, 703_631)
    );
}

/// The modelled adaptive-verify readback stays in calibration with the
/// real Figure-4 gate's 10x floor (conformance's
/// `fig4_adaptive_verify_pulls_10x_fewer_readback_bytes`). The
/// calibration runs at plain wire and zero faults: compressed wire
/// already shrinks the raw reply, and under faults retries are
/// legitimately re-verified raw.
#[test]
fn adaptive_verify_sweep_models_8x_fewer_readback_bytes() {
    let adaptive = FleetSimSpec {
        wire: WireFormat::Compressed,
        verify: VerifyPolicy::Adaptive,
        ..sweep(0x5A7E)
    };
    assert_eq!(identical_at_1_2_and_8_workers(&adaptive).served, 2_000);
    let clean = |verify| {
        simulate(&FleetSimSpec {
            wire: WireFormat::Plain,
            fault_rate: 0.0,
            log_events: false,
            verify,
            ..adaptive.clone()
        })
        .readback_bytes
    };
    let (full, digest) = (clean(VerifyPolicy::Full), clean(VerifyPolicy::Adaptive));
    assert!(digest * 8 <= full, "{full} -> {digest} readback bytes");
    assert_eq!((full, digest), (13_503_833, 424_462));
}

/// Tracing is an observer, not a participant: with per-request span
/// recording, flight recorder and compressed wire downloads all live,
/// the rendered trace dumps — JSONL, Chrome `trace_event` JSON and the
/// post-mortem stream — are byte-identical across worker counts, and
/// turning tracing on does not perturb the schedule itself.
#[test]
fn traces_are_byte_identical_across_worker_counts() {
    let traced_spec = |workers| FleetSimSpec {
        trace: true,
        wire: WireFormat::Compressed,
        // A small retry budget under 15% faults leaves some requests
        // terminally failed, so the flight recorder has dumps to merge.
        max_attempts: 2,
        workers,
        ..spec()
    };
    let base = simulate(&traced_spec(1));
    assert!(!base.trace.spans.is_empty(), "traced run records spans");
    assert_eq!(
        base.trace.dropped, 0,
        "ring must not overflow at 3k requests"
    );
    assert!(base.failed > 0, "spec must produce terminal failures");
    assert!(!base.postmortems.is_empty(), "failures dump post-mortems");
    assert!(base.peak_buffer_words > 0, "compressed wire reports peak");
    for workers in [2, 8] {
        let other = simulate(&traced_spec(workers));
        assert_eq!(
            base.trace.jsonl(),
            other.trace.jsonl(),
            "JSONL trace diverged at {workers} workers"
        );
        assert_eq!(
            base.trace.chrome_json(),
            other.trace.chrome_json(),
            "Chrome trace diverged at {workers} workers"
        );
        assert_eq!(
            base.postmortems, other.postmortems,
            "post-mortems diverged at {workers} workers"
        );
        assert_eq!(base.peak_buffer_words, other.peak_buffer_words);
    }
    // The schedule itself is unchanged by observation: outcomes and the
    // event log match an untraced run of the same spec.
    let untraced = simulate(&FleetSimSpec {
        max_attempts: 2,
        wire: WireFormat::Compressed,
        workers: 1,
        ..spec()
    });
    assert_eq!(base.outcomes, untraced.outcomes);
    assert_eq!(base.event_log, untraced.event_log);
}

/// Golden trace fixture: a small seeded scenario whose JSONL span dump
/// is pinned byte-for-byte. Regenerate deliberately with
/// `BLESS_SCHED_TRACE=1 cargo test -p fleet --test sched_determinism`.
#[test]
fn trace_matches_golden_fixture() {
    let s = FleetSimSpec {
        boards: 4,
        shards: 2,
        workers: 1,
        requests: 24,
        regions: 2,
        variants: 2,
        fault_rate: 0.25,
        trace: true,
        wire: WireFormat::Compressed,
        seed: 7,
        ..FleetSimSpec::default()
    };
    let r = simulate(&s);
    let rendered = r.trace.jsonl();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sched_trace.jsonl"
    );
    if std::env::var_os("BLESS_SCHED_TRACE").is_some() {
        std::fs::write(path, &rendered).expect("bless fixture");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing — run with BLESS_SCHED_TRACE=1 to create it");
    assert_eq!(
        rendered, golden,
        "trace diverged from the golden fixture; if span emission \
         intentionally changed, re-bless with BLESS_SCHED_TRACE=1"
    );
}

#[test]
fn repeated_runs_are_byte_identical() {
    let a = run_with_workers(0); // 0 = all available cores
    let b = run_with_workers(0);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.event_log, b.event_log);
    assert_eq!(a.snapshot, b.snapshot);
}

#[test]
fn different_seeds_change_the_schedule() {
    let a = run_with_workers(1);
    let mut s = spec();
    s.seed ^= 0xBEEF;
    s.workers = 1;
    let b = simulate(&s);
    assert_ne!(a.event_log, b.event_log, "seed must drive the schedule");
}

/// Golden event-log fixture: a small seeded scenario whose merged event
/// log is pinned byte-for-byte. Regenerate deliberately with
/// `BLESS_SCHED_LOG=1 cargo test -p fleet --test sched_determinism`.
#[test]
fn event_log_matches_golden_fixture() {
    let s = FleetSimSpec {
        boards: 4,
        shards: 2,
        workers: 1,
        requests: 24,
        regions: 2,
        variants: 2,
        fault_rate: 0.25,
        log_events: true,
        seed: 7,
        ..FleetSimSpec::default()
    };
    let r = simulate(&s);
    let rendered = r.event_log.join("\n") + "\n";
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sched_event_log.txt"
    );
    if std::env::var_os("BLESS_SCHED_LOG").is_some() {
        std::fs::write(path, &rendered).expect("bless fixture");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing — run with BLESS_SCHED_LOG=1 to create it");
    assert_eq!(
        rendered, golden,
        "event log diverged from the golden fixture; if the scheduler \
         intentionally changed, re-bless with BLESS_SCHED_LOG=1"
    );
}

/// Metrics label cardinality tracks shards, not boards: growing the
/// fleet 16x at a fixed shard count must not add a single label set.
#[test]
fn snapshot_size_is_independent_of_board_count() {
    let small = simulate(&FleetSimSpec {
        boards: 32,
        shards: 8,
        requests: 500,
        seed: 11,
        ..FleetSimSpec::default()
    });
    let large = simulate(&FleetSimSpec {
        boards: 512,
        shards: 8,
        requests: 500,
        seed: 11,
        ..FleetSimSpec::default()
    });
    assert_eq!(
        small.snapshot.samples.len(),
        large.snapshot.samples.len(),
        "label cardinality must scale with shards, not boards"
    );
}

/// Virtual-time outcomes are internally consistent regardless of how
/// requests were classified.
#[test]
fn outcome_classification_is_exhaustive_and_typed() {
    let r = simulate(&spec());
    for o in &r.outcomes {
        match o.kind {
            OutcomeKind::Served { .. } => assert!(o.error.is_none()),
            OutcomeKind::Failed => assert!(o.error.is_some()),
            OutcomeKind::Rejected => {
                assert!(o.error.as_deref().is_some_and(|e| e.contains("queue full")))
            }
            OutcomeKind::Shed => {
                assert_eq!(o.priority, Priority::Low);
                assert!(o.error.as_deref().is_some_and(|e| e.contains("shed")));
            }
        }
    }
}

/// The settlement scenario: two boards in one shard, a tight admission
/// queue, a two-attempt retry budget under heavy port faults and the
/// defragmenter on, fed a hand-written trace so that every way a request
/// can end happens at least once.
fn every_outcome_spec(seed: u64) -> FleetSimSpec {
    FleetSimSpec {
        boards: 2,
        shards: 1,
        workers: 1,
        regions: 2,
        variants: 3,
        fault_rate: 0.5,
        max_attempts: 2,
        queue_cap: 2,
        shed_watermark: 1,
        log_events: true,
        trace: true,
        defrag: true,
        seed,
        ..FleetSimSpec::default()
    }
}

/// Requests as `(at_ns, region, variant, priority)`, ids in list order.
fn every_outcome_trace() -> Vec<fleet::SimRequest> {
    use Priority::{High, Low, Normal};
    let burst = |at: u64, keys: &[(u32, u32, Priority)]| -> Vec<(u64, u32, u32, Priority)> {
        keys.iter().map(|&(r, v, p)| (at, r, v, p)).collect()
    };
    let mut reqs = Vec::new();
    // t=0: two downloads start, one rider attaches, one request queues,
    // a low-priority one sheds past the watermark, one more queues, the
    // next is rejected at the cap, and a bad region fails resolution.
    reqs.extend(burst(
        0,
        &[
            (0, 0, Normal),
            (0, 0, Normal),
            (1, 1, High),
            (0, 2, Normal),
            (1, 2, Low),
            (0, 1, Normal),
            (1, 0, Normal),
            (9, 0, Normal),
        ],
    ));
    // Hot-key bursts: every download carries riders, so some of them
    // exhaust the retry budget with riders attached.
    for (i, key) in [(1, 2), (0, 1), (1, 0), (0, 2), (1, 1), (0, 0)]
        .iter()
        .enumerate()
    {
        let at = 1_000_000 * (i as u64 + 1);
        reqs.extend(burst(at, &[(key.0, key.1, Normal), (key.0, key.1, High)]));
    }
    // Long after the fleet settles: every key again, so any variant
    // still resident is served without a download.
    for r in 0..2 {
        for v in 0..3 {
            reqs.push((50_000_000, r, v, Normal));
        }
    }
    reqs.into_iter()
        .enumerate()
        .map(|(id, (at, region, variant, priority))| fleet::SimRequest {
            id: id as u64,
            at: fleet::Vt::from_ns(at),
            region,
            variant,
            priority,
            payload: id as u32,
        })
        .collect()
}

/// Golden settlement fixture: the scenario above reaches every way a
/// request can end (resident, coalesced and served; failed at
/// resolution, by exhaustion and as the rider of an exhausted download;
/// rejected; shed) and both migration endings. Its event log, JSONL
/// trace, post-mortems, outcomes and metric snapshot are pinned
/// byte-for-byte. Regenerate deliberately with
/// `BLESS_SCHED_LOG=1 cargo test -p fleet --test sched_determinism`.
#[test]
fn every_outcome_matches_golden_fixture() {
    let r = fleet::simulate_trace(&every_outcome_spec(356), every_outcome_trace());
    let count = |f: &dyn Fn(&fleet::Outcome) -> bool| r.outcomes.iter().filter(|o| f(o)).count();
    let served = |resident, coalesced| OutcomeKind::Served {
        resident,
        coalesced,
    };
    let reached = [
        ("resident", count(&|o| o.kind == served(true, false))),
        ("coalesced", count(&|o| o.kind == served(false, true))),
        ("served", count(&|o| o.kind == served(false, false))),
        (
            "failed at resolution",
            count(&|o| o.kind == OutcomeKind::Failed && o.board.is_none()),
        ),
        (
            "failed by exhaustion",
            count(&|o| o.kind == OutcomeKind::Failed && o.attempts > 0),
        ),
        (
            "failed as a rider",
            count(&|o| o.kind == OutcomeKind::Failed && o.board.is_some() && o.attempts == 0),
        ),
        ("rejected", count(&|o| o.kind == OutcomeKind::Rejected)),
        ("shed", count(&|o| o.kind == OutcomeKind::Shed)),
        ("migration done", r.migrations as usize),
        (
            "migration exhausted",
            r.event_log
                .iter()
                .filter(|l| l.contains("migrate-exhausted"))
                .count(),
        ),
    ];
    for (what, n) in reached {
        assert!(n > 0, "the scenario no longer reaches: {what}");
    }

    let mut rendered = String::from("== event log\n");
    for line in &r.event_log {
        rendered += line;
        rendered.push('\n');
    }
    rendered += "== trace\n";
    rendered += &r.trace.jsonl();
    rendered += "== postmortems\n";
    for pm in &r.postmortems {
        rendered += pm;
        rendered.push('\n');
    }
    rendered += "== outcomes\n";
    for o in &r.outcomes {
        rendered += &format!("{o:?}\n");
    }
    rendered += "== metrics\n";
    rendered += &obs::prometheus(&r.snapshot);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sched_every_outcome.txt"
    );
    if std::env::var_os("BLESS_SCHED_LOG").is_some() {
        std::fs::write(path, &rendered).expect("bless fixture");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing — run with BLESS_SCHED_LOG=1 to create it");
    assert_eq!(
        rendered, golden,
        "settlement diverged from the golden fixture; if the scheduler \
         intentionally changed, re-bless with BLESS_SCHED_LOG=1"
    );
}
