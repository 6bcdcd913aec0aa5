//! The tracing subsystem's contracts beyond determinism (covered in
//! `sched_determinism.rs`): metric cardinality stays bounded at fleet
//! scale, the SLO report is reproducible from the raw trace alone, the
//! critical-path analysis finds the tail's dominant stage on a soak,
//! and the decoder-buffer high-water mark surfaces through the report.

use fleet::sim::{simulate, FleetSimSpec};
use fleet::{VerifyPolicy, WireFormat};
use obs::trace::{critical_path, parse_jsonl, stage_breakdown, SloSample};
use obs::SloPolicy;

/// Label cardinality must track shards (capped at 64), never boards or
/// trace ids: a 10k-board traced run registers exactly the same metric
/// sample count as a 128-board run at the same shard count.
#[test]
fn ten_thousand_board_traced_run_keeps_snapshot_bounded() {
    let spec_for = |boards| FleetSimSpec {
        boards,
        shards: 64,
        requests: 2_000,
        trace: true,
        wire: WireFormat::Compressed,
        fault_rate: 0.1,
        seed: 29,
        ..FleetSimSpec::default()
    };
    let small = simulate(&spec_for(128));
    let large = simulate(&spec_for(10_000));
    assert_eq!(
        small.snapshot.samples.len(),
        large.snapshot.samples.len(),
        "10k-board run must not add label sets over a 128-board run"
    );
    // Absolute sanity bound: a handful of instruments x 64 shards, not
    // anything proportional to 10k boards or 2k trace ids.
    assert!(
        large.snapshot.samples.len() < 2_000,
        "snapshot has {} samples — a per-board or per-trace label leaked",
        large.snapshot.samples.len()
    );
    assert!(!large.trace.spans.is_empty());
}

/// The SLO engine's numbers are a pure function of the trace: rebuild
/// the per-request samples from the JSONL dump's `"request"` root spans
/// alone and the recomputed report must match the simulator's
/// bit-for-bit (same JSON bytes).
#[test]
fn slo_report_is_reproducible_from_the_raw_trace() {
    let policy = SloPolicy::parse("high:700:99,normal:2000:95,low:5000:90").expect("policy");
    let spec = FleetSimSpec {
        boards: 32,
        shards: 8,
        requests: 2_000,
        fault_rate: 0.15,
        max_attempts: 3,
        trace: true,
        slo: Some(policy.clone()),
        seed: 0x510,
        ..FleetSimSpec::default()
    };
    let r = simulate(&spec);
    let official = r.slo.as_ref().expect("slo report present");

    let spans = parse_jsonl(&r.trace.jsonl()).expect("own dump parses");
    let mut samples: Vec<(&str, SloSample)> = Vec::new();
    for s in spans.iter().filter(|s| s.stage == "request") {
        let class = s.field("class").expect("request spans carry class");
        let class = match class {
            "high" => "high",
            "normal" => "normal",
            "low" => "low",
            c => panic!("unknown class {c:?}"),
        };
        let outcome = s.field("outcome").expect("request spans carry outcome");
        samples.push((
            class,
            SloSample {
                completed_ns: s.start_ns + s.dur_ns,
                latency_ns: s.dur_ns,
                served: outcome.starts_with("served"),
            },
        ));
    }
    assert_eq!(samples.len(), r.outcomes.len(), "one root span per request");
    let recomputed = policy.evaluate(&samples);
    assert_eq!(
        recomputed.json(),
        official.json(),
        "independent recomputation from the raw trace diverged"
    );
    // The run above must actually exercise the engine: traffic in every
    // class and at least one violation somewhere.
    assert!(official.classes.iter().all(|c| c.requests > 0));
    assert!(official.classes.iter().any(|c| c.violations > 0));
}

/// Soak: 1k boards / 50k requests — the E17 configuration rerun under
/// the E18 fast verify path ([`VerifyPolicy::Adaptive`] + compressed
/// readback replies). The critical-path analysis over the resulting
/// trace must identify the stage p99 requests actually spend their
/// virtual time in, that stage must agree with a direct per-stage sum
/// over the slow requests — and it must no longer be "verify".
#[test]
fn soak_critical_path_identifies_dominant_p99_stage() {
    let spec = FleetSimSpec {
        boards: 1_000,
        shards: 64,
        requests: 50_000,
        fault_rate: 0.05,
        trace: true,
        wire: WireFormat::Compressed,
        verify: VerifyPolicy::Adaptive,
        seed: 0x50A4,
        ..FleetSimSpec::default()
    };
    let r = simulate(&spec);
    assert_eq!(r.trace.dropped, 0, "soak must fit the per-shard rings");
    let spans = parse_jsonl(&r.trace.jsonl()).expect("own dump parses");

    let report = critical_path(&spans, 0.99).expect("trace has request roots");
    assert!(report.slow_requests >= 500, "p99 of 50k leaves >= 500 slow");
    assert!(report.threshold_ns > 0);
    let dominant = report.dominant().expect("slow requests have child spans");

    // Independent check: sum child-span durations per stage over the
    // slow set by hand and compare the winner.
    let slow: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.stage == "request" && s.dur_ns >= report.threshold_ns)
        .map(|s| s.trace)
        .collect();
    let mut by_stage: std::collections::BTreeMap<&str, u64> = Default::default();
    for s in &spans {
        if s.stage != "request" && slow.contains(&s.trace) {
            *by_stage.entry(s.stage.as_str()).or_default() += s.dur_ns;
        }
    }
    let (expect, _) = by_stage
        .iter()
        .max_by_key(|(stage, ns)| (**ns, std::cmp::Reverse(**stage)))
        .expect("stages present");
    assert_eq!(dominant, *expect, "dominant stage disagrees with recount");

    // E17 found this soak's p99 tail dominated by verification port
    // time: downloads compressed ~3x while the raw readback reply
    // crossed the port uncompressed. Under the E18 fast verify path —
    // digest replies normally, compressed raw replies on escalation —
    // verification drops out of the dominant position (EXPERIMENTS.md
    // E18).
    assert_ne!(dominant, "verify", "p99 tail is still verify-dominated");
    // The tiers actually ran: clean first attempts verified on digests,
    // fault retries fell back to the raw compare, and verify spans
    // carry the flavor they ran at.
    assert!(r.verify_digest > 0 && r.verify_raw > 0);
    assert!(spans
        .iter()
        .any(|s| s.stage == "verify" && s.field("flavor") == Some("digest")));

    // The stage table covers every emitted stage and leads with the
    // heaviest by total time.
    let stats = stage_breakdown(spans.iter().map(|s| (s.stage.as_str(), s.dur_ns)));
    assert!(stats.iter().any(|s| s.stage == "download"));
    assert!(stats.iter().any(|s| s.stage == "queue"));
    assert!(stats.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
}

/// Compressed wire downloads surface the streaming decoder's buffer
/// high-water mark; plain downloads never touch the decoder.
#[test]
fn peak_buffer_words_tracks_wire_format() {
    let spec = FleetSimSpec {
        boards: 16,
        shards: 4,
        requests: 800,
        trace: true,
        wire: WireFormat::Compressed,
        seed: 3,
        ..FleetSimSpec::default()
    };
    let compressed = simulate(&spec);
    assert!(compressed.peak_buffer_words > 0);
    assert!(
        compressed.peak_buffer_words <= 8_192,
        "peak {} exceeds the section cap",
        compressed.peak_buffer_words
    );
    // Download spans carry the per-attempt peak as a field.
    let spans = parse_jsonl(&compressed.trace.jsonl()).expect("parses");
    let max_in_spans = spans
        .iter()
        .filter(|s| s.stage == "download")
        .filter_map(|s| s.field("peak_buffer_words"))
        .filter_map(|v| v.parse::<u64>().ok())
        .max()
        .expect("download spans present");
    assert_eq!(max_in_spans, compressed.peak_buffer_words);

    let plain = simulate(&FleetSimSpec {
        wire: WireFormat::Plain,
        ..spec
    });
    assert_eq!(plain.peak_buffer_words, 0);
}
