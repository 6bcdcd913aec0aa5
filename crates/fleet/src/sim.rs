//! Model-backed fleet simulation: the 10k-board, million-request scale
//! harness.
//!
//! The real backend (`service.rs`) drives actual `SimBoard` fabric —
//! cycle-accurate but far too heavy to instantiate ten thousand times.
//! [`ModelBackend`] keeps only what the *scheduler* observes: the
//! per-key cost record ([`Resolved`], priced through the same 50 MHz
//! SelectMAP byte-cycle model and the same verify ladder as real
//! downloads) and a per-board deterministic [`FaultInjector`] reusing
//! `simboard`'s exact fault fates. Store
//! behaviour is modelled by a prepass over the trace: the first request
//! to touch each `(region, variant)` pays the store miss, everyone
//! after hits — which makes per-request `store_hit` flags deterministic
//! (the real store's once-lock race is winner-takes-miss and therefore
//! timing-dependent; a model must not be).
//!
//! [`simulate`] is the single entry point used by the determinism,
//! property and fault-soak test suites and by `jpg-cli fleet-sim`.

use crate::clock::Vt;
use crate::metrics::FleetMetrics;
use crate::sched::{
    self, Backend, DefragConfig, DownloadResult, Flavor, Outcome, Probe, Resident, Resolved,
    SchedConfig, ServeMode, SimRequest, Verifier, VerifyPolicy,
};
use crate::service::WireFormat;
use crate::trace::TraceSpec;
use obs::trace::{SloPolicy, SloReport, SloSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simboard::port::download_ns;
use simboard::{FaultInjector, FaultKind};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Parameters of one model-backed simulation.
#[derive(Debug, Clone)]
pub struct FleetSimSpec {
    /// Simulated boards.
    pub boards: usize,
    /// Shards (0 = `boards.min(64)`). Shard count fixes the schedule.
    pub shards: usize,
    /// Worker threads (0 = available parallelism). Wall time only.
    pub workers: usize,
    /// Synthetic requests to generate.
    pub requests: usize,
    /// Regions per board.
    pub regions: u32,
    /// Variants per region.
    pub variants: u32,
    /// Zipf skew of variant popularity (0 = uniform).
    pub zipf_s: f64,
    /// Mean inter-arrival gap, virtual ns (0 = auto-size to ~80% fleet
    /// utilization from the modelled service cost).
    pub mean_gap_ns: u64,
    /// Burst factor for the arrival process (1 = no bursts).
    pub burst: u64,
    /// Fraction of requests tagged high priority.
    pub high_fraction: f64,
    /// Fraction of requests tagged low priority.
    pub low_fraction: f64,
    /// Per-download fault probability on every board.
    pub fault_rate: f64,
    /// Download flavor.
    pub mode: ServeMode,
    /// Wire encoding for partial downloads: under
    /// [`WireFormat::Compressed`] the per-key partial byte counts are
    /// scaled by seeded compression ratios calibrated against the real
    /// `wire` encoder on the Figure-4 library (full bitstreams and
    /// readback replies stay plain, as in the real backend).
    pub wire: WireFormat,
    /// Retry budget per request.
    pub max_attempts: u32,
    /// How downloads are verified: each attempt runs the policy's
    /// [`sched::VerifyTier`] through the same ladder as the real
    /// backend. A corrupt fate fails the digests and escalates to the
    /// raw reply, so it is never accepted on digests alone.
    pub verify: VerifyPolicy,
    /// Per-shard admission queue bound.
    pub queue_cap: usize,
    /// Per-shard backlog at which low-priority arrivals shed.
    pub shed_watermark: usize,
    /// Same-key request coalescing.
    pub coalesce: bool,
    /// Record the per-event log (golden fixtures; heavy at scale).
    pub log_events: bool,
    /// Record causal request traces, flight-recorder post-mortems and
    /// the decoder-buffer high-water mark.
    pub trace: bool,
    /// Evaluate per-priority-class latency objectives over the run's
    /// outcomes and record error budgets into the metric registry.
    pub slo: Option<SloPolicy>,
    /// Enable the online defragmenter: every board starts with a
    /// deliberately scattered slot layout (region `i` parked at slot
    /// `2i + 1`, a hole under every region) and compacts it during idle
    /// windows via modelled relocation downloads.
    pub defrag: bool,
    /// Column slots per board (0 or anything below `2 * regions` widens
    /// to `2 * regions`, the scattered layout's footprint).
    pub slots: usize,
    /// Idle dwell before a fragmented board migrates, virtual ns
    /// (0 = 50 µs).
    pub defrag_idle_ns: u64,
    /// Master seed: trace, artifact sizes and fault fates all derive
    /// from it.
    pub seed: u64,
}

impl Default for FleetSimSpec {
    fn default() -> FleetSimSpec {
        FleetSimSpec {
            boards: 64,
            shards: 0,
            workers: 0,
            requests: 10_000,
            regions: 4,
            variants: 8,
            zipf_s: 1.1,
            mean_gap_ns: 0,
            burst: 8,
            high_fraction: 0.05,
            low_fraction: 0.10,
            fault_rate: 0.0,
            mode: ServeMode::Partial,
            wire: WireFormat::Plain,
            max_attempts: 16,
            verify: VerifyPolicy::Full,
            queue_cap: usize::MAX,
            shed_watermark: usize::MAX,
            coalesce: true,
            log_events: false,
            trace: false,
            slo: None,
            defrag: false,
            slots: 0,
            defrag_idle_ns: 0,
            seed: 0xF1EE7,
        }
    }
}

/// Modelled per-key artifact sizes, deterministic in the spec seed.
///
/// The numbers are shaped like the real XCV300 serving library from
/// E10: incremental partials of a few KB, wholesale partials a small
/// multiple of that, complete bitstreams in the hundreds of KB, and a
/// region readback reply slightly larger than the wholesale partial
/// (one pad frame per read).
fn model_sizes(spec: &FleetSimSpec) -> HashMap<(u32, u32), Resolved> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xA57F_AC75);
    // Wire-compression ratios come from their own stream so switching
    // formats never perturbs the base (plain) sizes of later keys.
    let mut wire_rng = StdRng::seed_from_u64(spec.seed ^ 0x31BE_C0DE);
    let mut sizes = HashMap::new();
    for region in 0..spec.regions {
        for variant in 0..spec.variants {
            let mut incremental = 4_096 + rng.gen_range(0..8_192u64);
            let mut wholesale = incremental * 2 + rng.gen_range(0..4_096u64);
            let full = 220_000 + rng.gen_range(0..20_000u64);
            let generation = rng.gen_range(1..u64::MAX);
            // Size the verify traffic from the plain wholesale footprint
            // (one pad frame per read) before any wire scaling; the
            // digest reply is 8 bytes per frame against ~192-byte raw
            // frames, a fixed ~24x reduction independent of the wire.
            let mut verify = wholesale + wholesale / 4;
            let verify_digest = (verify / 24).max(16);
            if spec.wire == WireFormat::Compressed {
                // Per-key compression ratios (percent), calibrated from
                // the real wire encoder on the Figure-4 library (see
                // conformance's `fig4_compressed_wire_pushes_3x_fewer_bytes`):
                // incrementals ship only dense dirty frames and compress
                // 2.7-3.5x, while wholesales cover whole mostly-zero
                // regions that RLE crushes 17-49x.
                let r_inc = 270 + wire_rng.gen_range(0..80u64);
                let r_who = 1_700 + wire_rng.gen_range(0..3_200u64);
                incremental = (incremental * 100 / r_inc).max(1);
                wholesale = (wholesale * 100 / r_who).max(1);
                // A raw readback reply covers the same mostly-zero
                // region frames the wholesale partial writes, so the
                // `JWR1` reply coding tracks the wholesale ratio — the
                // same per-key draw, no extra stream consumption.
                verify = (verify * 100 / r_who).max(1);
            }
            sizes.insert(
                (region, variant),
                Resolved {
                    store_hit: true, // patched per request via miss set
                    generation,
                    bytes_incremental: incremental,
                    bytes_wholesale: wholesale,
                    bytes_full: full,
                    bytes_verify: verify,
                    bytes_verify_digest: verify_digest,
                    // One raw frame plus its pad frame.
                    bytes_sample: 192,
                },
            );
        }
    }
    sizes
}

/// One modelled board: fault fates only.
pub struct ModelBoard {
    fault: Option<FaultInjector>,
}

/// The scale-harness backend: byte-count costs, no fabric.
pub struct ModelBackend {
    regions: u32,
    sizes: HashMap<(u32, u32), Resolved>,
    miss_ids: HashSet<u64>,
    wire: WireFormat,
    verify: VerifyPolicy,
}

impl ModelBackend {
    /// A backend for `spec`, with store misses assigned to the first
    /// request of each key in `trace` order.
    pub fn new(spec: &FleetSimSpec, trace: &[SimRequest]) -> ModelBackend {
        ModelBackend::with_sizes(model_sizes(spec), spec.wire, spec.verify, trace)
    }

    /// A backend pricing each `(region, variant)` from its entry in
    /// `sizes`, with store misses assigned to the first request of each
    /// key in `trace` order.
    pub(crate) fn with_sizes(
        sizes: HashMap<(u32, u32), Resolved>,
        wire: WireFormat,
        verify: VerifyPolicy,
        trace: &[SimRequest],
    ) -> ModelBackend {
        let mut seen = HashSet::new();
        let miss_ids = (trace.iter())
            .filter(|r| seen.insert((r.region, r.variant)))
            .map(|r| r.id)
            .collect();
        ModelBackend {
            regions: sizes.keys().map(|&(r, _)| r + 1).max().unwrap_or(0),
            sizes,
            miss_ids,
            wire,
            verify,
        }
    }

    /// Fresh board states for `spec`, fault injectors seeded per board
    /// with the same per-index derivation the real fleet uses.
    pub fn boards(spec: &FleetSimSpec) -> Vec<ModelBoard> {
        (0..spec.boards)
            .map(|i| ModelBoard {
                fault: FaultInjector::for_board(spec.fault_rate, spec.seed, i),
            })
            .collect()
    }
}

/// A modelled board's answers to the verification ladder: every read
/// finds the attempt's fate, so a corrupt region fails its digests.
struct ModelVerify<'a> {
    fate: Probe,
    res: &'a Resolved,
}

impl Verifier for ModelVerify<'_> {
    fn digest(&mut self) -> Option<Probe> {
        Some(self.fate)
    }

    fn sample(&mut self) -> Probe {
        self.fate
    }

    fn raw(&mut self) -> (Probe, u64) {
        (self.fate, self.res.bytes_verify)
    }
}

impl Backend for ModelBackend {
    type Artifact = ();
    type Board = ModelBoard;

    fn resolve(&self, req: &SimRequest) -> Result<((), Resolved), String> {
        if req.region >= self.regions {
            return Err(format!("bad request: region {} out of range", req.region));
        }
        let Some(&res) = self.sizes.get(&(req.region, req.variant)) else {
            return Err(format!(
                "bad request: variant {} out of range for region {}",
                req.variant, req.region
            ));
        };
        let store_hit = !self.miss_ids.contains(&req.id);
        Ok(((), Resolved { store_hit, ..res }))
    }

    fn download(
        &self,
        board: &mut ModelBoard,
        _global: u32,
        _art: &(),
        flavor: Flavor,
        attempt: u32,
        res: &Resolved,
    ) -> DownloadResult {
        let bytes = match flavor {
            Flavor::Incremental => res.bytes_incremental,
            Flavor::Wholesale => res.bytes_wholesale,
            Flavor::Full => res.bytes_full,
        };
        // Compressed partials stream through the device-side decoder;
        // model its buffer high-water mark as the decoded footprint in
        // words, capped at one section's worth (the real decoder never
        // buffers more — see `wire::SECTION_MAX_WORDS`). Plain and full
        // downloads bypass the decoder entirely.
        let peak = if self.wire == WireFormat::Compressed && flavor != Flavor::Full {
            (bytes / 4).clamp(1, 8_192)
        } else {
            0
        };
        let draw = match &mut board.fault {
            Some(f) => f.draw(),
            None => FaultKind::Clean,
        };
        if draw == FaultKind::Drop {
            let error = "transfer fault (dropped frames)".to_string();
            return DownloadResult::port_fault(error, bytes, peak);
        }
        let fate = match draw {
            FaultKind::Corrupt => Probe::Mismatch,
            _ => Probe::Match,
        };
        let tier = self.verify.tier(attempt);
        let verdict = sched::verify(tier, res, &mut ModelVerify { fate, res });
        DownloadResult::checked(bytes, peak, verdict)
    }

    fn finish(&self, _board: &mut ModelBoard, _region: u32, _payload: u32) -> Vec<(String, bool)> {
        Vec::new()
    }

    fn migrate(
        &self,
        board: &mut ModelBoard,
        global: u32,
        region: u32,
        resident: Resident,
    ) -> Option<DownloadResult> {
        // Relocating a region's content is priced as a wholesale
        // download at the new origin plus the usual verification
        // readback, drawing fault fates from the same per-board
        // injector as request downloads. Base/unknown content is priced
        // at the region's variant-0 footprint.
        let variant = match resident {
            Resident::Variant(v) => v,
            Resident::Base | Resident::Unknown => 0,
        };
        let res = self.sizes[&(region, variant)];
        Some(self.download(board, global, &(), Flavor::Wholesale, 1, &res))
    }
}

/// Everything a simulation run reports.
#[derive(Debug)]
pub struct SimReport {
    /// Per-request outcomes, sorted by id.
    pub outcomes: Vec<Outcome>,
    /// Requests served (residents and coalesced riders included).
    pub served: u64,
    /// Requests that exhausted retries or failed resolution.
    pub failed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Low-priority requests dropped past the shed watermark.
    pub shed: u64,
    /// Requests that rode another's in-flight download.
    pub coalesced: u64,
    /// Requests served with zero port traffic.
    pub resident_hits: u64,
    /// Download attempts issued.
    pub downloads: u64,
    /// Configuration bytes pushed.
    pub download_bytes: u64,
    /// Readback reply bytes pulled for verification.
    pub readback_bytes: u64,
    /// Failed download attempts that were retried.
    pub retries: u64,
    /// Readback compares that mismatched.
    pub verify_failures: u64,
    /// Verifications that ran as a raw readback compare.
    pub verify_raw: u64,
    /// Verifications served by digest compare alone.
    pub verify_digest: u64,
    /// Digest verifications that also spot-checked sampled raw frames.
    pub verify_sampled: u64,
    /// Digest verifications that escalated to a raw compare.
    pub verify_escalations: u64,
    /// Requests migrated between shards at rebalance barriers.
    pub stolen: u64,
    /// Slot migrations the defragmenter completed.
    pub migrations: u64,
    /// Migration attempts that faulted and were retried or abandoned.
    pub migration_retries: u64,
    /// Summed per-board slot fragmentation before the run.
    pub frag_initial: u64,
    /// Summed per-board slot fragmentation after the run.
    pub frag_final: u64,
    /// Virtual completion instant of the whole trace.
    pub completed: Vt,
    /// Largest per-board simulated port busy time, nanoseconds.
    pub makespan_ns: u64,
    /// Arrival-to-completion latency quantiles (virtual time).
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Served requests per second of virtual completion time.
    pub throughput_rps: f64,
    /// Wall-clock the simulation took.
    pub wall: Duration,
    /// Merged event log (empty unless `log_events`).
    pub event_log: Vec<String>,
    /// Final residency per board per region.
    pub resident: Vec<Vec<Resident>>,
    /// Full metric snapshot (deterministic for a fixed seed + spec,
    /// independent of worker count).
    pub snapshot: obs::Snapshot,
    /// Causal request trace (empty unless [`FleetSimSpec::trace`]).
    pub trace: obs::Trace,
    /// Flight-recorder post-mortems (one JSON object per terminal
    /// failure or defragmenter stand-down; empty unless tracing).
    pub postmortems: Vec<String>,
    /// Fleet-wide decoder-buffer high-water mark, words (zero unless
    /// tracing with compressed wire downloads).
    pub peak_buffer_words: u64,
    /// SLO evaluation over the run's outcomes, when a policy was set.
    pub slo: Option<SloReport>,
}

impl FleetSimSpec {
    /// The scheduler configuration this spec induces.
    pub fn sched_config(&self) -> SchedConfig {
        SchedConfig {
            mode: self.mode,
            max_attempts: self.max_attempts,
            backoff: Duration::from_micros(20),
            shards: if self.shards == 0 {
                self.boards.min(64)
            } else {
                self.shards
            },
            workers: self.workers,
            window: Duration::from_micros(20),
            queue_cap: self.queue_cap,
            shed_watermark: self.shed_watermark,
            coalesce: self.coalesce,
            log_events: self.log_events,
            trace: self.trace,
            defrag: self.defrag.then(|| {
                let slots = self.slots.max(2 * self.regions as usize);
                DefragConfig {
                    slots,
                    // Region i at slot 2i+1: a hole below every region,
                    // maximal fragmentation for the footprint.
                    layout: (0..self.regions as usize).map(|r| 2 * r + 1).collect(),
                    idle: Duration::from_nanos(if self.defrag_idle_ns == 0 {
                        50_000
                    } else {
                        self.defrag_idle_ns
                    }),
                    max_attempts: self.max_attempts,
                }
            }),
            verify: self.verify,
        }
    }

    /// The synthetic trace this spec induces. With `mean_gap_ns == 0`
    /// the gap is sized so offered load is ~80% of the fleet's modelled
    /// service capacity (wholesale download + verify per request).
    pub fn trace_spec(&self) -> TraceSpec {
        let mean_gap_ns = if self.mean_gap_ns == 0 {
            let sizes = model_sizes(self);
            let mean_service: u64 = sizes
                .values()
                .map(|r| {
                    let bytes = match self.mode {
                        ServeMode::Partial => r.bytes_wholesale,
                        ServeMode::FullSwap => r.bytes_full,
                    };
                    download_ns((bytes + r.bytes_verify) as usize)
                })
                .sum::<u64>()
                / sizes.len().max(1) as u64;
            ((mean_service as f64) / (self.boards as f64 * 0.8)).max(1.0) as u64
        } else {
            self.mean_gap_ns
        };
        TraceSpec {
            requests: self.requests,
            regions: self.regions,
            variants: self.variants,
            zipf_s: self.zipf_s,
            mean_gap_ns,
            burst: self.burst,
            high_fraction: self.high_fraction,
            low_fraction: self.low_fraction,
            seed: self.seed,
        }
    }
}

/// Run a model-backed simulation of `spec`'s synthetic trace.
pub fn simulate(spec: &FleetSimSpec) -> SimReport {
    simulate_trace(spec, spec.trace_spec().generate())
}

/// Run a model-backed simulation of an explicit trace (the determinism
/// suite replays one trace at several worker counts).
pub fn simulate_trace(spec: &FleetSimSpec, trace: Vec<SimRequest>) -> SimReport {
    let t0 = std::time::Instant::now();
    let backend = ModelBackend::new(spec, &trace);
    let states = ModelBackend::boards(spec);
    let resident = vec![vec![Resident::Base; spec.regions as usize]; spec.boards];
    let metrics = FleetMetrics::new();
    let cfg = spec.sched_config();
    let out = sched::run(&backend, &metrics, &cfg, trace, states, resident);
    let slo = spec.slo.as_ref().map(|policy| {
        let samples: Vec<(&str, SloSample)> = out
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.priority.name(),
                    SloSample {
                        completed_ns: o.completed.ns(),
                        latency_ns: o.completed.ns() - o.arrived.ns(),
                        served: o.served(),
                    },
                )
            })
            .collect();
        let report = policy.evaluate(&samples);
        report.record(metrics.registry());
        report
    });
    let quantiles = metrics.e2e_latency.quantiles(&[0.50, 0.99, 0.999]);
    let served = metrics.requests_served.get();
    let completed_s = out.completed.as_duration().as_secs_f64();
    SimReport {
        served,
        failed: metrics.requests_failed.get(),
        rejected: metrics.rejected.get(),
        shed: metrics.shed.get(),
        coalesced: metrics.coalesced.get(),
        resident_hits: metrics.resident_hits.get(),
        downloads: metrics.downloads.get(),
        download_bytes: metrics.download_bytes.get(),
        readback_bytes: metrics.readback_bytes.get(),
        retries: metrics.retries.get(),
        verify_failures: metrics.verify_failures.get(),
        verify_raw: metrics.verify_raw.get(),
        verify_digest: metrics.verify_digest.get(),
        verify_sampled: metrics.verify_sampled.get(),
        verify_escalations: metrics.verify_escalations.get(),
        stolen: out.stolen,
        migrations: out.migrations,
        migration_retries: out.migration_retries,
        frag_initial: out.frag_initial,
        frag_final: out.frag_final,
        completed: out.completed,
        makespan_ns: out.busy_ns.iter().copied().max().unwrap_or(0),
        p50: quantiles[0],
        p99: quantiles[1],
        p999: quantiles[2],
        throughput_rps: if completed_s > 0.0 {
            served as f64 / completed_s
        } else {
            f64::INFINITY
        },
        wall: t0.elapsed(),
        event_log: out.event_log,
        resident: out.resident,
        snapshot: metrics.registry().snapshot(),
        trace: out.trace,
        postmortems: out.postmortems,
        peak_buffer_words: out.peak_buffer_words,
        slo,
        outcomes: out.outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{DownloadStatus, OutcomeKind, VerifyFlavor};

    #[test]
    fn model_sizes_are_deterministic_and_shaped() {
        let spec = FleetSimSpec::default();
        let a = model_sizes(&spec);
        let b = model_sizes(&spec);
        assert_eq!(a.len(), (spec.regions * spec.variants) as usize);
        for (k, r) in &a {
            assert_eq!(b[k], *r);
            assert!(r.bytes_incremental < r.bytes_wholesale);
            assert!(r.bytes_wholesale < r.bytes_full / 4);
            assert!(r.bytes_verify >= r.bytes_wholesale);
            // The digest reply is a small fixed fraction of the raw
            // reply — at least the E18 10x bar with headroom.
            assert!(r.bytes_verify_digest * 10 < r.bytes_verify);
        }
    }

    #[test]
    fn compressed_wire_scales_partials_and_verify_but_not_full() {
        let plain = FleetSimSpec::default();
        let compressed = FleetSimSpec {
            wire: WireFormat::Compressed,
            ..FleetSimSpec::default()
        };
        let a = model_sizes(&plain);
        let b = model_sizes(&compressed);
        for (k, p) in &a {
            let c = &b[k];
            // Partial traffic shrinks by at least the floor ratios
            // (wholesales are mostly-zero region frames and compress
            // far harder than the dense incremental deltas).
            assert!(c.bytes_incremental <= p.bytes_incremental * 100 / 270);
            assert!(c.bytes_wholesale <= p.bytes_wholesale * 100 / 1_700);
            assert!(c.bytes_wholesale < c.bytes_incremental);
            // Raw verify replies ride the JWR1 reply coding and track
            // the wholesale ratio (same per-key draw); digest replies
            // and full bitstreams are wire-independent.
            assert!(c.bytes_verify <= p.bytes_verify * 100 / 1_700);
            assert_eq!(c.bytes_verify_digest, p.bytes_verify_digest);
            assert_eq!(c.bytes_full, p.bytes_full);
        }
    }

    #[test]
    fn digest_policies_cut_verify_bytes_and_never_cost_a_request() {
        // The same faulty workload, E17-style (full raw verify, plain
        // replies) against E18-style (adaptive digests + compressed
        // escalations): both serve everything — digests only ever change
        // *bytes*; a corrupt fate always escalates to the raw compare
        // and retries — and the verify traffic collapses by over an
        // order of magnitude.
        let full = FleetSimSpec {
            requests: 2_000,
            fault_rate: 0.2,
            ..FleetSimSpec::default()
        };
        let adaptive = FleetSimSpec {
            verify: VerifyPolicy::Adaptive,
            wire: WireFormat::Compressed,
            ..full.clone()
        };
        let a = simulate(&full);
        let b = simulate(&adaptive);
        assert_eq!(a.served, 2_000);
        assert_eq!(b.served, 2_000, "digest tier never costs a request");
        assert!(
            b.readback_bytes * 10 < a.readback_bytes,
            "adaptive verify {} vs full {}",
            b.readback_bytes,
            a.readback_bytes
        );
        // Flavors add up: every verified attempt ran exactly one tier.
        assert!(
            b.verify_digest > 0,
            "clean first attempts verify on digests"
        );
        assert!(b.verify_escalations > 0, "corrupt fates must escalate");
        assert!(b.verify_raw > 0, "fault retries fall back to raw compare");
        assert_eq!(a.verify_digest + a.verify_sampled + a.verify_escalations, 0);
        // Under Full every non-dropped attempt is a raw verify: drops
        // are the retries that were not verify mismatches.
        assert_eq!(a.verify_raw, a.downloads - (a.retries - a.verify_failures));
        // Every escalation came from a corrupt fate the raw compare then
        // caught (first-attempt corruptions escalate; later ones hit the
        // adaptive raw tier directly) — never an accepted corruption.
        assert!(b.verify_escalations <= b.verify_failures);
    }

    #[test]
    fn zero_spot_checks_count_as_digest_verifies() {
        let spec = |verify| FleetSimSpec {
            requests: 500,
            fault_rate: 0.2,
            verify,
            ..FleetSimSpec::default()
        };
        let zero = simulate(&spec(VerifyPolicy::Sampled { k: 0 }));
        let digest = simulate(&spec(VerifyPolicy::Digest));
        assert_eq!(zero.verify_sampled, 0, "k = 0 samples nothing");
        assert!(zero.verify_digest > 0);
        assert_eq!(
            (zero.verify_digest, zero.verify_escalations),
            (digest.verify_digest, digest.verify_escalations)
        );
        assert_eq!(zero.readback_bytes, digest.readback_bytes);
    }

    #[test]
    fn sampled_escalations_pay_digest_and_raw_only() {
        // The real backend escalates on the digest mismatch before it
        // reads a sampled frame, so a corrupt fate never pays samples.
        let spec = FleetSimSpec {
            verify: VerifyPolicy::Sampled { k: 2 },
            ..FleetSimSpec::default()
        };
        let backend = ModelBackend::new(&spec, &[]);
        let res = model_sizes(&spec)[&(0, 0)];
        // At rate 1.0 every fate is a drop or a corruption.
        let mut board = ModelBoard {
            fault: Some(FaultInjector::new(1.0, 5)),
        };
        let r = (0..64)
            .map(|_| backend.download(&mut board, 0, &(), Flavor::Wholesale, 1, &res))
            .find(|r| !matches!(r.status, DownloadStatus::PortFault(_)))
            .expect("some fate corrupts");
        assert_eq!(r.status, DownloadStatus::VerifyMismatch);
        assert_eq!(r.verify_flavor, VerifyFlavor::Escalated);
        assert_eq!(r.readback_bytes, res.bytes_verify_digest + res.bytes_verify);
    }

    #[test]
    fn refused_requests_report_their_store_hits() {
        // An admission slam: one board, a short queue, no coalescing.
        let spec = FleetSimSpec {
            boards: 1,
            shards: 1,
            requests: 64,
            queue_cap: 4,
            shed_watermark: 2,
            coalesce: false,
            zipf_s: 0.0,
            mean_gap_ns: 1,
            seed: 42,
            ..FleetSimSpec::default()
        };
        let r = simulate(&spec);
        assert!(r.rejected + r.shed > 32, "refused {}", r.rejected + r.shed);
        let hits = r.outcomes.iter().filter(|o| o.store_hit).count() as u64;
        let counted = r.snapshot.counter_total("fleet_store_hits_total");
        assert_eq!(Some(hits), counted);
        let refused: Vec<&Outcome> = (r.outcomes.iter())
            .filter(|o| matches!(o.kind, OutcomeKind::Rejected | OutcomeKind::Shed))
            .collect();
        assert_eq!(refused.len() as u64, r.rejected + r.shed);
        assert!(refused.iter().any(|o| o.store_hit));
        assert!(
            refused.iter().all(|o| o.generation != 0),
            "refusals keep the generation"
        );
    }

    #[test]
    fn miss_set_charges_first_toucher_only() {
        let spec = FleetSimSpec {
            requests: 500,
            ..FleetSimSpec::default()
        };
        let r = simulate(&spec);
        let misses = r.outcomes.iter().filter(|o| !o.store_hit).count();
        assert_eq!(
            misses as u64,
            r.snapshot
                .counter_total("fleet_store_misses_total")
                .unwrap(),
        );
        assert!(misses <= (spec.regions * spec.variants) as usize);
    }

    #[test]
    fn report_quantiles_come_from_the_e2e_histogram() {
        let spec = FleetSimSpec {
            requests: 2_000,
            ..FleetSimSpec::default()
        };
        let r = simulate(&spec);
        assert!(r.p50 <= r.p99 && r.p99 <= r.p999);
        assert!(r.p999 > Duration::ZERO);
        assert_eq!(
            r.snapshot.histogram_quantile("fleet_e2e_latency_us", 0.99),
            Some(r.p99)
        );
        assert!(r.throughput_rps > 0.0);
        assert!(r.makespan_ns > 0);
    }
}
