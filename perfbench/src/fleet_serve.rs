//! `fleet_serve`: a closed loop with one client per board. A real
//! `fleet::Fleet` of 4 SimBoards serves the Figure-4 library on the
//! XCV100 with 5% port faults, compressed wire and adaptive verify.
//! Each round submits one request per board through `Fleet::run` and the
//! next round starts only when it returns; keys are Zipf-drawn over the
//! 10 (region, variant) pairs, and each request resets the board, drives
//! every pad of its region and runs 1 to 5 user clocks. The device side
//! does nearly all the host work: streaming decode, interpreter apply,
//! fabric re-decode, readback and digest, user clocks.

use crate::catalogue;
use crate::report::{cpu_ns, derive, mean_milli, median_f64, ns_since, quantile, Report, SplitMix};
use crate::spans::Spans;
use bitstream::readback::readback_frames_into;
use fleet::{Fleet, FleetConfig, Request, ServingLibrary, VerifyPolicy, WireFormat};
use simboard::{FabricModel, FabricSim, SelectMap};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use virtex::{Device, RegionDigests};

const BOARDS: usize = 4;

/// Rounds whose responses feed the modelled metrics; always completed,
/// so `port_us.mean` is a pure function of the seed.
const FIXED_ROUNDS: usize = 64;

/// Zipf exponent of key popularity. Round walls step by whole fabric
/// re-decodes (~90 ms on the XCV100) per worker thread; at 1.1 about half
/// the rounds need two re-decodes on one worker, so the median round
/// flips between the one- and two-decode steps from run to run. At 2.0
/// most rounds need at most one re-decode per worker, so the median sits
/// inside that step and p90 inside the next.
const ZIPF_S: f64 = 2.0;

/// Replays of each stored partial in the traced run.
const REPLAYS: usize = 3;

struct Setup {
    base: jpg::workflow::BaseDesign,
    library: Arc<ServingLibrary>,
    fleet: Fleet,
}

/// The base design, `ServingLibrary::build` + `warm`, and the base
/// downloads in `Fleet::new`; returns the host seconds of each phase.
fn setup(seed: u64) -> (Setup, [f64; 3]) {
    let cat = catalogue::fig4();
    let t = Instant::now();
    let base = catalogue::base(Device::XCV100, &cat);
    // Variants are placed and routed under seeds drawn from the workload
    // seed, as in library_build, so the served containers differ per seed.
    let library = Arc::new(
        ServingLibrary::build(&base, &cat, derive(seed, 2)).expect("Figure-4 library builds"),
    );
    let cad = t.elapsed().as_secs_f64();
    let t = Instant::now();
    library.warm().expect("every library entry generates");
    let generate = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cfg = FleetConfig {
        wire: WireFormat::Compressed,
        verify: VerifyPolicy::Adaptive,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(library.clone(), BOARDS, cfg).expect("boards take the base");
    fleet.inject_faults(0.05, derive(seed, 3));
    let boards = t.elapsed().as_secs_f64();
    (
        Setup {
            base,
            library,
            fleet,
        },
        [cad, generate, boards],
    )
}

/// Every `(region, variant)` of the library, in catalogue order.
fn catalogue_keys(library: &ServingLibrary) -> Vec<(usize, usize)> {
    library
        .regions()
        .iter()
        .enumerate()
        .flat_map(|(r, cat)| (0..cat.variants.len()).map(move |v| (r, v)))
        .collect()
}

/// Requests per stratum of the key stream: large enough that even the
/// least popular key gets a request in every stratum.
const STRATUM: usize = 100;

/// The seeded request stream. Keys follow a Zipf law over the
/// catalogue (popularity in catalogue order), drawn stratified: every
/// block of [`STRATUM`] requests holds each key in proportion to its
/// weight, in a seeded order — so the key mix, and with it the download
/// count, barely varies between seeds while the order does.
struct Stream {
    rng: SplitMix,
    /// One stratum's keys, `(region, variant)`, before shuffling.
    stratum: Vec<(usize, usize)>,
    pending: Vec<(usize, usize)>,
    pads: Vec<Vec<String>>,
    next_id: u64,
}

impl Stream {
    fn new(seed: u64, library: &ServingLibrary) -> Stream {
        let keys = catalogue_keys(library);
        let weights: Vec<f64> = (1..=keys.len())
            .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        // Largest-remainder apportionment of the stratum over the keys.
        let quota: Vec<f64> = weights.iter().map(|w| w / total * STRATUM as f64).collect();
        let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..keys.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor()))
        });
        let short = STRATUM - counts.iter().sum::<usize>();
        for &k in by_remainder.iter().take(short) {
            counts[k] += 1;
        }
        let stratum = keys
            .iter()
            .zip(&counts)
            .flat_map(|(&k, &n)| std::iter::repeat_n(k, n))
            .collect();
        let pads = library
            .regions()
            .iter()
            .map(|cat| cat.pads.iter().map(|(name, _)| name.clone()).collect())
            .collect();
        Stream {
            rng: SplitMix(derive(seed, 4)),
            stratum,
            pending: Vec::new(),
            pads,
            next_id: 0,
        }
    }

    fn next_key(&mut self) -> (usize, usize) {
        if self.pending.is_empty() {
            self.pending = self.stratum.clone();
            for i in (1..self.pending.len()).rev() {
                self.pending.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        self.pending.pop().expect("a refilled stratum is not empty")
    }

    fn round(&mut self) -> Vec<Request> {
        (0..BOARDS)
            .map(|_| {
                let (region, variant) = self.next_key();
                let drive = self.pads[region]
                    .iter()
                    .map(|p| (p.clone(), self.rng.below(2) == 1))
                    .collect();
                let id = self.next_id;
                self.next_id += 1;
                Request {
                    id,
                    region,
                    variant,
                    drive,
                    reset: true,
                    clocks: 1 + self.rng.below(5),
                }
            })
            .collect()
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut phases = Vec::new();
    let Setup {
        base,
        library,
        fleet,
    } = crate::repeat_setup(&mut report, || {
        let (s, p) = setup(seed);
        phases.push(p);
        s
    });
    let phase = |i: usize| median_f64(&phases.iter().map(|p| p[i]).collect::<Vec<_>>());
    println!(
        "fleet_serve setup: cad {:.3} s, generate {:.3} s, board base downloads {:.3} s",
        phase(0),
        phase(1),
        phase(2)
    );

    // The timed closed loop; in the traced run every other round is
    // wrapped in spans.
    let mut spans = Spans::new();
    let mut stream = Stream::new(seed, &library);
    let mut log = Vec::new();
    let mut outputs = HashMap::new();
    let mut round_ns = Vec::new();
    let (mut latency_ns, mut port_ns) = (Vec::new(), Vec::new());
    let (mut clocks, mut peak_buffer_words) = (0u64, 0u64);
    let (start, cpu_start) = (Instant::now(), cpu_ns());
    let mut round = 0;
    while round < FIXED_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let requests = stream.round();
        clocks += requests.iter().map(|r| r.clocks).sum::<u64>();
        log.extend(requests.iter().cloned());
        let span = traced && round % 2 == 1;
        let t = Instant::now();
        let rep = if span {
            spans.enter(round as u64 + 1, "request");
            let rep = spans.time(round as u64 + 1, "fleet.run", || fleet.run(requests));
            spans.exit();
            rep
        } else {
            fleet.run(requests)
        };
        let ns = ns_since(t);
        round_ns.push(ns);
        peak_buffer_words = peak_buffer_words.max(rep.peak_buffer_words);
        for r in rep.responses {
            report.attempted += 1;
            // Each client waits for its whole round.
            latency_ns.push(ns);
            if round < FIXED_ROUNDS && r.attempts > 0 {
                port_ns.push(r.port_time.as_nanos() as u64);
            }
            report.check(r.error.is_none(), || {
                format!("request {} failed: {:?}", r.id, r.error)
            });
            outputs.insert(r.id, r.outputs);
        }
        round += 1;
    }
    let wall_ns: u64 = round_ns.iter().sum();
    let loop_spans = spans.len();
    let cpu = (cpu_ns() - cpu_start) as f64;
    let metrics = fleet.metrics();
    report.check(metrics.requests_failed.get() == 0, || {
        format!(
            "{} requests exhausted their retries, leaving regions unverified",
            metrics.requests_failed.get()
        )
    });

    // The oracle: the same request stream served once by a fault-free
    // fleet under full raw verify and the plain wire. Outside the timed
    // region and outside setup_s.
    let oracle = Fleet::new(library.clone(), BOARDS, FleetConfig::default())
        .expect("oracle boards take the base");
    let truth = oracle.run(log);
    for r in &truth.responses {
        let same = outputs.get(&r.id) == Some(&r.outputs);
        report.check(r.error.is_none() && same, || {
            format!(
                "request {}: outputs differ from the fault-free oracle",
                r.id
            )
        });
    }
    report.check(truth.responses.len() == outputs.len(), || {
        "oracle served a different number of requests".into()
    });
    println!(
        "fleet_serve: {round} rounds, {} requests, {} downloads, {} retries",
        outputs.len(),
        metrics.downloads.get(),
        metrics.retries.get()
    );

    if !traced {
        report.metric(
            "latency_us.p50",
            quantile(&mut latency_ns, 0.50) as f64 / 1e3,
            "us",
        );
        report.metric(
            "latency_us.p90",
            quantile(&mut latency_ns, 0.90) as f64 / 1e3,
            "us",
        );
        report.metric(
            "ops_per_s",
            outputs.len() as f64 / (wall_ns as f64 / 1e9),
            "1/s",
        );
        report.metric("port_us.mean", mean_milli(&port_ns), "us");
        return report;
    }

    let n = outputs.len() as f64;
    let downloads = metrics.downloads.get();
    // A retry follows either a dropped transfer or a verify mismatch.
    let drops = metrics
        .retries
        .get()
        .saturating_sub(metrics.verify_failures.get());
    let loads = downloads - drops;
    let raw_reads = metrics.verify_raw.get() + metrics.verify_escalations.get();
    let digest_reads = metrics.verify_digest.get()
        + metrics.verify_sampled.get()
        + metrics.verify_escalations.get();
    let verifies = metrics.verify_raw.get()
        + metrics.verify_digest.get()
        + metrics.verify_sampled.get()
        + metrics.verify_escalations.get();
    report.metric("sched.downloads_per_request", downloads as f64 / n, "ratio");
    report.metric("sched.retries", metrics.retries.get() as f64, "count");
    report.metric(
        "sched.resident_share",
        (metrics.resident_hits.get() - metrics.coalesced.get()) as f64 / n,
        "ratio",
    );
    report.metric(
        "sched.coalesced_share",
        metrics.coalesced.get() as f64 / n,
        "ratio",
    );
    report.metric("sched.stolen", metrics.stolen.get() as f64, "count");
    report.metric("sched.us_per_request", wall_ns as f64 / 1e3 / n, "us");
    report.metric(
        "verify.reply_bytes",
        metrics.readback_bytes.get() as f64 / downloads.max(1) as f64,
        "bytes",
    );
    report.metric(
        "verify.digest_share",
        metrics.verify_digest.get() as f64 / verifies.max(1) as f64,
        "ratio",
    );
    report.metric(
        "verify.escalations",
        metrics.verify_escalations.get() as f64,
        "count",
    );
    let (hits, misses) = (metrics.store_hits.get(), metrics.store_misses.get());
    report.metric(
        "store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric("apply.peak_buffer_words", peak_buffer_words as f64, "words");
    report.metric("fabric.redecodes", loads as f64, "count");

    // Unit costs of the device-side layers, from replaying each stored
    // partial through the public calls a SimBoard makes.
    let units = replay(&mut report, &mut spans, &library);
    let fabric_ns = loads as f64 * (units.decode + units.build);
    let attributed = loads as f64 * units.apply
        + fabric_ns
        + raw_reads as f64 * units.readback
        + digest_reads as f64 * (units.readback + units.digest)
        + clocks as f64 * units.clock;
    // The fleet's worker threads run boards in parallel, so the layers'
    // summed costs are shares of the timed region's CPU time, not wall.
    println!(
        "fleet_serve attribution of {:.3} s CPU time ({:.3} s wall): apply {:.3} s, \
         fabric re-decode {:.3} s, readback {:.3} s, digest {:.3} s, clocks {:.3} s",
        cpu / 1e9,
        wall_ns as f64 / 1e9,
        loads as f64 * units.apply / 1e9,
        fabric_ns / 1e9,
        (raw_reads + digest_reads) as f64 * units.readback / 1e9,
        digest_reads as f64 * units.digest / 1e9,
        clocks as f64 * units.clock / 1e9,
    );
    println!(
        "  fabric re-decode is {:.1}% of the CPU time and {:.1}% of device-side apply \
         (decode + interpreter + re-decode)",
        100.0 * fabric_ns / cpu,
        100.0 * fabric_ns / (fabric_ns + loads as f64 * units.apply)
    );
    report.metric("fabric.share", fabric_ns / cpu, "ratio");
    report.metric("trace.unattributed_frac", (cpu - attributed) / cpu, "ratio");
    // Rounds differ too much to compare traced ones with untraced ones,
    // so the overhead is the measured cost of recording a span times the
    // spans the timed loop recorded.
    let mut scratch = Spans::new();
    let t = Instant::now();
    for i in 0..10_000 {
        scratch.enter(i, "request");
        scratch.exit();
    }
    let per_span = ns_since(t) as f64 / 10_000.0;
    report.metric(
        "obs.trace_overhead_frac",
        per_span * loop_spans as f64 / wall_ns as f64,
        "ratio",
    );

    store_costs(&mut report, &library, &base);
    crate::finish_trace(&mut report, &spans, "fleet_serve", seed);
    report
}

/// Median host ns of one call into each device-side layer.
struct Units {
    apply: f64,
    decode: f64,
    build: f64,
    readback: f64,
    digest: f64,
    clock: f64,
}

fn replay(report: &mut Report, spans: &mut Spans, library: &ServingLibrary) -> Units {
    let mut port = SelectMap::new(library.device());
    port.load(&library.base_bitstream())
        .expect("the base loads on a blank port");
    let fw = port.interpreter().memory().frame_words();
    let (mut applied_words, mut id) = (0u64, 1_000_000u64);
    for (r, cat) in library.regions().iter().enumerate() {
        for v in 0..cat.variants.len() {
            let stored = library.resolve(r, v).0.expect("warmed entry resolves");
            for _ in 0..REPLAYS {
                for container in [&stored.wire_incremental.bytes, &stored.wire_wholesale.bytes] {
                    let mut p = port.clone();
                    spans.enter(id, "request");
                    let stats = spans.time(id, "apply", || p.load_wire(container));
                    let model = spans.time(id, "fabric.decode", || {
                        FabricModel::decode(p.interpreter().memory())
                    });
                    let sim = spans.time(id, "fabric.build", || {
                        model.and_then(|m| {
                            let mut sim = FabricSim::new(m)?;
                            sim.settle()?;
                            Ok(sim)
                        })
                    });
                    let mut words = Vec::new();
                    let read = spans.time(id, "readback", || {
                        cat.verify_ranges.iter().try_for_each(|&fr| {
                            readback_frames_into(p.interpreter_mut(), fr, &mut words)
                        })
                    });
                    let digests =
                        spans.time(id, "digest", || RegionDigests::from_words(&words, fw));
                    let clocked = sim.map_err(|e| e.to_string()).and_then(|mut s| {
                        spans
                            .time(id, "clock", || s.clock())
                            .map_err(|e| e.to_string())
                    });
                    spans.exit();
                    id += 1;
                    applied_words += stats.as_ref().map_or(0, |s| s.words_applied as u64);
                    let ok = stats.is_ok()
                        && read.is_ok()
                        && clocked.is_ok()
                        && words == stored.expected
                        && digests == stored.expected_digests;
                    report.check(ok, || {
                        format!(
                            "replay of {}{} diverged from its store entry",
                            cat.prefix, v
                        )
                    });
                }
            }
        }
    }
    let p50 = |stage: &str| quantile(&mut spans.durations(stage), 0.5) as f64;
    let units = Units {
        apply: p50("apply"),
        decode: p50("fabric.decode"),
        build: p50("fabric.build"),
        readback: p50("readback"),
        digest: p50("digest"),
        clock: p50("clock"),
    };
    let apply_s = spans.durations("apply").iter().sum::<u64>() as f64 / 1e9;
    report.metric("apply.ms.p50", units.apply / 1e6, "ms");
    report.metric(
        "apply.mb_per_s",
        applied_words as f64 * 4.0 / 1e6 / apply_s,
        "MB/s",
    );
    report.metric("fabric.decode_ms.p50", units.decode / 1e6, "ms");
    report.metric("fabric.build_ms.p50", units.build / 1e6, "ms");
    report.metric("fabric.clock_us.p50", units.clock / 1e3, "us");
    report.metric("readback.ms.p50", units.readback / 1e6, "ms");
    report.metric("digest.ms.p50", units.digest / 1e6, "ms");
    units
}

/// Store hit and miss costs: resolve every warmed entry, then rebase
/// onto the same image (a new epoch, so every entry misses) and resolve
/// each again.
fn store_costs(report: &mut Report, library: &ServingLibrary, base: &jpg::workflow::BaseDesign) {
    let keys = catalogue_keys(library);
    let mut hit_ns = Vec::new();
    for _ in 0..20 {
        for &(r, v) in &keys {
            let t = Instant::now();
            let (entry, hit) = library.resolve(r, v);
            hit_ns.push(ns_since(t));
            report.check(entry.is_ok() && hit, || {
                format!("warmed entry {r}/{v} missed")
            });
        }
    }
    library.rebase(base.memory.clone());
    let mut miss_ns = Vec::new();
    for &(r, v) in &keys {
        let t = Instant::now();
        let (entry, hit) = library.resolve(r, v);
        miss_ns.push(ns_since(t));
        report.check(entry.is_ok() && !hit, || {
            format!("entry {r}/{v} hit after rebase")
        });
    }
    report.metric(
        "store.hit_us.p50",
        quantile(&mut hit_ns, 0.5) as f64 / 1e3,
        "us",
    );
    report.metric(
        "store.miss_ms.p50",
        quantile(&mut miss_ns, 0.5) as f64 / 1e6,
        "ms",
    );
}
