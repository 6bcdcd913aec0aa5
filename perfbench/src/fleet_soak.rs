//! `fleet_soak`: an open loop in virtual time. The E17/E18 soak fleet
//! (1 000 boards, 64 shards, 5% port faults, compressed wire, adaptive
//! verify) drains a Zipf-1.1 trace over 8 regions × 256 variants at the
//! automatic ~80%-load gap. Latency runs from each request's scheduled
//! arrival, so the generator can never run late; every latency is
//! virtual and exact, and only the scheduler's host wall varies.

use crate::report::{derive, mean_milli, median_f64, ns_since, quantile, Fnv, Report};
use crate::spans::Spans;
use fleet::sched::{self, Backend, DownloadResult, Flavor, Resident, Resolved, SimRequest};
use fleet::sim::{simulate_trace, FleetSimSpec, ModelBackend, ModelBoard, SimReport};
use fleet::{FleetMetrics, Outcome, OutcomeKind, VerifyPolicy, WireFormat};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Requests per simulated trace.
const REQUESTS: usize = 125_000;

/// Traces per run, each from its own sub-seed (trace, modelled artifact
/// sizes and fault fates). Virtual metrics pool the outcomes of all of
/// them, so they describe the workload rather than one draw of its
/// hottest keys.
const TRACES: u64 = 8;

/// Requests per trace in the capacity search.
const CAPACITY_REQUESTS: usize = 50_000;

/// The latency limit `capacity_rps` holds the exact p99 to, and the
/// backlog bound on the last completion, virtual ns.
const LIMIT_NS: u64 = 250_000;

fn spec(seed: u64) -> FleetSimSpec {
    FleetSimSpec {
        boards: 1_000,
        shards: 64,
        requests: REQUESTS,
        regions: 8,
        variants: 256,
        zipf_s: 1.1,
        fault_rate: 0.05,
        wire: WireFormat::Compressed,
        verify: VerifyPolicy::Adaptive,
        seed,
        ..FleetSimSpec::default()
    }
}

fn latency_ns(o: &Outcome) -> u64 {
    o.completed.ns() - o.arrived.ns()
}

/// What the checks and metrics need from one simulation, with the
/// outcomes folded into a checksum so the report can be dropped.
struct Summary {
    checksum: u64,
    requests: u64,
    served: u64,
    not_served: u64,
    unknown_regions: usize,
    latency_ns: Vec<u64>,
    port_ns: Vec<u64>,
    buckets: [u64; 3],
}

fn summarize(r: &SimReport) -> Summary {
    let mut sum = Fnv::default();
    for o in &r.outcomes {
        let kind = match o.kind {
            OutcomeKind::Served {
                resident,
                coalesced,
            } => 1 + resident as u64 + 2 * coalesced as u64,
            OutcomeKind::Failed => 8,
            OutcomeKind::Rejected => 9,
            OutcomeKind::Shed => 10,
        };
        for v in [
            o.id,
            kind,
            o.board.map_or(0, |b| b as u64 + 1),
            o.attempts as u64,
            o.bytes,
            o.port_ns,
            o.arrived.ns(),
            o.completed.ns(),
        ] {
            sum.add(v);
        }
    }
    Summary {
        checksum: sum.0,
        requests: r.outcomes.len() as u64,
        served: r.served,
        not_served: r.failed + r.rejected + r.shed,
        unknown_regions: r
            .resident
            .iter()
            .flatten()
            .filter(|&&s| s == Resident::Unknown)
            .count(),
        latency_ns: r.outcomes.iter().map(latency_ns).collect(),
        port_ns: r
            .outcomes
            .iter()
            .map(|o| o.port_ns)
            .filter(|&ns| ns > 0)
            .collect(),
        buckets: [r.p50, r.p99, r.p999].map(|d| d.as_nanos() as u64),
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let specs: Vec<FleetSimSpec> = (0..TRACES).map(|i| spec(derive(seed, i))).collect();
    let mut report = Report::default();
    let mut tracegen_ns = Vec::new();
    let traces = crate::repeat_setup(&mut report, || {
        specs
            .iter()
            .map(|spec| {
                let trace_spec = spec.trace_spec();
                let g = Instant::now();
                let trace = trace_spec.generate();
                tracegen_ns.push(ns_since(g));
                trace
            })
            .collect::<Vec<_>>()
    });
    if traced {
        report.metric(
            "tracegen.ms",
            quantile(&mut tracegen_ns, 0.5) as f64 / 1e6,
            "ms",
        );
        run_traced(&mut report, &specs[0], &traces[0], seed);
        return report;
    }

    // Passes cycle through the traces until the budget is spent; the
    // first pass over each trace feeds the virtual metrics and checks,
    // later ones must reproduce its outcome checksum.
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut checksums = Vec::new();
    let (mut latency_ns, mut port_ns) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < specs.len() || start.elapsed().as_secs_f64() < seconds {
        let k = i % specs.len();
        let input = traces[k].clone();
        let t = Instant::now();
        let r = simulate_trace(&specs[k], input);
        rates.push(REQUESTS as f64 / t.elapsed().as_secs_f64());
        let s = summarize(&r);
        drop(r);
        report.attempted += s.requests;
        report.failed += s.not_served;
        i += 1;
        if let Some(&first) = checksums.get(k) {
            report.check(s.checksum == first, || {
                format!(
                    "trace {k}: outcome checksum {:016x} differs from its first pass's {first:016x}",
                    s.checksum
                )
            });
            continue;
        }
        checksums.push(s.checksum);
        check_pass(&mut report, k, s, &mut latency_ns, &mut port_ns);
    }
    let mut all = Fnv::default();
    checksums.iter().for_each(|&c| all.add(c));
    println!(
        "fleet_soak: {} passes over {} traces of {REQUESTS} requests, outcome checksum {:016x}",
        rates.len(),
        specs.len(),
        all.0
    );
    let exact = [0.50, 0.90, 0.99, 0.999].map(|q| quantile(&mut latency_ns, q));
    println!(
        "  pooled exact latency over {} requests: p50 {:.3} us, p90 {:.3} us, p99 {:.3} us, \
         p999 {:.3} us",
        latency_ns.len(),
        exact[0] as f64 / 1e3,
        exact[1] as f64 / 1e3,
        exact[2] as f64 / 1e3,
        exact[3] as f64 / 1e3
    );
    report.metric("latency_us.p50", exact[0] as f64 / 1e3, "us");
    report.metric("latency_us.p90", exact[1] as f64 / 1e3, "us");
    report.metric("ops_per_s", median_f64(&rates), "1/s");
    report.metric("port_us.mean", mean_milli(&port_ns), "us");
    report
}

/// The checks on one trace's first pass; its samples join the pool.
fn check_pass(
    report: &mut Report,
    k: usize,
    mut s: Summary,
    latency: &mut Vec<u64>,
    port: &mut Vec<u64>,
) {
    report.check(
        s.served + s.not_served == REQUESTS as u64 && s.requests == REQUESTS as u64,
        || {
            format!(
                "trace {k}: {} served + {} not served != {REQUESTS}",
                s.served, s.not_served
            )
        },
    );
    report.check(s.unknown_regions == 0, || {
        format!("trace {k}: {} regions left unverified", s.unknown_regions)
    });
    let exact = [0.50, 0.99, 0.999].map(|q| quantile(&mut s.latency_ns, q));
    let line: Vec<String> = ["p50", "p99", "p999"]
        .iter()
        .zip(exact)
        .zip(s.buckets)
        .map(|((q, e), b)| {
            // The histogram records whole microseconds.
            report.check(e / 1_000 * 1_000 <= b, || {
                format!("trace {k}: exact {q} {e} ns exceeds its histogram bucket edge {b} ns")
            });
            format!(
                "{q} {:.3} us (bucket edge {:.0} us)",
                e as f64 / 1e3,
                b as f64 / 1e3
            )
        })
        .collect();
    println!(
        "  trace {k}: checksum {:016x}, exact {}",
        s.checksum,
        line.join(", ")
    );
    latency.append(&mut s.latency_ns);
    port.append(&mut s.port_ns);
}

// ---------------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------------

/// A `ModelBackend` whose calls are timed from outside the scheduler, so
/// event-loop self time separates from backend time.
struct TimedBackend<'a> {
    inner: &'a ModelBackend,
    ns: AtomicU64,
}

impl TimedBackend<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        out
    }
}

impl Backend for TimedBackend<'_> {
    type Artifact = ();
    type Board = ModelBoard;

    fn resolve(&self, req: &SimRequest) -> Result<((), Resolved), String> {
        self.timed(|| self.inner.resolve(req))
    }

    fn download(
        &self,
        board: &mut ModelBoard,
        global: u32,
        art: &(),
        flavor: Flavor,
        attempt: u32,
        res: &Resolved,
    ) -> DownloadResult {
        self.timed(|| {
            self.inner
                .download(board, global, art, flavor, attempt, res)
        })
    }

    fn finish(&self, board: &mut ModelBoard, region: u32, payload: u32) -> Vec<(String, bool)> {
        self.timed(|| self.inner.finish(board, region, payload))
    }

    fn migrate(
        &self,
        board: &mut ModelBoard,
        global: u32,
        region: u32,
        resident: Resident,
    ) -> Option<DownloadResult> {
        self.timed(|| self.inner.migrate(board, global, region, resident))
    }
}

/// One pass of `sched::run` over `trace` at `workers` threads: host
/// wall, metrics, outcomes and work-stealing count. With `spans`, the
/// backend is timed and the pass recorded as one request.
fn pass(
    spans: Option<(&mut Spans, u64)>,
    spec: &FleetSimSpec,
    trace: &[SimRequest],
    workers: usize,
) -> (u64, FleetMetrics, Vec<Outcome>, u64) {
    let cfg = sched::SchedConfig {
        workers,
        ..spec.sched_config()
    };
    let metrics = FleetMetrics::new();
    let input = trace.to_vec();
    let resident = vec![vec![Resident::Base; spec.regions as usize]; spec.boards];
    let t = Instant::now();
    let (outcomes, stolen) = match spans {
        None => {
            let backend = ModelBackend::new(spec, &input);
            let boards = ModelBackend::boards(spec);
            let out = sched::run(&backend, &metrics, &cfg, input, boards, resident);
            (out.outcomes, out.stolen)
        }
        Some((spans, id)) => {
            spans.enter(id, "request");
            let backend = spans.time(id, "model", || ModelBackend::new(spec, &input));
            let timed = TimedBackend {
                inner: &backend,
                ns: AtomicU64::new(0),
            };
            spans.enter(id, "sched");
            let at = spans.clock_ns();
            let boards = ModelBackend::boards(spec);
            let out = sched::run(&timed, &metrics, &cfg, input, boards, resident);
            spans.record(id, "backend", at, timed.ns.load(Ordering::Relaxed));
            spans.exit();
            spans.exit();
            (out.outcomes, out.stolen)
        }
    };
    (ns_since(t), metrics, outcomes, stolen)
}

/// Whether the fleet meets the latency limit at mean gap `gap_ns`, and
/// the offered rate of that trace (requests per virtual second).
fn meets_limit(spec: &FleetSimSpec, gap_ns: u64) -> (bool, f64) {
    let s = FleetSimSpec {
        requests: CAPACITY_REQUESTS,
        mean_gap_ns: gap_ns,
        ..spec.clone()
    };
    let trace = s.trace_spec().generate();
    let (first, last) = (trace[0].at.ns(), trace[trace.len() - 1].at.ns());
    let rate = (trace.len() - 1) as f64 / ((last - first).max(1) as f64 / 1e9);
    let r = simulate_trace(&s, trace);
    let mut lat: Vec<u64> = r.outcomes.iter().map(latency_ns).collect();
    let p99 = quantile(&mut lat, 0.99);
    let last_done = r
        .outcomes
        .iter()
        .map(|o| o.completed.ns())
        .max()
        .unwrap_or(0);
    let ok =
        r.served == CAPACITY_REQUESTS as u64 && p99 <= LIMIT_NS && last_done <= last + LIMIT_NS;
    (ok, rate)
}

/// The highest offered rate meeting the limit: a deterministic
/// bisection over the trace's mean gap.
fn capacity_rps(spec: &FleetSimSpec) -> f64 {
    let auto = spec.trace_spec().mean_gap_ns;
    let (mut hi, mut lo) = (auto, auto / 8);
    let mut best = meets_limit(spec, hi);
    for _ in 0..6 {
        if best.0 {
            break;
        }
        lo = hi;
        hi *= 2;
        best = meets_limit(spec, hi);
    }
    for _ in 0..7 {
        let mid = (lo + hi) / 2;
        if mid == lo || mid == hi {
            break;
        }
        let m = meets_limit(spec, mid);
        if m.0 {
            hi = mid;
            best = m;
        } else {
            lo = mid;
        }
    }
    if best.0 {
        best.1
    } else {
        0.0
    }
}

fn run_traced(report: &mut Report, spec: &FleetSimSpec, trace: &[SimRequest], seed: u64) {
    let mut spans = Spans::new();
    let n = trace.len() as f64;
    // Untraced at the default worker count and at one worker, then the
    // same two passes with the timed backend.
    let (wall_default, metrics, outcomes, stolen) = pass(None, spec, trace, 0);
    let (wall_one, ..) = pass(None, spec, trace, 1);
    let (traced_default, ..) = pass(Some((&mut spans, 1)), spec, trace, 0);
    let backend_before = spans.durations("backend").iter().sum::<u64>();
    let (traced_one, ..) = pass(Some((&mut spans, 2)), spec, trace, 1);
    let backend_one = spans.durations("backend").iter().sum::<u64>() - backend_before;

    report.attempted = trace.len() as u64;
    report.failed = metrics.requests_failed.get() + metrics.rejected.get() + metrics.shed.get();
    let served = outcomes.iter().filter(|o| o.served()).count() as f64;
    report.check(outcomes.len() == trace.len(), || {
        "one outcome per request".to_string()
    });
    let downloads = metrics.downloads.get() as f64;
    let verifies = (metrics.verify_raw.get()
        + metrics.verify_digest.get()
        + metrics.verify_sampled.get()
        + metrics.verify_escalations.get()) as f64;
    let sched_one = spans.durations("sched")[1];
    report.metric("sched.self_s", (sched_one - backend_one) as f64 / 1e9, "s");
    report.metric("sched.us_per_request", wall_default as f64 / 1e3 / n, "us");
    report.metric(
        "sched.backend_share",
        backend_one as f64 / sched_one as f64,
        "ratio",
    );
    report.metric("sched.downloads_per_request", downloads / n, "ratio");
    report.metric("sched.retries", metrics.retries.get() as f64, "count");
    // Coalesced riders count as resident hits too; report them apart.
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
    report.metric("sched.stolen", stolen as f64, "count");
    report.metric(
        "sched.parallel_speedup",
        wall_one as f64 / wall_default as f64,
        "ratio",
    );
    report.metric(
        "verify.reply_bytes",
        metrics.readback_bytes.get() as f64 / downloads.max(1.0),
        "bytes",
    );
    report.metric(
        "verify.digest_share",
        metrics.verify_digest.get() as f64 / verifies.max(1.0),
        "ratio",
    );
    report.metric(
        "verify.escalations",
        metrics.verify_escalations.get() as f64,
        "count",
    );
    report.metric(
        "store.hit_ratio",
        outcomes.iter().filter(|o| o.store_hit).count() as f64 / n,
        "ratio",
    );
    println!(
        "fleet_soak traced: {served} served; wall {:.3} s at default workers, {:.3} s at 1 worker \
         (parallel speedup {:.3})",
        wall_default as f64 / 1e9,
        wall_one as f64 / 1e9,
        wall_one as f64 / wall_default as f64
    );
    let t = Instant::now();
    let capacity = capacity_rps(spec);
    println!(
        "fleet_soak capacity: {capacity:.0} requests per virtual second meet p99 <= {} us \
         ({:.1} s search)",
        LIMIT_NS / 1_000,
        t.elapsed().as_secs_f64()
    );
    report.metric("sched.capacity_rps", capacity, "1/s");
    crate::attribute(
        report,
        &spans,
        traced_default + traced_one,
        wall_default + wall_one,
    );
    crate::finish_trace(report, &spans, "fleet_soak", seed);
}
