//! The fleet service facade: real `SimBoard`s behind the event-driven
//! scheduler.
//!
//! Each request means "make region R of some board run variant V, step
//! the user clock, return the module's pad outputs". The facade wraps
//! the generic scheduler in [`crate::sched`] with a `RealBackend`
//! whose downloads go through [`jbits::Xhwif`] exactly as JPG's own
//! download path does, verified by region-scoped readback compare and
//! retried with exponential backoff when the port faults or
//! verification fails. All timing is the simulated SelectMAP
//! byte-cycle model; the scheduler's virtual clock replaces the old
//! thread-per-board worker pool, so a `Fleet` no longer spawns one OS
//! thread per board — worker threads multiplex shards of boards, and
//! results are deterministic for a fixed request stream.

use crate::library::ServingLibrary;
use crate::metrics::FleetMetrics;
pub use crate::sched::ServeMode;
use crate::sched::{
    self, Backend, DownloadResult, Flavor, Outcome, OutcomeKind, Priority, Probe, Resident,
    Resolved, SchedConfig, SimRequest, Verifier, VerifyPolicy,
};
use crate::store::StoredPartial;
use crate::FleetError;
use bitstream::Bitstream;
use jbits::Xhwif;
use simboard::port::download_time;
use simboard::{FaultInjector, SimBoard};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// On-the-wire encoding of partial downloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WireFormat {
    /// Raw SelectMAP packet stream, as [`jpg`] emits it.
    #[default]
    Plain,
    /// [`wire`] `JWC1` containers: partials cross the port compressed
    /// and are decoded stream-wise device-side. Full bitstreams (the
    /// [`ServeMode::FullSwap`] baseline) always ship plain — that mode
    /// models the no-partial-reconfiguration legacy flow.
    Compressed,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Download flavor.
    pub mode: ServeMode,
    /// Download attempts per request before giving up (port faults and
    /// verification failures both consume attempts).
    pub max_attempts: u32,
    /// First retry backoff (simulated port idle time); doubles per
    /// subsequent retry of the same request.
    pub backoff: Duration,
    /// Wire encoding for partial downloads.
    pub wire: WireFormat,
    /// Record causal request traces and flight-recorder post-mortems
    /// into the [`FleetReport`]. The decoder-buffer high-water mark is
    /// reported regardless — it is a wire-decoder statistic, not a
    /// tracing artifact.
    pub trace: bool,
    /// How downloads are verified (see [`VerifyPolicy`]). Digest tiers
    /// use the boards' `readback_digest` capability when present and
    /// fall back to — or escalate to — the raw readback compare, so no
    /// policy is ever less safe than [`VerifyPolicy::Full`].
    pub verify: VerifyPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            mode: ServeMode::Partial,
            max_attempts: 16,
            backoff: Duration::from_micros(20),
            wire: WireFormat::Plain,
            trace: false,
            verify: VerifyPolicy::Full,
        }
    }
}

/// One unit of work for the fleet.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-assigned identity, echoed in the response.
    pub id: u64,
    /// Region index in the library.
    pub region: usize,
    /// Variant index in the region's catalogue.
    pub variant: usize,
    /// Input pads to drive before clocking, by pad name.
    pub drive: Vec<(String, bool)>,
    /// Whether to pulse the board reset before clocking (fresh state).
    pub reset: bool,
    /// User clock cycles to step after reconfiguration.
    pub clocks: u64,
}

impl Request {
    /// A request with no pad drives and no reset.
    pub fn new(id: u64, region: usize, variant: usize, clocks: u64) -> Request {
        Request {
            id,
            region,
            variant,
            drive: Vec::new(),
            reset: false,
            clocks,
        }
    }
}

/// The outcome of one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Request identity.
    pub id: u64,
    /// Board that served it.
    pub board: usize,
    /// Region served.
    pub region: usize,
    /// Variant served.
    pub variant: usize,
    /// Pad values after clocking, in catalogue pad order.
    pub outputs: Vec<(String, bool)>,
    /// Download attempts spent (0 = no dedicated download).
    pub attempts: u32,
    /// Whether the store already held the generated bitstreams.
    pub store_hit: bool,
    /// Whether the variant was already resident (no download needed).
    pub resident_hit: bool,
    /// Whether the request rode another request's in-flight download of
    /// the same `(region, variant)`.
    pub coalesced: bool,
    /// Configuration bytes pushed for this request.
    pub bytes: u64,
    /// Simulated port time consumed (downloads + readbacks + backoff).
    pub port_time: Duration,
    /// Failure, if the request exhausted its attempts.
    pub error: Option<String>,
}

/// One real board: the simulated fabric plus its recycled readback
/// scratch (region compares would otherwise reallocate per verify).
struct RealBoard {
    board: SimBoard,
    readback: Vec<u32>,
}

/// Mutable fleet state persisted across runs.
struct FleetInner {
    boards: Vec<RealBoard>,
    resident: Vec<Vec<Resident>>,
}

/// The service.
pub struct Fleet {
    library: Arc<ServingLibrary>,
    cfg: FleetConfig,
    inner: Mutex<FleetInner>,
    metrics: FleetMetrics,
    init_time: Duration,
}

/// The scheduler backend over real boards: resolution through the
/// [`ServingLibrary`]/[`crate::store::PartialStore`], downloads through
/// XHWIF, outputs from the simulated fabric.
struct RealBackend<'a> {
    library: &'a ServingLibrary,
    requests: &'a [Request],
    frame_words: usize,
    wire: WireFormat,
    verify: VerifyPolicy,
}

impl RealBackend<'_> {
    fn catalog(&self, region: u32) -> &crate::library::RegionCatalog {
        &self.library.regions()[region as usize]
    }

    /// The cost record of a stored entry: what each download and each
    /// verification read puts on this run's wire. Partials cross a
    /// compressed wire as their `JWC1` containers and raw replies as
    /// `JWR1` containers; full bitstreams and digest replies stay plain.
    fn resolved(&self, stored: &StoredPartial, store_hit: bool) -> Resolved {
        // A raw region reply carries one pad frame per read.
        let frame_bytes = self.frame_words as u64 * 4;
        let ranges = &self.library.regions()[stored.key.region].verify_ranges;
        let reply_frames: usize = ranges.iter().map(|r| r.len + 1).sum();
        let (bytes_incremental, bytes_wholesale, bytes_verify) = match self.wire {
            WireFormat::Plain => (
                stored.incremental.byte_len(),
                stored.wholesale.byte_len(),
                reply_frames as u64 * frame_bytes,
            ),
            WireFormat::Compressed => (
                stored.wire_incremental.bytes.len(),
                stored.wire_wholesale.bytes.len(),
                stored.wire_reply_bytes as u64,
            ),
        };
        Resolved {
            store_hit,
            generation: stored.key.epoch,
            bytes_incremental: bytes_incremental as u64,
            bytes_wholesale: bytes_wholesale as u64,
            bytes_full: stored.full.byte_len() as u64,
            bytes_verify,
            bytes_verify_digest: stored.expected_digests.port_bytes() as u64,
            bytes_sample: 2 * frame_bytes,
        }
    }
}

/// A real board's answers to the verification ladder, compared against
/// the store's reference words and digests for one attempt.
struct RealVerify<'a> {
    board: &'a mut RealBoard,
    art: &'a StoredPartial,
    res: &'a Resolved,
    ranges: &'a [bitstream::FrameRange],
    frame_words: usize,
    wire: WireFormat,
    /// Splitmix state picking the sampled frames: seeded per (board,
    /// key, attempt), so the picks do not depend on worker count.
    seed: u64,
}

impl Verifier for RealVerify<'_> {
    fn digest(&mut self) -> Option<Probe> {
        // Each range's digests are compared against their slice of the
        // store's. Once every slice matches, the reply's rollup is the
        // store frames' rollup, so no reply is gathered.
        let want = &self.art.expected_digests;
        let (mut at, mut clean) = (0, true);
        for r in self.ranges {
            match self.board.board.get_region_digests(*r)? {
                Err(_) => return Some(Probe::Failed),
                Ok(d) => {
                    let end = at + d.frames.len();
                    clean &= want.frames.get(at..end) == Some(&d.frames[..]);
                    at = end;
                }
            }
        }
        clean &= at == want.frames.len() && virtex::rollup_digest64(&want.frames) == want.rollup;
        Some(if clean { Probe::Match } else { Probe::Mismatch })
    }

    fn sample(&mut self) -> Probe {
        self.seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let frames = || self.ranges.iter().flat_map(|r| r.frames());
        let pick = ((z ^ (z >> 31)) % frames().count().max(1) as u64) as usize;
        let one = bitstream::FrameRange::new(frames().nth(pick).unwrap_or(0), 1);
        let b = &mut *self.board;
        b.readback.clear();
        if b.board
            .get_configuration_region_into(one, &mut b.readback)
            .is_err()
        {
            return Probe::Failed;
        }
        let fw = self.frame_words;
        if b.readback == self.art.expected[pick * fw..(pick + 1) * fw] {
            Probe::Match
        } else {
            Probe::Mismatch
        }
    }

    fn raw(&mut self) -> (Probe, u64) {
        let b = &mut *self.board;
        b.readback.clear();
        for r in self.ranges {
            if b.board
                .get_configuration_region_into(*r, &mut b.readback)
                .is_err()
            {
                return (Probe::Failed, 0);
            }
        }
        if b.readback == self.art.expected {
            return (Probe::Match, self.res.bytes_verify);
        }
        // A corrupted reply codes to its own `JWR1` length.
        let bytes = match self.wire {
            WireFormat::Plain => self.res.bytes_verify,
            WireFormat::Compressed => wire::encode_reply(&b.readback).bytes.len() as u64,
        };
        (Probe::Mismatch, bytes)
    }
}

impl Backend for RealBackend<'_> {
    type Artifact = Arc<StoredPartial>;
    type Board = RealBoard;

    fn resolve(&self, req: &SimRequest) -> Result<(Self::Artifact, Resolved), String> {
        let (stored, hit) = self
            .library
            .resolve(req.region as usize, req.variant as usize);
        let stored = stored.map_err(|e| e.to_string())?;
        let res = self.resolved(&stored, hit);
        Ok((stored, res))
    }

    fn download(
        &self,
        board: &mut RealBoard,
        global: u32,
        art: &Arc<StoredPartial>,
        flavor: Flavor,
        attempt: u32,
        res: &Resolved,
    ) -> DownloadResult {
        // Partial flavors optionally cross the port as compressed wire
        // containers, decoded stream-wise device-side, which surfaces the
        // decoder's buffer high-water mark; full swaps model the legacy
        // no-partial-reconfiguration flow and always ship plain.
        let container = match (self.wire, flavor) {
            (WireFormat::Compressed, Flavor::Incremental) => Some(&art.wire_incremental),
            (WireFormat::Compressed, Flavor::Wholesale) => Some(&art.wire_wholesale),
            _ => None,
        };
        let (configured, bytes) = match container {
            Some(c) => (
                (board.board.set_configuration_wire(&c.bytes)).map(|s| s.peak_buffer_words as u64),
                c.bytes.len(),
            ),
            None => {
                let stream: &Bitstream = match flavor {
                    Flavor::Incremental => &art.incremental,
                    Flavor::Wholesale => &art.wholesale,
                    Flavor::Full => &art.full,
                };
                (
                    board.board.set_configuration(stream).map(|()| 0u64),
                    stream.byte_len(),
                )
            }
        };
        let bytes = bytes as u64;
        let peak = match configured {
            Ok(p) => p,
            Err(e) => return DownloadResult::port_fault(e.to_string(), bytes, 0),
        };
        // Verify per the policy's tier for this attempt: only what
        // actually crosses the port costs port time, the point of
        // `Xhwif::get_region_digests`.
        let key = art.key;
        let mut probe = RealVerify {
            board,
            art,
            res,
            ranges: &self.catalog(key.region as u32).verify_ranges,
            frame_words: self.frame_words,
            wire: self.wire,
            seed: (global as u64) << 40
                ^ (key.region as u64) << 24
                ^ (key.variant as u64) << 12
                ^ attempt as u64
                ^ 0x5EED_D16E_57ED,
        };
        let verdict = sched::verify(self.verify.tier(attempt), res, &mut probe);
        DownloadResult::checked(bytes, peak, verdict)
    }

    fn finish(&self, board: &mut RealBoard, region: u32, payload: u32) -> Vec<(String, bool)> {
        // The region now verifiably runs the variant: drive, clock, read.
        let req = &self.requests[payload as usize];
        let cat = self.catalog(region);
        let drives = (req.drive.iter()).filter_map(|(name, v)| Some((cat.pad(name)?, *v)));
        board.board.set_pads(drives);
        if req.reset {
            board.board.reset();
        }
        board.board.clock_step(req.clocks);
        cat.pads
            .iter()
            .map(|(n, io)| (n.clone(), board.board.get_pad(*io)))
            .collect()
    }
}

impl Fleet {
    /// A fleet of `boards` blank boards, each configured with the
    /// library's base bitstream.
    pub fn new(
        library: Arc<ServingLibrary>,
        boards: usize,
        cfg: FleetConfig,
    ) -> Result<Fleet, FleetError> {
        assert!(boards > 0, "a fleet needs at least one board");
        let base = library.base_bitstream();
        let regions = library.regions().len();
        let mut pool = Vec::new();
        let mut init_time = Duration::ZERO;
        for _ in 0..boards {
            let mut board = SimBoard::new(library.device());
            board
                .set_configuration(&base)
                .map_err(|e| FleetError::Config(format!("base download: {e}")))?;
            init_time += download_time(base.byte_len());
            pool.push(RealBoard {
                board,
                readback: Vec::new(),
            });
        }
        Ok(Fleet {
            library,
            cfg,
            inner: Mutex::new(FleetInner {
                boards: pool,
                resident: vec![vec![Resident::Base; regions]; boards],
            }),
            metrics: FleetMetrics::new(),
            init_time,
        })
    }

    /// Install a deterministic fault injector on every board's port,
    /// seeded per board so runs are reproducible board-by-board.
    pub fn inject_faults(&mut self, rate: f64, seed: u64) {
        let inner = self.inner.get_mut().expect("fleet lock");
        for (i, slot) in inner.boards.iter_mut().enumerate() {
            slot.board
                .set_fault_injector(FaultInjector::for_board(rate, seed, i));
        }
    }

    /// Number of boards.
    pub fn boards(&self) -> usize {
        self.inner.lock().expect("fleet lock").boards.len()
    }

    /// The service metrics.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Simulated port time spent downloading base bitstreams at
    /// construction (not part of any run's makespan).
    pub fn init_time(&self) -> Duration {
        self.init_time
    }

    /// Serve `requests` to completion across all boards through the
    /// event-driven scheduler. Responses come back sorted by request
    /// id. Can be called again; board state (resident variants) persists
    /// between runs, and each report's makespan covers only its own run.
    pub fn run(&self, requests: Vec<Request>) -> FleetReport {
        if requests.is_empty() {
            return FleetReport {
                responses: Vec::new(),
                makespan: Duration::ZERO,
                served: 0,
                failed: 0,
                trace: obs::Trace::default(),
                postmortems: Vec::new(),
                peak_buffer_words: 0,
            };
        }
        let mut inner = self.inner.lock().expect("fleet lock");
        let nboards = inner.boards.len();
        let trace: Vec<SimRequest> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| SimRequest {
                id: r.id,
                at: crate::clock::Vt::ZERO,
                region: r.region as u32,
                variant: r.variant as u32,
                priority: Priority::Normal,
                payload: i as u32,
            })
            .collect();
        let backend = RealBackend {
            library: &self.library,
            requests: &requests,
            frame_words: virtex::ConfigGeometry::for_device(self.library.device()).frame_words(),
            wire: self.cfg.wire,
            verify: self.cfg.verify,
        };
        let sched_cfg = SchedConfig {
            mode: self.cfg.mode,
            max_attempts: self.cfg.max_attempts,
            backoff: self.cfg.backoff,
            // One board per shard up to a cardinality-bounded cap: the
            // schedule stays per-board, but metrics labels stay O(64).
            shards: nboards.min(64),
            workers: 0,
            window: Duration::from_micros(50),
            queue_cap: usize::MAX,
            shed_watermark: usize::MAX,
            coalesce: true,
            log_events: false,
            trace: self.cfg.trace,
            // The real backend reconfigures fixed floorplan regions; it
            // has no relocation path, so the defragmenter stays off.
            defrag: None,
            verify: self.cfg.verify,
        };
        let boards = std::mem::take(&mut inner.boards);
        let resident = std::mem::take(&mut inner.resident);
        let out = sched::run(&backend, &self.metrics, &sched_cfg, trace, boards, resident);
        inner.boards = out.states;
        inner.resident = out.resident;
        drop(inner);

        let responses: Vec<Response> = out
            .outcomes
            .into_iter()
            .map(|o| outcome_to_response(&o))
            .collect();
        let makespan = Duration::from_nanos(out.busy_ns.iter().copied().max().unwrap_or(0));
        let served = responses.iter().filter(|r| r.error.is_none()).count() as u64;
        let failed = responses.len() as u64 - served;
        FleetReport {
            responses,
            makespan,
            served,
            failed,
            trace: out.trace,
            postmortems: out.postmortems,
            peak_buffer_words: out.peak_buffer_words,
        }
    }
}

fn outcome_to_response(o: &Outcome) -> Response {
    let (resident_hit, coalesced) = match o.kind {
        OutcomeKind::Served {
            resident,
            coalesced,
        } => (resident, coalesced),
        _ => (false, false),
    };
    Response {
        id: o.id,
        board: o.board.unwrap_or(0) as usize,
        region: o.region as usize,
        variant: o.variant as usize,
        outputs: o.outputs.clone(),
        attempts: o.attempts,
        store_hit: o.store_hit,
        resident_hit,
        coalesced,
        bytes: o.bytes,
        port_time: Duration::from_nanos(o.port_ns),
        error: o.error.clone(),
    }
}

/// Summary of one [`Fleet::run`].
#[derive(Debug)]
pub struct FleetReport {
    /// Per-request outcomes, sorted by request id.
    pub responses: Vec<Response>,
    /// Longest per-board simulated port busy time for this run — the
    /// run's simulated wall-clock under the SelectMAP timing model.
    pub makespan: Duration,
    /// Requests served successfully.
    pub served: u64,
    /// Requests that exhausted their retries.
    pub failed: u64,
    /// Causal request trace (empty unless [`FleetConfig::trace`]).
    pub trace: obs::Trace,
    /// Flight-recorder post-mortems (one JSON object per terminal
    /// failure; empty unless tracing).
    pub postmortems: Vec<String>,
    /// Fleet-wide decoder-buffer high-water mark, words (zero unless
    /// tracing with compressed wire downloads).
    pub peak_buffer_words: u64,
}

impl FleetReport {
    /// Served requests per second of simulated port time.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan.is_zero() {
            return f64::INFINITY;
        }
        self.served as f64 / self.makespan.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FleetSimSpec, ModelBackend};
    use crate::trace::TraceSpec;
    use obs::trace::FieldValue;
    use std::collections::HashMap;
    use virtex::Device;

    const BOARDS: usize = 3;

    /// Two full-height regions on an XCV50 with two variants each, as
    /// in the serving integration tests.
    fn library() -> ServingLibrary {
        let rows = Device::XCV50.geometry().clb_rows as i32 - 1;
        let catalogues = vec![
            (
                "r1/".to_string(),
                vec![
                    cadflow::gen::counter("up", 3),
                    cadflow::gen::gray_counter("gray", 3),
                ],
            ),
            (
                "r2/".to_string(),
                vec![
                    cadflow::gen::down_counter("down", 3),
                    cadflow::gen::lfsr("lfsr", 3),
                ],
            ),
        ];
        let modules: Vec<jpg::workflow::ModuleSpec> = (catalogues.iter().zip([1, 7]))
            .map(|((prefix, netlists), col)| jpg::workflow::ModuleSpec {
                prefix: prefix.clone(),
                netlist: netlists[0].clone(),
                region: xdl::Rect::new(0, col, rows, col + 3),
            })
            .collect();
        let base = jpg::workflow::build_base("fleet-test", Device::XCV50, &modules, 7)
            .expect("base design");
        ServingLibrary::build(&base, &catalogues, 90).expect("library")
    }

    fn backend<'a>(
        library: &'a ServingLibrary,
        requests: &'a [Request],
        wire: WireFormat,
        verify: VerifyPolicy,
    ) -> RealBackend<'a> {
        RealBackend {
            library,
            requests,
            frame_words: virtex::ConfigGeometry::for_device(library.device()).frame_words(),
            wire,
            verify,
        }
    }

    /// Every key's cost record, built by the helper `resolve` uses.
    fn cost_records(backend: &RealBackend) -> HashMap<(u32, u32), Resolved> {
        let mut costs = HashMap::new();
        for (r, cat) in backend.library.regions().iter().enumerate() {
            for v in 0..cat.variants.len() {
                let (stored, hit) = backend.library.resolve(r, v);
                let res = backend.resolved(&stored.expect("entry generates"), hit);
                costs.insert((r as u32, v as u32), res);
            }
        }
        costs
    }

    /// `n` base-configured boards, each with its per-board injector.
    fn boards(library: &ServingLibrary, n: usize, fault_rate: f64, seed: u64) -> Vec<RealBoard> {
        let base = library.base_bitstream();
        (0..n)
            .map(|i| {
                let mut board = SimBoard::new(library.device());
                board.set_configuration(&base).expect("base download");
                board.set_fault_injector(FaultInjector::for_board(fault_rate, seed, i));
                RealBoard {
                    board,
                    readback: Vec::new(),
                }
            })
            .collect()
    }

    /// A seeded trace over the library's keys; payloads index the
    /// matching one-clock requests.
    fn trace(library: &ServingLibrary, requests: usize, seed: u64) -> Vec<SimRequest> {
        let spec = TraceSpec {
            requests,
            regions: library.regions().len() as u32,
            variants: 2,
            zipf_s: 0.5,
            mean_gap_ns: 200_000,
            burst: 4,
            high_fraction: 0.1,
            low_fraction: 0.1,
            seed,
        };
        let trace = spec.generate().into_iter().enumerate();
        trace
            .map(|(i, r)| SimRequest {
                payload: i as u32,
                ..r
            })
            .collect()
    }

    fn requests(trace: &[SimRequest]) -> Vec<Request> {
        (trace.iter())
            .map(|r| Request::new(r.id, r.region as usize, r.variant as usize, 1))
            .collect()
    }

    fn sched_cfg(mode: ServeMode, verify: VerifyPolicy, trace: bool) -> SchedConfig {
        SchedConfig {
            mode,
            shards: 1,
            log_events: true,
            trace,
            verify,
            ..SchedConfig::default()
        }
    }

    /// The model is the real backend minus the fabric: fed the real
    /// library's cost records, it schedules a fault-free trace exactly
    /// as the real boards do, on every wire and verify policy.
    #[test]
    fn model_on_real_cost_records_matches_the_real_backend() {
        let library = library();
        let trace = trace(&library, 120, 11);
        let requests = requests(&trace);
        let resident = vec![vec![Resident::Base; library.regions().len()]; BOARDS];
        let policies = [
            VerifyPolicy::Full,
            VerifyPolicy::Digest,
            VerifyPolicy::Sampled { k: 2 },
            VerifyPolicy::Adaptive,
        ];
        let modes = [ServeMode::Partial, ServeMode::FullSwap];
        let wires = [WireFormat::Plain, WireFormat::Compressed];
        for (mode, wire) in modes.into_iter().flat_map(|m| wires.map(|w| (m, w))) {
            for verify in policies {
                // The model's miss prepass assumes a cold store.
                for region in 0..library.regions().len() {
                    library.store().purge_region(region);
                }
                let real = backend(&library, &requests, wire, verify);
                let (real_m, model_m) = (FleetMetrics::new(), FleetMetrics::new());
                let cfg = sched_cfg(mode, verify, false);
                let (states, res) = (boards(&library, BOARDS, 0.0, 0), resident.clone());
                let a = sched::run(&real, &real_m, &cfg, trace.clone(), states, res);
                let model = ModelBackend::with_sizes(cost_records(&real), wire, verify, &trace);
                let spec = FleetSimSpec {
                    boards: BOARDS,
                    ..FleetSimSpec::default()
                };
                let states = ModelBackend::boards(&spec);
                let b = sched::run(
                    &model,
                    &model_m,
                    &cfg,
                    trace.clone(),
                    states,
                    resident.clone(),
                );
                let case = format!("{mode:?} / {wire:?} / {verify:?}");
                let strip = |o: &Outcome| Outcome {
                    outputs: Vec::new(),
                    ..o.clone()
                };
                let (oa, ob): (Vec<_>, Vec<_>) = (
                    a.outcomes.iter().map(strip).collect(),
                    b.outcomes.iter().map(strip).collect(),
                );
                assert_eq!(oa, ob, "{case}: outcomes");
                assert_eq!(a.event_log, b.event_log, "{case}: event log");
                assert_eq!(a.busy_ns, b.busy_ns, "{case}: board busy time");
                let counters = |m: &FleetMetrics| {
                    [
                        &m.downloads,
                        &m.download_bytes,
                        &m.readback_bytes,
                        &m.verify_raw,
                        &m.verify_digest,
                        &m.verify_sampled,
                        &m.verify_escalations,
                    ]
                    .map(|c| c.get())
                };
                assert_eq!(counters(&real_m), counters(&model_m), "{case}: counters");
                assert!(real_m.downloads.get() >= 4, "{case}: the keys churn");
                assert!(oa.iter().all(|o| o.served()), "{case}: fault-free");
            }
        }
    }

    /// On the compressed wire a clean raw reply costs its `JWR1` length,
    /// taken from the store rather than coded per verification.
    #[test]
    fn compressed_cost_records_price_the_clean_jwr1_reply() {
        let library = library();
        let verify = VerifyPolicy::Full;
        let costs = cost_records(&backend(&library, &[], WireFormat::Compressed, verify));
        for (&(r, v), res) in &costs {
            let stored = library.resolve(r as usize, v as usize).0.expect("stored");
            let reply = wire::encode_reply(&stored.expected).bytes.len() as u64;
            assert_eq!(res.bytes_verify, reply);
            assert_eq!(
                res.bytes_wholesale,
                stored.wire_wholesale.bytes.len() as u64
            );
        }
    }

    /// On the real boards a corrupt fate under `Sampled { k }` fails the
    /// digests and escalates before any sampled frame is read.
    #[test]
    fn real_sampled_escalations_pay_digest_and_raw_only() {
        let library = library();
        let verify = VerifyPolicy::Sampled { k: 2 };
        let trace = trace(&library, 800, 5);
        let requests = requests(&trace);
        let real = backend(&library, &requests, WireFormat::Plain, verify);
        // One board holds one variant per region, so the keys churn.
        let resident = vec![vec![Resident::Base; library.regions().len()]];
        let states = boards(&library, 1, 0.05, 3);
        let out = sched::run(
            &real,
            &FleetMetrics::new(),
            &sched_cfg(ServeMode::Partial, verify, true),
            trace.clone(),
            states,
            resident,
        );
        let costs = cost_records(&real);
        let mut escalated = 0;
        for span in out.trace.spans.iter().filter(|s| s.stage == "verify") {
            let field = |key| span.fields.iter().find(|(k, _)| *k == key).map(|f| f.1);
            if field("flavor") != Some(FieldValue::Str("escalated")) {
                continue;
            }
            let req = trace[(span.trace - 1) as usize];
            let res = &costs[&(req.region, req.variant)];
            let want = res.bytes_verify_digest + res.bytes_verify;
            assert_eq!(field("bytes"), Some(FieldValue::U64(want)));
            escalated += 1;
        }
        assert!(escalated >= 2, "{escalated} corrupt fates escalated");
    }
}
