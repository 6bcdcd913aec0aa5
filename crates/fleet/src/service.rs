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
    self, Backend, DownloadResult, DownloadStatus, Flavor, Outcome, OutcomeKind, Priority,
    Resident, Resolved, SchedConfig, SimRequest, VerifyFlavor, VerifyPolicy,
};
use crate::store::StoredPartial;
use crate::FleetError;
use bitstream::Bitstream;
use jbits::Xhwif;
use simboard::port::{download_time, FaultInjector};
use simboard::SimBoard;
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

/// What one verification pass cost and found.
struct VerifyOutcome {
    /// Whether the region matched the stored expectation. `None` means
    /// the readback itself failed (indistinguishable from a mismatch to
    /// the retry loop, but priced at zero reply bytes).
    matched: Option<bool>,
    /// Reply bytes that crossed the port (digests + raw replies).
    reply_bytes: u64,
    /// How the verification ran.
    flavor: VerifyFlavor,
}

impl RealBackend<'_> {
    fn catalog(&self, region: u32) -> &crate::library::RegionCatalog {
        &self.library.regions()[region as usize]
    }

    /// Raw region readback compare against `art.expected`. Under the
    /// compressed wire format the reply crosses the port as a `JWR1`
    /// container ([`wire::encode_reply`]), so even full verifies and
    /// digest escalations stop paying wholesale frame bytes.
    fn raw_verify(&self, board: &mut RealBoard, art: &StoredPartial) -> VerifyOutcome {
        let cat = &self.library.regions()[art.key.region];
        board.readback.clear();
        let mut reply_words = 0usize;
        for r in &cat.verify_ranges {
            match board
                .board
                .get_configuration_region_into(*r, &mut board.readback)
            {
                // The physical reply carries one pad frame per read.
                Ok(()) => reply_words += (r.len + 1) * self.frame_words,
                Err(_) => {
                    return VerifyOutcome {
                        matched: None,
                        reply_bytes: 0,
                        flavor: VerifyFlavor::Raw,
                    }
                }
            }
        }
        let reply_bytes = match self.wire {
            WireFormat::Plain => reply_words as u64 * 4,
            WireFormat::Compressed => wire::encode_reply(&board.readback).bytes.len() as u64,
        };
        VerifyOutcome {
            matched: Some(board.readback == art.expected),
            reply_bytes,
            flavor: VerifyFlavor::Raw,
        }
    }

    /// Digest-tier verification: device-side per-frame digests against
    /// the store-time reference, optionally spot-checking `sample_k`
    /// deterministic pseudo-random raw frames, escalating to
    /// [`Self::raw_verify`] on any mismatch. A digest mismatch never
    /// fails the attempt directly — the raw compare is authoritative.
    fn digest_verify(
        &self,
        board: &mut RealBoard,
        global: u32,
        attempt: u32,
        art: &StoredPartial,
        sample_k: u32,
    ) -> VerifyOutcome {
        let cat = &self.library.regions()[art.key.region];
        let mut frames: Vec<u64> = Vec::with_capacity(art.expected_digests.frames.len());
        for r in &cat.verify_ranges {
            match board.board.get_region_digests(*r) {
                // Capability missing: the whole verify falls back to
                // the raw path (never a failure).
                None => return self.raw_verify(board, art),
                Some(Err(_)) => {
                    return VerifyOutcome {
                        matched: None,
                        reply_bytes: 0,
                        flavor: VerifyFlavor::Digest,
                    }
                }
                Some(Ok(d)) => frames.extend_from_slice(&d.frames),
            }
        }
        let digest_bytes = 8 * frames.len() as u64 + 8;
        let clean = frames == art.expected_digests.frames
            && virtex::rollup_digest64(&frames) == art.expected_digests.rollup;
        if !clean {
            // Escalate: the raw compare decides, and its reply rides
            // the compressed coding on a compressed wire.
            let raw = self.raw_verify(board, art);
            return VerifyOutcome {
                matched: raw.matched,
                reply_bytes: digest_bytes + raw.reply_bytes,
                flavor: VerifyFlavor::Escalated,
            };
        }
        if sample_k == 0 {
            return VerifyOutcome {
                matched: Some(true),
                reply_bytes: digest_bytes,
                flavor: VerifyFlavor::Digest,
            };
        }
        // Sampled spot-check: re-read `sample_k` raw frames chosen by a
        // seeded splitmix over (board, key, attempt) — deterministic at
        // any worker count because the virtual schedule is.
        let total: usize = cat.verify_ranges.iter().map(|r| r.len).sum();
        let mut seed = (global as u64) << 40
            ^ (art.key.region as u64) << 24
            ^ (art.key.variant as u64) << 12
            ^ attempt as u64
            ^ 0x5EED_D16E_57ED;
        let mut sample_bytes = 0u64;
        for _ in 0..sample_k {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let pick = ((z ^ (z >> 31)) % total.max(1) as u64) as usize;
            // Map the flat frame index back into its verify range.
            let (range_start, offset) = {
                let mut left = pick;
                let mut hit = (0usize, 0usize);
                for r in &cat.verify_ranges {
                    if left < r.len {
                        hit = (r.start, left);
                        break;
                    }
                    left -= r.len;
                }
                hit
            };
            let one = bitstream::FrameRange::new(range_start + offset, 1);
            board.readback.clear();
            match board
                .board
                .get_configuration_region_into(one, &mut board.readback)
            {
                Err(_) => {
                    return VerifyOutcome {
                        matched: None,
                        reply_bytes: digest_bytes + sample_bytes,
                        flavor: VerifyFlavor::Sampled,
                    }
                }
                Ok(()) => {
                    sample_bytes += ((1 + 1) * self.frame_words) as u64 * 4;
                    let fw = self.frame_words;
                    let want = &art.expected[pick * fw..(pick + 1) * fw];
                    if board.readback != want {
                        let raw = self.raw_verify(board, art);
                        return VerifyOutcome {
                            matched: raw.matched,
                            reply_bytes: digest_bytes + sample_bytes + raw.reply_bytes,
                            flavor: VerifyFlavor::Escalated,
                        };
                    }
                }
            }
        }
        VerifyOutcome {
            matched: Some(true),
            reply_bytes: digest_bytes + sample_bytes,
            flavor: VerifyFlavor::Sampled,
        }
    }

    /// Dispatch one verification pass per the configured policy.
    fn verify_pass(
        &self,
        board: &mut RealBoard,
        global: u32,
        attempt: u32,
        art: &StoredPartial,
    ) -> VerifyOutcome {
        match self.verify {
            VerifyPolicy::Full => self.raw_verify(board, art),
            VerifyPolicy::Digest => self.digest_verify(board, global, attempt, art, 0),
            VerifyPolicy::Sampled { k } => self.digest_verify(board, global, attempt, art, k),
            // Adaptive: digest on a first attempt, full compare once a
            // fault retry has made the board suspect.
            VerifyPolicy::Adaptive if attempt <= 1 => {
                self.digest_verify(board, global, attempt, art, 0)
            }
            VerifyPolicy::Adaptive => self.raw_verify(board, art),
        }
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
        let verify_words: usize = self
            .catalog(req.region)
            .verify_ranges
            .iter()
            .map(|r| (r.len + 1) * self.frame_words)
            .sum();
        // Under the compressed wire format the scheduler's cost model
        // must price what actually crosses the port: the container
        // bytes. Readback replies and full bitstreams stay plain.
        let (bytes_incremental, bytes_wholesale) = match self.wire {
            WireFormat::Plain => (
                stored.incremental.byte_len() as u64,
                stored.wholesale.byte_len() as u64,
            ),
            WireFormat::Compressed => (
                stored.wire_incremental.bytes.len() as u64,
                stored.wire_wholesale.bytes.len() as u64,
            ),
        };
        let res = Resolved {
            store_hit: hit,
            generation: stored.key.epoch,
            bytes_incremental,
            bytes_wholesale,
            bytes_full: stored.full.byte_len() as u64,
            bytes_verify: verify_words as u64 * 4,
            bytes_verify_digest: stored.expected_digests.port_bytes() as u64,
        };
        Ok((stored, res))
    }

    fn download(
        &self,
        board: &mut RealBoard,
        global: u32,
        art: &Arc<StoredPartial>,
        flavor: Flavor,
        attempt: u32,
        _res: &Resolved,
    ) -> DownloadResult {
        // Partial flavors optionally cross the port as compressed wire
        // containers, decoded stream-wise device-side; full swaps model
        // the legacy no-partial-reconfiguration flow and always ship
        // plain.
        // Wire downloads surface the device-side decoder's buffer
        // high-water mark; plain downloads never touch the decoder.
        let (configured, bytes) = match (self.wire, flavor) {
            (WireFormat::Compressed, Flavor::Incremental) => {
                let c = &art.wire_incremental.bytes;
                (
                    board
                        .board
                        .set_configuration_wire(c)
                        .map(|s| s.peak_buffer_words as u64),
                    c.len(),
                )
            }
            (WireFormat::Compressed, Flavor::Wholesale) => {
                let c = &art.wire_wholesale.bytes;
                (
                    board
                        .board
                        .set_configuration_wire(c)
                        .map(|s| s.peak_buffer_words as u64),
                    c.len(),
                )
            }
            _ => {
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
        let dl = download_time(bytes).as_nanos() as u64;
        let bytes = bytes as u64;
        let peak = match configured {
            Ok(p) => p,
            Err(e) => {
                return DownloadResult {
                    status: DownloadStatus::PortFault(e.to_string()),
                    bytes,
                    download_ns: dl,
                    verify_ns: 0,
                    readback_bytes: 0,
                    peak_buffer_words: 0,
                    verify_flavor: VerifyFlavor::None,
                }
            }
        };
        // Verification per the configured policy — from a full raw
        // readback compare down to digest-only, always escalating a
        // digest mismatch to the authoritative raw compare (costs port
        // time proportional to what actually crosses the port, the
        // point of `Xhwif::get_region_digests`).
        let v = self.verify_pass(board, global, attempt, art);
        let verify_ns = download_time(v.reply_bytes as usize).as_nanos() as u64;
        let status = match v.matched {
            Some(true) => DownloadStatus::Verified,
            Some(false) | None => DownloadStatus::VerifyMismatch,
        };
        DownloadResult {
            status,
            bytes,
            download_ns: dl,
            verify_ns: if v.matched.is_some() { verify_ns } else { 0 },
            readback_bytes: if v.matched.is_some() {
                v.reply_bytes
            } else {
                0
            },
            peak_buffer_words: peak,
            verify_flavor: v.flavor,
        }
    }

    fn finish(&self, board: &mut RealBoard, region: u32, payload: u32) -> Vec<(String, bool)> {
        // The region now verifiably runs the variant: drive, clock, read.
        let req = &self.requests[payload as usize];
        let cat = self.catalog(region);
        for (name, v) in &req.drive {
            if let Some(io) = cat.pad(name) {
                board.board.set_pad(io, *v);
            }
        }
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
            slot.board.set_fault_injector(if rate > 0.0 {
                Some(FaultInjector::new(
                    rate,
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64),
                ))
            } else {
                None
            });
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
