//! The sharded event-driven scheduler: a small worker pool multiplexing
//! thousands of simulated boards over a discrete-event virtual clock.
//!
//! ## Why not a thread per board
//!
//! The original `Fleet` ran one OS thread per board, which caps a
//! single host at a few hundred boards and makes every schedule a race:
//! two runs of the same request stream could pick different boards,
//! different retry interleavings, different store-hit winners. This
//! module replaces it with discrete-event simulation. Boards are
//! partitioned round-robin into **shards**; each shard owns an event
//! queue ([`crate::clock::EventQueue`]), its boards' residency state,
//! three priority-class run queues, and a coalescing index. A shard is
//! strictly sequential — events pop in `(virtual time, insertion seq)`
//! order — so everything a shard does is a pure function of its inputs.
//!
//! ## Deterministic parallelism
//!
//! Wall-clock parallelism comes from *windowed* execution: the driver
//! finds the earliest pending event across all shards, opens a window
//! `[next, next + window)`, and hands every shard with work in that
//! window to [`jpg::par_map`], which runs them on up to `workers` scoped
//! threads; a window with few busy shards runs on fewer, or on the
//! driver thread alone (see `MIN_SHARDS_PER_THREAD`). Shards never
//! touch each other's state, so which worker runs which shard (and in
//! what wall order) cannot change any virtual outcome — running with 1,
//! 2, or 8 workers produces byte-identical event logs. Between windows
//! the driver runs a **sequential rebalance**: shards with queued work
//! donate requests to shards with idle boards (virtual-time work
//! stealing). Because the barrier is sequential and its inputs are
//! deterministic shard states, stealing is deterministic too.
//!
//! ## Serving semantics
//!
//! Per request, in arrival order per shard: resolve against the store →
//! zero-cost fast path if an idle board already holds the variant
//! verified → **coalesce** onto an in-flight download of the same
//! `(region, variant)` → dispatch to an idle board (preferring one
//! whose region still holds base content, where the small incremental
//! partial suffices) → otherwise queue under admission control (bounded
//! queue ⇒ typed [`OutcomeKind::Rejected`]; low-priority shed past a
//! watermark ⇒ [`OutcomeKind::Shed`]). Downloads retry with exponential
//! backoff exactly like the original service, and every attempt is
//! verified by (simulated) region readback compare.
//!
//! The scheduler is generic over a [`Backend`]: the real one drives
//! `SimBoard`s through XHWIF (see `service.rs`), the model one
//! ([`crate::sim`]) costs requests purely from byte counts so that 10k
//! boards × 1M requests fit in seconds of wall clock.

use crate::clock::{EventQueue, Vt};
use crate::metrics::FleetMetrics;
use crate::FleetError;
use obs::trace::{json_string, FieldValue, ShardTracer, Trace, TraceSpan, TRACE_RING_CAPACITY};
use reloc::{SlotMap, SlotMove};
use simboard::port::download_ns;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Which bitstream the fleet downloads per swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Partial bitstreams from the store (the JPG flow): incremental
    /// when the region still holds base content, wholesale otherwise.
    Partial,
    /// A complete bitstream per swap (the conventional-flow baseline the
    /// paper argues against).
    FullSwap,
}

/// Admission priority class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Served before everything else in the queue.
    High,
    /// The default class.
    Normal,
    /// First to shed under load.
    Low,
}

impl Priority {
    /// Queue index: 0 drains first.
    pub fn class(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Stable lowercase label, used as the SLO class name and in trace
    /// span fields.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// One request in the virtual-time domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRequest {
    /// Caller-assigned identity, echoed in the outcome.
    pub id: u64,
    /// Virtual arrival instant.
    pub at: Vt,
    /// Region index.
    pub region: u32,
    /// Variant index within the region.
    pub variant: u32,
    /// Admission class.
    pub priority: Priority,
    /// Opaque payload handed to [`Backend::finish`] (the real backend
    /// uses it to index the caller's pad-drive list).
    pub payload: u32,
}

/// What the store resolution step learned about a request's artifacts:
/// the one per-key cost record both backends price from. Every byte
/// field is what crosses the port on this run's wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// Whether the store already held the generated bitstreams.
    pub store_hit: bool,
    /// Identity of the generated artifact; every request coalesced onto
    /// one download observes the same generation.
    pub generation: u64,
    /// Incremental-partial bytes (base-resident region).
    pub bytes_incremental: u64,
    /// Wholesale-partial bytes (overwrites any resident content).
    pub bytes_wholesale: u64,
    /// Complete-bitstream bytes (the FullSwap baseline).
    pub bytes_full: u64,
    /// Region-scoped readback reply bytes for one clean verification
    /// pass (a `JWR1` container on the compressed wire).
    pub bytes_verify: u64,
    /// Digest-reply bytes for one verification pass (per-frame FNV-1a/64
    /// digests plus the region rollup): what a digest-capable board
    /// sends instead of `bytes_verify` raw words.
    pub bytes_verify_digest: u64,
    /// Reply bytes of one sampled raw frame (the frame plus its pad
    /// frame).
    pub bytes_sample: u64,
}

/// How downloads are verified after the bytes land.
///
/// Safety rule shared by every backend: a digest mismatch **never**
/// fails a request directly — it escalates to a raw readback compare,
/// whose result is authoritative. Digest policies can therefore only
/// ever save bytes, never accept a corrupt region that [`Full`] would
/// have caught.
///
/// [`Full`]: VerifyPolicy::Full
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// Raw region readback compared word-for-word (the baseline).
    #[default]
    Full,
    /// Device-side digest readback compared against store-time digests;
    /// mismatch or missing capability escalates to raw compare.
    Digest,
    /// Digest readback plus `k` deterministic pseudo-random raw frames
    /// re-read and compared per verify (seeded per attempt, so results
    /// do not depend on worker count).
    Sampled {
        /// Raw frames spot-checked per verify.
        k: u32,
    },
    /// Digest verify normally; after any fault retry the attempt runs a
    /// full raw compare (compressed on a compressed wire) instead.
    Adaptive,
}

impl VerifyPolicy {
    /// Stable lower-case label (CLI parsing, reports).
    pub fn name(self) -> &'static str {
        match self {
            VerifyPolicy::Full => "full",
            VerifyPolicy::Digest => "digest",
            VerifyPolicy::Sampled { .. } => "sampled",
            VerifyPolicy::Adaptive => "adaptive",
        }
    }

    /// The tier attempt `attempt` (1-based) runs: the one place a
    /// policy turns into verification work, for every backend.
    pub fn tier(self, attempt: u32) -> VerifyTier {
        match self {
            VerifyPolicy::Full => VerifyTier::Raw,
            VerifyPolicy::Digest => VerifyTier::Digest { k: 0 },
            VerifyPolicy::Sampled { k } => VerifyTier::Digest { k },
            // Adaptive: digest on a first attempt, full compare once a
            // fault retry has made the board suspect.
            VerifyPolicy::Adaptive if attempt <= 1 => VerifyTier::Digest { k: 0 },
            VerifyPolicy::Adaptive => VerifyTier::Raw,
        }
    }
}

/// The verification one attempt runs (see [`VerifyPolicy::tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyTier {
    /// Raw region readback compare.
    Raw,
    /// Digest compare, then `k` sampled raw frames when the digests
    /// matched; any mismatch escalates to the raw compare.
    Digest {
        /// Raw frames spot-checked after clean digests.
        k: u32,
    },
}

/// What one read of the verification ladder found on the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The words (or digests) matched the store's.
    Match,
    /// They differed.
    Mismatch,
    /// The readback itself failed.
    Failed,
}

/// A board as the verification ladder sees it: the reads a tier is
/// made of. Backends perform them; [`verify`] orders and prices them.
pub(crate) trait Verifier {
    /// Compare the device's region digests with the store's; `None`
    /// when the board lacks digest readback (the pass then runs raw).
    fn digest(&mut self) -> Option<Probe>;
    /// Re-read this pass's next sampled raw frame and compare it.
    fn sample(&mut self) -> Probe;
    /// Compare the whole region raw; also returns the reply's port bytes.
    fn raw(&mut self) -> (Probe, u64);
}

/// How one verification pass ended: its last probe (the raw compare's
/// whenever one ran), the reply bytes that crossed the port, and how the
/// pass ran.
pub(crate) type Verdict = (Probe, u64, VerifyFlavor);

/// Run one verification pass of `tier` on `board`, priced from `res`:
/// digests first, the `k` sampled frames only after clean digests, and
/// on any mismatch the raw compare, which alone decides.
pub(crate) fn verify(tier: VerifyTier, res: &Resolved, board: &mut impl Verifier) -> Verdict {
    let k = match tier {
        VerifyTier::Raw => return raw_pass(board, 0, VerifyFlavor::Raw),
        VerifyTier::Digest { k } => k,
    };
    let mut paid = res.bytes_verify_digest;
    match board.digest() {
        None => return raw_pass(board, 0, VerifyFlavor::Raw),
        Some(Probe::Match) => {}
        Some(Probe::Mismatch) => return raw_pass(board, paid, VerifyFlavor::Escalated),
        Some(Probe::Failed) => return (Probe::Failed, paid, VerifyFlavor::Digest),
    }
    for _ in 0..k {
        let probe = board.sample();
        paid += res.bytes_sample;
        match probe {
            Probe::Match => {}
            Probe::Mismatch => return raw_pass(board, paid, VerifyFlavor::Escalated),
            Probe::Failed => return (Probe::Failed, paid, VerifyFlavor::Sampled),
        }
    }
    let flavor = if k == 0 {
        VerifyFlavor::Digest
    } else {
        VerifyFlavor::Sampled
    };
    (Probe::Match, paid, flavor)
}

/// The raw compare, after `paid` bytes of earlier probes.
fn raw_pass(board: &mut impl Verifier, paid: u64, flavor: VerifyFlavor) -> Verdict {
    let (probe, bytes) = board.raw();
    (probe, paid + bytes, flavor)
}

/// How one attempt's verification actually ran (what the policy chose
/// once capability and escalation shook out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyFlavor {
    /// No readback happened (port fault before verify).
    None,
    /// Raw region readback compare.
    Raw,
    /// Digest compare only.
    Digest,
    /// Digest compare plus sampled raw frames.
    Sampled,
    /// Digest mismatched (or policy demanded) and the attempt escalated
    /// to a raw compare.
    Escalated,
}

/// Which bitstream flavor one download attempt pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Small partial against base content (first attempt only).
    Incremental,
    /// Self-sufficient partial that overwrites any resident state.
    Wholesale,
    /// Complete bitstream.
    Full,
}

/// How one download attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownloadStatus {
    /// Downloaded and readback-verified.
    Verified,
    /// The configuration port faulted mid-transfer.
    PortFault(String),
    /// The download completed but readback comparison mismatched (or
    /// the readback itself failed — distinguished by
    /// [`DownloadResult::readback_bytes`] being zero).
    VerifyMismatch,
}

/// The cost and result of one download attempt.
#[derive(Debug, Clone)]
pub struct DownloadResult {
    /// Attempt outcome.
    pub status: DownloadStatus,
    /// Configuration bytes pushed.
    pub bytes: u64,
    /// Simulated port time of the push, nanoseconds.
    pub download_ns: u64,
    /// Simulated port time of the verification readback, nanoseconds.
    pub verify_ns: u64,
    /// Readback reply bytes (zero when no readback happened).
    pub readback_bytes: u64,
    /// Device-side decoder high-water mark for this attempt
    /// ([`wire::ApplyStats::peak_buffer_words`]; zero for plain,
    /// uncompressed downloads).
    pub peak_buffer_words: u64,
    /// How the verification ran (digest, raw, escalated, …).
    pub verify_flavor: VerifyFlavor,
}

impl DownloadResult {
    /// An attempt whose transfer faulted after pushing `bytes`: no
    /// readback ran.
    pub(crate) fn port_fault(error: String, bytes: u64, peak_buffer_words: u64) -> DownloadResult {
        DownloadResult {
            status: DownloadStatus::PortFault(error),
            bytes,
            download_ns: download_ns(bytes as usize),
            verify_ns: 0,
            readback_bytes: 0,
            peak_buffer_words,
            verify_flavor: VerifyFlavor::None,
        }
    }

    /// An attempt whose `bytes` landed and whose verification ended in
    /// `verdict`: verified on a match, mismatched otherwise. A failed
    /// readback costs no reply bytes.
    pub(crate) fn checked(bytes: u64, peak_buffer_words: u64, verdict: Verdict) -> DownloadResult {
        let (probe, reply_bytes, verify_flavor) = verdict;
        let readback_bytes = if probe == Probe::Failed {
            0
        } else {
            reply_bytes
        };
        DownloadResult {
            status: if probe == Probe::Match {
                DownloadStatus::Verified
            } else {
                DownloadStatus::VerifyMismatch
            },
            bytes,
            download_ns: download_ns(bytes as usize),
            verify_ns: download_ns(readback_bytes as usize),
            readback_bytes,
            peak_buffer_words,
            verify_flavor,
        }
    }
}

/// What a board's region currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resident {
    /// Base content (fresh board or after rebase).
    Base,
    /// A verified variant.
    Variant(u32),
    /// A failed or unverified download landed here.
    Unknown,
}

/// How a request concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Served and verified.
    Served {
        /// No download at all: the variant was already resident on an
        /// idle board.
        resident: bool,
        /// Rode another request's in-flight download of the same key.
        coalesced: bool,
    },
    /// Exhausted its retry budget or failed resolution.
    Failed,
    /// Refused at admission: the shard queue was full.
    Rejected,
    /// Dropped at admission: low priority past the shed watermark.
    Shed,
}

/// The complete per-request record.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Request identity.
    pub id: u64,
    /// Request payload, echoed.
    pub payload: u32,
    /// Region requested.
    pub region: u32,
    /// Variant requested.
    pub variant: u32,
    /// Admission class.
    pub priority: Priority,
    /// How it concluded.
    pub kind: OutcomeKind,
    /// Global board index that served it, if any board was involved.
    pub board: Option<u32>,
    /// Download attempts spent (0 for resident/coalesced service).
    pub attempts: u32,
    /// Whether the store already held the bitstreams at resolution.
    pub store_hit: bool,
    /// Configuration bytes pushed for this request.
    pub bytes: u64,
    /// Simulated port time consumed (downloads + readbacks + backoff).
    pub port_ns: u64,
    /// Store generation observed (all coalesced riders see the same).
    pub generation: u64,
    /// Virtual arrival instant.
    pub arrived: Vt,
    /// Virtual instant service began (download start; equals
    /// `completed` for zero-cost service).
    pub started: Vt,
    /// Virtual completion instant.
    pub completed: Vt,
    /// Pad outputs from [`Backend::finish`].
    pub outputs: Vec<(String, bool)>,
    /// Failure detail for non-served outcomes.
    pub error: Option<String>,
}

impl Outcome {
    /// Whether the request was served (any [`OutcomeKind::Served`]).
    pub fn served(&self) -> bool {
        matches!(self.kind, OutcomeKind::Served { .. })
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Download flavor.
    pub mode: ServeMode,
    /// Download attempts per request before giving up.
    pub max_attempts: u32,
    /// First retry backoff (virtual port idle time); doubles per
    /// subsequent retry.
    pub backoff: Duration,
    /// Number of shards (clamped to the board count). Shard count — not
    /// worker count — fixes the virtual schedule, so results never
    /// depend on how many threads happen to run.
    pub shards: usize,
    /// Most worker threads per window (0 = available parallelism),
    /// capped at the shard count; a window with few busy shards uses
    /// fewer (see `MIN_SHARDS_PER_THREAD`). Changes wall time only,
    /// never virtual results.
    pub workers: usize,
    /// Virtual width of one parallel execution window.
    pub window: Duration,
    /// Per-shard admission queue bound; arrivals past it are
    /// [`OutcomeKind::Rejected`].
    pub queue_cap: usize,
    /// Per-shard backlog at which [`Priority::Low`] arrivals are
    /// [`OutcomeKind::Shed`].
    pub shed_watermark: usize,
    /// Whether same-key requests coalesce onto in-flight downloads.
    pub coalesce: bool,
    /// Whether to record the per-event log (golden-trace fixtures).
    pub log_events: bool,
    /// Whether to record causal request traces and per-board flight
    /// rings. Off by default: the hot path then skips every span and
    /// flight-event branch (and the `obs-off` cargo feature forces it
    /// off at compile time).
    pub trace: bool,
    /// Online defragmentation policy; `None` leaves regions wherever
    /// their initial layout put them.
    pub defrag: Option<DefragConfig>,
    /// How downloads are verified (see [`VerifyPolicy`]); backends
    /// price and perform the chosen tier per attempt.
    pub verify: VerifyPolicy,
}

/// Online defragmentation policy: every board tracks its regions'
/// column-slot occupancy in a [`SlotMap`], and whenever a board sits
/// idle for a dwell while holes exist below its high-water slot, the
/// scheduler relocates the highest resident region into the lowest hole
/// (one [`Backend::migrate`] download per move, fault-retried like any
/// other). Migrations are ordinary scheduler events, so they interleave
/// with request service deterministically.
#[derive(Debug, Clone)]
pub struct DefragConfig {
    /// Column slots per board.
    pub slots: usize,
    /// Initial slot of region `i` — the layout every board starts with.
    /// Slot indices must be distinct and below `slots`.
    pub layout: Vec<usize>,
    /// Idle dwell before an idle fragmented board starts its next
    /// migration.
    pub idle: Duration,
    /// Migration attempts per planned move before the board's
    /// defragmenter stands down (request service is never blocked on a
    /// failed migration — copy-then-free leaves the source slot live).
    pub max_attempts: u32,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            mode: ServeMode::Partial,
            max_attempts: 16,
            backoff: Duration::from_micros(20),
            shards: 8,
            workers: 0,
            window: Duration::from_micros(20),
            queue_cap: usize::MAX,
            shed_watermark: usize::MAX,
            coalesce: true,
            log_events: false,
            trace: false,
            defrag: None,
            verify: VerifyPolicy::Full,
        }
    }
}

/// What the scheduler needs from a board-and-store implementation.
///
/// The scheduler owns all timing, retry, residency, coalescing and
/// admission logic; the backend only resolves artifacts, prices/performs
/// downloads, and produces a request's functional outputs.
pub trait Backend: Sync {
    /// Resolved bitstream artifact handed back to every download.
    type Artifact: Clone + Send;
    /// Per-board state (the real backend keeps a `SimBoard` here).
    type Board: Send;

    /// Resolve a request against the store. `Err` is a terminal
    /// bad-request failure (no board involved).
    fn resolve(&self, req: &SimRequest) -> Result<(Self::Artifact, Resolved), String>;

    /// Perform one download attempt of `flavor` on `board` and price it
    /// in virtual port time, verification included. `attempt` is the
    /// 1-based attempt number for this request — adaptive verify
    /// policies escalate on retries.
    fn download(
        &self,
        board: &mut Self::Board,
        global: u32,
        art: &Self::Artifact,
        flavor: Flavor,
        attempt: u32,
        res: &Resolved,
    ) -> DownloadResult;

    /// Produce the request's functional outputs on a board whose region
    /// verifiably runs the variant (drive pads, clock, sample).
    fn finish(&self, board: &mut Self::Board, region: u32, payload: u32) -> Vec<(String, bool)>;

    /// Relocate `region`'s resident content into a new column slot on
    /// `board` — one migration attempt, priced in virtual port time with
    /// verification included, exactly like a download. Returning `None`
    /// means this backend cannot relocate (the defragmenter then stands
    /// down fleet-wide); the default backend never migrates.
    fn migrate(
        &self,
        _board: &mut Self::Board,
        _global: u32,
        _region: u32,
        _resident: Resident,
    ) -> Option<DownloadResult> {
        None
    }
}

/// Everything the driver returns.
pub struct RunOutput<B: Backend> {
    /// Per-request outcomes, sorted by `(id, payload)`.
    pub outcomes: Vec<Outcome>,
    /// Board states, in global board order (for reuse across runs).
    pub states: Vec<B::Board>,
    /// Residency per board per region, in global board order.
    pub resident: Vec<Vec<Resident>>,
    /// Per-board simulated port busy time this run, nanoseconds.
    pub busy_ns: Vec<u64>,
    /// Latest virtual instant any shard processed.
    pub completed: Vt,
    /// Requests migrated between shards at rebalance barriers.
    pub stolen: u64,
    /// Slot migrations the defragmenter completed (verified moves).
    pub migrations: u64,
    /// Migration attempts that faulted and were retried or abandoned.
    pub migration_retries: u64,
    /// Summed per-board slot fragmentation before the run.
    pub frag_initial: u64,
    /// Summed per-board slot fragmentation after the run.
    pub frag_final: u64,
    /// Final slot occupancy per board, in global board order (empty
    /// maps when defragmentation is off).
    pub slots: Vec<SlotMap>,
    /// Merged event log (empty unless `log_events`).
    pub event_log: Vec<String>,
    /// Causal request trace (empty unless [`SchedConfig::trace`]):
    /// per-shard span rings merged in `(start, shard, seq)` order, so
    /// the dump is byte-identical at any worker count.
    pub trace: Trace,
    /// Flight-recorder post-mortems (structured JSON, one per terminal
    /// request failure or defragmenter stand-down), merged
    /// deterministically across shards. Empty unless tracing is on.
    pub postmortems: Vec<String>,
    /// Fleet-wide maximum of the device-side streaming decoder's
    /// buffer high-water mark across every download attempt
    /// ([`DownloadResult::peak_buffer_words`]).
    pub peak_buffer_words: u64,
}

#[derive(Debug)]
enum Ev {
    Arrive(SimRequest),
    Complete {
        board: u32,
    },
    Kick,
    /// A board's idle dwell elapsed: consider starting a migration.
    Defrag {
        board: u32,
    },
    /// A migration attempt's port time elapsed.
    MigrateDone {
        board: u32,
    },
}

struct Queued<B: Backend> {
    req: SimRequest,
    /// The owning shard's dense id of `(req.region, req.variant)`.
    key: u32,
    art: B::Artifact,
    res: Resolved,
}

struct Job<B: Backend> {
    main: Queued<B>,
    riders: Vec<Queued<B>>,
    attempts: u32,
    bytes: u64,
    port_ns: u64,
    started: Vt,
    last_status: DownloadStatus,
}

/// One in-flight slot migration on a board.
struct Migration {
    mv: SlotMove,
    attempts: u32,
    port_ns: u64,
    last_status: DownloadStatus,
    /// Trace identity of this migration (high bit set so migration
    /// traces never collide with request traces).
    tid: u64,
}

struct BoardCore<B: Backend> {
    state: B::Board,
    resident: Vec<Resident>,
    /// Per region, the shard's key id of the verified variant
    /// `resident` holds there; meaningless for other residencies.
    keys: Vec<u32>,
    job: Option<Job<B>>,
    /// In-flight migration; mutually exclusive with `job` (a migrating
    /// board is out of the idle indexes, so it cannot be dispatched).
    migr: Option<Migration>,
    slots: SlotMap,
    /// The defragmenter exhausted a move's attempt budget on this board
    /// and stands down for the rest of the run.
    defrag_dead: bool,
    busy_ns: u64,
    /// Flight recorder: the last [`FLIGHT_CAPACITY`] scheduler events
    /// on this board, as `(at_ns, what, a, b)` tuples — allocation-free
    /// on the hot path, rendered to JSON only at post-mortem dump time.
    /// Empty unless tracing is on.
    flight: VecDeque<(u64, &'static str, u64, u64)>,
}

struct Shard<B: Backend> {
    id: usize,
    nshards: usize,
    cfg: SchedConfig,
    backoff_ns: u64,
    boards: Vec<BoardCore<B>>,
    events: EventQueue<Ev>,
    now: Vt,
    queues: [VecDeque<Queued<B>>; 3],
    queued: usize,
    queue_high: usize,
    /// Dense id of every `(region, variant)` key this shard has seen,
    /// assigned on a request's arrival (or steal) and on residency at
    /// set-up: the shard's one hash lookup per request. The indexes
    /// below are vectors over these ids, so they grow with the keys
    /// seen, never with the key space.
    key_ids: HashMap<(u32, u32), u32>,
    /// Per key id: the board downloading that key, or [`NO_BOARD`].
    inflight: Vec<u32>,
    idle: IdleSet,
    /// Per key id: idle boards holding that variant verified.
    idle_exact: Vec<IdleSet>,
    /// Per region: idle partial-mode boards whose region holds base
    /// content.
    idle_base: Vec<IdleSet>,
    /// Emptied rider lists of finished jobs, reused by the next ones.
    spare_riders: Vec<Vec<Queued<B>>>,
    outcomes: Vec<Outcome>,
    migrations: u64,
    migration_retries: u64,
    /// Set when the backend declines to migrate: no further dwell
    /// timers are armed on this shard.
    migrate_off: bool,
    log: Vec<(u64, u64, String)>,
    /// Per-shard span ring; recording is single-threaded (the shard
    /// owns it), merged deterministically after the run.
    tracer: ShardTracer,
    /// Rendered flight-recorder dumps as `(at_ns, seq, json)`.
    postmortems: Vec<(u64, u64, String)>,
    /// Shard-wide max of per-attempt decoder buffer high-water marks.
    peak_buf: u64,
    /// Migrations started on this shard (trace-identity counter).
    migr_seq: u64,
}

/// The empty slot of [`Shard::inflight`].
const NO_BOARD: u32 = u32::MAX;

/// A shard's set of local board ids, kept sorted so the lowest id comes
/// first. A set holds the few boards of one shard that are idle under
/// one key, so a sorted vector beats a tree: no node allocation, and
/// its capacity survives the set emptying.
#[derive(Default)]
struct IdleSet(Vec<u32>);

impl IdleSet {
    fn insert(&mut self, b: u32) {
        if let Err(i) = self.0.binary_search(&b) {
            self.0.insert(i, b);
        }
    }

    fn remove(&mut self, b: u32) {
        if let Ok(i) = self.0.binary_search(&b) {
            self.0.remove(i);
        }
    }

    fn first(&self) -> Option<u32> {
        self.0.first().copied()
    }

    fn contains(&self, b: u32) -> bool {
        self.0.binary_search(&b).is_ok()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Bounded queue scan depth for the resident-exact fast path — keeps
/// drain cost O(1) per dispatch even against an arbitrarily deep queue.
const RESIDENT_SCAN: usize = 32;

/// The fewest busy shards a window gives each thread it starts.
///
/// On a 2-core x86-64 host one `thread::scope` with two spawns costs
/// 76–119 µs bare and adds 60–110 µs to a window, more than a few
/// shards' work (EXPERIMENTS.md E25, p50 per window):
/// - `fleet_serve`'s 2- and 3-shard windows take 64 and 99 µs on the
///   driver against 168 and 211 µs on two threads, and its 4-shard
///   windows take ~630 µs either way;
/// - `fleet_soak`'s 2–5-shard windows take 6–20 µs on the driver
///   against 63–82 µs on two threads, while its 64-shard windows
///   (~1.8 ms) gain from every thread.
///
/// So a window starts at most one thread per this many busy shards,
/// and one with fewer than twice this many runs on the driver thread.
const MIN_SHARDS_PER_THREAD: usize = 3;

/// Threads for a window with `busy` shards, at most `workers`; one or
/// fewer means the driver thread runs the window.
fn window_threads(workers: usize, busy: usize) -> usize {
    workers.min(busy / MIN_SHARDS_PER_THREAD)
}

/// Flight-recorder depth: how many recent scheduler events a board's
/// ring retains for the post-mortem dump.
pub const FLIGHT_CAPACITY: usize = 16;

/// Trace identity of a request: its id plus one, so 0 stays free as
/// the "no parent" sentinel in [`TraceSpan::parent`].
fn tid(id: u64) -> u64 {
    id + 1
}

/// Stable span-field label for a download status.
fn status_str(s: &DownloadStatus) -> &'static str {
    match s {
        DownloadStatus::Verified => "verified",
        DownloadStatus::PortFault(_) => "port_fault",
        DownloadStatus::VerifyMismatch => "verify_mismatch",
    }
}

/// Stable span-field label for a download flavor.
fn flavor_str(f: Flavor) -> &'static str {
    match f {
        Flavor::Incremental => "incremental",
        Flavor::Wholesale => "wholesale",
        Flavor::Full => "full",
    }
}

/// Stable span-field label for a verify flavor.
fn verify_flavor_str(v: VerifyFlavor) -> &'static str {
    match v {
        VerifyFlavor::None => "none",
        VerifyFlavor::Raw => "raw",
        VerifyFlavor::Digest => "digest",
        VerifyFlavor::Sampled => "sampled",
        VerifyFlavor::Escalated => "escalated",
    }
}

/// Stable span-field label for an outcome kind.
fn outcome_str(k: &OutcomeKind) -> &'static str {
    match k {
        OutcomeKind::Served { resident: true, .. } => "served_resident",
        OutcomeKind::Served {
            coalesced: true, ..
        } => "served_coalesced",
        OutcomeKind::Served { .. } => "served",
        OutcomeKind::Failed => "failed",
        OutcomeKind::Rejected => "rejected",
        OutcomeKind::Shed => "shed",
    }
}

/// Append to the shard event log without paying the format cost when
/// logging is off (the 1M-request hot path).
macro_rules! shlog {
    ($s:expr, $($t:tt)*) => {
        if $s.cfg.log_events {
            $s.logf(format!($($t)*));
        }
    };
}

/// Push one `(at, what, a, b)` event onto a board's flight ring —
/// allocation-free and a no-op when tracing is off.
macro_rules! flight {
    ($s:expr, $b:expr, $what:expr, $a:expr, $v:expr) => {
        if $s.tracer.enabled() {
            let at = $s.now.ns();
            let ring = &mut $s.boards[$b as usize].flight;
            if ring.len() == FLIGHT_CAPACITY {
                ring.pop_front();
            }
            ring.push_back((at, $what, $a, $v));
        }
    };
}

impl<B: Backend> Shard<B> {
    fn global(&self, local: u32) -> u32 {
        (self.id + local as usize * self.nshards) as u32
    }

    fn logf(&mut self, text: String) {
        let seq = self.log.len() as u64;
        self.log.push((self.now.ns(), seq, text));
    }

    /// The one place a request ends. Its kind picks the request
    /// instruments it moves: served counts `requests_served` (and
    /// `resident_hits` when it needed no download of its own), failed
    /// counts `requests_failed`, and both record their port time in
    /// `request_latency` and arrival → completion in `e2e_latency`;
    /// rejected and shed count only themselves. Then the root "request"
    /// span records the classification and the outcome is kept.
    fn settle(&mut self, m: &FleetMetrics, o: Outcome) {
        match o.kind {
            OutcomeKind::Served {
                resident,
                coalesced,
            } => {
                if resident || coalesced {
                    m.resident_hits.inc();
                }
                m.requests_served.inc();
            }
            OutcomeKind::Failed => m.requests_failed.inc(),
            OutcomeKind::Rejected => m.rejected.inc(),
            OutcomeKind::Shed => m.shed.inc(),
        }
        let e2e_ns = o.completed.ns() - o.arrived.ns();
        if matches!(o.kind, OutcomeKind::Served { .. } | OutcomeKind::Failed) {
            m.request_latency.record(Duration::from_nanos(o.port_ns));
            m.e2e_latency.record(Duration::from_nanos(e2e_ns));
        }
        if self.tracer.enabled() {
            let mut span = TraceSpan::new(tid(o.id), 0, "request", o.arrived.ns(), e2e_ns);
            if let Some(g) = o.board {
                span.board = g as i64;
            }
            let f = &mut span.fields;
            f.push("outcome", FieldValue::Str(outcome_str(&o.kind)));
            f.push("class", FieldValue::Str(o.priority.name()));
            f.push("attempts", FieldValue::U64(o.attempts as u64));
            f.push("bytes", FieldValue::U64(o.bytes));
            f.push("store_hit", FieldValue::U64(o.store_hit as u64));
            self.tracer.record(span);
        }
        self.outcomes.push(o);
    }

    /// The outcome of `q` on local board `b`, concluding now: served
    /// requests carry the board's outputs, failed ones `error`.
    fn board_outcome(
        &mut self,
        backend: &B,
        b: u32,
        q: &Queued<B>,
        kind: OutcomeKind,
        error: Option<String>,
    ) -> Outcome {
        let mut o = outcome(&q.req, kind, self.now, error);
        o.board = Some(self.global(b));
        (o.store_hit, o.generation) = (q.res.store_hit, q.res.generation);
        if o.served() {
            let state = &mut self.boards[b as usize].state;
            o.outputs = backend.finish(state, q.req.region, q.req.payload);
        }
        o
    }

    /// Record a span of `stage` for `req` on global board `g`, tagged
    /// with its class. The span is built in place and moved once.
    fn class_span(&mut self, stage: &'static str, req: &SimRequest, parent: u64, at: Vt, g: u32) {
        if !self.tracer.enabled() {
            return;
        }
        let (start, dur) = (at.ns(), self.now.ns() - at.ns());
        let mut span = TraceSpan::new(tid(req.id), parent, stage, start, dur);
        span.board = g as i64;
        span.fields
            .push("class", FieldValue::Str(req.priority.name()));
        self.tracer.record(span);
    }

    /// Dump a board's flight ring as one structured-JSON post-mortem.
    /// Every value is a number or a `&'static str`, so the render needs
    /// no escaping decisions beyond [`json_string`].
    fn flight_dump(&mut self, b: u32, reason: &'static str, request: Option<u64>) {
        if !self.tracer.enabled() {
            return;
        }
        let global = self.global(b);
        let mut s = format!(
            "{{\"at_ns\":{},\"board\":{},\"reason\":{},\"request\":",
            self.now.ns(),
            global,
            json_string(reason)
        );
        match request {
            Some(id) => s.push_str(&id.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"events\":[");
        for (i, (at, what, a, v)) in self.boards[b as usize].flight.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"at_ns\":{at},\"what\":{},\"a\":{a},\"b\":{v}}}",
                json_string(what)
            ));
        }
        s.push_str("]}");
        let seq = self.postmortems.len() as u64;
        self.postmortems.push((self.now.ns(), seq, s));
    }

    /// Re-file a board in the idle indexes (call when it has no job).
    /// An idle fragmented board arms a defragmentation dwell timer.
    fn index_insert(&mut self, b: u32) {
        self.idle.insert(b);
        if let Some(d) = &self.cfg.defrag {
            let core = &self.boards[b as usize];
            if !self.migrate_off && !core.defrag_dead && core.slots.fragmentation() > 0 {
                let due = self.now.after_ns(d.idle.as_nanos() as u64);
                self.events.push(due, Ev::Defrag { board: b });
            }
        }
        self.file_idle(b, true);
    }

    fn index_remove(&mut self, b: u32) {
        self.idle.remove(b);
        self.file_idle(b, false);
    }

    /// The dense id of `(region, variant)` on this shard, assigned on
    /// first sight.
    fn intern(&mut self, region: u32, variant: u32) -> u32 {
        let next = self.inflight.len() as u32;
        let key = *self.key_ids.entry((region, variant)).or_insert(next);
        if key == next {
            self.inflight.push(NO_BOARD);
            self.idle_exact.push(IdleSet::default());
        }
        key
    }

    /// File board `b` under (`file`) or take it out of every idle-index
    /// key its residency earns: `(region, variant)` in `idle_exact` for
    /// each verified variant (a full-swap board's one variant), and the
    /// region in `idle_base` for each base-content region of a partial
    /// board. Residency never changes while a board is idle, so removal
    /// derives the same keys its filing did.
    fn file_idle(&mut self, b: u32, file: bool) {
        let set = |s: &mut IdleSet| {
            if file {
                s.insert(b);
            } else {
                s.remove(b);
            }
        };
        let core = &self.boards[b as usize];
        match self.cfg.mode {
            ServeMode::Partial => {
                for (r, res) in core.resident.iter().enumerate() {
                    match *res {
                        Resident::Variant(_) => set(&mut self.idle_exact[core.keys[r] as usize]),
                        Resident::Base => set(&mut self.idle_base[r]),
                        Resident::Unknown => {}
                    }
                }
            }
            ServeMode::FullSwap => {
                if let Some(r) = fullswap_region(&core.resident) {
                    set(&mut self.idle_exact[core.keys[r] as usize]);
                }
            }
        }
    }

    /// Idle board to start a download on: prefer one whose region still
    /// holds base content (the incremental partial is smaller), lowest
    /// index among candidates for determinism.
    fn pick_idle(&self, region: u32) -> Option<u32> {
        if self.cfg.mode == ServeMode::Partial {
            if let Some(b) = self.idle_base.get(region as usize).and_then(IdleSet::first) {
                return Some(b);
            }
        }
        self.idle.first()
    }

    fn run_until(&mut self, backend: &B, m: &FleetMetrics, end: Vt) {
        while let Some(ev) = self.events.pop_if_before(end) {
            self.now = ev.at;
            match ev.kind {
                Ev::Arrive(req) => self.on_arrive(backend, m, req),
                Ev::Complete { board } => self.on_complete(backend, m, board),
                Ev::Kick => self.drain(backend, m),
                Ev::Defrag { board } => self.on_defrag(backend, m, board),
                Ev::MigrateDone { board } => self.on_migrate_done(backend, m, board),
            }
        }
    }

    fn on_arrive(&mut self, backend: &B, m: &FleetMetrics, req: SimRequest) {
        m.requests_enqueued.inc();
        let (art, res) = match backend.resolve(&req) {
            Ok(x) => x,
            Err(e) => {
                shlog!(self, "fail id={} error={e:?}", req.id);
                self.settle(m, outcome(&req, OutcomeKind::Failed, self.now, Some(e)));
                return;
            }
        };
        if res.store_hit {
            m.store_hits.inc();
        } else {
            m.store_misses.inc();
        }
        shlog!(
            self,
            "arrive id={} key={}/{} prio={:?}",
            req.id,
            req.region,
            req.variant,
            req.priority
        );
        let key = self.intern(req.region, req.variant);
        let q = Queued { req, key, art, res };
        self.admit(backend, m, q);
    }

    /// Route one resolved request: fast path → rider → dispatch → queue.
    fn admit(&mut self, backend: &B, m: &FleetMetrics, q: Queued<B>) {
        if let Some(b) = self.idle_exact[q.key as usize].first() {
            self.serve_resident(backend, m, b, q);
            return;
        }
        let Some(q) = self.ride(m, q) else {
            return;
        };
        if let Some(b) = self.pick_idle(q.req.region) {
            self.start_job(backend, m, b, q);
            return;
        }
        let (kind, e) = if self.queued >= self.cfg.queue_cap {
            shlog!(self, "reject id={}", q.req.id);
            let e = format!("queue full (cap {})", self.cfg.queue_cap);
            (OutcomeKind::Rejected, e)
        } else if q.req.priority == Priority::Low && self.queued >= self.cfg.shed_watermark {
            shlog!(self, "shed id={}", q.req.id);
            let e = format!("shed under load (watermark {})", self.cfg.shed_watermark);
            (OutcomeKind::Shed, e)
        } else {
            self.queues[q.req.priority.class()].push_back(q);
            self.queued += 1;
            self.queue_high = self.queue_high.max(self.queued);
            return;
        };
        // Refused after resolution: the store result is already counted.
        let mut o = outcome(&q.req, kind, self.now, Some(e));
        (o.store_hit, o.generation) = (q.res.store_hit, q.res.generation);
        self.settle(m, o);
    }

    /// Attach `q` as a rider to the download of its key in flight on
    /// this shard, if coalescing is on and there is one; otherwise hand
    /// it back.
    fn ride(&mut self, m: &FleetMetrics, q: Queued<B>) -> Option<Queued<B>> {
        let b = self.inflight[q.key as usize];
        if !self.cfg.coalesce || b == NO_BOARD {
            return Some(q);
        }
        m.coalesced.inc();
        let (req, g) = (q.req, self.global(b));
        shlog!(self, "rider id={} board={g}", req.id);
        let job = self.boards[b as usize]
            .job
            .as_mut()
            .expect("inflight board has a job");
        let main = tid(job.main.req.id);
        job.riders.push(q);
        self.class_span("ride", &req, main, self.now, g);
        None
    }

    /// Zero-traffic service on an idle board that already runs the
    /// variant verified. The board stays idle.
    fn serve_resident(&mut self, backend: &B, m: &FleetMetrics, b: u32, q: Queued<B>) {
        let kind = OutcomeKind::Served {
            resident: true,
            coalesced: false,
        };
        let o = self.board_outcome(backend, b, &q, kind, None);
        let global = self.global(b);
        shlog!(self, "resident id={} board={global}", q.req.id);
        self.class_span("queue", &q.req, 0, q.req.at, global);
        self.settle(m, o);
    }

    fn start_job(&mut self, backend: &B, m: &FleetMetrics, b: u32, q: Queued<B>) {
        let key = q.key;
        self.index_remove(b);
        self.inflight[key as usize] = b;
        // Sweep queued same-key requests into the rider list: they ride
        // this download instead of waiting for their own board. Each
        // class rotates once through itself, so the kept requests end
        // in their old order with no new queue built.
        let mut riders = self.spare_riders.pop().unwrap_or_default();
        if self.cfg.coalesce {
            for queue in &mut self.queues {
                for _ in 0..queue.len() {
                    let x = queue.pop_front().expect("counted");
                    if x.key == key {
                        riders.push(x);
                    } else {
                        queue.push_back(x);
                    }
                }
            }
            m.coalesced.add(riders.len() as u64);
            self.queued -= riders.len();
        }
        let g = self.global(b);
        shlog!(
            self,
            "dispatch id={} board={g} riders={}",
            q.req.id,
            riders.len()
        );
        self.class_span("queue", &q.req, 0, q.req.at, g);
        for rider in &riders {
            self.class_span("ride", &rider.req, tid(q.req.id), self.now, g);
        }
        flight!(self, b, "dispatch", q.req.id, riders.len() as u64);
        self.boards[b as usize].job = Some(Job {
            main: q,
            riders,
            attempts: 0,
            bytes: 0,
            port_ns: 0,
            started: self.now,
            last_status: DownloadStatus::Verified,
        });
        self.begin_attempt(backend, m, b);
    }

    fn begin_attempt(&mut self, backend: &B, m: &FleetMetrics, b: u32) {
        let global = self.global(b);
        let core = &mut self.boards[b as usize];
        let job = core.job.as_mut().expect("attempt on an idle board");
        job.attempts += 1;
        let pause_ns = if job.attempts > 1 {
            self.backoff_ns << (job.attempts - 2).min(10)
        } else {
            0
        };
        let region = job.main.req.region;
        let flavor = match self.cfg.mode {
            ServeMode::FullSwap => Flavor::Full,
            ServeMode::Partial => {
                if job.attempts == 1 && core.resident[region as usize] == Resident::Base {
                    Flavor::Incremental
                } else {
                    Flavor::Wholesale
                }
            }
        };
        // Any write leaves the region (or, for a full swap, the whole
        // board) in an unknown state until verified.
        match self.cfg.mode {
            ServeMode::Partial => core.resident[region as usize] = Resident::Unknown,
            ServeMode::FullSwap => core.resident.fill(Resident::Unknown),
        }
        let r = backend.download(
            &mut core.state,
            global,
            &job.main.art,
            flavor,
            job.attempts,
            &job.main.res,
        );
        job.bytes += r.bytes;
        job.port_ns += pause_ns + r.download_ns + r.verify_ns;
        m.downloads.inc();
        m.download_bytes.add(r.bytes);
        m.download_latency
            .record(Duration::from_nanos(r.download_ns));
        if r.readback_bytes > 0 {
            m.readback_bytes.add(r.readback_bytes);
            m.verify_latency.record(Duration::from_nanos(r.verify_ns));
            if r.status == DownloadStatus::VerifyMismatch {
                m.verify_failures.inc();
            }
        }
        match r.verify_flavor {
            VerifyFlavor::None => {}
            VerifyFlavor::Raw => m.verify_raw.inc(),
            VerifyFlavor::Digest => m.verify_digest.inc(),
            VerifyFlavor::Sampled => m.verify_sampled.inc(),
            VerifyFlavor::Escalated => m.verify_escalations.inc(),
        }
        let due = self.now.after_ns(pause_ns + r.download_ns + r.verify_ns);
        let id = job.main.req.id;
        let attempt = job.attempts;
        let bytes = r.bytes;
        let status_s = status_str(&r.status);
        job.last_status = r.status;
        self.peak_buf = self.peak_buf.max(r.peak_buffer_words);
        if self.tracer.enabled() {
            let (t, at) = (tid(id), self.now.ns());
            if pause_ns > 0 {
                let mut span = TraceSpan::new(t, 0, "backoff", at, pause_ns);
                span.board = global as i64;
                self.tracer.record(span);
            }
            let mut span = TraceSpan::new(t, 0, "download", at + pause_ns, r.download_ns);
            span.board = global as i64;
            let f = &mut span.fields;
            f.push("flavor", FieldValue::Str(flavor_str(flavor)));
            f.push("attempt", FieldValue::U64(attempt as u64));
            f.push("bytes", FieldValue::U64(bytes));
            f.push("status", FieldValue::Str(status_s));
            f.push("peak_buffer_words", FieldValue::U64(r.peak_buffer_words));
            self.tracer.record(span);
            if r.verify_ns > 0 || r.readback_bytes > 0 {
                let start = at + pause_ns + r.download_ns;
                let mut span = TraceSpan::new(t, 0, "verify", start, r.verify_ns);
                span.board = global as i64;
                let f = &mut span.fields;
                f.push("bytes", FieldValue::U64(r.readback_bytes));
                f.push(
                    "flavor",
                    FieldValue::Str(verify_flavor_str(r.verify_flavor)),
                );
                f.push("status", FieldValue::Str(status_s));
                self.tracer.record(span);
            }
        }
        flight!(self, b, "attempt", id, attempt as u64);
        shlog!(
            self,
            "attempt id={id} board={global} n={attempt} flavor={flavor:?} bytes={bytes}"
        );
        self.events.push(due, Ev::Complete { board: b });
    }

    /// A download attempt's port time elapsed: retry a failed attempt
    /// while budget remains, otherwise conclude the job — served, or
    /// exhausted with its riders failing alongside.
    fn on_complete(&mut self, backend: &B, m: &FleetMetrics, b: u32) {
        let global = self.global(b);
        let core = &mut self.boards[b as usize];
        let job = core.job.as_ref().expect("completion on an idle board");
        let failed = job.last_status != DownloadStatus::Verified;
        if failed {
            m.retries.inc();
            if job.attempts < self.cfg.max_attempts {
                self.begin_attempt(backend, m, b);
                return;
            }
        }
        let job = core.job.take().expect("checked above");
        let (id, attempts) = (job.main.req.id, job.attempts);
        let (region, variant) = (job.main.req.region, job.main.req.variant);
        core.busy_ns += job.port_ns;
        if !failed {
            core.resident[region as usize] = Resident::Variant(variant);
            core.keys[region as usize] = job.main.key;
            if self.cfg.mode == ServeMode::FullSwap {
                for (r, res) in core.resident.iter_mut().enumerate() {
                    if r != region as usize {
                        *res = Resident::Base;
                    }
                }
            }
        }
        self.inflight[job.main.key as usize] = NO_BOARD;
        let error = if failed {
            shlog!(self, "exhausted id={id} board={global} attempts={attempts}");
            flight!(self, b, "exhausted", id, attempts as u64);
            self.flight_dump(b, "request_exhausted", Some(id));
            let last = match &job.last_status {
                DownloadStatus::PortFault(e) => e.clone(),
                _ => "readback verification mismatch".to_string(),
            };
            Some(FleetError::Exhausted { attempts, last }.to_string())
        } else {
            shlog!(
                self,
                "complete id={id} board={global} attempts={attempts} ok riders={}",
                job.riders.len()
            );
            flight!(self, b, "complete_ok", id, attempts as u64);
            None
        };
        // The main request carries the job's traffic; its riders ride
        // for free and, when served, report the generation they rode.
        for (i, q) in std::iter::once(&job.main).chain(&job.riders).enumerate() {
            let kind = match error {
                None => OutcomeKind::Served {
                    resident: false,
                    coalesced: i > 0,
                },
                Some(_) => OutcomeKind::Failed,
            };
            let mut o = self.board_outcome(backend, b, q, kind, error.clone());
            if i == 0 {
                (o.attempts, o.bytes, o.port_ns) = (attempts, job.bytes, job.port_ns);
                o.started = job.started;
            } else if error.is_none() {
                o.generation = job.main.res.generation;
            }
            self.settle(m, o);
        }
        let mut riders = job.riders;
        if riders.capacity() > 0 {
            riders.clear();
            self.spare_riders.push(riders);
        }
        self.index_insert(b);
        self.drain(backend, m);
    }

    /// Dispatch queued work onto idle boards until one side runs out.
    fn drain(&mut self, backend: &B, m: &FleetMetrics) {
        while self.queued > 0 && !self.idle.is_empty() {
            if let Some((class, pos, b)) = self.find_resident_match() {
                let q = self.queues[class].remove(pos).expect("scanned position");
                self.queued -= 1;
                self.serve_resident(backend, m, b, q);
                continue;
            }
            let class = (0..3)
                .find(|&c| !self.queues[c].is_empty())
                .expect("queued > 0");
            let q = self.queues[class].pop_front().expect("non-empty class");
            self.queued -= 1;
            let Some(q) = self.ride(m, q) else {
                continue;
            };
            let b = self.pick_idle(q.req.region).expect("idle non-empty");
            self.start_job(backend, m, b, q);
        }
    }

    /// Bounded scan of the queue heads for a request whose exact
    /// variant sits verified on an idle board right now.
    fn find_resident_match(&self) -> Option<(usize, usize, u32)> {
        for class in 0..3 {
            for (pos, q) in self.queues[class].iter().take(RESIDENT_SCAN).enumerate() {
                if let Some(b) = self.idle_exact[q.key as usize].first() {
                    return Some((class, pos, b));
                }
            }
        }
        None
    }

    /// A dwell timer fired. If the board is still idle and its slot map
    /// has holes, take it out of service and start the next compaction
    /// move. Timers from superseded idle periods are simply stale: the
    /// board is busy (ignored here) and its next completion re-arms.
    fn on_defrag(&mut self, backend: &B, m: &FleetMetrics, b: u32) {
        if self.migrate_off || !self.idle.contains(b) {
            return;
        }
        let core = &self.boards[b as usize];
        debug_assert!(core.job.is_none() && core.migr.is_none());
        if core.defrag_dead {
            return;
        }
        let Some(mv) = core.slots.plan_move() else {
            return;
        };
        self.index_remove(b);
        self.migr_seq += 1;
        self.boards[b as usize].migr = Some(Migration {
            mv,
            attempts: 0,
            port_ns: 0,
            last_status: DownloadStatus::Verified,
            tid: (1u64 << 63) | ((self.id as u64) << 32) | self.migr_seq,
        });
        self.begin_migration(backend, m, b);
    }

    /// Issue one migration attempt on a board whose `migr` is armed.
    fn begin_migration(&mut self, backend: &B, m: &FleetMetrics, b: u32) {
        let global = self.global(b);
        let core = &mut self.boards[b as usize];
        let mg = core.migr.as_mut().expect("migration armed");
        let resident = core.resident[mg.mv.region as usize];
        let Some(r) = backend.migrate(&mut core.state, global, mg.mv.region, resident) else {
            // The backend cannot relocate resident content — stand down
            // for the rest of the run and return the board to service.
            core.migr = None;
            self.migrate_off = true;
            self.index_insert(b);
            self.drain(backend, m);
            return;
        };
        mg.attempts += 1;
        mg.port_ns += r.download_ns + r.verify_ns;
        let status_s = status_str(&r.status);
        mg.last_status = r.status;
        let (mv, attempts, bytes, mtid) = (mg.mv, mg.attempts, r.bytes, mg.tid);
        let due = self.now.after_ns(r.download_ns + r.verify_ns);
        self.peak_buf = self.peak_buf.max(r.peak_buffer_words);
        if self.tracer.enabled() {
            let mut span = TraceSpan::new(
                mtid,
                0,
                "migrate",
                self.now.ns(),
                r.download_ns + r.verify_ns,
            );
            span.board = global as i64;
            let f = &mut span.fields;
            f.push("region", FieldValue::U64(mv.region as u64));
            f.push("attempt", FieldValue::U64(attempts as u64));
            f.push("bytes", FieldValue::U64(bytes));
            f.push("status", FieldValue::Str(status_s));
            self.tracer.record(span);
        }
        flight!(
            self,
            b,
            "migrate_attempt",
            mv.region as u64,
            attempts as u64
        );
        shlog!(
            self,
            "migrate-attempt board={global} {mv} n={attempts} bytes={bytes}"
        );
        self.events.push(due, Ev::MigrateDone { board: b });
    }

    fn on_migrate_done(&mut self, backend: &B, m: &FleetMetrics, b: u32) {
        let global = self.global(b);
        let core = &mut self.boards[b as usize];
        let status = core
            .migr
            .as_ref()
            .expect("completion on a non-migrating board")
            .last_status
            .clone();
        match status {
            DownloadStatus::Verified => {
                let mg = core.migr.take().expect("checked above");
                core.slots.apply(mg.mv);
                core.busy_ns += mg.port_ns;
                let (mv, attempts, frag) = (mg.mv, mg.attempts, core.slots.fragmentation());
                self.migrations += 1;
                m.migrations.inc();
                shlog!(
                    self,
                    "migrate board={global} {mv} attempts={attempts} frag={frag}"
                );
                flight!(self, b, "migrate_ok", mv.region as u64, attempts as u64);
                // index_insert re-arms the dwell while frag > 0, so the
                // board keeps compacting across idle windows until the
                // occupied prefix is solid.
                self.index_insert(b);
                self.drain(backend, m);
            }
            DownloadStatus::PortFault(_) | DownloadStatus::VerifyMismatch => {
                self.migration_retries += 1;
                m.migration_retries.inc();
                let cap = self.cfg.defrag.as_ref().map_or(0, |d| d.max_attempts);
                if core.migr.as_ref().expect("checked above").attempts < cap {
                    self.begin_migration(backend, m, b);
                    return;
                }
                // Copy-then-free: a failed relocation never released the
                // source slot, so the board serves on — fragmented, but
                // correct. Stand down to guarantee run termination.
                let mg = core.migr.take().expect("checked above");
                core.busy_ns += mg.port_ns;
                core.defrag_dead = true;
                let (mv, attempts) = (mg.mv, mg.attempts);
                shlog!(
                    self,
                    "migrate-exhausted board={global} {mv} attempts={attempts}"
                );
                flight!(
                    self,
                    b,
                    "migrate_exhausted",
                    mv.region as u64,
                    attempts as u64
                );
                self.flight_dump(b, "defrag_dead", None);
                self.index_insert(b);
                self.drain(backend, m);
            }
        }
    }
}

/// The outcome of `req` concluding at `now` before any board, traffic
/// or store result is known — what a request that never reached a
/// board reports; [`Shard::board_outcome`], the job path and refusals
/// fill in the rest.
fn outcome(req: &SimRequest, kind: OutcomeKind, now: Vt, error: Option<String>) -> Outcome {
    Outcome {
        id: req.id,
        payload: req.payload,
        region: req.region,
        variant: req.variant,
        priority: req.priority,
        kind,
        board: None,
        attempts: 0,
        store_hit: false,
        bytes: 0,
        port_ns: 0,
        generation: 0,
        arrived: req.at,
        started: now,
        completed: now,
        outputs: Vec::new(),
        error,
    }
}

/// The region of the FullSwap resident-exact key: exactly one region
/// holds a variant and every other region holds base content.
fn fullswap_region(resident: &[Resident]) -> Option<usize> {
    let mut region = None;
    for (r, res) in resident.iter().enumerate() {
        match *res {
            Resident::Base => {}
            Resident::Variant(_) if region.is_none() => region = Some(r),
            _ => return None,
        }
    }
    region
}

/// `outcomes` in `(id, payload)` order, ties in their given order.
/// Outcomes are wide, so sorting them in place is bound on the element
/// moves: sort their keys with their indexes, then move each outcome
/// once, as [`Trace::merge`] does with spans.
fn sorted_by_id(outcomes: Vec<Outcome>) -> Vec<Outcome> {
    let mut keys: Vec<(u64, u32, u32)> = (outcomes.iter().zip(0..))
        .map(|(o, i)| (o.id, o.payload, i))
        .collect();
    keys.sort_unstable();
    let mut slots: Vec<Option<Outcome>> = outcomes.into_iter().map(Some).collect();
    keys.iter()
        .map(|k| slots[k.2 as usize].take().expect("each index once"))
        .collect()
}

/// Sequential inter-window rebalance: shards with queued work donate
/// requests to shards with spare idle boards. Runs at the window
/// barrier with every shard quiescent, so it is deterministic by
/// construction — wall-clock work stealing (workers pulling whole-shard
/// tasks) never touches virtual state.
fn rebalance<B: Backend>(shards: &mut [Shard<B>], end: Vt, m: &FleetMetrics) -> u64 {
    let mut moved = 0u64;
    loop {
        // Donor: deepest backlog among shards with *no* idle boards —
        // a shard holding both idle boards and queued work is merely
        // waiting on its own Kick and must not donate, or two such
        // shards would trade the same request forever. Lowest shard id
        // among ties.
        let mut donor: Option<(usize, usize)> = None; // (queued, idx)
        for (i, s) in shards.iter().enumerate() {
            if s.idle.is_empty() && s.queued > 0 && donor.is_none_or(|(q, _)| s.queued > q) {
                donor = Some((s.queued, i));
            }
        }
        let Some((_, di)) = donor else { break };
        // Receiver: lowest shard id with more idle boards than backlog.
        // A donor has no idle boards, so it can never receive: every
        // steal strictly consumes receiver capacity and the loop
        // terminates.
        let Some(ri) = shards.iter().position(|s| s.idle.len() > s.queued) else {
            break;
        };
        debug_assert_ne!(ri, di, "a donor shard cannot also be a receiver");
        // Steal from the back of the donor's lowest-priority class:
        // the least urgent work migrates.
        let (mut q, class, id) = {
            let d = &mut shards[di];
            let class = (0..3)
                .rev()
                .find(|&c| !d.queues[c].is_empty())
                .expect("queued > 0");
            let q = d.queues[class].pop_back().expect("non-empty class");
            d.queued -= 1;
            let id = q.req.id;
            if d.cfg.log_events {
                let seq = d.log.len() as u64;
                d.log
                    .push((end.ns(), seq, format!("steal id={id} to=s{ri}")));
            }
            (q, class, id)
        };
        {
            let r = &mut shards[ri];
            q.key = r.intern(q.req.region, q.req.variant);
            r.queues[class].push_back(q);
            r.queued += 1;
            r.queue_high = r.queue_high.max(r.queued);
            r.events.push(end, Ev::Kick);
            if r.cfg.log_events {
                let seq = r.log.len() as u64;
                r.log
                    .push((end.ns(), seq, format!("stolen id={id} from=s{di}")));
            }
        }
        m.stolen.inc();
        moved += 1;
    }
    moved
}

/// Run `trace` over `states`/`resident` with `backend`, returning every
/// outcome plus the final board states.
///
/// Results are a pure function of `(cfg.mode, cfg.max_attempts,
/// cfg.backoff, cfg.shards, cfg.window, admission knobs, trace, initial
/// state, backend)` — `cfg.workers` changes wall time only.
pub fn run<B: Backend>(
    backend: &B,
    metrics: &FleetMetrics,
    cfg: &SchedConfig,
    trace: Vec<SimRequest>,
    states: Vec<B::Board>,
    resident: Vec<Vec<Resident>>,
) -> RunOutput<B> {
    let nboards = states.len();
    assert!(nboards > 0, "a fleet needs at least one board");
    assert_eq!(nboards, resident.len(), "one residency vector per board");
    let nshards = cfg.shards.clamp(1, nboards);
    let workers = match cfg.workers {
        0 => jpg::available_threads(),
        w => w,
    }
    .clamp(1, nshards);
    let window_ns = (cfg.window.as_nanos() as u64).max(1);
    // Every board starts from the configured slot layout; with no
    // defrag policy the map is empty and the defragmenter never runs.
    let init_slots = || match &cfg.defrag {
        Some(d) => {
            let mut s = SlotMap::new(d.slots);
            for (r, &slot) in d.layout.iter().enumerate() {
                s.place(r as u32, slot);
            }
            s
        }
        None => SlotMap::new(0),
    };
    let frag_initial = init_slots().fragmentation() as u64 * nboards as u64;
    metrics.fragmentation.record_level(frag_initial as i64);

    let mut shards: Vec<Shard<B>> = (0..nshards)
        .map(|id| Shard {
            id,
            nshards,
            cfg: cfg.clone(),
            backoff_ns: cfg.backoff.as_nanos() as u64,
            boards: Vec::new(),
            events: EventQueue::new(),
            now: Vt::ZERO,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            queued: 0,
            queue_high: 0,
            key_ids: HashMap::new(),
            inflight: Vec::new(),
            idle: IdleSet::default(),
            idle_exact: Vec::new(),
            idle_base: Vec::new(),
            spare_riders: Vec::new(),
            outcomes: Vec::new(),
            migrations: 0,
            migration_retries: 0,
            migrate_off: false,
            log: Vec::new(),
            tracer: ShardTracer::new(id as u32, TRACE_RING_CAPACITY, cfg.trace),
            postmortems: Vec::new(),
            peak_buf: 0,
            migr_seq: 0,
        })
        .collect();
    for (g, (state, res)) in states.into_iter().zip(resident).enumerate() {
        let s = &mut shards[g % nshards];
        let keys = (res.iter().zip(0..))
            .map(|(r, region)| match *r {
                Resident::Variant(v) => s.intern(region, v),
                Resident::Base | Resident::Unknown => NO_BOARD,
            })
            .collect();
        let regions = s.idle_base.len().max(res.len());
        s.idle_base.resize_with(regions, IdleSet::default);
        s.boards.push(BoardCore {
            state,
            resident: res,
            keys,
            job: None,
            migr: None,
            slots: init_slots(),
            defrag_dead: false,
            busy_ns: 0,
            flight: VecDeque::new(),
        });
    }
    for s in &mut shards {
        for b in 0..s.boards.len() as u32 {
            s.index_insert(b);
        }
    }
    for (i, req) in trace.into_iter().enumerate() {
        let at = req.at;
        shards[i % nshards].events.push(at, Ev::Arrive(req));
    }

    let mut stolen = 0u64;
    loop {
        let next = shards.iter().filter_map(|s| s.events.peek_at()).min();
        let Some(next) = next else { break };
        let end = next.after_ns(window_ns);
        let is_busy = |s: &Shard<B>| s.events.peek_at().is_some_and(|at| at < end);
        let threads = window_threads(workers, shards.iter().filter(|s| is_busy(s)).count());
        let busy = shards.iter_mut().filter(|s| is_busy(s));
        if threads <= 1 {
            // The driver runs the window itself: no hand-off to build.
            busy.for_each(|s| s.run_until(backend, metrics, end));
        } else {
            jpg::par_map(busy, threads, |s| s.run_until(backend, metrics, end));
        }
        stolen += rebalance(&mut shards, end, metrics);
    }

    // Collect, mapping shard-local boards back to global indices.
    let mut outcomes = Vec::new();
    let mut states_out: Vec<Option<B::Board>> = (0..nboards).map(|_| None).collect();
    let mut resident_out = vec![Vec::new(); nboards];
    let mut slots_out = vec![SlotMap::new(0); nboards];
    let mut busy_ns = vec![0u64; nboards];
    let mut completed = Vt::ZERO;
    let mut log = Vec::new();
    let mut queue_high = 0usize;
    let mut migrations = 0u64;
    let mut migration_retries = 0u64;
    let mut span_parts = Vec::new();
    let mut pm = Vec::new();
    let mut peak_buffer_words = 0u64;
    for (sid, shard) in shards.into_iter().enumerate() {
        debug_assert!(shard.queued == 0, "drained scheduler left queued work");
        debug_assert!(
            shard.boards.iter().all(|b| b.job.is_none()),
            "drained scheduler left a job in flight"
        );
        debug_assert!(
            shard.boards.iter().all(|b| b.migr.is_none()),
            "drained scheduler left a migration in flight"
        );
        completed = completed.max(shard.now);
        queue_high = queue_high.max(shard.queue_high);
        migrations += shard.migrations;
        migration_retries += shard.migration_retries;
        metrics.record_shard(
            sid,
            shard.outcomes.len() as u64,
            shard.boards.iter().map(|b| b.busy_ns).sum::<u64>() / 1_000,
        );
        peak_buffer_words = peak_buffer_words.max(shard.peak_buf);
        span_parts.push(shard.tracer.into_spans());
        for (at, seq, text) in shard.postmortems {
            pm.push((at, sid, seq, text));
        }
        for (local, core) in shard.boards.into_iter().enumerate() {
            let g = sid + local * shard.nshards;
            states_out[g] = Some(core.state);
            resident_out[g] = core.resident;
            slots_out[g] = core.slots;
            busy_ns[g] = core.busy_ns;
        }
        for (at, seq, text) in shard.log {
            log.push((at, sid, seq, text));
        }
        outcomes.extend(shard.outcomes);
    }
    let frag_final: u64 = slots_out.iter().map(|s| s.fragmentation() as u64).sum();
    metrics.fragmentation.record_level(frag_final as i64);
    let outcomes = sorted_by_id(outcomes);
    log.sort_by_key(|a| (a.0, a.1, a.2));
    let event_log = log
        .into_iter()
        .map(|(at, sid, _, text)| format!("{at:>12} s{sid:02} {text}"))
        .collect();
    pm.sort_by_key(|p: &(u64, usize, u64, String)| (p.0, p.1, p.2));
    let postmortems = pm.into_iter().map(|(_, _, _, json)| json).collect();
    let trace_out = Trace::merge(span_parts);
    metrics.queue_depth.record_level(queue_high as i64);
    metrics.queue_depth.record_level(0);
    RunOutput {
        outcomes,
        states: states_out
            .into_iter()
            .map(|s| s.expect("every board returned"))
            .collect(),
        resident: resident_out,
        busy_ns,
        completed,
        stolen,
        migrations,
        migration_retries,
        frag_initial,
        frag_final,
        slots: slots_out,
        event_log,
        trace: trace_out,
        postmortems,
        peak_buffer_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, FleetSimSpec};

    fn small_spec() -> FleetSimSpec {
        FleetSimSpec {
            boards: 8,
            requests: 400,
            regions: 2,
            variants: 4,
            seed: 42,
            ..FleetSimSpec::default()
        }
    }

    #[test]
    fn small_windows_run_on_the_driver_and_large_ones_on_at_most_workers() {
        assert_eq!(window_threads(2, 1), 0);
        assert_eq!(window_threads(2, 4), 1);
        assert_eq!(window_threads(8, 5), 1);
        assert_eq!(window_threads(2, 6), 2);
        assert_eq!(window_threads(8, 12), 4);
        assert_eq!(window_threads(4, 64), 4);
        assert_eq!(window_threads(1, 64), 1);
    }

    #[test]
    fn every_request_gets_exactly_one_outcome() {
        let r = simulate(&small_spec());
        assert_eq!(r.outcomes.len(), 400);
        let mut ids: Vec<u64> = r.outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "no request lost or double-served");
        assert_eq!(r.served + r.failed + r.rejected + r.shed, 400);
        assert_eq!(r.failed + r.rejected + r.shed, 0, "clean run serves all");
    }

    #[test]
    fn coalescing_collapses_hot_key_downloads() {
        let mut spec = small_spec();
        spec.boards = 2;
        spec.variants = 1;
        spec.regions = 1; // one single key: everything coalesces
        spec.requests = 200;
        let r = simulate(&spec);
        assert_eq!(r.served, 200);
        assert!(
            r.downloads <= 4,
            "one key needs at most a download per board, got {}",
            r.downloads
        );
        assert!(r.coalesced + r.resident_hits >= 190);
        // Every coalesced rider observed the same store generation as
        // the download it rode.
        let gen0 = r.outcomes[0].generation;
        assert!(r.outcomes.iter().all(|o| o.generation == gen0));
    }

    #[test]
    fn admission_control_rejects_and_sheds_typed() {
        let mut spec = small_spec();
        spec.boards = 1;
        spec.shards = 1;
        spec.requests = 64;
        spec.queue_cap = 4;
        spec.shed_watermark = 2;
        spec.mean_gap_ns = 1; // slam the queue
        spec.coalesce = false; // force real queue pressure
        spec.zipf_s = 0.0;
        let r = simulate(&spec);
        assert_eq!(
            r.served + r.failed + r.rejected + r.shed,
            64,
            "admission decisions still produce outcomes"
        );
        assert!(r.rejected > 0, "cap 4 under slam must reject");
        assert!(
            r.outcomes
                .iter()
                .filter(|o| o.kind == OutcomeKind::Rejected)
                .all(|o| o.error.as_deref().is_some_and(|e| e.contains("queue full"))),
            "rejections carry a typed reason"
        );
        // Backpressure never drops an admitted request: everything not
        // rejected/shed at the door was served or failed with a reason.
        assert!(r.outcomes.iter().all(|o| o.served() || o.error.is_some()));
    }

    #[test]
    fn shed_hits_low_priority_only() {
        let mut spec = small_spec();
        spec.boards = 1;
        spec.shards = 1;
        spec.requests = 200;
        spec.queue_cap = usize::MAX;
        spec.shed_watermark = 2;
        spec.mean_gap_ns = 1;
        spec.coalesce = false;
        spec.zipf_s = 0.0;
        spec.low_fraction = 0.5;
        spec.high_fraction = 0.1;
        let r = simulate(&spec);
        assert!(r.shed > 0, "low traffic past the watermark must shed");
        assert!(r
            .outcomes
            .iter()
            .filter(|o| o.kind == OutcomeKind::Shed)
            .all(|o| o.priority == Priority::Low));
        assert_eq!(r.rejected, 0, "unbounded queue never rejects");
    }

    #[test]
    fn bad_requests_fail_with_typed_errors() {
        let spec = small_spec();
        let trace = vec![
            SimRequest {
                id: 0,
                at: Vt::ZERO,
                region: 99,
                variant: 0,
                priority: Priority::Normal,
                payload: 0,
            },
            SimRequest {
                id: 1,
                at: Vt::ZERO,
                region: 0,
                variant: 99,
                priority: Priority::Normal,
                payload: 1,
            },
        ];
        let r = crate::sim::simulate_trace(&spec, trace);
        assert_eq!(r.failed, 2);
        assert!(r.outcomes[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("region")));
        assert!(r.outcomes[1]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("variant")));
    }

    #[test]
    fn faults_retry_to_full_success_and_contiguous_attempts() {
        let mut spec = small_spec();
        spec.fault_rate = 0.3;
        let r = simulate(&spec);
        assert_eq!(r.served, 400, "every request eventually succeeds");
        assert!(r.retries > 0, "a 30% fault rate must force retries");
        // Attempts are contiguous in virtual time: a download job's
        // completion is exactly its start plus its port time.
        for o in r.outcomes.iter().filter(|o| o.bytes > 0) {
            assert_eq!(o.completed.ns(), o.started.ns() + o.port_ns);
        }
    }

    #[test]
    fn per_board_downloads_never_overlap_in_virtual_time() {
        let mut spec = small_spec();
        spec.fault_rate = 0.2;
        spec.boards = 4;
        let r = simulate(&spec);
        let mut per_board: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for o in r.outcomes.iter().filter(|o| o.bytes > 0) {
            per_board
                .entry(o.board.expect("download has a board"))
                .or_default()
                .push((o.started.ns(), o.completed.ns()));
        }
        for (board, mut spans) in per_board {
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "board {board} ran two downloads concurrently: {w:?}"
                );
            }
        }
    }

    #[test]
    fn work_stealing_migrates_backlog_to_idle_shards() {
        let mut spec = small_spec();
        spec.boards = 8;
        spec.shards = 4;
        spec.requests = 400;
        spec.zipf_s = 0.0;
        spec.coalesce = false; // pile real queue depth on unlucky shards
        spec.mean_gap_ns = 1;
        let r = simulate(&spec);
        assert_eq!(r.served, 400);
        assert!(r.stolen > 0, "slammed shards must donate work");
    }

    /// Per-board frag levels parsed from `migrate board=G … frag=F`
    /// event-log lines, in log order.
    fn frag_trail(log: &[String]) -> HashMap<String, Vec<u64>> {
        let mut trail: HashMap<String, Vec<u64>> = HashMap::new();
        for line in log {
            let Some(rest) = line.split(" migrate board=").nth(1) else {
                continue;
            };
            let board = rest.split_whitespace().next().unwrap().to_string();
            let frag = rest
                .split("frag=")
                .nth(1)
                .expect("migrate line carries frag")
                .trim()
                .parse::<u64>()
                .expect("frag level is numeric");
            trail.entry(board).or_default().push(frag);
        }
        trail
    }

    #[test]
    fn defrag_compacts_every_board_and_still_serves_everything() {
        let mut spec = small_spec();
        spec.defrag = true;
        spec.fault_rate = 0.1;
        spec.log_events = true;
        let r = simulate(&spec);
        assert_eq!(r.served, 400, "migration never costs a request");
        assert!(r.frag_initial > 0, "scattered layout starts fragmented");
        assert_eq!(r.frag_final, 0, "idle windows fully compact the fleet");
        assert!(r.migrations > 0 && r.migrations <= r.frag_initial);
        // Every applied move strictly decreases its board's frag level,
        // straight down to zero.
        let trail = frag_trail(&r.event_log);
        assert_eq!(trail.len(), spec.boards, "every board compacted");
        for (board, frags) in trail {
            for w in frags.windows(2) {
                assert!(w[1] < w[0], "board {board} frag went {w:?}");
            }
            assert_eq!(*frags.last().unwrap(), 0, "board {board} not compact");
        }
    }

    #[test]
    fn defrag_off_means_no_migration_traffic() {
        let r = simulate(&small_spec());
        assert_eq!(r.migrations, 0);
        assert_eq!(r.migration_retries, 0);
        assert_eq!(r.frag_initial, 0);
        assert_eq!(r.frag_final, 0);
    }

    #[test]
    fn defrag_faults_retry_and_are_counted() {
        let mut spec = small_spec();
        spec.defrag = true;
        spec.fault_rate = 0.4;
        let r = simulate(&spec);
        assert_eq!(r.served, 400);
        assert_eq!(r.frag_final, 0, "retries still converge at 40% faults");
        assert!(r.migration_retries > 0, "40% faults must hit migrations");
        assert_eq!(
            r.snapshot.counter_total("fleet_migrations_total").unwrap(),
            r.migrations
        );
    }

    #[test]
    fn full_swap_costs_more_traffic_than_partial() {
        let mut spec = small_spec();
        spec.zipf_s = 0.0;
        let p = simulate(&spec);
        spec.mode = ServeMode::FullSwap;
        let f = simulate(&spec);
        assert_eq!(p.served, 400);
        assert_eq!(f.served, 400);
        assert!(
            f.download_bytes > 2 * p.download_bytes,
            "full {} vs partial {}",
            f.download_bytes,
            p.download_bytes
        );
    }
}
