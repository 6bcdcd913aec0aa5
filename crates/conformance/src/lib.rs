//! # conformance — the differential conformance harness
//!
//! Three independent checks over the whole bitstream pipeline, all
//! driven from reproducible integer seeds:
//!
//! * [`campaign`] — seeded random JBits write campaigns (LUT tables,
//!   BRAM content, raw configuration-plane pokes) over devices from
//!   XCV50 to XCV1000;
//! * [`harness`] — the core: every campaign's partial is played onto a
//!   device-side interpreter under honest and adversarial schedules and
//!   readback-compared against the in-memory oracle, and project cases
//!   cross-check the three `JpgProject` generators on one board oracle;
//! * [`fuzz`] — structured packet-level fuzzing of the interpreter:
//!   truncations, bad opcodes, CRC corruption, duplicate SYNC — every
//!   corruption must surface a typed [`bitstream::ConfigError`] with a
//!   byte offset, never a panic, never silent acceptance;
//! * [`mutation`] — the harness's own self-check: ten seeded generator
//!   bugs that the checks above must catch (the tests require at least
//!   nine of ten detected);
//! * [`reloc_trio`] — seeded relocation cases: every relocated partial
//!   must be byte-identical to a fresh-at-target generation, land the
//!   oracle's device state through the interpreter, and reject
//!   incompatible shifts with a typed [`reloc::RelocError`];
//! * [`wire_trio`] — seeded wire-container cases: every `JWC1` encoding
//!   must round-trip byte-identically, stream-apply to the same device
//!   state as the plain partial (delta sections included), and reject
//!   corrupted containers with a typed [`wire::WireError`] carrying an
//!   in-bounds offset;
//! * [`verify_trio`] — seeded verify-path cases: the tiered digest
//!   verify must match the raw readback compare output-for-output on
//!   clean boards, catch exactly the corruptions the raw compare
//!   catches (digest mismatches escalate, they never fail a request by
//!   themselves), and pull several times fewer readback bytes.
//!
//! Any failure reproduces from `Campaign::generate(seed)` — the seed is
//! printed in every [`harness::Failure`]. The tests run each check over
//! a fixed seed block through [`seed_block`].

pub mod campaign;
pub mod fuzz;
pub mod harness;
pub mod mutation;
pub mod reloc_trio;
pub mod verify_trio;
pub mod wire_trio;

pub use campaign::{Campaign, CampaignOp};
pub use fuzz::{fuzz_case, Corruption};
pub use harness::{run_case, run_project_case, CaseOutcome, Failure, Schedule};
pub use mutation::{self_check, SeededBug};
pub use reloc_trio::{reloc_case, RelocOutcome, RELOC_DEVICES};
pub use verify_trio::{verify_case, VerifyCaseOutcome};
pub use wire_trio::{wire_case, wire_content, WireContent, WireOutcome, WIRE_DEVICES};

/// Run `case` on every seed in `seeds` and return the passing seeds'
/// outcomes. Stops after five failures, then panics naming every
/// failing seed with its message.
pub fn seed_block<T, E: std::fmt::Display>(
    seeds: std::ops::Range<u64>,
    mut case: impl FnMut(u64) -> Result<T, E>,
) -> Vec<T> {
    let mut outcomes = Vec::new();
    let mut failures = Vec::new();
    for seed in seeds {
        match case(seed) {
            Ok(o) => outcomes.push(o),
            Err(e) => failures.push(format!("seed {seed}: {e}")),
        }
        if failures.len() == 5 {
            break;
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    outcomes
}
