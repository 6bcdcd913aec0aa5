//! Verify-path conformance: seeded fleet cases proving the tiered
//! digest verify is never weaker than the raw readback compare.
//!
//! Each seed serves one shuffled request mix on a real one-board XCV50
//! fleet three times — a fault-free [`VerifyPolicy::Full`] oracle, a
//! faulted `Full` reference, and the same faulted boards under a seeded
//! digest tier ([`VerifyPolicy::Digest`], [`VerifyPolicy::Sampled`] or
//! [`VerifyPolicy::Adaptive`]) — and asserts the safety contract:
//!
//! 1. **Digest ≡ raw on clean boards** — with no faults injected, the
//!    tiered run's outputs match the oracle's byte for byte, nothing
//!    fails verification, and the digest tier pulls several times fewer
//!    readback bytes across the port than the raw compare.
//! 2. **Corruption never slips through** — the fault injector draws one
//!    fate per download regardless of verify policy, so the faulted
//!    `Full` and tiered runs see identical corruption. The tiered run
//!    must catch *exactly* as many corrupt downloads as the raw compare
//!    (`verify_failures` equal — zero false-accepts) and its final
//!    outputs must still match the clean oracle.
//! 3. **Escalation accounting** — a digest mismatch never fails a
//!    request by itself: it escalates to the authoritative raw compare.
//!    Under `Digest`/`Sampled` every caught corruption is an
//!    escalation; under `Adaptive` (which goes raw on retries)
//!    escalations never exceed failures.
//!
//! Any failure reproduces from `verify_case(seed)` — the seed is in
//! every error string.

use cadflow::gen;
use cadflow::netlist::Netlist;
use fleet::{Fleet, FleetConfig, Request, ServingLibrary, VerifyPolicy};
use jpg::workflow::{build_base, ModuleSpec};
use std::sync::{Arc, OnceLock};
use virtex::Device;
use xdl::Rect;

/// What one seeded verify case measured (all three runs green).
#[derive(Debug, Clone)]
pub struct VerifyCaseOutcome {
    /// The digest tier the case exercised ("digest", "sampled",
    /// "adaptive").
    pub policy: &'static str,
    /// Per-download fault probability injected on both faulted runs.
    pub fault_rate: f64,
    /// Corrupt downloads caught — identical between the faulted `Full`
    /// reference and the tiered run by construction.
    pub corrupts_caught: u64,
    /// Digest mismatches escalated to the raw compare in the tiered
    /// run.
    pub escalations: u64,
    /// Readback bytes pulled by the fault-free `Full` oracle.
    pub full_readback_bytes: u64,
    /// Readback bytes pulled by the tiered run.
    pub tiered_readback_bytes: u64,
}

/// The shared two-region XCV50 serving library all seeded cases run
/// against. Built (and warmed) once per process — the library is
/// read-only after warming, so fleets in every case share it.
fn case_library() -> Arc<ServingLibrary> {
    static LIB: OnceLock<Arc<ServingLibrary>> = OnceLock::new();
    LIB.get_or_init(|| {
        let catalogues: Vec<(String, Vec<Netlist>)> = vec![
            (
                "left/".into(),
                vec![
                    gen::counter("up", 3),
                    gen::down_counter("down", 3),
                    gen::gray_counter("gray", 3),
                ],
            ),
            (
                "right/".into(),
                vec![
                    gen::parity("par4", 4),
                    gen::lfsr("lfsr", 4),
                    gen::counter("up4", 4),
                ],
            ),
        ];
        let rects = [Rect::new(0, 1, 15, 8), Rect::new(0, 11, 15, 18)];
        let modules: Vec<ModuleSpec> = catalogues
            .iter()
            .zip(rects)
            .map(|((prefix, variants), region)| ModuleSpec {
                prefix: prefix.clone(),
                netlist: variants[0].clone(),
                region,
            })
            .collect();
        let base =
            build_base("verify_case", Device::XCV50, &modules, 23).expect("verify base design");
        let lib = Arc::new(ServingLibrary::build(&base, &catalogues, 77).expect("verify library"));
        lib.warm().expect("warm verify library");
        lib
    })
    .clone()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct RunStats {
    outputs: Vec<Vec<(String, bool)>>,
    failed: u64,
    readback_bytes: u64,
    verify_failures: u64,
    verify_digest: u64,
    verify_sampled: u64,
    verify_escalations: u64,
}

/// Run one seeded verify-path case. `Ok` carries the measurements,
/// `Err` a human-readable failure naming the seed.
pub fn verify_case(seed: u64) -> Result<VerifyCaseOutcome, String> {
    let lib = case_library();
    let (policy, policy_name): (VerifyPolicy, &'static str) = match seed % 3 {
        0 => (VerifyPolicy::Digest, "digest"),
        1 => (
            VerifyPolicy::Sampled {
                k: 1 + (seed / 7 % 3) as u32,
            },
            "sampled",
        ),
        _ => (VerifyPolicy::Adaptive, "adaptive"),
    };
    let fault_rate = [0.0, 0.2, 0.35][((seed / 3) % 3) as usize];

    // A shuffled first-touch + revisit mix across both regions, so the
    // fleet exercises incremental loads, wholesale swaps and resident
    // hits under every policy.
    let mut st = seed ^ 0xA5A5_5A5A_0F0F_F0F0;
    let regions = lib.regions().len();
    let requests: Vec<Request> = (0..16u64)
        .map(|id| {
            let r = (splitmix(&mut st) as usize) % regions;
            let v = (splitmix(&mut st) as usize) % lib.regions()[r].variants.len();
            Request::new(id, r, v, 1 + splitmix(&mut st) % 4)
        })
        .collect();

    // One board: with a single port the service order is independent
    // of verify durations, so the k-th download draws the same fault
    // fate under every policy — the property the detection-parity
    // check below rests on. (More boards would let verify timing shift
    // the schedule and desynchronize the draws.)
    let run = |verify: VerifyPolicy, faulted: bool| -> RunStats {
        let mut f = Fleet::new(
            lib.clone(),
            1,
            FleetConfig {
                verify,
                ..FleetConfig::default()
            },
        )
        .expect("fleet");
        if faulted && fault_rate > 0.0 {
            f.inject_faults(fault_rate, seed ^ 0xD1CE);
        }
        let report = f.run(requests.clone());
        let m = f.metrics();
        RunStats {
            outputs: report.responses.iter().map(|r| r.outputs.clone()).collect(),
            failed: report.failed,
            readback_bytes: m.readback_bytes.get(),
            verify_failures: m.verify_failures.get(),
            verify_digest: m.verify_digest.get(),
            verify_sampled: m.verify_sampled.get(),
            verify_escalations: m.verify_escalations.get(),
        }
    };

    let oracle = run(VerifyPolicy::Full, false);
    let full = run(VerifyPolicy::Full, true);
    let tiered = run(policy, true);

    for (name, r) in [("oracle", &oracle), ("full", &full), ("tiered", &tiered)] {
        if r.failed != 0 {
            return Err(format!(
                "seed {seed} ({policy_name}, fault {fault_rate}): {} run failed {} requests",
                name, r.failed
            ));
        }
    }
    // Zero false-accepts: whatever the corruption did, the fabric the
    // responses were read from must end up in the oracle's state.
    for (name, r) in [("full", &full), ("tiered", &tiered)] {
        if r.outputs != oracle.outputs {
            return Err(format!(
                "seed {seed} ({policy_name}, fault {fault_rate}): {} run outputs \
                 diverge from the fault-free oracle — a corrupt download was accepted",
                name
            ));
        }
    }
    // Detection parity: the fault injector draws one fate per download,
    // so the tiered run must catch exactly what the raw compare caught.
    if tiered.verify_failures != full.verify_failures {
        return Err(format!(
            "seed {seed} ({policy_name}, fault {fault_rate}): tiered verify caught {} \
             corrupt downloads, raw compare caught {}",
            tiered.verify_failures, full.verify_failures
        ));
    }
    // Sampled verifications count under their own flavor, so "the
    // digest tier engaged" means either counter moved.
    if tiered.verify_digest + tiered.verify_sampled == 0 {
        return Err(format!(
            "seed {seed} ({policy_name}, fault {fault_rate}): digest tier never engaged"
        ));
    }
    if policy_name == "sampled" && tiered.verify_sampled == 0 {
        return Err(format!(
            "seed {seed} (sampled, fault {fault_rate}): sampled spot-checks never ran"
        ));
    }
    let escalation_ok = match policy {
        // Digest/Sampled verify every attempt on digests, so every
        // caught corruption is an escalation.
        VerifyPolicy::Digest | VerifyPolicy::Sampled { .. } => {
            tiered.verify_escalations == tiered.verify_failures
        }
        // Adaptive retries go straight to raw: escalations can only
        // come from first attempts.
        _ => tiered.verify_escalations <= tiered.verify_failures,
    };
    if !escalation_ok {
        return Err(format!(
            "seed {seed} ({policy_name}, fault {fault_rate}): escalation accounting is off \
             ({} escalations for {} failures)",
            tiered.verify_escalations, tiered.verify_failures
        ));
    }
    if fault_rate == 0.0 {
        if tiered.verify_failures != 0 || tiered.verify_escalations != 0 {
            return Err(format!(
                "seed {seed} ({policy_name}): verify failures/escalations on clean boards"
            ));
        }
        // The economic point: digests shrink the verify reply several
        // times over even on the small XCV50 frames.
        if tiered.readback_bytes * 4 > full.readback_bytes {
            return Err(format!(
                "seed {seed} ({policy_name}): digest tier pulled {} readback bytes vs {} \
                 raw — less than the required 4x reduction",
                tiered.readback_bytes, full.readback_bytes
            ));
        }
    }
    Ok(VerifyCaseOutcome {
        policy: policy_name,
        fault_rate,
        corrupts_caught: tiered.verify_failures,
        escalations: tiered.verify_escalations,
        full_readback_bytes: full.readback_bytes,
        tiered_readback_bytes: tiered.readback_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nine consecutive seeds cover the full policy × fault-rate grid
    /// (3 tiers × {0, 0.2, 0.35}); across them corruption must both
    /// occur and be caught, and the clean cases must show the byte
    /// reduction.
    #[test]
    fn seeded_cases_cover_the_policy_and_fault_grid() {
        let outcomes: Vec<VerifyCaseOutcome> = (0..9)
            .map(|seed| verify_case(seed).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        let policies: std::collections::BTreeSet<&str> =
            outcomes.iter().map(|o| o.policy).collect();
        assert_eq!(policies.len(), 3, "all three digest tiers exercised");
        assert!(
            outcomes.iter().any(|o| o.fault_rate == 0.0),
            "grid includes clean cases"
        );
        let caught: u64 = outcomes.iter().map(|o| o.corrupts_caught).sum();
        let escalated: u64 = outcomes.iter().map(|o| o.escalations).sum();
        assert!(caught > 0, "faulted cases must see corruption");
        assert!(escalated > 0, "digest tiers must escalate to raw");
        for o in outcomes.iter().filter(|o| o.fault_rate == 0.0) {
            assert!(o.tiered_readback_bytes * 4 <= o.full_readback_bytes);
        }
    }
}
