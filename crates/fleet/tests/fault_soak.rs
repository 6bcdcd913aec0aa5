//! A model fleet soaked under injected port faults: every request is
//! eventually served and verified, and partial reconfiguration moves an
//! order of magnitude less configuration traffic than full swaps
//! (EXPERIMENTS.md E14).

use fleet::sim::{simulate, FleetSimSpec};
use fleet::{Resident, ServeMode};

fn spec(mode: ServeMode) -> FleetSimSpec {
    FleetSimSpec {
        boards: 1_000,
        requests: 50_000,
        regions: 8,
        variants: 16,
        fault_rate: 0.10,
        mode,
        seed: 0x5CA1E,
        ..FleetSimSpec::default()
    }
}

#[test]
fn every_request_is_served_and_verified_under_ten_percent_faults() {
    let spec = spec(ServeMode::Partial);
    let r = simulate(&spec);
    assert_eq!(r.served, spec.requests as u64);
    assert_eq!((r.failed, r.rejected, r.shed), (0, 0, 0));
    // Injected faults force retries, but none completes unverified and
    // no board region is left holding unknown state.
    assert!(r.retries > 0, "the faults were injected");
    let unverified = r
        .resident
        .iter()
        .flatten()
        .filter(|res| **res == Resident::Unknown)
        .count();
    assert_eq!(unverified, 0, "regions left unverified");
}

#[test]
fn partial_serving_moves_ten_times_fewer_bytes_than_full_swaps() {
    let partial = simulate(&spec(ServeMode::Partial));
    let full = simulate(&spec(ServeMode::FullSwap));
    assert_eq!(partial.served, full.served);
    assert!(
        full.download_bytes >= 10 * partial.download_bytes,
        "full {} B vs partial {} B",
        full.download_bytes,
        partial.download_bytes
    );
}
