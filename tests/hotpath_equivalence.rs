//! End-to-end agreement of the conformance trio (generator /
//! interpreter / differ) across seeds, with partials emitted by the
//! single `bitgen::partial_bitstream` path.

#[test]
fn conformance_trio_still_agrees_after_the_overhaul() {
    // The full generator/interpreter/differ cross-check campaign on a
    // handful of seeds: any packet-framing or CRC regression the unit
    // equivalences miss surfaces here as a trio disagreement.
    for seed in [3u64, 17, 40_004] {
        conformance::harness::run_project_case(seed)
            .unwrap_or_else(|f| panic!("conformance case {seed} failed: {f:?}"));
    }
}
