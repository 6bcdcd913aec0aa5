//! The conventional full-bitstream flow: the paper's Figure-4 baseline.
//!
//! "In a conventional CAD flow, which can only produce complete
//! bitstreams, 36 runs of the CAD tool flow would be needed to produce
//! the 36 different bitstreams … With the use of partial reconfiguration,
//! a total of 10 (3+3+4) partial bitstreams would be needed."
//!
//! [`full_flow_all_combinations`] runs the whole CAD flow once per module
//! combination and generates a complete bitstream each time, reporting
//! total tool time and total bitstream bytes — the numbers the JPG
//! approach beats.

use jbits::Jbits;
use jpg::workflow::{module_constraints, ModuleSpec, RegionSpec};
use std::time::{Duration, Instant};
use virtex::Device;

/// Aggregate results of the conventional approach.
#[derive(Debug, Clone)]
pub struct FullFlowStats {
    /// Number of complete bitstreams generated (the product of variant
    /// counts).
    pub bitstreams: usize,
    /// Total bytes across all complete bitstreams.
    pub total_bytes: usize,
    /// Sum of CAD-flow wall-clock time across combinations.
    pub total_flow_time: Duration,
    /// Per-combination variant indices, in generation order.
    pub combinations: Vec<Vec<usize>>,
    /// Byte size of one complete bitstream (they are all equal).
    pub bytes_each: usize,
}

/// Enumerate the cartesian product of variant indices.
pub fn combinations(counts: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![vec![]];
    for &n in counts {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                (0..n).map(move |i| {
                    let mut v = prefix.clone();
                    v.push(i);
                    v
                })
            })
            .collect();
    }
    out
}

/// Run the conventional flow for every combination of region variants.
/// Combinations run in parallel ([`jpg::par_map`]); the reported flow
/// time is the *sum* of per-combination times, i.e. the total tool work
/// the paper counts.
pub fn full_flow_all_combinations(
    device: Device,
    regions: &[RegionSpec],
    seed: u64,
) -> Result<FullFlowStats, String> {
    let counts: Vec<usize> = regions.iter().map(|r| r.variants.len()).collect();
    let combos = combinations(&counts);

    let results: Result<Vec<(Duration, usize)>, String> =
        jpg::par_map(&combos, jpg::available_threads(), |combo| {
            let t0 = Instant::now();
            // Build the module list for this combination and run the
            // whole-design flow (each module still floorplanned, as the
            // incremental-design remark in the paper allows).
            let modules: Vec<ModuleSpec> = regions
                .iter()
                .zip(combo)
                .map(|(r, &vi)| r.module(vi))
                .collect();
            let mut designs = Vec::new();
            for m in &modules {
                let cons = module_constraints(&m.prefix, m.region);
                let mut opts = cadflow::FlowOptions::default();
                opts.place.seed = seed ^ combo.iter().fold(0, |a, &b| a * 31 + b as u64);
                opts.route.region_cols = Some((m.region.col0, m.region.col1));
                let (d, _) = cadflow::implement(&m.netlist, device, &cons, &m.prefix, None, &opts)
                    .map_err(|e| format!("combination {combo:?}: {e}"))?;
                designs.push(d);
            }
            let refs: Vec<&xdl::Design> = designs.iter().collect();
            let merged = cadflow::merge_designs("combo", device, &refs);
            let mut jb = Jbits::new(device);
            jpg::apply_design(&mut jb, &merged)
                .map_err(|e| format!("combination {combo:?}: {e}"))?;
            let bits = jb.full_bitstream();
            Ok((t0.elapsed(), bits.byte_len()))
        })
        .into_iter()
        .collect();
    let results = results?;

    let total_flow_time = results.iter().map(|(t, _)| *t).sum();
    let total_bytes = results.iter().map(|(_, b)| *b).sum();
    let bytes_each = results.first().map(|(_, b)| *b).unwrap_or(0);
    Ok(FullFlowStats {
        bitstreams: results.len(),
        total_bytes,
        total_flow_time,
        combinations: combos,
        bytes_each,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadflow::gen;
    use xdl::Rect;

    #[test]
    fn combination_enumeration() {
        assert_eq!(combinations(&[2, 3]).len(), 6);
        assert_eq!(combinations(&[3, 3, 4]).len(), 36);
        assert_eq!(combinations(&[]), vec![Vec::<usize>::new()]);
        let c = combinations(&[2, 2]);
        assert_eq!(c[0], vec![0, 0]);
        assert_eq!(c[3], vec![1, 1]);
    }

    #[test]
    fn small_scenario_produces_all_bitstreams() {
        let regions = vec![
            RegionSpec {
                prefix: "r1/".into(),
                region: Rect::new(0, 0, 15, 7),
                variants: vec![gen::counter("up", 2), gen::down_counter("down", 2)],
            },
            RegionSpec {
                prefix: "r2/".into(),
                region: Rect::new(0, 12, 15, 19),
                variants: vec![gen::parity("p", 4), gen::lfsr("l", 3)],
            },
        ];
        let stats = full_flow_all_combinations(Device::XCV50, &regions, 3).unwrap();
        assert_eq!(stats.bitstreams, 4);
        assert_eq!(stats.total_bytes, 4 * stats.bytes_each);
        assert!(stats.bytes_each > 0);
        assert!(stats.total_flow_time > Duration::ZERO);
    }
}
