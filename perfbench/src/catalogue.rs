//! The paper's Figure-4 catalogue (3 regions × 3/3/4 variants) and the
//! base designs the workloads build it against.

use cadflow::gen;
use cadflow::netlist::Netlist;
use jpg::workflow::{build_base, BaseDesign, ModuleSpec};
use virtex::Device;
use xdl::Rect;

/// Region prefixes and their variant catalogues, in Figure-4 order.
pub fn fig4() -> Vec<(String, Vec<Netlist>)> {
    vec![
        (
            "region1/".to_string(),
            vec![
                gen::counter("up", 3),
                gen::down_counter("down", 3),
                gen::gray_counter("gray", 3),
            ],
        ),
        (
            "region2/".to_string(),
            vec![
                gen::parity("par8", 8),
                gen::string_matcher("match", &[true, false, true]),
                gen::lfsr("lfsr", 4),
            ],
        ),
        (
            "region3/".to_string(),
            vec![
                gen::counter("up4", 4),
                gen::accumulator("acc", 3),
                gen::lfsr("lfsr5", 5),
                gen::gray_counter("gray4", 4),
            ],
        ),
    ]
}

/// Full-height, 8-column regions at columns 1–8, 11–18 and 21–28 of
/// `device`.
pub fn regions(device: Device) -> [Rect; 3] {
    let rows = device.geometry().clb_rows as i32 - 1;
    [
        Rect::new(0, 1, rows, 8),
        Rect::new(0, 11, rows, 18),
        Rect::new(0, 21, rows, 28),
    ]
}

/// CAD seed of the base designs. The base is the deployment under test,
/// not an input: workload seeds draw the variant CAD seeds, request
/// streams and port faults.
pub const DEPLOYMENT_SEED: u64 = 11;

/// Phase 1: the base design with each region's first variant.
pub fn base(device: Device, catalogue: &[(String, Vec<Netlist>)]) -> BaseDesign {
    let modules: Vec<ModuleSpec> = catalogue
        .iter()
        .zip(regions(device))
        .map(|((prefix, variants), region)| ModuleSpec {
            prefix: prefix.clone(),
            netlist: variants[0].clone(),
            region,
        })
        .collect();
    build_base("fig4", device, &modules, DEPLOYMENT_SEED).expect("Figure-4 base design builds")
}
