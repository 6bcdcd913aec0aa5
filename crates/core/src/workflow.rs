//! The two-phase methodology around the JPG tool (paper §3.1–3.2).
//!
//! **Phase 1** builds the base design: the device is partitioned into
//! floorplanned regions (one per reconfigurable module), each module is
//! implemented *inside its own columns*, the results are merged and a
//! complete bitstream is generated.
//!
//! **Phase 2** re-implements a single module "as a new project": same
//! region constraints, *guided* placement (pads return to the base
//! design's sites so the interface stays put), and the outputs are
//! exactly what JPG consumes — the module's XDL and UCF text.

use bitstream::BitFile;
use cadflow::netlist::Netlist;
use cadflow::{implement, FlowError, FlowOptions, FlowReport};
use jbits::Jbits;
use std::fmt;
use virtex::{ConfigMemory, Device};
use xdl::{Constraints, Design, Rect};

/// One reconfigurable module of the base design.
#[derive(Debug, Clone)]
pub struct ModuleSpec {
    /// Hierarchical prefix, e.g. `"mod1/"`. Must be unique.
    pub prefix: String,
    /// The module's logic.
    pub netlist: Netlist,
    /// Full-height floorplan region (the columns the module owns).
    pub region: Rect,
}

/// One region of a multi-region scenario: its floorplan rectangle and
/// the interchangeable modules that can occupy it.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Hierarchical prefix of the region's module, e.g. `"region1/"`.
    pub prefix: String,
    /// Floorplan region (the columns every variant owns).
    pub region: Rect,
    /// Interchangeable module implementations; the first one goes into
    /// the base design.
    pub variants: Vec<Netlist>,
}

impl RegionSpec {
    /// The region holding its `variant`-th implementation.
    pub fn module(&self, variant: usize) -> ModuleSpec {
        ModuleSpec {
            prefix: self.prefix.clone(),
            netlist: self.variants[variant].clone(),
            region: self.region,
        }
    }

    /// The region's variants as a [`build_library_pipelined`] catalogue.
    pub fn catalogue(&self) -> RegionCatalogue<'_> {
        RegionCatalogue {
            prefix: &self.prefix,
            variants: &self.variants,
        }
    }
}

/// The Phase-1 modules of a scenario: every region with its first
/// variant.
pub fn base_modules(regions: &[RegionSpec]) -> Vec<ModuleSpec> {
    regions.iter().map(|r| r.module(0)).collect()
}

/// Device of the paper's Figure-4 scenario.
pub const FIG4_DEVICE: Device = Device::XCV100;

/// The paper's Figure-4 partitioning: three 8-column regions (CLB
/// columns 1–8, 11–18 and 21–28, rows 0–19: full height on the
/// [`FIG4_DEVICE`]) with 3, 3 and 4 interchangeable modules — 36
/// complete bitstreams under the conventional flow, 1 complete + 10
/// partials with JPG.
pub fn fig4() -> Vec<RegionSpec> {
    use cadflow::gen;
    let region = |prefix: &str, col0: i32, variants: Vec<Netlist>| RegionSpec {
        prefix: prefix.into(),
        region: Rect::new(0, col0, 19, col0 + 7),
        variants,
    };
    vec![
        region(
            "region1/",
            1,
            vec![
                gen::counter("up", 3),
                gen::down_counter("down", 3),
                gen::gray_counter("gray", 3),
            ],
        ),
        region(
            "region2/",
            11,
            vec![
                gen::parity("par8", 8),
                gen::string_matcher("match", &[true, false, true]),
                gen::lfsr("lfsr", 4),
            ],
        ),
        region(
            "region3/",
            21,
            vec![
                gen::counter("up4", 4),
                gen::accumulator("acc", 3),
                gen::lfsr("lfsr5", 5),
                gen::gray_counter("gray4", 4),
            ],
        ),
    ]
}

/// Phase-1 output: the implemented base design and its artifacts.
#[derive(Debug, Clone)]
pub struct BaseDesign {
    /// Merged, placed and routed design database.
    pub design: Design,
    /// The floorplan constraints (what the UCF file holds).
    pub constraints: Constraints,
    /// Complete configuration image.
    pub memory: ConfigMemory,
    /// Complete bitstream (`.bit` of the base design).
    pub bitstream: BitFile,
    /// Per-module flow reports, in `ModuleSpec` order.
    pub reports: Vec<FlowReport>,
    /// Module prefixes in Phase-1 order — a module's position also picks
    /// its global clock tree, so Phase-2 variants must reuse it.
    pub module_prefixes: Vec<String>,
}

/// Phase-2 output: one re-implemented module, as JPG sees it.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// XDL text of the module (the `.xdl` file).
    pub xdl: String,
    /// UCF text of the module (the `.ucf` file).
    pub ucf: String,
    /// The design database behind the XDL.
    pub design: Design,
    /// Flow report for the module implementation.
    pub report: FlowReport,
}

/// Workflow failure.
#[derive(Debug)]
pub enum WorkflowError {
    /// A module flow failed.
    Flow {
        /// Module prefix.
        module: String,
        /// Underlying error.
        error: FlowError,
    },
    /// Module translation onto the bitstream failed.
    Translate(crate::translate::TranslateError),
    /// Regions overlap in columns (JPG partials are column-granular).
    OverlappingRegions {
        /// The two offending prefixes.
        modules: (String, String),
    },
    /// The JPG tool rejected a variant while building a library.
    Jpg {
        /// Module prefix.
        module: String,
        /// The tool's error.
        error: crate::JpgError,
    },
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Flow { module, error } => {
                write!(f, "module {module:?}: {error}")
            }
            WorkflowError::Translate(e) => write!(f, "translation failed: {e}"),
            WorkflowError::OverlappingRegions { modules } => write!(
                f,
                "regions of {:?} and {:?} share columns",
                modules.0, modules.1
            ),
            WorkflowError::Jpg { module, error } => {
                write!(f, "module {module:?}: {error}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkflowError::Flow { error, .. } => Some(error),
            WorkflowError::Translate(e) => Some(e),
            WorkflowError::Jpg { error, .. } => Some(error),
            WorkflowError::OverlappingRegions { .. } => None,
        }
    }
}

impl From<crate::translate::TranslateError> for WorkflowError {
    fn from(e: crate::translate::TranslateError) -> Self {
        WorkflowError::Translate(e)
    }
}

/// The UCF constraint set for a floorplanned module.
pub fn module_constraints(prefix: &str, region: Rect) -> Constraints {
    let group = format!("AG_{}", prefix.trim_end_matches('/'));
    let text = format!(
        "INST \"{prefix}*\" AREA_GROUP = \"{group}\" ;\nAREA_GROUP \"{group}\" RANGE = {} ;\n",
        region.to_range_string()
    );
    Constraints::parse(&text).expect("generated UCF parses")
}

/// Implement one module: `cadflow::implement`, with the flow's CAD work
/// (annealing moves, router expansions and heap pushes) added to the
/// metric registry.
fn implement_module(
    netlist: &Netlist,
    device: Device,
    cons: &Constraints,
    prefix: &str,
    guide: Option<&Design>,
    opts: &FlowOptions,
) -> Result<(Design, FlowReport), WorkflowError> {
    let (design, report) =
        implement(netlist, device, cons, prefix, guide, opts).map_err(|error| {
            WorkflowError::Flow {
                module: prefix.to_string(),
                error,
            }
        })?;
    obs::counter!("cadflow_place_moves_total").add(report.place.moves);
    obs::counter!("cadflow_route_expansions_total").add(report.route.expansions);
    obs::counter!("cadflow_route_heap_pushes_total").add(report.route.heap_pushes);
    Ok((design, report))
}

fn flow_options(seed: u64, region: Rect, clock_index: u8) -> FlowOptions {
    let mut opts = FlowOptions::default();
    opts.place.seed = seed;
    opts.route.seed = seed;
    opts.route.region_cols = Some((region.col0, region.col1));
    opts.route.clock_index = Some(clock_index % virtex::routing::GLOBAL_CLOCKS as u8);
    opts
}

/// Phase 1: implement every module in its region and assemble the base
/// design plus its complete bitstream.
pub fn build_base(
    name: &str,
    device: Device,
    modules: &[ModuleSpec],
    seed: u64,
) -> Result<BaseDesign, WorkflowError> {
    // Column-disjointness check.
    for (i, a) in modules.iter().enumerate() {
        for b in &modules[i + 1..] {
            if a.region.col0 <= b.region.col1 && b.region.col0 <= a.region.col1 {
                return Err(WorkflowError::OverlappingRegions {
                    modules: (a.prefix.clone(), b.prefix.clone()),
                });
            }
        }
    }

    let mut constraints = Constraints::default();
    let mut designs = Vec::new();
    let mut reports = Vec::new();
    for (mi, m) in modules.iter().enumerate() {
        let cons = module_constraints(&m.prefix, m.region);
        constraints.merge(&cons);
        let (d, report) = implement_module(
            &m.netlist,
            device,
            &cons,
            &m.prefix,
            None,
            &flow_options(seed, m.region, mi as u8),
        )?;
        designs.push(d);
        reports.push(report);
    }
    let refs: Vec<&Design> = designs.iter().collect();
    let design = cadflow::merge_designs(name, device, &refs);

    let mut jb = Jbits::new(device);
    crate::translate::apply_design(&mut jb, &design)?;
    let memory = jb.into_memory();
    let bits = bitstream::full_bitstream(&memory);
    let bitstream = BitFile::new(name, device, false, bits);

    Ok(BaseDesign {
        design,
        constraints,
        memory,
        bitstream,
        reports,
        module_prefixes: modules.iter().map(|m| m.prefix.clone()).collect(),
    })
}

/// Phase 2: re-implement one module against the base design. `prefix`
/// selects the region (it must match one used in Phase 1); placement is
/// guided by the base design so the module interface (its pads) stays on
/// the same sites.
pub fn implement_variant(
    base: &BaseDesign,
    prefix: &str,
    netlist: &Netlist,
    seed: u64,
) -> Result<VariantResult, WorkflowError> {
    let region = base
        .constraints
        .region_for(&format!("{prefix}x"))
        .expect("prefix has a region in the base constraints");
    let cons = module_constraints(prefix, region);
    let clock_index = base
        .module_prefixes
        .iter()
        .position(|p| p == prefix)
        .expect("prefix was part of the Phase-1 base design") as u8;
    let (design, report) = implement_module(
        netlist,
        base.design.device,
        &cons,
        prefix,
        Some(&base.design),
        &flow_options(seed, region, clock_index),
    )?;
    Ok(VariantResult {
        xdl: xdl::print(&design),
        ucf: cons.print(),
        design,
        report,
    })
}

/// Phase 2 at scale: implement a whole catalogue of variants for one
/// region and generate their partial bitstreams — the library the
/// paper's GUI lets the designer pick from ("an opportunity to create
/// multiple partial bitstreams that are selected through a GUI interface
/// and downloaded into the device").
///
/// Variants are independent, so they run in parallel ([`crate::par_map`]).
pub fn build_variant_library(
    base: &BaseDesign,
    prefix: &str,
    variants: &[Netlist],
    seed: u64,
) -> Result<Vec<(String, crate::project::PartialResult)>, WorkflowError> {
    let cat = [RegionCatalogue { prefix, variants }];
    Ok(strip_prefixes(build_library_pipelined(
        base, &cat, seed, false,
    )?))
}

/// [`build_variant_library`], incremental flavour: one [`FrameCache`]
/// (primed with the base image's content) is shared across all variant
/// workers, and each entry is generated with
/// [`crate::project::JpgProject::generate_partial_incremental`] — only
/// frames whose content differs from the base are emitted, found through
/// the translation's dirty-frame byproduct plus a base-content compare
/// instead of a full-memory diff per variant.
///
/// Library entries built this way apply correctly when the module region
/// holds **base content**; to swap one variant directly for another, use
/// the wholesale [`build_variant_library`].
///
/// [`FrameCache`]: crate::cache::FrameCache
pub fn build_variant_library_incremental(
    base: &BaseDesign,
    prefix: &str,
    variants: &[Netlist],
    seed: u64,
) -> Result<Vec<(String, crate::project::PartialResult)>, WorkflowError> {
    let cat = [RegionCatalogue { prefix, variants }];
    Ok(strip_prefixes(build_library_pipelined(
        base, &cat, seed, true,
    )?))
}

fn strip_prefixes(
    entries: Vec<(String, String, crate::project::PartialResult)>,
) -> Vec<(String, crate::project::PartialResult)> {
    entries
        .into_iter()
        .map(|(_, name, partial)| (name, partial))
        .collect()
}

/// One region's variant catalogue for [`build_library_pipelined`].
#[derive(Debug, Clone, Copy)]
pub struct RegionCatalogue<'a> {
    /// Module prefix (must match a Phase-1 region).
    pub prefix: &'a str,
    /// The variants to implement for that region.
    pub variants: &'a [Netlist],
}

/// Build variant libraries for *several* regions as one flattened
/// parallel job set — cross-variant pipeline parallelism. Every
/// `(region, variant)` pair becomes an independent work item, so a
/// worker can be translating one region's variant while another
/// diffs/generates a different region's: the stage mix overlaps across
/// the whole catalogue instead of fanning out one region at a time with
/// a barrier between regions.
///
/// With `incremental`, one shared [`FrameCache`] is primed over every
/// catalogue region up front and all workers decide emission sets
/// against it (see [`build_variant_library_incremental`] for the
/// applicability caveat). Entries come back as
/// `(prefix, variant name, partial)` in catalogue order; per-variant
/// seeds match the single-region builders, so outputs are byte-identical
/// to building each region separately.
///
/// [`FrameCache`]: crate::cache::FrameCache
pub fn build_library_pipelined(
    base: &BaseDesign,
    catalogues: &[RegionCatalogue<'_>],
    seed: u64,
    incremental: bool,
) -> Result<Vec<(String, String, crate::project::PartialResult)>, WorkflowError> {
    let project = crate::project::JpgProject::from_memory("library", base.memory.clone());
    // A variant's dirty frames all lie in its module's region columns or
    // the IOB edge columns (the pad frames of its ports), so only those
    // need base content — any other frame would miss and be emitted,
    // which never happens here and would be harmless if it did.
    let cache = incremental.then(|| {
        let cache = crate::cache::FrameCache::new();
        for cat in catalogues {
            cache.prime_frames(
                &base.memory,
                region_frames(&base.memory, region_of(base, cat.prefix)),
            );
        }
        cache
    });
    // One constraint build per region, shared by its jobs — per-variant
    // reparsing would tax the single-worker degenerate case for nothing.
    let region_cons: Vec<Constraints> = catalogues
        .iter()
        .map(|cat| module_constraints(cat.prefix, region_of(base, cat.prefix)))
        .collect();
    let jobs: Vec<(&str, &Constraints, usize, &Netlist)> = catalogues
        .iter()
        .zip(&region_cons)
        .flat_map(|(cat, cons)| {
            cat.variants
                .iter()
                .enumerate()
                .map(move |(i, nl)| (cat.prefix, cons, i, nl))
        })
        .collect();
    crate::par_map(jobs, crate::available_threads(), |(prefix, cons, i, nl)| {
        let v = implement_variant(base, prefix, nl, seed ^ ((i as u64) << 8))?;
        let partial = match &cache {
            Some(cache) => project.generate_partial_incremental(&v.design, cons, cache),
            None => project.generate_partial_from(&v.design, cons),
        }
        .map_err(|error| WorkflowError::Jpg {
            module: prefix.to_string(),
            error,
        })?;
        Ok((prefix.to_string(), nl.name.clone(), partial))
    })
    .into_iter()
    .collect()
}

fn region_of(base: &BaseDesign, prefix: &str) -> Rect {
    base.constraints
        .region_for(&format!("{prefix}x"))
        .expect("prefix has a region")
}

/// Frame ranges of `region`'s CLB columns plus the two IOB edge columns
/// — every frame a partial for a module floorplanned in `region` can
/// write (mirrors the column set `stamp_module` derives). One range per
/// configuration column, in `region` column order then edge columns.
/// Public plumbing for region-scoped consumers (the `fleet` service's
/// store and readback verifier).
pub fn region_frame_ranges(mem: &ConfigMemory, region: Rect) -> Vec<bitstream::FrameRange> {
    use bitstream::FrameRange;
    use virtex::BlockType;
    let geom = mem.geometry();
    let iob_right_major = mem.device().geometry().clb_cols as u8 + 1;
    region
        .cols()
        .filter_map(|c| geom.major_for_clb_col(c))
        .chain([iob_right_major, iob_right_major + 1])
        .filter_map(|major| FrameRange::for_column(geom, BlockType::Clb, major))
        .collect()
}

/// Linear frame indices behind [`region_frame_ranges`].
fn region_frames(mem: &ConfigMemory, region: Rect) -> Vec<usize> {
    region_frame_ranges(mem, region)
        .into_iter()
        .flat_map(|r| r.frames())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadflow::gen;

    fn region(c0: i32, c1: i32) -> Rect {
        Rect::new(0, c0, 15, c1) // full height of an XCV50
    }

    fn two_module_base() -> BaseDesign {
        let modules = vec![
            ModuleSpec {
                prefix: "mod1/".into(),
                netlist: gen::counter("up", 3),
                region: region(1, 8),
            },
            ModuleSpec {
                prefix: "mod2/".into(),
                netlist: gen::parity("par", 6),
                region: region(12, 19),
            },
        ];
        build_base("base", Device::XCV50, &modules, 42).unwrap()
    }

    #[test]
    fn base_design_is_complete_and_loadable() {
        let base = two_module_base();
        assert!(base.design.fully_placed());
        assert!(base.design.fully_routed());
        cadflow::verify_routing(&base.design).unwrap();
        // The bitstream loads back into the same image.
        let mut dev = bitstream::Interpreter::new(Device::XCV50);
        dev.feed(&base.bitstream.bitstream).unwrap();
        assert_eq!(dev.memory(), &base.memory);
    }

    #[test]
    fn module_bits_stay_in_their_columns() {
        let base = two_module_base();
        // Every occupied slice of mod1 is in columns 1..=8, and mod2 in
        // 12..=19.
        for (inst, s) in base.design.occupied_slices() {
            if inst.name.starts_with("mod1/") {
                assert!((1..=8).contains(&s.tile.col), "{}", inst.name);
            } else {
                assert!((12..=19).contains(&s.tile.col), "{}", inst.name);
            }
        }
        // Routed pips too.
        for net in &base.design.nets {
            let range = if net.name.starts_with("mod1/") {
                1..=8
            } else {
                12..=19
            };
            for pip in &net.pips {
                assert!(
                    range.contains(&pip.loc.col),
                    "net {} pip {} outside region",
                    net.name,
                    pip
                );
            }
        }
    }

    #[test]
    fn variant_library_builds_in_parallel() {
        let base = two_module_base();
        let variants = vec![
            gen::counter("up", 3),
            gen::down_counter("down", 3),
            gen::gray_counter("gray", 3),
        ];
        let lib = build_variant_library(&base, "mod1/", &variants, 7).unwrap();
        assert_eq!(lib.len(), 3);
        let full = base.bitstream.bitstream.byte_len();
        for (name, partial) in &lib {
            assert!(!name.is_empty());
            assert!(partial.bitstream.byte_len() < full / 2);
            // Every library entry applies cleanly on the base.
            let mut dev = bitstream::Interpreter::new(Device::XCV50);
            dev.feed(&base.bitstream.bitstream).unwrap();
            dev.feed(&partial.bitstream).unwrap();
            assert_eq!(dev.memory(), &partial.memory, "library entry {name}");
        }
    }

    #[test]
    fn pipelined_library_matches_per_region_builds() {
        let base = two_module_base();
        let mod1 = vec![gen::counter("up", 3), gen::gray_counter("gray", 3)];
        let mod2 = vec![gen::parity("par", 6), gen::parity("par2", 4)];
        let cats = [
            RegionCatalogue {
                prefix: "mod1/",
                variants: &mod1,
            },
            RegionCatalogue {
                prefix: "mod2/",
                variants: &mod2,
            },
        ];
        for incremental in [false, true] {
            let pipelined = build_library_pipelined(&base, &cats, 7, incremental).unwrap();
            assert_eq!(pipelined.len(), 4);
            let build_one = |prefix: &str, variants: &[Netlist]| {
                if incremental {
                    build_variant_library_incremental(&base, prefix, variants, 7).unwrap()
                } else {
                    build_variant_library(&base, prefix, variants, 7).unwrap()
                }
            };
            let mut expected = Vec::new();
            expected.extend(
                build_one("mod1/", &mod1)
                    .into_iter()
                    .map(|(n, p)| ("mod1/", n, p)),
            );
            expected.extend(
                build_one("mod2/", &mod2)
                    .into_iter()
                    .map(|(n, p)| ("mod2/", n, p)),
            );
            for ((gp, gn, got), (ep, en, want)) in pipelined.iter().zip(&expected) {
                assert_eq!((gp.as_str(), gn.as_str()), (*ep, en.as_str()));
                assert_eq!(
                    got.bitstream.to_bytes(),
                    want.bitstream.to_bytes(),
                    "{gp}{gn} diverged (incremental={incremental})"
                );
            }
        }
    }

    /// Partials only compose onto one base if the Figure-4 regions
    /// occupy disjoint column ranges (Virtex reconfigures whole columns)
    /// that fit the device.
    #[test]
    fn fig4_regions_are_column_disjoint_and_on_device() {
        let regions = fig4();
        let geom = FIG4_DEVICE.geometry();
        for pair in regions.windows(2) {
            assert!(
                pair[0].region.col1 < pair[1].region.col0,
                "regions share a column"
            );
        }
        for r in &regions {
            assert!(r.region.col0 >= 0 && r.region.col1 < geom.clb_cols as i32);
            assert_eq!(r.region.row1, geom.clb_rows as i32 - 1, "full height");
        }
    }

    #[test]
    fn overlapping_regions_rejected() {
        let modules = vec![
            ModuleSpec {
                prefix: "a/".into(),
                netlist: gen::counter("up", 2),
                region: region(0, 8),
            },
            ModuleSpec {
                prefix: "b/".into(),
                netlist: gen::counter("up", 2),
                region: region(8, 15),
            },
        ];
        let err = build_base("x", Device::XCV50, &modules, 1).unwrap_err();
        assert!(matches!(err, WorkflowError::OverlappingRegions { .. }));
    }

    #[test]
    fn variant_keeps_pads_on_base_sites() {
        let base = two_module_base();
        let variant = implement_variant(&base, "mod1/", &gen::down_counter("down", 3), 7).unwrap();
        // Interface instances (ports) share names with the base and must
        // sit on identical sites.
        for (inst, io) in variant.design.occupied_iobs() {
            let base_inst = base
                .design
                .instance(&inst.name)
                .expect("interface instance exists in base");
            assert_eq!(
                base_inst.placement,
                xdl::Placement::Iob(io),
                "pad {} moved",
                inst.name
            );
        }
        // And the XDL/UCF text round-trips.
        let reparsed = xdl::parse(&variant.xdl).unwrap();
        assert_eq!(reparsed, variant.design);
        assert!(Constraints::parse(&variant.ucf).is_ok());
    }

    #[test]
    fn each_flow_adds_its_cad_work_to_the_registry() {
        let total = |name| obs::global().snapshot().counter_total(name).unwrap_or(0);
        let names = [
            "cadflow_place_moves_total",
            "cadflow_route_expansions_total",
            "cadflow_route_heap_pushes_total",
        ];
        let before = names.map(total);
        let base = two_module_base();
        let variant = implement_variant(&base, "mod1/", &gen::down_counter("down", 3), 7).unwrap();
        let after = names.map(total);
        // Other tests in this binary may run flows concurrently, so the
        // counters grow by at least this thread's work.
        let work = |f: fn(&FlowReport) -> u64| {
            base.reports
                .iter()
                .chain([&variant.report])
                .map(f)
                .sum::<u64>()
        };
        let own = [
            work(|r| r.place.moves),
            work(|r| r.route.expansions),
            work(|r| r.route.heap_pushes),
        ];
        for ((name, (b, a)), w) in names.iter().zip(before.iter().zip(after)).zip(own) {
            assert!(w > 0, "{name}: no work recorded in the flow reports");
            assert!(a - b >= w, "{name}: grew by {} < {w}", a - b);
        }
    }

    #[test]
    fn errors_keep_their_typed_cause_as_source() {
        use crate::translate::TranslateError;
        use std::error::Error;

        // No small flow reaches a JPG rejection inside the library
        // build, so the error is built as that build builds it.
        let err = WorkflowError::Jpg {
            module: "mod1/".into(),
            error: crate::JpgError::EmptyModule,
        };
        assert_eq!(
            err.to_string(),
            "module \"mod1/\": module has no placed logic"
        );
        assert!(matches!(
            err,
            WorkflowError::Jpg {
                error: crate::JpgError::EmptyModule,
                ..
            }
        ));
        let cause = err.source().expect("a JPG rejection has a cause");
        assert!(matches!(
            cause.downcast_ref::<crate::JpgError>(),
            Some(crate::JpgError::EmptyModule)
        ));

        let unplaced = TranslateError::Unplaced {
            instance: "mod1/q".into(),
        };
        let err = WorkflowError::from(unplaced.clone());
        let cause = err.source().expect("a translate failure has a cause");
        assert_eq!(cause.downcast_ref::<TranslateError>(), Some(&unplaced));
        assert!(cause.source().is_none());

        let err = WorkflowError::Flow {
            module: "mod1/".into(),
            error: FlowError::MappingMismatch { output: "q".into() },
        };
        let cause = err.source().expect("a flow failure has a cause");
        assert!(matches!(
            cause.downcast_ref::<FlowError>(),
            Some(FlowError::MappingMismatch { output }) if output == "q"
        ));

        let err = WorkflowError::OverlappingRegions {
            modules: ("mod1/".into(), "mod2/".into()),
        };
        assert!(err.source().is_none());
    }
}
