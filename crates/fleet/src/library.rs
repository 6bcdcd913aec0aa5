//! The serving library: regions, variant catalogues, and lazy
//! generation of their bitstreams through the [`PartialStore`].
//!
//! Building a library runs the expensive CAD step once per variant
//! (guided re-implementation against the base design, paper Phase 2);
//! bitstream *emission* is deferred to first request, so a fleet that
//! never serves a variant never pays for its generation — and one that
//! serves it a million times pays exactly once.

use crate::store::{PartialKey, PartialStore, StoredPartial};
use crate::FleetError;
use bitstream::{full_bitstream, Bitstream, FrameRange};
use cadflow::netlist::Netlist;
use jpg::workflow::{implement_variant, module_constraints, BaseDesign};
use jpg::{FrameCache, JpgProject};
use std::sync::{Arc, RwLock};
use virtex::{BlockType, ConfigMemory, Device, IobCoord};
use xdl::{Constraints, Design, Placement, Rect};

/// One implemented variant, ready for lazy bitstream generation.
#[derive(Debug)]
pub struct VariantSlot {
    /// Variant name (the netlist's name).
    pub name: String,
    design: Design,
    constraints: Constraints,
}

/// One reconfigurable region and its catalogue of variants.
#[derive(Debug)]
pub struct RegionCatalog {
    /// Module prefix in the base design, e.g. `"region1/"`.
    pub prefix: String,
    /// Floorplan rectangle of the region.
    pub rect: Rect,
    /// Frame ranges of the region's CLB columns — the readback-compare
    /// scope. All module logic and its top/bottom edge pads configure
    /// within these frames.
    pub verify_ranges: Vec<FrameRange>,
    /// The module's pads (on base-design sites, where every variant
    /// keeps them), for driving inputs and sampling outputs.
    pub pads: Vec<(String, IobCoord)>,
    /// The variant catalogue.
    pub variants: Vec<VariantSlot>,
}

impl RegionCatalog {
    /// Site of the pad called `name`, if the region has one.
    pub fn pad(&self, name: &str) -> Option<IobCoord> {
        self.pads.iter().find(|(n, _)| n == name).map(|&(_, io)| io)
    }

    /// Total frames in the verify scope.
    pub fn verify_frames(&self) -> usize {
        self.verify_ranges.iter().map(|r| r.len).sum()
    }
}

/// Epoch-scoped base-design state (swapped wholesale on rebase).
#[derive(Debug)]
struct BaseState {
    project: JpgProject,
    cache: FrameCache,
    base_bitstream: Bitstream,
}

impl BaseState {
    fn new(name: &str, memory: ConfigMemory, regions: &[RegionCatalog]) -> BaseState {
        let cache = FrameCache::new();
        for r in regions {
            cache.prime_frames(
                &memory,
                jpg::region_frame_ranges(&memory, r.rect)
                    .into_iter()
                    .flat_map(|fr| fr.frames()),
            );
        }
        let base_bitstream = full_bitstream(&memory);
        BaseState {
            project: JpgProject::from_memory(name, memory),
            cache,
            base_bitstream,
        }
    }
}

/// The library: regions + store + the current base epoch's state.
#[derive(Debug)]
pub struct ServingLibrary {
    device: Device,
    regions: Vec<RegionCatalog>,
    state: RwLock<BaseState>,
    store: PartialStore,
}

impl ServingLibrary {
    /// Build a library from a base design and per-region variant
    /// catalogues (`(module prefix, variants)`). Every variant is
    /// re-implemented against the base (guided placement keeps its pads
    /// on base sites); bitstream generation is deferred to first use.
    pub fn build(
        base: &BaseDesign,
        catalogues: &[(String, Vec<Netlist>)],
        seed: u64,
    ) -> Result<ServingLibrary, FleetError> {
        let device = base.memory.device();
        let geom = base.memory.geometry();
        let mut regions = Vec::new();
        for (prefix, variants) in catalogues {
            let rect = base
                .constraints
                .region_for(&format!("{prefix}x"))
                .ok_or_else(|| {
                    FleetError::BadRequest(format!("no floorplan region for prefix {prefix:?}"))
                })?;
            let verify_ranges: Vec<FrameRange> = rect
                .cols()
                .filter_map(|c| geom.major_for_clb_col(c))
                .filter_map(|major| FrameRange::for_column(geom, BlockType::Clb, major))
                .collect();
            let pads: Vec<(String, IobCoord)> = base
                .design
                .instances
                .iter()
                .filter(|i| i.name.starts_with(prefix.as_str()))
                .filter_map(|i| match i.placement {
                    Placement::Iob(io) => Some((i.name.clone(), io)),
                    _ => None,
                })
                .collect();
            let mut slots = Vec::new();
            for (vi, nl) in variants.iter().enumerate() {
                let v = implement_variant(base, prefix, nl, seed ^ ((vi as u64) << 8))
                    .map_err(|e| FleetError::Workflow(format!("variant {}: {e}", nl.name)))?;
                slots.push(VariantSlot {
                    name: nl.name.clone(),
                    design: v.design,
                    constraints: module_constraints(prefix, rect),
                });
            }
            regions.push(RegionCatalog {
                prefix: prefix.clone(),
                rect,
                verify_ranges,
                pads,
                variants: slots,
            });
        }
        let state = BaseState::new("fleet-base", base.memory.clone(), &regions);
        Ok(ServingLibrary {
            device,
            regions,
            state: RwLock::new(state),
            store: PartialStore::new(),
        })
    }

    /// The library's device.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The region catalogues.
    pub fn regions(&self) -> &[RegionCatalog] {
        &self.regions
    }

    /// The current base epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The store (for inspection).
    pub fn store(&self) -> &PartialStore {
        &self.store
    }

    /// The base design's complete bitstream (board initialization).
    pub fn base_bitstream(&self) -> Bitstream {
        self.state
            .read()
            .expect("library lock")
            .base_bitstream
            .clone()
    }

    /// Swap in a new base image (the static design changed) and bump the
    /// epoch: every stored bitstream is invalidated and regenerates
    /// against the new base on next use. Returns the new epoch.
    ///
    /// The regions' floorplan must be unchanged — variants are not
    /// re-implemented, only re-stamped.
    pub fn rebase(&self, memory: ConfigMemory) -> u64 {
        let mut state = self.state.write().expect("library lock");
        *state = BaseState::new("fleet-base", memory, &self.regions);
        self.store.bump_epoch()
    }

    /// Pre-generate every `(region, variant)` bitstream for the current
    /// epoch, fanning the CAD work across worker threads — a fleet warmed
    /// this way serves its first requests with store hits only, instead
    /// of paying generation latency on the critical path. Returns the
    /// number of entries actually generated (already-stored ones are
    /// skipped by the store's once-per-epoch discipline).
    pub fn warm(&self) -> Result<usize, FleetError> {
        let jobs: Vec<(usize, usize)> = self
            .regions
            .iter()
            .enumerate()
            .flat_map(|(r, cat)| (0..cat.variants.len()).map(move |v| (r, v)))
            .collect();
        let generated: Vec<usize> =
            jpg::par_map(jobs, jpg::available_threads(), |(region, variant)| {
                let (result, hit) = self.resolve(region, variant);
                result.map(|_| usize::from(!hit))
            })
            .into_iter()
            .collect::<Result<_, FleetError>>()?;
        Ok(generated.iter().sum())
    }

    /// Resolve `(region, variant)` to its stored bitstreams, generating
    /// them exactly once per base epoch. The `bool` reports a store hit.
    pub fn resolve(
        &self,
        region: usize,
        variant: usize,
    ) -> (Result<Arc<StoredPartial>, FleetError>, bool) {
        let Some(cat) = self.regions.get(region) else {
            return (
                Err(FleetError::BadRequest(format!(
                    "region {region} out of range"
                ))),
                false,
            );
        };
        let Some(slot) = cat.variants.get(variant) else {
            return (
                Err(FleetError::BadRequest(format!(
                    "variant {variant} out of range for region {region}"
                ))),
                false,
            );
        };
        // Hold the base-state read lock across the epoch read *and* the
        // generation so a concurrent rebase cannot tear them apart.
        let state = self.state.read().expect("library lock");
        let key = PartialKey {
            device: self.device,
            region,
            variant,
            // The serving library stamps at the region's floorplanned
            // home; relocated origins are stitched downstream by the
            // reloc engine and stored under their own origin.
            origin: 0,
            epoch: self.store.epoch(),
        };
        let (result, hit) = self.store.get_or_generate(key, || {
            let wholesale = state
                .project
                .generate_partial_from(&slot.design, &slot.constraints)
                .map_err(|e| e.to_string())?;
            let incremental = state
                .project
                .generate_partial_incremental(&slot.design, &slot.constraints, &state.cache)
                .map_err(|e| e.to_string())?;
            let expected: Vec<u32> = cat
                .verify_ranges
                .iter()
                .flat_map(|r| r.frames())
                .flat_map(|f| wholesale.memory.frame(f).iter().copied())
                .collect();
            // Digest the verify reference once at store time: the
            // digest verify path compares device-side digests against
            // these without any frame words crossing the port.
            let expected_digests =
                virtex::RegionDigests::from_words(&expected, wholesale.memory.frame_words());
            // Encode the wire containers once, alongside the plain
            // artifacts: the incremental delta-codes against the base
            // epoch's frames (the same contract the plain incremental
            // already carries), the wholesale stays base-free so it can
            // apply over any resident variant.
            let wire_wholesale = wire::encode(self.device, &wholesale.bitstream, None);
            let wire_incremental = wire::encode(
                self.device,
                &incremental.bitstream,
                Some(state.project.base_memory() as &dyn wire::FrameSource),
            );
            // A clean raw verify reply is `expected` itself: code it
            // once here, not on every resolve.
            let wire_reply_bytes = wire::encode_reply(&expected).bytes.len();
            Ok(StoredPartial {
                key,
                full: full_bitstream(&wholesale.memory),
                expected,
                expected_digests,
                frames_wholesale: wholesale.frames,
                frames_incremental: incremental.frames,
                wholesale: wholesale.bitstream,
                incremental: incremental.bitstream,
                wire_wholesale,
                wire_incremental,
                wire_reply_bytes,
            })
        });
        (
            result.map_err(|msg| {
                FleetError::Generate(format!(
                    "{}{} (region {region}): {msg}",
                    cat.prefix, slot.name
                ))
            }),
            hit,
        )
    }
}
