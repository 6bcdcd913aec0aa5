//! [`JpgProject`]: the tool itself (paper §3.3).
//!
//! Usage mirrors the paper: open (or create) a project, initialize it
//! from the base design's **complete bitstream**, pass in the module's
//! **.xdl and .ucf files**, preview the target floorplan area, then
//! either take the partial bitstream, write it onto the base design, or
//! download it to a board through XHWIF.

use crate::floorplan::render_floorplan;
use crate::translate::{apply_design, TranslateError, TranslateStats};
use bitstream::{bitgen, BitFile, Bitstream, ConfigError, FrameRange, Interpreter};
use jbits::{Jbits, Xhwif};
use std::fmt;
use virtex::{BlockType, ConfigMemory, Device};
use xdl::{Constraints, Design, ParseError, Placement, Rect, UcfError};

/// JPG tool failure.
#[derive(Debug)]
pub enum JpgError {
    /// Base bitstream did not load.
    Config(ConfigError),
    /// Module XDL did not parse.
    Xdl(ParseError),
    /// Module UCF did not parse.
    Ucf(UcfError),
    /// XDL → JBits translation failed.
    Translate(TranslateError),
    /// Module targets a different device than the base design.
    DeviceMismatch {
        /// Module device.
        module: Device,
        /// Base device.
        base: Device,
    },
    /// The module contains no placed logic.
    EmptyModule,
    /// The module failed design-rule checks.
    Drc(Vec<xdl::Violation>),
    /// The board's live configuration does not match the project's base
    /// design (verify-before-overwrite failed).
    BaseMismatch {
        /// Number of differing frames.
        frames: usize,
    },
}

impl fmt::Display for JpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JpgError::Config(e) => write!(f, "base bitstream rejected: {e}"),
            JpgError::Xdl(e) => write!(f, "{e}"),
            JpgError::Ucf(e) => write!(f, "{e}"),
            JpgError::Translate(e) => write!(f, "{e}"),
            JpgError::DeviceMismatch { module, base } => {
                write!(f, "module targets {module}, base design is {base}")
            }
            JpgError::EmptyModule => write!(f, "module has no placed logic"),
            JpgError::Drc(v) => {
                write!(
                    f,
                    "module fails {} design-rule check(s); first: {}",
                    v.len(),
                    v[0]
                )
            }
            JpgError::BaseMismatch { frames } => write!(
                f,
                "board configuration differs from the base design in {frames} frame(s)"
            ),
        }
    }
}

impl std::error::Error for JpgError {}

impl From<ConfigError> for JpgError {
    fn from(e: ConfigError) -> Self {
        JpgError::Config(e)
    }
}
impl From<ParseError> for JpgError {
    fn from(e: ParseError) -> Self {
        JpgError::Xdl(e)
    }
}
impl From<UcfError> for JpgError {
    fn from(e: UcfError) -> Self {
        JpgError::Ucf(e)
    }
}
impl From<TranslateError> for JpgError {
    fn from(e: TranslateError) -> Self {
        JpgError::Translate(e)
    }
}

/// The outcome of one partial-bitstream generation.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// The partial bitstream.
    pub bitstream: Bitstream,
    /// The same, wrapped as a `.bit` file with the partial flag set.
    pub bitfile: BitFile,
    /// CLB columns covered.
    pub clb_columns: Vec<usize>,
    /// Frames written.
    pub frames: usize,
    /// JBits call counts.
    pub stats: TranslateStats,
    /// The configuration image with the module applied (base elsewhere).
    pub memory: ConfigMemory,
    /// ASCII preview of the target area (the Figure-3 GUI view).
    pub floorplan: String,
    /// Bounding region of the module (for reports).
    pub region: Rect,
}

/// A JPG project: a base design plus the machinery to stamp partial
/// bitstreams against it.
#[derive(Debug, Clone)]
pub struct JpgProject {
    name: String,
    base: ConfigMemory,
}

impl JpgProject {
    /// Open a project from the base design's `.bit` file — "the complete
    /// bitstream file from the base design is used to initialize the
    /// environment".
    pub fn open(bitfile: BitFile) -> Result<JpgProject, JpgError> {
        let mut dev = Interpreter::new(bitfile.device);
        dev.feed(&bitfile.bitstream)?;
        Ok(JpgProject {
            name: bitfile.design,
            base: dev.into_memory(),
        })
    }

    /// Open from a raw complete bitstream.
    pub fn open_bitstream(
        name: &str,
        device: Device,
        bits: &Bitstream,
    ) -> Result<JpgProject, JpgError> {
        let mut dev = Interpreter::new(device);
        dev.feed(bits)?;
        Ok(JpgProject {
            name: name.to_string(),
            base: dev.into_memory(),
        })
    }

    /// Open directly from a configuration image.
    pub fn from_memory(name: &str, base: ConfigMemory) -> JpgProject {
        JpgProject {
            name: name.to_string(),
            base,
        }
    }

    /// Project name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Target device.
    pub fn device(&self) -> Device {
        self.base.device()
    }

    /// The base design's configuration image.
    pub fn base_memory(&self) -> &ConfigMemory {
        &self.base
    }

    /// Generate a partial bitstream for a module from its XDL and UCF
    /// text (paper option one: "obtain the partial bitstream of the new
    /// design, without downloading \[it\] onto the base-design").
    pub fn generate_partial(
        &self,
        xdl_text: &str,
        ucf_text: &str,
    ) -> Result<PartialResult, JpgError> {
        let (design, constraints) = {
            let _g = obs::span!("parse");
            (xdl::parse(xdl_text)?, Constraints::parse(ucf_text)?)
        };
        self.generate_partial_from(&design, &constraints)
    }

    /// Generate a partial bitstream from an in-memory design database
    /// (what `generate_partial` does after parsing).
    ///
    /// The partial covers the module's configuration columns wholesale,
    /// so it is safe to apply whatever the region currently holds (the
    /// base module or any earlier variant).
    pub fn generate_partial_from(
        &self,
        design: &Design,
        constraints: &Constraints,
    ) -> Result<PartialResult, JpgError> {
        let stamped = self.stamp_module(design, constraints)?;
        // The target columns wholesale, coalesced into maximal runs.
        let _g = obs::span!("generate");
        let frames: Vec<usize> = stamped.ranges.iter().flat_map(|r| r.frames()).collect();
        let runs = bitgen::coalesce_frames(frames);
        let bits = bitgen::partial_bitstream(&stamped.memory, &runs);
        let total_frames: usize = runs.iter().map(|r| r.len).sum();
        drop(_g);
        Ok(self.finish_partial(design, constraints, stamped, bits, total_frames))
    }

    /// Generate an **incremental** partial bitstream: only frames whose
    /// content actually differs from the base design are emitted, decided
    /// by the session's dirty-frame byproduct plus `cache` (primed with
    /// the base image's content hashes — see [`crate::cache::FrameCache`]).
    ///
    /// The result is smaller than [`Self::generate_partial_from`]'s, but
    /// it only restores the module region correctly when the region
    /// currently holds **base content** (first configuration after the
    /// complete bitstream, or after a scrub). To swap one variant for
    /// another directly, use the wholesale generator.
    pub fn generate_partial_incremental(
        &self,
        design: &Design,
        constraints: &Constraints,
        cache: &crate::cache::FrameCache,
    ) -> Result<PartialResult, JpgError> {
        let stamped = self.stamp_module(design, constraints)?;
        let memory = &stamped.memory;
        // A frame needs emitting only if (a) the stamp touched it — the
        // dirty byproduct, no full-memory scan — and (b) its content no
        // longer hash-matches the base.
        let diff_span = obs::span!("diff");
        let frames = cache.filter_changed(
            memory,
            stamped
                .ranges
                .iter()
                .flat_map(|r| r.frames())
                .filter(|&f| memory.is_frame_dirty(f)),
        );
        drop(diff_span);

        // Cross-check against the ground-truth content diff in debug
        // builds: the cheap dirty+hash decision must agree with a real
        // frame-by-frame comparison over the module's columns.
        #[cfg(debug_assertions)]
        {
            let ground: Vec<usize> = stamped
                .ranges
                .iter()
                .flat_map(|r| r.frames())
                .filter(|&f| memory.frame(f) != self.base.frame(f))
                .collect();
            debug_assert_eq!(
                frames, ground,
                "dirty+hash emission set diverged from the content diff"
            );
        }

        // Bridge single-frame gaps: re-emitting one unchanged frame is
        // cheaper than a fresh packet run plus its pipeline pad frame.
        let _g = obs::span!("generate");
        let runs = bitgen::coalesce_frames_bridged(frames, 1);
        let bits = bitgen::partial_bitstream(memory, &runs);
        let total_frames: usize = runs.iter().map(|r| r.len).sum();
        drop(_g);
        Ok(self.finish_partial(design, constraints, stamped, bits, total_frames))
    }

    /// Shared front half of partial generation: validate the module,
    /// derive its configuration columns, erase them in a copy of the base
    /// and stamp the new module in with JBits calls. The returned image
    /// carries the touched-frame set as dirty marks (erase and stamp
    /// both count).
    fn stamp_module(
        &self,
        design: &Design,
        constraints: &Constraints,
    ) -> Result<StampedModule, JpgError> {
        let _g = obs::span!("translate");
        if design.device != self.device() {
            return Err(JpgError::DeviceMismatch {
                module: design.device,
                base: self.device(),
            });
        }
        let violations = xdl::drc_check(design);
        if !violations.is_empty() {
            return Err(JpgError::Drc(violations));
        }

        // Target columns: the UCF floorplan region(s) of the module's
        // instances, plus everything the implementation actually touches
        // (placement and routing).
        let mut clb_cols: Vec<usize> = design.occupied_clb_columns();
        let mut use_left_iob_col = false;
        let mut use_right_iob_col = false;
        let g = self.device().geometry();
        for inst in &design.instances {
            if let Some(r) = constraints.region_for(&inst.name) {
                clb_cols.extend(r.cols());
            }
            match inst.placement {
                Placement::Iob(io) if io.tile.col < 0 => use_left_iob_col = true,
                Placement::Iob(io) if io.tile.col >= g.clb_cols as i32 => use_right_iob_col = true,
                Placement::Iob(io) => clb_cols.push(io.tile.col as usize),
                _ => {}
            }
        }
        for net in &design.nets {
            for pip in &net.pips {
                let c = pip.loc.col;
                if c < 0 {
                    use_left_iob_col = true;
                } else if c >= g.clb_cols as i32 {
                    use_right_iob_col = true;
                } else {
                    clb_cols.push(c as usize);
                }
            }
        }
        clb_cols.sort_unstable();
        clb_cols.dedup();
        if clb_cols.is_empty() {
            return Err(JpgError::EmptyModule);
        }

        // Frame ranges of the target columns.
        let geom = self.base.geometry().clone();
        let mut ranges: Vec<FrameRange> = Vec::new();
        for &c in &clb_cols {
            let major = geom.major_for_clb_col(c).expect("valid CLB column");
            ranges.push(FrameRange::for_column(&geom, BlockType::Clb, major).expect("column"));
        }
        let iob_right_major = g.clb_cols as u8 + 1;
        if use_right_iob_col {
            ranges.push(
                FrameRange::for_column(&geom, BlockType::Clb, iob_right_major).expect("column"),
            );
        }
        if use_left_iob_col {
            ranges.push(
                FrameRange::for_column(&geom, BlockType::Clb, iob_right_major + 1).expect("column"),
            );
        }

        // Erase the module's columns in a copy of the base image (the old
        // module's logic and routing must not survive), then stamp the
        // new module in with JBits calls. Dirty marks start clean at the
        // base snapshot and accumulate through both the erase and the
        // stamp, so afterwards `memory.dirty_frames()` is the
        // touched-frame set — no full-memory diff needed.
        let mut mem = self.base.clone();
        mem.clear_dirty();
        for r in &ranges {
            for f in r.frames() {
                mem.clear_frame(f);
            }
        }
        let mut jb = Jbits::from_memory_tracked(mem);
        let stats = apply_design(&mut jb, design)?;
        let memory = jb.into_memory();
        obs::counter!("jpg_frames_dirtied_total").add(memory.dirty_frames().len() as u64);

        Ok(StampedModule {
            clb_cols,
            ranges,
            memory,
            stats,
        })
    }

    /// Shared back half: wrap an emitted bitstream into a
    /// [`PartialResult`].
    fn finish_partial(
        &self,
        design: &Design,
        constraints: &Constraints,
        stamped: StampedModule,
        bits: Bitstream,
        total_frames: usize,
    ) -> PartialResult {
        let region = bounding_region(design, constraints);
        let floorplan = render_floorplan(self.device(), design, Some(region));
        PartialResult {
            bitfile: BitFile::new(
                format!("{}+{}", self.name, design.name),
                self.device(),
                true,
                bits.clone(),
            ),
            bitstream: bits,
            clb_columns: stamped.clb_cols,
            frames: total_frames,
            stats: stamped.stats,
            memory: stamped.memory,
            floorplan,
            region,
        }
    }

    /// Paper option two: "write the partial bitstream onto the base
    /// design, thus partially reconfiguring the device … the existing
    /// bitstream would be overwritten."
    pub fn write_onto_base(&mut self, partial: &PartialResult) -> Result<(), JpgError> {
        let mut dev = Interpreter::with_memory(self.base.clone());
        dev.feed(&partial.bitstream)?;
        self.base = dev.into_memory();
        Ok(())
    }

    /// The base design's complete bitstream in its current state.
    pub fn base_bitstream(&self) -> BitFile {
        BitFile::new(
            self.name.clone(),
            self.device(),
            false,
            bitstream::full_bitstream(&self.base),
        )
    }

    /// Push a partial straight to a board over XHWIF — "if there is a
    /// FPGA board connected … the newly generated partial bitstream is
    /// written onto the FPGA."
    pub fn download(
        &self,
        partial: &PartialResult,
        board: &mut dyn Xhwif,
    ) -> Result<(), ConfigError> {
        board.set_configuration(&partial.bitstream)
    }

    /// Read the board's configuration back and compare it against the
    /// project's base image — the "care should be taken before modifying
    /// the original bitstream" check. Frames inside `partial`'s own
    /// columns are exempt (they may already hold an earlier variant).
    pub fn verify_board(
        &self,
        board: &mut dyn Xhwif,
        exempt: Option<&PartialResult>,
    ) -> Result<(), JpgError> {
        let words = board.get_configuration()?;
        let mut live = self.base.clone();
        live.load_words(&words);
        let exempt_frames: std::collections::HashSet<usize> = match exempt {
            Some(p) => {
                let geom = self.base.geometry();
                p.clb_columns
                    .iter()
                    .filter_map(|&c| geom.major_for_clb_col(c))
                    .filter_map(|m| FrameRange::for_column(geom, BlockType::Clb, m))
                    .flat_map(|r| r.frames())
                    .collect()
            }
            None => Default::default(),
        };
        let diffs = self
            .base
            .diff_frames(&live)
            .into_iter()
            .filter(|f| !exempt_frames.contains(f))
            .count();
        if diffs == 0 {
            Ok(())
        } else {
            Err(JpgError::BaseMismatch { frames: diffs })
        }
    }

    /// Download with verification: check the board still runs this base
    /// design (outside the partial's own columns), then reconfigure.
    pub fn download_verified(
        &self,
        partial: &PartialResult,
        board: &mut dyn Xhwif,
    ) -> Result<(), JpgError> {
        self.verify_board(board, Some(partial))?;
        self.download(partial, board)?;
        Ok(())
    }
}

/// The front-half output of partial generation: the module's columns and
/// the stamped configuration image (carrying the touched-frame set as
/// dirty marks).
struct StampedModule {
    clb_cols: Vec<usize>,
    ranges: Vec<FrameRange>,
    memory: ConfigMemory,
    stats: TranslateStats,
}

fn bounding_region(design: &Design, constraints: &Constraints) -> Rect {
    let mut r: Option<Rect> = None;
    let mut extend = |rect: Rect| {
        r = Some(match r {
            None => rect,
            Some(prev) => Rect::new(
                prev.row0.min(rect.row0),
                prev.col0.min(rect.col0),
                prev.row1.max(rect.row1),
                prev.col1.max(rect.col1),
            ),
        });
    };
    for inst in &design.instances {
        if let Some(g) = constraints.region_for(&inst.name) {
            extend(g);
        }
        if let Placement::Slice(s) = inst.placement {
            extend(Rect::new(s.tile.row, s.tile.col, s.tile.row, s.tile.col));
        }
    }
    r.unwrap_or(Rect::new(0, 0, 0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{build_base, implement_variant, ModuleSpec};
    use cadflow::gen;

    fn base() -> crate::workflow::BaseDesign {
        let modules = vec![
            ModuleSpec {
                prefix: "mod1/".into(),
                netlist: gen::counter("up", 3),
                region: Rect::new(0, 1, 15, 8),
            },
            ModuleSpec {
                prefix: "mod2/".into(),
                netlist: gen::parity("par", 4),
                region: Rect::new(0, 12, 15, 19),
            },
        ];
        build_base("base", Device::XCV50, &modules, 13).unwrap()
    }

    #[test]
    fn partial_is_small_and_column_aligned() {
        let b = base();
        let variant = implement_variant(&b, "mod1/", &gen::gray_counter("gray", 3), 5).unwrap();
        let project = JpgProject::open(b.bitstream.clone()).unwrap();
        let partial = project
            .generate_partial(&variant.xdl, &variant.ucf)
            .unwrap();
        // Columns stay in the module's region.
        assert!(partial.clb_columns.iter().all(|&c| (1..=8).contains(&c)));
        // Roughly region/device-sized fraction of the full bitstream.
        let full = b.bitstream.bitstream.byte_len();
        let ratio = partial.bitstream.byte_len() as f64 / full as f64;
        assert!(ratio < 0.5, "partial ratio {ratio}");
        assert!(partial.frames > 0);
        assert!(partial.stats.total() > 0);
        assert!(partial.bitfile.partial);
        assert!(partial.floorplan.contains('#'));
    }

    #[test]
    fn base_plus_partial_equals_fresh_variant_state() {
        // The core JPG invariant, at configuration-memory level: loading
        // base then partial gives exactly the image JPG computed.
        let b = base();
        let variant = implement_variant(&b, "mod1/", &gen::down_counter("down", 3), 5).unwrap();
        let project = JpgProject::open(b.bitstream.clone()).unwrap();
        let partial = project
            .generate_partial(&variant.xdl, &variant.ucf)
            .unwrap();

        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed(&b.bitstream.bitstream).unwrap();
        dev.feed(&partial.bitstream).unwrap();
        assert_eq!(dev.memory(), &partial.memory);
    }

    #[test]
    fn untouched_module_survives_partial() {
        let b = base();
        let variant = implement_variant(&b, "mod1/", &gen::lfsr("l", 3), 5).unwrap();
        let project = JpgProject::open(b.bitstream.clone()).unwrap();
        let partial = project
            .generate_partial(&variant.xdl, &variant.ucf)
            .unwrap();
        // mod2's columns (12..=19 and their frames) are identical between
        // base and the partial-applied image.
        let geom = b.memory.geometry().clone();
        for c in 12..=19usize {
            let major = geom.major_for_clb_col(c).unwrap();
            let range = FrameRange::for_column(&geom, BlockType::Clb, major).unwrap();
            for f in range.frames() {
                assert_eq!(
                    b.memory.frame(f),
                    partial.memory.frame(f),
                    "frame {f} of column {c} changed"
                );
            }
        }
    }

    #[test]
    fn write_onto_base_updates_project() {
        let mut b_proj;
        let b = base();
        let variant = implement_variant(&b, "mod1/", &gen::gray_counter("g", 3), 5).unwrap();
        b_proj = JpgProject::open(b.bitstream.clone()).unwrap();
        let partial = b_proj.generate_partial(&variant.xdl, &variant.ucf).unwrap();
        b_proj.write_onto_base(&partial).unwrap();
        assert_eq!(b_proj.base_memory(), &partial.memory);
        // The regenerated complete bitstream reflects the update.
        let bf = b_proj.base_bitstream();
        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed(&bf.bitstream).unwrap();
        assert_eq!(dev.memory(), &partial.memory);
    }

    #[test]
    fn drc_violations_block_generation() {
        let b = base();
        let variant = implement_variant(&b, "mod1/", &gen::counter("c", 3), 5).unwrap();
        let mut design = variant.design.clone();
        // Corrupt: overlap two instances on one site.
        let site = design
            .instances
            .iter()
            .find_map(|i| match i.placement {
                xdl::Placement::Slice(s) => Some(s),
                _ => None,
            })
            .unwrap();
        for inst in design.instances.iter_mut() {
            if inst.kind == xdl::InstanceKind::Slice {
                inst.placement = xdl::Placement::Slice(site);
            }
        }
        let project = JpgProject::open(b.bitstream.clone()).unwrap();
        let err = project
            .generate_partial_from(&design, &Constraints::default())
            .unwrap_err();
        assert!(matches!(err, JpgError::Drc(_)), "{err}");
    }

    /// An IOB tile has pads `0..PADS_PER_IOB`. A pad index past that used
    /// to pass every input check: a UCF `LOC` implemented "successfully"
    /// with a PIP the fabric lacks, and pad 200 panicked in the JBits
    /// layout.
    #[test]
    fn out_of_range_pads_are_rejected_at_every_input() {
        let err = Constraints::parse("NET \"clk\" LOC = \"IOB_R5C0.P9\" ;\n").unwrap_err();
        assert!(err.to_string().contains("IOB_R5C0.P9"), "{err}");

        let b = base();
        let variant = implement_variant(&b, "mod1/", &gen::counter("c", 3), 5).unwrap();
        let (name, io) = variant
            .design
            .instances
            .iter()
            .find_map(|i| match i.placement {
                xdl::Placement::Iob(io) => Some((i.name.clone(), io)),
                _ => None,
            })
            .expect("the module has a pad");
        let site = io.site_name();
        assert!(variant.xdl.contains(&site));
        let bad_site = format!("{}.P200", site.rsplit_once(".P").unwrap().0);
        let text = variant.xdl.replace(&site, &bad_site);
        let err = xdl::parse(&text).unwrap_err();
        assert!(err.to_string().contains("bad IOB site"), "{err}");

        let mut design = variant.design.clone();
        design.instance_mut(&name).unwrap().placement =
            xdl::Placement::Iob(virtex::IobCoord::new(io.tile, 200));
        let project = JpgProject::open(b.bitstream.clone()).unwrap();
        let err = project
            .generate_partial_from(&design, &Constraints::default())
            .unwrap_err();
        assert!(
            matches!(&err, JpgError::Drc(v) if v.iter().any(|v| matches!(
                v, xdl::Violation::BadSite { instance, .. } if *instance == name
            ))),
            "{err}"
        );
    }

    #[test]
    fn device_mismatch_and_empty_module_errors() {
        let b = base();
        let project = JpgProject::open(b.bitstream.clone()).unwrap();
        let err = project
            .generate_partial("design \"x\" XCV100 ;", "")
            .unwrap_err();
        assert!(matches!(err, JpgError::DeviceMismatch { .. }));
        let err = project
            .generate_partial("design \"x\" XCV50 ;", "")
            .unwrap_err();
        assert!(matches!(err, JpgError::EmptyModule));
    }
}
