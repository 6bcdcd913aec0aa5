//! # jpg — the JPG partial bitstream generation tool
//!
//! The Rust reproduction of the paper's contribution: a tool that sits at
//! the end of the standard CAD flow and turns a re-implemented module's
//! **XDL + UCF** files into a **partial bitstream** for a Virtex device,
//! by parsing the XDL records and issuing JBits calls (paper §3).
//!
//! * [`translate`] — the XDL parser-to-JBits translator (§3.2.2): walks
//!   `inst` cfg strings and `net` pip lists, making `set_lut`/`set`/
//!   `set_pip` calls;
//! * [`project`] — the [`JpgProject`] tool model (§3.3): open a base
//!   design's complete bitstream, feed in module XDL/UCF, preview the
//!   floorplanned target area, then either emit the partial bitstream or
//!   write it onto the base design (the paper's two options), or push it
//!   straight to a board over XHWIF;
//! * [`floorplan`] — the ASCII rendering of the device floorplan (the
//!   paper's Figure-3 GUI view);
//! * [`workflow`] — the two-phase methodology around the tool (§3.1,
//!   §3.2): Phase 1 builds the floorplanned base design, Phase 2
//!   re-implements single modules with guided placement and hands their
//!   XDL/UCF to JPG;
//! * [`par`] — [`par_map`], the one fork-join primitive behind every
//!   parallel stage in the workspace.
//!
//! ```
//! use cadflow::gen;
//! use jpg::workflow::{build_base, implement_variant, ModuleSpec};
//! use jpg::JpgProject;
//! use virtex::Device;
//! use xdl::Rect;
//!
//! // Phase 1: a base design with one reconfigurable region.
//! let modules = vec![ModuleSpec {
//!     prefix: "mod1/".into(),
//!     netlist: gen::counter("up", 2),
//!     region: Rect::new(0, 2, 15, 9),
//! }];
//! let base = build_base("base", Device::XCV50, &modules, 1).unwrap();
//!
//! // Phase 2: an alternative implementation of the module.
//! let variant = implement_variant(
//!     &base, "mod1/", &gen::down_counter("down", 2), 1,
//! ).unwrap();
//!
//! // JPG: XDL + UCF in, partial bitstream out.
//! let mut project = JpgProject::open(base.bitstream.clone()).unwrap();
//! let partial = project
//!     .generate_partial(&variant.xdl, &variant.ucf)
//!     .unwrap();
//! // An 8-of-24-column region yields a partial roughly a third of the
//! // complete bitstream — the paper's headline ratio.
//! assert!(partial.bitstream.byte_len() < base.bitstream.bitstream.byte_len() / 2);
//! ```

pub mod cache;
pub mod floorplan;
pub mod par;
pub mod project;
pub mod report;
pub mod translate;
pub mod workflow;

pub use cache::{frame_hash, FrameCache, FrameKey};
pub use floorplan::render_floorplan;
pub use par::{available_threads, par_map};
pub use project::{JpgError, JpgProject, PartialResult};
pub use translate::{apply_design, TranslateError, TranslateStats};
pub use workflow::region_frame_ranges;
