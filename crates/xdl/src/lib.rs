//! # xdl — design files of the Xilinx flow
//!
//! The JPG tool's inputs are the files the Foundation flow leaves behind:
//!
//! * **XDL** — the ASCII dump of a placed-and-routed design database
//!   (`xdl -ncd2xdl` output). [`parse`]/[`print()`] round-trip the subset
//!   the paper's Section 3.2.2 describes: `design`, `inst` (with
//!   `placed`/`unplaced` state and `cfg` attribute strings, including
//!   `#LUT:` equations), and `net` records with `outpin`/`inpin`/`pip`
//!   lines.
//! * **UCF** — user constraints: `LOC` placements and
//!   `AREA_GROUP`/`RANGE` floorplanning regions, which JPG uses to find
//!   the device columns a module occupies.
//!
//! The in-memory [`Design`] struct doubles as the NCD-equivalent design
//! database: `parse` is the NCD→memory direction, `print` the memory→XDL
//! direction.

pub mod design;
pub mod drc;
pub mod lutexpr;
pub mod parser;
pub mod printer;
pub mod ucf;

pub use design::{CfgEntry, Design, Instance, InstanceKind, Net, NetKind, PinRef, Placement};
pub use drc::{check as drc_check, Violation};
pub use lutexpr::{expr_to_truth, truth_to_expr, LutExprError};
pub use parser::{parse, ParseError};
pub use printer::print;
pub use ucf::{Constraints, Rect, UcfError};
