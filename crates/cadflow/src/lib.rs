//! # cadflow — a Foundation-style FPGA implementation flow
//!
//! The paper's methodology runs the standard Xilinx flow (synthesis →
//! map → place → route) per *module* and hands the outputs (XDL + UCF) to
//! JPG. Reproducing the claims about module-level vs design-level
//! implementation time requires a real flow whose cost scales with design
//! size, so this crate implements one end to end:
//!
//! * [`netlist`] — gate-level netlist IR with a builder API;
//! * [`gen`] — a library of generator circuits (counters, LFSRs, parity
//!   trees, adders, comparators…) used as the paper's "module variants";
//! * [`eval`] — a golden event-free simulator for the logical netlist,
//!   the reference against which every downstream stage is verified;
//! * [`map`] — technology mapping onto 4-input LUTs + optional flip-flop;
//! * [`mod@pack`] — slice packing and conversion to the [`xdl::Design`]
//!   database (instances with `cfg` strings, logical nets);
//! * [`mod@place`] — simulated-annealing placement honouring UCF `LOC` and
//!   `AREA_GROUP`/`RANGE` constraints, with a *guided* mode reproducing
//!   the paper's Phase-2 "guided floorplanning";
//! * [`mod@route`] — a PathFinder negotiated-congestion router over the
//!   `virtex` routing graph;
//! * [`flow`] — the driver tying the stages together and timing them.

pub mod eval;

pub mod flow;
pub mod gen;
pub mod hdl;
pub mod map;
pub mod netlist;
pub mod opt;
pub mod pack;
pub mod place;
pub mod route;
pub mod timing;

pub use eval::Simulator;
pub use flow::{implement, merge_designs, FlowError, FlowOptions, FlowReport};
pub use hdl::{synthesize, HdlError};
pub use map::{map_netlist, MappedNetlist};
pub use netlist::merge_netlists;
pub use netlist::{GateKind, Netlist, NetlistBuilder, SignalId};
pub use opt::{optimize, OptStats};
pub use pack::{pack, pack_with_prefix};
pub use place::{place, PlaceError, PlaceOptions};
pub use route::{route, verify_routing, RouteError, RouteOptions};
pub use timing::{analyze as timing_analyze, TimingReport};
