//! # simboard — a simulated Virtex board behind the XHWIF interface
//!
//! The paper downloads (partial) bitstreams to a physical board through
//! JBits' XHWIF layer. This crate provides the simulated equivalent:
//!
//! * [`port`] — a SelectMAP configuration port with the byte-per-cycle
//!   timing model (50 MHz), so download times are proportional to
//!   bitstream bytes exactly as on hardware — the basis of the paper's
//!   configuration-time arguments;
//! * [`fabric`] — a functional simulator for the *configured* device: it
//!   decodes the configuration memory back into LUTs, flip-flops, IOBs
//!   and enabled PIPs, then simulates the resulting circuit cycle by
//!   cycle. This closes the verification loop: a design that survives
//!   map → place → route → bitgen → (partial) reconfiguration must still
//!   behave exactly like its golden netlist;
//! * [`board`] — [`SimBoard`], tying both together behind
//!   [`jbits::Xhwif`].

pub mod board;
pub mod fabric;
pub mod multiboard;
pub mod port;

pub use board::SimBoard;
pub use fabric::{DecodeError, FabricModel, FabricSim, SettleWork};
pub use multiboard::MultiBoard;
pub use port::{FaultInjector, FaultKind, SelectMap, SELECTMAP_HZ};
