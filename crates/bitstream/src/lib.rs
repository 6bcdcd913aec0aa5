//! # bitstream — the Virtex configuration bitstream format
//!
//! Everything between a configuration-memory image ([`virtex::ConfigMemory`])
//! and the byte stream that travels down a configuration port:
//!
//! * [`crc`] — the CRC-16 running checksum the silicon keeps while loading;
//! * [`regs`] — configuration registers (`CRC`, `FAR`, `FDRI`, `CMD`, …)
//!   and the command set (`WCFG`, `LFRM`, `START`, …);
//! * [`packet`] — type-1/type-2 packet headers and the sync word;
//! * [`writer`] — a packet-stream builder;
//! * [`bitgen`] — full ("bitgen") and **partial** bitstream generation,
//!   the heart of the JPG reproduction;
//! * [`interp`] — the device-side packet interpreter: feed it a bitstream
//!   and it updates a `ConfigMemory` exactly as the silicon would,
//!   checking CRC and IDCODE;
//! * [`readback`] — frame readback (the `RCFG`/`FDRO` path);
//! * [`bitfile`] — a `.bit`-style file container with a design header.
//!
//! ```
//! use virtex::{ConfigMemory, Device};
//! use bitstream::{bitgen, interp::Interpreter};
//!
//! let mut mem = ConfigMemory::new(Device::XCV50);
//! mem.set_bit(100, 5, true);
//!
//! // Generate a complete bitstream, then load it into a fresh device.
//! let bs = bitgen::full_bitstream(&mem);
//! let mut dev = Interpreter::new(Device::XCV50);
//! dev.feed_words(bs.words()).unwrap();
//! assert_eq!(dev.memory(), &mem);
//! ```

pub mod bitfile;
pub mod bitgen;
pub mod crc;
pub mod interp;
pub mod packet;
pub mod readback;
pub mod regs;
pub mod writer;

pub use bitfile::BitFile;
pub use bitgen::{full_bitstream, partial_bitstream, FrameRange};
pub use interp::{ConfigError, Interpreter, StreamDiagnostic};
pub use packet::{Packet, SYNC_WORD};
pub use regs::{Command, Register};
pub use writer::{Bitstream, BitstreamWriter};
