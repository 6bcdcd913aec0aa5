//! Configuration registers and the command set, per the Virtex
//! configuration architecture.

use std::fmt;

/// A configuration register, addressed by type-1 packet headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Register {
    /// CRC check register: writing compares against the running CRC.
    Crc,
    /// Frame Address Register.
    Far,
    /// Frame Data Register, Input (configuration writes).
    Fdri,
    /// Frame Data Register, Output (readback).
    Fdro,
    /// Command register.
    Cmd,
    /// Control register.
    Ctl,
    /// Write mask for `CTL`.
    Mask,
    /// Status (read-only).
    Stat,
    /// Legacy daisy-chain output.
    Lout,
    /// Configuration options.
    Cor,
    /// Frame Length Register: frame size in words, set before any FDRI
    /// write.
    Flr,
    /// Device identification code; the write must match the silicon.
    Idcode,
}

impl Register {
    /// All registers in address order.
    pub const ALL: [Register; 12] = [
        Register::Crc,
        Register::Far,
        Register::Fdri,
        Register::Fdro,
        Register::Cmd,
        Register::Ctl,
        Register::Mask,
        Register::Stat,
        Register::Lout,
        Register::Cor,
        Register::Flr,
        Register::Idcode,
    ];

    /// Packet-header address of this register.
    pub fn addr(self) -> u32 {
        match self {
            Register::Crc => 0,
            Register::Far => 1,
            Register::Fdri => 2,
            Register::Fdro => 3,
            Register::Cmd => 4,
            Register::Ctl => 5,
            Register::Mask => 6,
            Register::Stat => 7,
            Register::Lout => 8,
            Register::Cor => 9,
            Register::Flr => 11,
            Register::Idcode => 14,
        }
    }

    /// Decode a packet-header address.
    pub fn from_addr(a: u32) -> Option<Register> {
        Register::ALL.into_iter().find(|r| r.addr() == a)
    }
}

impl fmt::Display for Register {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Register::Crc => "CRC",
            Register::Far => "FAR",
            Register::Fdri => "FDRI",
            Register::Fdro => "FDRO",
            Register::Cmd => "CMD",
            Register::Ctl => "CTL",
            Register::Mask => "MASK",
            Register::Stat => "STAT",
            Register::Lout => "LOUT",
            Register::Cor => "COR",
            Register::Flr => "FLR",
            Register::Idcode => "IDCODE",
        };
        f.write_str(s)
    }
}

/// Commands written to the `CMD` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// No operation.
    Null,
    /// Write configuration: subsequent FDRI data is committed to frames.
    Wcfg,
    /// Last frame: flush the frame pipeline at the end of a write run.
    Lfrm,
    /// Read configuration: subsequent FDRO reads return frames.
    Rcfg,
    /// Begin the start-up sequence (activate the design).
    Start,
    /// Reset the running CRC.
    Rcrc,
    /// Assert GHIGH (disable interconnect during reconfiguration).
    Aghigh,
    /// Switch clock source.
    Switch,
    /// End of configuration; desynchronize the packet processor.
    Desynch,
}

impl Command {
    /// All commands in code order.
    pub const ALL: [Command; 9] = [
        Command::Null,
        Command::Wcfg,
        Command::Lfrm,
        Command::Rcfg,
        Command::Start,
        Command::Rcrc,
        Command::Aghigh,
        Command::Switch,
        Command::Desynch,
    ];

    /// Numeric code written to `CMD`.
    pub fn code(self) -> u32 {
        match self {
            Command::Null => 0,
            Command::Wcfg => 1,
            Command::Lfrm => 3,
            Command::Rcfg => 4,
            Command::Start => 5,
            Command::Rcrc => 7,
            Command::Aghigh => 8,
            Command::Switch => 9,
            Command::Desynch => 13,
        }
    }

    /// Decode a `CMD` value.
    pub fn from_code(c: u32) -> Option<Command> {
        Command::ALL.into_iter().find(|cmd| cmd.code() == c)
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Command::Null => "NULL",
            Command::Wcfg => "WCFG",
            Command::Lfrm => "LFRM",
            Command::Rcfg => "RCFG",
            Command::Start => "START",
            Command::Rcrc => "RCRC",
            Command::Aghigh => "AGHIGH",
            Command::Switch => "SWITCH",
            Command::Desynch => "DESYNCH",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_addresses_unique_and_roundtrip() {
        let mut addrs: Vec<u32> = Register::ALL.iter().map(|r| r.addr()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), Register::ALL.len());
        for r in Register::ALL {
            assert_eq!(Register::from_addr(r.addr()), Some(r));
        }
        assert_eq!(Register::from_addr(10), None); // gap left by silicon
        assert_eq!(Register::from_addr(31), None);
    }

    #[test]
    fn command_codes_unique_and_roundtrip() {
        let mut codes: Vec<u32> = Command::ALL.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Command::ALL.len());
        for c in Command::ALL {
            assert_eq!(Command::from_code(c.code()), Some(c));
        }
        assert_eq!(Command::from_code(2), None);
    }
}
