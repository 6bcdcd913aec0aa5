//! Configuration packets: the framing layer of a Virtex bitstream.
//!
//! After the dummy word and the sync word, a bitstream is a sequence of
//! packets. A **type-1** packet carries an opcode, a register address and
//! an 11-bit word count; a **type-2** packet extends the *previous* type-1
//! packet's register with a 27-bit word count (used for the multi-megabit
//! `FDRI` write of a full configuration).

use crate::regs::Register;
use std::fmt;

/// The synchronization word that arms the packet processor.
pub const SYNC_WORD: u32 = 0xAA99_5566;
/// The dummy word conventionally preceding the sync word.
pub const DUMMY_WORD: u32 = 0xFFFF_FFFF;

/// Packet opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// No operation (header only).
    Nop,
    /// Read `count` words from the register.
    Read,
    /// Write `count` words to the register.
    Write,
}

impl Op {
    fn encode(self) -> u32 {
        match self {
            Op::Nop => 0,
            Op::Read => 1,
            Op::Write => 2,
        }
    }

    fn decode(v: u32) -> Option<Op> {
        match v {
            0 => Some(Op::Nop),
            1 => Some(Op::Read),
            2 => Some(Op::Write),
            _ => None,
        }
    }
}

/// A decoded packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packet {
    /// Type-1: op + register + 11-bit count.
    Type1 {
        /// Operation.
        op: Op,
        /// Target register.
        reg: Register,
        /// Number of payload words following the header.
        count: usize,
    },
    /// Type-2: 27-bit count, register inherited from the last type-1.
    Type2 {
        /// Operation.
        op: Op,
        /// Number of payload words following the header.
        count: usize,
    },
}

/// Maximum word count expressible in a type-1 header.
pub const TYPE1_MAX_COUNT: usize = (1 << 11) - 1;
/// Maximum word count expressible in a type-2 header.
pub const TYPE2_MAX_COUNT: usize = (1 << 27) - 1;

/// Errors from packet decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Header type field was not 1 or 2.
    BadType(u32),
    /// Unknown opcode.
    BadOp(u32),
    /// Unknown register address.
    BadRegister(u32),
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::BadType(t) => write!(f, "bad packet type {t}"),
            PacketError::BadOp(o) => write!(f, "bad packet opcode {o}"),
            PacketError::BadRegister(r) => write!(f, "bad register address {r}"),
        }
    }
}

impl std::error::Error for PacketError {}

impl Packet {
    /// A type-1 write header.
    pub fn write1(reg: Register, count: usize) -> Packet {
        assert!(count <= TYPE1_MAX_COUNT, "type-1 count overflow");
        Packet::Type1 {
            op: Op::Write,
            reg,
            count,
        }
    }

    /// A type-1 read header.
    pub fn read1(reg: Register, count: usize) -> Packet {
        assert!(count <= TYPE1_MAX_COUNT, "type-1 count overflow");
        Packet::Type1 {
            op: Op::Read,
            reg,
            count,
        }
    }

    /// A type-2 write header (register carried over from the previous
    /// type-1).
    pub fn write2(count: usize) -> Packet {
        assert!(count <= TYPE2_MAX_COUNT, "type-2 count overflow");
        Packet::Type2 {
            op: Op::Write,
            count,
        }
    }

    /// Number of payload words that follow this header.
    pub fn count(&self) -> usize {
        match *self {
            Packet::Type1 { count, .. } | Packet::Type2 { count, .. } => count,
        }
    }

    /// Encode to the 32-bit header word.
    ///
    /// Layout: `[31:29]` type, `[28:27]` op, then for type-1
    /// `[26:13]` register address and `[10:0]` count; for type-2 `[26:0]`
    /// count.
    pub fn encode(&self) -> u32 {
        match *self {
            Packet::Type1 { op, reg, count } => {
                (1 << 29) | (op.encode() << 27) | (reg.addr() << 13) | (count as u32 & 0x7FF)
            }
            Packet::Type2 { op, count } => {
                (2 << 29) | (op.encode() << 27) | (count as u32 & 0x07FF_FFFF)
            }
        }
    }

    /// Decode a header word.
    pub fn decode(word: u32) -> Result<Packet, PacketError> {
        let ty = word >> 29;
        let op = Op::decode((word >> 27) & 0x3).ok_or(PacketError::BadOp((word >> 27) & 0x3))?;
        match ty {
            1 => {
                let addr = (word >> 13) & 0x3FFF;
                let reg = Register::from_addr(addr).ok_or(PacketError::BadRegister(addr))?;
                Ok(Packet::Type1 {
                    op,
                    reg,
                    count: (word & 0x7FF) as usize,
                })
            }
            2 => Ok(Packet::Type2 {
                op,
                count: (word & 0x07FF_FFFF) as usize,
            }),
            t => Err(PacketError::BadType(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let cases = [
            Packet::write1(Register::Cmd, 1),
            Packet::write1(Register::Fdri, 0),
            Packet::write1(Register::Far, TYPE1_MAX_COUNT),
            Packet::read1(Register::Fdro, 100),
            Packet::write2(1_000_000),
            Packet::Type2 {
                op: Op::Read,
                count: TYPE2_MAX_COUNT,
            },
            Packet::Type1 {
                op: Op::Nop,
                reg: Register::Crc,
                count: 0,
            },
        ];
        for p in cases {
            assert_eq!(Packet::decode(p.encode()), Ok(p));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(Packet::decode(0), Err(PacketError::BadType(0))));
        assert!(matches!(
            Packet::decode(7 << 29),
            Err(PacketError::BadType(7))
        ));
        // Type-1 with reserved opcode 3.
        assert!(matches!(
            Packet::decode((1 << 29) | (3 << 27)),
            Err(PacketError::BadOp(3))
        ));
        // Type-1 addressing the register-address gap at 10.
        assert!(matches!(
            Packet::decode((1 << 29) | (2 << 27) | (10 << 13)),
            Err(PacketError::BadRegister(10))
        ));
    }

    #[test]
    #[should_panic(expected = "type-1 count overflow")]
    fn type1_count_overflow_panics() {
        let _ = Packet::write1(Register::Fdri, TYPE1_MAX_COUNT + 1);
    }

    #[test]
    fn sync_word_is_the_virtex_constant() {
        assert_eq!(SYNC_WORD, 0xAA995566);
    }
}
