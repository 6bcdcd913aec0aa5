//! A `.bit`-style file container: a design header (name, device, tool,
//! timestamp) wrapped around the raw bitstream, as produced by the vendor
//! tools and consumed by JPG when it "initializes the environment from the
//! base design's complete bitstream".

use crate::writer::Bitstream;
use virtex::Device;

/// File magic for the container.
pub const MAGIC: &[u8; 4] = b"JBIT";

/// A bitstream file with its design header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitFile {
    /// Design name (the NCD name in real files).
    pub design: String,
    /// Target device.
    pub device: Device,
    /// Whether the payload is a partial bitstream.
    pub partial: bool,
    /// The payload.
    pub bitstream: Bitstream,
}

/// Errors decoding a bit file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitFileError {
    /// Wrong magic bytes.
    BadMagic,
    /// File ended prematurely.
    Truncated,
    /// Design name was not UTF-8.
    BadName,
    /// Unknown device IDCODE.
    UnknownDevice(u32),
}

impl std::fmt::Display for BitFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitFileError::BadMagic => write!(f, "not a bit file (bad magic)"),
            BitFileError::Truncated => write!(f, "bit file truncated"),
            BitFileError::BadName => write!(f, "design name is not valid UTF-8"),
            BitFileError::UnknownDevice(id) => write!(f, "unknown device idcode {id:#010x}"),
        }
    }
}

impl std::error::Error for BitFileError {}

impl BitFile {
    /// Wrap a bitstream with its header.
    pub fn new(
        design: impl Into<String>,
        device: Device,
        partial: bool,
        bitstream: Bitstream,
    ) -> Self {
        BitFile {
            design: design.into(),
            device,
            partial,
            bitstream,
        }
    }

    /// Serialize: magic, flags, idcode, name length + name, payload length
    /// + payload (all integers big-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let name = self.design.as_bytes();
        let payload = self.bitstream.to_bytes();
        let mut out = Vec::with_capacity(16 + name.len() + payload.len());
        out.extend_from_slice(MAGIC);
        out.push(self.partial as u8);
        out.extend_from_slice(&self.device.idcode().to_be_bytes());
        out.extend_from_slice(&(name.len() as u32).to_be_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserialize a file produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BitFile, BitFileError> {
        let take = |b: &[u8], n: usize| -> Result<(), BitFileError> {
            if b.len() < n {
                Err(BitFileError::Truncated)
            } else {
                Ok(())
            }
        };
        take(bytes, 13)?;
        if &bytes[..4] != MAGIC {
            return Err(BitFileError::BadMagic);
        }
        let partial = bytes[4] != 0;
        let idcode = u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
        let device = Device::from_idcode(idcode).ok_or(BitFileError::UnknownDevice(idcode))?;
        let name_len = u32::from_be_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]) as usize;
        let rest = &bytes[13..];
        take(rest, name_len + 4)?;
        let design = std::str::from_utf8(&rest[..name_len])
            .map_err(|_| BitFileError::BadName)?
            .to_string();
        let rest = &rest[name_len..];
        let payload_len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let rest = &rest[4..];
        take(rest, payload_len)?;
        let bitstream =
            Bitstream::from_bytes(&rest[..payload_len]).ok_or(BitFileError::Truncated)?;
        Ok(BitFile {
            design,
            device,
            partial,
            bitstream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BitFile {
        BitFile::new(
            "counter_top",
            Device::XCV100,
            false,
            Bitstream::from_words(vec![0xFFFF_FFFF, 0xAA99_5566, 42]),
        )
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let bytes = f.to_bytes();
        assert_eq!(BitFile::from_bytes(&bytes).unwrap(), f);
    }

    #[test]
    fn partial_flag_roundtrips() {
        let mut f = sample();
        f.partial = true;
        let g = BitFile::from_bytes(&f.to_bytes()).unwrap();
        assert!(g.partial);
    }

    #[test]
    fn errors() {
        assert_eq!(BitFile::from_bytes(b"nope"), Err(BitFileError::Truncated));
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(BitFile::from_bytes(&bytes), Err(BitFileError::BadMagic));
        let bytes = sample().to_bytes();
        assert_eq!(
            BitFile::from_bytes(&bytes[..bytes.len() - 2]),
            Err(BitFileError::Truncated)
        );
    }

    #[test]
    fn unicode_design_names() {
        let f = BitFile::new(
            "fältbuss-αβ",
            Device::XCV50,
            true,
            Bitstream::from_words(vec![]),
        );
        assert_eq!(BitFile::from_bytes(&f.to_bytes()).unwrap(), f);
    }
}
