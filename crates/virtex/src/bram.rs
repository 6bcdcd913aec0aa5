//! Block RAM: the 4-kbit dual-port memories along the left and right
//! edges of a Virtex die, and the layout of their *content* in the
//! configuration memory.
//!
//! BRAM content lives in its own configuration block type
//! ([`crate::BlockType::BramContent`], 64 frames per column), so
//! rewriting a coefficient table is itself a partial reconfiguration —
//! the mechanism behind the "self-reconfigurable on-chip memory" systems
//! contemporaneous with JPG.
//!
//! Layout: BRAM `i` on a side occupies the four CLB-row slots
//! `4i..4i+4`. Content bit `b` (0..4096) maps to minor `b % 64` at
//! bit `row_bit_offset(4i) + b / 64` — 64 bits per frame per BRAM,
//! filling 64 of its 72 available frame bits.

use crate::config::{BlockType, ConfigGeometry};
use crate::family::Device;
use std::fmt;

pub use crate::config::Side;

/// Content bits per BRAM cell.
pub const BRAM_BITS: usize = 4096;

/// A block-RAM site: side of the die plus index from the top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BramCoord {
    /// Left or right content column.
    pub side: Side,
    /// Index from the top (`0..geometry().brams_per_col`).
    pub index: usize,
}

impl BramCoord {
    /// Construct a BRAM coordinate.
    pub fn new(side: Side, index: usize) -> Self {
        BramCoord { side, index }
    }

    /// Whether this site exists on `device`.
    pub fn valid_for(&self, device: Device) -> bool {
        self.index < device.geometry().brams_per_col
    }

    /// Site name, e.g. `RAMB4_R2C0` (left column = C0, right = C1).
    pub fn site_name(&self) -> String {
        let c = match self.side {
            Side::Left => 0,
            Side::Right => 1,
        };
        format!("RAMB4_R{}C{}", self.index + 1, c)
    }

    /// Parse a site name produced by [`Self::site_name`].
    pub fn parse_site_name(s: &str) -> Option<BramCoord> {
        let s = s.strip_prefix("RAMB4_R")?;
        let (r, c) = s.split_once('C')?;
        let index = r.parse::<usize>().ok()?.checked_sub(1)?;
        let side = match c {
            "0" => Side::Left,
            "1" => Side::Right,
            _ => return None,
        };
        Some(BramCoord { side, index })
    }
}

impl fmt::Display for BramCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.site_name())
    }
}

/// Position of content bit `bit` of `bram`:
/// `(linear frame index, bit within frame)`.
pub fn content_bit_pos(
    geom: &ConfigGeometry,
    bram: BramCoord,
    bit: usize,
) -> Option<(usize, usize)> {
    if bit >= BRAM_BITS || !bram.valid_for(geom.device()) {
        return None;
    }
    // Content-column majors: right = 0, left = 1 (construction order in
    // ConfigGeometry).
    let major = match bram.side {
        Side::Right => 0,
        Side::Left => 1,
    };
    let col = geom.column(BlockType::BramContent, major)?;
    let minor = bit % 64;
    let frame = col.first_frame_index() + minor;
    let frame_bit = geom.row_bit_offset(4 * bram.index) + bit / 64;
    Some((frame, frame_bit))
}

/// Iterate all BRAM sites of `device`.
pub fn bram_sites(device: Device) -> impl Iterator<Item = BramCoord> {
    let n = device.geometry().brams_per_col;
    [Side::Right, Side::Left]
        .into_iter()
        .flat_map(move |side| (0..n).map(move |index| BramCoord { side, index }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_name_roundtrip() {
        for b in bram_sites(Device::XCV100) {
            assert_eq!(BramCoord::parse_site_name(&b.site_name()), Some(b));
        }
        assert_eq!(BramCoord::parse_site_name("RAMB4_R0C0"), None);
        assert_eq!(BramCoord::parse_site_name("RAMB4_R1C2"), None);
        assert_eq!(BramCoord::parse_site_name("CLB_R1C1.S0"), None);
    }

    #[test]
    fn census_matches_geometry() {
        assert_eq!(bram_sites(Device::XCV50).count(), 2 * 4);
        assert_eq!(bram_sites(Device::XCV1000).count(), 2 * 16);
        assert!(BramCoord::new(Side::Left, 3).valid_for(Device::XCV50));
        assert!(!BramCoord::new(Side::Left, 4).valid_for(Device::XCV50));
    }

    #[test]
    fn content_bits_are_unique_and_in_content_columns() {
        let geom = ConfigGeometry::for_device(Device::XCV50);
        let mut seen = std::collections::HashSet::new();
        for bram in bram_sites(Device::XCV50) {
            for bit in (0..BRAM_BITS).step_by(17) {
                let (frame, fb) = content_bit_pos(&geom, bram, bit).expect("pos");
                assert!(seen.insert((frame, fb)), "collision at {bram} bit {bit}");
                let far = geom.frame_address(frame).unwrap();
                assert_eq!(far.block, BlockType::BramContent);
                assert!(fb < geom.frame_bits());
            }
        }
        // Out-of-range rejected.
        assert_eq!(
            content_bit_pos(&geom, BramCoord::new(Side::Left, 0), BRAM_BITS),
            None
        );
        assert_eq!(
            content_bit_pos(&geom, BramCoord::new(Side::Left, 99), 0),
            None
        );
    }
}
