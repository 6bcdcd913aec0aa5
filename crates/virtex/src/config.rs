//! Configuration geometry: the frame/column structure of the Virtex
//! configuration memory and the Frame Address Register (FAR) encoding.
//!
//! A Virtex device is configured through vertical *frames*, each one bit
//! wide and a full column tall. Frames are grouped into *columns* (a clock
//! column, one column per CLB column, two IOB columns, and BRAM columns)
//! and addressed by a `(block type, major, minor)` triple:
//!
//! * **block type** — 0 for the CLB address space (which also holds the
//!   clock and IOB columns), 1 for BRAM interconnect, 2 for BRAM content;
//! * **major** — the column within the block type. Major 0 of the CLB
//!   space is the center clock column; CLB columns then alternate
//!   right/left moving outwards from the center, followed by the right and
//!   left IOB columns;
//! * **minor** — the frame within the column.
//!
//! Per-column frame counts follow XAPP151: clock 8, CLB 48, IOB 54, BRAM
//! interconnect 27, BRAM content 64. The frame length is
//! `ceil(18 * (clb_rows + 2) / 32)` 32-bit words — 18 configuration bits
//! per CLB row plus one 18-bit pad slot at each end of the column for the
//! top/bottom IOB rows.

use crate::family::Device;
use std::fmt;

/// Frames in the center clock column.
pub const CLOCK_FRAMES: usize = 8;
/// Frames in one CLB column.
pub const CLB_FRAMES: usize = 48;
/// Frames in one IOB column.
pub const IOB_FRAMES: usize = 54;
/// Frames in one BRAM interconnect column.
pub const BRAM_INT_FRAMES: usize = 27;
/// Frames in one BRAM content column.
pub const BRAM_CONTENT_FRAMES: usize = 64;
/// Configuration bits per CLB row within one frame.
pub const BITS_PER_ROW: usize = 18;

/// The three Virtex configuration block types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockType {
    /// CLB address space: clock, CLB and IOB columns.
    Clb,
    /// Block-RAM interconnect columns.
    BramInterconnect,
    /// Block-RAM content columns.
    BramContent,
}

impl BlockType {
    /// Numeric encoding used in the FAR.
    pub fn encode(self) -> u32 {
        match self {
            BlockType::Clb => 0,
            BlockType::BramInterconnect => 1,
            BlockType::BramContent => 2,
        }
    }

    /// Decode from the FAR field.
    pub fn decode(v: u32) -> Option<BlockType> {
        match v {
            0 => Some(BlockType::Clb),
            1 => Some(BlockType::BramInterconnect),
            2 => Some(BlockType::BramContent),
            _ => None,
        }
    }
}

/// What a configuration column configures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// The center global-clock column.
    Clock,
    /// A CLB column; the payload is the zero-based CLB array column it
    /// configures (0 = leftmost).
    Clb(usize),
    /// The right or left IOB column.
    Iob(Side),
    /// BRAM interconnect on the given side.
    BramInterconnect(Side),
    /// BRAM content on the given side.
    BramContent(Side),
}

/// Left or right half of the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Right half (configured first: odd majors).
    Right,
    /// Left half (even majors above 0).
    Left,
}

/// One configuration column: a contiguous run of frames sharing a
/// `(block, major)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigColumn {
    /// What this column configures.
    pub kind: ColumnKind,
    /// Block type of the column.
    pub block: BlockType,
    /// Major address within the block type.
    pub major: u8,
    frames: usize,
    first_frame: usize,
}

impl ConfigColumn {
    /// Number of frames (minor addresses) in this column.
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// Linear index of this column's minor-0 frame within the device's
    /// whole frame sequence.
    pub fn first_frame_index(&self) -> usize {
        self.first_frame
    }
}

/// A fully qualified frame address: `(block, major, minor)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameAddress {
    /// Block type.
    pub block: BlockType,
    /// Column within the block type.
    pub major: u8,
    /// Frame within the column.
    pub minor: u8,
}

impl FrameAddress {
    /// Construct a frame address.
    pub fn new(block: BlockType, major: u8, minor: u8) -> Self {
        FrameAddress {
            block,
            major,
            minor,
        }
    }

    /// Pack into the 32-bit FAR register encoding
    /// (`block[26:25] | major[24:17] | minor[16:9]`).
    pub fn to_word(self) -> u32 {
        (self.block.encode() << 25) | ((self.major as u32) << 17) | ((self.minor as u32) << 9)
    }

    /// Unpack from the 32-bit FAR register encoding.
    pub fn from_word(w: u32) -> Option<Self> {
        let block = BlockType::decode((w >> 25) & 0x3)?;
        Some(FrameAddress {
            block,
            major: ((w >> 17) & 0xff) as u8,
            minor: ((w >> 9) & 0xff) as u8,
        })
    }
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/maj{}/min{}", self.block, self.major, self.minor)
    }
}

/// The complete configuration geometry of one device: the ordered column
/// list plus the frame length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGeometry {
    device: Device,
    columns: Vec<ConfigColumn>,
    frame_words: usize,
    total_frames: usize,
}

impl ConfigGeometry {
    /// Build the configuration geometry for `device`.
    pub fn for_device(device: Device) -> ConfigGeometry {
        let g = device.geometry();
        let frame_words = (BITS_PER_ROW * (g.clb_rows + 2)).div_ceil(32);

        let mut columns = Vec::new();
        // Block type 0, in major order: clock, CLB columns alternating
        // right/left from the center, then right IOB, left IOB.
        columns.push((ColumnKind::Clock, BlockType::Clb, CLOCK_FRAMES));
        let half = g.clb_cols / 2;
        for i in 0..g.clb_cols {
            // Major 1 => first column right of center, major 2 => first
            // column left of center, and so on outwards.
            let clb_col = if i % 2 == 0 {
                half + i / 2
            } else {
                half - 1 - i / 2
            };
            columns.push((ColumnKind::Clb(clb_col), BlockType::Clb, CLB_FRAMES));
        }
        columns.push((ColumnKind::Iob(Side::Right), BlockType::Clb, IOB_FRAMES));
        columns.push((ColumnKind::Iob(Side::Left), BlockType::Clb, IOB_FRAMES));
        // Block type 1: BRAM interconnect, right then left.
        for side in [Side::Right, Side::Left] {
            for _ in 0..g.bram_cols_per_side {
                columns.push((
                    ColumnKind::BramInterconnect(side),
                    BlockType::BramInterconnect,
                    BRAM_INT_FRAMES,
                ));
            }
        }
        // Block type 2: BRAM content, right then left.
        for side in [Side::Right, Side::Left] {
            for _ in 0..g.bram_cols_per_side {
                columns.push((
                    ColumnKind::BramContent(side),
                    BlockType::BramContent,
                    BRAM_CONTENT_FRAMES,
                ));
            }
        }

        // Assign majors within each block type in list order, and linear
        // first-frame indices across the whole sequence.
        let mut majors = [0u8; 3];
        let mut first = 0usize;
        let columns: Vec<ConfigColumn> = columns
            .into_iter()
            .map(|(kind, block, frames)| {
                let major = majors[block.encode() as usize];
                majors[block.encode() as usize] += 1;
                let col = ConfigColumn {
                    kind,
                    block,
                    major,
                    frames,
                    first_frame: first,
                };
                first += frames;
                col
            })
            .collect();

        ConfigGeometry {
            device,
            columns,
            frame_words,
            total_frames: first,
        }
    }

    /// The device this geometry describes.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Frame length in 32-bit words.
    pub fn frame_words(&self) -> usize {
        self.frame_words
    }

    /// Total number of frames in the device.
    pub fn total_frames(&self) -> usize {
        self.total_frames
    }

    /// Total configuration payload in 32-bit words (frames × frame length).
    pub fn total_words(&self) -> usize {
        self.total_frames * self.frame_words
    }

    /// Iterate over the configuration columns in major order.
    pub fn columns(&self) -> impl Iterator<Item = &ConfigColumn> {
        self.columns.iter()
    }

    /// Find the column holding `far`, if the address is valid.
    pub fn column(&self, block: BlockType, major: u8) -> Option<&ConfigColumn> {
        self.columns
            .iter()
            .find(|c| c.block == block && c.major == major)
    }

    /// Map a frame address to the linear frame index used by
    /// [`crate::ConfigMemory`].
    pub fn frame_index(&self, far: FrameAddress) -> Option<usize> {
        let col = self.column(far.block, far.major)?;
        if (far.minor as usize) < col.frames {
            Some(col.first_frame + far.minor as usize)
        } else {
            None
        }
    }

    /// Inverse of [`Self::frame_index`].
    pub fn frame_address(&self, index: usize) -> Option<FrameAddress> {
        if index >= self.total_frames {
            return None;
        }
        // Columns are in increasing first_frame order by construction.
        let at = self.columns.partition_point(|c| c.first_frame <= index);
        let col = &self.columns[at.checked_sub(1)?];
        Some(FrameAddress {
            block: col.block,
            major: col.major,
            minor: (index - col.first_frame) as u8,
        })
    }

    /// The CLB-space major address configuring CLB array column `clb_col`
    /// (0 = leftmost). Returns `None` if out of range.
    pub fn major_for_clb_col(&self, clb_col: usize) -> Option<u8> {
        self.columns.iter().find_map(|c| match c.kind {
            ColumnKind::Clb(cc) if cc == clb_col => Some(c.major),
            _ => None,
        })
    }

    /// The CLB array column configured by CLB-space major `major`, if it is
    /// a CLB column (rather than clock or IOB).
    pub fn clb_col_for_major(&self, major: u8) -> Option<usize> {
        self.column(BlockType::Clb, major)
            .and_then(|c| match c.kind {
                ColumnKind::Clb(cc) => Some(cc),
                _ => None,
            })
    }

    /// Bit offset of CLB row `row` inside a frame (row 0 is the top CLB
    /// row, which sits below the top-IOB pad slot).
    pub fn row_bit_offset(&self, row: usize) -> usize {
        BITS_PER_ROW * (row + 1)
    }

    /// Number of addressable bits in one frame (including pad slots).
    pub fn frame_bits(&self) -> usize {
        self.frame_words * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_words_matches_formula() {
        for d in Device::ALL {
            let cfg = ConfigGeometry::for_device(d);
            let rows = d.geometry().clb_rows;
            assert_eq!(cfg.frame_words(), (18 * (rows + 2)).div_ceil(32));
        }
    }

    #[test]
    fn xcv50_column_census() {
        let cfg = ConfigGeometry::for_device(Device::XCV50);
        let clb_cols = cfg
            .columns()
            .filter(|c| matches!(c.kind, ColumnKind::Clb(_)))
            .count();
        assert_eq!(clb_cols, 24);
        let total = CLOCK_FRAMES
            + 24 * CLB_FRAMES
            + 2 * IOB_FRAMES
            + 2 * BRAM_INT_FRAMES
            + 2 * BRAM_CONTENT_FRAMES;
        assert_eq!(cfg.total_frames(), total);
    }

    #[test]
    fn majors_alternate_right_left_from_center() {
        let cfg = ConfigGeometry::for_device(Device::XCV50); // 24 CLB cols
        assert_eq!(cfg.clb_col_for_major(1), Some(12)); // first right of center
        assert_eq!(cfg.clb_col_for_major(2), Some(11)); // first left of center
        assert_eq!(cfg.clb_col_for_major(3), Some(13));
        assert_eq!(cfg.clb_col_for_major(4), Some(10));
        assert_eq!(cfg.clb_col_for_major(23), Some(23)); // rightmost
        assert_eq!(cfg.clb_col_for_major(24), Some(0)); // leftmost
        assert_eq!(cfg.clb_col_for_major(0), None); // clock column
    }

    #[test]
    fn every_clb_col_has_exactly_one_major() {
        for d in [Device::XCV50, Device::XCV300, Device::XCV1000] {
            let cfg = ConfigGeometry::for_device(d);
            let cols = d.geometry().clb_cols;
            let mut majors: Vec<u8> = (0..cols)
                .map(|c| cfg.major_for_clb_col(c).expect("major exists"))
                .collect();
            majors.sort_unstable();
            majors.dedup();
            assert_eq!(majors.len(), cols);
            for c in 0..cols {
                let m = cfg.major_for_clb_col(c).unwrap();
                assert_eq!(cfg.clb_col_for_major(m), Some(c));
            }
        }
    }

    #[test]
    fn frame_index_roundtrip_exhaustive_xcv50() {
        let cfg = ConfigGeometry::for_device(Device::XCV50);
        for idx in 0..cfg.total_frames() {
            let far = cfg.frame_address(idx).expect("address exists");
            assert_eq!(cfg.frame_index(far), Some(idx));
        }
        assert_eq!(cfg.frame_address(cfg.total_frames()), None);
    }

    #[test]
    fn far_word_roundtrip() {
        let far = FrameAddress::new(BlockType::BramContent, 3, 61);
        assert_eq!(FrameAddress::from_word(far.to_word()), Some(far));
        assert_eq!(FrameAddress::from_word(0x3 << 25), None); // block 3 invalid
    }

    #[test]
    fn invalid_minor_rejected() {
        let cfg = ConfigGeometry::for_device(Device::XCV100);
        let far = FrameAddress::new(BlockType::Clb, 0, CLOCK_FRAMES as u8);
        assert_eq!(cfg.frame_index(far), None);
    }

    #[test]
    fn row_bit_offsets_fit_in_frame() {
        for d in Device::ALL {
            let cfg = ConfigGeometry::for_device(d);
            let rows = d.geometry().clb_rows;
            let last = cfg.row_bit_offset(rows - 1) + BITS_PER_ROW;
            assert!(last <= cfg.frame_bits());
            // Bottom pad slot also fits.
            assert!(cfg.row_bit_offset(rows) + BITS_PER_ROW <= cfg.frame_bits());
        }
    }
}
