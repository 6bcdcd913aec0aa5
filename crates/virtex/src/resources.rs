//! Typed configurable resources: the per-slice and per-IOB settings that a
//! JBits-style API reads and writes.
//!
//! The set mirrors the attributes visible in the paper's XDL sample
//! (`CKINV`, `DYMUX`, `G:…:#LUT:D=…`, `CEMUX`, `SRMUX`, `GYMUX`,
//! `SYNC_ATTR`, `SRFFMUX`, `INITY`, `FFY`, …): each resource is a small
//! bit-field with a documented width, and the `jbits` crate assigns every
//! `(tile, resource)` pair a fixed position inside the tile's
//! configuration frames.

use crate::grid::SliceId;
use std::fmt;

/// The two 4-input lookup tables in a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LutId {
    /// The F LUT (drives X / XQ).
    F,
    /// The G LUT (drives Y / YQ).
    G,
}

impl LutId {
    /// Both LUTs, F first.
    pub const ALL: [LutId; 2] = [LutId::F, LutId::G];

    /// Numeric index (F = 0, G = 1).
    pub fn index(self) -> usize {
        match self {
            LutId::F => 0,
            LutId::G => 1,
        }
    }
}

impl fmt::Display for LutId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LutId::F => f.write_str("F"),
            LutId::G => f.write_str("G"),
        }
    }
}

/// Generic multiplexer/attribute settings, shared by several resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MuxSetting {
    /// The mux is off / the attribute is at its default.
    Off,
    /// The mux selects its primary input (e.g. `CEMUX::CE`).
    Primary,
    /// The mux selects its secondary input (e.g. output of the other LUT).
    Secondary,
    /// Constant-one selection (e.g. `CEMUX::1`).
    One,
}

impl MuxSetting {
    /// Two-bit encoding.
    pub fn encode(self) -> u32 {
        match self {
            MuxSetting::Off => 0,
            MuxSetting::Primary => 1,
            MuxSetting::Secondary => 2,
            MuxSetting::One => 3,
        }
    }

    /// Decode from the two-bit field.
    pub fn decode(v: u32) -> Option<MuxSetting> {
        match v {
            0 => Some(MuxSetting::Off),
            1 => Some(MuxSetting::Primary),
            2 => Some(MuxSetting::Secondary),
            3 => Some(MuxSetting::One),
            _ => None,
        }
    }
}

/// A configurable setting within one slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceResource {
    /// 16-bit truth table of a LUT. Bit `i` is the output for input
    /// pattern `i` (`F1` = LSB of the pattern).
    Lut(LutId),
    /// Clock inversion (`CKINV`), 1 bit.
    CkInv,
    /// Clock-enable mux (`CEMUX`): off / CE pin / — / constant 1. 2 bits.
    CeMux,
    /// Set-reset mux (`SRMUX`): off / SR pin / — / constant 1. 2 bits.
    SrMux,
    /// BX input mux, 2 bits.
    BxMux,
    /// BY input mux, 2 bits.
    ByMux,
    /// FFX data mux (`DXMUX`): 0 = F-LUT output, 1 = BX bypass. 1 bit.
    DxMux,
    /// FFY data mux (`DYMUX`): 0 = G-LUT output, 1 = BY bypass. 1 bit.
    DyMux,
    /// X output mux (`FXMUX`): off / F LUT / bypass / carry. 2 bits.
    FxMux,
    /// Y output mux (`GYMUX`): off / G LUT / bypass / carry. 2 bits.
    GyMux,
    /// Synchronous vs asynchronous set/reset (`SYNC_ATTR`), 1 bit
    /// (1 = SYNC).
    SyncAttr,
    /// Set/reset polarity select (`SRFFMUX`), 1 bit.
    SrFfMux,
    /// FFX initial/reset state (`INITX`), 1 bit (1 = HIGH).
    InitX,
    /// FFY initial/reset state (`INITY`), 1 bit (1 = HIGH).
    InitY,
    /// FFX present/enabled, 1 bit.
    FfX,
    /// FFY present/enabled, 1 bit.
    FfY,
    /// FFX latch mode (vs edge-triggered), 1 bit.
    LatchX,
    /// FFY latch mode, 1 bit.
    LatchY,
}

impl SliceResource {
    /// Every slice resource, in the canonical order used for configuration
    /// bit assignment.
    pub const ALL: [SliceResource; 19] = [
        SliceResource::Lut(LutId::F),
        SliceResource::Lut(LutId::G),
        SliceResource::CkInv,
        SliceResource::CeMux,
        SliceResource::SrMux,
        SliceResource::BxMux,
        SliceResource::ByMux,
        SliceResource::DxMux,
        SliceResource::DyMux,
        SliceResource::FxMux,
        SliceResource::GyMux,
        SliceResource::SyncAttr,
        SliceResource::SrFfMux,
        SliceResource::InitX,
        SliceResource::InitY,
        SliceResource::FfX,
        SliceResource::FfY,
        SliceResource::LatchX,
        SliceResource::LatchY,
    ];

    /// Width of this resource's bit-field.
    pub fn bit_width(self) -> usize {
        match self {
            SliceResource::Lut(_) => 16,
            SliceResource::CeMux
            | SliceResource::SrMux
            | SliceResource::BxMux
            | SliceResource::ByMux
            | SliceResource::FxMux
            | SliceResource::GyMux => 2,
            _ => 1,
        }
    }

    /// XDL attribute name for this resource (as it appears in `cfg`
    /// strings).
    pub fn xdl_name(self) -> &'static str {
        match self {
            SliceResource::Lut(LutId::F) => "F",
            SliceResource::Lut(LutId::G) => "G",
            SliceResource::CkInv => "CKINV",
            SliceResource::CeMux => "CEMUX",
            SliceResource::SrMux => "SRMUX",
            SliceResource::BxMux => "BXMUX",
            SliceResource::ByMux => "BYMUX",
            SliceResource::DxMux => "DXMUX",
            SliceResource::DyMux => "DYMUX",
            SliceResource::FxMux => "FXMUX",
            SliceResource::GyMux => "GYMUX",
            SliceResource::SyncAttr => "SYNC_ATTR",
            SliceResource::SrFfMux => "SRFFMUX",
            SliceResource::InitX => "INITX",
            SliceResource::InitY => "INITY",
            SliceResource::FfX => "FFX",
            SliceResource::FfY => "FFY",
            SliceResource::LatchX => "LATCHX",
            SliceResource::LatchY => "LATCHY",
        }
    }
}

/// A slice resource qualified by which slice it lives in: the unit of
/// JBits `set`/`get` calls for logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClbResource {
    /// Which slice of the CLB.
    pub slice: SliceId,
    /// Which setting within the slice.
    pub res: SliceResource,
}

impl ClbResource {
    /// Construct a qualified resource.
    pub fn new(slice: SliceId, res: SliceResource) -> Self {
        ClbResource { slice, res }
    }

    /// Width of the bit-field.
    pub fn bit_width(self) -> usize {
        self.res.bit_width()
    }

    /// Enumerate every `(slice, resource)` pair in canonical order.
    pub fn all() -> impl Iterator<Item = ClbResource> {
        SliceId::ALL.into_iter().flat_map(|s| {
            SliceResource::ALL
                .into_iter()
                .map(move |r| ClbResource::new(s, r))
        })
    }

    /// Total configuration bits used by slice logic in one CLB.
    pub fn total_bits() -> usize {
        ClbResource::all().map(|r| r.bit_width()).sum()
    }
}

/// A configurable setting within one IOB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IobResource {
    /// Input path enabled, 1 bit.
    InputEnable,
    /// Output driver enabled, 1 bit.
    OutputEnable,
    /// Output slew rate (0 = slow, 1 = fast), 1 bit.
    Slew,
    /// Pull resistor mode: 0 none, 1 pull-up, 2 pull-down, 3 keeper.
    /// 2 bits.
    PullMode,
    /// Input flip-flop enabled, 1 bit.
    InputFf,
    /// Output flip-flop enabled, 1 bit.
    OutputFf,
}

impl IobResource {
    /// Every IOB resource in canonical order.
    pub const ALL: [IobResource; 6] = [
        IobResource::InputEnable,
        IobResource::OutputEnable,
        IobResource::Slew,
        IobResource::PullMode,
        IobResource::InputFf,
        IobResource::OutputFf,
    ];

    /// Width of the bit-field.
    pub fn bit_width(self) -> usize {
        match self {
            IobResource::PullMode => 2,
            _ => 1,
        }
    }
}

/// A resource value: an unsigned integer constrained to the resource's
/// width. 16 bits (a LUT truth table) is the widest field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceValue {
    bits: u32,
    width: usize,
}

impl ResourceValue {
    /// Construct a value, masking to `width` bits. Panics if `width > 32`.
    pub fn new(bits: u32, width: usize) -> Self {
        assert!(width <= 32, "resource fields are at most 32 bits");
        let mask = if width == 32 { !0 } else { (1u32 << width) - 1 };
        ResourceValue {
            bits: bits & mask,
            width,
        }
    }

    /// A single-bit value.
    pub fn bit(b: bool) -> Self {
        ResourceValue::new(b as u32, 1)
    }

    /// A 16-bit LUT truth table.
    pub fn lut(table: u16) -> Self {
        ResourceValue::new(table as u32, 16)
    }

    /// The raw bits.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The field width.
    pub fn width(self) -> usize {
        self.width
    }

    /// The value as a bool (for 1-bit fields).
    pub fn as_bool(self) -> bool {
        self.bits != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_logic_fits_generous_budget() {
        // 2 slices worth of logic must fit well inside one CLB's share of
        // the configuration column (48 frames x 18 bits = 864 bits).
        let total = ClbResource::total_bits();
        assert!(total < 200, "slice logic uses {total} bits");
        assert_eq!(
            total,
            2 * (16 + 16 + 1 + 2 + 2 + 2 + 2 + 1 + 1 + 2 + 2 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1)
        );
    }

    #[test]
    fn resource_enumeration_is_stable_and_unique() {
        let all: Vec<ClbResource> = ClbResource::all().collect();
        assert_eq!(all.len(), 38);
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert_eq!(
            all[0],
            ClbResource::new(SliceId::S0, SliceResource::Lut(LutId::F))
        );
    }

    #[test]
    fn value_masks_to_width() {
        let v = ResourceValue::new(0xffff_ffff, 2);
        assert_eq!(v.bits(), 0b11);
        assert_eq!(ResourceValue::bit(true).bits(), 1);
        assert_eq!(ResourceValue::lut(0xCAFE).bits(), 0xCAFE);
        assert_eq!(ResourceValue::lut(0xCAFE).width(), 16);
    }

    #[test]
    fn mux_setting_roundtrip() {
        for m in [
            MuxSetting::Off,
            MuxSetting::Primary,
            MuxSetting::Secondary,
            MuxSetting::One,
        ] {
            assert_eq!(MuxSetting::decode(m.encode()), Some(m));
        }
        assert_eq!(MuxSetting::decode(4), None);
    }

    #[test]
    fn xdl_names_match_paper_sample() {
        // Attribute names that appear in the paper's example cfg string.
        for (r, name) in [
            (SliceResource::CkInv, "CKINV"),
            (SliceResource::DyMux, "DYMUX"),
            (SliceResource::CeMux, "CEMUX"),
            (SliceResource::SrMux, "SRMUX"),
            (SliceResource::GyMux, "GYMUX"),
            (SliceResource::SyncAttr, "SYNC_ATTR"),
            (SliceResource::SrFfMux, "SRFFMUX"),
            (SliceResource::InitY, "INITY"),
            (SliceResource::FfY, "FFY"),
        ] {
            assert_eq!(r.xdl_name(), name);
        }
    }
}
