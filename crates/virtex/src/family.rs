//! Device family table: the nine members of the original Virtex (XCV) line.
//!
//! Geometry figures (CLB rows × columns) follow the Virtex 2.5 V data sheet.
//! Each CLB holds two slices; each slice holds two 4-input LUTs and two
//! flip-flops, so a device has `rows * cols * 4` LUT/FF pairs.

use std::fmt;
use std::str::FromStr;

/// A member of the Virtex (XCV) device family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Device {
    XCV50,
    XCV100,
    XCV150,
    XCV200,
    XCV300,
    XCV400,
    XCV600,
    XCV800,
    XCV1000,
}

/// Static geometry of one device: the logic-fabric dimensions from which all
/// configuration sizes are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of CLB rows in the array.
    pub clb_rows: usize,
    /// Number of CLB columns in the array.
    pub clb_cols: usize,
    /// Block-RAM columns per side of the die (Virtex has one column of
    /// 4-kbit BRAMs down each of the left and right edges).
    pub bram_cols_per_side: usize,
    /// BRAM cells in one BRAM column (one per 4 CLB rows).
    pub brams_per_col: usize,
    /// User I/O pads along each edge of the die.
    pub iobs_per_edge: usize,
}

impl Device {
    /// All devices, smallest first. Useful for parameter sweeps.
    pub const ALL: [Device; 9] = [
        Device::XCV50,
        Device::XCV100,
        Device::XCV150,
        Device::XCV200,
        Device::XCV300,
        Device::XCV400,
        Device::XCV600,
        Device::XCV800,
        Device::XCV1000,
    ];

    /// Logic-fabric geometry for this device.
    pub fn geometry(self) -> Geometry {
        let (clb_rows, clb_cols) = match self {
            Device::XCV50 => (16, 24),
            Device::XCV100 => (20, 30),
            Device::XCV150 => (24, 36),
            Device::XCV200 => (28, 42),
            Device::XCV300 => (32, 48),
            Device::XCV400 => (40, 60),
            Device::XCV600 => (48, 72),
            Device::XCV800 => (56, 84),
            Device::XCV1000 => (64, 96),
        };
        Geometry {
            clb_rows,
            clb_cols,
            bram_cols_per_side: 1,
            brams_per_col: clb_rows / 4,
            iobs_per_edge: clb_cols * 2,
        }
    }

    /// JTAG/configuration IDCODE for the device (model-stable synthetic
    /// values in the Xilinx numbering style).
    pub fn idcode(self) -> u32 {
        match self {
            Device::XCV50 => 0x0061_0093,
            Device::XCV100 => 0x0061_4093,
            Device::XCV150 => 0x0061_8093,
            Device::XCV200 => 0x0061_C093,
            Device::XCV300 => 0x0062_0093,
            Device::XCV400 => 0x0062_8093,
            Device::XCV600 => 0x0063_0093,
            Device::XCV800 => 0x0063_8093,
            Device::XCV1000 => 0x0064_0093,
        }
    }

    /// Look a device up by IDCODE.
    pub fn from_idcode(idcode: u32) -> Option<Device> {
        Device::ALL.into_iter().find(|d| d.idcode() == idcode)
    }

    /// Marketing name, e.g. `"XCV100"`.
    pub fn name(self) -> &'static str {
        match self {
            Device::XCV50 => "XCV50",
            Device::XCV100 => "XCV100",
            Device::XCV150 => "XCV150",
            Device::XCV200 => "XCV200",
            Device::XCV300 => "XCV300",
            Device::XCV400 => "XCV400",
            Device::XCV600 => "XCV600",
            Device::XCV800 => "XCV800",
            Device::XCV1000 => "XCV1000",
        }
    }

    /// Total slices (2 per CLB).
    pub fn slice_count(self) -> usize {
        let g = self.geometry();
        g.clb_rows * g.clb_cols * 2
    }

    /// Total 4-input LUTs (2 per slice).
    pub fn lut_count(self) -> usize {
        self.slice_count() * 2
    }

    /// Configuration geometry (columns, frames, frame length) for this
    /// device. Convenience for [`crate::ConfigGeometry::for_device`].
    pub fn config_geometry(self) -> crate::ConfigGeometry {
        crate::ConfigGeometry::for_device(self)
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown device name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDevice(pub String);

impl fmt::Display for UnknownDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown Virtex device: {:?}", self.0)
    }
}

impl std::error::Error for UnknownDevice {}

impl FromStr for Device {
    type Err = UnknownDevice;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let up = s.to_ascii_uppercase();
        // Accept both plain names and package-qualified names such as
        // "XCV100-4BG256" as they appear in UCF/XDL files.
        let base = up.split('-').next().unwrap_or(&up);
        Device::ALL
            .into_iter()
            .find(|d| d.name() == base)
            .ok_or_else(|| UnknownDevice(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_monotonic_in_device_size() {
        let mut prev = 0;
        for d in Device::ALL {
            let g = d.geometry();
            let cells = g.clb_rows * g.clb_cols;
            assert!(cells > prev, "{d} should be larger than its predecessor");
            prev = cells;
        }
    }

    #[test]
    fn xcv1000_has_one_million_gate_scale_fabric() {
        let g = Device::XCV1000.geometry();
        assert_eq!(g.clb_rows, 64);
        assert_eq!(g.clb_cols, 96);
        assert_eq!(Device::XCV1000.lut_count(), 64 * 96 * 4);
    }

    #[test]
    fn idcodes_are_unique_and_roundtrip() {
        for d in Device::ALL {
            assert_eq!(Device::from_idcode(d.idcode()), Some(d));
        }
        let mut codes: Vec<u32> = Device::ALL.iter().map(|d| d.idcode()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Device::ALL.len());
    }

    #[test]
    fn parse_accepts_package_suffix_and_case() {
        assert_eq!("xcv100".parse::<Device>().unwrap(), Device::XCV100);
        assert_eq!("XCV300-4BG432".parse::<Device>().unwrap(), Device::XCV300);
        assert!("XCV999".parse::<Device>().is_err());
    }

    #[test]
    fn brams_scale_with_rows() {
        assert_eq!(Device::XCV50.geometry().brams_per_col, 4);
        assert_eq!(Device::XCV1000.geometry().brams_per_col, 16);
    }
}
