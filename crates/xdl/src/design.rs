//! The in-memory design database: the NCD equivalent that XDL text
//! serializes.

use std::collections::HashMap;
use virtex::{Device, IobCoord, Pip, SliceCoord};

/// What kind of primitive an instance occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceKind {
    /// A CLB slice (`"SLICE"` in XDL).
    Slice,
    /// An I/O block (`"IOB"`).
    Iob,
}

impl InstanceKind {
    /// XDL primitive name.
    pub fn xdl_name(self) -> &'static str {
        match self {
            InstanceKind::Slice => "SLICE",
            InstanceKind::Iob => "IOB",
        }
    }
}

/// Where an instance sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Not yet placed.
    Unplaced,
    /// Placed on a slice site.
    Slice(SliceCoord),
    /// Placed on an IOB site.
    Iob(IobCoord),
}

impl Placement {
    /// The site name, if placed.
    pub fn site_name(&self) -> Option<String> {
        match self {
            Placement::Unplaced => None,
            Placement::Slice(s) => Some(s.site_name()),
            Placement::Iob(io) => Some(io.site_name()),
        }
    }
}

/// One `attr:logical_name:value` triple from a `cfg` string, e.g.
/// `G:u1/C307:#LUT:D=(A1@A4)` or `CKINV::1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgEntry {
    /// Physical attribute name (`CKINV`, `G`, `CEMUX`, …).
    pub attr: String,
    /// Logical (netlist) name bound to the attribute, often empty.
    pub logical: String,
    /// The value, everything after the second `:` (may itself contain
    /// `:`, as in `#LUT:D=(A1@A4)`).
    pub value: String,
}

impl CfgEntry {
    /// Construct an entry.
    pub fn new(
        attr: impl Into<String>,
        logical: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        CfgEntry {
            attr: attr.into(),
            logical: logical.into(),
            value: value.into(),
        }
    }

    /// Parse one `attr:logical:value` token.
    pub fn parse(token: &str) -> Option<CfgEntry> {
        let (attr, rest) = token.split_once(':')?;
        let (logical, value) = rest.split_once(':')?;
        Some(CfgEntry::new(attr, logical, value))
    }

    /// Serialize back to the `attr:logical:value` form.
    pub fn to_token(&self) -> String {
        format!("{}:{}:{}", self.attr, self.logical, self.value)
    }
}

/// A placed (or placeable) primitive instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Hierarchical instance name, e.g. `u1/nrz`.
    pub name: String,
    /// Primitive kind.
    pub kind: InstanceKind,
    /// Placement state.
    pub placement: Placement,
    /// Configuration attributes.
    pub cfg: Vec<CfgEntry>,
}

impl Instance {
    /// Look up a cfg attribute by physical name.
    pub fn cfg_value(&self, attr: &str) -> Option<&str> {
        self.cfg
            .iter()
            .find(|e| e.attr == attr)
            .map(|e| e.value.as_str())
    }

    /// Set (or replace) a cfg attribute.
    pub fn set_cfg(&mut self, attr: &str, logical: &str, value: &str) {
        if let Some(e) = self.cfg.iter_mut().find(|e| e.attr == attr) {
            e.logical = logical.to_string();
            e.value = value.to_string();
        } else {
            self.cfg.push(CfgEntry::new(attr, logical, value));
        }
    }
}

/// A reference to an instance pin: `(instance name, pin name)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// Instance name.
    pub inst: String,
    /// Pin name on the primitive (`X`, `F1`, `PAD`, …).
    pub pin: String,
}

impl PinRef {
    /// Construct a pin reference.
    pub fn new(inst: impl Into<String>, pin: impl Into<String>) -> Self {
        PinRef {
            inst: inst.into(),
            pin: pin.into(),
        }
    }
}

/// Net classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Ordinary signal net.
    Wire,
    /// A clock net (routed on the global clock tree).
    Clock,
    /// Constant power/ground (not routed through general fabric here).
    Power,
}

/// A net: one driver, any number of loads, and the PIPs of its route.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Net kind.
    pub kind: NetKind,
    /// Driving pin (absent for e.g. unconnected stubs).
    pub outpin: Option<PinRef>,
    /// Load pins.
    pub inpins: Vec<PinRef>,
    /// Routed programmable interconnect points, in route order.
    pub pips: Vec<Pip>,
}

impl Net {
    /// An unrouted net with the given endpoints.
    pub fn new(name: impl Into<String>, kind: NetKind) -> Self {
        Net {
            name: name.into(),
            kind,
            outpin: None,
            inpins: Vec::new(),
            pips: Vec::new(),
        }
    }

    /// Whether the net carries any routing.
    pub fn is_routed(&self) -> bool {
        !self.pips.is_empty()
    }
}

/// The design database: the in-memory NCD.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Design name.
    pub name: String,
    /// Target device.
    pub device: Device,
    /// All instances.
    pub instances: Vec<Instance>,
    /// All nets.
    pub nets: Vec<Net>,
}

impl Design {
    /// An empty design for `device`.
    pub fn new(name: impl Into<String>, device: Device) -> Self {
        Design {
            name: name.into(),
            device,
            instances: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Find an instance by name.
    pub fn instance(&self, name: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Find an instance by name, mutably.
    pub fn instance_mut(&mut self, name: &str) -> Option<&mut Instance> {
        self.instances.iter_mut().find(|i| i.name == name)
    }

    /// Find a net by name.
    pub fn net(&self, name: &str) -> Option<&Net> {
        self.nets.iter().find(|n| n.name == name)
    }

    /// Instance name → index map (for bulk lookups).
    pub fn instance_index(&self) -> HashMap<&str, usize> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (inst.name.as_str(), i))
            .collect()
    }

    /// Every placed slice site in use.
    pub fn occupied_slices(&self) -> impl Iterator<Item = (&Instance, SliceCoord)> {
        self.instances.iter().filter_map(|i| match i.placement {
            Placement::Slice(s) => Some((i, s)),
            _ => None,
        })
    }

    /// Every placed IOB site in use.
    pub fn occupied_iobs(&self) -> impl Iterator<Item = (&Instance, IobCoord)> {
        self.instances.iter().filter_map(|i| match i.placement {
            Placement::Iob(io) => Some((i, io)),
            _ => None,
        })
    }

    /// Whether every instance is placed.
    pub fn fully_placed(&self) -> bool {
        !self
            .instances
            .iter()
            .any(|i| matches!(i.placement, Placement::Unplaced))
    }

    /// Whether every multi-terminal non-power net is routed.
    pub fn fully_routed(&self) -> bool {
        self.nets.iter().all(|n| {
            n.kind == NetKind::Power || n.outpin.is_none() || n.inpins.is_empty() || n.is_routed()
        })
    }

    /// The set of CLB columns occupied by placed slices — what JPG turns
    /// into the partial bitstream's column set.
    pub fn occupied_clb_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .occupied_slices()
            .map(|(_, s)| s.tile.col as usize)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{SliceId, TileCoord};

    fn sample() -> Design {
        let mut d = Design::new("top", Device::XCV100);
        d.instances.push(Instance {
            name: "u1/nrz".into(),
            kind: InstanceKind::Slice,
            placement: Placement::Slice(SliceCoord::new(TileCoord::new(2, 22), SliceId::S0)),
            cfg: vec![
                CfgEntry::new("CKINV", "", "1"),
                CfgEntry::new("G", "u1/C307", "#LUT:D=(A1@A4)"),
            ],
        });
        d.nets.push(Net {
            name: "u1/nrz".into(),
            kind: NetKind::Wire,
            outpin: Some(PinRef::new("u1/nrz", "Y")),
            inpins: vec![PinRef::new("u1/nrz", "G1")],
            pips: vec![],
        });
        d
    }

    #[test]
    fn cfg_entry_parse_paper_tokens() {
        let e = CfgEntry::parse("CKINV::1").unwrap();
        assert_eq!(
            (e.attr.as_str(), e.logical.as_str(), e.value.as_str()),
            ("CKINV", "", "1")
        );
        let e = CfgEntry::parse("G:u1/C307:#LUT:D=(A1@A4)").unwrap();
        assert_eq!(e.attr, "G");
        assert_eq!(e.logical, "u1/C307");
        assert_eq!(e.value, "#LUT:D=(A1@A4)");
        assert_eq!(e.to_token(), "G:u1/C307:#LUT:D=(A1@A4)");
        assert_eq!(CfgEntry::parse("noseparator"), None);
    }

    #[test]
    fn lookup_and_mutation() {
        let mut d = sample();
        assert!(d.instance("u1/nrz").is_some());
        assert!(d.instance("missing").is_none());
        assert_eq!(d.instance("u1/nrz").unwrap().cfg_value("CKINV"), Some("1"));
        d.instance_mut("u1/nrz").unwrap().set_cfg("CKINV", "", "0");
        assert_eq!(d.instance("u1/nrz").unwrap().cfg_value("CKINV"), Some("0"));
        d.instance_mut("u1/nrz")
            .unwrap()
            .set_cfg("FFY", "u1/nrz_reg", "#FF");
        assert_eq!(d.instance("u1/nrz").unwrap().cfg_value("FFY"), Some("#FF"));
    }

    #[test]
    fn placement_and_routing_status() {
        let mut d = sample();
        assert!(d.fully_placed());
        assert!(!d.fully_routed(), "net has endpoints but no pips");
        assert_eq!(d.occupied_clb_columns(), vec![22]);
        d.instances.push(Instance {
            name: "u2".into(),
            kind: InstanceKind::Slice,
            placement: Placement::Unplaced,
            cfg: vec![],
        });
        assert!(!d.fully_placed());
    }
}
