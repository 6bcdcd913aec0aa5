//! Design-rule checks over the design database — the sanity pass JPG
//! runs before translating a module onto a live device, where a bad
//! database would mean a bad bitstream.

use crate::design::{Design, InstanceKind, NetKind, Placement};
use std::collections::{HashMap, HashSet};
use std::fmt;
use virtex::routing::PADS_PER_IOB;

/// One DRC violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two instances share a site.
    SiteOverlap {
        /// Site name.
        site: String,
        /// The two instances.
        instances: (String, String),
    },
    /// Placement outside the device or on the wrong tile type.
    BadSite {
        /// Instance.
        instance: String,
        /// Why.
        reason: String,
    },
    /// A net references a missing instance.
    DanglingPin {
        /// Net.
        net: String,
        /// The missing instance.
        instance: String,
    },
    /// A pin name that the primitive does not have.
    BadPinName {
        /// Net.
        net: String,
        /// Instance.
        instance: String,
        /// Pin.
        pin: String,
    },
    /// A net with loads but no driver.
    Undriven {
        /// Net.
        net: String,
    },
    /// Two nets drive the same input pin.
    DoublyDriven {
        /// Instance.
        instance: String,
        /// Pin.
        pin: String,
        /// The two nets.
        nets: (String, String),
    },
    /// A LUT equation in a cfg string does not parse.
    BadLutEquation {
        /// Instance.
        instance: String,
        /// Attribute (`F` or `G`).
        attr: String,
        /// Error text.
        error: String,
    },
    /// Duplicate instance names.
    DuplicateInstance {
        /// The name.
        name: String,
    },
    /// Duplicate net names.
    DuplicateNet {
        /// The name.
        name: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SiteOverlap { site, instances } => write!(
                f,
                "site {site} claimed by both {:?} and {:?}",
                instances.0, instances.1
            ),
            Violation::BadSite { instance, reason } => {
                write!(f, "instance {instance:?}: {reason}")
            }
            Violation::DanglingPin { net, instance } => {
                write!(f, "net {net:?} references missing instance {instance:?}")
            }
            Violation::BadPinName { net, instance, pin } => {
                write!(f, "net {net:?}: {instance:?} has no pin {pin:?}")
            }
            Violation::Undriven { net } => write!(f, "net {net:?} has loads but no driver"),
            Violation::DoublyDriven {
                instance,
                pin,
                nets,
            } => write!(
                f,
                "pin {instance}/{pin} driven by both {:?} and {:?}",
                nets.0, nets.1
            ),
            Violation::BadLutEquation {
                instance,
                attr,
                error,
            } => write!(f, "instance {instance:?}: bad {attr} equation: {error}"),
            Violation::DuplicateInstance { name } => {
                write!(f, "duplicate instance name {name:?}")
            }
            Violation::DuplicateNet { name } => write!(f, "duplicate net name {name:?}"),
        }
    }
}

const SLICE_PINS: [&str; 17] = [
    "F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "BX", "BY", "CE", "SR", "CLK", "X", "Y", "XQ",
    "YQ",
];
const SLICE_OUT_PINS: [&str; 4] = ["X", "Y", "XQ", "YQ"];
const IOB_PINS: [&str; 2] = ["I", "O"];

/// Run all checks; returns every violation found (empty = clean).
pub fn check(design: &Design) -> Vec<Violation> {
    let mut out = Vec::new();

    // Name uniqueness.
    let mut names = HashSet::new();
    for inst in &design.instances {
        if !names.insert(inst.name.as_str()) {
            out.push(Violation::DuplicateInstance {
                name: inst.name.clone(),
            });
        }
    }
    let mut net_names = HashSet::new();
    for net in &design.nets {
        if !net_names.insert(net.name.as_str()) {
            out.push(Violation::DuplicateNet {
                name: net.name.clone(),
            });
        }
    }

    // Placement legality + overlaps.
    let mut sites: HashMap<String, &str> = HashMap::new();
    for inst in &design.instances {
        match (&inst.placement, inst.kind) {
            (Placement::Unplaced, _) => {}
            (Placement::Slice(s), InstanceKind::Slice) => {
                if !s.tile.is_clb(design.device) {
                    out.push(Violation::BadSite {
                        instance: inst.name.clone(),
                        reason: format!("{} is not a CLB tile of {}", s.tile, design.device),
                    });
                }
                if let Some(prev) = sites.insert(s.site_name(), &inst.name) {
                    out.push(Violation::SiteOverlap {
                        site: s.site_name(),
                        instances: (prev.to_string(), inst.name.clone()),
                    });
                }
            }
            (Placement::Iob(io), InstanceKind::Iob) => {
                if !io.tile.is_iob(design.device) {
                    out.push(Violation::BadSite {
                        instance: inst.name.clone(),
                        reason: format!("{} is not an IOB tile of {}", io.tile, design.device),
                    });
                }
                if usize::from(io.pad) >= PADS_PER_IOB {
                    out.push(Violation::BadSite {
                        instance: inst.name.clone(),
                        reason: format!(
                            "pad {} out of range: an IOB tile has pads 0..{PADS_PER_IOB}",
                            io.pad
                        ),
                    });
                }
                if let Some(prev) = sites.insert(io.site_name(), &inst.name) {
                    out.push(Violation::SiteOverlap {
                        site: io.site_name(),
                        instances: (prev.to_string(), inst.name.clone()),
                    });
                }
            }
            (_, _) => out.push(Violation::BadSite {
                instance: inst.name.clone(),
                reason: "placement kind does not match primitive kind".into(),
            }),
        }
        // LUT equations parse.
        for attr in ["F", "G"] {
            if let Some(v) = inst.cfg_value(attr) {
                if let Err(e) = crate::lutexpr::expr_to_truth(v) {
                    out.push(Violation::BadLutEquation {
                        instance: inst.name.clone(),
                        attr: attr.to_string(),
                        error: e.to_string(),
                    });
                }
            }
        }
    }

    // Net structure.
    let index = design.instance_index();
    let mut pin_driver: HashMap<(String, String), &str> = HashMap::new();
    for net in &design.nets {
        if net.outpin.is_none() && !net.inpins.is_empty() && net.kind != NetKind::Power {
            out.push(Violation::Undriven {
                net: net.name.clone(),
            });
        }
        for (is_out, pin) in net
            .outpin
            .iter()
            .map(|p| (true, p))
            .chain(net.inpins.iter().map(|p| (false, p)))
        {
            let Some(&ii) = index.get(pin.inst.as_str()) else {
                out.push(Violation::DanglingPin {
                    net: net.name.clone(),
                    instance: pin.inst.clone(),
                });
                continue;
            };
            let kind = design.instances[ii].kind;
            let legal: &[&str] = match kind {
                InstanceKind::Slice => &SLICE_PINS,
                InstanceKind::Iob => &IOB_PINS,
            };
            if !legal.contains(&pin.pin.as_str()) {
                out.push(Violation::BadPinName {
                    net: net.name.clone(),
                    instance: pin.inst.clone(),
                    pin: pin.pin.clone(),
                });
                continue;
            }
            // Direction sanity: outpin must be an output-capable pin;
            // inpins input-capable.
            let is_output_pin = match kind {
                InstanceKind::Slice => SLICE_OUT_PINS.contains(&pin.pin.as_str()),
                InstanceKind::Iob => pin.pin == "I",
            };
            if is_out != is_output_pin {
                out.push(Violation::BadPinName {
                    net: net.name.clone(),
                    instance: pin.inst.clone(),
                    pin: format!("{} (wrong direction)", pin.pin),
                });
            }
            if !is_out {
                if let Some(prev) =
                    pin_driver.insert((pin.inst.clone(), pin.pin.clone()), &net.name)
                {
                    if prev != net.name {
                        out.push(Violation::DoublyDriven {
                            instance: pin.inst.clone(),
                            pin: pin.pin.clone(),
                            nets: (prev.to_string(), net.name.clone()),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{CfgEntry, Instance, Net, PinRef};
    use virtex::{Device, SliceCoord, SliceId, TileCoord};

    fn placed_slice(name: &str, row: i32, col: i32, slice: SliceId) -> Instance {
        Instance {
            name: name.into(),
            kind: InstanceKind::Slice,
            placement: Placement::Slice(SliceCoord::new(TileCoord::new(row, col), slice)),
            cfg: vec![],
        }
    }

    #[test]
    fn clean_design_passes() {
        let mut d = Design::new("t", Device::XCV50);
        d.instances.push(placed_slice("a", 1, 1, SliceId::S0));
        d.instances.push(placed_slice("b", 1, 1, SliceId::S1));
        let mut n = Net::new("n", NetKind::Wire);
        n.outpin = Some(PinRef::new("a", "X"));
        n.inpins.push(PinRef::new("b", "F1"));
        d.nets.push(n);
        assert_eq!(check(&d), vec![]);
    }

    #[test]
    fn detects_overlap_and_offgrid() {
        let mut d = Design::new("t", Device::XCV50);
        d.instances.push(placed_slice("a", 1, 1, SliceId::S0));
        d.instances.push(placed_slice("b", 1, 1, SliceId::S0)); // overlap
        d.instances.push(placed_slice("c", 99, 1, SliceId::S0)); // off grid
        let v = check(&d);
        assert!(v.iter().any(|x| matches!(x, Violation::SiteOverlap { .. })));
        assert!(v.iter().any(|x| matches!(x, Violation::BadSite { .. })));
    }

    #[test]
    fn detects_out_of_range_pad() {
        let mut d = Design::new("t", Device::XCV50);
        let ring = TileCoord::new(4, -1);
        for (name, pad) in [("ok", 3), ("p4", 4), ("p200", 200)] {
            d.instances.push(Instance {
                name: name.into(),
                kind: InstanceKind::Iob,
                placement: Placement::Iob(virtex::IobCoord::new(ring, pad)),
                cfg: vec![],
            });
        }
        let bad: Vec<String> = check(&d)
            .into_iter()
            .filter_map(|v| match v {
                Violation::BadSite { instance, .. } => Some(instance),
                _ => None,
            })
            .collect();
        assert_eq!(bad, ["p4", "p200"]);
    }

    #[test]
    fn detects_net_problems() {
        let mut d = Design::new("t", Device::XCV50);
        d.instances.push(placed_slice("a", 1, 1, SliceId::S0));
        // Undriven net with a load.
        let mut n1 = Net::new("n1", NetKind::Wire);
        n1.inpins.push(PinRef::new("a", "F1"));
        d.nets.push(n1);
        // Dangling reference.
        let mut n2 = Net::new("n2", NetKind::Wire);
        n2.outpin = Some(PinRef::new("ghost", "X"));
        n2.inpins.push(PinRef::new("a", "F2"));
        d.nets.push(n2);
        // Bad pin name + wrong direction.
        let mut n3 = Net::new("n3", NetKind::Wire);
        n3.outpin = Some(PinRef::new("a", "F1")); // input used as driver
        n3.inpins.push(PinRef::new("a", "NOPE"));
        d.nets.push(n3);
        // Double-driven pin.
        let mut n4 = Net::new("n4", NetKind::Wire);
        n4.outpin = Some(PinRef::new("a", "X"));
        n4.inpins.push(PinRef::new("a", "F2")); // also driven by n2
        d.nets.push(n4);

        let v = check(&d);
        assert!(v.iter().any(|x| matches!(x, Violation::Undriven { .. })));
        assert!(v.iter().any(|x| matches!(x, Violation::DanglingPin { .. })));
        assert!(v.iter().any(|x| matches!(x, Violation::BadPinName { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::DoublyDriven { .. })));
    }

    #[test]
    fn detects_bad_lut_equation_and_duplicates() {
        let mut d = Design::new("t", Device::XCV50);
        let mut a = placed_slice("a", 1, 1, SliceId::S0);
        a.cfg.push(CfgEntry::new("F", "", "#LUT:D=(A9)"));
        d.instances.push(a);
        d.instances.push(placed_slice("a", 2, 2, SliceId::S0));
        d.nets.push(Net::new("n", NetKind::Wire));
        d.nets.push(Net::new("n", NetKind::Wire));
        let v = check(&d);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::BadLutEquation { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::DuplicateInstance { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::DuplicateNet { .. })));
    }

    #[test]
    fn flow_output_is_drc_clean() {
        // Anything the packer produces must pass DRC.
        // (Uses only xdl-level structures; built by hand to avoid a
        // dependency cycle with cadflow — the cross-crate check lives in
        // the integration tests.)
        let text = r#"
design "ok" XCV50 ;
inst "s" "SLICE" , placed R1C1 CLB_R1C1.S0 , cfg "F:l:#LUT:D=(A1*A2) FXMUX::F" ;
inst "p" "IOB" , placed R0C2 IOB_R0C2.P0 , cfg "OUTBUF::1" ;
net "n" , outpin "s" X , inpin "p" O , ;
"#;
        let d = crate::parse(text).unwrap();
        assert_eq!(check(&d), vec![]);
    }
}
