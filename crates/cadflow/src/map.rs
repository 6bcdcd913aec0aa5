//! Technology mapping: cover the gate netlist with 4-input LUTs.
//!
//! A classic cone-packing mapper: walking the netlist in topological
//! order, each signal accumulates a *cone* — a truth table over at most
//! four leaf signals. Cones grow through single-fanout gates; a signal is
//! *materialized* into a LUT cell when its cone can grow no further
//! (fanout > 1, feeds a flip-flop, drives a port, or merging would exceed
//! four inputs). Flip-flops are absorbed into the LUT computing their D
//! input, matching the slice structure (LUT → FF).

use crate::netlist::{Driver, GateKind, Netlist, SignalId};
use std::collections::HashMap;

/// A net in the mapped netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Port direction of an I/O cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Into the fabric.
    Input,
    /// Out of the fabric.
    Output,
}

/// A LUT cell, optionally followed by a flip-flop.
#[derive(Debug, Clone, PartialEq)]
pub struct LutCell {
    /// Cell name (derived from the signal it computes).
    pub name: String,
    /// Truth table: bit *i* = output for input pattern *i*, input 0 the
    /// LSB (maps to pin `F1`/`G1` and equation input `A1`).
    pub table: u16,
    /// Input nets, in pin order. Up to four.
    pub inputs: Vec<NetId>,
    /// Registered output: power-on value of the FF, if present.
    pub ff_init: Option<bool>,
    /// The net this cell drives (the FF output when registered).
    pub out: NetId,
}

/// An I/O cell: one port pad.
#[derive(Debug, Clone, PartialEq)]
pub struct IoCell {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// The net at the fabric side.
    pub net: NetId,
}

/// The mapped netlist: LUT/FF cells, I/O cells, and nets.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedNetlist {
    /// Module name.
    pub name: String,
    /// LUT cells.
    pub luts: Vec<LutCell>,
    /// I/O cells.
    pub ios: Vec<IoCell>,
    /// Net names (index = `NetId`).
    pub net_names: Vec<String>,
    /// Whether the design is sequential (needs the global clock).
    pub has_ffs: bool,
}

impl MappedNetlist {
    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// LUT count — the paper's module-size metric.
    pub fn lut_count(&self) -> usize {
        self.luts.len()
    }

    /// Consumers of each net: `(lut index, pin index)` pairs.
    pub fn net_loads(&self) -> Vec<Vec<(usize, usize)>> {
        let mut loads = vec![Vec::new(); self.net_count()];
        for (li, lut) in self.luts.iter().enumerate() {
            for (pin, &net) in lut.inputs.iter().enumerate() {
                loads[net.0 as usize].push((li, pin));
            }
        }
        loads
    }
}

/// A cone: a truth table over up to four leaves.
#[derive(Debug, Clone)]
struct Cone {
    support: Vec<SignalId>,
    table: u16,
}

impl Cone {
    fn leaf(sig: SignalId) -> Cone {
        Cone {
            support: vec![sig],
            table: 0xAAAA, // identity on input 0: table bit i = bit 0 of i
        }
    }

    fn constant(v: bool) -> Cone {
        Cone {
            support: vec![],
            table: if v { 0xFFFF } else { 0 },
        }
    }

    fn eval(&self, values: &HashMap<SignalId, bool>) -> bool {
        let mut idx = 0usize;
        for (i, s) in self.support.iter().enumerate() {
            if values[s] {
                idx |= 1 << i;
            }
        }
        (self.table >> idx) & 1 == 1
    }
}

/// Merge operand cones through `kind`. `None` if the union support
/// exceeds four leaves.
fn compose(kind: GateKind, a: &Cone, b: &Cone, sel: &Cone) -> Option<Cone> {
    let mut support = a.support.clone();
    for s in b.support.iter().chain(&sel.support) {
        if !support.contains(s) {
            support.push(*s);
        }
    }
    if support.len() > 4 {
        return None;
    }
    let mut table = 0u16;
    let n = support.len();
    for idx in 0..(1usize << n) {
        let values: HashMap<SignalId, bool> = support
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, (idx >> i) & 1 == 1))
            .collect();
        let va = a.eval(&values);
        let vb = b.eval(&values);
        let vs = sel.eval(&values);
        let out = match kind {
            GateKind::And => va & vb,
            GateKind::Or => va | vb,
            GateKind::Xor => va ^ vb,
            GateKind::Not => !va,
            GateKind::Buf => va,
            GateKind::Mux => {
                if vs {
                    vb
                } else {
                    va
                }
            }
        };
        if out {
            table |= 1 << idx;
        }
    }
    Some(Cone { support, table })
}

struct Mapper<'a> {
    nl: &'a Netlist,
    fanout: Vec<u32>,
    /// Net id for each materialized signal.
    nets: HashMap<SignalId, NetId>,
    cones: HashMap<SignalId, Cone>,
    out: MappedNetlist,
}

impl<'a> Mapper<'a> {
    fn net_for(&mut self, sig: SignalId) -> NetId {
        if let Some(&n) = self.nets.get(&sig) {
            return n;
        }
        let id = NetId(self.out.net_names.len() as u32);
        let name = self
            .nl
            .signal_names
            .get(&sig.0)
            .cloned()
            .unwrap_or_else(|| format!("{}/n{}", self.nl.name, sig.0));
        self.out.net_names.push(name);
        self.nets.insert(sig, id);
        id
    }

    fn sig_name(&self, sig: SignalId) -> String {
        self.nl
            .signal_names
            .get(&sig.0)
            .cloned()
            .unwrap_or_else(|| format!("{}/s{}", self.nl.name, sig.0))
    }

    /// The cone computing `sig` in terms of materialized leaves.
    fn cone_of(&mut self, sig: SignalId) -> Cone {
        if let Some(c) = self.cones.get(&sig) {
            return c.clone();
        }
        let cone = match self.nl.drivers[sig.0 as usize] {
            Driver::Input | Driver::Dff(_) => Cone::leaf(sig),
            Driver::Const(v) => Cone::constant(v),
            Driver::Gate(g) => {
                let gate = self.nl.gates[g as usize];
                let ca = self.cone_of(gate.a);
                let cb = self.cone_of(gate.b);
                let cs = self.cone_of(gate.sel);
                match compose(gate.kind, &ca, &cb, &cs) {
                    Some(c) => c,
                    None => {
                        // Too wide: materialize the widest operands until
                        // the merge fits.
                        let mut ops: Vec<(SignalId, Cone)> =
                            vec![(gate.a, ca), (gate.b, cb), (gate.sel, cs)];
                        loop {
                            // Materialize the operand with the widest cone
                            // that is not already a leaf.
                            ops.sort_by_key(|(_, c)| std::cmp::Reverse(c.support.len()));
                            let (wide_sig, wide_cone) = ops[0].clone();
                            assert!(
                                wide_cone.support.len() > 1,
                                "cannot shrink cone below leaves"
                            );
                            self.materialize(wide_sig);
                            for (s, c) in ops.iter_mut() {
                                if *s == wide_sig || c.support.contains(&wide_sig) {
                                    // Recompute with the new leaf
                                    // available.
                                    self.cones.remove(s);
                                    *c = if *s == wide_sig {
                                        Cone::leaf(*s)
                                    } else {
                                        self.cone_of(*s)
                                    };
                                }
                            }
                            let (a, b, s) = (&ops[0], &ops[1], &ops[2]);
                            // Restore operand order by signal id.
                            let find = |sig: SignalId| -> Cone {
                                [a, b, s]
                                    .iter()
                                    .find(|(os, _)| *os == sig)
                                    .map(|(_, c)| c.clone())
                                    .unwrap()
                            };
                            if let Some(c) =
                                compose(gate.kind, &find(gate.a), &find(gate.b), &find(gate.sel))
                            {
                                break c;
                            }
                        }
                    }
                }
            }
        };
        self.cones.insert(sig, cone.clone());
        cone
    }

    /// Emit a LUT cell computing `sig` and make `sig` a leaf for
    /// downstream cones.
    fn materialize(&mut self, sig: SignalId) -> NetId {
        if let Some(&n) = self.nets.get(&sig) {
            return n;
        }
        let cone = self.cone_of(sig);
        let inputs: Vec<NetId> = cone
            .support
            .iter()
            .map(|s| {
                self.nets
                    .get(s)
                    .copied()
                    .unwrap_or_else(|| panic!("leaf {s:?} not materialized before use"))
            })
            .collect();
        let out = self.net_for(sig);
        self.out.luts.push(LutCell {
            name: self.sig_name(sig),
            table: cone.table,
            inputs,
            ff_init: None,
            out,
        });
        // Downstream, sig is a plain leaf.
        self.cones.insert(sig, Cone::leaf(sig));
        out
    }
}

/// Map a gate netlist onto LUT/FF cells.
pub fn map_netlist(nl: &Netlist) -> MappedNetlist {
    let mut fanout = vec![0u32; nl.signal_count()];
    for g in &nl.gates {
        fanout[g.a.0 as usize] += 1;
        if g.b != g.a {
            fanout[g.b.0 as usize] += 1;
        }
        if g.sel != g.a && g.sel != g.b {
            fanout[g.sel.0 as usize] += 1;
        }
    }
    for d in &nl.dffs {
        fanout[d.d.0 as usize] += 1;
    }
    for (_, s) in &nl.outputs {
        fanout[s.0 as usize] += 1;
    }

    let mut m = Mapper {
        nl,
        fanout,
        nets: HashMap::new(),
        cones: HashMap::new(),
        out: MappedNetlist {
            name: nl.name.clone(),
            luts: Vec::new(),
            ios: Vec::new(),
            net_names: Vec::new(),
            has_ffs: !nl.dffs.is_empty(),
        },
    };

    // Primary inputs become IO cells driving leaf nets.
    for (name, sig) in &nl.inputs {
        let net = m.net_for(*sig);
        m.out.ios.push(IoCell {
            name: name.clone(),
            dir: PortDir::Input,
            net,
        });
    }
    // FF outputs are leaf nets (their cells are emitted when the D cones
    // are materialized below).
    for d in &nl.dffs {
        m.net_for(d.q);
    }

    // Materialize multi-fanout gates in topological order so leaves exist
    // before use.
    let order = nl.topo_order();
    for &sig in &order {
        if matches!(nl.drivers[sig.0 as usize], Driver::Gate(_)) && m.fanout[sig.0 as usize] > 1 {
            m.materialize(sig);
        }
    }

    // Each FF becomes the register on the LUT computing its D.
    for (di, d) in nl.dffs.iter().enumerate() {
        let cone = m.cone_of(d.d);
        let inputs: Vec<NetId> = cone.support.iter().map(|s| m.nets[s]).collect();
        let out = m.nets[&d.q];
        let _ = di;
        m.out.luts.push(LutCell {
            name: m.sig_name(d.q),
            table: cone.table,
            inputs,
            ff_init: Some(d.init),
            out,
        });
    }

    // Output ports: materialize and attach IO cells.
    for (name, sig) in &nl.outputs {
        let net = match nl.drivers[sig.0 as usize] {
            Driver::Input | Driver::Dff(_) => m.nets[sig],
            Driver::Const(_) | Driver::Gate(_) => m.materialize(*sig),
        };
        m.out.ios.push(IoCell {
            name: name.clone(),
            dir: PortDir::Output,
            net,
        });
    }

    m.out
}

/// Check a mapped netlist against the golden simulator on random vectors:
/// returns the first mismatching output name, if any.
pub fn verify_mapping(
    nl: &Netlist,
    mapped: &MappedNetlist,
    cycles: usize,
    seed: u64,
) -> Option<String> {
    use crate::eval::Simulator;

    let mut golden = Simulator::new(nl);
    let mut mapped_sim = MappedSim::new(mapped);
    let mut rng = seed.max(1);
    let mut next = move || {
        // xorshift64
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng & 1 == 1
    };

    for _ in 0..cycles {
        for (name, _) in &nl.inputs {
            let v = next();
            golden.set_input(name, v);
            mapped_sim.set_input(name, v);
        }
        golden.settle();
        mapped_sim.settle();
        for (name, _) in &nl.outputs {
            if golden.output(name) != mapped_sim.output(name) {
                return Some(name.clone());
            }
        }
        golden.clock();
        mapped_sim.clock();
    }
    None
}

/// Simulator over the mapped netlist (LUT semantics), used by
/// [`verify_mapping`] and tests downstream.
#[derive(Debug, Clone)]
pub struct MappedSim<'a> {
    m: &'a MappedNetlist,
    values: Vec<bool>,
    /// LUT evaluation order (topological over nets).
    order: Vec<usize>,
}

impl<'a> MappedSim<'a> {
    /// Build; FFs take their init values.
    pub fn new(m: &'a MappedNetlist) -> Self {
        // Topological sort of LUT cells by net dependencies; FF outputs
        // are sequential elements, i.e. sources.
        let mut driver_of: HashMap<NetId, usize> = HashMap::new();
        for (i, l) in m.luts.iter().enumerate() {
            driver_of.insert(l.out, i);
        }
        let mut state = vec![0u8; m.luts.len()];
        let mut order = Vec::new();
        fn visit(
            i: usize,
            m: &MappedNetlist,
            driver_of: &HashMap<NetId, usize>,
            state: &mut [u8],
            order: &mut Vec<usize>,
        ) {
            if state[i] != 0 {
                assert_ne!(state[i], 1, "combinational loop in mapped netlist");
                return;
            }
            state[i] = 1;
            if m.luts[i].ff_init.is_none() {
                for inp in &m.luts[i].inputs {
                    if let Some(&j) = driver_of.get(inp) {
                        if m.luts[j].ff_init.is_none() {
                            visit(j, m, driver_of, state, order);
                        }
                    }
                }
            }
            state[i] = 2;
            order.push(i);
        }
        // FFs first (their outputs are state), then combinational in
        // dependency order.
        for (s, lut) in state.iter_mut().zip(&m.luts) {
            if lut.ff_init.is_some() {
                *s = 2;
                // not in comb order
            }
        }
        for i in 0..m.luts.len() {
            if m.luts[i].ff_init.is_none() && state[i] == 0 {
                visit(i, m, &driver_of, &mut state, &mut order);
            }
        }
        let mut sim = MappedSim {
            m,
            values: vec![false; m.net_count()],
            order,
        };
        for l in &m.luts {
            if let Some(init) = l.ff_init {
                sim.values[l.out.0 as usize] = init;
            }
        }
        sim.settle();
        sim
    }

    /// Drive an input port.
    pub fn set_input(&mut self, name: &str, v: bool) {
        let io = self
            .m
            .ios
            .iter()
            .find(|io| io.dir == PortDir::Input && io.name == name)
            .unwrap_or_else(|| panic!("no input {name:?}"));
        self.values[io.net.0 as usize] = v;
    }

    /// Read an output port.
    pub fn output(&self, name: &str) -> bool {
        let io = self
            .m
            .ios
            .iter()
            .find(|io| io.dir == PortDir::Output && io.name == name)
            .unwrap_or_else(|| panic!("no output {name:?}"));
        self.values[io.net.0 as usize]
    }

    fn eval_lut(&self, i: usize) -> bool {
        let l = &self.m.luts[i];
        let mut idx = 0usize;
        for (k, inp) in l.inputs.iter().enumerate() {
            if self.values[inp.0 as usize] {
                idx |= 1 << k;
            }
        }
        (l.table >> idx) & 1 == 1
    }

    /// Settle combinational logic.
    pub fn settle(&mut self) {
        for &i in &self.order {
            let v = self.eval_lut(i);
            self.values[self.m.luts[i].out.0 as usize] = v;
        }
    }

    /// Clock edge: sample all FF D values, then settle.
    pub fn clock(&mut self) {
        self.settle();
        let sampled: Vec<(NetId, bool)> = self
            .m
            .luts
            .iter()
            .enumerate()
            .filter(|(_, l)| l.ff_init.is_some())
            .map(|(i, l)| (l.out, self.eval_lut(i)))
            .collect();
        for (net, v) in sampled {
            self.values[net.0 as usize] = v;
        }
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::netlist::NetlistBuilder;

    #[test]
    fn maps_simple_xor_into_one_lut() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor(a, c);
        b.output("x", x);
        let nl = b.build();
        let m = map_netlist(&nl);
        assert_eq!(m.lut_count(), 1);
        assert_eq!(m.luts[0].inputs.len(), 2);
        assert_eq!(verify_mapping(&nl, &m, 16, 7), None);
    }

    #[test]
    fn wide_logic_splits_into_multiple_luts() {
        let mut b = NetlistBuilder::new("t");
        let bus = b.input_bus("d", 9);
        let p = b.reduce(crate::netlist::GateKind::Xor, &bus);
        b.output("p", p);
        let nl = b.build();
        let m = map_netlist(&nl);
        assert!(m.lut_count() >= 3, "9-input parity needs >= 3 LUTs");
        assert!(m.luts.iter().all(|l| l.inputs.len() <= 4));
        assert_eq!(verify_mapping(&nl, &m, 32, 11), None);
    }

    #[test]
    fn generators_map_correctly() {
        for nl in [
            gen::counter("c", 4),
            gen::down_counter("d", 4),
            gen::gray_counter("g", 4),
            gen::lfsr("l", 4),
            gen::parity("p", 8),
            gen::adder("a", 4),
            gen::string_matcher("m", &[true, false, true, true]),
            gen::accumulator("acc", 4),
        ] {
            let m = map_netlist(&nl);
            assert!(m.luts.iter().all(|l| l.inputs.len() <= 4), "{}", nl.name);
            assert_eq!(
                verify_mapping(&nl, &m, 64, 3),
                None,
                "mapping of {} diverges",
                nl.name
            );
        }
    }

    #[test]
    fn ff_cells_absorb_d_logic() {
        let nl = gen::counter("c", 4);
        let m = map_netlist(&nl);
        let ffs = m.luts.iter().filter(|l| l.ff_init.is_some()).count();
        assert_eq!(ffs, 4, "one FF per counter bit");
    }

    #[test]
    fn io_cells_cover_all_ports() {
        let nl = gen::adder("a", 4);
        let m = map_netlist(&nl);
        let ins = m.ios.iter().filter(|i| i.dir == PortDir::Input).count();
        let outs = m.ios.iter().filter(|i| i.dir == PortDir::Output).count();
        assert_eq!(ins, 8);
        assert_eq!(outs, 5);
    }
}
