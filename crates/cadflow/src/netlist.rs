//! Gate-level netlist IR: what "synthesis" hands to the mapper.
//!
//! A [`Netlist`] is a DAG of two-input gates, inverters, constants and
//! D flip-flops over a dense signal space, with named input/output ports.
//! All flip-flops share the single global clock (the paper's designs are
//! synchronous single-clock modules).

use std::collections::HashMap;

/// A signal (net) in the logical netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

/// Gate kinds. Two-input gates take `(a, b)`; `Not`/`Buf` take `a` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Exclusive OR.
    Xor,
    /// Inverter.
    Not,
    /// Buffer (identity; used to alias port signals).
    Buf,
    /// 2:1 multiplexer: output = sel ? b : a (inputs `(a, b)`, select is
    /// the third operand).
    Mux,
}

/// One gate: kind, inputs, output signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Operation.
    pub kind: GateKind,
    /// First input.
    pub a: SignalId,
    /// Second input (`== a` and ignored for unary gates).
    pub b: SignalId,
    /// Select input for `Mux` (`== a` otherwise).
    pub sel: SignalId,
    /// Output signal.
    pub out: SignalId,
}

/// A D flip-flop on the global clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// Data input.
    pub d: SignalId,
    /// Registered output.
    pub q: SignalId,
    /// Power-on / reset value.
    pub init: bool,
}

/// How a signal is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Primary input port.
    Input,
    /// Output of gate `gates[i]`.
    Gate(u32),
    /// Output of flip-flop `dffs[i]`.
    Dff(u32),
    /// Constant.
    Const(bool),
}

/// The netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Module name.
    pub name: String,
    /// All gates.
    pub gates: Vec<Gate>,
    /// All flip-flops.
    pub dffs: Vec<Dff>,
    /// Driver of every signal, indexed by `SignalId`.
    pub drivers: Vec<Driver>,
    /// Named input ports.
    pub inputs: Vec<(String, SignalId)>,
    /// Named output ports.
    pub outputs: Vec<(String, SignalId)>,
    /// Optional debug names for internal signals.
    pub signal_names: HashMap<u32, String>,
}

impl Netlist {
    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.drivers.len()
    }

    /// Look up an input port signal by name.
    pub fn input(&self, name: &str) -> Option<SignalId> {
        self.inputs.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    /// Look up an output port signal by name.
    pub fn output(&self, name: &str) -> Option<SignalId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    /// Signals in topological order (inputs/consts/FF outputs first, then
    /// gates in dependency order). Panics on combinational cycles.
    pub fn topo_order(&self) -> Vec<SignalId> {
        let n = self.signal_count();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
        let mut order = Vec::with_capacity(n);
        // Iterative DFS to avoid stack overflows on deep netlists.
        for start in 0..n as u32 {
            if state[start as usize] != 0 {
                continue;
            }
            let mut stack = vec![(SignalId(start), false)];
            while let Some((sig, expanded)) = stack.pop() {
                let i = sig.0 as usize;
                if expanded {
                    state[i] = 2;
                    order.push(sig);
                    continue;
                }
                match state[i] {
                    2 => continue,
                    1 => panic!("combinational cycle through signal {i}"),
                    _ => {}
                }
                state[i] = 1;
                stack.push((sig, true));
                if let Driver::Gate(g) = self.drivers[i] {
                    let gate = self.gates[g as usize];
                    for dep in [gate.a, gate.b, gate.sel] {
                        if state[dep.0 as usize] == 0 {
                            stack.push((dep, false));
                        } else if state[dep.0 as usize] == 1 {
                            panic!("combinational cycle through signal {}", dep.0);
                        }
                    }
                }
            }
        }
        order
    }

    /// Count of LUT-bound logic (gates), a size proxy used in reports.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }
}

/// Concatenate module netlists into one top-level netlist, prefixing
/// every port name with the module's path (`"mod1/"` …). Signals are
/// renumbered; the modules stay electrically independent (the paper's
/// base design: several floorplanned modules side by side, each with its
/// own pads).
pub fn merge_netlists(name: &str, parts: &[(&str, &Netlist)]) -> Netlist {
    let mut out = Netlist {
        name: name.to_string(),
        gates: Vec::new(),
        dffs: Vec::new(),
        drivers: Vec::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
        signal_names: HashMap::new(),
    };
    for (prefix, nl) in parts {
        let sig_base = out.drivers.len() as u32;
        let gate_base = out.gates.len() as u32;
        let dff_base = out.dffs.len() as u32;
        let remap = |s: SignalId| SignalId(s.0 + sig_base);
        for d in &nl.drivers {
            out.drivers.push(match d {
                Driver::Gate(g) => Driver::Gate(g + gate_base),
                Driver::Dff(d) => Driver::Dff(d + dff_base),
                other => *other,
            });
        }
        for g in &nl.gates {
            out.gates.push(Gate {
                kind: g.kind,
                a: remap(g.a),
                b: remap(g.b),
                sel: remap(g.sel),
                out: remap(g.out),
            });
        }
        for d in &nl.dffs {
            out.dffs.push(Dff {
                d: remap(d.d),
                q: remap(d.q),
                init: d.init,
            });
        }
        for (n, s) in &nl.inputs {
            out.inputs.push((format!("{prefix}{n}"), remap(*s)));
        }
        for (n, s) in &nl.outputs {
            out.outputs.push((format!("{prefix}{n}"), remap(*s)));
        }
        for (s, n) in &nl.signal_names {
            out.signal_names
                .insert(s + sig_base, format!("{prefix}{n}"));
        }
    }
    out
}

/// Incremental netlist builder.
#[derive(Debug)]
pub struct NetlistBuilder {
    nl: Netlist,
}

impl NetlistBuilder {
    /// Start a module.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            nl: Netlist {
                name: name.into(),
                gates: Vec::new(),
                dffs: Vec::new(),
                drivers: Vec::new(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                signal_names: HashMap::new(),
            },
        }
    }

    fn fresh(&mut self, driver: Driver) -> SignalId {
        let id = SignalId(self.nl.drivers.len() as u32);
        self.nl.drivers.push(driver);
        id
    }

    /// Declare an input port.
    pub fn input(&mut self, name: impl Into<String>) -> SignalId {
        let s = self.fresh(Driver::Input);
        self.nl.inputs.push((name.into(), s));
        s
    }

    /// Declare a bus of input ports `name[0..width]`.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<SignalId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Declare an output port driven by `sig`.
    pub fn output(&mut self, name: impl Into<String>, sig: SignalId) {
        self.nl.outputs.push((name.into(), sig));
    }

    /// Declare a bus of output ports.
    pub fn output_bus(&mut self, name: &str, sigs: &[SignalId]) {
        for (i, s) in sigs.iter().enumerate() {
            self.output(format!("{name}[{i}]"), *s);
        }
    }

    /// A constant signal.
    pub fn constant(&mut self, value: bool) -> SignalId {
        self.fresh(Driver::Const(value))
    }

    fn gate(&mut self, kind: GateKind, a: SignalId, b: SignalId, sel: SignalId) -> SignalId {
        let gi = self.nl.gates.len() as u32;
        let out = self.fresh(Driver::Gate(gi));
        self.nl.gates.push(Gate {
            kind,
            a,
            b,
            sel,
            out,
        });
        out
    }

    /// AND gate.
    pub fn and(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.gate(GateKind::And, a, b, a)
    }

    /// OR gate.
    pub fn or(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.gate(GateKind::Or, a, b, a)
    }

    /// XOR gate.
    pub fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.gate(GateKind::Xor, a, b, a)
    }

    /// Inverter.
    pub fn not(&mut self, a: SignalId) -> SignalId {
        self.gate(GateKind::Not, a, a, a)
    }

    /// Buffer.
    pub fn buf(&mut self, a: SignalId) -> SignalId {
        self.gate(GateKind::Buf, a, a, a)
    }

    /// 2:1 mux: `sel ? b : a`.
    pub fn mux(&mut self, sel: SignalId, a: SignalId, b: SignalId) -> SignalId {
        self.gate(GateKind::Mux, a, b, sel)
    }

    /// D flip-flop with power-on value `init`.
    pub fn dff_init(&mut self, d: SignalId, init: bool) -> SignalId {
        let di = self.nl.dffs.len() as u32;
        let q = self.fresh(Driver::Dff(di));
        self.nl.dffs.push(Dff { d, q, init });
        q
    }

    /// D flip-flop initialised to 0.
    pub fn dff(&mut self, d: SignalId) -> SignalId {
        self.dff_init(d, false)
    }

    /// Name an internal signal for debugging.
    pub fn name(&mut self, sig: SignalId, name: impl Into<String>) {
        self.nl.signal_names.insert(sig.0, name.into());
    }

    /// Reduce a slice with a balanced tree of `op` gates.
    pub fn reduce(&mut self, op: GateKind, sigs: &[SignalId]) -> SignalId {
        assert!(!sigs.is_empty(), "reduce of empty slice");
        let mut layer: Vec<SignalId> = sigs.to_vec();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        self.gate(op, c[0], c[1], c[0])
                    } else {
                        c[0]
                    }
                })
                .collect();
        }
        layer[0]
    }

    /// Ripple-carry adder over equal-width buses; returns (sum bits,
    /// carry out).
    pub fn adder(&mut self, a: &[SignalId], b: &[SignalId]) -> (Vec<SignalId>, SignalId) {
        self.adder_with_carry(a, b, false)
    }

    /// Ripple-carry adder with an explicit carry-in constant (carry-in 1
    /// plus an inverted operand gives subtraction).
    pub fn adder_with_carry(
        &mut self,
        a: &[SignalId],
        b: &[SignalId],
        carry_in: bool,
    ) -> (Vec<SignalId>, SignalId) {
        assert_eq!(a.len(), b.len());
        let mut carry = self.constant(carry_in);
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y);
            let s = self.xor(xy, carry);
            let c1 = self.and(x, y);
            let c2 = self.and(xy, carry);
            carry = self.or(c1, c2);
            sum.push(s);
        }
        (sum, carry)
    }

    /// Finish.
    pub fn build(self) -> Netlist {
        self.nl
    }

    /// Crate-internal mutable access for generator plumbing (e.g.
    /// re-pointing FF feedback after the fact).
    pub(crate) fn nl_mut(&mut self) -> &mut Netlist {
        &mut self.nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_consistent_drivers() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor(a, c);
        let q = b.dff(x);
        b.output("q", q);
        let nl = b.build();
        assert_eq!(nl.signal_count(), 4);
        assert_eq!(nl.drivers[a.0 as usize], Driver::Input);
        assert!(matches!(nl.drivers[x.0 as usize], Driver::Gate(0)));
        assert!(matches!(nl.drivers[q.0 as usize], Driver::Dff(0)));
        assert_eq!(nl.input("a"), Some(a));
        assert_eq!(nl.output("q"), Some(q));
        assert_eq!(nl.input("zzz"), None);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and(x, a);
        let z = b.or(y, x);
        b.output("z", z);
        let nl = b.build();
        let order = nl.topo_order();
        let pos: HashMap<u32, usize> = order.iter().enumerate().map(|(i, s)| (s.0, i)).collect();
        assert!(pos[&a.0] < pos[&x.0]);
        assert!(pos[&x.0] < pos[&y.0]);
        assert!(pos[&y.0] < pos[&z.0]);
        assert_eq!(order.len(), nl.signal_count());
    }

    #[test]
    fn dff_breaks_cycles() {
        // q feeds back through an inverter into its own D: legal because
        // the FF breaks the loop.
        let mut b = NetlistBuilder::new("t");
        let placeholder = b.constant(false);
        let q = b.dff(placeholder);
        let nq = b.not(q);
        // Rewire the FF input (builder doesn't support it; emulate with a
        // fresh netlist check instead: a DFF whose d is a gate downstream
        // of q).
        let mut nl = b.build();
        nl.dffs[0].d = nq;
        let _ = nl.topo_order(); // must not panic
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn combinational_cycle_panics() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.and(a, a);
        let mut nl = b.build();
        // Introduce a cycle: x depends on itself.
        nl.gates[0].b = x;
        let _ = nl.topo_order();
    }

    #[test]
    fn merge_netlists_keeps_modules_independent() {
        let a = crate::gen::counter("a", 2);
        let b = crate::gen::parity("b", 3);
        let merged = merge_netlists("top", &[("m1/", &a), ("m2/", &b)]);
        assert_eq!(merged.signal_count(), a.signal_count() + b.signal_count());
        assert_eq!(merged.gates.len(), a.gates.len() + b.gates.len());
        assert!(merged.input("m1/en").is_some());
        assert!(merged.input("m2/d[0]").is_some());
        assert!(merged.output("m1/q[1]").is_some());
        assert!(merged.output("m2/p").is_some());
        // Both halves simulate like the originals.
        let mut sim = crate::eval::Simulator::new(&merged);
        sim.set_input("m1/en", true);
        sim.set_input("m2/d[0]", true);
        sim.set_input("m2/d[1]", false);
        sim.set_input("m2/d[2]", true);
        sim.run(3);
        assert_eq!(
            (sim.output("m1/q[0]"), sim.output("m1/q[1]")),
            (true, true),
            "counter reached 3"
        );
        assert!(!sim.output("m2/p"), "even parity registered");
    }

    #[test]
    fn reduce_and_adder_shapes() {
        let mut b = NetlistBuilder::new("t");
        let bus = b.input_bus("d", 8);
        let parity = b.reduce(GateKind::Xor, &bus);
        b.output("p", parity);
        let a = b.input_bus("a", 4);
        let c = b.input_bus("b", 4);
        let (sum, cout) = b.adder(&a, &c);
        b.output_bus("s", &sum);
        b.output("cout", cout);
        let nl = b.build();
        assert_eq!(nl.inputs.len(), 16);
        assert_eq!(nl.outputs.len(), 6);
        assert!(nl.gate_count() >= 7 + 4 * 5);
    }
}
