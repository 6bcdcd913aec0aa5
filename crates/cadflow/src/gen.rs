//! Generator circuits: the "module variants" of the paper's scenarios.
//!
//! Figure 4 of the paper partitions a device into regions, each holding
//! one of several interchangeable module implementations. These
//! generators provide a family of such modules with a common interface
//! (`en` input, `q[..]`/bit outputs) plus classic RC workloads (parity,
//! string matching in the style of the paper's reference \[5\], simple
//! FIR-ish accumulators).

use crate::netlist::{GateKind, Netlist, NetlistBuilder, SignalId};

/// An `n`-bit enabled up-counter: `q <= en ? q+1 : q`.
pub fn counter(name: &str, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let en = b.input("en");
    // Build FFs first with placeholder D, then rewire.
    let zero = b.constant(false);
    let qs: Vec<SignalId> = (0..width).map(|_| b.dff(zero)).collect();
    let one = b.constant(true);
    let mut carry = one;
    let mut next = Vec::with_capacity(width);
    for &q in &qs {
        let s = b.xor(q, carry);
        carry = b.and(q, carry);
        next.push(s);
    }
    for (i, (&q, &nx)) in qs.iter().zip(&next).enumerate() {
        let d = b.mux(en, q, nx);
        b.rewire_dff(i, d);
    }
    b.output_bus("q", &qs);
    b.build()
}

/// An `n`-bit down-counter with the same interface as [`counter`].
pub fn down_counter(name: &str, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let en = b.input("en");
    let zero = b.constant(false);
    let qs: Vec<SignalId> = (0..width).map(|_| b.dff(zero)).collect();
    let one = b.constant(true);
    let mut borrow = one;
    let mut next = Vec::with_capacity(width);
    for &q in &qs {
        let s = b.xor(q, borrow);
        let nq = b.not(q);
        borrow = b.and(nq, borrow);
        next.push(s);
    }
    for (i, &nx) in next.iter().enumerate() {
        let d = b.mux(en, qs[i], nx);
        b.rewire_dff(i, d);
    }
    b.output_bus("q", &qs);
    b.build()
}

/// A Gray-code counter: same interface, different wire pattern.
pub fn gray_counter(name: &str, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let en = b.input("en");
    let zero = b.constant(false);
    // Binary core.
    let bins: Vec<SignalId> = (0..width).map(|_| b.dff(zero)).collect();
    let one = b.constant(true);
    let mut carry = one;
    for (i, &q) in bins.iter().enumerate() {
        let s = b.xor(q, carry);
        carry = b.and(q, carry);
        let d = b.mux(en, q, s);
        b.rewire_dff(i, d);
    }
    // Gray output: g[i] = b[i] ^ b[i+1].
    let mut gray = Vec::with_capacity(width);
    for i in 0..width {
        if i + 1 < width {
            gray.push(b.xor(bins[i], bins[i + 1]));
        } else {
            gray.push(b.buf(bins[i]));
        }
    }
    b.output_bus("q", &gray);
    b.build()
}

/// An `n`-bit maximal-ish LFSR (taps at the two top bits; `en` gated).
pub fn lfsr(name: &str, width: usize) -> Netlist {
    assert!(width >= 3);
    let mut b = NetlistBuilder::new(name);
    let en = b.input("en");
    let zero = b.constant(false);
    let qs: Vec<SignalId> = (0..width)
        .map(|i| b.dff_init(zero, i == 0)) // seed 1
        .collect();
    let fb = b.xor(qs[width - 1], qs[width - 2]);
    for i in 0..width {
        let next = if i == 0 { fb } else { qs[i - 1] };
        let d = b.mux(en, qs[i], next);
        b.rewire_dff(i, d);
    }
    b.output_bus("q", &qs);
    b.build()
}

/// Registered parity tree over a `width`-bit input bus.
pub fn parity(name: &str, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let bus = b.input_bus("d", width);
    let p = b.reduce(GateKind::Xor, &bus);
    let q = b.dff(p);
    b.output("p", q);
    b.build()
}

/// Combinational ripple-carry adder: buses `a`, `b` → `s`, `cout`.
pub fn adder(name: &str, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let a = b.input_bus("a", width);
    let c = b.input_bus("b", width);
    let (sum, cout) = b.adder(&a, &c);
    b.output_bus("s", &sum);
    b.output("cout", cout);
    b.build()
}

/// Registered equality comparator against a constant `pattern` — the
/// string-matching primitive of the paper's reference \[5\]: a serial input
/// shifts through a register chain compared against the pattern.
pub fn string_matcher(name: &str, pattern: &[bool]) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let din = b.input("din");
    let mut stage = din;
    let mut taps = Vec::with_capacity(pattern.len());
    for _ in pattern {
        stage = b.dff(stage);
        taps.push(stage);
    }
    // Match when every tap equals its pattern bit (newest bit matches
    // pattern[0]).
    let mut terms = Vec::with_capacity(pattern.len());
    for (tap, &want) in taps.iter().rev().zip(pattern) {
        let t = if want { b.buf(*tap) } else { b.not(*tap) };
        terms.push(t);
    }
    let m = b.reduce(GateKind::And, &terms);
    let q = b.dff(m);
    b.output("match", q);
    b.build()
}

/// A serial accumulator: adds the input bus to a register each cycle —
/// stands in for the DSP/FIR modules RC papers motivate with.
pub fn accumulator(name: &str, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let en = b.input("en");
    let x = b.input_bus("x", width);
    let zero = b.constant(false);
    let acc: Vec<SignalId> = (0..width).map(|_| b.dff(zero)).collect();
    let (sum, _) = b.adder(&acc, &x);
    for i in 0..width {
        let d = b.mux(en, acc[i], sum[i]);
        b.rewire_dff(i, d);
    }
    b.output_bus("q", &acc);
    b.build()
}

/// Triple-modular-redundant counter: three independent counter replicas
/// and bitwise majority voters on the outputs — the fault-tolerance
/// pattern that pairs with configuration *scrubbing* by partial
/// reconfiguration. Outputs: voted `q[..]` plus a `disagree` flag that
/// goes high when any replica dissents (the scrub trigger).
pub fn tmr_counter(name: &str, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let en = b.input("en");
    let zero = b.constant(false);
    let one = b.constant(true);
    // Three replica registers.
    let replicas: Vec<Vec<SignalId>> = (0..3)
        .map(|_| (0..width).map(|_| b.dff(zero)).collect())
        .collect();
    // Majority vote per bit (ab | ac | bc) and per-bit dissent.
    let mut voted = Vec::with_capacity(width);
    let mut dissent = Vec::new();
    for ((&a, &c), &d) in replicas[0].iter().zip(&replicas[1]).zip(&replicas[2]) {
        let ab = b.and(a, c);
        let ac = b.and(a, d);
        let bc = b.and(c, d);
        let t = b.or(ab, ac);
        voted.push(b.or(t, bc));
        let x1 = b.xor(a, c);
        let x2 = b.xor(a, d);
        dissent.push(b.or(x1, x2));
    }
    // Feedback TMR: each replica computes its next state *from the voted
    // value* with its own (triplicated) increment logic, so a diverged
    // replica resynchronizes one cycle after its logic is scrubbed.
    for (r, qs) in replicas.iter().enumerate() {
        let base = width * r; // dff index of this replica's bit 0
        let mut carry = one;
        for (i, _) in qs.iter().enumerate() {
            let s = b.xor(voted[i], carry);
            carry = b.and(voted[i], carry);
            let d = b.mux(en, voted[i], s);
            b.rewire_dff(base + i, d);
        }
    }
    let disagree = b.reduce(GateKind::Or, &dissent);
    b.output_bus("q", &voted);
    b.output("disagree", disagree);
    b.build()
}

/// The catalogue used by Figure-4 style experiments: `variants(region)`
/// returns interchangeable modules sharing the `en`/`q[0..4]` interface.
pub fn counter_variants(width: usize) -> Vec<Netlist> {
    vec![
        counter("up", width),
        down_counter("down", width),
        gray_counter("gray", width),
        lfsr("lfsr", width.max(3)),
    ]
}

impl NetlistBuilder {
    /// Re-point flip-flop `index`'s D input (generators build FFs before
    /// their feedback logic exists).
    pub fn rewire_dff(&mut self, index: usize, d: SignalId) {
        self.nl_mut().dffs[index].d = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Simulator;

    #[test]
    fn down_counter_decrements() {
        let nl = down_counter("d", 4);
        let mut sim = Simulator::new(&nl);
        sim.set_input("en", true);
        assert_eq!(sim.output_bus("q"), 0);
        sim.clock();
        assert_eq!(sim.output_bus("q"), 15);
        sim.clock();
        assert_eq!(sim.output_bus("q"), 14);
    }

    #[test]
    fn gray_counter_changes_one_bit_per_step() {
        let nl = gray_counter("g", 4);
        let mut sim = Simulator::new(&nl);
        sim.set_input("en", true);
        let mut prev = sim.output_bus("q");
        for _ in 0..20 {
            sim.clock();
            let cur = sim.output_bus("q");
            assert_eq!((prev ^ cur).count_ones(), 1);
            prev = cur;
        }
    }

    #[test]
    fn lfsr_cycles_through_many_states() {
        let nl = lfsr("l", 4);
        let mut sim = Simulator::new(&nl);
        sim.set_input("en", true);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            seen.insert(sim.output_bus("q"));
            sim.clock();
        }
        assert!(seen.len() >= 15, "only {} distinct states", seen.len());
    }

    #[test]
    fn string_matcher_fires_on_pattern() {
        // Pattern 1,0,1.
        let nl = string_matcher("m", &[true, false, true]);
        let mut sim = Simulator::new(&nl);
        let stream = [false, true, false, true, false, true, true];
        let mut matches = Vec::new();
        for &bit in &stream {
            sim.set_input("din", bit);
            sim.clock();
            matches.push(sim.output("match"));
        }
        // After feeding  ...1,0,1 the (registered) match goes high one
        // cycle later: input indices 1..=3 are 1,0,1 -> match visible at
        // index 4.
        assert!(matches[4]);
        // 0,1,0 at indices 2..=4 is not the pattern.
        assert!(!matches[3]);
    }

    #[test]
    fn accumulator_accumulates() {
        let nl = accumulator("acc", 8);
        let mut sim = Simulator::new(&nl);
        sim.set_input("en", true);
        sim.set_input_bus("x", 5);
        sim.run(4);
        assert_eq!(sim.output_bus("q"), 20);
        sim.set_input("en", false);
        sim.run(3);
        assert_eq!(sim.output_bus("q"), 20);
    }

    #[test]
    fn tmr_counts_and_reports_agreement() {
        let nl = tmr_counter("t", 3);
        let mut sim = Simulator::new(&nl);
        sim.set_input("en", true);
        for i in 0..12u64 {
            assert_eq!(sim.output_bus("q"), i % 8, "cycle {i}");
            assert!(!sim.output("disagree"), "replicas agree at {i}");
            sim.clock();
        }
    }

    #[test]
    fn variants_share_interface() {
        for nl in counter_variants(4) {
            assert!(nl.input("en").is_some(), "{} lacks en", nl.name);
            assert!(nl.output("q[0]").is_some(), "{} lacks q[0]", nl.name);
            // And they all simulate without panicking.
            let mut sim = Simulator::new(&nl);
            sim.set_input("en", true);
            sim.run(3);
        }
    }
}
