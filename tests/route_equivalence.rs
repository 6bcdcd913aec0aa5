//! The dense-window router against a reference router: the original
//! engine, kept here verbatim as the oracle. It keeps per-wire usage,
//! history and search state in `HashMap`s and `HashSet`s keyed by `Wire`.
//! Both route the same seeded generator netlists, mapped, packed and
//! placed, under every routing mode the flows use: unconstrained,
//! full-height 8-column regions in the style of the paper's Figure 4,
//! narrow congested regions, and first-come-first-served (no
//! negotiation). They must set the same PIPs on every net, report the
//! same iterations, wirelength and PIP count, and fail with the same
//! error.

use cadflow::gen;
use cadflow::map::map_netlist;
use cadflow::pack::pack_with_prefix;
use cadflow::place::{place, PlaceOptions};
use cadflow::route::{route, verify_routing, RouteError, RouteOptions, RouteReport};
use cadflow::Netlist;
use virtex::Device;
use xdl::{Constraints, Design, Placement, Rect};

/// The original router, verbatim.
mod oracle {
    use cadflow::route::{pin_wire, RouteError, RouteOptions, RouteReport};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap, HashSet};
    use virtex::{Pip, RoutingGraph, SlicePin, TileCoord, Wire, WireKind};
    use xdl::{Design, NetKind};

    /// Whether `wire` may be used when routing is confined to CLB columns
    /// `c0..=c1`.
    fn wire_in_region(wire: &Wire, c0: i32, c1: i32) -> bool {
        match wire.kind {
            WireKind::GlobalClock(_) => true,
            WireKind::Long { horiz, .. } => !horiz && (c0..=c1).contains(&wire.tile.col),
            _ => (c0..=c1).contains(&wire.tile.col),
        }
    }

    fn base_cost(kind: &WireKind) -> f64 {
        match kind {
            WireKind::SlicePin { .. } => 0.95,
            WireKind::Omux(_) => 1.0,
            WireKind::Single { .. } => 2.0,
            WireKind::Hex { .. } => 5.0,
            WireKind::Long { .. } => 9.0,
            WireKind::PadIn(_) | WireKind::PadOut(_) => 1.0,
            WireKind::GlobalClock(_) => 1.0,
        }
    }

    #[derive(PartialEq)]
    struct HeapItem {
        cost: f64,
        est: f64,
        wire: Wire,
    }

    impl Eq for HeapItem {}

    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on cost + estimate.
            (other.cost + other.est)
                .partial_cmp(&(self.cost + self.est))
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.wire.cmp(&other.wire))
        }
    }

    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    struct RouterState {
        usage: HashMap<Wire, u32>,
        history: HashMap<Wire, f64>,
        pres_fac: f64,
        hist_fac: f64,
    }

    impl RouterState {
        fn congestion_cost(&self, wire: &Wire, own_uses: u32) -> f64 {
            // Usage by *other* nets (during our own reroute the tree's wires
            // are not in the usage map, so saturate).
            let used = self
                .usage
                .get(wire)
                .copied()
                .unwrap_or(0)
                .saturating_sub(own_uses);
            // Capacity is 1 everywhere: with us added, overuse equals the
            // other-net count.
            let over = used;
            let hist = self.history.get(wire).copied().unwrap_or(0.0);
            base_cost(&wire.kind) * (1.0 + self.pres_fac * over as f64) + self.hist_fac * hist
        }
    }

    /// One net's routing problem.
    struct NetTask {
        design_index: usize,
        name: String,
        source: Wire,
        sinks: Vec<Wire>,
        is_clock: bool,
    }

    /// Route every net of a placed design in-place (fills `net.pips`).
    pub fn route(design: &mut Design, opts: &RouteOptions) -> Result<RouteReport, RouteError> {
        let graph = RoutingGraph::new(design.device);
        let mut rng = StdRng::seed_from_u64(opts.seed);

        // Build tasks.
        let mut tasks = Vec::new();
        for (ni, net) in design.nets.iter().enumerate() {
            let (Some(outpin), false) = (&net.outpin, net.inpins.is_empty()) else {
                continue;
            };
            if net.kind == NetKind::Power {
                continue;
            }
            let source = pin_wire(design, outpin)?;
            let sinks = net
                .inpins
                .iter()
                .map(|p| pin_wire(design, p))
                .collect::<Result<Vec<_>, _>>()?;
            tasks.push(NetTask {
                design_index: ni,
                name: net.name.clone(),
                source,
                sinks,
                is_clock: net.kind == NetKind::Clock,
            });
        }

        let mut state = RouterState {
            usage: HashMap::new(),
            history: HashMap::new(),
            pres_fac: opts.pres_fac,
            hist_fac: opts.hist_fac,
        };
        let mut routes: Vec<Vec<Pip>> = vec![Vec::new(); tasks.len()];
        let mut route_wires: Vec<HashSet<Wire>> = vec![HashSet::new(); tasks.len()];

        let mut report = RouteReport::default();
        let mut order: Vec<usize> = (0..tasks.len()).collect();

        for iter in 0..opts.max_iterations.max(1) {
            report.iterations = iter + 1;
            let mut any_rerouted = false;
            for &ti in &order {
                let task = &tasks[ti];
                let needs = routes[ti].is_empty()
                    || route_wires[ti]
                        .iter()
                        .any(|w| state.usage.get(w).copied().unwrap_or(0) > 1);
                if !needs {
                    continue;
                }
                any_rerouted = true;
                // Rip up.
                for w in route_wires[ti].drain() {
                    if let Some(u) = state.usage.get_mut(&w) {
                        *u -= 1;
                        if *u == 0 {
                            state.usage.remove(&w);
                        }
                    }
                }
                routes[ti].clear();

                let (pips, wires) = if task.is_clock {
                    route_clock(&graph, task, opts.clock_index)?
                } else {
                    route_signal(&graph, task, &state, opts)?
                };
                for w in &wires {
                    *state.usage.entry(*w).or_insert(0) += 1;
                }
                routes[ti] = pips;
                route_wires[ti] = wires;
            }

            // Converged?
            let overused: Vec<Wire> = state
                .usage
                .iter()
                .filter(|(_, &u)| u > 1)
                .map(|(w, _)| *w)
                .collect();
            if overused.is_empty() {
                let mut total_wires = 0;
                for (ti, task) in tasks.iter().enumerate() {
                    report.pips += routes[ti].len();
                    total_wires += route_wires[ti].len();
                    let _ = task;
                }
                report.wirelength = total_wires;
                for (ti, task) in tasks.iter().enumerate() {
                    design.nets[task.design_index].pips = routes[ti].clone();
                }
                return Ok(report);
            }
            if !opts.negotiate || !any_rerouted {
                return Err(RouteError::Congested {
                    overused: overused.len(),
                });
            }
            for w in overused {
                *state.history.entry(w).or_insert(0.0) += 1.0;
            }
            state.pres_fac *= opts.pres_fac_mult;
            // Shuffle net order so the same victims don't always pay.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
        }
        let overused = state.usage.values().filter(|&&u| u > 1).count();
        Err(RouteError::Congested { overused })
    }

    /// Route a clock net over the dedicated tree.
    fn route_clock(
        graph: &RoutingGraph,
        task: &NetTask,
        clock_index: Option<u8>,
    ) -> Result<(Vec<Pip>, HashSet<Wire>), RouteError> {
        let WireKind::PadIn(pad) = task.source.kind else {
            return Err(RouteError::BadPin {
                pin: format!("clock source of {} is not a pad", task.name),
            });
        };
        let idx = clock_index.unwrap_or(pad) % virtex::routing::GLOBAL_CLOCKS as u8;
        let gclk = graph.global_clock(idx);
        let mut pips = vec![Pip {
            loc: task.source.tile,
            from: task.source,
            to: gclk,
        }];
        let mut wires: HashSet<Wire> = [task.source, gclk].into_iter().collect();
        for sink in &task.sinks {
            if !matches!(
                sink.kind,
                WireKind::SlicePin {
                    pin: SlicePin::Clk,
                    ..
                }
            ) {
                return Err(RouteError::BadPin {
                    pin: format!("clock sink {} of {}", sink, task.name),
                });
            }
            pips.push(Pip {
                loc: sink.tile,
                from: gclk,
                to: *sink,
            });
            wires.insert(*sink);
        }
        Ok((pips, wires))
    }

    /// Route a signal net: Dijkstra per sink, reusing the growing tree.
    fn route_signal(
        graph: &RoutingGraph,
        task: &NetTask,
        state: &RouterState,
        opts: &RouteOptions,
    ) -> Result<(Vec<Pip>, HashSet<Wire>), RouteError> {
        let mut tree: HashSet<Wire> = [task.source].into_iter().collect();
        let mut pips: Vec<Pip> = Vec::new();

        // Sinks nearest-first: short connections lay down reusable trunk.
        let mut sinks = task.sinks.clone();
        sinks.sort_by_key(|s| task.source.tile.manhattan(s.tile));

        for sink in sinks {
            if tree.contains(&sink) {
                continue;
            }
            let target_tile = sink.tile;
            let mut best: HashMap<Wire, f64> = HashMap::new();
            let mut pred: HashMap<Wire, Pip> = HashMap::new();
            let mut heap = BinaryHeap::new();
            for &w in &tree {
                best.insert(w, 0.0);
                heap.push(HeapItem {
                    cost: 0.0,
                    est: estimate(w.tile, target_tile),
                    wire: w,
                });
            }
            let mut expansions = 0usize;
            let mut found = false;
            let mut scratch: Vec<Pip> = Vec::new();
            while let Some(HeapItem { cost, wire, .. }) = heap.pop() {
                if wire == sink {
                    found = true;
                    break;
                }
                if cost > best.get(&wire).copied().unwrap_or(f64::INFINITY) {
                    continue;
                }
                expansions += 1;
                if expansions > opts.max_expansions {
                    break;
                }
                scratch.clear();
                graph.downhill(wire, &mut scratch);
                for pip in &scratch {
                    let next = pip.to;
                    // Never route *through* logic pins: input pins are pure
                    // sinks, other nets' pins are off limits. Only the exact
                    // sink pin terminates.
                    match next.kind {
                        WireKind::SlicePin { .. } | WireKind::PadOut(_) if next != sink => {
                            continue;
                        }
                        WireKind::GlobalClock(_) => continue, // clock tree reserved
                        _ => {}
                    }
                    if let Some((c0, c1)) = opts.region_cols {
                        if !wire_in_region(&next, c0, c1) {
                            continue;
                        }
                    }
                    let own = u32::from(tree.contains(&next));
                    let step = state.congestion_cost(&next, own);
                    let ncost = cost + step;
                    if ncost + 1e-12 < best.get(&next).copied().unwrap_or(f64::INFINITY) {
                        best.insert(next, ncost);
                        pred.insert(next, *pip);
                        heap.push(HeapItem {
                            cost: ncost,
                            est: estimate(next.tile, target_tile),
                            wire: next,
                        });
                    }
                }
            }
            if !found {
                return Err(RouteError::Unroutable {
                    net: task.name.clone(),
                });
            }
            // Backtrack into the tree.
            let mut w = sink;
            let mut branch = Vec::new();
            while !tree.contains(&w) {
                let pip = pred[&w];
                branch.push(pip);
                w = pip.from;
            }
            for pip in branch.into_iter().rev() {
                tree.insert(pip.to);
                pips.push(pip);
            }
        }
        Ok((pips, tree))
    }

    /// Admissible-ish distance estimate: cheapest possible cost per tile is
    /// below 1 (hexes cover 6 tiles for cost 5), so weight modestly.
    fn estimate(from: TileCoord, to: TileCoord) -> f64 {
        from.manhattan(to) as f64 * 0.8
    }
}

/// How a case constrains routing.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// The whole device, negotiated.
    Unconstrained,
    /// Full-height columns `col0..col0 + width`, placement and routing
    /// both confined, with at most `iterations` negotiation rounds;
    /// `negotiate: false` is the FCFS ablation.
    Region {
        col0: i32,
        width: i32,
        iterations: usize,
        negotiate: bool,
    },
}

/// The nine generator circuits, sized to fit a narrow XCV50 region.
fn generators() -> Vec<Netlist> {
    vec![
        gen::counter("cnt", 8),
        gen::down_counter("down", 8),
        gen::gray_counter("gray", 8),
        gen::lfsr("lfsr", 8),
        gen::parity("par", 12),
        gen::adder("add", 6),
        gen::string_matcher(
            "match",
            &[true, false, true, true, false, false, true, false],
        ),
        gen::accumulator("acc", 6),
        gen::tmr_counter("tmr", 4),
    ]
}

/// Map, pack and place `nl` for `mode`; `None` if it does not fit.
fn placed(nl: &Netlist, device: Device, seed: u64, mode: Mode, extra_ucf: &str) -> Option<Design> {
    let mut d = pack_with_prefix(&map_netlist(nl), device, "");
    let mut ucf = extra_ucf.to_string();
    if let Mode::Region { col0, width, .. } = mode {
        let rows = device.geometry().clb_rows as i32;
        let rect = Rect::new(0, col0, rows - 1, col0 + width - 1);
        ucf += &format!(
            "INST \"*\" AREA_GROUP = \"AG\" ;\nAREA_GROUP \"AG\" RANGE = {} ;\n",
            rect.to_range_string()
        );
    }
    let cons = Constraints::parse(&ucf).expect("test UCF parses");
    place(&mut d, &cons, None, &PlaceOptions { seed, effort: 1.0 }).ok()?;
    Some(d)
}

fn options(seed: u64, mode: Mode) -> RouteOptions {
    let mut opts = RouteOptions {
        seed,
        ..RouteOptions::default()
    };
    if let Mode::Region {
        col0,
        width,
        iterations,
        negotiate,
    } = mode
    {
        opts.region_cols = Some((col0, col0 + width - 1));
        opts.clock_index = Some((seed % 4) as u8);
        opts.max_iterations = iterations;
        opts.negotiate = negotiate;
    }
    opts
}

/// Route a copy of `d` with both routers and require identical results.
/// Returns the router's result for the caller's tallies.
fn assert_same_route(
    d: &Design,
    opts: &RouteOptions,
    what: &str,
) -> Result<RouteReport, RouteError> {
    let mut ours = d.clone();
    let mut theirs = d.clone();
    let got = route(&mut ours, opts);
    let want = oracle::route(&mut theirs, opts);
    match (&got, &want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                (a.iterations, a.wirelength, a.pips),
                (b.iterations, b.wirelength, b.pips),
                "{what}: route reports differ"
            );
            for (x, y) in ours.nets.iter().zip(&theirs.nets) {
                assert_eq!(x.pips, y.pips, "{what}: net {} routed differently", x.name);
            }
            verify_routing(&ours).unwrap_or_else(|e| panic!("{what}: illegal route: {e}"));
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors differ"),
        _ => panic!("{what}: router gave {got:?}, oracle gave {want:?}"),
    }
    got
}

/// Tallies over a sweep: routes compared, and how many ended in error.
#[derive(Default)]
struct Tally {
    routes: usize,
    errors: usize,
}

fn sweep(device: Device, seeds: &[u64], mode: Mode, gens: &[Netlist]) -> Tally {
    let mut tally = Tally::default();
    for nl in gens {
        for &seed in seeds {
            let what = format!("{} on {device:?} seed {seed} {mode:?}", nl.name);
            let Some(d) = placed(nl, device, seed, mode, "") else {
                continue;
            };
            tally.routes += 1;
            if assert_same_route(&d, &options(seed, mode), &what).is_err() {
                tally.errors += 1;
            }
        }
    }
    tally
}

/// Every other generator: the sample for the larger devices.
fn every_other(gens: &[Netlist]) -> Vec<Netlist> {
    gens.iter().step_by(2).cloned().collect()
}

/// A Figure-4 style region: 8 full-height columns, default negotiation.
const FIG4: Mode = Mode::Region {
    col0: 8,
    width: 8,
    iterations: 40,
    negotiate: true,
};

#[test]
fn unconstrained_routes_match_the_oracle() {
    let gens = generators();
    let t = sweep(Device::XCV50, &[1], Mode::Unconstrained, &gens);
    let u = sweep(
        Device::XCV100,
        &[1],
        Mode::Unconstrained,
        &every_other(&gens),
    );
    assert_eq!((t.routes, u.routes), (9, 5));
}

#[test]
fn figure4_regions_match_the_oracle() {
    let gens = generators();
    let t = sweep(Device::XCV50, &[2], FIG4, &gens);
    let u = sweep(Device::XCV100, &[2], FIG4, &every_other(&gens));
    assert_eq!((t.routes, u.routes), (9, 5));
}

/// Two columns are too few for most generators: routes negotiate for
/// many rounds, and some run out of rounds.
#[test]
fn narrow_congested_regions_match_the_oracle() {
    let mode = Mode::Region {
        col0: 3,
        width: 2,
        iterations: 10,
        negotiate: true,
    };
    let t = sweep(Device::XCV50, &[3, 4], mode, &generators());
    assert!(t.routes >= 12, "only {} narrow cases placed", t.routes);
    assert!(t.errors > 0, "no narrow region ran out of rounds");
}

#[test]
fn fcfs_narrow_regions_match_the_oracle() {
    let mode = Mode::Region {
        col0: 3,
        width: 2,
        iterations: 1,
        negotiate: false,
    };
    let t = sweep(Device::XCV50, &[5, 6], mode, &generators());
    assert!(t.routes >= 12, "only {} FCFS cases placed", t.routes);
    assert!(t.errors > 0, "FCFS in a narrow region never congested");
}

#[test]
fn xcv1000_routes_match_the_oracle() {
    let gens = generators();
    let picks = [gens[0].clone(), gens[5].clone()];
    let region = Mode::Region {
        col0: 40,
        width: 8,
        iterations: 40,
        negotiate: true,
    };
    for mode in [Mode::Unconstrained, region] {
        let t = sweep(Device::XCV1000, &[7], mode, &picks);
        assert_eq!(t.routes, 2);
    }
}

/// A clock pad locked on the left IOB ring lies outside the region's
/// columns: the router numbers it past its window and still rides the
/// global clock tree from it.
#[test]
fn clock_pad_outside_the_region_matches_the_oracle() {
    let nl = gen::counter("cnt", 6);
    let d = placed(
        &nl,
        Device::XCV50,
        11,
        FIG4,
        "NET \"clk\" LOC = \"IOB_R5C0.P1\" ;\n",
    )
    .expect("counter fits an 8-column region");
    let pad = d.instance("clk").expect("clock pad instance");
    assert!(
        matches!(pad.placement, Placement::Iob(io) if io.tile.col == -1),
        "clock pad not on the left ring: {:?}",
        pad.placement
    );
    let report =
        assert_same_route(&d, &options(11, FIG4), "clock pad outside region").expect("routes");
    assert!(report.pips > 0);
}

/// A signal pad outside the region cannot be reached from inside it:
/// both routers give up on the same net.
#[test]
fn signal_pad_outside_the_region_is_unroutable_for_both() {
    let nl = gen::counter("cnt", 6);
    let d = placed(
        &nl,
        Device::XCV50,
        12,
        FIG4,
        "NET \"en\" LOC = \"IOB_R5C0.P2\" ;\n",
    )
    .expect("counter fits an 8-column region");
    let err = assert_same_route(&d, &options(12, FIG4), "signal pad outside region")
        .expect_err("an unreachable pad");
    assert!(matches!(err, RouteError::Unroutable { .. }), "{err}");
}
