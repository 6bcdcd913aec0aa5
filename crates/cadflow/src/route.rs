//! Routing: a PathFinder negotiated-congestion router over the `virtex`
//! routing graph.
//!
//! Classic algorithm: every net is routed by wave expansion (Dijkstra with
//! a weak admissible heuristic) from its source pin to each sink pin,
//! reusing the net's own partial route tree. Wires are allowed to be
//! temporarily overused; after each iteration the *present* congestion
//! penalty grows and persistent offenders accumulate *history* cost, so
//! nets negotiate until every wire has at most one owner.
//!
//! **Cost model.** Entering wire `w` costs
//! `base(w) · (1 + pres_fac · others(w)) + hist_fac · history(w)`, where
//! `base` grows with wire reach (slice pin 0.95, OMUX/pad/clock 1, single
//! 2, hex 5, long 9), `others(w)` counts the *other* nets on `w`, and
//! `history(w)` counts the iterations `w` ended overused. The heuristic
//! is 0.8 per tile of Manhattan distance to the sink. The heap pops the
//! lowest `cost + estimate`, ties broken by the `Wire` order, and a wire
//! is relaxed only on a strict improvement (`new + 1e-12 < best`), so a
//! route is a pure function of the placed design and the options.
//!
//! **Dense wire window.** Each `route()` call numbers the wires it may
//! touch once, so all per-wire state — usage, history and each search's
//! best cost, predecessor and tree flag — lives in arrays, not hash maps.
//! The window is whole columns (the `region_cols` region, or the device
//! with its IOB ring) at full height; a wire's id is its column-major
//! tile index times `WireKind::SLOTS` (106) plus `WireKind::slot`, the
//! packing the PIP tables share. Wires a route names outside the window
//! — the four global clock anchors at `(0, 0)` and task pins outside the
//! region, such as a clock pad on the ring — get ids past the window
//! from a short *extras* list built up front. The window is deliberately
//! not widened to reach them: that would map state for columns no search
//! enters.
//!
//! **Memoized edges.** The search graph is [`RoutingGraph::downhill`]
//! after two fixed rules: the clock tree is reserved, and a region route
//! stays in its columns and off horizontal long lines. Neither depends on
//! the search, so the first expansion of a wire in a `route()` call
//! filters its `downhill` output once and keeps the survivors as
//! `Edge`s — target id, base cost, heap rank, a logic-pin flag and
//! which end's tile holds the PIP's enable bit — which every later
//! expansion of that wire, in any net, sink or iteration, reads back.
//! Only the exact sink pin may be entered among the pins, so a pin edge
//! is skipped unless its target is the sink. The hot loop builds no
//! `Pip`: the search records predecessor ids, and a found path's PIPs
//! are rebuilt at backtrack from its edges.
//!
//! **Integer heap keys.** A heap entry orders by the `f64` bits of
//! `cost + estimate` (both non-negative, so integer order is float
//! order) and then by the wire's *rank*, `(row, col, slot)` packed into a
//! `u64`: for valid wires slot order is the derived `WireKind` order, so
//! rank order is `Wire` order and the pop sequence is the one a
//! float-and-`Wire` comparison gives.
//!
//! Clock nets bypass general routing: they ride the dedicated global
//! clock tree (`PadIn → GCLK → CLK` pips), exactly as the silicon does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use virtex::routing::GLOBAL_CLOCKS;
use virtex::{
    Device, IobCoord, Pip, RoutingGraph, SliceCoord, SlicePin, TileCoord, Wire, WireKind,
};
use xdl::{Design, InstanceKind, NetKind, PinRef, Placement};

/// Router options.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Maximum negotiation iterations before giving up.
    pub max_iterations: usize,
    /// Initial present-congestion factor.
    pub pres_fac: f64,
    /// Multiplier applied to the present factor each iteration.
    pub pres_fac_mult: f64,
    /// History cost increment per overused wire per iteration.
    pub hist_fac: f64,
    /// Expansion budget per sink (guards against unroutable nets).
    pub max_expansions: usize,
    /// RNG seed for net-order shuffling between iterations.
    pub seed: u64,
    /// Disable negotiation (first-come-first-served) — the ablation knob.
    pub negotiate: bool,
    /// Confine routing to the CLB columns `c0..=c1`. A floorplanned
    /// module routed under this constraint touches only its own
    /// configuration columns, which is what makes its JPG partial
    /// bitstream self-contained. Horizontal long lines are off limits in
    /// this mode; the global clock tree is always allowed.
    pub region_cols: Option<(i32, i32)>,
    /// Which of the four global clock trees clock nets ride. Modules
    /// implemented in separate flow runs but destined for the same device
    /// must be assigned distinct trees (the workflow layer does this);
    /// `None` derives the tree from the clock pad index.
    pub clock_index: Option<u8>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            max_iterations: 40,
            pres_fac: 0.6,
            pres_fac_mult: 1.8,
            hist_fac: 0.4,
            max_expansions: 400_000,
            seed: 1,
            negotiate: true,
            region_cols: None,
            clock_index: None,
        }
    }
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// An instance was not placed.
    Unplaced {
        /// Offending instance.
        instance: String,
    },
    /// A pin name did not resolve to a wire.
    BadPin {
        /// Offending pin.
        pin: String,
    },
    /// A sink could not be reached within the expansion budget.
    Unroutable {
        /// Offending net.
        net: String,
    },
    /// Negotiation did not converge (overused wires remain).
    Congested {
        /// Overused wires at the end.
        overused: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unplaced { instance } => write!(f, "instance {instance:?} not placed"),
            RouteError::BadPin { pin } => write!(f, "pin {pin:?} does not resolve"),
            RouteError::Unroutable { net } => write!(f, "net {net:?} is unroutable"),
            RouteError::Congested { overused } => {
                write!(f, "negotiation failed: {overused} wires still overused")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Routing statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteReport {
    /// Negotiation iterations used.
    pub iterations: usize,
    /// Total wires in all routes.
    pub wirelength: usize,
    /// Total PIPs set.
    pub pips: usize,
    /// Heap pops that expanded a wire, over every search of every
    /// iteration.
    pub expansions: u64,
    /// Heap pushes: each search's seeds from the net's tree plus every
    /// relaxation.
    pub heap_pushes: u64,
}

/// Resolve an instance pin to its fabric wire.
pub fn pin_wire(design: &Design, pin: &PinRef) -> Result<Wire, RouteError> {
    let inst = design
        .instance(&pin.inst)
        .ok_or_else(|| RouteError::BadPin {
            pin: format!("{}/{}", pin.inst, pin.pin),
        })?;
    match (&inst.placement, inst.kind) {
        (Placement::Slice(SliceCoord { tile, slice }), InstanceKind::Slice) => {
            let p = SlicePin::parse(&pin.pin).ok_or_else(|| RouteError::BadPin {
                pin: format!("{}/{}", pin.inst, pin.pin),
            })?;
            Ok(Wire::new(
                *tile,
                WireKind::SlicePin {
                    slice: *slice,
                    pin: p,
                },
            ))
        }
        (Placement::Iob(IobCoord { tile, pad }), InstanceKind::Iob) => match pin.pin.as_str() {
            "I" => Ok(Wire::new(*tile, WireKind::PadIn(*pad))),
            "O" => Ok(Wire::new(*tile, WireKind::PadOut(*pad))),
            _ => Err(RouteError::BadPin {
                pin: format!("{}/{}", pin.inst, pin.pin),
            }),
        },
        _ => Err(RouteError::Unplaced {
            instance: pin.inst.clone(),
        }),
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

/// `w`'s heap tie-break rank: `(row + 1, col + 1, slot)` packed as
/// 16-bit, 16-bit and 16-bit fields. For valid wires (rows and columns
/// from −1, in-range kind indices) rank order is `Wire` order.
fn rank(w: &Wire) -> u64 {
    let field = |x: i32| u64::from(x.wrapping_add(1) as u16);
    let slot = w.kind.slot().unwrap_or(WireKind::SLOTS) as u64;
    field(w.tile.row) << 32 | field(w.tile.col) << 16 | slot
}

/// The tile a [`rank`] names.
fn rank_tile(rank: u64) -> TileCoord {
    let field = |x: u64| i32::from(x as u16) - 1;
    TileCoord::new(field(rank >> 32), field(rank >> 16))
}

/// A min-heap entry on `cost + estimate`, ties broken by wire rank.
struct HeapItem {
    /// `cost + estimate` as `f64` bits: both are non-negative, so the
    /// integer order is the float order.
    key: u64,
    /// The wire's [`rank`].
    rank: u64,
    /// Path cost to the wire (not part of the order).
    cost: f64,
    /// The wire's dense id (not part of the order).
    id: u32,
}

impl HeapItem {
    fn new(cost: f64, est: f64, rank: u64, id: u32) -> Self {
        HeapItem {
            key: (cost + est).to_bits(),
            rank,
            cost,
            id,
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .cmp(&self.key)
            .then_with(|| self.rank.cmp(&other.rank))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A dense numbering of every wire one `route()` call can touch.
///
/// The window is a block of whole columns (the region's, or the device's
/// including the IOB ring) at full height, ring rows included. A wire at
/// tile `(row, col)` gets `((col − c0) · nrows + row + 1) · SLOTS + slot`
/// ([`WireKind::SLOTS`], [`WireKind::slot`]): column-major, so a region's
/// ids are contiguous. The few wires a route
/// can name outside the window — the global clock anchors at `(0, 0)` and
/// task pins outside the region, such as a clock pad on the ring — get
/// ids past the window from a short sorted list. Every search wire passes
/// the region filter first, so it always lies inside.
struct WireWindow {
    c0: i32,
    ncols: i32,
    nrows: i32,
    extras: Vec<Wire>,
}

impl WireWindow {
    /// The window for `region_cols` on `device`, plus the listed wires
    /// that fall outside it.
    fn new(
        device: Device,
        region_cols: Option<(i32, i32)>,
        outside: impl IntoIterator<Item = Wire>,
    ) -> Self {
        let g = device.geometry();
        // No wire lies beyond the IOB ring, so a region reaching past the
        // device is clipped to it.
        let (lo, hi) = (-1, g.clb_cols as i32);
        let (c0, c1) = region_cols.map_or((lo, hi), |(c0, c1)| (c0.max(lo), c1.min(hi)));
        let mut window = WireWindow {
            c0,
            ncols: (c1 - c0 + 1).max(0),
            nrows: g.clb_rows as i32 + 2,
            extras: Vec::new(),
        };
        window.extras = outside
            .into_iter()
            .filter(|w| window.local(w).is_none())
            .collect();
        window.extras.sort_unstable();
        window.extras.dedup();
        window
    }

    /// Ids below this are inside the window.
    fn window_len(&self) -> usize {
        (self.ncols * self.nrows) as usize * WireKind::SLOTS
    }

    /// Number of ids.
    fn len(&self) -> usize {
        self.window_len() + self.extras.len()
    }

    fn local(&self, w: &Wire) -> Option<usize> {
        // Wrapping: a pin placed at an absurd coordinate lands outside
        // the range checks below instead of overflowing.
        let c = w.tile.col.wrapping_sub(self.c0);
        let r = w.tile.row.wrapping_add(1);
        if !(0..self.ncols).contains(&c) || !(0..self.nrows).contains(&r) {
            return None;
        }
        Some((c * self.nrows + r) as usize * WireKind::SLOTS + w.kind.slot()?)
    }

    /// The dense id of `w`.
    ///
    /// # Panics
    /// If `w` is neither inside the window nor one of the listed wires —
    /// an internal invariant, since the router only names task pins,
    /// global clocks and wires that passed the region filter.
    fn id(&self, w: &Wire) -> usize {
        self.local(w)
            .or_else(|| {
                let i = self.extras.binary_search(w).ok()?;
                Some(self.window_len() + i)
            })
            .unwrap_or_else(|| panic!("wire {w} outside the routing window"))
    }

    /// The wire with dense id `id`: the inverse of [`Self::id`].
    fn wire(&self, id: usize) -> Wire {
        if let Some(i) = id.checked_sub(self.window_len()) {
            return self.extras[i];
        }
        let (tile, slot) = (id / WireKind::SLOTS, id % WireKind::SLOTS);
        let (c, r) = (tile as i32 / self.nrows, tile as i32 % self.nrows);
        let kind = WireKind::from_slot(slot).expect("window ids hold valid slots");
        Wire::new(TileCoord::new(r - 1, self.c0 + c), kind)
    }
}

/// One memoized search-graph edge out of an expanded wire.
#[derive(Clone, Copy)]
struct Edge {
    /// The target's base cost.
    base: f64,
    /// The target's heap [`rank`]; it also names the target's tile.
    rank: u64,
    /// The target's dense id.
    to: u32,
    /// The target is a logic pin (slice pin or pad output): entered only
    /// as the search's sink.
    pin: bool,
    /// The PIP's enable bit sits in the target's tile, not the source's.
    at_target: bool,
}

/// The search graph of one `route()` call, filled the first time each
/// wire is expanded.
struct Edges {
    /// Per id: one plus the index of the wire's run in `runs`; zero until
    /// the wire is first expanded. Four bytes per window id, since only
    /// a few hundred wires per route are ever expanded.
    run_of: Vec<u32>,
    /// `[start, end)` of each expanded wire's edges in `edges`.
    runs: Vec<[u32; 2]>,
    edges: Vec<Edge>,
    /// Whether routing is confined to the window's columns.
    region: bool,
    scratch: Vec<Pip>,
}

impl Edges {
    fn new(len: usize, region: bool) -> Self {
        Edges {
            run_of: vec![0; len],
            runs: Vec::new(),
            edges: Vec::new(),
            region,
            scratch: Vec::new(),
        }
    }

    /// The edges out of wire `id`, computed on first use: `downhill`
    /// minus the clock tree (reserved) and, in a region, minus
    /// horizontal long lines and every wire outside the window's columns.
    fn out(&mut self, id: usize, graph: &RoutingGraph, window: &WireWindow) -> &[Edge] {
        if let Some(run) = self.run_of[id].checked_sub(1) {
            let [start, end] = self.runs[run as usize];
            return &self.edges[start as usize..end as usize];
        }
        let start = self.edges.len();
        self.scratch.clear();
        graph.downhill(window.wire(id), &mut self.scratch);
        for pip in &self.scratch {
            let next = pip.to;
            let pin = match next.kind {
                WireKind::GlobalClock(_) => continue,
                WireKind::Long { horiz: true, .. } if self.region => continue,
                WireKind::SlicePin { .. } | WireKind::PadOut(_) => true,
                _ => false,
            };
            // Outside the window means outside the region: the whole
            // device's window holds every wire of the device.
            let Some(to) = window.local(&next) else {
                continue;
            };
            debug_assert!(pip.loc == next.tile || pip.loc == pip.from.tile, "{pip}");
            self.edges.push(Edge {
                base: base_cost(&next.kind),
                rank: rank(&next),
                to: to as u32,
                pin,
                at_target: pip.loc == next.tile,
            });
        }
        self.runs.push([start as u32, self.edges.len() as u32]);
        self.run_of[id] = self.runs.len() as u32;
        &self.edges[start..]
    }

    /// The PIP a search step from `from` to `to` took: the first edge
    /// between them, as `downhill` listed it, is the one that relaxed
    /// `to`.
    fn pip(&mut self, from: usize, to: usize, graph: &RoutingGraph, window: &WireWindow) -> Pip {
        let at_target = self
            .out(from, graph, window)
            .iter()
            .find(|e| e.to as usize == to)
            .expect("a search step follows an edge")
            .at_target;
        let (from, to) = (window.wire(from), window.wire(to));
        let loc = if at_target { to.tile } else { from.tile };
        Pip { loc, from, to }
    }
}

struct RouterState {
    window: WireWindow,
    /// Nets using each wire.
    usage: Vec<u32>,
    /// Iterations each wire ended overused.
    history: Vec<u32>,
    pres_fac: f64,
    hist_fac: f64,
}

impl RouterState {
    /// The distinct wires used by more than one net, given every net's
    /// wires.
    fn overused(&self, route_wires: &[Vec<u32>]) -> Vec<u32> {
        let mut over: Vec<u32> = route_wires
            .iter()
            .flatten()
            .copied()
            .filter(|&id| self.usage[id as usize] > 1)
            .collect();
        over.sort_unstable();
        over.dedup();
        over
    }
}

/// Per-search state, indexed by wire id and reused across sinks and nets.
/// Every array is zero when no search is running: a search resets only
/// the entries it touched, so it costs O(explored), not O(window), and
/// zeroed memory is mapped only where searches go.
struct Search {
    /// Best known cost, as `f64` bits XOR [`INF_BITS`] (zero = unreached).
    best: Vec<u64>,
    /// One plus the id of the wire the best path arrived from.
    pred: Vec<u32>,
    /// Whether the wire is on the current net's tree.
    in_tree: Vec<bool>,
    /// Ids whose `best`/`pred` this search set.
    touched: Vec<u32>,
    heap: BinaryHeap<HeapItem>,
    /// Expansions and heap pushes over the whole `route()` call.
    expansions: u64,
    heap_pushes: u64,
}

const INF_BITS: u64 = f64::INFINITY.to_bits();

impl Search {
    fn new(len: usize) -> Self {
        Search {
            best: vec![0; len],
            pred: vec![0; len],
            in_tree: vec![false; len],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            expansions: 0,
            heap_pushes: 0,
        }
    }

    fn best(&self, id: usize) -> f64 {
        f64::from_bits(self.best[id] ^ INF_BITS)
    }

    fn set_best(&mut self, id: usize, cost: f64) {
        if self.best[id] == 0 {
            self.touched.push(id as u32);
        }
        self.best[id] = cost.to_bits() ^ INF_BITS;
    }

    fn push(&mut self, item: HeapItem) {
        self.heap_pushes += 1;
        self.heap.push(item);
    }

    /// Forget one sink search.
    fn reset(&mut self) {
        for id in self.touched.drain(..) {
            self.best[id as usize] = 0;
            self.pred[id as usize] = 0;
        }
        self.heap.clear();
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

    let clocks = (0..GLOBAL_CLOCKS as u8).map(|k| graph.global_clock(k));
    let pins = tasks
        .iter()
        .flat_map(|t| std::iter::once(t.source).chain(t.sinks.iter().copied()));
    let window = WireWindow::new(design.device, opts.region_cols, clocks.chain(pins));
    let mut search = Search::new(window.len());
    let mut edges = Edges::new(window.len(), opts.region_cols.is_some());
    let mut state = RouterState {
        usage: vec![0; window.len()],
        history: vec![0; window.len()],
        window,
        pres_fac: opts.pres_fac,
        hist_fac: opts.hist_fac,
    };
    let mut routes: Vec<Vec<Pip>> = vec![Vec::new(); tasks.len()];
    // Each net's wires as dense ids; a route tree has no duplicates.
    let mut route_wires: Vec<Vec<u32>> = vec![Vec::new(); tasks.len()];

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
                    .any(|&id| state.usage[id as usize] > 1);
            if !needs {
                continue;
            }
            any_rerouted = true;
            // Rip up.
            for id in route_wires[ti].drain(..) {
                state.usage[id as usize] -= 1;
            }
            routes[ti].clear();

            let (pips, wires) = if task.is_clock {
                route_clock(&graph, task, &state.window, opts.clock_index)?
            } else {
                route_signal(&graph, task, &state, &mut search, &mut edges, opts)?
            };
            for &id in &wires {
                state.usage[id as usize] += 1;
            }
            routes[ti] = pips;
            route_wires[ti] = wires;
        }

        // Converged?
        let overused = state.overused(&route_wires);
        if overused.is_empty() {
            report.pips = routes.iter().map(Vec::len).sum();
            report.wirelength = route_wires.iter().map(Vec::len).sum();
            report.expansions = search.expansions;
            report.heap_pushes = search.heap_pushes;
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
        for id in overused {
            state.history[id as usize] += 1;
        }
        state.pres_fac *= opts.pres_fac_mult;
        // Shuffle net order so the same victims don't always pay.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
    }
    let overused = state.overused(&route_wires).len();
    Err(RouteError::Congested { overused })
}

/// Route a clock net over the dedicated tree.
fn route_clock(
    graph: &RoutingGraph,
    task: &NetTask,
    window: &WireWindow,
    clock_index: Option<u8>,
) -> Result<(Vec<Pip>, Vec<u32>), RouteError> {
    let WireKind::PadIn(pad) = task.source.kind else {
        return Err(RouteError::BadPin {
            pin: format!("clock source of {} is not a pad", task.name),
        });
    };
    let idx = clock_index.unwrap_or(pad) % GLOBAL_CLOCKS as u8;
    let gclk = graph.global_clock(idx);
    let mut pips = vec![Pip {
        loc: task.source.tile,
        from: task.source,
        to: gclk,
    }];
    let mut wires = vec![window.id(&task.source) as u32, window.id(&gclk) as u32];
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
        wires.push(window.id(sink) as u32);
    }
    // A sink listed twice is one wire.
    wires.sort_unstable();
    wires.dedup();
    Ok((pips, wires))
}

/// Route a signal net: Dijkstra per sink, reusing the growing tree.
fn route_signal(
    graph: &RoutingGraph,
    task: &NetTask,
    state: &RouterState,
    search: &mut Search,
    edges: &mut Edges,
    opts: &RouteOptions,
) -> Result<(Vec<Pip>, Vec<u32>), RouteError> {
    let window = &state.window;
    let source = window.id(&task.source);
    let mut tree: Vec<Wire> = vec![task.source];
    let mut tree_ids: Vec<u32> = vec![source as u32];
    search.in_tree[source] = true;
    let mut pips: Vec<Pip> = Vec::new();
    let mut branch: Vec<(u32, u32)> = Vec::new();

    // Sinks nearest-first: short connections lay down reusable trunk.
    let mut sinks = task.sinks.clone();
    sinks.sort_by_key(|s| task.source.tile.manhattan(s.tile));

    for sink in sinks {
        let sink_id = window.id(&sink);
        if search.in_tree[sink_id] {
            continue;
        }
        let target_tile = sink.tile;
        for (w, &id) in tree.iter().zip(&tree_ids) {
            search.set_best(id as usize, 0.0);
            search.push(HeapItem::new(
                0.0,
                estimate(w.tile, target_tile),
                rank(w),
                id,
            ));
        }
        let mut expansions = 0usize;
        let mut found = false;
        while let Some(HeapItem { cost, id, .. }) = search.heap.pop() {
            let id = id as usize;
            if id == sink_id {
                found = true;
                break;
            }
            if cost > search.best(id) {
                continue;
            }
            expansions += 1;
            if expansions > opts.max_expansions {
                break;
            }
            search.expansions += 1;
            for e in edges.out(id, graph, window) {
                let nid = e.to as usize;
                // Never route *through* logic pins: input pins are pure
                // sinks, other nets' pins are off limits. Only the exact
                // sink pin terminates.
                if e.pin && nid != sink_id {
                    continue;
                }
                // Usage by *other* nets: during our own reroute the
                // tree's wires are not counted in `usage`, so saturate.
                // Capacity is 1 everywhere, so with us added the overuse
                // equals the other-net count.
                let others = state.usage[nid].saturating_sub(u32::from(search.in_tree[nid]));
                let step = e.base * (1.0 + state.pres_fac * f64::from(others))
                    + state.hist_fac * f64::from(state.history[nid]);
                let ncost = cost + step;
                if ncost + 1e-12 < search.best(nid) {
                    search.set_best(nid, ncost);
                    search.pred[nid] = id as u32 + 1;
                    let est = estimate(rank_tile(e.rank), target_tile);
                    search.push(HeapItem::new(ncost, est, e.rank, e.to));
                }
            }
        }
        if !found {
            return Err(RouteError::Unroutable {
                net: task.name.clone(),
            });
        }
        // Backtrack into the tree, then rebuild each step's PIP.
        let mut id = sink_id;
        branch.clear();
        while !search.in_tree[id] {
            let from = search.pred[id] - 1;
            branch.push((from, id as u32));
            id = from as usize;
        }
        for &(from, to) in branch.iter().rev() {
            let pip = edges.pip(from as usize, to as usize, graph, window);
            search.in_tree[to as usize] = true;
            tree.push(pip.to);
            tree_ids.push(to);
            pips.push(pip);
        }
        search.reset();
    }
    for &id in &tree_ids {
        search.in_tree[id as usize] = false;
    }
    Ok((pips, tree_ids))
}

/// Admissible-ish distance estimate: cheapest possible cost per tile is
/// below 1 (hexes cover 6 tiles for cost 5), so weight modestly.
fn estimate(from: TileCoord, to: TileCoord) -> f64 {
    from.manhattan(to) as f64 * 0.8
}

/// Check the legality of a routed design: every routed net forms a
/// connected tree from its source covering all sinks, PIPs exist in the
/// fabric at their location tiles, and no wire is used by two nets.
/// Returns a description of the first violation.
pub fn verify_routing(design: &Design) -> Result<(), String> {
    let graph = RoutingGraph::new(design.device);
    let mut owner: HashMap<Wire, &str> = HashMap::new();
    for net in &design.nets {
        let (Some(outpin), false) = (&net.outpin, net.inpins.is_empty()) else {
            continue;
        };
        if net.kind == NetKind::Power {
            continue;
        }
        let source = pin_wire(design, outpin).map_err(|e| format!("net {}: {e}", net.name))?;
        let mut reached: HashSet<Wire> = [source].into_iter().collect();
        for pip in &net.pips {
            // The PIP, clock tree included, must exist at its location.
            if graph.pip_index(pip).is_none() {
                return Err(format!("net {}: pip {} not in fabric", net.name, pip));
            }
            if !reached.contains(&pip.from) {
                return Err(format!("net {}: pip {} hangs off the tree", net.name, pip));
            }
            reached.insert(pip.to);
        }
        for inpin in &net.inpins {
            let sink = pin_wire(design, inpin).map_err(|e| format!("net {}: {e}", net.name))?;
            if !reached.contains(&sink) {
                return Err(format!(
                    "net {}: sink {}/{} not reached",
                    net.name, inpin.inst, inpin.pin
                ));
            }
        }
        for w in reached {
            if let Some(prev) = owner.insert(w, &net.name) {
                if prev != net.name {
                    return Err(format!(
                        "wire {w} shared by nets {prev:?} and {:?}",
                        net.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Total routed wirelength (wires summed over nets) — a quality metric
/// for reports and benches.
pub fn routed_wirelength(design: &Design) -> usize {
    design.nets.iter().map(|n| n.pips.len()).sum()
}

#[allow(unused_imports)]
use virtex::grid as _grid_doc_anchor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::map::map_netlist;
    use crate::pack::pack_with_prefix;
    use crate::place::{place, PlaceOptions};
    use virtex::Device;
    use xdl::Constraints;

    fn implement(nl: &crate::netlist::Netlist, ucf: &str, seed: u64) -> Design {
        let m = map_netlist(nl);
        let mut d = pack_with_prefix(&m, Device::XCV50, "");
        let cons = Constraints::parse(ucf).unwrap();
        place(&mut d, &cons, None, &PlaceOptions { seed, effort: 1.0 }).unwrap();
        route(&mut d, &RouteOptions::default()).unwrap();
        d
    }

    /// Every existing wire inside `window`'s columns gets a distinct id
    /// below `len()`; returns how many there were.
    fn assert_window_ids_distinct(device: Device, window: &WireWindow, cols: (i32, i32)) -> usize {
        let graph = RoutingGraph::new(device);
        let rows = device.geometry().clb_rows as i32;
        let kinds: Vec<WireKind> = (0..WireKind::SLOTS)
            .filter_map(WireKind::from_slot)
            .collect();
        let mut seen = vec![false; window.len()];
        let mut count = 0;
        for col in cols.0..=cols.1 {
            for row in -1..=rows {
                for &kind in &kinds {
                    let w = Wire::new(TileCoord::new(row, col), kind);
                    if !graph.wire_exists(w) {
                        continue;
                    }
                    let id = window.id(&w);
                    assert!(id < window.len(), "{w}: id {id} out of range");
                    assert_eq!(window.wire(id), w, "id {id} does not invert");
                    assert!(
                        !std::mem::replace(&mut seen[id], true),
                        "{w}: id {id} reused"
                    );
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn window_ids_are_distinct_on_every_wire() {
        for device in [Device::XCV50, Device::XCV1000] {
            let cols = device.geometry().clb_cols as i32;
            let whole = WireWindow::new(device, None, []);
            assert!(whole.extras.is_empty());
            let n = assert_window_ids_distinct(device, &whole, (-1, cols));
            // The whole-device window also holds the clock anchors.
            assert!(
                n > 0
                    && whole
                        .local(&Wire::new(TileCoord::new(0, 0), WireKind::GlobalClock(3)))
                        .is_some()
            );

            let height = device.geometry().clb_rows + 2;
            let region = WireWindow::new(device, Some((4, 11)), []);
            assert_eq!(region.window_len(), 8 * height * WireKind::SLOTS);
            assert!(assert_window_ids_distinct(device, &region, (4, 11)) > 0);

            // A region reaching past the device stops at the IOB ring.
            let clipped = WireWindow::new(device, Some((cols - 3, cols + 1000)), []);
            assert_eq!(clipped.window_len(), 4 * height * WireKind::SLOTS);
            assert!(assert_window_ids_distinct(device, &clipped, (cols - 3, cols)) > 0);
            let beyond = WireWindow::new(device, Some((cols + 5, cols + 9)), []);
            assert_eq!(beyond.window_len(), 0);
        }
    }

    /// Heap ties break by rank exactly as they would by `Wire::cmp`.
    #[test]
    fn rank_order_is_wire_order_on_every_valid_wire() {
        for device in [Device::XCV50, Device::XCV1000] {
            let graph = RoutingGraph::new(device);
            let window = WireWindow::new(device, None, []);
            let mut wires: Vec<Wire> = (0..window.len())
                .map(|id| window.wire(id))
                .filter(|&w| graph.wire_exists(w))
                .collect();
            assert!(wires.len() > 1000);
            wires.sort_unstable();
            for w in &wires {
                assert_eq!(rank_tile(rank(w)), w.tile, "{w}");
            }
            for pair in wires.windows(2) {
                assert!(
                    rank(&pair[0]) < rank(&pair[1]),
                    "{} ranks at or after {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn wires_outside_the_region_get_ids_past_the_window() {
        let graph = RoutingGraph::new(Device::XCV50);
        let clocks: Vec<Wire> = (0..GLOBAL_CLOCKS as u8)
            .map(|k| graph.global_clock(k))
            .collect();
        let pad = Wire::new(TileCoord::new(4, -1), WireKind::PadIn(1));
        let inside = Wire::new(TileCoord::new(2, 5), WireKind::Omux(3));
        let listed = clocks.iter().copied().chain([pad, inside, pad]);
        let window = WireWindow::new(Device::XCV50, Some((4, 11)), listed);
        // The clocks and the pad, once each; the in-window wire is not an
        // extra.
        assert_eq!(window.extras.len(), GLOBAL_CLOCKS + 1);
        let mut ids: Vec<usize> = clocks.iter().chain([&pad]).map(|w| window.id(w)).collect();
        assert!(ids
            .iter()
            .all(|&id| (window.window_len()..window.len()).contains(&id)));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), GLOBAL_CLOCKS + 1);
        assert!(window.id(&inside) < window.window_len());
    }

    #[test]
    #[should_panic(expected = "outside the routing window")]
    fn an_unlisted_wire_outside_the_window_is_an_invariant_violation() {
        let window = WireWindow::new(Device::XCV50, Some((4, 11)), []);
        window.id(&Wire::new(TileCoord::new(0, 0), WireKind::Omux(0)));
    }

    #[test]
    fn clock_pad_outside_the_region_routes_on_the_tree() {
        let ucf = r#"
NET "clk" LOC = "IOB_R5C0.P1" ;
INST "*" AREA_GROUP = "AG" ;
AREA_GROUP "AG" RANGE = CLB_R1C5:CLB_R16C12 ;
"#;
        let nl = gen::counter("cnt", 4);
        let mut d = pack_with_prefix(&map_netlist(&nl), Device::XCV50, "");
        let cons = Constraints::parse(ucf).unwrap();
        place(
            &mut d,
            &cons,
            None,
            &PlaceOptions {
                seed: 6,
                effort: 1.0,
            },
        )
        .unwrap();
        let opts = RouteOptions {
            region_cols: Some((4, 11)),
            clock_index: Some(2),
            ..RouteOptions::default()
        };
        route(&mut d, &opts).unwrap();
        verify_routing(&d).unwrap();
        let clk = d.net("clk").unwrap();
        assert_eq!(clk.pips[0].from.tile, TileCoord::new(4, -1));
        assert_eq!(clk.pips[0].to.kind, WireKind::GlobalClock(2));
    }

    #[test]
    fn routes_counter_legally() {
        let nl = gen::counter("cnt", 4);
        let d = implement(&nl, "", 3);
        assert!(d.fully_routed());
        verify_routing(&d).unwrap();
    }

    #[test]
    fn routes_constrained_region() {
        let ucf = r#"
INST "*" AREA_GROUP = "AG" ;
AREA_GROUP "AG" RANGE = CLB_R1C1:CLB_R6C6 ;
"#;
        let nl = gen::accumulator("acc", 4);
        let d = implement(&nl, ucf, 5);
        verify_routing(&d).unwrap();
    }

    #[test]
    fn clock_rides_global_tree() {
        let nl = gen::counter("cnt", 4);
        let d = implement(&nl, "", 7);
        let clk = d.net("clk").unwrap();
        assert!(clk
            .pips
            .iter()
            .any(|p| matches!(p.to.kind, WireKind::GlobalClock(_))));
        assert!(clk.pips.iter().all(|p| matches!(
            (p.from.kind, p.to.kind),
            (WireKind::PadIn(_), WireKind::GlobalClock(_))
                | (WireKind::GlobalClock(_), WireKind::SlicePin { .. })
        )));
    }

    #[test]
    fn feedback_to_same_slice_routes() {
        // A 1-bit toggler: Q feeds back to its own LUT input.
        let mut b = crate::netlist::NetlistBuilder::new("t");
        let zero = b.constant(false);
        let q = b.dff(zero);
        let nq = b.not(q);
        b.rewire_dff(0, nq);
        b.output("q", q);
        let nl = b.build();
        let d = implement(&nl, "", 1);
        verify_routing(&d).unwrap();
    }

    #[test]
    fn region_confined_routing_stays_in_columns() {
        let ucf = r#"
INST "*" AREA_GROUP = "AG" ;
AREA_GROUP "AG" RANGE = CLB_R1C5:CLB_R16C12 ;
"#;
        let nl = gen::counter("cnt", 4);
        let m = map_netlist(&nl);
        let mut d = pack_with_prefix(&m, Device::XCV50, "");
        let cons = Constraints::parse(ucf).unwrap();
        place(
            &mut d,
            &cons,
            None,
            &PlaceOptions {
                seed: 4,
                effort: 1.0,
            },
        )
        .unwrap();
        let opts = RouteOptions {
            region_cols: Some((4, 11)),
            ..RouteOptions::default()
        };
        route(&mut d, &opts).unwrap();
        verify_routing(&d).unwrap();
        for net in &d.nets {
            for pip in &net.pips {
                assert!(
                    (4..=11).contains(&pip.loc.col),
                    "net {} has pip {} outside region columns",
                    net.name,
                    pip
                );
            }
        }
    }

    #[test]
    fn verify_catches_tampering() {
        let nl = gen::counter("cnt", 2);
        let mut d = implement(&nl, "", 9);
        // Drop a pip from a routed signal net: some sink must become
        // unreachable.
        let victim = d
            .nets
            .iter_mut()
            .find(|n| n.kind == NetKind::Wire && n.pips.len() > 1)
            .unwrap();
        victim.pips.pop();
        assert!(verify_routing(&d).is_err());
    }

    #[test]
    fn fcfs_mode_may_fail_but_never_overlaps_silently() {
        // With negotiation off the router either produces a legal result
        // or reports congestion — it must not return overlapped wires.
        let nl = gen::accumulator("acc", 6);
        let m = map_netlist(&nl);
        let mut d = pack_with_prefix(&m, Device::XCV50, "");
        let cons = Constraints::default();
        place(
            &mut d,
            &cons,
            None,
            &PlaceOptions {
                seed: 2,
                effort: 1.0,
            },
        )
        .unwrap();
        let mut opts = RouteOptions {
            negotiate: false,
            ..RouteOptions::default()
        };
        opts.max_iterations = 1;
        match route(&mut d, &opts) {
            Ok(_) => verify_routing(&d).unwrap(),
            Err(RouteError::Congested { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
