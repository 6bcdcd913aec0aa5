//! Placement: simulated annealing over slice and IOB sites, honouring UCF
//! `LOC` locks and `AREA_GROUP`/`RANGE` regions, with a *guided* mode that
//! seeds from a previous implementation (the paper's Phase-2 "guided
//! floorplanning" step).
//!
//! Site occupancy lives in a dense array over the device's tiles, ring
//! included (`Occupancy`), so the annealer's inner loop neither hashes
//! nor allocates: each instance carries the index of its candidate-site
//! pool, one buffer collects a move's affected nets, and each net's
//! current wirelength is kept, so a move recomputes only the affected
//! nets' new lengths. The initial random placement scans the same array
//! for free sites. Every RNG draw happens in the same order as a
//! hash-map placer's would, so placement stays a pure function of the
//! design, constraints and seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use virtex::routing::PADS_PER_IOB;
use virtex::{Device, IobCoord, SliceCoord, SliceId, TileCoord};
use xdl::{Constraints, Design, InstanceKind, Placement, Rect};

/// Placement options.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// RNG seed (placement is deterministic given the seed).
    pub seed: u64,
    /// Effort multiplier on the annealing move budget (1.0 = default).
    pub effort: f64,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            seed: 1,
            effort: 1.0,
        }
    }
}

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Region/domain has fewer sites than instances.
    NoSpace {
        /// Instance that could not be placed.
        instance: String,
    },
    /// A `LOC` constraint targets an invalid or occupied site.
    BadLoc {
        /// Instance with the bad constraint.
        instance: String,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::NoSpace { instance } => {
                write!(f, "no free site for instance {instance:?}")
            }
            PlaceError::BadLoc { instance } => {
                write!(f, "bad or conflicting LOC for instance {instance:?}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Placement statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaceReport {
    /// Total half-perimeter wirelength after placement.
    pub wirelength: u64,
    /// Annealing moves attempted.
    pub moves: u64,
    /// Moves accepted.
    pub accepted: u64,
}

struct Problem {
    /// Tile of each movable instance (slice instances only move over
    /// slice sites, IOBs over IOB sites).
    site_of: Vec<Site>,
    fixed: Vec<bool>,
    domain: Vec<Option<Rect>>,
    /// Nets as lists of instance indices (pins collapse per instance).
    nets: Vec<Vec<usize>>,
    /// Net membership per instance.
    member: Vec<Vec<usize>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Site {
    Slice(SliceCoord),
    Iob(IobCoord),
}

impl Site {
    fn tile(self) -> TileCoord {
        match self {
            Site::Slice(s) => s.tile,
            Site::Iob(io) => io.tile,
        }
    }

    fn is_slice(self) -> bool {
        matches!(self, Site::Slice(_))
    }
}

/// Which instance holds each site, over a padded `(rows + 2) × (cols +
/// 2)` tile grid with four slots per tile: a CLB tile's slices take
/// slots 0–1, an IOB tile's pads slots 0–3.
struct Occupancy {
    /// Padded grid width, `cols + 2`.
    width: i32,
    /// Padded grid height, `rows + 2`.
    height: i32,
    /// One plus the occupying instance; zero = free.
    by_site: Vec<u32>,
}

impl Occupancy {
    const SLOTS: usize = 4;

    fn new(device: Device) -> Self {
        let g = device.geometry();
        let (width, height) = (g.clb_cols as i32 + 2, g.clb_rows as i32 + 2);
        Occupancy {
            width,
            height,
            by_site: vec![0; (width * height) as usize * Self::SLOTS],
        }
    }

    /// `site`'s index, `None` off the padded grid or past the slots.
    fn index(&self, site: Site) -> Option<usize> {
        let (tile, slot) = match site {
            Site::Slice(s) => (s.tile, s.slice.index()),
            Site::Iob(io) => (io.tile, usize::from(io.pad)),
        };
        let (r, c) = (tile.row.wrapping_add(1), tile.col.wrapping_add(1));
        if !(0..self.height).contains(&r) || !(0..self.width).contains(&c) || slot >= Self::SLOTS {
            return None;
        }
        Some((r * self.width + c) as usize * Self::SLOTS + slot)
    }

    /// The instance on `site`, if any.
    fn get(&self, site: Site) -> Option<usize> {
        let held = self.by_site[self.index(site)?];
        held.checked_sub(1).map(|i| i as usize)
    }

    /// Put `inst` on `site` (`None` frees it). `site` must be on the grid.
    fn set(&mut self, site: Site, inst: Option<usize>) {
        let i = self.index(site).expect("site on the grid");
        self.by_site[i] = inst.map_or(0, |i| i as u32 + 1);
    }
}

/// `rect` (the whole device for `None`) clipped to the CLB array.
fn clb_rect(device: Device, rect: Option<Rect>) -> Rect {
    let g = device.geometry();
    let full = Rect::new(0, 0, g.clb_rows as i32 - 1, g.clb_cols as i32 - 1);
    rect.map(|r| {
        Rect::new(
            r.row0.max(0),
            r.col0.max(0),
            r.row1.min(full.row1),
            r.col1.min(full.col1),
        )
    })
    .unwrap_or(full)
}

/// Every slice site of `rect`, row-major, S0 before S1.
fn slice_sites(rect: &Rect) -> impl Iterator<Item = Site> + '_ {
    rect.tiles()
        .flat_map(|t| SliceId::ALL.map(|s| Site::Slice(SliceCoord::new(t, s))))
}

fn iob_sites(device: Device) -> Vec<Site> {
    virtex::grid::iob_tiles(device)
        .flat_map(|t| (0..PADS_PER_IOB as u8).map(move |p| Site::Iob(IobCoord::new(t, p))))
        .collect()
}

fn hpwl(net: &[usize], site_of: &[Site]) -> u64 {
    if net.len() < 2 {
        return 0;
    }
    let (mut r0, mut r1, mut c0, mut c1) = (i32::MAX, i32::MIN, i32::MAX, i32::MIN);
    for &i in net {
        let t = site_of[i].tile();
        r0 = r0.min(t.row);
        r1 = r1.max(t.row);
        c0 = c0.min(t.col);
        c1 = c1.max(t.col);
    }
    ((r1 - r0) + (c1 - c0)) as u64
}

/// Place `design` in-place. Every instance ends up `Placement::Slice` or
/// `Placement::Iob`; slice instances stay inside their UCF region.
///
/// `guide`: a previously placed design whose same-named instances seed
/// (and lock) this placement — the paper's guided mode. Unmatched
/// instances are annealed as usual.
pub fn place(
    design: &mut Design,
    constraints: &Constraints,
    guide: Option<&Design>,
    opts: &PlaceOptions,
) -> Result<PlaceReport, PlaceError> {
    let device = design.device;
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let n = design.instances.len();
    let mut site_of: Vec<Option<Site>> = vec![None; n];
    let mut fixed = vec![false; n];
    let mut domain: Vec<Option<Rect>> = vec![None; n];
    let mut occupied = Occupancy::new(device);

    // Pass 1: locks — explicit LOC, then guide.
    for (i, inst) in design.instances.iter().enumerate() {
        domain[i] = constraints.region_for(&inst.name);
        let loc = constraints.loc_for(&inst.name).cloned().or_else(|| {
            // Pad locks arrive as NET constraints on the port net, whose
            // name equals the IOB instance name in our packing.
            if inst.kind == InstanceKind::Iob {
                constraints.net_loc_for(&inst.name).cloned()
            } else {
                None
            }
        });
        let guided = guide
            .and_then(|g| g.instance(&inst.name))
            .and_then(|gi| match gi.placement {
                Placement::Slice(s) => Some(Site::Slice(s)),
                Placement::Iob(io) => Some(Site::Iob(io)),
                Placement::Unplaced => None,
            });
        let want: Option<Site> = match (loc, inst.kind) {
            (Some(xdl::ucf::LocTarget::Slice(s)), InstanceKind::Slice) => Some(Site::Slice(s)),
            (Some(xdl::ucf::LocTarget::Tile(t)), InstanceKind::Slice) => {
                // Either slice of the tile; prefer S0, fall back to S1.
                let s0 = Site::Slice(SliceCoord::new(t, SliceId::S0));
                let s1 = Site::Slice(SliceCoord::new(t, SliceId::S1));
                if occupied.get(s0).is_some() {
                    Some(s1)
                } else {
                    Some(s0)
                }
            }
            (Some(xdl::ucf::LocTarget::Iob(io)), InstanceKind::Iob) => Some(Site::Iob(io)),
            (Some(_), _) => {
                return Err(PlaceError::BadLoc {
                    instance: inst.name.clone(),
                })
            }
            (None, _) => guided,
        };
        if let Some(site) = want {
            let site_ok = match site {
                Site::Slice(s) => s.tile.is_clb(device),
                Site::Iob(io) => io.tile.is_iob(device) && usize::from(io.pad) < PADS_PER_IOB,
            };
            if !site_ok || occupied.get(site).is_some() {
                return Err(PlaceError::BadLoc {
                    instance: inst.name.clone(),
                });
            }
            occupied.set(site, Some(i));
            site_of[i] = Some(site);
            fixed[i] = true;
        }
    }

    // Pass 2: initial random placement of the rest, each on a uniformly
    // drawn free site of its domain.
    let iob_pool = iob_sites(device);
    let mut free: Vec<Site> = Vec::new();
    for (i, inst) in design.instances.iter().enumerate() {
        if site_of[i].is_some() {
            continue;
        }
        free.clear();
        match inst.kind {
            InstanceKind::Slice => free.extend(
                slice_sites(&clb_rect(device, domain[i])).filter(|&s| occupied.get(s).is_none()),
            ),
            InstanceKind::Iob => free.extend(
                iob_pool
                    .iter()
                    .copied()
                    .filter(|&s| occupied.get(s).is_none() && site_in_domain(s, domain[i])),
            ),
        }
        if free.is_empty() {
            return Err(PlaceError::NoSpace {
                instance: inst.name.clone(),
            });
        }
        let placed = free[rng.gen_range(0..free.len())];
        occupied.set(placed, Some(i));
        site_of[i] = Some(placed);
    }

    // Build net incidence.
    let index = design.instance_index();
    let mut nets: Vec<Vec<usize>> = Vec::new();
    for net in &design.nets {
        let mut members: Vec<usize> = net
            .outpin
            .iter()
            .chain(net.inpins.iter())
            .filter_map(|p| index.get(p.inst.as_str()).copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        if members.len() >= 2 {
            nets.push(members);
        }
    }
    let mut member: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ni, net) in nets.iter().enumerate() {
        for &i in net {
            member[i].push(ni);
        }
    }

    let mut prob = Problem {
        site_of: site_of.into_iter().map(|s| s.expect("placed")).collect(),
        fixed,
        domain,
        nets,
        member,
    };

    let report = anneal(&mut prob, &mut occupied, device, opts, &mut rng);

    // Write placements back.
    for (i, inst) in design.instances.iter_mut().enumerate() {
        inst.placement = match prob.site_of[i] {
            Site::Slice(s) => Placement::Slice(s),
            Site::Iob(io) => Placement::Iob(io),
        };
    }
    Ok(report)
}

fn anneal(
    prob: &mut Problem,
    occupied: &mut Occupancy,
    device: Device,
    opts: &PlaceOptions,
    rng: &mut StdRng,
) -> PlaceReport {
    let movable: Vec<usize> = (0..prob.site_of.len())
        .filter(|&i| !prob.fixed[i])
        .collect();
    let mut report = PlaceReport::default();
    // Each net's current wirelength: a move recomputes only its affected
    // nets' and reads the old values here.
    let mut net_cost: Vec<u64> = prob
        .nets
        .iter()
        .map(|net| hpwl(net, &prob.site_of))
        .collect();
    let mut cost: u64 = net_cost.iter().sum();
    if movable.is_empty() || prob.nets.is_empty() {
        report.wirelength = cost;
        return report;
    }

    let g = device.geometry();
    let span = (g.clb_rows + g.clb_cols) as u64;
    let mut temp = (cost as f64 / prob.nets.len().max(1) as f64).max(1.0);
    let moves_per_temp = ((movable.len() * 12) as f64 * opts.effort).ceil() as usize;
    // Candidate-site pools: every IOB site, then the slice sites of each
    // distinct slice domain; `pool_of` indexes each movable instance's.
    let mut pools: Vec<Vec<Site>> = vec![iob_sites(device)];
    let mut slice_pools: Vec<(Option<Rect>, usize)> = Vec::new();
    let mut pool_of = vec![0; prob.site_of.len()];
    for &i in &movable {
        if !prob.site_of[i].is_slice() {
            continue;
        }
        let domain = prob.domain[i];
        pool_of[i] = match slice_pools.iter().find(|&&(d, _)| d == domain) {
            Some(&(_, p)) => p,
            None => {
                pools.push(slice_sites(&clb_rect(device, domain)).collect());
                slice_pools.push((domain, pools.len() - 1));
                pools.len() - 1
            }
        };
    }
    let mut affected: Vec<usize> = Vec::new();
    let mut affected_cost: Vec<u64> = Vec::new();

    while temp > 0.05 {
        for _ in 0..moves_per_temp {
            report.moves += 1;
            let i = movable[rng.gen_range(0..movable.len())];
            // Candidate target site of the same kind, within i's domain.
            let pool = &pools[pool_of[i]];
            let target = pool[rng.gen_range(0..pool.len())];
            if target == prob.site_of[i] {
                continue;
            }
            // If occupied, propose a swap; the displaced instance must be
            // movable, of the same kind, and allowed at i's site.
            let other = occupied.get(target);
            if let Some(j) = other {
                if prob.fixed[j]
                    || prob.site_of[j].is_slice() != prob.site_of[i].is_slice()
                    || !site_in_domain(prob.site_of[i], prob.domain[j])
                {
                    continue;
                }
            }
            if !site_in_domain(target, prob.domain[i]) {
                continue;
            }

            // Affected nets.
            affected.clear();
            affected.extend(&prob.member[i]);
            if let Some(j) = other {
                affected.extend(&prob.member[j]);
            }
            affected.sort_unstable();
            affected.dedup();
            let before: u64 = affected.iter().map(|&ni| net_cost[ni]).sum();

            let old = prob.site_of[i];
            prob.site_of[i] = target;
            if let Some(j) = other {
                prob.site_of[j] = old;
            }

            affected_cost.clear();
            affected_cost.extend(
                affected
                    .iter()
                    .map(|&ni| hpwl(&prob.nets[ni], &prob.site_of)),
            );
            let after: u64 = affected_cost.iter().sum();
            let delta = after as i64 - before as i64;
            let accept = delta <= 0 || rng.gen_bool((-(delta as f64) / temp).exp().clamp(0.0, 1.0));
            if accept {
                for (&ni, &c) in affected.iter().zip(&affected_cost) {
                    net_cost[ni] = c;
                }
                occupied.set(old, other);
                occupied.set(target, Some(i));
                cost = (cost as i64 + delta) as u64;
                report.accepted += 1;
            } else {
                // Revert.
                prob.site_of[i] = old;
                if let Some(j) = other {
                    prob.site_of[j] = target;
                }
            }
        }
        temp *= 0.85;
        // Early exit when the layout is as tight as the fabric allows.
        if cost == 0 || span == 0 {
            break;
        }
    }
    report.wirelength = cost;
    report
}

fn site_in_domain(site: Site, domain: Option<Rect>) -> bool {
    match (site, domain) {
        (Site::Slice(s), Some(r)) => r.contains(s.tile),
        // A floorplanned module's pads go on the top/bottom ring within
        // the region's column span, so everything the module touches lives
        // in its own configuration columns (the property JPG partials rely
        // on).
        // Only the top/bottom rings have in-span columns (the left/right
        // rings sit at column −1/`cols`, outside any region).
        (Site::Iob(io), Some(r)) => (r.col0..=r.col1).contains(&io.tile.col),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::map::map_netlist;
    use crate::pack::pack_with_prefix;
    use virtex::Device;

    fn place_counter(constraint_text: &str, seed: u64) -> (Design, PlaceReport) {
        let nl = gen::counter("cnt", 4);
        let m = map_netlist(&nl);
        let mut d = pack_with_prefix(&m, Device::XCV50, "mod1/");
        let cons = Constraints::parse(constraint_text).unwrap();
        let r = place(&mut d, &cons, None, &PlaceOptions { seed, effort: 0.5 }).unwrap();
        (d, r)
    }

    #[test]
    fn all_instances_placed_without_overlap() {
        let (d, _) = place_counter("", 3);
        assert!(d.fully_placed());
        let mut seen = std::collections::HashSet::new();
        for inst in &d.instances {
            let key = inst.placement.site_name().unwrap();
            assert!(seen.insert(key), "overlap at {:?}", inst.placement);
        }
    }

    #[test]
    fn region_constraint_respected() {
        let ucf = r#"
INST "mod1/*" AREA_GROUP = "AG" ;
AREA_GROUP "AG" RANGE = CLB_R1C1:CLB_R8C6 ;
"#;
        let (d, _) = place_counter(ucf, 7);
        let region = Rect::new(0, 0, 7, 5);
        for (inst, s) in d.occupied_slices() {
            assert!(
                region.contains(s.tile),
                "{} escaped the region to {}",
                inst.name,
                s.tile
            );
        }
    }

    #[test]
    fn loc_lock_respected() {
        // Learn a concrete slice-instance name, then lock exactly it.
        let nl = gen::counter("cnt", 4);
        let m = map_netlist(&nl);
        let d0 = pack_with_prefix(&m, Device::XCV50, "mod1/");
        let victim = d0
            .instances
            .iter()
            .find(|i| i.kind == xdl::InstanceKind::Slice)
            .unwrap()
            .name
            .clone();
        let ucf = format!("INST \"{victim}\" LOC = \"CLB_R2C3.S0\" ;");
        let (d, _) = place_counter(&ucf, 9);
        match d.instance(&victim).unwrap().placement {
            Placement::Slice(s) => {
                assert_eq!(s.tile, TileCoord::new(1, 2));
                assert_eq!(s.slice, SliceId::S0);
            }
            _ => panic!("locked instance not on a slice"),
        }
    }

    #[test]
    fn conflicting_loc_glob_is_an_error() {
        // A LOC whose glob matches several instances cannot put them all
        // on one site.
        let nl = gen::counter("cnt", 4);
        let m = map_netlist(&nl);
        let mut d = pack_with_prefix(&m, Device::XCV50, "mod1/");
        let cons = Constraints::parse("INST \"mod1/*\" LOC = \"CLB_R2C3.S0\" ;").unwrap();
        let err = place(&mut d, &cons, None, &PlaceOptions::default()).unwrap_err();
        assert!(matches!(err, PlaceError::BadLoc { .. }));
    }

    #[test]
    fn annealing_improves_over_random() {
        // Compare final wirelength against the cost of a seed-0 placement
        // with zero effort (pure random).
        let nl = gen::accumulator("acc", 8);
        let m = map_netlist(&nl);
        let mut d1 = pack_with_prefix(&m, Device::XCV100, "");
        let mut d2 = d1.clone();
        let cons = Constraints::default();
        let r_random = place(
            &mut d1,
            &cons,
            None,
            &PlaceOptions {
                seed: 5,
                effort: 0.01,
            },
        )
        .unwrap();
        let r_annealed = place(
            &mut d2,
            &cons,
            None,
            &PlaceOptions {
                seed: 5,
                effort: 1.0,
            },
        )
        .unwrap();
        assert!(
            r_annealed.wirelength <= r_random.wirelength,
            "annealed {} > random {}",
            r_annealed.wirelength,
            r_random.wirelength
        );
    }

    #[test]
    fn guided_mode_reuses_placement() {
        let (base, _) = place_counter("", 11);
        // Re-place the same design guided by itself: every instance must
        // stay put.
        let nl = gen::counter("cnt", 4);
        let m = map_netlist(&nl);
        let mut d = pack_with_prefix(&m, Device::XCV50, "mod1/");
        let cons = Constraints::default();
        place(
            &mut d,
            &cons,
            Some(&base),
            &PlaceOptions {
                seed: 999,
                effort: 1.0,
            },
        )
        .unwrap();
        for inst in &d.instances {
            let orig = base.instance(&inst.name).unwrap();
            assert_eq!(inst.placement, orig.placement, "{} moved", inst.name);
        }
    }

    #[test]
    fn overfull_region_is_an_error() {
        let ucf = r#"
INST "mod1/*" AREA_GROUP = "AG" ;
AREA_GROUP "AG" RANGE = CLB_R1C1:CLB_R1C1 ;
"#;
        let nl = gen::counter("cnt", 4);
        let m = map_netlist(&nl);
        let mut d = pack_with_prefix(&m, Device::XCV50, "mod1/");
        let cons = Constraints::parse(ucf).unwrap();
        let err = place(&mut d, &cons, None, &PlaceOptions::default()).unwrap_err();
        assert!(matches!(err, PlaceError::NoSpace { .. }));
    }

    #[test]
    fn determinism_per_seed() {
        let (d1, _) = place_counter("", 42);
        let (d2, _) = place_counter("", 42);
        assert_eq!(d1, d2);
        let (d3, _) = place_counter("", 43);
        assert_ne!(d1, d3, "different seeds should explore differently");
    }
}
