//! Per-link traffic flows and contention under X-Y routing.
//!
//! The latency model in [`crate::MeshNoc`] is unloaded; this module adds
//! the load-dependent part: given each requester's flit rate to each bank,
//! it routes every flow over the mesh (X then Y, the paper's
//! dimension-ordered routing) and accumulates per-directional-link
//! utilization. Links carry one flit per cycle, so M/D/1 waiting on the
//! links along a path gives the congestion delay — the "NoC contention"
//! that makes a victim's activity visible chip-wide in the port attack
//! (Fig. 11) and that grows with router delay in Fig. 18.

use nuca_types::{BankId, CoreId, Mesh, TileCoord};

/// A directional link between two adjacent tiles, identified by
/// `(from_tile, to_tile)` indices.
pub type Link = (usize, usize);

/// Accumulated flit rates (flits per cycle) per directional link.
///
/// Stored densely, indexed by `from_tile * num_tiles + to_tile`: the
/// model touches every link of every placement path several times per
/// fixed-point iteration, and a direct index beats hashing the link pair
/// on that path. A 20-tile mesh needs 400 slots — smaller than the hash
/// map it replaces.
#[derive(Debug, Clone, Default)]
pub struct LinkLoads {
    flows: Vec<f64>,
    mesh_tiles: usize,
}

impl LinkLoads {
    /// Empties the accumulated loads (keeping the allocation) so the
    /// structure can be refilled for a new rate vector.
    pub fn reset(&mut self, mesh: Mesh) {
        self.mesh_tiles = mesh.num_tiles();
        self.flows.clear();
        self.flows.resize(self.mesh_tiles * self.mesh_tiles, 0.0);
    }

    /// Utilization of one directional link (flits per cycle; capacity 1).
    pub fn utilization(&self, link: Link) -> f64 {
        self.flows
            .get(link.0 * self.mesh_tiles + link.1)
            .copied()
            .unwrap_or(0.0)
    }

    /// The raw per-link flow slab (indexed `from_tile * num_tiles +
    /// to_tile`), for callers that precompute per-link waits once and
    /// share them across many paths.
    pub fn flows(&self) -> &[f64] {
        &self.flows
    }

    /// Routes one `(core, bank, rate)` flow — request and response path,
    /// each X-first — and adds `rate` to every link it crosses. The same
    /// rate is charged on both paths; callers fold the request/response
    /// flit asymmetry into the rate. The table must have been built for
    /// the same mesh as [`reset`](LinkLoads::reset).
    pub fn add_flow_routed(&mut self, routes: &RouteTable, core: CoreId, bank: BankId, rate: f64) {
        if rate <= 0.0 {
            return;
        }
        for &l in routes.round_trip(core, bank) {
            self.flows[l as usize] += rate;
        }
    }
}

/// Precomputed X-Y round-trip routes for every `(core, bank)` pair.
///
/// The mesh geometry is fixed for a run, but the analytic model walks the
/// core↔bank path of every placement pair several times per fixed-point
/// iteration (once to accumulate flows, once to sum congestion). This
/// table walks each pair once and stores its flat link indices — request
/// then response, in walk order — so every later pass replays the same
/// `f64`s in the same order.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// `offsets[core * num_banks + bank] .. offsets[.. + 1]` indexes
    /// `links` for that pair's round trip.
    offsets: Vec<u32>,
    /// Flat link indices (`from_tile * num_tiles + to_tile`).
    links: Vec<u32>,
    /// Every link some round trip crosses, ascending and deduplicated.
    used: Vec<u32>,
    num_banks: usize,
}

impl RouteTable {
    /// Builds the table for `mesh` with `num_cores` cores and `num_banks`
    /// banks.
    pub fn new(mesh: Mesh, num_cores: usize, num_banks: usize) -> RouteTable {
        let t = mesh.num_tiles();
        let mut offsets = Vec::with_capacity(num_cores * num_banks + 1);
        let mut links: Vec<u32> = Vec::new();
        offsets.push(0);
        let push_path = |links: &mut Vec<u32>, from: TileCoord, to: TileCoord| {
            let mut cur = from;
            while cur.x != to.x {
                let next = TileCoord {
                    x: if to.x > cur.x { cur.x + 1 } else { cur.x - 1 },
                    y: cur.y,
                };
                links.push((mesh.tile_index(cur) * t + mesh.tile_index(next)) as u32);
                cur = next;
            }
            while cur.y != to.y {
                let next = TileCoord {
                    x: cur.x,
                    y: if to.y > cur.y { cur.y + 1 } else { cur.y - 1 },
                };
                links.push((mesh.tile_index(cur) * t + mesh.tile_index(next)) as u32);
                cur = next;
            }
        };
        for core in 0..num_cores {
            for bank in 0..num_banks {
                let ct = mesh.core_tile(CoreId(core));
                let bt = mesh.bank_tile(BankId(bank));
                push_path(&mut links, ct, bt);
                push_path(&mut links, bt, ct);
                offsets.push(links.len() as u32);
            }
        }
        let mut used = links.clone();
        used.sort_unstable();
        used.dedup();
        RouteTable {
            offsets,
            links,
            used,
            num_banks,
        }
    }

    /// Every link index some `(core, bank)` round trip crosses, ascending:
    /// the only links that carry flow or whose wait any path reads (62
    /// directed links on the 5x4 mesh, of 400 tile pairs).
    pub fn used_links(&self) -> &[u32] {
        &self.used
    }

    /// The round-trip link indices for `(core, bank)`: request path then
    /// response path, in walk order.
    pub fn round_trip(&self, core: CoreId, bank: BankId) -> &[u32] {
        let k = core.index() * self.num_banks + bank.index();
        &self.links[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Sums `per_link[l]` over the `(core, bank)` round trip, in walk
    /// order. With `per_link[l] = md1_wait(flows[l], 1.0)` this is the
    /// pair's expected congestion delay (cycles), while letting the caller
    /// compute each link's wait once instead of once per path that
    /// crosses it.
    pub fn round_trip_sum(&self, per_link: &[f64], core: CoreId, bank: BankId) -> f64 {
        let mut total = 0.0;
        for &l in self.round_trip(core, bank) {
            total += per_link[l as usize];
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queueing::md1_wait;

    fn mesh() -> Mesh {
        Mesh::new(5, 4)
    }

    fn routes() -> RouteTable {
        RouteTable::new(mesh(), 20, 20)
    }

    fn loads_of(flows: &[(usize, usize, f64)]) -> LinkLoads {
        let routes = routes();
        let mut loads = LinkLoads::default();
        loads.reset(mesh());
        for &(core, bank, rate) in flows {
            loads.add_flow_routed(&routes, CoreId(core), BankId(bank), rate);
        }
        loads
    }

    fn total_flit_links(loads: &LinkLoads) -> f64 {
        loads.flows().iter().sum()
    }

    /// Congestion delay of the `(core, bank)` round trip: per-link M/D/1
    /// waits at 1-cycle service, summed along the route.
    fn path_delay(loads: &LinkLoads, core: usize, bank: usize) -> f64 {
        let waits: Vec<f64> = loads.flows().iter().map(|&f| md1_wait(f, 1.0)).collect();
        routes().round_trip_sum(&waits, CoreId(core), BankId(bank))
    }

    #[test]
    fn used_links_are_every_directed_mesh_link_any_route_crosses() {
        let routes = routes();
        let used = routes.used_links();
        // 5x4 mesh: 4 x 4 horizontal + 5 x 3 vertical links, both ways.
        assert_eq!(used.len(), 62);
        assert!(used.windows(2).all(|w| w[0] < w[1]));
        for core in 0..20 {
            for bank in 0..20 {
                for l in routes.round_trip(CoreId(core), BankId(bank)) {
                    assert!(used.binary_search(l).is_ok());
                }
            }
        }
    }

    #[test]
    fn single_flow_loads_its_path_only() {
        // Core 0 (0,0) -> bank 7 (2,1): X-first path 0->1->2 then 2->7.
        let loads = loads_of(&[(0, 7, 0.25)]);
        assert_eq!(loads.utilization((0, 1)), 0.25);
        assert_eq!(loads.utilization((1, 2)), 0.25);
        assert_eq!(loads.utilization((2, 7)), 0.25);
        // Response path is Y-symmetric but X-first from (2,1): 7->6->5 then 5->0.
        assert_eq!(loads.utilization((7, 6)), 0.25);
        assert_eq!(loads.utilization((6, 5)), 0.25);
        assert_eq!(loads.utilization((5, 0)), 0.25);
        // Unrelated links stay idle.
        assert_eq!(loads.utilization((3, 4)), 0.0);
    }

    #[test]
    fn local_bank_loads_no_links() {
        let loads = loads_of(&[(7, 7, 0.9)]);
        assert!(routes().round_trip(CoreId(7), BankId(7)).is_empty());
        assert_eq!(total_flit_links(&loads), 0.0);
        assert_eq!(path_delay(&loads, 7, 7), 0.0);
    }

    #[test]
    fn flows_superimpose() {
        let loads = loads_of(&[
            (0, 2, 0.2),
            (1, 2, 0.3), // shares link (1,2)
        ]);
        assert!((loads.utilization((1, 2)) - 0.5).abs() < 1e-12);
        assert!((loads.utilization((0, 1)) - 0.2).abs() < 1e-12);
        assert_eq!(loads.flows().iter().copied().fold(0.0, f64::max), 0.5);
    }

    #[test]
    fn path_delay_grows_with_congestion() {
        let dl = path_delay(&loads_of(&[(0, 4, 0.1)]), 0, 4);
        let dh = path_delay(&loads_of(&[(0, 4, 0.8)]), 0, 4);
        assert!(dh > 4.0 * dl, "light {dl:.3} vs heavy {dh:.3}");
    }

    #[test]
    fn total_activity_matches_rate_times_hops() {
        // 3 hops each way at rate 0.5 -> 3 flit-links per direction.
        let loads = loads_of(&[(0, 3, 0.5)]);
        assert!((total_flit_links(&loads) - 2.0 * 3.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn dnuca_placement_loads_links_less_than_snuca() {
        // One app at core 0 with rate 0.2: S-NUCA stripes over all banks;
        // D-NUCA uses the local + neighbour bank.
        let snuca: Vec<(usize, usize, f64)> = (0..20).map(|b| (0, b, 0.2 / 20.0)).collect();
        let ls = loads_of(&snuca);
        let ld = loads_of(&[(0, 0, 0.1), (0, 1, 0.1)]);
        assert!(total_flit_links(&ld) < 0.2 * total_flit_links(&ls));
    }
}
