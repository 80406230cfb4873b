//! Property-based tests for the NoC: routing geometry and port-arbitration
//! invariants.

use nuca_noc::{BankPorts, MeshNoc, RouteTable};
use nuca_types::{BankId, CoreId, Cycles, Mesh, SystemConfig};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Checks every `(core, bank)` round trip of `mesh`'s route table: twice
/// the X-Y hop count of links, each joining adjacent tiles; a request
/// half that walks core → bank moving in X before Y; and a response half
/// that walks bank → core.
fn check_round_trips(mesh: Mesh) -> Result<(), TestCaseError> {
    let t = mesh.num_tiles();
    let routes = RouteTable::new(mesh, t, t);
    for core in 0..t {
        for bank in 0..t {
            let hops = mesh.hops_core_to_bank(CoreId(core), BankId(bank));
            let links: Vec<(usize, usize)> = routes
                .round_trip(CoreId(core), BankId(bank))
                .iter()
                .map(|&l| (l as usize / t, l as usize % t))
                .collect();
            prop_assert_eq!(links.len(), 2 * hops, "core {} bank {}", core, bank);
            for &(from, to) in &links {
                prop_assert_eq!(mesh.tile(from).manhattan(mesh.tile(to)), 1);
            }
            let (request, response) = links.split_at(hops);
            for (half, start, end) in [(request, core, bank), (response, bank, core)] {
                let mut at = start;
                for &(from, to) in half {
                    prop_assert_eq!(from, at, "core {} bank {}", core, bank);
                    at = to;
                }
                prop_assert_eq!(at, end, "core {} bank {}", core, bank);
            }
            // X before Y: no horizontal step follows a vertical one.
            let vertical: Vec<bool> = request
                .iter()
                .map(|&(from, to)| mesh.tile(from).x == mesh.tile(to).x)
                .collect();
            prop_assert!(
                vertical.windows(2).all(|w| w[1] || !w[0]),
                "core {} bank {}: {:?}",
                core,
                bank,
                links
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// X-Y hop counts are a metric: symmetric, zero on the diagonal, and
    /// satisfy the triangle inequality.
    #[test]
    fn hops_form_a_metric(a in 0usize..20, b in 0usize..20, c in 0usize..20) {
        let m = Mesh::new(5, 4);
        let d = |x: usize, y: usize| m.hops_core_to_bank(CoreId(x), BankId(y));
        prop_assert_eq!(d(a, a), 0);
        prop_assert_eq!(d(a, b), d(b, a));
        prop_assert!(d(a, c) <= d(a, b) + d(b, c));
    }

    /// One-way latency is monotone in both hops and payload.
    #[test]
    fn latency_monotone(h1 in 0usize..8, h2 in 0usize..8, p1 in 1u64..256, p2 in 1u64..256) {
        let noc = MeshNoc::new(&SystemConfig::micro2020());
        let (hlo, hhi) = if h1 < h2 { (h1, h2) } else { (h2, h1) };
        let (plo, phi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(noc.oneway(hlo, plo) <= noc.oneway(hhi, plo));
        prop_assert!(noc.oneway(hlo, plo) <= noc.oneway(hlo, phi));
    }

    /// Port grants never start before arrival, never overlap beyond the
    /// port count, and total busy time equals requests x occupancy.
    #[test]
    fn port_grants_are_sane(
        ports in 1u32..4,
        occupancy in 1u64..8,
        arrivals in proptest::collection::vec(0u64..10_000, 1..200),
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut bank = BankPorts::new(ports, Cycles(occupancy));
        let mut grants = Vec::new();
        for &t in &sorted {
            let g = bank.request(Cycles(t));
            prop_assert!(g.start.as_u64() >= t);
            prop_assert_eq!(g.done.as_u64(), g.start.as_u64() + occupancy);
            grants.push(g);
        }
        // At the instant any grant starts, at most `ports` grants are in
        // service (counting itself).
        for g in &grants {
            let inflight = grants
                .iter()
                .filter(|o| o.start <= g.start && g.start < o.done)
                .count();
            prop_assert!(inflight <= ports as usize, "{inflight} > {ports}");
        }
        prop_assert_eq!(
            bank.stats().busy_cycles,
            sorted.len() as u64 * occupancy
        );
    }

    /// Every precomputed route is an X-then-Y round trip of adjacent
    /// links, on the paper's 5×4 mesh and on random mesh shapes.
    #[test]
    fn routes_are_x_then_y_round_trips(cols in 1usize..8, rows in 1usize..7) {
        check_round_trips(Mesh::new(5, 4))?;
        check_round_trips(Mesh::new(cols, rows))?;
    }

    /// Weighted distance is bounded by the farthest bank in the placement.
    #[test]
    fn weighted_distance_bounded(
        core in 0usize..20,
        weights in proptest::collection::vec(0.0f64..10.0, 20),
    ) {
        let m = Mesh::new(5, 4);
        let placement: Vec<(BankId, f64)> =
            weights.iter().enumerate().map(|(i, &w)| (BankId(i), w)).collect();
        let d = m.weighted_distance(CoreId(core), placement.iter().copied());
        let max = placement
            .iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|(b, _)| m.hops_core_to_bank(CoreId(core), *b))
            .max()
            .unwrap_or(0) as f64;
        prop_assert!(d <= max + 1e-9);
        prop_assert!(d >= 0.0);
    }
}
