//! Jigsaw's capacity partitioning and proximity placement \[6, 8\].
//!
//! Jigsaw sizes per-application partitions by marginal utility (Lookahead
//! over DRRIP-hull miss curves) and places each partition in banks near the
//! owning core. Jumanji reuses this machinery for batch applications
//! *within* each VM's banks (Listing 3, line 12); the standalone Jigsaw
//! design applies it to every application with no regard for deadlines or
//! trust domains — which is exactly what the paper criticizes.

use crate::lookahead::lookahead;
use nuca_cache::MissCurve;
use nuca_types::hash::DetMap;
use nuca_types::{AppId, BankId, CoreId, Mesh};

/// A placement request: who, from where, how many bytes, with what
/// priority (higher access rates place first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceRequest {
    /// Application (virtual cache) being placed.
    pub app: AppId,
    /// Core whose proximity matters.
    pub core: CoreId,
    /// Bytes to place.
    pub bytes: f64,
    /// Placement priority; apps touching the cache more often get first
    /// pick of nearby banks.
    pub priority: f64,
}

/// Sizes partitions by Lookahead over absolute miss-rate curves.
///
/// Thin, documented alias for [`lookahead`] so call sites read as the
/// paper does.
pub fn jigsaw_sizes(curves: &[MissCurve], total_units: usize) -> Vec<usize> {
    lookahead(curves, total_units)
}

/// Places partitions near their cores, round-robin in priority order.
///
/// Apps take up to one bank's worth of their remaining demand per round,
/// from the nearest bank (optionally restricted by `allowed`) with
/// balance. Interleaving rounds keeps one high-priority app from pushing
/// everyone else's data across the chip. Decrements `bank_balance` in
/// place. If balance runs out, remaining demand is dropped (callers size
/// requests within the available balance).
///
/// # Panics
///
/// Panics if `allowed` is provided with the wrong length.
pub fn place_near(
    requests: &[PlaceRequest],
    bank_balance: &mut [f64],
    mesh: Mesh,
    allowed: Option<&[bool]>,
) -> Vec<(AppId, Vec<(BankId, f64)>)> {
    if let Some(a) = allowed {
        assert_eq!(a.len(), bank_balance.len(), "one allowed flag per bank");
    }
    let bank_cap: f64 = {
        // Per-round chunk: the largest single-bank balance at entry keeps
        // rounds meaningful even on partially-consumed machines.
        let max_b: f64 = bank_balance.iter().copied().fold(0.0, f64::max);
        max_b.max(1.0)
    };
    // Priority order, stable by app id for determinism.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[b]
            .priority
            .partial_cmp(&requests[a].priority)
            .expect("priorities are finite")
            .then(requests[a].app.cmp(&requests[b].app))
    });
    let mut remaining: Vec<f64> = requests.iter().map(|r| r.bytes).collect();
    let mut placements: Vec<Vec<(BankId, f64)>> = vec![Vec::new(); requests.len()];
    // Distance orderings are per-core constants; computing them per round
    // was the dominant cost of placement on larger meshes.
    let by_distance: Vec<Vec<BankId>> = requests
        .iter()
        .map(|r| mesh.banks_by_distance(r.core).collect())
        .collect();
    loop {
        let mut progress = false;
        for &i in &order {
            if remaining[i] <= 0.0 {
                continue;
            }
            let mut round_budget = bank_cap.min(remaining[i]);
            for &bank in &by_distance[i] {
                if round_budget <= 0.0 {
                    break;
                }
                if let Some(a) = allowed {
                    if !a[bank.index()] {
                        continue;
                    }
                }
                let take = bank_balance[bank.index()].min(round_budget);
                if take > 0.0 {
                    bank_balance[bank.index()] -= take;
                    remaining[i] -= take;
                    round_budget -= take;
                    progress = true;
                    // Merge with an existing entry for the same bank.
                    match placements[i].iter_mut().find(|(b, _)| *b == bank) {
                        Some((_, bytes)) => *bytes += take,
                        None => placements[i].push((bank, take)),
                    }
                }
            }
        }
        if !progress {
            break;
        }
    }
    requests
        .iter()
        .zip(placements)
        .map(|(r, p)| (r.app, p))
        .collect()
}

/// Total placement cost: each app's traffic-weighted average distance,
/// `Σ_app priority × avg_hops(app)`.
pub fn placement_cost(
    requests: &[PlaceRequest],
    placements: &[(AppId, Vec<(BankId, f64)>)],
    mesh: Mesh,
) -> f64 {
    let by_app: DetMap<AppId, &PlaceRequest> = requests.iter().map(|r| (r.app, r)).collect();
    placements
        .iter()
        .map(|(app, p)| {
            let r = by_app.get(app).expect("placement has a request");
            r.priority * mesh.weighted_distance(r.core, p.iter().copied())
        })
        .sum()
}

/// Iteratively improves a placement by swapping capacity between pairs of
/// applications across pairs of banks — the local-search refinement step
/// of Jigsaw's placement \[8\]. Per-bank totals and per-app totals are
/// invariant; only locality improves.
///
/// Returns the total cost reduction (in priority·hops units). Runs until a
/// full sweep finds no improving swap or `max_rounds` sweeps complete.
pub fn refine_placement(
    requests: &[PlaceRequest],
    placements: &mut [(AppId, Vec<(BankId, f64)>)],
    mesh: Mesh,
    max_rounds: usize,
) -> f64 {
    let by_app: DetMap<AppId, &PlaceRequest> = requests.iter().map(|r| (r.app, r)).collect();
    // Each placement's app identity never changes during refinement, so
    // its priority and core are resolved once instead of once per pair
    // per sweep. A missing request contributes zero priority, matching
    // the old per-pair `unwrap_or(0.0)` weight (core is then unused: all
    // its weighted deltas vanish).
    let pinfo: Vec<(f64, CoreId)> = placements
        .iter()
        .map(|(app, _)| match by_app.get(app) {
            Some(r) => (r.priority, r.core),
            None => (0.0, CoreId(0)),
        })
        .collect();
    let weight = |prio: f64, total: f64| -> f64 {
        if total <= 0.0 {
            0.0
        } else {
            prio / total
        }
    };
    let mut saved = 0.0;
    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..placements.len() {
            for j in (i + 1)..placements.len() {
                let (head, tail) = placements.split_at_mut(j);
                let (_, pa) = &mut head[i];
                let (_, pb) = &mut tail[0];
                let total_a: f64 = pa.iter().map(|(_, b)| b).sum();
                let total_b: f64 = pb.iter().map(|(_, b)| b).sum();
                let (wa, wb) = (weight(pinfo[i].0, total_a), weight(pinfo[j].0, total_b));
                let core_a = pinfo[i].1;
                let core_b = pinfo[j].1;
                // Best single swap between a's bank x and b's bank y.
                let mut best: Option<(usize, usize, f64, f64)> = None;
                for (xi, &(x, bytes_x)) in pa.iter().enumerate() {
                    for (yi, &(y, bytes_y)) in pb.iter().enumerate() {
                        if x == y || bytes_x <= 0.0 || bytes_y <= 0.0 {
                            continue;
                        }
                        let delta = bytes_x.min(bytes_y);
                        let da = (mesh.hops_core_to_bank(core_a, x) as f64
                            - mesh.hops_core_to_bank(core_a, y) as f64)
                            * wa;
                        let db = (mesh.hops_core_to_bank(core_b, y) as f64
                            - mesh.hops_core_to_bank(core_b, x) as f64)
                            * wb;
                        let gain = (da + db) * delta;
                        if gain > 1e-9 && best.map(|b| gain > b.2).unwrap_or(true) {
                            best = Some((xi, yi, gain, delta));
                        }
                    }
                }
                if let Some((xi, yi, gain, delta)) = best {
                    let (x, _) = pa[xi];
                    let (y, _) = pb[yi];
                    // a: move delta from x to y; b: move delta from y to x.
                    pa[xi].1 -= delta;
                    pb[yi].1 -= delta;
                    merge_into(pa, y, delta);
                    merge_into(pb, x, delta);
                    pa.retain(|(_, b)| *b > 1e-9);
                    pb.retain(|(_, b)| *b > 1e-9);
                    saved += gain;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

fn merge_into(placement: &mut Vec<(BankId, f64)>, bank: BankId, bytes: f64) {
    match placement.iter_mut().find(|(b, _)| *b == bank) {
        Some((_, existing)) => *existing += bytes,
        None => placement.push((bank, bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;

    fn mesh() -> Mesh {
        Mesh::new(5, 4)
    }

    fn req(app: usize, core: usize, bytes: f64, prio: f64) -> PlaceRequest {
        PlaceRequest {
            app: AppId(app),
            core: CoreId(core),
            bytes,
            priority: prio,
        }
    }

    #[test]
    fn single_app_takes_local_bank_first() {
        let mut balance = vec![MB; 20];
        let out = place_near(&[req(0, 7, 1.5 * MB, 1.0)], &mut balance, mesh(), None);
        let (_, p) = &out[0];
        assert_eq!(p[0].0, BankId(7));
        assert_eq!(p[0].1, MB);
        let total: f64 = p.iter().map(|(_, b)| b).sum();
        assert!((total - 1.5 * MB).abs() < 1e-6);
    }

    #[test]
    fn round_robin_interleaves_demands() {
        // Two distant apps each want 2 MB; each should get its own local
        // bank rather than the first app taking both.
        let mut balance = vec![MB; 20];
        let out = place_near(
            &[req(0, 0, 2.0 * MB, 5.0), req(1, 19, 2.0 * MB, 1.0)],
            &mut balance,
            mesh(),
            None,
        );
        assert_eq!(out[0].1[0].0, BankId(0));
        assert_eq!(out[1].1[0].0, BankId(19));
    }

    #[test]
    fn priority_wins_contended_bank() {
        // Both apps on core 7; the high-priority one gets the local bank.
        let mut balance = vec![MB; 20];
        let out = place_near(
            &[req(0, 7, MB, 1.0), req(1, 7, MB, 9.0)],
            &mut balance,
            mesh(),
            None,
        );
        assert_eq!(out[1].1[0].0, BankId(7), "high priority gets bank 7");
        assert_ne!(out[0].1[0].0, BankId(7));
    }

    #[test]
    fn allowed_mask_restricts_banks() {
        let mut balance = vec![MB; 20];
        let mut allowed = vec![false; 20];
        allowed[18] = true;
        allowed[19] = true;
        let out = place_near(
            &[req(0, 0, 1.5 * MB, 1.0)],
            &mut balance,
            mesh(),
            Some(&allowed),
        );
        for (bank, _) in &out[0].1 {
            assert!(bank.index() >= 18);
        }
    }

    #[test]
    fn truncates_at_zero_balance() {
        let mut balance = vec![0.5 * MB; 20];
        let out = place_near(&[req(0, 0, 100.0 * MB, 1.0)], &mut balance, mesh(), None);
        let total: f64 = out[0].1.iter().map(|(_, b)| b).sum();
        assert!((total - 10.0 * MB).abs() < 1e-6, "all balance consumed");
        assert!(balance.iter().all(|&b| b.abs() < 1e-9));
    }

    #[test]
    fn refinement_fixes_a_deliberately_bad_placement() {
        // Two apps each placed in the *other's* local bank: one swap fixes
        // everything.
        let requests = [req(0, 0, MB, 5.0), req(1, 19, MB, 5.0)];
        let mut placements = vec![
            (AppId(0), vec![(BankId(19), MB)]),
            (AppId(1), vec![(BankId(0), MB)]),
        ];
        let before = placement_cost(&requests, &placements, mesh());
        let saved = refine_placement(&requests, &mut placements, mesh(), 8);
        let after = placement_cost(&requests, &placements, mesh());
        assert!(saved > 0.0);
        assert!((before - after - saved).abs() < 1e-6);
        assert_eq!(placements[0].1, vec![(BankId(0), MB)]);
        assert_eq!(placements[1].1, vec![(BankId(19), MB)]);
    }

    #[test]
    fn refinement_never_increases_cost_or_changes_totals() {
        let requests = [
            req(0, 0, 2.0 * MB, 9.0),
            req(1, 7, 1.5 * MB, 3.0),
            req(2, 19, 1.0 * MB, 6.0),
        ];
        let mut balance = vec![MB; 20];
        let mut placements = place_near(&requests, &mut balance, mesh(), None);
        let before = placement_cost(&requests, &placements, mesh());
        let totals_before: Vec<f64> = placements
            .iter()
            .map(|(_, p)| p.iter().map(|(_, b)| b).sum())
            .collect();
        refine_placement(&requests, &mut placements, mesh(), 8);
        let after = placement_cost(&requests, &placements, mesh());
        assert!(after <= before + 1e-9);
        // Per-app and per-bank capacity conservation.
        let totals_after: Vec<f64> = placements
            .iter()
            .map(|(_, p)| p.iter().map(|(_, b)| b).sum())
            .collect();
        for (b, a) in totals_before.iter().zip(&totals_after) {
            assert!((b - a).abs() < 1e-6);
        }
        let mut per_bank = [0.0f64; 20];
        for (_, p) in &placements {
            for &(bank, bytes) in p {
                per_bank[bank.index()] += bytes;
            }
        }
        assert!(per_bank.iter().all(|&b| b <= MB + 1e-6));
    }

    #[test]
    fn jigsaw_sizes_is_lookahead() {
        let a = MissCurve::new(1, vec![10.0, 1.0, 0.5]);
        let b = MissCurve::new(1, vec![10.0, 9.0, 8.9]);
        let sizes = jigsaw_sizes(&[a, b], 2);
        // Optimal split: 10 + (10-9) saved vs 10 + 0.5 for [2,0].
        assert_eq!(sizes, vec![1, 1]);
    }
}
