//! `JumanjiPlacer` (paper Listing 3) and its sensitivity variants.
//!
//! The placer runs in three steps, mirroring Fig. 6:
//!
//! 1. [`lat_crit_placer`] reserves controller-assigned space for
//!    latency-critical applications in their nearest banks (deadlines).
//! 2. [`jumanji_lookahead`] divides the remaining capacity among VMs at
//!    whole-bank granularity, and banks are assigned round-robin by
//!    proximity (security: no bank is ever shared across VMs).
//! 3. Jigsaw's placement optimizes batch data within each VM's banks
//!    (data movement).
//!
//! The *Insecure* variant skips the bank-isolation step (sizing batch
//! partitions globally), and the *Ideal-Batch* variant additionally lets
//! batch applications place into a pristine copy of the LLC, eliminating
//! competition with latency-critical reservations (Sec. VIII-C).

use crate::allocation::{Allocation, AppAlloc};
use crate::jigsaw::{place_near, refine_placement, PlaceRequest};
use crate::latcrit::lat_crit_placer;
use crate::lookahead::{jumanji_lookahead, lookahead};
use crate::model::{AppKind, PlacementInput};
use nuca_cache::{CombinedCurve, MissCurve};
use nuca_types::{BankId, VmId};

/// Runs the full Jumanji placement (Listing 3).
///
/// With `secure == true` this is Jumanji; with `secure == false` it is the
/// "Jumanji: Insecure" sensitivity variant that keeps deadline awareness
/// and proximity placement but drops VM bank isolation.
pub fn jumanji_placer(input: &PlacementInput, secure: bool) -> Allocation {
    let cfg = &input.cfg;
    let nbanks = cfg.llc.num_banks;
    let unit = input.unit_bytes() as f64;
    let ways_per_bank = cfg.llc.ways as usize;
    let mut balance = vec![cfg.llc.bank_bytes as f64; nbanks];

    // Step 1: reserve latency-critical space nearest to its cores.
    let mut claims: Vec<Option<VmId>> = vec![None; nbanks];
    let lc_placements = if secure {
        lat_crit_placer(input, &mut balance, Some(&mut claims))
    } else {
        lat_crit_placer(input, &mut balance, None)
    };

    let num_vms = input.num_vms();
    let mut apps: Vec<AppAlloc> = input
        .apps
        .iter()
        .map(|a| AppAlloc {
            app: a.id,
            placement: Vec::new(),
            pool: None,
            copy: 0,
        })
        .collect();
    for (app, placement) in &lc_placements {
        apps[app.index()].placement = placement.clone();
    }

    let batch_placements = if secure {
        // Step 2: whole-bank VM allocations.
        let vm_curves = vm_batch_curves(input, num_vms);
        let mut lc_units = vec![0.0f64; num_vms];
        let mut claimed_count = vec![0usize; num_vms];
        for (app, placement) in &lc_placements {
            let vm = input.apps[app.index()].vm.index();
            lc_units[vm] += placement.iter().map(|(_, b)| b / unit).sum::<f64>();
        }
        for c in claims.iter().flatten() {
            claimed_count[c.index()] += 1;
        }
        // The LC placer may touch more banks than ceil(lc/bank) when
        // several LC apps leave fractional tails; reflect that in the
        // lower bound handed to the lookahead.
        let effective_lc: Vec<f64> = lc_units
            .iter()
            .zip(&claimed_count)
            .map(|(&u, &c)| u.max(((c.max(1) - 1) * ways_per_bank) as f64 + 1e-9))
            .collect();
        // With many VMs the mandatory bank counts can exceed the machine
        // (the paper notes VMs become restricted to single banks as their
        // count grows, Sec. VIII-C). Degrade gracefully: trim the largest
        // reservations' bank bounds until they fit.
        let mut mandatory: Vec<usize> = effective_lc
            .iter()
            .map(|&u| ((u / ways_per_bank as f64).ceil() as usize).max(1))
            .collect();
        while mandatory.iter().sum::<usize>() > nbanks {
            let largest = (0..num_vms)
                .filter(|&v| mandatory[v] > 1)
                .max_by_key(|&v| mandatory[v])
                .expect("some VM has more than one mandatory bank");
            mandatory[largest] -= 1;
        }
        let effective_lc: Vec<f64> = mandatory
            .iter()
            .zip(&effective_lc)
            .map(|(&m, &u)| u.min((m * ways_per_bank) as f64 - 1e-6))
            .collect();
        let banks_per_vm = jumanji_lookahead(&vm_curves, &effective_lc, nbanks, ways_per_bank);

        // Assign whole banks to VMs: LC-claimed banks first, then
        // round-robin, each VM taking its closest remaining bank.
        let vm_banks = assign_banks(input, &banks_per_vm, &claims);

        // Step 3: batch sizing and Jigsaw placement within each VM.
        let mut out = Vec::new();
        for vm in 0..num_vms {
            let members: Vec<&crate::model::AppModel> = input
                .vm_apps(VmId(vm))
                .filter(|a| a.kind == AppKind::Batch)
                .collect();
            if members.is_empty() {
                continue;
            }
            let batch_units = ((banks_per_vm[vm] * ways_per_bank) as f64 - lc_units[vm])
                .max(0.0)
                .floor() as usize;
            let curves: Vec<&MissCurve> = members.iter().map(|a| &a.curve).collect();
            let sizes = lookahead(&curves, batch_units);
            let requests: Vec<PlaceRequest> = members
                .iter()
                .zip(&sizes)
                .map(|(a, &u)| PlaceRequest {
                    app: a.id,
                    core: a.core,
                    bytes: u as f64 * unit,
                    priority: a.access_rate,
                })
                .collect();
            let allowed: Vec<bool> = (0..nbanks).map(|b| vm_banks[b] == Some(vm)).collect();
            let mut placed = place_near(&requests, &mut balance, cfg.mesh(), Some(&allowed));
            // Jigsaw's local-search refinement within the VM's banks
            // (Listing 3, line 12 runs the full Jigsaw placement).
            refine_placement(&requests, &mut placed, cfg.mesh(), 4);
            out.extend(placed);
        }
        out
    } else {
        // Insecure: size batch partitions globally, place anywhere.
        let members: Vec<&crate::model::AppModel> = input
            .apps
            .iter()
            .filter(|a| a.kind == AppKind::Batch)
            .collect();
        let remaining_units = (balance.iter().sum::<f64>() / unit).floor() as usize;
        let curves: Vec<&MissCurve> = members.iter().map(|a| &a.curve).collect();
        let sizes = if members.is_empty() {
            Vec::new()
        } else {
            lookahead(&curves, remaining_units)
        };
        let requests: Vec<PlaceRequest> = members
            .iter()
            .zip(&sizes)
            .map(|(a, &u)| PlaceRequest {
                app: a.id,
                core: a.core,
                bytes: u as f64 * unit,
                priority: a.access_rate,
            })
            .collect();
        place_near(&requests, &mut balance, cfg.mesh(), None)
    };

    for (app, placement) in batch_placements {
        apps[app.index()].placement = placement;
    }
    Allocation {
        apps,
        pools: Vec::new(),
        ideal_batch: false,
    }
}

/// The infeasible "Jumanji: Ideal Batch" design: latency-critical
/// reservations and batch placements live in separate copies of the LLC,
/// eliminating their competition, while total allocated capacity still
/// fits the original LLC and VMs stay isolated (Sec. VIII-C).
pub fn ideal_batch_placer(input: &PlacementInput) -> Allocation {
    let cfg = &input.cfg;
    let nbanks = cfg.llc.num_banks;
    let unit = input.unit_bytes() as f64;
    let ways_per_bank = cfg.llc.ways as usize;
    let num_vms = input.num_vms();

    // Latency-critical side: own pristine LLC copy, VM-isolated.
    let mut lc_balance = vec![cfg.llc.bank_bytes as f64; nbanks];
    let mut lc_claims: Vec<Option<VmId>> = vec![None; nbanks];
    let lc_placements = lat_crit_placer(input, &mut lc_balance, Some(&mut lc_claims));
    let lc_total_units: f64 = lc_placements
        .iter()
        .flat_map(|(_, p)| p.iter().map(|(_, b)| b / unit))
        .sum();

    // Batch side: optimal global sizes within the capacity that remains
    // after honouring the LC reservations.
    let members: Vec<&crate::model::AppModel> = input
        .apps
        .iter()
        .filter(|a| a.kind == AppKind::Batch)
        .collect();
    let budget_units = (input.total_units() as f64 - lc_total_units).max(0.0) as usize;
    let curves: Vec<&MissCurve> = members.iter().map(|a| &a.curve).collect();
    let sizes = if members.is_empty() {
        Vec::new()
    } else {
        lookahead(&curves, budget_units)
    };

    // VM-isolated placement in a pristine copy: whole banks per VM sized
    // by each VM's batch demand.
    let mut vm_units = vec![0.0f64; num_vms];
    for (a, &u) in members.iter().zip(&sizes) {
        vm_units[a.vm.index()] += u as f64;
    }
    let mut banks_needed: Vec<usize> = vm_units
        .iter()
        .map(|&u| (u / ways_per_bank as f64).ceil() as usize)
        .collect();
    // Ceil rounding can oversubscribe; trim the slackest VMs.
    while banks_needed.iter().sum::<usize>() > nbanks {
        let worst = (0..num_vms)
            .max_by(|&a, &b| {
                let slack_a = banks_needed[a] as f64 * ways_per_bank as f64 - vm_units[a];
                let slack_b = banks_needed[b] as f64 * ways_per_bank as f64 - vm_units[b];
                slack_a.partial_cmp(&slack_b).expect("slack is finite")
            })
            .expect("at least one VM");
        banks_needed[worst] -= 1;
        vm_units[worst] = vm_units[worst].min((banks_needed[worst] * ways_per_bank) as f64);
    }
    let no_claims = vec![None; nbanks];
    let vm_banks = assign_banks(input, &banks_needed, &no_claims);
    let mut batch_balance = vec![cfg.llc.bank_bytes as f64; nbanks];
    let mut apps: Vec<AppAlloc> = input
        .apps
        .iter()
        .map(|a| AppAlloc {
            app: a.id,
            placement: Vec::new(),
            pool: None,
            copy: 0,
        })
        .collect();
    for (app, placement) in &lc_placements {
        apps[app.index()].placement = placement.clone();
    }
    for vm in 0..num_vms {
        let vm_members: Vec<(&&crate::model::AppModel, &usize)> = members
            .iter()
            .zip(&sizes)
            .filter(|(a, _)| a.vm.index() == vm)
            .collect();
        if vm_members.is_empty() {
            continue;
        }
        let requests: Vec<PlaceRequest> = vm_members
            .iter()
            .map(|(a, &u)| PlaceRequest {
                app: a.id,
                core: a.core,
                bytes: u as f64 * unit,
                priority: a.access_rate,
            })
            .collect();
        let allowed: Vec<bool> = (0..nbanks).map(|b| vm_banks[b] == Some(vm)).collect();
        for (app, placement) in
            place_near(&requests, &mut batch_balance, cfg.mesh(), Some(&allowed))
        {
            apps[app.index()].placement = placement;
            apps[app.index()].copy = 1;
        }
    }
    Allocation {
        apps,
        pools: Vec::new(),
        ideal_batch: true,
    }
}

/// Each VM's combined batch miss curve (Whirlpool-style optimal combining
/// over the members' convex hulls), merged only as far as
/// `JumanjiLookahead` reads it.
fn vm_batch_curves(input: &PlacementInput, num_vms: usize) -> Vec<CombinedCurve<'_>> {
    (0..num_vms)
        .map(|vm| {
            CombinedCurve::new(
                input
                    .vm_apps(VmId(vm))
                    .filter(|a| a.kind == AppKind::Batch)
                    .map(|a| &a.curve),
                input.total_units(),
            )
        })
        .collect()
}

/// Assigns whole banks to VMs: pre-claimed banks stick with their claimant;
/// the rest are taken round-robin, each VM grabbing the unassigned bank
/// closest to its cores.
fn assign_banks(
    input: &PlacementInput,
    banks_per_vm: &[usize],
    claims: &[Option<VmId>],
) -> Vec<Option<usize>> {
    let nbanks = input.cfg.llc.num_banks;
    let mesh = input.cfg.mesh();
    let num_vms = banks_per_vm.len();
    let mut owner: Vec<Option<usize>> = vec![None; nbanks];
    let mut count = vec![0usize; num_vms];
    for (b, c) in claims.iter().enumerate() {
        if let Some(vm) = c {
            owner[b] = Some(vm.index());
            count[vm.index()] += 1;
        }
    }
    // Distance from a bank to a VM: minimum hops to any of its cores.
    let vm_cores: Vec<Vec<_>> = (0..num_vms)
        .map(|vm| input.vm_apps(VmId(vm)).map(|a| a.core).collect())
        .collect();
    let dist = |vm: usize, bank: usize| -> usize {
        vm_cores[vm]
            .iter()
            .map(|&c| mesh.hops_core_to_bank(c, BankId(bank)))
            .min()
            .unwrap_or(0)
    };
    loop {
        let mut progress = false;
        for vm in 0..num_vms {
            if count[vm] >= banks_per_vm[vm] {
                continue;
            }
            let pick = (0..nbanks)
                .filter(|&b| owner[b].is_none())
                .min_by_key(|&b| (dist(vm, b), b));
            if let Some(b) = pick {
                owner[b] = Some(vm);
                count[vm] += 1;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_types::SystemConfig;

    fn input() -> PlacementInput {
        PlacementInput::example(&SystemConfig::micro2020())
    }

    #[test]
    fn secure_placer_is_vm_isolated_and_valid() {
        let inp = input();
        let alloc = jumanji_placer(&inp, true);
        alloc.validate(&inp.cfg).unwrap();
        assert!(alloc.vm_isolated(&inp));
    }

    #[test]
    fn secure_placer_honours_lc_sizes() {
        let inp = input();
        let alloc = jumanji_placer(&inp, true);
        for a in &inp.apps {
            if a.kind == AppKind::LatencyCritical {
                let got = alloc.of(a.id).total_bytes();
                assert!((got - inp.lc_size(a.id)).abs() < 1e-6, "{} got {got}", a.id);
            }
        }
    }

    #[test]
    fn secure_placer_uses_whole_llc() {
        let inp = input();
        let alloc = jumanji_placer(&inp, true);
        let total: f64 = inp.apps.iter().map(|a| alloc.of(a.id).total_bytes()).sum();
        let llc = inp.cfg.llc.total_bytes() as f64;
        // Everything except sub-unit rounding slack is allocated.
        assert!(total > 0.98 * llc, "allocated {total} of {llc}");
    }

    #[test]
    fn insecure_placer_valid_but_not_isolated() {
        let inp = input();
        let alloc = jumanji_placer(&inp, false);
        alloc.validate(&inp.cfg).unwrap();
        // With four VMs contending for central banks, the insecure variant
        // essentially always shares some bank.
        assert!(!alloc.vm_isolated(&inp));
    }

    #[test]
    fn placements_are_near_cores() {
        let inp = input();
        let alloc = jumanji_placer(&inp, true);
        let mesh = inp.cfg.mesh();
        for a in &inp.apps {
            let d = alloc.avg_distance(&inp, a.id);
            let snuca = mesh.snuca_avg_distance(a.core);
            assert!(
                d < snuca,
                "{} placed at avg distance {d:.2} vs S-NUCA {snuca:.2}",
                a.id
            );
        }
    }

    #[test]
    fn ideal_batch_is_valid_isolated_and_capacity_bounded() {
        let inp = input();
        let alloc = ideal_batch_placer(&inp);
        alloc.validate(&inp.cfg).unwrap();
        assert!(alloc.ideal_batch);
        // Total capacity (LC + batch) still fits the original LLC.
        let total: f64 = inp.apps.iter().map(|a| alloc.of(a.id).total_bytes()).sum();
        assert!(total <= inp.cfg.llc.total_bytes() as f64 * (1.0 + 1e-6));
        // Batch side is VM-isolated by construction: check per-bank.
        for bank in inp.banks() {
            let vms: nuca_types::hash::DetSet<_> = inp
                .apps
                .iter()
                .filter(|a| a.kind == AppKind::Batch)
                .filter(|a| {
                    alloc
                        .of(a.id)
                        .placement
                        .iter()
                        .any(|(b, bytes)| *b == bank && *bytes > 0.0)
                })
                .map(|a| a.vm)
                .collect();
            assert!(vms.len() <= 1, "batch bank {bank} shared across VMs");
        }
    }

    #[test]
    fn ideal_batch_distance_not_worse_than_secure() {
        let inp = input();
        let secure = jumanji_placer(&inp, true);
        let ideal = ideal_batch_placer(&inp);
        let avg = |alloc: &Allocation| -> f64 {
            let batch: Vec<_> = inp
                .apps
                .iter()
                .filter(|a| a.kind == AppKind::Batch)
                .collect();
            batch
                .iter()
                .map(|a| alloc.avg_distance(&inp, a.id))
                .sum::<f64>()
                / batch.len() as f64
        };
        assert!(avg(&ideal) <= avg(&secure) + 0.25);
    }
}
