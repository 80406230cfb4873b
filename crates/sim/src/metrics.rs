//! Performance and security metrics (paper Sec. VII).
//!
//! - **Tail latency**: 95th-percentile request latency per latency-critical
//!   application, by the controller's nearest-rank
//!   [`percentile`](jumanji_core::controller::percentile).
//! - **Weighted speedup**: FIESTA-style fixed-work speedup of batch
//!   applications relative to the Static baseline — each app's speedup is
//!   the ratio of instructions completed in equal time, averaged over apps;
//!   figures report the geometric mean over workload mixes.
//! - **Vulnerability**: the average number of applications from other VMs
//!   occupying the bank a victim accesses, weighted by accesses (Fig. 4c,
//!   Fig. 14).

use jumanji_core::{Allocation, PlacementInput};
use nuca_types::AppId;

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Weighted speedup of batch apps vs. a baseline: mean over apps of
/// `work_design / work_baseline` for equal wall-clock time (equivalently,
/// inverse time-to-fixed-work).
///
/// # Panics
///
/// Panics if slices differ in length, are empty, or a baseline is zero.
pub fn weighted_speedup(design_work: &[f64], baseline_work: &[f64]) -> f64 {
    assert_eq!(design_work.len(), baseline_work.len());
    assert!(!design_work.is_empty(), "need at least one batch app");
    let sum: f64 = design_work
        .iter()
        .zip(baseline_work)
        .map(|(&d, &b)| {
            assert!(b > 0.0, "baseline work must be positive");
            d / b
        })
        .sum();
    sum / design_work.len() as f64
}

/// Access-weighted vulnerability: average number of other-VM applications
/// occupying the accessed bank, over all LLC accesses of all applications
/// (Sec. VII "Security metrics").
///
/// `rates[a]` is app `a`'s LLC access rate; an app's per-access attacker
/// count is capacity-share-weighted over its banks
/// ([`Allocation::attackers`]).
pub fn vulnerability(input: &PlacementInput, alloc: &Allocation, rates: &[f64]) -> f64 {
    let total: f64 = rates.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // Shared allocations put every pool member on every pool bank, so the
    // (app, bank) visit count is quadratic; resolve occupancy for all
    // banks once instead of once per visit. Only the *counts* matter —
    // occupants per bank and occupants per (bank, VM) — so a flat
    // membership bitmap replaces the per-bank occupant sets: the integer
    // counts are the same, hence so is every attacker term. An app's
    // attacker count at a bank is the occupants there minus its own VM's,
    // exactly as Allocation::attackers defines it.
    let num_banks = input.cfg.llc.num_banks;
    let n_apps = input.apps.len();
    let num_vms = input
        .apps
        .iter()
        .map(|a| a.vm.index() + 1)
        .max()
        .unwrap_or(0);
    let mut member = vec![false; num_banks * n_apps];
    for a in &alloc.apps {
        for &(b, bytes) in &a.placement {
            if bytes > 0.0 && b.index() < num_banks {
                member[b.index() * n_apps + a.app.index()] = true;
            }
        }
    }
    for p in &alloc.pools {
        for &(b, bytes) in &p.placement {
            if bytes > 0.0 && b.index() < num_banks {
                for m in &p.members {
                    member[b.index() * n_apps + m.index()] = true;
                }
            }
        }
    }
    let mut occ_count = vec![0usize; num_banks];
    let mut vm_counts = vec![0usize; num_banks * num_vms];
    for b in 0..num_banks {
        for (i, a) in input.apps.iter().enumerate() {
            if member[b * n_apps + i] {
                occ_count[b] += 1;
                vm_counts[b * num_vms + a.vm.index()] += 1;
            }
        }
    }
    rates
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let my_vm = input.apps[i].vm.index();
            let placement = alloc.placement_of(AppId(i));
            let bytes_total: f64 = placement.iter().map(|(_, b)| b).sum();
            if bytes_total <= 0.0 {
                return 0.0;
            }
            let attackers: f64 = placement
                .iter()
                .map(|&(bank, bytes)| {
                    let b = bank.index();
                    let n = (occ_count[b] - vm_counts[b * num_vms + my_vm]) as f64;
                    n * bytes / bytes_total
                })
                .sum();
            attackers * r / total
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumanji_core::DesignKind;
    use nuca_types::SystemConfig;

    #[test]
    fn gmean_of_constant_is_constant() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn gmean_rejects_zero() {
        gmean(&[1.0, 0.0]);
    }

    #[test]
    fn weighted_speedup_identity() {
        let w = [1e9, 2e9, 3e9];
        assert!((weighted_speedup(&w, &w) - 1.0).abs() < 1e-12);
        let faster = [2e9, 4e9, 6e9];
        assert!((weighted_speedup(&faster, &w) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vulnerability_zero_for_isolated_design() {
        let cfg = SystemConfig::micro2020();
        let input = jumanji_core::PlacementInput::example(&cfg);
        let rates = vec![1e7; 20];
        let jumanji = DesignKind::Jumanji.allocate(&input);
        assert_eq!(vulnerability(&input, &jumanji, &rates), 0.0);
    }

    #[test]
    fn vulnerability_is_15_for_snuca() {
        // 20 apps in 4 VMs: each access sees the 15 apps of other VMs.
        let cfg = SystemConfig::micro2020();
        let input = jumanji_core::PlacementInput::example(&cfg);
        let rates = vec![1e7; 20];
        for d in [DesignKind::Adaptive, DesignKind::VmPart] {
            let v = vulnerability(&input, &d.allocate(&input), &rates);
            assert!((v - 15.0).abs() < 0.01, "{d}: {v}");
        }
    }

    #[test]
    fn jigsaw_vulnerability_between_zero_and_snuca() {
        let cfg = SystemConfig::micro2020();
        let input = jumanji_core::PlacementInput::example(&cfg);
        let rates = vec![1e7; 20];
        let v = vulnerability(&input, &DesignKind::Jigsaw.allocate(&input), &rates);
        assert!(v > 0.0 && v < 15.0, "jigsaw vulnerability {v}");
    }
}
