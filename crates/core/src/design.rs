//! The LLC designs compared throughout the paper (Sec. III and Sec. VII).
//!
//! | Design            | Tail-aware | Conflict defense | Bank isolation | NUCA |
//! |-------------------|-----------|------------------|----------------|------|
//! | Static            | no (fixed)| LC only          | no             | S    |
//! | Adaptive          | yes       | LC only          | no             | S    |
//! | VM-Part           | yes       | yes              | no             | S    |
//! | Jigsaw            | no        | yes              | heuristic      | D    |
//! | Jumanji           | yes       | yes              | guaranteed     | D    |
//! | Jumanji: Insecure | yes       | yes              | no             | D    |
//! | Jumanji: Ideal    | yes       | yes              | guaranteed     | D    |

use crate::allocation::{Allocation, AppAlloc, Pool};
use crate::jigsaw::{place_near, refine_placement, PlaceRequest};
use crate::lookahead::lookahead;
use crate::model::{AppKind, PlacementInput};
use crate::placer::{ideal_batch_placer, jumanji_placer};
use core::fmt;
use nuca_cache::MissCurve;
use nuca_types::{BankId, VmId};

/// Which LLC design decides allocations and placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Naïve baseline: every LC app gets a fixed 4-way partition; batch
    /// shares the rest. All results are normalized to this design.
    Static,
    /// S-NUCA with feedback-controlled LC partitions (Heracles/Parties
    /// style); batch space is unpartitioned.
    Adaptive,
    /// Adaptive plus per-VM way-partitions for batch data (defends
    /// conflict attacks only).
    VmPart,
    /// Data-movement-only D-NUCA \[6, 8\]: per-app Lookahead sizes, placed
    /// near cores; ignores deadlines and trust domains.
    Jigsaw,
    /// This paper: deadline-aware, VM-bank-isolated D-NUCA.
    Jumanji,
    /// Sensitivity variant: Jumanji without bank isolation.
    JumanjiInsecure,
    /// Sensitivity variant: batch placed in a pristine LLC copy.
    JumanjiIdealBatch,
}

impl DesignKind {
    /// All designs in the paper's plotting order.
    pub fn all() -> [DesignKind; 7] {
        [
            DesignKind::Static,
            DesignKind::Adaptive,
            DesignKind::VmPart,
            DesignKind::Jigsaw,
            DesignKind::Jumanji,
            DesignKind::JumanjiInsecure,
            DesignKind::JumanjiIdealBatch,
        ]
    }

    /// The four designs of the main evaluation (Fig. 13).
    pub fn main_four() -> [DesignKind; 4] {
        [
            DesignKind::Adaptive,
            DesignKind::VmPart,
            DesignKind::Jigsaw,
            DesignKind::Jumanji,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DesignKind::Static => "Static",
            DesignKind::Adaptive => "Adaptive",
            DesignKind::VmPart => "VM-Part",
            DesignKind::Jigsaw => "Jigsaw",
            DesignKind::Jumanji => "Jumanji",
            DesignKind::JumanjiInsecure => "Jumanji: Insecure",
            DesignKind::JumanjiIdealBatch => "Jumanji: Ideal Batch",
        }
    }

    /// Whether the design resizes LC allocations by feedback control.
    pub fn is_tail_aware(self) -> bool {
        !matches!(self, DesignKind::Static | DesignKind::Jigsaw)
    }

    /// Whether the design places data in nearby banks (D-NUCA).
    pub fn is_dnuca(self) -> bool {
        matches!(
            self,
            DesignKind::Jigsaw
                | DesignKind::Jumanji
                | DesignKind::JumanjiInsecure
                | DesignKind::JumanjiIdealBatch
        )
    }

    /// Whether VM bank isolation is *guaranteed* (defends port attacks and
    /// performance leakage, Sec. VI).
    pub fn guarantees_bank_isolation(self) -> bool {
        matches!(self, DesignKind::Jumanji | DesignKind::JumanjiIdealBatch)
    }

    /// Computes the allocation for one reconfiguration interval.
    pub fn allocate(self, input: &PlacementInput) -> Allocation {
        match self {
            DesignKind::Static => snuca_allocate(input, SnucaBatch::SharedPool, true),
            DesignKind::Adaptive => snuca_allocate(input, SnucaBatch::SharedPool, false),
            DesignKind::VmPart => snuca_allocate(input, SnucaBatch::PerVmPools, false),
            DesignKind::Jigsaw => jigsaw_allocate(input),
            DesignKind::Jumanji => jumanji_placer(input, true),
            DesignKind::JumanjiInsecure => jumanji_placer(input, false),
            DesignKind::JumanjiIdealBatch => ideal_batch_placer(input),
        }
    }
}

impl fmt::Display for DesignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How an S-NUCA design handles batch space.
enum SnucaBatch {
    /// One unpartitioned pool shared by every batch app (Static, Adaptive).
    SharedPool,
    /// One pool per VM, way-partitioned within every bank (VM-Part).
    PerVmPools,
}

/// Ways each LC app receives under the naïve Static design.
const STATIC_LC_WAYS: f64 = 4.0;

/// Builds an S-NUCA allocation: LC partitions striped over every bank,
/// batch space striped as pool(s).
fn snuca_allocate(input: &PlacementInput, batch: SnucaBatch, fixed_lc: bool) -> Allocation {
    let cfg = &input.cfg;
    let nbanks = cfg.llc.num_banks;
    let bank_bytes = cfg.llc.bank_bytes as f64;
    let way_bytes = cfg.llc.way_bytes() as f64;
    let mut per_bank_free = bank_bytes;

    let mut apps: Vec<AppAlloc> = Vec::with_capacity(input.num_apps());
    for a in &input.apps {
        let placement = if a.kind == AppKind::LatencyCritical {
            let total = if fixed_lc {
                STATIC_LC_WAYS * way_bytes * nbanks as f64
            } else {
                input.lc_size(a.id)
            };
            let per_bank = (total / nbanks as f64).min(per_bank_free);
            per_bank_free -= per_bank;
            (0..nbanks).map(|b| (BankId(b), per_bank)).collect()
        } else {
            Vec::new()
        };
        apps.push(AppAlloc {
            app: a.id,
            placement,
            pool: None,
            copy: 0,
        });
    }
    // Keep at least one way per bank for batch data.
    per_bank_free = per_bank_free.max(way_bytes);

    let pools = match batch {
        SnucaBatch::SharedPool => {
            let members: Vec<_> = input
                .apps
                .iter()
                .filter(|a| a.kind == AppKind::Batch)
                .map(|a| a.id)
                .collect();
            for a in &members {
                apps[a.index()].pool = Some(0);
            }
            vec![Pool {
                members,
                placement: (0..nbanks).map(|b| (BankId(b), per_bank_free)).collect(),
            }]
        }
        SnucaBatch::PerVmPools => {
            // Size VM pools by utility over each VM's combined batch curve.
            let num_vms = input.num_vms();
            let unit = input.unit_bytes();
            let vm_members: Vec<Vec<_>> = (0..num_vms)
                .map(|vm| {
                    input
                        .vm_apps(VmId(vm))
                        .filter(|a| a.kind == AppKind::Batch)
                        .collect::<Vec<_>>()
                })
                .collect();
            let curves: Vec<MissCurve> = vm_members
                .iter()
                .map(|members| {
                    let cs: Vec<&MissCurve> = members.iter().map(|a| &a.curve).collect();
                    if cs.is_empty() {
                        MissCurve::flat(unit, input.total_units(), 0.0)
                    } else {
                        MissCurve::combine_convex_curve(&cs, input.total_units())
                    }
                })
                .collect();
            let total_units = (per_bank_free * nbanks as f64 / unit as f64).floor() as usize;
            // Every VM with batch data keeps at least one way per bank —
            // its partition always exists in hardware, which is what makes
            // all VM-Part accesses observable chip-wide (Fig. 14).
            let active = vm_members.iter().filter(|m| !m.is_empty()).count();
            let min_units = nbanks.min(total_units / active.max(1));
            let sizes = lookahead(&curves, total_units - min_units * active);
            let mut pools = Vec::new();
            for (vm, members) in vm_members.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let idx = pools.len();
                for a in members {
                    apps[a.id.index()].pool = Some(idx);
                }
                let per_bank = (sizes[vm] + min_units) as f64 * unit as f64 / nbanks as f64;
                pools.push(Pool {
                    members: members.iter().map(|a| a.id).collect(),
                    placement: (0..nbanks).map(|b| (BankId(b), per_bank)).collect(),
                });
            }
            pools
        }
    };
    Allocation {
        apps,
        pools,
        ideal_batch: false,
    }
}

/// Jigsaw: per-app Lookahead sizes over every application's miss curve,
/// placed near cores. Deadlines and VMs are invisible to it.
fn jigsaw_allocate(input: &PlacementInput) -> Allocation {
    let cfg = &input.cfg;
    let unit = input.unit_bytes() as f64;
    let curves: Vec<&MissCurve> = input.apps.iter().map(|a| &a.curve).collect();
    let sizes = lookahead(&curves, input.total_units());
    let requests: Vec<PlaceRequest> = input
        .apps
        .iter()
        .zip(&sizes)
        .map(|(a, &u)| PlaceRequest {
            app: a.id,
            core: a.core,
            bytes: u as f64 * unit,
            priority: a.access_rate,
        })
        .collect();
    let mut balance = vec![cfg.llc.bank_bytes as f64; cfg.llc.num_banks];
    let mut placed = place_near(&requests, &mut balance, cfg.mesh(), None);
    // Jigsaw iteratively refines its placement [8]; a few local-search
    // sweeps recover most of what greedy rounds leave on the table.
    refine_placement(&requests, &mut placed, cfg.mesh(), 4);
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
    for (app, placement) in placed {
        apps[app.index()].placement = placement;
    }
    Allocation {
        apps,
        pools: Vec::new(),
        ideal_batch: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_types::{AppId, SystemConfig};

    const MB: f64 = 1024.0 * 1024.0;

    fn input() -> PlacementInput {
        PlacementInput::example(&SystemConfig::micro2020())
    }

    #[test]
    fn every_design_produces_a_valid_allocation() {
        let inp = input();
        for d in DesignKind::all() {
            let alloc = d.allocate(&inp);
            alloc
                .validate(&inp.cfg)
                .unwrap_or_else(|e| panic!("{d}: {e}"));
        }
    }

    #[test]
    fn static_gives_lc_four_ways() {
        let inp = input();
        let alloc = DesignKind::Static.allocate(&inp);
        for a in &inp.apps {
            if a.kind == AppKind::LatencyCritical {
                // 4 ways x 32 KB x 20 banks = 2.5 MB.
                assert!((alloc.of(a.id).total_bytes() - 2.5 * MB).abs() < 1e-6);
            }
        }
        // Batch pool is striped across every bank.
        assert_eq!(alloc.pools.len(), 1);
        assert_eq!(alloc.pools[0].placement.len(), 20);
    }

    #[test]
    fn adaptive_follows_controller_sizes() {
        let inp = input();
        let alloc = DesignKind::Adaptive.allocate(&inp);
        for a in &inp.apps {
            if a.kind == AppKind::LatencyCritical {
                assert!((alloc.of(a.id).total_bytes() - inp.lc_size(a.id)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn snuca_designs_share_every_bank() {
        let inp = input();
        for d in [DesignKind::Static, DesignKind::Adaptive, DesignKind::VmPart] {
            let alloc = d.allocate(&inp);
            // Every bank hosts apps from several VMs: maximally exposed to
            // bank attacks.
            assert!(!alloc.vm_isolated(&inp), "{d} is S-NUCA");
            let occ = alloc.occupants(BankId(7));
            assert!(occ.len() >= 10, "{d}: bank 7 has {} occupants", occ.len());
        }
    }

    #[test]
    fn vmpart_isolates_vm_pools_within_banks() {
        let inp = input();
        let alloc = DesignKind::VmPart.allocate(&inp);
        assert_eq!(alloc.pools.len(), 4);
        // Pools are disjoint by construction (separate partitions); check
        // membership covers all 16 batch apps exactly once.
        let mut seen = nuca_types::hash::DetSet::default();
        for p in &alloc.pools {
            for m in &p.members {
                assert!(seen.insert(*m));
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn jigsaw_starves_low_traffic_lc_apps() {
        let inp = input();
        let alloc = DesignKind::Jigsaw.allocate(&inp);
        // LC apps generate ~10x less traffic, so Jigsaw gives them far
        // less space than the controller wanted (the paper's core
        // complaint about data-movement-only D-NUCA).
        for a in &inp.apps {
            if a.kind == AppKind::LatencyCritical {
                let got = alloc.of(a.id).total_bytes();
                assert!(
                    got < inp.lc_size(a.id),
                    "{}: jigsaw gave {got} >= requested {}",
                    a.id,
                    inp.lc_size(a.id)
                );
            }
        }
    }

    #[test]
    fn jumanji_only_design_with_guaranteed_isolation() {
        let inp = input();
        for d in DesignKind::all() {
            let alloc = d.allocate(&inp);
            if d.guarantees_bank_isolation() && !alloc.ideal_batch {
                assert!(alloc.vm_isolated(&inp), "{d} must isolate");
            }
        }
    }

    #[test]
    fn properties_match_table1() {
        use DesignKind::*;
        assert!(!Static.is_tail_aware() && !Jigsaw.is_tail_aware());
        assert!(Adaptive.is_tail_aware() && VmPart.is_tail_aware() && Jumanji.is_tail_aware());
        assert!(Jigsaw.is_dnuca() && Jumanji.is_dnuca());
        assert!(!Adaptive.is_dnuca() && !VmPart.is_dnuca());
        assert!(Jumanji.guarantees_bank_isolation());
        assert!(!JumanjiInsecure.guarantees_bank_isolation());
    }

    #[test]
    fn dnuca_distance_beats_snuca_distance() {
        let inp = input();
        let snuca = DesignKind::Adaptive.allocate(&inp);
        let dnuca = DesignKind::Jumanji.allocate(&inp);
        let avg = |alloc: &Allocation| {
            (0..20)
                .map(|i| alloc.avg_distance(&inp, AppId(i)))
                .sum::<f64>()
                / 20.0
        };
        assert!(avg(&dnuca) < 0.6 * avg(&snuca));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DesignKind::Jumanji.to_string(), "Jumanji");
        assert_eq!(DesignKind::VmPart.name(), "VM-Part");
        assert_eq!(DesignKind::main_four().len(), 4);
    }
}
