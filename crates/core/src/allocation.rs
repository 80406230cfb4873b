//! The output of a placement algorithm: who gets how much space, where.

use crate::model::PlacementInput;
use nuca_types::hash::DetSet;
use nuca_types::{AppId, BankId, ConfigError, SystemConfig};

/// One application's LLC allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppAlloc {
    /// The application.
    pub app: AppId,
    /// Bytes reserved for this app in each bank (partitioned space).
    /// Empty when the app lives in a shared pool instead.
    pub placement: Vec<(BankId, f64)>,
    /// Index into [`Allocation::pools`] if the app shares an unpartitioned
    /// pool (S-NUCA designs leave batch data unpartitioned).
    pub pool: Option<usize>,
    /// Which LLC copy the placement lives in. Always 0 except for batch
    /// applications under the infeasible Ideal-Batch design, whose batch
    /// data lives in copy 1 (Sec. VIII-C).
    pub copy: u8,
}

impl AppAlloc {
    /// Total bytes of partitioned space (0 for pooled apps).
    pub fn total_bytes(&self) -> f64 {
        self.placement.iter().map(|(_, b)| b).sum()
    }

    /// Average ways-per-bank of the partition, for the associativity
    /// penalty model: bytes in a bank divided by way size, averaged over
    /// banks weighted by bytes.
    pub fn avg_ways(&self, cfg: &SystemConfig) -> f64 {
        let way = cfg.llc.way_bytes() as f64;
        let total = self.total_bytes();
        if total <= 0.0 {
            return 0.0;
        }
        self.placement
            .iter()
            .map(|(_, b)| (b / way) * (b / total))
            .sum()
    }
}

/// A shared, unpartitioned pool of LLC space (e.g., the batch region of
/// Static/Adaptive). Members compete for occupancy; the simulator resolves
/// the equilibrium.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    /// Apps sharing the pool.
    pub members: Vec<AppId>,
    /// Bytes of pool space in each bank.
    pub placement: Vec<(BankId, f64)>,
}

impl Pool {
    /// Total pool bytes.
    pub fn total_bytes(&self) -> f64 {
        self.placement.iter().map(|(_, b)| b).sum()
    }

    /// Ways-per-bank of the pool (for the associativity model).
    pub fn avg_ways(&self, cfg: &SystemConfig) -> f64 {
        let way = cfg.llc.way_bytes() as f64;
        let total = self.total_bytes();
        if total <= 0.0 {
            return 0.0;
        }
        self.placement
            .iter()
            .map(|(_, b)| (b / way) * (b / total))
            .sum()
    }
}

/// A complete LLC allocation for one reconfiguration interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-app allocations, indexed by `AppId`.
    pub apps: Vec<AppAlloc>,
    /// Shared pools referenced by [`AppAlloc::pool`].
    pub pools: Vec<Pool>,
    /// True for the infeasible Ideal-Batch design, whose batch placement
    /// lives in a *copy* of the LLC: per-bank capacity checks are skipped
    /// across the batch/LC boundary (Sec. VIII-C).
    pub ideal_batch: bool,
}

impl Allocation {
    /// The allocation of `app`.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range.
    pub fn of(&self, app: AppId) -> &AppAlloc {
        &self.apps[app.index()]
    }

    /// Bitwise equality: every field equal, bytes compared by bit pattern
    /// (so `0.0` and `-0.0` differ). Unlike `==`, this is the test under
    /// which everything derived from an allocation is unchanged.
    pub fn bits_eq(&self, other: &Allocation) -> bool {
        fn placement_eq(a: &[(BankId, f64)], b: &[(BankId, f64)]) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        }
        self.ideal_batch == other.ideal_batch
            && self.apps.len() == other.apps.len()
            && self.apps.iter().zip(&other.apps).all(|(x, y)| {
                x.app == y.app
                    && x.pool == y.pool
                    && x.copy == y.copy
                    && placement_eq(&x.placement, &y.placement)
            })
            && self.pools.len() == other.pools.len()
            && self
                .pools
                .iter()
                .zip(&other.pools)
                .all(|(x, y)| x.members == y.members && placement_eq(&x.placement, &y.placement))
    }

    /// Effective placement of `app`: its own partition, or its pool's.
    pub fn placement_of(&self, app: AppId) -> &[(BankId, f64)] {
        let a = self.of(app);
        match a.pool {
            Some(p) => &self.pools[p].placement,
            None => &a.placement,
        }
    }

    /// All apps occupying any space in `bank` (partitioned or pooled).
    pub fn occupants(&self, bank: BankId) -> Vec<AppId> {
        let mut out: DetSet<AppId> = DetSet::default();
        for a in &self.apps {
            if a.placement
                .iter()
                .any(|(b, bytes)| *b == bank && *bytes > 0.0)
            {
                out.insert(a.app);
            }
        }
        for p in &self.pools {
            if p.placement
                .iter()
                .any(|(b, bytes)| *b == bank && *bytes > 0.0)
            {
                out.extend(p.members.iter().copied());
            }
        }
        let mut v: Vec<AppId> = out.into_iter().collect();
        v.sort();
        v
    }

    /// Average hop distance from `app`'s core to its data, weighting banks
    /// by allocated bytes.
    pub fn avg_distance(&self, input: &PlacementInput, app: AppId) -> f64 {
        let mesh = input.cfg.mesh();
        let core = input.apps[app.index()].core;
        mesh.weighted_distance(core, self.placement_of(app).iter().map(|&(b, w)| (b, w)))
    }

    /// True if no two apps from different VMs occupy the same bank —
    /// Jumanji's security guarantee.
    pub fn vm_isolated(&self, input: &PlacementInput) -> bool {
        for bank in input.banks() {
            let occ = self.occupants(bank);
            let vms: DetSet<_> = occ.iter().map(|a| input.apps[a.index()].vm).collect();
            if vms.len() > 1 {
                return false;
            }
        }
        true
    }

    /// Average number of potential attackers per bank for `app`: apps from
    /// *other* VMs occupying the banks holding `app`'s data, weighted by
    /// `app`'s per-bank capacity share (a capacity-weighted proxy for the
    /// per-access metric of Sec. VII; the simulator weights by accesses).
    pub fn attackers(&self, input: &PlacementInput, app: AppId) -> f64 {
        let my_vm = input.apps[app.index()].vm;
        let placement = self.placement_of(app);
        let total: f64 = placement.iter().map(|(_, b)| b).sum();
        if total <= 0.0 {
            return 0.0;
        }
        placement
            .iter()
            .map(|&(bank, bytes)| {
                let n = self
                    .occupants(bank)
                    .iter()
                    .filter(|a| input.apps[a.index()].vm != my_vm)
                    .count() as f64;
                n * bytes / total
            })
            .sum()
    }

    /// Checks per-bank capacity conservation and non-negativity.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first over-committed bank or negative
    /// allocation. The Ideal-Batch design only checks batch and LC space
    /// separately (its batch space lives in a copy of the LLC).
    pub fn validate(&self, cfg: &SystemConfig) -> Result<(), ConfigError> {
        let nbanks = cfg.llc.num_banks;
        let cap = cfg.llc.bank_bytes as f64;
        let mut used = vec![0.0f64; nbanks];
        let add = |placement: &[(BankId, f64)], used: &mut Vec<f64>| -> Result<(), ConfigError> {
            for &(b, bytes) in placement {
                if bytes < -1e-6 {
                    return Err(ConfigError::new(format!(
                        "negative allocation of {bytes} bytes in {b}"
                    )));
                }
                if b.index() >= nbanks {
                    return Err(ConfigError::new(format!("allocation names invalid {b}")));
                }
                used[b.index()] += bytes;
            }
            Ok(())
        };
        if self.ideal_batch {
            // LC space (copy 0) and batch space (copy 1) are in separate
            // LLC copies; check each side independently (total capacity is
            // bounded by the design itself).
            let mut batch_used = vec![0.0f64; nbanks];
            for a in &self.apps {
                if a.copy == 0 {
                    add(&a.placement, &mut used)?;
                } else {
                    add(&a.placement, &mut batch_used)?;
                }
            }
            for p in &self.pools {
                add(&p.placement, &mut batch_used)?;
            }
            for (i, (&u, &bu)) in used.iter().zip(batch_used.iter()).enumerate() {
                if u > cap * (1.0 + 1e-6) || bu > cap * (1.0 + 1e-6) {
                    return Err(ConfigError::new(format!(
                        "bank {i} over-committed ({u} / {bu} of {cap} bytes)"
                    )));
                }
            }
            return Ok(());
        }
        for a in &self.apps {
            add(&a.placement, &mut used)?;
        }
        for p in &self.pools {
            add(&p.placement, &mut used)?;
        }
        for (i, &u) in used.iter().enumerate() {
            if u > cap * (1.0 + 1e-6) {
                return Err(ConfigError::new(format!(
                    "bank {i} over-committed ({u} of {cap} bytes)"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_types::SystemConfig;

    fn cfg() -> SystemConfig {
        SystemConfig::micro2020()
    }

    fn simple_alloc() -> Allocation {
        Allocation {
            apps: vec![
                AppAlloc {
                    app: AppId(0),
                    placement: vec![(BankId(0), 512.0 * 1024.0), (BankId(1), 512.0 * 1024.0)],
                    pool: None,
                    copy: 0,
                },
                AppAlloc {
                    app: AppId(1),
                    placement: vec![],
                    pool: Some(0),
                    copy: 0,
                },
            ],
            pools: vec![Pool {
                members: vec![AppId(1)],
                placement: vec![(BankId(2), 1024.0 * 1024.0)],
            }],
            ideal_batch: false,
        }
    }

    #[test]
    fn totals_and_ways() {
        let a = simple_alloc();
        assert_eq!(a.of(AppId(0)).total_bytes(), 1024.0 * 1024.0);
        // 512 KB in a bank = 16 ways.
        assert!((a.of(AppId(0)).avg_ways(&cfg()) - 16.0).abs() < 1e-9);
        assert_eq!(a.pools[0].total_bytes(), 1024.0 * 1024.0);
        assert!((a.pools[0].avg_ways(&cfg()) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn placement_of_resolves_pools() {
        let a = simple_alloc();
        assert_eq!(a.placement_of(AppId(1)), &a.pools[0].placement[..]);
        assert_eq!(a.placement_of(AppId(0)).len(), 2);
    }

    #[test]
    fn occupants_include_pool_members() {
        let a = simple_alloc();
        assert_eq!(a.occupants(BankId(0)), vec![AppId(0)]);
        assert_eq!(a.occupants(BankId(2)), vec![AppId(1)]);
        assert!(a.occupants(BankId(5)).is_empty());
    }

    #[test]
    fn validate_catches_overcommit() {
        let mut a = simple_alloc();
        a.validate(&cfg()).unwrap();
        a.apps[0].placement[0].1 = 2.0 * 1024.0 * 1024.0;
        assert!(a.validate(&cfg()).is_err());
    }

    #[test]
    fn validate_catches_negative_and_bad_bank() {
        let mut a = simple_alloc();
        a.apps[0].placement[0].1 = -5.0;
        assert!(a.validate(&cfg()).is_err());
        let mut b = simple_alloc();
        b.apps[0].placement[0].0 = BankId(99);
        assert!(b.validate(&cfg()).is_err());
    }
}
