//! Inputs to the placement algorithms: per-application models and the
//! full placement problem.

use nuca_cache::MissCurve;
use nuca_types::{AppId, BankId, CoreId, SystemConfig, VmId};
use std::sync::Arc;

/// Whether an application is latency-critical or batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Has a tail-latency deadline; sized by the feedback controller.
    LatencyCritical,
    /// Throughput-oriented; sized by utility (Lookahead).
    Batch,
}

/// Everything a placement algorithm knows about one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    /// Application id (also its virtual-cache id).
    pub id: AppId,
    /// Trust domain.
    pub vm: VmId,
    /// The core the application is pinned to.
    pub core: CoreId,
    /// Latency-critical or batch.
    pub kind: AppKind,
    /// Absolute miss-rate curve (misses per second) vs. capacity, already
    /// convex-hulled for DRRIP, with `unit_bytes` equal to one way of one
    /// bank.
    pub curve: MissCurve,
    /// LLC accesses per second the application generates.
    pub access_rate: f64,
}

/// One placement problem: the applications, their controller-assigned LC
/// sizes, and the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementInput {
    /// System configuration (bank sizes, mesh, ways). Shared by reference
    /// so the interval loop can rebuild inputs without copying the config
    /// (and so clones of the input are cheap).
    pub cfg: Arc<SystemConfig>,
    /// Applications indexed by `AppId`.
    pub apps: Vec<AppModel>,
    /// Feedback-controller target size in bytes for each LC app
    /// (`lc_sizes[app.id]`; ignored entries for batch apps are 0).
    pub lc_sizes: Vec<f64>,
}

impl PlacementInput {
    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Number of distinct VMs (assumes contiguous VM ids starting at 0).
    pub fn num_vms(&self) -> usize {
        self.apps
            .iter()
            .map(|a| a.vm.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The LC size for `app` in bytes (0 for batch apps).
    pub fn lc_size(&self, app: AppId) -> f64 {
        self.lc_sizes.get(app.index()).copied().unwrap_or(0.0)
    }

    /// Applications in VM `vm`.
    pub fn vm_apps(&self, vm: VmId) -> impl Iterator<Item = &AppModel> {
        self.apps.iter().filter(move |a| a.vm == vm)
    }

    /// The capacity of one allocation unit (one way of one bank).
    pub fn unit_bytes(&self) -> u64 {
        self.cfg.llc.way_bytes()
    }

    /// Total LLC units (ways × banks).
    pub fn total_units(&self) -> usize {
        self.cfg.llc.total_ways() as usize
    }

    /// Banks of the machine in id order.
    pub fn banks(&self) -> impl Iterator<Item = BankId> {
        (0..self.cfg.llc.num_banks).map(BankId)
    }

    /// A small synthetic 4-VM input for documentation examples and tests:
    /// one latency-critical and four batch applications per VM, on the
    /// paper's quadrant layout.
    pub fn example(cfg: &SystemConfig) -> PlacementInput {
        let unit = cfg.llc.way_bytes();
        let units = cfg.llc.total_ways() as usize;
        let quadrant_cores: [[usize; 5]; 4] = [
            [0, 1, 5, 6, 2],
            [4, 3, 9, 8, 7],
            [15, 16, 10, 11, 12],
            [19, 18, 14, 13, 17],
        ];
        let mut apps = Vec::new();
        let mut lc_sizes = Vec::new();
        for (vm, cores) in quadrant_cores.iter().enumerate() {
            for (i, &core) in cores.iter().enumerate() {
                let id = AppId(apps.len());
                let kind = if i == 0 {
                    AppKind::LatencyCritical
                } else {
                    AppKind::Batch
                };
                // Simple convex synthetic curves: LC apps are low-traffic,
                // batch apps higher-traffic with varied working sets.
                let (rate, scale, ws_units) = match kind {
                    AppKind::LatencyCritical => (2e6, 1e6, 60.0 + 10.0 * vm as f64),
                    AppKind::Batch => (2e7, 1e7, 30.0 + 25.0 * i as f64),
                };
                let points: Vec<f64> = (0..=units)
                    .map(|u| scale / (1.0 + u as f64 / ws_units))
                    .collect();
                apps.push(AppModel {
                    id,
                    vm: VmId(vm),
                    core: CoreId(core),
                    kind,
                    curve: MissCurve::new(unit, points),
                    access_rate: rate,
                });
                lc_sizes.push(if kind == AppKind::LatencyCritical {
                    2.0 * 1024.0 * 1024.0
                } else {
                    0.0
                });
            }
        }
        PlacementInput {
            cfg: Arc::new(cfg.clone()),
            apps,
            lc_sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_input_is_well_formed() {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        assert_eq!(input.num_apps(), 20);
        assert_eq!(input.num_vms(), 4);
        assert_eq!(input.total_units(), 640);
        assert_eq!(input.unit_bytes(), 32 * 1024);
        let lc_count = input
            .apps
            .iter()
            .filter(|a| a.kind == AppKind::LatencyCritical)
            .count();
        assert_eq!(lc_count, 4);
        for a in &input.apps {
            assert_eq!(a.curve.unit_bytes(), input.unit_bytes());
            assert_eq!(a.curve.max_units(), 640);
        }
    }

    #[test]
    fn lc_sizes_only_for_lc_apps() {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        for a in &input.apps {
            match a.kind {
                AppKind::LatencyCritical => assert!(input.lc_size(a.id) > 0.0),
                AppKind::Batch => assert_eq!(input.lc_size(a.id), 0.0),
            }
        }
        assert_eq!(input.lc_size(AppId(999)), 0.0);
    }

    #[test]
    fn vm_apps_filters_by_vm() {
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        assert_eq!(input.vm_apps(VmId(2)).count(), 5);
    }
}
