//! The figures' *plan* phase: enumerate a figure's experiment cells
//! without computing any of them.
//!
//! [`of`] produces, for a resolved [`ExperimentSpec`], every cell the
//! figure's render folds — same mixes, same option derivation, same
//! designs — in the order the render reads them. It is the *only*
//! enumeration of a figure's cells: the suite executor unions the plans
//! of many figures into one deduplicated work graph, runs it, and hands
//! each render its cells' results in plan order
//! ([`FigureResults`](super::FigureResults)).
//!
//! The detailed-simulator studies (fig02, validate) plan *detailed*
//! cells ([`DetailPlan`]) instead of analytic ones: the full input of
//! [`run_detailed`](jumanji::sim::detail::run_detailed). fig08 and the
//! attack demos (fig11, fig12) each plan one fixed [`Scenario`]. Only
//! the config tables compute nothing and return an empty plan.
//!
//! Cost priors ([`CostModel::priors`], and each [`Scenario`]'s own) feed
//! the scheduler's long-pole-first ordering, and they are the only costs
//! the suite schedules by, so node order is a pure function of the spec.
//! They are *relative* guesses (an analytic run costs about one
//! interval-unit per reconfiguration interval; placement-solving designs
//! cost more per interval; experiment construction about half a Static
//! run; a detailed cell about two interval-units per
//! [`DETAIL_UNIT_ACCESSES`] simulated accesses), not wall-clock
//! predictions — only their ordering matters.
//! The benchmark's per-design `sim.run.<design>.us_per_interval` metrics
//! (`perfbench/run.py --trace 1`) are the way to check them.

use super::{groups_by_load, sim_opts};
use crate::disk_cache::MeasuredCosts;
use crate::scenario::Scenario;
use crate::spec::{ExperimentSpec, FigureKind};
use crate::{mix_cell_inputs, LcGroup};
use jumanji::attacks::leakage::LeakageConfig;
use jumanji::attacks::port::PortAttackConfig;
use jumanji::prelude::*;
use jumanji::sim::detail::DetailOptions;
use jumanji::sim::perf::Profile;
use jumanji::types::{CoreId, Error, Seconds, VmId};
use jumanji::workloads::WorkloadMix;

/// One experiment cell a figure's render folds: the experiment's
/// construction inputs plus every design the figure runs on it.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The workload mix.
    pub mix: WorkloadMix,
    /// Latency-critical load level.
    pub load: LcLoad,
    /// Simulation options, after the figure's seed derivation.
    pub opts: SimOptions,
    /// Designs the figure runs on this experiment (duplicates allowed;
    /// the graph dedups).
    pub designs: Vec<DesignKind>,
}

impl CellPlan {
    /// The cache identity of this cell's experiment.
    pub fn experiment_key(&self) -> u128 {
        crate::cell_cache::experiment_key(&self.mix, self.load, &self.opts)
    }
}

/// One detailed-simulator cell a figure's render folds: the full input
/// of [`run_detailed`](jumanji::sim::detail::run_detailed), including
/// the allocation under test (a placement takes well under a
/// millisecond, so the plan pass computes it up front).
#[derive(Debug, Clone)]
pub struct DetailPlan {
    /// The design whose allocation is simulated (labeling only — the
    /// cell's identity is carried by `alloc` and the other inputs).
    pub design: DesignKind,
    /// Detailed-run options, after the figure's seed derivation.
    pub opts: DetailOptions,
    /// Per-app profiles in app order.
    pub profiles: Vec<Profile>,
    /// Per-app core pinning.
    pub cores: Vec<CoreId>,
    /// Per-app VM membership.
    pub vms: Vec<VmId>,
    /// The allocation under test.
    pub alloc: Allocation,
}

impl DetailPlan {
    /// The cache identity of this detailed cell.
    pub fn key(&self) -> u128 {
        crate::cell_cache::detail_key(
            &self.opts,
            &self.profiles,
            &self.cores,
            &self.vms,
            &self.alloc,
        )
    }
}

/// A figure's full cell enumeration.
#[derive(Debug, Clone)]
pub struct FigurePlan {
    /// The figure this plan describes.
    pub kind: FigureKind,
    /// Its analytic cells, in the render's fold order.
    pub cells: Vec<CellPlan>,
    /// Its detailed-simulator cells, in the render's fold order.
    pub details: Vec<DetailPlan>,
    /// Its fixed scenarios, in the render's fold order.
    pub scenarios: Vec<Scenario>,
}

impl FigurePlan {
    /// True when the figure has no cells of any kind.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.details.is_empty() && self.scenarios.is_empty()
    }
}

/// Reconfiguration intervals `opts` simulates — the unit both the
/// static priors and the persisted measured durations normalize by.
pub fn intervals_of(opts: &SimOptions) -> f64 {
    (opts.duration.as_f64() / opts.reconfig.as_f64()).max(1.0)
}

/// The static prior for a design's per-interval cost relative to a
/// Static run: a relative guess, checked against the benchmark's
/// `sim.run.<design>.us_per_interval`. Used whenever no measured data
/// exists for the design.
fn static_factor(design: DesignKind) -> f64 {
    match design {
        DesignKind::Static => 1.0,
        DesignKind::Adaptive | DesignKind::VmPart => 1.15,
        DesignKind::Jigsaw => 1.45,
        DesignKind::Jumanji | DesignKind::JumanjiInsecure | DesignKind::JumanjiIdealBatch => 1.6,
    }
}

/// Total simulated accesses in one detailed-cell work unit — the unit
/// both the detailed static prior and the persisted measured durations
/// ([`MeasuredCosts::details`]) normalize by.
pub const DETAIL_UNIT_ACCESSES: f64 = 25_000.0;

/// Work units of a detailed cell with `opts` over `napps` applications:
/// total simulated accesses per [`DETAIL_UNIT_ACCESSES`], never below
/// one.
pub fn detail_units(opts: &DetailOptions, napps: usize) -> f64 {
    ((opts.accesses_per_app * napps) as f64 / DETAIL_UNIT_ACCESSES).max(1.0)
}

/// The static prior for a detailed cell's per-work-unit cost relative
/// to a Static analytic interval: a relative guess that
/// execution-driven simulation of one unit of accesses costs about two
/// analytic intervals.
const DETAIL_STATIC_FACTOR: f64 = 2.0;

/// The scheduler's cost estimates. The suite uses the static priors
/// above ([`CostModel::priors`]); the benchmark probe's own executor can
/// still replace them with measured per-design durations
/// ([`CostModel::from_measured`]).
///
/// Measured means are kept *relative* — each design's mean
/// µs-per-interval over the measured Static mean — so partially
/// measured tables blend with the unit-normalized static priors without
/// mixing units.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    measured: MeasuredCosts,
}

impl CostModel {
    /// A model using only the static priors.
    pub fn priors() -> CostModel {
        CostModel::default()
    }

    /// A model that prefers `measured` data where it exists.
    pub fn from_measured(measured: MeasuredCosts) -> CostModel {
        CostModel { measured }
    }

    /// A measured mean relative to the measured Static run mean — the
    /// unit of every prior.
    fn relative(&self, mean: Option<f64>) -> Option<f64> {
        let base = self.measured.mean_run_us(DesignKind::Static)?;
        (base > 0.0).then_some(mean? / base)
    }

    /// Cost estimate for running `design` with `opts`: one unit per
    /// reconfiguration interval, scaled up for designs that solve a
    /// placement every interval (measured factors replace the static
    /// ones where they exist).
    pub fn run_cost(&self, opts: &SimOptions, design: DesignKind) -> f64 {
        let measured = self.relative(self.measured.mean_run_us(design));
        intervals_of(opts) * measured.unwrap_or_else(|| static_factor(design))
    }

    /// Cost estimate for constructing an experiment with `opts` (profile
    /// hulls, deadline isolation runs, stream generators): about half a
    /// Static run of the same horizon unless measured.
    pub fn experiment_cost(&self, opts: &SimOptions) -> f64 {
        intervals_of(opts) * self.relative(self.measured.mean_exp_us()).unwrap_or(0.5)
    }

    /// Cost estimate for a detailed-simulator cell (same unit as
    /// [`run_cost`](CostModel::run_cost)).
    pub fn detail_cost(&self, opts: &DetailOptions, napps: usize) -> f64 {
        let measured = self.relative(self.measured.mean_detail_us());
        detail_units(opts, napps) * measured.unwrap_or(DETAIL_STATIC_FACTOR)
    }
}

/// `designs` with the Static baseline prepended (the renders normalize
/// by it) and duplicates dropped.
fn with_baseline(designs: &[DesignKind]) -> Vec<DesignKind> {
    let mut out = vec![DesignKind::Static];
    for &d in designs {
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// The plan of the matrix figures (13–16): one cell per
/// `(group, load, seed)`, Static baseline plus the spec's designs.
fn matrix_cells(
    matrices: &[(LcGroup, LcLoad)],
    spec: &ExperimentSpec,
) -> Result<Vec<CellPlan>, Error> {
    let base = sim_opts(spec);
    let designs = with_baseline(&spec.designs);
    let mut cells = Vec::with_capacity(matrices.len() * spec.mixes);
    for &(group, load) in matrices {
        for seed in 0..spec.mixes as u64 {
            let (mix, opts) = mix_cell_inputs(group, seed, &base)?;
            cells.push(CellPlan {
                mix,
                load,
                opts,
                designs: designs.clone(),
            });
        }
    }
    Ok(cells)
}

/// Enumerates the cells `spec`'s render folds, without computing any of
/// them; detailed cells' allocations are computed directly, so the plan
/// is a pure function of `spec`. Figures with no cells return an empty
/// plan.
///
/// # Errors
///
/// Returns [`Error::UnknownWorkload`] for specs naming unknown servers,
/// before any compute.
pub fn of(spec: &ExperimentSpec) -> Result<FigurePlan, Error> {
    use FigureKind::*;
    let cells = match spec.kind {
        Fig04 => {
            let opts = SimOptions {
                duration: Seconds(4.0),
                ..sim_opts(spec)
            };
            vec![CellPlan {
                mix: case_study_mix(spec.seed),
                load: LcLoad::High,
                opts,
                designs: spec.designs.clone(),
            }]
        }
        Fig05 => vec![CellPlan {
            mix: case_study_mix(spec.seed),
            load: LcLoad::High,
            opts: sim_opts(spec),
            designs: with_baseline(&spec.designs),
        }],
        Fig09 => {
            let base_opts = sim_opts(spec);
            let mut cells = Vec::new();
            for (_, _, params) in super::case_study::fig09_cases() {
                for seed in 0..spec.mixes as u64 {
                    cells.push(CellPlan {
                        mix: case_study_mix(seed),
                        load: LcLoad::High,
                        opts: SimOptions {
                            controller: Some(params),
                            ..base_opts.clone()
                        },
                        designs: vec![DesignKind::Static, DesignKind::Jumanji],
                    });
                }
            }
            cells
        }
        Fig13 | Fig14 | Fig16 => matrix_cells(&groups_by_load(&[LcLoad::High, LcLoad::Low]), spec)?,
        Fig15 => {
            let matrices: Vec<(LcGroup, LcLoad)> = LcGroup::all()
                .into_iter()
                .map(|g| (g, LcLoad::High))
                .collect();
            matrix_cells(&matrices, spec)?
        }
        Fig17 => {
            let opts = sim_opts(spec);
            let mut cells = Vec::new();
            for (_, cfg_spec) in fig17_configs() {
                for seed in 0..spec.mixes as u64 {
                    cells.push(CellPlan {
                        mix: super::scaling::fig17_mix(&cfg_spec, seed),
                        load: LcLoad::High,
                        opts: opts.clone(),
                        designs: vec![DesignKind::Static, DesignKind::Jumanji],
                    });
                }
            }
            cells
        }
        Fig18 => {
            let mut cells = Vec::new();
            for router in super::scaling::FIG18_ROUTER_CYCLES {
                let mut cfg = SystemConfig::micro2020();
                cfg.noc.router_cycles = router;
                let opts = SimOptions {
                    cfg,
                    ..sim_opts(spec)
                };
                for seed in 0..spec.mixes as u64 {
                    cells.push(CellPlan {
                        mix: WorkloadMix::mixed_lc(seed),
                        load: LcLoad::High,
                        opts: opts.clone(),
                        designs: vec![DesignKind::Static, DesignKind::Jumanji],
                    });
                }
            }
            cells
        }
        Ablation => {
            let opts = sim_opts(spec);
            let no_panic = super::studies::no_panic_params();
            let mut cells = Vec::new();
            for seed in 0..spec.mixes as u64 {
                cells.push(CellPlan {
                    mix: case_study_mix(seed),
                    load: LcLoad::High,
                    opts: opts.clone(),
                    designs: vec![
                        DesignKind::Static,
                        DesignKind::Jumanji,
                        DesignKind::JumanjiInsecure,
                        DesignKind::JumanjiIdealBatch,
                    ],
                });
                cells.push(CellPlan {
                    mix: case_study_mix(seed),
                    load: LcLoad::High,
                    opts: SimOptions {
                        controller: Some(no_panic),
                        ..opts.clone()
                    },
                    designs: vec![DesignKind::Jumanji],
                });
            }
            cells
        }
        Sensitivity => super::studies::sensitivity_jobs(spec.mixes)
            .into_iter()
            .map(|(mix, opts, _)| CellPlan {
                mix,
                load: LcLoad::High,
                opts,
                designs: vec![
                    DesignKind::Static,
                    DesignKind::Jumanji,
                    DesignKind::Jigsaw,
                    DesignKind::Adaptive,
                ],
            })
            .collect(),
        // No analytic cells: Fig. 2 and validate run the detailed
        // simulator, fig08/11/12 fixed scenarios (both enumerated
        // below), and the tables compute nothing.
        Fig02 | Fig08 | Fig11 | Fig12 | Table2 | Table3 | Validate => Vec::new(),
    };
    let details = match spec.kind {
        Fig02 => {
            let cfg = SystemConfig::micro2020();
            let input = PlacementInput::example(&cfg);
            let profiles = super::case_study::fig02_profiles(&input);
            let cores: Vec<CoreId> = input.apps.iter().map(|a| a.core).collect();
            let vms: Vec<VmId> = input.apps.iter().map(|a| a.vm).collect();
            let opts = super::case_study::fig02_opts(&cfg, spec.accesses);
            spec.designs
                .iter()
                .map(|&design| DetailPlan {
                    design,
                    opts: opts.clone(),
                    profiles: profiles.clone(),
                    cores: cores.clone(),
                    vms: vms.clone(),
                    alloc: design.allocate(&input),
                })
                .collect()
        }
        Validate => {
            let cfg = SystemConfig::micro2020();
            let input = PlacementInput::example(&cfg);
            let cores: Vec<CoreId> = input.apps.iter().map(|a| a.core).collect();
            let vms: Vec<VmId> = input.apps.iter().map(|a| a.vm).collect();
            let mut details = Vec::new();
            // Render order: design outer, mix inner (cell index is
            // `design * mixes + mix`).
            for &design in &super::validate::DESIGNS {
                let alloc = design.allocate(&input);
                for mix in 0..spec.mixes {
                    details.push(DetailPlan {
                        design,
                        opts: super::validate::detail_opts(&cfg, spec.accesses, mix),
                        profiles: super::validate::profiles_for_mix(&input, mix),
                        cores: cores.clone(),
                        vms: vms.clone(),
                        alloc: alloc.clone(),
                    });
                }
            }
            details
        }
        _ => Vec::new(),
    };
    let scenarios = match spec.kind {
        Fig08 => {
            let xapian = tailbench().into_iter().find(|p| p.name == "xapian");
            let xapian = xapian.ok_or_else(|| Error::unknown_workload("xapian"))?;
            vec![Scenario::TailSweep(Box::new((
                xapian,
                SystemConfig::micro2020(),
            )))]
        }
        Fig11 => vec![Scenario::PortAttack(PortAttackConfig::default())],
        Fig12 => vec![Scenario::Leakage(LeakageConfig::default())],
        _ => Vec::new(),
    };
    Ok(FigurePlan {
        kind: spec.kind,
        cells,
        details,
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_figures_enumerate_groups_loads_and_seeds() {
        let spec = ExperimentSpec::new(FigureKind::Fig13).mixes(3);
        let plan = of(&spec).expect("plannable");
        // 6 groups × 2 loads × 3 seeds.
        assert_eq!(plan.cells.len(), 36);
        // Static baseline + the four main designs per cell.
        assert!(plan.cells.iter().all(|c| c.designs.len() == 5));
        let runs: usize = plan.cells.iter().map(|c| c.designs.len()).sum();
        assert_eq!(runs, 180);
        // Fig. 15 runs high load only, and its design list already
        // includes Static — no double-count.
        let spec15 = ExperimentSpec::new(FigureKind::Fig15).mixes(3);
        let plan15 = of(&spec15).expect("plannable");
        assert_eq!(plan15.cells.len(), 18);
        assert!(plan15.cells.iter().all(|c| c.designs.len() == 5));
    }

    #[test]
    fn fig13_and_fig14_plans_name_identical_cells() {
        // The two figures run the same matrix and differ only in
        // rendering — the whole point of cross-figure dedup.
        let a = of(&ExperimentSpec::new(FigureKind::Fig13).mixes(2)).expect("plannable");
        let b = of(&ExperimentSpec::new(FigureKind::Fig14).mixes(2)).expect("plannable");
        let keys = |p: &FigurePlan| -> Vec<u128> {
            p.cells.iter().map(CellPlan::experiment_key).collect()
        };
        assert_eq!(keys(&a), keys(&b));
    }

    #[test]
    fn seed_changes_cell_identity() {
        let a = of(&ExperimentSpec::new(FigureKind::Fig05)).expect("plannable");
        let b = of(&ExperimentSpec::new(FigureKind::Fig05).seed(9)).expect("plannable");
        assert_ne!(
            a.cells[0].experiment_key(),
            b.cells[0].experiment_key(),
            "the spec seed flows into the mix and options"
        );
    }

    #[test]
    fn fig09_dedups_to_seven_unique_option_sets() {
        // Nine grid rows, but the three "(default)" rows share the base
        // parameters — the plan names them identically so the graph
        // schedules each underlying cell once.
        let plan = of(&ExperimentSpec::new(FigureKind::Fig09).mixes(1)).expect("plannable");
        assert_eq!(plan.cells.len(), 9);
        let mut keys: Vec<u128> = plan.cells.iter().map(CellPlan::experiment_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn unplannable_figures_return_empty_plans() {
        for kind in [FigureKind::Table2, FigureKind::Table3] {
            let plan = of(&ExperimentSpec::new(kind)).expect("plan never fails here");
            assert!(plan.is_empty(), "{}", kind.name());
        }
        // The fixed scenarios plan exactly one scenario cell each.
        for kind in [FigureKind::Fig08, FigureKind::Fig11, FigureKind::Fig12] {
            let plan = of(&ExperimentSpec::new(kind)).expect("plan never fails here");
            assert!(plan.cells.is_empty() && plan.details.is_empty());
            assert_eq!(plan.scenarios.len(), 1, "{}", kind.name());
        }
    }

    #[test]
    fn detailed_figures_plan_detailed_cells() {
        // Fig. 2: one detailed cell per requested design, in render
        // order, each with a distinct allocation identity.
        let spec = ExperimentSpec::new(FigureKind::Fig02).accesses(4_000);
        let plan = of(&spec).expect("plannable");
        assert!(plan.cells.is_empty());
        assert_eq!(plan.details.len(), spec.designs.len());
        let mut keys: Vec<u128> = plan.details.iter().map(DetailPlan::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), spec.designs.len(), "allocs differ per design");

        // Validate: designs × mixes cells, design-major like the render.
        let vspec = ExperimentSpec::new(FigureKind::Validate)
            .mixes(3)
            .accesses(4_000);
        let vplan = of(&vspec).expect("plannable");
        assert_eq!(vplan.details.len(), 2 * 3);
        assert_eq!(vplan.details[0].design, DesignKind::Adaptive);
        assert_eq!(vplan.details[3].design, DesignKind::Jumanji);
        // Validate's mix-0 cell under a shared design dedups with
        // fig02's cell at equal --accesses: same profiles, same seed,
        // same allocation.
        let shared: Vec<u128> = plan
            .details
            .iter()
            .filter(|d| super::super::validate::DESIGNS.contains(&d.design))
            .map(DetailPlan::key)
            .collect();
        let vkeys: Vec<u128> = vplan.details.iter().map(DetailPlan::key).collect();
        for key in shared {
            assert!(vkeys.contains(&key), "fig02/validate mix-0 cells dedup");
        }
    }

    #[test]
    fn cost_priors_order_designs_sensibly() {
        let m = CostModel::priors();
        let opts = SimOptions::default();
        let static_run = m.run_cost(&opts, DesignKind::Static);
        assert!(m.run_cost(&opts, DesignKind::Jumanji) > m.run_cost(&opts, DesignKind::Jigsaw));
        assert!(m.run_cost(&opts, DesignKind::Jigsaw) > static_run);
        assert!(m.experiment_cost(&opts) < static_run);
        // Longer horizons cost proportionally more.
        let long = SimOptions {
            duration: Seconds(8.0),
            ..SimOptions::default()
        };
        assert!(m.run_cost(&long, DesignKind::Static) > static_run);
    }
}
