//! The one executor every figure run goes through: plan → union →
//! schedule → render.
//!
//! [`run_suite`] turns a list of figure specs into TSVs in four phases:
//!
//! 1. **Plan.** Each figure enumerates its cells without computing them
//!    ([`figures::plan`]) — the only enumeration of a figure's cells.
//! 2. **Union.** The plans merge into one deduplicated work graph: one
//!    node per unique experiment construction, one per unique
//!    `(experiment, design)` run, and one per unique detailed-simulator
//!    cell, keyed by the same content fingerprints the [`CellCache`]
//!    uses. A cell shared by fig13/fig14/fig15 becomes a single node, no
//!    matter how many figures want it — and at equal `--accesses`, a
//!    validate mix-0 detailed cell is fig02's cell for that design.
//! 3. **Schedule.** The graph executes on one shared ready queue
//!    ([`exec::sched`]), long poles first. Each node reads through the
//!    cell cache (and its disk store), so cells an earlier run computed
//!    are served, and its result lands in the node's own slot.
//! 4. **Render.** Figures render in requested order, each the moment its
//!    last node completes, as a pure fold of its nodes' results in plan
//!    order ([`figures::render`]) — a figure whose cells finished early
//!    emits while the pool still works on later figures. Output is
//!    byte-identical at every thread count; `--threads 1` is the serial
//!    reference.
//!
//! The specs' cache controls pick the cache: `no_cache` runs against a
//! throwaway [`CellCache::new`] with no store (leaving the process-wide
//! cache untouched); otherwise the process-wide cache serves, with the
//! store at `cache_dir` attached. With tracing on, the cache bypasses
//! reads, so every unique cell's event stream is emitted exactly once.
//! A node that panics fails only the figures that need it: they are
//! never rendered, and the call returns an error after emitting the
//! figures requested before the first of them.
//!
//! [`figures::plan`]: crate::figures::plan
//! [`figures::render`]: crate::figures::render
//! [`exec::sched`]: crate::exec::sched

// Wall-clock here feeds the suite's *stats* section only (lint.toml
// [paths].timing_allow), and every map is Mix64Build-hashed — clippy
// cannot see hasher parameters, jumanji-lint checks them precisely.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use crate::cell_cache::{
    attach_global_disk, run_key, CellCache, CellCacheStats, ExperimentHandle, RunSource,
};
use crate::disk_cache::MeasuredCosts;
use crate::exec::sched::{self, Graph, GraphReport};
use crate::figures::{self, plan, FigureResults};
use crate::spec::{ExperimentSpec, FigureKind};
use jumanji::prelude::*;
use jumanji::sim::detail::DetailReport;
use jumanji::types::hash::Mix64Build;
use jumanji::types::Error;
use jumanji::workloads::WorkloadMix;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// One rendered figure, handed to [`run_suite`]'s emit callback in
/// requested order, as soon as it is ready.
#[derive(Debug)]
pub struct SuiteFigure {
    /// Which figure this is.
    pub kind: FigureKind,
    /// The rendered TSV.
    pub bytes: Vec<u8>,
    /// Wall-clock of the render alone.
    pub seconds: f64,
    /// The figure's plan.
    pub plan: plan::FigurePlan,
    /// The results the render folded, in plan order.
    pub results: FigureResults,
}

/// What the scheduler did for one [`run_suite`] call.
#[derive(Debug, Clone, Default)]
pub struct SchedReport {
    /// Design-run lookups the figures planned, before deduplication.
    pub planned_runs: usize,
    /// Unique design-run nodes those lookups deduplicated to.
    pub run_nodes: usize,
    /// Unique work-graph nodes (experiment constructions, design runs,
    /// detailed cells).
    pub nodes: usize,
    /// Dependency edges in the graph.
    pub edges: usize,
    /// Detailed-cell lookups the figures planned, before deduplication.
    pub planned_details: usize,
    /// Unique detailed-cell nodes those lookups deduplicated to.
    pub detail_nodes: usize,
    /// Run nodes served straight from the persistent disk store.
    pub disk_run_hits: u64,
    /// Run nodes the scheduler actually simulated this call.
    pub computed_runs: u64,
    /// Detailed-simulator nodes served from the persistent disk store.
    pub detail_disk_hits: u64,
    /// Detailed-simulator nodes the scheduler actually computed.
    pub detail_computed: u64,
    /// Experiment constructions skipped because every dependent run
    /// cell was already warm (in memory or on disk).
    pub warm_skipped_exps: u64,
    /// Prior-vs-measured cost drift, one row per design with measured
    /// data — what the long-pole priorities look like against the
    /// static guesses (empty when nothing was ever measured).
    pub drift: Vec<plan::CostDrift>,
    /// Pool execution measurements.
    pub graph: GraphReport,
}

/// The whole run's summary.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    /// Wall-clock of the whole call: plan + schedule + render + emit.
    pub total_seconds: f64,
    /// Scheduler measurements.
    pub sched: SchedReport,
    /// Counters of the cache the call ran against, at its end.
    pub cache: CellCacheStats,
}

/// A work-graph node: construct an experiment, run a design on one, or
/// run one detailed-simulator cell. The large variants are boxed so the
/// common `Run` variant stays a few bytes.
enum Node {
    Exp(Box<ExpCell>),
    Run { exp: u32, design: DesignKind },
    Detail(Box<plan::DetailPlan>),
}

/// An experiment node's inputs.
struct ExpCell {
    mix: WorkloadMix,
    load: LcLoad,
    opts: SimOptions,
}

/// The unioned work graph plus its figure bookkeeping.
struct Union {
    nodes: Vec<Node>,
    costs: Vec<f64>,
    deps: Vec<Vec<u32>>,
    /// Figure indices that need each node (for the streaming countdown).
    node_figures: Vec<Vec<u32>>,
    /// Per-figure node count (the countdown's starting value).
    figure_nodes: Vec<usize>,
    /// Per-node reconfiguration-interval count — the unit measured node
    /// durations are normalized by before they feed the cost store.
    intervals: Vec<u64>,
    /// For each `Exp` node: the run keys of its dependent `Run` nodes,
    /// so the scheduler can probe whether *every* consumer is already
    /// warm and skip the construction entirely. Empty for `Run` nodes.
    run_keys: Vec<Vec<u128>>,
    /// Total planned design runs before deduplication.
    planned_runs: usize,
    /// Total planned detailed cells before deduplication.
    planned_details: usize,
    /// Per figure, per planned cell: the run node of each of the cell's
    /// designs, in plan order.
    figure_cells: Vec<Vec<Vec<u32>>>,
    /// Per figure: the node of each planned detailed cell, in plan
    /// order.
    figure_details: Vec<Vec<u32>>,
}

/// Unions figure plans into one deduplicated graph, costed by `model`
/// (static priors, or measured per-design durations on warm runs).
/// Nodes are keyed by the cell cache's content fingerprints, so two
/// figures (or two cells of one figure) wanting the same work share a
/// node; node ids grow in figure order, which the scheduler uses as its
/// priority tie-break so earlier-requested figures drain first.
fn union_plans(plans: &[plan::FigurePlan], model: &plan::CostModel) -> Union {
    let mut u = Union {
        nodes: Vec::new(),
        costs: Vec::new(),
        deps: Vec::new(),
        node_figures: Vec::new(),
        figure_nodes: vec![0; plans.len()],
        intervals: Vec::new(),
        run_keys: Vec::new(),
        planned_runs: 0,
        planned_details: 0,
        figure_cells: Vec::with_capacity(plans.len()),
        figure_details: Vec::with_capacity(plans.len()),
    };
    let mut exp_ids: HashMap<u128, u32, Mix64Build> = HashMap::default();
    let mut run_ids: HashMap<u128, u32, Mix64Build> = HashMap::default();
    let mut detail_ids: HashMap<u128, u32, Mix64Build> = HashMap::default();
    for (f, plan) in plans.iter().enumerate() {
        let f32u = f as u32;
        let mut cells = Vec::with_capacity(plan.cells.len());
        for cell in &plan.cells {
            let mut runs = Vec::with_capacity(cell.designs.len());
            u.planned_runs += cell.designs.len();
            let intervals = plan::intervals_of(&cell.opts).round() as u64;
            let ekey = cell.experiment_key();
            let exp_id = *exp_ids.entry(ekey).or_insert_with(|| {
                let id = u.nodes.len() as u32;
                u.nodes.push(Node::Exp(Box::new(ExpCell {
                    mix: cell.mix.clone(),
                    load: cell.load,
                    opts: cell.opts.clone(),
                })));
                u.costs.push(model.experiment_cost(&cell.opts));
                u.deps.push(Vec::new());
                u.node_figures.push(Vec::new());
                u.intervals.push(intervals);
                u.run_keys.push(Vec::new());
                id
            });
            if u.node_figures[exp_id as usize].last() != Some(&f32u) {
                u.node_figures[exp_id as usize].push(f32u);
                u.figure_nodes[f] += 1;
            }
            for &design in &cell.designs {
                let rkey = run_key(ekey, design);
                let fresh = !run_ids.contains_key(&rkey);
                let run_id = *run_ids.entry(rkey).or_insert_with(|| {
                    let id = u.nodes.len() as u32;
                    u.nodes.push(Node::Run {
                        exp: exp_id,
                        design,
                    });
                    u.costs.push(model.run_cost(&cell.opts, design));
                    u.deps.push(vec![exp_id]);
                    u.node_figures.push(Vec::new());
                    u.intervals.push(intervals);
                    u.run_keys.push(Vec::new());
                    id
                });
                if fresh {
                    u.run_keys[exp_id as usize].push(rkey);
                }
                if u.node_figures[run_id as usize].last() != Some(&f32u) {
                    u.node_figures[run_id as usize].push(f32u);
                    u.figure_nodes[f] += 1;
                }
                runs.push(run_id);
            }
            cells.push(runs);
        }
        u.figure_cells.push(cells);
        let mut details = Vec::with_capacity(plan.details.len());
        // Detailed cells are root nodes: the allocation they simulate is
        // embedded in the plan, so they depend on no experiment node.
        for detail in &plan.details {
            u.planned_details += 1;
            let units = plan::detail_units(&detail.opts, detail.profiles.len());
            let detail_id = *detail_ids.entry(detail.key()).or_insert_with(|| {
                let id = u.nodes.len() as u32;
                u.costs
                    .push(model.detail_cost(&detail.opts, detail.profiles.len()));
                u.nodes.push(Node::Detail(Box::new(detail.clone())));
                u.deps.push(Vec::new());
                u.node_figures.push(Vec::new());
                u.intervals.push((units.round() as u64).max(1));
                u.run_keys.push(Vec::new());
                id
            });
            if u.node_figures[detail_id as usize].last() != Some(&f32u) {
                u.node_figures[detail_id as usize].push(f32u);
                u.figure_nodes[f] += 1;
            }
            details.push(detail_id);
        }
        u.figure_details.push(details);
    }
    u
}

/// A completed node's result.
enum Output {
    Exp(ExperimentHandle),
    Run(Arc<ExperimentResult>),
    Detail(Arc<DetailReport>),
}

impl Union {
    /// Figure `f`'s results in plan order, or `None` when a node it
    /// needs has no result (it failed, or a dependency did).
    fn results(&self, f: usize, outputs: &[OnceLock<Output>]) -> Option<FigureResults> {
        let run = |&id: &u32| match outputs[id as usize].get() {
            Some(Output::Run(r)) => Some(Arc::clone(r)),
            _ => None,
        };
        let detail = |&id: &u32| match outputs[id as usize].get() {
            Some(Output::Detail(d)) => Some(Arc::clone(d)),
            _ => None,
        };
        Some(FigureResults {
            runs: self.figure_cells[f]
                .iter()
                .map(|ids| ids.iter().map(run).collect())
                .collect::<Option<_>>()?,
            details: self.figure_details[f]
                .iter()
                .map(detail)
                .collect::<Option<_>>()?,
        })
    }
}

/// The streaming countdown the scheduler decrements and the renderer
/// waits on.
struct Progress {
    state: Mutex<ProgressState>,
    ready: Condvar,
}

struct ProgressState {
    /// Unfinished nodes per figure.
    remaining: Vec<usize>,
    /// Set when the scheduler thread exits (normally or by panic), so
    /// waiters never hang.
    finished: bool,
}

impl Progress {
    fn wait_for(&self, figure: usize) {
        let mut st = self.state.lock().expect("progress lock");
        while st.remaining[figure] > 0 && !st.finished {
            st = self.ready.wait(st).expect("progress lock");
        }
    }

    /// Counts one finished node against every figure in `figures`.
    fn done(&self, figures: &[u32]) {
        let mut st = self.state.lock().expect("progress lock");
        let mut completed_a_figure = false;
        for &f in figures {
            st.remaining[f as usize] -= 1;
            completed_a_figure |= st.remaining[f as usize] == 0;
        }
        drop(st);
        if completed_a_figure {
            self.ready.notify_all();
        }
    }
}

/// Sets `finished` and wakes every waiter when dropped — including
/// during a panic unwind of the scheduler thread.
struct FinishGuard<'a>(&'a Progress);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.0.state.lock().expect("progress lock").finished = true;
        self.0.ready.notify_all();
    }
}

/// The runtime error for a figure whose cells did not all compute.
fn cells_failed(kind: FigureKind) -> Error {
    Error::Io(std::io::Error::other(format!(
        "{}: a cell it needs failed to compute",
        kind.name()
    )))
}

/// Runs the suite over `specs` on `threads` workers, calling `emit` once
/// per figure in `specs` order, each as soon as it is ready. Cell
/// telemetry goes to `tel`; the specs' `trace` fields are ignored.
///
/// # Errors
///
/// Propagates plan errors (unknown workloads), render errors, and
/// `emit` errors; a figure with a failed cell is a runtime error.
pub fn run_suite(
    specs: &[ExperimentSpec],
    threads: usize,
    tel: &dyn Telemetry,
    emit: &mut dyn FnMut(SuiteFigure) -> Result<(), Error>,
) -> Result<SuiteReport, Error> {
    let start = Instant::now();
    let throwaway = specs.iter().any(|s| s.no_cache).then(CellCache::new);
    let cache = match &throwaway {
        Some(cache) => cache,
        None => {
            for spec in specs {
                if let Some(dir) = &spec.cache_dir {
                    attach_global_disk(dir, spec.cache_cap_bytes);
                }
            }
            CellCache::global()
        }
    };

    let plans: Vec<plan::FigurePlan> = specs
        .iter()
        .map(|spec| plan::of_in(spec, cache))
        .collect::<Result<_, _>>()?;
    // Cost the graph with measured durations from the persistent store
    // when it has seen real runs; the static priors otherwise.
    let loaded_costs = cache.disk().map(|d| d.load_costs()).unwrap_or_default();
    let model = if loaded_costs.is_empty() {
        plan::CostModel::priors()
    } else {
        plan::CostModel::from_measured(loaded_costs)
    };
    let union = union_plans(&plans, &model);
    let graph = Graph::new(&union.costs, union.deps.clone());
    let progress = Progress {
        state: Mutex::new(ProgressState {
            remaining: union.figure_nodes.clone(),
            finished: false,
        }),
        ready: Condvar::new(),
    };
    let outputs: Vec<OnceLock<Output>> = (0..union.nodes.len()).map(|_| OnceLock::new()).collect();
    // What each node actually did, written by the workers and read
    // after the pool drains: only COMPUTED nodes feed their measured
    // duration back into the persistent cost table (warm nodes finish
    // in microseconds and would poison the priors).
    const WARM: u8 = 0;
    const COMPUTED: u8 = 1;
    const FROM_DISK: u8 = 2;
    const FAILED: u8 = 3;
    let node_state: Vec<AtomicU8> = (0..union.nodes.len())
        .map(|_| AtomicU8::new(WARM))
        .collect();
    let state_of = |source: RunSource| match source {
        RunSource::Computed => COMPUTED,
        RunSource::Disk => FROM_DISK,
        RunSource::Memory => WARM,
    };

    // One node's work: `None` when a dependency has no result.
    let execute = |i: usize| -> Option<(Output, u8)> {
        Some(match &union.nodes[i] {
            Node::Exp(cell) => {
                let handle = cache.experiment(cell.mix.clone(), cell.load, cell.opts.clone());
                // Warm start: when every dependent run cell is already
                // resident (in memory or on disk), the construction is
                // pure waste — leave the handle lazy and let the run
                // nodes serve from cache. Tracing bypasses cache reads,
                // so a traced suite always constructs.
                let cold =
                    tel.enabled() || union.run_keys[i].iter().any(|&rk| !cache.probe_run(rk));
                if cold {
                    cache.force_experiment(&handle);
                }
                (Output::Exp(handle), if cold { COMPUTED } else { WARM })
            }
            Node::Run { exp, design } => {
                let Some(Output::Exp(handle)) = outputs[*exp as usize].get() else {
                    return None;
                };
                let (result, source) = cache.run_sourced(handle, *design, tel);
                (Output::Run(result), state_of(source))
            }
            Node::Detail(d) => {
                let (report, source) =
                    cache.run_detail_sourced(&d.opts, &d.profiles, &d.cores, &d.vms, &d.alloc, tel);
                (Output::Detail(report), state_of(source))
            }
        })
    };
    let run_node = |i: usize| {
        // A panicking cell fails its node (and its dependents) instead
        // of the pool; the figures that need it then report an error.
        match catch_unwind(AssertUnwindSafe(|| execute(i))).ok().flatten() {
            Some((output, state)) => {
                node_state[i].store(state, Ordering::Relaxed);
                let _ = outputs[i].set(output);
            }
            None => node_state[i].store(FAILED, Ordering::Relaxed),
        }
        progress.done(&union.node_figures[i]);
    };

    let (pool, rendered) = std::thread::scope(|scope| {
        let pool = scope.spawn(|| {
            let _finish = FinishGuard(&progress);
            sched::run_graph(&graph, threads, tel, run_node)
        });
        let mut rendered = Ok(());
        for (f, (spec, plan)) in specs.iter().zip(plans).enumerate() {
            progress.wait_for(f);
            rendered = union
                .results(f, &outputs)
                .ok_or_else(|| cells_failed(spec.kind))
                .and_then(|results| {
                    let start = Instant::now();
                    let mut bytes = Vec::new();
                    figures::render(spec, &plan, &results, &mut bytes)?;
                    Ok(SuiteFigure {
                        kind: spec.kind,
                        bytes,
                        seconds: start.elapsed().as_secs_f64(),
                        plan,
                        results,
                    })
                })
                .and_then(&mut *emit);
            if rendered.is_err() {
                break;
            }
        }
        (pool.join(), rendered)
    });
    rendered?;
    let graph_report =
        pool.map_err(|_| Error::Io(std::io::Error::other("the work-graph scheduler panicked")))?;

    // Feed the durations of genuinely computed nodes back into the
    // persistent cost table, so the *next* run's long-pole priorities
    // come from measurement instead of the static guesses.
    let mut measured = MeasuredCosts::default();
    let mut report = SchedReport {
        planned_runs: union.planned_runs,
        planned_details: union.planned_details,
        nodes: graph.len(),
        edges: graph.edges(),
        ..SchedReport::default()
    };
    for (i, node) in union.nodes.iter().enumerate() {
        let state = node_state[i].load(Ordering::Relaxed);
        let us = graph_report.node_us[i];
        match node {
            Node::Exp(_) => {
                if state == COMPUTED {
                    measured.record_exp(union.intervals[i], us);
                } else if state == WARM {
                    report.warm_skipped_exps += 1;
                }
            }
            Node::Run { design, .. } => {
                report.run_nodes += 1;
                match state {
                    COMPUTED => {
                        report.computed_runs += 1;
                        measured.record_run(*design, union.intervals[i], us);
                    }
                    FROM_DISK => report.disk_run_hits += 1,
                    _ => {}
                }
            }
            Node::Detail(_) => {
                report.detail_nodes += 1;
                match state {
                    COMPUTED => {
                        report.detail_computed += 1;
                        measured.record_detail(union.intervals[i] as f64, us);
                    }
                    FROM_DISK => report.detail_disk_hits += 1,
                    _ => {}
                }
            }
        }
    }
    if let Some(disk) = cache.disk() {
        if !measured.is_empty() {
            disk.merge_costs(&measured);
        }
    }
    let mut combined = loaded_costs;
    combined.merge(&measured);
    report.drift = plan::CostModel::from_measured(combined).drift();
    report.graph = graph_report;
    Ok(SuiteReport {
        total_seconds: start.elapsed().as_secs_f64(),
        sched: report,
        cache: cache.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs_of(kinds: &[FigureKind], mixes: usize) -> Vec<ExperimentSpec> {
        kinds
            .iter()
            .map(|&k| ExperimentSpec::new(k).mixes(mixes).threads(2))
            .collect()
    }

    #[test]
    fn union_dedups_shared_cells_across_figures() {
        // fig13 and fig14 plan identical matrices; the union must cost
        // exactly one figure's worth of unique nodes.
        let specs = specs_of(&[FigureKind::Fig13, FigureKind::Fig14], 2);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let both = union_plans(&plans, &plan::CostModel::priors());
        let alone = union_plans(&plans[..1], &plan::CostModel::priors());
        assert_eq!(both.nodes.len(), alone.nodes.len());
        assert_eq!(both.planned_runs, 2 * alone.planned_runs);
        // Every node is needed by both figures.
        assert!(both.node_figures.iter().all(|fs| fs == &[0, 1]));
        assert_eq!(both.figure_nodes, vec![both.nodes.len(); 2]);
    }

    #[test]
    fn union_runs_depend_on_their_experiment() {
        let specs = specs_of(&[FigureKind::Fig05], 1);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans, &plan::CostModel::priors());
        // One experiment node + five design runs on it.
        assert_eq!(u.nodes.len(), 6);
        for (i, node) in u.nodes.iter().enumerate() {
            match node {
                Node::Exp(_) => assert!(u.deps[i].is_empty()),
                Node::Run { exp, .. } => assert_eq!(u.deps[i], vec![*exp]),
                Node::Detail(_) => unreachable!("fig05 plans no detailed cells"),
            }
        }
        // The graph orders the long poles: every run's priority is below
        // its experiment's (the experiment unlocks the whole cell).
        let g = Graph::new(&u.costs, u.deps.clone());
        assert!(g.priority(0) > g.priority(1));
    }

    #[test]
    fn union_dedups_detailed_cells_across_fig02_and_validate() {
        // At equal --accesses, validate's mix-0 cells for its two
        // designs are byte-for-byte fig02's cells: same profiles, same
        // seed, same allocation. The union must schedule each once.
        let specs: Vec<ExperimentSpec> = [FigureKind::Fig02, FigureKind::Validate]
            .iter()
            .map(|&k| ExperimentSpec::new(k).mixes(2).accesses(4_000).threads(2))
            .collect();
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans, &plan::CostModel::priors());
        let detail_nodes = u
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Detail(_)))
            .count();
        assert_eq!(
            u.planned_details,
            plans[0].details.len() + plans[1].details.len()
        );
        // fig02 plans 4 designs, validate 2 designs × 2 mixes; the two
        // mix-0 validate cells fold into fig02's.
        assert_eq!(u.planned_details, 8);
        assert_eq!(detail_nodes, 6);
        // Detail nodes are roots: no dependencies, and nothing to
        // warm-skip through run_keys.
        for (i, node) in u.nodes.iter().enumerate() {
            if matches!(node, Node::Detail(_)) {
                assert!(u.deps[i].is_empty());
                assert!(u.run_keys[i].is_empty());
            }
        }
    }

    #[test]
    fn union_ids_grow_in_figure_order() {
        // fig05's single cell plans before fig18's cells, so its node
        // ids come first — the scheduler's tie-break then favors
        // earlier-requested figures for streaming.
        let specs = specs_of(&[FigureKind::Fig05, FigureKind::Fig18], 1);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans, &plan::CostModel::priors());
        let first_fig18 = u
            .node_figures
            .iter()
            .position(|fs| fs.contains(&1))
            .expect("fig18 has nodes");
        assert!(u.node_figures[..first_fig18].iter().all(|fs| fs == &[0]));
    }

    #[test]
    fn modeled_replay_of_the_benchmark_graphs_meets_grahams_bound() {
        // The benchmark's three figure sets, unioned and costed by the
        // static priors, replayed in virtual time at each width: the
        // schedule stays within Graham's list-scheduling bound.
        use FigureKind::*;
        let analytic: Vec<FigureKind> = FigureKind::all()
            .into_iter()
            .filter(|k| !matches!(k, Fig02 | Validate))
            .collect();
        let warm = vec![
            Fig02,
            Fig04,
            Fig05,
            Fig09,
            Fig13,
            Fig14,
            Fig15,
            Fig16,
            Fig17,
            Fig18,
            Sensitivity,
            Ablation,
            Validate,
        ];
        let sets = [
            ("analytic-cold", analytic, 12),
            ("detail-cold", vec![Fig02, Validate], 4),
            ("warm", warm, 12),
        ];
        for (name, kinds, mixes) in sets {
            let plans: Vec<_> = specs_of(&kinds, mixes)
                .iter()
                .map(|s| plan::of(s).unwrap())
                .collect();
            let u = union_plans(&plans, &plan::CostModel::priors());
            let g = Graph::new(&u.costs, u.deps.clone());
            let work: f64 = u.costs.iter().sum();
            let cp = (0..g.len()).map(|i| g.priority(i)).fold(0.0, f64::max);
            for m in [1usize, 2, 4, 8, 16, 64] {
                let (_, makespan) = sched::replay(&g, &u.costs, m);
                let m = m as f64;
                assert!(
                    makespan <= (work - cp) / m + cp + 1e-9 * work,
                    "{name} at {m} workers: {makespan} over Graham's bound"
                );
                eprintln!(
                    "{name}: {} nodes, {m} workers: makespan / max(CP, W/m) = {:.3}",
                    g.len(),
                    makespan / cp.max(work / m)
                );
            }
        }
    }

    /// A fault-injecting sink: panics inside every Jigsaw run (breaking
    /// the sink contract on purpose, to make one kind of cell fail).
    struct JigsawFails;

    impl Telemetry for JigsawFails {
        fn enabled(&self) -> bool {
            true
        }

        fn emit(&self, event: &jumanji::telemetry::Event) {
            if let jumanji::telemetry::Event::RunSummary { design, .. } = event {
                assert_ne!(*design, "Jigsaw", "injected cell failure");
            }
        }
    }

    #[test]
    fn a_failed_cell_fails_only_the_figures_that_need_it() {
        // fig08 needs no cell; fig04 runs Jigsaw; table2 comes after it.
        let specs: Vec<ExperimentSpec> = [FigureKind::Fig08, FigureKind::Fig04, FigureKind::Table2]
            .iter()
            .map(|&k| ExperimentSpec::new(k).threads(2).no_cache())
            .collect();
        let mut emitted = Vec::new();
        let err = run_suite(&specs, 2, &JigsawFails, &mut |fig| {
            emitted.push(fig.kind);
            Ok(())
        })
        .expect_err("fig04's Jigsaw cell fails");
        assert!(!err.is_usage(), "a failed cell is a runtime error: {err}");
        assert!(err.to_string().contains("fig04"), "{err}");
        assert_eq!(emitted, vec![FigureKind::Fig08]);
    }
}
