//! The one executor every figure run goes through: plan → union →
//! schedule → render.
//!
//! [`run_suite`] turns a list of figure specs into TSVs in four phases:
//!
//! 1. **Plan.** Each figure enumerates its cells without computing them
//!    ([`figures::plan`]) — the only enumeration of a figure's cells.
//! 2. **Union.** The plans merge into one deduplicated work graph: one
//!    node per unique experiment construction and one per unique
//!    [`Cell`] of any kind — `(experiment, design)` run, detailed cell
//!    or fixed scenario — keyed by the same content fingerprints the
//!    [`CellCache`] uses. A cell shared by
//!    fig13/fig14/fig15 becomes a single node, no matter how many figures
//!    want it — and at equal `--accesses`, a validate mix-0 detailed cell
//!    is fig02's cell for that design.
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
    attach_global_disk, AnyCell, Cell, CellCache, CellCacheStats, CellKind, ExperimentHandle,
    RunCell, RunSource, Shared,
};
use crate::disk_cache::MeasuredCosts;
use crate::exec::sched::{self, Graph, GraphReport};
use crate::figures::{self, plan, FigureResults};
use crate::spec::{ExperimentSpec, FigureKind};
use jumanji::prelude::*;
use jumanji::types::hash::Mix64Build;
use jumanji::types::Error;
use std::any::Any;
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

/// What the scheduler did with one kind of cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellCounts {
    /// Lookups the figures planned, before deduplication.
    pub planned: usize,
    /// Unique nodes those lookups deduplicated to.
    pub nodes: usize,
    /// Nodes the scheduler actually computed this call.
    pub computed: u64,
    /// Nodes served straight from the persistent disk store.
    pub disk_hits: u64,
}

/// What the scheduler did for one [`run_suite`] call.
#[derive(Debug, Clone, Default)]
pub struct SchedReport {
    /// Per cell kind, indexed by `CellKind as usize` (see
    /// [`SchedReport::cells`]).
    pub kinds: [CellCounts; 3],
    /// Unique work-graph nodes (experiment constructions and cells).
    pub nodes: usize,
    /// Dependency edges in the graph.
    pub edges: usize,
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

impl SchedReport {
    /// What the scheduler did with `kind`'s cells.
    pub fn cells(&self, kind: CellKind) -> &CellCounts {
        &self.kinds[kind as usize]
    }
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

/// A work-graph node: force an experiment construction, or compute one
/// cell of any kind.
enum Node {
    /// Forces `handle`'s experiment, unless every run on it (`runs`, by
    /// key) is already warm.
    Exp {
        handle: ExperimentHandle,
        runs: Vec<u128>,
    },
    Cell(Box<dyn AnyCell>),
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
    /// Planned cell lookups per kind, before deduplication.
    planned: [usize; 3],
    /// Per figure, per planned cell: the run node of each of the cell's
    /// designs, in plan order.
    figure_cells: Vec<Vec<Vec<u32>>>,
    /// Per figure: the node of each planned detailed cell, in plan
    /// order.
    figure_details: Vec<Vec<u32>>,
    /// Per figure: the node of each planned scenario, in plan order.
    figure_scenarios: Vec<Vec<u32>>,
}

/// Node ids by key. Every key is kind-prefixed, so one map serves every
/// node.
type Ids = HashMap<u128, u32, Mix64Build>;

impl Union {
    /// The node filed under `key` — `make`'s `(node, cost, deps)` on
    /// first sight — counted against figure `f`.
    fn node(
        &mut self,
        ids: &mut Ids,
        key: u128,
        f: usize,
        make: impl FnOnce() -> (Node, f64, Vec<u32>),
    ) -> u32 {
        let id = *ids.entry(key).or_insert_with(|| {
            let (node, cost, deps) = make();
            self.nodes.push(node);
            self.costs.push(cost);
            self.deps.push(deps);
            self.node_figures.push(Vec::new());
            self.nodes.len() as u32 - 1
        });
        if self.node_figures[id as usize].last() != Some(&(f as u32)) {
            self.node_figures[id as usize].push(f as u32);
            self.figure_nodes[f] += 1;
        }
        id
    }

    /// The node of `cell` (after `deps`), counted as one planned lookup.
    fn cell<C: Cell + 'static>(
        &mut self,
        ids: &mut Ids,
        f: usize,
        cell: C,
        deps: Vec<u32>,
        model: &plan::CostModel,
    ) -> u32 {
        self.planned[C::KIND as usize] += 1;
        self.node(ids, cell.key(), f, || {
            let cost = Cell::cost(&cell, model);
            (Node::Cell(Box::new(cell)), cost, deps)
        })
    }

    /// Figure `f`'s results in plan order, or `None` when a node it
    /// needs has no result (it failed, or a dependency did).
    fn results(&self, f: usize, outputs: &[OnceLock<Shared>]) -> Option<FigureResults> {
        fn all<T: Any + Send + Sync>(
            ids: &[u32],
            outputs: &[OnceLock<Shared>],
        ) -> Option<Vec<Arc<T>>> {
            let output = |&id: &u32| Arc::clone(outputs[id as usize].get()?).downcast().ok();
            ids.iter().map(output).collect()
        }
        Some(FigureResults {
            runs: self.figure_cells[f]
                .iter()
                .map(|ids| all(ids, outputs))
                .collect::<Option<_>>()?,
            details: all(&self.figure_details[f], outputs)?,
            scenarios: all(&self.figure_scenarios[f], outputs)?,
        })
    }
}

/// Unions figure plans into one deduplicated graph, costed by `model`
/// (static priors, or measured per-design durations on warm runs).
/// Nodes are keyed by the cell cache's content fingerprints, so two
/// figures (or two cells of one figure) wanting the same work share a
/// node; node ids grow in figure order, which the scheduler uses as its
/// priority tie-break so earlier-requested figures drain first. Each
/// unique experiment's handle is built (and keyed) once, here; its run
/// cells share it.
fn union_plans(plans: &[plan::FigurePlan], model: &plan::CostModel) -> Union {
    let mut u = Union {
        nodes: Vec::new(),
        costs: Vec::new(),
        deps: Vec::new(),
        node_figures: Vec::new(),
        figure_nodes: vec![0; plans.len()],
        planned: [0; 3],
        figure_cells: Vec::with_capacity(plans.len()),
        figure_details: Vec::with_capacity(plans.len()),
        figure_scenarios: Vec::with_capacity(plans.len()),
    };
    let mut ids = Ids::default();
    for (f, plan) in plans.iter().enumerate() {
        let mut cells = Vec::with_capacity(plan.cells.len());
        for cell in &plan.cells {
            let ekey = cell.experiment_key();
            let exp = u.node(&mut ids, ekey, f, || {
                let (mix, opts) = (cell.mix.clone(), cell.opts.clone());
                let handle = ExperimentHandle::keyed(mix, cell.load, opts, ekey);
                let runs = Vec::new();
                let cost = model.experiment_cost(&cell.opts);
                (Node::Exp { handle, runs }, cost, Vec::new())
            });
            let Node::Exp { handle, .. } = &u.nodes[exp as usize] else {
                unreachable!("experiment keys name experiment nodes");
            };
            let handle = handle.clone();
            let mut run_ids = Vec::with_capacity(cell.designs.len());
            for &design in &cell.designs {
                let run = RunCell::new(handle.clone(), design);
                let key = run.key();
                let fresh = !ids.contains_key(&key);
                run_ids.push(u.cell(&mut ids, f, run, vec![exp], model));
                if let (true, Node::Exp { runs, .. }) = (fresh, &mut u.nodes[exp as usize]) {
                    runs.push(key);
                }
            }
            cells.push(run_ids);
        }
        // Detailed cells and scenarios are roots: their inputs are all
        // in the plan, so they depend on no experiment node.
        let details = plan.details.iter();
        let details = details.map(|d| u.cell(&mut ids, f, d.clone(), Vec::new(), model));
        let details = details.collect();
        let scenarios = plan.scenarios.iter();
        let scenarios = scenarios.map(|s| u.cell(&mut ids, f, s.clone(), Vec::new(), model));
        let scenarios = scenarios.collect();
        u.figure_cells.push(cells);
        u.figure_details.push(details);
        u.figure_scenarios.push(scenarios);
    }
    u
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

    let plans: Vec<plan::FigurePlan> = specs.iter().map(plan::of).collect::<Result<_, _>>()?;
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
    let outputs: Vec<OnceLock<Shared>> = (0..union.nodes.len()).map(|_| OnceLock::new()).collect();
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

    // One node's work — an output for cells, none for experiments — or
    // `None` when a dependency failed.
    let execute = |i: usize| -> Option<(Option<Shared>, u8)> {
        let failed = |&d: &u32| node_state[d as usize].load(Ordering::Relaxed) == FAILED;
        if union.deps[i].iter().any(failed) {
            return None;
        }
        Some(match &union.nodes[i] {
            Node::Exp { handle, runs } => {
                // Warm start: when every dependent run cell is already
                // resident (in memory or on disk), the construction is
                // pure waste — leave the handle lazy and let the run
                // nodes serve from cache. Tracing bypasses cache reads,
                // so a traced suite always constructs.
                let cold = tel.enabled() || runs.iter().any(|&key| !cache.probe_run(key));
                if cold {
                    cache.force_experiment(handle);
                }
                (None, if cold { COMPUTED } else { WARM })
            }
            Node::Cell(cell) => {
                let (output, source) = cell.get_in(cache, tel);
                (Some(output), state_of(source))
            }
        })
    };
    let run_node = |i: usize| {
        // A panicking cell fails its node (and its dependents) instead
        // of the pool; the figures that need it then report an error.
        match catch_unwind(AssertUnwindSafe(|| execute(i))).ok().flatten() {
            Some((output, state)) => {
                node_state[i].store(state, Ordering::Relaxed);
                if let Some(output) = output {
                    let _ = outputs[i].set(output);
                }
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
        nodes: graph.len(),
        edges: graph.edges(),
        ..SchedReport::default()
    };
    for (counts, planned) in report.kinds.iter_mut().zip(union.planned) {
        counts.planned = planned;
    }
    for (i, node) in union.nodes.iter().enumerate() {
        let state = node_state[i].load(Ordering::Relaxed);
        let us = graph_report.node_us[i];
        match node {
            Node::Exp { handle, .. } => {
                if state == COMPUTED {
                    let intervals = plan::intervals_of(handle.opts()).round() as u64;
                    measured.record_exp(intervals, us);
                } else if state == WARM {
                    report.warm_skipped_exps += 1;
                }
            }
            Node::Cell(cell) => {
                let counts = &mut report.kinds[cell.kind() as usize];
                counts.nodes += 1;
                match state {
                    COMPUTED => {
                        counts.computed += 1;
                        cell.record(&mut measured, us);
                    }
                    FROM_DISK => counts.disk_hits += 1,
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
        let runs = CellKind::Run as usize;
        assert_eq!(both.planned[runs], 2 * alone.planned[runs]);
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
                Node::Exp { .. } => assert!(u.deps[i].is_empty()),
                Node::Cell(cell) => {
                    assert_eq!(cell.kind(), CellKind::Run, "fig05 plans runs only");
                    assert_eq!(u.deps[i], vec![0]);
                }
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
        let is_detail = |n: &Node| matches!(n, Node::Cell(c) if c.kind() == CellKind::Detail);
        let detail_nodes = u.nodes.iter().filter(|n| is_detail(n)).count();
        let planned = u.planned[CellKind::Detail as usize];
        assert_eq!(planned, plans[0].details.len() + plans[1].details.len());
        // fig02 plans 4 designs, validate 2 designs × 2 mixes; the two
        // mix-0 validate cells fold into fig02's.
        assert_eq!(planned, 8);
        assert_eq!(detail_nodes, 6);
        // Every node is a detail node, and detail nodes are roots: no
        // dependencies, and no experiment to warm-skip.
        assert_eq!(u.nodes.len(), detail_nodes);
        assert!(u.deps.iter().all(Vec::is_empty));
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

    #[test]
    fn fig12s_scenario_is_the_longest_pole_of_analytic_cold() {
        // The benchmark's analytic-cold set: fig12's leakage run is its
        // longest single cell, so long-pole-first starts it at once
        // instead of leaving it for a serial tail.
        use FigureKind::*;
        let kinds: Vec<FigureKind> = FigureKind::all()
            .into_iter()
            .filter(|k| !matches!(k, Fig02 | Validate))
            .collect();
        let plans: Vec<_> = specs_of(&kinds, 12)
            .iter()
            .map(|s| plan::of(s).unwrap())
            .collect();
        let u = union_plans(&plans, &plan::CostModel::priors());
        let g = Graph::new(&u.costs, u.deps.clone());
        let fig12 = kinds.iter().position(|&k| k == Fig12).unwrap();
        let pole = u.figure_scenarios[fig12][0] as usize;
        for i in (0..g.len()).filter(|&i| i != pole) {
            assert!(g.priority(i) < g.priority(pole), "node {i} outranks fig12");
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
        // fig08's scenario emits no run summary; fig04 runs Jigsaw;
        // table2 comes after it.
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
