//! The one executor every figure run goes through: plan → union →
//! schedule → render.
//!
//! [`run_suite`] turns a list of figure specs into TSVs in four phases:
//!
//! 1. **Plan.** Each figure enumerates its cells without computing them
//!    ([`figures::plan`]) — the only enumeration of a figure's cells.
//! 2. **Union.** The plans merge into one deduplicated set of nodes,
//!    one per unique [`Cell`] of any kind — `(experiment, design)` run,
//!    detailed cell or fixed scenario — keyed by the same content
//!    fingerprints the [`CellCache`] uses. A cell shared by
//!    fig13/fig14/fig15 becomes a single node, no matter how many figures
//!    want it — and at equal `--accesses`, a validate mix-0 detailed cell
//!    is fig02's cell for that design. Each unique experiment gets one
//!    lazy [`ExperimentHandle`] that all its run cells share: the first
//!    run that actually computes builds it, and a run served from memory
//!    or disk never does. The graph has no edges.
//! 3. **Schedule.** The nodes execute on one shared ready queue
//!    ([`exec::sched`]), long poles first by the static cost priors, so
//!    node order is a pure function of the specs. Each node reads
//!    through the cell cache (and its disk store), so cells an earlier
//!    run computed are served, and its result lands in the node's own
//!    slot.
//! 4. **Render.** Figures render in requested order, each the moment its
//!    last node completes, as a pure fold of its nodes' results in plan
//!    order ([`figures::render`]) — a figure whose cells finished early
//!    emits while the pool still works on later figures. Output is
//!    byte-identical at every thread count; `--threads 1` is the serial
//!    reference.
//!
//! The caller picks the cache the nodes read through: the `suite`
//! binary passes [`CellCache::global`], with its `--cache-dir` store
//! attached if it names one; tests pass a throwaway [`CellCache::new`]
//! (leaving the process-wide cache untouched). The store holds cells and
//! nothing else; a capped store is trimmed again at the end of every
//! call. With tracing on, the cache bypasses reads, so every unique
//! cell's event stream is emitted exactly once.
//! A node that panics fails only the figures that need it: they are
//! never rendered, and the call returns an error after emitting the
//! figures requested before the first of them.
//!
//! [`figures::plan`]: crate::figures::plan
//! [`figures::render`]: crate::figures::render
//! [`exec::sched`]: crate::exec::sched

use crate::cell_cache::{
    AnyCell, Cell, CellCache, CellCacheStats, CellKind, ExperimentHandle, RunCell, RunSource,
    Shared,
};
use crate::exec::sched::{self, Graph, GraphReport};
use crate::figures::{self, plan, FigureResults};
use crate::spec::{ExperimentSpec, FigureKind};
use jumanji::prelude::*;
use jumanji::types::hash::DetMap;
use jumanji::types::Error;
use std::any::Any;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Unique work-graph nodes: one per unique cell.
    pub nodes: usize,
    /// Pool execution measurements.
    pub graph: GraphReport,
}

impl SchedReport {
    /// What the scheduler did with `kind`'s cells.
    pub fn cells(&self, kind: CellKind) -> &CellCounts {
        &self.kinds[kind as usize]
    }

    /// Cells of every kind the scheduler computed this call.
    pub fn computed(&self) -> u64 {
        self.kinds.iter().map(|c| c.computed).sum()
    }

    /// Planned cell lookups that needed no compute: served by a node
    /// another lookup shared, from memory or from the disk store.
    pub fn reused(&self) -> u64 {
        let planned: usize = self.kinds.iter().map(|c| c.planned).sum();
        planned as u64 - self.computed()
    }

    /// The share of planned lookups that were reused (0 with none).
    pub fn reuse_rate(&self) -> f64 {
        let lookups = self.computed() + self.reused();
        self.reused() as f64 / lookups.max(1) as f64
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

/// A node's output and where it came from; empty when the node failed.
type Slot = OnceLock<(Shared, RunSource)>;

/// The unioned work graph plus its figure bookkeeping.
#[derive(Default)]
struct Union {
    /// One node per unique cell.
    nodes: Vec<Box<dyn AnyCell>>,
    /// Node ids by cell key. Every key is kind-tagged, so one map
    /// serves every kind.
    ids: DetMap<u128, u32>,
    costs: Vec<f64>,
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

impl Union {
    /// The node of `cell` — filed on first sight — counted as one
    /// planned lookup by figure `f`.
    fn cell<C: Cell + 'static>(&mut self, f: usize, cell: C) -> u32 {
        self.planned[C::KIND as usize] += 1;
        let id = *self.ids.entry(cell.key()).or_insert_with(|| {
            self.costs.push(Cell::cost(&cell));
            self.nodes.push(Box::new(cell));
            self.node_figures.push(Vec::new());
            self.nodes.len() as u32 - 1
        });
        if self.node_figures[id as usize].last() != Some(&(f as u32)) {
            self.node_figures[id as usize].push(f as u32);
            self.figure_nodes[f] += 1;
        }
        id
    }

    /// The work graph over the nodes: their costs, and no edges.
    fn graph(&self) -> Graph {
        Graph::new(&self.costs, vec![Vec::new(); self.nodes.len()])
    }

    /// Figure `f`'s results in plan order, or `None` when a node it
    /// needs failed.
    fn results(&self, f: usize, outputs: &[Slot]) -> Option<FigureResults> {
        fn all<T: Any + Send + Sync>(ids: &[u32], outputs: &[Slot]) -> Option<Vec<Arc<T>>> {
            let output = |&id: &u32| Arc::clone(&outputs[id as usize].get()?.0).downcast().ok();
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

/// Unions figure plans into one deduplicated set of nodes, costed by
/// the static priors ([`plan::CostModel::priors`]), so node order is a
/// pure function of the plans. Nodes are keyed by the cell cache's
/// content fingerprints, so two figures (or two cells of one figure)
/// wanting the same work share a node; node ids grow in figure order,
/// which the scheduler uses as its priority tie-break so
/// earlier-requested figures drain first. Each unique experiment's
/// handle is made (and keyed) once, here; its run cells share it, and
/// the first of them to compute builds it.
fn union_plans(plans: &[plan::FigurePlan]) -> Union {
    let mut u = Union {
        figure_nodes: vec![0; plans.len()],
        ..Union::default()
    };
    let mut handles: DetMap<u128, ExperimentHandle> = DetMap::default();
    for (f, plan) in plans.iter().enumerate() {
        let mut cells = Vec::with_capacity(plan.cells.len());
        for cell in &plan.cells {
            let ekey = cell.experiment_key();
            let handle = handles.entry(ekey).or_insert_with(|| {
                let (mix, opts) = (cell.mix.clone(), cell.opts.clone());
                ExperimentHandle::keyed(mix, cell.load, opts, ekey)
            });
            let runs = cell.designs.iter();
            let runs = runs.map(|&design| RunCell::new(handle.clone(), design));
            cells.push(runs.map(|run| u.cell(f, run)).collect());
        }
        let details = plan.details.iter().map(|d| u.cell(f, d.clone()));
        let details = details.collect();
        let scenarios = plan.scenarios.iter().map(|s| u.cell(f, s.clone()));
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

/// Runs the suite over `specs` on `threads` workers against `cache`,
/// calling `emit` once per figure in `specs` order, each as soon as it is
/// ready. Cell telemetry goes to `tel`.
///
/// # Errors
///
/// Propagates plan errors (unknown workloads), render errors, and
/// `emit` errors; a figure with a failed cell is a runtime error.
#[allow(
    clippy::disallowed_methods,
    reason = "wall-clock feeds the report's stats (total and per-render seconds), never a TSV"
)]
pub fn run_suite(
    specs: &[ExperimentSpec],
    threads: usize,
    cache: &CellCache,
    tel: &dyn Telemetry,
    emit: &mut dyn FnMut(SuiteFigure) -> Result<(), Error>,
) -> Result<SuiteReport, Error> {
    let start = Instant::now();
    let plans: Vec<plan::FigurePlan> = specs.iter().map(plan::of).collect::<Result<_, _>>()?;
    let union = union_plans(&plans);
    let graph = union.graph();
    let progress = Progress {
        state: Mutex::new(ProgressState {
            remaining: union.figure_nodes.clone(),
            finished: false,
        }),
        ready: Condvar::new(),
    };
    let outputs: Vec<Slot> = (0..union.nodes.len()).map(|_| OnceLock::new()).collect();
    let run_node = |i: usize| {
        // A panicking cell fails its node instead of the pool; the
        // figures that need it then report an error.
        if let Ok(output) = catch_unwind(AssertUnwindSafe(|| union.nodes[i].get_in(cache, tel))) {
            let _ = outputs[i].set(output);
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

    let mut report = SchedReport {
        nodes: graph.len(),
        ..SchedReport::default()
    };
    for (counts, planned) in report.kinds.iter_mut().zip(union.planned) {
        counts.planned = planned;
    }
    for (i, cell) in union.nodes.iter().enumerate() {
        let counts = &mut report.kinds[cell.kind() as usize];
        counts.nodes += 1;
        match outputs[i].get().map(|&(_, source)| source) {
            Some(RunSource::Computed) => counts.computed += 1,
            Some(RunSource::Disk) => counts.disk_hits += 1,
            Some(RunSource::Memory) | None => {}
        }
    }
    if let Some(disk) = cache.disk() {
        // Cells written during this run may have pushed a capped store
        // over its limit; evict before the next run starts.
        disk.enforce_cap();
    }
    report.graph = graph_report;
    Ok(SuiteReport {
        total_seconds: start.elapsed().as_secs_f64(),
        sched: report,
        cache: cache.stats(),
    })
}

/// Renders `spec.kind` to `out`: [`run_suite`] on the process-wide
/// cell cache with one worker per available core. Telemetry from the
/// cells goes to `tel`.
///
/// # Errors
///
/// Usage errors for bad spec contents, runtime errors for I/O failures
/// and failed cells.
pub fn emit(spec: &ExperimentSpec, tel: &dyn Telemetry, out: &mut dyn Write) -> Result<(), Error> {
    let threads = crate::exec::available_threads();
    let spec = std::slice::from_ref(spec);
    run_suite(spec, threads, CellCache::global(), tel, &mut |fig| {
        out.write_all(&fig.bytes)?;
        Ok(())
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_cache::run_key;
    use crate::disk_cache::DiskCache;
    use jumanji::telemetry::NoopSink;

    fn specs_of(kinds: &[FigureKind], mixes: usize) -> Vec<ExperimentSpec> {
        kinds
            .iter()
            .map(|&k| ExperimentSpec::new(k).mixes(mixes))
            .collect()
    }

    #[test]
    fn union_dedups_shared_cells_across_figures() {
        // fig13 and fig14 plan identical matrices; the union must cost
        // exactly one figure's worth of unique nodes.
        let specs = specs_of(&[FigureKind::Fig13, FigureKind::Fig14], 2);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let both = union_plans(&plans);
        let alone = union_plans(&plans[..1]);
        assert_eq!(both.nodes.len(), alone.nodes.len());
        let runs = CellKind::Run as usize;
        assert_eq!(both.planned[runs], 2 * alone.planned[runs]);
        // Every node is needed by both figures.
        assert!(both.node_figures.iter().all(|fs| fs == &[0, 1]));
        assert_eq!(both.figure_nodes, vec![both.nodes.len(); 2]);
    }

    #[test]
    fn union_runs_of_one_experiment_share_one_handle() {
        // fig13 and fig14 plan the same experiments: every run of one
        // experiment, in either figure, holds the one handle the union
        // made for it, so the first run to compute builds it for all.
        let specs = specs_of(&[FigureKind::Fig13, FigureKind::Fig14], 2);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans);
        let run = |id: u32| -> &RunCell {
            let any: &dyn Any = &*u.nodes[id as usize];
            any.downcast_ref().expect("fig13/fig14 plan runs only")
        };
        let mut handles: DetMap<u128, &ExperimentHandle> = DetMap::default();
        for (f, plan) in plans.iter().enumerate() {
            for (cell, ids) in plan.cells.iter().zip(&u.figure_cells[f]) {
                assert!(ids.len() > 1, "each cell runs several designs");
                for &id in ids {
                    let handle = run(id).experiment();
                    let first = *handles.entry(cell.experiment_key()).or_insert(handle);
                    assert!(first.shares(handle), "one handle per experiment");
                }
            }
        }
        assert!(
            handles.values().all(|h| !h.built()),
            "the union builds nothing"
        );
    }

    #[test]
    fn union_dedups_detailed_cells_across_fig02_and_validate() {
        // At equal --accesses, validate's mix-0 cells for its two
        // designs are byte-for-byte fig02's cells: same profiles, same
        // seed, same allocation. The union must schedule each once.
        let specs: Vec<ExperimentSpec> = [FigureKind::Fig02, FigureKind::Validate]
            .iter()
            .map(|&k| ExperimentSpec::new(k).mixes(2).accesses(4_000))
            .collect();
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans);
        let planned = u.planned[CellKind::Detail as usize];
        assert_eq!(planned, plans[0].details.len() + plans[1].details.len());
        // fig02 plans 4 designs, validate 2 designs × 2 mixes; the two
        // mix-0 validate cells fold into fig02's.
        assert_eq!(planned, 8);
        assert_eq!(u.nodes.len(), 6);
        assert!(u.nodes.iter().all(|n| n.kind() == CellKind::Detail));
    }

    #[test]
    fn a_warm_store_reports_nothing_computed() {
        // fig05 runs cells; fig08 is one scenario.
        let dir = std::env::temp_dir().join(format!("jumanji-suite-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = specs_of(&[FigureKind::Fig05, FigureKind::Fig08], 1);
        let run = || {
            let cache = CellCache::new();
            cache.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
            let report = run_suite(&specs, 2, &cache, &NoopSink, &mut |_| Ok(()));
            report.expect("suite runs").sched
        };
        let files = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .expect("list store")
                .map(|e| e.expect("store entry").file_name())
                .collect();
            names.sort();
            names
        };
        let cold = run();
        let after_cold = files();
        let warm = run();
        let after_warm = files();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(after_cold.len(), 1, "one segment: {after_cold:?}");
        assert_eq!(after_warm, after_cold, "a warm run created a file");
        let planned: usize = cold.kinds.iter().map(|c| c.planned).sum();
        assert_eq!(cold.computed(), cold.nodes as u64);
        assert_eq!(cold.reused(), (planned - cold.nodes) as u64);
        assert_eq!(warm.computed(), 0, "a warm store computes nothing");
        assert_eq!(warm.reused(), planned as u64);
        let served: u64 = warm.kinds.iter().map(|c| c.disk_hits).sum();
        assert_eq!(served, warm.nodes as u64);
    }

    #[test]
    fn a_store_whose_directory_vanished_changes_no_byte() {
        // The store's directory is removed after it opens: every probe
        // misses, every write-back fails, and the run still renders what
        // a fresh cache renders.
        let dir = std::env::temp_dir().join(format!("jumanji-suite-gone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(DiskCache::open(&dir).expect("open store"));
        std::fs::remove_dir_all(&dir).expect("remove the store's directory");
        let specs = specs_of(&[FigureKind::Fig05, FigureKind::Fig08], 1);
        let render = |cache: &CellCache| {
            let mut tsvs = Vec::new();
            let report = run_suite(&specs, 2, cache, &NoopSink, &mut |fig| {
                tsvs.push(fig.bytes);
                Ok(())
            });
            report.expect("suite runs");
            tsvs
        };
        let gone = CellCache::new();
        gone.attach_disk(Arc::clone(&disk));
        let served = render(&gone);
        assert_eq!(
            served,
            render(&CellCache::new()),
            "the vanished store changed a TSV"
        );
        let stats = disk.stats();
        assert_eq!((stats.hits, stats.writes), (0, 0), "{stats:?}");
        assert!(stats.misses > 0, "{stats:?}");
        // The first write fails and turns writes off: no other is tried.
        assert_eq!(stats.failed_writes, 1, "{stats:?}");
        assert!(!dir.exists(), "the run recreated the store");
    }

    #[test]
    fn a_segment_that_cannot_be_created_changes_no_byte() {
        // A directory already holds the name of the segment the store
        // would create: its first write fails, warns once and turns the
        // run memory-only, and the run renders what a fresh cache renders.
        let dir =
            std::env::temp_dir().join(format!("jumanji-suite-blocked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(DiskCache::open(&dir).expect("open store"));
        std::fs::create_dir_all(disk.segment()).expect("block the segment's name");
        let specs = specs_of(&[FigureKind::Fig05, FigureKind::Fig08], 1);
        let render = |cache: &CellCache| {
            let mut tsvs = Vec::new();
            let report = run_suite(&specs, 2, cache, &NoopSink, &mut |fig| {
                tsvs.push(fig.bytes);
                Ok(())
            });
            report.expect("suite runs");
            tsvs
        };
        let blocked = CellCache::new();
        blocked.attach_disk(Arc::clone(&disk));
        let served = render(&blocked);
        assert_eq!(
            served,
            render(&CellCache::new()),
            "the blocked store changed a TSV"
        );
        let stats = disk.stats();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((stats.hits, stats.writes), (0, 0), "{stats:?}");
        assert_eq!(stats.failed_writes, 1, "{stats:?}");
    }

    #[test]
    fn a_store_written_by_other_sources_serves_no_cell() {
        // A store filled by one build, read by a binary built from
        // changed simulator sources: `with_salt` stands in for the
        // source change. One stored cell is overwritten with a value the
        // old sources might have computed, so serving it would show.
        let dir = std::env::temp_dir().join(format!("jumanji-suite-salt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = specs_of(&[FigureKind::Fig05, FigureKind::Fig08], 1);
        let render = |disk: Option<DiskCache>| {
            let cache = CellCache::new();
            let disk = disk.map(Arc::new);
            if let Some(disk) = &disk {
                cache.attach_disk(Arc::clone(disk));
            }
            let mut tsvs = Vec::new();
            let report = run_suite(&specs, 2, &cache, &NoopSink, &mut |fig| {
                tsvs.push(fig.bytes);
                Ok(())
            });
            report.expect("suite runs");
            (tsvs, disk.map(|d| d.stats()))
        };
        let open = || DiskCache::open(&dir).expect("open store");
        let (fresh, _) = render(None);
        let (cold, _) = render(Some(open()));
        assert_eq!(cold, fresh);

        let fig05 = plan::of(&specs[0]).expect("plannable");
        let key = run_key(fig05.cells[0].experiment_key(), DesignKind::Jumanji);
        let store = open();
        let mut stale = store.load::<RunCell>(key).expect("the cold run stored it");
        stale.vulnerability += 1.0;
        store.store::<RunCell>(key, &stale);
        let (served, _) = render(Some(open()));
        assert_ne!(served, fresh, "the same sources serve the stored cell");

        let (salted, stats) = render(Some(open().with_salt("other sources")));
        let stats = stats.expect("store attached");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(salted, fresh, "a stale cell reached a TSV");
    }

    #[test]
    fn union_ids_grow_in_figure_order() {
        // fig05's single cell plans before fig18's cells, so its node
        // ids come first — the scheduler's tie-break then favors
        // earlier-requested figures for streaming.
        let specs = specs_of(&[FigureKind::Fig05, FigureKind::Fig18], 1);
        let plans: Vec<_> = specs.iter().map(|s| plan::of(s).unwrap()).collect();
        let u = union_plans(&plans);
        let first_fig18 = u
            .node_figures
            .iter()
            .position(|fs| fs.contains(&1))
            .expect("fig18 has nodes");
        assert!(u.node_figures[..first_fig18].iter().all(|fs| fs == &[0]));
    }

    /// Every unique cell key `plans` name, of any kind.
    fn unique_cells(plans: &[plan::FigurePlan]) -> usize {
        let mut keys = jumanji::types::hash::DetSet::default();
        for plan in plans {
            for cell in &plan.cells {
                let ekey = cell.experiment_key();
                keys.extend(cell.designs.iter().map(|&d| run_key(ekey, d)));
            }
            keys.extend(plan.details.iter().map(Cell::key));
            keys.extend(plan.scenarios.iter().map(Cell::key));
        }
        keys.len()
    }

    #[test]
    fn modeled_replay_of_the_benchmark_graphs_meets_grahams_bound() {
        // The benchmark's three figure sets, unioned and costed by the
        // static priors: one node per unique cell and no edges. Replayed
        // in virtual time at each width, the schedule stays within
        // Graham's list-scheduling bound.
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
            let u = union_plans(&plans);
            let g = u.graph();
            assert_eq!(g.edges(), 0, "{name}");
            assert_eq!(g.len(), unique_cells(&plans), "{name}");
            if name == "analytic-cold" {
                assert_eq!(g.len(), 1903, "1899 runs and 4 scenarios");
            }
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
        let u = union_plans(&plans);
        let g = u.graph();
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
        // fig08's scenario emits no run summary; fig04's timeline
        // scenario runs Jigsaw; table2 comes after it.
        let specs: Vec<ExperimentSpec> = [FigureKind::Fig08, FigureKind::Fig04, FigureKind::Table2]
            .iter()
            .map(|&k| ExperimentSpec::new(k))
            .collect();
        let mut emitted = Vec::new();
        let err = run_suite(&specs, 2, &CellCache::new(), &JigsawFails, &mut |fig| {
            emitted.push(fig.kind);
            Ok(())
        })
        .expect_err("fig04's Jigsaw cell fails");
        assert!(!err.is_usage(), "a failed cell is a runtime error: {err}");
        assert!(err.to_string().contains("fig04"), "{err}");
        assert_eq!(emitted, vec![FigureKind::Fig08]);
    }
}
