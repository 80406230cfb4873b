//! `perfbench-probe` — the traced run of the repository benchmark.
//!
//! The probe re-runs one workload's `suite` job through the layers'
//! public functions, timing every call into a layer with a span:
//!
//! - plan: `figures::plan::of` and the union into one work graph;
//! - the repository's own scheduler, `exec::sched::run_graph`, observed
//!   through a counting telemetry sink;
//! - experiment construction and design runs through the process-wide
//!   `CellCache` (`Experiment::new` / `Experiment::run` underneath);
//! - detailed-simulator cells (`run_detailed` underneath);
//! - persistent-store probes, reads and writes (`DiskCache`);
//! - every figure's render (`figures::emit`), streamed the way
//!   `suite::run_suite` streams them.
//!
//! Spans stay in memory and are written out once, at the end, in one JSON
//! report; `perfbench/run.py` turns it into the per-layer metrics and the
//! self-time tree. Nothing inside the program is instrumented.
//!
//! With `--replay`, per-call probes run after the job on inputs built from
//! the workload's own experiments: every placer on each cell's
//! first-interval `PlacementInput`, the feedback controller, the evaluator
//! with a reused scratch, the LC queues, the run memo, and the two attack
//! scenarios of fig11/fig12. They are recorded under their own root span,
//! outside the job.
//!
//! Usage:
//!
//! ```text
//! perfbench-probe --figures a,b,… --mixes N --seed N --threads N
//!                 --store DIR --mode cold|warm --out DIR --report PATH
//!                 [--replay] [--plan-only]
//! perfbench-probe --calibrate --threads N
//! ```
//!
//! `--mode cold` expects an empty store and writes every computed cell to
//! it explicitly (so store writes get spans of their own); `--mode warm`
//! attaches the store to the cell cache so reads go through it exactly as
//! in `suite --cache-dir`. `--plan-only` writes the plan counters and
//! exits without running anything. `--calibrate` runs no job: it times a
//! fixed `std`-only memory-bound kernel on N threads and prints the mean
//! seconds per thread, the host-speed reference of `run.py`.

// Reading the clock is this program's job; the repository's clippy.toml
// bans it to keep the simulator crates clock-free.
#![allow(clippy::disallowed_methods)]

use jumanji::attacks::leakage::{leakage_experiment, LeakageConfig};
use jumanji::attacks::port::{run_port_attack, PortAttackConfig};
use jumanji::prelude::*;
use jumanji::sim::perf::{evaluate_with, EvalScratch, Profile};
use jumanji::sim::queueing::{Completion, LcQueue};
use jumanji::sim::{exact_ratio_hull, ratio_hull_cache_stats};
use jumanji::workloads::WorkloadMix;
use jumanji_bench::cell_cache::{run_key, CellCache, ExperimentHandle, RunSource};
use jumanji_bench::disk_cache::{DiskCache, MeasuredCosts};
use jumanji_bench::exec::flag_value;
use jumanji_bench::exec::sched::{run_graph, Graph};
use jumanji_bench::figures::{self, plan};
use jumanji_bench::{ExperimentSpec, FigureKind};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- spans

/// One closed span: a call into a layer, on one thread.
struct Span {
    id: u32,
    parent: u32,
    lane: u32,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has been opened but not yet recorded: its id is reserved
/// so children can name it as their parent before it closes.
#[derive(Clone, Copy)]
struct Open {
    id: u32,
    start_ns: u64,
}

/// The in-memory span store. Spans are coarse (one per layer call, a few
/// thousand per job), so one mutex'd vector costs well under a microsecond
/// per span.
struct Trace {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// This thread's lane number, assigned on first use (the main thread
    /// asks first, so it is lane 0).
    static LANE: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn lane() -> u32 {
    LANE.with(|l| {
        if l.get() == u32::MAX {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

impl Trace {
    fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(16_384)),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now(),
        }
    }

    fn close(&self, open: Open, parent: u32, name: impl Into<String>) {
        let end_ns = self.now();
        let span = Span {
            id: open.id,
            parent,
            lane: lane(),
            name: name.into(),
            start_ns: open.start_ns,
            end_ns,
        };
        self.spans.lock().expect("span lock").push(span);
    }

    fn span<R>(&self, parent: u32, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let r = f();
        self.close(open, parent, name);
        r
    }
}

// ------------------------------------------------------------- counters

/// Counts the scheduler's own telemetry: `SchedQueue` depth samples,
/// `SchedSteal`, `SchedWorker` busy/span time and `SchedSummary`.
#[derive(Default)]
struct SchedCounter {
    counts: Mutex<SchedCounts>,
}

#[derive(Default)]
struct SchedCounts {
    steals: u64,
    depths: Vec<u64>,
    busy_us: u64,
    span_us: u64,
    critical_path_us: u64,
    elapsed_us: u64,
    nodes: u64,
}

impl Telemetry for SchedCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &Event) {
        let mut c = self.counts.lock().expect("sched counter lock");
        match event {
            Event::SchedSteal { .. } => c.steals += 1,
            Event::SchedQueue { depth, .. } => c.depths.push(*depth),
            Event::SchedWorker {
                busy_us, span_us, ..
            } => {
                c.busy_us += busy_us;
                c.span_us += span_us;
            }
            Event::SchedSummary {
                nodes,
                critical_path_us,
                elapsed_us,
                ..
            } => {
                c.nodes = *nodes;
                c.critical_path_us = *critical_path_us;
                c.elapsed_us = *elapsed_us;
            }
            _ => {}
        }
    }
}

/// Counts `RunSummary` memo hits and intervals.
#[derive(Default)]
struct MemoCounter {
    hits: AtomicU64,
    intervals: AtomicU64,
}

impl Telemetry for MemoCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &Event) {
        if let Event::RunSummary {
            intervals,
            memo_hits,
            ..
        } = event
        {
            self.hits.fetch_add(*memo_hits, Ordering::Relaxed);
            self.intervals.fetch_add(*intervals, Ordering::Relaxed);
        }
    }
}

/// Simulated statistics summed over detailed-cell reports.
#[derive(Default)]
struct DetailTotals {
    accesses: u64,
    misses: u64,
    port_wait: u64,
    latency: f64,
}

type Counters = BTreeMap<String, f64>;

fn slug(design: DesignKind) -> &'static str {
    match design {
        DesignKind::Static => "static",
        DesignKind::Adaptive => "adaptive",
        DesignKind::VmPart => "vm_part",
        DesignKind::Jigsaw => "jigsaw",
        DesignKind::Jumanji => "jumanji",
        DesignKind::JumanjiInsecure => "jumanji_insecure",
        DesignKind::JumanjiIdealBatch => "jumanji_ideal_batch",
    }
}

// ------------------------------------------------------------ work graph

/// A work-graph node, as `suite::run_suite` builds them.
enum Node {
    Exp(Box<ExpNode>),
    Run {
        exp: u32,
        design: DesignKind,
        key: u128,
    },
    Detail {
        plan: Box<plan::DetailPlan>,
        key: u128,
    },
}

/// An experiment node's inputs and the keys of its dependent runs.
struct ExpNode {
    mix: WorkloadMix,
    load: LcLoad,
    opts: SimOptions,
    run_keys: Vec<u128>,
}

/// The unioned work graph with the suite's per-figure bookkeeping.
struct Work {
    nodes: Vec<Node>,
    costs: Vec<f64>,
    deps: Vec<Vec<u32>>,
    node_figures: Vec<Vec<u32>>,
    figure_nodes: Vec<usize>,
    /// Intervals per node (detail nodes: work units), as the suite feeds
    /// measured durations back into the store's cost table.
    intervals: Vec<u64>,
    planned_cells: usize,
}

/// Unions figure plans into one deduplicated graph, the way
/// `suite::run_suite` does: one node per unique experiment, per unique
/// `(experiment, design)` run, and per unique detailed cell.
fn union(plans: &[plan::FigurePlan], model: &plan::CostModel) -> Work {
    let mut w = Work {
        nodes: Vec::new(),
        costs: Vec::new(),
        deps: Vec::new(),
        node_figures: Vec::new(),
        figure_nodes: vec![0; plans.len()],
        intervals: Vec::new(),
        planned_cells: 0,
    };
    let mut ids: BTreeMap<u128, u32> = BTreeMap::new();
    let touch = |w: &mut Work, id: u32, f: u32| {
        if w.node_figures[id as usize].last() != Some(&f) {
            w.node_figures[id as usize].push(f);
            w.figure_nodes[f as usize] += 1;
        }
    };
    for (f, p) in plans.iter().enumerate() {
        let f = f as u32;
        for cell in &p.cells {
            w.planned_cells += cell.designs.len();
            let intervals = plan::intervals_of(&cell.opts).round() as u64;
            let ekey = cell.experiment_key();
            let exp = match ids.get(&ekey) {
                Some(&id) => id,
                None => {
                    let id = w.nodes.len() as u32;
                    w.nodes.push(Node::Exp(Box::new(ExpNode {
                        mix: cell.mix.clone(),
                        load: cell.load,
                        opts: cell.opts.clone(),
                        run_keys: Vec::new(),
                    })));
                    w.costs.push(model.experiment_cost(&cell.opts));
                    w.deps.push(Vec::new());
                    w.node_figures.push(Vec::new());
                    w.intervals.push(intervals);
                    ids.insert(ekey, id);
                    id
                }
            };
            touch(&mut w, exp, f);
            for &design in &cell.designs {
                let key = run_key(ekey, design);
                let run = match ids.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = w.nodes.len() as u32;
                        w.nodes.push(Node::Run { exp, design, key });
                        w.costs.push(model.run_cost(&cell.opts, design));
                        w.deps.push(vec![exp]);
                        w.node_figures.push(Vec::new());
                        w.intervals.push(intervals);
                        if let Node::Exp(e) = &mut w.nodes[exp as usize] {
                            e.run_keys.push(key);
                        }
                        ids.insert(key, id);
                        id
                    }
                };
                touch(&mut w, run, f);
            }
        }
        for detail in &p.details {
            w.planned_cells += 1;
            let key = detail.key();
            let id = match ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = w.nodes.len() as u32;
                    let napps = detail.profiles.len();
                    w.costs.push(model.detail_cost(&detail.opts, napps));
                    w.intervals
                        .push((plan::detail_units(&detail.opts, napps).round() as u64).max(1));
                    w.nodes.push(Node::Detail {
                        plan: Box::new(detail.clone()),
                        key,
                    });
                    w.deps.push(Vec::new());
                    w.node_figures.push(Vec::new());
                    ids.insert(key, id);
                    id
                }
            };
            touch(&mut w, id, f);
        }
    }
    w
}

/// The plan's size counters: what `run.py` divides wall time into.
fn plan_counters(work: &Work, c: &mut Counters) {
    let mut runs = 0.0;
    let mut details = 0.0;
    let mut run_intervals = 0.0;
    let mut detail_accesses = 0.0;
    for (i, node) in work.nodes.iter().enumerate() {
        match node {
            Node::Exp(_) => {}
            Node::Run { .. } => {
                runs += 1.0;
                run_intervals += work.intervals[i] as f64;
            }
            Node::Detail { plan, .. } => {
                details += 1.0;
                detail_accesses += (plan.opts.accesses_per_app * plan.profiles.len()) as f64;
            }
        }
    }
    c.insert("plan.planned_cells".into(), work.planned_cells as f64);
    c.insert("plan.unique_cells".into(), runs + details);
    c.insert("plan.unique_runs".into(), runs);
    c.insert("plan.unique_details".into(), details);
    c.insert("plan.nodes".into(), work.nodes.len() as f64);
    c.insert("plan.run_intervals".into(), run_intervals);
    c.insert("plan.detail_accesses".into(), detail_accesses);
}

// -------------------------------------------------------------- the job

/// Per-figure countdown the render loop waits on (as in `run_suite`).
struct Progress {
    remaining: Mutex<(Vec<usize>, bool)>,
    ready: Condvar,
}

impl Progress {
    fn wait_for(&self, figure: usize) {
        let mut st = self.remaining.lock().expect("progress lock");
        while st.0[figure] > 0 && !st.1 {
            st = self.ready.wait(st).expect("progress lock");
        }
    }

    fn done(&self, figures: &[u32]) {
        let mut st = self.remaining.lock().expect("progress lock");
        let mut completed = false;
        for &f in figures {
            st.0[f as usize] -= 1;
            completed |= st.0[f as usize] == 0;
        }
        drop(st);
        if completed {
            self.ready.notify_all();
        }
    }
}

/// Marks the countdown finished and wakes every waiter when dropped, so the
/// render loop never waits forever, even if a node panics.
struct FinishGuard<'a>(&'a Progress);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut st) = self.0.remaining.lock() {
            st.1 = true;
        }
        self.0.ready.notify_all();
    }
}

const WARM: u8 = 0;
const COMPUTED: u8 = 1;
const FROM_DISK: u8 = 2;

/// A node's outcome code and the name of the span its lookup gets.
fn outcome(source: RunSource, computed: &str) -> (u8, String) {
    match source {
        RunSource::Computed => (COMPUTED, computed.to_string()),
        RunSource::Disk => (FROM_DISK, "bench.store.read".to_string()),
        RunSource::Memory => (WARM, "bench.cache.memory".to_string()),
    }
}

struct Args {
    figures: Vec<FigureKind>,
    spec_args: Vec<String>,
    threads: usize,
    store: PathBuf,
    warm: bool,
    out: PathBuf,
    report: PathBuf,
    replay: bool,
    plan_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |flag: &str| flag_value(args, flag).ok_or_else(|| format!("missing {flag}"));
    let figures = need("--figures")?
        .split(',')
        .map(|n| FigureKind::from_name(n.trim()).ok_or_else(|| format!("unknown figure `{n}`")))
        .collect::<Result<Vec<_>, _>>()?;
    let threads: usize = need("--threads")?
        .parse()
        .map_err(|e| format!("--threads: {e}"))?;
    let mut spec_args = vec!["perfbench-probe".to_string()];
    for flag in ["--mixes", "--seed", "--threads"] {
        if let Some(v) = flag_value(args, flag) {
            spec_args.push(flag.to_string());
            spec_args.push(v);
        }
    }
    let warm = match need("--mode")?.as_str() {
        "cold" => false,
        "warm" => true,
        other => return Err(format!("--mode: expected cold or warm, got `{other}`")),
    };
    Ok(Args {
        figures,
        spec_args,
        threads: threads.max(1),
        store: need("--store")?.into(),
        warm,
        out: need("--out")?.into(),
        report: need("--report")?.into(),
        replay: args.iter().any(|a| a == "--replay"),
        plan_only: args.iter().any(|a| a == "--plan-only"),
    })
}

/// Total bytes of the regular files directly under `dir` (0 if missing).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn store_bytes(store: &Path) -> u64 {
    dir_bytes(&store.join("runs")) + dir_bytes(&store.join("details"))
}

fn run(args: &Args) -> Result<(Trace, Counters), String> {
    let trace = Trace::new();
    let _ = lane(); // the main thread is lane 0
    let mut c = Counters::new();
    let specs = args
        .figures
        .iter()
        .map(|&kind| ExperimentSpec::from_args(kind, &args.spec_args))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if args.plan_only {
        let plans = specs
            .iter()
            .map(plan::of)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        plan_counters(&union(&plans, &plan::CostModel::priors()), &mut c);
        return Ok((trace, c));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let cache = CellCache::global();
    let job = trace.open();

    // Open the store as `suite --cache-dir` does: seed the model memos
    // from it; in warm mode reads go through the cell cache.
    let bytes_before = store_bytes(&args.store);
    let disk = trace.span(job.id, "bench.store.open", || {
        DiskCache::open(&args.store).map(|d| {
            d.seed_model();
            Arc::new(d)
        })
    });
    let disk = disk.map_err(|e| format!("cannot open store: {e}"))?;
    if args.warm {
        cache.attach_disk(Arc::clone(&disk));
    }

    let plans = trace.span(job.id, "bench.plan", || {
        specs.iter().map(plan::of).collect::<Result<Vec<_>, _>>()
    });
    let plans = plans.map_err(|e| e.to_string())?;
    let loaded = trace.span(job.id, "bench.store.costs", || disk.load_costs());
    let model = if loaded.is_empty() {
        plan::CostModel::priors()
    } else {
        plan::CostModel::from_measured(loaded)
    };
    let (work, graph) = trace.span(job.id, "bench.plan", || {
        let work = union(&plans, &model);
        let graph = Graph::new(&work.costs, work.deps.clone());
        (work, graph)
    });
    plan_counters(&work, &mut c);

    let hulls_before = ratio_hull_cache_stats();
    let progress = Progress {
        remaining: Mutex::new((work.figure_nodes.clone(), false)),
        ready: Condvar::new(),
    };
    let slots: Vec<OnceLock<ExperimentHandle>> =
        (0..work.nodes.len()).map(|_| OnceLock::new()).collect();
    let states: Vec<AtomicU8> = (0..work.nodes.len()).map(|_| AtomicU8::new(WARM)).collect();
    let probes = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let details = Mutex::new(DetailTotals::default());
    let sched = SchedCounter::default();
    let exec = trace.open();
    let attached = args.warm;

    let run_node = |i: usize| {
        let parent = exec.id;
        match &work.nodes[i] {
            Node::Exp(e) => {
                let handle = cache.experiment(e.mix.clone(), e.load, e.opts.clone());
                // The suite's warm start: construct only when some
                // dependent run cell is not yet in memory or on disk.
                let cold = trace.span(parent, "bench.store.probe", || {
                    e.run_keys.iter().any(|&k| {
                        probes.fetch_add(1, Ordering::Relaxed);
                        !(cache.probe_run(k) || (!attached && disk.has_run(k)))
                    })
                });
                if cold {
                    trace.span(parent, "sim.exp_build", || cache.force_experiment(&handle));
                    states[i].store(COMPUTED, Ordering::Relaxed);
                }
                slots[i].set(handle).expect("each node runs once");
            }
            Node::Run { exp, design, key } => {
                let handle = slots[*exp as usize].get().expect("dependency ran first");
                let open = trace.open();
                let (result, source) = cache.run_sourced(handle, *design, &NoopSink);
                let (state, name) = outcome(source, &format!("sim.run.{}", slug(*design)));
                trace.close(open, parent, name);
                states[i].store(state, Ordering::Relaxed);
                if !attached && source == RunSource::Computed {
                    trace.span(parent, "bench.store.write", || {
                        disk.store_run(*key, &result)
                    });
                    writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            Node::Detail { plan: d, key } => {
                let open = trace.open();
                let (report, source) = cache.run_detail_sourced(
                    &d.opts,
                    &d.profiles,
                    &d.cores,
                    &d.vms,
                    &d.alloc,
                    &NoopSink,
                );
                let (state, name) = outcome(source, "sim.detail");
                trace.close(open, parent, name);
                states[i].store(state, Ordering::Relaxed);
                if !attached && source == RunSource::Computed {
                    trace.span(parent, "bench.store.write", || {
                        disk.store_detail(*key, &report)
                    });
                    writes.fetch_add(1, Ordering::Relaxed);
                }
                let mut t = details.lock().expect("detail totals lock");
                for a in &report.apps {
                    t.accesses += a.accesses;
                    t.misses += a.misses;
                    t.port_wait += a.port_wait;
                    t.latency += a.total_latency;
                }
            }
        }
        progress.done(&work.node_figures[i]);
    };

    let mut rendered: Vec<(FigureKind, Vec<u8>)> = Vec::with_capacity(specs.len());
    let mut render_err = None;
    let graph_report = std::thread::scope(|scope| {
        let (graph, sched, run_node, progress, trace) =
            (&graph, &sched, &run_node, &progress, &trace);
        let pool = scope.spawn(move || {
            let _finish = FinishGuard(progress);
            let r = run_graph(graph, args.threads, sched, run_node);
            trace.close(exec, job.id, "bench.exec");
            r
        });
        for (f, spec) in specs.iter().enumerate() {
            progress.wait_for(f);
            let mut bytes = Vec::new();
            let name = format!("bench.render.{}", spec.kind.name());
            let res = trace.span(job.id, &name, || figures::emit(spec, &NoopSink, &mut bytes));
            if let Err(e) = res {
                render_err = Some(e.to_string());
                break;
            }
            rendered.push((spec.kind, bytes));
        }
        pool.join().expect("scheduler thread")
    });
    if let Some(e) = render_err {
        return Err(e);
    }
    let hulls_after = ratio_hull_cache_stats();

    // Feed computed nodes' durations back into the store's cost table,
    // then persist the model memos, as the suite does at exit.
    let mut measured = MeasuredCosts::default();
    if graph_report.node_us.len() == work.nodes.len() {
        for (i, node) in work.nodes.iter().enumerate() {
            if states[i].load(Ordering::Relaxed) != COMPUTED {
                continue;
            }
            let us = graph_report.node_us[i];
            match node {
                Node::Exp(_) => measured.record_exp(work.intervals[i], us),
                Node::Run { design, .. } => measured.record_run(*design, work.intervals[i], us),
                Node::Detail { .. } => measured.record_detail(work.intervals[i] as f64, us),
            }
        }
    }
    trace.span(job.id, "bench.store.persist", || {
        if !measured.is_empty() {
            disk.merge_costs(&measured);
        }
        disk.persist_model();
        disk.enforce_cap();
    });
    trace.close(job, 0, "job");

    for (kind, bytes) in &rendered {
        std::fs::write(args.out.join(format!("{}.tsv", kind.name())), bytes)
            .map_err(|e| e.to_string())?;
    }

    // Node outcomes, per-design interval counts of the computed runs.
    let mut outcome = [0.0f64; 5];
    let mut design_intervals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut detail_accesses = 0.0;
    for (i, node) in work.nodes.iter().enumerate() {
        let state = states[i].load(Ordering::Relaxed);
        match (node, state) {
            (Node::Exp(_), COMPUTED) => {}
            (Node::Exp(_), _) => outcome[4] += 1.0,
            (Node::Run { design, .. }, COMPUTED) => {
                outcome[0] += 1.0;
                *design_intervals.entry(slug(*design)).or_default() += work.intervals[i] as f64;
            }
            (Node::Run { .. }, FROM_DISK) => outcome[1] += 1.0,
            (Node::Detail { plan, .. }, COMPUTED) => {
                outcome[2] += 1.0;
                detail_accesses += (plan.opts.accesses_per_app * plan.profiles.len()) as f64;
            }
            (Node::Detail { .. }, FROM_DISK) => outcome[3] += 1.0,
            _ => {}
        }
    }
    for (name, v) in [
        "job.computed_runs",
        "job.disk_run_hits",
        "job.detail_computed",
        "job.detail_disk_hits",
        "job.warm_skipped_exps",
    ]
    .iter()
    .zip(outcome)
    {
        c.insert((*name).into(), v);
    }
    for d in DesignKind::all() {
        let v = design_intervals.get(slug(d)).copied().unwrap_or(0.0);
        c.insert(format!("sim.run.{}.intervals", slug(d)), v);
    }
    c.insert("sim.detail.accesses".into(), detail_accesses);
    let t = details.into_inner().expect("detail totals lock");
    c.insert("sim.detail.sim_accesses".into(), t.accesses as f64);
    c.insert("sim.detail.sim_misses".into(), t.misses as f64);
    c.insert("sim.detail.sim_port_wait".into(), t.port_wait as f64);
    c.insert("sim.detail.sim_latency".into(), t.latency);
    c.insert(
        "sim.hull_memo.hits".into(),
        (hulls_after.hits - hulls_before.hits) as f64,
    );
    c.insert(
        "sim.hull_memo.misses".into(),
        (hulls_after.misses - hulls_before.misses) as f64,
    );
    let ds = disk.stats();
    c.insert("bench.store.hits".into(), ds.hits as f64);
    c.insert("bench.store.misses".into(), ds.misses as f64);
    c.insert("bench.store.writes".into(), ds.writes as f64);
    c.insert(
        "bench.store.corrupt_dropped".into(),
        ds.corrupt_dropped as f64,
    );
    c.insert(
        "bench.store.written_bytes".into(),
        store_bytes(&args.store).saturating_sub(bytes_before) as f64,
    );
    c.insert(
        "bench.store.cell_writes".into(),
        writes.load(Ordering::Relaxed) as f64,
    );
    c.insert(
        "bench.store.probe_calls".into(),
        probes.load(Ordering::Relaxed) as f64,
    );
    let s = sched.counts.into_inner().expect("sched counter lock");
    let mut depths = s.depths;
    depths.sort_unstable();
    let median = if depths.is_empty() {
        0.0
    } else if depths.len() % 2 == 1 {
        depths[depths.len() / 2] as f64
    } else {
        (depths[depths.len() / 2 - 1] + depths[depths.len() / 2]) as f64 / 2.0
    };
    c.insert("bench.sched.steals".into(), s.steals as f64);
    c.insert("bench.sched.queue_depth_median".into(), median);
    c.insert("bench.sched.busy_us".into(), s.busy_us as f64);
    c.insert("bench.sched.span_us".into(), s.span_us as f64);
    c.insert(
        "bench.sched.critical_path_us".into(),
        s.critical_path_us as f64,
    );
    c.insert("bench.sched.elapsed_us".into(), s.elapsed_us as f64);
    c.insert("bench.sched.nodes".into(), s.nodes as f64);
    c.insert("job.workers".into(), graph_report.workers.max(1) as f64);

    if args.replay {
        replay(&trace, &work, &args.figures, cache, &mut c);
    }
    Ok((trace, c))
}

// ---------------------------------------------------------- layer replay

/// Runs `f` in batches until at least `budget` has elapsed, returning the
/// number of batches run (always at least one).
fn batches(budget: Duration, mut f: impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < budget {
        f();
        n += 1;
    }
    n
}

/// One experiment's first reconfiguration interval, rebuilt from public
/// state exactly as `Experiment::run` builds it: exact DRRIP hulls scaled
/// by the profile-based initial access rates, and each LC app at its
/// controller's initial size.
struct FirstInterval {
    exp: Arc<Experiment>,
    opts: SimOptions,
    input: PlacementInput,
    profiles: Vec<Profile>,
    cores: Vec<CoreId>,
    rates: Vec<f64>,
    params: ControllerParams,
}

fn first_interval(exp: Arc<Experiment>, opts: &SimOptions) -> FirstInterval {
    let cfg = &opts.cfg;
    let unit = cfg.llc.way_bytes();
    let units = cfg.llc.total_ways() as usize;
    let params = opts
        .controller
        .unwrap_or_else(|| ControllerParams::micro2020(cfg.llc.total_bytes() as f64));
    let mut apps = Vec::new();
    let mut lc_sizes = Vec::new();
    let mut rates = Vec::new();
    let mut lc = 0;
    for app in exp.apps() {
        let rate = match &app.profile {
            Profile::Batch(b) => 1.5e9 * b.llc_apki / 1000.0,
            Profile::Lc(l, load) => l.qps(*load) * l.accesses_per_req,
        };
        let size = match &app.profile {
            Profile::Lc(..) => {
                let deadline = exp.deadlines_cycles()[lc];
                lc += 1;
                FeedbackController::new(params, deadline, params.panic_bytes).size_bytes()
            }
            Profile::Batch(_) => 0.0,
        };
        apps.push(AppModel {
            id: app.id,
            vm: app.vm,
            core: app.core,
            kind: app.profile.kind(),
            curve: exact_ratio_hull(&app.profile, unit, units).scaled(rate.max(1.0)),
            access_rate: rate,
        });
        lc_sizes.push(size);
        rates.push(rate);
    }
    FirstInterval {
        profiles: exp.apps().iter().map(|a| a.profile.clone()).collect(),
        cores: exp.apps().iter().map(|a| a.core).collect(),
        input: PlacementInput {
            cfg: Arc::new(cfg.clone()),
            apps,
            lc_sizes,
        },
        rates,
        params,
        opts: opts.clone(),
        exp,
    }
}

/// Experiments the replay builds its inputs from: the workload's first
/// few unique experiment cells.
const REPLAY_CELLS: usize = 6;
/// Time spent per timed layer in the replay.
const REPLAY_BUDGET: Duration = Duration::from_millis(40);

fn replay(trace: &Trace, work: &Work, figures: &[FigureKind], cache: &CellCache, c: &mut Counters) {
    let root = trace.open();
    let cells: Vec<FirstInterval> = work
        .nodes
        .iter()
        .filter_map(|n| match n {
            Node::Exp(e) => Some(e),
            _ => None,
        })
        .take(REPLAY_CELLS)
        .map(|e| {
            let handle = cache.experiment(e.mix.clone(), e.load, e.opts.clone());
            first_interval(cache.force_experiment(&handle), &e.opts)
        })
        .collect();
    let has_details = work.nodes.iter().any(|n| matches!(n, Node::Detail { .. }));

    // Placers: each design on each cell's first-interval input, or on the
    // example input the detailed figures allocate on.
    let inputs: Vec<PlacementInput> = if cells.is_empty() && has_details {
        vec![PlacementInput::example(&SystemConfig::micro2020())]
    } else {
        cells.iter().map(|f| f.input.clone()).collect()
    };
    for design in DesignKind::all() {
        let mut calls = 0.0;
        if !inputs.is_empty() {
            let name = format!("core.placer.{}", slug(design));
            trace.span(root.id, &name, || {
                batches(REPLAY_BUDGET, || {
                    for input in &inputs {
                        black_box(design.allocate(black_box(input)));
                        calls += 1.0;
                    }
                })
            });
        }
        c.insert(format!("core.placer.{}.calls", slug(design)), calls);
    }

    let mut updates = 0.0;
    let mut evals = 0.0;
    let mut completions_total = 0.0;
    if !cells.is_empty() {
        // Controller: one controller per LC app, fed a fixed cycle of tail
        // latencies around its deadline (below, inside, above the target
        // band, and past the panic threshold).
        const FACTORS: [f64; 7] = [0.3, 0.6, 0.8, 0.95, 1.05, 1.2, 2.5];
        let mut ctrls: Vec<FeedbackController> = cells
            .iter()
            .flat_map(|f| {
                f.exp
                    .deadlines_cycles()
                    .iter()
                    .map(move |&d| FeedbackController::new(f.params, d, f.params.panic_bytes))
            })
            .collect();
        if !ctrls.is_empty() {
            trace.span(root.id, "core.controller", || {
                batches(REPLAY_BUDGET, || {
                    for k in 0..1_000 {
                        for ctrl in ctrls.iter_mut() {
                            let tail = ctrl.deadline() * FACTORS[k % FACTORS.len()];
                            black_box(ctrl.update(black_box(tail)));
                            if k % 3 == 2 {
                                ctrl.mark_deployed();
                            }
                            updates += 1.0;
                        }
                    }
                })
            });
        }

        // Evaluator with one reused scratch per experiment, on Jumanji's
        // first-interval allocation; its service times drive the queues.
        let allocs: Vec<Allocation> = cells
            .iter()
            .map(|f| DesignKind::Jumanji.allocate(&f.input))
            .collect();
        let mut scratches: Vec<EvalScratch> = cells.iter().map(|_| EvalScratch::new()).collect();
        let mut service: Vec<Vec<f64>> = Vec::new();
        trace.span(root.id, "sim.evaluator", || {
            batches(REPLAY_BUDGET, || {
                service.clear();
                for ((f, alloc), scratch) in cells.iter().zip(&allocs).zip(&mut scratches) {
                    let perf =
                        evaluate_with(&f.opts.cfg, &f.profiles, &f.cores, alloc, &f.rates, scratch);
                    service.push(perf.iter().map(|p| p.service_cycles).collect());
                    evals += 1.0;
                }
            })
        });

        // LC queues over each experiment's horizon at those service times.
        let mut out: Vec<Completion> = Vec::new();
        trace.span(root.id, "sim.lc_queue", || {
            batches(REPLAY_BUDGET, || {
                for (f, svc) in cells.iter().zip(&service) {
                    let freq = f.opts.cfg.freq_hz;
                    let dt = f.opts.reconfig.to_cycles(freq).as_u64();
                    let n = (f.opts.duration.as_f64() / f.opts.reconfig.as_f64()).round() as u64;
                    for (i, app) in f.exp.apps().iter().enumerate() {
                        let Profile::Lc(l, load) = &app.profile else {
                            continue;
                        };
                        let mut q = LcQueue::new(l.interarrival_cycles(*load, freq), f.opts.seed);
                        for t in 1..=n {
                            q.advance_into(t * dt, svc[i], &mut out);
                            completions_total += out.len() as f64;
                        }
                    }
                }
            })
        });

        // Run memo: every design on the first cell, counted through
        // RunSummary.
        let memo = MemoCounter::default();
        trace.span(root.id, "sim.run.memo_probe", || {
            for design in DesignKind::all() {
                black_box(cells[0].exp.run(design, &memo));
            }
        });
        c.insert(
            "sim.run.memo_hits".into(),
            memo.hits.load(Ordering::Relaxed) as f64,
        );
        c.insert(
            "sim.run.memo_intervals".into(),
            memo.intervals.load(Ordering::Relaxed) as f64,
        );
    }
    c.insert("core.controller.updates".into(), updates);
    c.insert("sim.evaluator.calls".into(), evals);
    c.insert("sim.lc_queue.completions".into(), completions_total);

    // The attack scenarios fig12 and fig11 render from.
    if figures.contains(&FigureKind::Fig12) {
        trace.span(root.id, "attacks.leakage", || {
            black_box(leakage_experiment(LeakageConfig::default()))
        });
    }
    if figures.contains(&FigureKind::Fig11) {
        trace.span(root.id, "attacks.port", || {
            black_box(run_port_attack(PortAttackConfig::default()))
        });
    }
    trace.close(root, 0, "replay");
}

// ---------------------------------------------------------------- report

fn write_report(path: &Path, args: &Args, trace: Trace, c: &Counters) -> std::io::Result<()> {
    let spans = trace.spans.into_inner().expect("span lock");
    let mut s = String::with_capacity(64 * spans.len() + 4096);
    let _ = write!(s, "{{\"threads\": {}, \"spans\": [", args.threads);
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}[{}, {}, {}, \"{}\", {}, {}]",
            if i == 0 { "\n" } else { ",\n" },
            sp.id,
            sp.parent,
            sp.lane,
            sp.name,
            sp.start_ns,
            sp.end_ns
        );
    }
    s.push_str("\n], \"counters\": {");
    for (i, (k, v)) in c.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(s, "{}\"{k}\": {v:?}", if i == 0 { "\n" } else { ",\n" });
    }
    s.push_str("\n}}\n");
    std::fs::write(path, s)
}

/// The host-speed reference `run.py` divides job times by. Each of
/// `threads` threads makes the same fixed number of random read-modify-writes
/// (index by integer division) over a 4 MiB buffer of its own: memory-bound
/// like the simulators' table lookups, so it slows when other tenants of the
/// host contend for caches and memory, as the job does. Returns the mean
/// seconds per thread. It uses only `std`, so no change to the repository's
/// crates can move it.
fn calibrate(threads: usize) -> f64 {
    const WORDS: u64 = 4 << 20 >> 3;
    const STEPS: u64 = 80_000_000;
    let start_line = Arc::new(std::sync::Barrier::new(threads));
    let workers: Vec<_> = (0..threads as u64)
        .map(|t| {
            let start_line = Arc::clone(&start_line);
            std::thread::spawn(move || {
                let words = black_box(WORDS) as usize;
                let mut buf: Vec<u64> = (0..WORDS).collect();
                let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ t;
                let mut acc = 0u64;
                start_line.wait();
                let start = Instant::now();
                for _ in 0..STEPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = x as usize % words;
                    let w = buf[i];
                    buf[i] = w.wrapping_add(acc);
                    acc = acc.wrapping_add(w) ^ (x >> 11);
                }
                black_box(acc);
                start.elapsed().as_secs_f64()
            })
        })
        .collect();
    let secs: Vec<f64> = workers
        .into_iter()
        .map(|w| w.join().expect("calibration thread"))
        .collect();
    secs.iter().sum::<f64>() / secs.len() as f64
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--calibrate") {
        let threads = flag_value(&argv, "--threads").and_then(|v| v.parse().ok());
        println!("{:.9}", calibrate(threads.unwrap_or(1).max(1)));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|(trace, c)| {
        write_report(&args.report, &args, trace, &c).map_err(|e| e.to_string())
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}
