//! Dependency-aware work-graph scheduler.
//!
//! The suite's cross-figure plan is a set of heterogeneous cells (design
//! runs, detailed-simulator cells, fixed scenarios) whose costs span two
//! orders of magnitude; it has no edges. This module runs such graphs,
//! with or without dependency edges (the benchmark probe's graph has
//! them), on one ready queue that every worker shares:
//!
//! - **Long-pole-first.** Every node gets a priority = its cost prior
//!   plus the heaviest chain of dependent work hanging off it
//!   (critical-path-to-leaf over the [`plan`](crate::figures::plan) cost
//!   priors). The ready queue is a binary heap on that priority, ties
//!   broken by the lower node id, so the longest poles start first and
//!   earlier-requested figures drain first.
//! - **Dependency counts.** A node enters the queue the moment its last
//!   prerequisite completes.
//! - **Blocking workers.** A worker locks the queue, pops a node, runs
//!   it unlocked, then locks again to complete it. With nothing ready it
//!   waits on a condvar until a completion enables work or ends the run.
//!
//! The queue itself (`Ready`) is a state machine with no threads or
//! clocks in it, so the tests replay the real policy in virtual time.
//!
//! The scheduler runs *effects*, not values: the caller's closure stores
//! each node's result (the suite executor keeps one slot per node), so
//! execution order can never change what a render folds — only
//! wall-clock. Telemetry ([`Event::SchedQueue`], [`Event::SchedWorker`],
//! [`Event::SchedSummary`]) records how the workers behaved, including
//! the measured critical path — the wall-clock floor no worker count can
//! beat.

// exec/ is the sanctioned timing layer (lint.toml [paths].timing_allow);
// the scheduler's epoch stamps feed telemetry, never fingerprinted output.
#![allow(clippy::disallowed_methods)]

use jumanji::telemetry::{Event, Telemetry};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A static work graph: per-node cost priors plus dependency edges.
///
/// Node ids are dense `0..len()`. Edges point from prerequisite to
/// dependent implicitly: `deps[i]` lists the nodes that must complete
/// before `i` may run.
#[derive(Debug, Clone)]
pub struct Graph {
    deps: Vec<Vec<u32>>,
    dependents: Vec<Vec<u32>>,
    topo: Vec<u32>,
    priority: Vec<f64>,
    /// Each node's position in descending-priority order (ties by lower
    /// id): the ready queue's key.
    rank: Vec<u32>,
}

impl Graph {
    /// Builds a graph from cost priors and dependency lists and computes
    /// the long-pole priorities (critical-path-to-leaf over the priors).
    ///
    /// # Panics
    ///
    /// Panics when a dependency index is out of range or the graph has a
    /// cycle — both are construction bugs in the planner, not runtime
    /// conditions.
    pub fn new(costs: &[f64], deps: Vec<Vec<u32>>) -> Graph {
        let n = costs.len();
        assert_eq!(deps.len(), n, "one dependency list per node");
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut pending: Vec<u32> = vec![0; n];
        for (i, ds) in deps.iter().enumerate() {
            pending[i] = ds.len() as u32;
            for &d in ds {
                assert!((d as usize) < n, "dependency {d} out of range");
                dependents[d as usize].push(i as u32);
            }
        }
        // Kahn's algorithm: topological order, cycle check for free.
        let mut topo: Vec<u32> = Vec::with_capacity(n);
        let mut ready: VecDeque<u32> = (0..n as u32)
            .filter(|&i| pending[i as usize] == 0)
            .collect();
        while let Some(i) = ready.pop_front() {
            topo.push(i);
            for &j in &dependents[i as usize] {
                pending[j as usize] -= 1;
                if pending[j as usize] == 0 {
                    ready.push_back(j);
                }
            }
        }
        assert_eq!(topo.len(), n, "work graph must be acyclic");
        // Long-pole priority: own cost + heaviest dependent chain,
        // computed leaves-first (reverse topological order).
        let mut priority: Vec<f64> = costs.to_vec();
        for &i in topo.iter().rev() {
            let heaviest = dependents[i as usize]
                .iter()
                .map(|&j| priority[j as usize])
                .fold(0.0f64, f64::max);
            priority[i as usize] += heaviest;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            priority[b as usize]
                .total_cmp(&priority[a as usize])
                .then(a.cmp(&b))
        });
        let mut rank = vec![0u32; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        Graph {
            deps,
            dependents,
            topo,
            priority,
            rank,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Number of dependency edges.
    pub fn edges(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// The long-pole priority of node `i` (cost prior + heaviest
    /// dependent chain).
    pub fn priority(&self, i: usize) -> f64 {
        self.priority[i]
    }
}

/// What one [`run_graph`] execution measured.
#[derive(Debug, Clone, Default)]
pub struct GraphReport {
    /// Worker threads that ran.
    pub workers: usize,
    /// Wall-clock of the execution, µs.
    pub elapsed_us: u64,
    /// Measured critical path: the longest dependency-ordered chain of
    /// node durations, µs. `elapsed_us` can never go below this no
    /// matter how many workers run.
    pub critical_path_us: u64,
    /// Per-worker time spent executing nodes, µs.
    pub busy_us: Vec<u64>,
    /// Per-worker executed-node counts.
    pub jobs: Vec<u64>,
    /// Per-node measured durations, µs, indexed by node id. The suite
    /// costs nodes by static priors and never reads these; the
    /// benchmark probe records them.
    pub node_us: Vec<u64>,
}

/// The ready queue as a pure state machine: [`run_graph`] drives it
/// from real workers under one mutex, the tests from virtual ones.
struct Ready<'g> {
    graph: &'g Graph,
    /// Ready nodes as `(rank, id)`, smallest rank on top.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Unfinished prerequisites per node.
    pending: Vec<u32>,
    /// Nodes not yet completed.
    unfinished: usize,
    /// Set when a node panicked: every worker stops.
    aborted: bool,
}

impl<'g> Ready<'g> {
    fn new(graph: &'g Graph) -> Ready<'g> {
        let mut ready = Ready {
            graph,
            heap: BinaryHeap::new(),
            pending: graph.deps.iter().map(|d| d.len() as u32).collect(),
            unfinished: graph.len(),
            aborted: false,
        };
        for i in 0..graph.len() {
            if ready.pending[i] == 0 {
                ready.push(i);
            }
        }
        ready
    }

    fn push(&mut self, i: usize) {
        self.heap.push(Reverse((self.graph.rank[i], i as u32)));
    }

    /// Claims the highest-priority ready node.
    fn pop(&mut self) -> Option<usize> {
        self.heap.pop().map(|Reverse((_, i))| i as usize)
    }

    /// Marks node `i` finished and queues the dependents whose last
    /// prerequisite it was; returns how many it queued.
    fn complete(&mut self, i: usize) -> usize {
        self.unfinished -= 1;
        let graph = self.graph;
        let mut enabled = 0;
        for &j in &graph.dependents[i] {
            self.pending[j as usize] -= 1;
            if self.pending[j as usize] == 0 {
                self.push(j as usize);
                enabled += 1;
            }
        }
        enabled
    }

    /// True once no worker has anything left to do.
    fn done(&self) -> bool {
        self.aborted || self.unfinished == 0
    }
}

/// Executes `graph` on up to `threads` workers, calling `run(i)` exactly
/// once per node, never before all of node `i`'s dependencies completed.
///
/// `run` performs effects (storing each node's result); the
/// scheduler guarantees the dependency order and measures the execution,
/// it does not collect values. With an enabled sink it emits one
/// [`Event::SchedQueue`] sample and one [`Event::WorkerSpan`] per node,
/// and per-worker/summary events when the graph drains.
///
/// # Panics
///
/// When a node panics, the workers stop claiming nodes and, once the
/// ones in flight return, the first panic resumes on the caller.
pub fn run_graph<F>(graph: &Graph, threads: usize, tel: &dyn Telemetry, run: F) -> GraphReport
where
    F: Fn(usize) + Sync,
{
    let n = graph.len();
    if n == 0 {
        return GraphReport::default();
    }
    let workers = threads.min(n).max(1);
    let tracing = tel.enabled();
    let epoch = Instant::now();
    let queue = Mutex::new(Ready::new(graph));
    let wake = Condvar::new();

    // Each worker returns the `(node, µs)` pairs it ran, or the panic
    // of the node that stopped it.
    let worker = |w: usize| -> Result<Vec<(u32, u64)>, Box<dyn Any + Send>> {
        let mut ran = Vec::new();
        let mut ready = queue.lock().expect("ready queue");
        while !ready.done() {
            let Some(i) = ready.pop() else {
                ready = wake.wait(ready).expect("ready queue");
                continue;
            };
            let depth = ready.heap.len() as u64;
            drop(ready);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if tracing {
                    tel.emit(&Event::SchedQueue {
                        at_us: epoch.elapsed().as_micros() as u64,
                        depth,
                    });
                }
                let start = epoch.elapsed();
                run(i);
                let dur_us = (epoch.elapsed() - start).as_micros() as u64;
                if tracing {
                    tel.emit(&Event::WorkerSpan {
                        worker: w,
                        job: i,
                        start_us: start.as_micros() as u64,
                        dur_us,
                    });
                }
                dur_us
            }));
            ready = queue.lock().expect("ready queue");
            match outcome {
                Ok(dur_us) => {
                    ran.push((i as u32, dur_us));
                    // This worker claims one enabled node itself; wake
                    // the others for the rest, or to exit.
                    if ready.complete(i) > 1 || ready.done() {
                        wake.notify_all();
                    }
                }
                Err(payload) => {
                    ready.aborted = true;
                    wake.notify_all();
                    return Err(payload);
                }
            }
        }
        Ok(ran)
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let worker = &worker;
                scope.spawn(move || worker(w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheduler worker"))
            .collect()
    });
    let logs: Vec<Vec<(u32, u64)>> = outcomes
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|payload| resume_unwind(payload));

    let elapsed_us = epoch.elapsed().as_micros() as u64;
    let mut node_us = vec![0u64; n];
    for &(i, us) in logs.iter().flatten() {
        node_us[i as usize] = us;
    }
    // Measured critical path: longest chain of durations along
    // dependency edges, in topological order.
    let mut chain: Vec<u64> = node_us.clone();
    for &i in &graph.topo {
        let longest = graph.deps[i as usize]
            .iter()
            .map(|&d| chain[d as usize])
            .max()
            .unwrap_or(0);
        chain[i as usize] += longest;
    }
    let report = GraphReport {
        workers,
        elapsed_us,
        critical_path_us: chain.iter().copied().max().unwrap_or(0),
        busy_us: logs
            .iter()
            .map(|ran| ran.iter().map(|&(_, us)| us).sum())
            .collect(),
        jobs: logs.iter().map(|ran| ran.len() as u64).collect(),
        node_us,
    };
    if tracing {
        for w in 0..workers {
            tel.emit(&Event::SchedWorker {
                worker: w,
                jobs: report.jobs[w],
                busy_us: report.busy_us[w],
                span_us: elapsed_us,
            });
        }
        tel.emit(&Event::SchedSummary {
            nodes: n as u64,
            edges: graph.edges() as u64,
            workers: workers as u64,
            critical_path_us: report.critical_path_us,
            elapsed_us,
        });
    }
    report
}

/// A virtual-time replay of [`run_graph`]'s policy: the same [`Ready`]
/// queue drained by `workers` virtual workers, node `i` taking
/// `costs[i]`. Idle workers claim ready nodes at once; simultaneous
/// completions resolve in node-id order, so the replay is deterministic.
/// Returns `(node, start time)` in claim order, and the makespan.
#[cfg(test)]
pub(crate) fn replay(graph: &Graph, costs: &[f64], workers: usize) -> (Vec<(usize, f64)>, f64) {
    let mut ready = Ready::new(graph);
    let mut claims = Vec::with_capacity(graph.len());
    // In flight: (finish time, node).
    let mut running: Vec<(f64, usize)> = Vec::with_capacity(workers);
    let mut now = 0.0;
    while !ready.done() {
        while running.len() < workers {
            let Some(i) = ready.pop() else { break };
            claims.push((i, now));
            running.push((now + costs[i], i));
        }
        let next = (0..running.len())
            .min_by(|&a, &b| {
                let (a, b) = (running[a], running[b]);
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            })
            .expect("an unfinished graph has a node in flight");
        let (finish, i) = running.swap_remove(next);
        now = finish;
        ready.complete(i);
    }
    (claims, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumanji::telemetry::{NoopSink, RecordingSink};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A diamond: 0 -> {1, 2} -> 3.
    fn diamond() -> Graph {
        Graph::new(
            &[1.0, 1.0, 1.0, 1.0],
            vec![vec![], vec![0], vec![0], vec![1, 2]],
        )
    }

    /// A random DAG from one `(cost, pick)` pair per node: node `i > 0`
    /// depends on up to three earlier nodes chosen by `pick`'s bits.
    fn dag(nodes: &[(f64, u64)]) -> (Vec<f64>, Vec<Vec<u32>>) {
        let costs = nodes.iter().map(|&(c, _)| c).collect();
        let deps = nodes
            .iter()
            .enumerate()
            .map(|(i, &(_, pick))| {
                let mut ds: Vec<u32> = match i {
                    0 => Vec::new(),
                    _ => (0..pick % 4)
                        .map(|k| ((pick >> (2 + 16 * k)) % i as u64) as u32)
                        .collect(),
                };
                ds.sort_unstable();
                ds.dedup();
                ds
            })
            .collect();
        (costs, deps)
    }

    /// Runs `f` on a helper thread and waits at most a minute for it, so
    /// a scheduler that hangs fails the test instead of hanging the run.
    fn within_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("run_graph did not return: {e}"))
    }

    #[test]
    fn graph_rejects_cycles_and_bad_edges() {
        let cycle = std::panic::catch_unwind(|| {
            Graph::new(&[1.0, 1.0], vec![vec![1], vec![0]]);
        });
        assert!(cycle.is_err(), "cycle must panic");
        let range = std::panic::catch_unwind(|| {
            Graph::new(&[1.0], vec![vec![7]]);
        });
        assert!(range.is_err(), "out-of-range dep must panic");
    }

    #[test]
    fn long_pole_priority_is_critical_path_to_leaf() {
        // 0 (cost 1) -> 1 (cost 10) -> 2 (cost 1); 3 (cost 5) isolated.
        let g = Graph::new(
            &[1.0, 10.0, 1.0, 5.0],
            vec![vec![], vec![0], vec![1], vec![]],
        );
        assert_eq!(g.priority(0), 12.0);
        assert_eq!(g.priority(1), 11.0);
        assert_eq!(g.priority(2), 1.0);
        assert_eq!(g.priority(3), 5.0);
    }

    #[test]
    fn run_graph_respects_dependencies_at_every_width() {
        for threads in [1usize, 2, 4, 7] {
            let g = diamond();
            let order = Mutex::new(Vec::new());
            let report = run_graph(&g, threads, &NoopSink, |i| {
                order.lock().unwrap().push(i);
            });
            let order = order.into_inner().unwrap();
            assert_eq!(order.len(), 4);
            let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
            assert!(pos(0) < pos(1));
            assert!(pos(0) < pos(2));
            assert!(pos(1) < pos(3));
            assert!(pos(2) < pos(3));
            assert_eq!(report.jobs.iter().sum::<u64>(), 4);
        }
    }

    #[test]
    fn run_graph_runs_every_node_exactly_once() {
        // A two-layer fan (8 seeds each feeding 4 dependents), then a
        // large zero-cost random DAG whose nodes finish as fast as the
        // workers can claim them — the regime where a lost wakeup would
        // strand a worker. Widths above the core count oversubscribe.
        let mut fan_costs = vec![1.0; 8];
        let mut fan_deps: Vec<Vec<u32>> = vec![vec![]; 8];
        for s in 0..8u32 {
            for _ in 0..4 {
                fan_costs.push(1.0);
                fan_deps.push(vec![s]);
            }
        }
        let mut rng = SmallRng::seed_from_u64(13);
        let nodes: Vec<(f64, u64)> = (0..2_000).map(|_| (0.0, rng.gen())).collect();
        let (costs, deps) = dag(&nodes);
        let mut graphs = vec![Graph::new(&fan_costs, fan_deps)];
        graphs.extend((0..8).map(|_| Graph::new(&costs, deps.clone())));
        within_timeout(move || {
            for threads in [1usize, 2, 4, 16] {
                for g in &graphs {
                    let counts: Vec<AtomicUsize> =
                        (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
                    let report = run_graph(g, threads, &NoopSink, |i| {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    });
                    for (i, c) in counts.iter().enumerate() {
                        assert_eq!(c.load(Ordering::Relaxed), 1, "node {i} at {threads}");
                    }
                    assert_eq!(report.jobs.iter().sum::<u64>(), g.len() as u64);
                }
            }
        });
    }

    #[test]
    fn a_panicking_node_propagates_at_every_width() {
        for threads in [1usize, 2, 4] {
            let payload = within_timeout(move || {
                let g = Graph::new(&[1.0; 8], vec![vec![]; 8]);
                catch_unwind(AssertUnwindSafe(|| {
                    run_graph(&g, threads, &NoopSink, |i| {
                        if i == 0 {
                            panic!("node 0 fails");
                        }
                    })
                }))
                .expect_err("the node's panic propagates")
            });
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"node 0 fails"),
                "at {threads} threads"
            );
        }
    }

    #[test]
    fn single_worker_runs_long_poles_first() {
        // Two chains: heavy (0 -> 1) and light (2 -> 3); plus a light
        // isolated node 4. Long-pole-first on one worker must start the
        // heavy chain before anything light.
        let g = Graph::new(
            &[10.0, 10.0, 1.0, 1.0, 0.5],
            vec![vec![], vec![0], vec![], vec![2], vec![]],
        );
        let order = Mutex::new(Vec::new());
        run_graph(&g, 1, &NoopSink, |i| {
            order.lock().unwrap().push(i);
        });
        // Descending priority: 20, 10, 2, 1, 0.5.
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn long_pole_order_beats_id_order() {
        // Two short roots, then an experiment (2) whose run (3) is the
        // long pole. By id, two workers start the short roots and the
        // chain finishes at 4; long-pole-first starts the chain at once
        // and finishes at 3.
        let costs = [1.0, 1.0, 1.0, 2.0];
        let deps = vec![vec![], vec![], vec![], vec![2]];
        let long_pole = Graph::new(&costs, deps.clone());
        // Equal priorities leave the id tie-break: FIFO order.
        let by_id = Graph::new(&[0.0; 4], deps);
        assert_eq!(replay(&long_pole, &costs, 2).1, 3.0);
        assert_eq!(replay(&by_id, &costs, 2).1, 4.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn replay_runs_each_node_once_in_order_within_grahams_bound(
            nodes in proptest::collection::vec((0.0f64..10.0, 0u64..u64::MAX), 1..80),
            workers in 1usize..17,
        ) {
            let (costs, deps) = dag(&nodes);
            let g = Graph::new(&costs, deps.clone());
            let (claims, makespan) = replay(&g, &costs, workers);
            let mut start = vec![None; g.len()];
            for &(i, at) in &claims {
                prop_assert!(start[i].is_none(), "node {} claimed twice", i);
                start[i] = Some(at);
            }
            let start: Vec<f64> = start.into_iter().map(|s| s.expect("every node runs")).collect();
            for (j, ds) in deps.iter().enumerate() {
                for &d in ds {
                    prop_assert!(start[j] >= start[d as usize] + costs[d as usize]);
                }
            }
            // Graham: any list schedule that never idles while work is
            // ready finishes within (W - CP)/m + CP.
            let work: f64 = costs.iter().sum();
            let cp = (0..g.len()).map(|i| g.priority(i)).fold(0.0, f64::max);
            prop_assert!(makespan <= (work - cp) / workers as f64 + cp + 1e-9 * work);
        }
    }

    #[test]
    fn traced_run_emits_sched_events() {
        let g = diamond();
        let sink = RecordingSink::new();
        let report = run_graph(&g, 2, &sink, |_| {});
        let events = sink.events();
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::WorkerSpan { .. }))
            .count();
        assert_eq!(spans, 4, "one span per node");
        let queues = events
            .iter()
            .filter(|e| matches!(e, Event::SchedQueue { .. }))
            .count();
        assert_eq!(queues, 4, "one depth sample per node start");
        let workers = events
            .iter()
            .filter(|e| matches!(e, Event::SchedWorker { .. }))
            .count();
        assert_eq!(workers, report.workers);
        let summary = events.iter().find_map(|e| match e {
            Event::SchedSummary { nodes, edges, .. } => Some((*nodes, *edges)),
            _ => None,
        });
        assert_eq!(summary, Some((4, 4)));
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let g = Graph::new(&[], vec![]);
        let report = run_graph(&g, 4, &NoopSink, |_| panic!("no nodes to run"));
        assert_eq!(report.elapsed_us, 0);
        assert!(report.jobs.is_empty());
    }

    #[test]
    fn measured_critical_path_bounds_elapsed() {
        // A serial chain: elapsed must be at least the critical path,
        // and the critical path must cover every node's duration.
        let g = Graph::new(&[1.0; 3], vec![vec![], vec![0], vec![1]]);
        let report = run_graph(&g, 4, &NoopSink, |_| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
        });
        assert!(report.critical_path_us >= 3 * 2_000 - 1_000);
        assert!(report.elapsed_us >= report.critical_path_us);
    }
}
