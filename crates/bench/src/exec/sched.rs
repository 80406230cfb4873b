//! Dependency-aware work-graph scheduler.
//!
//! The suite's cross-figure plan is a *graph* of heterogeneous nodes
//! (experiment constructions feeding design runs, detailed-simulator
//! cells) whose costs span two orders of magnitude, where finishing a
//! figure's last node should unblock rendering immediately. This module
//! executes such graphs:
//!
//! - **Per-worker deques.** Each worker owns a deque of ready nodes and
//!   pops from the front. Nodes a completion enables go to the front of
//!   the completing worker's own deque (the experiment it just built is
//!   hot; its runs should follow), giving depth-first descent along
//!   dependency chains.
//! - **Steal-half.** A worker whose deque runs dry takes roughly half of
//!   a victim's deque from the *back* — the victim keeps the
//!   high-priority front it is about to pop, the thief gets a batch big
//!   enough to amortize the next several claims.
//! - **Long-pole-first.** Every node gets a priority = its cost prior
//!   plus the heaviest chain of dependent work hanging off it
//!   (critical-path-to-leaf over the [`plan`](crate::plan) cost priors).
//!   Seeds are dealt round-robin in descending priority, so the longest
//!   poles start first and stragglers can't ambush the tail of the run.
//!
//! The scheduler runs *effects*, not values: the caller's closure stores
//! each node's result (the suite executor keeps one slot per node), so
//! execution order can never change what a render folds — only
//! wall-clock. Telemetry ([`Event::SchedSteal`],
//! [`Event::SchedQueue`], [`Event::SchedWorker`], [`Event::SchedSummary`])
//! records how the pool behaved, including the measured critical path —
//! the wall-clock floor no worker count can beat.

// exec/ is the sanctioned timing layer (lint.toml [paths].timing_allow);
// the scheduler's epoch stamps feed telemetry, never fingerprinted output.
#![allow(clippy::disallowed_methods)]

use jumanji::telemetry::{Event, Telemetry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
        Graph {
            deps,
            dependents,
            topo,
            priority,
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
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Total steals across all workers.
    pub steals: u64,
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
    /// feeds these back into the persistent cost priors.
    pub node_us: Vec<u64>,
}

/// One worker's deque of ready node ids, front = highest priority.
///
/// Only the owner pushes (newly enabled dependents) and pops; thieves
/// take batches from the back via [`WorkDeque::steal_back_half`]. A
/// mutex'd `VecDeque` is plenty here: nodes are milliseconds of
/// simulation, so queue operations are noise (and the crate forbids the
/// unsafe code a lock-free Chase-Lev deque would need).
#[derive(Debug, Default)]
struct WorkDeque {
    q: Mutex<VecDeque<u32>>,
}

impl WorkDeque {
    /// Appends `items` (already in descending priority) to the back.
    fn push_back_batch(&self, items: &[u32]) {
        let mut q = self.q.lock().expect("deque lock");
        q.extend(items.iter().copied());
    }

    /// Pushes `items` (descending priority) so `items[0]` ends up at the
    /// front of the deque.
    fn push_front_batch(&self, items: &[u32]) {
        let mut q = self.q.lock().expect("deque lock");
        for &i in items.iter().rev() {
            q.push_front(i);
        }
    }

    /// The owner's claim: pop the highest-priority ready node.
    fn pop_front(&self) -> Option<u32> {
        self.q.lock().expect("deque lock").pop_front()
    }

    /// Takes the back `ceil(len/2)` nodes, preserving their relative
    /// order. Returns an empty vec when there is nothing to steal.
    fn steal_back_half(&self) -> Vec<u32> {
        let mut q = self.q.lock().expect("deque lock");
        let keep = q.len() / 2;
        q.split_off(keep).into()
    }

    fn len(&self) -> usize {
        self.q.lock().expect("deque lock").len()
    }
}

/// Executes `graph` on up to `threads` workers, calling `run(i)` exactly
/// once per node, never before all of node `i`'s dependencies completed.
///
/// `run` performs effects (storing each node's result); the
/// scheduler guarantees the dependency order and measures the execution,
/// it does not collect values. With an enabled sink it emits one
/// [`Event::SchedQueue`] sample per node start, one [`Event::SchedSteal`]
/// per steal, and per-worker/summary events when the pool drains.
///
/// # Panics
///
/// Propagates a panic from any node after the scope unwinds.
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

    let pending: Vec<AtomicU32> = graph
        .deps
        .iter()
        .map(|d| AtomicU32::new(d.len() as u32))
        .collect();
    let remaining = AtomicUsize::new(n);
    let durations: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let deques: Vec<WorkDeque> = (0..workers).map(|_| WorkDeque::default()).collect();
    let steal_counts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let jobs: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

    // Deal the seeds round-robin in descending long-pole priority: each
    // deque starts sorted, and the heaviest chains start first.
    let mut seeds: Vec<u32> = (0..n as u32)
        .filter(|&i| graph.deps[i as usize].is_empty())
        .collect();
    sort_by_priority(&mut seeds, graph);
    for (j, &s) in seeds.iter().enumerate() {
        deques[j % workers].push_back_batch(&[s]);
    }

    std::thread::scope(|scope| {
        let (pending, remaining, durations, deques) = (&pending, &remaining, &durations, &deques);
        let (steal_counts, busy, jobs, run) = (&steal_counts, &busy, &jobs, &run);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut idle_sweeps = 0u32;
                    loop {
                        if let Some(i) = deques[w].pop_front() {
                            idle_sweeps = 0;
                            let i = i as usize;
                            if tracing {
                                let depth: usize = deques.iter().map(WorkDeque::len).sum();
                                tel.emit(&Event::SchedQueue {
                                    at_us: epoch.elapsed().as_micros() as u64,
                                    depth: depth as u64,
                                });
                            }
                            let start = epoch.elapsed();
                            run(i);
                            let dur = epoch.elapsed() - start;
                            durations[i].store(dur.as_micros() as u64, Ordering::Relaxed);
                            busy[w].fetch_add(dur.as_micros() as u64, Ordering::Relaxed);
                            jobs[w].fetch_add(1, Ordering::Relaxed);
                            if tracing {
                                tel.emit(&Event::WorkerSpan {
                                    worker: w,
                                    job: i,
                                    start_us: start.as_micros() as u64,
                                    dur_us: dur.as_micros() as u64,
                                });
                            }
                            // Enable dependents whose last prerequisite
                            // this was; they go to our own front,
                            // highest priority first.
                            let mut enabled: Vec<u32> = graph.dependents[i]
                                .iter()
                                .copied()
                                .filter(|&j| {
                                    pending[j as usize].fetch_sub(1, Ordering::AcqRel) == 1
                                })
                                .collect();
                            if !enabled.is_empty() {
                                sort_by_priority(&mut enabled, graph);
                                deques[w].push_front_batch(&enabled);
                            }
                            remaining.fetch_sub(1, Ordering::AcqRel);
                            continue;
                        }
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Deque dry: sweep the other workers, stealing
                        // half of the first non-empty victim's backlog.
                        let mut stolen = 0usize;
                        for off in 1..workers {
                            let v = (w + off) % workers;
                            let batch = deques[v].steal_back_half();
                            if !batch.is_empty() {
                                stolen = batch.len();
                                deques[w].push_back_batch(&batch);
                                steal_counts[w].fetch_add(1, Ordering::Relaxed);
                                if tracing {
                                    tel.emit(&Event::SchedSteal {
                                        thief: w,
                                        victim: v,
                                        taken: stolen as u64,
                                        at_us: epoch.elapsed().as_micros() as u64,
                                    });
                                }
                                break;
                            }
                        }
                        if stolen == 0 {
                            // Everything ready is in flight elsewhere.
                            // Yield a few times, then sleep: on a
                            // time-sliced core a spinning sibling would
                            // steal cycles from the worker doing work.
                            idle_sweeps += 1;
                            if idle_sweeps <= 3 {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("scheduler worker panicked");
        }
    });

    let elapsed_us = epoch.elapsed().as_micros() as u64;
    let node_us: Vec<u64> = durations
        .iter()
        .map(|d| d.load(Ordering::Relaxed))
        .collect();
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
        steals: steal_counts.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
        elapsed_us,
        critical_path_us: chain.iter().copied().max().unwrap_or(0),
        busy_us: busy.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        jobs: jobs.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        node_us,
    };
    if tracing {
        for (w, count) in steal_counts.iter().enumerate() {
            tel.emit(&Event::SchedWorker {
                worker: w,
                jobs: report.jobs[w],
                steals: count.load(Ordering::Relaxed),
                busy_us: report.busy_us[w],
                span_us: elapsed_us,
            });
        }
        tel.emit(&Event::SchedSummary {
            nodes: n as u64,
            edges: graph.edges() as u64,
            workers: workers as u64,
            steals: report.steals,
            critical_path_us: report.critical_path_us,
            elapsed_us,
        });
    }
    report
}

/// Sorts node ids by descending long-pole priority (ties broken by id,
/// so the order is deterministic).
fn sort_by_priority(ids: &mut [u32], graph: &Graph) {
    ids.sort_unstable_by(|&a, &b| {
        graph
            .priority(b as usize)
            .partial_cmp(&graph.priority(a as usize))
            .expect("finite priorities")
            .then(a.cmp(&b))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumanji::telemetry::{NoopSink, RecordingSink};
    use std::sync::atomic::AtomicUsize;

    /// A diamond: 0 -> {1, 2} -> 3.
    fn diamond() -> Graph {
        Graph::new(
            &[1.0, 1.0, 1.0, 1.0],
            vec![vec![], vec![0], vec![0], vec![1, 2]],
        )
    }

    #[test]
    fn deque_claims_front_and_steals_back_half() {
        let d = WorkDeque::default();
        d.push_back_batch(&[5, 4, 3, 2, 1]);
        assert_eq!(d.pop_front(), Some(5));
        // 4 left; steal takes the back ceil(4/2) = 2 in order.
        assert_eq!(d.steal_back_half(), vec![2, 1]);
        assert_eq!(d.len(), 2);
        // Enabled nodes go to the front, highest first.
        d.push_front_batch(&[9, 8]);
        assert_eq!(d.pop_front(), Some(9));
        assert_eq!(d.pop_front(), Some(8));
        assert_eq!(d.pop_front(), Some(4));
        assert_eq!(d.pop_front(), Some(3));
        assert_eq!(d.pop_front(), None);
        assert_eq!(d.steal_back_half(), Vec::<u32>::new());
        // Stealing from a single-item deque takes that item: the victim
        // keeps floor(1/2) = 0.
        d.push_back_batch(&[7]);
        assert_eq!(d.steal_back_half(), vec![7]);
    }

    #[test]
    fn deque_concurrent_claims_and_steals_lose_nothing() {
        // One owner popping, three thieves stealing halves: every item
        // is claimed exactly once.
        const N: u32 = 10_000;
        let owner = WorkDeque::default();
        let items: Vec<u32> = (0..N).collect();
        owner.push_back_batch(&items);
        let seen: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let claimed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (owner, seen, claimed) = (&owner, &seen, &claimed);
            s.spawn(move || {
                while claimed.load(Ordering::Relaxed) < N as usize {
                    if let Some(i) = owner.pop_front() {
                        seen[i as usize].fetch_add(1, Ordering::Relaxed);
                        claimed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            for _ in 0..3 {
                s.spawn(move || {
                    let mine = WorkDeque::default();
                    while claimed.load(Ordering::Relaxed) < N as usize {
                        let batch = owner.steal_back_half();
                        mine.push_back_batch(&batch);
                        while let Some(i) = mine.pop_front() {
                            seen[i as usize].fetch_add(1, Ordering::Relaxed);
                            claimed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} claimed wrongly");
        }
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
        // A two-layer fan: 8 seeds each feeding 4 dependents.
        let mut costs = vec![1.0; 8];
        let mut deps: Vec<Vec<u32>> = vec![vec![]; 8];
        for s in 0..8u32 {
            for _ in 0..4 {
                costs.push(1.0);
                deps.push(vec![s]);
            }
        }
        let g = Graph::new(&costs, deps);
        let counts: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        run_graph(&g, 4, &NoopSink, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "node {i}");
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
        // Depth-first down the heavy chain, then the light chain, then
        // the isolated leaf.
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
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
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn measured_critical_path_bounds_elapsed() {
        // A serial chain: elapsed must be at least the critical path,
        // and the critical path must cover every node's duration.
        let g = Graph::new(&[1.0; 3], vec![vec![], vec![0], vec![1]]);
        let report = run_graph(&g, 4, &NoopSink, |_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(report.critical_path_us >= 3 * 2_000 - 1_000);
        assert!(report.elapsed_us >= report.critical_path_us);
    }
}
