//! Typed telemetry events and their JSONL encoding.
//!
//! Every event renders to exactly one line of JSON (no trailing newline)
//! via [`Event::to_json`]. The encoding is hand-rolled — the workspace
//! builds offline with no serialization crates — and deliberately small:
//! string values are escaped per RFC 8259, floats use Rust's
//! shortest-roundtrip formatting, and non-finite floats become `null`.

use std::fmt::Write as _;

/// One telemetry event.
///
/// Field units are baked into the names (`_ms`, `_bytes`, `_us`,
/// `_cycles`); counters are totals for the scope the event describes (one
/// interval, one bank, one job).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Per-interval feedback-controller state for one latency-critical
    /// app: the allocation the controller asked for, the tail it measured
    /// against its target band, and how many completions violated the
    /// deadline this interval.
    Controller {
        /// Reconfiguration interval index (0-based).
        interval: u64,
        /// Interval end time in simulated milliseconds.
        t_ms: f64,
        /// App id (index into the experiment's app vector).
        app: usize,
        /// LC app name.
        name: &'static str,
        /// LLC bytes the controller's allocation resolved to.
        alloc_bytes: f64,
        /// p95 latency of this interval's completions, in ms
        /// (`None` when no request completed).
        tail_ms: Option<f64>,
        /// Lower edge of the controller's target band, in ms.
        target_low_ms: f64,
        /// Upper edge of the controller's target band, in ms.
        target_high_ms: f64,
        /// The app's deadline, in ms.
        deadline_ms: f64,
        /// Requests completed this interval.
        completions: u64,
        /// Completions whose latency exceeded the deadline.
        violations: u64,
        /// Cumulative panic boosts the controller has fired so far.
        panics: u64,
    },
    /// Per-interval placement/allocation decision of the design under
    /// test, including whether the interval was served from the
    /// fixed-point memo instead of re-running the allocator.
    Allocation {
        /// Reconfiguration interval index (0-based).
        interval: u64,
        /// Design that produced the allocation.
        design: &'static str,
        /// True when the interval reused the previous allocation
        /// verbatim (memoized fixed point).
        memo_hit: bool,
        /// Controller-assigned LC sizes, in app order (0 for batch).
        lc_bytes: Vec<f64>,
        /// Effective capacity per app after evaluation, in app order.
        capacity_bytes: Vec<f64>,
        /// Lines refetched because this reconfiguration moved them.
        coherence_lines: f64,
        /// Access-weighted vulnerability of the installed allocation.
        vulnerability: f64,
    },
    /// End-of-run aggregates of one `Experiment::run`.
    RunSummary {
        /// Design that ran.
        design: &'static str,
        /// Number of reconfiguration intervals simulated.
        intervals: u64,
        /// Intervals served from the allocator memo.
        memo_hits: u64,
        /// Intervals that re-ran allocate → evaluate.
        memo_misses: u64,
    },
    /// One node's timing span on the work-graph scheduler.
    WorkerSpan {
        /// Worker index within the pool.
        worker: usize,
        /// Job index: the scheduler's node id.
        job: usize,
        /// Job start, µs since the fan-out began.
        start_us: u64,
        /// Job duration in µs.
        dur_us: u64,
    },
    /// Hit/miss/entry counters of one shared computation cache, emitted
    /// when a suite or figure run finishes so traces record how much work
    /// deduplication saved.
    CacheStats {
        /// Which cache the counters describe (`"runs"`, `"details"` —
        /// the detailed-simulator cells — `"experiments"`, `"hulls"`).
        scope: &'static str,
        /// Lookups served from an already-computed entry.
        hits: u64,
        /// Lookups that computed (or stored) a fresh entry.
        misses: u64,
        /// Entries resident at snapshot time.
        entries: u64,
    },
    /// Counter totals of the persistent disk-backed cell store, emitted
    /// once when a figure or suite run finishes with `--cache-dir`
    /// attached, so traces record how much the warm start saved.
    DiskCacheStats {
        /// Entries served from disk.
        hits: u64,
        /// Lookups that found no (valid) entry on disk.
        misses: u64,
        /// Entries successfully written.
        writes: u64,
        /// Cache files deleted (corruption drops plus size-cap
        /// evictions).
        evictions: u64,
        /// Entries dropped for failing envelope or payload validation.
        corrupt_dropped: u64,
    },
    /// Per-bank contention counters from one detailed-simulator run.
    DetailBank {
        /// Bank index.
        bank: usize,
        /// Accesses routed to this bank.
        accesses: u64,
        /// Misses in this bank.
        misses: u64,
        /// Accesses that found every port busy and had to wait.
        port_conflicts: u64,
        /// Total cycles spent waiting on this bank's ports.
        port_wait_cycles: u64,
    },
    /// One steal on a work-stealing scheduler: a worker whose deque ran
    /// dry took jobs from another worker's deque. The work-graph
    /// scheduler runs one shared ready queue and never emits it; the
    /// variant stays because trace consumers still name it.
    SchedSteal {
        /// Worker that stole.
        thief: usize,
        /// Worker that was stolen from.
        victim: usize,
        /// Jobs moved (steal-half: about half the victim's deque).
        taken: u64,
        /// Steal time, µs since the graph execution began.
        at_us: u64,
    },
    /// Ready-queue depth sample, taken each time a scheduled node starts
    /// executing.
    SchedQueue {
        /// Sample time, µs since the graph execution began.
        at_us: u64,
        /// Ready (claimable) nodes in the ready queue.
        depth: u64,
    },
    /// Per-worker utilization over one graph execution, emitted when the
    /// pool drains.
    SchedWorker {
        /// Worker index within the pool.
        worker: usize,
        /// Nodes this worker executed.
        jobs: u64,
        /// Time spent executing nodes, µs.
        busy_us: u64,
        /// Worker lifetime from pool start to drain, µs.
        span_us: u64,
    },
    /// Whole-graph summary of one work-graph execution: shape, worker
    /// count, and the measured critical path (the longest
    /// dependency-ordered chain of node durations — the wall-clock floor
    /// no worker count can beat).
    SchedSummary {
        /// Nodes in the graph.
        nodes: u64,
        /// Dependency edges in the graph.
        edges: u64,
        /// Worker threads.
        workers: u64,
        /// Measured critical-path length, µs.
        critical_path_us: u64,
        /// Wall-clock of the whole execution, µs.
        elapsed_us: u64,
    },
}

impl Event {
    /// The event's `"event"` discriminator in the JSONL schema.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Controller { .. } => "controller",
            Event::Allocation { .. } => "allocation",
            Event::RunSummary { .. } => "run_summary",
            Event::WorkerSpan { .. } => "worker_span",
            Event::CacheStats { .. } => "cache_stats",
            Event::DiskCacheStats { .. } => "disk_cache_stats",
            Event::DetailBank { .. } => "detail_bank",
            Event::SchedSteal { .. } => "sched_steal",
            Event::SchedQueue { .. } => "sched_queue",
            Event::SchedWorker { .. } => "sched_worker",
            Event::SchedSummary { .. } => "sched_summary",
        }
    }

    /// Renders the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"event\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::Controller {
                interval,
                t_ms,
                app,
                name,
                alloc_bytes,
                tail_ms,
                target_low_ms,
                target_high_ms,
                deadline_ms,
                completions,
                violations,
                panics,
            } => {
                uint(&mut s, "interval", *interval);
                num(&mut s, "t_ms", *t_ms);
                uint(&mut s, "app", *app as u64);
                string(&mut s, "name", name);
                num(&mut s, "alloc_bytes", *alloc_bytes);
                match tail_ms {
                    Some(t) => num(&mut s, "tail_ms", *t),
                    None => null(&mut s, "tail_ms"),
                }
                num(&mut s, "target_low_ms", *target_low_ms);
                num(&mut s, "target_high_ms", *target_high_ms);
                num(&mut s, "deadline_ms", *deadline_ms);
                uint(&mut s, "completions", *completions);
                uint(&mut s, "violations", *violations);
                uint(&mut s, "panics", *panics);
            }
            Event::Allocation {
                interval,
                design,
                memo_hit,
                lc_bytes,
                capacity_bytes,
                coherence_lines,
                vulnerability,
            } => {
                uint(&mut s, "interval", *interval);
                string(&mut s, "design", design);
                boolean(&mut s, "memo_hit", *memo_hit);
                array(&mut s, "lc_bytes", lc_bytes);
                array(&mut s, "capacity_bytes", capacity_bytes);
                num(&mut s, "coherence_lines", *coherence_lines);
                num(&mut s, "vulnerability", *vulnerability);
            }
            Event::RunSummary {
                design,
                intervals,
                memo_hits,
                memo_misses,
            } => {
                string(&mut s, "design", design);
                uint(&mut s, "intervals", *intervals);
                uint(&mut s, "memo_hits", *memo_hits);
                uint(&mut s, "memo_misses", *memo_misses);
            }
            Event::WorkerSpan {
                worker,
                job,
                start_us,
                dur_us,
            } => {
                uint(&mut s, "worker", *worker as u64);
                uint(&mut s, "job", *job as u64);
                uint(&mut s, "start_us", *start_us);
                uint(&mut s, "dur_us", *dur_us);
            }
            Event::CacheStats {
                scope,
                hits,
                misses,
                entries,
            } => {
                string(&mut s, "scope", scope);
                uint(&mut s, "hits", *hits);
                uint(&mut s, "misses", *misses);
                uint(&mut s, "entries", *entries);
            }
            Event::DiskCacheStats {
                hits,
                misses,
                writes,
                evictions,
                corrupt_dropped,
            } => {
                uint(&mut s, "hits", *hits);
                uint(&mut s, "misses", *misses);
                uint(&mut s, "writes", *writes);
                uint(&mut s, "evictions", *evictions);
                uint(&mut s, "corrupt_dropped", *corrupt_dropped);
            }
            Event::DetailBank {
                bank,
                accesses,
                misses,
                port_conflicts,
                port_wait_cycles,
            } => {
                uint(&mut s, "bank", *bank as u64);
                uint(&mut s, "accesses", *accesses);
                uint(&mut s, "misses", *misses);
                uint(&mut s, "port_conflicts", *port_conflicts);
                uint(&mut s, "port_wait_cycles", *port_wait_cycles);
            }
            Event::SchedSteal {
                thief,
                victim,
                taken,
                at_us,
            } => {
                uint(&mut s, "thief", *thief as u64);
                uint(&mut s, "victim", *victim as u64);
                uint(&mut s, "taken", *taken);
                uint(&mut s, "at_us", *at_us);
            }
            Event::SchedQueue { at_us, depth } => {
                uint(&mut s, "at_us", *at_us);
                uint(&mut s, "depth", *depth);
            }
            Event::SchedWorker {
                worker,
                jobs,
                busy_us,
                span_us,
            } => {
                uint(&mut s, "worker", *worker as u64);
                uint(&mut s, "jobs", *jobs);
                uint(&mut s, "busy_us", *busy_us);
                uint(&mut s, "span_us", *span_us);
            }
            Event::SchedSummary {
                nodes,
                edges,
                workers,
                critical_path_us,
                elapsed_us,
            } => {
                uint(&mut s, "nodes", *nodes);
                uint(&mut s, "edges", *edges);
                uint(&mut s, "workers", *workers);
                uint(&mut s, "critical_path_us", *critical_path_us);
                uint(&mut s, "elapsed_us", *elapsed_us);
            }
        }
        s.push('}');
        s
    }
}

fn key(s: &mut String, k: &str) {
    s.push(',');
    s.push('"');
    s.push_str(k);
    s.push_str("\":");
}

fn uint(s: &mut String, k: &str, v: u64) {
    key(s, k);
    write!(s, "{v}").expect("write to string");
}

fn boolean(s: &mut String, k: &str, v: bool) {
    key(s, k);
    s.push_str(if v { "true" } else { "false" });
}

fn null(s: &mut String, k: &str) {
    key(s, k);
    s.push_str("null");
}

/// JSON has no NaN/Infinity; encode non-finite floats as `null`.
fn num(s: &mut String, k: &str, v: f64) {
    key(s, k);
    push_f64(s, v);
}

fn array(s: &mut String, k: &str, vs: &[f64]) {
    key(s, k);
    s.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_f64(s, *v);
    }
    s.push(']');
}

fn push_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is shortest-roundtrip: parses back to the same bits.
        write!(s, "{v:?}").expect("write to string");
    } else {
        s.push_str("null");
    }
}

fn string(s: &mut String, k: &str, v: &str) {
    key(s, k);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(s, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_event_renders_flat_json() {
        let e = Event::Controller {
            interval: 3,
            t_ms: 400.0,
            app: 0,
            name: "xapian",
            alloc_bytes: 2.5 * 1048576.0,
            tail_ms: Some(1.25),
            target_low_ms: 1.0,
            target_high_ms: 1.2,
            deadline_ms: 1.3,
            completions: 17,
            violations: 2,
            panics: 1,
        };
        let j = e.to_json();
        assert!(j.starts_with("{\"event\":\"controller\""), "{j}");
        assert!(j.ends_with('}'), "{j}");
        assert!(j.contains("\"name\":\"xapian\""), "{j}");
        assert!(j.contains("\"tail_ms\":1.25"), "{j}");
        assert!(j.contains("\"violations\":2"), "{j}");
        // Exactly one object, no nested braces beyond the outer pair.
        assert_eq!(j.matches('{').count(), 1);
        assert_eq!(j.matches('}').count(), 1);
    }

    #[test]
    fn missing_tail_and_nonfinite_floats_become_null() {
        let e = Event::Controller {
            interval: 0,
            t_ms: f64::NAN,
            app: 1,
            name: "silo",
            alloc_bytes: f64::INFINITY,
            tail_ms: None,
            target_low_ms: 0.0,
            target_high_ms: 0.0,
            deadline_ms: 1.0,
            completions: 0,
            violations: 0,
            panics: 0,
        };
        let j = e.to_json();
        assert!(j.contains("\"tail_ms\":null"), "{j}");
        assert!(j.contains("\"t_ms\":null"), "{j}");
        assert!(j.contains("\"alloc_bytes\":null"), "{j}");
    }

    #[test]
    fn allocation_event_renders_arrays() {
        let e = Event::Allocation {
            interval: 7,
            design: "Jumanji",
            memo_hit: true,
            lc_bytes: vec![1.0, 0.0, 2.5],
            capacity_bytes: vec![],
            coherence_lines: 0.0,
            vulnerability: 0.0,
        };
        let j = e.to_json();
        assert!(j.contains("\"memo_hit\":true"), "{j}");
        assert!(j.contains("\"lc_bytes\":[1.0,0.0,2.5]"), "{j}");
        assert!(j.contains("\"capacity_bytes\":[]"), "{j}");
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        string(&mut s, "k", "a\"b\\c\nd\u{1}");
        assert_eq!(s, ",\"k\":\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn kinds_are_distinct_and_stable() {
        let span = Event::WorkerSpan {
            worker: 0,
            job: 0,
            start_us: 0,
            dur_us: 0,
        };
        let bank = Event::DetailBank {
            bank: 0,
            accesses: 0,
            misses: 0,
            port_conflicts: 0,
            port_wait_cycles: 0,
        };
        assert_eq!(span.kind(), "worker_span");
        assert_eq!(bank.kind(), "detail_bank");
        assert!(span.to_json().contains("\"event\":\"worker_span\""));
        assert!(bank.to_json().contains("\"event\":\"detail_bank\""));
    }

    #[test]
    fn sched_events_render_flat_json() {
        let steal = Event::SchedSteal {
            thief: 2,
            victim: 0,
            taken: 5,
            at_us: 1234,
        };
        assert_eq!(steal.kind(), "sched_steal");
        let j = steal.to_json();
        assert!(j.starts_with("{\"event\":\"sched_steal\""), "{j}");
        assert!(j.contains("\"thief\":2"), "{j}");
        assert!(j.contains("\"victim\":0"), "{j}");
        assert!(j.contains("\"taken\":5"), "{j}");

        let q = Event::SchedQueue {
            at_us: 10,
            depth: 7,
        };
        assert!(q.to_json().contains("\"depth\":7"));

        let w = Event::SchedWorker {
            worker: 1,
            jobs: 40,
            busy_us: 900,
            span_us: 1000,
        };
        let j = w.to_json();
        assert!(j.contains("\"jobs\":40"), "{j}");
        assert!(j.contains("\"busy_us\":900"), "{j}");

        let s = Event::SchedSummary {
            nodes: 100,
            edges: 80,
            workers: 4,
            critical_path_us: 5000,
            elapsed_us: 6000,
        };
        let j = s.to_json();
        assert!(j.starts_with("{\"event\":\"sched_summary\""), "{j}");
        assert!(j.contains("\"critical_path_us\":5000"), "{j}");
        assert_eq!(j.matches('{').count(), 1);
    }

    #[test]
    fn cache_stats_event_renders_counters() {
        let e = Event::CacheStats {
            scope: "runs",
            hits: 12,
            misses: 4,
            entries: 4,
        };
        assert_eq!(e.kind(), "cache_stats");
        let j = e.to_json();
        assert!(j.starts_with("{\"event\":\"cache_stats\""), "{j}");
        assert!(j.contains("\"scope\":\"runs\""), "{j}");
        assert!(j.contains("\"hits\":12"), "{j}");
        assert!(j.contains("\"misses\":4"), "{j}");
        assert!(j.contains("\"entries\":4"), "{j}");
    }

    #[test]
    fn disk_cache_stats_serializes_every_counter() {
        let e = Event::DiskCacheStats {
            hits: 9,
            misses: 3,
            writes: 7,
            evictions: 1,
            corrupt_dropped: 2,
        };
        assert_eq!(e.kind(), "disk_cache_stats");
        let j = e.to_json();
        assert!(j.starts_with("{\"event\":\"disk_cache_stats\""), "{j}");
        assert!(j.contains("\"hits\":9"), "{j}");
        assert!(j.contains("\"misses\":3"), "{j}");
        assert!(j.contains("\"writes\":7"), "{j}");
        assert!(j.contains("\"evictions\":1"), "{j}");
        assert!(j.contains("\"corrupt_dropped\":2"), "{j}");
    }
}
