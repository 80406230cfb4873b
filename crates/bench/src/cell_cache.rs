//! The process-wide experiment-cell cache.
//!
//! The paper's evaluation is one big matrix of `(mix, load, design, seed)`
//! cells rendered eighteen different ways — fig13 and fig14 run the *same*
//! experiments and differ only in rendering, the sensitivity study's
//! default rows duplicate the main-results cells, and so on. [`CellCache`]
//! memoizes the three expensive pure computations behind a cell, shared by
//! every worker thread and every figure in the process:
//!
//! - **experiments** — constructed [`Experiment`]s (profile hulls,
//!   deadline isolation runs, stream generators), keyed by the content of
//!   `(mix, load, options)`;
//! - **runs** — completed [`ExperimentResult`]s, keyed by the experiment's
//!   content key plus the design;
//! - **details** — completed detailed-simulator [`DetailReport`]s (by far
//!   the heaviest cells in the repo — fig02 and validate), keyed by the
//!   full input of [`run_detailed`].
//!
//! One-shot placements are not cached: a [`DesignKind::allocate`] call
//! costs well under a millisecond, less than fingerprinting its input,
//! so the plan pass computes the allocations detailed cells simulate
//! directly.
//!
//! Keys are 128-bit content fingerprints
//! ([`fingerprint128`](jumanji::types::hash::fingerprint128)) of the
//! `Debug` form of the full input, so two cells share an entry exactly
//! when the simulation would do identical work.
//!
//! **Experiment handles are lazy.** [`CellCache::experiment`] returns a
//! handle that *names* the experiment (inputs + content key) without
//! constructing it; construction happens at most once per handle, on
//! first use inside [`CellCache::run_sourced`] — and only when the run cell
//! itself has to be computed. With a warm disk cache that means a run
//! can serve every figure without ever paying for hull sampling or
//! deadline isolation runs.
//!
//! **The cache can be disk-backed.** [`CellCache::attach_disk`] plugs in
//! a [`DiskCache`] (see [`crate::disk_cache`]); run and detail
//! lookups then read through the in-memory maps to disk and write newly
//! computed cells back, so the dedup survives the process — a warm
//! `suite` run renders almost entirely from disk. A spec's `cache_dir`
//! (`--cache-dir` / `JUMANJI_CACHE_DIR`) attaches the store to the
//! global cache ([`attach_global_disk`]).
//!
//! **Tracing bypasses cache reads.** A traced run must emit its complete
//! event stream, so when the sink is enabled the cache recomputes the
//! run or detailed cell (writing the result through for later untraced
//! readers). Telemetry's bit-identical contract makes the written-through
//! result indistinguishable from an untraced computation.
//!
//! `--no-cache` (`JUMANJI_NO_CACHE=1`) runs the suite executor against a
//! throwaway [`CellCache::new`] with no store: cells are still computed
//! once per call, and nothing is read from or written to the global
//! cache or the disk.

use crate::disk_cache::{DiskCache, DiskCacheStats};
use jumanji::core::{Allocation, DesignKind};
use jumanji::sim::detail::{run_detailed, DetailOptions, DetailReport};
use jumanji::sim::perf::Profile;
use jumanji::sim::{ratio_hull_cache_stats, Experiment, ExperimentResult, SimOptions};
use jumanji::telemetry::{NoopSink, Telemetry};
use jumanji::types::hash::fingerprint128;
use jumanji::types::{CoreId, MapStats, ShardedMap, VmId};
use jumanji::workloads::{LcLoad, WorkloadMix};
use std::cell::Cell;
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// The cache identity of an experiment: a 128-bit content fingerprint of
/// `(mix, load, opts)`. This is the key [`CellCache::experiment`] files
/// entries under, exposed so the suite's plan pass ([`crate::plan`]) can
/// name a cell without constructing it.
pub fn experiment_key(mix: &WorkloadMix, load: LcLoad, opts: &SimOptions) -> u128 {
    fingerprint128(format!("exp|{load:?}|{opts:?}|{mix:?}").as_bytes())
}

/// The cache identity of a completed `(experiment, design)` run cell —
/// the key [`CellCache::run_sourced`] files results under.
pub fn run_key(experiment_key: u128, design: DesignKind) -> u128 {
    fingerprint128(format!("run|{experiment_key:032x}|{design:?}").as_bytes())
}

/// The cache identity of a detailed-simulator cell: a 128-bit content
/// fingerprint of every input [`run_detailed`] consumes — the full
/// [`DetailOptions`] (which carry the machine config, access budget, and
/// stream seed), the per-app profiles, core pinning, VM membership, and
/// the allocation under test. This is the key [`CellCache::run_detail_sourced`]
/// files reports under, exposed so the plan pass can name a detailed
/// cell without simulating it.
pub fn detail_key(
    opts: &DetailOptions,
    profiles: &[Profile],
    cores: &[CoreId],
    vms: &[VmId],
    alloc: &Allocation,
) -> u128 {
    fingerprint128(format!("detail|{opts:?}|{profiles:?}|{cores:?}|{vms:?}|{alloc:?}").as_bytes())
}

/// The deferred inputs of an experiment plus its at-most-once
/// construction slot.
#[derive(Debug)]
struct ExpCell {
    mix: WorkloadMix,
    load: LcLoad,
    opts: SimOptions,
    exp: OnceLock<Arc<Experiment>>,
}

impl ExpCell {
    fn construct(&self) -> Arc<Experiment> {
        Arc::new(Experiment::new(
            self.mix.clone(),
            self.load,
            self.opts.clone(),
        ))
    }
}

/// A lazily constructed experiment plus the cache identity it is filed
/// under.
///
/// Cloning a handle shares the construction slot: however many clones
/// exist, the experiment is built at most once per handle family — and
/// at most once per cache, whose `experiments` map dedups construction
/// across handles with the same key.
#[derive(Debug, Clone)]
pub struct ExperimentHandle {
    cell: Arc<ExpCell>,
    key: u128,
}

/// Where [`CellCache::run_sourced`] found (or had to put) a run cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Simulated in this call (and written through to every layer).
    Computed,
    /// Served from the in-memory map.
    Memory,
    /// Served from the attached disk store.
    Disk,
}

/// Counter snapshot of every memo a [`CellCache`] reports on: its own
/// three maps, the simulator's process-wide ratio-hull memo, and the
/// attached disk store (when any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellCacheStats {
    /// Completed experiment results.
    pub runs: MapStats,
    /// Completed detailed-simulator reports.
    pub details: MapStats,
    /// Constructed experiments (lazy: only cells that were actually
    /// forced appear here — a fully warm run constructs none).
    pub experiments: MapStats,
    /// The simulator's shared ratio-hull memo.
    pub hulls: MapStats,
    /// The attached disk store's counters (`None` when memory-only).
    pub disk: Option<DiskCacheStats>,
}

/// A shared concurrent cache of experiment cells (see the module docs).
///
/// All methods are `&self` and thread-safe; suite runs share one
/// instance via [`CellCache::global`], while tests that need isolated
/// counters construct their own with [`CellCache::new`].
#[derive(Debug)]
pub struct CellCache {
    experiments: ShardedMap<u128, Arc<Experiment>>,
    runs: ShardedMap<u128, Arc<ExperimentResult>>,
    details: ShardedMap<u128, Arc<DetailReport>>,
    disk: RwLock<Option<Arc<DiskCache>>>,
}

impl Default for CellCache {
    fn default() -> CellCache {
        CellCache::new()
    }
}

impl CellCache {
    /// An empty, memory-only cache.
    pub fn new() -> CellCache {
        CellCache {
            experiments: ShardedMap::new(),
            runs: ShardedMap::new(),
            details: ShardedMap::new(),
            disk: RwLock::new(None),
        }
    }

    /// The process-wide cache every suite run shares (unless its specs
    /// ask for `no_cache`).
    pub fn global() -> &'static CellCache {
        static GLOBAL: OnceLock<CellCache> = OnceLock::new();
        GLOBAL.get_or_init(CellCache::new)
    }

    /// Backs this cache with a persistent store: run and detail
    /// lookups read through to it and write computed cells back.
    /// Replaces any previously attached store.
    pub fn attach_disk(&self, disk: Arc<DiskCache>) {
        *self.disk.write().expect("disk slot lock") = Some(disk);
    }

    /// The attached persistent store, if any.
    pub fn disk(&self) -> Option<Arc<DiskCache>> {
        self.disk.read().expect("disk slot lock").clone()
    }

    /// A lazy handle naming the experiment for `(mix, load, opts)`.
    ///
    /// No construction happens here: the handle carries the inputs and
    /// the content key, and [`CellCache::run_sourced`] forces construction only
    /// when a run cell actually has to be simulated. Forced
    /// constructions are deduplicated through the `experiments` map.
    pub fn experiment(&self, mix: WorkloadMix, load: LcLoad, opts: SimOptions) -> ExperimentHandle {
        let key = experiment_key(&mix, load, &opts);
        ExperimentHandle {
            cell: Arc::new(ExpCell {
                mix,
                load,
                opts,
                exp: OnceLock::new(),
            }),
            key,
        }
    }

    /// Forces `handle`'s experiment, deduplicating the construction
    /// through the cache's `experiments` map.
    pub fn force_experiment(&self, handle: &ExperimentHandle) -> Arc<Experiment> {
        Arc::clone(handle.cell.exp.get_or_init(|| {
            self.experiments
                .get_or_compute(handle.key, || handle.cell.construct())
        }))
    }

    /// The result of running `design` on `handle`'s experiment, computed
    /// at most once per cache while `tel` is disabled (an enabled sink
    /// re-runs and writes through; see the module docs), plus where it
    /// came from, so the suite scheduler can tell real simulations from
    /// cache hits.
    pub fn run_sourced(
        &self,
        handle: &ExperimentHandle,
        design: DesignKind,
        tel: &dyn Telemetry,
    ) -> (Arc<ExperimentResult>, RunSource) {
        self.sourced(
            &self.runs,
            run_key(handle.key, design),
            DiskCache::load_run,
            DiskCache::store_run,
            tel.enabled()
                .then_some(|| self.force_experiment(handle).run(design, tel)),
            || self.force_experiment(handle).run(design, &NoopSink),
        )
    }

    /// The detailed-simulator report for `(opts, profiles, cores, vms,
    /// alloc)`, plus where it came from: exactly the
    /// [`Self::run_sourced`] contract, over the store's `details/`
    /// namespace.
    #[allow(clippy::too_many_arguments)]
    pub fn run_detail_sourced(
        &self,
        opts: &DetailOptions,
        profiles: &[Profile],
        cores: &[CoreId],
        vms: &[VmId],
        alloc: &Allocation,
        tel: &dyn Telemetry,
    ) -> (Arc<DetailReport>, RunSource) {
        self.sourced(
            &self.details,
            detail_key(opts, profiles, cores, vms, alloc),
            DiskCache::load_detail,
            DiskCache::store_detail,
            tel.enabled()
                .then_some(|| run_detailed(opts, profiles, cores, vms, alloc, tel)),
            || run_detailed(opts, profiles, cores, vms, alloc, &NoopSink),
        )
    }

    /// The read-through body of both `*_sourced` lookups: a `traced`
    /// computation (the sink is enabled) runs and writes through;
    /// otherwise memory `map`, then the store's `load`, then `compute`
    /// with write-back (`store`). `compute` passes the concrete
    /// `NoopSink`, so the simulators' telemetry calls compile out.
    fn sourced<T>(
        &self,
        map: &ShardedMap<u128, Arc<T>>,
        key: u128,
        load: fn(&DiskCache, u128) -> Option<T>,
        store: fn(&DiskCache, u128, &T),
        traced: Option<impl FnOnce() -> T>,
        compute: impl FnOnce() -> T,
    ) -> (Arc<T>, RunSource) {
        if let Some(traced) = traced {
            let value = Arc::new(traced());
            map.insert(key, Arc::clone(&value));
            if let Some(disk) = self.disk() {
                store(&disk, key, &value);
            }
            return (value, RunSource::Computed);
        }
        let source = Cell::new(RunSource::Memory);
        let value = map.get_or_compute(key, || {
            if let Some(v) = self.disk().and_then(|disk| load(&disk, key)) {
                source.set(RunSource::Disk);
                return Arc::new(v);
            }
            source.set(RunSource::Computed);
            let v = Arc::new(compute());
            if let Some(disk) = self.disk() {
                store(&disk, key, &v);
            }
            v
        });
        (value, source.get())
    }

    /// True when the run cell for `key` is already available without
    /// simulating: resident in memory or present on disk. A pure probe —
    /// no counters, no decode (a file that later fails validation just
    /// falls back to recompute).
    pub fn probe_run(&self, key: u128) -> bool {
        self.runs.get(&key).is_some() || self.disk().is_some_and(|d| d.has_run(key))
    }

    /// A snapshot of every memo's counters (including the simulator's
    /// shared hull memo and the attached disk store, when any).
    pub fn stats(&self) -> CellCacheStats {
        CellCacheStats {
            runs: self.runs.stats(),
            details: self.details.stats(),
            experiments: self.experiments.stats(),
            hulls: ratio_hull_cache_stats(),
            disk: self
                .disk
                .read()
                .expect("disk slot lock")
                .as_ref()
                .map(|d| d.stats()),
        }
    }
}

/// Attaches the persistent store at `dir` to the global cache, seeding
/// the simulator's model memos from it, and bounds it to `cap` bytes
/// (`0` = unbounded; the least-recently-written entries are evicted on
/// overflow). A store already attached at `dir` is kept, so its counters
/// survive repeated suite runs in one process, but takes the new `cap`.
/// An unopenable directory warns and leaves the cache memory-only — a bad
/// flag costs the warm start, never the run.
pub fn attach_global_disk(dir: &Path, cap: u64) {
    let cache = CellCache::global();
    if let Some(disk) = cache.disk().filter(|d| d.root() == dir) {
        disk.set_cap_bytes(cap);
        disk.enforce_cap();
        return;
    }
    match DiskCache::open(dir) {
        Ok(disk) => {
            disk.seed_model();
            disk.set_cap_bytes(cap);
            disk.enforce_cap();
            cache.attach_disk(Arc::new(disk));
        }
        Err(e) => {
            eprintln!(
                "warning: cannot open --cache-dir {}: {e}; continuing without disk cache",
                dir.display()
            );
        }
    }
}

/// Persists the simulator's model memos (ratio hulls, deadlines) to the
/// global cache's disk store, if one is attached. The `suite` binary
/// calls this once after rendering, so the *next* process constructs
/// warm.
pub fn persist_global_disk() {
    if let Some(disk) = CellCache::global().disk() {
        disk.persist_model();
        // Cells written during this run may have pushed a capped store
        // over its limit; evict before the next process starts.
        disk.enforce_cap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumanji::telemetry::{Event, NoopSink, RecordingSink};
    use jumanji::types::Seconds;
    use jumanji::workloads::case_study_mix;

    fn quick_opts() -> SimOptions {
        SimOptions {
            duration: Seconds(0.5),
            ..SimOptions::default()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("jumanji-cell-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cached_run_matches_direct_run_exactly() {
        let cache = CellCache::new();
        let handle = cache.experiment(case_study_mix(3), LcLoad::High, quick_opts());
        let (cached, _) = cache.run_sourced(&handle, DesignKind::Jumanji, &NoopSink);
        let direct = Experiment::new(case_study_mix(3), LcLoad::High, quick_opts())
            .run(DesignKind::Jumanji, &NoopSink);
        assert_eq!(format!("{cached:?}"), format!("{direct:?}"));
    }

    #[test]
    fn handles_are_lazy_and_constructions_dedup_across_handles() {
        let cache = CellCache::new();
        let h1 = cache.experiment(case_study_mix(1), LcLoad::Low, quick_opts());
        let h2 = cache.experiment(case_study_mix(1), LcLoad::Low, quick_opts());
        // Nothing is constructed until a run forces it.
        assert_eq!(cache.stats().experiments.entries, 0);
        let (r1, s1) = cache.run_sourced(&h1, DesignKind::Jigsaw, &NoopSink);
        let (r2, s2) = cache.run_sourced(&h2, DesignKind::Jigsaw, &NoopSink);
        assert_eq!(s1, RunSource::Computed);
        assert_eq!(s2, RunSource::Memory);
        assert!(Arc::ptr_eq(&r1, &r2));
        // Forcing both handles shares one construction through the map.
        assert!(Arc::ptr_eq(
            &cache.force_experiment(&h1),
            &cache.force_experiment(&h2)
        ));
        let s = cache.stats();
        assert_eq!(s.experiments.misses, 1);
        assert_eq!(s.experiments.entries, 1);
        assert_eq!(s.runs.hits, 1);
        assert_eq!(s.runs.misses, 1);
    }

    #[test]
    fn tracing_bypasses_reads_but_writes_through() {
        let cache = CellCache::new();
        let handle = cache.experiment(case_study_mix(2), LcLoad::High, quick_opts());
        // Warm the cache untraced.
        let (warm, _) = cache.run_sourced(&handle, DesignKind::Jumanji, &NoopSink);
        // A traced run must still emit the full event stream...
        let sink = RecordingSink::new();
        let (traced, _) = cache.run_sourced(&handle, DesignKind::Jumanji, &sink);
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e, Event::RunSummary { .. })),
            "traced run must emit events even on a warm cache"
        );
        // ...and its result must be bit-identical to the cached one.
        assert_eq!(format!("{traced:?}"), format!("{warm:?}"));
        // The traced result replaced the entry (write-through, counted as
        // a miss) — never served from cache.
        assert_eq!(cache.stats().runs.hits, 0);
        assert_eq!(cache.stats().runs.misses, 2);
    }

    #[test]
    fn disk_store_serves_a_fresh_cache_without_constructing() {
        let dir = temp_dir("warm");
        // Cold process: compute one run cell and persist it.
        let cold = CellCache::new();
        cold.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
        let handle = cold.experiment(case_study_mix(5), LcLoad::Low, quick_opts());
        let (cold_result, src) = cold.run_sourced(&handle, DesignKind::Static, &NoopSink);
        assert_eq!(src, RunSource::Computed);
        assert_eq!(cold.stats().disk.expect("disk attached").writes, 1);

        // Warm process (fresh cache, same store): the run is served from
        // disk, byte-identical, without constructing any experiment.
        let warm = CellCache::new();
        warm.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
        let handle = warm.experiment(case_study_mix(5), LcLoad::Low, quick_opts());
        let (warm_result, src) = warm.run_sourced(&handle, DesignKind::Static, &NoopSink);
        assert_eq!(src, RunSource::Disk);
        assert_eq!(format!("{warm_result:?}"), format!("{cold_result:?}"));
        let s = warm.stats();
        assert_eq!(s.experiments.entries, 0, "warm run must construct nothing");
        assert_eq!(s.disk.expect("disk attached").hits, 1);

        // Second lookup in the same process comes from memory.
        let (_, src) = warm.run_sourced(&handle, DesignKind::Static, &NoopSink);
        assert_eq!(src, RunSource::Memory);

        // probe_run sees disk entries; the throwaway cache `--no-cache`
        // runs against has no store to see them in.
        let key = run_key(
            experiment_key(&case_study_mix(5), LcLoad::Low, &quick_opts()),
            DesignKind::Static,
        );
        let probe = CellCache::new();
        probe.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
        assert!(probe.probe_run(key));
        let throwaway = CellCache::new();
        assert!(
            throwaway.disk().is_none(),
            "--no-cache must ignore the store"
        );
        assert!(!throwaway.probe_run(key));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
