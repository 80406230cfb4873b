//! The process-wide cell cache, and the one cell kind every simulation
//! is.
//!
//! The paper's evaluation is one big matrix of cells rendered eighteen
//! ways — fig13 and fig14 run the *same* experiments, the sensitivity
//! study's default rows duplicate the main-results cells, and so on.
//! Every simulation a figure needs is a [`Cell`]: a keyed, pure
//! computation with one encode/decode pair, of one of three kinds
//! ([`CellKind`]): an `(experiment, design)` run ([`RunCell`]), a
//! detailed-simulator cell ([`DetailPlan`]; fig02, validate) or a fixed
//! scenario ([`Scenario`](crate::scenario::Scenario); fig08, fig11,
//! fig12).
//!
//! [`CellCache::get`] is the one read-through for every kind, over one
//! map: memory, then the attached [`DiskCache`], then `compute` with
//! write-back to both. Keys are 128-bit content fingerprints of a
//! kind-prefixed `Debug` form of the cell's full input, so two cells
//! share an entry exactly when the simulation would do identical work,
//! and two kinds never share a key. One-shot placements are not cells: a
//! [`DesignKind::allocate`] call costs less than fingerprinting its
//! input, so the plan pass computes them directly.
//!
//! **Experiment handles are lazy.** An [`ExperimentHandle`] names an
//! experiment (inputs + key) without constructing it; the run cells that
//! share it construct it at most once, and only when a run must be
//! simulated — so a warm store serves every figure without hull sampling
//! or deadline isolation runs. The suite executor makes one handle per
//! unique experiment, so its runs share one construction.
//!
//! **Tracing bypasses cache reads.** A traced run must emit its complete
//! event stream, so with the sink enabled a lookup recomputes the cell
//! and writes it through; telemetry's bit-identical contract makes that
//! result indistinguishable from an untraced one.
//!
//! `suite --cache-dir` attaches a store to the global cache
//! ([`attach_global_disk`]); `--no-cache` runs the executor against a
//! throwaway [`CellCache::new`] with no store.

use crate::disk_cache::{self, DiskCache, DiskCacheStats};
use crate::figures::plan::{CostModel, DetailPlan};
use jumanji::core::{Allocation, DesignKind};
use jumanji::sim::detail::{run_detailed, DetailOptions, DetailReport};
use jumanji::sim::perf::Profile;
use jumanji::sim::{ratio_hull_cache_stats, Experiment, ExperimentResult, SimOptions};
use jumanji::telemetry::{NoopSink, Telemetry};
use jumanji::types::codec::{ByteReader, ByteWriter, CodecError};
use jumanji::types::hash::fingerprint128;
use jumanji::types::{CoreId, MapStats, ShardedMap, VmId};
use jumanji::workloads::{LcLoad, WorkloadMix};
use std::any::Any;
use std::fmt::{Arguments, Debug};
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// Every cache key: the fingerprint of a kind-prefixed `Debug` rendering
/// of a cell's inputs.
pub(crate) fn content_key(inputs: Arguments<'_>) -> u128 {
    fingerprint128(inputs.to_string().as_bytes())
}

/// The cache identity of an experiment: a 128-bit content fingerprint of
/// `(mix, load, opts)`, exposed so the plan pass ([`crate::figures::plan`])
/// can name a cell without constructing it.
pub fn experiment_key(mix: &WorkloadMix, load: LcLoad, opts: &SimOptions) -> u128 {
    content_key(format_args!("exp|{load:?}|{opts:?}|{mix:?}"))
}

/// The cache identity of a completed `(experiment, design)` run cell.
pub fn run_key(experiment_key: u128, design: DesignKind) -> u128 {
    content_key(format_args!("run|{experiment_key:032x}|{design:?}"))
}

/// The cache identity of a detailed-simulator cell: a fingerprint of
/// every input [`run_detailed`] consumes.
pub fn detail_key(
    opts: &DetailOptions,
    profiles: &[Profile],
    cores: &[CoreId],
    vms: &[VmId],
    alloc: &Allocation,
) -> u128 {
    content_key(format_args!(
        "detail|{opts:?}|{profiles:?}|{cores:?}|{vms:?}|{alloc:?}"
    ))
}

/// The kinds of [`Cell`]: each names its store directory and its codec
/// envelope tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// `(experiment, design)` analytic runs ([`RunCell`]).
    Run,
    /// Detailed-simulator cells ([`DetailPlan`]).
    Detail,
    /// Fixed scenarios ([`Scenario`](crate::scenario::Scenario)).
    Scenario,
}

impl CellKind {
    /// Every kind, in index order (`kind as usize`).
    pub const ALL: [CellKind; 3] = [CellKind::Run, CellKind::Detail, CellKind::Scenario];

    /// The store directory holding this kind's `<key>.bin` entries.
    pub fn dir(self) -> &'static str {
        ["runs", "details", "scenarios"][self as usize]
    }

    /// The codec envelope tag of this kind's entries. Never renumber:
    /// stores written by older binaries carry these tags.
    pub fn tag(self) -> u16 {
        [1, 5, 6][self as usize]
    }
}

/// One keyed, pure unit of simulation: everything the executor computes
/// is a cell (see the module docs).
pub trait Cell: Send + Sync {
    /// What computing the cell yields.
    type Output: Debug + Send + Sync + 'static;
    /// The cell's kind: its store directory and envelope tag.
    const KIND: CellKind;

    /// The cell's cache identity (a kind-prefixed content fingerprint).
    fn key(&self) -> u128;

    /// Computes the cell. Untraced lookups pass the concrete `NoopSink`,
    /// so telemetry compiles out.
    fn compute<T: Telemetry + ?Sized>(&self, tel: &T) -> Self::Output;

    /// Writes `out` as a store payload.
    fn encode(out: &Self::Output, w: &mut ByteWriter);

    /// Reads a payload [`Cell::encode`] wrote; malformed input is an
    /// error, never a panic.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] the payload raises.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self::Output, CodecError>;

    /// The scheduler's relative cost estimate for computing the cell:
    /// a static prior ([`CostModel::priors`]).
    fn cost(&self) -> f64;
}

/// A cell's output with its type erased: the cell map's value.
pub(crate) type Shared = Arc<dyn Any + Send + Sync>;

/// A [`Cell`] with its output type erased, so one work graph holds every
/// kind.
pub(crate) trait AnyCell: Any + Send + Sync {
    /// The cell's kind.
    fn kind(&self) -> CellKind;
    /// [`CellCache::get`], output erased.
    fn get_in(&self, cache: &CellCache, tel: &dyn Telemetry) -> (Shared, RunSource);
}

impl<C: Cell + 'static> AnyCell for C {
    fn kind(&self) -> CellKind {
        C::KIND
    }

    fn get_in(&self, cache: &CellCache, tel: &dyn Telemetry) -> (Shared, RunSource) {
        let (value, source) = cache.get(self, tel);
        (value, source)
    }
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

/// A lazily constructed experiment plus its cache identity. Clones share
/// the construction slot.
#[derive(Debug, Clone)]
pub struct ExperimentHandle {
    cell: Arc<ExpCell>,
    key: u128,
}

impl ExperimentHandle {
    /// A handle on `(mix, load, opts)`, whose [`experiment_key`] the
    /// caller already computed as `key`.
    pub(crate) fn keyed(mix: WorkloadMix, load: LcLoad, opts: SimOptions, key: u128) -> Self {
        let exp = OnceLock::new();
        let cell = Arc::new(ExpCell {
            mix,
            load,
            opts,
            exp,
        });
        ExperimentHandle { cell, key }
    }

    /// The experiment's simulation options.
    pub(crate) fn opts(&self) -> &SimOptions {
        &self.cell.opts
    }

    /// True once the experiment is constructed.
    #[cfg(test)]
    pub(crate) fn built(&self) -> bool {
        self.cell.exp.get().is_some()
    }

    /// True when `other` shares this handle's construction slot.
    #[cfg(test)]
    pub(crate) fn shares(&self, other: &ExperimentHandle) -> bool {
        Arc::ptr_eq(&self.cell, &other.cell)
    }

    /// The experiment, constructed on first use.
    fn get(&self) -> Arc<Experiment> {
        let c = &self.cell;
        Arc::clone(
            c.exp
                .get_or_init(|| Arc::new(Experiment::new(c.mix.clone(), c.load, c.opts.clone()))),
        )
    }
}

/// Running one design on one experiment: the [`CellKind::Run`] cell.
#[derive(Debug, Clone)]
pub struct RunCell {
    exp: ExperimentHandle,
    design: DesignKind,
    key: u128,
}

impl RunCell {
    /// The run of `design` on `exp`'s experiment.
    pub(crate) fn new(exp: ExperimentHandle, design: DesignKind) -> RunCell {
        let key = run_key(exp.key, design);
        RunCell { exp, design, key }
    }

    /// The handle of the experiment this run is of.
    #[cfg(test)]
    pub(crate) fn experiment(&self) -> &ExperimentHandle {
        &self.exp
    }
}

impl Cell for RunCell {
    type Output = ExperimentResult;
    const KIND: CellKind = CellKind::Run;

    fn key(&self) -> u128 {
        self.key
    }

    fn compute<T: Telemetry + ?Sized>(&self, tel: &T) -> ExperimentResult {
        self.exp.get().run(self.design, tel)
    }

    fn encode(out: &ExperimentResult, w: &mut ByteWriter) {
        disk_cache::encode_result(w, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<ExperimentResult, CodecError> {
        disk_cache::decode_result(r)
    }

    fn cost(&self) -> f64 {
        CostModel::priors().run_cost(self.exp.opts(), self.design)
    }
}

impl Cell for DetailPlan {
    type Output = DetailReport;
    const KIND: CellKind = CellKind::Detail;

    fn key(&self) -> u128 {
        DetailPlan::key(self)
    }

    fn compute<T: Telemetry + ?Sized>(&self, tel: &T) -> DetailReport {
        let DetailPlan { opts, profiles, .. } = self;
        run_detailed(opts, profiles, &self.cores, &self.vms, &self.alloc, tel)
    }

    fn encode(out: &DetailReport, w: &mut ByteWriter) {
        disk_cache::encode_detail(w, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<DetailReport, CodecError> {
        disk_cache::decode_detail(r)
    }

    fn cost(&self) -> f64 {
        CostModel::priors().detail_cost(&self.opts, self.profiles.len())
    }
}

/// Where [`CellCache::get`] found (or had to put) a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Computed in this call (and written through to every layer).
    Computed,
    /// Served from the in-memory map.
    Memory,
    /// Served from the attached disk store.
    Disk,
}

/// Counter snapshot of every memo a [`CellCache`] reports on: its own
/// cell map, the simulator's process-wide ratio-hull memo, and the
/// attached disk store (when any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellCacheStats {
    /// Completed cells of every kind.
    pub cells: MapStats,
    /// The simulator's shared ratio-hull memo.
    pub hulls: MapStats,
    /// The attached disk store's counters (`None` when memory-only).
    pub disk: Option<DiskCacheStats>,
}

/// A shared concurrent cache of cells (see the module docs).
///
/// All methods are `&self` and thread-safe; suite runs share one
/// instance via [`CellCache::global`], while tests that need isolated
/// counters construct their own with [`CellCache::new`].
#[derive(Debug)]
pub struct CellCache {
    cells: ShardedMap<u128, Shared>,
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
            cells: ShardedMap::new(),
            disk: RwLock::new(None),
        }
    }

    /// The process-wide cache every suite run shares (`suite --no-cache`
    /// runs against a [`CellCache::new`] instead).
    pub fn global() -> &'static CellCache {
        static GLOBAL: OnceLock<CellCache> = OnceLock::new();
        GLOBAL.get_or_init(CellCache::new)
    }

    /// Backs this cache with a persistent store: lookups read through to
    /// it and write computed cells back. Replaces any previously
    /// attached store.
    pub fn attach_disk(&self, disk: Arc<DiskCache>) {
        *self.disk.write().expect("disk slot lock") = Some(disk);
    }

    /// The attached persistent store, if any.
    pub fn disk(&self) -> Option<Arc<DiskCache>> {
        self.disk.read().expect("disk slot lock").clone()
    }

    /// A lazy handle naming the experiment for `(mix, load, opts)`: no
    /// construction happens here.
    pub fn experiment(&self, mix: WorkloadMix, load: LcLoad, opts: SimOptions) -> ExperimentHandle {
        let key = experiment_key(&mix, load, &opts);
        ExperimentHandle::keyed(mix, load, opts, key)
    }

    /// Forces `handle`'s experiment: constructs it unless `handle` (or a
    /// clone of it) already did.
    pub fn force_experiment(&self, handle: &ExperimentHandle) -> Arc<Experiment> {
        handle.get()
    }

    /// `cell`'s output, computed at most once per cache while `tel` is
    /// disabled (an enabled sink recomputes and writes through; see the
    /// module docs), plus where it came from, so the suite scheduler can
    /// tell real simulations from cache hits.
    pub fn get<C: Cell>(&self, cell: &C, tel: &dyn Telemetry) -> (Arc<C::Output>, RunSource) {
        let key = cell.key();
        let store = |value: &C::Output| {
            if let Some(disk) = self.disk() {
                disk.store::<C>(key, value);
            }
        };
        if tel.enabled() {
            let value = Arc::new(cell.compute(tel));
            self.cells.insert(key, value.clone());
            store(&value);
            return (value, RunSource::Computed);
        }
        let mut source = RunSource::Memory;
        let value = self.cells.get_or_compute(key, || -> Shared {
            if let Some(value) = self.disk().and_then(|disk| disk.load::<C>(key)) {
                source = RunSource::Disk;
                return Arc::new(value);
            }
            source = RunSource::Computed;
            let value = Arc::new(cell.compute(&NoopSink));
            store(&value);
            value
        });
        let value = value.downcast().expect("a key names one kind of cell");
        (value, source)
    }

    /// [`CellCache::get`] for the run of `design` on `handle`'s
    /// experiment.
    pub fn run_sourced(
        &self,
        handle: &ExperimentHandle,
        design: DesignKind,
        tel: &dyn Telemetry,
    ) -> (Arc<ExperimentResult>, RunSource) {
        self.get(&RunCell::new(handle.clone(), design), tel)
    }

    /// [`CellCache::get`] for the detailed cell `(opts, profiles, cores,
    /// vms, alloc)`.
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
        let cell = DetailPlan {
            // A label only: the key covers the other fields.
            design: DesignKind::Static,
            opts: opts.clone(),
            profiles: profiles.to_vec(),
            cores: cores.to_vec(),
            vms: vms.to_vec(),
            alloc: alloc.clone(),
        };
        self.get(&cell, tel)
    }

    /// True when the run cell for `key` is already available without
    /// simulating: resident in memory or present on disk. A pure probe —
    /// no counters, no decode (a file that later fails validation just
    /// falls back to recompute).
    pub fn probe_run(&self, key: u128) -> bool {
        self.cells.get(&key).is_some() || self.disk().is_some_and(|d| d.has_run(key))
    }

    /// A snapshot of every memo's counters (including the simulator's
    /// shared hull memo and the attached disk store, when any).
    pub fn stats(&self) -> CellCacheStats {
        CellCacheStats {
            cells: self.cells.stats(),
            hulls: ratio_hull_cache_stats(),
            disk: self.disk().map(|d| d.stats()),
        }
    }
}

/// Attaches the persistent store at `dir` to the global cache and
/// bounds it to `cap` bytes (`0` = unbounded; the least-recently-written
/// entries are evicted on overflow). Only cells are read from the store:
/// the simulator's model memos (ratio hulls, deadlines) always start
/// empty, so no side file in the store can change a computed cell. A
/// store already attached at `dir` is kept, so its counters survive
/// repeated suite runs in one process, but takes the new `cap`.
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
    fn every_sim_option_reaches_the_experiment_key() {
        // Exhaustive destructuring: a new `SimOptions` field does not
        // compile here until it is perturbed below.
        let base = SimOptions::default();
        let SimOptions {
            cfg,
            duration,
            reconfig,
            seed,
            controller,
        } = base.clone();
        let fast_cfg = jumanji::types::SystemConfig {
            freq_hz: cfg.freq_hz * 2.0,
            ..cfg
        };
        let params = jumanji::core::ControllerParams::micro2020(fast_cfg.llc.total_bytes() as f64);
        let perturbed = [
            (
                "cfg",
                SimOptions {
                    cfg: fast_cfg,
                    ..base.clone()
                },
            ),
            (
                "duration",
                SimOptions {
                    duration: Seconds(duration.as_f64() * 2.0),
                    ..base.clone()
                },
            ),
            (
                "reconfig",
                SimOptions {
                    reconfig: Seconds(reconfig.as_f64() * 2.0),
                    ..base.clone()
                },
            ),
            (
                "seed",
                SimOptions {
                    seed: seed + 1,
                    ..base.clone()
                },
            ),
            (
                "controller",
                SimOptions {
                    controller: match controller {
                        None => Some(params),
                        Some(_) => None,
                    },
                    ..base.clone()
                },
            ),
        ];
        let mix = case_study_mix(1);
        let key = experiment_key(&mix, LcLoad::High, &base);
        for (field, opts) in &perturbed {
            assert_ne!(
                experiment_key(&mix, LcLoad::High, opts),
                key,
                "SimOptions::{field} does not reach the experiment key"
            );
        }
    }

    #[test]
    fn every_detail_option_reaches_the_detail_key() {
        use jumanji::cache::ReplPolicy;
        // Exhaustive destructuring, as for `SimOptions` above.
        let base = DetailOptions::default();
        let DetailOptions {
            cfg,
            accesses_per_app,
            policy,
            write_frac,
            seed,
        } = base.clone();
        let perturbed = [
            (
                "cfg",
                DetailOptions {
                    cfg: jumanji::types::SystemConfig {
                        freq_hz: cfg.freq_hz * 2.0,
                        ..cfg
                    },
                    ..base.clone()
                },
            ),
            (
                "accesses_per_app",
                DetailOptions {
                    accesses_per_app: accesses_per_app + 1,
                    ..base.clone()
                },
            ),
            (
                "policy",
                DetailOptions {
                    policy: if policy == ReplPolicy::Lru {
                        ReplPolicy::Drrip
                    } else {
                        ReplPolicy::Lru
                    },
                    ..base.clone()
                },
            ),
            (
                "write_frac",
                DetailOptions {
                    write_frac: write_frac / 2.0,
                    ..base.clone()
                },
            ),
            (
                "seed",
                DetailOptions {
                    seed: seed + 1,
                    ..base.clone()
                },
            ),
        ];
        let alloc = Allocation {
            apps: Vec::new(),
            pools: Vec::new(),
            ideal_batch: false,
        };
        let key = detail_key(&base, &[], &[], &[], &alloc);
        for (field, opts) in &perturbed {
            assert_ne!(
                detail_key(opts, &[], &[], &[], &alloc),
                key,
                "DetailOptions::{field} does not reach the detail key"
            );
        }
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
        assert!(!h1.built() && !h2.built());
        let (r1, s1) = cache.run_sourced(&h1, DesignKind::Jigsaw, &NoopSink);
        let (r2, s2) = cache.run_sourced(&h2, DesignKind::Jigsaw, &NoopSink);
        assert_eq!(s1, RunSource::Computed);
        assert_eq!(s2, RunSource::Memory);
        assert!(Arc::ptr_eq(&r1, &r2));
        // The run served from memory constructed nothing.
        assert!(h1.built() && !h2.built());
        // Clones share one construction.
        let h3 = h1.clone();
        assert!(Arc::ptr_eq(
            &cache.force_experiment(&h1),
            &cache.force_experiment(&h3)
        ));
        let s = cache.stats();
        assert_eq!(s.cells.hits, 1);
        assert_eq!(s.cells.misses, 1);
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
        assert_eq!(cache.stats().cells.hits, 0);
        assert_eq!(cache.stats().cells.misses, 2);
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
        assert!(!handle.built(), "warm run must construct nothing");
        assert_eq!(warm.stats().disk.expect("disk attached").hits, 1);

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
