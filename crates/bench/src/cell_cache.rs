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
//! write-back to both. Keys are 128-bit content fingerprints of the
//! cell's full input behind a kind tag, so two cells share an entry
//! exactly when the simulation would do identical work, and two kinds
//! never share a key. A key is composed, not formatted: a mix enters as
//! its VM structure and one bit-exact fingerprint per profile, an
//! allocation field by field, and only the small option structs as
//! their `Debug` form — so naming a cell costs
//! far less than reading it from the store. One-shot placements are not
//! cells: a [`DesignKind::allocate`] call costs less than fingerprinting
//! its input, so the plan pass computes them directly.
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
//! ([`attach_global_disk`]); without it the cache is memory-only.

use crate::disk_cache::{self, DiskCache, DiskCacheStats};
use crate::figures::plan::{CostModel, DetailPlan};
use jumanji::core::{Allocation, AppAlloc, DesignKind, Pool};
use jumanji::sim::detail::{run_detailed, DetailOptions, DetailReport};
use jumanji::sim::perf::Profile;
use jumanji::sim::{ratio_hull_cache_stats, Experiment, ExperimentResult, SimOptions};
use jumanji::telemetry::{NoopSink, Telemetry};
use jumanji::types::codec::{ByteReader, ByteWriter, CodecError};
use jumanji::types::hash::fingerprint128;
use jumanji::types::{BankId, CoreId, MapStats, ShardedMap, VmId};
use jumanji::workloads::{LcLoad, VmWorkload, WorkloadMix};
use std::any::Any;
use std::fmt::Debug;
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// Every cache key: a 128-bit fingerprint of the cell kind's `tag`
/// followed by the cell's inputs as `write` encodes them — field by
/// field, floats by bit pattern, workload profiles by their
/// fingerprints, and the small option structs as [`debug_leaf`]s. Tags
/// differ per kind, so two kinds never share a key.
pub(crate) fn content_key(tag: &str, write: impl FnOnce(&mut ByteWriter)) -> u128 {
    // Room for an experiment key's inputs, the most frequent kind.
    let mut w = ByteWriter::with_capacity(2048);
    w.str(tag);
    write(&mut w);
    fingerprint128(&w.into_bytes())
}

/// Writes `value`'s `Debug` form as one length-prefixed leaf: how the
/// small option structs reach a key without a hand-written encoder, so
/// none of their fields can drop out of it.
pub(crate) fn debug_leaf(w: &mut ByteWriter, value: &dyn Debug) {
    w.str(&format!("{value:?}"));
}

/// Writes `mix` as its VM structure plus one fingerprint per profile
/// ([`LcProfile::fingerprint`](jumanji::workloads::LcProfile::fingerprint),
/// [`BatchProfile::fingerprint`](jumanji::workloads::BatchProfile::fingerprint)).
fn write_mix(w: &mut ByteWriter, mix: &WorkloadMix) {
    let WorkloadMix { vms } = mix;
    w.usize(vms.len());
    for VmWorkload { lc, batch } in vms {
        w.usize(lc.len());
        w.usize(batch.len());
        for p in lc {
            w.u128(p.fingerprint());
        }
        for p in batch {
            w.u128(p.fingerprint());
        }
    }
}

/// Writes a placement's `(bank, bytes)` pairs, bytes by bit pattern.
fn write_placement(w: &mut ByteWriter, placement: &[(BankId, f64)]) {
    w.usize(placement.len());
    for &(bank, bytes) in placement {
        w.usize(bank.0);
        w.f64(bytes);
    }
}

/// Writes every field of `alloc`, byte counts by bit pattern.
fn write_alloc(w: &mut ByteWriter, alloc: &Allocation) {
    // Exhaustive destructuring: a new field does not compile until it is
    // written.
    let Allocation {
        apps,
        pools,
        ideal_batch,
    } = alloc;
    w.usize(apps.len());
    for AppAlloc {
        app,
        placement,
        pool,
        copy,
    } in apps
    {
        w.usize(app.0);
        write_placement(w, placement);
        match pool {
            None => w.u8(0),
            Some(i) => {
                w.u8(1);
                w.usize(*i);
            }
        }
        w.u8(*copy);
    }
    w.usize(pools.len());
    for Pool { members, placement } in pools {
        w.usize(members.len());
        for m in members {
            w.usize(m.0);
        }
        write_placement(w, placement);
    }
    w.u8(u8::from(*ideal_batch));
}

/// The cache identity of an experiment: a 128-bit fingerprint of `mix`'s
/// VM structure and profile fingerprints, plus `load` and `opts`, exposed
/// so the plan pass ([`crate::figures::plan`]) can name a cell without
/// constructing it.
pub fn experiment_key(mix: &WorkloadMix, load: LcLoad, opts: &SimOptions) -> u128 {
    content_key("exp", |w| {
        debug_leaf(w, &load);
        debug_leaf(w, opts);
        write_mix(w, mix);
    })
}

/// The cache identity of a completed `(experiment, design)` run cell.
pub fn run_key(experiment_key: u128, design: DesignKind) -> u128 {
    content_key("run", |w| {
        w.u128(experiment_key);
        debug_leaf(w, &design);
    })
}

/// The cache identity of a detailed-simulator cell: a fingerprint of
/// every input [`run_detailed`] consumes, profiles by their
/// fingerprints and the allocation field by field.
pub fn detail_key(
    opts: &DetailOptions,
    profiles: &[Profile],
    cores: &[CoreId],
    vms: &[VmId],
    alloc: &Allocation,
) -> u128 {
    content_key("detail", |w| {
        debug_leaf(w, opts);
        w.usize(profiles.len());
        for profile in profiles {
            match profile {
                Profile::Batch(p) => {
                    w.u8(0);
                    w.u128(p.fingerprint());
                }
                Profile::Lc(p, load) => {
                    w.u8(1);
                    w.u128(p.fingerprint());
                    debug_leaf(w, load);
                }
            }
        }
        w.usize(cores.len());
        for core in cores {
            w.usize(core.0);
        }
        w.usize(vms.len());
        for vm in vms {
            w.usize(vm.0);
        }
        write_alloc(w, alloc);
    })
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

    /// The cell's cache identity (a kind-tagged content fingerprint).
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

    /// The process-wide cache every suite run shares.
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
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per field of the detailed cell"
    )]
    pub fn run_detail_sourced(
        &self,
        opts: &DetailOptions,
        profiles: &[Profile],
        cores: &[CoreId],
        vms: &[VmId],
        alloc: &Allocation,
        tel: &dyn Telemetry,
    ) -> (Arc<DetailReport>, RunSource) {
        let cell = DetailPlan::new(
            // A label only: the key covers the other fields.
            DesignKind::Static,
            opts.clone(),
            profiles.to_vec(),
            cores.to_vec(),
            vms.to_vec(),
            alloc.clone(),
        );
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
    use crate::spec::{ExperimentSpec, FigureKind};
    use jumanji::telemetry::{Event, NoopSink, RecordingSink};
    use jumanji::types::Seconds;
    use jumanji::workloads::curves::Component;
    use jumanji::workloads::{
        case_study_mix, spec2006, tailbench, BatchProfile, CurveShape, LcProfile,
    };

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

    /// Pairs of values a float field takes in two otherwise equal
    /// inputs: `x` against its one-ULP successor, and `0.0` against
    /// `-0.0` (equal under `==`, apart under `Debug`). Each pair must key
    /// apart.
    fn float_pairs(x: f64) -> [(f64, f64); 2] {
        [(x, x.next_up()), (0.0, -0.0)]
    }

    /// A profile's float field: its name, its value, and a setter.
    type FloatField<P> = (&'static str, f64, fn(&mut P, f64));

    /// The key of a one-VM mix of `lc` and `batch`.
    fn profiles_key(lc: &LcProfile, batch: &BatchProfile) -> u128 {
        let vm = VmWorkload {
            lc: vec![lc.clone()],
            batch: vec![batch.clone()],
        };
        let mix = WorkloadMix { vms: vec![vm] };
        experiment_key(&mix, LcLoad::High, &SimOptions::default())
    }

    #[test]
    fn every_lc_profile_field_reaches_the_experiment_key() {
        let lc = tailbench().remove(1);
        let batch = spec2006().remove(0);
        // Exhaustive destructuring: a new `LcProfile` field does not
        // compile here until it is perturbed below (`shape`: see
        // `every_curve_shape_field_reaches_the_experiment_key`).
        let LcProfile {
            name,
            qps_low,
            qps_high,
            num_queries,
            work_cycles,
            accesses_per_req,
            miss_stall,
            shape: _,
        } = lc.clone();
        let key = |p: &LcProfile| profiles_key(p, &batch);
        let renamed = LcProfile {
            name: if name == "silo" { "moses" } else { "silo" },
            ..lc.clone()
        };
        assert_ne!(key(&renamed), key(&lc), "LcProfile::name");
        let more = LcProfile {
            num_queries: num_queries + 1,
            ..lc.clone()
        };
        assert_ne!(key(&more), key(&lc), "LcProfile::num_queries");
        let floats: [FloatField<LcProfile>; 5] = [
            ("qps_low", qps_low, |p, v| p.qps_low = v),
            ("qps_high", qps_high, |p, v| p.qps_high = v),
            ("work_cycles", work_cycles, |p, v| p.work_cycles = v),
            ("accesses_per_req", accesses_per_req, |p, v| {
                p.accesses_per_req = v
            }),
            ("miss_stall", miss_stall, |p, v| p.miss_stall = v),
        ];
        for (field, x, set) in floats {
            for (a, b) in float_pairs(x) {
                let (mut pa, mut pb) = (lc.clone(), lc.clone());
                set(&mut pa, a);
                set(&mut pb, b);
                assert_ne!(key(&pa), key(&pb), "LcProfile::{field}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn every_batch_profile_field_reaches_the_experiment_key() {
        let lc = tailbench().remove(1);
        let batch = spec2006().remove(0);
        // Exhaustive destructuring, as for `LcProfile` above.
        let BatchProfile {
            name,
            llc_apki,
            base_cpi,
            shape: _,
        } = batch.clone();
        let key = |p: &BatchProfile| profiles_key(&lc, p);
        let renamed = BatchProfile {
            name: if name == "429.mcf" {
                "470.lbm"
            } else {
                "429.mcf"
            },
            ..batch.clone()
        };
        assert_ne!(key(&renamed), key(&batch), "BatchProfile::name");
        let floats: [FloatField<BatchProfile>; 2] = [
            ("llc_apki", llc_apki, |p, v| p.llc_apki = v),
            ("base_cpi", base_cpi, |p, v| p.base_cpi = v),
        ];
        for (field, x, set) in floats {
            for (a, b) in float_pairs(x) {
                let (mut pa, mut pb) = (batch.clone(), batch.clone());
                set(&mut pa, a);
                set(&mut pb, b);
                assert_ne!(key(&pa), key(&pb), "BatchProfile::{field}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn every_curve_shape_field_reaches_the_experiment_key() {
        let smooth = Component::Smooth {
            weight: 0.3,
            ws_bytes: 1 << 20,
            sharpness: 2.0,
        };
        let cliff = Component::Cliff {
            weight: 0.2,
            ws_bytes: 4 << 20,
        };
        let floor = 0.1;
        // Every field of every component, perturbed one at a time:
        // `(label, shape a, shape b)`.
        let mut pairs = Vec::new();
        for (a, b) in float_pairs(floor) {
            let shape = |f| CurveShape::new(f, vec![smooth, cliff]);
            pairs.push(("floor".to_string(), shape(a), shape(b)));
        }
        for (i, component) in [smooth, cliff].into_iter().enumerate() {
            let with = |c: Component| {
                let mut components = vec![smooth, cliff];
                components[i] = c;
                CurveShape::new(floor, components)
            };
            // Exhaustive match: a new variant or field does not compile
            // here until it is perturbed.
            let variants: Vec<(&str, Component, Component)> = match component {
                Component::Smooth {
                    weight,
                    ws_bytes,
                    sharpness,
                } => {
                    let mut v = vec![(
                        "Smooth::ws_bytes",
                        component,
                        Component::Smooth {
                            weight,
                            ws_bytes: ws_bytes + 1,
                            sharpness,
                        },
                    )];
                    for (a, b) in float_pairs(weight) {
                        let c = |weight| Component::Smooth {
                            weight,
                            ws_bytes,
                            sharpness,
                        };
                        v.push(("Smooth::weight", c(a), c(b)));
                    }
                    for (a, b) in float_pairs(sharpness) {
                        let c = |sharpness| Component::Smooth {
                            weight,
                            ws_bytes,
                            sharpness,
                        };
                        v.push(("Smooth::sharpness", c(a), c(b)));
                    }
                    v.push(("variant", component, Component::Cliff { weight, ws_bytes }));
                    v
                }
                Component::Cliff { weight, ws_bytes } => {
                    let mut v = vec![(
                        "Cliff::ws_bytes",
                        component,
                        Component::Cliff {
                            weight,
                            ws_bytes: ws_bytes + 1,
                        },
                    )];
                    for (a, b) in float_pairs(weight) {
                        let c = |weight| Component::Cliff { weight, ws_bytes };
                        v.push(("Cliff::weight", c(a), c(b)));
                    }
                    v
                }
            };
            for (label, a, b) in variants {
                pairs.push((format!("component {i}: {label}"), with(a), with(b)));
            }
        }
        let lc = tailbench().remove(1);
        let batch = spec2006().remove(0);
        for (label, a, b) in &pairs {
            let lc_with = |shape: &CurveShape| LcProfile {
                shape: shape.clone(),
                ..lc.clone()
            };
            let batch_with = |shape: &CurveShape| BatchProfile {
                shape: shape.clone(),
                ..batch.clone()
            };
            let lc_keys = [a, b].map(|s| profiles_key(&lc_with(s), &batch));
            assert_ne!(lc_keys[0], lc_keys[1], "LcProfile::shape {label}");
            let batch_keys = [a, b].map(|s| profiles_key(&lc, &batch_with(s)));
            assert_ne!(batch_keys[0], batch_keys[1], "BatchProfile::shape {label}");
        }
    }

    #[test]
    fn sensitivity_miss_stall_variants_key_apart_from_their_catalog_profile() {
        // The sensitivity study's first rows keep xapian's catalog name
        // but set its `miss_stall` to 2, 3 and 4 in `case_study_mix(0)`;
        // the catalog's is 3. Only the bit-identical variant may share
        // the catalog mix's key.
        let spec = ExperimentSpec::new(FigureKind::Sensitivity).mixes(1);
        let plan = crate::figures::plan::of(&spec).expect("plannable");
        let catalog = tailbench().remove(1);
        assert_eq!(catalog.name, "xapian");
        let mut apart = Vec::new();
        for cell in &plan.cells[..3] {
            let lc = &cell.mix.vms[0].lc[0];
            assert_eq!(lc.name, catalog.name);
            let plain = experiment_key(&case_study_mix(0), cell.load, &cell.opts);
            if lc.miss_stall.to_bits() == catalog.miss_stall.to_bits() {
                assert_eq!(cell.experiment_key(), plain, "bit-identical mixes");
            } else {
                assert_ne!(cell.experiment_key(), plain, "miss_stall {}", lc.miss_stall);
                apart.push(lc.miss_stall);
            }
        }
        assert_eq!(apart, [2.0, 4.0]);
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

        // probe_run sees disk entries; a fresh cache has no store to see
        // them in.
        let key = run_key(
            experiment_key(&case_study_mix(5), LcLoad::Low, &quick_opts()),
            DesignKind::Static,
        );
        let probe = CellCache::new();
        probe.attach_disk(Arc::new(DiskCache::open(&dir).expect("open store")));
        assert!(probe.probe_run(key));
        let throwaway = CellCache::new();
        assert!(throwaway.disk().is_none(), "a fresh cache has no store");
        assert!(!throwaway.probe_run(key));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
