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
//! scenario ([`Scenario`](crate::scenario::Scenario); fig04, fig08,
//! fig11, fig12).
//!
//! [`CellCache::get`] is the one read-through for every kind, over one
//! map: memory, then the attached [`DiskCache`], then `compute` with
//! write-back to both. Keys are 128-bit content fingerprints of the
//! cell's full input behind a kind tag, so two cells share an entry
//! exactly when the simulation would do identical work, and two kinds
//! never share a key. A key is composed, not formatted: a mix enters as
//! its VM structure and one bit-exact fingerprint per profile, the
//! simulation options, machine configuration and allocation field by
//! field, a design as its stable tag, and only the detailed and
//! fixed-scenario options as their `Debug` form — so naming a cell costs
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
use jumanji::core::{Allocation, AppAlloc, ControllerParams, DesignKind, Pool};
use jumanji::sim::detail::{run_detailed, DetailOptions, DetailReport};
use jumanji::sim::perf::Profile;
use jumanji::sim::{ratio_hull_cache_stats, Experiment, ExperimentResult, SimOptions};
use jumanji::telemetry::{NoopSink, Telemetry};
use jumanji::types::codec::{ByteReader, ByteWriter, CodecError};
use jumanji::types::hash::fingerprint128;
use jumanji::types::{
    BankId, CacheLevelConfig, CoreId, EnergyConfig, LlcConfig, MapStats, MemConfig, NocConfig,
    ShardedMap, SystemConfig, VmId,
};
use jumanji::workloads::{LcLoad, VmWorkload, WorkloadMix};
use std::any::Any;
use std::fmt::Debug;
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// Every cache key: a 128-bit fingerprint of the cell kind's `tag`
/// followed by the cell's inputs as `write` encodes them — field by
/// field, floats by bit pattern, workload profiles by their
/// fingerprints, and the detailed and fixed-scenario options as
/// [`debug_leaf`]s. Tags differ per kind, so two kinds never share a
/// key.
pub(crate) fn content_key(tag: &str, write: impl FnOnce(&mut ByteWriter)) -> u128 {
    // Room for an experiment key's inputs, the most frequent kind.
    let mut w = ByteWriter::with_capacity(2048);
    w.str(tag);
    write(&mut w);
    fingerprint128(&w.into_bytes())
}

/// Writes `value`'s `Debug` form as one length-prefixed leaf: how the
/// rarely keyed option structs reach a key without a hand-written
/// encoder, so none of their fields can drop out of it.
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

/// Writes a load level as a one-byte tag.
fn write_load(w: &mut ByteWriter, load: LcLoad) {
    w.u8(match load {
        LcLoad::Low => 0,
        LcLoad::High => 1,
    });
}

/// Writes every field of `cfg`, floats by bit pattern.
fn write_cfg(w: &mut ByteWriter, cfg: &SystemConfig) {
    // Exhaustive destructuring: a new field does not compile until it is
    // written.
    let SystemConfig {
        freq_hz,
        num_cores,
        mesh_cols,
        mesh_rows,
        l1,
        l2,
        llc,
        noc,
        mem,
        energy,
    } = cfg;
    w.f64(*freq_hz);
    w.usize(*num_cores);
    w.usize(*mesh_cols);
    w.usize(*mesh_rows);
    for CacheLevelConfig {
        size_bytes,
        ways,
        latency,
    } in [l1, l2]
    {
        w.u64(*size_bytes);
        w.u32(*ways);
        w.u64(latency.0);
    }
    let LlcConfig {
        num_banks,
        bank_bytes,
        ways,
        bank_latency,
        line_bytes,
        bank_ports,
    } = llc;
    w.usize(*num_banks);
    w.u64(*bank_bytes);
    w.u32(*ways);
    w.u64(bank_latency.0);
    w.u64(*line_bytes);
    w.u32(*bank_ports);
    let NocConfig {
        router_cycles,
        link_cycles,
        flit_bits,
    } = noc;
    w.u64(*router_cycles);
    w.u64(*link_cycles);
    w.u64(*flit_bits);
    let MemConfig {
        num_controllers,
        latency,
        cycles_per_line,
    } = mem;
    w.usize(*num_controllers);
    w.u64(latency.0);
    w.u64(*cycles_per_line);
    let EnergyConfig {
        l1_access_pj,
        l2_access_pj,
        llc_bank_access_pj,
        noc_hop_flit_pj,
        dram_access_pj,
    } = energy;
    w.f64(*l1_access_pj);
    w.f64(*l2_access_pj);
    w.f64(*llc_bank_access_pj);
    w.f64(*noc_hop_flit_pj);
    w.f64(*dram_access_pj);
}

/// Writes every field of `params`, floats by bit pattern.
fn write_controller(w: &mut ByteWriter, params: &ControllerParams) {
    let ControllerParams {
        percentile,
        interval,
        target_high,
        target_low,
        panic_threshold,
        step,
        panic_bytes,
        min_bytes,
        max_bytes,
    } = params;
    w.f64(*percentile);
    w.usize(*interval);
    w.f64(*target_high);
    w.f64(*target_low);
    w.f64(*panic_threshold);
    w.f64(*step);
    w.f64(*panic_bytes);
    w.f64(*min_bytes);
    w.f64(*max_bytes);
}

/// Writes every field of `opts`, floats by bit pattern.
fn write_opts(w: &mut ByteWriter, opts: &SimOptions) {
    let SimOptions {
        cfg,
        duration,
        reconfig,
        seed,
        controller,
    } = opts;
    write_cfg(w, cfg);
    w.f64(duration.0);
    w.f64(reconfig.0);
    w.u64(*seed);
    match controller {
        None => w.u8(0),
        Some(params) => {
            w.u8(1);
            write_controller(w, params);
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
/// VM structure and profile fingerprints, plus `load` and every field of
/// `opts`, exposed so the plan pass ([`crate::figures::plan`]) can name
/// a cell without constructing it.
pub fn experiment_key(mix: &WorkloadMix, load: LcLoad, opts: &SimOptions) -> u128 {
    content_key("exp", |w| {
        write_load(w, load);
        write_opts(w, opts);
        write_mix(w, mix);
    })
}

/// The cache identity of a completed `(experiment, design)` run cell:
/// the experiment's key and the design's stable
/// [`design_tag`](disk_cache::design_tag).
pub fn run_key(experiment_key: u128, design: DesignKind) -> u128 {
    content_key("run", |w| {
        w.u128(experiment_key);
        w.u8(disk_cache::design_tag(design));
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
                    write_load(w, *load);
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

/// The kinds of [`Cell`]: each names its codec envelope tag.
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
    /// The cell's kind: its envelope tag.
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
/// bounds it to `cap` bytes (`0` = unbounded; on overflow whole
/// segments are dropped, oldest first: see [`DiskCache::enforce_cap`]).
/// Only cells are read from the store:
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
mod tests;
