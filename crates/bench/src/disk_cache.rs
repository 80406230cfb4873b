//! The disk-backed persistent half of the experiment-cell cache.
//!
//! [`CellCache`](crate::cell_cache::CellCache) deduplicates cells inside
//! one process; this module makes the dedup survive the process. A
//! [`DiskCache`] roots a directory (`suite --cache-dir`) holding one
//! file per completed cell, `<kind>/<name>.bin`: the [`CellKind`]'s
//! directory, and a fingerprint of the cell's key — the *same* 128-bit
//! key the in-memory map uses — salted with a fingerprint of the
//! simulator's sources ([`DiskCache::entry_path`]). So a cell computed by
//! any process is warm for every later process of the same build, and a
//! build from changed sources misses it instead of serving a stale
//! value. One
//! generic [`DiskCache::load`] / [`DiskCache::store`] pair serves every
//! kind, framing the [`Cell`]'s own payload codec:
//!
//! - `runs/<key>.bin` — completed [`ExperimentResult`]s: whole-run
//!   summaries of a few hundred bytes, no per-interval data;
//! - `details/<key>.bin` — completed detailed-simulator
//!   [`DetailReport`]s (the heaviest cells in the repo: fig02 and
//!   validate);
//! - `scenarios/<key>.bin` — completed fixed scenarios (fig04's
//!   per-interval timelines, fig08's sweep, fig11's port attack, fig12's
//!   leakage run).
//!
//! The suite reads and writes nothing else. Two side files,
//! `model.bin` (the simulator's ratio hulls and deadlines) and
//! `costs.bin` (measured per-design node durations), are written only
//! by the benchmark probe's own executor ([`DiskCache::persist_model`],
//! [`DiskCache::merge_costs`]). Nothing checks `model.bin` against the
//! code that computed it, so the suite never seeds the simulator from
//! it: in a suite store both files are inert.
//!
//! Every file is framed by the versioned, checksummed envelope of
//! [`jumanji::types::codec`] and written via temp-file + atomic rename, so
//! concurrent processes sharing one directory can never observe a
//! half-written entry. Reads that find a truncated, bit-flipped, or
//! stale-format file delete it and report a miss — the caller
//! recomputes; a corrupt cache can cost time but never correctness.
//! Floats are stored by bit pattern, so results served from disk format
//! to byte-identical TSVs.
//!
//! Writes are best-effort. The first write that fails (a full disk, a
//! read-only or vanished directory) prints one warning and turns writes
//! off, so the run goes on memory-only with unchanged results
//! ([`DiskCacheStats::failed_writes`] counts it).
//!
//! The store is bounded on request: [`DiskCache::set_cap_bytes`]
//! (`--cache-cap-bytes` on `suite`) caps the
//! total size of the entry files, and [`DiskCache::enforce_cap`] evicts
//! the least-recently-written entries (by mtime — every write refreshes
//! its entry's mtime, so write order approximates use order) until the
//! store fits; it never evicts `model.bin` or `costs.bin`.
//!
//! Stores written by older versions may also hold an `allocs/`
//! directory of memoized placements. Nothing reads, writes or evicts it
//! any more; it is inert and may be deleted by hand, like a suite
//! store's `model.bin` and `costs.bin`.
//!
//! The codec is hand-rolled (no serde — the workspace builds offline):
//! each domain type gets an explicit field-order encode/decode pair
//! (below, or beside its [`Cell`] impl), and any layout change must bump
//! [`codec::FORMAT_VERSION`](jumanji::types::codec::FORMAT_VERSION).

use crate::cell_cache::{Cell, CellKind, RunCell};
use crate::figures::plan::DetailPlan;
use jumanji::cache::MissCurve;
use jumanji::core::DesignKind;
use jumanji::sim::detail::{DetailAppStats, DetailReport};
use jumanji::sim::energy::EnergyBreakdown;
use jumanji::sim::{export_ratio_hulls, seed_ratio_hull, ExperimentResult};
use jumanji::types::codec::{decode_entry, encode_entry, ByteReader, ByteWriter, CodecError};
use jumanji::types::hash::{fingerprint128, DetMap, DetSet};
use jumanji::types::AppId;
use jumanji::workloads::{spec2006, tailbench};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use std::{fs, io};

/// The fingerprint of the sources that compute, key and encode cells,
/// written by this crate's `build.rs`.
const SOURCE_SALT: &str = env!("NUCA_SOURCE_SALT");

/// Envelope kind tag for the model-memo file (hulls + deadlines).
const KIND_MODEL: u16 = 3;
/// Envelope kind tag for the measured-cost table.
const KIND_COSTS: u16 = 4;

/// Number of [`DesignKind`] variants (size of the per-design cost rows).
pub const NUM_DESIGNS: usize = 7;

/// Counter snapshot of one [`DiskCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) entry on disk.
    pub misses: u64,
    /// Entries successfully written.
    pub writes: u64,
    /// Write attempts that failed. The first failure turns writes off
    /// (see [`DiskCache::store`]), so a store that takes no writes at
    /// all counts exactly one.
    pub failed_writes: u64,
    /// Cache files deleted — corruption drops plus size-cap evictions
    /// (see [`DiskCache::enforce_cap`]).
    pub evictions: u64,
    /// Entries dropped because they failed envelope or payload
    /// validation (truncated, bad checksum, wrong format version, …).
    pub corrupt_dropped: u64,
}

/// Measured per-design run costs accumulated across benchmark-probe
/// runs: `(samples, total µs-per-interval)` rows, plus one row for
/// experiment constructions. The probe stores them in `costs.bin` and
/// folds them into its own executor's cost model; the suite schedules
/// by the static priors alone.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeasuredCosts {
    /// Per-design `(samples, total µs-per-interval)`, indexed by
    /// [`design_tag`].
    pub runs: [(u64, f64); NUM_DESIGNS],
    /// Experiment constructions: `(samples, total µs-per-interval)`.
    pub exps: (u64, f64),
    /// Detailed-simulator cells: `(samples, total µs-per-work-unit)`,
    /// where one work unit is [`plan::DETAIL_UNIT_ACCESSES`] total
    /// accesses (see [`plan::detail_units`]).
    ///
    /// [`plan::DETAIL_UNIT_ACCESSES`]: crate::figures::plan::DETAIL_UNIT_ACCESSES
    /// [`plan::detail_units`]: crate::figures::plan::detail_units
    pub details: (u64, f64),
}

impl MeasuredCosts {
    /// True when no sample has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.exps.0 == 0 && self.details.0 == 0 && self.runs.iter().all(|(n, _)| *n == 0)
    }

    /// Folds another cost table into this one.
    pub fn merge(&mut self, other: &MeasuredCosts) {
        for (a, b) in self.runs.iter_mut().zip(other.runs.iter()) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.exps.0 += other.exps.0;
        self.exps.1 += other.exps.1;
        self.details.0 += other.details.0;
        self.details.1 += other.details.1;
    }

    /// Records one measured run: `us` micro-seconds for a node covering
    /// `intervals` reconfiguration intervals.
    pub fn record_run(&mut self, design: DesignKind, intervals: u64, us: u64) {
        let row = &mut self.runs[design_tag(design) as usize];
        row.0 += 1;
        row.1 += us as f64 / intervals.max(1) as f64;
    }

    /// Records one measured experiment construction.
    pub fn record_exp(&mut self, intervals: u64, us: u64) {
        self.exps.0 += 1;
        self.exps.1 += us as f64 / intervals.max(1) as f64;
    }

    /// Mean measured µs-per-interval for `design`, if any sample exists.
    pub fn mean_run_us(&self, design: DesignKind) -> Option<f64> {
        let (n, total) = self.runs[design_tag(design) as usize];
        (n > 0).then(|| total / n as f64)
    }

    /// Mean measured µs-per-interval for experiment construction.
    pub fn mean_exp_us(&self) -> Option<f64> {
        let (n, total) = self.exps;
        (n > 0).then(|| total / n as f64)
    }

    /// Records one measured detailed-simulator cell: `us` micro-seconds
    /// for a node covering `units` work units (fractions of a unit are
    /// rounded up by the caller's unit computation, never zero).
    pub fn record_detail(&mut self, units: f64, us: u64) {
        self.details.0 += 1;
        self.details.1 += us as f64 / units.max(1.0);
    }

    /// Mean measured µs-per-work-unit for detailed cells, if any sample
    /// exists.
    pub fn mean_detail_us(&self) -> Option<f64> {
        let (n, total) = self.details;
        (n > 0).then(|| total / n as f64)
    }
}

/// The stable on-disk tag of a design (array index into
/// [`MeasuredCosts::runs`]; also what run and timeline keys write for a
/// design). Never renumber these: entries written by older processes
/// key on them.
pub fn design_tag(design: DesignKind) -> u8 {
    match design {
        DesignKind::Static => 0,
        DesignKind::Adaptive => 1,
        DesignKind::VmPart => 2,
        DesignKind::Jigsaw => 3,
        DesignKind::Jumanji => 4,
        DesignKind::JumanjiInsecure => 5,
        DesignKind::JumanjiIdealBatch => 6,
    }
}

fn design_from_tag(tag: u8) -> Result<DesignKind, CodecError> {
    Ok(match tag {
        0 => DesignKind::Static,
        1 => DesignKind::Adaptive,
        2 => DesignKind::VmPart,
        3 => DesignKind::Jigsaw,
        4 => DesignKind::Jumanji,
        5 => DesignKind::JumanjiInsecure,
        6 => DesignKind::JumanjiIdealBatch,
        _ => return Err(CodecError::Malformed("unknown design tag")),
    })
}

/// Resolves a decoded app name to the `&'static str` the rest of the
/// stack expects. Names from the workload catalogs resolve to the
/// catalog's own static string through a read-only set, so decoding
/// workers never contend; anything else (a name from a future catalog)
/// is interned once, under a lock, into a process-lifetime string, so
/// the leak is bounded by the number of *distinct* names ever decoded.
fn intern(name: &str) -> &'static str {
    static CATALOG: LazyLock<DetSet<&'static str>> = LazyLock::new(|| {
        let lc = tailbench().into_iter().map(|p| p.name);
        lc.chain(spec2006().into_iter().map(|p| p.name)).collect()
    });
    static OTHERS: LazyLock<Mutex<DetMap<String, &'static str>>> = LazyLock::new(Mutex::default);
    if let Some(&s) = CATALOG.get(name) {
        return s;
    }
    let mut m = OTHERS.lock().expect("intern table lock");
    if let Some(&s) = m.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    m.insert(name.to_string(), leaked);
    leaked
}

fn encode_names(w: &mut ByteWriter, names: &[&'static str]) {
    w.u32(names.len() as u32);
    for n in names {
        w.str(n);
    }
}

fn decode_names(r: &mut ByteReader<'_>) -> Result<Vec<&'static str>, CodecError> {
    let n = r.count(4)?;
    (0..n).map(|_| Ok(intern(r.str()?))).collect()
}

fn encode_energy(w: &mut ByteWriter, e: &EnergyBreakdown) {
    w.f64(e.l1);
    w.f64(e.l2);
    w.f64(e.llc);
    w.f64(e.noc);
    w.f64(e.mem);
}

fn decode_energy(r: &mut ByteReader<'_>) -> Result<EnergyBreakdown, CodecError> {
    Ok(EnergyBreakdown {
        l1: r.f64()?,
        l2: r.f64()?,
        llc: r.f64()?,
        noc: r.f64()?,
        mem: r.f64()?,
    })
}

pub(crate) fn encode_result(w: &mut ByteWriter, result: &ExperimentResult) {
    w.u8(design_tag(result.design));
    encode_names(w, &result.lc_names);
    w.f64s(&result.lc_tail_latency_ms);
    w.f64s(&result.lc_deadline_ms);
    encode_names(w, &result.batch_names);
    w.f64s(&result.batch_work);
    w.f64(result.vulnerability);
    encode_energy(w, &result.energy);
    w.f64(result.total_instructions);
    w.f64(result.coherence_refetches);
}

pub(crate) fn decode_result(r: &mut ByteReader<'_>) -> Result<ExperimentResult, CodecError> {
    let design = design_from_tag(r.u8()?)?;
    let lc_names = decode_names(r)?;
    let lc_tail_latency_ms = r.f64s()?;
    let lc_deadline_ms = r.f64s()?;
    let batch_names = decode_names(r)?;
    let batch_work = r.f64s()?;
    let vulnerability = r.f64()?;
    let energy = decode_energy(r)?;
    let total_instructions = r.f64()?;
    let coherence_refetches = r.f64()?;
    Ok(ExperimentResult {
        design,
        lc_names,
        lc_tail_latency_ms,
        lc_deadline_ms,
        batch_names,
        batch_work,
        vulnerability,
        energy,
        total_instructions,
        coherence_refetches,
    })
}

pub(crate) fn encode_detail(w: &mut ByteWriter, report: &DetailReport) {
    w.u32(report.apps.len() as u32);
    for a in &report.apps {
        w.u64(a.accesses);
        w.u64(a.misses);
        w.f64(a.total_latency);
        w.f64(a.total_hops);
        w.u64(a.port_wait);
        w.u64(a.tlb_misses);
        w.u64(a.writebacks);
    }
    w.u32(report.bank_occupants.len() as u32);
    for occ in &report.bank_occupants {
        w.u32(occ.len() as u32);
        for app in occ {
            w.usize(app.0);
        }
    }
}

pub(crate) fn decode_detail(r: &mut ByteReader<'_>) -> Result<DetailReport, CodecError> {
    let napps = r.count(56)?;
    let mut apps = Vec::with_capacity(napps);
    for _ in 0..napps {
        let accesses = r.u64()?;
        let misses = r.u64()?;
        let total_latency = r.f64()?;
        let total_hops = r.f64()?;
        if !total_latency.is_finite() || !total_hops.is_finite() {
            return Err(CodecError::Malformed("non-finite detail total"));
        }
        apps.push(DetailAppStats {
            accesses,
            misses,
            total_latency,
            total_hops,
            port_wait: r.u64()?,
            tlb_misses: r.u64()?,
            writebacks: r.u64()?,
        });
    }
    let nbanks = r.count(4)?;
    let mut bank_occupants = Vec::with_capacity(nbanks);
    for _ in 0..nbanks {
        let n = r.count(8)?;
        let occ = (0..n)
            .map(|_| {
                let app = r.usize()?;
                if app >= apps.len() {
                    return Err(CodecError::Malformed("occupant app out of range"));
                }
                Ok(AppId(app))
            })
            .collect::<Result<Vec<_>, CodecError>>()?;
        bank_occupants.push(occ);
    }
    Ok(DetailReport {
        apps,
        bank_occupants,
    })
}

fn encode_curve(w: &mut ByteWriter, curve: &MissCurve) {
    w.u64(curve.unit_bytes());
    w.f64s(curve.points());
}

/// Decodes a miss curve, validating everything [`MissCurve::new`] would
/// panic on — a checksummed-but-malformed payload must surface as a
/// codec error, never a panic.
fn decode_curve(r: &mut ByteReader<'_>) -> Result<MissCurve, CodecError> {
    let unit = r.u64()?;
    let points = r.f64s()?;
    if unit == 0 {
        return Err(CodecError::Malformed("zero curve unit"));
    }
    if points.is_empty() {
        return Err(CodecError::Malformed("empty curve"));
    }
    if points.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(CodecError::Malformed("non-finite curve point"));
    }
    Ok(MissCurve::new(unit, points))
}

fn encode_model(hulls: &[(u128, Arc<MissCurve>)], deadlines: &[(u128, f64)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(hulls.len() as u32);
    for (key, hull) in hulls {
        w.u128(*key);
        encode_curve(&mut w, hull);
    }
    w.u32(deadlines.len() as u32);
    for (key, cycles) in deadlines {
        w.u128(*key);
        w.f64(*cycles);
    }
    encode_entry(KIND_MODEL, w.into_bytes())
}

type ModelEntries = (Vec<(u128, Arc<MissCurve>)>, Vec<(u128, f64)>);

fn decode_model(bytes: &[u8]) -> Result<ModelEntries, CodecError> {
    let payload = decode_entry(KIND_MODEL, bytes)?;
    let mut r = ByteReader::new(payload);
    let nh = r.count(16)?;
    let mut hulls = Vec::with_capacity(nh);
    for _ in 0..nh {
        let key = r.u128()?;
        hulls.push((key, Arc::new(decode_curve(&mut r)?)));
    }
    let nd = r.count(24)?;
    let mut deadlines = Vec::with_capacity(nd);
    for _ in 0..nd {
        let key = r.u128()?;
        let cycles = r.f64()?;
        if !cycles.is_finite() || cycles <= 0.0 {
            return Err(CodecError::Malformed("bad deadline"));
        }
        deadlines.push((key, cycles));
    }
    r.finish()?;
    Ok((hulls, deadlines))
}

fn encode_costs(costs: &MeasuredCosts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for (n, total) in &costs.runs {
        w.u64(*n);
        w.f64(*total);
    }
    w.u64(costs.exps.0);
    w.f64(costs.exps.1);
    w.u64(costs.details.0);
    w.f64(costs.details.1);
    encode_entry(KIND_COSTS, w.into_bytes())
}

fn decode_costs(bytes: &[u8]) -> Result<MeasuredCosts, CodecError> {
    let payload = decode_entry(KIND_COSTS, bytes)?;
    let mut r = ByteReader::new(payload);
    let mut costs = MeasuredCosts::default();
    for row in &mut costs.runs {
        row.0 = r.u64()?;
        row.1 = r.f64()?;
        if !row.1.is_finite() || row.1 < 0.0 {
            return Err(CodecError::Malformed("bad cost total"));
        }
    }
    costs.exps.0 = r.u64()?;
    costs.exps.1 = r.f64()?;
    if !costs.exps.1.is_finite() || costs.exps.1 < 0.0 {
        return Err(CodecError::Malformed("bad cost total"));
    }
    costs.details.0 = r.u64()?;
    costs.details.1 = r.f64()?;
    if !costs.details.1.is_finite() || costs.details.1 < 0.0 {
        return Err(CodecError::Malformed("bad cost total"));
    }
    r.finish()?;
    Ok(costs)
}

/// A disk-backed, fingerprint-keyed store of completed cells (see the
/// module docs). All methods are `&self` and thread-safe; multiple
/// processes may share one directory.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    /// Mixed into every entry's file name: [`SOURCE_SALT`], unless a
    /// test overrides it.
    salt: String,
    /// Total entry-file bytes allowed (0 = unbounded).
    cap_bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    failed_writes: AtomicU64,
    evictions: AtomicU64,
    corrupt_dropped: AtomicU64,
    /// Set once the first write attempt has finished.
    first_write: OnceLock<()>,
    /// Set by the first failed write: the store takes no more writes.
    memory_only: AtomicBool,
}

impl DiskCache {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory tree cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = dir.into();
        for kind in CellKind::ALL {
            fs::create_dir_all(root.join(kind.dir()))?;
        }
        Ok(DiskCache {
            root,
            salt: SOURCE_SALT.to_string(),
            cap_bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            failed_writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
            first_write: OnceLock::new(),
            memory_only: AtomicBool::new(false),
        })
    }

    /// This store as a binary built from other sources would see it:
    /// every entry name is salted with `salt` instead.
    #[cfg(test)]
    pub(crate) fn with_salt(mut self, salt: &str) -> DiskCache {
        self.salt = salt.to_string();
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            failed_writes: self.failed_writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_dropped: self.corrupt_dropped.load(Ordering::Relaxed),
        }
    }

    /// The file of `kind`'s entry `key`: `<kind>/<name>.bin`, the name a
    /// fingerprint of the source salt and `key`. A binary built from
    /// other simulator sources names every cell differently, so it
    /// misses every entry this one wrote, and those age out under the
    /// cap.
    pub fn entry_path(&self, kind: CellKind, key: u128) -> PathBuf {
        let mut w = ByteWriter::with_capacity(64);
        w.str(&self.salt);
        w.u128(key);
        let name = fingerprint128(&w.into_bytes());
        self.root.join(kind.dir()).join(format!("{name:032x}.bin"))
    }

    /// Writes `bytes` to `path` via a uniquely named temp file in the
    /// same directory plus an atomic rename, so a concurrent reader (or
    /// a crash) can never observe a partial entry. Last writer wins;
    /// both writers hold identical bytes for a given key by
    /// construction (content-addressed store).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(format!(".tmp.{}.{}", std::process::id(), seq));
        let tmp = path.with_file_name(name);
        fs::write(&tmp, bytes)?;
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Reads, validates, and decodes the file at `path`: `None` when it
    /// is missing, or invalid — an invalid file is dropped from disk.
    fn read<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let bytes = fs::read(path).ok()?;
        decode(&bytes).map_err(|_| self.drop_corrupt(path)).ok()
    }

    /// [`Self::read`], counted as a hit or a miss.
    fn load_entry<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let value = self.read(path, decode);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    fn drop_corrupt(&self, path: &Path) {
        self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        if fs::remove_file(path).is_ok() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes an entry, best-effort: a full disk or permission error
    /// costs the warm start, never the result. The first failure warns
    /// once and turns writes off. The first write runs alone, so a store
    /// that takes no writes at all fails exactly one attempt.
    fn store_entry(&self, path: &Path, bytes: &[u8]) {
        let mut first = false;
        self.first_write.get_or_init(|| {
            first = true;
            self.try_write(path, bytes);
        });
        if !first && !self.memory_only.load(Ordering::Relaxed) {
            self.try_write(path, bytes);
        }
    }

    /// One write attempt, counted.
    fn try_write(&self, path: &Path, bytes: &[u8]) {
        match self.write_atomic(path, bytes) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.failed_writes.fetch_add(1, Ordering::Relaxed);
                if !self.memory_only.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: cannot write to --cache-dir {}: {e}; continuing memory-only",
                        self.root.display()
                    );
                }
            }
        }
    }

    /// The persisted output of the `C` cell filed under `key`, if a
    /// valid entry exists.
    pub fn load<C: Cell>(&self, key: u128) -> Option<C::Output> {
        self.load_entry(&self.entry_path(C::KIND, key), |bytes| {
            let mut r = ByteReader::new(decode_entry(C::KIND.tag(), bytes)?);
            let value = C::decode(&mut r)?;
            r.finish()?;
            Ok(value)
        })
    }

    /// Persists `value`, the output of the `C` cell filed under `key`.
    /// The first write that fails prints one warning and turns writes
    /// off: the run goes on memory-only, and its results are unchanged.
    pub fn store<C: Cell>(&self, key: u128, value: &C::Output) {
        let mut w = ByteWriter::new();
        C::encode(value, &mut w);
        let bytes = encode_entry(C::KIND.tag(), w.into_bytes());
        self.store_entry(&self.entry_path(C::KIND, key), &bytes);
    }

    /// Cheap existence probe for an entry (no validation, no hit/miss
    /// accounting). A file that later fails validation just falls back
    /// to a recompute.
    pub fn exists(&self, kind: CellKind, key: u128) -> bool {
        self.entry_path(kind, key).exists()
    }

    /// [`DiskCache::exists`] for a run cell: the benchmark probe skips an
    /// experiment construction when every run on it is present.
    pub fn has_run(&self, key: u128) -> bool {
        self.exists(CellKind::Run, key)
    }

    /// [`DiskCache::store`] for a run cell.
    pub fn store_run(&self, key: u128, result: &ExperimentResult) {
        self.store::<RunCell>(key, result);
    }

    /// [`DiskCache::store`] for a detailed cell.
    pub fn store_detail(&self, key: u128, report: &DetailReport) {
        self.store::<DetailPlan>(key, report);
    }

    /// Warm-starts the simulator's construction memos (ratio hulls,
    /// deadline isolation runs) from `model.bin`. Returns the number of
    /// entries seeded; a corrupt file is dropped and seeds nothing. Only
    /// the benchmark probe calls this: the file is not checked against
    /// the code that computed it.
    pub fn seed_model(&self) -> usize {
        let path = self.root.join("model.bin");
        let Some((hulls, deadlines)) = self.load_entry(&path, decode_model) else {
            return 0;
        };
        let n = hulls.len() + deadlines.len();
        for (key, hull) in hulls {
            seed_ratio_hull(key, hull);
        }
        for (key, cycles) in deadlines {
            jumanji::sim::deadline::seed_deadline(key, cycles);
        }
        n
    }

    /// Persists the simulator's construction memos, merged with
    /// whatever `model.bin` already holds (entries are pure functions
    /// of their keys, so union order is irrelevant). Returns the entry
    /// count written. Concurrent writers can lose each other's *new*
    /// entries (read-merge-write is not transactional); the loser's
    /// entries are simply recomputed and re-persisted next run. Only the
    /// benchmark probe calls this.
    pub fn persist_model(&self) -> usize {
        let path = self.root.join("model.bin");
        let mut hulls: DetMap<u128, Arc<MissCurve>> = export_ratio_hulls().into_iter().collect();
        let mut deadlines: DetMap<u128, f64> = jumanji::sim::deadline::export_deadlines()
            .into_iter()
            .collect();
        if let Some((old_hulls, old_deadlines)) = self.read(&path, decode_model) {
            for (k, v) in old_hulls {
                hulls.entry(k).or_insert(v);
            }
            for (k, v) in old_deadlines {
                deadlines.entry(k).or_insert(v);
            }
        }
        if hulls.is_empty() && deadlines.is_empty() {
            return 0;
        }
        let mut hulls: Vec<_> = hulls.into_iter().collect();
        hulls.sort_unstable_by_key(|(k, _)| *k);
        let mut deadlines: Vec<_> = deadlines.into_iter().collect();
        deadlines.sort_unstable_by_key(|(k, _)| *k);
        let n = hulls.len() + deadlines.len();
        self.store_entry(&path, &encode_model(&hulls, &deadlines));
        n
    }

    /// The measured-cost table, or the empty default when absent or
    /// invalid (a corrupt file is dropped). Read by the benchmark probe
    /// only.
    pub fn load_costs(&self) -> MeasuredCosts {
        let path = self.root.join("costs.bin");
        self.read(&path, decode_costs).unwrap_or_default()
    }

    /// Folds freshly measured costs into `costs.bin` (read-merge-write;
    /// a concurrent writer's update may be lost, costing only sample
    /// count). Only the benchmark probe calls this.
    pub fn merge_costs(&self, fresh: &MeasuredCosts) {
        if fresh.is_empty() {
            return;
        }
        let mut merged = self.load_costs();
        merged.merge(fresh);
        self.store_entry(&self.root.join("costs.bin"), &encode_costs(&merged));
    }

    /// Caps the total size of the store's entry files (every
    /// [`CellKind`] directory). `0` means unbounded (the default). The
    /// cap takes effect at the next [`DiskCache::enforce_cap`] call —
    /// the suite enforces it at attach time and at the end of every run.
    pub fn set_cap_bytes(&self, cap: u64) {
        self.cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// The configured size cap in bytes (`0` = unbounded).
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes.load(Ordering::Relaxed)
    }

    /// Evicts the least-recently-written entries (oldest mtime first)
    /// until the entry files fit under the configured cap. Returns the
    /// number of files evicted (also folded into the `evictions`
    /// counter). A no-op when no cap is set or the store already fits;
    /// unreadable metadata is treated leniently (skip the file rather
    /// than fail the run). `model.bin`/`costs.bin` are never touched.
    pub fn enforce_cap(&self) -> u64 {
        let cap = self.cap_bytes();
        if cap == 0 {
            return 0;
        }
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        let mut total: u64 = 0;
        for kind in CellKind::ALL {
            let Ok(dir) = fs::read_dir(self.root.join(kind.dir())) else {
                continue;
            };
            for entry in dir.flatten() {
                let Ok(meta) = entry.metadata() else {
                    continue;
                };
                if !meta.is_file() {
                    continue;
                }
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                total += meta.len();
                entries.push((entry.path(), meta.len(), mtime));
            }
        }
        if total <= cap {
            return 0;
        }
        // Oldest first; ties broken by path so concurrent enforcers
        // walk the same order.
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut evicted = 0;
        for (path, len, _) in entries {
            if total <= cap {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }
}

#[cfg(test)]
mod tests;
