//! The disk-backed persistent half of the experiment-cell cache.
//!
//! [`CellCache`](crate::cell_cache::CellCache) deduplicates cells inside
//! one process; this module makes the dedup survive the process. A
//! [`DiskCache`] roots a directory (`suite --cache-dir`) of append-only
//! *segments*, one per writing process: `<salt>-<pid>-<nanos>.seg`, where
//! `<salt>` fingerprints the simulator's sources and build, `<pid>` is
//! the writing process and `<nanos>` the time its store opened. A segment
//! is created at its process's first write, so a fully warm run creates
//! no file. One generic [`DiskCache::load`] / [`DiskCache::store`] pair
//! serves every [`CellKind`] — `(experiment, design)` runs, detailed
//! simulator reports and fixed scenarios — framing the [`Cell`]'s own
//! payload codec.
//!
//! A record is one versioned, checksummed envelope of
//! [`jumanji::types::codec`] whose payload leads with the cell's kind tag
//! and its 128-bit key (the key the in-memory map uses), so the checksum
//! covers both; the envelope's length field makes records
//! self-delimiting. A write is one unbuffered `write_all` of the record
//! onto the segment's `O_APPEND` handle under a lock: no temp file, no
//! rename, no fsync.
//!
//! [`DiskCache::open`] walks the record headers of every segment of the
//! current salt and indexes them by (kind, key). It keeps offsets only,
//! never segment bytes. A header that does not parse, or a record that
//! runs past its file's end (a torn tail, left by a crash or a full
//! disk), ends that segment's walk and counts one corrupt drop. Segments
//! of other salts are never read: a build from changed sources misses
//! every cell instead of serving a stale one. A key held by several
//! segments is served from the newest record that validates.
//!
//! A load reads and validates its own record only. A record that fails
//! (truncated, bit-flipped, another kind or key) counts in
//! [`DiskCacheStats::corrupt_dropped`] and leaves the index, and the next
//! newest record for the key is tried; with none left the caller
//! recomputes. A corrupt store can cost time but never correctness.
//! Floats are stored by bit pattern, so results served from disk format
//! to byte-identical TSVs.
//!
//! Writes are best-effort. The first failed segment create or append (a
//! full disk, a vanished directory) prints one warning and turns writes
//! off, so the run goes on memory-only with unchanged results
//! ([`DiskCacheStats::failed_writes`] counts it). A partial append is a
//! torn tail that the next open's walk stops at.
//!
//! Processes sharing a store each append to their own segment, so
//! nothing locks across processes. A process indexes the segments
//! present when it opened; a cell another process appends later is a
//! miss it recomputes.
//!
//! The store is bounded on request: [`DiskCache::set_cap_bytes`]
//! (`--cache-cap-bytes` on `suite`) caps the total size of the segments,
//! and [`DiskCache::enforce_cap`] drops whole segments until the store
//! fits. It drops first what no open reads: segments of other salts and
//! the per-cell directories of older store layouts (`runs/`, `details/`,
//! `scenarios/`, and `allocs/` of memoized placements). Then it drops
//! the current salt's segments, oldest first. The segment this handle
//! appends to is kept until the process ends, even alone over the cap;
//! the next process's cap drops it.
//!
//! The suite reads and writes nothing else. Two side files, `model.bin`
//! (the simulator's ratio hulls and deadlines) and `costs.bin` (measured
//! per-design node durations), are written only by the benchmark probe's
//! own executor ([`DiskCache::persist_model`], [`DiskCache::merge_costs`]),
//! each as a temp file plus a rename. Nothing checks `model.bin` against
//! the code that computed it, so the suite never seeds the simulator from
//! it: in a suite store both files are inert, and the cap never drops
//! them.
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
use jumanji::types::codec::{
    decode_entry, encode_entry, entry_len, ByteReader, ByteWriter, CodecError, HEADER_BYTES,
};
use jumanji::types::hash::{fingerprint128, DetMap, DetSet};
use jumanji::types::AppId;
use jumanji::workloads::{spec2006, tailbench};
use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, RwLock};

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
    /// Cells served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) record on disk.
    pub misses: u64,
    /// Records successfully written.
    pub writes: u64,
    /// Write attempts that failed. The first failure turns writes off
    /// (see [`DiskCache::store`]), so a store that takes no writes at
    /// all counts exactly one.
    pub failed_writes: u64,
    /// Segments and older layouts' directories the size cap dropped
    /// (see [`DiskCache::enforce_cap`]).
    pub evictions: u64,
    /// Records dropped because they failed envelope or payload
    /// validation (truncated, bad checksum, another cell, …), plus one
    /// per segment whose walk a torn tail stopped short.
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

/// The extension of a segment file.
const SEGMENT_EXT: &str = "seg";

/// The directories of older store layouts: one file per cell, and
/// memoized placements. Never read; the size cap drops them first.
const OLD_LAYOUT_DIRS: [&str; 4] = ["runs", "details", "scenarios", "allocs"];

/// A record's fixed prefix, what [`walk`] reads of each: the envelope
/// header, then the payload's leading kind tag (2 bytes) and key (16).
const RECORD_PREFIX: usize = HEADER_BYTES + 2 + 16;

/// [`walk`]'s read buffer: the only segment bytes a store holds, and
/// only while it opens.
const WALK_BUFFER: usize = 64 * 1024;

/// Where one record lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    /// Its segment: an index into [`Index::segments`].
    seg: u32,
    offset: u64,
    len: u32,
}

/// The records a store can serve, by offset: no segment bytes.
#[derive(Debug, Default)]
struct Index {
    /// Each indexed segment's path and read handle, by id; the handle is
    /// `None` once the size cap has dropped the segment.
    segments: Vec<(PathBuf, Option<Arc<File>>)>,
    /// Every indexed record by (kind tag, key), oldest first.
    cells: DetMap<(u16, u128), Vec<Loc>>,
}

impl Index {
    /// Registers a segment; returns its id.
    fn add_segment(&mut self, path: PathBuf, file: Arc<File>) -> u32 {
        self.segments.push((path, Some(file)));
        (self.segments.len() - 1) as u32
    }

    /// The newest record of `(kind, key)` and its segment's handle.
    fn newest(&self, kind: u16, key: u128) -> Option<(Loc, Arc<File>)> {
        let loc = *self.cells.get(&(kind, key))?.last()?;
        let file = self.segments[loc.seg as usize].1.clone()?;
        Some((loc, file))
    }

    /// Forgets the record at `loc`.
    fn remove(&mut self, kind: u16, key: u128, loc: Loc) {
        if let Some(locs) = self.cells.get_mut(&(kind, key)) {
            locs.retain(|l| *l != loc);
            if locs.is_empty() {
                self.cells.remove(&(kind, key));
            }
        }
    }

    /// Forgets every record of the segments at `paths`.
    fn drop_segments(&mut self, paths: &[PathBuf]) {
        let mut dead = DetSet::default();
        for (id, (path, file)) in self.segments.iter_mut().enumerate() {
            if paths.contains(path) {
                *file = None;
                dead.insert(id as u32);
            }
        }
        if !dead.is_empty() {
            self.cells.retain(|_, locs| {
                locs.retain(|l| !dead.contains(&l.seg));
                !locs.is_empty()
            });
        }
    }
}

/// Indexes the records of segment `seg` (open as `file`), up to the
/// first header that does not parse or record that runs past the file's
/// end. Returns false when that torn tail stopped the walk short.
fn walk(file: &File, seg: u32, index: &mut Index) -> bool {
    let Ok(meta) = file.metadata() else {
        return true;
    };
    let end = meta.len();
    let mut reader = BufReader::with_capacity(WALK_BUFFER, file);
    let mut head = [0u8; RECORD_PREFIX];
    let mut at = 0;
    while at < end {
        if end - at < RECORD_PREFIX as u64 || reader.read_exact(&mut head).is_err() {
            return false;
        }
        let Ok(len) = entry_len(&head) else {
            return false;
        };
        let mut r = ByteReader::new(&head[HEADER_BYTES..]);
        let (Ok(kind), Ok(key)) = (r.u16(), r.u128()) else {
            return false;
        };
        if len < RECORD_PREFIX as u64 || len > end - at || len > u64::from(u32::MAX) {
            return false;
        }
        let loc = Loc {
            seg,
            offset: at,
            len: len as u32,
        };
        index.cells.entry((kind, key)).or_default().push(loc);
        if reader
            .seek_relative((len - RECORD_PREFIX as u64) as i64)
            .is_err()
        {
            return false;
        }
        at += len;
    }
    true
}

/// The salt and time stamp a segment's file name `<salt>-<pid>-<nanos>.seg`
/// carries; `None` for any other name.
fn parse_segment(path: &Path) -> Option<(&str, u64)> {
    if path.extension()? != SEGMENT_EXT {
        return None;
    }
    let mut parts = path.file_stem()?.to_str()?.split('-');
    let (salt, _pid, nanos) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    Some((salt, nanos.parse().ok()?))
}

/// The segment-name prefix of `salt`: a fixed-width fingerprint, so any
/// salt string makes a file name.
fn salt_prefix(salt: &str) -> String {
    format!("{:016x}", fingerprint128(salt.as_bytes()) as u64)
}

/// Nanoseconds since the Unix epoch, strictly increasing within the
/// process, so two stores opened by one process never share a segment
/// name.
#[allow(
    clippy::disallowed_methods,
    reason = "a segment's name orders it by age for the size cap; no cell reads it"
)]
fn segment_nanos() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let prev = LAST
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
            Some(now.max(last + 1))
        })
        .expect("the update always succeeds");
    now.max(prev + 1)
}

/// Total bytes of the regular files under `dir`, recursively.
fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Writes `bytes` to `path` via a uniquely named temp file in the same
/// directory plus an atomic rename: how the benchmark probe's side files
/// are written.
fn write_side_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}.{}", std::process::id(), seq));
    let tmp = path.with_file_name(name);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// This handle's own segment, created at its first write.
#[derive(Debug, Default)]
struct Writer {
    /// The open segment: its handle, index id and length so far.
    open: Option<(Arc<File>, u32, u64)>,
    /// Set by the first failed write: the store takes no more.
    failed: bool,
}

/// A disk-backed, fingerprint-keyed store of completed cells (see the
/// module docs). All methods are `&self` and thread-safe; multiple
/// processes may share one directory.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    /// The segment-name prefix of the salt: [`SOURCE_SALT`], unless a
    /// test overrides it.
    prefix: String,
    /// The segment this handle appends to.
    segment: PathBuf,
    /// Total segment bytes allowed (0 = unbounded).
    cap_bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    failed_writes: AtomicU64,
    evictions: AtomicU64,
    corrupt_dropped: AtomicU64,
    index: RwLock<Index>,
    writer: Mutex<Writer>,
}

impl DiskCache {
    /// Opens (creating if needed) a store rooted at `dir`, indexing the
    /// records of every segment the current sources wrote.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or
    /// listed.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        DiskCache::open_salted(dir.into(), SOURCE_SALT)
    }

    fn open_salted(root: PathBuf, salt: &str) -> io::Result<DiskCache> {
        fs::create_dir_all(&root)?;
        let prefix = salt_prefix(salt);
        let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(&root)?
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                let (salt, nanos) = parse_segment(&path)?;
                (salt == prefix).then_some((nanos, path))
            })
            .collect();
        segments.sort();
        let mut index = Index::default();
        let mut torn = 0;
        for (_, path) in segments {
            let Ok(file) = File::open(&path) else {
                continue;
            };
            let file = Arc::new(file);
            let seg = index.add_segment(path, Arc::clone(&file));
            torn += u64::from(!walk(&file, seg, &mut index));
        }
        let name = format!(
            "{prefix}-{}-{}.{SEGMENT_EXT}",
            std::process::id(),
            segment_nanos()
        );
        Ok(DiskCache {
            segment: root.join(name),
            root,
            prefix,
            cap_bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            failed_writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(torn),
            index: RwLock::new(index),
            writer: Mutex::new(Writer::default()),
        })
    }

    /// This store as a binary built from other sources would open it:
    /// its segments are salted with `salt` instead.
    #[cfg(test)]
    pub(crate) fn with_salt(self, salt: &str) -> DiskCache {
        DiskCache::open_salted(self.root, salt).expect("reopen store")
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The segment this handle appends to. It is created at the first
    /// write, so it may not exist.
    pub fn segment(&self) -> &Path {
        &self.segment
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

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One write, best-effort: a full disk or a vanished directory costs
    /// the warm start, never the result. The first failure warns once and
    /// turns writes off; writes hold the lock, so a store that takes no
    /// writes at all fails exactly one attempt.
    fn write_with(&self, write: impl FnOnce(&mut Writer) -> io::Result<()>) {
        let mut writer = self.writer.lock().expect("store writer lock");
        if writer.failed {
            return;
        }
        match write(&mut writer) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                writer.failed = true;
                self.failed_writes.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: cannot write to --cache-dir {}: {e}; continuing memory-only",
                    self.root.display()
                );
            }
        }
    }

    /// The persisted output of the `C` cell filed under `key`, if a
    /// valid record exists.
    pub fn load<C: Cell>(&self, key: u128) -> Option<C::Output> {
        let kind = C::KIND.tag();
        let value = loop {
            let newest = self
                .index
                .read()
                .expect("store index lock")
                .newest(kind, key);
            let Some((loc, file)) = newest else {
                break None;
            };
            let mut bytes = vec![0; loc.len as usize];
            let decoded = match file.read_exact_at(&mut bytes, loc.offset) {
                Ok(()) => decode_record::<C>(key, &bytes),
                Err(_) => Err(CodecError::Truncated),
            };
            match decoded {
                Ok(value) => break Some(value),
                Err(_) => {
                    self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                    let mut index = self.index.write().expect("store index lock");
                    index.remove(kind, key, loc);
                }
            }
        };
        self.count(value.is_some());
        value
    }

    /// Persists `value`, the output of the `C` cell filed under `key`, as
    /// one record appended to this handle's segment. The first write that
    /// fails prints one warning and turns writes off: the run goes on
    /// memory-only, and its results are unchanged.
    pub fn store<C: Cell>(&self, key: u128, value: &C::Output) {
        let kind = C::KIND.tag();
        let mut w = ByteWriter::new();
        w.u16(kind);
        w.u128(key);
        C::encode(value, &mut w);
        let record = encode_entry(kind, w.into_bytes());
        self.write_with(|writer| {
            let len =
                u32::try_from(record.len()).map_err(|_| io::Error::other("record over 4 GiB"))?;
            if writer.open.is_none() {
                let file = File::options()
                    .append(true)
                    .read(true)
                    .create_new(true)
                    .open(&self.segment)?;
                let file = Arc::new(file);
                let mut index = self.index.write().expect("store index lock");
                let seg = index.add_segment(self.segment.clone(), Arc::clone(&file));
                writer.open = Some((file, seg, 0));
            }
            let (file, seg, end) = writer.open.as_mut().expect("opened above");
            (&**file).write_all(&record)?;
            let loc = Loc {
                seg: *seg,
                offset: *end,
                len,
            };
            *end += u64::from(len);
            let mut index = self.index.write().expect("store index lock");
            index.cells.entry((kind, key)).or_default().push(loc);
            Ok(())
        });
    }

    /// Cheap existence probe for a record (no validation, no hit/miss
    /// accounting). A record that later fails validation just falls back
    /// to a recompute.
    pub fn exists(&self, kind: CellKind, key: u128) -> bool {
        let index = self.index.read().expect("store index lock");
        index.cells.contains_key(&(kind.tag(), key))
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

    /// Reads and decodes the side file at `path`: `None` when it is
    /// missing, or invalid — an invalid file is deleted.
    fn read_side<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let bytes = fs::read(path).ok()?;
        decode(&bytes)
            .map_err(|_| {
                self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(path);
            })
            .ok()
    }

    /// Writes the side file at `path`, counted like a cell write.
    fn store_side(&self, path: &Path, bytes: &[u8]) {
        self.write_with(|_| write_side_file(path, bytes));
    }

    /// Warm-starts the simulator's construction memos (ratio hulls,
    /// deadline isolation runs) from `model.bin`. Returns the number of
    /// entries seeded; a corrupt file is dropped and seeds nothing. Only
    /// the benchmark probe calls this: the file is not checked against
    /// the code that computed it.
    pub fn seed_model(&self) -> usize {
        let model = self.read_side(&self.root.join("model.bin"), decode_model);
        self.count(model.is_some());
        let Some((hulls, deadlines)) = model else {
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
        if let Some((old_hulls, old_deadlines)) = self.read_side(&path, decode_model) {
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
        self.store_side(&path, &encode_model(&hulls, &deadlines));
        n
    }

    /// The measured-cost table, or the empty default when absent or
    /// invalid (a corrupt file is dropped). Read by the benchmark probe
    /// only.
    pub fn load_costs(&self) -> MeasuredCosts {
        let path = self.root.join("costs.bin");
        self.read_side(&path, decode_costs).unwrap_or_default()
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
        self.store_side(&self.root.join("costs.bin"), &encode_costs(&merged));
    }

    /// Caps the total size of the store's segments. `0` means unbounded
    /// (the default). The cap takes effect at the next
    /// [`DiskCache::enforce_cap`] call — the suite enforces it at attach
    /// time and at the end of every run.
    pub fn set_cap_bytes(&self, cap: u64) {
        self.cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// The configured size cap in bytes (`0` = unbounded).
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes.load(Ordering::Relaxed)
    }

    /// Drops whole segments until the store fits under the configured
    /// cap: first other salts' segments and older layouts' directories,
    /// then the current salt's segments, oldest first (by the time stamp
    /// in their names; ties by name, so concurrent enforcers walk one
    /// order). This handle's own segment counts but is never dropped.
    /// Returns the number of segments and directories dropped (also
    /// folded into the `evictions` counter); their cells become misses. A
    /// no-op when no cap is set or the store already fits; an unreadable
    /// entry is skipped rather than failing the run. `model.bin` and
    /// `costs.bin` are never touched.
    pub fn enforce_cap(&self) -> u64 {
        let cap = self.cap_bytes();
        if cap == 0 {
            return 0;
        }
        let Ok(dir) = fs::read_dir(&self.root) else {
            return 0;
        };
        // (rank, time stamp, path, bytes): rank 0 is what no open reads,
        // rank 1 the current salt's segments.
        let mut droppable: Vec<(u8, u64, PathBuf, u64)> = Vec::new();
        let mut total: u64 = 0;
        for entry in dir.flatten() {
            let (path, Ok(meta)) = (entry.path(), entry.metadata()) else {
                continue;
            };
            let (rank, nanos, bytes) = if meta.is_dir() {
                if !OLD_LAYOUT_DIRS.iter().any(|d| entry.file_name() == *d) {
                    continue;
                }
                (0, 0, tree_bytes(&path))
            } else {
                let Some((salt, nanos)) = parse_segment(&path) else {
                    continue;
                };
                (u8::from(salt == self.prefix), nanos, meta.len())
            };
            total += bytes;
            if path != self.segment {
                droppable.push((rank, nanos, path, bytes));
            }
        }
        if total <= cap {
            return 0;
        }
        droppable.sort();
        let mut dropped = Vec::new();
        for (rank, _, path, bytes) in droppable {
            if total <= cap {
                break;
            }
            let removed = if rank == 0 && path.is_dir() {
                fs::remove_dir_all(&path)
            } else {
                fs::remove_file(&path)
            };
            if removed.is_ok() {
                total = total.saturating_sub(bytes);
                dropped.push(path);
            }
        }
        let evicted = dropped.len() as u64;
        self.index
            .write()
            .expect("store index lock")
            .drop_segments(&dropped);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }
}

/// Validates the record `bytes` read for the `C` cell filed under `key`
/// and decodes its value.
fn decode_record<C: Cell>(key: u128, bytes: &[u8]) -> Result<C::Output, CodecError> {
    let mut r = ByteReader::new(decode_entry(C::KIND.tag(), bytes)?);
    if r.u16()? != C::KIND.tag() || r.u128()? != key {
        return Err(CodecError::Malformed("a record of another cell"));
    }
    let value = C::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests;
