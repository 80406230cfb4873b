//! Integration tests for the disk-backed cell store, driven through the
//! [`CellCache`] exactly as the figure binaries drive it.
//!
//! The contract under test: whatever happens to the store's segments —
//! truncation, bit flips, a different format version, two processes
//! racing to write the same cell — a reader either gets the cached
//! result byte-identical to a fresh computation, or silently recomputes
//! it. Never a panic, never a wrong answer.

use jumanji::core::{AppKind, DesignKind, PlacementInput};
use jumanji::prelude::*;
use jumanji::sim::detail::{DetailAppStats, DetailOptions, DetailReport};
use jumanji::sim::perf::Profile;
use jumanji::sim::SimOptions;
use jumanji::telemetry::NoopSink;
use jumanji::types::{AppId, CoreId, Seconds, VmId};
use jumanji::workloads::case_study_mix;
use jumanji_bench::cell_cache::{CellCache, RunSource};
use jumanji_bench::figures::plan::DetailPlan;
use jumanji_bench::DiskCache;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The fold `build.rs` computes the store's file-name salt with.
#[path = "../build/salt.rs"]
mod salt;

fn quick_opts() -> SimOptions {
    SimOptions {
        duration: Seconds(0.4),
        ..SimOptions::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jumanji-disk-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh in-memory cache backed by the store at `dir` — the moral
/// equivalent of a new process pointed at `--cache-dir dir`.
fn cache_with(dir: &Path) -> CellCache {
    let cache = CellCache::new();
    cache.attach_disk(Arc::new(DiskCache::open(dir).expect("open store")));
    cache
}

/// Runs the one cell every test here uses and reports where the result
/// came from.
fn run_cell(cache: &CellCache) -> (String, RunSource) {
    let handle = cache.experiment(case_study_mix(7), LcLoad::High, quick_opts());
    let (result, source) = cache.run_sourced(&handle, DesignKind::Jumanji, &NoopSink);
    (format!("{result:?}"), source)
}

/// The one segment a cold run of one cell left in `dir`: its path and
/// bytes (that cell's record alone).
fn only_segment(dir: &Path) -> (PathBuf, Vec<u8>) {
    let segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list store")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    assert_eq!(segments.len(), 1, "{segments:?}");
    let bytes = std::fs::read(&segments[0]).expect("cold run wrote the segment");
    (segments[0].clone(), bytes)
}

/// Leaves `dir` holding `segment` alone, with `bytes`: the store as a
/// cold run left it, then damaged.
fn damaged_store(dir: &Path, segment: &Path, bytes: &[u8]) {
    std::fs::remove_dir_all(dir).expect("clear store");
    std::fs::create_dir_all(dir).expect("recreate store");
    std::fs::write(segment, bytes).expect("write damaged segment");
}

/// Asserts that a reader over the damaged store recomputes the cell
/// with output identical to `reference`, drops the corrupt record, and
/// leaves the store warm again for the next reader.
fn assert_recovers(dir: &Path, reference: &str, what: &str) {
    let cache = cache_with(dir);
    let (out, source) = run_cell(&cache);
    assert_eq!(source, RunSource::Computed, "{what}: must fall back");
    assert_eq!(out, reference, "{what}: recomputed output must match");
    let disk = cache.stats().disk.expect("disk attached");
    assert_eq!(disk.corrupt_dropped, 1, "{what}: corrupt entry dropped");
    assert!(disk.writes >= 1, "{what}: recomputed cell rewritten");

    // The rewrite healed the store: the next reader is warm.
    let (out, source) = run_cell(&cache_with(dir));
    assert_eq!(source, RunSource::Disk, "{what}: store must heal");
    assert_eq!(out, reference);
}

#[test]
fn corrupt_entries_recompute_identically() {
    let dir = temp_dir("corrupt");
    let (reference, source) = run_cell(&cache_with(&dir));
    assert_eq!(source, RunSource::Computed);
    let (file, pristine) = only_segment(&dir);

    // Torn record (a crash or a full disk mid-append).
    damaged_store(&dir, &file, &pristine[..pristine.len() / 2]);
    assert_recovers(&dir, &reference, "truncated");

    // Bit flip in the payload: the envelope checksum catches it.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    damaged_store(&dir, &file, &flipped);
    assert_recovers(&dir, &reference, "bad checksum");

    // A record from a different format version (bytes 4..6 of the
    // envelope hold the little-endian version).
    let mut other_version = pristine.clone();
    other_version[4] ^= 0xFF;
    damaged_store(&dir, &file, &other_version);
    assert_recovers(&dir, &reference, "wrong version");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The one detailed cell the detail-recovery test uses: the paper's
/// example placement under Jumanji, shortened to a few thousand
/// accesses.
fn detail_inputs() -> (
    DetailOptions,
    Vec<Profile>,
    Vec<CoreId>,
    Vec<VmId>,
    Allocation,
) {
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let lc = tailbench();
    let batch = spec2006();
    let profiles: Vec<Profile> = input
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| match a.kind {
            AppKind::LatencyCritical => Profile::Lc(lc[i % lc.len()].clone(), LcLoad::High),
            AppKind::Batch => Profile::Batch(batch[i % batch.len()].clone()),
        })
        .collect();
    let cores: Vec<CoreId> = input.apps.iter().map(|a| a.core).collect();
    let vms: Vec<VmId> = input.apps.iter().map(|a| a.vm).collect();
    let alloc = DesignKind::Jumanji.allocate(&input);
    let opts = DetailOptions {
        cfg,
        accesses_per_app: 2_000,
        ..DetailOptions::default()
    };
    (opts, profiles, cores, vms, alloc)
}

/// Runs that detailed cell through the cache and reports where the
/// report came from. Debug formatting prints floats shortest-roundtrip,
/// so equal strings imply bit-equal reports.
fn run_detail_cell(cache: &CellCache) -> (String, RunSource) {
    let (opts, profiles, cores, vms, alloc) = detail_inputs();
    let (report, source) =
        cache.run_detail_sourced(&opts, &profiles, &cores, &vms, &alloc, &NoopSink);
    (format!("{report:?}"), source)
}

/// [`assert_recovers`], for the detailed-simulator cell.
fn assert_detail_recovers(dir: &Path, reference: &str, what: &str) {
    let cache = cache_with(dir);
    let (out, source) = run_detail_cell(&cache);
    assert_eq!(source, RunSource::Computed, "{what}: must fall back");
    assert_eq!(out, reference, "{what}: recomputed report must match");
    let disk = cache.stats().disk.expect("disk attached");
    assert_eq!(disk.corrupt_dropped, 1, "{what}: corrupt entry dropped");
    assert!(disk.writes >= 1, "{what}: recomputed cell rewritten");

    let (out, source) = run_detail_cell(&cache_with(dir));
    assert_eq!(source, RunSource::Disk, "{what}: store must heal");
    assert_eq!(out, reference);
}

#[test]
fn corrupt_detail_entries_recompute_identically() {
    let dir = temp_dir("detail-corrupt");
    let (reference, source) = run_detail_cell(&cache_with(&dir));
    assert_eq!(source, RunSource::Computed);
    let (file, pristine) = only_segment(&dir);

    // Torn record (a crash or a full disk mid-append).
    damaged_store(&dir, &file, &pristine[..pristine.len() / 2]);
    assert_detail_recovers(&dir, &reference, "truncated");

    // Bit flip in the payload: the envelope checksum catches it.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    damaged_store(&dir, &file, &flipped);
    assert_detail_recovers(&dir, &reference, "bad checksum");

    // A record from a different format version (bytes 4..6 of the
    // envelope hold the little-endian version).
    let mut other_version = pristine.clone();
    other_version[4] ^= 0xFF;
    damaged_store(&dir, &file, &other_version);
    assert_detail_recovers(&dir, &reference, "wrong version");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Strategy for one app's counters: wide-range u64s, finite
/// non-negative float sums (the decoder rejects non-finite totals by
/// design).
fn app_stats() -> impl Strategy<Value = DetailAppStats> {
    (
        (0u64..u64::MAX, 0u64..u64::MAX, 0.0f64..1e18, 0.0f64..1e18),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(
            |(
                (accesses, misses, total_latency, total_hops),
                (port_wait, tlb_misses, writebacks),
            )| {
                DetailAppStats {
                    accesses,
                    misses,
                    total_latency,
                    total_hops,
                    port_wait,
                    tlb_misses,
                    writebacks,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any well-formed report — any counter values, any occupant sets
    /// over the report's own apps — survives the store bit-exactly.
    #[test]
    fn detail_reports_round_trip_bit_exactly(
        apps in proptest::collection::vec(app_stats(), 1..6),
        bank_seed in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 0..4), 0..8),
        key_hi in 0u64..u64::MAX,
        key_lo in 0u64..u64::MAX,
    ) {
        let key = ((key_hi as u128) << 64) | key_lo as u128;
        let napps = apps.len();
        let report = DetailReport {
            bank_occupants: bank_seed
                .iter()
                .map(|occ| occ.iter().map(|&a| AppId(a % napps)).collect())
                .collect(),
            apps,
        };
        let dir = temp_dir("detail-prop");
        let disk = DiskCache::open(&dir).expect("open store");
        disk.store_detail(key, &report);
        let loaded = disk.load::<DetailPlan>(key).expect("entry readable");
        prop_assert_eq!(format!("{:?}", loaded), format!("{:?}", report));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_writers_never_leave_torn_cells() {
    let dir = temp_dir("race");
    // Two independent caches (own memory, own store handle — the moral
    // equivalent of two processes) compute and persist the same cell
    // concurrently.
    let results: Vec<String> = std::thread::scope(|scope| {
        let dir = &dir;
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let (out, _) = run_cell(&cache_with(dir));
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .collect()
    });
    assert_eq!(results[0], results[1], "racing writers must agree");

    // Each wrote its own segment; the record served is valid and
    // byte-identical to both computations.
    let cache = cache_with(&dir);
    let (out, source) = run_cell(&cache);
    assert_eq!(source, RunSource::Disk, "store must be warm after the race");
    assert_eq!(out, results[0]);
    assert_eq!(
        cache.stats().disk.expect("disk attached").corrupt_dropped,
        0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_store_salt_sees_the_toolchain() {
    // Two compilers that differ only in their `-vV` report must salt
    // store names apart, so cells one computed never serve the other.
    let old = b"rustc 1.95.0 (59807616e 2026-04-14)\nhost: x86_64-unknown-linux-gnu\nLLVM version: 20.1.8\n";
    let new = b"rustc 1.96.0 (0a1b2c3d4 2026-05-26)\nhost: x86_64-unknown-linux-gnu\nLLVM version: 21.1.0\n";
    let salt_with = |rustc: &[u8]| {
        salt::fold([
            ("src/cell_cache.rs", &b"fn cell() {}"[..]),
            ("rustc -vV", rustc),
            ("PROFILE", b"release"),
        ])
    };
    assert_ne!(salt_with(old), salt_with(new));
    // Value lengths are folded in, so a byte cannot move between parts.
    assert_ne!(
        salt::fold([("a", &b"bc"[..]), ("d", b"")]),
        salt::fold([("a", &b"b"[..]), ("cd", b"")])
    );
}
