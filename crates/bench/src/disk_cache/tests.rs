//! Unit tests of the disk store: codecs round-trip bit-exactly, corrupt
//! and torn records are dropped, failed writes go memory-only, and the
//! size cap drops whole segments, oldest first.
//!
//! They live outside `disk_cache.rs`, which `build.rs` salts the store
//! with, so editing a test does not make every stored cell miss.

use super::*;
use crate::scenario::{Scenario, ScenarioResult};
use jumanji::attacks::leakage::LeakageResult;
use jumanji::attacks::port::{PortAttackTrace, TimingSample};
use jumanji::sim::{Experiment, IntervalRecord, SimOptions};
use jumanji::telemetry::NoopSink;
use jumanji::types::Seconds;
use jumanji::workloads::{case_study_mix, LcLoad};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "jumanji-disk-cache-unit-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn temp_store(tag: &str) -> DiskCache {
    DiskCache::open(temp_dir(tag)).expect("open store")
}

/// Where the newest record of `kind`'s `key` lies in `store`'s index.
fn record_loc(store: &DiskCache, kind: CellKind, key: u128) -> Loc {
    let index = store.index.read().unwrap();
    *index.cells[&(kind.tag(), key)].last().unwrap()
}

/// XORs the byte `at` of the file at `path` with `mask`.
fn flip(path: &Path, at: u64, mask: u8) {
    let mut bytes = fs::read(path).unwrap();
    bytes[at as usize] ^= mask;
    fs::write(path, &bytes).unwrap();
}

/// Every `.seg` file in `dir`, sorted by name.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| parse_segment(p).is_some())
        .collect();
    out.sort();
    out
}

fn sample_result() -> ExperimentResult {
    ExperimentResult {
        design: DesignKind::Jumanji,
        lc_names: vec![intern("xapian"), intern("made-up-server")],
        lc_tail_latency_ms: vec![1.25, 0.5],
        lc_deadline_ms: vec![1.3, 0.6],
        batch_names: vec![intern("mcf")],
        batch_work: vec![1e9],
        vulnerability: 0.25,
        energy: EnergyBreakdown {
            l1: 1.0,
            l2: 2.0,
            llc: 3.0,
            noc: 4.0,
            mem: 5.0,
        },
        total_instructions: 2e9,
        coherence_refetches: 1234.5,
    }
}

#[test]
fn corrupt_entries_are_dropped_and_recomputable() {
    let store = temp_store("corrupt");
    store.store_run(1, &sample_result());
    let loc = record_loc(&store, CellKind::Run, 1);
    flip(store.segment(), loc.offset + u64::from(loc.len) / 2, 0x40);
    assert!(
        store.load::<RunCell>(1).is_none(),
        "corrupt record must miss"
    );
    assert!(
        !store.exists(CellKind::Run, 1),
        "corrupt record must leave the index"
    );
    let s = store.stats();
    assert_eq!(s.corrupt_dropped, 1);
    assert_eq!(s.evictions, 0);
    // A recompute repopulates the key with a record of its own.
    store.store_run(1, &sample_result());
    assert!(store.load::<RunCell>(1).is_some());
    let _ = fs::remove_dir_all(store.root());
}

fn sample_detail() -> DetailReport {
    DetailReport {
        apps: vec![
            DetailAppStats {
                accesses: 50_000,
                misses: 1_234,
                total_latency: 1.5e6,
                total_hops: 2.25e5,
                port_wait: 777,
                tlb_misses: 42,
                writebacks: 310,
            },
            DetailAppStats::default(),
        ],
        bank_occupants: vec![vec![AppId(0), AppId(1)], vec![], vec![AppId(1)]],
    }
}

/// Two designs' timelines over two LC apps: a mean that is `None` and
/// one that is `-0.0`, which only a bit-exact codec tells from `0.0`.
fn sample_timelines() -> ScenarioResult {
    let record = |t_ms, lc_mean_latency_ms, lc_alloc_bytes, vulnerability| IntervalRecord {
        t_ms,
        lc_mean_latency_ms,
        lc_alloc_bytes,
        vulnerability,
    };
    ScenarioResult::Timeline(vec![
        vec![
            record(100.0, vec![Some(1.0), None], vec![1048576.0, 0.0], 0.5),
            record(200.0, vec![None, Some(-0.0)], vec![-0.0, 2.5], 0.0),
        ],
        vec![],
    ])
}

fn sample_scenarios() -> Vec<ScenarioResult> {
    let sample = |at, cycles_per_access, victim_bank| TimingSample {
        at,
        cycles_per_access,
        victim_bank,
    };
    vec![
        sample_timelines(),
        ScenarioResult::TailSweep(vec![[0.25, 12.5, 1.125], [8.0, 0.5, -0.0]]),
        ScenarioResult::PortAttack(PortAttackTrace {
            samples: vec![
                sample(100, 20.25, None),
                sample(200, 33.5, Some(0)),
                sample(300, 21.0, Some(11)),
            ],
            attacker_bank: 3,
        }),
        ScenarioResult::Leakage(LeakageResult {
            snuca_norm_tails: vec![1.0, 1.0625, 1.25],
            dnuca_norm_tails: vec![0.75; 3],
        }),
    ]
}

/// `C::encode` then `C::decode`, without the store.
fn recode<C: Cell>(value: &C::Output) -> Result<C::Output, CodecError> {
    let mut w = ByteWriter::new();
    C::encode(value, &mut w);
    C::decode(&mut ByteReader::new(&w.into_bytes()))
}

/// `value` round-trips through the store bit-exactly as a `C` cell
/// filed under `key`, and a corrupted copy is dropped.
fn round_trip<C: Cell>(store: &DiskCache, key: u128, value: &C::Output) {
    assert!(store.load::<C>(key).is_none());
    assert!(!store.exists(C::KIND, key));
    store.store::<C>(key, value);
    assert!(store.exists(C::KIND, key));
    let loaded = store.load::<C>(key).expect("stored record");
    // Debug formatting covers every field, and floats round-trip by
    // bits — so the debug forms (and any TSV formatted from the
    // decoded value) are byte-identical.
    assert_eq!(format!("{value:?}"), format!("{loaded:?}"));
    let loc = record_loc(store, C::KIND, key);
    flip(store.segment(), loc.offset + u64::from(loc.len) / 2, 0x40);
    assert!(store.load::<C>(key).is_none(), "corrupt record must miss");
    assert!(
        !store.exists(C::KIND, key),
        "corrupt record must be dropped"
    );
}

#[test]
fn every_cell_kind_round_trips_through_the_store() {
    let store = temp_store("kinds");
    // One key, two kinds: each kind is indexed apart.
    round_trip::<RunCell>(&store, 7, &sample_result());
    round_trip::<DetailPlan>(&store, 7, &sample_detail());
    for (key, scenario) in sample_scenarios().iter().enumerate() {
        round_trip::<Scenario>(&store, key as u128, scenario);
    }
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.writes), (6, 12, 6));
    assert_eq!((s.corrupt_dropped, s.evictions), (6, 0));
    // Every record went to this handle's one segment.
    assert_eq!(segments(store.root()), [store.segment().to_path_buf()]);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn result_codec_round_trips_bit_exactly() {
    let original = sample_result();
    let decoded = recode::<RunCell>(&original).expect("valid payload");
    assert_eq!(format!("{original:?}"), format!("{decoded:?}"));
    // Catalog names resolve to the catalog's own static string.
    assert_eq!(
        original.lc_names[0].as_ptr(),
        decoded.lc_names[0].as_ptr(),
        "catalog names must be interned to the same static"
    );
}

#[test]
fn timeline_codec_round_trips_by_bits_and_rejects_a_bad_option_tag() {
    let original = sample_timelines();
    let decoded = recode::<Scenario>(&original).expect("valid payload");
    assert_eq!(format!("{original:?}"), format!("{decoded:?}"));
    let ScenarioResult::Timeline(timelines) = &decoded else {
        panic!("a timeline decodes as a timeline: {decoded:?}");
    };
    let means = &timelines[0][1].lc_mean_latency_ms;
    assert_eq!(means[0], None);
    assert_eq!(means[1].map(f64::to_bits), Some((-0.0f64).to_bits()));
    assert_eq!(
        timelines[0][1].lc_alloc_bytes[0].to_bits(),
        (-0.0f64).to_bits()
    );

    // The first interval's first mean is `Some`: its option tag follows
    // the scenario tag (1), the design count (4), the interval and app
    // counts (4 + 4), the time and vulnerability (8 + 8) and the two
    // allocations (2 × 8).
    let mut w = ByteWriter::new();
    Scenario::encode(&original, &mut w);
    let mut bytes = w.into_bytes();
    let tag = 1 + 4 + 4 + 4 + 8 + 8 + 2 * 8;
    assert_eq!(bytes[tag], 1, "the layout this test assumes");
    bytes[tag] = 2;
    let err = Scenario::decode(&mut ByteReader::new(&bytes)).expect_err("bad tag");
    assert_eq!(err, CodecError::Malformed("bad option tag"));
}

#[test]
fn a_run_entry_does_not_grow_with_its_interval_count() {
    // One experiment at 1 and at 40 reconfiguration intervals: a run
    // cell carries whole-run summaries only, so both encode to payloads
    // of one length (per-interval data lives in fig04's timeline cell).
    let encoded_len = |seconds: f64| {
        let opts = SimOptions {
            duration: Seconds(seconds),
            ..SimOptions::default()
        };
        let exp = Experiment::new(case_study_mix(1), LcLoad::High, opts);
        let mut w = ByteWriter::new();
        RunCell::encode(&exp.run(DesignKind::Static, &NoopSink), &mut w);
        w.into_bytes().len()
    };
    let (one, forty) = (encoded_len(0.1), encoded_len(4.0));
    assert_eq!(one, forty, "a run entry grew with its interval count");
    assert!(forty < 1024, "a run entry takes {forty} bytes");
}

#[test]
fn store_round_trips_runs() {
    let store = temp_store("roundtrip");
    let result = sample_result();
    assert!(store.load::<RunCell>(7).is_none());
    assert!(!store.has_run(7));
    store.store_run(7, &result);
    assert!(store.has_run(7));
    let loaded = store.load::<RunCell>(7).expect("stored entry");
    assert_eq!(format!("{result:?}"), format!("{loaded:?}"));

    let s = store.stats();
    assert_eq!(s.hits, 1);
    assert_eq!(s.misses, 1);
    assert_eq!(s.writes, 1);
    assert_eq!(s.corrupt_dropped, 0);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn detail_codec_round_trips_bit_exactly() {
    let original = sample_detail();
    let decoded = recode::<DetailPlan>(&original).expect("valid payload");
    assert_eq!(format!("{original:?}"), format!("{decoded:?}"));
}

#[test]
fn store_round_trips_details() {
    let store = temp_store("detail-roundtrip");
    let report = sample_detail();
    assert!(store.load::<DetailPlan>(11).is_none());
    assert!(!store.exists(CellKind::Detail, 11));
    store.store_detail(11, &report);
    assert!(store.exists(CellKind::Detail, 11));
    let loaded = store.load::<DetailPlan>(11).expect("stored entry");
    assert_eq!(format!("{report:?}"), format!("{loaded:?}"));
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn detail_decoder_rejects_dangling_occupant() {
    let mut report = sample_detail();
    report.bank_occupants[0].push(AppId(9));
    let err = recode::<DetailPlan>(&report).expect_err("dangling occupant");
    assert_eq!(err, CodecError::Malformed("occupant app out of range"));
}

#[test]
fn size_cap_evicts_oldest_entries_first() {
    // One entry per segment, each written by its own handle (a stand-in
    // for its own process): runs 0..4, oldest first, then detail 9.
    let dir = temp_dir("cap");
    for key in 0..4u128 {
        DiskCache::open(&dir)
            .unwrap()
            .store_run(key, &sample_result());
    }
    DiskCache::open(&dir)
        .unwrap()
        .store_detail(9, &sample_detail());
    let store = DiskCache::open(&dir).unwrap();
    let written = segments(&dir);
    assert_eq!(written.len(), 5);
    let entry_len = fs::metadata(&written[0]).unwrap().len();

    // Unbounded: nothing happens.
    assert_eq!(store.enforce_cap(), 0);

    // Cap to roughly two run entries: the three oldest segments go,
    // newest survive.
    store.set_cap_bytes(entry_len * 2 + entry_len / 2);
    let evicted = store.enforce_cap();
    assert!(evicted >= 2, "cap must evict, got {evicted}");
    assert!(!store.has_run(0), "oldest entry must be evicted first");
    assert!(
        store.exists(CellKind::Detail, 9),
        "newest entry must survive"
    );
    assert_eq!(store.stats().evictions, evicted);
    assert_eq!(segments(&dir), written[evicted as usize..]);

    // Within cap now: a second enforcement is a no-op, and evicted
    // cells are plain recomputable misses.
    assert_eq!(store.enforce_cap(), 0);
    assert!(store.load::<RunCell>(0).is_none());
    assert_eq!(store.stats().corrupt_dropped, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_live_segment_alone_over_the_cap_is_kept_until_its_process_ends() {
    let store = temp_store("live-cap");
    store.set_cap_bytes(1);
    store.store_run(1, &sample_result());
    // Alone over the cap, but still being appended to: kept, and it keeps
    // taking writes that later handles can read.
    assert_eq!(store.enforce_cap(), 0);
    assert!(store.segment().exists());
    store.store_run(2, &sample_result());
    assert!(store.load::<RunCell>(2).is_some());

    // The next process (a fresh handle) drops it like any old segment.
    let next = DiskCache::open(store.root()).unwrap();
    assert!(next.has_run(1) && next.has_run(2));
    next.set_cap_bytes(1);
    assert_eq!(next.enforce_cap(), 1);
    assert!(!store.segment().exists());
    assert!(next.load::<RunCell>(1).is_none(), "a dropped cell misses");
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn the_cap_drops_old_layouts_and_other_salts_before_current_segments() {
    let dir = temp_dir("old-layouts");
    // A store of the per-cell layout, with memoized placements.
    for old in OLD_LAYOUT_DIRS {
        fs::create_dir_all(dir.join(old)).unwrap();
        fs::write(dir.join(old).join(format!("{:032x}.bin", 1)), [0u8; 600]).unwrap();
    }
    // Two segments of the current sources, then a newer one of other
    // sources: the cap drops it first all the same.
    let first = DiskCache::open(&dir).unwrap();
    first.store_run(2, &sample_result());
    let second = DiskCache::open(&dir).unwrap();
    second.store_run(3, &sample_result());
    let foreign = DiskCache::open(&dir).unwrap().with_salt("other sources");
    foreign.store_run(1, &sample_result());
    assert_eq!(segments(&dir).len(), 3);

    // A per-cell file of the old layout is never read.
    let store = DiskCache::open(&dir).unwrap();
    assert!(!store.has_run(1));

    // Room for the two current segments only: everything else goes.
    let current = fs::metadata(first.segment()).unwrap().len()
        + fs::metadata(second.segment()).unwrap().len();
    store.set_cap_bytes(current);
    assert_eq!(store.enforce_cap(), 5);
    for old in OLD_LAYOUT_DIRS {
        assert!(!dir.join(old).exists(), "{old}/ survived the cap");
    }
    assert_eq!(
        segments(&dir),
        [
            first.segment().to_path_buf(),
            second.segment().to_path_buf()
        ]
    );
    assert!(store.has_run(2) && store.has_run(3));

    // Room for one: the older current segment goes.
    store.set_cap_bytes(current - 1);
    assert_eq!(store.enforce_cap(), 1);
    assert_eq!(segments(&dir), [second.segment().to_path_buf()]);
    assert!(!store.has_run(2) && store.has_run(3));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn costs_table_accumulates_across_merges() {
    let store = temp_store("costs");
    assert!(store.load_costs().is_empty());
    let mut fresh = MeasuredCosts::default();
    fresh.record_run(DesignKind::Jumanji, 10, 1000);
    fresh.record_run(DesignKind::Jumanji, 10, 3000);
    fresh.record_exp(10, 500);
    fresh.record_detail(32.0, 6400);
    store.merge_costs(&fresh);
    store.merge_costs(&fresh);
    let loaded = store.load_costs();
    assert_eq!(loaded.runs[design_tag(DesignKind::Jumanji) as usize].0, 4);
    assert_eq!(loaded.mean_run_us(DesignKind::Jumanji), Some(200.0));
    assert_eq!(loaded.mean_exp_us(), Some(50.0));
    assert_eq!(loaded.mean_detail_us(), Some(200.0));
    assert_eq!(loaded.mean_run_us(DesignKind::Static), None);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn model_file_round_trips_and_merges() {
    let store = temp_store("model");
    // Nothing persisted yet: seeding is a no-op (possibly after
    // other tests populated the process-wide memos, persist first).
    let curve = Arc::new(MissCurve::new(1024, vec![3.0, 2.0, 1.0]));
    let encoded = encode_model(&[(42u128, Arc::clone(&curve))], &[(7u128, 1000.0)]);
    let (hulls, deadlines) = decode_model(&encoded).expect("valid model");
    assert_eq!(hulls.len(), 1);
    assert_eq!(hulls[0].0, 42);
    assert_eq!(hulls[0].1.points(), curve.points());
    assert_eq!(deadlines, vec![(7, 1000.0)]);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn model_decoder_rejects_malformed_values() {
    let bad_curve = {
        let mut w = ByteWriter::new();
        w.u32(1);
        w.u128(1);
        w.u64(0); // zero unit
        w.f64s(&[1.0]);
        w.u32(0);
        encode_entry(KIND_MODEL, w.into_bytes())
    };
    assert_eq!(
        decode_model(&bad_curve),
        Err(CodecError::Malformed("zero curve unit"))
    );
    let bad_deadline = encode_model(&[], &[(1, f64::NAN)]);
    assert!(decode_model(&bad_deadline).is_err());
}

#[test]
fn concurrent_writers_never_leave_a_torn_entry() {
    // Two independent stores on the same directory (stand-ins for
    // two processes) hammer the same key while a reader validates:
    // every read must be a full valid entry or a clean miss — never
    // a decode of interleaved bytes that passes, and never a panic.
    let store_a = temp_store("race");
    let store_b = DiskCache::open(store_a.root()).expect("open second store");
    let result = sample_result();
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..200 {
                store_a.store_run(5, &result);
            }
        });
        s.spawn(|| {
            for _ in 0..200 {
                store_b.store_run(5, &result);
            }
        });
        for _ in 0..200 {
            if let Some(loaded) = store_a.load::<RunCell>(5) {
                assert_eq!(format!("{loaded:?}"), format!("{result:?}"));
            }
        }
    });
    assert_eq!(store_a.stats().corrupt_dropped, 0, "no torn entries");
    let loaded = store_b.load::<RunCell>(5).expect("final entry valid");
    assert_eq!(format!("{loaded:?}"), format!("{result:?}"));
    let _ = fs::remove_dir_all(store_a.root());
}

/// Cells as written: (kind, key, the value's debug form).
type Written = Vec<(CellKind, u128, String)>;

/// The cells the damage tests write into one segment, in write order:
/// two runs, a detailed report and every scenario.
fn damage_cells(store: &DiskCache) -> Written {
    let mut cells = Vec::new();
    for key in 0..2u128 {
        let mut result = sample_result();
        result.vulnerability += key as f64;
        store.store::<RunCell>(key, &result);
        cells.push((CellKind::Run, key, format!("{result:?}")));
    }
    store.store::<DetailPlan>(0, &sample_detail());
    cells.push((CellKind::Detail, 0, format!("{:?}", sample_detail())));
    for (key, scenario) in sample_scenarios().iter().enumerate() {
        store.store::<Scenario>(key as u128, scenario);
        cells.push((CellKind::Scenario, key as u128, format!("{scenario:?}")));
    }
    cells
}

/// What a fresh handle on `dir` serves for `kind`'s `key`, as a debug
/// form.
fn served(store: &DiskCache, kind: CellKind, key: u128) -> Option<String> {
    match kind {
        CellKind::Run => store.load::<RunCell>(key).map(|v| format!("{v:?}")),
        CellKind::Detail => store.load::<DetailPlan>(key).map(|v| format!("{v:?}")),
        CellKind::Scenario => store.load::<Scenario>(key).map(|v| format!("{v:?}")),
    }
}

/// One damage case: the segment `pristine` (whose records end at `ends`)
/// is truncated to `cut` bytes, or has its byte `at` XORed with `mask`.
/// Every cell a fresh handle serves byte-equals what was written for its
/// key; every record wholly before the damage is served; every other
/// cell misses, and a recompute then serves it.
fn check_damage(
    tag: &str,
    pristine: &[u8],
    cells: &[(CellKind, u128, String)],
    ends: &[u64],
    damage: Result<usize, (usize, u8)>,
) -> Result<(), TestCaseError> {
    let dir = temp_dir(tag);
    fs::create_dir_all(&dir).unwrap();
    let (bytes, intact) = match damage {
        Ok(cut) => (pristine[..cut].to_vec(), cut as u64),
        Err((at, mask)) => {
            let mut b = pristine.to_vec();
            b[at] ^= mask;
            (b, at as u64)
        }
    };
    let path = dir.join(format!("{}-1-1.seg", salt_prefix(SOURCE_SALT)));
    fs::write(&path, &bytes).unwrap();
    let store = DiskCache::open(&dir).unwrap();
    for ((kind, key, written), end) in cells.iter().zip(ends) {
        let got = served(&store, *kind, *key);
        if let Some(got) = &got {
            prop_assert_eq!(got, written, "{:?} {} served other bytes", kind, key);
        }
        if *end <= intact {
            prop_assert!(got.is_some(), "{:?} {} lost before the damage", kind, key);
        }
    }
    // A recompute writes the missing cells again; all are served then.
    let rewritten = DiskCache::open(&dir).unwrap();
    damage_cells(&rewritten);
    let store = DiskCache::open(&dir).unwrap();
    for (kind, key, written) in cells {
        let got = served(&store, *kind, *key);
        prop_assert_eq!(got.as_ref(), Some(written));
    }
    let _ = fs::remove_dir_all(&dir);
    Ok(())
}

/// A segment holding every kind of cell, as written (in a directory named
/// by `tag`): its bytes, its cells and where each record ends.
fn damage_fixture(tag: &str) -> (Vec<u8>, Written, Vec<u64>) {
    let writer = temp_store(&format!("{tag}-fixture"));
    let cells = damage_cells(&writer);
    let ends = cells
        .iter()
        .map(|(kind, key, _)| {
            let loc = record_loc(&writer, *kind, *key);
            loc.offset + u64::from(loc.len)
        })
        .collect();
    let bytes = fs::read(writer.segment()).unwrap();
    let _ = fs::remove_dir_all(writer.root());
    (bytes, cells, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A segment cut at any length — a crash, or a short write on a full
    /// disk — serves only bytes that were written, and every record
    /// before the cut.
    #[test]
    fn a_truncated_segment_serves_only_what_was_written(cut_frac in 0.0f64..1.0) {
        let (pristine, cells, ends) = damage_fixture("truncated");
        let cut = (cut_frac * pristine.len() as f64) as usize;
        check_damage("truncated", &pristine, &cells, &ends, Ok(cut))?;
    }

    /// A segment with any one byte flipped serves only bytes that were
    /// written, and every record before the flip.
    #[test]
    fn a_flipped_byte_serves_only_what_was_written(
        at_frac in 0.0f64..1.0,
        mask in 1u32..256,
    ) {
        let (pristine, cells, ends) = damage_fixture("flipped");
        let at = ((at_frac * pristine.len() as f64) as usize).min(pristine.len() - 1);
        check_damage("flipped", &pristine, &cells, &ends, Err((at, mask as u8)))?;
    }
}

#[test]
fn a_corrupt_record_falls_back_to_another_segments_copy() {
    let dir = temp_dir("fallback");
    // Segment B holds a valid record for key 5; the newer segment A a
    // corrupt one.
    let b = DiskCache::open(&dir).unwrap();
    b.store_run(5, &sample_result());
    let a = DiskCache::open(&dir).unwrap();
    a.store_run(5, &sample_result());
    let loc = record_loc(&a, CellKind::Run, 5);
    flip(a.segment(), loc.offset + u64::from(loc.len) - 1, 0x01);

    let store = DiskCache::open(&dir).unwrap();
    let loaded = store.load::<RunCell>(5).expect("served from B");
    assert_eq!(format!("{loaded:?}"), format!("{:?}", sample_result()));
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.corrupt_dropped), (1, 0, 1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_segment_create_warns_once_and_goes_memory_only() {
    // A directory already holds the segment's name, so creating the
    // segment fails.
    let store = temp_store("create-fails");
    fs::create_dir_all(store.segment()).unwrap();
    for key in 0..3u128 {
        store.store_run(key, &sample_result());
    }
    let s = store.stats();
    assert_eq!((s.writes, s.failed_writes), (0, 1), "{s:?}");
    assert!(store.load::<RunCell>(0).is_none());
    assert!(store.segment().is_dir(), "nothing replaced the directory");
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn a_store_that_only_reads_creates_no_file() {
    let dir = temp_dir("reads-only");
    DiskCache::open(&dir)
        .unwrap()
        .store_run(1, &sample_result());
    let before = segments(&dir);
    let reader = DiskCache::open(&dir).unwrap();
    assert!(reader.load::<RunCell>(1).is_some());
    assert!(reader.load::<RunCell>(2).is_none());
    assert!(!reader.segment().exists());
    assert_eq!(segments(&dir), before);
    let _ = fs::remove_dir_all(&dir);
}
