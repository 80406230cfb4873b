//! Unit tests of the disk store: codecs round-trip bit-exactly, corrupt
//! and torn entries are dropped, and the size cap evicts oldest first.
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

fn temp_store(tag: &str) -> DiskCache {
    let dir = std::env::temp_dir().join(format!(
        "jumanji-disk-cache-unit-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    DiskCache::open(&dir).expect("open store")
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
    let path = store.entry_path(CellKind::Run, 1);
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert!(
        store.load::<RunCell>(1).is_none(),
        "corrupt entry must miss"
    );
    assert!(!path.exists(), "corrupt entry must be deleted");
    let s = store.stats();
    assert_eq!(s.corrupt_dropped, 1);
    assert_eq!(s.evictions, 1);
    // The slot is clean again: a recompute can repopulate it.
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
    let loaded = store.load::<C>(key).expect("stored entry");
    // Debug formatting covers every field, and floats round-trip by
    // bits — so the debug forms (and any TSV formatted from the
    // decoded value) are byte-identical.
    assert_eq!(format!("{value:?}"), format!("{loaded:?}"));
    let path = store.entry_path(C::KIND, key);
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert!(store.load::<C>(key).is_none(), "corrupt entry must miss");
    assert!(!path.exists(), "corrupt entry must be deleted");
}

#[test]
fn every_cell_kind_round_trips_through_the_store() {
    let store = temp_store("kinds");
    // One key, two kinds: each kind files under its own directory.
    round_trip::<RunCell>(&store, 7, &sample_result());
    round_trip::<DetailPlan>(&store, 7, &sample_detail());
    for (key, scenario) in sample_scenarios().iter().enumerate() {
        round_trip::<Scenario>(&store, key as u128, scenario);
    }
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.writes), (6, 12, 6));
    assert_eq!((s.corrupt_dropped, s.evictions), (6, 6));
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
#[allow(
    clippy::disallowed_methods,
    reason = "the test fabricates mtimes from a wall-clock base"
)]
fn size_cap_evicts_oldest_entries_first() {
    let store = temp_store("cap");
    for key in 0..4u128 {
        store.store_run(key, &sample_result());
    }
    store.store_detail(9, &sample_detail());
    let entry_len = fs::metadata(store.entry_path(CellKind::Run, 0))
        .unwrap()
        .len();
    // Spread mtimes so the write order is unambiguous regardless of
    // filesystem timestamp granularity: key 0 oldest … detail newest.
    let base = std::time::SystemTime::now() - std::time::Duration::from_secs(100);
    for (i, path) in (0..4u128)
        .map(|k| store.entry_path(CellKind::Run, k))
        .chain([store.entry_path(CellKind::Detail, 9)])
        .enumerate()
    {
        let f = fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(base + std::time::Duration::from_secs(10 * i as u64))
            .unwrap();
    }

    // Unbounded: nothing happens.
    assert_eq!(store.enforce_cap(), 0);

    // Cap to roughly two run entries: the three oldest files go,
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

    // Within cap now: a second enforcement is a no-op, and evicted
    // cells are plain recomputable misses.
    assert_eq!(store.enforce_cap(), 0);
    assert!(store.load::<RunCell>(0).is_none());
    assert_eq!(store.stats().corrupt_dropped, 0);
    let _ = fs::remove_dir_all(store.root());
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
