//! Regression proof for the process-wide ratio-hull memo.
//!
//! `exact_ratio_hull` replaced a per-thread `thread_local!` memo with a
//! shared sharded cache. Reusing a cached hull is only sound if the cached
//! value is *bit-identical* to what recomputation would produce — the
//! engine's byte-identical-TSV guarantee rides on it — so this test drives
//! the memoized path against the uncached reference (`compute_ratio_hull`)
//! over randomized profiles and compares every point by bit pattern.

use nuca_sim::perf::Profile;
use nuca_sim::{compute_ratio_hull, exact_ratio_hull};
use nuca_workloads::curves::{Component, CurveShape};
use nuca_workloads::{BatchProfile, LcLoad, LcProfile};
use proptest::prelude::*;
use std::sync::Arc;

/// A randomized two-component curve shape (one smooth working set, one
/// cliff) — cliffs make the raw curve non-convex, so the hull construction
/// actually has work to do.
fn shape(floor: f64, weight: f64, ws_kb: usize, sharpness: f64) -> CurveShape {
    CurveShape::new(
        floor,
        vec![
            Component::Smooth {
                weight,
                ws_bytes: (ws_kb * 1024) as u64,
                sharpness,
            },
            Component::Cliff {
                weight: weight * 0.5,
                ws_bytes: (ws_kb * 2048) as u64,
            },
        ],
    )
}

fn assert_hull_matches_uncached(p: &Profile, unit: u64, units: usize) {
    let cached = exact_ratio_hull(p, unit, units);
    let reference = compute_ratio_hull(p, unit, units);
    assert_eq!(cached.unit_bytes(), reference.unit_bytes());
    assert_eq!(cached.points().len(), reference.points().len());
    for (i, (c, r)) in cached.points().iter().zip(reference.points()).enumerate() {
        assert_eq!(
            c.to_bits(),
            r.to_bits(),
            "hull point {i} differs: cached {c} vs recomputed {r}"
        );
    }
    // A second lookup must reuse the very same allocation (shared memo).
    let again = exact_ratio_hull(p, unit, units);
    assert!(Arc::ptr_eq(&cached, &again), "memo must return shared Arc");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_hulls_bit_identical_to_recomputation(
        (floor, weight, ws_kb, sharpness, units) in (
            0.01f64..0.3,
            0.05f64..0.34,
            64usize..4096,
            1.0f64..4.0,
            8usize..64,
        ),
    ) {
        let p = Profile::Batch(BatchProfile {
            name: "prop.batch",
            llc_apki: 10.0 + weight * 40.0,
            base_cpi: 0.8 + floor,
            shape: shape(floor, weight, ws_kb, sharpness),
        });
        assert_hull_matches_uncached(&p, 32 * 1024, units);
    }

    #[test]
    fn lc_hulls_bit_identical_to_recomputation(
        (floor, weight, ws_kb, miss_stall, units) in (
            0.01f64..0.3,
            0.05f64..0.34,
            64usize..4096,
            1.0f64..4.0,
            8usize..64,
        ),
    ) {
        let p = Profile::Lc(
            LcProfile {
                name: "prop.lc",
                qps_low: 200.0,
                qps_high: 800.0,
                num_queries: 1000,
                work_cycles: 150_000.0,
                accesses_per_req: 900.0 + weight * 1000.0,
                miss_stall,
                shape: shape(floor, weight, ws_kb, 2.0),
            },
            LcLoad::High,
        );
        assert_hull_matches_uncached(&p, 32 * 1024, units);
    }
}

#[test]
fn real_profile_hulls_match_and_cache_counts_hits() {
    // The memo is process-wide and this file's proptests fill it
    // concurrently, so assert on growth from a snapshot: other tests can
    // only add to either counter.
    let before = nuca_sim::ratio_hull_cache_stats();
    let mut profiles = 0;
    for p in nuca_workloads::spec2006() {
        assert_hull_matches_uncached(&Profile::Batch(p), 32 * 1024, 40);
        profiles += 1;
    }
    for p in nuca_workloads::tailbench() {
        assert_hull_matches_uncached(&Profile::Lc(p, LcLoad::High), 32 * 1024, 40);
        profiles += 1;
    }
    let after = nuca_sim::ratio_hull_cache_stats();
    assert!(
        after.misses - before.misses >= profiles,
        "each real profile's hull must be computed once"
    );
    assert!(
        after.hits - before.hits >= profiles,
        "each repeat lookup must hit"
    );
}
