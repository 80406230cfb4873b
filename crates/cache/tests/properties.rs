//! Property-based tests of the cache structures' core invariants.

use nuca_cache::{
    analytic::{assoc_penalty, shared_occupancy_into, OccupancyScratch},
    BankConfig, CacheBank, MissCurve, PartitionId, ReplPolicy, StackProfiler, WayMask,
};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = ReplPolicy> {
    prop_oneof![
        Just(ReplPolicy::Lru),
        Just(ReplPolicy::Srrip),
        Just(ReplPolicy::Brrip),
        Just(ReplPolicy::Drrip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bank never reports more hits than accesses, and occupancy never
    /// exceeds capacity.
    #[test]
    fn bank_counters_are_consistent(
        policy in arb_policy(),
        stream in proptest::collection::vec(0u64..4096, 1..600),
    ) {
        let mut bank = CacheBank::new(BankConfig { sets: 16, ways: 4, policy });
        for &line in &stream {
            bank.access(line, PartitionId(0));
        }
        let s = bank.stats();
        prop_assert_eq!(s.accesses, stream.len() as u64);
        prop_assert!(s.hits <= s.accesses);
        prop_assert!(bank.occupancy(PartitionId(0)) <= 16 * 4);
    }

    /// Whatever the interleaving, a partition's lines are never evicted by
    /// another partition with a disjoint way mask.
    #[test]
    fn disjoint_masks_never_cross_evict(
        policy in arb_policy(),
        victim_lines in proptest::collection::vec(0u64..64, 1..4),
        attacker_stream in proptest::collection::vec(0u64..100_000, 1..800),
    ) {
        let mut bank = CacheBank::new(BankConfig { sets: 4, ways: 8, policy });
        bank.set_mask(PartitionId(0), WayMask::range(0, 4));
        bank.set_mask(PartitionId(1), WayMask::range(4, 4));
        // Victim loads a few lines (deduplicated; at most 4 per set fit).
        let mut mine: Vec<u64> = victim_lines.clone();
        mine.sort();
        mine.dedup();
        mine.truncate(4);
        // Keep one line per set at most to guarantee fit.
        let mut per_set = nuca_types::hash::DetSet::default();
        mine.retain(|l| per_set.insert(l % 4));
        for &l in &mine {
            bank.access(l, PartitionId(0));
        }
        for &l in &attacker_stream {
            bank.access(l + 1_000_000, PartitionId(1));
        }
        for &l in &mine {
            prop_assert!(bank.resident(l), "line {l} evicted across masks");
        }
    }

    /// Stack-distance miss curves are monotone non-increasing for any
    /// stream.
    #[test]
    fn profiler_curves_monotone(stream in proptest::collection::vec(0u64..512, 1..800)) {
        let mut p = StackProfiler::new();
        for &l in &stream {
            p.record(l);
        }
        let c = p.miss_curve(4, 32);
        for w in c.points().windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
        prop_assert_eq!(c.at(0), stream.len() as f64);
    }

    /// Convex hulls are convex, below the curve, and share endpoints.
    #[test]
    fn hull_invariants(points in proptest::collection::vec(0.0f64..1e6, 2..64)) {
        let c = MissCurve::new(64, points);
        let h = c.convex_hull();
        prop_assert!(h.is_convex());
        prop_assert!((h.at(0) - c.at(0)).abs() < 1e-9);
        let last = c.max_units();
        prop_assert!((h.at(last) - c.at(last)).abs() < 1e-9);
        for u in 0..=last {
            prop_assert!(h.at(u) <= c.at(u) + 1e-9);
        }
    }

    /// Combining convex curves conserves capacity and is never worse than
    /// an even split.
    #[test]
    fn combine_beats_even_split(
        a in proptest::collection::vec(0.0f64..1e5, 3..20),
        b in proptest::collection::vec(0.0f64..1e5, 3..20),
    ) {
        let ca = MissCurve::new(64, a);
        let cb = MissCurve::new(64, b);
        let (ha, hb) = (ca.convex_hull(), cb.convex_hull());
        let total = ha.max_units() + hb.max_units();
        let comb = MissCurve::combine_convex_curve(&[&ca, &cb], total);
        prop_assert_eq!(comb.max_units(), total);
        for t in (0..=total).step_by(3) {
            let x = t / 2;
            let y = t - x;
            let even = ha.at(x) + hb.at(y);
            prop_assert!(comb.at(t) <= even + 1e-6, "t={t}");
        }
    }

    /// Shared-occupancy equilibrium conserves capacity and stays within
    /// each sharer's footprint.
    #[test]
    fn equilibrium_conserves(
        rates in proptest::collection::vec(1.0f64..100.0, 2..6),
        total in 1.0f64..30.0,
    ) {
        let curves: Vec<MissCurve> = rates
            .iter()
            .map(|&r| {
                let pts: Vec<f64> = (0..=16).map(|u| r * 100.0 / (1.0 + u as f64)).collect();
                MissCurve::new(64, pts)
            })
            .collect();
        let mut occ = Vec::new();
        shared_occupancy_into(&curves, total, &mut occ, &mut OccupancyScratch::default());
        let sum: f64 = occ.iter().sum();
        let footprint: f64 = curves.iter().map(|c| c.max_units() as f64).sum();
        prop_assert!(sum <= total.min(footprint) + 1e-6);
        for (o, c) in occ.iter().zip(&curves) {
            prop_assert!(*o >= -1e-9 && *o <= c.max_units() as f64 + 1e-6);
        }
    }

    /// The associativity penalty is always >= 1 and monotone in ways.
    #[test]
    fn penalty_bounds(w1 in 1.0f64..64.0, w2 in 1.0f64..64.0) {
        let (lo, hi) = if w1 < w2 { (w1, w2) } else { (w2, w1) };
        prop_assert!(assoc_penalty(hi, 64) >= 1.0);
        prop_assert!(assoc_penalty(lo, 64) >= assoc_penalty(hi, 64));
    }
}
