//! Property-based tests of the cache structures' core invariants.

use nuca_cache::{
    analytic::{assoc_penalty, shared_occupancy_into, OccupancyScratch},
    BankConfig, CacheBank, CombinedCurve, Curve, MissCurve, PartitionId, ReplPolicy, StackProfiler,
    WayMask,
};
use proptest::prelude::*;

/// A member of a combined curve. Most are exactly convex: an integer
/// start minus non-increasing gains drawn from five quarter-steps, so
/// members often tie on a gain, tails often go flat (gain 0), and short
/// domains exhaust early. The rest are arbitrary points the merge must
/// hull first.
fn arb_member() -> impl Strategy<Value = MissCurve> {
    prop_oneof![
        (0u32..4, proptest::collection::vec(0u32..5, 0..12)).prop_map(|(start, steps)| {
            let mut gains: Vec<f64> = steps.into_iter().map(|g| f64::from(g) * 0.25).collect();
            gains.sort_by(|a, b| b.total_cmp(a));
            let mut v = 12.0 + f64::from(start);
            let mut pts = vec![v];
            for g in gains {
                v -= g;
                pts.push(v);
            }
            MissCurve::new(64, pts)
        }),
        (0u32..4, proptest::collection::vec(0u32..5, 0..12)).prop_map(|(start, steps)| {
            // Equal gains throughout: every member of a set drawn from this
            // arm ties with the others at every step.
            let g = f64::from(start) * 0.5;
            MissCurve::new(
                64,
                (0..=steps.len())
                    .map(|i| 8.0 - g * i as f64 / 4.0)
                    .collect(),
            )
        }),
        proptest::collection::vec(0.0f64..1e3, 1..12).prop_map(|pts| MissCurve::new(64, pts)),
    ]
}

/// The eager greedy merge the lazy curve replaced, kept as the reference:
/// hull the non-convex members, then grant one unit at a time to the
/// last member with the largest next gain, `current -= g`.
fn reference_merge(members: &[MissCurve], cap_units: usize) -> MissCurve {
    let hulls: Vec<MissCurve> = members
        .iter()
        .map(|c| {
            if c.is_convex() {
                c.clone()
            } else {
                c.convex_hull()
            }
        })
        .collect();
    let total: usize = hulls
        .iter()
        .map(|h| h.max_units())
        .sum::<usize>()
        .min(cap_units);
    let gain_at = |h: &MissCurve, a: usize| {
        if a < h.max_units() {
            h.at(a) - h.at(a + 1)
        } else {
            f64::NEG_INFINITY
        }
    };
    let mut alloc = vec![0usize; hulls.len()];
    let mut current: f64 = hulls.iter().map(|h| h.at(0)).sum();
    let mut points = vec![current];
    for _ in 0..total {
        let mut k = 0;
        for j in 1..hulls.len() {
            if gain_at(&hulls[j], alloc[j]) >= gain_at(&hulls[k], alloc[k]) {
                k = j;
            }
        }
        current -= gain_at(&hulls[k], alloc[k]);
        alloc[k] += 1;
        points.push(current);
    }
    MissCurve::new(64, points)
}

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

    /// The lazy combined curve yields, in any query order, the full
    /// merge's points bit for bit, and merges no further than asked.
    /// Caps range below and above the members' summed domains.
    #[test]
    fn lazy_combined_curve_matches_the_full_merge(
        members in proptest::collection::vec(arb_member(), 1..5),
        cap in 0usize..60,
        queries in proptest::collection::vec(0usize..64, 1..24),
        fracs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let full = reference_merge(&members, cap);
        let eager = MissCurve::combine_convex_curve(&members, cap);
        prop_assert_eq!(eager.points().len(), full.points().len());
        for (e, f) in eager.points().iter().zip(full.points()) {
            prop_assert_eq!(e.to_bits(), f.to_bits());
        }
        let lazy = CombinedCurve::new(&members, cap);
        prop_assert_eq!(lazy.max_units(), full.max_units());
        prop_assert_eq!(lazy.merged_len(), 1);
        let first = queries[0].min(full.max_units());
        prop_assert_eq!(lazy.at(queries[0]).to_bits(), full.at(first).to_bits());
        prop_assert_eq!(lazy.merged_len(), first + 1);
        for (&q, &f) in queries.iter().zip(fracs.iter().cycle()) {
            prop_assert_eq!(lazy.at(q).to_bits(), full.at(q).to_bits(), "at {}", q);
            let u = q as f64 * 0.75 + f;
            prop_assert_eq!(
                lazy.eval_units(u).to_bits(),
                full.eval_units(u).to_bits(),
                "eval_units {}", u
            );
        }
        prop_assert_eq!(lazy.is_convex(), full.is_convex());
        // Convexity is a property of the whole curve: a fresh lazy curve
        // agrees too, whatever it has merged.
        prop_assert_eq!(CombinedCurve::new(&members, cap).is_convex(), full.is_convex());
    }

    /// A greedy merge of convex hulls is convex, which is why the lazy
    /// curve answers `is_convex` without merging: for members convex or
    /// not, at magnitudes up to absolute-miss scale, the full merge's
    /// points pass `MissCurve::new(..).is_convex()`.
    #[test]
    fn the_full_merge_of_any_members_is_convex(
        members in proptest::collection::vec(arb_member(), 1..6),
        scale in prop_oneof![Just(1.0f64), 1.0f64..1e9],
        cap in 0usize..80,
    ) {
        let members: Vec<MissCurve> = members
            .iter()
            .map(|m| MissCurve::new(64, m.points().iter().map(|p| p * scale).collect()))
            .collect();
        let lazy = CombinedCurve::new(&members, cap);
        prop_assert!(lazy.is_convex());
        prop_assert_eq!(lazy.merged_len(), 1);
        let full = MissCurve::combine_convex_curve(&members, cap);
        prop_assert!(MissCurve::new(64, full.points().to_vec()).is_convex());
    }

    /// An empty group is a flat zero curve over the cap.
    #[test]
    fn empty_combined_curve_is_flat_zero(cap in 0usize..40, q in 0.0f64..50.0) {
        let lazy = CombinedCurve::new(&[], cap);
        let flat = MissCurve::flat(64, cap, 0.0);
        prop_assert_eq!(lazy.max_units(), cap);
        prop_assert_eq!(lazy.eval_units(q).to_bits(), flat.eval_units(q).to_bits());
        prop_assert_eq!(lazy.at(q as usize).to_bits(), flat.at(q as usize).to_bits());
        prop_assert!(lazy.is_convex());
    }
}
