//! Property-based tests for the allocation algorithms: Lookahead,
//! JumanjiLookahead, the feedback controller, and LatCritPlacer.

use jumanji_core::controller::percentile;
use jumanji_core::lookahead::{jumanji_lookahead, lookahead};
use jumanji_core::{ControllerParams, DesignKind, FeedbackController, PlacementInput};
use nuca_cache::{CombinedCurve, MissCurve};
use nuca_types::SystemConfig;
use proptest::prelude::*;

fn arb_curve() -> impl Strategy<Value = MissCurve> {
    proptest::collection::vec(0.0f64..1e6, 2..40).prop_map(|pts| MissCurve::new(64, pts))
}

/// A VM's batch members: convex curves whose gains come from a few
/// quarter-steps (ties across members, flat tails), or arbitrary points.
fn arb_members() -> impl Strategy<Value = Vec<MissCurve>> {
    let member = prop_oneof![
        proptest::collection::vec(0u32..5, 0..40).prop_map(|steps| {
            let mut gains: Vec<f64> = steps.into_iter().map(|g| f64::from(g) * 0.25).collect();
            gains.sort_by(|a, b| b.total_cmp(a));
            let mut v = 40.0;
            let mut pts = vec![v];
            for g in gains {
                v -= g;
                pts.push(v);
            }
            MissCurve::new(64, pts)
        }),
        arb_curve(),
    ];
    proptest::collection::vec(member, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lookahead conserves capacity (up to curves' total headroom) and
    /// never exceeds any curve's domain.
    #[test]
    fn lookahead_conserves(
        curves in proptest::collection::vec(arb_curve(), 1..8),
        total in 0usize..200,
    ) {
        let alloc = lookahead(&curves, total);
        let sum: usize = alloc.iter().sum();
        let headroom: usize = curves.iter().map(|c| c.max_units()).sum();
        prop_assert_eq!(sum, total.min(headroom));
        for (a, c) in alloc.iter().zip(&curves) {
            prop_assert!(*a <= c.max_units());
        }
    }

    /// Lookahead's total misses never exceed a proportional split's.
    #[test]
    fn lookahead_beats_proportional(
        curves in proptest::collection::vec(arb_curve(), 2..6),
        total in 4usize..60,
    ) {
        let hulls: Vec<MissCurve> = curves.iter().map(|c| c.convex_hull()).collect();
        let alloc = lookahead(&hulls, total);
        let smart: f64 = hulls.iter().zip(&alloc).map(|(c, &a)| c.at(a)).sum();
        let even: f64 = hulls.iter().map(|c| c.at(total / hulls.len())).sum();
        // Even split may exceed headroom per curve; at() clamps, which only
        // helps the even split, so the inequality is still meaningful.
        prop_assert!(smart <= even + 1e-6, "smart {smart} vs even {even}");
    }

    /// JumanjiLookahead always assigns every bank and respects every VM's
    /// mandatory minimum.
    #[test]
    fn jumanji_lookahead_totals(
        lc in proptest::collection::vec(0.0f64..96.0, 1..6),
        seed_curves in proptest::collection::vec(arb_curve(), 1..6),
    ) {
        prop_assume!(lc.len() == seed_curves.len());
        let mandatory: usize = lc
            .iter()
            .map(|&u| ((u / 32.0).ceil() as usize).max(1))
            .sum();
        prop_assume!(mandatory <= 20);
        let banks = jumanji_lookahead(&seed_curves, &lc, 20, 32);
        prop_assert_eq!(banks.iter().sum::<usize>(), 20);
        for (v, (&b, &u)) in banks.iter().zip(&lc).enumerate() {
            prop_assert!(b as f64 * 32.0 >= u, "VM {v}: {b} banks < {u} units");
            prop_assert!(b >= 1);
        }
    }

    /// The controller's size stays within [min, max] under any sequence of
    /// tail observations.
    #[test]
    fn controller_bounded(tails in proptest::collection::vec(0.0f64..5000.0, 1..200)) {
        let params = ControllerParams::micro2020(20.0 * 1048576.0);
        let mut c = FeedbackController::new(params, 1000.0, 2.0 * 1048576.0);
        for t in tails {
            let size = c.update(t);
            c.mark_deployed();
            prop_assert!(size >= params.min_bytes - 1.0);
            prop_assert!(size <= params.max_bytes + 1.0);
        }
    }

    /// The percentile helper returns an element of the sample and is
    /// monotone in p.
    #[test]
    fn percentile_properties(
        mut xs in proptest::collection::vec(0.0f64..1e9, 1..100),
        p1 in 0.01f64..1.0,
        p2 in 0.01f64..1.0,
    ) {
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&mut xs.clone(), lo);
        let b = percentile(&mut xs.clone(), hi);
        prop_assert!(a <= b);
        prop_assert!(xs.iter().any(|&x| (x - a).abs() < 1e-12));
        let _ = xs.pop();
    }

    /// The quickselect percentile is the sorted sample's nearest-rank
    /// order statistic, bit for bit: samples drawn from a few values (so
    /// ties abound), at every rank boundary `k/n` and at a random `p`.
    #[test]
    fn percentile_is_the_sorted_order_statistic(
        xs in proptest::collection::vec(0u32..6, 1..64),
        p in 1e-6f64..1.0,
    ) {
        let xs: Vec<f64> = xs.into_iter().map(|x| f64::from(x) * 0.5).collect();
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let n = xs.len();
        let ps = (1..=n).map(|k| k as f64 / n as f64).chain([p]);
        for p in ps {
            let want = sorted[(p * n as f64).ceil() as usize - 1];
            let got = percentile(&mut xs.clone(), p);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "p={}", p);
        }
    }

    /// JumanjiLookahead and VM-Part's pool sizing (Lookahead over the VMs'
    /// combined curves) grant the same counts whether the combined curves
    /// are merged lazily or in full. A VM without members is a flat zero
    /// curve either way.
    #[test]
    fn lookahead_counts_agree_on_lazy_and_full_combined_curves(
        vms in proptest::collection::vec(arb_members(), 1..5),
        lc in proptest::collection::vec(0.0f64..8.0, 4..5),
        total in 0usize..80,
    ) {
        // 20 banks of 4 units: an 80-unit machine.
        let full: Vec<MissCurve> = vms
            .iter()
            .map(|m| {
                if m.is_empty() {
                    MissCurve::flat(64, 80, 0.0)
                } else {
                    MissCurve::combine_convex_curve(m, 80)
                }
            })
            .collect();
        let lazy = || -> Vec<CombinedCurve> {
            vms.iter().map(|m| CombinedCurve::new(m, 80)).collect()
        };
        let lc = &lc[..vms.len()];
        prop_assert_eq!(
            jumanji_lookahead(&lazy(), lc, 20, 4),
            jumanji_lookahead(&full, lc, 20, 4)
        );
        prop_assert_eq!(lookahead(&lazy(), total), lookahead(&full, total));
    }

    /// Static and Jigsaw read no LC sizes (`DesignKind::is_tail_aware`):
    /// their allocations are bit-identical under any change of
    /// `lc_sizes`, which is what lets the epoch loop's memo leave the LC
    /// sizes out of their key.
    #[test]
    fn static_and_jigsaw_ignore_lc_sizes(
        sizes in proptest::collection::vec(0.0f64..2e7, 20..21),
        rates in proptest::collection::vec(0.1f64..10.0, 20..21),
    ) {
        let cfg = SystemConfig::micro2020();
        let mut base = PlacementInput::example(&cfg);
        for (a, &r) in base.apps.iter_mut().zip(&rates) {
            a.access_rate *= r;
            a.curve = a.curve.scaled(r);
        }
        let mut moved = base.clone();
        moved.lc_sizes.copy_from_slice(&sizes);
        for design in [DesignKind::Static, DesignKind::Jigsaw] {
            prop_assert!(!design.is_tail_aware());
            prop_assert!(design.allocate(&base).bits_eq(&design.allocate(&moved)), "{}", design);
        }
    }
}
