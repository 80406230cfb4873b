//! Analytic cache models used by the epoch-based performance simulator.
//!
//! Two effects matter for reproducing the paper's comparisons:
//!
//! 1. **Associativity penalty** ([`assoc_penalty`]): way-partitioning
//!    restricts a partition to few ways, raising conflict misses. This is
//!    why VM-Part pays for its security (Sec. III) and why conventional
//!    way-partitioning "can only defend a small amount of data" (Sec. II-C).
//!    D-NUCA partitions at *bank* granularity, keeping full per-bank
//!    associativity.
//! 2. **Unpartitioned sharing** ([`shared_occupancy_into`]): when several
//!    applications share cache space without partitioning (the batch region
//!    in Static/Adaptive), occupancy settles where insertion (miss) rates
//!    balance. We compute that equilibrium by fixed-point iteration on the
//!    applications' miss curves — the standard LRU sharing model.

use crate::MissCurve;

/// Multiplicative miss inflation for a partition restricted to `ways` ways,
/// relative to the full associativity of `full_ways`.
///
/// The model is `1 + beta * (1/ways - 1/full_ways)`, calibrated so that very
/// narrow partitions (1–2 ways) suffer roughly 15–30 % extra misses while
/// 8+ ways are nearly penalty-free, matching the way-partitioning
/// literature the paper cites \[27, 45, 69\].
///
/// Fractional `ways` are allowed (capacity shares that do not align to way
/// boundaries); values below one way are clamped to one.
///
/// # Examples
///
/// ```
/// use nuca_cache::analytic::assoc_penalty;
/// let narrow = assoc_penalty(1.0, 32);
/// let wide = assoc_penalty(32.0, 32);
/// assert!(narrow > 1.3 && narrow < 1.5);
/// assert!((wide - 1.0).abs() < 1e-12);
/// ```
pub fn assoc_penalty(ways: f64, full_ways: u32) -> f64 {
    const BETA: f64 = 0.32;
    let w = ways.max(1.0);
    let full = full_ways as f64;
    1.0 + BETA * (1.0 / w - 1.0 / full).max(0.0)
}

/// Reusable iteration buffers for [`shared_occupancy_into`]: the epoch
/// engine resolves pool equilibria every interval, and the fixed point
/// would otherwise allocate two vectors per iteration (up to 200 per call).
#[derive(Debug, Default)]
pub struct OccupancyScratch {
    rates: Vec<f64>,
    next: Vec<f64>,
}

/// Equilibrium occupancies (in curve units) of applications sharing
/// `total_units` of unpartitioned cache, written into `occ`.
///
/// Each curve must give *absolute miss rates* (misses per unit time) as a
/// function of allocated units. At equilibrium, occupancy is proportional
/// to insertion rate, i.e. to the miss rate at that occupancy; we iterate
/// `occ_i ∝ misses_i(occ_i)` to a fixed point.
///
/// Yields one fractional occupancy per application, summing to
/// `total_units` (or less if the group's total footprint is smaller than
/// the space).
///
/// # Panics
///
/// Panics if `curves` is empty.
///
/// # Examples
///
/// ```
/// use nuca_cache::{analytic::{shared_occupancy_into, OccupancyScratch}, MissCurve};
/// let hog = MissCurve::new(1, vec![100.0, 80.0, 60.0, 40.0, 20.0]);
/// let meek = MissCurve::new(1, vec![10.0, 1.0, 0.5, 0.4, 0.3]);
/// let mut occ = Vec::new();
/// shared_occupancy_into(&[hog, meek], 4.0, &mut occ, &mut OccupancyScratch::default());
/// assert!(occ[0] > occ[1], "the high-miss-rate app occupies more");
/// ```
pub fn shared_occupancy_into(
    curves: &[MissCurve],
    total_units: f64,
    occ: &mut Vec<f64>,
    scratch: &mut OccupancyScratch,
) {
    assert!(!curves.is_empty(), "need at least one sharer");
    let n = curves.len();
    occ.clear();
    if total_units <= 0.0 {
        occ.resize(n, 0.0);
        return;
    }
    // Start from an even split.
    occ.resize(n, total_units / n as f64);
    for _ in 0..100 {
        let rates = &mut scratch.rates;
        rates.clear();
        rates.extend(
            curves
                .iter()
                .zip(occ.iter())
                .map(|(c, &o)| c.eval_units(o).max(1e-12)),
        );
        let sum: f64 = rates.iter().sum();
        let next = &mut scratch.next;
        next.clear();
        next.extend(rates.iter().map(|r| total_units * r / sum));
        // No app can occupy more than its footprint (curve domain).
        let mut overflow = 0.0;
        let mut headroom = 0.0;
        for (i, c) in curves.iter().enumerate() {
            let cap = c.max_units() as f64;
            if next[i] > cap {
                overflow += next[i] - cap;
                next[i] = cap;
            } else {
                headroom += cap - next[i];
            }
        }
        if overflow > 0.0 && headroom > 0.0 {
            for (i, c) in curves.iter().enumerate() {
                let cap = c.max_units() as f64;
                let room = cap - next[i];
                if room > 0.0 {
                    next[i] += overflow * room / headroom;
                }
            }
        }
        // Damped update for stability.
        let mut delta = 0.0;
        for i in 0..n {
            let v = 0.5 * occ[i] + 0.5 * next[i];
            delta += (v - occ[i]).abs();
            occ[i] = v;
        }
        if delta < 1e-9 * total_units.max(1.0) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupancy(curves: &[MissCurve], total_units: f64) -> Vec<f64> {
        let mut occ = Vec::new();
        shared_occupancy_into(curves, total_units, &mut occ, &mut Default::default());
        occ
    }

    #[test]
    fn assoc_penalty_monotone_in_ways() {
        let mut last = f64::INFINITY;
        for w in 1..=32 {
            let p = assoc_penalty(w as f64, 32);
            assert!(p <= last, "penalty must shrink with more ways");
            assert!(p >= 1.0);
            last = p;
        }
        assert!((assoc_penalty(32.0, 32) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assoc_penalty_clamps_below_one_way() {
        assert_eq!(assoc_penalty(0.25, 32), assoc_penalty(1.0, 32));
    }

    #[test]
    fn shared_occupancy_conserves_capacity() {
        let a = MissCurve::new(1, vec![50.0, 30.0, 20.0, 15.0, 12.0, 10.0]);
        let b = MissCurve::new(1, vec![40.0, 10.0, 5.0, 3.0, 2.0, 1.0]);
        let occ = occupancy(&[a, b], 5.0);
        let total: f64 = occ.iter().sum();
        assert!((total - 5.0).abs() < 1e-6);
        assert!(occ.iter().all(|&o| o >= 0.0));
    }

    #[test]
    fn footprint_caps_occupancy() {
        // A tiny-footprint app cannot occupy more than its curve domain.
        let tiny = MissCurve::new(1, vec![100.0, 0.0]); // 1-unit footprint
        let big = MissCurve::new(1, vec![100.0; 11]);
        let occ = occupancy(&[tiny.clone(), big], 10.0);
        assert!(occ[0] <= 1.0 + 1e-9);
        assert!((occ[0] + occ[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn equilibrium_favors_high_miss_rate() {
        // Classic pathology: a streaming app (flat high miss rate) crowds
        // out a cache-friendly app — the interference Adaptive suffers.
        let stream = MissCurve::flat(1, 10, 100.0);
        let friendly = MissCurve::new(
            1,
            vec![50.0, 20.0, 8.0, 3.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.1],
        );
        let occ = occupancy(&[stream, friendly.clone()], 10.0);
        assert!(occ[0] > 6.0, "streaming app hogs space: {occ:?}");
        // The friendly app gets less than half, so its misses exceed its
        // fair-share misses.
        let fair = friendly.eval_units(5.0);
        let actual = friendly.eval_units(occ[1]);
        assert!(actual > fair);
    }

    #[test]
    fn shared_misses_zero_capacity() {
        let a = MissCurve::new(1, vec![5.0, 1.0]);
        let occ = occupancy(std::slice::from_ref(&a), 0.0);
        assert_eq!(occ, vec![0.0]);
        assert_eq!(a.eval_units(occ[0]), 5.0);
    }

    #[test]
    fn single_sharer_gets_everything_it_can_use() {
        let a = MissCurve::new(1, vec![9.0, 4.0, 1.0]);
        let occ = occupancy(&[a], 2.0);
        assert!((occ[0] - 2.0).abs() < 1e-9);
    }
}
