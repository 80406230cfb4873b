//! Utility monitors (UMONs): sampled hardware miss-curve profilers.
//!
//! Jumanji borrows Jigsaw's UMONs \[8, 69\] to learn how each virtual cache
//! would behave at different allocations (Sec. IV-A): the monitor samples
//! ≈1 % of accesses into a small auxiliary tag directory and counts hits by
//! LRU stack position, yielding an LRU miss curve at way granularity. The
//! DRRIP curve the allocator actually uses is that curve's convex hull
//! (Talus \[7\]).
//!
//! # Examples
//!
//! ```
//! use nuca_umon::Umon;
//!
//! let mut umon = Umon::new(32, 32, 1024);
//! // A small working set that fits in a few ways.
//! for _ in 0..200 {
//!     for line in 0..512u64 {
//!         umon.observe(line);
//!     }
//! }
//! let curve = umon.lru_curve();
//! // More capacity never hurts, and the curve flattens once the set fits.
//! assert!(curve.at(32) <= curve.at(1));
//! ```

#![warn(missing_docs)]

use nuca_cache::{LineAddr, MissCurve};

/// A sampled, set-associative utility monitor.
///
/// The monitor emulates `ways`-way fully-LRU auxiliary sets for a cache
/// with `modeled_sets` sets, but only instantiates `monitor_sets` of them
/// (sampling factor `modeled_sets / monitor_sets`). Hits increment a
/// counter at the line's LRU depth; the miss curve at `w` ways is
/// `misses + Σ_{d ≥ w} hits[d]`, scaled back up by the sampling factor.
#[derive(Debug, Clone)]
pub struct Umon {
    ways: usize,
    monitor_sets: usize,
    modeled_sets: usize,
    /// One LRU array per monitored set; index 0 is MRU.
    sets: Vec<Vec<LineAddr>>,
    hit_at_depth: Vec<u64>,
    misses: u64,
    sampled: u64,
    observed: u64,
}

impl Umon {
    /// Creates a monitor with `ways` ways per set, instantiating
    /// `monitor_sets` out of `modeled_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `monitor_sets > modeled_sets`.
    pub fn new(ways: usize, monitor_sets: usize, modeled_sets: usize) -> Umon {
        assert!(ways > 0 && monitor_sets > 0 && modeled_sets > 0);
        assert!(monitor_sets <= modeled_sets);
        Umon {
            ways,
            monitor_sets,
            modeled_sets,
            sets: vec![Vec::with_capacity(ways); monitor_sets],
            hit_at_depth: vec![0; ways],
            misses: 0,
            sampled: 0,
            observed: 0,
        }
    }

    /// Number of ways the monitor models.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total accesses offered to the monitor (sampled or not).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Accesses that fell into a monitored set.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Cheap deterministic line hash (xorshift-multiply), spreading lines
    /// across modeled sets the way the VTB's hash spreads them over
    /// descriptor entries.
    #[inline]
    fn hash(line: LineAddr) -> u64 {
        let mut x = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        x ^ (x >> 29)
    }

    /// Observes one access; updates monitor state if the line maps to a
    /// monitored set.
    pub fn observe(&mut self, line: LineAddr) {
        self.observed += 1;
        let set = (Self::hash(line) % self.modeled_sets as u64) as usize;
        if !set.is_multiple_of(self.modeled_sets / self.monitor_sets) {
            return;
        }
        let mset = set / (self.modeled_sets / self.monitor_sets);
        let mset = mset % self.monitor_sets;
        self.sampled += 1;
        let arr = &mut self.sets[mset];
        if let Some(depth) = arr.iter().position(|&l| l == line) {
            arr.remove(depth);
            arr.insert(0, line);
            self.hit_at_depth[depth] += 1;
        } else {
            self.misses += 1;
            if arr.len() == self.ways {
                arr.pop();
            }
            arr.insert(0, line);
        }
    }

    /// Sampling upscale factor.
    fn scale(&self) -> f64 {
        self.modeled_sets as f64 / self.monitor_sets as f64
    }

    /// LRU miss curve at way granularity: point `w` is the estimated miss
    /// count with `w` ways. `unit_bytes` is `modeled_sets × 64` per way.
    pub fn lru_curve(&self) -> MissCurve {
        let unit_bytes = (self.modeled_sets * 64) as u64;
        let mut points = Vec::with_capacity(self.ways + 1);
        for w in 0..=self.ways {
            let reuse: u64 = self.hit_at_depth[w..].iter().sum();
            points.push((self.misses + reuse) as f64 * self.scale());
        }
        MissCurve::new(unit_bytes, points)
    }

    /// DRRIP miss-curve approximation: the convex hull of the LRU curve
    /// (Talus, paper Sec. IV-A).
    pub fn drrip_curve(&self) -> MissCurve {
        self.lru_curve().convex_hull()
    }

    /// Clears all counters and tags (done at each reconfiguration epoch).
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.hit_at_depth.fill(0);
        self.misses = 0;
        self.sampled = 0;
        self.observed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_cache::StackProfiler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn unsampled_monitor_matches_exact_profiler() {
        // With monitor_sets == modeled_sets == 1, the UMON *is* a Mattson
        // profiler truncated at `ways`.
        let mut umon = Umon::new(8, 1, 1);
        let mut exact = StackProfiler::new();
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 13 + i / 7) % 23).collect();
        for &l in &stream {
            umon.observe(l);
            exact.record(l);
        }
        let ucurve = umon.lru_curve();
        let ecurve = exact.miss_curve(1, 8);
        for w in 0..=8usize {
            assert_eq!(ucurve.at(w), ecurve.at(w), "way {w}");
        }
    }

    #[test]
    fn sampled_estimate_tracks_exact_curve() {
        let mut umon = Umon::new(16, 64, 512);
        let mut exact = StackProfiler::new();
        let mut rng = StdRng::seed_from_u64(42);
        // Zipf-ish reuse: hot region + occasional cold lines.
        for i in 0..400_000u64 {
            let line = if rng.gen_bool(0.8) {
                rng.gen_range(0..4096u64)
            } else {
                1_000_000 + i
            };
            umon.observe(line);
            exact.record(line);
        }
        let est = umon.lru_curve();
        // Exact curve at the same capacity granularity (512 sets * 1 way
        // = 512 lines per unit).
        let truth = exact.miss_curve(512, 16);
        for w in [0usize, 4, 8, 16] {
            let e = est.at(w);
            let t = truth.at(w);
            let rel = (e - t).abs() / t.max(1.0);
            assert!(rel < 0.25, "way {w}: est {e:.0} vs true {t:.0} ({rel:.2})");
        }
    }

    #[test]
    fn sampling_rate_is_close_to_nominal() {
        let mut umon = Umon::new(8, 8, 512);
        for i in 0..100_000u64 {
            umon.observe(i);
        }
        let rate = umon.sampled() as f64 / umon.observed() as f64;
        let nominal = 8.0 / 512.0;
        assert!((rate - nominal).abs() / nominal < 0.2, "rate {rate}");
    }

    #[test]
    fn drrip_curve_is_hull() {
        let mut umon = Umon::new(8, 1, 1);
        for _ in 0..100 {
            for l in 0..6u64 {
                umon.observe(l);
            }
        }
        let drrip = umon.drrip_curve();
        assert!(drrip.is_convex());
        let lru = umon.lru_curve();
        for w in 0..=8usize {
            assert!(drrip.at(w) <= lru.at(w) + 1e-9);
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut umon = Umon::new(4, 1, 1);
        umon.observe(1);
        umon.observe(1);
        umon.reset();
        assert_eq!(umon.observed(), 0);
        assert_eq!(umon.sampled(), 0);
        assert_eq!(umon.lru_curve().at(0), 0.0);
    }
}
