//! Mattson LRU stack-distance profiling.
//!
//! [`StackProfiler`] observes a stream of line addresses and produces the
//! exact LRU miss curve at any capacity granularity in one pass. The
//! hardware UMONs (`nuca-umon`) are sampled versions of this structure, and
//! the paper measures LRU curves precisely because DRRIP's curve can then be
//! approximated by their convex hull (Talus, Sec. IV-A).

use crate::{LineAddr, MissCurve};
use nuca_types::hash::DetMap;

/// One-pass LRU stack-distance profiler (Mattson's algorithm).
///
/// Instead of materializing the LRU stack as a `Vec` and paying an O(n)
/// scan-and-shift per access, the profiler keeps an *order-statistic*
/// view of it: a Fenwick (binary-indexed) tree over access positions, in
/// which bit *t* is set iff position *t* is the most recent access of
/// some line. The stack depth of a reuse is then "how many distinct lines
/// were touched since this line's last access" — a prefix-sum difference,
/// O(log n) — and moving a line to the top of the stack is one bit clear
/// plus one bit append.
///
/// # Examples
///
/// ```
/// use nuca_cache::StackProfiler;
/// let mut p = StackProfiler::new();
/// for _ in 0..10 {
///     for line in 0..4u64 {
///         p.record(line);
///     }
/// }
/// // With >= 4 lines of capacity, only the 4 cold misses remain.
/// let curve = p.miss_curve(1, 8);
/// assert_eq!(curve.at(4), 4.0);
/// assert_eq!(curve.at(3), 4.0 + 9.0 * 4.0); // each iteration re-misses all 4
/// ```
#[derive(Debug, Default, Clone)]
pub struct StackProfiler {
    /// Fenwick tree over positions `1..=accesses` (1-indexed; slot 0
    /// unused). Node `t` stores the count of set bits in
    /// `(t - lowbit(t), t]`.
    tree: Vec<u32>,
    /// Most recent access position of each line seen so far (1-based).
    last: DetMap<LineAddr, usize>,
    /// Histogram of reuse distances (in lines).
    hist: Vec<u64>,
    /// Cold (first-touch) accesses.
    cold: u64,
    accesses: u64,
}

impl StackProfiler {
    /// Creates an empty profiler.
    pub fn new() -> StackProfiler {
        StackProfiler {
            tree: vec![0],
            ..StackProfiler::default()
        }
    }

    /// Number of accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of cold misses observed.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Number of distinct lines observed (the footprint).
    pub fn footprint_lines(&self) -> usize {
        self.last.len()
    }

    /// Count of set bits in positions `1..=t`.
    #[inline]
    fn prefix(&self, mut t: usize) -> u32 {
        let mut sum = 0;
        while t > 0 {
            sum += self.tree[t];
            t -= t & t.wrapping_neg();
        }
        sum
    }

    /// Clears the bit at position `p`.
    #[inline]
    fn clear(&mut self, mut p: usize) {
        let n = self.tree.len() - 1;
        while p <= n {
            self.tree[p] -= 1;
            p += p & p.wrapping_neg();
        }
    }

    /// Appends a set bit at the next position (the classic Fenwick append:
    /// the new node's value is derived from the prefix sums already in the
    /// tree, so no rebuild is needed as the trace grows).
    #[inline]
    fn append_set(&mut self) {
        let t = self.tree.len();
        let lowbit = t & t.wrapping_neg();
        let node = 1 + self.prefix(t - 1) - self.prefix(t - lowbit);
        self.tree.push(node);
    }

    /// Records one access and returns its stack distance in lines
    /// (`None` for a cold first touch).
    pub fn record(&mut self, line: LineAddr) -> Option<usize> {
        self.accesses += 1;
        if self.tree.is_empty() {
            // A profiler built via `Default` rather than `new`.
            self.tree.push(0);
        }
        let t = self.tree.len(); // position of this access (1-based)
        match self.last.entry(line) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(t);
                self.cold += 1;
                self.append_set();
                None
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let p = *e.get();
                e.insert(t);
                // Depth = distinct lines whose latest access is after `p`.
                let depth = (self.prefix(t - 1) - self.prefix(p)) as usize;
                self.clear(p);
                self.append_set();
                if self.hist.len() <= depth {
                    self.hist.resize(depth + 1, 0);
                }
                self.hist[depth] += 1;
                Some(depth)
            }
        }
    }

    /// Builds the LRU miss curve: point `i` is the number of misses a
    /// fully-associative LRU cache of `i * lines_per_unit` lines would have
    /// incurred on the observed stream.
    ///
    /// `units` is the number of capacity points beyond zero; `unit_bytes`
    /// of the resulting [`MissCurve`] is `lines_per_unit * 64`.
    ///
    /// # Panics
    ///
    /// Panics if `lines_per_unit == 0`.
    pub fn miss_curve(&self, lines_per_unit: usize, units: usize) -> MissCurve {
        assert!(lines_per_unit > 0, "lines_per_unit must be nonzero");
        // suffix[d] = number of accesses with stack distance >= d.
        let maxd = self.hist.len();
        let mut points = Vec::with_capacity(units + 1);
        for u in 0..=units {
            let cap_lines = u * lines_per_unit;
            let reuse_misses: u64 = if cap_lines >= maxd {
                0
            } else {
                self.hist[cap_lines..].iter().sum()
            };
            points.push((self.cold + reuse_misses) as f64);
        }
        MissCurve::new((lines_per_unit * 64) as u64, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_only_for_first_touches() {
        let mut p = StackProfiler::new();
        assert_eq!(p.record(1), None);
        assert_eq!(p.record(2), None);
        assert_eq!(p.record(1), Some(1));
        assert_eq!(p.record(1), Some(0));
        assert_eq!(p.cold_misses(), 2);
        assert_eq!(p.accesses(), 4);
        assert_eq!(p.footprint_lines(), 2);
    }

    #[test]
    fn cyclic_scan_stack_distances() {
        // Scanning N lines cyclically gives every reuse distance N-1.
        let mut p = StackProfiler::new();
        let n = 8u64;
        for _ in 0..5 {
            for l in 0..n {
                p.record(l);
            }
        }
        let curve = p.miss_curve(1, 10);
        // Capacity >= 8 lines: only cold misses.
        assert_eq!(curve.at(8), n as f64);
        // Capacity < 8 lines: every access misses (LRU worst case on a scan).
        assert_eq!(curve.at(7), (5 * n) as f64);
        assert_eq!(curve.at(0), (5 * n) as f64);
    }

    #[test]
    fn miss_curve_is_monotone() {
        let mut p = StackProfiler::new();
        // Irregular mixed pattern.
        for i in 0..1000u64 {
            p.record(i % 17);
            p.record((i * 7) % 31);
        }
        let c = p.miss_curve(2, 20);
        for w in c.points().windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn curve_matches_direct_lru_simulation() {
        use crate::{BankConfig, CacheBank, PartitionId, ReplPolicy};
        // A single-set, fully-associative LRU bank of W lines must agree
        // with the stack profiler's curve at capacity W.
        let stream: Vec<LineAddr> = (0..500u64).map(|i| (i * i + i / 3) % 13).collect();
        let mut p = StackProfiler::new();
        for &l in &stream {
            p.record(l);
        }
        for ways in [1u32, 2, 4, 8, 16] {
            let mut bank = CacheBank::new(BankConfig {
                sets: 1,
                ways,
                policy: ReplPolicy::Lru,
            });
            for &l in &stream {
                bank.access(l, PartitionId(0));
            }
            let curve = p.miss_curve(1, 16);
            assert_eq!(
                bank.stats().misses() as f64,
                curve.at(ways as usize),
                "ways={ways}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_unit_panics() {
        StackProfiler::new().miss_curve(0, 4);
    }
}
