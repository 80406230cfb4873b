//! Synthetic address-stream generators.
//!
//! The analytic simulator consumes [`CurveShape`]s directly; the detailed
//! execution-driven simulator (`nuca-sim::detail`) needs *address streams*
//! whose measured miss curves realize those shapes. A [`StreamGenerator`]
//! translates a shape into a mixture of access regions:
//!
//! - each **Smooth** component becomes uniform random accesses over a
//!   region of `ws` lines — under LRU this measures as a miss ratio
//!   decaying roughly linearly to zero at `ws`, a faithful stand-in for
//!   the component's gradual decay;
//! - each **Cliff** component becomes a cyclic scan of `ws` lines — the
//!   textbook LRU cliff;
//! - the **floor** becomes a never-reused stream (compulsory misses).
//!
//! Regions live at disjoint address bases so distinct components (and
//! distinct applications) never alias.

use crate::curves::{Component, CurveShape};
use nuca_cache::LineAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Address-space stride separating regions (lines).
const REGION_STRIDE: u64 = 1 << 28;

#[derive(Debug, Clone)]
enum Region {
    /// Uniform random reuse over `lines`.
    Hot { base: u64, lines: u64 },
    /// Cyclic scan over `lines`.
    Cyclic { base: u64, lines: u64, pos: u64 },
    /// Never-reused streaming.
    Stream { base: u64, pos: u64 },
}

/// Generates an address stream realizing a [`CurveShape`].
///
/// # Examples
///
/// ```
/// use nuca_workloads::{curves::CurveShape, StreamGenerator};
/// let shape = CurveShape::streaming(0.9);
/// let mut gen = StreamGenerator::from_shape(&shape, 64, 1, 7);
/// let a = gen.next_line();
/// let b = gen.next_line();
/// assert_ne!(a, b, "streaming accesses never repeat");
/// ```
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    rng: SmallRng,
    /// Cumulative probability bound per region, for roulette selection.
    /// Kept apart from `regions` so the per-access scan reads a compact
    /// array (one cache line for typical shapes) instead of striding
    /// through enum payloads.
    cum: Vec<f64>,
    regions: Vec<Region>,
}

impl StreamGenerator {
    /// Builds a generator from a shape.
    ///
    /// `line_bytes` converts component working-set sizes to lines;
    /// `app_index` offsets the address space so different applications
    /// never share lines.
    ///
    /// # Panics
    ///
    /// Panics if the shape's zero-capacity miss ratio is zero (nothing
    /// would ever miss, so no stream exists to generate) or
    /// `line_bytes == 0`.
    pub fn from_shape(
        shape: &CurveShape,
        line_bytes: u64,
        app_index: usize,
        seed: u64,
    ) -> StreamGenerator {
        assert!(line_bytes > 0, "line_bytes must be nonzero");
        let app_base = (app_index as u64 + 1) << 36;
        let mut regions = Vec::new();
        let mut cum = 0.0;
        for (k, comp) in shape.components().iter().enumerate() {
            let base = app_base + (k as u64 + 1) * REGION_STRIDE;
            match *comp {
                Component::Smooth {
                    weight, ws_bytes, ..
                } => {
                    cum += weight;
                    regions.push((
                        cum,
                        Region::Hot {
                            base,
                            lines: (ws_bytes / line_bytes).max(1),
                        },
                    ));
                }
                Component::Cliff { weight, ws_bytes } => {
                    cum += weight;
                    regions.push((
                        cum,
                        Region::Cyclic {
                            base,
                            lines: (ws_bytes / line_bytes).max(1),
                            pos: 0,
                        },
                    ));
                }
            }
        }
        let floor = shape.floor();
        if floor > 0.0 {
            cum += floor;
            regions.push((
                cum,
                Region::Stream {
                    base: app_base,
                    pos: 0,
                },
            ));
        }
        assert!(cum > 0.0, "shape must have a nonzero zero-capacity ratio");
        // The shape's zero-capacity ratio may be below 1: the remainder is
        // traffic that effectively always hits (tiny per-thread state).
        // Model it as a handful of pinned-hot lines.
        let always_hit = (1.0 - cum).max(0.0);
        if always_hit > 1e-9 {
            cum += always_hit;
            regions.push((
                cum,
                Region::Hot {
                    base: app_base + REGION_STRIDE / 2,
                    lines: 8,
                },
            ));
        }
        // Normalize cumulative weights to 1.
        for (c, _) in &mut regions {
            *c /= cum;
        }
        if let Some((c, _)) = regions.last_mut() {
            *c = 1.0;
        }
        let (cum, regions) = regions.into_iter().unzip();
        StreamGenerator {
            rng: SmallRng::seed_from_u64(seed ^ (app_index as u64).wrapping_mul(0xA5A5_5A5A)),
            cum,
            regions,
        }
    }

    /// The next line address in the stream.
    pub fn next_line(&mut self) -> LineAddr {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // Branch-free roulette: the number of cumulative bounds strictly
        // below `u` is exactly the first index with `u <= cum[idx]` (the
        // bounds ascend), and counting avoids a data-dependent branch per
        // region. The clamp covers the floating-point edge where `u`
        // exceeds every bound.
        let mut idx = 0usize;
        for &c in &self.cum {
            idx += usize::from(c < u);
        }
        let idx = idx.min(self.regions.len() - 1);
        match &mut self.regions[idx] {
            Region::Hot { base, lines } => *base + self.rng.gen_range(0..*lines),
            Region::Cyclic { base, lines, pos } => {
                let line = *base + *pos;
                *pos = (*pos + 1) % *lines;
                line
            }
            Region::Stream { base, pos } => {
                *pos += 1;
                *base + *pos
            }
        }
    }

    /// Generates `n` line addresses.
    pub fn lines(&mut self, n: usize) -> Vec<LineAddr> {
        (0..n).map(|_| self.next_line()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec2006, tailbench, MB};
    use nuca_cache::StackProfiler;

    /// Measures the miss-ratio curve of a generated stream with the exact
    /// Mattson profiler.
    fn measured_ratio(shape: &CurveShape, capacity_bytes: u64, n: usize) -> f64 {
        let mut gen = StreamGenerator::from_shape(shape, 64, 0, 11);
        let mut prof = StackProfiler::new();
        for _ in 0..n {
            prof.record(gen.next_line());
        }
        let lines_per_unit = (capacity_bytes / 64).max(1) as usize;
        let curve = prof.miss_curve(lines_per_unit, 1);
        // Steady-state-ish: subtract nothing; cold misses are genuine for
        // a finite run, so compare with tolerance.
        curve.at(1) / prof.accesses() as f64
    }

    #[test]
    fn streaming_shape_always_misses() {
        let shape = CurveShape::streaming(0.95);
        let mr = measured_ratio(&shape, 4 * MB, 50_000);
        assert!(mr > 0.9, "streaming floor measured {mr}");
    }

    #[test]
    fn measured_curve_tracks_shape_for_spec_profiles() {
        // Spot-check three diverse profiles at two capacities each.
        let profiles = spec2006();
        for name in ["403.gcc", "429.mcf", "454.calculix"] {
            let p = profiles.iter().find(|p| p.name == name).unwrap();
            for cap_mb in [1u64, 4] {
                let cap = cap_mb * MB;
                let want = p.shape.ratio(cap);
                let got = measured_ratio(&p.shape, cap, 150_000);
                assert!(
                    (got - want).abs() < 0.22,
                    "{name} at {cap_mb} MB: measured {got:.3} vs shape {want:.3}"
                );
            }
        }
    }

    #[test]
    fn near_zero_capacity_ratio_matches_shape() {
        // At a small (16 KB) capacity, only the pinned-hot lines fit, so
        // the measured ratio approaches the shape's zero-capacity ratio.
        let lc = tailbench();
        let shape = &lc[0].shape;
        let got = measured_ratio(shape, 16 * 1024, 60_000);
        let want = shape.ratio(16 * 1024);
        assert!((got - want).abs() < 0.12, "measured {got} vs {want}");
    }

    #[test]
    fn apps_use_disjoint_address_spaces() {
        let shape = CurveShape::streaming(0.5);
        let mut a = StreamGenerator::from_shape(&shape, 64, 0, 1);
        let mut b = StreamGenerator::from_shape(&shape, 64, 1, 1);
        let sa: nuca_types::hash::DetSet<u64> = a.lines(1000).into_iter().collect();
        let sb: nuca_types::hash::DetSet<u64> = b.lines(1000).into_iter().collect();
        assert!(sa.is_disjoint(&sb));
    }

    #[test]
    fn deterministic_per_seed() {
        let shape = spec2006()[0].shape.clone();
        let mut a = StreamGenerator::from_shape(&shape, 64, 0, 9);
        let mut b = StreamGenerator::from_shape(&shape, 64, 0, 9);
        assert_eq!(a.lines(500), b.lines(500));
    }

    #[test]
    #[should_panic(expected = "nonzero zero-capacity ratio")]
    fn all_zero_shape_panics() {
        let shape = CurveShape::streaming(0.0);
        StreamGenerator::from_shape(&shape, 64, 0, 1);
    }
}
