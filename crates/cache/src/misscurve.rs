//! Miss curves: misses as a function of allocated cache capacity.
//!
//! Miss curves are the currency of every capacity-allocation algorithm in
//! the paper: UCP Lookahead, Jigsaw, and `JumanjiLookahead` all consume
//! them, and the hardware UMONs produce them. A curve stores one value per
//! *allocation unit* (one way of one bank, 32 KB in the paper's
//! configuration).
//!
//! Two transformations matter for fidelity to the paper:
//!
//! - [`MissCurve::convex_hull`] — the paper approximates DRRIP's miss curve
//!   by the convex hull of LRU's curve (Talus \[7\], Sec. IV-A).
//! - [`MissCurve::combine_convex_curve`] — the Whirlpool-style model (\[61\],
//!   App. B) for a VM's combined curve: the best achievable misses when a
//!   total budget is split optimally among member applications. The
//!   placers read it through [`CombinedCurve`], which merges only the
//!   points they ask for.

use core::fmt;
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell, RefMut};

/// Misses (in any consistent unit: ratio, MPKI, or absolute per epoch) as a
/// non-increasing function of allocated capacity.
///
/// Point `i` is the miss value at `i * unit_bytes` of capacity. Evaluation
/// between points interpolates linearly; beyond the last point the curve is
/// flat.
///
/// # Examples
///
/// ```
/// use nuca_cache::MissCurve;
/// // 100 misses with no cache, 40 with one unit, 10 with two.
/// let c = MissCurve::new(1024, vec![100.0, 40.0, 10.0]);
/// assert_eq!(c.eval_units(1.0), 40.0);
/// assert_eq!(c.eval_bytes(512), 70.0); // halfway between points 0 and 1
/// assert_eq!(c.eval_bytes(1 << 20), 10.0); // flat beyond the end
/// ```
#[derive(Debug, Clone)]
pub struct MissCurve {
    unit_bytes: u64,
    misses: Vec<f64>,
    /// Cached [`MissCurve::is_convex`] answer. Convexity is checked on
    /// every Lookahead call (to pick the cheap greedy path), so it is
    /// computed once at construction instead of re-scanning the points.
    convex: bool,
}

// `convex` is derived from `misses`, so it is excluded from equality.
impl PartialEq for MissCurve {
    fn eq(&self, other: &MissCurve) -> bool {
        self.unit_bytes == other.unit_bytes && self.misses == other.misses
    }
}

impl MissCurve {
    /// Creates a curve from raw points, enforcing monotonicity by taking the
    /// running minimum (a real cache never misses more with more space under
    /// the policies we model).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, contains a negative or non-finite value,
    /// or if `unit_bytes == 0`.
    pub fn new(unit_bytes: u64, points: Vec<f64>) -> MissCurve {
        assert!(unit_bytes > 0, "unit_bytes must be nonzero");
        assert!(!points.is_empty(), "a miss curve needs at least one point");
        let mut misses = points;
        let mut running = f64::INFINITY;
        for p in &mut misses {
            assert!(
                p.is_finite() && *p >= 0.0,
                "miss values must be finite and non-negative"
            );
            running = running.min(*p);
            *p = running;
        }
        let convex = points_convex(&misses);
        MissCurve {
            unit_bytes,
            misses,
            convex,
        }
    }

    /// A flat curve: the same miss value at every allocation (an app that
    /// gets no benefit from this cache level).
    pub fn flat(unit_bytes: u64, units: usize, value: f64) -> MissCurve {
        MissCurve::new(unit_bytes, vec![value; units + 1])
    }

    /// Capacity granularity of the points, in bytes.
    pub fn unit_bytes(&self) -> u64 {
        self.unit_bytes
    }

    /// Number of points (allocations `0..=max_units`).
    pub fn len(&self) -> usize {
        self.misses.len()
    }

    /// True if the curve has a single point (capacity 0 only).
    pub fn is_empty(&self) -> bool {
        self.misses.len() <= 1
    }

    /// Largest allocation, in units, described by the curve.
    pub fn max_units(&self) -> usize {
        self.misses.len() - 1
    }

    /// The raw points.
    pub fn points(&self) -> &[f64] {
        &self.misses
    }

    /// Miss value at an integral allocation of `units` (clamped to the
    /// curve's domain).
    pub fn at(&self, units: usize) -> f64 {
        let i = units.min(self.max_units());
        self.misses[i]
    }

    /// Miss value at a fractional allocation of `units`, interpolating
    /// linearly and clamping to the domain.
    pub fn eval_units(&self, units: f64) -> f64 {
        if units <= 0.0 {
            return self.misses[0];
        }
        let max = self.max_units() as f64;
        if units >= max {
            return *self.misses.last().expect("curve is non-empty");
        }
        let lo = units.floor() as usize;
        let frac = units - lo as f64;
        self.misses[lo] * (1.0 - frac) + self.misses[lo + 1] * frac
    }

    /// Miss value at a byte-granular allocation.
    pub fn eval_bytes(&self, bytes: u64) -> f64 {
        self.eval_units(bytes as f64 / self.unit_bytes as f64)
    }

    /// Multiplies every point by `factor` (e.g., converting a miss ratio to
    /// absolute misses for an epoch's access count): a new curve filled by
    /// [`MissCurve::clone_scaled_from`].
    #[must_use]
    pub fn scaled(&self, factor: f64) -> MissCurve {
        let mut out = MissCurve {
            unit_bytes: self.unit_bytes,
            misses: Vec::with_capacity(self.misses.len()),
            convex: self.convex,
        };
        out.clone_scaled_from(self, factor);
        out
    }

    /// Overwrites `self` with `src`'s points multiplied by `factor`,
    /// reusing `self`'s buffer.
    ///
    /// The epoch engine rescales every application's hull on every
    /// reconfiguration (access rates move each interval); doing it into a
    /// persistent curve makes the interval loop allocation-free.
    pub fn clone_scaled_from(&mut self, src: &MissCurve, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0);
        self.unit_bytes = src.unit_bytes;
        // Scaling by a non-negative factor multiplies both the gain
        // differences and the relative tolerance, so convexity (as
        // is_convex measures it) is preserved exactly.
        self.convex = src.convex;
        self.misses.clear();
        self.misses.extend(src.misses.iter().map(|m| m * factor));
    }

    /// The lower convex hull of the curve.
    ///
    /// The paper approximates DRRIP's miss curve by the convex hull of the
    /// LRU curve, which Talus \[7\] shows is achievable and which can be
    /// measured much more cheaply than DRRIP itself (Sec. IV-A).
    #[must_use]
    pub fn convex_hull(&self) -> MissCurve {
        let n = self.misses.len();
        if n <= 2 {
            return self.clone();
        }
        // Monotone-chain lower hull over (index, miss) points.
        let mut hull: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Remove b if it lies on or above segment a->i.
                let cross = (b as f64 - a as f64) * (self.misses[i] - self.misses[a])
                    - (i as f64 - a as f64) * (self.misses[b] - self.misses[a]);
                if cross <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(i);
        }
        // Re-sample the hull at every integer point.
        let mut out = Vec::with_capacity(n);
        let mut seg = 0;
        for i in 0..n {
            while seg + 1 < hull.len() && hull[seg + 1] < i {
                seg += 1;
            }
            if hull[seg] == i {
                out.push(self.misses[i]);
            } else {
                let a = hull[seg];
                let b = hull[seg + 1];
                let t = (i - a) as f64 / (b - a) as f64;
                out.push(self.misses[a] * (1.0 - t) + self.misses[b] * t);
            }
        }
        let convex = points_convex(&out);
        MissCurve {
            unit_bytes: self.unit_bytes,
            misses: out,
            convex,
        }
    }

    /// Whether the curve is convex (marginal utility non-increasing), within
    /// floating-point tolerance. The tolerance is relative to the curve's
    /// magnitude: hulls scaled to absolute misses (10⁹-range values) carry
    /// rounding noise far above any fixed epsilon.
    ///
    /// Computed once at construction and cached; this accessor is O(1).
    pub fn is_convex(&self) -> bool {
        self.convex
    }

    /// Optimally combines several curves into the curve of the group: point
    /// `i` is the minimum total misses achievable by splitting `i` units
    /// among the members' convex hulls, for `i` up to `cap_units` (or the
    /// members' summed domains, if smaller).
    ///
    /// This is the model the paper uses (via Whirlpool \[61, App. B\]) to
    /// compute a combined miss curve per VM for `JumanjiLookahead`: the
    /// [`CombinedCurve`] merge run to its end. The placers read the lazy
    /// [`CombinedCurve`] instead, which merges only as far as they look.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty or units disagree.
    pub fn combine_convex_curve<C: std::borrow::Borrow<MissCurve>>(
        curves: &[C],
        cap_units: usize,
    ) -> MissCurve {
        assert!(!curves.is_empty(), "need at least one curve to combine");
        let unit = curves[0].borrow().unit_bytes;
        let combined = CombinedCurve::new(curves.iter().map(|c| c.borrow()), cap_units);
        let mut merge = combined.merged_to(combined.max_units);
        MissCurve::new(unit, std::mem::take(&mut merge.points))
    }
}

/// Read access to a miss curve's integral points, stored ([`MissCurve`])
/// or merged on demand ([`CombinedCurve`]). The capacity allocators
/// (Lookahead, `JumanjiLookahead`) read their curves through it.
pub trait Curve {
    /// Largest allocation, in units, described by the curve.
    fn max_units(&self) -> usize;

    /// Miss value at an integral allocation of `units` (clamped to the
    /// curve's domain).
    fn at(&self, units: usize) -> f64;

    /// Miss value at a fractional allocation of `units`, interpolating
    /// linearly and clamping to the domain.
    fn eval_units(&self, units: f64) -> f64;

    /// Whether the curve is convex; see [`MissCurve::is_convex`].
    fn is_convex(&self) -> bool;
}

impl Curve for MissCurve {
    fn max_units(&self) -> usize {
        MissCurve::max_units(self)
    }

    fn at(&self, units: usize) -> f64 {
        MissCurve::at(self, units)
    }

    fn eval_units(&self, units: f64) -> f64 {
        MissCurve::eval_units(self, units)
    }

    fn is_convex(&self) -> bool {
        MissCurve::is_convex(self)
    }
}

impl<T: Curve + ?Sized> Curve for &T {
    fn max_units(&self) -> usize {
        (**self).max_units()
    }

    fn at(&self, units: usize) -> f64 {
        (**self).at(units)
    }

    fn eval_units(&self, units: f64) -> f64 {
        (**self).eval_units(units)
    }

    fn is_convex(&self) -> bool {
        (**self).is_convex()
    }
}

/// The combined curve of a group (see [`MissCurve::combine_convex_curve`]),
/// merged lazily: a read at `u` units runs the greedy merge up to point
/// `u` and no further.
///
/// `JumanjiLookahead` reads each VM's curve only around the bank counts it
/// tries, so most of a VM's points are never needed; the merge of the
/// points that are read is the same as the full merge's, step for step,
/// so every point is bit-equal to [`MissCurve::combine_convex_curve`]'s.
/// Non-convex members are replaced by their convex hulls up front;
/// already-convex ones (the common case: DRRIP hulls) are borrowed as-is.
/// An empty group is a flat zero curve over `cap_units`, the points of
/// `MissCurve::flat(unit, cap_units, 0.0)`.
#[derive(Debug)]
pub struct CombinedCurve<'a> {
    max_units: usize,
    merge: RefCell<Merge<'a>>,
    /// [`Curve::is_convex`] of the full merge, decided on first request.
    convex: OnceCell<bool>,
}

/// The state of a [`CombinedCurve`]'s greedy merge.
#[derive(Debug)]
struct Merge<'a> {
    hulls: Vec<Cow<'a, [f64]>>,
    /// Units granted to each member so far.
    alloc: Vec<usize>,
    /// Each member's next marginal gain. A convex curve's gains are
    /// non-increasing, so only the winner's changes per step.
    gains: Vec<f64>,
    /// Unclamped running total of the merge.
    current: f64,
    /// Points merged so far, after the running minimum `MissCurve::new`
    /// applies (a real cache never misses more with more space).
    points: Vec<f64>,
}

impl<'a> CombinedCurve<'a> {
    /// Starts the merge of `curves` up to `cap_units` units (or the
    /// members' summed domains, if smaller). Merges no point yet.
    ///
    /// # Panics
    ///
    /// Panics if the members' units disagree.
    pub fn new(
        curves: impl IntoIterator<Item = &'a MissCurve>,
        cap_units: usize,
    ) -> CombinedCurve<'a> {
        let curves: Vec<&MissCurve> = curves.into_iter().collect();
        assert!(
            curves
                .windows(2)
                .all(|w| w[0].unit_bytes == w[1].unit_bytes),
            "all curves must share unit_bytes"
        );
        let hulls: Vec<Cow<'a, [f64]>> = curves
            .iter()
            .map(|c| {
                if c.is_convex() {
                    Cow::Borrowed(c.points())
                } else {
                    Cow::Owned(c.convex_hull().misses)
                }
            })
            .collect();
        let max_units = if hulls.is_empty() {
            cap_units
        } else {
            hulls
                .iter()
                .map(|h| h.len() - 1)
                .sum::<usize>()
                .min(cap_units)
        };
        let gains = hulls.iter().map(|h| gain_at(h, 0)).collect();
        let current = if hulls.is_empty() {
            0.0
        } else {
            hulls.iter().map(|h| h[0]).sum()
        };
        let mut points = Vec::with_capacity(max_units + 1);
        points.push(current);
        CombinedCurve {
            max_units,
            merge: RefCell::new(Merge {
                alloc: vec![0; hulls.len()],
                hulls,
                gains,
                current,
                points,
            }),
            convex: OnceCell::new(),
        }
    }

    /// The merge, run at least up to point `units` (at most `max_units`).
    fn merged_to(&self, units: usize) -> RefMut<'_, Merge<'a>> {
        let mut m = self.merge.borrow_mut();
        m.extend_to(units.min(self.max_units));
        m
    }

    /// Number of points merged so far.
    pub fn merged_len(&self) -> usize {
        self.merge.borrow().points.len()
    }
}

impl Merge<'_> {
    /// Runs the greedy steepest-gain merge until point `units` exists.
    fn extend_to(&mut self, units: usize) {
        while self.points.len() <= units {
            if self.hulls.is_empty() {
                self.points.push(0.0);
                continue;
            }
            // Last-wins max scan: `>=` keeps the later of equal gains.
            let mut k = 0;
            let mut g = self.gains[0];
            for (j, &gj) in self.gains.iter().enumerate().skip(1) {
                if gj >= g {
                    k = j;
                    g = gj;
                }
            }
            self.alloc[k] += 1;
            self.current -= g;
            self.gains[k] = gain_at(&self.hulls[k], self.alloc[k]);
            let last = *self.points.last().expect("the first point exists");
            self.points.push(last.min(self.current));
        }
    }
}

/// Marginal gain of member points `h` at `a` units; an exhausted member
/// never wins.
fn gain_at(h: &[f64], a: usize) -> f64 {
    if a + 1 < h.len() {
        h[a] - h[a + 1]
    } else {
        f64::NEG_INFINITY
    }
}

impl Curve for CombinedCurve<'_> {
    fn max_units(&self) -> usize {
        self.max_units
    }

    fn at(&self, units: usize) -> f64 {
        let i = units.min(self.max_units);
        self.merged_to(i).points[i]
    }

    fn eval_units(&self, units: f64) -> f64 {
        if units <= 0.0 {
            return self.at(0);
        }
        if units >= self.max_units as f64 {
            return self.at(self.max_units);
        }
        let lo = units.floor() as usize;
        let frac = units - lo as f64;
        let m = self.merged_to(lo + 1);
        m.points[lo] * (1.0 - frac) + m.points[lo + 1] * frac
    }

    /// Merges every point on first call: convexity is a property of the
    /// whole curve.
    fn is_convex(&self) -> bool {
        *self
            .convex
            .get_or_init(|| points_convex(&self.merged_to(self.max_units).points))
    }
}

/// Convexity test used to populate [`MissCurve::is_convex`]'s cache; see
/// that method for the tolerance rationale.
fn points_convex(misses: &[f64]) -> bool {
    let tol = 1e-9 * misses.first().copied().unwrap_or(0.0).abs().max(1.0);
    misses.windows(3).all(|w| {
        let d1 = w[0] - w[1];
        let d2 = w[1] - w[2];
        d1 + tol >= d2
    })
}

impl fmt::Display for MissCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MissCurve[{} pts, unit {} B, {:.3}..{:.3}]",
            self.misses.len(),
            self.unit_bytes,
            self.misses.first().copied().unwrap_or(0.0),
            self.misses.last().copied().unwrap_or(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_normalization() {
        let c = MissCurve::new(1, vec![5.0, 7.0, 3.0, 4.0]);
        assert_eq!(c.points(), &[5.0, 5.0, 3.0, 3.0]);
    }

    #[test]
    fn evaluation_interpolates_and_clamps() {
        let c = MissCurve::new(10, vec![100.0, 50.0, 20.0]);
        assert_eq!(c.eval_units(-1.0), 100.0);
        assert_eq!(c.eval_units(0.5), 75.0);
        assert_eq!(c.eval_units(5.0), 20.0);
        assert_eq!(c.eval_bytes(15), 35.0);
        assert_eq!(c.at(1), 50.0);
        assert_eq!(c.at(99), 20.0);
    }

    #[test]
    fn flat_curve() {
        let c = MissCurve::flat(1, 4, 3.0);
        assert_eq!(c.len(), 5);
        assert!(c.points().iter().all(|&p| p == 3.0));
        assert!(c.is_convex());
    }

    #[test]
    fn scaling() {
        let c = MissCurve::new(1, vec![4.0, 2.0]).scaled(2.5);
        assert_eq!(c.points(), &[10.0, 5.0]);
    }

    #[test]
    fn convex_hull_of_cliff_curve() {
        // A "cliff" curve: no benefit until the working set fits, then a
        // sharp drop. Its hull is the straight line to the cliff.
        let c = MissCurve::new(1, vec![100.0, 100.0, 100.0, 100.0, 0.0]);
        let h = c.convex_hull();
        assert_eq!(h.points(), &[100.0, 75.0, 50.0, 25.0, 0.0]);
        assert!(h.is_convex());
    }

    #[test]
    fn convex_hull_is_below_and_ends_match() {
        let c = MissCurve::new(1, vec![10.0, 9.5, 4.0, 3.9, 1.0, 0.9]);
        let h = c.convex_hull();
        assert_eq!(h.points()[0], c.points()[0]);
        assert_eq!(h.points().last(), c.points().last());
        for i in 0..c.len() {
            assert!(h.points()[i] <= c.points()[i] + 1e-12);
        }
        assert!(h.is_convex());
    }

    #[test]
    fn hull_of_convex_curve_is_identity() {
        let c = MissCurve::new(1, vec![8.0, 4.0, 2.0, 1.0, 0.5]);
        assert_eq!(c.convex_hull(), c);
    }

    #[test]
    fn combine_two_identical_curves() {
        let c = MissCurve::new(1, vec![10.0, 4.0, 1.0]);
        // Optimal split alternates between the two members.
        let comb = MissCurve::combine_convex_curve(&[&c, &c], 4);
        assert_eq!(comb.points(), &[20.0, 14.0, 8.0, 5.0, 2.0]);
    }

    #[test]
    fn combine_prefers_steeper_curve() {
        let steep = MissCurve::new(1, vec![100.0, 10.0]);
        let shallow = MissCurve::new(1, vec![10.0, 9.0]);
        // First unit goes to the steep member.
        let comb = MissCurve::combine_convex_curve(&[steep, shallow], 2);
        assert_eq!(comb.at(1), 20.0);
        assert_eq!(comb.at(2), 19.0);
    }

    #[test]
    fn combine_matches_brute_force() {
        let a = MissCurve::new(1, vec![50.0, 20.0, 15.0, 14.0]);
        let b = MissCurve::new(1, vec![30.0, 10.0, 5.0, 4.0]);
        let comb = MissCurve::combine_convex_curve(&[&a, &b], 6);
        let (ha, hb) = (a.convex_hull(), b.convex_hull());
        for total in 0..=6usize {
            let mut best = f64::INFINITY;
            for x in 0..=total.min(3) {
                let y = total - x;
                if y > 3 {
                    continue;
                }
                best = best.min(ha.at(x) + hb.at(y));
            }
            assert!(
                (comb.at(total) - best).abs() < 1e-9,
                "total {total}: greedy {} vs brute {best}",
                comb.at(total)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_points_panic() {
        MissCurve::new(1, vec![]);
    }

    #[test]
    #[should_panic(expected = "share unit_bytes")]
    fn combine_mismatched_units_panics() {
        let a = MissCurve::new(1, vec![1.0]);
        let b = MissCurve::new(2, vec![1.0]);
        MissCurve::combine_convex_curve(&[a, b], 1);
    }

    #[test]
    fn display_summarizes() {
        let c = MissCurve::new(32 * 1024, vec![9.0, 1.0]);
        let s = c.to_string();
        assert!(s.contains("2 pts"));
        assert!(s.contains("32768 B"));
    }
}
