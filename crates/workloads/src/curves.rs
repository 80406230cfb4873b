//! Parametric miss-ratio curve shapes.
//!
//! A [`CurveShape`] composes a miss *ratio* (fraction of LLC accesses that
//! miss) as a function of allocated capacity from working-set components:
//!
//! - **Smooth** components model gradual reuse: the ratio contribution
//!   decays as `w / (1 + (c / ws)^p)`, reaching half-value when the
//!   allocation equals the working-set size.
//! - **Cliff** components model all-or-nothing working sets (loops over a
//!   fixed structure): full contribution below `ws`, zero at or above. These
//!   produce the non-convex cliffs that Talus/convex hulls exist to fix.
//!
//! A constant `floor` models compulsory/streaming misses that no amount of
//! capacity removes.

use nuca_cache::MissCurve;
use nuca_types::codec::ByteWriter;

/// One working-set component of a miss-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Component {
    /// Gradual decay with working-set size `ws_bytes` and sharpness `p`.
    Smooth {
        /// Miss-ratio contribution at zero capacity.
        weight: f64,
        /// Working-set size in bytes (half-value point).
        ws_bytes: u64,
        /// Decay sharpness (larger = closer to a step).
        sharpness: f64,
    },
    /// A hard cliff: contributes `weight` below `ws_bytes`, nothing above.
    Cliff {
        /// Miss-ratio contribution below the cliff.
        weight: f64,
        /// Capacity at which the working set suddenly fits.
        ws_bytes: u64,
    },
}

/// A parametric miss-ratio curve: `floor` plus the sum of components.
///
/// # Examples
///
/// ```
/// use nuca_workloads::curves::{Component, CurveShape};
/// let shape = CurveShape::new(0.1, vec![Component::Cliff {
///     weight: 0.5,
///     ws_bytes: 1024,
/// }]);
/// assert_eq!(shape.ratio(0), 0.6);
/// assert_eq!(shape.ratio(2048), 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CurveShape {
    floor: f64,
    components: Vec<Component>,
}

impl CurveShape {
    /// Creates a shape; the ratio at zero capacity is `floor + Σ weights`.
    ///
    /// # Panics
    ///
    /// Panics if the zero-capacity ratio exceeds 1 or any parameter is
    /// negative.
    pub fn new(floor: f64, components: Vec<Component>) -> CurveShape {
        assert!((0.0..=1.0).contains(&floor), "floor must be in [0,1]");
        let total: f64 = floor
            + components
                .iter()
                .map(|c| match c {
                    Component::Smooth { weight, .. } | Component::Cliff { weight, .. } => {
                        assert!(*weight >= 0.0, "weights must be non-negative");
                        *weight
                    }
                })
                .sum::<f64>();
        assert!(
            total <= 1.0 + 1e-9,
            "miss ratio at zero capacity ({total}) must not exceed 1"
        );
        CurveShape { floor, components }
    }

    /// A flat curve: streaming behaviour with no capacity benefit.
    pub fn streaming(ratio: f64) -> CurveShape {
        CurveShape::new(ratio, Vec::new())
    }

    /// The constant compulsory/streaming floor.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// The working-set components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Miss ratio at `bytes` of allocated capacity.
    pub fn ratio(&self, bytes: u64) -> f64 {
        let c = bytes as f64;
        let mut r = self.floor;
        for comp in &self.components {
            r += match *comp {
                Component::Smooth {
                    weight,
                    ws_bytes,
                    sharpness,
                } => weight / (1.0 + (c / ws_bytes as f64).powf(sharpness)),
                Component::Cliff { weight, ws_bytes } => {
                    if bytes < ws_bytes {
                        weight
                    } else {
                        0.0
                    }
                }
            };
        }
        r
    }

    /// Writes every field of the shape to `w`, floats by bit pattern, for
    /// the profile fingerprints cache keys are built from. Exhaustive
    /// destructuring: a new field does not compile until it is written.
    pub fn encode(&self, w: &mut ByteWriter) {
        let CurveShape { floor, components } = self;
        w.f64(*floor);
        w.usize(components.len());
        for component in components {
            match *component {
                Component::Smooth {
                    weight,
                    ws_bytes,
                    sharpness,
                } => {
                    w.u8(0);
                    w.f64(weight);
                    w.u64(ws_bytes);
                    w.f64(sharpness);
                }
                Component::Cliff { weight, ws_bytes } => {
                    w.u8(1);
                    w.f64(weight);
                    w.u64(ws_bytes);
                }
            }
        }
    }

    /// Samples the shape into a [`MissCurve`] of miss ratios with points at
    /// `0, unit_bytes, 2*unit_bytes, …, units*unit_bytes`.
    pub fn miss_curve(&self, unit_bytes: u64, units: usize) -> MissCurve {
        let points = (0..=units)
            .map(|u| self.ratio(u as u64 * unit_bytes))
            .collect();
        MissCurve::new(unit_bytes, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_component_half_value_at_ws() {
        let s = CurveShape::new(
            0.0,
            vec![Component::Smooth {
                weight: 0.8,
                ws_bytes: 1 << 20,
                sharpness: 2.0,
            }],
        );
        assert!((s.ratio(1 << 20) - 0.4).abs() < 1e-12);
        assert!((s.ratio(0) - 0.8).abs() < 1e-12);
        assert!(s.ratio(100 << 20) < 0.01);
    }

    #[test]
    fn cliff_component_is_a_step() {
        let s = CurveShape::new(
            0.05,
            vec![Component::Cliff {
                weight: 0.6,
                ws_bytes: 4096,
            }],
        );
        assert_eq!(s.ratio(4095), 0.65);
        assert_eq!(s.ratio(4096), 0.05);
    }

    #[test]
    fn streaming_is_flat() {
        let s = CurveShape::streaming(0.95);
        assert_eq!(s.ratio(0), s.ratio(1 << 30));
    }

    #[test]
    fn sampled_curve_is_monotone_and_matches_ratio() {
        let s = CurveShape::new(
            0.1,
            vec![
                Component::Smooth {
                    weight: 0.5,
                    ws_bytes: 2 << 20,
                    sharpness: 1.5,
                },
                Component::Cliff {
                    weight: 0.2,
                    ws_bytes: 6 << 20,
                },
            ],
        );
        let c = s.miss_curve(1 << 20, 20);
        assert_eq!(c.len(), 21);
        for w in c.points().windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!((c.at(0) - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn overweight_panics() {
        CurveShape::new(
            0.5,
            vec![Component::Smooth {
                weight: 0.6,
                ws_bytes: 1,
                sharpness: 1.0,
            }],
        );
    }
}
