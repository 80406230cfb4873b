//! SPEC-CPU2006-like batch application profiles.
//!
//! The paper draws batch applications from the sixteen SPEC CPU2006
//! benchmarks listed in its footnote 1. Each profile here carries the
//! published qualitative cache behaviour of the corresponding benchmark:
//! streaming applications (`libquantum`, `lbm`, `milc`) have high access
//! rates and flat miss curves; cache-friendly codes (`calculix`, `bzip2`)
//! have small working sets; and capacity-hungry codes (`mcf`, `omnetpp`,
//! `xalancbmk`) keep improving across many megabytes, some with cliffs.

use crate::curves::{Component, CurveShape};
use crate::MB;
use nuca_cache::MissCurve;
use nuca_types::hash::Fingerprinter;

/// A synthetic batch application profile.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProfile {
    /// Benchmark-style name (e.g., `"429.mcf"`).
    pub name: &'static str,
    /// LLC accesses (L2 misses) per kilo-instruction.
    pub llc_apki: f64,
    /// CPI with a perfect (always-hitting, zero-latency) LLC; folds in the
    /// core pipeline and L1/L2 effects.
    pub base_cpi: f64,
    /// Miss-ratio curve shape at the LLC.
    pub shape: CurveShape,
}

impl BatchProfile {
    /// Samples the LLC miss-*ratio* curve at `units` points of
    /// `unit_bytes` granularity.
    pub fn miss_ratio_curve(&self, unit_bytes: u64, units: usize) -> MissCurve {
        self.shape.miss_curve(unit_bytes, units)
    }

    /// A 128-bit fingerprint of every field, floats by bit pattern: two
    /// profiles share it exactly when they are bit-identical (`0.0` and
    /// `-0.0` differ), never merely because they share a `name`. Cache
    /// keys are built from it.
    pub fn fingerprint(&self) -> u128 {
        // Exhaustive destructuring: a new field does not compile until it
        // is written.
        let BatchProfile {
            name,
            llc_apki,
            base_cpi,
            shape,
        } = self;
        let mut f = Fingerprinter::new();
        f.write_str("batch");
        f.write_str(name);
        f.write_f64(*llc_apki);
        f.write_f64(*base_cpi);
        shape.fingerprint_into(&mut f);
        f.finish128()
    }

    /// Instructions per second this app would execute given an average
    /// LLC access latency `llc_lat` (cycles), an average miss penalty
    /// `miss_pen` (cycles beyond the LLC access), a miss ratio `mr`, and
    /// the clock frequency.
    ///
    /// The CPI model is `base_cpi + apki/1000 · (llc_lat + mr · miss_pen)`
    /// — the standard additive memory-stall decomposition used by the
    /// paper's weighted-speedup methodology.
    pub fn ips(&self, llc_lat: f64, mr: f64, miss_pen: f64, freq_hz: f64) -> f64 {
        let cpi = self.cpi(llc_lat, mr, miss_pen);
        freq_hz / cpi
    }

    /// CPI under the additive memory-stall model (see [`Self::ips`]).
    pub fn cpi(&self, llc_lat: f64, mr: f64, miss_pen: f64) -> f64 {
        self.base_cpi + self.llc_apki / 1000.0 * (llc_lat + mr * miss_pen)
    }
}

fn smooth(weight: f64, ws_mb: f64, sharpness: f64) -> Component {
    Component::Smooth {
        weight,
        ws_bytes: (ws_mb * MB as f64) as u64,
        sharpness,
    }
}

fn cliff(weight: f64, ws_mb: f64) -> Component {
    Component::Cliff {
        weight,
        ws_bytes: (ws_mb * MB as f64) as u64,
    }
}

/// The sixteen SPEC-CPU2006-like batch profiles used in the evaluation
/// (paper footnote 1).
///
/// Every non-streaming profile has (at least) two working-set components,
/// as real SPEC applications do: a small, hot set (hundreds of KB) that
/// captures most reuse and gives every application steep initial utility,
/// plus a large set (several MB) that only capacity-hungry allocations can
/// exploit. Streaming codes (`libquantum`, `lbm`, `milc`) keep high flat
/// floors.
pub fn spec2006() -> Vec<BatchProfile> {
    vec![
        BatchProfile {
            name: "401.bzip2",
            llc_apki: 8.0,
            base_cpi: 0.8,
            shape: CurveShape::new(0.10, vec![smooth(0.45, 0.25, 3.0), smooth(0.30, 1.5, 2.0)]),
        },
        BatchProfile {
            name: "403.gcc",
            llc_apki: 10.0,
            base_cpi: 0.9,
            shape: CurveShape::new(0.08, vec![smooth(0.45, 0.3, 3.0), smooth(0.35, 2.5, 2.0)]),
        },
        BatchProfile {
            name: "410.bwaves",
            llc_apki: 15.0,
            base_cpi: 1.0,
            shape: CurveShape::new(0.35, vec![smooth(0.30, 0.4, 3.0), smooth(0.25, 8.0, 3.0)]),
        },
        BatchProfile {
            name: "429.mcf",
            llc_apki: 45.0,
            base_cpi: 1.2,
            shape: CurveShape::new(
                0.15,
                vec![
                    smooth(0.30, 0.5, 3.0),
                    smooth(0.35, 6.0, 1.5),
                    cliff(0.15, 10.0),
                ],
            ),
        },
        BatchProfile {
            name: "433.milc",
            llc_apki: 20.0,
            base_cpi: 1.0,
            shape: CurveShape::new(0.55, vec![smooth(0.20, 0.4, 3.0), smooth(0.20, 12.0, 3.0)]),
        },
        BatchProfile {
            name: "434.zeusmp",
            llc_apki: 12.0,
            base_cpi: 0.9,
            shape: CurveShape::new(0.20, vec![smooth(0.35, 0.3, 3.0), smooth(0.35, 3.0, 2.0)]),
        },
        BatchProfile {
            name: "436.cactusADM",
            llc_apki: 10.0,
            base_cpi: 1.0,
            shape: CurveShape::new(0.15, vec![smooth(0.35, 0.4, 3.0), smooth(0.40, 4.0, 2.5)]),
        },
        BatchProfile {
            name: "437.leslie3d",
            llc_apki: 14.0,
            base_cpi: 1.0,
            shape: CurveShape::new(0.28, vec![smooth(0.30, 0.4, 3.0), smooth(0.35, 5.0, 2.0)]),
        },
        BatchProfile {
            name: "454.calculix",
            llc_apki: 3.0,
            base_cpi: 0.6,
            shape: CurveShape::new(0.05, vec![smooth(0.60, 0.2, 3.0), smooth(0.15, 0.8, 2.0)]),
        },
        BatchProfile {
            name: "459.GemsFDTD",
            llc_apki: 16.0,
            base_cpi: 1.1,
            shape: CurveShape::new(0.30, vec![smooth(0.25, 0.4, 3.0), smooth(0.40, 7.0, 2.5)]),
        },
        BatchProfile {
            name: "462.libquantum",
            llc_apki: 25.0,
            base_cpi: 1.1,
            shape: CurveShape::streaming(0.95),
        },
        BatchProfile {
            name: "470.lbm",
            llc_apki: 30.0,
            base_cpi: 1.2,
            shape: CurveShape::new(0.70, vec![smooth(0.15, 0.5, 3.0), smooth(0.10, 16.0, 3.0)]),
        },
        BatchProfile {
            name: "471.omnetpp",
            llc_apki: 22.0,
            base_cpi: 1.0,
            shape: CurveShape::new(
                0.12,
                vec![
                    smooth(0.35, 0.5, 3.0),
                    smooth(0.35, 8.0, 1.5),
                    cliff(0.10, 12.0),
                ],
            ),
        },
        BatchProfile {
            name: "473.astar",
            llc_apki: 12.0,
            base_cpi: 0.9,
            shape: CurveShape::new(0.15, vec![smooth(0.35, 0.4, 3.0), smooth(0.40, 3.0, 1.8)]),
        },
        BatchProfile {
            name: "482.sphinx3",
            llc_apki: 13.0,
            base_cpi: 0.9,
            shape: CurveShape::new(0.12, vec![smooth(0.35, 0.4, 3.0), smooth(0.45, 6.0, 2.0)]),
        },
        BatchProfile {
            name: "483.xalancbmk",
            llc_apki: 18.0,
            base_cpi: 1.0,
            shape: CurveShape::new(0.10, vec![smooth(0.40, 0.5, 3.0), smooth(0.40, 4.0, 1.8)]),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_profiles_with_unique_names() {
        let profiles = spec2006();
        assert_eq!(profiles.len(), 16);
        let mut names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn libquantum_is_streaming() {
        let profiles = spec2006();
        let lq = profiles
            .iter()
            .find(|p| p.name == "462.libquantum")
            .unwrap();
        let c = lq.miss_ratio_curve(MB, 20);
        assert_eq!(c.at(0), c.at(20), "no capacity benefit");
        assert!(c.at(0) > 0.9);
    }

    #[test]
    fn calculix_is_cache_friendly() {
        let profiles = spec2006();
        let cx = profiles.iter().find(|p| p.name == "454.calculix").unwrap();
        let c = cx.miss_ratio_curve(MB / 4, 80);
        // Most of the benefit arrives by 2 MB.
        assert!(c.eval_bytes(2 * MB) < 0.2);
    }

    #[test]
    fn mcf_has_a_cliff() {
        let profiles = spec2006();
        let mcf = profiles.iter().find(|p| p.name == "429.mcf").unwrap();
        let c = mcf.miss_ratio_curve(MB, 20);
        // The cliff at 10 MB makes the raw curve non-convex.
        assert!(!c.is_convex());
        assert!(c.convex_hull().is_convex());
    }

    #[test]
    fn cpi_model_increases_with_misses() {
        let profiles = spec2006();
        let mcf = profiles.iter().find(|p| p.name == "429.mcf").unwrap();
        let fast = mcf.cpi(20.0, 0.1, 140.0);
        let slow = mcf.cpi(40.0, 0.6, 140.0);
        assert!(slow > fast);
        let ips = mcf.ips(20.0, 0.1, 140.0, 2.66e9);
        assert!((ips - 2.66e9 / fast).abs() < 1.0);
    }

    #[test]
    fn all_curves_monotone_over_llc_range() {
        for p in spec2006() {
            let c = p.miss_ratio_curve(32 * 1024, 640);
            for w in c.points().windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "{} curve must be monotone", p.name);
            }
            assert!(c.at(0) <= 1.0 && c.at(640) >= 0.0);
        }
    }
}
