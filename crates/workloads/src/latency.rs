//! TailBench-like latency-critical application profiles.
//!
//! The five servers of the paper's evaluation (masstree, xapian, img-dnn,
//! silo, moses) are modeled as request-driven applications: Poisson
//! arrivals at the QPS rates of Table III, and a per-request service time
//! that depends on LLC behaviour,
//!
//! ```text
//! service = work_cycles
//!         + accesses_per_req × (llc_lat + miss_ratio × miss_penalty × miss_stall)
//! ```
//!
//! `miss_stall` reflects that these servers are pointer-chasing codes
//! (tree walks in masstree/xapian/silo, graph traversals in moses): their
//! LLC misses are *dependent* and serialize the pipeline, unlike SPEC
//! batch codes whose memory-level parallelism is already folded into the
//! analytic CPI model. This is why latency-critical applications generate
//! several times less LLC traffic than batch applications while remaining
//! highly cache-sensitive — the asymmetry that makes a data-movement-only
//! allocator (Jigsaw) starve them (paper Sec. III, Fig. 4b).
//!
//! Parameters are calibrated so that at high load (Table III) each server
//! runs at ≈50 % utilization at the paper's deadline operating point — a
//! 4-way way-partitioned allocation (2.5 MB) on S-NUCA (Sec. VII) — and
//! saturates (utilization → 1, tail explosion) when squeezed well below
//! its working set, reproducing Fig. 8.

use crate::curves::{Component, CurveShape};
use crate::MB;
use nuca_cache::MissCurve;
use nuca_types::codec::ByteWriter;
use nuca_types::hash::fingerprint128;

/// Request load level (Table III: low = 10 %, high = 50 % utilization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LcLoad {
    /// 10 % utilization.
    Low,
    /// 50 % utilization.
    High,
}

/// A synthetic latency-critical application profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LcProfile {
    /// Server name (TailBench application).
    pub name: &'static str,
    /// Queries per second at low load (Table III).
    pub qps_low: f64,
    /// Queries per second at high load (Table III).
    pub qps_high: f64,
    /// Number of queries issued per experiment (Table III).
    pub num_queries: u32,
    /// Pure compute cycles per request (no LLC stalls).
    pub work_cycles: f64,
    /// LLC accesses issued per request.
    pub accesses_per_req: f64,
    /// Stall amplification of a miss due to dependent (pointer-chasing)
    /// accesses: each miss blocks the request for `miss_stall` times the
    /// raw miss penalty.
    pub miss_stall: f64,
    /// LLC miss-ratio curve shape.
    pub shape: CurveShape,
}

impl LcProfile {
    /// QPS at the given load level.
    pub fn qps(&self, load: LcLoad) -> f64 {
        match load {
            LcLoad::Low => self.qps_low,
            LcLoad::High => self.qps_high,
        }
    }

    /// Mean interarrival time in cycles at the given load.
    pub fn interarrival_cycles(&self, load: LcLoad, freq_hz: f64) -> f64 {
        freq_hz / self.qps(load)
    }

    /// Samples the LLC miss-ratio curve.
    pub fn miss_ratio_curve(&self, unit_bytes: u64, units: usize) -> MissCurve {
        self.shape.miss_curve(unit_bytes, units)
    }

    /// Service time per request, in cycles, under an average LLC access
    /// latency `llc_lat`, miss ratio `mr`, and miss penalty `miss_pen`.
    pub fn service_cycles(&self, llc_lat: f64, mr: f64, miss_pen: f64) -> f64 {
        self.work_cycles + self.accesses_per_req * (llc_lat + mr * miss_pen * self.miss_stall)
    }

    /// A 128-bit fingerprint of every field, floats by bit pattern: two
    /// profiles share it exactly when they are bit-identical (`0.0` and
    /// `-0.0` differ), never merely because they share a `name`. Cache
    /// keys are built from it.
    pub fn fingerprint(&self) -> u128 {
        fingerprint128(&self.encode())
    }

    /// Every field, floats by bit pattern: what [`Self::fingerprint`]
    /// hashes.
    fn encode(&self) -> Vec<u8> {
        // Exhaustive destructuring: a new field does not compile until it
        // is written.
        let LcProfile {
            name,
            qps_low,
            qps_high,
            num_queries,
            work_cycles,
            accesses_per_req,
            miss_stall,
            shape,
        } = self;
        let mut w = ByteWriter::with_capacity(256);
        w.str("lc");
        w.str(name);
        w.f64(*qps_low);
        w.f64(*qps_high);
        w.u32(*num_queries);
        w.f64(*work_cycles);
        w.f64(*accesses_per_req);
        w.f64(*miss_stall);
        shape.encode(&mut w);
        w.into_bytes()
    }

    /// LLC accesses per second this server generates at a given load
    /// (arrival rate × accesses per request) — what UMONs observe and what
    /// a data-movement-only allocator like Jigsaw values.
    pub fn access_rate(&self, load: LcLoad, _freq_hz: f64) -> f64 {
        self.qps(load) * self.accesses_per_req
    }
}

fn smooth(weight: f64, ws_mb: f64, sharpness: f64) -> Component {
    Component::Smooth {
        weight,
        ws_bytes: (ws_mb * MB as f64) as u64,
        sharpness,
    }
}

/// The five TailBench-like profiles with Table III load points.
pub fn tailbench() -> Vec<LcProfile> {
    vec![
        LcProfile {
            name: "masstree",
            qps_low: 300.0,
            qps_high: 1475.0,
            num_queries: 3000,
            work_cycles: 600_000.0,
            accesses_per_req: 4_500.0,
            miss_stall: 3.0,
            shape: CurveShape::new(0.05, vec![smooth(0.75, 0.8, 3.0)]),
        },
        LcProfile {
            name: "xapian",
            qps_low: 130.0,
            qps_high: 570.0,
            num_queries: 1500,
            work_cycles: 1_400_000.0,
            accesses_per_req: 12_000.0,
            miss_stall: 3.0,
            shape: CurveShape::new(0.05, vec![smooth(0.75, 1.0, 3.0)]),
        },
        LcProfile {
            name: "img-dnn",
            qps_low: 28.0,
            qps_high: 135.0,
            num_queries: 350,
            work_cycles: 6_900_000.0,
            accesses_per_req: 30_000.0,
            miss_stall: 3.0,
            shape: CurveShape::new(0.08, vec![smooth(0.70, 1.2, 3.0)]),
        },
        LcProfile {
            name: "silo",
            qps_low: 375.0,
            qps_high: 1750.0,
            num_queries: 3500,
            work_cycles: 540_000.0,
            accesses_per_req: 3_500.0,
            miss_stall: 3.0,
            shape: CurveShape::new(0.05, vec![smooth(0.70, 0.7, 3.0)]),
        },
        LcProfile {
            name: "moses",
            qps_low: 34.0,
            qps_high: 155.0,
            num_queries: 300,
            work_cycles: 4_780_000.0,
            accesses_per_req: 25_000.0,
            miss_stall: 3.0,
            shape: CurveShape::new(0.10, vec![smooth(0.65, 1.8, 3.0)]),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Typical S-NUCA operating point used for calibration checks.
    const SNUCA_LLC_LAT: f64 = 36.0;
    const MISS_PEN: f64 = 140.0;
    const FREQ: f64 = 2.66e9;

    #[test]
    fn five_profiles_match_table3() {
        let lc = tailbench();
        assert_eq!(lc.len(), 5);
        let expect = [
            ("masstree", 300.0, 1475.0, 3000),
            ("xapian", 130.0, 570.0, 1500),
            ("img-dnn", 28.0, 135.0, 350),
            ("silo", 375.0, 1750.0, 3500),
            ("moses", 34.0, 155.0, 300),
        ];
        for (p, (name, low, high, q)) in lc.iter().zip(expect) {
            assert_eq!(p.name, name);
            assert_eq!(p.qps_low, low);
            assert_eq!(p.qps_high, high);
            assert_eq!(p.num_queries, q);
        }
    }

    #[test]
    fn high_load_is_about_half_utilization_at_deadline_point() {
        // Calibration: with the deadline configuration's 2.5 MB (4-way)
        // allocation on S-NUCA, utilization at high load should be ≈50 %
        // (the paper's definition of high load).
        for p in tailbench() {
            let mr = p.shape.ratio(5 * MB / 2);
            let s = p.service_cycles(SNUCA_LLC_LAT, mr, MISS_PEN);
            let rho = s / p.interarrival_cycles(LcLoad::High, FREQ);
            assert!(
                (0.40..=0.60).contains(&rho),
                "{}: utilization {rho:.2} at high load / 2.5 MB",
                p.name
            );
        }
    }

    #[test]
    fn low_load_is_about_tenth_utilization() {
        for p in tailbench() {
            let mr = p.shape.ratio(5 * MB / 2);
            let s = p.service_cycles(SNUCA_LLC_LAT, mr, MISS_PEN);
            let rho = s / p.interarrival_cycles(LcLoad::Low, FREQ);
            assert!(
                (0.06..=0.16).contains(&rho),
                "{}: utilization {rho:.2} at low load",
                p.name
            );
        }
    }

    #[test]
    fn squeezed_allocations_saturate_most_servers() {
        // Fig. 8's mechanism: below the working set, service time grows so
        // much that at high load the queue becomes unstable for the
        // memory-bound servers.
        let mut saturating = 0;
        for p in tailbench() {
            let mr = p.shape.ratio(MB / 4);
            let s = p.service_cycles(SNUCA_LLC_LAT, mr, MISS_PEN);
            let rho = s / p.interarrival_cycles(LcLoad::High, FREQ);
            if rho >= 0.95 {
                saturating += 1;
            }
        }
        assert!(saturating >= 3, "only {saturating} servers saturate");
    }

    #[test]
    fn dnuca_latency_reduction_shifts_the_knee() {
        // The same utilization is reached with less capacity when the LLC
        // latency drops (D-NUCA places data nearby): xapian needs ~0.5 MB
        // less under D-NUCA for the same service time (paper Fig. 8 shows
        // 2 MB D-NUCA ≈ 3 MB S-NUCA).
        let lc = tailbench();
        let xapian = lc.iter().find(|p| p.name == "xapian").unwrap();
        let dnuca_lat = 19.0; // bank + ~1 hop
        let s_dnuca = xapian.service_cycles(dnuca_lat, xapian.shape.ratio(5 * MB / 2), MISS_PEN);
        let s_snuca = xapian.service_cycles(SNUCA_LLC_LAT, xapian.shape.ratio(3 * MB), MISS_PEN);
        let rel = (s_dnuca - s_snuca).abs() / s_snuca;
        assert!(
            rel < 0.15,
            "2.5 MB D-NUCA vs 3 MB S-NUCA differ by {rel:.2}"
        );
    }

    #[test]
    fn access_rate_scales_with_load() {
        let lc = tailbench();
        let m = &lc[0];
        assert!(m.access_rate(LcLoad::High, FREQ) > m.access_rate(LcLoad::Low, FREQ));
    }

    #[test]
    fn curves_monotone() {
        for p in tailbench() {
            let c = p.miss_ratio_curve(32 * 1024, 640);
            for w in c.points().windows(2) {
                assert!(w[1] <= w[0] + 1e-12);
            }
        }
    }
}
