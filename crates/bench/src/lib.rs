//! Harness code that reproduces the paper's evaluation: every table and
//! figure as TSV, regenerated by the `suite` binary
//! (`suite --figures fig13,fig14 …`).
//!
//! - [`ExperimentSpec`] / [`FigureKind`] ([`spec`]): *what to run*. A
//!   figure and the inputs its cells derive from (mixes, seed,
//!   detailed-sim accesses), with per-figure defaults, `--flag`
//!   overrides and typed usage errors. Run-wide settings (threads, the
//!   store, the trace) are the `suite` command line's alone.
//! - [`figures`]: each figure's *plan* (the cells it needs) and its
//!   *render* (a pure fold of those cells' results into TSV).
//! - [`suite`]: the one executor — plan → union → schedule ([`exec`]) →
//!   render — every invocation runs on, reading and writing cells
//!   through the [`CellCache`] and its optional [`DiskCache`].
//! - [`BoxStats`], [`DesignCell`], [`MixMetrics`], [`LcGroup`]: the
//!   summaries and workload groups the renders share.
//!
//! Fallible operations return [`enum@Error`] instead of panicking; the
//! `suite` binary maps usage errors to exit code 2 and runtime errors
//! to 1.

#![warn(missing_docs)]

pub mod cell_cache;
pub mod disk_cache;
pub mod exec;
pub mod figures;
pub mod scenario;
pub mod spec;
pub mod suite;

pub use cell_cache::{CellCache, CellCacheStats};
pub use disk_cache::{DiskCache, DiskCacheStats};
pub use spec::{ExperimentSpec, FigureKind};

use jumanji::prelude::*;
use jumanji::sim::metrics::gmean;
use jumanji::types::Error;

/// Number of random batch mixes per configuration in the paper (Fig. 13).
pub const PAPER_MIXES: usize = 40;

/// Five-number summary for box-and-whisker figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum (lower whisker).
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Maximum (upper whisker).
    pub max: f64,
}

impl BoxStats {
    /// Computes the summary of a non-empty sample.
    ///
    /// Sorts a copy of `values` (a box holds at most one figure's mix
    /// count) and interpolates each quartile between the neighbouring
    /// order statistics at `p·(n-1)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptySample`] when `values` is empty.
    pub fn of(values: &[f64]) -> Result<BoxStats, Error> {
        if values.is_empty() {
            return Err(Error::empty_sample("box-plot values"));
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let q = |p: f64| -> f64 {
            let idx = p * (v.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = idx - lo as f64;
            v[lo] * (1.0 - frac) + v[hi] * frac
        };
        Ok(BoxStats {
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: v[v.len() - 1],
        })
    }

    /// TSV fields `min q1 median q3 max`.
    pub fn tsv(&self) -> String {
        format!(
            "{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// Result of running one (workload group, load, design) cell of Fig. 13:
/// distributions over mixes.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignCell {
    /// Worst LC normalized tail latency per mix.
    pub norm_tails: Vec<f64>,
    /// Batch weighted speedup vs. Static per mix.
    pub speedups: Vec<f64>,
    /// Mean vulnerability per mix.
    pub vulnerability: Vec<f64>,
    /// Energy components per mix `(l1, l2, llc, noc, mem)`.
    pub energy: Vec<(f64, f64, f64, f64, f64)>,
}

impl DesignCell {
    /// An empty cell with room for `mixes` entries per metric.
    pub fn with_capacity(mixes: usize) -> DesignCell {
        DesignCell {
            norm_tails: Vec::with_capacity(mixes),
            speedups: Vec::with_capacity(mixes),
            vulnerability: Vec::with_capacity(mixes),
            energy: Vec::with_capacity(mixes),
        }
    }

    /// Appends one mix's metrics.
    pub fn push(&mut self, m: &MixMetrics) {
        self.norm_tails.push(m.norm_tail);
        self.speedups.push(m.speedup);
        self.vulnerability.push(m.vulnerability);
        self.energy.push(m.energy);
    }

    /// Geometric-mean speedup over mixes.
    pub fn gmean_speedup(&self) -> f64 {
        gmean(&self.speedups)
    }
}

/// Metrics of one design on one mix (one column entry of a [`DesignCell`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixMetrics {
    /// Worst LC normalized tail latency.
    pub norm_tail: f64,
    /// Batch weighted speedup vs. the Static baseline.
    pub speedup: f64,
    /// Mean vulnerability.
    pub vulnerability: f64,
    /// Energy per instruction `(l1, l2, llc, noc, mem)`.
    pub energy: (f64, f64, f64, f64, f64),
}

impl MixMetrics {
    /// The metrics of run `r` against the Static `baseline` of its mix.
    fn of(r: &ExperimentResult, baseline: &ExperimentResult) -> MixMetrics {
        let e = r.energy_per_instruction();
        MixMetrics {
            norm_tail: r.max_norm_tail(),
            speedup: r.weighted_speedup_vs(baseline),
            vulnerability: r.vulnerability,
            energy: (e.l1, e.l2, e.llc, e.noc, e.mem),
        }
    }
}

/// Workload selector for a Fig. 13 group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcGroup {
    /// Four instances of the named TailBench server.
    Same(&'static str),
    /// Four random distinct servers per mix.
    Mixed,
}

impl LcGroup {
    /// The six groups of Fig. 13, in plotting order.
    pub fn all() -> [LcGroup; 6] {
        [
            LcGroup::Same("masstree"),
            LcGroup::Same("xapian"),
            LcGroup::Same("img-dnn"),
            LcGroup::Same("silo"),
            LcGroup::Same("moses"),
            LcGroup::Mixed,
        ]
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            LcGroup::Same(n) => n.to_string(),
            LcGroup::Mixed => "Mixed".to_string(),
        }
    }

    /// Builds the mix for seed `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] when a [`LcGroup::Same`] name
    /// matches no TailBench server.
    pub fn mix(self, seed: u64) -> Result<WorkloadMix, Error> {
        match self {
            LcGroup::Same(name) => {
                let lc = tailbench()
                    .into_iter()
                    .find(|p| p.name == name)
                    .ok_or_else(|| Error::unknown_workload(name))?;
                Ok(WorkloadMix::uniform_lc(&lc, seed))
            }
            LcGroup::Mixed => Ok(WorkloadMix::mixed_lc(seed)),
        }
    }
}

/// The exact `(mix, options)` inputs of the matrix figures' cell for
/// `seed` in `group`: the mix, and `opts` with the per-mix seed
/// (`opts.seed ^ seed · 0x9E37_79B9`) folded in, so each mix's RNG
/// streams depend only on its own seed.
///
/// # Errors
///
/// Returns [`Error::UnknownWorkload`] when the group names no server.
pub fn mix_cell_inputs(
    group: LcGroup,
    seed: u64,
    opts: &SimOptions,
) -> Result<(WorkloadMix, SimOptions), Error> {
    let mut opts = opts.clone();
    opts.seed ^= seed.wrapping_mul(0x9E37_79B9);
    Ok((group.mix(seed)?, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_quartiles() {
        let s = BoxStats::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("non-empty");
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        // Sorted 1, 2, 2, 3: q1 at rank 0.75, q3 at rank 2.25.
        let s = BoxStats::of(&[3.0, 1.0, 2.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.0, 2.25));
    }

    #[test]
    fn box_stats_matches_full_sort_reference() {
        // Quartiles interpolate between neighbouring order statistics on
        // awkward sizes (1, 2, ties, interpolated quartiles).
        let samples: Vec<Vec<f64>> = vec![
            vec![7.0],
            vec![2.0, 1.0],
            vec![3.0, 1.0, 2.0, 2.0],
            vec![0.5, 9.0, 3.25, 3.25, 3.25, 1.0, 8.0],
            (0..97).map(|i| ((i * 31) % 89) as f64 * 0.125).collect(),
        ];
        for values in samples {
            let got = BoxStats::of(&values).expect("non-empty");
            let mut v = values.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let q = |p: f64| -> f64 {
                let idx = p * (v.len() - 1) as f64;
                let lo = idx.floor() as usize;
                let hi = idx.ceil() as usize;
                let frac = idx - lo as f64;
                v[lo] * (1.0 - frac) + v[hi] * frac
            };
            assert_eq!(got.min, v[0], "{values:?}");
            assert_eq!(got.q1, q(0.25), "{values:?}");
            assert_eq!(got.median, q(0.5), "{values:?}");
            assert_eq!(got.q3, q(0.75), "{values:?}");
            assert_eq!(got.max, v[v.len() - 1], "{values:?}");
        }
    }

    #[test]
    fn box_stats_rejects_empty_sample() {
        let err = BoxStats::of(&[]).expect_err("empty must fail");
        assert!(!err.is_usage());
        assert!(err.to_string().contains("empty sample"));
    }

    #[test]
    fn groups_enumerate_the_paper_order() {
        let labels: Vec<String> = LcGroup::all().iter().map(|g| g.label()).collect();
        assert_eq!(
            labels,
            vec!["masstree", "xapian", "img-dnn", "silo", "moses", "Mixed"]
        );
    }

    #[test]
    fn unknown_workload_is_a_typed_usage_error() {
        let err = LcGroup::Same("nonesuch").mix(0).expect_err("must fail");
        assert!(err.is_usage());
        assert!(err.to_string().contains("nonesuch"));
    }
}
