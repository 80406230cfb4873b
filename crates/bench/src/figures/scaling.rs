//! Scaling and sensitivity figures: VM-count scaling (Fig. 17) and NoC
//! router-delay sensitivity (Fig. 18).

use super::FigureResults;
use crate::spec::ExperimentSpec;
use jumanji::prelude::*;
use jumanji::sim::metrics::gmean;
use jumanji::types::Error;
use jumanji::workloads::WorkloadMix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::Write;

/// The workload mix one Fig. 17 `(config, seed)` cell simulates: four
/// distinct LC servers (as in the Mixed group) drawn with the fig17 seed
/// salt, grouped per the VM config spec (see [`super::plan`]).
pub(crate) fn fig17_mix(cfg_spec: &[(usize, usize)], seed: u64) -> WorkloadMix {
    let mut pool = tailbench();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF17);
    pool.shuffle(&mut rng);
    pool.truncate(4);
    WorkloadMix::from_spec(cfg_spec, &pool, seed)
}

/// The router delays Fig. 18 sweeps, in row order.
pub(crate) const FIG18_ROUTER_CYCLES: [u64; 3] = [1, 2, 3];

/// Fig. 17: Jumanji's batch speedup as the 20 applications are grouped
/// into 1 to 12 VMs (mixed latency-critical apps, high load).
pub fn fig17(
    spec: &ExperimentSpec,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Fig. 17: Jumanji batch speedup vs number of VMs ({mixes} mixes, mixed LC, high load)"
    )?;
    writeln!(out, "config\tgmean_speedup_pct\tworst_norm_tail")?;
    // Each config's cells run [Static, Jumanji] over `mixes` seeds.
    for ((label, _), runs) in fig17_configs().iter().zip(results.runs.chunks(mixes)) {
        let speedups: Vec<f64> = runs
            .iter()
            .map(|r| r[1].weighted_speedup_vs(&r[0]))
            .collect();
        let worst_tail = runs
            .iter()
            .map(|r| r[1].max_norm_tail())
            .fold(0.0f64, f64::max);
        writeln!(
            out,
            "{label}\t{:.2}\t{:.3}",
            (gmean(&speedups) - 1.0) * 100.0,
            worst_tail
        )?;
    }
    writeln!(
        out,
        "# expected: speedup roughly flat from 1 VM (~16%) to 12 VMs (~13%)."
    )?;
    Ok(())
}

/// Fig. 18: NoC sensitivity — Jumanji's batch speedup on random mixes as
/// router delay varies from 1 to 3 cycles.
pub fn fig18(
    spec: &ExperimentSpec,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Fig. 18: Jumanji speedup vs router delay ({mixes} mixed-LC mixes, high load)"
    )?;
    writeln!(out, "router_cycles\tgmean_speedup_pct")?;
    // Each router delay's cells run [Static, Jumanji] over `mixes` seeds.
    for (router, runs) in FIG18_ROUTER_CYCLES.iter().zip(results.runs.chunks(mixes)) {
        let speedups: Vec<f64> = runs
            .iter()
            .map(|r| r[1].weighted_speedup_vs(&r[0]))
            .collect();
        writeln!(out, "{router}\t{:.2}", (gmean(&speedups) - 1.0) * 100.0)?;
    }
    writeln!(
        out,
        "# expected: speedup grows with router delay (paper: ~9% -> ~15% for 1 -> 3)."
    )?;
    Ok(())
}
