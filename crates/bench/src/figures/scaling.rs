//! Scaling and sensitivity figures: VM-count scaling (Fig. 17) and NoC
//! router-delay sensitivity (Fig. 18).

use super::plan::{CellPlan, FigurePlan};
use super::{jumanji_cells, jumanji_rows, sim_opts, FigureResults};
use crate::spec::ExperimentSpec;
use jumanji::prelude::*;
use jumanji::types::Error;
use jumanji::workloads::WorkloadMix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::Write;

/// The workload mix one Fig. 17 `(config, seed)` cell simulates: four
/// distinct LC servers (as in the Mixed group) drawn with the fig17 seed
/// salt, grouped per the VM config spec.
fn fig17_mix(cfg_spec: &[(usize, usize)], seed: u64) -> WorkloadMix {
    let mut pool = tailbench();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF17);
    pool.shuffle(&mut rng);
    pool.truncate(4);
    WorkloadMix::from_spec(cfg_spec, &pool, seed)
}

/// The router delays Fig. 18 sweeps, in row order.
const ROUTER_CYCLES: [u64; 3] = [1, 2, 3];

/// Fig. 17's cells: each VM config on `mixes` seeds.
pub fn fig17_cells(spec: &ExperimentSpec) -> Vec<CellPlan> {
    let opts = sim_opts(spec);
    jumanji_cells(&fig17_configs(), spec.mixes, |(_, cfg_spec), seed| {
        (fig17_mix(cfg_spec, seed), opts.clone())
    })
}

/// Fig. 17: Jumanji's batch speedup as the 20 applications are grouped
/// into 1 to 12 VMs (mixed latency-critical apps, high load).
pub fn fig17(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Fig. 17: Jumanji batch speedup vs number of VMs ({mixes} mixes, mixed LC, high load)"
    )?;
    writeln!(out, "config\tgmean_speedup_pct\tworst_norm_tail")?;
    let rows = jumanji_rows(plan, results, mixes);
    for ((label, _), (speedup, tail)) in fig17_configs().iter().zip(rows) {
        writeln!(out, "{label}\t{speedup:.2}\t{tail:.3}")?;
    }
    writeln!(
        out,
        "# expected: speedup roughly flat from 1 VM (~16%) to 12 VMs (~13%)."
    )?;
    Ok(())
}

/// Fig. 18's cells: each router delay on `mixes` mixed-LC mixes.
pub fn fig18_cells(spec: &ExperimentSpec) -> Vec<CellPlan> {
    jumanji_cells(&ROUTER_CYCLES, spec.mixes, |&router, seed| {
        let mut opts = sim_opts(spec);
        opts.cfg.noc.router_cycles = router;
        (WorkloadMix::mixed_lc(seed), opts)
    })
}

/// Fig. 18: NoC sensitivity — Jumanji's batch speedup on random mixes as
/// router delay varies from 1 to 3 cycles.
pub fn fig18(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Fig. 18: Jumanji speedup vs router delay ({mixes} mixed-LC mixes, high load)"
    )?;
    writeln!(out, "router_cycles\tgmean_speedup_pct")?;
    for (router, (speedup, _)) in ROUTER_CYCLES.iter().zip(jumanji_rows(plan, results, mixes)) {
        writeln!(out, "{router}\t{speedup:.2}")?;
    }
    writeln!(
        out,
        "# expected: speedup grows with router delay (paper: ~9% -> ~15% for 1 -> 3)."
    )?;
    Ok(())
}
