//! Cross-validation of the two simulator layers: for each application,
//! the analytic epoch model's miss ratio and hop distance vs. the
//! detailed execution-driven simulation of the same allocation.

use super::plan::FigurePlan;
use super::FigureResults;
use crate::spec::ExperimentSpec;
use jumanji::core::AppKind;
use jumanji::prelude::*;
use jumanji::sim::detail::DetailOptions;
use jumanji::sim::perf::{evaluate_with, EvalScratch, Profile};
use jumanji::types::Error;
use std::io::Write;

/// The two designs validate cross-checks (see [`super::plan`]).
pub(crate) const DESIGNS: [DesignKind; 2] = [DesignKind::Adaptive, DesignKind::Jumanji];

/// Builds the profile list for one mix by rotating the LC and batch
/// rosters; mix 0 is the canonical assignment the seed tree used.
pub(crate) fn profiles_for_mix(input: &PlacementInput, mix: usize) -> Vec<Profile> {
    let lc = tailbench();
    let batch = spec2006();
    input
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| match a.kind {
            AppKind::LatencyCritical => Profile::Lc(lc[(i + mix) % lc.len()].clone(), LcLoad::High),
            AppKind::Batch => Profile::Batch(batch[(i + 2 * mix) % batch.len()].clone()),
        })
        .collect()
}

/// The detailed-run options for one validate mix: per-cell seeds derive
/// from the mix index alone, so output is byte-identical at any thread
/// count.
pub(crate) fn detail_opts(cfg: &SystemConfig, accesses: usize, mix: usize) -> DetailOptions {
    DetailOptions {
        cfg: cfg.clone(),
        accesses_per_app: accesses,
        seed: DetailOptions::default().seed ^ (mix as u64).wrapping_mul(0x9E37_79B9),
        ..DetailOptions::default()
    }
}

/// Analytic-vs-detailed cross-validation over `(design, mix)` cells:
/// each planned detailed cell's report beside the analytic model's
/// evaluation of the same allocation.
pub fn validate(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Analytic vs detailed simulation, per app, {mixes} mixes, two designs"
    )?;
    writeln!(
        out,
        "design\tmix\tapp\tcap_mb\tmr_analytic\tmr_detailed\thops_analytic\thops_detailed"
    )?;
    // Cells are design-major: index = design * mixes + mix.
    for (idx, (cell, detail)) in plan.details.iter().zip(&results.details).enumerate() {
        let mix = idx % mixes;
        let rates: Vec<f64> = cell
            .profiles
            .iter()
            .map(|p| match p {
                Profile::Batch(b) => 1.5e9 * b.llc_apki / 1000.0,
                Profile::Lc(l, load) => l.qps(*load) * l.accesses_per_req,
            })
            .collect();
        let analytic = evaluate_with(
            &cell.opts.cfg,
            &cell.profiles,
            &cell.cores,
            &cell.alloc,
            &rates,
            &mut EvalScratch::new(),
        );
        for (i, profile) in cell.profiles.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{:.2}\t{:.3}\t{:.3}\t{:.2}\t{:.2}",
                cell.design,
                mix,
                profile.name(),
                analytic[i].capacity_bytes / 1048576.0,
                analytic[i].miss_ratio,
                detail.apps[i].miss_ratio(),
                analytic[i].avg_hops,
                detail.apps[i].avg_hops(),
            )?;
        }
        writeln!(
            out,
            "# {} mix {}: VM-isolated in real cache state: {}",
            cell.design,
            mix,
            detail.vm_isolated(&cell.vms)
        )?;
    }
    writeln!(
        out,
        "# expected: columns agree within coarse tolerance; Jumanji isolated, Adaptive not."
    )?;
    Ok(())
}
