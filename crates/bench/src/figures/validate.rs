//! Cross-validation of the two simulator layers: for each application,
//! the analytic epoch model's miss ratio and hop distance vs. the
//! detailed execution-driven simulation of the same allocation.

use super::plan::{DetailPlan, FigurePlan};
use super::{example_details, FigureResults};
use crate::spec::ExperimentSpec;
use jumanji::prelude::*;
use jumanji::sim::perf::{evaluate_with, EvalScratch, Profile};
use jumanji::types::Error;
use std::io::Write;

/// Validate's `(design, mix)` rows, one detailed cell each: Adaptive and
/// Jumanji, each on `mixes` rotations of the example problem's rosters.
fn rows(mixes: usize) -> impl Iterator<Item = (DesignKind, usize)> {
    [DesignKind::Adaptive, DesignKind::Jumanji]
        .into_iter()
        .flat_map(move |design| (0..mixes).map(move |mix| (design, mix)))
}

/// Validate's cells: one per [`rows`] entry.
pub fn validate_details(spec: &ExperimentSpec) -> Vec<DetailPlan> {
    example_details(rows(spec.mixes), spec.accesses)
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
    let cells = plan.details.iter().zip(&results.details);
    for ((design, mix), (cell, detail)) in rows(mixes).zip(cells) {
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
                design,
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
            "# {design} mix {mix}: VM-isolated in real cache state: {}",
            detail.vm_isolated(&cell.vms)
        )?;
    }
    writeln!(
        out,
        "# expected: columns agree within coarse tolerance; Jumanji isolated, Adaptive not."
    )?;
    Ok(())
}
