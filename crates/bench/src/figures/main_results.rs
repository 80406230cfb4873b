//! The paper's headline evaluation: Fig. 13 (tail latency + batch
//! speedup distributions), Fig. 14 (vulnerability), Fig. 15 (energy),
//! and Fig. 16 (the cost of Jumanji's security and simplicity).

use super::plan::{CellPlan, FigurePlan};
use super::{sim_opts, with_baseline, FigureResults};
use crate::spec::{ExperimentSpec, FigureKind};
use crate::{mix_cell_inputs, BoxStats, DesignCell, LcGroup, MixMetrics};
use jumanji::prelude::*;
use jumanji::types::Error;
use std::io::Write;

/// The `(group, load)` matrices `kind` plots, in plan and row order:
/// every workload group at high load, then (except Fig. 15, which runs
/// high load only) every group at low load.
fn matrices(kind: FigureKind) -> Vec<(LcGroup, LcLoad)> {
    let loads: &[LcLoad] = match kind {
        FigureKind::Fig15 => &[LcLoad::High],
        _ => &[LcLoad::High, LcLoad::Low],
    };
    loads
        .iter()
        .flat_map(|&load| LcGroup::all().into_iter().map(move |g| (g, load)))
        .collect()
}

/// The matrix figures' cells (13–16): one per `(matrix, seed)`, each
/// running the Static baseline plus the spec's designs (an error if a
/// group names no server). Figs. 13 and 14 name the same cells, so the
/// graph runs them once.
pub fn matrix_cells(spec: &ExperimentSpec) -> Result<Vec<CellPlan>, Error> {
    let base = sim_opts(spec);
    let designs = with_baseline(spec.designs());
    let matrices = matrices(spec.kind);
    let mut cells = Vec::with_capacity(matrices.len() * spec.mixes);
    for (group, load) in matrices {
        for seed in 0..spec.mixes as u64 {
            let (mix, opts) = mix_cell_inputs(group, seed, &base)?;
            cells.push(CellPlan {
                mix,
                load,
                opts,
                designs: designs.clone(),
            });
        }
    }
    Ok(cells)
}

/// Each matrix beside its per-design distributions, in
/// [`matrices`] order: one `DesignCell` per `spec.designs()` entry, over
/// the matrix's `spec.mixes` consecutive cells.
fn design_cells(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
) -> Vec<((LcGroup, LcLoad), Vec<DesignCell>)> {
    let mixes = spec.mixes;
    matrices(spec.kind)
        .into_iter()
        .enumerate()
        .map(|(m, matrix)| {
            let mut cells: Vec<DesignCell> = spec
                .designs()
                .iter()
                .map(|_| DesignCell::with_capacity(mixes))
                .collect();
            for i in m * mixes..(m + 1) * mixes {
                let baseline = results.run(plan, i, DesignKind::Static);
                for (cell, &design) in cells.iter_mut().zip(spec.designs()) {
                    cell.push(&MixMetrics::of(results.run(plan, i, design), baseline));
                }
            }
            (matrix, cells)
        })
        .collect()
}

/// Display label for a load level.
fn load_label(load: LcLoad) -> &'static str {
    match load {
        LcLoad::High => "high",
        LcLoad::Low => "low",
    }
}

/// Fig. 13: normalized tail latency and gmean batch weighted speedup
/// (relative to Static) over random batch mixes, at high and low
/// latency-critical load, for each workload group and design.
///
/// Box-and-whisker rows: min, q1, median, q3, max over mixes.
pub fn fig13(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    let designs = spec.designs();
    writeln!(
        out,
        "# Fig. 13: tail latency + batch speedup over {mixes} random mixes"
    )?;
    writeln!(out, "group\tload\tdesign\tmetric\tmin\tq1\tmedian\tq3\tmax")?;
    for ((group, load), cells) in &design_cells(spec, plan, results) {
        let load_label = load_label(*load);
        for (design, cell) in designs.iter().zip(cells) {
            writeln!(
                out,
                "{}\t{}\t{}\tnorm_tail\t{}",
                group.label(),
                load_label,
                design,
                BoxStats::of(&cell.norm_tails)?.tsv()
            )?;
            writeln!(
                out,
                "{}\t{}\t{}\tspeedup\t{}",
                group.label(),
                load_label,
                design,
                BoxStats::of(&cell.speedups)?.tsv()
            )?;
        }
        // Per-group gmean summary (quoted in the text).
        for (design, cell) in designs.iter().zip(cells) {
            eprintln!(
                "[summary] {} {} {}: gmean speedup {:+.1}%, median norm tail {:.2}",
                group.label(),
                load_label,
                design,
                (cell.gmean_speedup() - 1.0) * 100.0,
                BoxStats::of(&cell.norm_tails)?.median
            );
        }
    }
    writeln!(
        out,
        "# expected: Adaptive/VM-Part/Jumanji norm tails ~<=1 (rare exceptions);"
    )?;
    writeln!(
        out,
        "# Jigsaw violates massively (up to 100x+); speedups: Jumanji 11-15%,"
    )?;
    writeln!(out, "# Jigsaw 11-18%, Adaptive <=4%, VM-Part <=3%.")?;
    Ok(())
}

/// Fig. 14: each LLC design's vulnerability to port attacks — average
/// number of potential attackers per LLC access, averaged over all
/// experiments.
pub fn fig14(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    let designs = spec.designs();
    let mut acc = vec![Vec::new(); designs.len()];
    for (_, cells) in &design_cells(spec, plan, results) {
        for (d, cell) in cells.iter().enumerate() {
            acc[d].extend(cell.vulnerability.iter().copied());
        }
    }
    writeln!(
        out,
        "# Fig. 14: avg potential attackers per LLC access ({mixes} mixes/group)"
    )?;
    writeln!(out, "design\tavg_attackers")?;
    for (design, vals) in designs.iter().zip(&acc) {
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        writeln!(out, "{design}\t{mean:.3}")?;
    }
    writeln!(
        out,
        "# expected: Adaptive = VM-Part = 15 (all untrusted apps), Jigsaw small"
    )?;
    writeln!(out, "# but nonzero (paper: 0.63), Jumanji exactly 0.")?;
    Ok(())
}

/// Fig. 15: dynamic data-movement energy at high load, broken down into
/// L1 / L2 / LLC banks / NoC / memory, normalized to the first design in
/// the list (Static by default).
pub fn fig15(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let designs = spec.designs();
    writeln!(
        out,
        "# Fig. 15: data-movement energy at high load, normalized to Static"
    )?;
    writeln!(out, "group\tdesign\tl1\tl2\tllc\tnoc\tmem\ttotal")?;
    let mut totals = vec![0.0f64; designs.len()];
    let mut static_total = 0.0f64;
    for ((group, _), cells) in &design_cells(spec, plan, results) {
        // Per-group baseline (first design) for normalization.
        let base: f64 = cells[0]
            .energy
            .iter()
            .map(|(a, b, c, d, e)| a + b + c + d + e)
            .sum();
        for (d, (design, cell)) in designs.iter().zip(cells).enumerate() {
            let sum = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| -> f64 {
                cell.energy.iter().map(f).sum::<f64>() / base
            };
            let l1 = sum(|e| e.0);
            let l2 = sum(|e| e.1);
            let llc = sum(|e| e.2);
            let noc = sum(|e| e.3);
            let mem = sum(|e| e.4);
            let total = l1 + l2 + llc + noc + mem;
            writeln!(
                out,
                "{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                group.label(),
                design,
                l1,
                l2,
                llc,
                noc,
                mem,
                total
            )?;
            totals[d] += total;
            if d == 0 {
                static_total += 1.0;
            }
        }
    }
    writeln!(out, "# averages over groups (normalized total energy):")?;
    for (design, t) in designs.iter().zip(&totals) {
        writeln!(out, "# {design}: {:.3}", t / static_total)?;
    }
    writeln!(
        out,
        "# expected: Jumanji ~= Jigsaw ~= 0.87 (13% savings); Adaptive ~1.00;"
    )?;
    writeln!(
        out,
        "# VM-Part slightly above 1.00 (associativity-induced extra misses)."
    )?;
    Ok(())
}

/// Fig. 16: what Jumanji's security and simplicity cost — batch speedup
/// of Jumanji vs. "Jumanji: Insecure" (no bank isolation) and "Jumanji:
/// Ideal Batch" (no competition with latency-critical placement), at
/// high and low load.
pub fn fig16(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    let designs = spec.designs();
    writeln!(
        out,
        "# Fig. 16: Jumanji vs Insecure vs Ideal Batch ({mixes} mixes/group)"
    )?;
    writeln!(out, "load\tgroup\tjumanji_pct\tinsecure_pct\tideal_pct")?;
    // Matrices run load-major: one chunk of every group per load.
    for chunk in design_cells(spec, plan, results).chunks(LcGroup::all().len()) {
        let (_, load) = chunk[0].0;
        let label = load_label(load);
        let mut sums = vec![0.0f64; designs.len()];
        let mut count = 0.0;
        for ((group, _), cells) in chunk {
            let g: Vec<String> = cells
                .iter()
                .map(|c| format!("{:.2}", (c.gmean_speedup() - 1.0) * 100.0))
                .collect();
            writeln!(out, "{label}\t{}\t{}", group.label(), g.join("\t"))?;
            for (s, c) in sums.iter_mut().zip(cells) {
                *s += (c.gmean_speedup() - 1.0) * 100.0;
            }
            count += 1.0;
        }
        writeln!(
            out,
            "# {label} averages: jumanji {:.2}%, insecure {:.2}%, ideal {:.2}%",
            sums[0] / count,
            sums[1] / count,
            sums[2] / count
        )?;
    }
    writeln!(
        out,
        "# expected: Jumanji within ~3% of Insecure and ~2% of Ideal Batch (gmean)."
    )?;
    Ok(())
}
