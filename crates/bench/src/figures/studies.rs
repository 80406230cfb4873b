//! Reproduction studies beyond the paper's figures: the design-choice
//! ablation and the modeling-constant sensitivity sweep.

use super::FigureResults;
use crate::spec::ExperimentSpec;
use jumanji::core::jumanji_with_trades;
use jumanji::prelude::*;
use jumanji::sim::metrics::gmean;
use jumanji::types::{Error, Seconds};
use jumanji::workloads::WorkloadMix;
use std::io::Write;
use std::sync::Arc;

/// Ablation study of Jumanji's design choices (DESIGN.md §"ablations"):
///
/// 1. **Trade refinement** (Sec. V-D): Jumanji + the trade pass vs plain
///    Jumanji — reproduces the paper's negative result (trades are rare
///    and gains marginal).
/// 2. **Bank isolation** (Sec. VI-D): Jumanji vs Insecure — what the
///    security guarantee costs.
/// 3. **Greedy LC placement** (Sec. VIII-C): Jumanji vs Ideal Batch —
///    what the simple LatCritPlacer leaves on the table.
/// 4. **Controller panic** (Sec. V-C): paper controller vs one with the
///    panic disabled — why the boost matters for tails.
pub fn ablation(
    spec: &ExperimentSpec,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;

    // 1. Trade refinement on static placement problems.
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let base = DesignKind::Jumanji.allocate(&input);
    let (traded, stats) = jumanji_with_trades(&input);
    let avg_batch_dist = |alloc: &jumanji::core::Allocation| -> f64 {
        let batch: Vec<_> = input
            .apps
            .iter()
            .filter(|a| a.kind == jumanji::core::AppKind::Batch)
            .collect();
        batch
            .iter()
            .map(|a| alloc.avg_distance(&input, a.id))
            .sum::<f64>()
            / batch.len() as f64
    };
    writeln!(out, "# Ablation 1: trade-based refinement (paper Sec. V-D)")?;
    writeln!(
        out,
        "trades\taccepted {}/{} candidates",
        stats.accepted, stats.attempted
    )?;
    writeln!(
        out,
        "trades\tbatch avg distance: {:.3} hops -> {:.3} hops",
        avg_batch_dist(&base),
        avg_batch_dist(&traded)
    )?;
    writeln!(
        out,
        "# expected: few accepts, marginal distance change (the paper omitted trades).\n"
    )?;

    // 2-3. Isolation and ideality costs over random mixes. Each seed
    // plans two cells: [Static, Jumanji, Insecure, Ideal Batch] under the
    // paper controller, then [Jumanji] with the panic disabled.
    let per_seed = || results.runs.chunks(2);
    let speedups = |d: usize| -> Vec<f64> {
        per_seed()
            .map(|cells| cells[0][d].weighted_speedup_vs(&cells[0][0]))
            .collect()
    };
    let (jumanji_s, insecure_s, ideal_s) = (speedups(1), speedups(2), speedups(3));
    writeln!(
        out,
        "# Ablation 2-3: isolation and greedy-placement costs ({mixes} mixes)"
    )?;
    writeln!(
        out,
        "isolation\tjumanji {:+.2}% vs insecure {:+.2}% (cost {:.2} pp)",
        (gmean(&jumanji_s) - 1.0) * 100.0,
        (gmean(&insecure_s) - 1.0) * 100.0,
        (gmean(&insecure_s) - gmean(&jumanji_s)) * 100.0
    )?;
    writeln!(
        out,
        "greedy-lc\tjumanji {:+.2}% vs ideal {:+.2}% (gap {:.2} pp)",
        (gmean(&jumanji_s) - 1.0) * 100.0,
        (gmean(&ideal_s) - 1.0) * 100.0,
        (gmean(&ideal_s) - gmean(&jumanji_s)) * 100.0
    )?;
    writeln!(
        out,
        "# expected: isolation cost < ~3 pp, ideality gap < ~2 pp (Fig. 16).\n"
    )?;

    // 4. Panic ablation: the threshold raised out of reach.
    let with_t = per_seed()
        .map(|cells| cells[0][1].max_norm_tail())
        .fold(0.0f64, f64::max);
    let without_t = per_seed()
        .map(|cells| cells[1][0].max_norm_tail())
        .fold(0.0f64, f64::max);
    writeln!(out, "# Ablation 4: controller panic boost")?;
    writeln!(
        out,
        "panic\tworst norm tail with panic: {with_t:.2}, without: {without_t:.2}"
    )?;
    writeln!(
        out,
        "# expected: disabling the panic worsens worst-case tails (queueing spikes"
    )?;
    writeln!(out, "# otherwise recover one 10% step per 100 ms).")?;
    Ok(())
}

/// The panic-disabled controller of ablation part 4: the paper's
/// parameters with the panic threshold raised out of reach (see
/// [`super::plan`]).
pub(crate) fn no_panic_params() -> ControllerParams {
    let llc = SystemConfig::micro2020().llc.total_bytes() as f64;
    ControllerParams {
        panic_threshold: f64::MAX,
        ..ControllerParams::micro2020(llc)
    }
}

struct Row {
    jumanji_speedup: f64,
    jigsaw_speedup: f64,
    adaptive_speedup: f64,
    jumanji_tail: f64,
    jigsaw_tail: f64,
}

impl Row {
    /// One sweep job's row from its [Static, Jumanji, Jigsaw, Adaptive]
    /// runs.
    fn of(runs: &[Arc<ExperimentResult>]) -> Row {
        let (stat, jumanji, jigsaw, adaptive) = (&runs[0], &runs[1], &runs[2], &runs[3]);
        Row {
            jumanji_speedup: (jumanji.weighted_speedup_vs(stat) - 1.0) * 100.0,
            jigsaw_speedup: (jigsaw.weighted_speedup_vs(stat) - 1.0) * 100.0,
            adaptive_speedup: (adaptive.weighted_speedup_vs(stat) - 1.0) * 100.0,
            jumanji_tail: jumanji.max_norm_tail(),
            jigsaw_tail: jigsaw.max_norm_tail(),
        }
    }
}

/// The sensitivity sweep's job list for `n` seeds per knob:
/// `(mix, options, label)` rows in sweep order: the plan's cells and the
/// render's row labels. Construction is cheap and deterministic.
pub(crate) fn sensitivity_jobs(n: usize) -> Vec<(WorkloadMix, SimOptions, String)> {
    let mut jobs: Vec<(WorkloadMix, SimOptions, String)> = Vec::new();

    // 1. Miss-serialization factor of the LC service model.
    for stall in [2.0f64, 3.0, 4.0] {
        for seed in 0..n as u64 {
            let mut mix = case_study_mix(seed);
            for vm in &mut mix.vms {
                for lc in &mut vm.lc {
                    lc.miss_stall = stall;
                }
            }
            jobs.push((mix, SimOptions::default(), format!("miss_stall\t{stall}x")));
        }
    }
    // 2. Simulated horizon.
    for secs in [2.0f64, 4.0, 8.0] {
        for seed in 0..n as u64 {
            jobs.push((
                case_study_mix(seed),
                SimOptions {
                    duration: Seconds(secs),
                    ..SimOptions::default()
                },
                format!("duration\t{secs}s"),
            ));
        }
    }
    // 3. Reconfiguration period (the paper: "more frequent
    //    reconfigurations do not improve results").
    for ms in [50.0f64, 100.0, 200.0] {
        for seed in 0..n as u64 {
            jobs.push((
                case_study_mix(seed),
                SimOptions {
                    reconfig: Seconds::from_millis(ms),
                    ..SimOptions::default()
                },
                format!("reconfig\t{ms}ms"),
            ));
        }
    }
    // 4. Arrival-stream seeds.
    for seed in 0..(3 * n as u64) {
        jobs.push((
            case_study_mix(seed),
            SimOptions {
                seed: seed ^ 0xC0FFEE,
                ..SimOptions::default()
            },
            "seed\tvaried".to_string(),
        ));
    }
    jobs
}

/// Robustness of the reproduction's conclusions to its modeling
/// constants.
///
/// The workload models involve calibrated constants the paper's real
/// binaries fix implicitly (the pointer-chasing miss-serialization
/// factor, simulated horizon, reconfiguration period, RNG seeds). This
/// sweep shows the *qualitative* conclusions — Jumanji meets deadlines
/// near Jigsaw's batch speedup while Jigsaw violates and S-NUCA designs
/// gain nothing — hold across those choices.
pub fn sensitivity(
    spec: &ExperimentSpec,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let n = spec.mixes;
    writeln!(
        out,
        "# Sensitivity of conclusions to modeling choices ({n} seeds each)"
    )?;
    writeln!(
        out,
        "knob\tvariant\tjumanji%\tjigsaw%\tadaptive%\tjumanji_tail\tjigsaw_tail"
    )?;
    // Aggregate the jobs' rows by label.
    let mut agg: Vec<(String, Vec<Row>)> = Vec::new();
    for ((_, _, label), runs) in sensitivity_jobs(n).into_iter().zip(&results.runs) {
        let row = Row::of(runs);
        match agg.iter_mut().find(|(l, _)| *l == label) {
            Some((_, v)) => v.push(row),
            None => agg.push((label, vec![row])),
        }
    }
    let mut ok = true;
    for (label, group) in &agg {
        let mean =
            |f: fn(&Row) -> f64| -> f64 { group.iter().map(f).sum::<f64>() / group.len() as f64 };
        let (ju, ji, ad) = (
            mean(|r| r.jumanji_speedup),
            mean(|r| r.jigsaw_speedup),
            mean(|r| r.adaptive_speedup),
        );
        let (jut, jit) = (mean(|r| r.jumanji_tail), mean(|r| r.jigsaw_tail));
        writeln!(
            out,
            "{label}\t{ju:.2}\t{ji:.2}\t{ad:.2}\t{jut:.2}\t{jit:.2}"
        )?;
        // The qualitative claims under every variant: Jumanji gains real
        // batch speedup while (roughly) meeting deadlines, Jigsaw gains
        // more but its mean worst-case tail violates the deadline, and
        // S-NUCA partitioning gains comparatively nothing. The Jigsaw
        // gate is a violation test (> 1.1), not a magnitude test: how far
        // past the deadline Jigsaw lands swings with the knobs (12.8x at
        // 4x miss-serialization, 1.2x at 2x), and that swing is expected.
        ok &= ju > 4.0 && ji > ju && ju > ad + 3.0 && jut < 1.5 && jit > 1.1;
    }
    writeln!(
        out,
        "# qualitative conclusions hold under every variant: {}",
        if ok {
            "YES"
        } else {
            "NO — inspect rows above"
        }
    )?;
    Ok(())
}
