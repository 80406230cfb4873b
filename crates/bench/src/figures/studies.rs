//! Reproduction studies beyond the paper's figures: the design-choice
//! ablation and the modeling-constant sensitivity sweep.

use super::plan::{CellPlan, FigurePlan};
use super::{sim_opts, FigureResults};
use crate::spec::ExperimentSpec;
use jumanji::core::jumanji_with_trades;
use jumanji::prelude::*;
use jumanji::sim::metrics::gmean;
use jumanji::types::{Error, Seconds};
use jumanji::workloads::WorkloadMix;
use std::io::Write;

/// The ablation's rows, one cell each: per case-study seed, the paper
/// controller (`true`), then the controller with its panic disabled.
fn ablation_rows(mixes: usize) -> impl Iterator<Item = (u64, bool)> {
    (0..mixes as u64).flat_map(|seed| [(seed, true), (seed, false)])
}

/// The ablation's cells: one per [`ablation_rows`] entry. The paper
/// controller's cell runs [Static, Jumanji, Insecure, Ideal Batch]; the
/// panic-disabled one (its threshold raised out of reach) runs Jumanji.
pub fn ablation_cells(spec: &ExperimentSpec) -> Vec<CellPlan> {
    use DesignKind::*;
    let paper = sim_opts(spec);
    let llc = SystemConfig::micro2020().llc.total_bytes() as f64;
    let no_panic = SimOptions {
        controller: Some(ControllerParams {
            panic_threshold: f64::MAX,
            ..ControllerParams::micro2020(llc)
        }),
        ..paper.clone()
    };
    ablation_rows(spec.mixes)
        .map(|(seed, panic)| CellPlan {
            mix: case_study_mix(seed),
            load: LcLoad::High,
            opts: if panic { &paper } else { &no_panic }.clone(),
            designs: if panic {
                vec![Static, Jumanji, JumanjiInsecure, JumanjiIdealBatch]
            } else {
                vec![Jumanji]
            },
        })
        .collect()
}

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
    plan: &FigurePlan,
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

    // 2-3. Isolation and ideality costs over random mixes, on the paper
    // controller's cells.
    let cells_with = |panic: bool| {
        ablation_rows(mixes)
            .enumerate()
            .filter(move |&(_, (_, p))| p == panic)
            .map(|(cell, _)| cell)
    };
    let speedups = |design| -> Vec<f64> {
        cells_with(true)
            .map(|c| {
                let baseline = results.run(plan, c, DesignKind::Static);
                results.run(plan, c, design).weighted_speedup_vs(baseline)
            })
            .collect()
    };
    let jumanji_s = speedups(DesignKind::Jumanji);
    let insecure_s = speedups(DesignKind::JumanjiInsecure);
    let ideal_s = speedups(DesignKind::JumanjiIdealBatch);
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
    let worst_tail = |panic| {
        cells_with(panic)
            .map(|c| results.run(plan, c, DesignKind::Jumanji).max_norm_tail())
            .fold(0.0f64, f64::max)
    };
    let (with_t, without_t) = (worst_tail(true), worst_tail(false));
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

/// One row of the sensitivity sweep: a modeling knob at one value.
#[derive(Debug, Clone, Copy)]
enum Knob {
    /// Miss-serialization factor of the LC service model.
    MissStall(f64),
    /// Simulated horizon, in seconds.
    Duration(f64),
    /// Reconfiguration period, in ms (the paper: "more frequent
    /// reconfigurations do not improve results").
    Reconfig(f64),
    /// Arrival-stream seeds, varied over three times as many mixes.
    Seeds,
}

/// The sweep's rows, in plan and row order.
fn knobs() -> impl Iterator<Item = Knob> {
    let stalls = [2.0, 3.0, 4.0].map(Knob::MissStall);
    let horizons = [2.0, 4.0, 8.0].map(Knob::Duration);
    let periods = [50.0, 100.0, 200.0].map(Knob::Reconfig);
    stalls
        .into_iter()
        .chain(horizons)
        .chain(periods)
        .chain([Knob::Seeds])
}

impl Knob {
    /// The row's cells for `n` seeds per knob.
    fn seeds(self, n: usize) -> usize {
        match self {
            Knob::Seeds => 3 * n,
            _ => n,
        }
    }

    /// The row's `knob\tvariant` label.
    fn label(self) -> String {
        match self {
            Knob::MissStall(stall) => format!("miss_stall\t{stall}x"),
            Knob::Duration(secs) => format!("duration\t{secs}s"),
            Knob::Reconfig(ms) => format!("reconfig\t{ms}ms"),
            Knob::Seeds => "seed\tvaried".to_string(),
        }
    }

    /// The mix and options of the row's `seed`-th cell.
    fn inputs(self, seed: u64) -> (WorkloadMix, SimOptions) {
        let mut mix = case_study_mix(seed);
        let defaults = SimOptions::default();
        let opts = match self {
            Knob::MissStall(stall) => {
                for lc in mix.vms.iter_mut().flat_map(|vm| &mut vm.lc) {
                    lc.miss_stall = stall;
                }
                defaults
            }
            Knob::Duration(secs) => SimOptions {
                duration: Seconds(secs),
                ..defaults
            },
            Knob::Reconfig(ms) => SimOptions {
                reconfig: Seconds::from_millis(ms),
                ..defaults
            },
            Knob::Seeds => SimOptions {
                seed: seed ^ 0xC0FFEE,
                ..defaults
            },
        };
        (mix, opts)
    }
}

/// The sensitivity sweep's cells: each [`knobs`] row's seeds, in order.
/// Construction is cheap and deterministic.
pub fn sensitivity_cells(spec: &ExperimentSpec) -> Vec<CellPlan> {
    let mut cells = Vec::new();
    for knob in knobs() {
        for seed in 0..knob.seeds(spec.mixes) as u64 {
            let (mix, opts) = knob.inputs(seed);
            cells.push(CellPlan {
                mix,
                load: LcLoad::High,
                opts,
                designs: vec![
                    DesignKind::Static,
                    DesignKind::Jumanji,
                    DesignKind::Jigsaw,
                    DesignKind::Adaptive,
                ],
            });
        }
    }
    cells
}

/// The plan's `cell`-th sensitivity row: Jumanji's, Jigsaw's and
/// Adaptive's batch speedups over Static (percent), then Jumanji's and
/// Jigsaw's worst normalized tails.
fn row(plan: &FigurePlan, results: &FigureResults, cell: usize) -> [f64; 5] {
    let run = |design| results.run(plan, cell, design);
    let speedup = |design| (run(design).weighted_speedup_vs(run(DesignKind::Static)) - 1.0) * 100.0;
    [
        speedup(DesignKind::Jumanji),
        speedup(DesignKind::Jigsaw),
        speedup(DesignKind::Adaptive),
        run(DesignKind::Jumanji).max_norm_tail(),
        run(DesignKind::Jigsaw).max_norm_tail(),
    ]
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
    plan: &FigurePlan,
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
    let mut ok = true;
    let mut first = 0;
    for knob in knobs() {
        let cells = first..first + knob.seeds(n);
        first = cells.end;
        let rows: Vec<[f64; 5]> = cells.map(|c| row(plan, results, c)).collect();
        let mean = |col: usize| rows.iter().map(|r| r[col]).sum::<f64>() / rows.len() as f64;
        let [ju, ji, ad, jut, jit] = [0, 1, 2, 3, 4].map(mean);
        let label = knob.label();
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
