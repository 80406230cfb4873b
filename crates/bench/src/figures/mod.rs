//! The paper's figures, tables and studies: one module owns each, and
//! holds both of the figure's functions side by side.
//!
//! A figure's *plan* enumerates the cells it needs without computing
//! them; [`plan::of`] dispatches to it. Its *render* folds the results
//! of those cells, handed over in plan order as a [`FigureResults`],
//! into the TSV the paper's evaluation reports; [`render`] dispatches to
//! it. The two read one row table, so no other module knows the figure's
//! cell layout, and a render reads a run only through
//! `FigureResults::run`. A render never looks anything up and never
//! simulates: fig08's sweep and the attack demos are fixed-scenario
//! cells like any other, and a test (`tests/render_purity.rs`) fails if
//! code in this directory names the cache or a simulator's entry point.
//! Only closed-form arithmetic stays inline (the tables, ablation's
//! trade pass, validate's analytic model). The executor
//! ([`crate::suite::run_suite`]) is the only code that runs cells.
//!
//! The helpers below are the layouts more than one figure shares:
//! fig09, fig17 and fig18 are rows of Jumanji-vs-Static cells, and
//! fig02 and validate simulate the example placement problem.
//!
//! Output contract: at a figure's default spec the bytes are those of
//! the golden TSVs under `results/` (CI enforces this). Human-facing
//! summaries stay on stderr.

use crate::scenario::ScenarioResult;
use crate::spec::{ExperimentSpec, FigureKind};
use jumanji::core::AppKind;
use jumanji::prelude::*;
use jumanji::sim::detail::{DetailOptions, DetailReport};
use jumanji::sim::metrics::gmean;
use jumanji::sim::perf::Profile;
use jumanji::types::hash::DetMap;
use jumanji::types::{CoreId, Error, VmId};
use jumanji::workloads::WorkloadMix;
use std::io::Write;
use std::sync::Arc;

mod attacks;
mod case_study;
mod main_results;
pub mod plan;
mod scaling;
mod studies;
mod tables;
mod validate;

/// Renders one figure on the suite executor ([`crate::suite::emit`]).
pub use crate::suite::emit;
use plan::{CellPlan, DetailPlan, FigurePlan};

/// The executor's results for one figure, in plan order.
#[derive(Debug, Clone, Default)]
pub struct FigureResults {
    /// One row per [`FigurePlan::cells`] entry: the result of each of
    /// the cell's designs, in [`CellPlan::designs`] order.
    pub runs: Vec<Vec<Arc<ExperimentResult>>>,
    /// One report per [`FigurePlan::details`] entry.
    pub details: Vec<Arc<DetailReport>>,
    /// One result per [`FigurePlan::scenarios`] entry.
    pub scenarios: Vec<Arc<ScenarioResult>>,
}

impl FigureResults {
    /// The result of `design` on the plan's `cell`-th cell.
    fn run(&self, plan: &FigurePlan, cell: usize, design: DesignKind) -> &ExperimentResult {
        let at = plan.cells[cell]
            .designs
            .iter()
            .position(|&d| d == design)
            .expect("the plan runs every design its render reads");
        &self.runs[cell][at]
    }
}

/// Folds `results` — the executor's output for `plan`, which must be
/// [`plan::of`]`(spec)` — into `spec.kind`'s TSV.
///
/// # Errors
///
/// Runtime errors for I/O failures on `out` and degenerate samples.
pub fn render(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    match spec.kind {
        FigureKind::Fig02 => case_study::fig02(plan, results, out),
        FigureKind::Fig04 => case_study::fig04(spec, results, out),
        FigureKind::Fig05 => case_study::fig05(spec, plan, results, out),
        FigureKind::Fig08 => case_study::fig08(results, out),
        FigureKind::Fig09 => case_study::fig09(spec, plan, results, out),
        FigureKind::Fig11 => attacks::fig11(results, out),
        FigureKind::Fig12 => attacks::fig12(results, out),
        FigureKind::Fig13 => main_results::fig13(spec, plan, results, out),
        FigureKind::Fig14 => main_results::fig14(spec, plan, results, out),
        FigureKind::Fig15 => main_results::fig15(spec, plan, results, out),
        FigureKind::Fig16 => main_results::fig16(spec, plan, results, out),
        FigureKind::Fig17 => scaling::fig17(spec, plan, results, out),
        FigureKind::Fig18 => scaling::fig18(spec, plan, results, out),
        FigureKind::Table2 => tables::table2(out),
        FigureKind::Table3 => tables::table3(out),
        FigureKind::Ablation => studies::ablation(spec, plan, results, out),
        FigureKind::Sensitivity => studies::sensitivity(spec, plan, results, out),
        FigureKind::Validate => validate::validate(spec, plan, results, out),
    }
}

/// Analytic-simulator options derived from the spec (seed 1 — the
/// default — reproduces the golden TSVs byte for byte).
fn sim_opts(spec: &ExperimentSpec) -> SimOptions {
    SimOptions {
        seed: spec.seed,
        ..SimOptions::default()
    }
}

/// The Static baseline (the renders normalize by it), then `designs`
/// without it.
fn with_baseline(designs: &[DesignKind]) -> Vec<DesignKind> {
    let mut out = vec![DesignKind::Static];
    out.extend(designs.iter().filter(|&&d| d != DesignKind::Static));
    out
}

/// The cells of a figure whose every row runs Jumanji against the
/// Static baseline at high load on `mixes` seeds: row-major,
/// `inputs(row, seed)` naming each cell's mix and options. The render
/// folds them with [`jumanji_rows`].
fn jumanji_cells<R>(
    rows: &[R],
    mixes: usize,
    inputs: impl Fn(&R, u64) -> (WorkloadMix, SimOptions),
) -> Vec<CellPlan> {
    let mut cells = Vec::with_capacity(rows.len() * mixes);
    for row in rows {
        for seed in 0..mixes as u64 {
            let (mix, opts) = inputs(row, seed);
            cells.push(CellPlan {
                mix,
                load: LcLoad::High,
                opts,
                designs: vec![DesignKind::Static, DesignKind::Jumanji],
            });
        }
    }
    cells
}

/// Per row of a [`jumanji_cells`] plan of `mixes` seeds: Jumanji's gmean
/// batch speedup over Static, in percent, and its worst normalized tail.
fn jumanji_rows<'a>(
    plan: &'a FigurePlan,
    results: &'a FigureResults,
    mixes: usize,
) -> impl Iterator<Item = (f64, f64)> + 'a {
    (0..plan.cells.len()).step_by(mixes).map(move |first| {
        let cells = first..first + mixes;
        let jumanji = |cell| results.run(plan, cell, DesignKind::Jumanji);
        let speedups: Vec<f64> = cells
            .clone()
            .map(|c| jumanji(c).weighted_speedup_vs(results.run(plan, c, DesignKind::Static)))
            .collect();
        let tail = cells
            .map(|c| jumanji(c).max_norm_tail())
            .fold(0.0f64, f64::max);
        ((gmean(&speedups) - 1.0) * 100.0, tail)
    })
}

/// One detailed cell per `(design, mix)` row, in row order, on the example
/// placement problem (`PlacementInput::example`): `design`'s allocation
/// simulated under rotation `mix` of the LC and batch rosters. Rotation 0
/// is the canonical assignment, so at equal `--accesses` validate's mix-0
/// cells are fig02's cells. Each cell's seed derives from its rotation
/// alone, so output is byte-identical at any thread count.
fn example_details(
    rows: impl IntoIterator<Item = (DesignKind, usize)>,
    accesses: usize,
) -> Vec<DetailPlan> {
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let cores: Vec<CoreId> = input.apps.iter().map(|a| a.core).collect();
    let vms: Vec<VmId> = input.apps.iter().map(|a| a.vm).collect();
    let (lc, batch) = (tailbench(), spec2006());
    // One placement per design, however many rows share it.
    let mut allocs: DetMap<DesignKind, Allocation> = DetMap::default();
    rows.into_iter()
        .map(|(design, mix)| {
            let profiles = input
                .apps
                .iter()
                .enumerate()
                .map(|(i, a)| match a.kind {
                    AppKind::LatencyCritical => {
                        Profile::Lc(lc[(i + mix) % lc.len()].clone(), LcLoad::High)
                    }
                    AppKind::Batch => Profile::Batch(batch[(i + 2 * mix) % batch.len()].clone()),
                })
                .collect();
            let opts = DetailOptions {
                cfg: cfg.clone(),
                accesses_per_app: accesses,
                seed: DetailOptions::default().seed ^ (mix as u64).wrapping_mul(0x9E37_79B9),
                ..DetailOptions::default()
            };
            DetailPlan::new(
                design,
                opts,
                profiles,
                cores.clone(),
                vms.clone(),
                allocs
                    .entry(design)
                    .or_insert_with(|| design.allocate(&input))
                    .clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumanji::telemetry::{NoopSink, RecordingSink};

    /// Renders `kind` at minimum cost into a buffer and sanity-checks it.
    fn smoke(kind: FigureKind, mixes: usize) -> String {
        let spec = ExperimentSpec::new(kind).mixes(mixes).accesses(2_000);
        let mut buf = Vec::new();
        emit(&spec, &NoopSink, &mut buf).expect("figure renders");
        let text = String::from_utf8(buf).expect("valid utf-8");
        assert!(
            text.starts_with('#'),
            "{}: output must open with a comment header",
            kind.name()
        );
        assert!(
            text.ends_with('\n'),
            "{}: output must end with a newline",
            kind.name()
        );
        assert!(text.lines().count() >= 3, "{}: too few lines", kind.name());
        text
    }

    #[test]
    fn cheap_figures_render_well_formed_tsv() {
        // The figures that finish quickly even in debug builds;
        // scripts/verify.sh makes the same checks on all 18 figures in
        // one release-mode `suite --figures all --mixes 1` run.
        let tables = smoke(FigureKind::Table2, 1);
        assert!(tables.contains("parameter\tvalue"));
        let t3 = smoke(FigureKind::Table3, 1);
        assert!(t3.contains("deadline_ms"));
        let f8 = smoke(FigureKind::Fig08, 1);
        assert!(f8.contains("alloc_mb\tsnuca_p95_ms\tdnuca_p95_ms"));
        let f5 = smoke(FigureKind::Fig05, 1);
        // One data row per design in the default list.
        let rows = f5
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("design"))
            .count();
        assert_eq!(rows, FigureKind::Fig05.designs().len());
    }

    #[test]
    fn trace_sink_sees_a_whole_figure_run() {
        // Fig. 5 runs the baseline plus four designs; the sink must
        // observe one RunSummary per run and the per-interval controller
        // stream, without changing the rendered bytes.
        let spec = ExperimentSpec::new(FigureKind::Fig05);
        let mut plain = Vec::new();
        emit(&spec, &NoopSink, &mut plain).expect("renders");
        let sink = RecordingSink::new();
        let mut traced = Vec::new();
        emit(&spec, &sink, &mut traced).expect("renders");
        assert_eq!(plain, traced, "telemetry must not perturb figure output");
        let events = sink.events();
        let summaries = events
            .iter()
            .filter(|e| matches!(e, jumanji::telemetry::Event::RunSummary { .. }))
            .count();
        assert_eq!(summaries, 1 + spec.designs().len());
        assert!(events
            .iter()
            .any(|e| matches!(e, jumanji::telemetry::Event::Controller { .. })));
    }
}
