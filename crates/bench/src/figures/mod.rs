//! Figure renderers: one pure fold per figure/table/study from the
//! executor's results to the TSV the paper's evaluation reports.
//!
//! Each figure is two functions. [`plan::of`] enumerates the cells it
//! needs without computing them; its render folds the results of those
//! cells — handed over in plan order as a [`FigureResults`] — into
//! bytes. A render never looks anything up and never simulates: fig08's
//! sweep and the attack demos are fixed-scenario cells like any other,
//! and a test (`tests/render_purity.rs`) fails if code in this directory
//! names the cache or a simulator's entry point. Only closed-form
//! arithmetic stays inline (the tables, ablation's trade pass,
//! validate's analytic model). The executor
//! ([`crate::suite::run_suite`]) is the only code that runs cells.
//!
//! Output contract: at a figure's default spec the bytes are those of
//! the golden TSVs under `results/` (CI enforces this). Human-facing
//! summaries stay on stderr.

use crate::scenario::ScenarioResult;
use crate::spec::{ExperimentSpec, FigureKind};
use crate::{DesignCell, MixMetrics};
use jumanji::prelude::*;
use jumanji::sim::detail::DetailReport;
use jumanji::types::Error;
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
use plan::FigurePlan;

/// The executor's results for one figure, in plan order.
#[derive(Debug, Clone, Default)]
pub struct FigureResults {
    /// One row per [`FigurePlan::cells`] entry: the result of each of
    /// the cell's designs, in [`CellPlan::designs`](plan::CellPlan)
    /// order.
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
        FigureKind::Fig09 => case_study::fig09(spec, results, out),
        FigureKind::Fig11 => attacks::fig11(results, out),
        FigureKind::Fig12 => attacks::fig12(results, out),
        FigureKind::Fig13 => main_results::fig13(spec, plan, results, out),
        FigureKind::Fig14 => main_results::fig14(spec, plan, results, out),
        FigureKind::Fig15 => main_results::fig15(spec, plan, results, out),
        FigureKind::Fig16 => main_results::fig16(spec, plan, results, out),
        FigureKind::Fig17 => scaling::fig17(spec, results, out),
        FigureKind::Fig18 => scaling::fig18(spec, results, out),
        FigureKind::Table2 => tables::table2(out),
        FigureKind::Table3 => tables::table3(out),
        FigureKind::Ablation => studies::ablation(spec, results, out),
        FigureKind::Sensitivity => studies::sensitivity(spec, results, out),
        FigureKind::Validate => validate::validate(spec, plan, results, out),
    }
}

/// The `(group, load)` matrix list shared by Figs. 13/14/16: every
/// workload group at high then low load.
fn groups_by_load(loads: &[LcLoad]) -> Vec<(crate::LcGroup, LcLoad)> {
    loads
        .iter()
        .flat_map(|&load| crate::LcGroup::all().into_iter().map(move |g| (g, load)))
        .collect()
}

/// Per-design distributions of the matrix figures: the plan holds
/// `spec.mixes` consecutive cells per `(group, load)` matrix, each with
/// the Static baseline, so this yields one `DesignCell` per
/// `spec.designs()` entry for every matrix, in plan order.
fn design_cells(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
) -> Vec<Vec<DesignCell>> {
    (0..plan.cells.len() / spec.mixes)
        .map(|matrix| {
            let mut cells: Vec<DesignCell> = spec
                .designs()
                .iter()
                .map(|_| DesignCell::with_capacity(spec.mixes))
                .collect();
            for i in matrix * spec.mixes..(matrix + 1) * spec.mixes {
                let baseline = results.run(plan, i, DesignKind::Static);
                for (cell, &design) in cells.iter_mut().zip(spec.designs()) {
                    cell.push(&MixMetrics::of(results.run(plan, i, design), baseline));
                }
            }
            cells
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

/// Analytic-simulator options derived from the spec (seed 1 — the
/// default — reproduces the golden TSVs byte for byte).
fn sim_opts(spec: &ExperimentSpec) -> SimOptions {
    SimOptions {
        seed: spec.seed,
        ..SimOptions::default()
    }
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
