//! The case study (Sec. II-B) and its supporting micro-figures: data
//! placements (Fig. 2), behavior over time (Fig. 4), end-to-end results
//! (Fig. 5), the S-NUCA vs D-NUCA allocation curve (Fig. 8), and
//! controller-parameter sensitivity (Fig. 9).

use super::plan::{CellPlan, DetailPlan, FigurePlan};
use super::{example_details, jumanji_cells, jumanji_rows, sim_opts, with_baseline, FigureResults};
use crate::scenario::{Scenario, ScenarioResult};
use crate::spec::ExperimentSpec;
use jumanji::core::AppKind;
use jumanji::prelude::*;
use jumanji::types::{AppId, BankId, Error, Seconds};
use std::io::Write;

const MB: f64 = 1048576.0;

/// Renders one 5×4 ASCII map; `occ_of` yields the apps present in a bank.
///
/// Each bank cell lists the VMs occupying it (`0`–`3`), `*` marking
/// banks that hold latency-critical data.
fn render_map(
    cfg: &SystemConfig,
    input: &PlacementInput,
    occ_of: impl Fn(BankId) -> Vec<AppId>,
) -> String {
    let mesh = cfg.mesh();
    let mut out = String::new();
    for row in 0..mesh.rows() {
        for col in 0..mesh.cols() {
            let bank = BankId(row * mesh.cols() + col);
            let occ = occ_of(bank);
            let mut vms: Vec<usize> = occ
                .iter()
                .map(|a| input.apps[a.index()].vm.index())
                .collect();
            vms.sort();
            vms.dedup();
            let has_lc = occ
                .iter()
                .any(|a| input.apps[a.index()].kind == AppKind::LatencyCritical);
            let cell: String = vms.iter().map(|v| v.to_string()).collect();
            let cell = if cell.is_empty() {
                "-".to_string()
            } else {
                cell
            };
            out.push_str(&format!("[{:>4}{}]", cell, if has_lc { "*" } else { " " }));
        }
        out.push('\n');
    }
    out
}

/// Fig. 2's cells: one detailed cell per design, over the canonical
/// profile assignment.
pub fn fig02_details(spec: &ExperimentSpec) -> Vec<DetailPlan> {
    example_details(spec.designs().iter().map(|&d| (d, 0)), spec.accesses)
}

/// Fig. 2: representative data placements under each LLC design for the
/// case-study workload, rendered as ASCII maps of the 5×4 LLC.
///
/// Two maps per design: the *descriptor* placement (what the allocator
/// asked for) and the *observed* occupancy (which VMs' lines actually
/// sit in each bank after a detailed simulation of the allocation) —
/// one planned detailed cell per design.
pub fn fig02(plan: &FigurePlan, results: &FigureResults, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let mesh = cfg.mesh();
    for (cell, report) in plan.details.iter().zip(&results.details) {
        let (design, alloc) = (cell.design, &cell.alloc);
        writeln!(
            out,
            "# {design} placement ({}x{} banks)",
            mesh.cols(),
            mesh.rows()
        )?;
        write!(out, "{}", render_map(&cfg, &input, |b| alloc.occupants(b)))?;
        writeln!(
            out,
            "# {design} observed occupancy (detailed sim, end of run)"
        )?;
        write!(
            out,
            "{}",
            render_map(&cfg, &input, |b| report.bank_occupants[b.index()].clone())
        )?;
        writeln!(
            out,
            "# VM-isolated: placement {}, observed {}\n",
            if alloc.vm_isolated(&input) {
                "yes"
            } else {
                "no"
            },
            if report.vm_isolated(&cell.vms) {
                "yes"
            } else {
                "no"
            }
        )?;
    }
    Ok(())
}

/// Fig. 4's one cell: the case study's per-interval timelines, the only
/// figure that plots intervals (run cells do not carry them).
pub fn fig04_scenario(spec: &ExperimentSpec) -> Scenario {
    Scenario::Timeline(Box::new(CellPlan {
        mix: case_study_mix(spec.seed),
        load: LcLoad::High,
        opts: SimOptions {
            duration: Seconds(4.0),
            ..sim_opts(spec)
        },
        designs: spec.designs().to_vec(),
    }))
}

/// Fig. 4: how the LLC designs behave over time on the case study —
/// (a) average end-to-end xapian latency, (b) average LLC allocation for
/// xapian, and (c) vulnerability to shared-cache-structure attacks.
pub fn fig04(
    spec: &ExperimentSpec,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let ScenarioResult::Timeline(timelines) = &*results.scenarios[0] else {
        unreachable!("fig04 plans the timeline scenario");
    };
    writeln!(
        out,
        "# Fig. 4: case study over time (4 VMs x [xapian + 4 batch], high load)"
    )?;
    writeln!(
        out,
        "design\tt_ms\tavg_latency_ms\tavg_alloc_mb\tvulnerability"
    )?;
    for (&design, timeline) in spec.designs().iter().zip(timelines) {
        for rec in timeline {
            let lat: Vec<f64> = rec.lc_mean_latency_ms.iter().flatten().copied().collect();
            let avg_lat = if lat.is_empty() {
                f64::NAN
            } else {
                lat.iter().sum::<f64>() / lat.len() as f64
            };
            let avg_alloc =
                rec.lc_alloc_bytes.iter().sum::<f64>() / rec.lc_alloc_bytes.len() as f64 / MB;
            writeln!(
                out,
                "{}\t{:.0}\t{:.3}\t{:.3}\t{:.2}",
                design, rec.t_ms, avg_lat, avg_alloc, rec.vulnerability
            )?;
        }
    }
    writeln!(
        out,
        "# expected shapes: Jigsaw's latency grows over time (starved LC allocation);"
    )?;
    writeln!(
        out,
        "# Adaptive/VM-Part hold latency low with more space than Jumanji;"
    )?;
    writeln!(
        out,
        "# vulnerability: S-NUCA designs = 15, Jigsaw small, Jumanji = 0."
    )?;
    Ok(())
}

/// Fig. 5's one cell: the case study under the Static baseline and each
/// of the spec's designs.
pub fn fig05_cell(spec: &ExperimentSpec) -> CellPlan {
    CellPlan {
        mix: case_study_mix(spec.seed),
        load: LcLoad::High,
        opts: sim_opts(spec),
        designs: with_baseline(spec.designs()),
    }
}

/// Fig. 5: end-to-end case-study results — normalized tail latency and
/// batch weighted speedup for each LLC design.
pub fn fig05(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let baseline = results.run(plan, 0, DesignKind::Static);
    writeln!(
        out,
        "# Fig. 5: case study end-to-end (normalized to Static)"
    )?;
    writeln!(
        out,
        "design\tworst_norm_tail\tbatch_speedup_pct\tvulnerability"
    )?;
    for &design in spec.designs() {
        let r = results.run(plan, 0, design);
        writeln!(
            out,
            "{}\t{:.3}\t{:.2}\t{:.2}",
            design,
            r.max_norm_tail(),
            (r.weighted_speedup_vs(baseline) - 1.0) * 100.0,
            r.vulnerability
        )?;
    }
    writeln!(
        out,
        "# expected: Adaptive/VM-Part meet deadlines with ~0% speedup;"
    )?;
    writeln!(
        out,
        "# Jigsaw violates deadlines badly; Jumanji meets deadlines near Jigsaw's speedup."
    )?;
    Ok(())
}

/// Fig. 8's one cell: xapian's isolation sweep (an error if the
/// TailBench roster has no xapian).
pub fn fig08_scenario() -> Result<Scenario, Error> {
    let xapian = tailbench().into_iter().find(|p| p.name == "xapian");
    let xapian = xapian.ok_or_else(|| Error::unknown_workload("xapian"))?;
    Ok(Scenario::TailSweep(Box::new((
        xapian,
        SystemConfig::micro2020(),
    ))))
}

/// Fig. 8: xapian's tail (95th-percentile) latency vs. its LLC
/// allocation, with way-partitioning (S-NUCA) and with the allocation
/// reserved in the closest banks (D-NUCA). Run in isolation at high
/// load.
pub fn fig08(results: &FigureResults, out: &mut dyn Write) -> Result<(), Error> {
    let ScenarioResult::TailSweep(rows) = &*results.scenarios[0] else {
        unreachable!("fig08 plans the tail sweep");
    };
    writeln!(
        out,
        "# Fig. 8: xapian p95 latency vs LLC allocation (isolation, high load)"
    )?;
    writeln!(out, "alloc_mb\tsnuca_p95_ms\tdnuca_p95_ms")?;
    for [alloc_mb, snuca, dnuca] in rows {
        writeln!(out, "{alloc_mb:.2}\t{snuca:.3}\t{dnuca:.3}")?;
    }
    writeln!(
        out,
        "# expected: S-NUCA explodes below ~3 MB; D-NUCA meets the same tail with ~1 MB"
    )?;
    writeln!(
        out,
        "# less and degrades far more gracefully (paper: ~18x lower worst case)."
    )?;
    Ok(())
}

/// The Fig. 9 controller-parameter grid: `(group, label, params)` rows
/// in plotting order: the plan's cells and the render's row labels.
fn fig09_cases() -> Vec<(&'static str, &'static str, ControllerParams)> {
    let llc = SystemConfig::micro2020().llc.total_bytes() as f64;
    let base = ControllerParams::micro2020(llc);
    let target = |target_low, target_high| ControllerParams {
        target_low,
        target_high,
        ..base
    };
    let panic = |panic_threshold| ControllerParams {
        panic_threshold,
        ..base
    };
    let step = |step| ControllerParams { step, ..base };
    vec![
        ("target", "75-85%", target(0.75, 0.85)),
        ("target", "85-95% (default)", base),
        ("target", "90-100%", target(0.90, 1.00)),
        ("panic", "105%", panic(1.05)),
        ("panic", "110% (default)", base),
        ("panic", "120%", panic(1.20)),
        ("step", "5%", step(0.05)),
        ("step", "10% (default)", base),
        ("step", "20%", step(0.20)),
    ]
}

/// Fig. 9's cells: each grid row's controller on `mixes` case-study
/// seeds. The three "(default)" rows share the base parameters, so they
/// name the same cells and the graph schedules each once.
pub fn fig09_cells(spec: &ExperimentSpec) -> Vec<CellPlan> {
    let base = sim_opts(spec);
    jumanji_cells(&fig09_cases(), spec.mixes, |&(_, _, params), seed| {
        let opts = SimOptions {
            controller: Some(params),
            ..base.clone()
        };
        (case_study_mix(seed), opts)
    })
}

/// Fig. 9: sensitivity of Jumanji to the feedback controller's
/// parameters — target latency range, panic threshold, and step size.
/// Bars: gmean batch speedup; lines: worst normalized tail latency.
pub fn fig09(
    spec: &ExperimentSpec,
    plan: &FigurePlan,
    results: &FigureResults,
    out: &mut dyn Write,
) -> Result<(), Error> {
    let mixes = spec.mixes;
    writeln!(
        out,
        "# Fig. 9: controller parameter sensitivity ({mixes} mixes, case study)"
    )?;
    writeln!(out, "group\tvariant\tgmean_speedup_pct\tworst_norm_tail")?;
    let rows = jumanji_rows(plan, results, mixes);
    for ((group, label, _), (speedup, tail)) in fig09_cases().into_iter().zip(rows) {
        writeln!(out, "{group}\t{label}\t{speedup:.2}\t{tail:.3}")?;
    }
    writeln!(
        out,
        "# expected: results change very little across parameter values (Sec. V-C)."
    )?;
    Ok(())
}
