//! The fixed scenarios: the simulations no run cell covers — fig04's
//! case study over time, fig08's xapian allocation sweep, fig11's port
//! attack and fig12's leakage run. Each is a [`Cell`] like any analytic
//! run: planned, keyed, scheduled, stored, and folded by its figure's
//! render.

use crate::cell_cache::{content_key, debug_leaf, Cell, CellKind};
use crate::disk_cache::design_tag;
use crate::figures::plan::{CellPlan, CostModel};
use jumanji::attacks::leakage::{leakage_experiment, LeakageConfig, LeakageResult};
use jumanji::attacks::port::{run_port_attack, PortAttackConfig, PortAttackTrace, TimingSample};
use jumanji::prelude::*;
use jumanji::sim::deadline::isolation_tail_sweep;
use jumanji::sim::IntervalRecord;
use jumanji::types::codec::{ByteReader, ByteWriter, CodecError};
use jumanji::workloads::LcProfile;

/// A fixed scenario: the [`CellKind::Scenario`] cell.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Fig. 4: the per-interval timeline of each of the cell's designs
    /// on its experiment. Run cells carry only whole-run summaries, so
    /// this is the one cell that records intervals.
    Timeline(Box<CellPlan>),
    /// Fig. 8: a server's p95 latency vs. its LLC allocation.
    TailSweep(Box<(LcProfile, SystemConfig)>),
    /// Fig. 11: the LLC port attack.
    PortAttack(PortAttackConfig),
    /// Fig. 12: performance leakage through DRRIP set-dueling.
    Leakage(LeakageConfig),
}

/// What a [`Scenario`] computes, variant for variant.
#[derive(Debug, Clone)]
pub enum ScenarioResult {
    /// One timeline per design, in the cell's design order.
    Timeline(Vec<Vec<IntervalRecord>>),
    /// `[alloc_mb, snuca_p95_ms, dnuca_p95_ms]` per allocation step.
    TailSweep(Vec<[f64; 3]>),
    /// The attacker's timing trace.
    PortAttack(PortAttackTrace),
    /// The victim's normalized tails per batch mix.
    Leakage(LeakageResult),
}

/// Writes a timeline flat: the interval and LC-app counts once, then per
/// interval its time, vulnerability, allocations and optional means.
///
/// # Panics
///
/// Panics if an interval does not hold one entry per LC app, which
/// [`Experiment::run_with_timeline`] never produces.
fn encode_timeline(w: &mut ByteWriter, timeline: &[IntervalRecord]) {
    let apps = timeline.first().map_or(0, |r| r.lc_alloc_bytes.len());
    w.u32(timeline.len() as u32);
    w.u32(apps as u32);
    for r in timeline {
        assert!(
            r.lc_alloc_bytes.len() == apps && r.lc_mean_latency_ms.len() == apps,
            "every interval holds one entry per LC app"
        );
        w.f64(r.t_ms);
        w.f64(r.vulnerability);
        for &bytes in &r.lc_alloc_bytes {
            w.f64(bytes);
        }
        for mean in &r.lc_mean_latency_ms {
            match mean {
                Some(v) => {
                    w.u8(1);
                    w.f64(*v);
                }
                None => w.u8(0),
            }
        }
    }
}

/// Reads a timeline [`encode_timeline`] wrote.
fn decode_timeline(r: &mut ByteReader<'_>) -> Result<Vec<IntervalRecord>, CodecError> {
    let intervals = r.count(16)?;
    let apps = r.count(9)?;
    let record = |r: &mut ByteReader<'_>| {
        let t_ms = r.f64()?;
        let vulnerability = r.f64()?;
        let lc_alloc_bytes = (0..apps).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let mean = |r: &mut ByteReader<'_>| match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(r.f64()?)),
            _ => Err(CodecError::Malformed("bad option tag")),
        };
        let lc_mean_latency_ms = (0..apps).map(|_| mean(r)).collect::<Result<_, _>>()?;
        Ok(IntervalRecord {
            t_ms,
            lc_mean_latency_ms,
            lc_alloc_bytes,
            vulnerability,
        })
    };
    (0..intervals).map(|_| record(r)).collect()
}

impl Cell for Scenario {
    type Output = ScenarioResult;
    const KIND: CellKind = CellKind::Scenario;

    /// A timeline is keyed by its experiment and designs, like the run
    /// cells it shadows but under its own tag; the small fixed scenarios
    /// by their `Debug` form.
    fn key(&self) -> u128 {
        match self {
            Scenario::Timeline(cell) => content_key("timeline", |f| {
                f.write_u128(cell.experiment_key());
                f.write_usize(cell.designs.len());
                for &design in &cell.designs {
                    f.write_u8(design_tag(design));
                }
            }),
            _ => content_key("scenario", |f| debug_leaf(f, self)),
        }
    }

    fn compute<T: Telemetry + ?Sized>(&self, tel: &T) -> ScenarioResult {
        match self {
            Scenario::Timeline(cell) => {
                let CellPlan {
                    mix,
                    load,
                    opts,
                    designs,
                } = &**cell;
                let exp = Experiment::new(mix.clone(), *load, opts.clone());
                let runs = designs.iter().map(|&d| exp.run_with_timeline(d, tel).1);
                ScenarioResult::Timeline(runs.collect())
            }
            Scenario::TailSweep(sweep) => {
                ScenarioResult::TailSweep(isolation_tail_sweep(&sweep.0, &sweep.1))
            }
            Scenario::PortAttack(cfg) => ScenarioResult::PortAttack(run_port_attack(*cfg)),
            Scenario::Leakage(cfg) => ScenarioResult::Leakage(leakage_experiment(*cfg)),
        }
    }

    fn encode(out: &ScenarioResult, w: &mut ByteWriter) {
        match out {
            ScenarioResult::TailSweep(rows) => {
                w.u8(0);
                w.f64s(&rows.concat());
            }
            ScenarioResult::PortAttack(trace) => {
                w.u8(1);
                w.usize(trace.attacker_bank);
                w.u32(trace.samples.len() as u32);
                for s in &trace.samples {
                    w.u64(s.at);
                    w.f64(s.cycles_per_access);
                    // 0 while the victim idles, else its bank + 1.
                    w.usize(s.victim_bank.map_or(0, |b| b + 1));
                }
            }
            ScenarioResult::Leakage(r) => {
                w.u8(2);
                w.f64s(&r.snuca_norm_tails);
                w.f64s(&r.dnuca_norm_tails);
            }
            ScenarioResult::Timeline(timelines) => {
                w.u8(3);
                w.u32(timelines.len() as u32);
                for timeline in timelines {
                    encode_timeline(w, timeline);
                }
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<ScenarioResult, CodecError> {
        Ok(match r.u8()? {
            0 => {
                let flat = r.f64s()?;
                if flat.len() % 3 != 0 {
                    return Err(CodecError::Malformed("ragged sweep rows"));
                }
                let rows = flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]);
                ScenarioResult::TailSweep(rows.collect())
            }
            1 => {
                let attacker_bank = r.usize()?;
                let sample = |r: &mut ByteReader<'_>| {
                    Ok(TimingSample {
                        at: r.u64()?,
                        cycles_per_access: r.f64()?,
                        victim_bank: r.usize()?.checked_sub(1),
                    })
                };
                let samples = (0..r.count(24)?)
                    .map(|_| sample(r))
                    .collect::<Result<_, _>>()?;
                let trace = PortAttackTrace {
                    samples,
                    attacker_bank,
                };
                ScenarioResult::PortAttack(trace)
            }
            2 => ScenarioResult::Leakage(LeakageResult {
                snuca_norm_tails: r.f64s()?,
                dnuca_norm_tails: r.f64s()?,
            }),
            3 => {
                let timelines = (0..r.count(8)?).map(|_| decode_timeline(r));
                ScenarioResult::Timeline(timelines.collect::<Result<_, _>>()?)
            }
            _ => return Err(CodecError::Malformed("unknown scenario tag")),
        })
    }

    /// Static priors in [`CostModel::run_cost`]'s unit (one Static
    /// reconfiguration interval, about 60 µs on a 2-vCPU Xeon
    /// container): a timeline costs its runs' priors; the others come
    /// from the scenarios' times there: the sweep about 20 ms, the port
    /// attack a few ms, the leakage run about 0.9 s — the longest single
    /// cell of the analytic figures.
    fn cost(&self) -> f64 {
        match self {
            Scenario::Timeline(cell) => {
                let model = CostModel::priors();
                let runs = cell.designs.iter();
                runs.map(|&d| model.run_cost(&cell.opts, d)).sum()
            }
            Scenario::TailSweep(_) => 300.0,
            Scenario::PortAttack(_) => 50.0,
            Scenario::Leakage(_) => 15_000.0,
        }
    }
}
