//! The fixed scenarios: the simulations no spec knob reaches — fig08's
//! xapian allocation sweep, fig11's port attack and fig12's leakage run.
//! Each is a [`Cell`] like any analytic run: planned, keyed, scheduled,
//! stored, and folded by its figure's render.

use crate::cell_cache::{content_key, debug_leaf, Cell, CellKind};
use jumanji::attacks::leakage::{leakage_experiment, LeakageConfig, LeakageResult};
use jumanji::attacks::port::{run_port_attack, PortAttackConfig, PortAttackTrace, TimingSample};
use jumanji::prelude::*;
use jumanji::sim::deadline::isolation_tail_sweep;
use jumanji::types::codec::{ByteReader, ByteWriter, CodecError};
use jumanji::workloads::LcProfile;

/// A fixed scenario: the [`CellKind::Scenario`] cell.
#[derive(Debug, Clone)]
pub enum Scenario {
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
    /// `[alloc_mb, snuca_p95_ms, dnuca_p95_ms]` per allocation step.
    TailSweep(Vec<[f64; 3]>),
    /// The attacker's timing trace.
    PortAttack(PortAttackTrace),
    /// The victim's normalized tails per batch mix.
    Leakage(LeakageResult),
}

impl Cell for Scenario {
    type Output = ScenarioResult;
    const KIND: CellKind = CellKind::Scenario;

    fn key(&self) -> u128 {
        content_key("scenario", |w| debug_leaf(w, self))
    }

    fn compute<T: Telemetry + ?Sized>(&self, _tel: &T) -> ScenarioResult {
        match self {
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
            _ => return Err(CodecError::Malformed("unknown scenario tag")),
        })
    }

    /// Static priors in [`CostModel::run_cost`]'s unit (one Static
    /// reconfiguration interval, about 60 µs on a 2-vCPU Xeon
    /// container), from the scenarios' times there: the sweep about
    /// 20 ms, the port attack a few ms, the leakage run about 0.9 s — the
    /// longest single cell of the analytic figures.
    ///
    /// [`CostModel::run_cost`]: crate::figures::plan::CostModel::run_cost
    fn cost(&self) -> f64 {
        match self {
            Scenario::TailSweep(_) => 300.0,
            Scenario::PortAttack(_) => 50.0,
            Scenario::Leakage(_) => 15_000.0,
        }
    }
}
