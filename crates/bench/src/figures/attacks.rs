//! Attack demonstrations: the LLC port attack (Fig. 11) and DRRIP
//! set-dueling performance leakage (Fig. 12). Both fold one fixed
//! scenario; the spec's knobs don't apply.

use super::FigureResults;
use crate::scenario::ScenarioResult;
use jumanji::types::Error;
use std::io::Write;

/// Fig. 11: LLC port attack demonstration — attacker access times vs.
/// wall-clock time while a 3-thread victim rotates through flooding each
/// of the 12 LLC banks.
pub fn fig11(results: &FigureResults, out: &mut dyn Write) -> Result<(), Error> {
    let ScenarioResult::PortAttack(trace) = &*results.scenarios[0] else {
        unreachable!("fig11 plans the port attack");
    };
    writeln!(
        out,
        "# Fig. 11: attacker timing (cycles per access, sampled every 100 accesses)"
    )?;
    writeln!(out, "t_kcycles\tcycles_per_access\tvictim_bank")?;
    for s in &trace.samples {
        writeln!(
            out,
            "{:.1}\t{:.2}\t{}",
            s.at as f64 / 1e3,
            s.cycles_per_access,
            s.victim_bank
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_string())
        )?;
    }
    writeln!(out, "# summary:")?;
    writeln!(
        out,
        "# baseline (victim idle): {:.1} cycles/access",
        trace.baseline()
    )?;
    writeln!(
        out,
        "# victim on other banks (NoC contention): {:.1} cycles/access",
        trace.other_bank_level()
    )?;
    writeln!(
        out,
        "# victim on attacker's bank (port contention): {:.1} cycles/access",
        trace.same_bank_level()
    )?;
    writeln!(
        out,
        "# attacker detects victim's bank: {}",
        trace.detects_victim(2.0)
    )?;
    writeln!(
        out,
        "# expected: 12 bumps (one per victim bank), with the attacker-bank bump highest"
    )?;
    writeln!(
        out,
        "# (paper: avg time > 32 cycles during same-bank contention)."
    )?;
    Ok(())
}

/// Fig. 12: performance leakage through DRRIP set-dueling — img-dnn's
/// tail latency across 40 batch mixes with a fixed S-NUCA partition
/// (red) vs. a fixed D-NUCA allocation in its own banks (blue),
/// normalized to img-dnn running alone.
pub fn fig12(results: &FigureResults, out: &mut dyn Write) -> Result<(), Error> {
    let ScenarioResult::Leakage(r) = &*results.scenarios[0] else {
        unreachable!("fig12 plans the leakage run");
    };
    writeln!(
        out,
        "# Fig. 12: img-dnn normalized tail latency, 40 mixes sorted best to worst"
    )?;
    writeln!(out, "mix_rank\tsnuca_norm_tail\tdnuca_norm_tail")?;
    for (i, (s, d)) in r
        .snuca_norm_tails
        .iter()
        .zip(&r.dnuca_norm_tails)
        .enumerate()
    {
        writeln!(out, "{}\t{:.4}\t{:.4}", i + 1, s, d)?;
    }
    writeln!(
        out,
        "# S-NUCA spread (max/min - 1): {:.1}% — the fixed partition does NOT isolate performance",
        r.snuca_spread() * 100.0
    )?;
    writeln!(
        out,
        "# D-NUCA spread: {:.3}% — private banks, private replacement state",
        r.dnuca_spread() * 100.0
    )?;
    writeln!(
        out,
        "# expected: S-NUCA varies by >10% across mixes; D-NUCA flat and lower."
    )?;
    Ok(())
}
