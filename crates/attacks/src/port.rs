//! The LLC port attack (paper Sec. VI-B, Fig. 11).
//!
//! An attacker thread floods one target LLC bank with back-to-back
//! accesses and times every 100 of them. A multi-threaded victim rotates
//! through flooding each LLC bank, pausing between banks. Two effects are
//! visible in the attacker's timing:
//!
//! - whenever the victim is active *anywhere*, shared NoC links add a
//!   small delay (12 bumps, one per bank the victim visits), and
//! - when the victim floods the **same** bank as the attacker, port
//!   queueing adds a much larger delay — revealing which bank the victim
//!   uses.

use nuca_noc::BankPorts;
use nuca_types::Cycles;

/// Configuration of the port-attack demonstration. Defaults mirror the
/// paper's Xeon E5-2650 v4 demo: 12 banks, a 3-thread victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortAttackConfig {
    /// Number of LLC banks the victim rotates through.
    pub banks: usize,
    /// The bank the attacker targets.
    pub attacker_bank: usize,
    /// Victim threads flooding concurrently.
    pub victim_threads: u32,
    /// Outstanding accesses per victim thread (memory-level parallelism of
    /// the flooding loop).
    pub victim_mlp: u32,
    /// Cycles the victim floods each bank.
    pub flood_cycles: u64,
    /// Cycles the victim pauses between banks.
    pub pause_cycles: u64,
    /// Port occupancy per access (cycles).
    pub port_occupancy: u64,
    /// Attacker's round-trip overhead between successive accesses
    /// (network + bank latency outside the port).
    pub attacker_overhead: u64,
    /// Extra per-access NoC contention whenever the victim is active.
    pub noc_contention: f64,
    /// Accesses per timing sample (100 in the paper, to amortize timing
    /// overheads).
    pub sample_every: usize,
    /// Total attacker accesses to simulate.
    pub total_accesses: usize,
}

impl Default for PortAttackConfig {
    fn default() -> PortAttackConfig {
        PortAttackConfig {
            banks: 12,
            attacker_bank: 0,
            victim_threads: 3,
            victim_mlp: 4,
            flood_cycles: 150_000,
            pause_cycles: 75_000,
            port_occupancy: 4,
            attacker_overhead: 24,
            noc_contention: 3.0,
            sample_every: 100,
            total_accesses: 150_000,
        }
    }
}

/// One timing sample: wall-clock cycle and average cycles per access over
/// the sample window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSample {
    /// Cycle at the end of the window.
    pub at: u64,
    /// Average access time over the window.
    pub cycles_per_access: f64,
    /// Which bank the victim was flooding at the window end (`None` =
    /// paused/idle).
    pub victim_bank: Option<usize>,
}

/// The attacker's observed timing trace.
#[derive(Debug, Clone)]
pub struct PortAttackTrace {
    /// Timing samples in wall-clock order.
    pub samples: Vec<TimingSample>,
    /// The bank the attacker probes ([`PortAttackConfig::attacker_bank`]).
    pub attacker_bank: usize,
}

impl PortAttackTrace {
    /// Mean cycles/access over samples matching a predicate on the
    /// victim's bank.
    fn mean_where(&self, pred: impl Fn(Option<usize>) -> bool) -> f64 {
        let picked: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| pred(s.victim_bank))
            .map(|s| s.cycles_per_access)
            .collect();
        if picked.is_empty() {
            return 0.0;
        }
        picked.iter().sum::<f64>() / picked.len() as f64
    }

    /// Mean access time while the victim is idle.
    pub fn baseline(&self) -> f64 {
        self.mean_where(|b| b.is_none())
    }

    /// Mean access time while the victim floods a *different* bank (NoC
    /// contention only).
    pub fn other_bank_level(&self) -> f64 {
        let ab = self.attacker_bank;
        self.mean_where(|b| b.is_some() && b != Some(ab))
    }

    /// Mean access time while the victim floods the attacker's bank (NoC
    /// plus port contention).
    pub fn same_bank_level(&self) -> f64 {
        let ab = self.attacker_bank;
        self.mean_where(|b| b == Some(ab))
    }

    /// Whether the attacker can distinguish the victim's target bank: the
    /// same-bank level must exceed every other level by `margin` cycles.
    pub fn detects_victim(&self, margin: f64) -> bool {
        self.same_bank_level() > self.other_bank_level() + margin
            && self.same_bank_level() > self.baseline() + margin
    }
}

/// Where the victim is at cycle `t`: flooding `Some(bank)` or paused.
fn victim_bank_at(cfg: &PortAttackConfig, t: u64) -> Option<usize> {
    let period = cfg.flood_cycles + cfg.pause_cycles;
    let rotation = period * cfg.banks as u64;
    let in_rot = t % rotation;
    let bank = (in_rot / period) as usize;
    let in_period = in_rot % period;
    if in_period < cfg.flood_cycles {
        Some(bank)
    } else {
        None
    }
}

/// Runs the attack and returns the attacker's timing trace.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero banks/samples).
pub fn run_port_attack(cfg: PortAttackConfig) -> PortAttackTrace {
    assert!(cfg.banks > 0 && cfg.sample_every > 0 && cfg.total_accesses > 0);
    assert!(cfg.attacker_bank < cfg.banks);
    let mut port = BankPorts::new(1, Cycles(cfg.port_occupancy));
    let mut samples = Vec::new();
    let mut t: u64 = 0;
    let mut window_start: u64 = 0;
    // Closed-loop victim threads: each keeps `victim_mlp` accesses in
    // flight while the victim floods the attacker's bank (a flooding loop
    // issues independent loads back to back). A little deterministic
    // jitter prevents artificial phase-locking with the attacker.
    let mut victim_issue: Vec<u64> = vec![0; cfg.victim_threads as usize];
    let mut victim_on_bank = false;
    let mut jitter_state: u64 = 0x1234_5678;
    let mut jitter = move || {
        jitter_state = jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        jitter_state >> 61 // 0..8
    };
    for i in 0..cfg.total_accesses {
        let vb = victim_bank_at(&cfg, t);
        if vb == Some(cfg.attacker_bank) {
            if !victim_on_bank {
                victim_issue.fill(t); // threads just arrived at this bank
                victim_on_bank = true;
            }
            // Serve victim bursts issued before the attacker's arrival.
            loop {
                let (idx, &issue) = victim_issue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &v)| v)
                    .expect("at least one victim thread");
                if issue > t {
                    break;
                }
                let mut last_done = issue;
                for k in 0..cfg.victim_mlp {
                    let grant = port.request(Cycles(issue + k as u64));
                    last_done = grant.done.as_u64();
                }
                victim_issue[idx] = last_done + cfg.attacker_overhead + jitter();
            }
        } else {
            victim_on_bank = false;
        }
        let grant = port.request(Cycles(t));
        let mut done = grant.done.as_u64() + cfg.attacker_overhead;
        if vb.is_some() {
            done += cfg.noc_contention as u64;
        }
        t = done;
        if (i + 1) % cfg.sample_every == 0 {
            samples.push(TimingSample {
                at: t,
                cycles_per_access: (t - window_start) as f64 / cfg.sample_every as f64,
                victim_bank: victim_bank_at(&cfg, t),
            });
            window_start = t;
        }
    }
    PortAttackTrace {
        samples,
        attacker_bank: cfg.attacker_bank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_schedule_rotates_through_banks() {
        let cfg = PortAttackConfig::default();
        assert_eq!(victim_bank_at(&cfg, 0), Some(0));
        assert_eq!(victim_bank_at(&cfg, cfg.flood_cycles), None);
        let period = cfg.flood_cycles + cfg.pause_cycles;
        assert_eq!(victim_bank_at(&cfg, period), Some(1));
        assert_eq!(victim_bank_at(&cfg, period * 11), Some(11));
    }

    #[test]
    fn attacker_detects_same_bank_flooding() {
        let trace = run_port_attack(PortAttackConfig::default());
        assert!(
            trace.detects_victim(2.0),
            "baseline {:.1}, other {:.1}, same {:.1}",
            trace.baseline(),
            trace.other_bank_level(),
            trace.same_bank_level()
        );
    }

    #[test]
    fn noc_contention_visible_on_other_banks() {
        let trace = run_port_attack(PortAttackConfig::default());
        assert!(
            trace.other_bank_level() > trace.baseline() + 1.0,
            "victim activity anywhere must raise attacker latency"
        );
    }

    #[test]
    fn port_spike_dominates_noc_bump() {
        let trace = run_port_attack(PortAttackConfig::default());
        let noc_bump = trace.other_bank_level() - trace.baseline();
        let port_spike = trace.same_bank_level() - trace.baseline();
        assert!(port_spike > 2.0 * noc_bump);
    }

    #[test]
    fn more_victim_threads_bigger_spike() {
        let light = PortAttackConfig {
            victim_threads: 1,
            ..PortAttackConfig::default()
        };
        let heavy = PortAttackConfig::default(); // 3 threads
        let t_light = run_port_attack(light);
        let t_heavy = run_port_attack(heavy);
        assert!(t_heavy.same_bank_level() > t_light.same_bank_level());
    }

    #[test]
    fn isolated_attacker_sees_flat_timing() {
        // A victim that never touches the attacker's bank (Jumanji's bank
        // isolation) produces no port spike.
        let cfg = PortAttackConfig {
            attacker_bank: 0,
            ..PortAttackConfig::default()
        };
        // Victim "rotates" through banks 1..12 only: emulate by treating
        // bank 0's flood window as a pause — simplest is to compare levels.
        let trace = run_port_attack(cfg);
        // Drop the same-bank samples, as bank isolation would: remaining
        // variation is only the small NoC term.
        let others: Vec<f64> = trace
            .samples
            .iter()
            .filter(|s| s.victim_bank != Some(0))
            .map(|s| s.cycles_per_access)
            .collect();
        let max = others.iter().cloned().fold(0.0, f64::max);
        let min = others.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min <= trace.same_bank_level() - trace.baseline(),
            "without shared banks the signal collapses to NoC noise"
        );
    }
}
