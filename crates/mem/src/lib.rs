//! Main-memory model: corner memory controllers with fixed access latency
//! and bandwidth partitioning.
//!
//! Following the paper's methodology (Sec. VII), main memory "models
//! bandwidth partitioning with fixed latency" \[28, 51\]: each LLC miss pays
//! a fixed 120-cycle DRAM latency, and each of the four corner controllers
//! has finite line bandwidth, adding load-dependent queueing when a
//! workload's miss traffic concentrates.
//!
//! # Examples
//!
//! ```
//! use nuca_mem::MemSystem;
//! use nuca_types::{SystemConfig, BankId};
//!
//! let cfg = SystemConfig::micro2020();
//! let mem = MemSystem::new(&cfg);
//! // Bank 0 sits on the NW corner, controller 0.
//! assert_eq!(mem.controller_for_bank(BankId(0)), 0);
//! // Queueing is zero at idle and grows with demand.
//! assert_eq!(mem.queue_delay(0.0), 0.0);
//! assert!(mem.queue_delay(0.2) > 0.0);
//! ```

#![warn(missing_docs)]

use nuca_noc::queueing::md1_wait;
use nuca_noc::BankPorts;
use nuca_types::{BankId, Cycles, MemConfig, Mesh, SystemConfig};

/// The memory controllers of the chip.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemConfig,
    mesh: Mesh,
}

impl MemSystem {
    /// Builds the memory system from a system configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests more than four controllers
    /// (controllers sit at chip corners).
    pub fn new(cfg: &SystemConfig) -> MemSystem {
        assert!(
            cfg.mem.num_controllers <= 4,
            "corner placement supports at most four controllers"
        );
        MemSystem {
            cfg: cfg.mem,
            mesh: cfg.mesh(),
        }
    }

    /// Fixed DRAM access latency.
    pub fn latency(&self) -> Cycles {
        self.cfg.latency
    }

    /// Number of controllers.
    pub fn num_controllers(&self) -> usize {
        self.cfg.num_controllers
    }

    /// Index of the controller nearest to `bank` (ties to the lowest
    /// index, matching corner order NW, NE, SW, SE).
    pub fn controller_for_bank(&self, bank: BankId) -> usize {
        let t = self.mesh.bank_tile(bank);
        let corners = self.mesh.corner_tiles();
        (0..self.cfg.num_controllers)
            .min_by_key(|&i| (t.manhattan(corners[i]), i))
            .expect("at least one controller")
    }

    /// Expected per-access queueing delay (cycles) at one controller under
    /// a demand of `lines_per_cycle`, using the M/D/1 model.
    ///
    /// With bandwidth partitioning, `lines_per_cycle` should be the demand
    /// of the partition sharing the controller, not the whole chip.
    pub fn queue_delay(&self, lines_per_cycle: f64) -> f64 {
        let service = self.cfg.cycles_per_line as f64;
        md1_wait(lines_per_cycle * service, service)
    }

    /// Creates an event-driven channel model for one controller, for the
    /// detailed simulator: a single resource occupied `cycles_per_line` per
    /// transfer.
    pub fn event_channel(&self) -> BankPorts {
        BankPorts::new(1, Cycles(self.cfg.cycles_per_line))
    }

    /// Aggregate chip memory bandwidth in lines per cycle.
    pub fn total_lines_per_cycle(&self) -> f64 {
        self.cfg.num_controllers as f64 / self.cfg.cycles_per_line as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemSystem {
        MemSystem::new(&SystemConfig::micro2020())
    }

    #[test]
    fn corner_controllers_cover_quadrants() {
        let m = mem();
        assert_eq!(m.num_controllers(), 4);
        assert_eq!(m.controller_for_bank(BankId(0)), 0); // NW corner
        assert_eq!(m.controller_for_bank(BankId(4)), 1); // NE corner
        assert_eq!(m.controller_for_bank(BankId(15)), 2); // SW corner
        assert_eq!(m.controller_for_bank(BankId(19)), 3); // SE corner
                                                          // Center tile (2,1) = bank 7: equidistant NW (3) and others; NW wins ties.
        assert_eq!(m.controller_for_bank(BankId(7)), 0);
    }

    #[test]
    fn queue_delay_monotone_in_demand() {
        let m = mem();
        let d1 = m.queue_delay(0.05);
        let d2 = m.queue_delay(0.15);
        let d3 = m.queue_delay(0.24);
        assert!(0.0 < d1 && d1 < d2 && d2 < d3);
        assert!(m.queue_delay(10.0).is_finite(), "saturation stays finite");
    }

    #[test]
    fn event_channel_serializes_lines() {
        let mut ch = mem().event_channel();
        let g1 = ch.request(Cycles(0));
        let g2 = ch.request(Cycles(0));
        assert_eq!(g1.done, Cycles(4));
        assert_eq!(g2.start, Cycles(4));
    }

    #[test]
    fn total_bandwidth() {
        assert!((mem().total_lines_per_cycle() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_is_table2() {
        assert_eq!(mem().latency(), Cycles(120));
    }
}
