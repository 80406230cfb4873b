//! Event-driven bank-port contention simulator.
//!
//! LLC banks have a limited number of access ports (Table II: one per
//! bank). When two requesters hit the same bank, the later one queues —
//! and its observed latency reveals that the other requester was there.
//! This is the shared structure behind the paper's LLC port attack
//! (Sec. VI-B, Fig. 11); [`BankPorts`] reproduces the timing behaviour.

use nuca_types::Cycles;

/// Cumulative statistics of one bank's ports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PortStats {
    /// Requests served.
    pub requests: u64,
    /// Total cycles requests spent waiting for a free port.
    pub queue_cycles: u64,
    /// Total cycles ports were occupied.
    pub busy_cycles: u64,
}

/// The access ports of one cache bank, granted in arrival order.
///
/// # Examples
///
/// ```
/// use nuca_noc::BankPorts;
/// use nuca_types::Cycles;
///
/// let mut ports = BankPorts::new(1, Cycles(4));
/// // Back-to-back requests at the same cycle: the second waits 4 cycles.
/// let first = ports.request(Cycles(100));
/// let second = ports.request(Cycles(100));
/// assert_eq!(first.start, Cycles(100));
/// assert_eq!(second.start, Cycles(104));
/// assert_eq!(second.done, Cycles(108));
/// ```
#[derive(Debug, Clone)]
pub struct BankPorts {
    /// Cycle at which each port becomes free. Banks have a handful of
    /// ports (one, per Table II), so a linear min scan over this flat
    /// vector beats a binary heap's pop/push on the simulator hot path.
    free_at: Vec<u64>,
    occupancy: Cycles,
    stats: PortStats,
}

/// When a request was granted a port and when it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Cycle the request started occupying a port.
    pub start: Cycles,
    /// Cycle the port access completed.
    pub done: Cycles,
}

impl BankPorts {
    /// Creates a bank with `ports` ports, each occupied for `occupancy`
    /// cycles per access.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0` or `occupancy` is zero.
    pub fn new(ports: u32, occupancy: Cycles) -> BankPorts {
        assert!(ports > 0, "need at least one port");
        assert!(occupancy.as_u64() > 0, "occupancy must be nonzero");
        BankPorts {
            free_at: vec![0; ports as usize],
            occupancy,
            stats: PortStats::default(),
        }
    }

    /// Requests a port at `arrival`; returns when the access starts and
    /// completes. Requests must be issued in non-decreasing arrival order
    /// per caller, but multiple interleaved callers are fine — the port is
    /// granted in call order, modeling a FIFO arbiter.
    pub fn request(&mut self, arrival: Cycles) -> Grant {
        let mut earliest = 0;
        for (i, &f) in self.free_at.iter().enumerate() {
            if f < self.free_at[earliest] {
                earliest = i;
            }
        }
        let start = arrival.as_u64().max(self.free_at[earliest]);
        let done = start + self.occupancy.as_u64();
        self.free_at[earliest] = done;
        self.stats.requests += 1;
        self.stats.queue_cycles += start - arrival.as_u64();
        self.stats.busy_cycles += self.occupancy.as_u64();
        Grant {
            start: Cycles(start),
            done: Cycles(done),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// Resets statistics without clearing port state.
    pub fn reset_stats(&mut self) {
        self.stats = PortStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_port_grants_immediately() {
        let mut p = BankPorts::new(1, Cycles(4));
        let g = p.request(Cycles(10));
        assert_eq!(g.start, Cycles(10));
        assert_eq!(g.done, Cycles(14));
        assert_eq!(p.stats().queue_cycles, 0);
    }

    #[test]
    fn contention_queues_fifo() {
        let mut p = BankPorts::new(1, Cycles(4));
        p.request(Cycles(0));
        let g2 = p.request(Cycles(1));
        let g3 = p.request(Cycles(1));
        assert_eq!(g2.start, Cycles(4));
        assert_eq!(g3.start, Cycles(8));
        let s = p.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.queue_cycles, 3 + 7);
    }

    #[test]
    fn second_port_absorbs_contention() {
        let mut p = BankPorts::new(2, Cycles(4));
        p.request(Cycles(0));
        let g2 = p.request(Cycles(0));
        assert_eq!(g2.start, Cycles(0), "two ports serve two requests at once");
        let g3 = p.request(Cycles(1));
        assert_eq!(g3.start, Cycles(4));
    }

    #[test]
    fn attacker_observes_victim_through_queueing() {
        // The essence of the port attack: an attacker issuing back-to-back
        // accesses sees higher completion intervals exactly while a victim
        // shares the bank.
        let mut p = BankPorts::new(1, Cycles(4));
        let mut t = Cycles(0);
        let mut quiet_interval = Cycles(0);
        for _ in 0..10 {
            let g = p.request(t);
            quiet_interval = g.done - t;
            t = g.done;
        }
        // Victim injects accesses interleaved with the attacker.
        let mut contended_interval = Cycles(0);
        for _ in 0..10 {
            p.request(t); // victim
            let g = p.request(t); // attacker
            contended_interval = g.done - t;
            t = g.done;
        }
        assert!(
            contended_interval > quiet_interval,
            "victim presence must be visible in attacker timing"
        );
    }

    #[test]
    fn stats_track_busy_cycles() {
        let mut p = BankPorts::new(1, Cycles(5));
        p.request(Cycles(0));
        p.request(Cycles(100));
        assert_eq!(p.stats().busy_cycles, 10);
        p.reset_stats();
        assert_eq!(p.stats().requests, 0);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        BankPorts::new(0, Cycles(1));
    }
}
