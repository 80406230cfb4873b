//! Event-level request queue for latency-critical applications.
//!
//! Each latency-critical application is a single FIFO server fed by a
//! Poisson arrival stream ([`nuca_workloads::RequestGenerator`]). Service
//! times come from the performance model and change at reconfiguration
//! boundaries, which is exactly how queueing explosions build up when a
//! design under-allocates the server (Fig. 4a, Fig. 8).

use nuca_workloads::RequestGenerator;

/// A completed request: completion time and end-to-end latency (both in
/// cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Cycle at which service finished.
    pub at: u64,
    /// Queueing plus service latency.
    pub latency: u64,
}

/// FIFO single-server queue with Poisson arrivals.
#[derive(Debug, Clone)]
pub struct LcQueue {
    gen: RequestGenerator,
    next_arrival: u64,
    server_free: u64,
}

impl LcQueue {
    /// Creates a queue with the given mean interarrival time (cycles) and
    /// RNG seed.
    pub fn new(mean_interarrival: f64, seed: u64) -> LcQueue {
        let mut gen = RequestGenerator::new(mean_interarrival, seed);
        let first = gen.next_arrival();
        LcQueue {
            gen,
            next_arrival: first,
            server_free: 0,
        }
    }

    /// Advances the queue until `until` (exclusive), serving every request
    /// that *arrives* before then with the given deterministic
    /// `service_cycles`. Writes the completions into `out` (cleared first,
    /// so the interval loop reuses one buffer); their completion times may
    /// exceed `until`, as the server carries over.
    pub fn advance_into(&mut self, until: u64, service_cycles: f64, out: &mut Vec<Completion>) {
        let service = service_cycles.max(1.0) as u64;
        out.clear();
        while self.next_arrival < until {
            let arrival = self.next_arrival;
            self.next_arrival = self.gen.next_arrival();
            let start = self.server_free.max(arrival);
            let done = start + service;
            self.server_free = done;
            out.push(Completion {
                at: done,
                latency: done - arrival,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until(q: &mut LcQueue, until: u64, service_cycles: f64) -> Vec<Completion> {
        let mut out = Vec::new();
        q.advance_into(until, service_cycles, &mut out);
        out
    }

    #[test]
    fn light_load_latency_is_service_time() {
        // Interarrival 100x the service time: essentially no queueing.
        let mut q = LcQueue::new(100_000.0, 1);
        let completions = run_until(&mut q, 10_000_000, 1_000.0);
        assert!(!completions.is_empty());
        let avg: f64 =
            completions.iter().map(|c| c.latency as f64).sum::<f64>() / completions.len() as f64;
        assert!(avg < 1_200.0, "avg latency {avg}");
    }

    #[test]
    fn overload_latency_grows_without_bound() {
        // Service time 2x the interarrival: the queue diverges.
        let mut q = LcQueue::new(1_000.0, 2);
        let completions = run_until(&mut q, 2_000_000, 2_000.0);
        let early = completions[10].latency;
        let late = completions[completions.len() - 10].latency;
        assert!(
            late > 50 * early,
            "latency must diverge: early {early}, late {late}"
        );
        // The server still lags behind the horizon.
        assert!(completions.last().unwrap().at > 2_000_000);
    }

    #[test]
    fn utilization_half_has_moderate_tail() {
        let mut q = LcQueue::new(2_000.0, 3);
        let completions = run_until(&mut q, 50_000_000, 1_000.0);
        let mut lats: Vec<u64> = completions.iter().map(|c| c.latency).collect();
        lats.sort();
        let p95 = lats[(lats.len() as f64 * 0.95) as usize - 1];
        // M/D/1 at rho=0.5: p95 well under 5x service time.
        assert!(p95 < 5_000, "p95 {p95}");
        assert!(p95 > 1_000, "p95 must include some queueing");
    }

    #[test]
    fn service_change_at_boundary_applies_to_later_requests() {
        let mut q = LcQueue::new(10_000.0, 4);
        let c1 = run_until(&mut q, 1_000_000, 1_000.0);
        let c2 = run_until(&mut q, 2_000_000, 50_000.0);
        assert!(!c1.is_empty() && !c2.is_empty());
        assert!(c2.last().unwrap().latency > c1.last().unwrap().latency);
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut q = LcQueue::new(5_000.0, seed);
            run_until(&mut q, 1_000_000, 2_500.0)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
