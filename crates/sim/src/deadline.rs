//! Tail-latency deadline derivation (paper Sec. VII).
//!
//! "For all experiments, the deadline for a latency-critical application is
//! determined by the 95th percentile tail latency when the application is
//! run in isolation on high load with four cache ways using
//! way-partitioning." We reproduce that definition: the server runs alone
//! on an S-NUCA machine with a 4-way partition (4 ways × 20 banks =
//! 2.5 MB), its queue is simulated to steady state, and the measured
//! p95 becomes the deadline.
//!
//! The isolation model is two functions: [`isolation_service_cycles`]
//! gives the service time of any allocation under S-NUCA or D-NUCA
//! placement, and [`isolation_p95_cycles`] the p95 of the deadline's
//! queue at a service time. The deadline is their value at the 4-way
//! S-NUCA allocation; Fig. 8's sweep ([`isolation_tail_sweep`]) runs the
//! same model over a range of allocations on its own arrival stream.

use crate::queueing::LcQueue;
use jumanji_core::controller::percentile;
use nuca_cache::analytic::assoc_penalty;
use nuca_noc::MeshNoc;
use nuca_types::{CoreId, SystemConfig};
use nuca_workloads::{LcLoad, LcProfile};

/// Ways of each bank granted in the deadline-derivation run.
const DEADLINE_WAYS: f64 = 4.0;
/// Requests simulated to estimate the p95 (well above Table III's query
/// counts for a stable estimate).
const DEADLINE_REQUESTS: usize = 20_000;

/// LLC bytes of the deadline-derivation run: [`DEADLINE_WAYS`] of every
/// bank.
fn deadline_bytes(cfg: &SystemConfig) -> f64 {
    DEADLINE_WAYS * cfg.llc.way_bytes() as f64 * cfg.llc.num_banks as f64
}

/// Service time (cycles) of `profile` running alone with `bytes` of LLC:
/// way-partitioned over every bank (S-NUCA, `dnuca == false`), or
/// reserved in the banks closest to its core, whole banks first and so at
/// full associativity (D-NUCA).
pub fn isolation_service_cycles(
    profile: &LcProfile,
    cfg: &SystemConfig,
    bytes: f64,
    dnuca: bool,
) -> f64 {
    let noc = MeshNoc::new(cfg);
    let (mesh, core) = (cfg.mesh(), CoreId(0));
    let (hops, mr) = if dnuca {
        let mut remaining = bytes;
        let mut placement = Vec::new();
        for b in mesh.banks_by_distance(core) {
            if remaining <= 0.0 {
                break;
            }
            let take = remaining.min(cfg.llc.bank_bytes as f64);
            placement.push((b, take));
            remaining -= take;
        }
        let hops = mesh.weighted_distance(core, placement);
        (hops, profile.shape.ratio(bytes as u64))
    } else {
        let ways_per_bank = bytes / cfg.llc.num_banks as f64 / cfg.llc.way_bytes() as f64;
        let penalty = assoc_penalty(ways_per_bank, cfg.llc.ways);
        let mr = (profile.shape.ratio(bytes as u64) * penalty).min(1.0);
        (mesh.snuca_avg_distance(core), mr)
    };
    let llc_lat = cfg.llc.bank_latency.as_u64() as f64 + noc.round_trip_for_hops(hops);
    profile.service_cycles(llc_lat, mr, noc.avg_miss_penalty())
}

/// p95 latency (cycles) of `profile` alone at high load with a fixed
/// `service_cycles`, on the deadline's queue: the arrival stream seeded
/// from the profile name, over `DEADLINE_REQUESTS` requests plus 5 %.
///
/// At the 4-way S-NUCA service time this is [`deadline_cycles`], bit for
/// bit.
pub fn isolation_p95_cycles(profile: &LcProfile, cfg: &SystemConfig, service_cycles: f64) -> f64 {
    let interarrival = profile.interarrival_cycles(LcLoad::High, cfg.freq_hz);
    let seed = profile
        .name
        .bytes()
        .fold(0xBEEFu64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    let horizon = (interarrival * DEADLINE_REQUESTS as f64 * 1.05) as u64;
    queue_p95(interarrival, seed, horizon, service_cycles)
}

/// p95 latency (cycles) of every request arriving before `horizon` in a
/// FIFO queue with a fixed service time.
fn queue_p95(interarrival: f64, seed: u64, horizon: u64, service_cycles: f64) -> f64 {
    let mut completions = Vec::new();
    LcQueue::new(interarrival, seed).advance_into(horizon, service_cycles, &mut completions);
    let mut latencies: Vec<f64> = completions.iter().map(|c| c.latency as f64).collect();
    percentile(&mut latencies, 0.95)
}

/// The process-wide deadline memo: one isolation run per distinct
/// `(profile, cfg)` per process, shared by every worker thread.
static DEADLINES: std::sync::LazyLock<nuca_types::ShardedMap<u128, f64>> =
    std::sync::LazyLock::new(nuca_types::ShardedMap::new);

/// The deadline, in cycles, for `profile` per the paper's methodology.
///
/// Deterministic: the arrival stream is seeded from the profile name.
///
/// The isolation run simulates `DEADLINE_REQUESTS` requests, which is by
/// far the most expensive step of `Experiment::new` — and it is a pure
/// function of `(profile, cfg)`, both of which repeat across the thousands
/// of experiments a figure sweep runs. The result is therefore memoized
/// process-wide, keyed by the content fingerprint of the full input.
pub fn deadline_cycles(profile: &LcProfile, cfg: &SystemConfig) -> f64 {
    // Debug formatting captures every field (including the curve shape),
    // so any change to the profile or machine gets its own entry.
    let key = nuca_types::hash::fingerprint128(format!("{profile:?}|{cfg:?}").as_bytes());
    DEADLINES.get_or_compute(key, || deadline_cycles_uncached(profile, cfg))
}

/// Every completed entry of the deadline memo, for persisting it to a
/// disk-backed store. Keys are the same content fingerprints
/// [`deadline_cycles`] computes from its inputs.
pub fn export_deadlines() -> Vec<(u128, f64)> {
    DEADLINES.snapshot()
}

/// Warm-starts the deadline memo with an entry loaded from a persistent
/// store. Never clobbers a deadline this process already computed, and
/// counts neither a hit nor a miss.
pub fn seed_deadline(key: u128, cycles: f64) {
    DEADLINES.seed(key, cycles);
}

/// Fig. 8's sweep: `profile`'s p95 latency in isolation at high load vs.
/// its LLC allocation, under S-NUCA and D-NUCA placement
/// ([`isolation_service_cycles`]). One `[alloc_mb, snuca_p95_ms,
/// dnuca_p95_ms]` row per allocation step. The queue is Fig. 8's own:
/// seed 42, 30,000 mean interarrival times.
pub fn isolation_tail_sweep(profile: &LcProfile, cfg: &SystemConfig) -> Vec<[f64; 3]> {
    const MB: f64 = 1048576.0;
    let interarrival = profile.interarrival_cycles(LcLoad::High, cfg.freq_hz);
    let horizon = (interarrival * 30_000.0) as u64;
    let tail_ms = |bytes, dnuca| {
        let service = isolation_service_cycles(profile, cfg, bytes, dnuca);
        queue_p95(interarrival, 42, horizon, service) / cfg.freq_hz * 1e3
    };
    let mut steps = vec![0.25, 0.5, 0.75];
    steps.extend((2..=16).map(|i| i as f64 * 0.5));
    steps
        .into_iter()
        .map(|alloc_mb| {
            let bytes = alloc_mb * MB;
            [alloc_mb, tail_ms(bytes, false), tail_ms(bytes, true)]
        })
        .collect()
}

fn deadline_cycles_uncached(profile: &LcProfile, cfg: &SystemConfig) -> f64 {
    let service = isolation_service_cycles(profile, cfg, deadline_bytes(cfg), false);
    isolation_p95_cycles(profile, cfg, service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_workloads::tailbench;

    #[test]
    fn deadlines_are_stable_and_reasonable() {
        let cfg = SystemConfig::micro2020();
        for p in tailbench() {
            let d1 = deadline_cycles(&p, &cfg);
            let d2 = deadline_cycles(&p, &cfg);
            assert_eq!(d1, d2, "{} deadline must be deterministic", p.name);
            let service = isolation_service_cycles(&p, &cfg, deadline_bytes(&cfg), false);
            // p95 includes queueing: above one service time, below the
            // saturation regime.
            assert!(
                d1 > service,
                "{}: deadline {d1} vs service {service}",
                p.name
            );
            assert!(
                d1 < 20.0 * service,
                "{}: deadline {d1} suspiciously large vs {service}",
                p.name
            );
        }
    }

    #[test]
    fn isolation_utilization_is_stable_at_high_load() {
        // The 4-way isolation point must be below saturation, or the
        // methodology would not define a finite deadline.
        let cfg = SystemConfig::micro2020();
        for p in tailbench() {
            let rho = isolation_service_cycles(&p, &cfg, deadline_bytes(&cfg), false)
                / p.interarrival_cycles(LcLoad::High, cfg.freq_hz);
            assert!(rho < 0.9, "{}: isolation utilization {rho:.2}", p.name);
        }
    }

    #[test]
    fn deadlines_scale_with_service_time() {
        // Slower servers (moses, img-dnn) must have longer deadlines than
        // fast ones (silo, masstree).
        let cfg = SystemConfig::micro2020();
        let lc = tailbench();
        let find = |n: &str| lc.iter().find(|p| p.name == n).unwrap();
        let d = |n: &str| deadline_cycles(find(n), &cfg);
        assert!(d("moses") > d("silo"));
        assert!(d("img-dnn") > d("masstree"));
    }

    #[test]
    fn the_isolation_model_at_the_deadline_allocation_is_the_deadline() {
        // 4 ways of each of the 20 banks: 2.5 MB, way-partitioned.
        let cfg = SystemConfig::micro2020();
        let bytes = 2.5 * 1048576.0;
        assert_eq!(bytes, deadline_bytes(&cfg));
        for p in tailbench() {
            let service = isolation_service_cycles(&p, &cfg, bytes, false);
            let p95 = isolation_p95_cycles(&p, &cfg, service);
            assert_eq!(
                p95.to_bits(),
                deadline_cycles(&p, &cfg).to_bits(),
                "{}",
                p.name
            );
        }
    }
}
