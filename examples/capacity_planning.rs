//! Capacity planning: how much LLC does each TailBench-like server need to
//! meet its deadline, with and without D-NUCA placement?
//!
//! Binary-searches the smallest allocation whose p95 stays under the
//! deadline (paper Fig. 8's question, asked for every server), showing the
//! capacity D-NUCA frees for batch applications.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use jumanji::prelude::*;
use jumanji::sim::deadline::{deadline_cycles, isolation_p95_cycles, isolation_service_cycles};
use jumanji::workloads::LcProfile;

const MB: f64 = 1048576.0;

/// p95 latency (cycles) of `p` at a fixed allocation under S-NUCA or
/// D-NUCA placement, run alone at high load on the deadline's own queue:
/// at the deadline's 2.5 MB S-NUCA allocation this is the deadline.
fn p95(p: &LcProfile, cfg: &SystemConfig, alloc_bytes: f64, dnuca: bool) -> f64 {
    let service = isolation_service_cycles(p, cfg, alloc_bytes, dnuca);
    isolation_p95_cycles(p, cfg, service)
}

/// Smallest allocation (MB, 0.125 MB granularity, up to 20 MB) meeting
/// the deadline: a bisection over the grid's steps.
fn needed_mb(p: &LcProfile, cfg: &SystemConfig, deadline: f64, dnuca: bool) -> Option<f64> {
    let meets = |eighths: u32| p95(p, cfg, f64::from(eighths) * 0.125 * MB, dnuca) <= deadline;
    // `hi` meets the deadline; `lo` does not, or is the untested 0.
    let (mut lo, mut hi) = (0, 160);
    if !meets(hi) {
        return None;
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if meets(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(f64::from(hi) / 8.0)
}

fn main() {
    let cfg = SystemConfig::micro2020();
    println!("Smallest LLC allocation meeting each server's deadline (alone, high load)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10}",
        "server", "deadline", "S-NUCA", "D-NUCA", "freed"
    );
    let mut total_saved = 0.0;
    for p in tailbench() {
        let deadline = deadline_cycles(&p, &cfg);
        let snuca = needed_mb(&p, &cfg, deadline, false);
        let dnuca = needed_mb(&p, &cfg, deadline, true);
        let (s, d) = (snuca.unwrap_or(f64::NAN), dnuca.unwrap_or(f64::NAN));
        total_saved += s - d;
        println!(
            "{:<10} {:>9.2} ms {:>9.2} MB {:>9.2} MB {:>7.2} MB",
            p.name,
            deadline / cfg.freq_hz * 1e3,
            s,
            d,
            s - d
        );
    }
    println!(
        "\nAcross the five servers, D-NUCA placement frees {total_saved:.1} MB of LLC\n\
         for batch applications while meeting the same deadlines (paper Sec. V-A)."
    );
}
