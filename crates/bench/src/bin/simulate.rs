//! `simulate` — run one Jumanji experiment from the command line.
//!
//! ```sh
//! cargo run --release -p jumanji-bench --bin simulate -- \
//!     --design jumanji --workload xapian --load high --duration 4 --seed 1
//! ```
//!
//! Options:
//! - `--design`  static | adaptive | vm-part | jigsaw | jumanji |
//!   insecure | ideal (default: jumanji)
//! - `--workload` case-study | mixed | masstree | xapian | img-dnn |
//!   silo | moses (default: case-study)
//! - `--load` high | low (default: high)
//! - `--duration` simulated seconds, at least one 100 ms reconfiguration
//!   interval (default: 4)
//! - `--seed` workload/arrival seed (default: 1)
//! - `--timeline` also print the per-interval timeline as TSV
//! - `--no-baseline` skip the Static baseline (no speedup column)

use jumanji::prelude::*;
use jumanji::types::Seconds;
use std::process::ExitCode;

fn parse_design(s: &str) -> Option<DesignKind> {
    Some(match s {
        "static" => DesignKind::Static,
        "adaptive" => DesignKind::Adaptive,
        "vm-part" | "vmpart" => DesignKind::VmPart,
        "jigsaw" => DesignKind::Jigsaw,
        "jumanji" => DesignKind::Jumanji,
        "insecure" => DesignKind::JumanjiInsecure,
        "ideal" => DesignKind::JumanjiIdealBatch,
        _ => return None,
    })
}

fn parse_workload(s: &str, seed: u64) -> Option<WorkloadMix> {
    match s {
        "case-study" => Some(case_study_mix(seed)),
        "mixed" => Some(WorkloadMix::mixed_lc(seed)),
        name => {
            let lc = tailbench().into_iter().find(|p| p.name == name)?;
            Some(WorkloadMix::uniform_lc(&lc, seed))
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simulate [--design D] [--workload W] [--load high|low] \
         [--duration SECS] [--seed N] [--timeline] [--no-baseline]\n\
         designs: static adaptive vm-part jigsaw jumanji insecure ideal\n\
         workloads: case-study mixed masstree xapian img-dnn silo moses"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut design = DesignKind::Jumanji;
    let mut workload = "case-study".to_string();
    let mut load = LcLoad::High;
    let mut duration = 4.0f64;
    let mut seed = 1u64;
    let mut timeline = false;
    let mut baseline = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--design" => match it.next().and_then(|v| parse_design(v)) {
                Some(d) => design = d,
                None => return usage(),
            },
            "--workload" => match it.next() {
                Some(w) => workload = w.clone(),
                None => return usage(),
            },
            "--load" => match it.next().map(String::as_str) {
                Some("high") => load = LcLoad::High,
                Some("low") => load = LcLoad::Low,
                _ => return usage(),
            },
            "--duration" => match it.next().and_then(|v| v.parse().ok()) {
                Some(d) if d >= SimOptions::default().reconfig.as_f64() => duration = d,
                _ => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--timeline" => timeline = true,
            "--no-baseline" => baseline = false,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let Some(mix) = parse_workload(&workload, seed) else {
        eprintln!("unknown workload '{workload}'");
        return usage();
    };

    let opts = SimOptions {
        duration: Seconds(duration),
        seed,
        ..SimOptions::default()
    };
    let exp = Experiment::new(mix, load, opts);
    let (r, timeline) = if timeline {
        let (r, timeline) = exp.run_with_timeline(design, &NoopSink);
        (r, Some(timeline))
    } else {
        (exp.run(design, &NoopSink), None)
    };

    println!("design: {design}");
    println!(
        "workload: {workload} ({} LC + {} batch apps), load {:?}, {duration}s, seed {seed}",
        r.lc_names.len(),
        r.batch_names.len(),
        load
    );
    println!("\nlatency-critical servers:");
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "app", "p95 (ms)", "deadline", "ratio"
    );
    for i in 0..r.lc_names.len() {
        println!(
            "{:<12} {:>12.3} {:>9.3} ms {:>10.2}",
            r.lc_names[i],
            r.lc_tail_latency_ms[i],
            r.lc_deadline_ms[i],
            r.lc_tail_latency_ms[i] / r.lc_deadline_ms[i]
        );
    }
    if baseline {
        let stat = exp.run(DesignKind::Static, &NoopSink);
        println!(
            "\nbatch weighted speedup vs Static: {:+.2}%",
            (r.weighted_speedup_vs(&stat) - 1.0) * 100.0
        );
    }
    println!("potential attackers per LLC access: {:.2}", r.vulnerability);
    println!("data-movement energy: {}", r.energy);
    println!(
        "coherence refetches across reconfigurations: {:.2} M lines",
        r.coherence_refetches / 1e6
    );
    if let Some(timeline) = timeline {
        println!("\nt_ms\tavg_lc_latency_ms\tavg_lc_alloc_mb\tvulnerability");
        for rec in &timeline {
            let lat: Vec<f64> = rec.lc_mean_latency_ms.iter().flatten().copied().collect();
            let avg_lat = if lat.is_empty() {
                f64::NAN
            } else {
                lat.iter().sum::<f64>() / lat.len() as f64
            };
            let avg_alloc = rec.lc_alloc_bytes.iter().sum::<f64>()
                / rec.lc_alloc_bytes.len().max(1) as f64
                / 1048576.0;
            println!(
                "{:.0}\t{:.3}\t{:.3}\t{:.2}",
                rec.t_ms, avg_lat, avg_alloc, rec.vulnerability
            );
        }
    }
    ExitCode::SUCCESS
}
