//! Command-line checks for the `simulate` binary, spawned via
//! `CARGO_BIN_EXE_simulate`.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("spawn simulate")
}

#[test]
fn a_duration_below_one_interval_is_a_usage_error() {
    // 10 ms is less than one 100 ms reconfiguration interval: the run would
    // have no tail latency and no batch work, so it must be refused up
    // front rather than reach the metrics.
    for d in ["0.01", "0.05", "0"] {
        let out = simulate(&["--duration", d]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--duration {d}: {stderr}");
        assert!(!stderr.contains("panicked"), "--duration {d}: {stderr}");
        assert!(
            stderr.contains("usage: simulate"),
            "--duration {d}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--duration {d} printed results");
    }
}

#[test]
fn a_one_interval_run_completes() {
    let out = simulate(&["--duration", "0.1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("batch weighted speedup vs Static"),
        "{stdout}"
    );
    assert!(!stdout.contains("inf"), "{stdout}");
}

#[test]
fn the_timeline_prints_one_row_per_interval() {
    // 0.3 s is three 100 ms reconfiguration intervals.
    for design in ["static", "jigsaw", "jumanji"] {
        let out = simulate(&[
            "--design",
            design,
            "--duration",
            "0.3",
            "--timeline",
            "--no-baseline",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{design}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (_, table) = stdout
            .split_once("t_ms\tavg_lc_latency_ms\tavg_lc_alloc_mb\tvulnerability\n")
            .unwrap_or_else(|| panic!("{design}: no timeline header in {stdout}"));
        let rows: Vec<&str> = table.lines().collect();
        let times: Vec<&str> = rows.iter().filter_map(|r| r.split('\t').next()).collect();
        assert_eq!(times, ["100", "200", "300"], "{design}: {stdout}");
        assert!(rows.iter().all(|r| r.split('\t').count() == 4), "{stdout}");
    }
}
