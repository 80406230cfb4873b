//! Golden-trace regression test for the detailed simulator.
//!
//! The fixtures under `tests/fixtures/` hold a canonical rendering of the
//! [`DetailReport`] produced by the *pre-flat-kernel* implementation
//! (pointer-chasing `Vec<Vec<Option<Line>>>` banks, linear-scan TLB,
//! `HashMap` VTB) for one Jumanji and one S-NUCA configuration. The
//! flat-arena kernels must reproduce those reports bit-for-bit: every
//! access count, miss, latency sum, hop sum, port wait, TLB miss,
//! writeback, and the final per-bank occupant sets.
//!
//! Regenerate (only when an *intentional* behaviour change is made) with:
//!
//! ```sh
//! JUMANJI_UPDATE_GOLDEN=1 cargo test --release --test golden_trace
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "test gates read their own opt-in env switches; never fingerprinted output"
)]

use jumanji::core::{AppKind, DesignKind, PlacementInput};
use jumanji::prelude::*;
use jumanji::sim::detail::{run_detailed, DetailOptions, DetailReport};
use jumanji::sim::perf::Profile;
use jumanji::telemetry::NoopSink;
use jumanji::types::{CoreId, VmId};
use jumanji::workloads::LcLoad;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Renders a report in a canonical, lossless text form. Floats are printed
/// with Rust's shortest-roundtrip formatting, so equal strings imply
/// bit-equal values.
fn render(report: &DetailReport) -> String {
    let mut out = String::new();
    out.push_str(
        "app\taccesses\tmisses\ttotal_latency\ttotal_hops\tport_wait\ttlb_misses\twritebacks\n",
    );
    for (i, s) in report.apps.iter().enumerate() {
        writeln!(
            out,
            "{i}\t{}\t{}\t{:?}\t{:?}\t{}\t{}\t{}",
            s.accesses,
            s.misses,
            s.total_latency,
            s.total_hops,
            s.port_wait,
            s.tlb_misses,
            s.writebacks
        )
        .expect("write to string");
    }
    for (b, occ) in report.bank_occupants.iter().enumerate() {
        let apps: Vec<String> = occ.iter().map(|a| a.index().to_string()).collect();
        writeln!(out, "bank{b}\t{}", apps.join(",")).expect("write to string");
    }
    out
}

/// The fixture workload: the paper's example placement input, identical to
/// what the `validate` binary simulates.
fn run(design: DesignKind) -> DetailReport {
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let lc = tailbench();
    let batch = spec2006();
    let mut profiles = Vec::new();
    for (i, a) in input.apps.iter().enumerate() {
        profiles.push(match a.kind {
            AppKind::LatencyCritical => Profile::Lc(lc[i % lc.len()].clone(), LcLoad::High),
            AppKind::Batch => Profile::Batch(batch[i % batch.len()].clone()),
        });
    }
    let cores: Vec<CoreId> = input.apps.iter().map(|a| a.core).collect();
    let vms: Vec<VmId> = input.apps.iter().map(|a| a.vm).collect();
    let opts = DetailOptions {
        cfg,
        accesses_per_app: 20_000,
        seed: 0xD5,
        ..DetailOptions::default()
    };
    run_detailed(
        &opts,
        &profiles,
        &cores,
        &vms,
        &design.allocate(&input),
        &NoopSink,
    )
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn check(design: DesignKind, fixture: &str) {
    let got = render(&run(design));
    let path = fixture_path(fixture);
    if std::env::var("JUMANJI_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with JUMANJI_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if got != want {
        // Diff line-by-line so a mismatch pinpoints the first diverging app.
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w, "detailed report diverged from golden trace");
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "report length diverged"
        );
    }
}

#[test]
fn jumanji_detail_report_matches_golden_trace() {
    check(DesignKind::Jumanji, "golden_jumanji.txt");
}

#[test]
fn snuca_detail_report_matches_golden_trace() {
    check(DesignKind::Adaptive, "golden_snuca.txt");
}
