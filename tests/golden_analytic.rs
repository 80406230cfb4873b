//! Golden regression test for the analytic epoch engine.
//!
//! The fixtures under `tests/fixtures/` hold a canonical rendering of the
//! [`ExperimentResult`] each of the five designs produces for one
//! `case_study_mix(4)` cell, generated by the *pre-incremental*
//! implementation (per-interval config clones, curve clones, cold
//! allocator runs, end-of-run percentile sort). The incremental epoch
//! engine — hoisted profiles, persistent scratch, fixpoint memoization,
//! heap-based greedy, `select_nth_unstable` percentiles — must reproduce
//! every number bit-for-bit: tails, deadlines, batch work, vulnerability,
//! energy, coherence refetches, and the full per-interval timeline.
//!
//! Regenerate (only when an *intentional* behaviour change is made) with:
//!
//! ```sh
//! JUMANJI_UPDATE_GOLDEN=1 cargo test --release --test golden_analytic
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "test gates read their own opt-in env switches; never fingerprinted output"
)]

use jumanji::core::DesignKind;
use jumanji::prelude::*;
use jumanji::telemetry::NoopSink;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Renders a result in a canonical, lossless TSV form. Floats are printed
/// with Rust's shortest-roundtrip formatting, so equal strings imply
/// bit-equal values.
fn render(r: &ExperimentResult) -> String {
    let mut out = String::new();
    writeln!(out, "design\t{}", r.design).expect("write to string");
    out.push_str("lc\tname\ttail_ms\tdeadline_ms\n");
    for ((name, tail), dead) in r
        .lc_names
        .iter()
        .zip(&r.lc_tail_latency_ms)
        .zip(&r.lc_deadline_ms)
    {
        writeln!(out, "lc\t{name}\t{tail:?}\t{dead:?}").expect("write to string");
    }
    out.push_str("batch\tname\twork\n");
    for (name, work) in r.batch_names.iter().zip(&r.batch_work) {
        writeln!(out, "batch\t{name}\t{work:?}").expect("write to string");
    }
    writeln!(out, "vulnerability\t{:?}", r.vulnerability).expect("write to string");
    let e = &r.energy;
    writeln!(
        out,
        "energy\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}",
        e.l1, e.l2, e.llc, e.noc, e.mem
    )
    .expect("write to string");
    writeln!(out, "total_instructions\t{:?}", r.total_instructions).expect("write to string");
    writeln!(out, "coherence_refetches\t{:?}", r.coherence_refetches).expect("write to string");
    out.push_str("interval\tt_ms\tvulnerability\tlc_means\tlc_allocs\n");
    for rec in &r.timeline {
        let means: Vec<String> = rec
            .lc_mean_latency_ms
            .iter()
            .map(|m| match m {
                Some(v) => format!("{v:?}"),
                None => "-".to_string(),
            })
            .collect();
        let allocs: Vec<String> = rec
            .lc_alloc_bytes
            .iter()
            .map(|b| format!("{b:?}"))
            .collect();
        writeln!(
            out,
            "interval\t{:?}\t{:?}\t{}\t{}",
            rec.t_ms,
            rec.vulnerability,
            means.join(","),
            allocs.join(",")
        )
        .expect("write to string");
    }
    out
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// The fixture workload: the paper's case-study mix 4 (cache-hungry batch
/// co-runners) at high load, default machine and simulation options.
fn check(design: DesignKind, fixture: &str) {
    let exp = Experiment::new(case_study_mix(4), LcLoad::High, SimOptions::default());
    let got = render(&exp.run(design, &NoopSink));
    let path = fixture_path(fixture);
    if std::env::var("JUMANJI_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with JUMANJI_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line count diverged from {fixture}"
    );
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{fixture}:{} diverged from golden result", line + 1);
    }
}

#[test]
fn static_analytic_matches_golden() {
    check(DesignKind::Static, "golden_analytic_static.tsv");
}

#[test]
fn adaptive_analytic_matches_golden() {
    check(DesignKind::Adaptive, "golden_analytic_adaptive.tsv");
}

#[test]
fn vmpart_analytic_matches_golden() {
    check(DesignKind::VmPart, "golden_analytic_vmpart.tsv");
}

#[test]
fn jigsaw_analytic_matches_golden() {
    check(DesignKind::Jigsaw, "golden_analytic_jigsaw.tsv");
}

#[test]
fn jumanji_analytic_matches_golden() {
    check(DesignKind::Jumanji, "golden_analytic_jumanji.tsv");
}
