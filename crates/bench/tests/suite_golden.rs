//! Golden byte-identity tests for the `suite` binary.
//!
//! Cross-figure dedup must be invisible in the output: a figure the
//! `suite` binary renders among others — possibly entirely from cells
//! another figure's plan also named — must be byte-identical to the same
//! figure rendered alone in-process ([`figures::emit`]). These tests
//! spawn the real binary (via `CARGO_BIN_EXE_suite`) and compare bytes.
//!
//! The cheap checks always run. The full fig13/fig14 matrix at two
//! thread counts takes a couple of seconds per invocation, so it is
//! gated behind `JUMANJI_SUITE_GOLDEN=1` — `scripts/verify.sh` sets it.
//!
//! [`figures::emit`]: jumanji_bench::figures::emit

// Test gates read their own opt-in env switches; never fingerprinted output.
#![allow(clippy::disallowed_methods)]

use jumanji::telemetry::NoopSink;
use jumanji_bench::{figures, ExperimentSpec, FigureKind};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("jumanji_suite_golden_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a binary with a scrubbed environment: no `JUMANJI_*` knobs leak
/// in from the outside, so the test is deterministic wherever it runs.
fn run_clean(bin: &str, args: &[&str]) -> Output {
    let out = Command::new(bin)
        .args(args)
        .env_remove("JUMANJI_TRACE")
        .env_remove("JUMANJI_MIXES")
        .env_remove("JUMANJI_THREADS")
        .env_remove("JUMANJI_ACCESSES")
        .env_remove("JUMANJI_NO_CACHE")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `kind` rendered alone, in this process.
fn standalone(kind: FigureKind, mixes: usize) -> Vec<u8> {
    let spec = ExperimentSpec::new(kind).mixes(mixes).threads(2);
    let mut out = Vec::new();
    figures::emit(&spec, &NoopSink, &mut out).expect("figure renders");
    out
}

/// `suite --figures fig05` must reproduce fig05 rendered alone byte for
/// byte, and fig04 + fig05 must share cells in the work graph.
#[test]
fn suite_matches_standalone_and_reuses_cells() {
    let tmp = TempDir::new("cheap");
    let suite = run_clean(
        env!("CARGO_BIN_EXE_suite"),
        &["--figures", "fig05", "--threads", "2"],
    );
    assert_eq!(
        suite.stdout,
        standalone(FigureKind::Fig05, 1),
        "suite fig05 differs from fig05 rendered alone"
    );

    // fig04 and fig05 share the case-study experiment, so the union must
    // fold their planned runs (fig05's Static/Jumanji/Jigsaw/… runs at
    // high load repeat fig04's) into fewer unique run nodes.
    let stats = tmp.path().join("stats.json");
    run_clean(
        env!("CARGO_BIN_EXE_suite"),
        &[
            "--figures",
            "fig04,fig05",
            "--threads",
            "2",
            "--stats",
            stats.to_str().unwrap(),
        ],
    );
    let text = String::from_utf8(read(&stats)).expect("stats JSON is UTF-8");
    let planned = read_number(&text, "\"planned_runs\":").expect("planned_runs in stats");
    let unique = read_number(&text, "\"run_nodes\":").expect("run_nodes in stats");
    assert!(
        unique < planned,
        "expected fig04+fig05 to share run nodes, stats: {text}"
    );
}

/// `--no-cache` must not change a single byte of output.
#[test]
fn no_cache_output_is_byte_identical() {
    let cached = run_clean(env!("CARGO_BIN_EXE_suite"), &["--figures", "fig05"]);
    let fresh = run_clean(
        env!("CARGO_BIN_EXE_suite"),
        &["--figures", "fig05", "--no-cache"],
    );
    assert_eq!(
        cached.stdout, fresh.stdout,
        "--no-cache changed the rendered TSV"
    );
}

/// An unknown figure name is a usage error (exit 2), not a crash.
#[test]
fn unknown_figure_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--figures", "fig99"])
        .output()
        .expect("spawn suite");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fig99"),
        "error should name the unknown figure"
    );
}

/// The full gated matrix: fig13 + fig14 through the suite at 1 and 4
/// threads, byte-identical to each figure rendered alone. The two plan
/// identical cells, so fig14 renders entirely from nodes fig13's plan
/// also named.
#[test]
fn gated_fig13_fig14_match_standalone_at_all_thread_counts() {
    if std::env::var("JUMANJI_SUITE_GOLDEN").ok().as_deref() != Some("1") {
        eprintln!("skipping: set JUMANJI_SUITE_GOLDEN=1 to run the full matrix");
        return;
    }
    let tmp = TempDir::new("full");
    let mixes = 2;
    let fig13 = standalone(FigureKind::Fig13, mixes);
    let fig14 = standalone(FigureKind::Fig14, mixes);

    for threads in ["1", "4"] {
        let dir = tmp.path().join(format!("t{threads}"));
        run_clean(
            env!("CARGO_BIN_EXE_suite"),
            &[
                "--figures",
                "fig13,fig14",
                "--mixes",
                &mixes.to_string(),
                "--threads",
                threads,
                "--out",
                dir.to_str().unwrap(),
            ],
        );
        assert_eq!(
            read(&dir.join("fig13.tsv")),
            fig13,
            "suite fig13 differs at --threads {threads}"
        );
        assert_eq!(
            read(&dir.join("fig14.tsv")),
            fig14,
            "suite fig14 differs at --threads {threads}"
        );
    }
}

/// Pulls one numeric field out of the suite's stats report (same
/// minimal scan the `timings` binary uses — the schema is our own).
fn read_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == ' ' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
