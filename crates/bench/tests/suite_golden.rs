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

#![allow(
    clippy::disallowed_methods,
    reason = "test gates read their own opt-in env switches; never fingerprinted output"
)]

use jumanji::sim::deadline::deadline_key;
use jumanji::telemetry::NoopSink;
use jumanji::types::codec::{encode_entry, ByteWriter};
use jumanji::types::SystemConfig;
use jumanji::workloads::tailbench;
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

/// Runs `cmd` and asserts it succeeds.
fn succeed(cmd: &mut Command) -> Output {
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {cmd:?}: {e}"));
    assert!(
        out.status.success(),
        "{cmd:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Runs a binary with `args` and asserts it succeeds.
fn run(bin: &str, args: &[&str]) -> Output {
    succeed(Command::new(bin).args(args))
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `kind` rendered alone, in this process.
fn standalone(kind: FigureKind, mixes: usize) -> Vec<u8> {
    let spec = ExperimentSpec::new(kind).mixes(mixes);
    let mut out = Vec::new();
    figures::emit(&spec, &NoopSink, &mut out).expect("figure renders");
    out
}

/// `suite --figures fig05` must reproduce fig05 rendered alone byte for
/// byte, and fig13 + fig14 must share cells in the work graph.
#[test]
fn suite_matches_standalone_and_reuses_cells() {
    let tmp = TempDir::new("cheap");
    let suite = run(
        env!("CARGO_BIN_EXE_suite"),
        &["--figures", "fig05", "--threads", "2"],
    );
    assert_eq!(
        suite.stdout,
        standalone(FigureKind::Fig05, 1),
        "suite fig05 differs from fig05 rendered alone"
    );

    // fig13 and fig14 run the same matrix, so the union must fold their
    // planned runs into fewer unique run nodes.
    let stats = tmp.path().join("stats.json");
    run(
        env!("CARGO_BIN_EXE_suite"),
        &[
            "--figures",
            "fig13,fig14",
            "--mixes",
            "1",
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
        "expected fig13+fig14 to share run nodes, stats: {text}"
    );
}

/// The command line is the only configuration surface: the variables
/// that once named a store and a trace file change no byte and create
/// neither.
#[test]
fn the_environment_configures_nothing() {
    let tmp = TempDir::new("env");
    let (store, trace) = (tmp.path().join("store"), tmp.path().join("trace.jsonl"));
    let suite = env!("CARGO_BIN_EXE_suite");
    let plain = run(suite, &["--figures", "fig05"]);
    let with_env = succeed(
        Command::new(suite)
            .args(["--figures", "fig05"])
            .env("JUMANJI_CACHE_DIR", &store)
            .env("JUMANJI_TRACE", &trace),
    );
    assert_eq!(
        plain.stdout, with_env.stdout,
        "the environment changed fig05"
    );
    assert!(!store.exists(), "JUMANJI_CACHE_DIR created a store");
    assert!(!trace.exists(), "JUMANJI_TRACE created a trace file");
}

/// A stale `model.bin` never changes a TSV: the suite reads only cells
/// from its store. Here the store holds nothing but a `model.bin` that
/// gives every TailBench server a deadline of 3.0e5 cycles, keyed as the
/// simulator keys its deadline memo and framed as the benchmark probe
/// frames the file (envelope tag 3: no hulls, then `(key, cycles)`
/// pairs). None of fig05's cells is in the store, so it must compute
/// them exactly as a run without a store does.
#[test]
fn a_stale_model_file_never_changes_a_tsv() {
    let tmp = TempDir::new("stale_model");
    let cfg = SystemConfig::micro2020();
    let servers = tailbench();
    let mut w = ByteWriter::new();
    w.u32(0);
    w.u32(servers.len() as u32);
    for p in &servers {
        w.u128(deadline_key(p, &cfg));
        w.f64(3.0e5);
    }
    let model = tmp.path().join("model.bin");
    let bytes = encode_entry(3, w.into_bytes());
    std::fs::write(&model, &bytes).expect("write model.bin");

    let suite = env!("CARGO_BIN_EXE_suite");
    let store = tmp.path().to_str().unwrap();
    let stored = run(suite, &["--figures", "fig05", "--cache-dir", store]);
    let fresh = run(suite, &["--figures", "fig05"]);
    assert_eq!(
        String::from_utf8_lossy(&stored.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "a stale model.bin changed fig05"
    );
    assert_eq!(read(&model), bytes, "the suite rewrote model.bin");
}

/// A `--cache-dir` the store cannot open (it is a regular file) costs
/// the warm start, not the run: one warning, exit 0, and fig05 exactly
/// as a run without a store renders it.
#[test]
fn an_unopenable_store_degrades_with_one_warning() {
    let tmp = TempDir::new("unopenable");
    let file = tmp.path().join("store");
    std::fs::write(&file, b"not a directory").expect("write store file");
    let suite = env!("CARGO_BIN_EXE_suite");
    let store = file.to_str().unwrap();
    let stored = run(suite, &["--figures", "fig05", "--cache-dir", store]);
    let fresh = run(suite, &["--figures", "fig05"]);
    let stderr = String::from_utf8_lossy(&stored.stderr);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("warning: cannot open --cache-dir"))
        .collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&stored.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "the unopenable store changed fig05"
    );
}

/// Runs `suite args` in the empty directory `dir` and asserts a usage
/// error (exit 2) that names `named`, renders no figure and writes
/// nothing.
fn assert_usage_error(dir: &Path, args: &[&str], named: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn suite");
    assert_eq!(out.status.code(), Some(2), "suite {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(named), "suite {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "suite {args:?} rendered a figure");
    let written: Vec<_> = std::fs::read_dir(dir).unwrap().collect();
    assert!(written.is_empty(), "suite {args:?} wrote {written:?}");
}

/// An unknown figure name is a usage error (exit 2), not a crash.
#[test]
fn unknown_figure_is_a_usage_error() {
    let tmp = TempDir::new("figure");
    assert_usage_error(tmp.path(), &["--figures", "fig99"], "fig99");
}

/// `--out`, `--stats` and `--figures` need a value: a missing one, or
/// another `--flag` in its place, is a usage error (exit 2) that writes
/// nothing. So is a value that does not parse.
#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    let tmp = TempDir::new("flags");
    let cases: [(&[&str], &str); 5] = [
        (
            &["--figures", "table2", "--out", "--stats", "s.json"],
            "--out",
        ),
        (&["--figures", "table2", "--stats"], "--stats"),
        (&["--figures", "--out", "d"], "--figures"),
        (&["--figures", "table2", "--out="], "--out"),
        (
            &["--figures", "table2", "--cache-cap-bytes", "lots"],
            "--cache-cap-bytes",
        ),
    ];
    for (args, named) in cases {
        assert_usage_error(tmp.path(), args, named);
    }
}

/// An argument `suite` does not know — a misspelt flag, a positional —
/// is a usage error that names it, never silently ignored.
#[test]
fn an_unknown_argument_is_a_usage_error() {
    let tmp = TempDir::new("unknown");
    let cases: [(&[&str], &str); 4] = [
        (&["--figures", "table2", "--no-cahce"], "--no-cahce"),
        (&["--figures", "table2", "--cache_dir", "x"], "--cache_dir"),
        (&["--figures", "table2", "--no-cache"], "--no-cache"),
        (&["table2"], "table2"),
    ];
    for (args, named) in cases {
        assert_usage_error(tmp.path(), args, named);
    }
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
        run(
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

/// Pulls one numeric field out of the suite's stats report: scan for
/// the key and parse the number after it (the schema is our own, and
/// the workspace bakes in no JSON crate).
fn read_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == ' ' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
