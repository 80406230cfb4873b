//! Times the experiment-heavy figures and writes `BENCH_suite.json` at the
//! repo root (or the directory given with `--out DIR`).
//!
//! Each figure runs as its own cold `suite --figures <name>` process with
//! `--mixes 4`, so the suite finishes in minutes while still exercising
//! the full mix × design fan-out, and each row stays comparable with the
//! per-figure rows of a `BENCH_baseline.json` with the same schema; when
//! one exists next to the output (e.g., measured on an older tree), the
//! report includes the combined speedup against it.
//!
//! After the per-figure rows, the same figure set runs once as one
//! `suite` process; the report's `"suite"` section pins its wall-clock,
//! speedup over the summed per-figure times, and the dedup counts.
//!
//! Usage: `timings [--out DIR] [--threads N]` (`--threads` is forwarded to
//! the per-figure runs).

// Wall-clock measurement is this binary's entire purpose; lint.toml's
// [paths].timing_allow sanctions it, and this mirrors that for clippy.
#![allow(clippy::disallowed_methods)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use jumanji::core::{AppKind, DesignKind, PlacementInput};
use jumanji::prelude::*;
use jumanji::sim::detail::{run_detailed, DetailOptions};
use jumanji::sim::perf::Profile;
use jumanji::types::{CoreId, VmId};
use jumanji::workloads::LcLoad;
use jumanji_bench::exec::{flag_value, thread_count};

/// The figures whose wall-clock the suite tracks, in run order.
const SUITE: &[&str] = &[
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "sensitivity",
    "ablation",
];

/// Mix count forwarded to every run: small enough for a quick suite,
/// large enough to exercise the fan-out.
const SUITE_MIXES: usize = 4;

/// Accesses per application for the single-core detailed-simulator
/// throughput probe — the `validate` figure's scale.
const DETAIL_ACCESSES: usize = 80_000;

/// Measures detailed-simulator throughput (accesses/sec) on one core at
/// `validate` scale: the example placement input, both the S-NUCA and
/// Jumanji allocations, `DETAIL_ACCESSES` accesses per app.
fn detail_throughput() -> (u64, f64) {
    let cfg = SystemConfig::micro2020();
    let input = PlacementInput::example(&cfg);
    let lc = tailbench();
    let batch = spec2006();
    let profiles: Vec<Profile> = input
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| match a.kind {
            AppKind::LatencyCritical => Profile::Lc(lc[i % lc.len()].clone(), LcLoad::High),
            AppKind::Batch => Profile::Batch(batch[i % batch.len()].clone()),
        })
        .collect();
    let cores: Vec<CoreId> = input.apps.iter().map(|a| a.core).collect();
    let vms: Vec<VmId> = input.apps.iter().map(|a| a.vm).collect();
    let opts = DetailOptions {
        cfg,
        accesses_per_app: DETAIL_ACCESSES,
        ..DetailOptions::default()
    };
    let allocs = [
        DesignKind::Adaptive.allocate(&input),
        DesignKind::Jumanji.allocate(&input),
    ];
    let total_accesses = (allocs.len() * profiles.len() * DETAIL_ACCESSES) as u64;
    let t = Instant::now();
    for alloc in &allocs {
        let report = run_detailed(&opts, &profiles, &cores, &vms, alloc, &NoopSink);
        assert_eq!(report.apps.len(), profiles.len());
    }
    let secs = t.elapsed().as_secs_f64();
    (total_accesses, total_accesses as f64 / secs)
}

/// Measures the analytic epoch engine: one `case_study_mix(4)` cell run
/// through `Experiment::run` for all five designs on one core. Returns the
/// total interval count and sustained intervals/sec — the number that the
/// incremental, allocation-free epoch loop is supposed to keep high.
fn analytic_throughput() -> (u64, f64) {
    let opts = SimOptions::default();
    let per_run = (opts.duration.as_f64() / opts.reconfig.as_f64()).round() as u64;
    let exp = Experiment::new(case_study_mix(4), LcLoad::High, opts);
    let designs = DesignKind::all();
    const REPS: u64 = 3;
    let t = Instant::now();
    for _ in 0..REPS {
        for &design in &designs {
            let result = exp.run(design, &NoopSink);
            assert!(!result.batch_names.is_empty());
        }
    }
    let secs = t.elapsed().as_secs_f64();
    let intervals = REPS * designs.len() as u64 * per_run;
    (intervals, intervals as f64 / secs)
}

/// Spawns one `suite` process with the arguments `args` adds (output
/// silenced), asserts it succeeded, and returns its wall-clock seconds.
fn time_suite(bin_dir: &Path, args: impl FnOnce(&mut Command) -> &mut Command) -> f64 {
    let mut cmd = Command::new(bin_dir.join("suite"));
    args(&mut cmd)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    let t = Instant::now();
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("failed to spawn suite: {e}"));
    assert!(status.success(), "suite exited with {status}");
    t.elapsed().as_secs_f64()
}

/// Runs one `suite` process over the whole [`SUITE`] at the same
/// mix/thread settings and returns `(seconds, cells_computed,
/// cells_reused)`. The work graph dedups cells across figures, so this
/// wall-clock is the dedup headline the report compares against the
/// summed per-figure times.
fn suite_timing(bin_dir: &Path, out_dir: &Path, threads: usize) -> (f64, u64, u64) {
    let tsv_dir = out_dir.join("suite_tsv");
    let stats_path = out_dir.join("suite_stats.json");
    let secs = time_suite(bin_dir, |c| {
        c.args(["--figures", &SUITE.join(",")])
            .args(["--mixes", &SUITE_MIXES.to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--out".as_ref(), tsv_dir.as_os_str()])
            .args(["--stats".as_ref(), stats_path.as_os_str()])
    });
    let stats = std::fs::read_to_string(&stats_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", stats_path.display()));
    let computed = read_number(&stats, "\"cells_computed\":").expect("cells_computed") as u64;
    let reused = read_number(&stats, "\"cells_reused\":").expect("cells_reused") as u64;
    let _ = std::fs::remove_dir_all(&tsv_dir);
    let _ = std::fs::remove_file(&stats_path);
    (secs, computed, reused)
}

/// Scheduler A/B measurements over the [`SUITE`] figure set.
struct SchedTiming {
    threads: usize,
    seconds: f64,
    /// The same run at the serial reference `--threads 1`.
    sequential_seconds: f64,
    planned_runs: u64,
    nodes: u64,
    edges: u64,
    steals: u64,
    critical_path_us: u64,
    elapsed_us: u64,
}

/// Runs the `suite` binary over [`SUITE`] twice — at `--threads 4`,
/// then at the serial reference `--threads 1` — in separate processes
/// (cold caches both), asserts the TSVs are byte-identical, and returns
/// both wall-clocks plus the scheduler's own stats.
fn sched_timing(bin_dir: &Path, out_dir: &Path) -> SchedTiming {
    const THREADS: usize = 4;
    let run = |mode_dir: &Path, stats: &Path, threads: usize| -> f64 {
        time_suite(bin_dir, |c| {
            c.args(["--figures", &SUITE.join(",")])
                .args(["--mixes", &SUITE_MIXES.to_string()])
                .args(["--threads", &threads.to_string()])
                .args(["--out".as_ref(), mode_dir.as_os_str()])
                .args(["--stats".as_ref(), stats.as_os_str()])
        })
    };

    let sched_dir = out_dir.join("sched_tsv");
    let seq_dir = out_dir.join("sched_seq_tsv");
    let stats_path = out_dir.join("sched_stats.json");
    let seq_stats_path = out_dir.join("sched_seq_stats.json");
    let seconds = run(&sched_dir, &stats_path, THREADS);
    let sequential_seconds = run(&seq_dir, &seq_stats_path, 1);
    for name in SUITE {
        let a = std::fs::read(sched_dir.join(format!("{name}.tsv"))).expect("scheduled tsv");
        let b = std::fs::read(seq_dir.join(format!("{name}.tsv"))).expect("--threads 1 tsv");
        assert_eq!(
            a, b,
            "{name}: --threads {THREADS} and --threads 1 TSVs differ"
        );
    }
    let stats = std::fs::read_to_string(&stats_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", stats_path.display()));
    let field = |key: &str| read_number(&stats, key).unwrap_or_else(|| panic!("missing {key}"));
    let timing = SchedTiming {
        threads: THREADS,
        seconds,
        sequential_seconds,
        planned_runs: field("\"planned_runs\":") as u64,
        nodes: field("\"nodes\":") as u64,
        edges: field("\"edges\":") as u64,
        steals: field("\"steals\":") as u64,
        critical_path_us: field("\"critical_path_us\":") as u64,
        elapsed_us: field("\"elapsed_us\":") as u64,
    };
    let _ = std::fs::remove_dir_all(&sched_dir);
    let _ = std::fs::remove_dir_all(&seq_dir);
    let _ = std::fs::remove_file(&stats_path);
    let _ = std::fs::remove_file(&seq_stats_path);
    timing
}

/// Persistent-store A/B measurements.
struct StoreTiming {
    cold_seconds: f64,
    warm_seconds: f64,
    entries_written: u64,
    /// The warm run's `hits_key` counter (cells served from disk).
    warm_hits: u64,
}

/// The detailed-simulator figures and the settings their probe runs at:
/// equal `--accesses` across both figures, so validate's mix-0 cells
/// dedup against fig02's in the work graph.
const DETAIL_FIGURES: &[&str] = &["fig02", "validate"];
const DETAIL_MIXES: usize = 2;
const DETAIL_CACHE_ACCESSES: usize = 60_000;

/// Runs the `suite` binary over `figures` (plus `args`) twice against
/// one fresh `--cache-dir` — a cold run that populates the store, then a
/// warm run in a new process that should serve (nearly) everything from
/// disk — asserts the TSVs are byte-identical, and returns both
/// wall-clocks plus the store's write count and the warm run's
/// `hits_key` stats counter. `tag` names the scratch paths.
fn store_timing(
    bin_dir: &Path,
    out_dir: &Path,
    tag: &str,
    figures: &[&str],
    args: &[String],
    hits_key: &str,
) -> StoreTiming {
    let cache_dir = out_dir.join(format!("{tag}_cache_probe"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = |mode_dir: &Path, stats: &Path| -> f64 {
        time_suite(bin_dir, |c| {
            c.args(["--figures", &figures.join(",")])
                .args(args)
                .args(["--out".as_ref(), mode_dir.as_os_str()])
                .args(["--stats".as_ref(), stats.as_os_str()])
                .args(["--cache-dir".as_ref(), cache_dir.as_os_str()])
        })
    };

    let cold_dir = out_dir.join(format!("{tag}_cold_tsv"));
    let warm_dir = out_dir.join(format!("{tag}_warm_tsv"));
    let cold_stats_path = out_dir.join(format!("{tag}_cold_stats.json"));
    let warm_stats_path = out_dir.join(format!("{tag}_warm_stats.json"));
    let cold_seconds = run(&cold_dir, &cold_stats_path);
    let warm_seconds = run(&warm_dir, &warm_stats_path);
    for name in figures {
        let a = std::fs::read(cold_dir.join(format!("{name}.tsv"))).expect("cold tsv");
        let b = std::fs::read(warm_dir.join(format!("{name}.tsv"))).expect("warm tsv");
        assert_eq!(a, b, "{name}: cold and warm TSVs differ");
    }
    let cold_stats = std::fs::read_to_string(&cold_stats_path).expect("cold stats");
    let warm_stats = std::fs::read_to_string(&warm_stats_path).expect("warm stats");
    let entries_written = read_number(&cold_stats, "\"writes\":").expect("cold writes") as u64;
    let warm_hits = read_number(&warm_stats, hits_key).expect("warm hits") as u64;
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);
    let _ = std::fs::remove_file(&cold_stats_path);
    let _ = std::fs::remove_file(&warm_stats_path);
    StoreTiming {
        cold_seconds,
        warm_seconds,
        entries_written,
        warm_hits,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = flag_value(&args, "--out").map_or_else(|| PathBuf::from("."), PathBuf::from);
    let threads = thread_count();

    let bin_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("binaries live in a directory")
        .to_path_buf();

    let mut rows: Vec<(String, f64)> = Vec::new();
    for name in SUITE {
        let secs = time_suite(&bin_dir, |c| {
            c.args(["--figures", name])
                .args(["--mixes", &SUITE_MIXES.to_string()])
                .args(["--threads", &threads.to_string()])
        });
        eprintln!("{name}: {secs:.2}s");
        rows.push((name.to_string(), secs));
    }
    let total: f64 = rows.iter().map(|(_, s)| s).sum();
    eprintln!("total: {total:.2}s");

    let (suite_secs, cells_computed, cells_reused) = suite_timing(&bin_dir, &out_dir, threads);
    let lookups = cells_computed + cells_reused;
    let reuse_rate = if lookups == 0 {
        0.0
    } else {
        cells_reused as f64 / lookups as f64
    };
    eprintln!(
        "suite: {suite_secs:.2}s ({:.2}x vs summed per-figure runs; {cells_computed} cells computed, \
         {cells_reused} reused)",
        total / suite_secs
    );

    let sched = sched_timing(&bin_dir, &out_dir);
    eprintln!(
        "sched: {:.2}s at {} threads vs {:.2}s at 1 thread \
         ({:.2}x; {} nodes, {} steals, critical path {:.2}s)",
        sched.seconds,
        sched.threads,
        sched.sequential_seconds,
        sched.sequential_seconds / sched.seconds,
        sched.nodes,
        sched.steals,
        sched.critical_path_us as f64 / 1e6
    );

    let disk = store_timing(
        &bin_dir,
        &out_dir,
        "disk",
        SUITE,
        &["--mixes".into(), SUITE_MIXES.to_string()],
        "\"disk_run_hits\":",
    );
    eprintln!(
        "disk cache: {:.2}s cold vs {:.2}s warm ({:.2}x; {} entries written, \
         {} warm disk hits)",
        disk.cold_seconds,
        disk.warm_seconds,
        disk.cold_seconds / disk.warm_seconds,
        disk.entries_written,
        disk.warm_hits
    );

    let detail_cache = store_timing(
        &bin_dir,
        &out_dir,
        "detail",
        DETAIL_FIGURES,
        &[
            "--mixes".into(),
            DETAIL_MIXES.to_string(),
            "--accesses".into(),
            DETAIL_CACHE_ACCESSES.to_string(),
        ],
        "\"detail_disk_hits\":",
    );
    eprintln!(
        "detail cache: {:.2}s cold vs {:.2}s warm ({:.2}x; {} entries written, \
         {} warm detail hits)",
        detail_cache.cold_seconds,
        detail_cache.warm_seconds,
        detail_cache.cold_seconds / detail_cache.warm_seconds,
        detail_cache.entries_written,
        detail_cache.warm_hits
    );

    let (detail_accesses, detail_rate) = detail_throughput();
    eprintln!("detail: {detail_rate:.3e} accesses/sec ({detail_accesses} accesses, 1 core)");

    let (analytic_intervals, analytic_rate) = analytic_throughput();
    eprintln!(
        "analytic: {analytic_rate:.0} intervals/sec ({analytic_intervals} intervals, 1 core)"
    );

    let baseline_text = std::fs::read_to_string(out_dir.join("BENCH_baseline.json")).ok();
    let baseline = baseline_text
        .as_deref()
        .and_then(|t| read_number(t, "\"total_seconds\":"));
    let detail_base = baseline_text
        .as_deref()
        .and_then(|t| read_number(t, "\"detail_accesses_per_sec\":"));
    let analytic_base = baseline_text
        .as_deref()
        .and_then(|t| read_number(t, "\"analytic_intervals_per_sec\":"));
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"mixes\": {SUITE_MIXES},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"binaries\": {\n");
    for (i, (name, secs)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"seconds\": {secs:.3} }}{comma}\n"
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"detail\": {\n");
    json.push_str(&format!(
        "    \"accesses\": {detail_accesses},\n    \"accesses_per_sec\": {detail_rate:.0}"
    ));
    if let Some(base) = detail_base {
        json.push_str(&format!(
            ",\n    \"baseline_accesses_per_sec\": {base:.0},\n    \"speedup_vs_baseline\": {:.2}",
            detail_rate / base
        ));
        eprintln!("detail speedup vs baseline: {:.2}x", detail_rate / base);
    }
    json.push_str("\n  },\n");
    json.push_str("  \"analytic\": {\n");
    json.push_str(&format!(
        "    \"intervals\": {analytic_intervals},\n    \"intervals_per_sec\": {analytic_rate:.0}"
    ));
    for fig in ["fig13", "fig14"] {
        if let Some((_, secs)) = rows.iter().find(|(name, _)| name == fig) {
            json.push_str(&format!(",\n    \"{fig}_seconds\": {secs:.3}"));
        }
    }
    if let Some(base) = analytic_base {
        json.push_str(&format!(
            ",\n    \"baseline_intervals_per_sec\": {base:.0},\n    \"speedup_vs_baseline\": {:.2}",
            analytic_rate / base
        ));
        eprintln!("analytic speedup vs baseline: {:.2}x", analytic_rate / base);
    }
    json.push_str("\n  },\n");
    json.push_str("  \"suite\": {\n");
    json.push_str(&format!(
        "    \"seconds\": {suite_secs:.3},\n    \"standalone_total_seconds\": {total:.3},\n    \
         \"speedup_vs_standalone\": {:.2},\n    \"dedup_cells_computed\": {cells_computed},\n    \
         \"dedup_cells_reused\": {cells_reused},\n    \"dedup_reuse_rate\": {reuse_rate:.4}\n",
        total / suite_secs
    ));
    json.push_str("  },\n");
    json.push_str("  \"sched\": {\n");
    json.push_str(&format!(
        "    \"threads\": {},\n    \"seconds\": {:.3},\n    \
         \"sequential_seconds\": {:.3},\n    \"speedup_vs_sequential\": {:.2},\n    \
         \"planned_runs\": {},\n    \"nodes\": {},\n    \"edges\": {},\n    \
         \"steals\": {},\n    \"critical_path_us\": {},\n    \"elapsed_us\": {}\n",
        sched.threads,
        sched.seconds,
        sched.sequential_seconds,
        sched.sequential_seconds / sched.seconds,
        sched.planned_runs,
        sched.nodes,
        sched.edges,
        sched.steals,
        sched.critical_path_us,
        sched.elapsed_us
    ));
    json.push_str("  },\n");
    json.push_str("  \"disk_cache\": {\n");
    json.push_str(&format!(
        "    \"cold_seconds\": {:.3},\n    \"warm_seconds\": {:.3},\n    \
         \"speedup_warm_vs_cold\": {:.2},\n    \"entries_written\": {},\n    \
         \"warm_disk_hits\": {}\n",
        disk.cold_seconds,
        disk.warm_seconds,
        disk.cold_seconds / disk.warm_seconds,
        disk.entries_written,
        disk.warm_hits
    ));
    json.push_str("  },\n");
    json.push_str("  \"detail_cache\": {\n");
    json.push_str(&format!(
        "    \"figures\": \"{}\",\n    \"accesses\": {DETAIL_CACHE_ACCESSES},\n    \
         \"cold_seconds\": {:.3},\n    \"warm_seconds\": {:.3},\n    \
         \"speedup_warm_vs_cold\": {:.2},\n    \"entries_written\": {},\n    \
         \"warm_detail_hits\": {}\n",
        DETAIL_FIGURES.join(","),
        detail_cache.cold_seconds,
        detail_cache.warm_seconds,
        detail_cache.cold_seconds / detail_cache.warm_seconds,
        detail_cache.entries_written,
        detail_cache.warm_hits
    ));
    json.push_str("  },\n");
    json.push_str(&format!("  \"total_seconds\": {total:.3}"));
    if let Some(base_total) = baseline {
        json.push_str(&format!(
            ",\n  \"baseline_total_seconds\": {base_total:.3},\n  \"speedup_vs_baseline\": {:.2}",
            base_total / total
        ));
        eprintln!("speedup vs baseline: {:.2}x", base_total / total);
    }
    json.push_str("\n}\n");

    let out_path = out_dir.join("BENCH_suite.json");
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
    f.write_all(json.as_bytes()).expect("write suite report");
    eprintln!("wrote {}", out_path.display());
}

/// Pulls one numeric field out of a baseline report.
///
/// The file is our own schema, so a full JSON parser would be overkill
/// (and the container bakes in no JSON crate): scan for the key and parse
/// the number after the colon.
fn read_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == ' ' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
