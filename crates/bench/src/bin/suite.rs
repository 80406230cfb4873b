//! The evaluation's one entry point: plans every requested figure,
//! unions the plans into one deduplicated work graph, executes it on
//! one long-pole-first ready queue, and streams each figure's TSV the
//! moment its last cell completes (see [`jumanji_bench::suite`]).
//!
//! fig13 and fig14 run the *same* experiment matrix and differ only in
//! rendering; the sensitivity study's default rows duplicate the
//! main-results cells; the ablation re-runs case-study seeds. The work
//! graph computes each unique cell exactly once, with byte-identical
//! TSVs at every thread count.
//!
//! Usage:
//!
//! ```text
//! suite [--figures all|fig13,fig14,…] [--out DIR] [--stats PATH]
//!       [--mixes N] [--threads N] [--seed N] [--accesses N]
//!       [--trace PATH] [--no-cache] [--cache-dir DIR]
//!       [--cache-cap-bytes N]
//! ```
//!
//! - `--figures` — comma-separated [`FigureKind`] names, or `all` for
//!   all 18 in figure order (also the default). Repeats are deduplicated
//!   silently.
//! - `--out DIR` — write each figure to `DIR/<name>.tsv` (created if
//!   missing) instead of concatenating everything to stdout.
//! - `--stats PATH` — write a JSON cache/scheduler statistics report.
//! - `--mixes` / `--threads` / `--seed` / `--accesses` — forwarded to
//!   every figure (CLI beats `JUMANJI_*` env beats the per-figure
//!   default; see [`jumanji_bench::spec`]). `--threads` also sets the
//!   scheduler's worker count; `--threads 1` is the serial reference.
//! - `--trace PATH` — one shared JSONL sink for the whole suite (also
//!   honours `JUMANJI_TRACE`); each unique cell's event stream is
//!   emitted exactly once.
//! - `--no-cache` — run against a throwaway memory-only cache: no store
//!   is read or written (also honours `JUMANJI_NO_CACHE`).
//! - `--cache-dir DIR` — back the cache with a persistent store (also
//!   honours `JUMANJI_CACHE_DIR`): completed cells of every kind —
//!   analytic runs, detailed-simulator reports and fixed scenarios — are
//!   read from and written to `DIR`, so a second run starts warm.
//! - `--cache-cap-bytes N` — bound the persistent store (also honours
//!   `JUMANJI_CACHE_CAP`): oldest cells are evicted first once the
//!   store exceeds `N` bytes (0 = unbounded, the default).
//!
//! Per-figure timing lines go to stderr; usage errors exit 2, runtime
//! errors (including a cell that failed to compute) exit 1, and no
//! figure needing a failed cell is written.

use jumanji::telemetry::{Event, JsonlSink, NoopSink, Telemetry};
use jumanji::types::{Error, MapStats};
use jumanji_bench::cell_cache::{persist_global_disk, CellCacheStats, CellKind};
use jumanji_bench::exec::flag_value;
use jumanji_bench::suite::{run_suite, SchedReport, SuiteFigure};
use jumanji_bench::{ExperimentSpec, FigureKind};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

/// One figure's render timing.
struct FigureReport {
    name: &'static str,
    seconds: f64,
}

/// The figures to run: `--figures a,b,c` with `all` as shorthand for
/// the full 18-figure sweep (also the default). Repeated names are
/// deduplicated silently — the work graph would dedupe their cells
/// anyway, and rendering the same figure twice in one suite is never
/// what the caller meant.
fn parse_figures(args: &[String]) -> Result<Vec<FigureKind>, Error> {
    let Some(list) = flag_value(args, "--figures") else {
        return Ok(FigureKind::all().to_vec());
    };
    if list.is_empty() {
        return Err(Error::flag("--figures", "expected a value"));
    }
    let mut out = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        if name == "all" {
            for kind in FigureKind::all() {
                if !out.contains(&kind) {
                    out.push(kind);
                }
            }
            continue;
        }
        let kind = FigureKind::from_name(name)
            .ok_or_else(|| Error::flag("--figures", format!("unknown figure `{name}`")))?;
        if !out.contains(&kind) {
            out.push(kind);
        }
    }
    Ok(out)
}

/// `(computed, reused)` cells of a run: cells the cache had to produce
/// (simulated or read from the store), and planned cells served by a
/// node another lookup already needed or by the cache's memory.
fn cells_of(stats: &CellCacheStats, sched: &SchedReport) -> (u64, u64) {
    let deduped: usize = sched.kinds.iter().map(|c| c.planned - c.nodes).sum();
    (stats.cells.misses, deduped as u64 + stats.cells.hits)
}

/// Each cell kind's `--stats` fields, in `CellKind` order: planned
/// lookups, unique nodes, nodes computed, nodes served from disk.
const KIND_FIELDS: [&str; 3] = [
    "planned_runs run_nodes computed_runs disk_run_hits",
    "planned_details detail_nodes detail_computed detail_disk_hits",
    "planned_scenarios scenario_nodes scenario_computed scenario_disk_hits",
];

/// The cache's maps, under the names `--stats` and the trace use.
fn maps(stats: &CellCacheStats) -> [(&'static str, MapStats); 3] {
    [
        ("cells", stats.cells),
        ("experiments", stats.experiments),
        ("hulls", stats.hulls),
    ]
}

fn write_stats(
    path: &PathBuf,
    reports: &[FigureReport],
    total_seconds: f64,
    stats: &CellCacheStats,
    s: &SchedReport,
) -> std::io::Result<()> {
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    let (computed, reused) = cells_of(stats, s);
    let lookups = computed + reused;
    let reuse_rate = if lookups == 0 {
        0.0
    } else {
        reused as f64 / lookups as f64
    };
    writeln!(f, "{{")?;
    writeln!(f, "  \"figures\": [")?;
    for (i, r) in reports.iter().enumerate() {
        writeln!(
            f,
            "    {{\"name\": \"{}\", \"seconds\": {:.3}}}{}",
            r.name,
            r.seconds,
            if i + 1 < reports.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"total_seconds\": {total_seconds:.3},")?;
    writeln!(f, "  \"cells_computed\": {computed},")?;
    writeln!(f, "  \"cells_reused\": {reused},")?;
    writeln!(f, "  \"cell_reuse_rate\": {reuse_rate:.4},")?;
    for (name, m) in maps(stats) {
        let (hits, misses, entries) = (m.hits, m.misses, m.entries);
        writeln!(
            f,
            "  \"{name}\": {{\"hits\": {hits}, \"misses\": {misses}, \"entries\": {entries}}},"
        )?;
    }
    let comma = if stats.disk.is_some() { "," } else { "" };
    writeln!(f, "  \"sched\": {{")?;
    for (names, c) in KIND_FIELDS.iter().zip(&s.kinds) {
        let values = [c.planned as u64, c.nodes as u64, c.computed, c.disk_hits];
        for (name, value) in names.split(' ').zip(values) {
            writeln!(f, "    \"{name}\": {value},")?;
        }
    }
    writeln!(f, "    \"nodes\": {},", s.nodes)?;
    writeln!(f, "    \"edges\": {},", s.edges)?;
    writeln!(f, "    \"workers\": {},", s.graph.workers)?;
    writeln!(f, "    \"critical_path_us\": {},", s.graph.critical_path_us)?;
    writeln!(f, "    \"elapsed_us\": {},", s.graph.elapsed_us)?;
    writeln!(f, "    \"warm_skipped_exps\": {},", s.warm_skipped_exps)?;
    writeln!(f, "    \"cost_drift\": [")?;
    for (i, d) in s.drift.iter().enumerate() {
        writeln!(
            f,
            "      {{\"design\": \"{}\", \"prior\": {:.3}, \"measured\": {:.3}, \
             \"samples\": {}}}{}",
            d.design,
            d.prior,
            d.measured,
            d.samples,
            if i + 1 < s.drift.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "    ]")?;
    writeln!(f, "  }}{comma}")?;
    if let Some(d) = &stats.disk {
        writeln!(f, "  \"disk_cache\": {{")?;
        writeln!(f, "    \"hits\": {},", d.hits)?;
        writeln!(f, "    \"misses\": {},", d.misses)?;
        writeln!(f, "    \"writes\": {},", d.writes)?;
        writeln!(f, "    \"evictions\": {},", d.evictions)?;
        writeln!(f, "    \"corrupt_dropped\": {}", d.corrupt_dropped)?;
        writeln!(f, "  }}")?;
    }
    writeln!(f, "}}")?;
    f.flush()
}

fn run(args: &[String]) -> Result<(), Error> {
    let figures = parse_figures(args)?;
    let out_dir = flag_value(args, "--out").map(PathBuf::from);
    let stats_path = flag_value(args, "--stats").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let specs = figures
        .iter()
        .map(|&kind| ExperimentSpec::from_args_env(kind))
        .collect::<Result<Vec<_>, Error>>()?;
    // Every spec resolves the same argv and environment, so the first
    // speaks for the run-wide knobs: pool size and trace file. One sink
    // serves the whole suite, so figures never truncate each other's
    // streams.
    let first = specs.first();
    let threads = first.map_or(1, |s| s.threads);
    let sink = match first.and_then(|s| s.trace.as_ref()) {
        Some(path) => Some(JsonlSink::create(path)?),
        None => None,
    };
    let tel: &dyn Telemetry = match &sink {
        Some(s) => s,
        None => &NoopSink,
    };

    let mut reports = Vec::with_capacity(specs.len());
    let mut emit = |fig: SuiteFigure| -> Result<(), Error> {
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.tsv", fig.kind.name()));
            std::fs::write(&path, &fig.bytes)?;
        } else {
            let stdout = std::io::stdout();
            stdout.lock().write_all(&fig.bytes)?;
        }
        eprintln!("[suite] {}: {:.2}s render", fig.kind.name(), fig.seconds);
        reports.push(FigureReport {
            name: fig.kind.name(),
            seconds: fig.seconds,
        });
        Ok(())
    };
    let summary = run_suite(&specs, threads, tel, &mut emit)?;
    let total_seconds = summary.total_seconds;
    let stats = summary.cache;
    let s = &summary.sched;

    let (computed, reused) = cells_of(&stats, s);
    let lookups = computed + reused;
    let reuse_pct = if lookups == 0 {
        0.0
    } else {
        100.0 * reused as f64 / lookups as f64
    };
    eprintln!(
        "[suite] total {:.2}s; cells: {} computed, {} reused ({:.1}% reuse); \
         hulls: {} computed, {} reused",
        total_seconds, computed, reused, reuse_pct, stats.hulls.misses, stats.hulls.hits
    );
    let (runs, details, scenarios) = (
        s.cells(CellKind::Run),
        s.cells(CellKind::Detail),
        s.cells(CellKind::Scenario),
    );
    eprintln!(
        "[suite] sched: {} nodes ({} planned runs -> {} unique, {} planned detail cells -> \
         {} unique, {} scenarios), {} edges, {} workers, critical path {:.2}s of {:.2}s",
        s.nodes,
        runs.planned,
        runs.nodes,
        details.planned,
        details.nodes,
        scenarios.nodes,
        s.edges,
        s.graph.workers,
        s.graph.critical_path_us as f64 / 1e6,
        s.graph.elapsed_us as f64 / 1e6
    );
    if stats.disk.is_some() {
        eprintln!(
            "[suite] sched: {} runs computed, {} served from disk, \
             {} experiment constructions skipped warm",
            runs.computed, runs.disk_hits, s.warm_skipped_exps
        );
        eprintln!(
            "[suite] sched: {} detail cells computed, {} served from disk",
            details.computed, details.disk_hits
        );
        eprintln!(
            "[suite] sched: {} scenario cells computed, {} served from disk",
            scenarios.computed, scenarios.disk_hits
        );
    }
    for d in &s.drift {
        eprintln!(
            "[suite] cost drift: {} prior {:.2} measured {:.2} ({} samples)",
            d.design, d.prior, d.measured, d.samples
        );
    }
    if let Some(d) = &stats.disk {
        eprintln!(
            "[suite] disk cache: {} hits, {} misses, {} writes, \
             {} evictions, {} corrupt dropped",
            d.hits, d.misses, d.writes, d.evictions, d.corrupt_dropped
        );
    }

    if let Some(sink) = &sink {
        for (scope, m) in maps(&stats) {
            sink.emit(&Event::CacheStats {
                scope,
                hits: m.hits,
                misses: m.misses,
                entries: m.entries,
            });
        }
        if let Some(d) = &stats.disk {
            sink.emit(&Event::DiskCacheStats {
                hits: d.hits,
                misses: d.misses,
                writes: d.writes,
                evictions: d.evictions,
                corrupt_dropped: d.corrupt_dropped,
            });
        }
        sink.flush()?;
    }
    if let Some(path) = &stats_path {
        write_stats(path, &reports, total_seconds, &stats, s)?;
    }
    persist_global_disk();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(if e.is_usage() { 2 } else { 1 })
        }
    }
}
