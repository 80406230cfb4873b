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
//! - `--mixes` / `--seed` / `--accesses` — forwarded to every figure
//!   (each overrides the per-figure default; see [`jumanji_bench::spec`]).
//! - `--threads N` — the scheduler's worker count (default: available
//!   parallelism); `--threads 1` is the serial reference.
//! - `--trace PATH` — one shared JSONL sink for the whole suite; each
//!   unique cell's event stream is emitted exactly once.
//! - `--no-cache` — run against a throwaway memory-only cache: no store
//!   is read or written, not even one `--cache-dir` names.
//! - `--cache-dir DIR` — back the cache with a persistent store:
//!   completed cells of every kind — analytic runs, detailed-simulator
//!   reports and fixed scenarios — are read from and written to `DIR`,
//!   so a second run starts warm.
//! - `--cache-cap-bytes N` — bound the persistent store: oldest cells
//!   are evicted first once the store exceeds `N` bytes (0 = unbounded,
//!   the default).
//!
//! The command line is the only configuration surface: `suite` reads no
//! environment variable. Value flags take `--flag value` or
//! `--flag=value`; any argument not listed above is a usage error.
//!
//! Per-figure timing lines go to stderr; usage errors exit 2, runtime
//! errors (including a cell that failed to compute) exit 1, and no
//! figure needing a failed cell is written.

use jumanji::telemetry::{Event, JsonlSink, NoopSink, Telemetry};
use jumanji::types::{Error, MapStats};
use jumanji_bench::cell_cache::{attach_global_disk, CellCache, CellCacheStats, CellKind};
use jumanji_bench::exec::available_threads;
use jumanji_bench::spec::{flag_text, parse_flag};
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

/// Every flag `suite` takes a value for; `--no-cache` is its one bare
/// flag.
const VALUE_FLAGS: [&str; 10] = [
    "--figures",
    "--out",
    "--stats",
    "--mixes",
    "--threads",
    "--seed",
    "--accesses",
    "--trace",
    "--cache-dir",
    "--cache-cap-bytes",
];

/// Rejects any argument that is not one of `suite`'s flags (or a value
/// flag's value), naming it. A value flag followed by another `--flag`
/// leaves that flag to be checked in turn; [`flag_text`] reports the
/// missing value.
fn check_args(args: &[String]) -> Result<(), Error> {
    let mut rest = args.iter().skip(1).peekable();
    while let Some(arg) = rest.next() {
        let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
        if arg == "--no-cache" || (name != arg && VALUE_FLAGS.contains(&name)) {
            continue;
        }
        if !VALUE_FLAGS.contains(&arg.as_str()) {
            return Err(Error::flag(arg, "unknown argument"));
        }
        rest.next_if(|v| !v.starts_with("--"));
    }
    Ok(())
}

/// The figures to run: `--figures a,b,c` with `all` as shorthand for
/// the full 18-figure sweep (also the default). Repeated names are
/// deduplicated silently — the work graph would dedupe their cells
/// anyway, and rendering the same figure twice in one suite is never
/// what the caller meant.
fn parse_figures(args: &[String]) -> Result<Vec<FigureKind>, Error> {
    let Some(list) = flag_text(args, "--figures")? else {
        return Ok(FigureKind::all().to_vec());
    };
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

/// Each cell kind's `--stats` fields, in `CellKind` order: planned
/// lookups, unique nodes, nodes computed, nodes served from disk.
const KIND_FIELDS: [&str; 3] = [
    "planned_runs run_nodes computed_runs disk_run_hits",
    "planned_details detail_nodes detail_computed detail_disk_hits",
    "planned_scenarios scenario_nodes scenario_computed scenario_disk_hits",
];

/// The cache's maps, under the names `--stats` and the trace use.
fn maps(stats: &CellCacheStats) -> [(&'static str, MapStats); 2] {
    [("cells", stats.cells), ("hulls", stats.hulls)]
}

fn write_stats(
    path: &PathBuf,
    reports: &[FigureReport],
    total_seconds: f64,
    stats: &CellCacheStats,
    s: &SchedReport,
) -> std::io::Result<()> {
    let mut f = BufWriter::new(std::fs::File::create(path)?);
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
    writeln!(f, "  \"cells_computed\": {},", s.computed())?;
    writeln!(f, "  \"cells_reused\": {},", s.reused())?;
    writeln!(f, "  \"cell_reuse_rate\": {:.4},", s.reuse_rate())?;
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
    writeln!(f, "    \"workers\": {},", s.graph.workers)?;
    writeln!(f, "    \"critical_path_us\": {},", s.graph.critical_path_us)?;
    writeln!(f, "    \"elapsed_us\": {}", s.graph.elapsed_us)?;
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
    check_args(args)?;
    let figures = parse_figures(args)?;
    let out_dir = flag_text(args, "--out")?.map(PathBuf::from);
    let stats_path = flag_text(args, "--stats")?.map(PathBuf::from);
    let threads = parse_flag(args, "--threads")?
        .unwrap_or_else(available_threads)
        .max(1);
    let trace = flag_text(args, "--trace")?.map(PathBuf::from);
    let cache_dir = flag_text(args, "--cache-dir")?.map(PathBuf::from);
    let cache_cap = parse_flag(args, "--cache-cap-bytes")?.unwrap_or(0);
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let specs = figures
        .iter()
        .map(|&kind| ExperimentSpec::from_args(kind, args))
        .collect::<Result<Vec<_>, Error>>()?;
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)?;
    }
    // One sink serves the whole suite, so figures never truncate each
    // other's streams.
    let sink = match &trace {
        Some(path) => Some(JsonlSink::create(path)?),
        None => None,
    };
    let tel: &dyn Telemetry = match &sink {
        Some(s) => s,
        None => &NoopSink,
    };
    let fresh;
    let cache = if no_cache {
        fresh = CellCache::new();
        &fresh
    } else {
        if let Some(dir) = &cache_dir {
            attach_global_disk(dir, cache_cap);
        }
        CellCache::global()
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
    let summary = run_suite(&specs, threads, cache, tel, &mut emit)?;
    let total_seconds = summary.total_seconds;
    let stats = summary.cache;
    let s = &summary.sched;

    eprintln!(
        "[suite] total {:.2}s; cells: {} computed, {} reused ({:.1}% reuse); \
         hulls: {} computed, {} reused",
        total_seconds,
        s.computed(),
        s.reused(),
        100.0 * s.reuse_rate(),
        stats.hulls.misses,
        stats.hulls.hits
    );
    let (runs, details, scenarios) = (
        s.cells(CellKind::Run),
        s.cells(CellKind::Detail),
        s.cells(CellKind::Scenario),
    );
    eprintln!(
        "[suite] sched: {} nodes ({} planned runs -> {} unique, {} planned detail cells -> \
         {} unique, {} scenarios), {} workers, critical path {:.2}s of {:.2}s",
        s.nodes,
        runs.planned,
        runs.nodes,
        details.planned,
        details.nodes,
        scenarios.nodes,
        s.graph.workers,
        s.graph.critical_path_us as f64 / 1e6,
        s.graph.elapsed_us as f64 / 1e6
    );
    if stats.disk.is_some() {
        for (c, what) in s
            .kinds
            .iter()
            .zip(["runs", "detail cells", "scenario cells"])
        {
            let (computed, served) = (c.computed, c.disk_hits);
            eprintln!("[suite] sched: {computed} {what} computed, {served} served from disk");
        }
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
