//! The executor's contract with the process-wide cell cache:
//!
//! - a render is a pure fold: re-rendering every figure from the
//!   executor's results leaves the cache's counters untouched, and
//!   reproduces the executor's bytes;
//! - a run against a throwaway [`CellCache::new`] leaves the
//!   process-wide cache's own maps untouched (the simulator's ratio-hull
//!   memo, which `stats()` also reports, serves every cache alike), and
//!   renders the bytes the process-wide cache does;
//! - figure code cannot reach either: no line of `src/figures/` outside
//!   its test modules names the cell cache or a simulator entry point.
//!
//! The first two read the process-wide cache's counters, so this file is
//! its own test binary (no other test shares the cache) and one lock
//! keeps them apart. The cheap figures always run; the full-matrix and
//! attack figures are gated behind `JUMANJI_SUITE_GOLDEN=1` —
//! `scripts/verify.sh` sets it.

#![allow(
    clippy::disallowed_methods,
    reason = "test gates read their own opt-in env switches; never fingerprinted output"
)]

use jumanji::telemetry::NoopSink;
use jumanji_bench::cell_cache::CellCache;
use jumanji_bench::figures;
use jumanji_bench::suite::run_suite;
use jumanji_bench::{ExperimentSpec, FigureKind};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

/// Holds the test lock, even after the other test failed holding it.
fn exclusive() -> MutexGuard<'static, ()> {
    GLOBAL_CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A spec cheap enough for a debug build: two mixes, short detailed runs.
fn quick(kind: FigureKind) -> ExperimentSpec {
    ExperimentSpec::new(kind).mixes(2).accesses(4_000)
}

#[test]
fn renders_fold_results_without_touching_the_cache() {
    let _lock = exclusive();
    let mut kinds = vec![
        FigureKind::Fig02,
        FigureKind::Fig04,
        FigureKind::Fig05,
        FigureKind::Fig08,
        FigureKind::Fig09,
        FigureKind::Fig17,
        FigureKind::Fig18,
        FigureKind::Table2,
        FigureKind::Table3,
        FigureKind::Ablation,
        FigureKind::Validate,
    ];
    if std::env::var_os("JUMANJI_SUITE_GOLDEN").is_some() {
        kinds.extend([
            FigureKind::Fig11,
            FigureKind::Fig12,
            FigureKind::Fig13,
            FigureKind::Fig14,
            FigureKind::Fig15,
            FigureKind::Fig16,
            FigureKind::Sensitivity,
        ]);
    } else {
        eprintln!("set JUMANJI_SUITE_GOLDEN=1 to cover every figure");
    }
    let cache = CellCache::global();
    for kind in kinds {
        // One figure per call: when its emit runs, every node of the
        // graph has finished, so only the render can move the counters.
        let spec = quick(kind);
        run_suite(
            std::slice::from_ref(&spec),
            2,
            cache,
            &NoopSink,
            &mut |fig| {
                let before = cache.stats();
                let mut bytes = Vec::new();
                figures::render(&spec, &fig.plan, &fig.results, &mut bytes)?;
                assert_eq!(
                    cache.stats(),
                    before,
                    "{}: the render touched the cell cache",
                    kind.name()
                );
                assert_eq!(
                    bytes,
                    fig.bytes,
                    "{}: render is not a pure fold",
                    kind.name()
                );
                Ok(())
            },
        )
        .expect("suite runs");
    }
}

#[test]
fn a_throwaway_cache_leaves_the_global_cache_untouched() {
    let _lock = exclusive();
    // fig02 runs detailed cells; fig05 runs analytic cells.
    let kinds = [FigureKind::Fig02, FigureKind::Fig05];
    let specs: Vec<ExperimentSpec> = kinds.iter().map(|&k| quick(k)).collect();
    let own_maps = || {
        let s = CellCache::global().stats();
        (s.cells, s.disk)
    };
    let before = own_maps();
    let mut fresh = Vec::new();
    run_suite(&specs, 2, &CellCache::new(), &NoopSink, &mut |fig| {
        fresh.push(fig.bytes);
        Ok(())
    })
    .expect("suite runs");
    assert_eq!(
        own_maps(),
        before,
        "a throwaway-cache run touched the process-wide cache"
    );

    // Same bytes as the cached path.
    for (kind, fresh) in kinds.iter().zip(&fresh) {
        let mut cached = Vec::new();
        figures::emit(&quick(*kind), &NoopSink, &mut cached).expect("figure renders");
        assert_eq!(
            &cached,
            fresh,
            "{}: a throwaway cache changed the TSV",
            kind.name()
        );
    }
}

/// What figure code may not name: the cell cache and the simulators'
/// entry points. A render folds the results the executor hands it, and
/// the plan is a pure function of the spec; a cache or a simulator in
/// reach would let either compute or look up cells the plan never
/// listed.
const PLAN_BYPASS: &[&str] = &[
    "CellCache",
    "Experiment",
    "run_detailed",
    "LcQueue",
    "leakage_experiment",
    "run_port_attack",
    "isolation_tail_sweep",
];

/// Appends every `.rs` file under `dir` to `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("figures directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// True if `code` holds `name` as a whole identifier.
fn names(code: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name)
        .any(|(at, _)| !code[..at].ends_with(ident) && !code[at + name.len()..].starts_with(ident))
}

#[test]
fn figure_code_names_no_cache_or_simulator() {
    let mut files = Vec::new();
    collect_rs(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src/figures"),
        &mut files,
    );
    files.sort();
    assert!(!files.is_empty(), "no figure sources found");
    let mut found = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("figure source reads");
        // A file's test module is its last item (clippy rejects items
        // after a test module); everything above it is render or plan
        // code.
        let code = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        for (n, line) in code.enumerate() {
            let line = line.split("//").next().unwrap_or_default();
            for name in PLAN_BYPASS.iter().filter(|name| names(line, name)) {
                found.push(format!("{}:{}: `{name}`", path.display(), n + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "figure code names the cell cache or a simulator entry point; list the cell \
         in the figure's plan (the function beside its render in the figure's module \
         under `figures/`) and fold its result from the `FigureResults` the executor \
         passes the render:\n{}",
        found.join("\n")
    );
}
