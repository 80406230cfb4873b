//! The executor's contract with the process-wide cell cache:
//!
//! - a render is a pure fold: re-rendering every figure from the
//!   executor's results leaves the cache's counters untouched, and
//!   reproduces the executor's bytes;
//! - a `no_cache` spec runs against a throwaway cache: the process-wide
//!   cache's own maps and the store the spec names stay untouched (the
//!   simulator's ratio-hull memo, which `stats()` also reports, serves
//!   every cache alike).
//!
//! Both read the process-wide cache's counters, so this file is its own
//! test binary (no other test shares the cache) and one lock keeps its
//! two tests apart. The cheap figures always run; the full-matrix and
//! attack figures are gated behind `JUMANJI_SUITE_GOLDEN=1` —
//! `scripts/verify.sh` sets it.

// Test gates read their own opt-in env switches; never fingerprinted output.
#![allow(clippy::disallowed_methods)]

use jumanji::telemetry::NoopSink;
use jumanji_bench::cell_cache::CellCache;
use jumanji_bench::figures;
use jumanji_bench::suite::run_suite;
use jumanji_bench::{ExperimentSpec, FigureKind};
use std::sync::{Mutex, MutexGuard, PoisonError};

static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

/// Holds the test lock, even after the other test failed holding it.
fn exclusive() -> MutexGuard<'static, ()> {
    GLOBAL_CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A spec cheap enough for a debug build: two mixes, short detailed runs.
fn quick(kind: FigureKind) -> ExperimentSpec {
    ExperimentSpec::new(kind)
        .mixes(2)
        .threads(2)
        .accesses(4_000)
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
        run_suite(std::slice::from_ref(&spec), 2, &NoopSink, &mut |fig| {
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
        })
        .expect("suite runs");
    }
}

#[test]
fn no_cache_specs_leave_the_global_cache_and_store_untouched() {
    let _lock = exclusive();
    let store = std::env::temp_dir().join(format!("jumanji-no-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    // fig02 runs detailed cells; fig05 runs analytic cells.
    let kinds = [FigureKind::Fig02, FigureKind::Fig05];
    let specs: Vec<ExperimentSpec> = kinds
        .iter()
        .map(|&k| quick(k).cache_dir(&store).no_cache())
        .collect();
    let own_maps = || {
        let s = CellCache::global().stats();
        (s.cells, s.disk)
    };
    let before = own_maps();
    let mut fresh = Vec::new();
    run_suite(&specs, 2, &NoopSink, &mut |fig| {
        fresh.push(fig.bytes);
        Ok(())
    })
    .expect("suite runs");
    assert_eq!(
        own_maps(),
        before,
        "a no_cache run touched the process-wide cache"
    );
    assert!(!store.exists(), "--no-cache must ignore the store");

    // Same bytes as the cached path.
    for (kind, fresh) in kinds.iter().zip(&fresh) {
        let mut cached = Vec::new();
        figures::emit(&quick(*kind), &NoopSink, &mut cached).expect("figure renders");
        assert_eq!(
            &cached,
            fresh,
            "{}: --no-cache changed the TSV",
            kind.name()
        );
    }
}
