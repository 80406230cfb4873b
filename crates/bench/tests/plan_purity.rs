//! The plan pass is a pure function of the spec: planning every figure,
//! with a store attached to the process-wide cell cache, moves none of
//! the cache's counters and writes nothing to the store.
//!
//! Attaching a store to the process-wide cache cannot be undone, so this
//! file is its own test binary.

use jumanji_bench::cell_cache::CellCache;
use jumanji_bench::disk_cache::DiskCache;
use jumanji_bench::figures::plan;
use jumanji_bench::{ExperimentSpec, FigureKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every path under `dir`, recursively, sorted.
fn tree(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read store dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path.clone());
            }
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn planning_every_figure_reads_and_writes_no_cache() {
    let store = std::env::temp_dir().join(format!("jumanji-plan-purity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let cache = CellCache::global();
    cache.attach_disk(Arc::new(DiskCache::open(&store).expect("open store")));
    let files = tree(&store);
    let before = cache.stats();
    for kind in FigureKind::all() {
        let spec = ExperimentSpec::new(kind).mixes(2);
        plan::of(&spec).expect("figure plans");
        assert_eq!(
            cache.stats(),
            before,
            "{}: planning touched the cell cache",
            kind.name()
        );
    }
    assert_eq!(tree(&store), files, "planning wrote to the store");
    let _ = std::fs::remove_dir_all(&store);
}
