//! Re-attaching the store already attached to the process-wide cell
//! cache keeps that store but applies the new size cap, so a second
//! suite run in one process with a different `cache_cap_bytes` evicts
//! down to it.
//!
//! Attaching a store to the process-wide cache cannot be undone, so this
//! file is its own test binary.

use jumanji::sim::detail::DetailReport;
use jumanji_bench::cell_cache::{attach_global_disk, CellCache};
use jumanji_bench::DiskCache;
use std::path::PathBuf;

#[test]
fn reattaching_the_same_store_applies_the_new_cap() {
    let dir = std::env::temp_dir().join(format!("jumanji-reattach-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    attach_global_disk(&dir, 0);
    let disk = CellCache::global().disk().expect("store attached");
    assert_eq!(disk.cap_bytes(), 0);

    // Four segments of one entry each, oldest first, each written by its
    // own handle (a stand-in for its own process).
    let report = DetailReport {
        apps: Vec::new(),
        bank_occupants: Vec::new(),
    };
    let entries: Vec<PathBuf> = (0..4u128)
        .map(|key| {
            let writer = DiskCache::open(&dir).expect("open store");
            writer.store_detail(key, &report);
            writer.segment().to_path_buf()
        })
        .collect();
    let entry_bytes = std::fs::metadata(&entries[0]).expect("segment").len();

    // Room for two and a half entries: the two oldest go.
    let cap = entry_bytes * 5 / 2;
    attach_global_disk(&dir, cap);
    let again = CellCache::global().disk().expect("store attached");
    assert!(
        std::sync::Arc::ptr_eq(&disk, &again),
        "the attached store is kept"
    );
    assert_eq!(again.cap_bytes(), cap);
    let kept: Vec<bool> = entries.iter().map(|p| p.exists()).collect();
    assert_eq!(kept, [false, false, true, true], "oldest entries evicted");
    assert_eq!(again.stats().evictions, 2);
    let _ = std::fs::remove_dir_all(&dir);
}
