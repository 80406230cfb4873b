//! Re-attaching the store already attached to the process-wide cell
//! cache keeps that store but applies the new size cap, so a second
//! suite run in one process with a different `cache_cap_bytes` evicts
//! down to it.
//!
//! Attaching a store to the process-wide cache cannot be undone, so this
//! file is its own test binary.

use jumanji_bench::cell_cache::{attach_global_disk, CellCache};
use std::path::PathBuf;
use std::time::{Duration, UNIX_EPOCH};

const ENTRY_BYTES: usize = 100;

#[test]
fn reattaching_the_same_store_applies_the_new_cap() {
    let dir = std::env::temp_dir().join(format!("jumanji-reattach-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    attach_global_disk(&dir, 0);
    let disk = CellCache::global().disk().expect("store attached");
    assert_eq!(disk.cap_bytes(), 0);

    // Four run entries, oldest first.
    let entries: Vec<PathBuf> = (0..4u128)
        .map(|key| dir.join("runs").join(format!("{key:032x}.bin")))
        .collect();
    for (i, path) in entries.iter().enumerate() {
        std::fs::write(path, [0u8; ENTRY_BYTES]).expect("write entry");
        let f = std::fs::File::options()
            .write(true)
            .open(path)
            .expect("open entry");
        f.set_modified(UNIX_EPOCH + Duration::from_secs(1_000_000 + 10 * i as u64))
            .expect("set mtime");
    }

    // Room for two and a half entries: the two oldest go.
    let cap = (ENTRY_BYTES * 5 / 2) as u64;
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
