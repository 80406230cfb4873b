//! Fingerprints the sources every stored cell is computed by, so a store
//! written by other simulator code misses instead of serving stale cells.
//!
//! The fingerprint covers the `.rs` files of the result-feeding crates
//! (the simulator, its substrate, the workload models and the random
//! number shim that draws mixes and request streams) plus the bench
//! files that compute and encode cells. It reaches the crate as
//! `NUCA_SOURCE_SALT` (read with `env!`), and `DiskCache` mixes it into
//! every entry's file name. The script has no dependencies: it walks the
//! directories itself and hashes with 64-bit FNV-1a.
//!
//! Whole files are hashed, unit-test modules and comments included: an
//! edit to a test or a doc line in a salted file also makes every stored
//! cell miss once. That errs towards recomputing, never towards serving
//! a stale cell.

use std::fs;
use std::path::{Path, PathBuf};

/// Source directories of the crates whose code decides a cell's value,
/// relative to this crate.
const CRATE_DIRS: &[&str] = &[
    "../types/src",
    "../cache/src",
    "../noc/src",
    "../mem/src",
    "../vc/src",
    "../umon/src",
    "../workloads/src",
    "../core/src",
    "../sim/src",
    "../attacks/src",
    "../rand_shim/src",
];

/// This crate's files that compute, key or encode cells.
const BENCH_FILES: &[&str] = &["src/scenario.rs", "src/disk_cache.rs", "src/cell_cache.rs"];

/// Appends every `.rs` file under `dir` to `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// 64-bit FNV-1a, folded over successive byte strings.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

fn main() {
    let mut files: Vec<PathBuf> = BENCH_FILES.iter().map(PathBuf::from).collect();
    for dir in CRATE_DIRS {
        println!("cargo:rerun-if-changed={dir}");
        collect_rs(Path::new(dir), &mut files);
    }
    for file in BENCH_FILES {
        println!("cargo:rerun-if-changed={file}");
    }
    // Sorted, '/'-separated paths: the salt depends on the sources only,
    // not on directory order or the host's path syntax.
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| (p.to_string_lossy().replace('\\', "/"), p))
        .collect();
    named.sort();
    let mut h = 0xCBF2_9CE4_8422_2325;
    for (name, path) in &named {
        let text = fs::read(path).unwrap_or_else(|e| panic!("read {name}: {e}"));
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, &(text.len() as u64).to_le_bytes());
        h = fnv1a(h, &text);
    }
    println!("cargo:rustc-env=NUCA_SOURCE_SALT={h:016x}");
}
