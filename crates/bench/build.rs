//! Fingerprints what every stored cell is computed by, so a store
//! written by other simulator code, or by the same code built another
//! way, misses instead of serving stale cells.
//!
//! The fingerprint covers the `.rs` files of the result-feeding crates
//! (the simulator, its substrate, the workload models and the random
//! number shim that draws mixes and request streams) plus the bench
//! files that compute and encode cells. It also covers the build: the
//! compiler's `rustc -vV`, and Cargo's profile, optimization level,
//! target and flags, any of which can change a float's last bit. It
//! reaches the crate as `NUCA_SOURCE_SALT` (read with `env!`), and
//! `DiskCache` mixes it into every entry's file name. The script has no
//! dependencies: it walks the directories itself and hashes with 64-bit
//! FNV-1a (`build/salt.rs`).
//!
//! Whole files are hashed, unit-test modules and comments included: an
//! edit to a test or a doc line in a salted file also makes every stored
//! cell miss once. That errs towards recomputing, never towards serving
//! a stale cell.

#[path = "build/salt.rs"]
mod salt;

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// Cargo's variables that name the build besides the compiler.
const BUILD_VARS: &[&str] = &["PROFILE", "OPT_LEVEL", "TARGET", "CARGO_ENCODED_RUSTFLAGS"];

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

/// The salted sources as `(path, contents)`, sorted by '/'-separated
/// path: the salt depends on the sources only, not on directory order or
/// the host's path syntax.
fn sources() -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<PathBuf> = BENCH_FILES.iter().map(PathBuf::from).collect();
    for dir in CRATE_DIRS {
        println!("cargo:rerun-if-changed={dir}");
        collect_rs(Path::new(dir), &mut files);
    }
    for file in BENCH_FILES {
        println!("cargo:rerun-if-changed={file}");
    }
    let mut named: Vec<(String, Vec<u8>)> = files
        .into_iter()
        .map(|p| {
            let name = p.to_string_lossy().replace('\\', "/");
            let text = fs::read(&p).unwrap_or_else(|e| panic!("read {name}: {e}"));
            (name, text)
        })
        .collect();
    named.sort();
    named
}

/// The build as `(name, value)`: the compiler's `-vV` report, then each
/// of [`BUILD_VARS`].
#[allow(
    clippy::disallowed_methods,
    reason = "a build script's inputs arrive in Cargo's environment"
)]
fn build() -> Vec<(String, Vec<u8>)> {
    println!("cargo:rerun-if-env-changed=RUSTC");
    let rustc = env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let report = Command::new(&rustc)
        .arg("-vV")
        .output()
        .unwrap_or_else(|e| panic!("run {} -vV: {e}", rustc.to_string_lossy()));
    assert!(
        report.status.success(),
        "{} -vV failed",
        rustc.to_string_lossy()
    );
    let mut parts = vec![("rustc -vV".to_string(), report.stdout)];
    for var in BUILD_VARS {
        println!("cargo:rerun-if-env-changed={var}");
        let value = env::var_os(var).map(|v| v.into_encoded_bytes());
        parts.push((var.to_string(), value.unwrap_or_default()));
    }
    parts
}

fn main() {
    let parts = [sources(), build()].concat();
    let h = salt::fold(parts.iter().map(|(n, v)| (n.as_str(), v.as_slice())));
    println!("cargo:rustc-env=NUCA_SOURCE_SALT={h:016x}");
}
