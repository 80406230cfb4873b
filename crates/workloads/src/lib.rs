//! Synthetic application models: SPEC-CPU2006-like batch profiles and
//! TailBench-like latency-critical profiles.
//!
//! The paper evaluates on real SPEC CPU2006 binaries and TailBench servers
//! under ZSim. We cannot run those binaries, but every allocation/placement
//! algorithm in the paper consumes only three things per application:
//!
//! 1. a **miss curve** (LLC misses vs. allocated capacity),
//! 2. an **access intensity** (LLC accesses per kilo-instruction), and
//! 3. for latency-critical apps, a **request model** (arrival rate and
//!    cache-dependent service time).
//!
//! This crate supplies synthetic versions of all three, with per-app
//! parameters chosen to match the published cache behaviour of the same
//! workloads (working-set sizes, streaming vs. cache-friendly, MPKI
//! ranges). See `DESIGN.md` §2 for the substitution argument.
//!
//! # Examples
//!
//! ```
//! use nuca_workloads::{spec2006, tailbench};
//!
//! let batch = spec2006();
//! assert_eq!(batch.len(), 16);
//! let mcf = batch.iter().find(|p| p.name == "429.mcf").unwrap();
//! let curve = mcf.miss_ratio_curve(32 * 1024, 640); // 0..20 MB in way units
//! assert!(curve.at(640) < curve.at(0), "mcf benefits from cache");
//!
//! let lc = tailbench();
//! assert_eq!(lc.len(), 5);
//! assert_eq!(lc[1].name, "xapian");
//! ```

#![warn(missing_docs)]

mod batch;
pub mod curves;
mod latency;
mod layout;
mod mix;
mod reqgen;
mod streams;

pub use batch::{spec2006, BatchProfile};
pub use curves::CurveShape;
pub use latency::{tailbench, LcLoad, LcProfile};
pub use layout::{quadrant_layout, serpentine_layout, VmPlacement};
pub use mix::{case_study_mix, fig17_configs, random_batch_mix, VmWorkload, WorkloadMix};
pub use reqgen::RequestGenerator;
pub use streams::StreamGenerator;

/// One megabyte, the capacity of one LLC bank in the paper.
pub const MB: u64 = 1024 * 1024;
