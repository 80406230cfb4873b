//! Epoch-based multicore simulator for the Jumanji evaluation.
//!
//! The simulator advances in 100 ms reconfiguration intervals (Sec. IV-B).
//! Each interval it:
//!
//! 1. builds a [`jumanji_core::PlacementInput`] from the application
//!    profiles (miss curves scaled by measured access rates — what the
//!    UMONs would report),
//! 2. asks the active [`jumanji_core::DesignKind`] for an allocation,
//! 3. evaluates the analytic performance model ([`perf`]): effective
//!    capacities (shared pools settle to their occupancy equilibrium),
//!    associativity penalties, NoC distances, port and memory-bandwidth
//!    queueing, giving each batch app an IPS and each latency-critical app
//!    a service time,
//! 4. runs the latency-critical request queues event-by-event
//!    ([`queueing`]), feeding completions to the feedback controllers, and
//! 5. accumulates metrics: tail latency, FIESTA-style weighted speedup
//!    vs. the Static baseline, port-attack vulnerability, and
//!    data-movement energy ([`metrics`], [`energy`]).
//!
//! # Examples
//!
//! ```no_run
//! use nuca_sim::{Experiment, SimOptions};
//! use nuca_workloads::{case_study_mix, LcLoad};
//! use jumanji_core::DesignKind;
//! use jumanji_telemetry::NoopSink;
//!
//! let mix = case_study_mix(1);
//! let exp = Experiment::new(mix, LcLoad::High, SimOptions::default());
//! let result = exp.run(DesignKind::Jumanji, &NoopSink);
//! println!("tail latency: {:?}", result.lc_tail_latency_ms);
//! ```

#![warn(missing_docs)]

pub mod deadline;
pub mod detail;
pub mod energy;
pub mod metrics;
pub mod perf;
pub mod queueing;
mod runner;

pub use runner::{
    compute_ratio_hull, exact_ratio_hull, export_ratio_hulls, ratio_hull_cache_stats,
    seed_ratio_hull, Experiment, ExperimentResult, IntervalRecord, SimApp, SimOptions,
};
