//! # Jumanji: Dynamic NUCA for tail latency and security
//!
//! A from-scratch Rust reproduction of *"Jumanji: The Case for Dynamic
//! NUCA in the Datacenter"* (Schwedock & Beckmann, MICRO 2020): the
//! Jumanji data-placement policy, the prior LLC designs it is compared
//! against, and the entire simulation substrate the paper's evaluation
//! rests on — set-associative cache banks with DRRIP set-dueling, a mesh
//! NoC with port contention, memory controllers, utility monitors,
//! virtual-cache placement hardware, synthetic SPEC/TailBench workload
//! models, and an epoch-based multicore simulator.
//!
//! ## Quickstart
//!
//! ```no_run
//! use jumanji::prelude::*;
//!
//! // The paper's case study: 4 VMs, each one xapian + four batch apps.
//! let mix = case_study_mix(1);
//! let exp = Experiment::new(mix, LcLoad::High, SimOptions::default());
//!
//! let baseline = exp.run(DesignKind::Static, &NoopSink);
//! let jumanji = exp.run(DesignKind::Jumanji, &NoopSink);
//!
//! println!("tail latency (ms): {:?}", jumanji.lc_tail_latency_ms);
//! println!("deadline met: {}", jumanji.max_norm_tail() <= 1.0);
//! println!(
//!     "batch speedup vs Static: {:.2}%",
//!     (jumanji.weighted_speedup_vs(&baseline) - 1.0) * 100.0
//! );
//! println!("potential attackers/access: {}", jumanji.vulnerability);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | ids, mesh topology, Table II system config |
//! | [`cache`] | cache banks, replacement (LRU/RRIP/DRRIP), way masks, miss curves |
//! | [`noc`] | mesh latency, flit serialization, bank-port contention |
//! | [`mem`] | corner memory controllers, bandwidth partitioning |
//! | [`umon`] | sampled utility monitors |
//! | [`vc`] | virtual caches, placement descriptors, VTB |
//! | [`workloads`] | synthetic SPEC-like & TailBench-like app models |
//! | [`core`] | **the paper's algorithms**: controller, LatCritPlacer, Lookahead, Jigsaw, JumanjiPlacer, designs |
//! | [`sim`] | epoch simulator, queueing, metrics, energy |
//! | [`attacks`] | port attack, conflict attack, set-dueling leakage |
//! | [`telemetry`] | zero-cost-when-disabled tracing sinks and JSONL events |

#![warn(missing_docs)]

pub use jumanji_core as core;
pub use jumanji_telemetry as telemetry;
pub use nuca_attacks as attacks;
pub use nuca_cache as cache;
pub use nuca_mem as mem;
pub use nuca_noc as noc;
pub use nuca_sim as sim;
pub use nuca_types as types;
pub use nuca_umon as umon;
pub use nuca_vc as vc;
pub use nuca_workloads as workloads;

/// The most common imports for running experiments.
pub mod prelude {
    pub use jumanji_core::{
        Allocation, AppKind, AppModel, ControllerParams, DesignKind, FeedbackController,
        PlacementInput,
    };
    pub use jumanji_telemetry::{Event, JsonlSink, NoopSink, RecordingSink, Telemetry};
    pub use nuca_sim::{Experiment, ExperimentResult, SimOptions};
    pub use nuca_types::{AppId, BankId, CoreId, Seconds, SystemConfig, VmId};
    pub use nuca_workloads::{
        case_study_mix, fig17_configs, spec2006, tailbench, LcLoad, WorkloadMix,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_the_stack() {
        use crate::prelude::*;
        let cfg = SystemConfig::micro2020();
        let input = PlacementInput::example(&cfg);
        let alloc = DesignKind::Jumanji.allocate(&input);
        assert!(alloc.vm_isolated(&input));
    }
}
