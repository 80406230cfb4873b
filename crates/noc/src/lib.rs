//! Mesh network-on-chip model: X-Y routing latency, flit serialization,
//! queueing estimates, and an event-driven bank-port contention simulator.
//!
//! The NoC matters to the paper in two ways:
//!
//! - **Performance**: the average hop distance between a core and its data
//!   dominates LLC access latency, which is exactly what D-NUCA placement
//!   reduces ([`MeshNoc`]).
//! - **Security**: LLC banks have a limited number of ports, and queueing on
//!   a shared port is a timing side channel (the paper's LLC *port attack*,
//!   Sec. VI-B). [`BankPorts`] simulates that contention at cycle
//!   granularity and [`queueing`] provides the matching analytic
//!   load-latency model.
//!
//! # Examples
//!
//! ```
//! use nuca_noc::MeshNoc;
//! use nuca_types::{SystemConfig, CoreId, BankId};
//!
//! let cfg = SystemConfig::micro2020();
//! let noc = MeshNoc::new(&cfg);
//! // A local-bank access pays no network latency; a cross-chip access
//! // pays 7 hops each way plus data serialization.
//! let near = noc.llc_round_trip(CoreId(0), BankId(0));
//! let far = noc.llc_round_trip(CoreId(0), BankId(19));
//! assert!(far > near);
//! ```

#![warn(missing_docs)]

mod latency;
pub mod links;
mod port;
pub mod queueing;

pub use latency::MeshNoc;
pub use links::{LinkLoads, RouteTable};
pub use port::{BankPorts, PortStats};
