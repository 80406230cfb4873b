//! Common identifiers, topology, time, and system configuration shared by the
//! Jumanji NUCA simulation stack.
//!
//! This crate defines the vocabulary of the whole workspace:
//!
//! - Strongly typed identifiers for hardware and software entities
//!   ([`CoreId`], [`BankId`], [`AppId`], [`VmId`], [`PageId`]).
//! - The on-chip [`Mesh`] topology with X-Y routing distances
//!   ([`topology`]).
//! - Cycle-based time types ([`time`]).
//! - The system configuration of the paper's evaluation platform
//!   ([`SystemConfig::micro2020`], Table II of the paper).
//!
//! # Examples
//!
//! ```
//! use nuca_types::{SystemConfig, BankId, CoreId};
//!
//! let cfg = SystemConfig::micro2020();
//! assert_eq!(cfg.num_cores, 20);
//! assert_eq!(cfg.llc.num_banks, 20);
//!
//! // Cores and banks are colocated on tiles of a 5x4 mesh.
//! let hops = cfg.mesh().hops_core_to_bank(CoreId(0), BankId(19));
//! assert_eq!(hops, 7); // corner to opposite corner on a 5x4 mesh
//! ```

#![warn(missing_docs)]

pub mod codec;
mod config;
pub mod error;
pub mod hash;
mod ids;
pub mod shard;
pub mod time;
pub mod topology;

pub use config::{CacheLevelConfig, EnergyConfig, LlcConfig, MemConfig, NocConfig, SystemConfig};
pub use error::{ConfigError, Error};
pub use ids::{AppId, BankId, CoreId, PageId, VmId, WayCount};
pub use shard::{MapStats, ShardedMap};
pub use time::{Cycles, Seconds};
pub use topology::{Mesh, TileCoord};
