//! Set-associative cache banks, replacement policies, way-partitioning, and
//! miss-curve models for the Jumanji NUCA stack.
//!
//! This crate provides both of the cache abstractions the simulator needs:
//!
//! 1. **Detailed structures** — a real set-associative [`CacheBank`] with
//!    line-granularity state, pluggable replacement ([`ReplPolicy`]: LRU,
//!    SRRIP, BRRIP, and DRRIP with per-bank set-dueling), and Intel-CAT-style
//!    way-partitioning via [`WayMask`]s. These are used by the attack
//!    demonstrations (port attack, performance leakage) and to validate the
//!    analytic models.
//! 2. **Analytic models** — [`MissCurve`]s (misses as a function of
//!    allocated capacity), their convex hulls (the Talus approximation of
//!    DRRIP used by the paper, Sec. IV-A), optimal convex combining (the
//!    Whirlpool-style VM-combined curve), and an [`analytic`] sharing /
//!    associativity model used by the epoch-based performance simulator.
//!
//! # Examples
//!
//! ```
//! use nuca_cache::{CacheBank, BankConfig, ReplPolicy, PartitionId};
//!
//! let mut bank = CacheBank::new(BankConfig {
//!     sets: 64,
//!     ways: 8,
//!     policy: ReplPolicy::Lru,
//! });
//! let part = PartitionId(0);
//! assert!(!bank.access(0x1000, part).hit); // cold miss
//! assert!(bank.access(0x1000, part).hit); // now resident
//! ```

#![warn(missing_docs)]

pub mod analytic;
mod bank;
mod misscurve;
mod replacement;
mod stack;

pub use bank::{AccessOutcome, BankConfig, BankStats, CacheBank, PartitionId, WayMask};
pub use misscurve::MissCurve;
pub use replacement::ReplPolicy;
pub use stack::StackProfiler;

/// A full physical address (byte-granular).
pub type Addr = u64;

/// A cache-line address: the physical address with the line offset stripped.
pub type LineAddr = u64;

/// Strips the byte offset within a 64 B line from an address.
///
/// # Examples
///
/// ```
/// use nuca_cache::line_of;
/// assert_eq!(line_of(0x1040), 0x41);
/// assert_eq!(line_of(0x107f), 0x41);
/// ```
#[inline]
pub fn line_of(addr: Addr) -> LineAddr {
    addr >> 6
}
