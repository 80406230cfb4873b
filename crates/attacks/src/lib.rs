//! LLC attack demonstrations (paper Sec. VI).
//!
//! Three shared cache components leak information or performance across
//! protection domains (Fig. 10):
//!
//! 1. **Cache sets** — classic conflict (prime+probe) attacks
//!    ([`conflict`]). Way-partitioning defends these.
//! 2. **Bank ports** — queueing on a bank's limited ports reveals when a
//!    victim accesses that bank ([`port`], reproducing Fig. 11). *Not*
//!    defended by way-partitioning; defended by Jumanji's bank isolation.
//! 3. **Replacement state** — DRRIP set-dueling's shared PSEL counter lets
//!    co-runners change a victim's replacement policy even across strict
//!    partitions ([`leakage`], reproducing Fig. 12). Also only defended by
//!    bank isolation.
//!
//! Beyond the paper's demonstrations, [`covert`] turns the port side
//! channel into a deliberate cross-VM covert channel and measures its
//! bandwidth with and without bank isolation.

#![warn(missing_docs)]

pub mod conflict;
pub mod covert;
pub mod leakage;
pub mod port;
