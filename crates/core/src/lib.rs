//! The paper's contribution: Jumanji's data-placement algorithms and the
//! prior LLC designs it is evaluated against.
//!
//! This crate implements, in software exactly as the paper describes:
//!
//! - the **feedback controller** sizing latency-critical allocations
//!   (Listing 1, [`controller`]),
//! - **`LatCritPlacer`** reserving those allocations in the nearest banks
//!   (Listing 2, [`latcrit`]),
//! - **UCP Lookahead** and the bank-granular **`JumanjiLookahead`**
//!   ([`lookahead`]),
//! - **Jigsaw**'s capacity partitioning and proximity placement
//!   ([`jigsaw`]),
//! - **`JumanjiPlacer`** combining all of the above with VM bank isolation
//!   (Listing 3, [`placer`]), and
//! - the comparison **LLC designs** — Static, Adaptive, VM-Part, Jigsaw,
//!   Jumanji, plus the Insecure and Ideal-Batch sensitivity variants
//!   ([`design`]).
//!
//! # Examples
//!
//! ```
//! use jumanji_core::{DesignKind, PlacementInput};
//! use nuca_types::SystemConfig;
//!
//! let cfg = SystemConfig::micro2020();
//! let input = PlacementInput::example(&cfg);
//! let alloc = DesignKind::Jumanji.allocate(&input);
//! alloc.validate(&cfg).unwrap();
//! // Jumanji never lets two VMs share a bank.
//! assert!(alloc.vm_isolated(&input));
//! ```

#![warn(missing_docs)]

mod allocation;
pub mod controller;
pub mod design;
pub mod jigsaw;
pub mod latcrit;
pub mod lookahead;
mod model;
pub mod placer;
pub mod trades;

pub use allocation::{Allocation, AppAlloc, Pool};
pub use controller::{ControllerParams, FeedbackController};
pub use design::DesignKind;
pub use model::{AppKind, AppModel, PlacementInput};
pub use trades::{jumanji_with_trades, TradeStats};
