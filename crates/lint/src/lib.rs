//! `jumanji-lint` — the workspace invariant checker.
//!
//! A hermetic, dependency-free static-analysis pass that mechanically
//! enforces the invariants the scheduler/cache stack rests on:
//! determinism (no `RandomState` maps, no wall-clock reads, no
//! thread-local memos in output paths), render purity (figure code
//! outside the plan pass never names the cell cache), unsafe
//! discipline (`// SAFETY:` comments plus per-crate budgets), and no
//! `JUMANJI_*` environment reads (configuration comes from the command
//! line).
//!
//! See [`rules`] for the rule table, [`config`] for the `lint.toml`
//! schema, and [`runner`] for the workspace scan and fixture
//! self-test. The binary lives in `main.rs`; `scripts/verify.sh` runs
//! it as a hard gate before the expensive golden comparisons.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod runner;
