//! Execution support: knob resolution and the work-graph scheduler.
//!
//! - [`thread_count`] / [`resolve_count`] / [`flag_value`] — worker-count
//!   and knob resolution (`--flag N` beats the env var beats the default).
//! - [`sched`] — the dependency-aware work-graph scheduler the suite
//!   executor runs every figure's deduplicated cells on: per-worker
//!   deques, steal-half work stealing, long-pole-first ordering.
//!
//! Determinism: every cell derives its RNG streams from its own inputs,
//! and results land in slots addressed by node id, so output is
//! byte-identical no matter how many workers run or how the scheduler
//! interleaves them. `--threads 1` is the reference serial order.

// exec/ is the sanctioned timing layer and (with spec.rs) the JUMANJI_*
// config surface — lint.toml [paths] sanctions both; mirrored for clippy.
#![allow(clippy::disallowed_methods)]

pub mod sched;

/// Returns the value of `flag` (e.g., `--mixes`) in `args`, accepting
/// both the space form (`--mixes 4`) and the equals form (`--mixes=4`).
///
/// `args` is an argv-style slice; the first occurrence of either form
/// wins, scanning left to right. The space form's value is whatever token
/// follows the flag, if any; `--flag=` yields an empty string (the caller
/// decides whether that parses).
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(rest) = arg.strip_prefix(flag) {
            if let Some(value) = rest.strip_prefix('=') {
                return Some(value.to_string());
            }
        }
    }
    None
}

/// Resolves a count knob with CLI-beats-env-beats-default precedence.
///
/// A present-but-unparseable source falls through to the next one, so a
/// typo degrades gracefully instead of silently meaning something else.
pub fn resolve_count(flag: Option<&str>, env: Option<&str>, default: usize) -> usize {
    flag.and_then(|v| v.parse().ok())
        .or_else(|| env.and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

/// The machine's available parallelism, at least 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of worker threads: `--threads N`, then `JUMANJI_THREADS`, then
/// the machine's available parallelism.
pub fn thread_count() -> usize {
    let args: Vec<String> = std::env::args().collect();
    resolve_count(
        flag_value(&args, "--threads").as_deref(),
        std::env::var("JUMANJI_THREADS").ok().as_deref(),
        available_threads(),
    )
    .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_finds_following_token() {
        let args = argv(&["prog", "--mixes", "7", "--threads", "3"]);
        assert_eq!(flag_value(&args, "--mixes").as_deref(), Some("7"));
        assert_eq!(flag_value(&args, "--threads").as_deref(), Some("3"));
        assert_eq!(flag_value(&args, "--other"), None);
        // Trailing flag with no value.
        let args = argv(&["prog", "--mixes"]);
        assert_eq!(flag_value(&args, "--mixes"), None);
    }

    #[test]
    fn flag_value_accepts_equals_form() {
        let args = argv(&["prog", "--mixes=7", "--threads=3"]);
        assert_eq!(flag_value(&args, "--mixes").as_deref(), Some("7"));
        assert_eq!(flag_value(&args, "--threads").as_deref(), Some("3"));
        // Empty value is surfaced as such, not treated as absent.
        let args = argv(&["prog", "--mixes="]);
        assert_eq!(flag_value(&args, "--mixes").as_deref(), Some(""));
        // A longer flag sharing the prefix must not match.
        let args = argv(&["prog", "--mixes-per-run=9"]);
        assert_eq!(flag_value(&args, "--mixes"), None);
        // Values containing '=' survive intact.
        let args = argv(&["prog", "--out=a=b"]);
        assert_eq!(flag_value(&args, "--out").as_deref(), Some("a=b"));
    }

    #[test]
    fn flag_value_first_occurrence_wins_across_forms() {
        let args = argv(&["prog", "--mixes=5", "--mixes", "9"]);
        assert_eq!(flag_value(&args, "--mixes").as_deref(), Some("5"));
        let args = argv(&["prog", "--mixes", "9", "--mixes=5"]);
        assert_eq!(flag_value(&args, "--mixes").as_deref(), Some("9"));
    }

    #[test]
    fn resolve_count_precedence_flag_env_default() {
        assert_eq!(resolve_count(Some("4"), Some("9"), 2), 4);
        assert_eq!(resolve_count(None, Some("9"), 2), 9);
        assert_eq!(resolve_count(None, None, 2), 2);
        // Unparseable sources fall through.
        assert_eq!(resolve_count(Some("x"), Some("9"), 2), 9);
        assert_eq!(resolve_count(Some("x"), Some("y"), 2), 2);
    }
}
