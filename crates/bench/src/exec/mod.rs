//! Execution support: flag lookup and the work-graph scheduler.
//!
//! - [`flag_value`] / [`available_threads`] — lenient argv lookup and
//!   the default worker count. The `suite` binary's flags resolve through
//!   the strict [`flag_text`](crate::spec::flag_text) of [`crate::spec`],
//!   the one config surface; only the benchmark probe still calls
//!   [`flag_value`].
//! - [`sched`] — the work-graph scheduler the suite executor runs every
//!   figure's deduplicated cells on: one shared ready queue,
//!   long-pole-first, with dependency counts for graphs that have edges.
//!
//! Determinism: every cell derives its RNG streams from its own inputs,
//! and results land in slots addressed by node id, so output is
//! byte-identical no matter how many workers run or how the scheduler
//! interleaves them. `--threads 1` is the reference serial order.

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

/// The machine's available parallelism, at least 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
}
