//! One declarative description of a figure: which figure, and the
//! inputs its cells derive from.
//!
//! [`ExperimentSpec`] names a [`FigureKind`] plus the three knobs that
//! change the figure's cells: the mix count, the base RNG seed and the
//! detailed-sim accesses. Everything else about a run — worker threads,
//! the persistent store, the trace file — describes the run, not the
//! figure, and is set once on the `suite` command line (the binary hands
//! the executor its [`CellCache`](crate::CellCache) and worker count).
//! The command line is the only configuration surface: nothing here
//! reads the environment.
//!
//! [`ExperimentSpec::from_args`] reads `--mixes`, `--seed` and
//! `--accesses` strictly (a missing or unparseable value is a usage
//! error) and ignores every other argument. Library callers build specs
//! directly and render through [`figures::emit`](crate::figures::emit):
//!
//! ```no_run
//! use jumanji::telemetry::NoopSink;
//! use jumanji_bench::{figures, ExperimentSpec, FigureKind};
//!
//! let spec = ExperimentSpec::new(FigureKind::Fig14).mixes(2);
//! figures::emit(&spec, &NoopSink, &mut std::io::stdout()).expect("figure renders");
//! ```

use jumanji::prelude::*;
use jumanji::types::Error;

/// Every figure, table, and study in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "variants mirror the paper's figure numbers")]
pub enum FigureKind {
    Fig02,
    Fig04,
    Fig05,
    Fig08,
    Fig09,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
    Fig18,
    Table2,
    Table3,
    Ablation,
    Sensitivity,
    Validate,
}

impl FigureKind {
    /// All kinds, in figure order.
    pub fn all() -> [FigureKind; 18] {
        use FigureKind::*;
        [
            Fig02,
            Fig04,
            Fig05,
            Fig08,
            Fig09,
            Fig11,
            Fig12,
            Fig13,
            Fig14,
            Fig15,
            Fig16,
            Fig17,
            Fig18,
            Table2,
            Table3,
            Ablation,
            Sensitivity,
            Validate,
        ]
    }

    /// Figure name (`fig13`, `table2`, …): the `suite --figures` token
    /// and the TSV's file stem.
    pub fn name(self) -> &'static str {
        use FigureKind::*;
        match self {
            Fig02 => "fig02",
            Fig04 => "fig04",
            Fig05 => "fig05",
            Fig08 => "fig08",
            Fig09 => "fig09",
            Fig11 => "fig11",
            Fig12 => "fig12",
            Fig13 => "fig13",
            Fig14 => "fig14",
            Fig15 => "fig15",
            Fig16 => "fig16",
            Fig17 => "fig17",
            Fig18 => "fig18",
            Table2 => "table2",
            Table3 => "table3",
            Ablation => "ablation",
            Sensitivity => "sensitivity",
            Validate => "validate",
        }
    }

    /// The kind whose [`FigureKind::name`] is `name`, if any.
    ///
    /// This is the parsing direction, used by the `suite` binary's
    /// `--figures fig13,fig14,…` list.
    pub fn from_name(name: &str) -> Option<FigureKind> {
        FigureKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Default mix/seed count. Figures that run a single fixed scenario
    /// (the case study, the attack demos, the config tables) report `1`.
    pub fn default_mixes(self) -> usize {
        use FigureKind::*;
        match self {
            Fig13 => crate::PAPER_MIXES,
            Fig14 | Fig15 | Fig16 | Fig17 | Fig18 => 8,
            Fig09 => 5,
            Ablation => 6,
            Validate => 4,
            Sensitivity => 3,
            Fig02 | Fig04 | Fig05 | Fig08 | Fig11 | Fig12 | Table2 | Table3 => 1,
        }
    }

    /// Default detailed-sim accesses per app (only [`FigureKind::Fig02`]
    /// and [`FigureKind::Validate`] run the detailed simulator).
    pub fn default_accesses(self) -> usize {
        match self {
            FigureKind::Fig02 => 40_000,
            _ => 200_000,
        }
    }

    /// The designs the figure evaluates, in render order. Empty for
    /// figures whose structure fixes their designs (the case-study
    /// sweeps, the attack demos, the tables and studies).
    pub fn designs(self) -> &'static [DesignKind] {
        use DesignKind::*;
        use FigureKind::*;
        match self {
            Fig02 | Fig04 | Fig05 | Fig13 | Fig14 => &[Adaptive, VmPart, Jigsaw, Jumanji],
            Fig15 => &[Static, Adaptive, VmPart, Jigsaw, Jumanji],
            Fig16 => &[Jumanji, JumanjiInsecure, JumanjiIdealBatch],
            _ => &[],
        }
    }
}

/// Declarative description of one figure: the inputs its cells
/// derive from.
///
/// Build with [`ExperimentSpec::new`] (per-figure defaults) or
/// [`ExperimentSpec::from_args`] (the `suite` binary's flags), then
/// refine with the builder methods.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Which figure to render.
    pub kind: FigureKind,
    /// Random mixes (or seeds) per configuration.
    pub mixes: usize,
    /// Base RNG seed (the analytic simulator's arrival streams and the
    /// case-study mix derive from it).
    pub seed: u64,
    /// Detailed-sim accesses per app (Fig. 2 and the validation study).
    pub accesses: usize,
}

impl ExperimentSpec {
    /// A spec with `kind`'s defaults: its mix count and accesses, seed 1.
    pub fn new(kind: FigureKind) -> ExperimentSpec {
        ExperimentSpec {
            kind,
            mixes: kind.default_mixes(),
            seed: 1,
            accesses: kind.default_accesses(),
        }
    }

    /// Sets the mix count.
    pub fn mixes(mut self, mixes: usize) -> ExperimentSpec {
        self.mixes = mixes.max(1);
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> ExperimentSpec {
        self.seed = seed;
        self
    }

    /// Sets the detailed-sim accesses per app.
    pub fn accesses(mut self, accesses: usize) -> ExperimentSpec {
        self.accesses = accesses.max(1);
        self
    }

    /// The designs the figure evaluates ([`FigureKind::designs`]).
    pub fn designs(&self) -> &'static [DesignKind] {
        self.kind.designs()
    }

    /// `kind`'s defaults, overridden by `--mixes`, `--seed` and
    /// `--accesses` in the argv-style slice `args` (program name first or
    /// not — only those flags are inspected, in either `--flag value` or
    /// `--flag=value` form).
    ///
    /// # Errors
    ///
    /// Returns a usage [`Error::Flag`] for one of those flags with a
    /// missing or unparseable value. Every other argument is ignored.
    pub fn from_args(kind: FigureKind, args: &[String]) -> Result<ExperimentSpec, Error> {
        let mut spec = ExperimentSpec::new(kind);
        if let Some(v) = parse_flag(args, "--mixes")? {
            spec = spec.mixes(v);
        }
        if let Some(v) = parse_flag(args, "--seed")? {
            spec = spec.seed(v);
        }
        if let Some(v) = parse_flag(args, "--accesses")? {
            spec = spec.accesses(v);
        }
        Ok(spec)
    }
}

/// The value of `flag`, as text, in either `--flag value` or
/// `--flag=value` form (first occurrence wins). Present-with-no-value —
/// a bare trailing flag, another `--flag` in value position, or an empty
/// `--flag=` — is a usage error.
///
/// # Errors
///
/// A usage error when `flag` is present without a value.
pub fn flag_text(args: &[String], flag: &str) -> Result<Option<String>, Error> {
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            return match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(Error::flag(flag, "expected a value")),
            };
        }
        if let Some(value) = arg.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            if value.is_empty() {
                return Err(Error::flag(flag, "expected a value"));
            }
            return Ok(Some(value.to_string()));
        }
    }
    Ok(None)
}

/// The value after `flag`, parsed. Unparseable is a usage error.
///
/// # Errors
///
/// A usage error when `flag` is present without a value, or with one
/// that does not parse as `T`.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Error> {
    match flag_text(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| Error::flag(flag, format!("invalid value `{v}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_follow_the_figure() {
        let spec = ExperimentSpec::new(FigureKind::Fig13);
        assert_eq!(spec.mixes, crate::PAPER_MIXES);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.designs(), DesignKind::main_four());
        assert_eq!(ExperimentSpec::new(FigureKind::Fig09).mixes, 5);
        assert_eq!(ExperimentSpec::new(FigureKind::Fig02).accesses, 40_000);
        assert_eq!(ExperimentSpec::new(FigureKind::Validate).accesses, 200_000);
        assert!(ExperimentSpec::new(FigureKind::Table2).designs().is_empty());
    }

    #[test]
    fn builder_methods_override_and_clamp() {
        let spec = ExperimentSpec::new(FigureKind::Fig14)
            .mixes(0)
            .seed(9)
            .accesses(0);
        assert_eq!(spec.mixes, 1);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.accesses, 1);
    }

    #[test]
    fn cli_flags_parse_strictly() {
        let args = argv(&["fig13", "--mixes", "7", "--accesses", "3", "--seed", "42"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.accesses, spec.seed), (7, 3, 42));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes", "x"]))
            .expect_err("unparseable value");
        assert!(err.is_usage());
        assert!(err.to_string().contains("--mixes"));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes"]))
            .expect_err("missing value");
        assert!(err.is_usage());

        // A flag in value position counts as missing, not as a value.
        let err =
            ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--seed", "--verbose"]))
                .expect_err("flag as value");
        assert!(err.to_string().contains("--seed"));
    }

    #[test]
    fn cli_flags_accept_equals_form() {
        let args = argv(&["fig13", "--mixes=7", "--accesses=3", "--seed=42"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.accesses, spec.seed), (7, 3, 42));

        // Mixed forms in one argv; first occurrence wins per flag.
        let args = argv(&["fig13", "--mixes=5", "--seed", "2", "--mixes", "9"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.seed), (5, 2));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes="]))
            .expect_err("empty value");
        assert!(err.is_usage());
        assert!(err.to_string().contains("--mixes"));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes=x"]))
            .expect_err("unparseable value");
        assert!(err.is_usage());
    }

    #[test]
    fn from_name_round_trips_every_kind() {
        for kind in FigureKind::all() {
            assert_eq!(FigureKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FigureKind::from_name("fig99"), None);
        assert_eq!(FigureKind::from_name(""), None);
    }

    #[test]
    fn unrecognized_arguments_are_ignored() {
        // The run-wide flags are the `suite` binary's, not the spec's:
        // even a value the binary would reject leaves the spec alone.
        let args = argv(&[
            "fig14",
            "--unknown",
            "5",
            "--threads",
            "x",
            "--trace",
            "t.jsonl",
            "--cache-dir=/tmp/y",
        ]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig14, &args)
            .expect("other arguments are ignored");
        assert_eq!(spec.mixes, 8);
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = FigureKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 18);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "duplicate figure name");
    }
}
