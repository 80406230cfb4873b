//! One declarative description of a figure run.
//!
//! [`ExperimentSpec`] collects every knob of a figure run — mix count,
//! worker threads, RNG seed, detailed-sim accesses, design list, cache
//! controls, trace output — behind one builder, with one resolution order
//! everywhere:
//!
//! 1. CLI flag (`--mixes`, `--threads`, `--seed`, `--accesses`,
//!    `--trace`, `--cache-dir`, `--no-cache`, `--cache-cap-bytes`) —
//!    strict: a missing or unparseable value is a usage error.
//! 2. Environment — lenient: an unparseable value falls through, so a
//!    stale export degrades to the default instead of silently meaning
//!    something else:
//!    - `JUMANJI_MIXES`, `JUMANJI_THREADS` — counts;
//!    - `JUMANJI_TRACE` — JSONL trace path;
//!    - `JUMANJI_CACHE_DIR` — persistent store directory;
//!    - `JUMANJI_NO_CACHE` — any value but empty or `0` disables caching;
//!    - `JUMANJI_CACHE_CAP` — store size cap in bytes (`0` = unbounded).
//! 3. The spec's builder value ([`ExperimentSpec::cache_dir`] /
//!    [`ExperimentSpec::no_cache`] for the cache controls), then the
//!    figure's own default ([`FigureKind::default_mixes`] etc.).
//!
//! The suite executor ([`crate::suite::run_suite`]) honours the cache
//! controls. Library callers build specs directly and render through
//! [`figures::emit`](crate::figures::emit):
//!
//! ```no_run
//! use jumanji::telemetry::NoopSink;
//! use jumanji_bench::{figures, ExperimentSpec, FigureKind};
//!
//! let spec = ExperimentSpec::new(FigureKind::Fig14).mixes(2).threads(4);
//! figures::emit(&spec, &NoopSink, &mut std::io::stdout()).expect("figure renders");
//! ```

// spec.rs IS the centralized JUMANJI_* config surface (lint.toml
// [paths].env_allow), so the env-read ban does not apply here.
#![allow(clippy::disallowed_methods)]

use jumanji::prelude::*;
use jumanji::types::Error;
use std::path::PathBuf;

/// Every figure, table, and study in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants mirror the paper's figure numbers
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

    /// Default design list. Empty for figures whose structure fixes the
    /// designs (e.g. Fig. 16's three Jumanji variants, the attack demos).
    pub fn default_designs(self) -> Vec<DesignKind> {
        use FigureKind::*;
        match self {
            Fig02 => vec![
                DesignKind::Adaptive,
                DesignKind::VmPart,
                DesignKind::Jigsaw,
                DesignKind::Jumanji,
            ],
            Fig04 | Fig05 | Fig13 | Fig14 => DesignKind::main_four().to_vec(),
            Fig15 => vec![
                DesignKind::Static,
                DesignKind::Adaptive,
                DesignKind::VmPart,
                DesignKind::Jigsaw,
                DesignKind::Jumanji,
            ],
            Fig16 => vec![
                DesignKind::Jumanji,
                DesignKind::JumanjiInsecure,
                DesignKind::JumanjiIdealBatch,
            ],
            _ => Vec::new(),
        }
    }
}

/// Declarative description of one figure run.
///
/// Build with [`ExperimentSpec::new`] (per-figure defaults) or
/// [`ExperimentSpec::from_args_env`] (the `suite` binary's CLI/env
/// resolution), then refine with the builder methods.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Which figure to render.
    pub kind: FigureKind,
    /// Random mixes (or seeds) per configuration.
    pub mixes: usize,
    /// Worker threads for the experiment fan-out.
    pub threads: usize,
    /// Base RNG seed (the analytic simulator's arrival streams and the
    /// case-study mix derive from it).
    pub seed: u64,
    /// Detailed-sim accesses per app (Fig. 2 and the validation study).
    pub accesses: usize,
    /// Designs to evaluate, for figures that iterate over a design list.
    pub designs: Vec<DesignKind>,
    /// Back the shared cell cache with a persistent store at this
    /// directory (ignored when `no_cache` is set).
    pub cache_dir: Option<PathBuf>,
    /// Size cap of the persistent store in bytes; `0` is unbounded.
    pub cache_cap_bytes: u64,
    /// Run against a throwaway memory-only cache: nothing is read from
    /// or written to the shared cache or any store (beats `cache_dir`).
    pub no_cache: bool,
    /// Write telemetry as JSONL to this path (the `suite` binary opens
    /// it).
    pub trace: Option<PathBuf>,
}

impl ExperimentSpec {
    /// A spec with `kind`'s defaults: paper mix count, all available
    /// cores, seed 1, no telemetry.
    pub fn new(kind: FigureKind) -> ExperimentSpec {
        ExperimentSpec {
            kind,
            mixes: kind.default_mixes(),
            threads: crate::exec::available_threads(),
            seed: 1,
            accesses: kind.default_accesses(),
            designs: kind.default_designs(),
            cache_dir: None,
            cache_cap_bytes: 0,
            no_cache: false,
            trace: None,
        }
    }

    /// Sets the mix count.
    pub fn mixes(mut self, mixes: usize) -> ExperimentSpec {
        self.mixes = mixes.max(1);
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> ExperimentSpec {
        self.threads = threads.max(1);
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

    /// Sets the design list.
    pub fn designs(mut self, designs: &[DesignKind]) -> ExperimentSpec {
        self.designs = designs.to_vec();
        self
    }

    /// Backs the shared cell cache with a persistent store at `dir`
    /// when the spec runs (same semantics as `--cache-dir`; overridden
    /// by `JUMANJI_CACHE_DIR` and the CLI flag under
    /// [`Self::from_args_env`]).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> ExperimentSpec {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Runs this spec against a throwaway cache (same semantics as
    /// `--no-cache`; beats [`Self::cache_dir`]).
    pub fn no_cache(mut self) -> ExperimentSpec {
        self.no_cache = true;
        self
    }

    /// Writes telemetry as JSONL to `path`.
    pub fn trace(mut self, path: impl Into<PathBuf>) -> ExperimentSpec {
        self.trace = Some(path.into());
        self
    }

    /// Parses an argv-style slice (program name first or not — only
    /// `--flag value` pairs are inspected).
    ///
    /// # Errors
    ///
    /// Returns a usage [`Error::Flag`] for a recognized flag with a
    /// missing or unparseable value. Unrecognized arguments are ignored.
    pub fn from_args(kind: FigureKind, args: &[String]) -> Result<ExperimentSpec, Error> {
        ExperimentSpec::new(kind).apply_flags(args)
    }

    /// [`Self::from_args`] on the process's own argv over the
    /// environment layer: CLI beats `JUMANJI_*` beats the figure's
    /// default (see the module docs for the variables).
    ///
    /// # Errors
    ///
    /// Usage errors from CLI flags only — environment values that fail
    /// to parse fall through to the default.
    pub fn from_args_env(kind: FigureKind) -> Result<ExperimentSpec, Error> {
        let mut spec = ExperimentSpec::new(kind);
        if let Some(v) = env_count("JUMANJI_MIXES") {
            spec.mixes = v;
        }
        if let Some(v) = env_count("JUMANJI_THREADS") {
            spec.threads = v;
        }
        if let Some(p) = std::env::var_os("JUMANJI_TRACE") {
            if !p.is_empty() {
                spec.trace = Some(PathBuf::from(p));
            }
        }
        if let Some(cap) = env_count("JUMANJI_CACHE_CAP") {
            spec.cache_cap_bytes = cap as u64;
        }
        resolve_cache_controls(
            &mut spec,
            &[],
            std::env::var("JUMANJI_NO_CACHE").ok(),
            std::env::var("JUMANJI_CACHE_DIR").ok(),
        )?;
        let args: Vec<String> = std::env::args().collect();
        spec.apply_flags(&args)
    }

    /// The CLI layer: every recognized flag in `args` overrides the
    /// spec's value (strictly parsed), then the counts are clamped.
    fn apply_flags(mut self, args: &[String]) -> Result<ExperimentSpec, Error> {
        if let Some(v) = parse_flag(args, "--mixes")? {
            self.mixes = v;
        }
        if let Some(v) = parse_flag(args, "--threads")? {
            self.threads = v;
        }
        if let Some(v) = parse_flag(args, "--seed")? {
            self.seed = v;
        }
        if let Some(v) = parse_flag(args, "--accesses")? {
            self.accesses = v;
        }
        if let Some(p) = flag_text(args, "--trace")? {
            self.trace = Some(PathBuf::from(p));
        }
        if let Some(v) = parse_flag(args, "--cache-cap-bytes")? {
            self.cache_cap_bytes = v;
        }
        resolve_cache_controls(&mut self, args, None, None)?;
        self.mixes = self.mixes.max(1);
        self.threads = self.threads.max(1);
        self.accesses = self.accesses.max(1);
        Ok(self)
    }
}

/// Resolves the spec's `no_cache` / `cache_dir` controls: CLI flag
/// beats environment beats whatever the builder set. The environment is
/// lenient (empty or `0` means unset), the CLI strict — factored over
/// explicit `env_*` values so tests need not mutate process environment.
/// The environment layer calls it with no arguments, the CLI layer with
/// no environment.
fn resolve_cache_controls(
    spec: &mut ExperimentSpec,
    args: &[String],
    env_no_cache: Option<String>,
    env_cache_dir: Option<String>,
) -> Result<(), Error> {
    if let Some(v) = env_no_cache {
        if !v.is_empty() && v != "0" {
            spec.no_cache = true;
        }
    }
    if let Some(dir) = env_cache_dir {
        if !dir.is_empty() {
            spec.cache_dir = Some(PathBuf::from(dir));
        }
    }
    if args.iter().any(|a| a == "--no-cache") {
        spec.no_cache = true;
    }
    if let Some(dir) = flag_text(args, "--cache-dir")? {
        spec.cache_dir = Some(PathBuf::from(dir));
    }
    Ok(())
}

/// The value of `flag`, as text, in either `--flag value` or
/// `--flag=value` form (first occurrence wins). Present-with-no-value —
/// a bare trailing flag, another `--flag` in value position, or an empty
/// `--flag=` — is a usage error.
fn flag_text(args: &[String], flag: &str) -> Result<Option<String>, Error> {
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
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Error> {
    match flag_text(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| Error::flag(flag, format!("invalid value `{v}`"))),
    }
}

/// A `VAR=n` environment count; unset or unparseable yields `None`.
fn env_count(var: &str) -> Option<usize> {
    std::env::var(var).ok()?.parse().ok()
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
        assert_eq!(spec.designs, DesignKind::main_four().to_vec());
        assert!(spec.trace.is_none());
        assert_eq!(ExperimentSpec::new(FigureKind::Fig09).mixes, 5);
        assert_eq!(ExperimentSpec::new(FigureKind::Fig02).accesses, 40_000);
        assert_eq!(ExperimentSpec::new(FigureKind::Validate).accesses, 200_000);
        assert!(ExperimentSpec::new(FigureKind::Table2).designs.is_empty());
    }

    #[test]
    fn builder_methods_override_and_clamp() {
        let spec = ExperimentSpec::new(FigureKind::Fig14)
            .mixes(0)
            .threads(0)
            .seed(9)
            .accesses(0)
            .designs(&[DesignKind::Jumanji])
            .trace("/tmp/t.jsonl");
        assert_eq!(spec.mixes, 1);
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.accesses, 1);
        assert_eq!(spec.designs, vec![DesignKind::Jumanji]);
        assert_eq!(
            spec.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
    }

    #[test]
    fn cli_flags_parse_strictly() {
        let args = argv(&["fig13", "--mixes", "7", "--threads", "3", "--seed", "42"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.threads, spec.seed), (7, 3, 42));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes", "x"]))
            .expect_err("unparseable value");
        assert!(err.is_usage());
        assert!(err.to_string().contains("--mixes"));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes"]))
            .expect_err("missing value");
        assert!(err.is_usage());

        // A flag in value position counts as missing, not as a value.
        let err =
            ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--trace", "--verbose"]))
                .expect_err("flag as value");
        assert!(err.to_string().contains("--trace"));
    }

    #[test]
    fn cli_flags_accept_equals_form() {
        let args = argv(&["fig13", "--mixes=7", "--threads=3", "--seed=42"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.threads, spec.seed), (7, 3, 42));

        let spec =
            ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--trace=/tmp/t.jsonl"]))
                .expect("valid argv");
        assert_eq!(
            spec.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );

        // Mixed forms in one argv; first occurrence wins per flag.
        let args = argv(&["fig13", "--mixes=5", "--threads", "2"]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert_eq!((spec.mixes, spec.threads), (5, 2));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes="]))
            .expect_err("empty value");
        assert!(err.is_usage());
        assert!(err.to_string().contains("--mixes"));

        let err = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes=x"]))
            .expect_err("unparseable value");
        assert!(err.is_usage());
    }

    #[test]
    fn cache_controls_resolve_cli_over_env_over_builder() {
        use std::path::Path;
        // Builder value survives when neither CLI nor env speaks.
        let mut spec = ExperimentSpec::new(FigureKind::Fig13).cache_dir("/from/builder");
        resolve_cache_controls(&mut spec, &argv(&["fig13"]), None, None).expect("valid");
        assert_eq!(spec.cache_dir.as_deref(), Some(Path::new("/from/builder")));
        assert!(!spec.no_cache);

        // Environment beats the builder.
        let mut spec = ExperimentSpec::new(FigureKind::Fig13).cache_dir("/from/builder");
        resolve_cache_controls(
            &mut spec,
            &argv(&["fig13"]),
            Some("1".into()),
            Some("/from/env".into()),
        )
        .expect("valid");
        assert_eq!(spec.cache_dir.as_deref(), Some(Path::new("/from/env")));
        assert!(spec.no_cache);

        // CLI beats the environment.
        let mut spec = ExperimentSpec::new(FigureKind::Fig13);
        resolve_cache_controls(
            &mut spec,
            &argv(&["fig13", "--cache-dir", "/from/cli"]),
            None,
            Some("/from/env".into()),
        )
        .expect("valid");
        assert_eq!(spec.cache_dir.as_deref(), Some(Path::new("/from/cli")));

        // Env no-cache is lenient: empty and `0` mean unset.
        let mut spec = ExperimentSpec::new(FigureKind::Fig13);
        resolve_cache_controls(&mut spec, &argv(&["fig13"]), Some("0".into()), None)
            .expect("valid");
        assert!(!spec.no_cache);
        let mut spec = ExperimentSpec::new(FigureKind::Fig13);
        resolve_cache_controls(&mut spec, &argv(&["fig13"]), Some(String::new()), None)
            .expect("valid");
        assert!(!spec.no_cache);

        // CLI --no-cache is a bare flag; --cache-dir stays strict.
        let mut spec = ExperimentSpec::new(FigureKind::Fig13);
        resolve_cache_controls(&mut spec, &argv(&["fig13", "--no-cache"]), None, None)
            .expect("valid");
        assert!(spec.no_cache);
        let mut spec = ExperimentSpec::new(FigureKind::Fig13);
        let err = resolve_cache_controls(&mut spec, &argv(&["fig13", "--cache-dir"]), None, None)
            .expect_err("missing value");
        assert!(err.is_usage());
    }

    #[test]
    fn cache_flags_are_recognised() {
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &argv(&["fig13", "--mixes", "2"]))
            .expect("valid argv");
        assert!(!spec.no_cache && spec.cache_dir.is_none() && spec.cache_cap_bytes == 0);
        let args = argv(&[
            "fig13",
            "--no-cache",
            "--cache-dir=/tmp/y",
            "--cache-cap-bytes",
            "4096",
        ]);
        let spec = ExperimentSpec::from_args(FigureKind::Fig13, &args).expect("valid argv");
        assert!(spec.no_cache);
        assert_eq!(
            spec.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/y"))
        );
        assert_eq!(spec.cache_cap_bytes, 4096);
        let err = ExperimentSpec::from_args(
            FigureKind::Fig13,
            &argv(&["fig13", "--cache-cap-bytes", "lots"]),
        )
        .expect_err("unparseable cap");
        assert!(err.is_usage());
    }

    #[test]
    fn builder_cache_controls_set_fields() {
        let spec = ExperimentSpec::new(FigureKind::Fig14)
            .cache_dir("/tmp/cells")
            .no_cache();
        assert_eq!(
            spec.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/cells"))
        );
        assert!(spec.no_cache);
        let spec = ExperimentSpec::new(FigureKind::Fig14);
        assert!(spec.cache_dir.is_none() && !spec.no_cache);
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
        let spec =
            ExperimentSpec::from_args(FigureKind::Fig14, &argv(&["fig14", "--unknown", "5"]))
                .expect("unknown flags ignored");
        assert_eq!(spec.mixes, 8);
    }

    #[test]
    fn kind_names_are_unique_and_match_binaries() {
        let mut names: Vec<&str> = FigureKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 18);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "duplicate figure name");
    }
}
