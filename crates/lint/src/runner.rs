//! Workspace walking, per-crate unsafe budgets, and the fixture
//! self-test.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::rules::{check_file, in_paths};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// The known-bad corpus (scanned only by [`self_test`]).
pub const FIXTURE_DIR: &str = "crates/lint/fixtures/";

/// Result of a workspace scan.
pub struct RunOutcome {
    /// All findings, sorted by (path, line, col, rule).
    pub diags: Vec<Diagnostic>,
    /// How many `.rs` files were scanned.
    pub files: usize,
    /// Per-crate `unsafe` keyword counts (informational; budget
    /// violations are already in `diags`).
    pub unsafe_counts: BTreeMap<String, u64>,
}

/// Collects `.rs` files under `dir` (recursive, sorted, deterministic).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate a repo-relative path belongs to (`crates/<name>/…` →
/// `<name>`; everything else → `root`).
fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
        .to_string()
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Scans the source trees under `root` (skipping the fixture corpus)
/// and applies every rule plus the per-crate unsafe budgets.
///
/// # Errors
///
/// Unreadable files, and `cfg` path entries that match no scanned file
/// (one line per stale entry).
pub fn run(root: &Path, cfg: &LintConfig) -> Result<RunOutcome, String> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.retain(|path| !rel_of(root, path).starts_with(FIXTURE_DIR));
    let rels: Vec<String> = files.iter().map(|path| rel_of(root, path)).collect();
    let stale = stale_entries(cfg, &rels);
    if !stale.is_empty() {
        return Err(stale.join("\n"));
    }
    let mut diags = Vec::new();
    let mut unsafe_sites: BTreeMap<String, Vec<(String, u32, u32)>> = BTreeMap::new();
    for (path, rel) in files.iter().zip(&rels) {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let check = check_file(rel, &src, cfg);
        diags.extend(check.diags);
        let per_crate = unsafe_sites.entry(crate_of(rel)).or_default();
        for (line, col) in check.unsafe_sites {
            per_crate.push((rel.clone(), line, col));
        }
    }
    let mut unsafe_counts = BTreeMap::new();
    for (krate, sites) in &unsafe_sites {
        let count = sites.len() as u64;
        if count > 0 {
            unsafe_counts.insert(krate.clone(), count);
        }
        let budget = cfg.budget_of(krate);
        if count > budget {
            // Point at the first over-budget site so the diagnostic
            // lands on the newly added `unsafe`, not a pre-existing one.
            let (path, line, col) = sites[budget as usize].clone();
            if !cfg.allows_site("unsafe-budget", &path) {
                diags.push(Diagnostic {
                    path,
                    line,
                    col,
                    rule: "unsafe-budget",
                    message: format!(
                        "crate `{krate}` has {count} `unsafe` occurrence(s), over its \
                         budget of {budget}"
                    ),
                    help: "remove the unsafe code or raise the crate's `[unsafe_budget]` \
                           entry in lint.toml alongside a SAFETY argument"
                        .to_string(),
                });
            }
        }
    }
    sort_diags(&mut diags);
    Ok(RunOutcome {
        diags,
        files: files.len(),
        unsafe_counts,
    })
}

/// One message per `lint.toml` path entry that matches none of the
/// scanned files `rels`, so a deleted file cannot leave a live
/// exemption behind.
fn stale_entries(cfg: &LintConfig, rels: &[String]) -> Vec<String> {
    let lists = [
        ("[paths].determinism_exempt", &cfg.determinism_exempt),
        ("[paths].timing_allow", &cfg.timing_allow),
        ("[paths].env_allow", &cfg.env_allow),
        ("[paths].figures", &cfg.figures),
    ];
    let mut stale: Vec<String> = lists
        .into_iter()
        .flat_map(|(key, list)| {
            list.iter()
                .filter(|p| {
                    !rels
                        .iter()
                        .any(|rel| in_paths(rel, std::slice::from_ref(*p)))
                })
                .map(move |p| format!("{key} entry `{p}` matches no scanned .rs file"))
        })
        .collect();
    stale.extend(
        cfg.allows
            .iter()
            .filter(|a| !rels.iter().any(|rel| a.covers(rel)))
            .map(|a| {
                format!(
                    "[[allow]] `{}` entry `{}` matches no scanned .rs file",
                    a.rule, a.path
                )
            }),
    );
    stale
}

/// The fixed policy the fixture corpus is linted under — independent
/// of the workspace `lint.toml` so the expected diagnostic set is
/// stable.
pub fn fixture_config() -> LintConfig {
    LintConfig {
        determinism: vec![FIXTURE_DIR.to_string()],
        determinism_exempt: Vec::new(),
        timing_allow: Vec::new(),
        env_allow: Vec::new(),
        figures: vec![format!("{FIXTURE_DIR}figures/")],
        unsafe_default: 0,
        unsafe_budget: BTreeMap::new(),
        allows: Vec::new(),
    }
}

/// Scans only the fixture corpus under the fixed fixture policy.
pub fn run_fixtures(root: &Path) -> Result<RunOutcome, String> {
    let cfg = fixture_config();
    let dir = root.join(FIXTURE_DIR);
    let mut files = Vec::new();
    collect_rs(&dir, &mut files)?;
    let mut diags = Vec::new();
    let mut sites: Vec<(String, u32, u32)> = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = rel_of(root, path);
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let check = check_file(&rel, &src, &cfg);
        diags.extend(check.diags);
        for (line, col) in check.unsafe_sites {
            sites.push((rel.clone(), line, col));
        }
        scanned += 1;
    }
    // The fixture corpus is one logical crate with a budget of 0.
    if !sites.is_empty() {
        let (path, line, col) = sites[0].clone();
        let count = sites.len();
        diags.push(Diagnostic {
            path,
            line,
            col,
            rule: "unsafe-budget",
            message: format!(
                "crate `fixtures` has {count} `unsafe` occurrence(s), over its budget of 0"
            ),
            help: "remove the unsafe code or raise the crate's `[unsafe_budget]` entry \
                   in lint.toml alongside a SAFETY argument"
                .to_string(),
        });
    }
    sort_diags(&mut diags);
    Ok(RunOutcome {
        diags,
        files: scanned,
        unsafe_counts: BTreeMap::new(),
    })
}

/// Runs the lint over the known-bad fixture corpus and compares the
/// findings against `fixtures/expected.txt` (lines of
/// `path:line:rule`, `#` comments allowed).
///
/// Returns the number of expected findings on success; on mismatch,
/// an error report listing missed and unexpected findings.
pub fn self_test(root: &Path) -> Result<usize, String> {
    let expected_path = root.join(FIXTURE_DIR).join("expected.txt");
    let text = std::fs::read_to_string(&expected_path)
        .map_err(|e| format!("{}: {e}", expected_path.display()))?;
    let mut expected: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    expected.sort();
    let outcome = run_fixtures(root)?;
    let mut got: Vec<String> = outcome
        .diags
        .iter()
        .map(|d| format!("{}:{}:{}", d.path, d.line, d.rule))
        .collect();
    got.sort();
    if got == expected {
        return Ok(expected.len());
    }
    let mut report = String::from("fixture self-test mismatch\n");
    for m in expected.iter().filter(|e| !got.contains(e)) {
        report.push_str(&format!("  missed:     {m}\n"));
    }
    for u in got.iter().filter(|g| !expected.contains(g)) {
        report.push_str(&format!("  unexpected: {u}\n"));
    }
    Err(report)
}

/// True when `rel` is inside the fixture corpus (shared with `main`
/// for reporting).
pub fn is_fixture(rel: &str) -> bool {
    in_paths(rel, &[FIXTURE_DIR.to_string()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllowEntry;

    /// A throwaway tree holding `crates/a/src/lib.rs` and
    /// `crates/a/src/bin/tool.rs`.
    fn temp_tree(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("jumanji-lint-runner-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/a/src/bin")).expect("create tree");
        std::fs::write(root.join("crates/a/src/lib.rs"), "pub fn f() {}\n").expect("write");
        std::fs::write(root.join("crates/a/src/bin/tool.rs"), "fn main() {}\n").expect("write");
        root
    }

    fn live_config() -> LintConfig {
        LintConfig {
            determinism_exempt: vec!["crates/a/src/bin/".into()],
            timing_allow: vec!["crates/a/src/bin/tool.rs".into()],
            env_allow: vec!["crates/a/src/lib.rs".into()],
            figures: vec!["crates/a/".into()],
            allows: vec![AllowEntry {
                rule: "env-var".into(),
                path: "crates/a/src/lib.rs".into(),
                reason: "demo".into(),
            }],
            ..LintConfig::default()
        }
    }

    #[test]
    fn entries_matching_no_scanned_file_fail_the_scan() {
        let root = temp_tree("stale");
        let outcome = run(&root, &live_config()).expect("every entry matches a file");
        assert_eq!(outcome.files, 2);

        let mut cfg = live_config();
        cfg.timing_allow.push("crates/a/src/bin/gone.rs".into());
        cfg.figures.push("crates/b/".into());
        cfg.allows[0].path = "crates/a/src/old.rs".into();
        let err = match run(&root, &cfg) {
            Ok(_) => panic!("stale entries must fail the scan"),
            Err(e) => e,
        };
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 3, "{err}");
        assert!(lines[0].contains("[paths].timing_allow entry `crates/a/src/bin/gone.rs`"));
        assert!(lines[1].contains("[paths].figures entry `crates/b/`"));
        assert!(lines[2].contains("[[allow]] `env-var` entry `crates/a/src/old.rs`"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
