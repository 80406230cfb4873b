//! End-to-end tests over the known-bad fixture corpus: every seeded
//! violation must be detected with the exact rule id and line, the
//! self-test harness must agree with `expected.txt`, and the real
//! workspace under the checked-in `lint.toml` must scan clean.

use jumanji_lint::config::LintConfig;
use jumanji_lint::runner;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The repository root (two levels up from crates/lint).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn self_test_detects_every_seeded_violation() {
    let found = runner::self_test(&repo_root()).expect("fixture self-test must pass");
    assert_eq!(
        found, 16,
        "seeded-violation count drifted from expected.txt"
    );
}

#[test]
fn fixture_diagnostics_have_exact_rules_and_lines() {
    let outcome = runner::run_fixtures(&repo_root()).expect("fixture scan");
    let got: BTreeSet<String> = outcome
        .diags
        .iter()
        .map(|d| format!("{}:{}:{}", d.path, d.line, d.rule))
        .collect();
    let want: BTreeSet<String> = [
        "crates/lint/fixtures/bad_hasher.rs:5:default-hasher",
        "crates/lint/fixtures/bad_hasher.rs:6:default-hasher",
        "crates/lint/fixtures/bad_hasher.rs:7:default-hasher",
        "crates/lint/fixtures/bad_time.rs:5:wall-clock",
        "crates/lint/fixtures/bad_time.rs:6:wall-clock",
        "crates/lint/fixtures/bad_thread_local.rs:2:thread-local",
        "crates/lint/fixtures/bad_env.rs:3:env-var",
        "crates/lint/fixtures/bad_unsafe.rs:3:safety-comment",
        "crates/lint/fixtures/bad_unsafe.rs:3:unsafe-budget",
        "crates/lint/fixtures/bad_allow.rs:2:allow-syntax",
        "crates/lint/fixtures/bad_allow.rs:3:allow-syntax",
        "crates/lint/fixtures/bad_allow.rs:4:allow-syntax",
        "crates/lint/fixtures/figures/bad_plan.rs:2:plan-bypass",
        "crates/lint/fixtures/figures/bad_plan.rs:8:plan-bypass",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    // Two lines in bad_hasher.rs carry a pair of findings each; the set
    // view collapses those, and expected.txt (checked as a multiset by
    // the self-test) pins the duplicates.
    assert_eq!(got, want, "fixture diagnostic sites drifted");
    // The clean fixture must stay clean.
    assert!(
        !outcome.diags.iter().any(|d| d.path.ends_with("good.rs")),
        "good.rs produced findings"
    );
}

#[test]
fn diagnostics_render_stable_text_and_valid_json() {
    let outcome = runner::run_fixtures(&repo_root()).expect("fixture scan");
    let d = outcome
        .diags
        .iter()
        .find(|d| d.rule == "default-hasher")
        .expect("hasher finding present");
    let text = d.render_text();
    assert!(text.starts_with("crates/lint/fixtures/bad_hasher.rs:"));
    assert!(text.contains("error[default-hasher]"));
    assert!(text.contains("help:"), "fix-it hint missing: {text}");
    let json = jumanji_lint::diag::render_json(std::slice::from_ref(d));
    assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    assert!(
        json.contains("\"rule\": \"default-hasher\"")
            || json.contains("\"rule\":\"default-hasher\"")
    );
    assert!(json.contains("\"line\""));
}

#[test]
fn workspace_is_clean_under_checked_in_policy() {
    let root = repo_root();
    let cfg = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    let outcome = runner::run(&root, &cfg).expect("workspace scan");
    let rendered: Vec<String> = outcome.diags.iter().map(|d| d.render_text()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}
