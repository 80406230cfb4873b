//! `lint.toml`: the checked-in policy file, parsed by a hand-rolled
//! TOML-subset reader (the workspace builds offline with no external
//! crates, so no `toml` dependency).
//!
//! Supported TOML subset — everything the schema needs and nothing
//! more: `[section]` tables, `[[allow]]` array-of-tables, `key =
//! value` with string, integer, and (possibly multi-line) string-array
//! values, and `#` comments. Unknown sections or keys are *errors*:
//! a typo in a policy file must not silently disable a rule. The
//! workspace scan ([`crate::runner::run`]) also rejects a path entry,
//! other than `determinism`, that matches no scanned file.
//!
//! Schema (see the checked-in `lint.toml` for the live policy):
//!
//! ```toml
//! [paths]
//! determinism = ["crates/"]           # default-hasher applies under these
//! determinism_exempt = ["crates/rand_shim/"]
//! timing_allow = ["crates/bench/src/exec/"]   # wall-clock OK here
//! env_allow = []                      # JUMANJI_* env reads OK here
//! figures = ["crates/bench/src/figures/"]     # plan-bypass applies here
//!
//! [unsafe_budget]
//! default = 0       # per-crate ceiling on `unsafe` occurrences
//! cache = 0         # override per crates/<dir>
//!
//! [[allow]]         # justified site-level exemptions
//! rule = "thread-local"
//! path = "crates/bench/src/lib.rs"
//! reason = "scratch buffer, not a memo"
//! ```

use std::collections::BTreeMap;
use std::path::Path;

/// One `[[allow]]` entry: suppress `rule` anywhere in `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule id being allowed.
    pub rule: String,
    /// Repo-relative path (exact file or directory prefix ending `/`).
    pub path: String,
    /// Why the site is exempt. Required and non-empty.
    pub reason: String,
}

impl AllowEntry {
    /// True when `rel` (repo-relative, `/`-separated) is `path` or lies
    /// under it.
    pub fn covers(&self, rel: &str) -> bool {
        rel.starts_with(self.path.as_str())
    }
}

/// Parsed policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Path prefixes where `default-hasher` applies.
    pub determinism: Vec<String>,
    /// Subtracted from `determinism` (the vendored shims).
    pub determinism_exempt: Vec<String>,
    /// Path prefixes where wall-clock reads are legitimate.
    pub timing_allow: Vec<String>,
    /// Paths allowed to read `JUMANJI_*` environment variables.
    pub env_allow: Vec<String>,
    /// Path prefixes holding figure code, renders and the plan pass
    /// (`plan-bypass` scope).
    pub figures: Vec<String>,
    /// Per-crate `unsafe` ceiling when not overridden.
    pub unsafe_default: u64,
    /// Per-crate overrides, keyed by `crates/<dir>` name.
    pub unsafe_budget: BTreeMap<String, u64>,
    /// Site-level exemptions.
    pub allows: Vec<AllowEntry>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            determinism: vec!["crates/".into()],
            determinism_exempt: Vec::new(),
            timing_allow: Vec::new(),
            env_allow: Vec::new(),
            figures: Vec::new(),
            unsafe_default: 0,
            unsafe_budget: BTreeMap::new(),
            allows: Vec::new(),
        }
    }
}

impl LintConfig {
    /// True when `rel` (repo-relative, `/`-separated) is allowed for
    /// `rule` by an `[[allow]]` entry (exact file match or directory
    /// prefix).
    pub fn allows_site(&self, rule: &str, rel: &str) -> bool {
        self.allows.iter().any(|a| a.rule == rule && a.covers(rel))
    }

    /// The `unsafe` budget of crate directory `name`.
    pub fn budget_of(&self, name: &str) -> u64 {
        self.unsafe_budget
            .get(name)
            .copied()
            .unwrap_or(self.unsafe_default)
    }

    /// Reads and parses a policy file.
    ///
    /// # Errors
    ///
    /// I/O failures and any syntax/schema violation, as a rendered
    /// message naming the offending line.
    pub fn load(path: &Path) -> Result<LintConfig, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    Int(u64),
    List(Vec<String>),
}

/// Strips a `#` comment that is outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one scalar or array value.
fn parse_value(raw: &str, line_no: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(body) = raw.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated string"))?;
        if body.contains('"') {
            return Err(format!("line {line_no}: embedded quote in string"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    if let Some(body) = raw.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("line {line_no}: unterminated array"))?;
        let mut items = Vec::new();
        for item in body.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            match parse_value(item, line_no)? {
                Value::Str(s) => items.push(s),
                _ => return Err(format!("line {line_no}: arrays hold strings only")),
            }
        }
        return Ok(Value::List(items));
    }
    raw.parse::<u64>()
        .map(Value::Int)
        .map_err(|_| format!("line {line_no}: expected string, integer, or [array]"))
}

fn expect_list(v: Value, key: &str, line_no: usize) -> Result<Vec<String>, String> {
    match v {
        Value::List(l) => Ok(l),
        _ => Err(format!("line {line_no}: `{key}` must be a string array")),
    }
}

fn expect_str(v: Value, key: &str, line_no: usize) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(format!("line {line_no}: `{key}` must be a string")),
    }
}

fn expect_int(v: Value, key: &str, line_no: usize) -> Result<u64, String> {
    match v {
        Value::Int(i) => Ok(i),
        _ => Err(format!("line {line_no}: `{key}` must be an integer")),
    }
}

/// Parses the policy text.
pub fn parse(text: &str) -> Result<LintConfig, String> {
    let mut cfg = LintConfig {
        determinism: Vec::new(),
        ..LintConfig::default()
    };
    let mut section = String::new();
    // Logical-line assembly: arrays may span physical lines until the
    // brackets balance (strings cannot contain brackets per the schema).
    let mut pending = String::new();
    let mut pending_start = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let stripped = strip_comment(raw).trim().to_string();
        if stripped.is_empty() {
            continue;
        }
        if pending.is_empty() {
            pending_start = line_no;
            pending = stripped;
        } else {
            pending.push(' ');
            pending.push_str(&stripped);
        }
        let opens = pending.matches('[').count();
        let closes = pending.matches(']').count();
        if opens > closes {
            continue; // array still open
        }
        let line = std::mem::take(&mut pending);
        let line_no = pending_start;

        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            if name.trim() != "allow" {
                return Err(format!("line {line_no}: unknown table array [[{name}]]"));
            }
            cfg.allows.push(AllowEntry {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
            });
            section = "allow".into();
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim();
            match name {
                "paths" | "unsafe_budget" => section = name.to_string(),
                _ => return Err(format!("line {line_no}: unknown section [{name}]")),
            }
            continue;
        }
        let (key, raw_value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected `key = value`"))?;
        let key = key.trim();
        let value = parse_value(raw_value, line_no)?;
        match section.as_str() {
            "paths" => {
                let list = expect_list(value, key, line_no)?;
                match key {
                    "determinism" => cfg.determinism = list,
                    "determinism_exempt" => cfg.determinism_exempt = list,
                    "timing_allow" => cfg.timing_allow = list,
                    "env_allow" => cfg.env_allow = list,
                    "figures" => cfg.figures = list,
                    _ => return Err(format!("line {line_no}: unknown [paths] key `{key}`")),
                }
            }
            "unsafe_budget" => {
                let n = expect_int(value, key, line_no)?;
                if key == "default" {
                    cfg.unsafe_default = n;
                } else {
                    cfg.unsafe_budget.insert(key.to_string(), n);
                }
            }
            "allow" => {
                let entry = cfg
                    .allows
                    .last_mut()
                    .expect("section == allow implies an open entry");
                let s = expect_str(value, key, line_no)?;
                match key {
                    "rule" => entry.rule = s,
                    "path" => entry.path = s,
                    "reason" => entry.reason = s,
                    _ => return Err(format!("line {line_no}: unknown [[allow]] key `{key}`")),
                }
            }
            _ => return Err(format!("line {line_no}: key outside any section")),
        }
    }
    if !pending.is_empty() {
        return Err(format!("line {pending_start}: unterminated value"));
    }
    for (i, a) in cfg.allows.iter().enumerate() {
        if a.rule.is_empty() || a.path.is_empty() {
            return Err(format!("[[allow]] entry {} needs rule and path", i + 1));
        }
        if !crate::rules::RULES.contains(&a.rule.as_str()) {
            return Err(format!(
                "[[allow]] entry {}: unknown rule `{}`",
                i + 1,
                a.rule
            ));
        }
        if a.reason.trim().is_empty() {
            return Err(format!(
                "[[allow]] entry {} ({} in {}): a non-empty reason is required",
                i + 1,
                a.rule,
                a.path
            ));
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_schema() {
        let cfg = parse(
            r#"
# policy
[paths]
determinism = ["crates/"]
determinism_exempt = [
    "crates/rand_shim/",  # shim
    "crates/proptest_shim/",
]
timing_allow = ["crates/bench/src/exec/"]
env_allow = ["crates/bench/src/spec.rs"]
figures = ["crates/bench/src/figures/"]

[unsafe_budget]
default = 0
cache = 2

[[allow]]
rule = "thread-local"
path = "crates/bench/src/lib.rs"
reason = "scratch buffer, not a memo"
"#,
        )
        .expect("valid policy");
        assert_eq!(cfg.determinism, vec!["crates/"]);
        assert_eq!(cfg.determinism_exempt.len(), 2);
        assert_eq!(cfg.unsafe_default, 0);
        assert_eq!(cfg.budget_of("cache"), 2);
        assert_eq!(cfg.budget_of("sim"), 0);
        assert_eq!(cfg.allows.len(), 1);
        assert!(cfg.allows_site("thread-local", "crates/bench/src/lib.rs"));
        assert!(!cfg.allows_site("thread-local", "crates/bench/src/spec.rs"));
        assert!(!cfg.allows_site("wall-clock", "crates/bench/src/lib.rs"));
    }

    #[test]
    fn directory_allow_entries_prefix_match() {
        let cfg = parse("[[allow]]\nrule = \"env-var\"\npath = \"crates/x/\"\nreason = \"demo\"\n")
            .expect("valid");
        assert!(cfg.allows_site("env-var", "crates/x/src/lib.rs"));
        assert!(!cfg.allows_site("env-var", "crates/y/src/lib.rs"));
    }

    #[test]
    fn unknown_sections_keys_and_rules_are_errors() {
        assert!(parse("[nope]\n").is_err());
        assert!(parse("[paths]\nbogus = []\n").is_err());
        assert!(parse("[[allow]]\nrule = \"nonesuch\"\npath = \"x\"\nreason = \"r\"\n").is_err());
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let e = parse("[[allow]]\nrule = \"env-var\"\npath = \"x\"\n").expect_err("must fail");
        assert!(e.contains("reason"));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = parse("[[allow]]\nrule = \"env-var\"\npath = \"x\"\nreason = \"uses # mark\"\n")
            .expect("valid");
        assert_eq!(cfg.allows[0].reason, "uses # mark");
    }
}
