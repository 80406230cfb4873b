//! The rule checkers.
//!
//! All rules are *lexical*: they pattern-match the token stream from
//! [`crate::lexer`], so nothing inside string literals or comments can
//! ever trigger them. Context that a parser would give us — test
//! modules, enclosing functions, attributes — is recovered with small
//! brace-matching passes over the same stream.
//!
//! | rule id          | invariant                                                  |
//! |------------------|------------------------------------------------------------|
//! | `default-hasher` | no `RandomState` maps/sets in determinism-critical crates  |
//! | `wall-clock`     | no `Instant::now`/`SystemTime::now` outside the allowlist  |
//! | `thread-local`   | no `thread_local!` (PR 5 removed the per-thread memos)     |
//! | `plan-bypass`    | render code (figures outside `plan.rs`) names no `CellCache` |
//! | `safety-comment` | every `unsafe` carries a `// SAFETY:` comment              |
//! | `unsafe-budget`  | per-crate `unsafe` counts stay within `lint.toml` budgets  |
//! | `env-var`        | `JUMANJI_*` env reads only in the config surface           |
//! | `allow-syntax`   | `// lint:allow(rule): reason` is well-formed and justified |
//!
//! Escape hatch: `// lint:allow(<rule>): <justification>` on the line
//! of (or the line above) the finding suppresses it; placed immediately
//! above a `fn` item it covers the whole function body. The
//! justification string is mandatory — an allow without one is itself
//! a violation (`allow-syntax`).

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};

/// Every rule id, in severity-agnostic display order. `lint.toml`
/// entries and `lint:allow` markers must name one of these.
pub const RULES: &[&str] = &[
    "default-hasher",
    "wall-clock",
    "thread-local",
    "plan-bypass",
    "safety-comment",
    "unsafe-budget",
    "env-var",
    "allow-syntax",
];

/// `HashMap`/`HashSet` constructors that only exist for the default
/// `RandomState` hasher (`with_hasher` / `with_capacity_and_hasher`
/// deliberately absent).
const HASHER_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// How many lines above an `unsafe` keyword a `// SAFETY:` comment may
/// sit and still count.
const SAFETY_WINDOW: u32 = 5;

/// Result of checking one file.
pub struct FileCheck {
    /// Findings, already filtered by inline allows and `lint.toml`.
    pub diags: Vec<Diagnostic>,
    /// Every `unsafe` keyword site (line, col) — the runner sums these
    /// per crate against the `unsafe-budget`.
    pub unsafe_sites: Vec<(u32, u32)>,
}

/// An inline `lint:allow` marker and the line range it covers.
struct InlineAllow {
    rule: String,
    from_line: u32,
    to_line: u32,
}

/// A `fn` item: name token plus the code index closing its body.
struct FnSpan {
    name: usize,
    close: usize,
}

/// Does `rel` (repo-relative, `/`-separated) fall under `list`? An
/// entry matches as an exact file or as a directory prefix when it
/// ends with `/`.
pub fn in_paths(rel: &str, list: &[String]) -> bool {
    list.iter()
        .any(|p| rel == p.as_str() || (p.ends_with('/') && rel.starts_with(p.as_str())))
}

struct Ctx<'a> {
    rel: &'a str,
    src: &'a str,
    toks: &'a [Token],
    /// Indices into `toks` of non-comment tokens.
    code: Vec<usize>,
    cfg: &'a LintConfig,
    /// Byte ranges under `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
    /// Whole file is test/bench code (path-derived).
    file_is_test: bool,
    allows: Vec<InlineAllow>,
    fns: Vec<FnSpan>,
    diags: Vec<Diagnostic>,
}

impl<'a> Ctx<'a> {
    fn tok(&self, ci: usize) -> &Token {
        &self.toks[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.src)
    }

    fn is_punct(&self, ci: usize, ch: char) -> bool {
        ci < self.code.len()
            && self.tok(ci).kind == TokenKind::Punct
            && self.text(ci) == ch.to_string().as_str()
    }

    fn is_ident(&self, ci: usize, s: &str) -> bool {
        ci < self.code.len() && self.tok(ci).kind == TokenKind::Ident && self.text(ci) == s
    }

    fn push(&mut self, ci: usize, rule: &'static str, message: String, help: &str) {
        let t = *self.tok(ci);
        self.diags.push(Diagnostic {
            path: self.rel.to_string(),
            line: t.line,
            col: t.col,
            rule,
            message,
            help: help.to_string(),
        });
    }

    /// Index of the matching close delimiter for the open one at `ci`,
    /// honouring nesting of the same pair.
    fn matching(&self, ci: usize, open: char, close: char) -> Option<usize> {
        let mut depth = 0usize;
        for i in ci..self.code.len() {
            if self.is_punct(i, open) {
                depth += 1;
            } else if self.is_punct(i, close) {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }

    /// If the code token at `ci` starts an attribute (`#` `[`), the
    /// index just past its closing `]`; otherwise `ci`.
    fn skip_attr(&self, ci: usize) -> usize {
        if self.is_punct(ci, '#') && self.is_punct(ci + 1, '[') {
            if let Some(close) = self.matching(ci + 1, '[', ']') {
                return close + 1;
            }
        }
        ci
    }

    /// From an item's first token (attributes already skipped), the
    /// index of its body's `{` — or `None` for a body-less item
    /// (`mod x;`, trait method declarations).
    fn body_open(&self, mut ci: usize) -> Option<usize> {
        let mut depth = 0usize; // () and [] — a signature's `[u8; 3]` hides its `;`
        while ci < self.code.len() {
            if self.is_punct(ci, '(') || self.is_punct(ci, '[') {
                depth += 1;
            } else if self.is_punct(ci, ')') || self.is_punct(ci, ']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 {
                if self.is_punct(ci, '{') {
                    return Some(ci);
                }
                if self.is_punct(ci, ';') {
                    return None;
                }
            }
            ci += 1;
        }
        None
    }

    fn in_test(&self, byte: usize) -> bool {
        self.file_is_test || self.test_ranges.iter().any(|&(s, e)| s <= byte && byte < e)
    }

    fn token_in_test(&self, ci: usize) -> bool {
        self.in_test(self.tok(ci).start)
    }
}

/// Collects `fn` item spans (name + body end).
fn scan_fns(ctx: &mut Ctx) {
    let mut spans = Vec::new();
    for ci in 0..ctx.code.len() {
        if !ctx.is_ident(ci, "fn") || ci + 1 >= ctx.code.len() {
            continue;
        }
        if ctx.tok(ci + 1).kind != TokenKind::Ident {
            continue; // `fn(` pointer type
        }
        if let Some(open) = ctx.body_open(ci + 2) {
            if let Some(close) = ctx.matching(open, '{', '}') {
                spans.push(FnSpan {
                    name: ci + 1,
                    close,
                });
            }
        }
    }
    ctx.fns = spans;
}

/// Collects `#[cfg(test)]` / `#[test]` item byte ranges.
fn scan_test_ranges(ctx: &mut Ctx) {
    let mut ranges = Vec::new();
    let mut ci = 0;
    while ci < ctx.code.len() {
        if !(ctx.is_punct(ci, '#') && ctx.is_punct(ci + 1, '[')) {
            ci += 1;
            continue;
        }
        let Some(close) = ctx.matching(ci + 1, '[', ']') else {
            break;
        };
        let is_test_attr = {
            let body: Vec<&str> = (ci + 2..close).map(|i| ctx.text(i)).collect();
            body == ["test"] || (body.first() == Some(&"cfg") && body.contains(&"test"))
        };
        if is_test_attr {
            // Skip any further attributes, then take the item body.
            let mut item = close + 1;
            loop {
                let next = ctx.skip_attr(item);
                if next == item {
                    break;
                }
                item = next;
            }
            if let Some(open) = ctx.body_open(item) {
                if let Some(body_close) = ctx.matching(open, '{', '}') {
                    ranges.push((ctx.tok(open).start, ctx.tok(body_close).end));
                    ci = open + 1; // ranges may nest; keep scanning inside
                    continue;
                }
            }
        }
        ci = close + 1;
    }
    ctx.test_ranges = ranges;
}

/// Parses `lint:allow` markers out of comments; malformed ones become
/// `allow-syntax` findings.
fn scan_inline_allows(ctx: &mut Ctx) {
    let help = "write `// lint:allow(<rule>): <justification>` with a known rule id";
    let toks = ctx.toks;
    for t in toks {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(ctx.src);
        // A marker is a directive: it must start the comment. Doc
        // comments are prose and never markers.
        let body = if t.kind == TokenKind::LineComment {
            let rest = text.strip_prefix("//").unwrap_or(text);
            if rest.starts_with('/') || rest.starts_with('!') {
                continue;
            }
            rest
        } else {
            let rest = text.strip_prefix("/*").unwrap_or(text);
            if rest.starts_with('*') || rest.starts_with('!') {
                continue;
            }
            rest.strip_suffix("*/").unwrap_or(rest)
        };
        let body = body.trim();
        if !body.starts_with("lint:allow") {
            continue;
        }
        let rest = &body["lint:allow".len()..];
        let parsed = rest.strip_prefix('(').and_then(|r| {
            let (rule, tail) = r.split_once(')')?;
            let reason = tail.trim_start().strip_prefix(':')?.trim();
            Some((rule.trim().to_string(), reason.to_string()))
        });
        let bad = |ctx: &mut Ctx, msg: String| {
            ctx.diags.push(Diagnostic {
                path: ctx.rel.to_string(),
                line: t.line,
                col: t.col,
                rule: "allow-syntax",
                message: msg,
                help: help.to_string(),
            });
        };
        let Some((rule, reason)) = parsed else {
            bad(ctx, "malformed `lint:allow` marker".to_string());
            continue;
        };
        if !RULES.contains(&rule.as_str()) {
            bad(ctx, format!("`lint:allow` names unknown rule `{rule}`"));
            continue;
        }
        if reason.is_empty() {
            bad(ctx, format!("`lint:allow({rule})` has no justification"));
            continue;
        }
        // Coverage: the marker's own line plus the next code line; if
        // the next item is a `fn`, the whole function body.
        let mut to_line = t.line;
        if let Some(&first) = ctx.code.iter().find(|&&i| ctx.toks[i].start >= t.end) {
            let mut ci = ctx.code.iter().position(|&i| i == first).unwrap();
            to_line = ctx.toks[first].line;
            // Skip attributes and item modifiers to see whether a fn
            // follows (`pub(crate) async fn …`).
            loop {
                let next = ctx.skip_attr(ci);
                if next != ci {
                    ci = next;
                    continue;
                }
                let modifier = ci < ctx.code.len()
                    && ([
                        "pub", "const", "async", "unsafe", "extern", "crate", "in", "super", "self",
                    ]
                    .iter()
                    .any(|m| ctx.is_ident(ci, m))
                        || ctx.is_punct(ci, '(')
                        || ctx.is_punct(ci, ')')
                        || ctx.tok(ci).kind == TokenKind::Str);
                if modifier {
                    ci += 1;
                    continue;
                }
                break;
            }
            if ci < ctx.code.len() && ctx.is_ident(ci, "fn") {
                if let Some(close) = ctx.fns.iter().find(|f| f.name == ci + 1).map(|f| f.close) {
                    to_line = ctx.tok(close).line;
                }
            }
        }
        ctx.allows.push(InlineAllow {
            rule,
            from_line: t.line,
            to_line,
        });
    }
}

/// Counts top-level generic arguments of the `<…>` starting at `ci`
/// (which must be the `<`). Returns `None` when the bracket run never
/// closes (a comparison, not generics).
fn generic_args(ctx: &Ctx, ci: usize) -> Option<usize> {
    // A number right after `<` means a comparison (`count < 3`), not a
    // generic application — neither map type takes const generics.
    if ci + 1 < ctx.code.len() && ctx.tok(ci + 1).kind == TokenKind::Number {
        return None;
    }
    let mut angle = 0usize;
    let mut paren = 0usize;
    let mut args = 0usize;
    let mut any = false;
    for i in ci..ctx.code.len().min(ci + 256) {
        if ctx.is_punct(i, '<') {
            angle += 1;
        } else if ctx.is_punct(i, '>') {
            angle = angle.checked_sub(1)?;
            if angle == 0 {
                return Some(if any { args + 1 } else { 0 });
            }
        } else if ctx.is_punct(i, '(') || ctx.is_punct(i, '[') {
            paren += 1;
        } else if ctx.is_punct(i, ')') || ctx.is_punct(i, ']') {
            paren = paren.saturating_sub(1);
        } else if ctx.is_punct(i, ',') && angle == 1 && paren == 0 {
            args += 1;
        } else if ctx.is_punct(i, ';') && angle == 1 {
            return None; // statement boundary: was a comparison
        } else if i > ci {
            any = true;
        }
    }
    None
}

/// `default-hasher`: `HashMap`/`HashSet` with the implicit
/// `RandomState` in determinism-critical, non-test code.
fn rule_default_hasher(ctx: &mut Ctx) {
    let applies =
        in_paths(ctx.rel, &ctx.cfg.determinism) && !in_paths(ctx.rel, &ctx.cfg.determinism_exempt);
    if !applies {
        return;
    }
    for ci in 0..ctx.code.len() {
        let (name, full_args) = if ctx.is_ident(ci, "HashMap") {
            ("HashMap", 3)
        } else if ctx.is_ident(ci, "HashSet") {
            ("HashSet", 2)
        } else {
            continue;
        };
        if ctx.token_in_test(ci) {
            continue;
        }
        // `Name<…>` or `Name::<…>`: flag when the hasher slot is
        // defaulted; `Name::new()` etc.: RandomState-only constructors.
        let mut angle_at = None;
        if ctx.is_punct(ci + 1, '<') {
            angle_at = Some(ci + 1);
        } else if ctx.is_punct(ci + 1, ':') && ctx.is_punct(ci + 2, ':') {
            if ctx.is_punct(ci + 3, '<') {
                angle_at = Some(ci + 3);
            } else if HASHER_CTORS.iter().any(|m| ctx.is_ident(ci + 3, m)) {
                let method = ctx.text(ci + 3).to_string();
                ctx.push(
                    ci,
                    "default-hasher",
                    format!(
                        "`{name}::{method}` builds a `RandomState`-hashed {name} in a \
                         determinism-critical path"
                    ),
                    "use `Mix64Build` (nuca_types::hash), `ShardedMap`, or `BTreeMap` so \
                     iteration order cannot vary per process",
                );
                continue;
            }
        }
        if let Some(at) = angle_at {
            if let Some(args) = generic_args(ctx, at) {
                if args > 0 && args < full_args {
                    ctx.push(
                        ci,
                        "default-hasher",
                        format!(
                            "`{name}` type with the hasher parameter defaulted to \
                             `RandomState` in a determinism-critical path"
                        ),
                        "name the hasher: `HashMap<K, V, Mix64Build>` / \
                         `HashSet<T, Mix64Build>`, or switch to `BTreeMap`",
                    );
                }
            }
        }
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime::now` outside the
/// timing allowlist.
fn rule_wall_clock(ctx: &mut Ctx) {
    if in_paths(ctx.rel, &ctx.cfg.timing_allow) {
        return;
    }
    for ci in 0..ctx.code.len() {
        let name = if ctx.is_ident(ci, "Instant") {
            "Instant"
        } else if ctx.is_ident(ci, "SystemTime") {
            "SystemTime"
        } else {
            continue;
        };
        if ctx.is_punct(ci + 1, ':') && ctx.is_punct(ci + 2, ':') && ctx.is_ident(ci + 3, "now") {
            if ctx.token_in_test(ci) {
                continue;
            }
            ctx.push(
                ci,
                "wall-clock",
                format!("`{name}::now()` outside the timing allowlist"),
                "fingerprinted outputs must not read the wall clock; measure in `exec/` \
                 or the suite-stats layer and thread the value through",
            );
        }
    }
}

/// `thread-local`: no new `thread_local!` declarations.
fn rule_thread_local(ctx: &mut Ctx) {
    for ci in 0..ctx.code.len() {
        if ctx.is_ident(ci, "thread_local") && ctx.is_punct(ci + 1, '!') {
            if ctx.token_in_test(ci) {
                continue;
            }
            ctx.push(
                ci,
                "thread-local",
                "`thread_local!` declaration (per-thread state broke determinism before; \
                 PR 5 removed the memos)"
                    .to_string(),
                "use a fingerprint-keyed `ShardedMap`, or add a justified `lint.toml` \
                 allow if this is genuinely scratch space",
            );
        }
    }
}

/// `env-var`: `env::var("JUMANJI_*")` outside the config surface.
fn rule_env_var(ctx: &mut Ctx) {
    if in_paths(ctx.rel, &ctx.cfg.env_allow) {
        return;
    }
    for ci in 0..ctx.code.len() {
        if !ctx.is_ident(ci, "env") {
            continue;
        }
        if !(ctx.is_punct(ci + 1, ':') && ctx.is_punct(ci + 2, ':')) {
            continue;
        }
        if !(ctx.is_ident(ci + 3, "var") || ctx.is_ident(ci + 3, "var_os")) {
            continue;
        }
        if !ctx.is_punct(ci + 4, '(') {
            continue;
        }
        let is_jumanji = ci + 5 < ctx.code.len()
            && ctx.tok(ci + 5).kind == TokenKind::Str
            && ctx.text(ci + 5).contains("JUMANJI_");
        if !is_jumanji || ctx.token_in_test(ci) {
            continue;
        }
        ctx.push(
            ci,
            "env-var",
            format!(
                "`JUMANJI_*` environment read ({}) outside the config surface",
                ctx.text(ci + 5)
            ),
            "route ambient configuration through `spec.rs` so every knob is visible in \
             one place",
        );
    }
}

/// `plan-bypass`: render code — the figure paths, except the plan pass
/// (`plan.rs`) — naming `CellCache`. A render folds the results the
/// executor hands it; a cache in reach would let it compute or look up
/// cells its plan never listed.
fn rule_plan_bypass(ctx: &mut Ctx) {
    if !in_paths(ctx.rel, &ctx.cfg.figures) || ctx.rel.ends_with("/plan.rs") {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.is_ident(ci, "CellCache") && !ctx.token_in_test(ci) {
            ctx.push(
                ci,
                "plan-bypass",
                "render code names `CellCache`".to_string(),
                "list the cell in the figure's plan (`figures/plan.rs`) and fold its result \
                 from the `FigureResults` the executor passes the render",
            );
        }
    }
}

/// `safety-comment`: every `unsafe` keyword needs `// SAFETY:` within
/// the preceding window. Also records all unsafe sites for the budget.
fn rule_safety_comment(ctx: &mut Ctx) -> Vec<(u32, u32)> {
    let mut sites = Vec::new();
    for ti in 0..ctx.toks.len() {
        let t = ctx.toks[ti];
        if t.kind != TokenKind::Ident || t.text(ctx.src) != "unsafe" {
            continue;
        }
        sites.push((t.line, t.col));
        let documented = ctx.toks[..ti].iter().rev().any(|c| {
            matches!(c.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && c.line + SAFETY_WINDOW >= t.line
                && c.line <= t.line
                && c.text(ctx.src).contains("SAFETY:")
        });
        if !documented {
            ctx.diags.push(Diagnostic {
                path: ctx.rel.to_string(),
                line: t.line,
                col: t.col,
                rule: "safety-comment",
                message: "`unsafe` without a `// SAFETY:` comment".to_string(),
                help: format!(
                    "state the invariant that makes this sound in a `// SAFETY:` comment \
                     within {SAFETY_WINDOW} lines above"
                ),
            });
        }
    }
    sites
}

/// Checks one file and returns filtered findings plus unsafe sites.
pub fn check_file(rel: &str, src: &str, cfg: &LintConfig) -> FileCheck {
    let toks = lex(src);
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| {
            !matches!(
                toks[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let file_is_test = rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/");
    let mut ctx = Ctx {
        rel,
        src,
        toks: &toks,
        code,
        cfg,
        test_ranges: Vec::new(),
        file_is_test,
        allows: Vec::new(),
        fns: Vec::new(),
        diags: Vec::new(),
    };
    scan_fns(&mut ctx);
    scan_test_ranges(&mut ctx);
    scan_inline_allows(&mut ctx);
    rule_default_hasher(&mut ctx);
    rule_wall_clock(&mut ctx);
    rule_thread_local(&mut ctx);
    rule_env_var(&mut ctx);
    rule_plan_bypass(&mut ctx);
    let unsafe_sites = rule_safety_comment(&mut ctx);
    let Ctx { allows, diags, .. } = ctx;
    let keep = |d: &Diagnostic| {
        if cfg.allows_site(d.rule, rel) {
            return false;
        }
        // `allow-syntax` cannot be silenced by the marker that caused it.
        d.rule == "allow-syntax"
            || !allows
                .iter()
                .any(|a| a.rule == d.rule && a.from_line <= d.line && d.line <= a.to_line)
    };
    let diags = diags.into_iter().filter(keep).collect();
    FileCheck {
        diags,
        unsafe_sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig {
            determinism: vec!["crates/".into()],
            determinism_exempt: vec!["crates/rand_shim/".into()],
            timing_allow: vec!["crates/bench/src/exec/".into()],
            env_allow: vec!["crates/bench/src/spec.rs".into()],
            figures: vec!["crates/bench/src/figures/".into()],
            ..LintConfig::default()
        }
    }

    fn rules_hit(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_file(rel, src, &cfg())
            .diags
            .iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn default_hasher_ctor_and_type_forms() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let m = HashMap::new();\n\
                   let t: HashMap<u32, u32> = HashMap::with_capacity(4);\n\
                   let ok: HashMap<u32, u32, Mix64Build> = HashMap::default();\n\
                   let s: HashSet<u8> = HashSet::from([1]);\n\
                   }\n";
        let hits = rules_hit("crates/x/src/lib.rs", src);
        assert_eq!(
            hits,
            vec![
                ("default-hasher", 3),
                ("default-hasher", 4),
                ("default-hasher", 4),
                ("default-hasher", 6),
                ("default-hasher", 6),
            ]
        );
    }

    #[test]
    fn default_hasher_ignores_strings_tests_and_exempt_paths() {
        let src = "fn f() { let s = \"HashMap::new()\"; }\n\
                   #[cfg(test)]\nmod tests {\n fn g() { let m = HashMap::new(); }\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
        let bad = "fn f() { let m = HashMap::new(); }\n";
        assert!(rules_hit("crates/rand_shim/src/lib.rs", bad).is_empty());
        assert!(!rules_hit("crates/x/src/lib.rs", bad).is_empty());
        assert!(rules_hit("crates/x/tests/t.rs", bad).is_empty());
    }

    #[test]
    fn comparisons_are_not_generics() {
        let src = "fn f(a: usize) -> bool { let HashMap = a; HashMap < 3 && 4 > a }\n";
        // Degenerate shadowing: `HashMap < 3 && 4 > a` must not parse
        // as a 2-argument generic application.
        let hits = rules_hit("crates/x/src/lib.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn wall_clock_outside_allowlist() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }\n";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", src),
            vec![("wall-clock", 1), ("wall-clock", 1)]
        );
        assert!(rules_hit("crates/bench/src/exec/sched.rs", src).is_empty());
    }

    #[test]
    fn thread_local_flagged_outside_tests() {
        let src = "thread_local! { static X: u32 = 0; }\n";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", src),
            vec![("thread-local", 1)]
        );
    }

    #[test]
    fn env_var_only_for_jumanji_keys_outside_surface() {
        let src = "fn f() { let a = std::env::var(\"JUMANJI_THREADS\"); \
                   let b = std::env::var(\"HOME\"); }\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", src), vec![("env-var", 1)]);
        assert!(rules_hit("crates/bench/src/spec.rs", src).is_empty());
    }

    #[test]
    fn plan_bypass_flags_cell_cache_in_render_code() {
        let pure = "fn fig(results: &FigureResults) {\n\
                    draw(&results.runs[0]);\n}\n";
        assert!(rules_hit("crates/bench/src/figures/f.rs", pure).is_empty());
        let bad = "fn fig(cache: &CellCache) {\n\
                   let mix = WorkloadMix::lc_only(7);\n\
                   CellCache::global().run(&mix);\n}\n";
        assert_eq!(
            rules_hit("crates/bench/src/figures/f.rs", bad),
            vec![("plan-bypass", 1), ("plan-bypass", 3)]
        );
        // Outside figure paths the rule is silent.
        assert!(rules_hit("crates/bench/src/suite.rs", bad).is_empty());
    }

    #[test]
    fn the_plan_pass_may_name_the_cache() {
        let src = "pub fn of(spec: &Spec) -> Plan {\n\
                   of_in(spec, CellCache::global())\n}\n";
        assert!(rules_hit("crates/bench/src/figures/plan.rs", src).is_empty());
        // Tests in render files may build caches of their own.
        let test = "#[cfg(test)]\nmod tests {\n fn t() { let c = CellCache::new(); }\n}\n";
        assert!(rules_hit("crates/bench/src/figures/f.rs", test).is_empty());
    }

    #[test]
    fn safety_comment_window() {
        let bad = "fn f() { unsafe { core() } }\n";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", bad),
            vec![("safety-comment", 1)]
        );
        let good = "// SAFETY: bounds checked above.\nfn f() { unsafe { core() } }\n";
        assert!(rules_hit("crates/x/src/lib.rs", good).is_empty());
        let far = "// SAFETY: too far away.\n\n\n\n\n\n\nfn f() { unsafe { core() } }\n";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", far),
            vec![("safety-comment", 8)]
        );
    }

    #[test]
    fn unsafe_sites_counted_even_when_documented() {
        let src = "// SAFETY: fine.\nfn f() { unsafe { a() } }\n";
        let check = check_file("crates/x/src/lib.rs", src, &cfg());
        assert!(check.diags.is_empty());
        assert_eq!(check.unsafe_sites.len(), 1);
    }

    #[test]
    fn inline_allow_suppresses_line_and_fn_scope() {
        let line = "fn f() {\n\
                    // lint:allow(wall-clock): coarse progress display only.\n\
                    let t = Instant::now();\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", line).is_empty());
        let fn_scope = "// lint:allow(wall-clock): whole fn is display-only.\n\
                        pub fn f() {\n\
                        let a = Instant::now();\n\
                        let b = Instant::now();\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", fn_scope).is_empty());
        let elsewhere = "// lint:allow(wall-clock): wrong rule for the site below.\n\
                         let x = 1;\n\
                         fn g() { let t = SystemTime::now(); }\n";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", elsewhere),
            vec![("wall-clock", 3)]
        );
    }

    #[test]
    fn malformed_allows_are_their_own_finding() {
        let hits = rules_hit(
            "crates/x/src/lib.rs",
            "// lint:allow(wall-clock)\n// lint:allow(nonesuch): r\n// lint:allow broken\n",
        );
        assert_eq!(
            hits,
            vec![
                ("allow-syntax", 1),
                ("allow-syntax", 2),
                ("allow-syntax", 3)
            ]
        );
    }

    #[test]
    fn toml_allowlist_suppresses_by_path() {
        let mut c = cfg();
        c.allows.push(crate::config::AllowEntry {
            rule: "thread-local".into(),
            path: "crates/x/src/lib.rs".into(),
            reason: "scratch".into(),
        });
        let src = "thread_local! { static X: u32 = 0; }\n";
        assert!(check_file("crates/x/src/lib.rs", src, &c).diags.is_empty());
        assert!(!check_file("crates/y/src/lib.rs", src, &c).diags.is_empty());
    }
}
