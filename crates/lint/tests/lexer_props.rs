//! Property tests for the hand-rolled lexer: tokenization must
//! partition any input losslessly, and rule patterns must never fire
//! inside string/char literals or comments, no matter how they nest.

use jumanji_lint::config::LintConfig;
use jumanji_lint::lexer::{lex, TokenKind};
use jumanji_lint::rules::check_file;
use proptest::prelude::*;

/// Atoms whose text *looks* like a violation but lives entirely inside
/// a literal or comment. Joined in any order (newline-separated, so
/// line comments stay bounded) they must produce zero findings.
const HAZARD_LITERALS: &[&str] = &[
    "\"HashMap::new()\"",
    "\"std::env::var(\\\"JUMANJI_THREADS\\\")\"",
    "r\"Instant::now()\"",
    "r#\"SystemTime::now() \"quoted\" tail\"#",
    "r##\"thread_local! { r#\"inner\"# }\"##",
    "b\"HashMap::with_capacity(4)\"",
    "br#\"unsafe { } \"#",
    "c\"HashSet::from([1])\"",
    "'\\''",
    "'a'",
    "b'\\xFF'",
    "// HashMap::new() at end of line",
    "// lint is not fooled by env::var(\"JUMANJI_X\") here",
    "/* Instant::now() */",
    "/* outer /* nested SystemTime::now() */ still comment */",
    "/* unsafe { *p } */",
];

/// Neutral filler: idents, numbers, lifetimes, punctuation that can
/// never combine into a flagged pattern.
const FILLER: &[&str] = &[
    "fn", "foo", "bar", "let", "x", "=", ";", "{", "}", "(", ")", ",", "&", "'a", "1.5e-3", "0xFF",
    "0", "..", "10", "r#type",
];

/// The strictest possible policy: every rule armed for the probed path.
fn strict() -> LintConfig {
    LintConfig {
        determinism: vec!["crates/".into()],
        determinism_exempt: Vec::new(),
        timing_allow: Vec::new(),
        env_allow: Vec::new(),
        figures: vec!["crates/".into()],
        ..LintConfig::default()
    }
}

/// Rebuilds a source from atom indices drawn over both pools.
fn assemble(indices: &[usize]) -> String {
    let mut src = String::new();
    for &i in indices {
        let pool = if i % 2 == 0 { HAZARD_LITERALS } else { FILLER };
        src.push_str(pool[(i / 2) % pool.len()]);
        src.push('\n');
    }
    src
}

/// The partition invariant: tokens are in-bounds, non-overlapping, in
/// order, and the bytes between them are pure whitespace.
fn assert_partitions(src: &str) {
    let tokens = lex(src);
    let mut pos = 0usize;
    for t in &tokens {
        assert!(t.start >= pos, "overlapping tokens at byte {}", t.start);
        assert!(t.end <= src.len() && t.start < t.end);
        assert!(
            src[pos..t.start].bytes().all(|b| b.is_ascii_whitespace()),
            "non-whitespace gap before byte {}",
            t.start
        );
        pos = t.end;
    }
    assert!(src[pos..].bytes().all(|b| b.is_ascii_whitespace()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tokenization_partitions_arbitrary_atom_sequences(
        indices in proptest::collection::vec(0usize..1024, 0..40),
    ) {
        let src = assemble(&indices);
        assert_partitions(&src);
    }

    #[test]
    fn no_rule_fires_inside_literals_or_comments(
        indices in proptest::collection::vec(0usize..1024, 0..40),
    ) {
        let src = assemble(&indices);
        let check = check_file("crates/x/src/lib.rs", &src, &strict());
        prop_assert!(
            check.diags.is_empty(),
            "false positives in:\n{src}\n{:?}",
            check.diags.iter().map(|d| d.render_text()).collect::<Vec<_>>()
        );
        prop_assert!(check.unsafe_sites.is_empty());
    }

    #[test]
    fn nested_block_comments_swallow_hazards_at_any_depth(depth in 1usize..12) {
        let src = format!(
            "ok {}Instant::now() thread_local! unsafe{} tail",
            "/* ".repeat(depth),
            " */".repeat(depth)
        );
        let tokens = lex(&src);
        prop_assert_eq!(tokens.len(), 3);
        prop_assert_eq!(tokens[1].kind, TokenKind::BlockComment);
        assert_partitions(&src);
        let check = check_file("crates/x/src/lib.rs", &src, &strict());
        prop_assert!(check.diags.is_empty());
    }

    #[test]
    fn raw_strings_swallow_hazards_at_any_hash_depth(depth in 1usize..10) {
        let hashes = "#".repeat(depth);
        // The body embeds a quote-hash run one hash short of the
        // terminator, plus hazard patterns — none of it may end the string.
        let body = format!("HashMap::new() \"{} SystemTime::now()", "#".repeat(depth - 1));
        let src = format!("ok r{hashes}\"{body}\"{hashes} tail");
        let tokens = lex(&src);
        prop_assert_eq!(tokens.len(), 3);
        prop_assert_eq!(tokens[1].kind, TokenKind::Str);
        assert_partitions(&src);
        let check = check_file("crates/x/src/lib.rs", &src, &strict());
        prop_assert!(check.diags.is_empty());
    }
}

/// Every hazard atom lexes to exactly one literal/comment token — the
/// static table the properties above build on.
#[test]
fn hazard_atoms_each_lex_to_one_token() {
    for atom in HAZARD_LITERALS {
        let tokens = lex(atom);
        assert_eq!(tokens.len(), 1, "atom {atom:?} -> {tokens:?}");
        assert!(
            matches!(
                tokens[0].kind,
                TokenKind::Str | TokenKind::Char | TokenKind::LineComment | TokenKind::BlockComment
            ),
            "atom {atom:?} lexed as {:?}",
            tokens[0].kind
        );
    }
}
