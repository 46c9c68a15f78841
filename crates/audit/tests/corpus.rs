//! Lexer corpus: the Rust surface syntax where a lexer can misjudge where
//! code ends and a comment, string, char or byte literal, or lifetime
//! begins. Every snippet is real Rust shape (bar the deliberately
//! malformed ones); each test pins the token stream and the `(line, rule)`
//! findings `rules::check_file` reports for the snippet scanned as a
//! simulator-core file, so a regression in either fails with the exact
//! snippet named.

use fleetio_audit::rules;
use fleetio_audit::scan::ScannedFile;
use fleetio_audit::token::{tokenize, Tok, TokKind};

/// The `(line, rule)` findings for `src` scanned as a simulator-core file,
/// where every per-file line rule applies. Also checks that each token
/// starts where its offset says: an identifier, number or punctuation at
/// its text (a raw identifier at its `r#`), a lifetime at its quote, a
/// literal at its quote or prefix; and on the line its offset is on.
fn findings(src: &str) -> Vec<(usize, &'static str)> {
    for t in tokenize(src) {
        let at = &src[t.offset..];
        let placed = match t.kind {
            TokKind::Lifetime => at
                .strip_prefix('\'')
                .is_some_and(|s| s.starts_with(&t.text)),
            TokKind::Str | TokKind::Char => at.starts_with(['"', '\'', 'b', 'r', 'c']),
            _ => {
                at.starts_with(&t.text)
                    || at
                        .strip_prefix("r#")
                        .is_some_and(|s| s.starts_with(&t.text))
            }
        };
        assert!(placed, "{t:?} is not at its offset in {src:?}");
        let line = 1 + src[..t.offset].matches('\n').count();
        assert_eq!(t.line as usize, line, "{t:?} in {src:?}");
    }
    rules::check_file(&ScannedFile::new("crates/des/src/probe.rs", src))
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

fn count(toks: &[Tok], kind: TokKind) -> usize {
    toks.iter().filter(|t| t.kind == kind).count()
}

#[test]
fn lifetime_is_not_a_char_literal() {
    // Read as an unterminated char literal, `'a` would swallow the rest of
    // the line and hide `HashMap` from the rules.
    let src = "fn first<'a>(m: &'a str, h: &'a HashMap<u8, u8>) -> &'a str { m }\n";
    assert_eq!(findings(src), [(1, "hash-iteration")]);
    let toks = tokenize(src);
    assert!(
        toks.iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"),
        "no lifetime token: {toks:?}"
    );
    assert_eq!(
        count(&toks, TokKind::Char),
        0,
        "lifetime lexed as char: {toks:?}"
    );
    assert!(toks.iter().any(|t| t.is_ident("HashMap")));
}

#[test]
fn char_literals_including_escapes_are_opaque() {
    // A `'"'` misread as a lifetime would open a string that hides
    // `Instant`; `'é'` misread the same way would swallow the line.
    let src = r#"let a = 'x'; let b = '\n'; let c = '\''; let d = '\u{1F600}'; let e = 'é'; let f = '\x41'; let q = '"'; let t = Instant::now();"#;
    assert_eq!(findings(src), [(1, "host-time-scope")]);
    let toks = tokenize(src);
    assert_eq!(count(&toks, TokKind::Char), 7, "{toks:?}");
    assert_eq!(count(&toks, TokKind::Lifetime), 0, "{toks:?}");
    assert!(!toks.iter().any(|t| t.is_ident("x41")), "{toks:?}");
}

#[test]
fn comments_and_strings_hide_their_words() {
    let src = "let x = 1; // HashMap here\nlet s = \"thread_rng\"; /* SystemTime */ let y = 2;\n";
    assert_eq!(findings(src), []);
    let toks = tokenize(src);
    for word in ["HashMap", "thread_rng", "SystemTime"] {
        assert!(!toks.iter().any(|t| t.text == word), "{word}: {toks:?}");
    }
    assert!(toks.iter().any(|t| t.is_ident("y") && t.line == 2));
}

#[test]
fn raw_strings_with_hashes() {
    // A raw string whose body contains `"#` must only close at `"##`.
    let src = "let s = r##\"quote \"# inside, Instant::now() and x.unwrap() too\"##; let after = y.unwrap();\n";
    assert_eq!(findings(src), [(1, "no-unwrap")]);
    let toks = tokenize(src);
    assert_eq!(count(&toks, TokKind::Str), 1);
    assert!(toks.iter().any(|t| t.is_ident("after")));
    assert!(!toks.iter().any(|t| t.is_ident("Instant")));
    // A lifetime after a raw string stays a lifetime.
    let src = "let r = r#\".unwrap() inside\"#; let c = 'x'; let lt: &'static str = id;";
    assert_eq!(findings(src), []);
    let toks = tokenize(src);
    assert_eq!(count(&toks, TokKind::Str), 1);
    assert_eq!(count(&toks, TokKind::Char), 1);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
}

#[test]
fn byte_strings_and_byte_literals() {
    let src = "let bs = b\"SystemTime bytes\"; let rb = br#\"raw \" body\"#; let x = b'\\n'; let q = b'\"'; let ok = SystemTime::now();\n";
    assert_eq!(findings(src), [(1, "host-time-scope")]);
    let toks = tokenize(src);
    assert_eq!(count(&toks, TokKind::Str), 2, "{toks:?}");
    assert_eq!(count(&toks, TokKind::Char), 2, "{toks:?}");
    assert!(
        !toks.iter().any(|t| t.is_ident("b") || t.is_ident("raw")),
        "{toks:?}"
    );
    assert!(toks.iter().any(|t| t.is_ident("ok")));
}

#[test]
fn prefix_only_applies_at_identifier_start() {
    // `herb"x"` is ident `herb` followed by a plain string — the trailing
    // `b` must not be folded into the literal as a byte-string prefix.
    let src = "let herb\"x\" = 1;\n"; // not valid Rust, but the lexer must not panic
    assert_eq!(findings(src), []);
    let toks = tokenize(src);
    assert!(toks.iter().any(|t| t.is_ident("herb")), "{toks:?}");
    assert_eq!(count(&toks, TokKind::Str), 1, "{toks:?}");
    assert!(!toks.iter().any(|t| t.is_ident("x")), "{toks:?}");
}

#[test]
fn nested_block_comments() {
    let src =
        "/* outer /* inner HashMap */ still comment Instant::now() x.unwrap() */ let live = 3;\n";
    assert_eq!(findings(src), []);
    let toks = tokenize(src);
    assert!(toks.iter().any(|t| t.is_ident("live")));
    assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
    assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
}

#[test]
fn multiline_string_keeps_line_numbers() {
    let src =
        "let s = \"line one\nline two with HashMap\nline three\";\nlet after = HashSet::new();\n";
    assert_eq!(findings(src), [(4, "hash-iteration")]);
    let toks = tokenize(src);
    let after = toks.iter().find(|t| t.is_ident("after")).unwrap();
    assert_eq!(after.line, 4);
    // The string token carries its START line (1), so rules attributing a
    // finding inside a multi-line literal point at the opening quote.
    let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
    assert_eq!(s.line, 1);
}

#[test]
fn escaped_quote_does_not_end_string() {
    let src = r#"let s = "say \" HashMap \\"; let live = HashSet::new();"#;
    assert_eq!(findings(src), [(1, "hash-iteration")]);
    let toks = tokenize(src);
    assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
    assert!(toks.iter().any(|t| t.is_ident("live")));
}

#[test]
fn raw_identifiers_lex_as_their_name() {
    let src = "fn r#match(r#type: u8) -> u8 { r#type }\n";
    assert_eq!(findings(src), []);
    let toks = tokenize(src);
    assert!(toks.iter().any(|t| t.is_ident("match")), "{toks:?}");
    assert!(toks.iter().any(|t| t.is_ident("type")), "{toks:?}");
}

#[test]
fn composed_puncts_and_numbers() {
    let src = "let x: u64 = 0x9e37_79b9; let y = 1.5e3 + x as f64; v += 1; p::<u8>();\n";
    assert_eq!(findings(src), []);
    let toks = tokenize(src);
    assert!(
        toks.iter()
            .any(|t| t.kind == TokKind::Int && t.text == "0x9e37_79b9"),
        "{toks:?}"
    );
    assert!(
        toks.iter()
            .any(|t| t.kind == TokKind::Float && t.text == "1.5e3"),
        "{toks:?}"
    );
    assert!(toks.iter().any(|t| t.is_punct("+=")), "{toks:?}");
    assert!(toks.iter().any(|t| t.is_punct("::")), "{toks:?}");
}

#[test]
fn attribute_gating_sees_through_literal_laden_attrs() {
    // `#[cfg(feature = "audit")]` holds a string literal: the attribute is
    // matched in the source text at its `#` token, not in the tokens.
    let src = "\
struct S;

#[cfg(feature = \"audit\")]
fn audit_only() {
    let m = std::collections::HashMap::<u8, u8>::new();
    drop(m);
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let h = std::time::Instant::now();
        drop(h);
    }
}

fn live() {}
";
    let f = ScannedFile::new("crates/x/src/lib.rs", src);
    assert!(f.line_is_audit(5), "HashMap line should be audit-gated");
    assert!(!f.line_is_test(5));
    assert!(f.line_is_test(13), "Instant line should be test-gated");
    assert!(!f.line_is_audit(18));
    assert!(!f.line_is_test(18));
    // The line rules skip test code only: audit-gated code still counts.
    assert_eq!(findings(src), [(5, "hash-iteration")]);
}

#[test]
fn attributes_in_strings_and_comments_open_no_region() {
    for src in [
        "let s = \"#[cfg(test)]\";\nfn prod() { x.unwrap(); }\n",
        "// #[cfg(test)]\nfn prod() { x.unwrap(); }\n",
        "/* #[cfg(test)] */ fn prod() {\n x.unwrap(); }\n",
    ] {
        assert_eq!(findings(src), [(2, "no-unwrap")], "{src}");
    }
    assert_eq!(findings("#[cfg(test)]\nfn t() { x.unwrap(); }\n"), []);
}

#[test]
fn lexer_never_panics_on_malformed_input() {
    // Truncated / garbage inputs: the scanner runs over work-in-progress
    // trees, so every state machine must terminate gracefully.
    for src in [
        "let s = \"unterminated",
        "let c = 'u",
        "r###\"never closed",
        "/* never closed /* nested",
        "'",
        "\\",
        "b'",
        "'\\",
        "r#",
        "0x",
        "#[cfg(test)",
        "x.expect(",
        "ident\u{0}with\u{0}nul",
    ] {
        let _ = tokenize(src);
        let _ = rules::check_file(&ScannedFile::new("crates/vssd/src/engine/x.rs", src));
    }
}
