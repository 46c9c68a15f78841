//! The one Rust lexer of the static pass.
//!
//! Every rule in [`crate::rules`], the test and audit region map in
//! [`crate::scan`], the item extractor ([`crate::items`]) and the call
//! graph ([`crate::graph`]) read its tokens: identifiers, literals and
//! punctuation with their line and byte offset. It is deliberately
//! smaller than rustc's — it does not interpret literal values and it
//! folds every string flavour into one `Str` kind — but it must
//! *classify* correctly: a lifetime is not a char literal, a raw string's
//! body is not code, and a nested block comment ends where rustc says it
//! ends. The corpus test (`tests/corpus.rs`) pins those edge cases.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`, `'_`) — the text excludes the quote.
    Lifetime,
    /// Integer literal, with its suffix if any.
    Int,
    /// Float literal (has a `.`, an exponent, or an `f32`/`f64` suffix).
    Float,
    /// Any string literal flavour (`"…"`, `r#"…"#`, `b"…"`, `br"…"`,
    /// `c"…"`). The text is empty: prose must never look like code.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`). Text is empty.
    Char,
    /// Punctuation. Multi-character operators that the analyses care
    /// about (`::` and `+=`) are emitted as single tokens; everything
    /// else is one character per token.
    Punct,
}

/// One lexed token with its 1-based source line and the byte offset of
/// its first byte in the source (the `r` of `r#match`, the opening quote
/// or prefix of a literal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub offset: usize,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Lexes `src` into tokens, skipping whitespace and comments.
///
/// Invalid input (an unterminated string, a stray byte) never panics: the
/// lexer emits what it can and moves one byte forward, so the analyses
/// degrade to seeing less rather than dying on a file rustc would reject
/// anyway.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let (c, offset) = (b[i], i);
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                i = skip_string(b, i, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                    offset,
                });
            }
            b'\'' => {
                // Lifetime vs char literal: a char literal closes after
                // one scalar (of any UTF-8 width) or one escape; a
                // lifetime is `'` + identifier with no closing quote.
                if let Some(end) = char_literal_end(b, i) {
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                        offset,
                    });
                    line += count_newlines(&b[i..end]);
                    i = end;
                } else {
                    let start = i + 1;
                    let mut j = start;
                    while j < b.len() && is_ident_byte(b[j]) {
                        j += 1;
                    }
                    let text = src.get(start..j).unwrap_or("").to_string();
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text,
                        line,
                        offset,
                    });
                    i = j.max(i + 1);
                }
            }
            c if c.is_ascii_digit() => {
                let (end, kind) = scan_number(b, i);
                toks.push(Tok {
                    kind,
                    text: src[i..end].to_string(),
                    line,
                    offset,
                });
                i = end;
            }
            c if is_ident_start(c) => {
                // Possible literal prefixes: r"", r#"", b"", br"", b'',
                // c"", cr"" and the raw identifier r#ident.
                let start_line = line;
                if let Some((end, kind)) = prefixed_literal(b, i, &mut line) {
                    toks.push(Tok {
                        kind,
                        text: String::new(),
                        line: start_line,
                        offset,
                    });
                    i = end;
                    continue;
                }
                let start = if b[i] == b'r' && b.get(i + 1) == Some(&b'#') {
                    i + 2 // raw identifier: keep the name, drop `r#`
                } else {
                    i
                };
                let mut j = start;
                while j < b.len() && is_ident_byte(b[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..j].to_string(),
                    line,
                    offset,
                });
                i = j;
            }
            b':' if b.get(i + 1) == Some(&b':') => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "::".to_string(),
                    line,
                    offset,
                });
                i += 2;
            }
            b'+' if b.get(i + 1) == Some(&b'=') => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "+=".to_string(),
                    line,
                    offset,
                });
                i += 2;
            }
            c if c.is_ascii() => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                    offset,
                });
                i += 1;
            }
            _ => {
                // Non-ASCII outside strings/idents: skip the scalar.
                let w = utf8_width(c);
                i += w;
            }
        }
    }
    toks
}

/// If a char/byte literal starts at `b[i]` (which is `'`), returns the
/// index just past its closing quote; `None` means lifetime.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i + 1) {
        Some(b'\\') => {
            // Escape: past the escaped character (which may be a quote),
            // scan to the closing quote on the same line (`\x41`, `\u{…}`).
            let mut j = i + 3;
            while j < b.len() && !matches!(b[j], b'\'' | b'\n') {
                j += 1;
            }
            (b.get(j) == Some(&b'\'')).then_some(j + 1)
        }
        Some(&c) => {
            // One scalar of any UTF-8 width, then a closing quote. An
            // ASCII-only check here would misread `'é'` as a lifetime.
            let w = utf8_width(c);
            (b.get(i + 1 + w) == Some(&b'\'')).then_some(i + 2 + w)
        }
        None => None,
    }
}

/// If a prefixed literal (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`,
/// `c"…"`) starts at `i`, consumes it and returns `(end, kind)`.
fn prefixed_literal(b: &[u8], i: usize, line: &mut u32) -> Option<(usize, TokKind)> {
    let c = b[i];
    if !matches!(c, b'r' | b'b' | b'c') {
        return None;
    }
    // `b'x'` byte literal.
    if c == b'b' && b.get(i + 1) == Some(&b'\'') {
        let end = char_literal_end(b, i + 1)?;
        return Some((end, TokKind::Char));
    }
    let mut j = i + 1;
    if (c == b'b' || c == b'c') && b.get(j) == Some(&b'r') {
        j += 1;
    }
    let raw = j > i + 1 || c == b'r';
    let mut hashes = 0usize;
    while raw && b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    if raw && (hashes > 0 || j > i) {
        // Raw string (or raw identifier fallthrough was excluded by the
        // quote check above): scan to `"` + `hashes` hashes.
        let mut k = j + 1;
        loop {
            match b.get(k) {
                None => return Some((k, TokKind::Str)),
                Some(b'\n') => {
                    *line += 1;
                    k += 1;
                }
                Some(b'"') => {
                    let mut seen = 0usize;
                    let mut m = k + 1;
                    while seen < hashes && b.get(m) == Some(&b'#') {
                        seen += 1;
                        m += 1;
                    }
                    if seen == hashes {
                        return Some((m, TokKind::Str));
                    }
                    k += 1;
                }
                Some(_) => k += 1,
            }
        }
    }
    // Cooked prefixed string: `b"…"` / `c"…"`.
    let end = skip_string(b, j, line);
    Some((end, TokKind::Str))
}

/// Skips a cooked string whose opening `"` is at `i`; returns the index
/// just past the closing quote (or `b.len()` if unterminated).
fn skip_string(b: &[u8], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                // A line-continuation escape still ends a source line.
                if b.get(j + 1) == Some(&b'\n') {
                    *line += 1;
                }
                j += 2;
            }
            b'"' => return j + 1,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Scans a numeric literal starting at a digit; returns `(end, kind)`.
fn scan_number(b: &[u8], i: usize) -> (usize, TokKind) {
    let mut j = i;
    let mut float = false;
    if b[i] == b'0' && matches!(b.get(i + 1), Some(b'x' | b'o' | b'b')) {
        j = i + 2;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        return (j, TokKind::Int);
    }
    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
        j += 1;
    }
    // Fractional part: a digit must follow the dot (so `0..n` ranges and
    // `1.max(x)` method calls stay punctuation/idents).
    if b.get(j) == Some(&b'.') && b.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
        float = true;
        j += 1;
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
    }
    // Exponent.
    if matches!(b.get(j), Some(b'e' | b'E')) {
        let mut k = j + 1;
        if matches!(b.get(k), Some(b'+' | b'-')) {
            k += 1;
        }
        if b.get(k).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            j = k;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                j += 1;
            }
        }
    }
    // Suffix (`u64`, `f32`, …).
    let suffix_start = j;
    while j < b.len() && is_ident_byte(b[j]) {
        j += 1;
    }
    if b[suffix_start..j].starts_with(b"f32") || b[suffix_start..j].starts_with(b"f64") {
        float = true;
    }
    (j, if float { TokKind::Float } else { TokKind::Int })
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

fn utf8_width(c: u8) -> usize {
    match c {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn count_newlines(b: &[u8]) -> u32 {
    b.iter().filter(|&&c| c == b'\n').count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_literals_punct() {
        let t = kinds("let x = foo(1, 2.5);");
        assert_eq!(
            t,
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Ident, "foo".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Int, "1".into()),
                (TokKind::Punct, ",".into()),
                (TokKind::Float, "2.5".into()),
                (TokKind::Punct, ")".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = kinds("fn f<'a>(s: &'a str) -> char { 'x' }");
        assert!(t.contains(&(TokKind::Lifetime, "a".into())));
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
        // Multi-byte char literal is a char, not a lifetime.
        let t = kinds("let c = 'é';");
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
        assert!(!t.iter().any(|(k, _)| *k == TokKind::Lifetime));
        // Escapes, including the escaped quote.
        for src in ["'\\''", "'\\n'", "'\\u{1F600}'", "'\\x41'"] {
            let t = kinds(src);
            assert_eq!(t, vec![(TokKind::Char, String::new())], "{src}");
        }
    }

    #[test]
    fn string_flavours_are_opaque() {
        for src in [
            "\"plain unwrap()\"",
            "r\"raw unwrap()\"",
            "r#\"hashed \" unwrap()\"#",
            "b\"bytes unwrap()\"",
            "br#\"raw bytes unwrap()\"#",
        ] {
            let t = kinds(src);
            assert_eq!(t, vec![(TokKind::Str, String::new())], "{src}");
        }
    }

    #[test]
    fn raw_identifiers_drop_the_prefix() {
        assert_eq!(kinds("r#match"), vec![(TokKind::Ident, "match".into())]);
    }

    #[test]
    fn nested_block_comments_skipped() {
        let t = kinds("a /* x /* y */ z */ b");
        assert_eq!(
            t,
            vec![(TokKind::Ident, "a".into()), (TokKind::Ident, "b".into())]
        );
    }

    #[test]
    fn line_numbers_follow_newlines() {
        let t = tokenize("a\nb\n\nc \"multi\nline\" d");
        let find = |name: &str| t.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 2);
        assert_eq!(find("c"), 4);
        assert_eq!(find("d"), 5);
    }

    #[test]
    fn double_colon_and_plus_eq_compose() {
        let t = kinds("std::mem::take(x); n += 1;");
        assert_eq!(
            t.iter()
                .filter(|(k, t)| *k == TokKind::Punct && t == "::")
                .count(),
            2
        );
        assert!(t.contains(&(TokKind::Punct, "+=".into())));
    }

    #[test]
    fn numbers_with_bases_and_suffixes() {
        assert_eq!(
            kinds("0x9e37_79b9"),
            vec![(TokKind::Int, "0x9e37_79b9".into())]
        );
        assert_eq!(kinds("1_000_000"), vec![(TokKind::Int, "1_000_000".into())]);
        assert_eq!(kinds("1e9"), vec![(TokKind::Float, "1e9".into())]);
        assert_eq!(kinds("2f64"), vec![(TokKind::Float, "2f64".into())]);
        // A range is two ints and two dots, not a float.
        let t = kinds("0..n");
        assert_eq!(t[0], (TokKind::Int, "0".into()));
        assert_eq!(t[1], (TokKind::Punct, ".".into()));
    }

    #[test]
    fn ident_ending_in_b_or_r_is_not_a_literal_prefix() {
        let t = kinds("herb\"s\" + tar\"s\"");
        assert!(t.contains(&(TokKind::Ident, "herb".into())), "{t:?}");
        assert!(t.contains(&(TokKind::Ident, "tar".into())), "{t:?}");
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
    }

    /// A seeded xorshift64* stream: the auditor has no dependencies, so
    /// no workspace RNG.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Characters the lexer branches on, plus plain and non-ASCII text.
    const ALPHABET: [&str; 32] = [
        "\"", "'", "r", "#", "b", "c", "/", "*", "\\", "\n", " ", "0", "9", ".", "e", "E", "_",
        "x", "u", "{", "}", ":", "+", "=", "f64", "a", "é", "😀", "\u{0}", "\t", "r#\"", "*/",
    ];

    /// Every `.rs` file under the workspace's source directories.
    fn workspace_sources() -> Vec<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut dirs: Vec<_> = ["crates", "src", "tests", "examples", "benchmark/src"]
            .iter()
            .map(|d| root.join(d))
            .collect();
        let mut sources = Vec::new();
        while let Some(dir) = dirs.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
            paths.sort();
            for path in paths {
                if path.is_dir() && !path.ends_with("target") {
                    dirs.push(path);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    sources.extend(std::fs::read_to_string(&path).ok());
                }
            }
        }
        sources
    }

    /// A char boundary of `s`, uniformly among its byte offsets.
    fn boundary(rng: &mut Rng, s: &str) -> usize {
        let mut at = rng.below(s.len() + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// `src` truncated, spliced with `other` and edited, at char
    /// boundaries: one to four edits.
    fn mutate(rng: &mut Rng, src: &str, other: &str) -> String {
        let mut s = src.to_string();
        for _ in 0..1 + rng.below(4) {
            let at = boundary(rng, &s);
            match rng.below(4) {
                0 => s.truncate(at),
                1 => {
                    let from = boundary(rng, other);
                    let to = from + boundary(rng, &other[from..]);
                    s.insert_str(at, &other[from..to]);
                }
                2 => {
                    // Flip a bit of an ASCII byte (staying ASCII), or
                    // replace a wider char.
                    let Some(c) = s[at..].chars().next() else {
                        continue;
                    };
                    let flipped = if c.is_ascii() {
                        char::from(c as u8 ^ (1 << rng.below(7)))
                    } else {
                        'x'
                    };
                    s.replace_range(at..at + c.len_utf8(), flipped.encode_utf8(&mut [0; 4]));
                }
                _ => s.insert_str(at, ALPHABET[rng.below(ALPHABET.len())]),
            }
        }
        s
    }

    /// Lexes, scans and checks `src` and asserts what must hold of any
    /// input: every token consumed at least one byte and starts on a char
    /// boundary after the one before it, and lines only count newlines.
    /// The engine path puts every per-file rule in scope.
    fn lex(src: &str) {
        let toks = tokenize(src);
        let lines = src.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
        assert!(
            toks.iter().all(|t| (1..=lines).contains(&t.line)
                && t.offset < src.len()
                && src.is_char_boundary(t.offset)),
            "{src:?}"
        );
        assert!(
            toks.windows(2).all(|w| w[0].offset < w[1].offset),
            "{src:?}"
        );
        let file = crate::scan::ScannedFile::new("crates/vssd/src/engine/probe.rs", src);
        let _ = crate::rules::check_file(&file);
    }

    /// Seeded random strings and this workspace's own sources, truncated,
    /// spliced and edited at char boundaries: the lexer, the scan and the
    /// rules never panic and always return (the whole corpus must finish
    /// within a minute on a helper thread).
    #[test]
    fn fuzzed_sources_never_panic() {
        let (done, finished) = std::sync::mpsc::channel();
        let fuzz = std::thread::spawn(move || {
            let sources = workspace_sources();
            assert!(sources.len() > 100, "found {} sources", sources.len());
            let mut rng = Rng(0xa0d1_7e3e);
            for _ in 0..3000 {
                let s: String = (0..rng.below(200))
                    .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                    .collect();
                lex(&s);
            }
            for _ in 0..1000 {
                let src = &sources[rng.below(sources.len())];
                let other = &sources[rng.below(sources.len())];
                lex(&mutate(&mut rng, src, other));
            }
            let _ = done.send(());
        });
        let timeout = std::sync::mpsc::RecvTimeoutError::Timeout;
        let returned = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            returned != Err(timeout),
            "the lexer, scan or rules did not return within a minute"
        );
        // Finished, or disconnected by a panic: re-raise it.
        if let Err(panic) = fuzz.join() {
            std::panic::resume_unwind(panic);
        }
    }
}
