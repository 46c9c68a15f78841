//! Source preprocessing for the lint rules.
//!
//! Each file is lexed once by [`crate::token`]; every rule, the item
//! extractor and the call graph read that one token stream. Beside it the
//! scan keeps two line classes: test code (covered by a `#[cfg(test)]` /
//! `#[test]` attribute's item) and audit-only code (covered by
//! `#[cfg(feature = "audit")]`). An attribute counts where a `#` token's
//! source text starts with it, so one spelled inside a comment or string
//! (which has no tokens) never opens a region; the region runs by
//! brace-matching on `{`/`}`/`;` tokens to the end of the item it gates.

use crate::token::{tokenize, Tok};

/// A scanned source file ready for rule evaluation.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path with forward slashes, e.g. `crates/des/src/time.rs`.
    pub path: String,
    /// The source text (for snippets and string-literal inspection).
    pub source: String,
    /// `true` for lines inside `#[cfg(test)]` / `#[test]` regions.
    pub is_test_line: Vec<bool>,
    /// `true` for lines inside `#[cfg(feature = "audit")]` regions — code
    /// compiled only when runtime invariant auditing is on, absent from
    /// release/perf builds.
    pub is_audit_line: Vec<bool>,
    /// The file's token stream (comments and whitespace dropped).
    pub toks: Vec<Tok>,
}

impl ScannedFile {
    /// Scans a single source text.
    pub fn new(path: &str, source: &str) -> ScannedFile {
        let toks = tokenize(source);
        let n = source.lines().count();
        ScannedFile {
            path: path.to_string(),
            source: source.to_string(),
            is_test_line: attr_item_map(source, &toks, &["#[cfg(test)]", "#[test]"], n),
            is_audit_line: attr_item_map(source, &toks, &["#[cfg(feature = \"audit\")]"], n),
            toks,
        }
    }

    /// Iterates `(1-based line number, the tokens starting on it)` over
    /// the non-test lines that hold a token.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &[Tok])> {
        self.toks
            .chunk_by(|a, b| a.line == b.line)
            .map(|line| (line[0].line as usize, line))
            .filter(|(line, _)| !self.line_is_test(*line))
    }

    /// Whether 1-based `line` is inside a test region.
    pub fn line_is_test(&self, line: usize) -> bool {
        line >= 1 && self.is_test_line.get(line - 1).copied().unwrap_or(false)
    }

    /// Whether 1-based `line` is inside a `cfg(feature = "audit")` region.
    pub fn line_is_audit(&self, line: usize) -> bool {
        line >= 1 && self.is_audit_line.get(line - 1).copied().unwrap_or(false)
    }

    /// The raw text of 1-based `line`, trimmed, for diagnostics.
    pub fn snippet(&self, line: usize) -> String {
        self.source
            .lines()
            .nth(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Marks every line covered by one of `attrs`'s items: from the
/// attribute's `#` through the `}` that closes the item's first brace, or
/// through the `;` of a brace-less item (the last line if neither comes).
fn attr_item_map(source: &str, toks: &[Tok], attrs: &[&str], n_lines: usize) -> Vec<bool> {
    let mut map = vec![false; n_lines];
    for (k, hash) in toks.iter().enumerate() {
        let rest = &source[hash.offset..];
        if !hash.is_punct("#") || !attrs.iter().any(|a| rest.starts_with(a)) {
            continue;
        }
        // The attribute's own tokens hold no brace or semicolon.
        let (mut depth, mut started) = (0i32, false);
        let end = toks[k + 1..].iter().find(|t| match t.text.as_str() {
            "{" => {
                depth += 1;
                started = true;
                false
            }
            "}" => {
                depth -= 1;
                started && depth == 0
            }
            ";" => !started && depth == 0,
            _ => false,
        });
        let end_line = end.map_or(n_lines, |t| t.line as usize);
        let (first, last) = (hash.line as usize - 1, end_line.min(n_lines));
        if first < last {
            map[first..last].fill(true);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn prod() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\nfn prod2() {}\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(!f.is_test_line[0]);
        assert!(f.is_test_line[1] && f.is_test_line[2] && f.is_test_line[3] && f.is_test_line[4]);
        assert!(!f.is_test_line[5]);
    }

    #[test]
    fn test_regions_cover_test_fn() {
        let src = "#[test]\nfn works() {\n    x.unwrap();\n}\nfn prod() {}\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(f.is_test_line[0] && f.is_test_line[1] && f.is_test_line[2] && f.is_test_line[3]);
        assert!(!f.is_test_line[4]);
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse crate::rng::SmallRng;\nfn prod() {}\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(f.is_test_line[0] && f.is_test_line[1]);
        assert!(!f.is_test_line[2]);
    }

    #[test]
    fn unclosed_region_runs_to_the_last_line() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n";
        let f = ScannedFile::new("x.rs", src);
        assert_eq!(f.is_test_line, [false, true, true, true]);
    }

    #[test]
    fn audit_regions_cover_gated_items() {
        let src = "#[cfg(feature = \"audit\")]\nfn sweep() {\n    check();\n}\nfn hot() {}\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(f.line_is_audit(1) && f.line_is_audit(2) && f.line_is_audit(3));
        assert!(!f.line_is_audit(5));
        // Statement-level gating ends at the semicolon.
        let src =
            "fn f() {\n    #[cfg(feature = \"audit\")]\n    self.audit_event();\n    other();\n}\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(f.line_is_audit(2) && f.line_is_audit(3));
        assert!(!f.line_is_audit(4));
    }

    #[test]
    fn attr_inside_string_or_comment_is_ignored() {
        for src in [
            "let s = \"#[cfg(test)]\";\nfn prod() { x.unwrap(); }\n",
            "// #[cfg(test)]\nfn prod() { x.unwrap(); }\n",
            "/* #[cfg(test)] */\nfn prod() { x.unwrap(); }\n",
            "let s = r#\"#[cfg(test)]\"#;\nfn prod() { x.unwrap(); }\n",
            "let s = \"#[cfg(feature = \\\"audit\\\")]\";\nfn prod() {}\n",
        ] {
            let f = ScannedFile::new("x.rs", src);
            assert_eq!(f.is_test_line, [false, false], "{src}");
            assert_eq!(f.is_audit_line, [false, false], "{src}");
        }
    }

    #[test]
    fn code_lines_group_tokens_and_skip_tests() {
        let src = "fn a() {\n\n    \"multi\nline\" }\n#[test]\nfn t() {}\n";
        let f = ScannedFile::new("x.rs", src);
        let lines: Vec<(usize, usize)> = f.code_lines().map(|(n, t)| (n, t.len())).collect();
        assert_eq!(lines, [(1, 5), (3, 1), (4, 1)]);
    }
}
