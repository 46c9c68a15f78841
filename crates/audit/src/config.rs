//! Hand-parsed `audit.toml` allowlist.
//!
//! The allowlist grandfathers existing violations without letting them
//! grow: each entry caps the number of diagnostics for one `(rule, path)`
//! pair. The check fails when a site exceeds its cap **or** when an entry
//! no longer matches anything (a stale entry must be deleted, ratcheting
//! the cap downward). Only the tiny TOML subset below is supported — the
//! auditor has no dependencies, and a restricted grammar keeps the file
//! reviewable:
//!
//! ```toml
//! [[allow]]
//! rule = "no-unwrap"
//! path = "crates/vssd/src/gsb.rs"
//! max = 2
//! reason = "pre-audit sites, issue #2"
//! ```
//!
//! Reachability rules (`determinism-taint`) additionally accept an
//! optional `chain` key: a `" -> "`-joined fragment of the reported call
//! chain. When present, the entry only suppresses findings whose chain
//! contains that fragment, so an allowlisted path through one sanctioned
//! helper cannot silently absorb a new, unrelated path into the same file.

/// One grandfathered `(rule, path)` cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier the entry applies to.
    pub rule: String,
    /// Workspace-relative path the entry applies to.
    pub path: String,
    /// Maximum tolerated diagnostics; must be at least 1.
    pub max: usize,
    /// Why the site is grandfathered.
    pub reason: String,
    /// For chain-carrying rules: a `" -> "`-joined call-chain fragment
    /// the finding's chain must contain for this entry to apply.
    pub chain: Option<String>,
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit.toml:{}: {}", self.line, self.message)
    }
}

/// Parses the allowlist file contents.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, ParseError> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut cur: Option<(usize, PartialEntry)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some((at, p)) = cur.take() {
                entries.push(p.finish(at)?);
            }
            cur = Some((line_no, PartialEntry::default()));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError {
                line: line_no,
                message: format!("expected `key = value` or `[[allow]]`, got `{line}`"),
            });
        };
        let Some((_, p)) = cur.as_mut() else {
            return Err(ParseError {
                line: line_no,
                message: "key outside an [[allow]] table".to_string(),
            });
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "rule" => p.rule = Some(parse_string(value, line_no)?),
            "path" => p.path = Some(parse_string(value, line_no)?),
            "reason" => p.reason = Some(parse_string(value, line_no)?),
            "chain" => p.chain = Some(parse_string(value, line_no)?),
            "max" => {
                p.max = Some(value.parse().map_err(|_| ParseError {
                    line: line_no,
                    message: format!("`max` must be a positive integer, got `{value}`"),
                })?)
            }
            other => {
                return Err(ParseError {
                    line: line_no,
                    message: format!("unknown key `{other}` (expected rule/path/max/reason/chain)"),
                })
            }
        }
    }
    if let Some((at, p)) = cur.take() {
        entries.push(p.finish(at)?);
    }
    Ok(entries)
}

#[derive(Default)]
struct PartialEntry {
    rule: Option<String>,
    path: Option<String>,
    max: Option<usize>,
    reason: Option<String>,
    chain: Option<String>,
}

impl PartialEntry {
    fn finish(self, line: usize) -> Result<AllowEntry, ParseError> {
        let missing = |what: &str| ParseError {
            line,
            message: format!("[[allow]] entry missing required key `{what}`"),
        };
        let max = self.max.ok_or_else(|| missing("max"))?;
        if max == 0 {
            return Err(ParseError {
                line,
                message: "`max = 0` is meaningless: delete the entry instead".to_string(),
            });
        }
        Ok(AllowEntry {
            rule: self.rule.ok_or_else(|| missing("rule"))?,
            path: self.path.ok_or_else(|| missing("path"))?,
            max,
            reason: self.reason.ok_or_else(|| missing("reason"))?,
            chain: self.chain,
        })
    }
}

fn parse_string(value: &str, line: usize) -> Result<String, ParseError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ParseError {
            line,
            message: format!("expected a quoted string, got `{v}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_comments() {
        let text = r#"
# grandfathered sites — shrink, never grow
[[allow]]
rule = "no-unwrap"
path = "crates/vssd/src/gsb.rs"  # inline comment
max = 2
reason = "pre-audit sites"

[[allow]]
rule = "entropy"
path = "crates/rl/src/ppo.rs"
max = 1
reason = "wall-clock progress logging"
"#;
        let e = parse_allowlist(text).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].rule, "no-unwrap");
        assert_eq!(e[0].max, 2);
        assert_eq!(e[1].path, "crates/rl/src/ppo.rs");
    }

    #[test]
    fn chain_key_is_optional() {
        let text =
            "[[allow]]\nrule = \"determinism-taint\"\npath = \"crates/rl/src/parallel.rs\"\n\
                    max = 1\nreason = \"r\"\nchain = \"collect_parallel_envs -> merge\"\n";
        let e = parse_allowlist(text).unwrap();
        assert_eq!(
            e[0].chain.as_deref(),
            Some("collect_parallel_envs -> merge")
        );
        let without = "[[allow]]\nrule = \"x\"\npath = \"y\"\nmax = 1\nreason = \"r\"\n";
        assert_eq!(parse_allowlist(without).unwrap()[0].chain, None);
    }

    #[test]
    fn empty_file_is_empty_allowlist() {
        assert!(parse_allowlist("# nothing grandfathered\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn missing_key_rejected() {
        let err = parse_allowlist("[[allow]]\nrule = \"entropy\"\n").unwrap_err();
        assert!(err.message.contains("missing required key"), "{err}");
    }

    #[test]
    fn zero_max_rejected() {
        let text = "[[allow]]\nrule = \"x\"\npath = \"y\"\nmax = 0\nreason = \"z\"\n";
        let err = parse_allowlist(text).unwrap_err();
        assert!(err.message.contains("delete the entry"), "{err}");
    }

    #[test]
    fn unquoted_string_rejected() {
        let err = parse_allowlist("[[allow]]\nrule = entropy\n").unwrap_err();
        assert!(err.message.contains("quoted string"), "{err}");
    }
}
