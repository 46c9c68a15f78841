//! Human and machine-readable output for a check run.

use fleetio_obs::json;

use crate::CheckOutcome;

/// Renders `file:line: [rule] message` diagnostics and a closing summary
/// line.
pub fn render_text(outcome: &CheckOutcome) -> String {
    let mut out = String::new();
    for d in &outcome.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            d.path, d.line, d.rule, d.message, d.snippet
        ));
    }
    out.push_str(&format!(
        "fleetio-audit: {} file(s) scanned, {} violation(s) — {}\n",
        outcome.files_scanned,
        outcome.violations.len(),
        if outcome.is_clean() { "clean" } else { "FAIL" }
    ));
    out
}

/// Renders the outcome as one compact JSON document.
pub fn render_json(outcome: &CheckOutcome) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.key("schema").str("fleetio-audit/4");
        o.key("files_scanned").u64(outcome.files_scanned as u64);
        o.key("clean").bool(outcome.is_clean());
        o.key("violations").arr(|a| {
            for d in &outcome.violations {
                a.item().obj(|v| {
                    v.key("rule").str(d.rule);
                    v.key("path").str(&d.path);
                    v.key("line").u64(d.line as u64);
                    v.key("message").str(&d.message);
                    v.key("snippet").str(&d.snippet);
                });
            }
        });
    });
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    fn outcome() -> CheckOutcome {
        CheckOutcome {
            files_scanned: 3,
            violations: vec![Diagnostic {
                rule: "no-unwrap",
                path: "crates/des/src/queue.rs".to_string(),
                line: 42,
                message: "unwrap() in simulator core".to_string(),
                snippet: "x.unwrap()".to_string(),
            }],
        }
    }

    #[test]
    fn text_has_file_line_rule() {
        let t = render_text(&outcome());
        assert!(t.contains("crates/des/src/queue.rs:42: [no-unwrap]"), "{t}");
        assert!(t.contains("FAIL"), "{t}");
    }

    #[test]
    fn json_is_one_parseable_escaped_document() {
        let mut o = outcome();
        o.violations[0].snippet = "say \"hi\"".to_string();
        let j = render_json(&o);
        assert_eq!(j.lines().count(), 1, "{j}");
        let v = json::parse(&j).unwrap_or_else(|e| panic!("{e}: {j}"));
        let doc = v.as_object().unwrap();
        assert_eq!(doc["schema"].as_str(), Some("fleetio-audit/4"));
        assert_eq!(doc.get("files_scanned").and_then(|n| n.as_u64()), Some(3));
        assert_eq!(doc.get("clean").and_then(|c| c.as_bool()), Some(false));
        let violation = doc["violations"].as_array().unwrap()[0]
            .as_object()
            .unwrap();
        assert_eq!(violation["rule"].as_str(), Some("no-unwrap"));
        assert_eq!(violation["line"].as_u64(), Some(42));
        assert_eq!(violation["snippet"].as_str(), Some("say \"hi\""));
        assert_eq!(violation.len(), 5, "{j}");
    }
}
