//! Human and machine-readable output for a check run.

use fleetio_obs::json;

use crate::CheckOutcome;

/// Renders `file:line: [rule] message` diagnostics, grandfathered notes,
/// and a closing summary line.
pub fn render_text(outcome: &CheckOutcome) -> String {
    let mut out = String::new();
    for d in &outcome.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            d.path, d.line, d.rule, d.message, d.snippet
        ));
        if !d.chain.is_empty() {
            out.push_str(&format!("    call chain: {}\n", d.chain.join(" -> ")));
        }
    }
    for s in &outcome.stale_allowlist {
        out.push_str(&format!(
            "audit.toml: stale [[allow]] entry (rule \"{}\", path \"{}\"): no matching \
             violations remain — delete it\n",
            s.rule, s.path
        ));
    }
    for (entry, count) in &outcome.grandfathered {
        out.push_str(&format!(
            "note: {}: {} grandfathered `{}` site(s) (cap {}, reason: {})\n",
            entry.path, count, entry.rule, entry.max, entry.reason
        ));
        if *count < entry.max {
            out.push_str(&format!(
                "note: {}: cap can ratchet down to {} in audit.toml\n",
                entry.path, count
            ));
        }
    }
    out.push_str(&format!(
        "fleetio-audit: {} file(s) scanned, {} violation(s), {} grandfathered, {} stale \
         allowlist entr(ies) — {}\n",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.grandfathered.iter().map(|(_, c)| c).sum::<usize>(),
        outcome.stale_allowlist.len(),
        if outcome.is_clean() { "clean" } else { "FAIL" }
    ));
    out
}

/// Renders the outcome as one compact JSON document.
pub fn render_json(outcome: &CheckOutcome) -> String {
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.key("schema").str("fleetio-audit/2");
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
                    v.key("chain")
                        .arr(|c| d.chain.iter().for_each(|f| c.item().str(f)));
                });
            }
        });
        o.key("grandfathered").arr(|a| {
            for (e, count) in &outcome.grandfathered {
                a.item().obj(|g| {
                    g.key("rule").str(&e.rule);
                    g.key("path").str(&e.path);
                    g.key("count").u64(*count as u64);
                    g.key("max").u64(e.max as u64);
                    g.key("reason").str(&e.reason);
                });
            }
        });
        o.key("stale_allowlist").arr(|a| {
            for e in &outcome.stale_allowlist {
                a.item().obj(|s| {
                    s.key("rule").str(&e.rule);
                    s.key("path").str(&e.path);
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
    use crate::config::AllowEntry;
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
                chain: Vec::new(),
            }],
            grandfathered: vec![(
                AllowEntry {
                    rule: "entropy".to_string(),
                    path: "crates/rl/src/ppo.rs".to_string(),
                    max: 2,
                    reason: "r".to_string(),
                    chain: None,
                },
                1,
            )],
            stale_allowlist: vec![],
        }
    }

    fn taint_outcome() -> CheckOutcome {
        CheckOutcome {
            files_scanned: 3,
            violations: vec![Diagnostic {
                rule: "determinism-taint",
                path: "crates/vssd/src/engine/mod.rs".to_string(),
                line: 7,
                message: "nondeterminism source `Instant` (host-time) reachable from \
                          `Engine::dispatch_event`"
                    .to_string(),
                snippet: "in fn leaf".to_string(),
                chain: vec![
                    "Engine::dispatch_event".to_string(),
                    "Engine::helper".to_string(),
                    "leaf".to_string(),
                ],
            }],
            grandfathered: vec![],
            stale_allowlist: vec![],
        }
    }

    #[test]
    fn text_has_file_line_rule() {
        let t = render_text(&outcome());
        assert!(t.contains("crates/des/src/queue.rs:42: [no-unwrap]"), "{t}");
        assert!(t.contains("FAIL"), "{t}");
        assert!(t.contains("ratchet down to 1"), "{t}");
    }

    #[test]
    fn text_and_json_carry_the_call_chain() {
        let o = taint_outcome();
        let t = render_text(&o);
        assert!(
            t.contains("call chain: Engine::dispatch_event -> Engine::helper -> leaf"),
            "{t}"
        );
        let j = render_json(&o);
        assert!(j.contains("\"schema\":\"fleetio-audit/2\""), "{j}");
        assert!(
            j.contains("\"chain\":[\"Engine::dispatch_event\",\"Engine::helper\",\"leaf\"]"),
            "{j}"
        );
        // Chain-less diagnostics serialize an empty array, not a missing key.
        assert!(render_json(&outcome()).contains("\"chain\":[]"));
    }

    #[test]
    fn json_is_one_parseable_escaped_document() {
        let mut o = outcome();
        o.violations[0].snippet = "say \"hi\"".to_string();
        o.stale_allowlist.push(AllowEntry {
            rule: "no-println".to_string(),
            path: "crates/obs/src/main.rs".to_string(),
            max: 22,
            reason: "r".to_string(),
            chain: None,
        });
        let j = render_json(&o);
        assert_eq!(j.lines().count(), 1, "{j}");
        let v = json::parse(&j).unwrap_or_else(|e| panic!("{e}: {j}"));
        let doc = v.as_object().unwrap();
        assert_eq!(doc.get("files_scanned").and_then(|n| n.as_u64()), Some(3));
        assert_eq!(doc.get("clean").and_then(|c| c.as_bool()), Some(false));
        let violation = doc["violations"].as_array().unwrap()[0]
            .as_object()
            .unwrap();
        assert_eq!(violation["rule"].as_str(), Some("no-unwrap"));
        assert_eq!(violation["line"].as_u64(), Some(42));
        assert_eq!(violation["snippet"].as_str(), Some("say \"hi\""));
        let grandfathered = doc["grandfathered"].as_array().unwrap()[0]
            .as_object()
            .unwrap();
        assert_eq!(grandfathered["count"].as_u64(), Some(1));
        assert_eq!(grandfathered["max"].as_u64(), Some(2));
        let stale = doc["stale_allowlist"].as_array().unwrap()[0]
            .as_object()
            .unwrap();
        assert_eq!(stale["path"].as_str(), Some("crates/obs/src/main.rs"));
    }
}
