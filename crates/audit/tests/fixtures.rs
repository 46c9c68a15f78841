//! Seeded-violation fixtures: every rule must fire at the exact annotated
//! line, and only there.
//!
//! Each file under `tests/fixtures/` declares the workspace-relative path
//! it should be scanned as on its first line (`//! scan-as: <path>`) and
//! marks every expected diagnostic with one `//~ <rule-id>` annotation per
//! expected finding on the violating line. Each fixture is analyzed as a
//! single-file workspace with an unrestricted dependency graph, so the
//! expectations are local to the file.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fleetio_audit::graph::DepGraph;
use fleetio_audit::scan::ScannedFile;
use fleetio_audit::{analyze, rules::Diagnostic};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Parses `//~ rule` annotations into a `(line, rule) -> count` multiset.
fn expected_of(source: &str) -> BTreeMap<(usize, String), usize> {
    let mut out = BTreeMap::new();
    for (i, line) in source.lines().enumerate() {
        for seg in line.split("//~").skip(1) {
            let rule = seg
                .split_whitespace()
                .next()
                .unwrap_or_else(|| panic!("line {}: empty //~ annotation", i + 1));
            *out.entry((i + 1, rule.to_string())).or_insert(0) += 1;
        }
    }
    out
}

fn found_of(diags: &[Diagnostic]) -> BTreeMap<(usize, String), usize> {
    let mut out = BTreeMap::new();
    for d in diags {
        *out.entry((d.line, d.rule.to_string())).or_insert(0) += 1;
    }
    out
}

fn scan_as(source: &str, fixture: &str) -> String {
    source
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//! scan-as: "))
        .unwrap_or_else(|| panic!("{fixture}: first line must be `//! scan-as: <path>`"))
        .trim()
        .to_string()
}

fn analyze_fixture(fixture: &str) -> (String, Vec<Diagnostic>) {
    let path = fixtures_dir().join(fixture);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let scanned = ScannedFile::new(&scan_as(&source, fixture), &source);
    let diags = analyze(std::slice::from_ref(&scanned), &DepGraph::unrestricted());
    (source, diags)
}

#[test]
fn every_fixture_matches_its_annotations_exactly() {
    let dir = fixtures_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("listing {}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "fixture tree went missing: {names:?}");
    for name in names {
        let (source, diags) = analyze_fixture(&name);
        let expected = expected_of(&source);
        let found = found_of(&diags);
        assert_eq!(
            expected, found,
            "{name}: annotated vs reported (line, rule) mismatch.\nreported: {diags:#?}"
        );
    }
}

#[test]
fn every_rule_is_covered_by_a_fixture() {
    // The fixture suite must stay exhaustive: adding a rule without a
    // seeded violation fails here, not silently.
    let mut covered: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(fixtures_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let source = std::fs::read_to_string(&path).unwrap();
            covered.extend(expected_of(&source).keys().map(|(_, r)| r.clone()));
        }
    }
    for rule in fleetio_audit::rules::RULE_IDS {
        assert!(
            covered.iter().any(|c| c == rule),
            "rule `{rule}` has no seeded-violation fixture"
        );
    }
}

#[test]
fn taint_fixture_reports_the_full_call_chain() {
    let (_, diags) = analyze_fixture("taint_chain.rs");
    let taint: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "determinism-taint")
        .collect();
    assert_eq!(taint.len(), 1, "{diags:#?}");
    assert_eq!(
        taint[0].chain,
        vec![
            "Engine::dispatch_event".to_string(),
            "Engine::helper".to_string(),
            "leaf_timestamp".to_string(),
        ],
        "{:#?}",
        taint[0]
    );
    assert!(
        taint[0].message.contains("host-time"),
        "source kind missing from message: {}",
        taint[0].message
    );
}

#[test]
fn clean_fixture_is_clean() {
    let (_, diags) = analyze_fixture("clean.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance bar for the whole pipeline: the actual tree passes
    // with the taint rule enabled.
    let outcome = fleetio_audit::run_check(&fleetio_audit::default_root()).unwrap();
    assert!(outcome.is_clean(), "violations: {:#?}", outcome.violations);
}
