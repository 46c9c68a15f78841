//! `fleetio-audit`: repo-specific static lints for simulator determinism
//! and correctness.
//!
//! The FleetIO reproduction's results depend on the discrete-event
//! simulator being deterministic (same seed → bit-identical run) and
//! panic-free in its core. Those properties are invisible to the compiler,
//! so this crate enforces them as source-level rules:
//!
//! * [`raw-time-arith`](rules) — simulated-time conversion only in
//!   `crates/des/src/time.rs` (`SimTime`/`SimDuration`).
//! * [`no-unwrap`](rules) — no `.unwrap()` in `des`/`flash`/`vssd` src;
//!   `.expect()` needs an invariant-documenting message.
//! * [`hash-iteration`](rules) — no `HashMap`/`HashSet` in the core;
//!   iteration order must be deterministic.
//! * [`entropy`](rules) — randomness only via `des::rng` seeds.
//! * [`host-time-scope`](rules) — wall clock (`Instant`/`SystemTime`)
//!   only in `crates/bench` and the profiler (`crates/obs/src/prof*`);
//!   simulation crates take time from `SimTime`.
//! * [`no-println`](rules) — no `println!`/`eprintln!`/`print!`/`eprint!`/
//!   `dbg!` in quiet library crates (`des`/`flash`/`vssd`/`ml`/`rl`/`model`/
//!   `obs`); reporting goes through `fleetio-obs` sinks and exporters.
//! * [`atomic-io`](rules) — no direct `fs::write`/`File::create`/
//!   `OpenOptions` in simulation crates; persistent state (checkpoints,
//!   registries) goes through `fleetio_model::atomic_write` so a crash can
//!   never leave a half-written file behind.
//! * [`hot-path-collections`](rules) and [`unchecked-ops`](rules) — no
//!   node-based maps or unchecked ops in the engine's event-handler scope.
//! * [`determinism-taint`](graph) — no nondeterminism source reachable
//!   from a simulation root through the call graph.
//!
//! Each source is lexed once ([`token`]); every rule, the test and audit
//! region map ([`scan`]), the item extractor ([`items`]) and the call
//! graph read that one token stream.
//!
//! Run `cargo run -p fleetio-audit -- check` from anywhere in the
//! workspace; `audit.toml` at the repo root grandfathers legacy sites with
//! shrink-only caps (see [`config`]). The runtime half of the audit layer
//! (the `SimAuditor` invariant hooks) lives in the simulator crates behind
//! their `audit` cargo feature; this crate only covers what can be checked
//! without running the simulator.

use std::path::{Path, PathBuf};

pub mod config;
pub mod graph;
pub mod items;
pub mod report;
pub mod rules;
pub mod scan;
pub mod token;

use config::AllowEntry;
use rules::Diagnostic;

/// Result of a full check run, before rendering.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Violations not covered by the allowlist.
    pub violations: Vec<Diagnostic>,
    /// Allowlist entries that matched, with their current counts.
    pub grandfathered: Vec<(AllowEntry, usize)>,
    /// Allowlist entries that matched nothing (must be deleted).
    pub stale_allowlist: Vec<AllowEntry>,
}

impl CheckOutcome {
    /// Whether the tree passes: no violations and no stale allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allowlist.is_empty()
    }
}

/// Errors from a check run (I/O or allowlist parse failures).
#[derive(Debug)]
pub enum CheckError {
    /// Reading a source file or directory failed.
    Io(PathBuf, std::io::Error),
    /// `audit.toml` is malformed.
    Allowlist(config::ParseError),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            CheckError::Allowlist(e) => write!(f, "{e}"),
        }
    }
}

/// Runs the full static pass over the workspace rooted at `root`.
///
/// `root` must contain `crates/`; `audit.toml` beside it is optional (a
/// missing file means an empty allowlist).
pub fn run_check(root: &Path) -> Result<CheckOutcome, CheckError> {
    let allowlist = match std::fs::read_to_string(root.join("audit.toml")) {
        Ok(text) => config::parse_allowlist(&text).map_err(CheckError::Allowlist)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(CheckError::Io(root.join("audit.toml"), e)),
    };

    let scanned = scan_workspace(root)?;
    let deps = parse_dep_graph(root)?;
    let diagnostics = analyze(&scanned, &deps);
    Ok(apply_allowlist(scanned.len(), diagnostics, allowlist))
}

/// Scans every `.rs` file under `root/crates/` in sorted path order.
pub fn scan_workspace(root: &Path) -> Result<Vec<scan::ScannedFile>, CheckError> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut scanned = Vec::with_capacity(files.len());
    for file in &files {
        let source = std::fs::read_to_string(file).map_err(|e| CheckError::Io(file.clone(), e))?;
        scanned.push(scan::ScannedFile::new(&relative_path(root, file), &source));
    }
    Ok(scanned)
}

/// Runs the full rule set — per-file rules plus the workspace-level
/// determinism-taint reachability analysis — over already-scanned files.
/// This is the shared entry point for `run_check` and the fixture tests.
pub fn analyze(scanned: &[scan::ScannedFile], deps: &graph::DepGraph) -> Vec<Diagnostic> {
    let ws = graph::build(scanned, deps);
    let mut diagnostics = Vec::new();
    for file in scanned {
        diagnostics.extend(rules::check_file(file));
    }
    // Cost-based rules do not apply to whole files that are compiled only
    // under the `audit` feature (gated at their `mod` declaration): that
    // code is absent from release/perf builds, so it is never hot.
    diagnostics.retain(|d| {
        !(ws.file_is_audit_gated(&d.path)
            && (d.rule == "hot-path-collections" || d.rule == "unchecked-ops"))
    });
    diagnostics.extend(graph::determinism_taint(&ws));
    diagnostics
}

/// Builds the analyzed workspace (call graph + taint sources) alone, for
/// the summary/golden-test path.
pub fn build_workspace(scanned: &[scan::ScannedFile], deps: &graph::DepGraph) -> graph::Workspace {
    graph::build(scanned, deps)
}

/// Parses every `crates/*/Cargo.toml` `[dependencies]` section into the
/// crate dependency graph used to direction-restrict call resolution.
/// Only `fleetio-*` entries matter; dev-dependencies are excluded (test
/// code is outside the graph anyway, and dev edges may be cyclic).
pub fn parse_dep_graph(root: &Path) -> Result<graph::DepGraph, CheckError> {
    let crates_dir = root.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| CheckError::Io(crates_dir.clone(), e))?;
    let mut edges: Vec<(String, Vec<String>)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CheckError::Io(crates_dir.clone(), e))?;
        let manifest = entry.path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let name = entry.file_name().to_string_lossy().to_string();
        let mut deps = Vec::new();
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if in_deps {
                let key: String = line
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                if let Some(dep) = key.strip_prefix("fleetio-") {
                    deps.push(dep.to_string());
                } else if key == "fleetio" {
                    deps.push(key);
                }
            }
        }
        edges.push((name, deps));
    }
    edges.sort();
    Ok(graph::DepGraph::new(&edges))
}

/// Splits raw diagnostics into suppressed (grandfathered) and failing
/// sets according to the allowlist, and spots stale entries.
pub fn apply_allowlist(
    files_scanned: usize,
    diagnostics: Vec<Diagnostic>,
    allowlist: Vec<AllowEntry>,
) -> CheckOutcome {
    let mut violations = Vec::new();
    let mut counts: Vec<usize> = vec![0; allowlist.len()];
    for d in diagnostics {
        let chain_str = d.chain.join(" -> ");
        match allowlist.iter().position(|e| {
            e.rule == d.rule
                && e.path == d.path
                && e.chain.as_ref().is_none_or(|frag| chain_str.contains(frag))
        }) {
            Some(i) => {
                counts[i] += 1;
                if counts[i] > allowlist[i].max {
                    violations.push(d);
                }
            }
            None => violations.push(d),
        }
    }
    let mut grandfathered = Vec::new();
    let mut stale = Vec::new();
    for (entry, count) in allowlist.into_iter().zip(counts) {
        if count == 0 {
            stale.push(entry);
        } else {
            let capped = count.min(entry.max);
            grandfathered.push((entry, capped));
        }
    }
    CheckOutcome {
        files_scanned,
        violations,
        grandfathered,
        stale_allowlist: stale,
    }
}

/// Recursively collects `.rs` files under each crate's `src/` directory.
/// `tests/`, `benches/` and `examples/` trees are test code by definition
/// and out of scope.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), CheckError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CheckError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| CheckError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "tests" || name == "benches" || name == "examples" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The workspace root this crate was compiled in (two levels up from the
/// crate directory). Used as the default `--root`.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("audit crate lives at <root>/crates/audit")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real tree must be clean: this makes `cargo test` itself a
    /// determinism/correctness gate, independent of CI wiring.
    #[test]
    fn repo_is_clean() {
        let outcome = run_check(&default_root()).expect("check runs");
        assert!(
            outcome.is_clean(),
            "repo violates audit rules:\n{}",
            report::render_text(&outcome)
        );
        assert!(outcome.files_scanned > 50, "suspiciously few files scanned");
    }

    #[test]
    fn allowlist_caps_and_stale_detection() {
        let d = |rule: &'static str, path: &str, line: usize| Diagnostic {
            rule,
            path: path.to_string(),
            line,
            message: String::new(),
            snippet: String::new(),
            chain: Vec::new(),
        };
        let allow = vec![
            AllowEntry {
                rule: "no-unwrap".to_string(),
                path: "crates/des/src/queue.rs".to_string(),
                max: 1,
                reason: "r".to_string(),
                chain: None,
            },
            AllowEntry {
                rule: "entropy".to_string(),
                path: "crates/rl/src/ppo.rs".to_string(),
                max: 3,
                reason: "r".to_string(),
                chain: None,
            },
        ];
        let diags = vec![
            d("no-unwrap", "crates/des/src/queue.rs", 1),
            d("no-unwrap", "crates/des/src/queue.rs", 2),
            d("hash-iteration", "crates/vssd/src/gsb.rs", 3),
        ];
        let outcome = apply_allowlist(10, diags, allow);
        // Second queue.rs unwrap exceeds the cap; gsb.rs has no entry;
        // the ppo.rs entry is stale.
        assert_eq!(outcome.violations.len(), 2);
        assert_eq!(outcome.stale_allowlist.len(), 1);
        assert_eq!(outcome.grandfathered.len(), 1);
        assert!(!outcome.is_clean());
    }

    #[test]
    fn seeded_violation_is_caught() {
        // Acceptance criterion: introducing a violation must fail the
        // check. Simulate by scanning a poisoned source in-memory.
        let scanned = scan::ScannedFile::new(
            "crates/des/src/queue.rs",
            "pub fn pop(&mut self) { self.heap.pop().unwrap(); }\n",
        );
        let outcome = apply_allowlist(1, rules::check_file(&scanned), Vec::new());
        assert!(!outcome.is_clean());
        assert_eq!(outcome.violations[0].line, 1);
        assert_eq!(outcome.violations[0].rule, "no-unwrap");
    }

    #[test]
    fn chain_entries_only_match_their_fragment() {
        let taint = |chain: &[&str]| Diagnostic {
            rule: "determinism-taint",
            path: "crates/rl/src/parallel.rs".to_string(),
            line: 1,
            message: String::new(),
            snippet: String::new(),
            chain: chain.iter().map(|s| s.to_string()).collect(),
        };
        let allow = vec![AllowEntry {
            rule: "determinism-taint".to_string(),
            path: "crates/rl/src/parallel.rs".to_string(),
            max: 1,
            reason: "r".to_string(),
            chain: Some("collect_parallel_envs -> merge".to_string()),
        }];
        // Matching chain is grandfathered; a different path through the
        // same file is not absorbed by the entry.
        let outcome = apply_allowlist(
            1,
            vec![
                taint(&["collect_parallel_envs", "merge", "leaf"]),
                taint(&["collect_frozen", "other"]),
            ],
            allow,
        );
        assert_eq!(outcome.violations.len(), 1);
        assert_eq!(outcome.violations[0].chain[0], "collect_frozen");
        assert_eq!(outcome.grandfathered.len(), 1);
    }
}
