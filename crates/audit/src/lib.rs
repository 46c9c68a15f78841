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
//! * [`hash-iteration`](rules) — no `HashMap`/`HashSet`/`RandomState` in
//!   simulation crates; iteration order must be deterministic.
//! * [`entropy`](rules) — randomness only via `des::rng` seeds.
//! * [`host-time-scope`](rules) — wall clock (`Instant`/`SystemTime`)
//!   only in `crates/bench` and the profiler (`crates/obs/src/prof*`);
//!   simulation crates take time from `SimTime`.
//! * [`no-println`](rules) — no `println!`/`eprintln!`/`print!`/`eprint!`/
//!   `dbg!` in quiet library crates (`des`/`flash`/`vssd`/`ml`/`rl`/`model`/
//!   `obs`); reporting goes through `fleetio-obs` sinks and their JSONL.
//! * [`atomic-io`](rules) — no direct `fs::write`/`File::create`/
//!   `OpenOptions` in simulation crates; persistent state (checkpoints,
//!   registries) goes through `fleetio_model::atomic_write` so a crash can
//!   never leave a half-written file behind.
//! * [`hot-path-collections`](rules) and [`unchecked-ops`](rules) — no
//!   node-based maps or unchecked ops in the engine's event-handler scope.
//! * [`host-state`](rules) — no process environment, thread identity,
//!   channel polling or float reduction across joined threads in
//!   simulation crates.
//!
//! The determinism rules are scoped by path to the simulation crates, so
//! a source is a violation wherever it sits in them, whether or not
//! today's call paths reach it. Each source is lexed once
//! ([`token`]); every rule and the test and audit region map ([`scan`])
//! read that one token stream.
//!
//! Run `cargo run -p fleetio-audit -- check` from anywhere in the
//! workspace. Every rule is exception-free: a site that must be exempt
//! is left out of the rule's scope in [`rules`], where review sees it,
//! as the profiler is for `host-time-scope`. The runtime half of the
//! audit layer (the `SimAuditor` invariant hooks) lives in the simulator
//! crates behind their `audit` cargo feature; this crate only covers
//! what can be checked without running the simulator.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

pub mod report;
pub mod rules;
pub mod scan;
pub mod token;

use rules::Diagnostic;

/// Result of a full check run, before rendering.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every diagnostic [`analyze`] reported.
    pub violations: Vec<Diagnostic>,
}

impl CheckOutcome {
    /// Whether the tree passes: no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A source file or directory that could not be read.
#[derive(Debug)]
pub enum CheckError {
    /// Reading a source file or directory failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

/// Runs the full static pass over the workspace rooted at `root`, which
/// must contain `crates/`.
pub fn run_check(root: &Path) -> Result<CheckOutcome, CheckError> {
    let scanned = scan_workspace(root)?;
    Ok(CheckOutcome {
        files_scanned: scanned.len(),
        violations: analyze(&scanned),
    })
}

/// Scans every `.rs` file under `root/crates/` in sorted path order.
fn scan_workspace(root: &Path) -> Result<Vec<scan::ScannedFile>, CheckError> {
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

/// Runs every rule over already-scanned files, in file order. This is
/// the shared entry point for `run_check` and the fixture tests.
pub fn analyze(scanned: &[scan::ScannedFile]) -> Vec<Diagnostic> {
    scanned.iter().flat_map(rules::check_file).collect()
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
    fn seeded_violation_is_caught() {
        // Acceptance criterion: introducing a violation must fail the
        // check. Simulate by scanning a poisoned source in-memory.
        let scanned = scan::ScannedFile::new(
            "crates/des/src/queue.rs",
            "pub fn pop(&mut self) { self.heap.pop().unwrap(); }\n",
        );
        let violations = rules::check_file(&scanned);
        assert_eq!(violations.len(), 1, "{violations:#?}");
        assert_eq!(violations[0].line, 1);
        assert_eq!(violations[0].rule, "no-unwrap");
    }
}
