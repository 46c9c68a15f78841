//! The repo-specific lint rules.
//!
//! Each rule is a conservative pattern check over a [`ScannedFile`]'s
//! token stream, so comments and literals never match. The eight line
//! rules read it line by line with test regions excluded and report a
//! line at most once per name; `hot-path-collections` and
//! `unchecked-ops` also skip audit-only regions. Rules are scoped by path:
//! the simulator core (`des`, `flash`, `vssd`) carries the strictest
//! rules, and every simulation crate (`in_sim`) is held to the
//! determinism rules; wall-clock crates (`bench`, `audit` itself) are
//! exempt from them because they legitimately measure host time.

use crate::scan::ScannedFile;
use crate::token::{Tok, TokKind};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `raw-time-arith`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Stable identifiers for every rule, in reporting order.
pub const RULE_IDS: [&str; 10] = [
    "raw-time-arith",
    "no-unwrap",
    "hash-iteration",
    "entropy",
    "host-time-scope",
    "no-println",
    "atomic-io",
    "hot-path-collections",
    "unchecked-ops",
    "host-state",
];

/// Simulator core: the crates whose sources model the device and must be
/// deterministic and panic-free.
fn in_core(path: &str) -> bool {
    ["crates/des/src/", "crates/flash/src/", "crates/vssd/src/"]
        .iter()
        .any(|p| path.starts_with(p))
}

/// Crates that participate in *simulated* time and seeded randomness.
/// `bench` (wall-clock harness) and `audit` are exempt.
fn in_sim(path: &str) -> bool {
    [
        "crates/des/src/",
        "crates/flash/src/",
        "crates/vssd/src/",
        "crates/workloads/src/",
        "crates/ml/src/",
        "crates/rl/src/",
        "crates/model/src/",
        "crates/fleetio/src/",
        "crates/fleet/src/",
        "crates/obs/src/",
        "crates/store/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

/// The host-time profiler sources (`crates/obs/src/prof.rs` and any
/// future `prof/` submodules): the one sanctioned home for wall-clock
/// measurement and its worker threads inside the simulation scope.
fn is_prof_path(path: &str) -> bool {
    path.starts_with("crates/obs/src/prof")
}

/// The engine's event-handler scope: every source under
/// `crates/vssd/src/engine/` runs (transitively) from `dispatch_event`,
/// so per-event work there is the simulator's hot path. The invariant
/// sweep (`engine/audit.rs`) is compiled only under the `audit` feature,
/// so it is never hot and is left out.
fn in_engine_hot_path(path: &str) -> bool {
    path.starts_with("crates/vssd/src/engine/") && path != "crates/vssd/src/engine/audit.rs"
}

/// Library crates whose sources must stay silent on stdout/stderr: the
/// simulator core plus the ML/RL stack and the observability layer. All
/// reporting goes through `fleetio-obs` sinks and their JSONL, and terminal
/// output through the `fleetio` CLI, which lives outside `crates/`.
fn in_quiet(path: &str) -> bool {
    [
        "crates/des/src/",
        "crates/flash/src/",
        "crates/vssd/src/",
        "crates/ml/src/",
        "crates/rl/src/",
        "crates/model/src/",
        "crates/fleet/src/",
        "crates/obs/src/",
        "crates/store/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

/// Runs every rule against one scanned file.
pub fn check_file(file: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    raw_time_arith(file, &mut out);
    no_unwrap(file, &mut out);
    hash_iteration(file, &mut out);
    entropy(file, &mut out);
    host_time_scope(file, &mut out);
    no_println(file, &mut out);
    atomic_io(file, &mut out);
    hot_path_collections(file, &mut out);
    unchecked_ops(file, &mut out);
    host_state(file, &mut out);
    out
}

/// A `rule` finding at 1-based `line`, with that line as its snippet.
fn diag(file: &ScannedFile, rule: &'static str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line,
        message,
        snippet: file.snippet(line),
    }
}

/// Whether the tokens from `line[k]` on spell `parts` (two or more) the
/// way a substring of the source would: each token touches the next with
/// no space or comment between, the first ends with the first part, the
/// last starts with the last part and the ones between equal theirs.
fn spelled_at(line: &[Tok], k: usize, parts: &[&str]) -> bool {
    let Some(w) = line.get(k..k + parts.len()) else {
        return false;
    };
    let last = parts.len() - 1;
    w.windows(2)
        .all(|p| p[0].offset + p[0].text.len() == p[1].offset)
        && w[0].text.ends_with(parts[0])
        && w[last].text.starts_with(parts[last])
        && (1..last).all(|i| w[i].text == parts[i])
}

/// The index of the first token of `line` that starts a spelling of `parts`.
fn spelled(line: &[Tok], parts: &[&str]) -> Option<usize> {
    (0..line.len()).find(|&k| spelled_at(line, k, parts))
}

/// `raw-time-arith`: nanoseconds-per-second literals used in time
/// arithmetic outside `crates/des/src/time.rs`. All simulated-time
/// conversion belongs in `SimTime`/`SimDuration`, so f64-seconds math
/// cannot silently drift from the canonical nanosecond representation.
///
/// A line is flagged when it holds an `1e9`-scale literal *and* a
/// time-unit identifier (`*_ns`, `secs`, `latency_*`, ...). The identifier
/// requirement keeps byte-scale literals (`bytes as f64 / 1e9` for GB)
/// out of scope.
fn raw_time_arith(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    // The profiler formats *host* nanoseconds for reports; it never
    // produces simulated time, so the drift concern does not apply.
    if !in_sim(&file.path) || file.path == "crates/des/src/time.rs" || is_prof_path(&file.path) {
        return;
    }
    const NS_LITERALS: [&str; 5] = ["1_000_000_000", "1e9", "1E9", "1e+9", "999_999_999"];
    for (line, toks) in file.code_lines() {
        let literal = toks
            .iter()
            .any(|t| NS_LITERALS.iter().any(|l| t.text.contains(l)));
        if literal && toks.iter().any(|t| is_time_identifier(&t.text)) {
            out.push(diag(
                file,
                "raw-time-arith",
                line,
                "raw f64 seconds/ns arithmetic outside des::time; convert via \
                 SimTime/SimDuration instead"
                    .to_string(),
            ));
        }
    }
}

/// Whether a token names a time quantity (case-insensitively).
fn is_time_identifier(id: &str) -> bool {
    const SUBSTRINGS: [&str; 7] = [
        "nano", "micro", "milli", "time", "duration", "latency", "deadline",
    ];
    const SEGMENTS: [&str; 8] = ["ns", "us", "ms", "sec", "secs", "msec", "usec", "nsec"];
    let id = id.to_ascii_lowercase();
    SUBSTRINGS.iter().any(|s| id.contains(s)) || id.split('_').any(|seg| SEGMENTS.contains(&seg))
}

/// `no-unwrap`: in the simulator core, `.unwrap()` is banned and
/// `.expect(...)` must carry an invariant-documenting message (at least
/// [`MIN_EXPECT_MESSAGE`] characters). A panic in the core aborts a whole
/// multi-hour training run; any remaining panic site must at minimum say
/// which invariant broke.
fn no_unwrap(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_core(&file.path) {
        return;
    }
    for (line, toks) in file.code_lines() {
        if spelled(toks, &[".", "unwrap", "(", ")"]).is_some() {
            out.push(diag(
                file,
                "no-unwrap",
                line,
                "unwrap() in simulator core; return a typed error or use expect() \
                 with an invariant-documenting message"
                    .to_string(),
            ));
        }
        let Some(k) = spelled(toks, &[".", "expect", "("]) else {
            continue;
        };
        let message = match expect_message(&file.source[toks[k].offset..]) {
            Some(msg) if msg.chars().count() >= MIN_EXPECT_MESSAGE => continue,
            Some(msg) => format!(
                "expect() message \"{msg}\" too short to document an invariant \
                 (need >= {MIN_EXPECT_MESSAGE} chars)"
            ),
            None => "expect() without a literal invariant-documenting message".to_string(),
        };
        out.push(diag(file, "no-unwrap", line, message));
    }
}

/// Minimum length of an `.expect(...)` message in the simulator core.
pub const MIN_EXPECT_MESSAGE: usize = 12;

/// Extracts the string literal following an `.expect(` at the start of
/// `rest`, looking up to two lines ahead for rustfmt-wrapped messages.
fn expect_message(rest: &str) -> Option<String> {
    let body = rest
        .lines()
        .take(3)
        .find_map(|l| l.find('"').map(|start| &l[start + 1..]))?;
    let mut msg = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => break,
            '\\' => msg.extend(chars.next()),
            c => msg.push(c),
        }
    }
    Some(msg)
}

/// Pushes one `rule` finding per line and per name in `names` that
/// `found(line's tokens, name)` reports, with the message `message(name)`.
fn line_rule(
    file: &ScannedFile,
    rule: &'static str,
    names: &[&str],
    found: impl Fn(&[Tok], &str) -> bool,
    message: impl Fn(&str) -> String,
    out: &mut Vec<Diagnostic>,
) {
    for (line, toks) in file.code_lines() {
        for name in names {
            if found(toks, name) {
                out.push(diag(file, rule, line, message(name)));
            }
        }
    }
}

/// Whether `toks` hold the identifier `name`.
fn uses_ident(toks: &[Tok], name: &str) -> bool {
    toks.iter().any(|t| t.is_ident(name))
}

/// `hash-iteration`: `HashMap`/`HashSet` and their per-process seed,
/// `RandomState`, in the simulation crates. Their iteration order varies
/// per process and per instance, so any use risks feeding a simulation
/// decision; simulation code uses `BTreeMap`/`BTreeSet` (or sorted
/// vectors).
fn hash_iteration(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_sim(&file.path) || is_prof_path(&file.path) {
        return;
    }
    let message = |ty: &str| {
        format!(
            "{ty} in a simulation crate: iteration order is seeded per process; \
             use BTreeMap/BTreeSet or sorted iteration"
        )
    };
    let types = ["HashMap", "HashSet", "RandomState"];
    line_rule(file, "hash-iteration", &types, uses_ident, message, out);
}

/// `entropy`: ambient randomness in simulation crates. Every random
/// stream must derive from `des::rng` seeds so runs replay
/// bit-identically. (Wall-clock reads are the `host-time-scope` rule.)
fn entropy(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_sim(&file.path) || file.path == "crates/des/src/rng.rs" {
        return;
    }
    let message = |src: &str| {
        format!(
            "entropy source `{src}` outside des::rng; seed explicitly via \
             fleetio_des::rng"
        )
    };
    let sources = ["thread_rng", "from_entropy", "getrandom"];
    line_rule(file, "entropy", &sources, uses_ident, message, out);
}

/// `host-time-scope`: wall-clock reads (`Instant`, `SystemTime`) in the
/// simulation scope. Host time is quarantined to `crates/bench` and the
/// profiler (`crates/obs/src/prof*`); anywhere else it could leak into
/// deterministic sim logic, where two same-seed runs would diverge.
fn host_time_scope(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_sim(&file.path) || is_prof_path(&file.path) {
        return;
    }
    let message = |src: &str| {
        format!(
            "wall-clock source `{src}` outside crates/bench and obs::prof; take \
             time from fleetio_des::SimTime or profile via fleetio_obs::prof"
        )
    };
    let sources = ["Instant", "SystemTime"];
    line_rule(file, "host-time-scope", &sources, uses_ident, message, out);
}

/// `no-println`: ad-hoc stdout/stderr writes in quiet library crates.
/// Structured output belongs in `fleetio-obs` events/metrics; stray
/// `println!` in the hot path skews timing-sensitive benchmarks and
/// pollutes exporter streams. Terminal output belongs in the `fleetio` CLI.
/// A call is the macro's name as a whole identifier with `!` touching it,
/// so `print` matches neither `println!` nor `self.print()`.
fn no_println(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_quiet(&file.path) {
        return;
    }
    let called = |toks: &[Tok], mac: &str| {
        (0..toks.len()).any(|k| toks[k].is_ident(mac) && spelled_at(toks, k, &[mac, "!"]))
    };
    let message = |mac: &str| {
        format!(
            "`{mac}!` in a quiet library crate; emit a fleetio-obs event or \
             metric instead (terminal output belongs in the fleetio CLI)"
        )
    };
    let macros = ["println", "eprintln", "print", "eprint", "dbg"];
    line_rule(file, "no-println", &macros, called, message, out);
}

/// `atomic-io`: direct file-writing APIs in simulation crates. A crash
/// (or a concurrently-reading trainer) must never observe a half-written
/// checkpoint, so every persistent write goes through
/// `fleetio_model::atomic_write` (tmp file + fsync + rename) — the one
/// file exempt from this rule. `fs::write`, `File::create` and
/// `OpenOptions` anywhere else in the simulation scope are flagged;
/// wall-clock crates (`bench`, `audit`) and CLI report exporters outside
/// the scope stay free to write directly.
fn atomic_io(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_sim(&file.path) || file.path == "crates/model/src/atomic.rs" {
        return;
    }
    // A path-qualified call matches as it is spelled in the source.
    let used = |toks: &[Tok], api: &str| match api.split_once("::") {
        Some((head, tail)) => spelled(toks, &[head, "::", tail]).is_some(),
        None => uses_ident(toks, api),
    };
    let message = |api: &str| {
        format!(
            "direct file write via `{api}` in a simulation crate; persist \
             through fleetio_model::atomic_write (crash-safe tmp+rename)"
        )
    };
    let apis = ["fs::write", "File::create", "OpenOptions"];
    line_rule(file, "atomic-io", &apis, used, message, out);
}

/// `hot-path-collections`: node-based map/set types in the engine's
/// event-handler scope (`crates/vssd/src/engine/`). Everything under that
/// directory runs from `dispatch_event`, so a `BTreeMap` lookup there is a
/// pointer-chasing tree walk paid per simulated event — per-event state
/// belongs in slab/dense-vec storage indexed by handle (see
/// `vssd::engine::vstate` and `vssd::stride::DenseStride`). `HashMap`/
/// `HashSet` are additionally nondeterministic (also `hash-iteration`).
/// Cold control-plane state (vSSD create/destroy, per-admission-tick
/// snapshots) is kept in sorted or dense vectors too: the rule has no
/// exceptions.
fn hot_path_collections(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_engine_hot_path(&file.path) {
        return;
    }
    const TYPES: [&str; 4] = ["BTreeMap", "BTreeSet", "HashMap", "HashSet"];
    const OPS: [&str; 14] = [
        "get",
        "get_mut",
        "insert",
        "remove",
        "entry",
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "range",
        "contains_key",
        "contains",
        "pop_first",
    ];
    let toks = &file.toks;
    let live = |line: u32| !file.line_is_test(line as usize) && !file.line_is_audit(line as usize);
    // Pass 1: map-typed binding names (`let m = BTreeMap::new()`, struct
    // fields and `let m: BTreeMap<..>` annotations).
    let mut bindings: Vec<(String, &'static str)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !live(t.line) {
            continue;
        }
        let Some(ty) = TYPES.iter().find(|ty| t.text == **ty) else {
            continue;
        };
        // Walk back over `std :: collections ::`-style path segments.
        let mut j = k;
        while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        let bound = match toks[j - 1].text.as_str() {
            ":" | "=" => toks.get(j.wrapping_sub(2)),
            _ => None,
        };
        if let Some(name_tok) = bound.filter(|n| n.kind == TokKind::Ident) {
            bindings.push((name_tok.text.clone(), ty));
        }
    }
    // Pass 2: flag the type mentions themselves, plus per-event
    // operations on the bindings found in pass 1 (lines that never name
    // the type — the sites the line-local v1 rule could not see).
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !live(t.line) {
            continue;
        }
        if let Some(ty) = TYPES.iter().find(|ty| t.text == **ty) {
            out.push(diag(
                file,
                "hot-path-collections",
                t.line as usize,
                format!(
                    "{ty} in the engine event-handler scope: per-event lookups must \
                     use slab/dense-vec storage indexed by handle; for cold control-plane \
                     maps, keep them in sorted or dense vectors"
                ),
            ));
            continue;
        }
        let is_op = OPS.contains(&t.text.as_str())
            && k >= 2
            && toks[k - 1].is_punct(".")
            && toks[k - 2].kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|n| n.is_punct("("));
        if is_op {
            let recv = &toks[k - 2].text;
            if let Some((_, ty)) = bindings.iter().find(|(n, _)| n == recv) {
                out.push(diag(
                    file,
                    "hot-path-collections",
                    t.line as usize,
                    format!(
                        "per-event `.{}()` on map-typed binding `{recv}` ({ty}) in the \
                         engine event-handler scope; move this state to slab/dense-vec \
                         storage indexed by handle",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// `unchecked-ops`: unchecked indexing/arithmetic in the engine's
/// event-handler scope. `get_unchecked`, `unwrap_unchecked`,
/// `unchecked_add` and friends trade the bounds/overflow check — the last
/// line of defense behind the slab generation checks — for nanoseconds,
/// and a wrong index there corrupts simulation state silently instead of
/// panicking. The profiler shows none of these sites are hot enough to
/// justify that.
fn unchecked_ops(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_engine_hot_path(&file.path) {
        return;
    }
    for t in &file.toks {
        let line = t.line as usize;
        if t.kind != TokKind::Ident || file.line_is_test(line) || file.line_is_audit(line) {
            continue;
        }
        if t.text.ends_with("_unchecked") || t.text.starts_with("unchecked_") {
            out.push(diag(
                file,
                "unchecked-ops",
                line,
                format!(
                    "`{}` in the engine event-handler scope: keep the bounds/overflow \
                     check; unchecked ops turn index bugs into silent state corruption",
                    t.text
                ),
            ));
        }
    }
}

/// `host-state`: host process and scheduler state in the simulation
/// crates, which two same-seed runs need not share: the process
/// environment (`std::env`, or `env::var`, `vars`, `var_os`, `args` or
/// `args_os` after a `use std::env`), thread identity
/// (`thread::current`), unordered channel polling (`try_recv`), and a
/// float reduction across joined threads — a no-argument `.join()` in a
/// file with float evidence (`f32`/`f64`, a float literal or `+=`), whose
/// sum would depend on join order. The RL environment module
/// (`crate::env::MultiAgentEnv`) is not process state and does not match.
/// The float-join check skips `crates/store/src/`, whose writer threads
/// count integers with `+=` beside their joins and which no other
/// simulation crate depends on.
fn host_state(file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !in_sim(&file.path) || is_prof_path(&file.path) {
        return;
    }
    let message = |src: &str| {
        format!(
            "host state `{src}` in a simulation crate: same-seed runs must not \
             read the process environment, thread identity, channel timing or \
             join order; pass it in as configuration or merge by index"
        )
    };
    // The last part of a spelling matches as a prefix, so `env::var`
    // also covers `vars` and `var_os`, and `env::args` covers `args_os`.
    let used = |toks: &[Tok], src: &str| match src {
        "std::env" => [
            ["std", "::", "env"],
            ["env", "::", "var"],
            ["env", "::", "args"],
        ]
        .iter()
        .any(|parts| spelled(toks, parts).is_some()),
        "thread::current" => spelled(toks, &["thread", "::", "current"]).is_some(),
        _ => uses_ident(toks, src),
    };
    let sources = ["std::env", "thread::current", "try_recv"];
    line_rule(file, "host-state", &sources, used, message, out);
    let float = file.code_lines().flat_map(|(_, toks)| toks).any(|t| {
        t.is_ident("f64") || t.is_ident("f32") || t.kind == TokKind::Float || t.is_punct("+=")
    });
    if !float || file.path.starts_with("crates/store/src/") {
        return;
    }
    for (line, toks) in file.code_lines() {
        if spelled(toks, &[".", "join", "(", ")"]).is_some() {
            let src = "float reduction across joined threads";
            out.push(diag(file, "host-state", line, message(src)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScannedFile;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(&ScannedFile::new(path, src))
    }

    #[test]
    fn raw_time_flags_ns_conversion() {
        let d = diags(
            "crates/flash/src/timing.rs",
            "fn f(bps: f64) -> u64 { (1024.0 * 1e9 / bps) as u64 } // no ident\nfn g(bps: f64) -> u64 { let bus_ns = 1e9 / bps; bus_ns as u64 }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "raw-time-arith");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn raw_time_ignores_byte_scale_literals() {
        let d = diags(
            "crates/fleetio/src/states.rs",
            "let gb = free_capacity_bytes as f64 / 1e9;\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn raw_time_exempts_time_rs_and_bench() {
        assert!(diags("crates/des/src/time.rs", "let ns = secs * 1e9;").is_empty());
        assert!(diags(
            "crates/bench/src/figures.rs",
            "let s = ns / 1_000_000_000.0;"
        )
        .is_empty());
    }

    #[test]
    fn unwrap_flagged_in_core_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(diags("crates/des/src/queue.rs", src).len(), 1);
        assert!(diags("crates/rl/src/ppo.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_tests_allowed() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(diags("crates/des/src/queue.rs", src).is_empty());
    }

    #[test]
    fn expect_needs_long_message() {
        let ok = "fn f() { x.expect(\"listed gSB exists in pool\"); }\n";
        let short = "fn f() { x.expect(\"oops\"); }\n";
        assert!(diags("crates/vssd/src/gsb.rs", ok).is_empty());
        assert_eq!(diags("crates/vssd/src/gsb.rs", short).len(), 1);
    }

    #[test]
    fn expect_message_found_on_next_line() {
        let src = "fn f() {\n x.expect(\n   \"event queue nonempty while inflight\",\n ); }\n";
        assert!(
            diags("crates/des/src/queue.rs", src).is_empty(),
            "{:?}",
            diags("crates/des/src/queue.rs", src)
        );
    }

    #[test]
    fn hashmap_flagged_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(diags("crates/vssd/src/gsb.rs", src).len(), 1);
        assert!(diags("crates/bench/src/context.rs", src).is_empty());
        assert!(diags("crates/obs/src/prof.rs", src).is_empty());
        // Inside the engine scope the same line also trips the hot-path rule.
        let d = diags("crates/vssd/src/engine/mod.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.rule == "hash-iteration"));
        assert!(d.iter().any(|d| d.rule == "hot-path-collections"));
    }

    #[test]
    fn tree_maps_flagged_in_engine_scope_only() {
        for src in [
            "use std::collections::BTreeMap;\n",
            "let mut claimed = std::collections::BTreeSet::new();\n",
            "pub(crate) id_to_idx: BTreeMap<VssdId, usize>,\n",
        ] {
            let d = diags("crates/vssd/src/engine/harvest.rs", src);
            assert_eq!(d.len(), 1, "{src:?}: {d:?}");
            assert_eq!(d[0].rule, "hot-path-collections");
        }
        // BTree types are fine (deterministic) outside the engine scope...
        assert!(diags(
            "crates/vssd/src/gsb.rs",
            "use std::collections::BTreeMap;\n"
        )
        .is_empty());
        assert!(diags(
            "crates/des/src/queue.rs",
            "use std::collections::BTreeSet;\n"
        )
        .is_empty());
        // ...and in engine test modules.
        let in_test = "#[cfg(test)]\nmod tests {\n use std::collections::BTreeMap;\n}\n";
        assert!(diags("crates/vssd/src/engine/mod.rs", in_test).is_empty());
        // Lookalike identifiers and doc comments don't fire.
        assert!(diags(
            "crates/vssd/src/engine/vstate.rs",
            "/// replaces a `BTreeMap<u64, Ppa>` walk with one array index\nlet x = MyBTreeMapLike::new();\n"
        )
        .is_empty());
    }

    #[test]
    fn entropy_flagged_outside_rng() {
        let src = "let mut rng = thread_rng();\n";
        assert_eq!(diags("crates/workloads/src/gen.rs", src).len(), 1);
        assert_eq!(diags("crates/workloads/src/gen.rs", src)[0].rule, "entropy");
        assert!(diags("crates/des/src/rng.rs", src).is_empty());
        assert!(diags("crates/bench/src/figures.rs", src).is_empty());
    }

    #[test]
    fn host_time_flagged_outside_bench_and_prof() {
        let src = "let t = std::time::Instant::now();\n";
        for path in [
            "crates/workloads/src/gen.rs",
            "crates/des/src/queue.rs",
            "crates/vssd/src/engine/mod.rs",
            "crates/rl/src/ppo.rs",
            "crates/fleetio/src/driver.rs",
            "crates/model/src/registry.rs",
            "crates/obs/src/sink.rs",
        ] {
            let d = diags(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, "host-time-scope");
        }
        let sys = "let now = SystemTime::now();\n";
        assert_eq!(
            diags("crates/rl/src/ppo.rs", sys)[0].rule,
            "host-time-scope"
        );
        // The two sanctioned homes for wall clock.
        assert!(diags("crates/bench/src/figures.rs", src).is_empty());
        assert!(diags("crates/obs/src/prof.rs", src).is_empty());
        assert!(diags("crates/obs/src/prof/alloc.rs", src).is_empty());
    }

    #[test]
    fn prof_path_exempt_from_raw_time_arith() {
        let src = "let s = total_ns / 1_000_000_000.0;\n";
        assert!(diags("crates/obs/src/prof.rs", src).is_empty());
        assert_eq!(diags("crates/obs/src/series.rs", src).len(), 1);
    }

    #[test]
    fn println_flagged_in_quiet_crates_only() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert_eq!(diags("crates/des/src/queue.rs", src).len(), 1);
        assert_eq!(diags("crates/rl/src/ppo.rs", src).len(), 1);
        assert_eq!(diags("crates/obs/src/main.rs", src).len(), 1);
        assert!(diags("crates/bench/src/figures.rs", src).is_empty());
        assert!(diags("crates/fleetio/src/driver.rs", src).is_empty());
    }

    #[test]
    fn println_rule_covers_all_print_macros() {
        for mac in ["println", "eprintln", "print", "eprint", "dbg"] {
            let src = format!("fn f() {{ {mac}!(\"x\"); }}\n");
            let d = diags("crates/ml/src/mlp.rs", &src);
            assert_eq!(d.len(), 1, "{mac}: {d:?}");
            assert_eq!(d[0].rule, "no-println");
        }
    }

    #[test]
    fn println_allowed_in_tests_and_ignores_lookalikes() {
        let in_test = "#[cfg(test)]\nmod tests {\n fn t() { println!(\"x\"); }\n}\n";
        assert!(diags("crates/des/src/queue.rs", in_test).is_empty());
        // Not a macro call: identifier without `!`, part of a longer name,
        // `!` not touching the name, or `print` inside `println!`/`eprint!`.
        for src in [
            "self.print_report(); print(x);",
            "my_println!(\"x\");",
            "println !(\"x\");",
            "if dbg != 0 {}",
        ] {
            assert!(diags("crates/des/src/queue.rs", src).is_empty(), "{src}");
        }
        let d = diags(
            "crates/des/src/queue.rs",
            "println!(\"x\"); eprint!(\"y\");",
        );
        let macs: Vec<_> = d
            .iter()
            .map(|d| &d.message[..d.message.find('!').unwrap_or(0)])
            .collect();
        assert_eq!(macs, ["`println", "`eprint"], "{d:?}");
    }

    #[test]
    fn atomic_io_flags_direct_writes_in_sim_scope() {
        for src in [
            "fn f() { std::fs::write(p, b).unwrap(); }\n",
            "fn f() { let f = File::create(p)?; }\n",
            "fn f() { let f = OpenOptions::new().write(true).open(p)?; }\n",
        ] {
            for path in [
                "crates/rl/src/ppo.rs",
                "crates/model/src/registry.rs",
                "crates/fleetio/src/agent.rs",
            ] {
                let d: Vec<_> = diags(path, src)
                    .into_iter()
                    .filter(|d| d.rule == "atomic-io")
                    .collect();
                assert_eq!(d.len(), 1, "{path}: {src:?}: {d:?}");
            }
        }
    }

    #[test]
    fn atomic_io_exempts_writer_tests_and_wall_clock_crates() {
        let src = "fn f() { let f = File::create(p)?; }\n";
        assert!(diags("crates/model/src/atomic.rs", src).is_empty());
        assert!(diags("crates/bench/src/figures.rs", src).is_empty());
        assert!(diags("crates/audit/src/scan.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n fn t() { std::fs::write(p, b); }\n}\n";
        assert!(diags("crates/model/src/registry.rs", in_test).is_empty());
        // Lookalike identifiers don't fire.
        assert!(diags(
            "crates/rl/src/ppo.rs",
            "let x = MyOpenOptionsLike::new();\n"
        )
        .is_empty());
    }

    #[test]
    fn identifier_match_is_whole_word() {
        let core = "crates/des/src/queue.rs";
        assert_eq!(diags(core, "let x: HashMap<u8, u8>;").len(), 1);
        assert!(diags(core, "let x = MyHashMapLike::new();").is_empty());
        assert!(diags(core, "let instantaneous = Instant_like;").is_empty());
    }

    #[test]
    fn paths_and_method_calls_are_spelled_without_gaps() {
        let core = "crates/des/src/queue.rs";
        for src in [
            "x . unwrap();",
            "x./* why */unwrap();",
            "x.unwrap ();",
            "std::fs :: write(p, b);",
        ] {
            assert!(diags(core, src).is_empty(), "{src}");
        }
        // As in the source text, `fs::write` also matches inside a longer path segment.
        let d = diags(core, "x.unwrap(); tmpfs::write_all(p);");
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["no-unwrap", "atomic-io"], "{d:?}");
    }

    /// The rules of a file under `crates/fleetio/src/` (simulation scope)
    /// whose one function no simulation entry point calls.
    fn unreached(body: &str) -> Vec<(usize, &'static str)> {
        let src = format!("fn unreached() {{\n{body}\n}}\n");
        diags("crates/fleetio/src/unreached.rs", &src)
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect()
    }

    #[test]
    fn every_determinism_source_is_flagged_without_a_caller() {
        for (body, rule) in [
            ("let n = std::env::var(\"N\");", "host-state"),
            ("let n = env::args().count();", "host-state"),
            ("let id = std::thread::current().id();", "host-state"),
            ("let x = rx.try_recv();", "host-state"),
            ("let s = std::hash::RandomState::new();", "hash-iteration"),
            ("let m: HashMap<u8, u8> = HashMap::new();", "hash-iteration"),
            ("let t = Instant::now();", "host-time-scope"),
        ] {
            assert_eq!(unreached(body), [(2, rule)], "{body}");
        }
    }

    #[test]
    fn float_join_needs_a_join_and_float_evidence_in_the_file() {
        let join = "for h in handles { out.push(h.join()); }";
        assert_eq!(
            unreached(&format!("{join}\nlet total = 0.0;")),
            [(2, "host-state")]
        );
        for evidence in ["let avg: f32 = 1;", "let n = 1.5e3;", "n += 1;"] {
            assert_eq!(
                unreached(&format!("{join}\n{evidence}")),
                [(2, "host-state")],
                "{evidence}"
            );
        }
        // Float evidence in another function of the same file counts.
        let src = "fn merge() { for h in hs { h.join(); } }\nfn mean(x: f64) -> f64 { x }\n";
        let d = diags("crates/rl/src/parallel.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].line, d[0].rule), (1, "host-state"));
        // A join with no float beside it, a join with an argument, and a
        // float-summing join in test code are not reductions.
        assert!(unreached(join).is_empty());
        assert!(unreached("let p = dir.join(name);\nlet avg = 0.5f64;").is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n fn t() { s += h.join().unwrap(); }\n}\n";
        assert!(diags("crates/rl/src/parallel.rs", in_test).is_empty());
    }

    #[test]
    fn the_rl_environment_and_the_store_writers_stay_clean() {
        for src in [
            "use crate::env::MultiAgentEnv;\n",
            "pub use env::{MultiAgentEnv, StepResult};\n",
            "use fleetio_rl::env::{MultiAgentEnv, StepResult};\n",
            "fn f(e: &mut env::FleetIoEnv) { let s = env::State::new(); }\n",
            "let home = env!(\"CARGO_MANIFEST_DIR\");\n",
        ] {
            assert!(diags("crates/rl/src/lib.rs", src).is_empty(), "{src}");
        }
        let writer = "fn write(&mut self) {\n    self.bytes += n;\n    \
                      let _ = self.thread.join();\n    let r = 0.5;\n}\n";
        assert!(diags("crates/store/src/sink.rs", writer).is_empty());
        assert_eq!(diags("crates/fleet/src/runtime.rs", writer).len(), 1);
        // The store still answers to every other source.
        let polled = "fn poll(&self) { let _ = self.rx.try_recv(); }\n";
        assert_eq!(diags("crates/store/src/read.rs", polled).len(), 1);
    }

    #[test]
    fn host_state_skips_the_profiler_and_wall_clock_crates() {
        let src = "fn f() { let id = std::thread::current().id(); let s = 0.0; h.join(); }\n";
        assert!(diags("crates/obs/src/prof.rs", src).is_empty());
        assert!(diags("crates/bench/src/figures.rs", src).is_empty());
        assert!(diags("crates/audit/src/lib.rs", src).is_empty());
        let d = diags("crates/obs/src/sink.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn the_audit_sweep_is_outside_the_engine_hot_path() {
        let src = "#[cfg(feature = \"audit\")]\nuse std::collections::BTreeSet;\n\
                   fn sweep(s: &BTreeSet<u64>) -> bool { s.contains(&0) }\n";
        assert!(diags("crates/vssd/src/engine/audit.rs", src).is_empty());
        let d = diags("crates/vssd/src/engine/arbiter.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].line, d[0].rule), (3, "hot-path-collections"));
    }
}
