//! Workspace call graph and the determinism-taint reachability rule.
//!
//! The graph is built from [`crate::items`] extraction over every scanned
//! file: one node per `fn` item, edges from call sites resolved by name
//! with a suffix-qualified path filter (`Engine::idx` only matches fns in
//! an `impl Engine` or `mod idx`-shaped scope) and a crate
//! dependency-direction filter (a call in `vssd` can only land in `vssd`'s
//! dependency closure, so a bench-crate `Instant` can never look reachable
//! from the engine). Method calls (`x.f()`) are a conservative
//! over-approximation: they match every workspace fn named `f` that the
//! dependency filter admits.
//!
//! The taint rule seeds the graph with nondeterminism sources — host time,
//! hash-ordered collections, process environment, thread identity,
//! unordered channel polling, and float reductions across joined threads —
//! and walks forward from the DES dispatch path and the rollout workers.
//! Any path to a source is a finding, reported with the full call chain.
//! Two sinks are sanctioned and never traversed: the host-time profiler
//! (`crates/obs/src/prof*`) and `#[cfg(feature = "audit")]`-gated code,
//! neither of which runs in a release simulation.

use crate::items::{self, FnItem};
use crate::rules::Diagnostic;
use crate::scan::ScannedFile;
use crate::token::TokKind;

/// Reachability roots: the DES dispatch path, the rollout workers, the
/// fleet window, the one window loop under all of them (which also
/// covers `fleetio figures`, `fleetio store record` and `replay` runs) and
/// pre-training, whose behaviour-cloning collection runs on workers.
/// Every simulated decision flows through one of these.
pub const TAINT_ROOTS: [&str; 7] = [
    "Engine::dispatch_event",
    "Engine::run_until",
    "collect_frozen",
    "collect_parallel_envs",
    "FleetRuntime::run_window",
    "Colocation::advance",
    "pretrain_trainer",
];

/// One nondeterminism source occurrence.
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// Source category: `host-time`, `hash-collection`, `env`,
    /// `thread-identity`, `unordered-recv`, or `float-join`.
    pub kind: &'static str,
    /// The offending token or pattern, e.g. `Instant` or `thread::current`.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

#[derive(Debug)]
struct FnNode {
    file: usize,
    item: FnItem,
    /// Sanctioned sinks are kept in the graph but never traversed, and
    /// their own sources are never reported.
    sanctioned: bool,
    sources: Vec<TaintSource>,
    callees: Vec<usize>,
}

/// Crate dependency closure for call-resolution direction filtering.
#[derive(Debug, Default)]
pub struct DepGraph {
    /// `crate -> crates it may call into` (transitive, includes itself).
    closure: Vec<(String, Vec<String>)>,
}

impl DepGraph {
    /// Builds the transitive closure from direct-dependency edges.
    pub fn new(edges: &[(String, Vec<String>)]) -> DepGraph {
        let mut closure = Vec::new();
        for (krate, _) in edges {
            let mut reach = vec![krate.clone()];
            let mut i = 0;
            while i < reach.len() {
                let cur = reach[i].clone();
                if let Some((_, deps)) = edges.iter().find(|(k, _)| *k == cur) {
                    for d in deps {
                        if !reach.contains(d) {
                            reach.push(d.clone());
                        }
                    }
                }
                i += 1;
            }
            reach.sort();
            closure.push((krate.clone(), reach));
        }
        DepGraph { closure }
    }

    /// A graph that allows every edge (used by in-memory tests).
    pub fn unrestricted() -> DepGraph {
        DepGraph::default()
    }

    /// Whether a call in `caller` may resolve into `callee`. Unknown
    /// callers are unrestricted (conservative over-approximation).
    pub fn allows(&self, caller: &str, callee: &str) -> bool {
        if caller == callee || self.closure.is_empty() {
            return true;
        }
        match self.closure.iter().find(|(k, _)| k == caller) {
            Some((_, reach)) => reach.iter().any(|r| r == callee),
            None => true,
        }
    }
}

/// The analyzed workspace: files, fn nodes, call edges, taint sources.
#[derive(Debug)]
pub struct Workspace {
    paths: Vec<String>,
    fns: Vec<FnNode>,
    /// `(root name, resolved node ids)` for every entry in [`TAINT_ROOTS`].
    roots: Vec<(&'static str, Vec<usize>)>,
    /// Files whose `mod x;` declaration is `cfg(feature = "audit")`-gated.
    gated: Vec<String>,
}

impl Workspace {
    /// Whether the whole file is compiled only under the `audit` feature
    /// (its `mod` declaration is gated). Cost-based rules do not apply to
    /// such files: they are absent from release/perf builds.
    pub fn file_is_audit_gated(&self, path: &str) -> bool {
        self.gated.iter().any(|p| p == path)
    }

    /// `(root name, resolved fn-node ids)` per [`TAINT_ROOTS`] entry; an
    /// empty id list means the root did not resolve anywhere in the tree.
    pub fn root_resolutions(&self) -> impl Iterator<Item = (&'static str, &[usize])> {
        self.roots.iter().map(|(name, ids)| (*name, ids.as_slice()))
    }
}

/// Builds the workspace graph from scanned files.
pub fn build(files: &[ScannedFile], deps: &DepGraph) -> Workspace {
    let extracted: Vec<items::FileItems> = files.iter().map(items::extract).collect();
    let audit_gated = audit_gated_files(files, &extracted);

    // Nodes.
    let mut fns: Vec<FnNode> = Vec::new();
    let mut node_of: Vec<Vec<usize>> = Vec::with_capacity(files.len());
    for (fi, (file, ext)) in files.iter().zip(&extracted).enumerate() {
        let file_sanctioned =
            crate::rules::is_prof_path(&file.path) || audit_gated.contains(&file.path);
        let mut ids = Vec::with_capacity(ext.fns.len());
        for item in &ext.fns {
            ids.push(fns.len());
            fns.push(FnNode {
                file: fi,
                sanctioned: file_sanctioned || item.is_audit,
                item: item.clone(),
                sources: Vec::new(),
                callees: Vec::new(),
            });
        }
        node_of.push(ids);
    }
    let paths: Vec<String> = files.iter().map(|f| f.path.clone()).collect();

    // Name index over non-test fns.
    let mut by_name: Vec<(String, Vec<usize>)> = Vec::new();
    for (id, node) in fns.iter().enumerate() {
        if node.item.is_test {
            continue;
        }
        match by_name.binary_search_by(|(n, _)| n.as_str().cmp(&node.item.name)) {
            Ok(i) => by_name[i].1.push(id),
            Err(i) => by_name.insert(i, (node.item.name.clone(), vec![id])),
        }
    }

    // Calls and sources, file by file.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut srcs: Vec<(usize, TaintSource)> = Vec::new();
    for (fi, (file, ext)) in files.iter().zip(&extracted).enumerate() {
        scan_file(
            file,
            ext,
            &node_of[fi],
            &fns,
            &paths,
            &by_name,
            deps,
            &mut edges,
            &mut srcs,
        );
    }
    for (from, to) in edges {
        if !fns[from].callees.contains(&to) {
            fns[from].callees.push(to);
        }
    }
    for (id, s) in srcs {
        fns[id].sources.push(s);
    }

    // Resolve roots by exact qualified name.
    let roots = TAINT_ROOTS
        .iter()
        .map(|root| {
            let ids = fns
                .iter()
                .enumerate()
                .filter(|(_, n)| !n.item.is_test && n.item.qualified() == *root)
                .map(|(id, _)| id)
                .collect();
            (*root, ids)
        })
        .collect();

    Workspace {
        paths,
        fns,
        roots,
        gated: audit_gated,
    }
}

/// Files reached only through a `#[cfg(feature = "audit")] mod x;`
/// declaration: the whole file is audit-gated.
fn audit_gated_files(files: &[ScannedFile], extracted: &[items::FileItems]) -> Vec<String> {
    let mut out = Vec::new();
    for (file, ext) in files.iter().zip(extracted) {
        for (name, line) in &ext.mod_decls {
            if !file.line_is_audit(*line as usize) {
                continue;
            }
            let dir = match file.path.rsplit_once('/') {
                Some((dir, stem)) => {
                    let stem = stem.trim_end_matches(".rs");
                    if stem == "mod" || stem == "lib" || stem == "main" {
                        dir.to_string()
                    } else {
                        format!("{dir}/{stem}")
                    }
                }
                None => String::new(),
            };
            out.push(format!("{dir}/{name}.rs"));
            out.push(format!("{dir}/{name}/mod.rs"));
        }
    }
    out
}

/// The crate a workspace-relative path belongs to (`crates/<name>/...`).
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or(path)
}

/// File stem (module name the file defines): `engine/harvest.rs` →
/// `harvest`; `engine/mod.rs` → `engine` (the directory).
fn file_module(path: &str) -> &str {
    let stem = path
        .rsplit_once('/')
        .map(|(_, s)| s)
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if stem == "mod" || stem == "lib" || stem == "main" {
        path.rsplit_once('/')
            .map(|(d, _)| d.rsplit('/').next().unwrap_or(d))
            .unwrap_or(stem)
    } else {
        stem
    }
}

/// Idents that look like calls but are control flow or declarations.
const CALL_KEYWORDS: [&str; 15] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "else", "break",
    "continue", "where", "await",
];

/// Single-token source idents, by kind.
const IDENT_SOURCES: [(&str, &str); 6] = [
    ("Instant", "host-time"),
    ("SystemTime", "host-time"),
    ("HashMap", "hash-collection"),
    ("HashSet", "hash-collection"),
    ("RandomState", "hash-collection"),
    ("try_recv", "unordered-recv"),
];

#[allow(clippy::too_many_arguments)]
fn scan_file(
    file: &ScannedFile,
    ext: &items::FileItems,
    local_ids: &[usize],
    fns: &[FnNode],
    paths: &[String],
    by_name: &[(String, Vec<usize>)],
    deps: &DepGraph,
    edges: &mut Vec<(usize, usize)>,
    srcs: &mut Vec<(usize, TaintSource)>,
) {
    let toks = &file.toks;
    let caller_crate = crate_of(&file.path);
    // Per-local-fn float-join aggregation.
    let mut join_line: Vec<Option<u32>> = vec![None; ext.fns.len()];
    let mut has_float: Vec<bool> = vec![false; ext.fns.len()];

    for (k, t) in toks.iter().enumerate() {
        let line = t.line as usize;
        if file.line_is_test(line) || file.line_is_audit(line) {
            continue;
        }
        let owner_local = ext.owner.get(k).copied().flatten();
        let owner = owner_local.map(|l| local_ids[l]);

        // -- taint sources ------------------------------------------------
        if t.kind == TokKind::Ident {
            let mut push_src = |kind: &'static str, what: &str| {
                if let Some(o) = owner {
                    srcs.push((
                        o,
                        TaintSource {
                            kind,
                            what: what.to_string(),
                            line: t.line,
                        },
                    ));
                }
            };
            for (name, kind) in IDENT_SOURCES {
                if t.text == name {
                    push_src(kind, name);
                }
            }
            // `env::...` — process environment reads (std::env::args/var).
            // The compile-time `env!` macro does not match (`!`, not `::`).
            if t.text == "env" && toks.get(k + 1).is_some_and(|n| n.is_punct("::")) {
                push_src("env", "std::env");
            }
            // `thread::current` — thread identity.
            if t.text == "thread"
                && toks.get(k + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(k + 2).is_some_and(|n| n.is_ident("current"))
            {
                push_src("thread-identity", "thread::current");
            }
            if t.text == "f64" || t.text == "f32" {
                if let Some(l) = owner_local {
                    has_float[l] = true;
                }
            }
            // `.join()` with no arguments: a thread join (Path::join and
            // slice::join take an argument).
            if t.text == "join"
                && k > 0
                && toks[k - 1].is_punct(".")
                && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                && toks.get(k + 2).is_some_and(|n| n.is_punct(")"))
            {
                if let Some(l) = owner_local {
                    join_line[l].get_or_insert(t.line);
                }
            }
        }
        if t.kind == TokKind::Float || t.is_punct("+=") {
            if let Some(l) = owner_local {
                has_float[l] = true;
            }
        }

        // -- call edges ---------------------------------------------------
        if t.kind != TokKind::Ident || CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(o) = owner else { continue };
        if fns[o].item.is_test {
            continue;
        }
        // `name(` or `name::<T>(`, but not `name!(` (macro).
        let mut p = k + 1;
        if toks.get(p).is_some_and(|n| n.is_punct("::"))
            && toks.get(p + 1).is_some_and(|n| n.is_punct("<"))
        {
            let mut angle = 0i32;
            let mut q = p + 1;
            while q < toks.len() {
                if toks[q].is_punct("<") {
                    angle += 1;
                } else if toks[q].is_punct(">") {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                q += 1;
            }
            p = q + 1;
        }
        if !toks.get(p).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let qualifier =
            if k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].kind == TokKind::Ident {
                Some(toks[k - 2].text.as_str())
            } else {
                None
            };
        let Some(candidates) = by_name
            .binary_search_by(|(n, _)| n.as_str().cmp(&t.text))
            .ok()
            .map(|i| &by_name[i].1)
        else {
            continue;
        };
        for &cand in candidates {
            let cand_path = &paths[fns[cand].file];
            if !deps.allows(caller_crate, crate_of(cand_path)) {
                continue;
            }
            match qualifier {
                // Module-relative path: restrict to the caller's crate.
                Some("self") | Some("crate") | Some("super")
                    if crate_of(cand_path) != caller_crate =>
                {
                    continue;
                }
                Some("self") | Some("crate") | Some("super") => {}
                Some(q) => {
                    let q = match (q, &fns[o].item.self_ty) {
                        ("Self", Some(ty)) => ty.as_str(),
                        _ => q,
                    };
                    let item = &fns[cand].item;
                    let matches = item.self_ty.as_deref() == Some(q)
                        || item.module.as_deref() == Some(q)
                        || file_module(cand_path) == q;
                    if !matches {
                        continue;
                    }
                }
                // Bare or method call: any same-name fn (over-approximate).
                None => {}
            }
            edges.push((o, cand));
        }
    }

    for (l, jl) in join_line.iter().enumerate() {
        if let (Some(line), true) = (jl, has_float[l]) {
            srcs.push((
                local_ids[l],
                TaintSource {
                    kind: "float-join",
                    what: "float reduction across joined threads".to_string(),
                    line: *line,
                },
            ));
        }
    }
}

/// Runs the determinism-taint reachability rule: BFS from every resolved
/// root, stopping at sanctioned sinks, reporting each reachable fn's
/// sources with the full call chain.
pub fn determinism_taint(ws: &Workspace) -> Vec<Diagnostic> {
    let mut pred: Vec<Option<usize>> = vec![None; ws.fns.len()];
    let mut visited = vec![false; ws.fns.len()];
    let mut order: Vec<usize> = Vec::new();
    let mut root_of: Vec<Option<&'static str>> = vec![None; ws.fns.len()];
    let mut queue = std::collections::VecDeque::new();
    for (root, ids) in &ws.roots {
        for &id in ids {
            if !visited[id] && !ws.fns[id].sanctioned {
                visited[id] = true;
                root_of[id] = Some(root);
                queue.push_back(id);
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for &next in &ws.fns[id].callees {
            if visited[next] || ws.fns[next].sanctioned || ws.fns[next].item.is_test {
                continue;
            }
            visited[next] = true;
            pred[next] = Some(id);
            root_of[next] = root_of[id];
            queue.push_back(next);
        }
    }

    let mut out = Vec::new();
    for &id in &order {
        let node = &ws.fns[id];
        for s in &node.sources {
            let mut chain: Vec<String> = Vec::new();
            let mut cur = Some(id);
            while let Some(c) = cur {
                chain.push(ws.fns[c].item.qualified());
                cur = pred[c];
            }
            chain.reverse();
            out.push(Diagnostic {
                rule: "determinism-taint",
                path: ws.paths[node.file].clone(),
                line: s.line as usize,
                message: format!(
                    "nondeterminism source `{}` ({}) reachable from `{}`",
                    s.what,
                    s.kind,
                    root_of[id].unwrap_or("?"),
                ),
                snippet: format!("in fn {}", node.item.qualified()),
                chain,
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// A stable, line-number-free summary of the analysis for the golden
/// test: resolved roots, the sim-scope source inventory (with sanctioned
/// markers), and the finding count. Engine refactors that move lines do
/// not churn it; regressions in extraction, resolution, or sanctioning do.
pub fn taint_summary(ws: &Workspace) -> String {
    let mut out = String::from("taint roots:\n");
    for (root, ids) in &ws.roots {
        if ids.is_empty() {
            out.push_str(&format!("  {root} [UNRESOLVED]\n"));
        } else {
            for &id in ids {
                out.push_str(&format!("  {root} @ {}\n", ws.paths[ws.fns[id].file]));
            }
        }
    }
    out.push_str("sim-scope sources:\n");
    let mut rows: Vec<(String, &'static str, bool)> = Vec::new();
    for node in &ws.fns {
        let path = &ws.paths[node.file];
        if !crate::rules::in_sim(path) {
            continue;
        }
        for s in &node.sources {
            rows.push((path.clone(), s.kind, node.sanctioned));
        }
    }
    rows.sort();
    let mut i = 0;
    while i < rows.len() {
        let (path, kind, sanctioned) = rows[i].clone();
        let mut n = 0;
        while i < rows.len() && rows[i].0 == path && rows[i].1 == kind {
            n += 1;
            i += 1;
        }
        let mark = if sanctioned { " [sanctioned]" } else { "" };
        out.push_str(&format!("  {path}: {kind} x{n}{mark}\n"));
    }
    let findings = determinism_taint(ws);
    out.push_str(&format!("findings: {}\n", findings.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let scanned: Vec<ScannedFile> = files.iter().map(|(p, s)| ScannedFile::new(p, s)).collect();
        build(&scanned, &DepGraph::unrestricted())
    }

    #[test]
    fn taint_flows_through_a_call_chain() {
        let w = ws(&[(
            "crates/vssd/src/engine/mod.rs",
            "impl Engine {\n\
             pub fn dispatch_event(&mut self) { self.helper(); }\n\
             fn helper(&self) { leaf(); }\n\
             }\n\
             fn leaf() { let t = std::time::Instant::now(); }\n",
        )]);
        let d = determinism_taint(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "determinism-taint");
        assert_eq!(d[0].line, 5);
        assert_eq!(
            d[0].chain,
            ["Engine::dispatch_event", "Engine::helper", "leaf"]
        );
    }

    #[test]
    fn unreachable_source_is_not_reported() {
        let w = ws(&[(
            "crates/vssd/src/engine/mod.rs",
            "impl Engine {\n pub fn dispatch_event(&mut self) {}\n }\n\
             fn lonely() { let t = std::time::Instant::now(); }\n",
        )]);
        assert!(determinism_taint(&w).is_empty());
    }

    #[test]
    fn prof_and_cfg_audit_are_sanctioned_sinks() {
        let w = ws(&[
            (
                "crates/vssd/src/engine/mod.rs",
                "impl Engine {\n\
                 pub fn dispatch_event(&mut self) { span(); self.audit_event(); }\n\
                 }\n\
                 #[cfg(feature = \"audit\")]\n\
                 impl Engine {\n\
                 fn audit_event(&self) { let t = std::time::Instant::now(); }\n\
                 }\n",
            ),
            (
                "crates/obs/src/prof.rs",
                "pub fn span() { let t = std::time::Instant::now(); }\n",
            ),
        ]);
        assert!(determinism_taint(&w).is_empty());
    }

    #[test]
    fn audit_gated_mod_decl_sanctions_the_whole_file() {
        let w = ws(&[
            (
                "crates/vssd/src/engine/mod.rs",
                "#[cfg(feature = \"audit\")]\nmod audit;\n\
                 impl Engine {\n pub fn dispatch_event(&mut self) { self.check(); }\n }\n",
            ),
            (
                "crates/vssd/src/engine/audit.rs",
                "impl Engine {\n pub fn check(&self) { let m = std::collections::HashMap::new(); }\n }\n",
            ),
        ]);
        assert!(determinism_taint(&w).is_empty());
    }

    #[test]
    fn dependency_direction_restricts_resolution() {
        let files = [
            (
                "crates/vssd/src/engine/mod.rs",
                "impl Engine {\n pub fn dispatch_event(&mut self) { measure(); }\n }\n",
            ),
            (
                "crates/bench/src/figures.rs",
                "pub fn measure() { let t = std::time::Instant::now(); }\n",
            ),
        ];
        // Unrestricted: the bench fn resolves and taints the root.
        assert_eq!(determinism_taint(&ws(&files)).len(), 1);
        // With the real dependency direction (vssd does not depend on
        // bench) the call cannot land there.
        let scanned: Vec<ScannedFile> = files.iter().map(|(p, s)| ScannedFile::new(p, s)).collect();
        let deps = DepGraph::new(&[
            ("vssd".to_string(), vec!["des".to_string()]),
            ("bench".to_string(), vec!["vssd".to_string()]),
        ]);
        assert!(determinism_taint(&build(&scanned, &deps)).is_empty());
    }

    #[test]
    fn qualified_calls_respect_the_self_type() {
        let w = ws(&[(
            "crates/vssd/src/engine/mod.rs",
            "impl Engine {\n pub fn dispatch_event(&mut self) { Other::poke(); }\n }\n\
             struct Other;\n\
             impl Other {\n fn poke() {}\n }\n\
             struct Timer;\n\
             impl Timer {\n fn poke() { let t = std::time::Instant::now(); }\n }\n",
        )]);
        // `Other::poke` must not resolve to `Timer::poke`.
        assert!(determinism_taint(&w).is_empty());
    }

    #[test]
    fn float_join_requires_both_join_and_float_evidence() {
        let float_join = "fn collect_parallel_envs() {\n\
             let mut total = 0.0f64;\n\
             for h in handles { total += h.join().unwrap(); }\n\
             }\n";
        let int_join = "fn collect_parallel_envs() {\n\
             for h in handles { out.push(h.join().unwrap()); }\n\
             }\n";
        let path_join = "fn collect_parallel_envs() {\n\
             let avg = 0.5f64;\n\
             let p = dir.join(name);\n\
             }\n";
        let d = determinism_taint(&ws(&[("crates/rl/src/parallel.rs", float_join)]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("float-join"), "{d:?}");
        assert!(determinism_taint(&ws(&[("crates/rl/src/parallel.rs", int_join)])).is_empty());
        assert!(determinism_taint(&ws(&[("crates/rl/src/parallel.rs", path_join)])).is_empty());
    }

    #[test]
    fn sources_in_test_code_are_ignored() {
        let w = ws(&[(
            "crates/vssd/src/engine/mod.rs",
            "impl Engine {\n pub fn dispatch_event(&mut self) { self.go(); }\n\
             fn go(&self) {}\n }\n\
             #[cfg(test)]\nmod tests {\n fn t() { let m = std::collections::HashMap::new(); }\n}\n",
        )]);
        assert!(determinism_taint(&w).is_empty());
    }

    #[test]
    fn summary_is_line_free_and_lists_roots() {
        let w = ws(&[(
            "crates/vssd/src/engine/mod.rs",
            "impl Engine {\n pub fn run_until(&mut self) {}\n pub fn dispatch_event(&mut self) {}\n }\n",
        )]);
        let s = taint_summary(&w);
        assert!(s.contains("Engine::dispatch_event @ crates/vssd/src/engine/mod.rs"));
        assert!(s.contains("collect_frozen [UNRESOLVED]"));
        assert!(s.contains("findings: 0"));
        assert!(!s.contains(" line"), "{s}");
    }
}
