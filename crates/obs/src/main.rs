//! `fleetio-obs` CLI: turn an event trace into a readable report.
//!
//! Usage:
//!
//! ```text
//! fleetio-obs summarize <trace.jsonl | store-dir> [--by-tenant]
//! fleetio-obs report <trace.jsonl | store-dir>...
//! ```
//!
//! The input is either a JSONL trace file or a `fleetio-store` run
//! directory (detected by being a directory): binary segments are
//! decoded and summarized through the exact same aggregation path.
//! Exit code 2 on the first malformed line (reporting its line number)
//! or on a damaged segment (use `fleetio-store verify` to localize).
//!
//! `summarize` aggregates per-type event counts, request latency
//! percentiles, per-vSSD traffic, GC activity, throttles and window
//! flushes; `--by-tenant` adds an exact-bucket per-tenant
//! latency/throughput breakdown. `report` renders the fleet-health
//! view of `slo_window` / `fleet_migration` events — the offline twin
//! of `FleetRuntime::health_report` — and accepts several inputs at
//! once so per-shard run stores aggregate into one fleet dashboard.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use fleetio_des::{LatencyHistogram, SimDuration};
use fleetio_obs::json::{self, Value};
use fleetio_obs::{export, wire};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let paths: Vec<&String> = args
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let flags: Vec<&String> = args
        .iter()
        .skip(2)
        .filter(|a| a.starts_with("--"))
        .collect();
    match args.get(1).map(String::as_str) {
        Some("summarize") if paths.len() == 1 && flags.iter().all(|f| *f == "--by-tenant") => {
            summarize(paths[0], !flags.is_empty())
        }
        Some("report") if !paths.is_empty() && flags.is_empty() => report(&paths),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fleetio-obs summarize <trace.jsonl | store-dir> [--by-tenant]\n\
         \x20      fleetio-obs report <trace.jsonl | store-dir>..."
    );
    ExitCode::from(2)
}

/// Reads the trace as JSONL text: verbatim for a file, decoded from
/// binary segments (in sequence order) for a run-store directory.
fn load_trace(path: &str) -> Result<String, String> {
    if !std::path::Path::new(path).is_dir() {
        return std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    }
    let mut seg_files: Vec<String> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .filter_map(|entry| entry.ok().and_then(|e| e.file_name().into_string().ok()))
        .filter(|name| name.starts_with("seg-") && name.ends_with(".seg"))
        .collect();
    if seg_files.is_empty() {
        return Err(format!("{path}: no seg-*.seg files (not a run store?)"));
    }
    seg_files.sort();
    let mut events = Vec::new();
    for name in &seg_files {
        let bytes = std::fs::read(format!("{path}/{name}"))
            .map_err(|e| format!("cannot read {path}/{name}: {e}"))?;
        let (segment_events, damage) = wire::events_in_segment(&bytes);
        if let Some(d) = damage {
            return Err(format!(
                "{path}/{name}: {d}; run `fleetio-store verify {path}` to localize the damage"
            ));
        }
        events.extend(segment_events);
    }
    Ok(export::jsonl(events.iter()))
}

/// Loads and parses one input into JSON objects, line order preserved.
fn load_events(path: &str) -> Result<Vec<Value>, String> {
    let text = load_trace(path)?;
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let value =
            json::parse(line).map_err(|e| format!("{path}:{}: invalid JSON: {e}", idx + 1))?;
        if value.as_object().is_none() {
            return Err(format!("{path}:{}: line is not a JSON object", idx + 1));
        }
        out.push(value);
    }
    Ok(out)
}

#[derive(Default)]
struct VssdStats {
    completed: u64,
    bytes: u64,
    reads: u64,
}

/// Per-tenant exact-bucket accumulation for `--by-tenant`.
struct TenantStats {
    hist: LatencyHistogram,
    bytes: u64,
    first_arrival: u64,
    last_complete: u64,
}

impl Default for TenantStats {
    fn default() -> Self {
        TenantStats {
            hist: LatencyHistogram::new(),
            bytes: 0,
            first_arrival: u64::MAX,
            last_complete: 0,
        }
    }
}

fn summarize(path: &str, by_tenant: bool) -> ExitCode {
    let events = match load_events(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fleetio-obs: {e}");
            return ExitCode::from(2);
        }
    };

    let mut type_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut latency = LatencyHistogram::new();
    let mut queue_delay = LatencyHistogram::new();
    let mut per_vssd: BTreeMap<u64, VssdStats> = BTreeMap::new();
    let mut per_tenant: BTreeMap<u64, TenantStats> = BTreeMap::new();
    let mut gc_starts = 0u64;
    let mut gc_emergencies = 0u64;
    let mut gc_busy_ns = 0u64;
    let mut gc_live_pages = 0u64;
    let mut gsb: BTreeMap<String, u64> = BTreeMap::new();
    let mut throttles = 0u64;
    let mut windows = 0u64;
    let mut evicted = 0u64;
    let mut lines = 0u64;
    let mut last_ns = 0u64;

    for value in &events {
        let Some(obj) = value.as_object() else {
            continue;
        };
        lines += 1;
        let ty = obj
            .get("type")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        *type_counts.entry(ty.clone()).or_insert(0) += 1;
        for key in ["at", "end", "start"] {
            if let Some(ns) = obj.get(key).and_then(Value::as_u64) {
                last_ns = last_ns.max(ns);
            }
        }
        match ty.as_str() {
            "request_complete" => {
                let at = obj.get("at").and_then(Value::as_u64).unwrap_or(0);
                let arrival = obj.get("arrival").and_then(Value::as_u64).unwrap_or(at);
                let service = obj
                    .get("service_start")
                    .and_then(Value::as_u64)
                    .unwrap_or(at);
                let request_latency = SimDuration::from_nanos(at.saturating_sub(arrival));
                latency.record(request_latency);
                queue_delay.record(SimDuration::from_nanos(service.saturating_sub(arrival)));
                let vssd = obj.get("vssd").and_then(Value::as_u64).unwrap_or(0);
                let bytes = obj.get("bytes").and_then(Value::as_u64).unwrap_or(0);
                let entry = per_vssd.entry(vssd).or_default();
                entry.completed += 1;
                entry.bytes += bytes;
                if obj.get("read").and_then(Value::as_bool) == Some(true) {
                    entry.reads += 1;
                }
                if by_tenant {
                    let t = per_tenant.entry(vssd).or_default();
                    t.hist.record(request_latency);
                    t.bytes += bytes;
                    t.first_arrival = t.first_arrival.min(arrival);
                    t.last_complete = t.last_complete.max(at);
                }
            }
            "gc_start" => {
                gc_starts += 1;
                if obj.get("emergency").and_then(Value::as_bool) == Some(true) {
                    gc_emergencies += 1;
                }
                gc_live_pages += obj.get("live_pages").and_then(Value::as_u64).unwrap_or(0);
            }
            "gc_end" => {
                gc_busy_ns += obj.get("busy").and_then(Value::as_u64).unwrap_or(0);
            }
            "gsb" => {
                let kind = obj
                    .get("kind")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                *gsb.entry(kind).or_insert(0) += 1;
            }
            "throttle" => throttles += 1,
            "window_flush" => windows += 1,
            "trace_truncated" => {
                evicted += obj.get("dropped").and_then(Value::as_u64).unwrap_or(0);
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {path}\n  {lines} events, sim end {:.3} ms",
        last_ns as f64 / 1e6
    );
    if evicted > 0 {
        let _ = writeln!(
            out,
            "  {evicted} events evicted (trace truncated, ring full)"
        );
    }
    let _ = writeln!(out, "\nevent counts:");
    for (ty, n) in &type_counts {
        let _ = writeln!(out, "  {ty:<18} {n}");
    }
    if !latency.is_empty() {
        let ns = |d: Option<SimDuration>| d.map_or(0, SimDuration::as_nanos);
        let _ = writeln!(
            out,
            "\nrequest latency (ns, bucket upper bounds, at most 1.6 % high):"
        );
        let _ = writeln!(
            out,
            "  count {}  mean {}  p50 {}  p95 {}  p99 {}  max {}",
            latency.count(),
            ns(latency.mean()),
            ns(latency.percentile(50.0)),
            ns(latency.percentile(95.0)),
            ns(latency.percentile(99.0)),
            ns(latency.max()),
        );
        let _ = writeln!(
            out,
            "queue delay (ns): p50 {}  p99 {}",
            ns(queue_delay.percentile(50.0)),
            ns(queue_delay.percentile(99.0)),
        );
    }
    if !per_vssd.is_empty() {
        let _ = writeln!(out, "\nper-vSSD completions:");
        for (id, s) in &per_vssd {
            let read_pct = if s.completed > 0 {
                100.0 * s.reads as f64 / s.completed as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  vssd{id}: {} requests, {:.1} MiB, {read_pct:.0}% reads",
                s.completed,
                s.bytes as f64 / (1024.0 * 1024.0),
            );
        }
    }
    if by_tenant {
        let _ = writeln!(out, "\nper-tenant latency/throughput (exact buckets):");
        let _ = writeln!(
            out,
            "  {:<8}{:>10}{:>12}{:>12}{:>12}{:>12}",
            "tenant", "ops", "p50 ms", "p95 ms", "p99 ms", "MB/s"
        );
        for (id, t) in &per_tenant {
            let p = |pct: f64| {
                t.hist
                    .percentile(pct)
                    .unwrap_or(SimDuration::ZERO)
                    .as_millis_f64()
            };
            let span_s = t.last_complete.saturating_sub(t.first_arrival) as f64 / 1e9;
            let mbps = if span_s > 0.0 {
                t.bytes as f64 / span_s / 1e6
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<8}{:>10}{:>12.3}{:>12.3}{:>12.3}{:>12.1}",
                format!("t{id}"),
                t.hist.count(),
                p(50.0),
                p(95.0),
                p(99.0),
                mbps
            );
        }
    }
    if gc_starts > 0 || gc_busy_ns > 0 {
        let _ = writeln!(
            out,
            "\ngc: {gc_starts} runs ({gc_emergencies} emergency), {gc_live_pages} live pages migrated, {:.3} ms busy",
            gc_busy_ns as f64 / 1e6
        );
    }
    if !gsb.is_empty() {
        let parts: Vec<String> = gsb.iter().map(|(k, n)| format!("{k} {n}")).collect();
        let _ = writeln!(out, "gsb transitions: {}", parts.join(", "));
    }
    if throttles > 0 {
        let _ = writeln!(out, "token-bucket throttles: {throttles}");
    }
    if windows > 0 {
        let _ = writeln!(out, "window flushes: {windows}");
    }
    print!("{out}");
    ExitCode::SUCCESS
}

/// A tenant's worst violating window by p99, then earliest.
#[derive(Clone, Copy)]
struct WorstWindow {
    p99: u64,
    window: u64,
    ops: u64,
    p95: u64,
    throughput: f64,
    p95_ok: bool,
    p99_ok: bool,
    throughput_ok: bool,
}

/// One tenant's aggregated `slo_window` history.
#[derive(Default)]
struct TenantSloAgg {
    windows: u64,
    violations: u64,
    last_burn: f64,
    longest_streak: u64,
    current_streak: u64,
    worst: Option<WorstWindow>,
}

/// One `fleet_migration` row, sortable.
#[allow(clippy::too_many_arguments)]
struct MigrationRow {
    window: u64,
    tenant: u64,
    from_shard: u64,
    from_slot: u64,
    to_shard: u64,
    to_slot: u64,
    cause: String,
    mean_util: f64,
    src_util: f64,
    dst_util: f64,
    src_util_after: f64,
    dst_util_after: f64,
}

/// Renders the offline fleet-health dashboard from `slo_window` /
/// `fleet_migration` events across all inputs (per-shard stores merge
/// into one view).
fn report(paths: &[&String]) -> ExitCode {
    let mut tenants: BTreeMap<u64, TenantSloAgg> = BTreeMap::new();
    let mut migrations: Vec<MigrationRow> = Vec::new();
    let mut window_flushes = 0u64;
    for path in paths {
        let events = match load_events(path) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("fleetio-obs: {e}");
                return ExitCode::from(2);
            }
        };
        for value in &events {
            let Some(obj) = value.as_object() else {
                continue;
            };
            let u = |k: &str| obj.get(k).and_then(Value::as_u64).unwrap_or(0);
            let f = |k: &str| obj.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let b = |k: &str| obj.get(k).and_then(Value::as_bool).unwrap_or(false);
            match obj.get("type").and_then(Value::as_str) {
                Some("slo_window") => {
                    let agg = tenants.entry(u("tenant")).or_default();
                    agg.windows += 1;
                    agg.last_burn = f("burn");
                    let ok = b("p95_ok") && b("p99_ok") && b("throughput_ok");
                    if ok {
                        agg.current_streak = 0;
                    } else {
                        agg.violations += 1;
                        agg.current_streak += 1;
                        agg.longest_streak = agg.longest_streak.max(agg.current_streak);
                        let p99 = u("p99");
                        if agg.worst.is_none_or(|w| p99 > w.p99) {
                            agg.worst = Some(WorstWindow {
                                p99,
                                window: u("window"),
                                ops: u("ops"),
                                p95: u("p95"),
                                throughput: f("throughput"),
                                p95_ok: b("p95_ok"),
                                p99_ok: b("p99_ok"),
                                throughput_ok: b("throughput_ok"),
                            });
                        }
                    }
                }
                Some("fleet_migration") => migrations.push(MigrationRow {
                    window: u("window"),
                    tenant: u("tenant"),
                    from_shard: u("from_shard"),
                    from_slot: u("from_slot"),
                    to_shard: u("to_shard"),
                    to_slot: u("to_slot"),
                    cause: obj
                        .get("cause")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                    mean_util: f("mean_util"),
                    src_util: f("src_util"),
                    dst_util: f("dst_util"),
                    src_util_after: f("src_util_after"),
                    dst_util_after: f("dst_util_after"),
                }),
                Some("window_flush") => window_flushes += 1,
                _ => {}
            }
        }
    }
    migrations.sort_by(|a, b| {
        (a.window, a.tenant, a.from_shard, a.from_slot).cmp(&(
            b.window,
            b.tenant,
            b.from_shard,
            b.from_slot,
        ))
    });

    let observed: u64 = tenants.values().map(|t| t.windows).sum();
    let violated: u64 = tenants.values().map(|t| t.violations).sum();
    let att = if observed == 0 {
        1.0
    } else {
        (observed - violated) as f64 / observed as f64
    };
    let mut out = String::new();
    let _ = writeln!(out, "FLEET HEALTH REPORT (offline)");
    let _ = writeln!(out, "=============================");
    let _ = writeln!(
        out,
        "inputs: {}  tracked tenants: {}  slo windows: {observed}  violations: {violated}  \
         attainment: {:.1}%  migrations: {}  window flushes: {window_flushes}",
        paths.len(),
        tenants.len(),
        att * 100.0,
        migrations.len()
    );
    let _ = writeln!(out, "\nPER-TENANT SLO ATTAINMENT");
    let _ = writeln!(
        out,
        "{:<8}{:>8}{:>8}{:>8}{:>9}{:>8}",
        "tenant", "windows", "viol", "att%", "streak", "burn"
    );
    for (t, agg) in &tenants {
        let t_att = if agg.windows == 0 {
            1.0
        } else {
            (agg.windows - agg.violations) as f64 / agg.windows as f64
        };
        let _ = writeln!(
            out,
            "{:<8}{:>8}{:>8}{:>7.1}%{:>9}{:>8.3}",
            format!("t{t}"),
            agg.windows,
            agg.violations,
            t_att * 100.0,
            agg.longest_streak,
            agg.last_burn
        );
    }
    let _ = writeln!(out, "\nWORST WINDOWS (per tenant, by p99)");
    let mut any_worst = false;
    for (t, agg) in &tenants {
        let Some(w) = agg.worst else {
            continue;
        };
        any_worst = true;
        let _ = writeln!(
            out,
            "t{t} w{}: p95 {:.3} ms, p99 {:.3} ms, {:.1} MB/s, {} ops \
             [p95_ok={} p99_ok={} tp_ok={}]",
            w.window,
            w.p95 as f64 / 1e6,
            w.p99 as f64 / 1e6,
            w.throughput / 1e6,
            w.ops,
            w.p95_ok,
            w.p99_ok,
            w.throughput_ok
        );
    }
    if !any_worst {
        let _ = writeln!(out, "(no violations)");
    }
    let _ = writeln!(out, "\nMIGRATION TIMELINE");
    if migrations.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for m in &migrations {
        let _ = writeln!(
            out,
            "w{}: t{} {}/{} -> {}/{} cause={} mean={:.3} src {:.3}->{:.3} dst {:.3}->{:.3}",
            m.window,
            m.tenant,
            m.from_shard,
            m.from_slot,
            m.to_shard,
            m.to_slot,
            m.cause,
            m.mean_util,
            m.src_util,
            m.src_util_after,
            m.dst_util,
            m.dst_util_after
        );
    }
    print!("{out}");
    ExitCode::SUCCESS
}
