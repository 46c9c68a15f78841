//! `fleetio obs`: turn an event trace into a readable report.
//!
//! The input is either a JSONL trace file, read one line at a time, or a
//! run-store directory, read one segment at a time through
//! [`query_each`] with each event rendered as its JSONL line; both are
//! folded through the exact same JSON aggregation path, so memory stays
//! flat whatever the run's length. A malformed line (reported by line
//! number) or a damaged store exits 2; `fleetio store verify` localizes
//! the damage.
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
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use fleetio_des::{LatencyHistogram, SimDuration};
use fleetio_obs::json::{self, Value};
use fleetio_store::{query_each, EventFilter, RunStore};

use crate::args::Args;
use crate::{io, Failure, Output, Verb, VerbResult};

pub static VERBS: [Verb; 2] = [
    Verb::new(
        "obs",
        "summarize",
        "<trace.jsonl|store-dir> [--by-tenant]",
        summarize,
    ),
    Verb::new("obs", "report", "<trace.jsonl|store-dir>...", report),
];

/// One trace line: a JSON object with typed, defaulted field access.
struct Event(BTreeMap<String, Value>);

impl Event {
    fn opt(&self, key: &str) -> Option<u64> {
        self.0.get(key).and_then(Value::as_u64)
    }

    fn u(&self, key: &str) -> u64 {
        self.opt(key).unwrap_or(0)
    }

    fn f(&self, key: &str) -> f64 {
        self.0.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    fn b(&self, key: &str) -> bool {
        self.0.get(key).and_then(Value::as_bool) == Some(true)
    }

    fn s(&self, key: &str) -> &str {
        self.0.get(key).and_then(Value::as_str).unwrap_or("unknown")
    }
}

/// Parses line `idx` (0-based) of input `path`.
fn parse_line(path: &str, idx: usize, line: &str) -> Result<Event, Failure> {
    match json::parse(line) {
        Ok(Value::Obj(map)) => Ok(Event(map)),
        Ok(_) => Err(io(format_args!(
            "{path}:{}: line is not a JSON object",
            idx + 1
        ))),
        Err(e) => Err(io(format_args!("{path}:{}: invalid JSON: {e}", idx + 1))),
    }
}

/// Hands every event of one input to `visit`, in line order: a store one
/// segment at a time, each event as its JSONL line parses, and a JSONL
/// file one line at a time. Blank lines are skipped but counted.
fn for_each_event(path: &str, mut visit: impl FnMut(&Event)) -> Result<(), Failure> {
    if Path::new(path).is_dir() {
        let store = RunStore::open(Path::new(path)).map_err(|e| io(format_args!("{path}: {e}")))?;
        let (mut line, mut idx, mut failure) = (String::new(), 0, None);
        query_each(&store, &EventFilter::default(), |ev| {
            if failure.is_none() {
                line.clear();
                ev.write_json(&mut line);
                match parse_line(path, idx, &line) {
                    Ok(ev) => visit(&ev),
                    Err(e) => failure = Some(e),
                }
            }
            idx += 1;
        })
        .map_err(|e| io(format_args!("{path}: {e}")))?;
        return failure.map_or(Ok(()), Err);
    }
    let cannot_read = |e: std::io::Error| io(format_args!("cannot read {path}: {e}"));
    let lines = BufReader::new(File::open(path).map_err(cannot_read)?).lines();
    for (idx, line) in lines.enumerate() {
        let line = line.map_err(cannot_read)?;
        if !line.is_empty() {
            visit(&parse_line(path, idx, &line)?);
        }
    }
    Ok(())
}

/// Adds one to `key`'s count.
fn count(counts: &mut BTreeMap<String, u64>, key: &str) {
    match counts.get_mut(key) {
        Some(n) => *n += 1,
        None => {
            counts.insert(key.to_string(), 1);
        }
    }
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

fn summarize(args: &Args) -> VerbResult {
    let path = &args.positionals[0];
    let by_tenant = args.has("--by-tenant");

    let mut events = 0u64;
    let mut type_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut latency = LatencyHistogram::new();
    let mut queue_delay = LatencyHistogram::new();
    let mut per_vssd: BTreeMap<u64, VssdStats> = BTreeMap::new();
    let mut per_tenant: BTreeMap<u64, TenantStats> = BTreeMap::new();
    let (mut gc_starts, mut gc_emergencies, mut gc_busy_ns, mut gc_live_pages) = (0u64, 0, 0, 0);
    let mut gsb: BTreeMap<String, u64> = BTreeMap::new();
    let (mut throttles, mut windows, mut evicted, mut last_ns) = (0u64, 0u64, 0, 0);

    for_each_event(path, |ev| {
        events += 1;
        let ty = ev.s("type");
        count(&mut type_counts, ty);
        for key in ["at", "end", "start"] {
            last_ns = ev.opt(key).map_or(last_ns, |ns| ns.max(last_ns));
        }
        match ty {
            "request_complete" => {
                let at = ev.u("at");
                let arrival = ev.opt("arrival").unwrap_or(at);
                let service = ev.opt("service_start").unwrap_or(at);
                let request_latency = SimDuration::from_nanos(at.saturating_sub(arrival));
                latency.record(request_latency);
                queue_delay.record(SimDuration::from_nanos(service.saturating_sub(arrival)));
                let (vssd, bytes) = (ev.u("vssd"), ev.u("bytes"));
                let entry = per_vssd.entry(vssd).or_default();
                entry.completed += 1;
                entry.bytes += bytes;
                entry.reads += u64::from(ev.b("read"));
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
                gc_emergencies += u64::from(ev.b("emergency"));
                gc_live_pages += ev.u("live_pages");
            }
            "gc_end" => gc_busy_ns += ev.u("busy"),
            "gsb" => count(&mut gsb, ev.s("kind")),
            "throttle" => throttles += 1,
            "window_flush" => windows += 1,
            "trace_truncated" => evicted += ev.u("dropped"),
            _ => {}
        }
    })?;

    let mut out = format!(
        "trace: {path}\n  {events} events, sim end {:.3} ms\n",
        last_ns as f64 / 1e6
    );
    if evicted > 0 {
        let _ = writeln!(
            out,
            "  {evicted} events evicted (trace truncated, ring full)"
        );
    }
    out += "\nevent counts:\n";
    for (ty, n) in &type_counts {
        let _ = writeln!(out, "  {ty:<18} {n}");
    }
    if !latency.is_empty() {
        let ns = |d: Option<SimDuration>| d.map_or(0, SimDuration::as_nanos);
        let _ = writeln!(
            out,
            "\nrequest latency (ns, bucket upper bounds, at most 1.6 % high):\n  \
             count {}  mean {}  p50 {}  p95 {}  p99 {}  max {}\n\
             queue delay (ns): p50 {}  p99 {}",
            latency.count(),
            ns(latency.mean()),
            ns(latency.percentile(50.0)),
            ns(latency.percentile(95.0)),
            ns(latency.percentile(99.0)),
            ns(latency.max()),
            ns(queue_delay.percentile(50.0)),
            ns(queue_delay.percentile(99.0)),
        );
    }
    if !per_vssd.is_empty() {
        out += "\nper-vSSD completions:\n";
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
        let _ = writeln!(
            out,
            "\nper-tenant latency/throughput (exact buckets):\n  \
             {:<8}{:>10}{:>12}{:>12}{:>12}{:>12}",
            "tenant", "ops", "p50 ms", "p95 ms", "p99 ms", "MB/s"
        );
        for (id, t) in &per_tenant {
            let p = |pct| t.hist.percentile(pct).unwrap_or(SimDuration::ZERO);
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
                p(50.0).as_millis_f64(),
                p(95.0).as_millis_f64(),
                p(99.0).as_millis_f64(),
                mbps
            );
        }
    }
    if gc_starts > 0 || gc_busy_ns > 0 {
        let _ = writeln!(
            out,
            "\ngc: {gc_starts} runs ({gc_emergencies} emergency), {gc_live_pages} live pages \
             migrated, {:.3} ms busy",
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
    Ok(Output::ok(out))
}

/// One `slo_window` verdict, as `report` folds it.
struct SloRow {
    window: u64,
    burn: f64,
    p95: u64,
    p99: u64,
    throughput: f64,
    ops: u64,
    /// `p95_ok`, `p99_ok`, `throughput_ok`.
    ok: [bool; 3],
}

/// One tenant's aggregated `slo_window` history.
#[derive(Default)]
struct TenantSloAgg {
    windows: u64,
    violations: u64,
    last_burn: f64,
    longest_streak: u64,
    /// The worst violating window by p99, then earliest: its p99 and
    /// its rendered line.
    worst: Option<(u64, String)>,
}

impl TenantSloAgg {
    /// Folds one tenant's verdicts, which must be in window order.
    fn fold(tenant: u64, rows: &[SloRow]) -> Self {
        let mut agg = TenantSloAgg::default();
        let mut streak = 0;
        for row in rows {
            agg.windows += 1;
            agg.last_burn = row.burn;
            if row.ok == [true; 3] {
                streak = 0;
                continue;
            }
            agg.violations += 1;
            streak += 1;
            agg.longest_streak = agg.longest_streak.max(streak);
            if agg.worst.as_ref().is_none_or(|(worst, _)| row.p99 > *worst) {
                let line = format!(
                    "t{tenant} w{}: p95 {:.3} ms, p99 {:.3} ms, {:.1} MB/s, {} ops \
                     [p95_ok={} p99_ok={} tp_ok={}]",
                    row.window,
                    row.p95 as f64 / 1e6,
                    row.p99 as f64 / 1e6,
                    row.throughput / 1e6,
                    row.ops,
                    row.ok[0],
                    row.ok[1],
                    row.ok[2]
                );
                agg.worst = Some((row.p99, line));
            }
        }
        agg
    }
}

/// Renders the offline fleet-health dashboard from `slo_window` /
/// `fleet_migration` events across all inputs (per-shard stores merge
/// into one view).
fn report(args: &Args) -> VerbResult {
    let paths = &args.positionals;
    let mut slo_rows: BTreeMap<u64, Vec<SloRow>> = BTreeMap::new();
    // (window, tenant, from shard, from slot) and the rendered line.
    let mut migrations: Vec<([u64; 4], String)> = Vec::new();
    let mut window_flushes = 0u64;
    for path in paths {
        for_each_event(path, |ev| match ev.s("type") {
            "slo_window" => slo_rows.entry(ev.u("tenant")).or_default().push(SloRow {
                window: ev.u("window"),
                burn: ev.f("burn"),
                p95: ev.u("p95"),
                p99: ev.u("p99"),
                throughput: ev.f("throughput"),
                ops: ev.u("ops"),
                ok: ["p95_ok", "p99_ok", "throughput_ok"].map(|k| ev.b(k)),
            }),
            "fleet_migration" => {
                let key = ["window", "tenant", "from_shard", "from_slot"].map(|k| ev.u(k));
                let line = format!(
                    "w{}: t{} {}/{} -> {}/{} cause={} mean={:.3} src {:.3}->{:.3} \
                         dst {:.3}->{:.3}",
                    key[0],
                    key[1],
                    key[2],
                    key[3],
                    ev.u("to_shard"),
                    ev.u("to_slot"),
                    ev.s("cause"),
                    ev.f("mean_util"),
                    ev.f("src_util"),
                    ev.f("src_util_after"),
                    ev.f("dst_util"),
                    ev.f("dst_util_after")
                );
                migrations.push((key, line));
            }
            "window_flush" => window_flushes += 1,
            _ => {}
        })?;
    }
    migrations.sort_by_key(|(key, _)| *key);
    // A fleet tenant's windows sit in the store of every shard it lived
    // on, so fold them in window order, not input order.
    let tenants: BTreeMap<u64, TenantSloAgg> = slo_rows
        .into_iter()
        .map(|(tenant, mut rows)| {
            rows.sort_by_key(|r| r.window);
            (tenant, TenantSloAgg::fold(tenant, &rows))
        })
        .collect();

    let observed: u64 = tenants.values().map(|t| t.windows).sum();
    let violated: u64 = tenants.values().map(|t| t.violations).sum();
    let attainment = |windows: u64, violations: u64| {
        if windows == 0 {
            100.0
        } else {
            (windows - violations) as f64 / windows as f64 * 100.0
        }
    };
    let mut out = format!(
        "FLEET HEALTH REPORT (offline)\n\
         =============================\n\
         inputs: {}  tracked tenants: {}  slo windows: {observed}  violations: {violated}  \
         attainment: {:.1}%  migrations: {}  window flushes: {window_flushes}\n\
         \nPER-TENANT SLO ATTAINMENT\n\
         {:<8}{:>8}{:>8}{:>8}{:>9}{:>8}\n",
        paths.len(),
        tenants.len(),
        attainment(observed, violated),
        migrations.len(),
        "tenant",
        "windows",
        "viol",
        "att%",
        "streak",
        "burn"
    );
    for (t, agg) in &tenants {
        let _ = writeln!(
            out,
            "{:<8}{:>8}{:>8}{:>7.1}%{:>9}{:>8.3}",
            format!("t{t}"),
            agg.windows,
            agg.violations,
            attainment(agg.windows, agg.violations),
            agg.longest_streak,
            agg.last_burn
        );
    }
    out += "\nWORST WINDOWS (per tenant, by p99)\n";
    let worst: Vec<&str> = tenants
        .values()
        .filter_map(|a| a.worst.as_ref())
        .map(|(_, l)| l.as_str())
        .collect();
    if worst.is_empty() {
        out += "(no violations)\n";
    }
    for line in worst {
        let _ = writeln!(out, "{line}");
    }
    out += "\nMIGRATION TIMELINE\n";
    if migrations.is_empty() {
        out += "(none)\n";
    }
    for (_, line) in &migrations {
        let _ = writeln!(out, "{line}");
    }
    Ok(Output::ok(out))
}
