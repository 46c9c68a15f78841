//! `fleetio obs`: turn an event trace into a readable report.
//!
//! The input is either a run-store directory, whose typed events come
//! straight out of its segments through [`query_each`], or a JSONL trace
//! file, read one line at a time through [`ObsEvent::from_json_line`]
//! (the writer's own form, read in place) or else [`json::parse`] and
//! [`ObsEvent::from_json`]; both are folded as the same
//! [`ObsEvent`]s, so memory stays flat whatever the run's length. A line
//! that is not JSON or not an event (reported by line number) or a
//! damaged store exits 2; `fleetio store verify` localizes the damage. A
//! `RecordingSink` trace's `trace_truncated` meta line counts as the
//! number of evicted events, not as an event.
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

use fleetio_des::{LatencyHistogram, SimDuration, SimTime};
use fleetio_obs::json;
use fleetio_obs::{FleetMigration, ObsEvent, RecordingSink, SloWindow};
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

/// Hands every event of one input to `visit`, in order, and returns the
/// number of events a JSONL trace's `trace_truncated` line says were
/// evicted. A store is read one segment at a time; a JSONL file one line
/// at a time, blank lines skipped but counted.
fn for_each_event(path: &str, mut visit: impl FnMut(ObsEvent)) -> Result<u64, Failure> {
    if Path::new(path).is_dir() {
        let store = RunStore::open(Path::new(path)).map_err(|e| io(format_args!("{path}: {e}")))?;
        query_each(&store, &EventFilter::default(), visit)
            .map_err(|e| io(format_args!("{path}: {e}")))?;
        return Ok(0);
    }
    let cannot_read = |e: std::io::Error| io(format_args!("cannot read {path}: {e}"));
    let mut reader = BufReader::new(File::open(path).map_err(cannot_read)?);
    // One buffer for every line, cut as `BufRead::lines` cuts them.
    let mut buf = String::new();
    let mut evicted = 0;
    for line_no in 1u64.. {
        buf.clear();
        if reader.read_line(&mut buf).map_err(cannot_read)? == 0 {
            break;
        }
        let line = match buf.strip_suffix('\n') {
            Some(l) => l.strip_suffix('\r').unwrap_or(l),
            None => &buf,
        };
        if line.is_empty() {
            continue;
        }
        let bad = |e: String| io(format_args!("{path}:{line_no}: {e}"));
        // A line as the writer wrote it is read in place; any other goes
        // through the whole parse.
        if let Some(ev) = ObsEvent::from_json_line(line) {
            visit(ev);
            continue;
        }
        let value = json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        match ObsEvent::from_json(&value) {
            Ok(ev) => visit(ev),
            Err(e) => evicted += RecordingSink::evicted_of(&value).ok_or_else(|| bad(e))?,
        }
    }
    Ok(evicted)
}

/// One vSSD's completed requests; the exact-bucket latencies and the
/// span from first arrival to last completion feed `--by-tenant`.
#[derive(Default)]
struct VssdStats {
    completed: u64,
    bytes: u64,
    reads: u64,
    hist: LatencyHistogram,
    first_arrival: SimTime,
    last_complete: SimTime,
}

fn summarize(args: &Args) -> VerbResult {
    let path = &args.positionals[0];
    let by_tenant = args.has("--by-tenant");

    let mut kind_counts = [0u64; ObsEvent::KIND_COUNT];
    let mut latency = LatencyHistogram::new();
    let mut queue_delay = LatencyHistogram::new();
    let mut per_vssd: BTreeMap<u32, VssdStats> = BTreeMap::new();
    let (mut gc_starts, mut gc_emergencies, mut gc_busy_ns, mut gc_live_pages) = (0u64, 0, 0, 0);
    let mut gsb: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut throttles, mut windows, mut last_ns) = (0u64, 0u64, 0);

    let evicted = for_each_event(path, |ev| {
        kind_counts[usize::from(ev.kind_index())] += 1;
        last_ns = last_ns.max(ev.at().as_nanos());
        match ev {
            ObsEvent::RequestComplete {
                at,
                vssd,
                read,
                bytes,
                arrival,
                service_start,
                ..
            } => {
                let request_latency = at.saturating_since(arrival);
                latency.record(request_latency);
                queue_delay.record(service_start.saturating_since(arrival));
                let s = per_vssd.entry(vssd).or_insert_with(|| VssdStats {
                    first_arrival: arrival,
                    ..VssdStats::default()
                });
                s.completed += 1;
                s.bytes += bytes;
                s.reads += u64::from(read);
                s.hist.record(request_latency);
                s.first_arrival = s.first_arrival.min(arrival);
                s.last_complete = s.last_complete.max(at);
            }
            ObsEvent::NandOp { end, .. } => last_ns = last_ns.max(end.as_nanos()),
            ObsEvent::GcStart {
                live_pages,
                emergency,
                ..
            } => {
                gc_starts += 1;
                gc_emergencies += u64::from(emergency);
                gc_live_pages += u64::from(live_pages);
            }
            ObsEvent::GcEnd { busy, .. } => gc_busy_ns += busy.as_nanos(),
            ObsEvent::GsbTransition { kind, .. } => *gsb.entry(kind.tag()).or_default() += 1,
            ObsEvent::Throttle { .. } => throttles += 1,
            ObsEvent::WindowFlush(_) => windows += 1,
            _ => {}
        }
    })?;

    let events: u64 = kind_counts.iter().sum();
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
    let mut type_counts: Vec<(&str, u64)> = ObsEvent::KIND_TAGS
        .into_iter()
        .zip(kind_counts)
        .filter(|(_, n)| *n > 0)
        .collect();
    type_counts.sort_unstable();
    for (ty, n) in type_counts {
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
            let read_pct = 100.0 * s.reads as f64 / s.completed as f64;
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
        for (id, t) in &per_vssd {
            let p = |pct| t.hist.percentile(pct).unwrap_or(SimDuration::ZERO);
            let span_s = t.last_complete.saturating_since(t.first_arrival).as_nanos() as f64 / 1e9;
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

/// One tenant's aggregated `slo_window` history.
#[derive(Default)]
struct TenantSloAgg {
    windows: u64,
    violations: u64,
    last_burn: f64,
    longest_streak: u64,
    /// The worst violating window by p99, then earliest.
    worst: Option<SloWindow>,
}

impl TenantSloAgg {
    /// Folds one tenant's verdicts, which must be in window order.
    fn fold(rows: Vec<SloWindow>) -> Self {
        let mut agg = TenantSloAgg::default();
        let mut streak = 0;
        for row in rows {
            agg.windows += 1;
            agg.last_burn = row.burn;
            if row.p95_ok && row.p99_ok && row.throughput_ok {
                streak = 0;
                continue;
            }
            agg.violations += 1;
            streak += 1;
            agg.longest_streak = agg.longest_streak.max(streak);
            if agg.worst.as_ref().is_none_or(|worst| row.p99 > worst.p99) {
                agg.worst = Some(row);
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
    let mut slo_rows: BTreeMap<u32, Vec<SloWindow>> = BTreeMap::new();
    let mut migrations: Vec<FleetMigration> = Vec::new();
    let mut window_flushes = 0u64;
    for path in paths {
        for_each_event(path, |ev| match ev {
            ObsEvent::SloWindow(row) => slo_rows.entry(row.tenant).or_default().push(*row),
            ObsEvent::FleetMigration(m) => migrations.push(*m),
            ObsEvent::WindowFlush(_) => window_flushes += 1,
            _ => {}
        })?;
    }
    migrations.sort_by_key(|m| (m.window, m.tenant, m.from_shard, m.from_slot));
    // A fleet tenant's windows sit in the store of every shard it lived
    // on, so fold them in window order, not input order.
    let tenants: BTreeMap<u32, TenantSloAgg> = slo_rows
        .into_iter()
        .map(|(tenant, mut rows)| {
            rows.sort_by_key(|r| r.window);
            (tenant, TenantSloAgg::fold(rows))
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
    let ms = |d: SimDuration| d.as_nanos() as f64 / 1e6;
    let mut worst = tenants.values().filter_map(|a| a.worst.as_ref()).peekable();
    if worst.peek().is_none() {
        out += "(no violations)\n";
    }
    for w in worst {
        let _ = writeln!(
            out,
            "t{} w{}: p95 {:.3} ms, p99 {:.3} ms, {:.1} MB/s, {} ops \
             [p95_ok={} p99_ok={} tp_ok={}]",
            w.tenant,
            w.window,
            ms(w.p95),
            ms(w.p99),
            w.throughput / 1e6,
            w.ops,
            w.p95_ok,
            w.p99_ok,
            w.throughput_ok
        );
    }
    out += "\nMIGRATION TIMELINE\n";
    if migrations.is_empty() {
        out += "(none)\n";
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
            m.cause.tag(),
            m.mean_util,
            m.src_util,
            m.src_util_after,
            m.dst_util,
            m.dst_util_after
        );
    }
    Ok(Output::ok(out))
}
