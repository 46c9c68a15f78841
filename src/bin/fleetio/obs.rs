//! `fleetio obs`: turn an event trace into a readable report.
//!
//! The input is either a run-store directory, whose typed events come
//! straight out of its segments through [`query_each`], or a JSONL trace
//! file, read one line at a time through [`ObsEvent::from_json_line`] in
//! the form `RecordingSink::to_jsonl` and `fleetio store query` write;
//! both are folded as the same [`ObsEvent`]s, so memory stays flat
//! whatever the run's length. A `RecordingSink` trace's
//! `trace_truncated` meta line ([`RecordingSink::evicted_of`]) counts as
//! the number of evicted events, not as an event. Any other line
//! (reported by line number) or a damaged store exits 2; `fleetio store
//! verify` localizes the damage.
//!
//! `summarize` aggregates per-type event counts, request latency
//! percentiles, per-vSSD traffic, GC activity, throttles and window
//! flushes; `--by-tenant` adds an exact-bucket per-tenant
//! latency/throughput breakdown. `report` renders the fleet health
//! report of `slo_window` / `fleet_migration` events through
//! [`health_report`], the function `FleetRuntime::health_report` calls,
//! and accepts several inputs at once so per-shard run stores aggregate
//! into one fleet dashboard identical to the live one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use fleetio_des::{LatencyHistogram, SimDuration, SimTime};
use fleetio_obs::slo::health_report;
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
        if let Some(ev) = ObsEvent::from_json_line(line) {
            visit(ev);
        } else if let Some(n) = RecordingSink::evicted_of(line) {
            evicted += n;
        } else {
            return Err(io(format_args!(
                "{path}:{line_no}: not an event line as `fleetio store query` writes it"
            )));
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

/// Renders [`health_report`] over the `slo_window` / `fleet_migration`
/// events of all inputs (per-shard stores merge into one view).
fn report(args: &Args) -> VerbResult {
    let mut slo_rows: Vec<SloWindow> = Vec::new();
    let mut migrations: Vec<FleetMigration> = Vec::new();
    for path in &args.positionals {
        for_each_event(path, |ev| match ev {
            ObsEvent::SloWindow(row) => slo_rows.push(*row),
            ObsEvent::FleetMigration(m) => migrations.push(*m),
            _ => {}
        })?;
    }
    Ok(Output::ok(health_report(slo_rows, migrations)))
}
