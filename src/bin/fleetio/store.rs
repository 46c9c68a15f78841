//! `fleetio store`: record, inspect and interrogate run stores.
//!
//! `query` prints matching events as JSONL on stdout and a scan summary
//! on stderr, so results pipe cleanly into `fleetio obs summarize`. It
//! is the one verb that writes stdout itself: each match is printed as
//! its segment is decoded, so a query over a long run holds one segment,
//! not the run.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use fleetio::RunSpec;
use fleetio_obs::{json, ObsEvent};
use fleetio_store::{
    diff_stores, query_each, record_run, replay_run, DiffOutcome, EventFilter, RunStore,
    WindowAggregator, DEFAULT_SEGMENT_BYTES,
};

use crate::args::{number, Args};
use crate::{io, Failure, Output, Verb, VerbResult};

pub static VERBS: [Verb; 6] = [
    Verb::new(
        "store",
        "record",
        "<dir> [--seed N] [--windows N] [--checkpoint-every N]",
        record,
    ),
    Verb::new("store", "info", "<dir>", info),
    Verb::new(
        "store",
        "query",
        "<dir> [--tenant N] [--from NS] [--to NS] [--kind TAG] [--windows]",
        query_cmd,
    ),
    Verb::new("store", "diff", "<dir-a> <dir-b>", diff),
    Verb::new("store", "replay", "<dir> <target-ns>", replay),
    Verb::new("store", "verify", "<dir>", verify),
];

fn open(dir: &str) -> Result<RunStore, Failure> {
    RunStore::open(Path::new(dir)).map_err(io)
}

fn record(args: &Args) -> VerbResult {
    let dir = &args.positionals[0];
    let seed = args.number("--seed")?.unwrap_or(42);
    let windows = args.number("--windows")?.unwrap_or(6);
    let every = args.number("--checkpoint-every")?.unwrap_or(2);
    let spec = RunSpec::demo(seed, windows, every);
    let report = record_run(&spec, Path::new(dir), DEFAULT_SEGMENT_BYTES)
        .map_err(|e| io(format_args!("record: {e}")))?;
    Ok(Output::ok(format!(
        "recorded {} events in {} segments over {} windows ({} anchors) -> {dir}\n\
         seed {} spec {:#010x} stream fingerprint {:#018x}\n",
        report.manifest.total_events,
        report.manifest.segments.len(),
        report.windows,
        report.anchors,
        report.manifest.seed,
        report.manifest.spec_fingerprint,
        report.manifest.stream_fingerprint,
    )))
}

fn info(args: &Args) -> VerbResult {
    let dir = &args.positionals[0];
    let store = open(dir)?;
    let m = store.manifest();
    let mut out = format!(
        "store     {dir}\n\
         run       seed {} window {} ns spec {:#010x} sealed {}\n\
         stream    {} events, fingerprint {:#018x}\n\
         segments  {}\n",
        m.seed,
        m.window_ns,
        m.spec_fingerprint,
        m.sealed,
        m.total_events,
        m.stream_fingerprint,
        m.segments.len()
    );
    for s in &m.segments {
        let _ = writeln!(
            out,
            "  {}  {:>8} events  {:>10} bytes  t=[{}..{}] ns  tenants {:#x} kinds {:#x}",
            s.file_name(),
            s.events,
            s.bytes,
            s.min_at_ns,
            s.max_at_ns,
            s.tenant_bits,
            s.kind_bits
        );
    }
    let _ = writeln!(out, "anchors   {}", m.anchors.len());
    for a in &m.anchors {
        let _ = writeln!(
            out,
            "  window {:>4}  t={} ns  {} events before",
            a.window, a.at_ns, a.event_count
        );
    }
    Ok(Output::ok(out))
}

fn query_cmd(args: &Args) -> VerbResult {
    let kind = match args.value("--kind") {
        Some(tag) => Some(ObsEvent::kind_index_of_tag(tag).ok_or_else(|| {
            format!(
                "unknown event kind {tag:?}; kinds: {}",
                ObsEvent::KIND_TAGS.join(" ")
            )
        })?),
        None => None,
    };
    let filter = EventFilter {
        tenant: args.number("--tenant")?,
        from_ns: args.number("--from")?,
        to_ns: args.number("--to")?,
        kind,
    };
    let store = open(&args.positionals[0])?;
    let mut windows = args
        .has("--windows")
        .then(|| WindowAggregator::new(store.manifest().window_ns));
    // A closed pipe (`... | head`) is not an error: writes just stop landing.
    let mut stdout = BufWriter::new(std::io::stdout().lock());
    let (mut line, mut matched) = (String::new(), 0u64);
    let scanned = query_each(&store, &filter, |ev| {
        matched += 1;
        match &mut windows {
            Some(windows) => windows.add(&ev),
            None => {
                line.clear();
                ev.write_json(&mut line);
                line.push('\n');
                let _ = stdout.write_all(line.as_bytes());
            }
        }
    })
    .map_err(|e| io(format_args!("query: {e}")))?;
    for w in windows.map(WindowAggregator::finish).unwrap_or_default() {
        line.clear();
        json::object(&mut line, |o| {
            o.key("window").u64(w.window);
            o.key("events").u64(w.events);
            o.key("bytes").u64(w.bytes);
        });
        line.push('\n');
        let _ = stdout.write_all(line.as_bytes());
    }
    let _ = stdout.flush();
    Ok(Output {
        code: 0,
        stdout: String::new(),
        stderr: format!(
            "fleetio store query: {matched} events matched; scanned {scanned}/{} segments\n",
            store.manifest().segments.len()
        ),
    })
}

fn diff(args: &Args) -> VerbResult {
    let (a, b) = (open(&args.positionals[0])?, open(&args.positionals[1])?);
    match diff_stores(&a, &b).map_err(|e| io(format_args!("diff: {e}")))? {
        DiffOutcome::Identical { events } => Ok(Output::ok(format!(
            "identical: {events} events match byte-for-byte\n"
        ))),
        DiffOutcome::Diverged(d) => {
            let mut out = format!(
                "diverged at event {} (a has {} events, b has {})\n",
                d.index, d.a_total, d.b_total
            );
            for (i, ev) in d.context.iter().enumerate() {
                let _ = writeln!(out, "  shared[-{}] {ev}", d.context.len() - i);
            }
            let end = "<end of stream>";
            let _ = writeln!(out, "  a: {}", d.a_event.as_deref().unwrap_or(end));
            let _ = writeln!(out, "  b: {}", d.b_event.as_deref().unwrap_or(end));
            Ok(Output::exit(1, out))
        }
    }
}

fn replay(args: &Args) -> VerbResult {
    let target_ns = number(&args.positionals[1], "<target-ns>")?;
    let report = replay_run(Path::new(&args.positionals[0]), target_ns)
        .map_err(|e| io(format_args!("replay: {e}")))?;
    let mut out = format!(
        "replayed {} windows, {} events ({} byte-compared) to t={} ns\n",
        report.windows_replayed, report.events_replayed, report.compared, report.target_ns
    );
    if report.ok() {
        out += "replay matches the stored stream exactly\n";
        return Ok(Output::ok(out));
    }
    if let Some(i) = report.mismatch {
        let _ = writeln!(out, "MISMATCH: first divergent event at stream index {i}");
    }
    Ok(Output::exit(1, out))
}

fn verify(args: &Args) -> VerbResult {
    let report = open(&args.positionals[0])?.verify();
    let mut out = String::new();
    for s in &report.segments {
        let _ = match &s.damage {
            None if s.events_read == s.events_expected => {
                writeln!(out, "seg {:05}  OK        {} events", s.seq, s.events_read)
            }
            None => writeln!(
                out,
                "seg {:05}  SHORT     {} of {} events",
                s.seq, s.events_read, s.events_expected
            ),
            Some(d) => writeln!(
                out,
                "seg {:05}  DAMAGED   {} of {} events recovered ({d})",
                s.seq, s.events_read, s.events_expected
            ),
        };
    }
    let fingerprint = match report.fingerprint_ok {
        Some(true) => "OK",
        Some(false) => "MISMATCH",
        None => "unverifiable (damage)",
    };
    let _ = writeln!(out, "sealed {}  fingerprint {fingerprint}", report.sealed);
    if !report.recoverable_ns.is_empty() {
        let ranges: Vec<String> = report
            .recoverable_ns
            .iter()
            .map(|(lo, hi)| format!("[{lo}..{hi}]"))
            .collect();
        let _ = writeln!(
            out,
            "recoverable sim-time ranges (ns): {}",
            ranges.join(" ")
        );
    }
    Ok(Output::exit(if report.clean() { 0 } else { 1 }, out))
}
