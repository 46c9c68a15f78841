//! The `fleetio` binary end to end: every golden under `tests/golden/cli`
//! reproduced byte for byte, every malformed line refused with exit 2,
//! `obs` reading a store and its JSONL alike and refusing JSONL lines
//! that are not events, `store verify` exiting 1 on a damaged store, a
//! missing store or registry named with exit 2, `store replay` refusing
//! a spec it cannot build with exit 2, and a `store record`
//! killed mid-run leaving a readable store. Only the kill test
//! simulates, and only until its store holds ten segments.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use fleetio_suite::des::{SimDuration, SimTime};
use fleetio_suite::obs::{json, ObsEvent, ObsSink, RecordingSink, SloWindow};
use fleetio_suite::store::{segment_file_name, RunStore, StoreSink};

const FIXTURE: &str = "crates/store/tests/fixtures/recorded-by-pr20";

/// Runs `fleetio` from the repository root, so golden paths stay relative.
fn fleetio(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleetio"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run fleetio")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleetio-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn goldens_are_reproduced_byte_for_byte() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli");
    let cases = std::fs::read_to_string(golden.join("cases.txt")).expect("read cases.txt");
    let mut checked = 0;
    for line in cases
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let words: Vec<&str> = line.split_whitespace().collect();
        let (name, code, args) = (words[0], words[1], &words[2..]);
        let expected = std::fs::read(golden.join(format!("{name}.stdout"))).expect(name);
        let out = fleetio(args);
        assert_eq!(
            out.status.code().map(|c| c.to_string()).as_deref(),
            Some(code),
            "{name}: exit code (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == expected,
            "{name}: stdout differs from the golden:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        if args.contains(&"--json") {
            let text = String::from_utf8(out.stdout).expect("utf-8 JSON");
            for line in text.lines() {
                json::parse(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 17, "every golden case ran");
}

/// A fleet tenant's `slo_window` verdicts sit in the store of every
/// shard it lived on. `obs report` folds them in window order, so the
/// order of its inputs cannot move the streak or the burn column.
#[test]
fn report_folds_a_split_tenant_in_window_order() {
    let dir = scratch_dir("report-order");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // Windows 0, 1 and 5 violate: the longest streak is 2 (windows 0-1),
    // never 5-0-1, and the last burn is window 5's.
    let line = |window: u32| {
        let w = u64::from(window);
        ObsEvent::SloWindow(Box::new(SloWindow {
            at: SimTime::from_millis(100 * (w + 1)),
            tenant: 5,
            window,
            ops: 1_000 + w,
            p95: SimDuration::from_micros(500 + w),
            p99: SimDuration::from_micros(900 + 10 * w),
            throughput: 1e7,
            p95_ok: true,
            p99_ok: ![0, 1, 5].contains(&window),
            throughput_ok: true,
            burn: 0.1 * f64::from(window + 1),
        }))
        .to_json()
            + "\n"
    };
    let (a, b) = (dir.join("shard1.jsonl"), dir.join("shard0.jsonl"));
    std::fs::write(&a, (0..3).map(line).collect::<String>()).expect("write");
    std::fs::write(&b, (3..6).map(line).collect::<String>()).expect("write");
    let (a, b) = (a.to_str().expect("utf-8"), b.to_str().expect("utf-8"));
    let forward = fleetio(&["obs", "report", a, b]);
    let backward = fleetio(&["obs", "report", b, a]);
    assert!(forward.status.success() && backward.status.success());
    let text = String::from_utf8_lossy(&forward.stdout);
    assert_eq!(text, String::from_utf8_lossy(&backward.stdout));
    let row = text
        .lines()
        .find(|l| l.starts_with("t5 "))
        .expect("tenant row");
    assert_eq!(
        row.split_whitespace().collect::<Vec<_>>(),
        ["t5", "6", "3", "50.0%", "2", "0.600"],
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `obs summarize` and `obs report` fold a store's typed events and the
/// JSONL `store query` renders from them into the same report: only the
/// `trace:` line, which names the input, may differ.
#[test]
fn obs_reads_a_store_and_its_jsonl_alike() {
    let dir = scratch_dir("store-vs-jsonl");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let query = fleetio(&["store", "query", FIXTURE]);
    assert!(query.status.success(), "store query");
    let jsonl = dir.join("fixture.jsonl");
    std::fs::write(&jsonl, &query.stdout).expect("write");
    let jsonl = jsonl.to_str().expect("utf-8");
    for verb in [
        &["summarize"][..],
        &["summarize", "--by-tenant"],
        &["report"],
    ] {
        let run = |input: &str| {
            let mut args = vec!["obs", verb[0], input];
            args.extend(&verb[1..]);
            let out = fleetio(&args);
            assert!(out.status.success(), "obs {verb:?} {input}");
            let text = String::from_utf8(out.stdout).expect("utf-8");
            text.replace(&format!("trace: {input}\n"), "trace: <input>\n")
        };
        assert_eq!(run(FIXTURE), run(jsonl), "obs {verb:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSONL line that parses but is not an event, or not one the row
/// table declares, exits 2 and names the file and line.
#[test]
fn obs_refuses_jsonl_lines_that_are_not_events() {
    let dir = scratch_dir("strict-jsonl");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let good = ObsEvent::Throttle {
        at: SimTime::from_nanos(5),
        channel: 3,
        until: SimTime::from_nanos(9),
    }
    .to_json();
    let bad = [
        r#"{"type":"bogus","at":5}"#,
        "{}",
        r#"{"type":"gc_start","at":"x","live_pages":-3}"#,
        r#"{"type":"throttle","at":5,"channel":70000,"until":9}"#,
        r#"{"type":"throttle","at":5,"channel":3,"until":9007199254740993}"#,
        r#"{"type":"throttle","at":5,"channel":3}"#,
        r#"{"type":"throttle","at":5,"channel":3,"until":9,"extra":1}"#,
    ];
    for (i, line) in bad.iter().enumerate() {
        let path = dir.join(format!("bad{i}.jsonl"));
        std::fs::write(&path, format!("{good}\n\n{line}\n{good}\n")).expect("write");
        let path = path.to_str().expect("utf-8");
        for verb in ["summarize", "report"] {
            let out = fleetio(&["obs", verb, path]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "obs {verb} accepted {line}");
            assert!(out.stdout.is_empty(), "obs {verb} printed for {line}");
            assert!(stderr.contains(&format!("{path}:3: ")), "{line}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A ring that overflowed ends its JSONL in a `trace_truncated` meta
/// line: `summarize` reports its eviction count and does not count it as
/// an event.
#[test]
fn a_truncated_trace_counts_evictions_not_a_meta_event() {
    let dir = scratch_dir("truncated");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut sink = RecordingSink::with_capacity(2);
    for i in 0..3u64 {
        sink.record(ObsEvent::Throttle {
            at: SimTime::from_nanos(10 * i),
            channel: 1,
            until: SimTime::from_nanos(10 * i + 5),
        });
    }
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, sink.to_jsonl()).expect("write");
    let out = fleetio(&["obs", "summarize", path.to_str().expect("utf-8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\n  2 events, sim end 0.000 ms\n"), "{text}");
    assert!(
        text.contains("\n  1 events evicted (trace truncated, ring full)\n"),
        "{text}"
    );
    assert!(text.contains("\n  throttle           2\n"), "{text}");
    assert!(!text.contains("trace_truncated"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_lines_exit_two_and_print_nothing() {
    let dir = scratch_dir("usage");
    let tmp = dir.to_str().expect("utf-8 temp path");
    let rows: [&[&str]; 12] = [
        &["store", "record", tmp, "--sed", "7"],
        &["store", "record", tmp, "--segment-bytes", "0"],
        &["store", "record", tmp, "--windows", "4294967297"],
        &["store", "record", "--seed", "4", tmp],
        &["store", "query", FIXTURE, "--tenant", "4294967296"],
        &["store", "info", FIXTURE, "--bogus"],
        &["store", "verify", FIXTURE, "extra"],
        &["obs", "summarize", FIXTURE, "--by-tenant", "--by-tenant"],
        &["model", "inspect"],
        &["figures", "all", "--ful"],
        &["figures", "fig10", "fig12"],
        &["figures", "--full", "--tiny"],
    ];
    for args in rows {
        let out = fleetio(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(!out.stderr.is_empty(), "{args:?} explained nothing");
    }
    // The time filter is half-open, so `--from` at or past `--to` could
    // match nothing: it is refused, naming both values.
    for (from, to) in [("5000", "5000"), ("9", "3")] {
        let out = fleetio(&["store", "query", FIXTURE, "--from", from, "--to", to]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{from}..{to}: {stderr}");
        assert!(out.stdout.is_empty(), "{from}..{to} printed to stdout");
        let named = [format!("--from {from}"), format!("--to {to}")];
        assert!(named.iter().all(|f| stderr.contains(f)), "{stderr}");
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(!root.join("--seed").exists(), "a flag became a directory");
    assert!(!dir.exists(), "a refused record wrote a store");
}

/// A directory that holds no store is an i/o error naming its manifest,
/// not a corrupt store; a registry that is not there is named, not listed
/// as empty, and listing it creates nothing.
#[test]
fn missing_stores_and_registries_exit_two_naming_the_path() {
    let dir = scratch_dir("missing");
    std::fs::create_dir_all(&dir).expect("create empty dir");
    let tmp = dir.to_str().expect("utf-8 temp path");
    let manifest = dir.join("manifest.fiom");
    let manifest = manifest.to_str().expect("utf-8 temp path");
    for verb in [
        ["store", "info"],
        ["store", "verify"],
        ["store", "query"],
        ["obs", "summarize"],
        ["obs", "report"],
    ] {
        let out = fleetio(&[verb[0], verb[1], tmp]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{verb:?} printed to stdout");
        assert!(stderr.contains(manifest), "{verb:?}: {stderr}");
        assert!(!stderr.contains("corrupt"), "{verb:?}: {stderr}");
    }
    let registry = dir.join("no-such-registry");
    let out = fleetio(&["model", "ls", registry.to_str().expect("utf-8 temp path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "model ls: {stderr}");
    assert!(out.stdout.is_empty(), "model ls printed to stdout");
    assert!(stderr.contains(&*registry.to_string_lossy()), "{stderr}");
    assert!(!registry.exists(), "model ls created the registry");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_exits_one_on_damage() {
    let dir = scratch_dir("verify");
    let mut sink = StoreSink::create(&dir, vec![7, 7, 7], 0x51, 99, 1_000, 2_048).expect("create");
    for i in 0..600u64 {
        sink.record(ObsEvent::Throttle {
            at: SimTime::from_nanos(i * 100),
            channel: (i % 8) as u16,
            until: SimTime::from_nanos(i * 100 + 40),
        });
    }
    let manifest = sink.finish().expect("finish");
    let dir_s = dir.to_str().expect("utf-8 temp path");

    let ok = fleetio(&["store", "verify", dir_s]);
    assert!(ok.status.success(), "clean store must verify with exit 0");

    let last = manifest.segments.last().expect("segment").seq;
    let victim = dir.join(segment_file_name(last));
    let mut bytes = std::fs::read(&victim).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("corrupt");
    assert!(RunStore::open(&dir).is_ok(), "the manifest is untouched");

    let bad = fleetio(&["store", "verify", dir_s]);
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert_eq!(bad.status.code(), Some(1), "damage must exit 1 ({stdout})");
    assert!(stdout.contains("DAMAGED") || stdout.contains("SHORT"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A store whose spec is intact but unbuildable (a zero window) is
/// refused with exit 2 and the reason, before replay simulates anything.
#[test]
fn replay_refuses_an_unbuildable_spec_with_exit_two() {
    let dir = scratch_dir("unbuildable");
    let mut spec = fleetio_suite::fleetio::RunSpec::demo(3, 2, 0);
    spec.window = SimDuration::ZERO;
    let blob = spec.encode();
    let fingerprint = fleetio_suite::des::hash::crc32(&blob);
    let mut sink = StoreSink::create(&dir, blob, fingerprint, 99, 1_000, 2_048).expect("create");
    sink.record(ObsEvent::Throttle {
        at: SimTime::from_nanos(5),
        channel: 0,
        until: SimTime::from_nanos(9),
    });
    sink.finish().expect("finish");
    let out = fleetio(&[
        "store",
        "replay",
        dir.to_str().expect("utf-8 temp path"),
        "1000",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "replay printed to stdout");
    assert!(stderr.contains("window must be positive"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash contract: `store record` killed at an arbitrary point once
/// the manifest on disk lists `k` segments leaves an unsealed store whose
/// manifest lists only durable segments, each whole and holding exactly
/// its indexed event count.
#[test]
fn a_killed_recording_leaves_only_durable_segments() {
    for k in [1usize, 3, 10] {
        let dir = scratch_dir(&format!("kill-{k}"));
        let dir_s = dir.to_str().expect("utf-8 temp path");
        let mut child = Command::new(env!("CARGO_BIN_EXE_fleetio"))
            .args(["store", "record", dir_s, "--windows", "200"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fleetio store record");
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            let listed = RunStore::open(&dir).map_or(0, |s| s.manifest().segments.len());
            if listed >= k {
                break;
            }
            if let Some(status) = child.try_wait().expect("poll the recorder") {
                panic!("the recorder exited ({status}) before listing {k} segments");
            }
            assert!(Instant::now() < deadline, "no {k} segments in time");
            std::thread::sleep(Duration::from_millis(2));
        }
        child.kill().expect("kill the recorder");
        child.wait().expect("reap the recorder");

        let store = RunStore::open(&dir).expect("the manifest on disk is whole");
        let report = store.verify();
        assert!(!report.sealed, "k = {k}: a killed run is not sealed");
        assert!(report.segments.len() >= k, "k = {k}");
        for (seg, meta) in report.segments.iter().zip(&store.manifest().segments) {
            assert!(dir.join(segment_file_name(meta.seq)).exists());
            assert_eq!(seg.damage, None, "k = {k}: segment {}", seg.seq);
            assert_eq!(seg.events_read, meta.events, "k = {k}: segment {}", seg.seq);
        }
        assert_eq!(report.fingerprint_ok, Some(true), "k = {k}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
