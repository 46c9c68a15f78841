//! Smoke-sized pass of all four workloads: the emitted metric and
//! workload names are exactly `BENCHMARK.json`'s, every value is finite
//! with its unit and direction, and a panicking repetition is counted in
//! `failed` instead of aborting the run.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use fleetio_benchmark::alloc::CountingAlloc;
use fleetio_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use fleetio_benchmark::runner::{self, RepOutput, RunOptions, RunResult, Size, Workload};
use fleetio_benchmark::workloads;
use fleetio_obs::json::{self, Value};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The profiler and the working directory are process-global: runs
/// serialize here, from the repository root like the real command.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repository root");
    guard
}

fn spec() -> Value {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn smoke(workload: &str, trace: bool) -> RunResult {
    let opts = RunOptions {
        workload: workload.into(),
        seed: 17,
        seconds: 1.0,
        trace,
        size: Size::Smoke,
    };
    runner::run(&opts, &mut || {
        workloads::setup(workload, 17, Size::Smoke).expect("known workload")
    })
}

#[test]
fn catalogue_is_exactly_benchmark_json() {
    let spec = spec();
    let keys: Vec<&str> = spec
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<_> = get(&spec, "paths")
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let names: Vec<_> = get(&spec, "workloads")
        .as_array()
        .unwrap()
        .iter()
        .map(|w| get(w, "name").as_str().unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);

    let same = |key: &str, table: &[MetricDef], bounded: bool| {
        let listed = get(&spec, key).as_array().unwrap();
        assert_eq!(listed.len(), table.len(), "{key} length");
        for (entry, def) in listed.iter().zip(table) {
            assert_eq!(get(entry, "name").as_str(), Some(def.name), "{key} order");
            assert_eq!(get(entry, "unit").as_str(), Some(def.unit), "{}", def.name);
            assert_eq!(
                get(entry, "better").as_str(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            let keys = entry.as_object().unwrap().len();
            if bounded {
                assert_eq!(
                    get(entry, "bound").as_f64(),
                    Some(def.bound),
                    "{}",
                    def.name
                );
                assert_eq!(keys, 4, "{}", def.name);
            } else {
                assert_eq!(keys, 3, "{}", def.name);
            }
        }
    };
    same("end_to_end", END_TO_END, true);
    same("per_layer", PER_LAYER, false);
}

#[test]
fn smoke_pass_emits_exactly_the_catalogue() {
    let _guard = serialized();
    let mut measured = BTreeSet::new();
    for workload in WORKLOADS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let res = smoke(workload, trace);
            assert!(
                res.correct(),
                "{workload} trace {trace}: {:?}",
                res.failures
            );
            assert!(res.attempted >= 1 && res.failed == 0);

            let line = json::parse(&runner::contract_line(&res)).expect("result line parses");
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(get(&line, "correct").as_bool(), Some(true));
            let metrics = get(&line, "metrics").as_object().unwrap();
            let emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = table.iter().map(|m| m.name).collect();
            expected.sort_unstable();
            assert_eq!(emitted, expected, "{workload} trace {trace}");
            for def in table {
                let m = &metrics[def.name];
                let value = get(m, "value").as_f64().expect("numeric value");
                assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
                assert_eq!(get(m, "unit").as_str(), Some(def.unit));
                assert!(["lower", "higher"].contains(&def.better.as_str()));
            }
            if !trace {
                assert!(
                    metrics
                        .values()
                        .all(|m| get(m, "value").as_f64() != Some(0.0)),
                    "end-to-end metrics are never 0"
                );
                assert!(res.measured["wall_s"].n >= 3 && res.measured["setup_s"].n == 3);
            }
            json::parse(&runner::json_record(&res)).expect("--out record parses");
            measured.extend(
                res.measured
                    .iter()
                    .filter(|(_, s)| s.n > 0)
                    .map(|(name, _)| *name),
            );
        }
    }
    // No dead catalogue entry: some workload measures every metric.
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            measured.contains(def.name),
            "no workload measures {}",
            def.name
        );
    }
}

/// Forwards to a real workload but panics in its second repetition.
struct PanicsOnce {
    inner: Box<dyn Workload>,
    reps: usize,
}

impl Workload for PanicsOnce {
    fn engine_windows(&self) -> u64 {
        self.inner.engine_windows()
    }

    fn rep(&mut self, traced: bool) -> RepOutput {
        self.reps += 1;
        assert!(self.reps != 2, "forced panic in repetition 2");
        self.inner.rep(traced)
    }

    fn check(&mut self) -> Vec<String> {
        self.inner.check()
    }
}

#[test]
fn panicking_repetition_fails_its_windows_without_aborting() {
    let _guard = serialized();
    let opts = RunOptions {
        workload: "store-record".into(),
        seed: 5,
        seconds: 1.0,
        trace: false,
        size: Size::Smoke,
    };
    let mut built = 0;
    let res = runner::run(&opts, &mut || {
        built += 1;
        Box::new(PanicsOnce {
            inner: workloads::setup("store-record", 5, Size::Smoke).expect("known workload"),
            reps: 0,
        })
    });
    assert_eq!(built, 3, "set-up runs three times for setup_s");
    let windows = workloads::setup("store-record", 5, Size::Smoke)
        .unwrap()
        .engine_windows();
    assert_eq!(
        res.failed, windows,
        "exactly the panicked repetition's windows fail"
    );
    assert!(
        res.attempted >= 4 * windows,
        "three good repetitions still ran"
    );
    assert!(!res.correct());
    assert!(
        res.failures.iter().any(|f| f.contains("panicked")),
        "{:?}",
        res.failures
    );
    assert!(res.measured["wall_s"].n >= 3);
    let line = json::parse(&runner::contract_line(&res)).expect("result line parses");
    assert_eq!(get(&line, "correct").as_bool(), Some(false));
    assert_eq!(get(&line, "failed").as_u64(), Some(windows));
}
