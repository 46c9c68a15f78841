//! Wall-clock-free perf gates: seven tests that hold heap allocations and
//! the bytes they request on six hot paths under ceiling constants,
//! counted by the global allocator this file installs. The counts repeat
//! run after run, in the debug and the release profile alike — to the last
//! digit on one thread, within a few allocations where the work runs on
//! the store's helper threads and is counted process-wide — so they need
//! no baseline file and no comparator; host *time* is `benchmark/`'s job.
//!
//! A ceiling is the measured value (`-- --nocapture` prints it) rounded up
//! by at most 5 %. A change that lowers a count should lower its ceiling in
//! the same PR; a new wall-clock-free proxy is one more `#[test]` here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fleetio::baselines::StaticPolicy;
use fleetio::experiment::{hardware_layout, run_collocation, ExperimentOptions};
use fleetio::{Colocation, FleetIoConfig};
use fleetio_des::{SimDuration, SimTime};
use fleetio_flash::addr::ChannelId;
use fleetio_flash::config::FlashConfig;
use fleetio_obs::{NandKind, ObsEvent, ObsSink};
use fleetio_store::{diff_stores, DiffOutcome, RunStore, StoreSink, DEFAULT_SEGMENT_BYTES};
use fleetio_vssd::engine::{Engine, EngineConfig};
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::WorkloadKind;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Delegates to [`System`] while counting allocations and the bytes they
/// request, per thread and for the whole process. Deallocation is free
/// (the counters are cumulative, not live).
struct CountingAllocator;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_COUNT: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates allocation to `System` unchanged; the counters are
// plain thread-local cells and statics that publish no other data (hence
// `Relaxed`), and never allocate themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as u64);
        System.alloc_zeroed(layout)
    }
}

#[inline]
fn note(bytes: u64) {
    // try_with: allocations during TLS teardown are simply uncounted.
    let _ = COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = BYTES.try_with(|b| b.set(b.get().wrapping_add(bytes)));
    PROCESS_COUNT.fetch_add(1, Ordering::Relaxed);
    PROCESS_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// This thread's cumulative (allocation count, bytes requested).
fn counters() -> (u64, u64) {
    (
        COUNT.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// Every thread's cumulative (allocation count, bytes requested).
fn process_counters() -> (u64, u64) {
    (
        PROCESS_COUNT.load(Ordering::Relaxed),
        PROCESS_BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations per completed request of a colocation run with no obs sink
/// (measured 0.04550384794173855: 881 allocations over 19 361 requests,
/// one of them the sorted copy of vSSD ids `Engine::new` checks for
/// duplicates; 870 before each per-page table also had a chunk list; 894
/// while every tenant's trace ring grew).
/// Per request, not per simulated event: how many events a request costs
/// is the engine's business, whereas the requests a seeded run completes
/// do not move.
const ALLOCS_PER_REQUEST_MAX: f64 = 0.0471;

/// The same run's allocations outright: the ratio above must not pass by
/// its denominator alone.
const ALLOCS_MAX: u64 = 913;

/// Allocations per completed request of an open-loop-only colocation, the
/// load a fleet shard runs (measured 0.003967119370979271: 111 allocations
/// over 27 980 requests; 120 while every tenant's trace ring grew).
const OPEN_LOOP_ALLOCS_PER_REQUEST_MAX: f64 = 0.00416;

/// That run's allocations outright (see [`ALLOCS_MAX`]).
const OPEN_LOOP_ALLOCS_MAX: u64 = 116;

/// Bytes requested per submitted request of a four-tenant colocation run
/// (measured 43.74943605760888: 1 260 640 bytes over 28 815 requests,
/// 43.75 with the audit features). With 56-byte queued page ops and
/// 64-byte in-flight requests it was 52.1; a 32-byte trace record kept
/// for every request of every tenant, in rings grown by doubling, made
/// it 143.6.
const BYTES_PER_REQUEST_MAX: f64 = 45.9;

/// Allocations of `Engine::new` plus a half-capacity warm-up (measured
/// 1 508): most are the 16 KiB page-state and L2P chunks the warm-up's
/// writes allocate, one per chunk first written (651 while those tables
/// were allocated whole). A `Vec` allocated per block opened made it
/// 8 035.
const ENGINE_BUILD_ALLOCS_MAX: f64 = 1_580.0;

/// Bytes those allocations request (measured 15 044 976). Nearly all of it
/// is per-page state: the chunks holding the pages the warm-up wrote, 4
/// bytes per page-state slot and per L2P entry. Allocated whole — a slot
/// per physical page (16 MiB) and an entry per logical page of each vSSD
/// (2 × 6.4 MiB) — it was 31 136 328; with 8-byte slots and 12-byte
/// entries grown to the warmed prefix, 54 598 152. A `Vec` allocated per
/// block opened made it 21 729 640.
const ENGINE_BUILD_BYTES_MAX: f64 = 15_790_000.0;

/// Allocations per event of diffing a store against itself, counted over
/// the whole process (measured 0.002625: 1 050 allocations over 400 000
/// events in 31 segments, of which the two read-ahead helpers make most;
/// one buffer allocated per segment read would add 62. Segment format 1,
/// 64 segments, made it 1 974).
const STORE_DIFF_ALLOCS_PER_EVENT_MAX: f64 = 0.00275;

/// Bytes the whole process requests to record, seal and finish that store
/// (measured 1 078 606 to 1 078 789 over 31 seals; the spread is the
/// channels' and the test harness's own bookkeeping; 1 209 678 to
/// 1 220 062 with 80-byte events, 1 329 652 to 1 340 520 over the 64
/// seals of segment format 1). Most of it is the encoder's three 256 KiB
/// segment buffers and the recording thread's four 48 KiB batches,
/// allocated once per sink; a buffer allocated per seal would add
/// 31 × 256 KiB.
const STORE_RECORD_BYTES_MAX: f64 = 1_130_000.0;

/// The recording thread's share of those bytes (measured 222 201): its
/// batch pool of 1 024 events each and the sink. With 80-byte events it
/// was 353 280; holding both segment buffers and encoding a manifest
/// snapshot per seal before the encoder thread, 1 026 315.
const STORE_RECORDER_BYTES_MAX: f64 = 233_000.0;

const SEED: u64 = 42;

/// Every test holds this for its whole body, set-up included: the
/// process-wide counts must not see another test's allocations, and the
/// scenarios should not share the CI box's two cores and memory.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations and the bytes they requested, as (count, bytes): on
/// the calling thread, and in the whole process — which adds the helper
/// threads a call runs its work on (the store's encoder, writer and
/// read-ahead threads), plus whatever the test harness's own thread
/// allocates meanwhile (a few bookkeeping allocations at most).
struct Allocs {
    thread: (u64, u64),
    process: (u64, u64),
}

/// Runs `f` and returns what it allocated, after proving the counting
/// allocator is installed (so a ceiling cannot pass on a counter that
/// never moves). Call with [`serial`] held.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (Allocs, T) {
    let before = counters().0;
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(
        counters().0,
        before + 1,
        "CountingAllocator is not the global allocator"
    );
    let (thread0, process0) = (counters(), process_counters());
    let out = f();
    let (thread1, process1) = (counters(), process_counters());
    let delta = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
    let allocs = Allocs {
        thread: delta(thread0, thread1),
        process: delta(process0, process1),
    };
    (allocs, out)
}

/// Prints the measured value (shown by `--nocapture`) and holds it under
/// its ceiling.
fn hold(metric: &str, measured: f64, ceiling: f64) {
    println!("{metric} = {measured}");
    assert!(
        measured <= ceiling,
        "{metric} = {measured} is over its ceiling {ceiling}"
    );
}

/// Hardware-isolated VDI + TeraSort on the training device under a static
/// policy: 1 ramp + 6 measured windows, no obs sink attached.
#[test]
fn colocation_allocs_per_request() {
    let _serial = serial();
    let mut cfg = FleetIoConfig::default();
    cfg.engine.flash = FlashConfig::training_test();
    let opts = ExperimentOptions {
        cfg: cfg.clone(),
        measure_windows: 6,
        ramp_windows: 1,
        warm_fraction: 0.3,
        seed: SEED,
    };
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::VdiWeb, WorkloadKind::TeraSort],
        &[None, None],
        SEED,
    );
    let peak = cfg.engine.flash.device_peak_bytes_per_sec();
    let (counted, metrics) = allocs_during(|| {
        run_collocation(&mut StaticPolicy::hardware(), tenants, &opts, peak, None)
    });
    let allocs = counted.thread.0;
    let requests: u64 = metrics.tenants.iter().map(|t| t.requests).sum();
    assert!(requests > 10_000, "scenario shrank: {requests} requests");
    hold(
        &format!("allocs_per_request ({allocs} / {requests})"),
        allocs as f64 / requests as f64,
        ALLOCS_PER_REQUEST_MAX,
    );
    assert!(
        allocs <= ALLOCS_MAX,
        "{allocs} allocations, ceiling {ALLOCS_MAX}"
    );
}

/// Four hardware-isolated tenants on the training device, three open-loop
/// and one closed-loop, none of whose traces is kept: the bytes every
/// request costs the driver and the engine. The engine is built outside
/// the count, and the tenants are detached and drained inside it, so
/// every request counted was submitted and completed there.
#[test]
fn colocation_bytes_per_request() {
    let _serial = serial();
    let engine_cfg = EngineConfig {
        flash: FlashConfig::training_test(),
        ..Default::default()
    };
    let kinds = [
        WorkloadKind::VdiWeb,
        WorkloadKind::Tpce,
        WorkloadKind::Ycsb,
        WorkloadKind::TeraSort,
    ];
    let ids = || (0..kinds.len() as u16).map(|i| (VssdId(u32::from(i)), ChannelId(i)));
    let configs = ids()
        .map(|(id, channel)| VssdConfig::hardware(id, vec![channel]))
        .collect();
    let mut coloc = Colocation::vacant(engine_cfg, configs, SimDuration::from_millis(500));
    let (counted, ()) = allocs_during(|| {
        for ((id, _), kind) in ids().zip(kinds) {
            coloc.attach(id, kind, kind.spec(), SEED + u64::from(id.0));
        }
        coloc.run_windows(6);
        for (id, _) in ids() {
            let _ = coloc.detach(id);
        }
        coloc.run_windows(2);
    });
    let bytes = counted.thread.1;
    let requests: u64 = ids()
        .map(|(id, _)| coloc.engine().cumulative(id).requests)
        .sum();
    assert!(requests > 10_000, "scenario shrank: {requests} requests");
    assert!(
        ids().all(|(id, _)| coloc.engine().queued_ops(id) == 0),
        "tenants drained"
    );
    hold(
        &format!("bytes_per_request ({bytes} / {requests})"),
        bytes as f64 / requests as f64,
        BYTES_PER_REQUEST_MAX,
    );
}

/// What most fleet shards run: light interactive open-loop tenants on
/// single channels, attached to a vacant colocation mid-run. Every request
/// here comes through the 1 ms arrival feed, which allocated per request
/// and per tick before it pulled one record at a time; the first window
/// (engine pools growing to size) is not counted.
#[test]
fn open_loop_colocation_allocs_per_request() {
    let _serial = serial();
    let engine_cfg = EngineConfig {
        flash: FlashConfig::training_test(),
        ..Default::default()
    };
    let kinds = [WorkloadKind::VdiWeb, WorkloadKind::Tpce, WorkloadKind::Ycsb];
    let ids = || (0..kinds.len() as u16).map(|i| (VssdId(u32::from(i)), ChannelId(i)));
    let configs = ids()
        .map(|(id, channel)| VssdConfig::hardware(id, vec![channel]))
        .collect();
    let mut coloc = Colocation::vacant(engine_cfg, configs, SimDuration::from_millis(500));
    for ((id, _), kind) in ids().zip(kinds) {
        coloc.attach(id, kind, kind.spec(), SEED + u64::from(id.0));
    }
    coloc.run_windows(1);
    let completed = |c: &Colocation| -> u64 {
        ids()
            .map(|(id, _)| c.engine().cumulative(id).requests)
            .sum()
    };
    let before = completed(&coloc);
    let (counted, ()) = allocs_during(|| coloc.run_windows(6));
    let allocs = counted.thread.0;
    let requests = completed(&coloc) - before;
    assert!(requests > 5_000, "scenario shrank: {requests} requests");
    hold(
        &format!("open_loop_allocs_per_request ({allocs} / {requests})"),
        allocs as f64 / requests as f64,
        OPEN_LOOP_ALLOCS_PER_REQUEST_MAX,
    );
    assert!(
        allocs <= OPEN_LOOP_ALLOCS_MAX,
        "{allocs} allocations, ceiling {OPEN_LOOP_ALLOCS_MAX}"
    );
}

/// `Engine::new` on the experiment device with two 8-channel vSSDs, each
/// pre-filled to half its logical space — what every figure run, SLO
/// calibration and RL environment does before its first window. Returns
/// the allocation count and the bytes requested.
fn engine_build_and_warm_up() -> (u64, u64) {
    let cfg = EngineConfig {
        flash: FlashConfig::experiment_default(),
        ..Default::default()
    };
    let vssds: Vec<VssdConfig> = (0..2u16)
        .map(|v| {
            let channels = (v * 8..v * 8 + 8).map(ChannelId).collect();
            VssdConfig::hardware(VssdId(u32::from(v)), channels)
        })
        .collect();
    let (counted, _engine) = allocs_during(|| {
        let mut engine = Engine::new(cfg, vssds);
        for id in engine.vssd_ids() {
            engine.warm_up(id, 0.5);
        }
        engine
    });
    counted.thread
}

#[test]
fn engine_build_and_warm_up_allocs() {
    let _serial = serial();
    let (allocs, _) = engine_build_and_warm_up();
    hold(
        "engine_build_allocs",
        allocs as f64,
        ENGINE_BUILD_ALLOCS_MAX,
    );
}

/// Bytes requested by the same build: nearly all of it is per-page state,
/// the chunks of the chips' page-state arenas and the vSSDs' L2P maps
/// that the warm-up writes.
#[test]
fn engine_build_and_warm_up_bytes() {
    let _serial = serial();
    let (_, bytes) = engine_build_and_warm_up();
    hold("engine_build_bytes", bytes as f64, ENGINE_BUILD_BYTES_MAX);
}

/// Events in the store mix the two store gates record.
const STORE_EVENTS: u64 = 400_000;

/// Records [`STORE_EVENTS`] events of a fixed mix weighted toward the hot
/// event kinds into a new store at `dir` (default 256 KiB segments).
fn record_store_mix(dir: &std::path::Path) -> fleetio_store::Manifest {
    let mut sink = StoreSink::create(
        dir,
        vec![0; 64],
        0x5707_e9e9,
        SEED,
        500_000_000,
        DEFAULT_SEGMENT_BYTES,
    )
    .expect("create store");
    for i in 0..STORE_EVENTS {
        let at = SimTime::from_nanos(i * 1_000);
        let (vssd, read) = ((i % 4) as u32, i % 3 != 0);
        let (channel, chip) = ((i % 8) as u16, (i % 4) as u16);
        sink.record(match i % 8 {
            0 => ObsEvent::RequestSubmit {
                at,
                req: i,
                vssd,
                read,
                bytes: 4096,
            },
            1 => ObsEvent::RequestAdmit {
                at,
                req: i,
                vssd,
                pages: 1,
            },
            2 | 3 => ObsEvent::ChipIssue {
                at,
                req: i,
                vssd,
                channel,
                chip,
                read,
            },
            4 | 5 => ObsEvent::NandOp {
                start: at,
                end: SimTime::from_nanos(i * 1_000 + 40_000),
                vssd,
                channel,
                chip,
                kind: NandKind::Read,
                gc: false,
                bytes: 4096,
            },
            _ => ObsEvent::RequestComplete {
                at,
                req: i,
                vssd,
                read,
                bytes: 4096,
                arrival: SimTime::from_nanos(i.saturating_sub(50) * 1_000),
                service_start: at,
            },
        });
    }
    let manifest = sink.finish().expect("seal store");
    assert_eq!(manifest.total_events, STORE_EVENTS);
    manifest
}

fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fleetio-alloc-gate-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Bytes requested while the mix is recorded, sealed and finished, by
/// the whole process: the sink, the recording thread's batch pool, the
/// encoder's segment buffers, the manifest snapshots the writer commits
/// and the threads themselves. The recording thread's own share is held
/// separately: it must not grow back toward holding the segment buffers.
#[test]
fn store_record_bytes() {
    let _serial = serial();
    let dir = store_dir("record");
    let (allocs, manifest) = allocs_during(|| record_store_mix(&dir));
    std::fs::remove_dir_all(&dir).ok();
    assert!(manifest.segments.len() > 20, "scenario shrank");
    hold(
        &format!("store_record_bytes ({} segments)", manifest.segments.len()),
        allocs.process.1 as f64,
        STORE_RECORD_BYTES_MAX,
    );
    hold(
        "store_recorder_bytes",
        allocs.thread.1 as f64,
        STORE_RECORDER_BYTES_MAX,
    );
}

/// The same store diffed against itself: two independent payload cursors
/// in lockstep, each reading ahead on its own helper thread.
#[test]
fn store_diff_allocs_per_event() {
    let _serial = serial();
    let dir = store_dir("diff");
    record_store_mix(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let (counted, outcome) = allocs_during(|| diff_stores(&store, &store));
    let allocs = counted.process.0;
    std::fs::remove_dir_all(&dir).ok();
    assert!(matches!(
        outcome.expect("diff store"),
        DiffOutcome::Identical {
            events: STORE_EVENTS
        }
    ));
    hold(
        &format!("store_diff_allocs_per_event ({allocs} / {STORE_EVENTS})"),
        allocs as f64 / STORE_EVENTS as f64,
        STORE_DIFF_ALLOCS_PER_EVENT_MAX,
    );
}
