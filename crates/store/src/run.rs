//! Recording a run into a store, and replaying it against the store.
//!
//! `record_run` drives a [`fleetio::RunSpec`] end-to-end with a
//! [`StoreSink`] installed, recording a replay anchor (a manifest entry:
//! window, sim-time, events so far) at every `checkpoint_every`-window
//! boundary.
//!
//! `replay_run` is time travel with an honesty clause. FleetIO's
//! engine state is deliberately not snapshotable (event queue,
//! slab request state and per-chip timing are live DES structures), so
//! replay re-simulates from `t = 0` and byte-compares every regenerated
//! event, from stream index 0 to the target sim-time, against the stored
//! record at the same index, pulled in lockstep through a
//! [`PayloadCursor`] that holds one segment in memory. Any divergence —
//! nondeterminism, store damage, a changed binary — is reported with its
//! stream index. The anchors tell a reader where each window boundary
//! sits in the stream; replay needs none of them.

use std::any::Any;
use std::io;
use std::path::Path;

use fleetio::RunSpec;
use fleetio_obs::{ObsEvent, ObsSink};

use crate::manifest::Manifest;
use crate::read::{PayloadCursor, RunStore, StoreError};
use crate::sink::StoreSink;

/// Outcome of [`record_run`].
#[derive(Debug, Clone)]
pub struct RecordReport {
    /// The sealed manifest.
    pub manifest: Manifest,
    /// Decision windows simulated.
    pub windows: u32,
    /// Replay anchors recorded.
    pub anchors: usize,
}

/// Runs `spec` to completion, streaming every event into a new store at
/// `dir`. Anchors are recorded after every `spec.checkpoint_every`
/// completed windows (0 disables anchoring).
///
/// # Errors
///
/// Store I/O failure (latched sink errors surface at seal/finish).
pub fn record_run(spec: &RunSpec, dir: &Path, segment_bytes: usize) -> io::Result<RecordReport> {
    let sink = StoreSink::create(
        dir,
        spec.encode(),
        spec.fingerprint(),
        spec.seed,
        spec.window.as_nanos(),
        segment_bytes,
    )?;
    let mut colo = spec.build();
    colo.set_obs_sink(Box::new(sink));
    colo.warm_up(spec.warm_fraction);
    let mut anchors = 0usize;
    for w in 0..spec.windows {
        colo.run_window();
        let completed = w + 1;
        if spec.checkpoint_every > 0
            && completed % spec.checkpoint_every == 0
            && completed < spec.windows
        {
            let at_ns = colo.engine().now().as_nanos();
            let mut sink = downcast_store(colo.take_obs_sink())?;
            sink.anchor(u64::from(completed), at_ns)?;
            colo.set_obs_sink(sink);
            anchors += 1;
        }
    }
    let sink = downcast_store(colo.take_obs_sink())?;
    let manifest = sink.finish()?;
    Ok(RecordReport {
        manifest,
        windows: spec.windows,
        anchors,
    })
}

fn downcast_store(sink: Box<dyn ObsSink>) -> io::Result<Box<StoreSink>> {
    sink.into_any()
        .downcast::<StoreSink>()
        .map_err(|_| io::Error::other("engine returned a foreign sink"))
}

/// Outcome of [`replay_run`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The requested target sim-time, nanoseconds.
    pub target_ns: u64,
    /// Decision windows re-simulated.
    pub windows_replayed: u32,
    /// Events the replay regenerated.
    pub events_replayed: u64,
    /// Regenerated events byte-compared against a stored record.
    pub compared: u64,
    /// Stream index of the first regenerated event that differs from
    /// the stored one or has none, or, after a replay of the whole run,
    /// of the first stored event it did not regenerate.
    pub mismatch: Option<u64>,
}

impl ReplayReport {
    /// Whether the replay reproduced the stored stream exactly.
    pub fn ok(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Verification sink installed during replay: byte-compares every
/// regenerated event against the stored stream, pulled in lockstep
/// through a [`PayloadCursor`]. Each regenerated event is encoded in the
/// format of the stored record it meets, so a store keeps verifying after
/// the format writers use moves on.
#[derive(Debug)]
struct CheckSink {
    stored: PayloadCursor,
    /// First failure reading the store. A sink cannot return it, so it is
    /// latched (the cursor is not pulled again) and `replay_run` surfaces
    /// it in place of a report.
    error: Option<StoreError>,
    index: u64,
    compared: u64,
    mismatch: Option<u64>,
    scratch: Vec<u8>,
}

impl ObsSink for CheckSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        let index = self.index;
        self.index += 1;
        if self.error.is_some() {
            return;
        }
        match self.stored.next_payload() {
            Ok(Some((format, stored))) => {
                self.compared += 1;
                if self.mismatch.is_none() {
                    self.scratch.clear();
                    format.encode(&ev, &mut self.scratch);
                    if *stored != self.scratch {
                        self.mismatch = Some(index);
                    }
                }
            }
            Ok(None) => {
                self.mismatch.get_or_insert(index);
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Replays the stored run up to `target_ns` sim-time and verifies the
/// regenerated stream against the store, event by event from index 0.
///
/// Replay re-simulates windows from a fresh engine until the sim clock
/// covers the target (clamped to the run's length).
///
/// # Errors
///
/// Unsealed or damaged stores, or a spec that no longer decodes. A
/// *mismatching stream* is not an error — it is the report's payload.
pub fn replay_run(dir: &Path, target_ns: u64) -> Result<ReplayReport, StoreError> {
    let store = RunStore::open(dir)?;
    let manifest = store.manifest();
    if !manifest.sealed {
        return Err(StoreError::Unusable(
            "store is not sealed (crashed or still recording); replay needs a finished run".into(),
        ));
    }
    let spec = store.spec()?;

    let mut colo = spec.build();
    colo.set_obs_sink(Box::new(CheckSink {
        stored: store.payload_cursor(),
        error: None,
        index: 0,
        compared: 0,
        mismatch: None,
        scratch: Vec::with_capacity(128),
    }));
    colo.warm_up(spec.warm_fraction);
    // Warm-up advances the sim clock, so the window count covering the
    // target is not `target / window`; run until the clock reaches it.
    let mut windows_replayed = 0u32;
    while windows_replayed < spec.windows {
        colo.run_window();
        windows_replayed += 1;
        if colo.engine().now().as_nanos() >= target_ns {
            break;
        }
    }
    let mut check = colo
        .take_obs_sink()
        .into_any()
        .downcast::<CheckSink>()
        .map_err(|_| StoreError::Io("engine returned a foreign sink".into()))?;
    // Strict as a whole-store read: damage the replay met, or damage in
    // segments past the target it never reached, is an error — not a
    // report over a partly checked stream.
    if let Some(e) = check.error.take() {
        return Err(e);
    }
    let stored = check.stored.drain()?;
    // The whole run replayed: a stored event past its end is a divergence.
    if windows_replayed == spec.windows && stored > check.index {
        check.mismatch.get_or_insert(check.index);
    }

    Ok(ReplayReport {
        target_ns,
        windows_replayed,
        events_replayed: check.index,
        compared: check.compared,
        mismatch: check.mismatch,
    })
}
