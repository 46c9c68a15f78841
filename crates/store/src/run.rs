//! Recording a run into a store, and checkpoint-anchored replay.
//!
//! `record_run` drives a [`fleetio::RunSpec`] end-to-end with a
//! [`StoreSink`] installed, writing a replay anchor (a
//! `fleetio-model` `RunAnchor` container) at every
//! `checkpoint_every`-window boundary.
//!
//! `replay_run` is time travel with an honesty clause. FleetIO's
//! engine state is deliberately not snapshotable (event queue,
//! slab request state and per-chip timing are live DES structures), so
//! replay re-simulates from `t = 0` — what the anchor buys is *trust*,
//! not wall-clock: the regenerated stream's FNV-1a fingerprint is
//! checked against the anchor at its event boundary (proving the
//! replayed prefix is the recorded prefix without holding both in
//! memory), and from the anchor on every regenerated event is
//! byte-compared against the stored stream up to the target sim-time.
//! Any divergence — nondeterminism, store damage, a changed binary —
//! is reported with its stream index.

use std::any::Any;
use std::io;
use std::path::Path;

use fleetio::RunSpec;
use fleetio_des::hash::Fnv64;
use fleetio_obs::wire::WireFormat;
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
    /// Replay anchors written.
    pub anchors: usize,
}

/// Runs `spec` to completion, streaming every event into a new store at
/// `dir`. Anchors are written after every `spec.checkpoint_every`
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
            sink.anchor(u64::from(completed), at_ns, "")?;
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
    /// Window of the anchor used (`None`: replayed from the start with
    /// no anchor to check against).
    pub anchor_window: Option<u64>,
    /// Events before the anchor (prefix verified by fingerprint only).
    pub anchor_event_count: u64,
    /// Decision windows re-simulated.
    pub windows_replayed: u32,
    /// Events the replay regenerated.
    pub events_replayed: u64,
    /// Whether the regenerated prefix fingerprint matched the anchor
    /// (vacuously true without an anchor).
    pub prefix_ok: bool,
    /// Events byte-compared against the store from the anchor on.
    pub compared: u64,
    /// Stream index of the first regenerated event that differs from
    /// the stored one, if any.
    pub mismatch: Option<u64>,
}

impl ReplayReport {
    /// Whether the replay reproduced the stored stream exactly.
    pub fn ok(&self) -> bool {
        self.prefix_ok && self.mismatch.is_none()
    }
}

/// Verification sink installed during replay: fingerprints the
/// pre-anchor prefix, byte-compares everything after against the stored
/// stream, pulled in lockstep through a [`PayloadCursor`]. Each
/// regenerated event is encoded in the format of the stored record it
/// meets, so a store keeps verifying after the format writers use moves
/// on.
#[derive(Debug)]
struct CheckSink {
    stored: PayloadCursor,
    /// First failure reading the store. A sink cannot return it, so it is
    /// latched (the cursor is not pulled again) and `replay_run` surfaces
    /// it in place of a report.
    error: Option<StoreError>,
    anchor_count: u64,
    anchor_fp: u64,
    fp: Fnv64,
    index: u64,
    prefix_ok: bool,
    compared: u64,
    mismatch: Option<u64>,
    /// The format of the last stored record pulled.
    format: WireFormat,
    scratch: Vec<u8>,
}

impl ObsSink for CheckSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        // Pulled for the prefix too, to stay in step with the stream.
        let stored = if self.error.is_some() {
            None
        } else {
            self.stored.next_payload().unwrap_or_else(|e| {
                self.error = Some(e);
                None
            })
        };
        if let Some((format, _)) = stored {
            self.format = format;
        }
        self.scratch.clear();
        self.format.encode(&ev, &mut self.scratch);
        if self.index < self.anchor_count {
            self.fp.update(&self.scratch);
            if self.index + 1 == self.anchor_count && self.fp.finish() != self.anchor_fp {
                self.prefix_ok = false;
            }
        } else if let Some((_, stored)) = stored {
            self.compared += 1;
            if self.mismatch.is_none() && *stored != self.scratch {
                self.mismatch = Some(self.index);
            }
        }
        self.index += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Replays the stored run up to `target_ns` sim-time and verifies the
/// regenerated stream against the store.
///
/// The nearest anchor at-or-before the target is loaded and
/// cross-checked against the manifest (spec fingerprint, seed, event
/// count); replay then re-simulates windows from a fresh engine until
/// the sim clock covers the target (clamped to the run's length).
///
/// # Errors
///
/// Unsealed or damaged stores, a spec that no longer decodes, or an
/// anchor that contradicts the manifest. A *mismatching stream* is not
/// an error — it is the report's payload.
pub fn replay_run(dir: &Path, target_ns: u64) -> Result<ReplayReport, StoreError> {
    let store = RunStore::open(dir)?;
    let manifest = store.manifest();
    if !manifest.sealed {
        return Err(StoreError::Unusable(
            "store is not sealed (crashed or still recording); replay needs a finished run".into(),
        ));
    }
    let spec = store.spec()?;

    let (anchor_window, anchor_count, anchor_fp) = match manifest.nearest_anchor(target_ns) {
        Some(meta) => {
            let path = dir.join(crate::manifest::anchor_file_name(meta.window));
            let anchor = fleetio_model::RunAnchor::load(&path)
                .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))?;
            if anchor.spec_fingerprint != manifest.spec_fingerprint
                || anchor.seed != manifest.seed
                || anchor.event_count != meta.event_count
                || anchor.window != meta.window
                || anchor.at_ns != meta.at_ns
            {
                return Err(StoreError::Corrupt(format!(
                    "anchor {} contradicts the manifest",
                    path.display()
                )));
            }
            (
                Some(anchor.window),
                anchor.event_count,
                anchor.stream_fingerprint,
            )
        }
        None => (None, 0, Fnv64::new().finish()),
    };

    let mut colo = spec.build();
    colo.set_obs_sink(Box::new(CheckSink {
        stored: store.payload_cursor(),
        error: None,
        anchor_count,
        anchor_fp,
        fp: Fnv64::new(),
        index: 0,
        prefix_ok: true,
        compared: 0,
        mismatch: None,
        format: WireFormat::CURRENT,
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
    check.stored.drain()?;

    Ok(ReplayReport {
        target_ns,
        anchor_window,
        anchor_event_count: anchor_count,
        windows_replayed,
        events_replayed: check.index,
        prefix_ok: check.prefix_ok,
        compared: check.compared,
        mismatch: check.mismatch,
    })
}
