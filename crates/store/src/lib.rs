//! `fleetio-store`: an indexed, deterministic run store for FleetIO.
//!
//! A *run store* is a directory holding one simulation run's complete
//! observability stream as append-only, CRC-framed binary segments,
//! plus a `FIOM` manifest carrying provenance (seed, serialized
//! [`fleetio::RunSpec`], its fingerprint), a sparse per-segment index
//! (min/max sim-time, tenant bitmap, event-kind bitmap) and the
//! sim-time and stream position of every replay anchor recorded during
//! the run.
//!
//! Because the engine is deterministic, the stored byte stream is a
//! *complete, checkable* record:
//!
//! * [`query`](query::query) answers tenant/time-range/kind filters
//!   while skipping whole segments the index rules out — with the
//!   guarantee (conservative bitmaps, closed time ranges) that the
//!   result equals a full linear scan;
//! * [`diff_stores`] compares two same-seed runs
//!   byte-for-byte and pinpoints the first divergent event;
//! * [`replay_run`] re-simulates to a target sim-time
//!   and proves the regenerated stream is the stored one, byte-comparing
//!   every event from stream index 0;
//! * [`RunStore::verify`](read::RunStore::verify) survives truncated
//!   or bit-flipped segments, isolating damage and reporting the
//!   sim-time ranges that remain recoverable.
//!
//! Layout: `manifest.fiom` and `seg-<seq:05>.seg` (stores written by
//! older builds also hold an `anchor-<w:05>.fiom` per anchor, which
//! nothing reads). All writes go through `fleetio_model::atomic_write`. From the
//! command line, `fleetio store record|info|query|diff|replay|verify`.

#![forbid(unsafe_code)]

pub mod diff;
pub mod manifest;
pub mod query;
pub mod read;
pub mod run;
pub mod sink;

pub use diff::{diff_stores, DiffOutcome, Divergence};
pub use manifest::{
    segment_file_name, AnchorMeta, Manifest, SegmentMeta, MANIFEST_FILE, STORE_VERSION,
};
pub use query::{query, query_each, EventFilter, QueryResult, WindowAggregate, WindowAggregator};
pub use read::{PayloadCursor, RunStore, SegmentVerify, StoreError, VerifyReport};
pub use run::{record_run, replay_run, RecordReport, ReplayReport};
pub use sink::{StoreSink, DEFAULT_SEGMENT_BYTES};
