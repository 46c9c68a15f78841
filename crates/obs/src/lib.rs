//! `fleetio-obs`: deterministic observability for the FleetIO stack.
//!
//! The simulator's headline claims are distributional (P95/P99 latency
//! under harvesting, per-window bandwidth reallocation, GC interference),
//! so end-of-run aggregates are not enough to explain *why* a window went
//! bad. This crate provides the always-available, zero-dependency layer
//! the rest of the workspace reports into:
//!
//! * [`ObsSink`] — the cheap trait the engine calls on its hot path. The
//!   default [`NullSink`] makes every hook a predictable no-op branch;
//!   installing a [`RecordingSink`] turns the same hooks into a bounded
//!   ring of typed [`ObsEvent`] records. The event stream is the only
//!   thing a sink receives, and its one text form is JSONL
//!   ([`RecordingSink::to_jsonl`]).
//! * [`slo`] — per-tenant SLO verdicts, and the fleet health report
//!   folded from their `slo_window` / `fleet_migration` rows, live or
//!   read back from a store.
//! * [`json`] — the workspace's one JSON writer, the parser that reads
//!   its output back, and the in-place reader of JSONL event lines.
//! * [`prof`] — the host-time span profiler: RAII spans over per-thread
//!   call trees, merged into a report of call counts, total and child
//!   time per span path, and rendered as folded stacks. The one
//!   sanctioned home for wall-clock measurement outside `crates/bench`.
//!
//! # Determinism
//!
//! Every timestamp in every record is a [`fleetio_des::SimTime`] — never
//! wall clock — and every emission point sits on the single-threaded
//! engine event loop, so two same-seed runs produce *byte-identical*
//! JSONL streams (enforced by `tests/determinism.rs` at the workspace
//! root). Installing or removing a sink never changes simulation state.
//!
//! `fleetio obs summarize trace.jsonl` (the workspace's `fleetio` binary)
//! validates a JSONL trace line by line and renders a human-readable
//! report; `fleetio obs report` renders [`slo::health_report`] from
//! stores or traces.

#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod prof;
#[cfg(test)]
mod samples;
pub mod series;
pub mod sink;
pub mod slo;
pub mod wire;

pub use event::{
    FleetMigration, GsbKind, MigrationCause, ModelKind, NandKind, ObsEvent, SloWindow, WindowFlush,
};
pub use prof::{ProfReport, ProfSpan, SpanGuard, SpanStats};
pub use series::{SeriesId, SeriesSet};
pub use sink::{NullSink, ObsSink, RecordingSink};
pub use slo::{SloSpec, SloTracker, WindowVerdict};
