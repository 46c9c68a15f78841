//! Regenerates every table and figure of the FleetIO paper's evaluation
//! (§4), including all of §4.7's host-time overheads.
//!
//! The [`figures`] module contains one entry point per paper figure;
//! `fleetio figures` drives them from the command line.
//! [`context::SharedContext`] caches the expensive shared artifacts —
//! device-peak calibration, per-workload SLOs, the pre-trained RL models,
//! the SSDKeeper planner — so a full `figures all` run trains once and
//! reuses everywhere.
//!
//! Host time is otherwise measured by the `benchmark/` workspace, never
//! here; `tests/alloc_gates.rs` holds the wall-clock-free allocation
//! ceilings that a noisy CI runner can still gate on.

#![forbid(unsafe_code)]

pub mod context;
pub mod figures;
pub mod report;
pub mod scale;

pub use context::SharedContext;
pub use scale::Scale;
