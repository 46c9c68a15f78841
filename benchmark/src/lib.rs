//! FleetIO benchmark v1.
//!
//! Four workloads drive the system through the crates' public functions
//! only and time those calls from outside. End-to-end numbers are taken
//! with `fleetio_obs::prof` disabled; a separate traced run yields the
//! per-layer numbers. See `README.md` for the catalogue and the runbook.

pub mod alloc;
pub mod compare;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
