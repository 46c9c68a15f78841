//! Umbrella crate for the FleetIO reproduction workspace.
//!
//! Re-exports every workspace crate so the `examples/` and `tests/` at the
//! repository root can reach the whole system through one dependency.

#![forbid(unsafe_code)]

pub use fleetio;
pub use fleetio_des as des;
pub use fleetio_flash as flash;
pub use fleetio_fleet as fleet;
pub use fleetio_ml as ml;
pub use fleetio_model as model;
pub use fleetio_obs as obs;
pub use fleetio_rl as rl;
pub use fleetio_store as store;
pub use fleetio_vssd as vssd;
pub use fleetio_workloads as workloads;
