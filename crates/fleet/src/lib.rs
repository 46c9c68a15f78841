//! The fleet layer: many independent vSSD engines as shards, one
//! control plane (§2.1 of the paper: FleetIO manages *fleets* of cloud
//! SSDs; the per-SSD machinery lives in `fleetio`).
//!
//! # Model
//!
//! A **shard** is one SSD: a [`fleetio_vssd::engine::Engine`] built once
//! with a fixed set of vSSD *slots* (hardware-isolated channel groups).
//! Tenants — workload streams — occupy slots; a slot without a tenant is
//! a provisioned-but-idle vSSD. Shards never exchange events: within a
//! decision window each advances its own simulated clock independently,
//! which is what makes the fleet embarrassingly parallel *and*
//! deterministic.
//!
//! The [`FleetRuntime`] drives all shards window by window:
//!
//! 1. execute migrations planned at the previous boundary (detach at the
//!    source, re-attach at the destination with a fresh epoch-derived
//!    seed, warm-start the tenant's model via `fleetio::warmstart`),
//! 2. apply the previous window's per-tenant RL actions,
//! 3. advance every shard one window on a scoped worker pool,
//! 4. merge reports **in shard-index order** (never thread or host-time
//!    order): extract per-tenant states, decide every tenant through one
//!    [`PolicyBank`] (`fleetio::bank`: one batched pass per model), detect
//!    hotspots, and plan next-boundary migrations (Serifos-style
//!    consolidation: move the heaviest movable tenant off an overloaded
//!    SSD onto the least-loaded one with a free slot).
//!
//! Same seed + same spec ⇒ byte-identical per-shard observability
//! streams and identical migration logs for *any* worker-thread count.

#![forbid(unsafe_code)]

pub mod control;
pub mod health;
pub mod runtime;
pub mod shard;
pub mod sink;
pub mod spec;

pub use control::{plan_migrations, ControlConfig, MigrationDecision, SlotAddr, SlotLoad};
pub use fleetio::bank::PolicyBank;
pub use health::{FleetObs, SloOutcome};
pub use runtime::{default_model, FleetReport, FleetRuntime, FleetWindowReport};
pub use shard::{Shard, ShardWindowReport};
pub use sink::FingerprintSink;
pub use spec::{FleetSpec, FleetTenantSpec, Placement};
