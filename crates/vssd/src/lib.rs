//! SSD virtualization layer for the FleetIO reproduction.
//!
//! This crate implements the paper's storage substrate on top of the
//! [`fleetio_flash`] device simulator:
//!
//! * [`request`] — tenant I/O requests and priority levels,
//! * [`vssd`] — virtual SSD (vSSD) configuration: channel allocation,
//!   isolation mode, SLOs,
//! * [`token_bucket`] / [`stride`] — the software-isolation machinery the
//!   paper compares against (token-bucket rate limiting and stride
//!   scheduling),
//! * [`gsb`] — the *ghost superblock* abstraction (§3.6): harvestable
//!   superblocks tracked in per-`n_chls` lists, with create / harvest /
//!   reclaim operations,
//! * [`hbt`] — the Harvested Block Table (§3.7): one bit per physical
//!   block distinguishing regular from harvested/reclaimed blocks so GC can
//!   prioritize them,
//! * [`admission`] — admission control for RL actions (§3.5): batching,
//!   Make_Harvestable-first reordering, provider policies, contention
//!   ranking,
//! * [`engine`] — the multi-tenant discrete-event engine tying everything
//!   together: per-channel priority dispatch, FTL mapping, superblock
//!   append, garbage collection with harvested-block priority, and
//!   per-vSSD window statistics.
//!
//! The paper implements the gSB pool with lock-free linked lists for
//! concurrency on the device; the simulation here is a single-threaded
//! discrete-event model, so the pool uses plain indexed lists with identical
//! ordering semantics (insert at head, best-fit search smaller-first).

#![forbid(unsafe_code)]

pub mod admission;
pub mod engine;
pub mod gsb;
pub mod hbt;
pub mod request;
pub mod stride;
pub mod token_bucket;
pub mod vssd;

pub use engine::Engine;
pub use gsb::{GsbId, GsbPool};
pub use request::{IoOp, IoRequest, Priority, RequestId};
pub use vssd::{IsolationMode, VssdConfig, VssdId};
