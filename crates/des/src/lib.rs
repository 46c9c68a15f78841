//! Discrete-event simulation kernel for the FleetIO reproduction.
//!
//! This crate provides the small, deterministic foundation every simulated
//! component builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulation
//!   timestamps with saturating arithmetic,
//! * [`EventQueue`] — a deterministic time-ordered event queue (FIFO among
//!   simultaneous events),
//! * [`rng`] — reproducible seed derivation for experiments that fan out into
//!   many independent random streams,
//! * [`hist::LatencyHistogram`] — a log-bucketed histogram with percentile
//!   queries, used for P95/P99/P99.9 tail-latency reporting,
//! * [`window`] — per-decision-window counters (bandwidth, IOPS, SLO
//!   violations) matching the paper's 2-second RL state windows,
//! * [`summary`] — small numeric summaries (mean/std, exact percentiles),
//! * [`hash`] — stable CRC-32/FNV-1a digests for on-disk framing and
//!   determinism fingerprints,
//! * [`codec`] — the workspace's one binary codec: the `FIOM` container
//!   and the little-endian [`codec::Enc`]/[`codec::Dec`] pair under
//!   every checkpoint, spec, manifest and observability record,
//! * [`chunked`] — a `u32` table allocated in chunks on first write, under
//!   the per-page tables (page state, L2P) sized from a device's geometry,
//! * [`par`] — the deterministic work queue every simulation worker
//!   thread in the workspace runs on (results by item index).
//!
//! # Example
//!
//! ```
//! use fleetio_des::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_micros(5), "later");
//! q.push(SimTime::ZERO, "now");
//! assert_eq!(q.pop().map(|e| e.payload), Some("now"));
//! ```

#![forbid(unsafe_code)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod chunked;
pub mod codec;
pub mod hash;
pub mod hist;
pub mod par;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod summary;
pub mod time;
pub mod window;

pub use hist::LatencyHistogram;
pub use queue::{Event, EventQueue};
pub use slab::{Handle, Slab};
pub use time::{SimDuration, SimTime};
pub use window::WindowStats;
