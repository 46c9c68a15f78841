//! Discrete-event flash SSD simulator for the FleetIO reproduction.
//!
//! This crate stands in for the paper's real open-channel SSD. It models the
//! *physical* layer of a software-defined-flash device:
//!
//! * [`config::FlashConfig`] — geometry and NAND timing (Table 3 of the
//!   paper: 16 channels, 4 chips per channel, 16 KB pages, 1 TB, queue
//!   depth 16, 20 % over-provisioning),
//! * [`addr`] — typed physical/logical addresses, and the per-geometry
//!   [`addr::PpaLayout`] that packs a physical one into a `u32`,
//! * [`timing::FlashTiming`] — per-operation service times (cell read,
//!   program, erase, channel-bus transfer),
//! * [`channel::ChannelSim`] — per-channel bus and per-chip occupancy with
//!   realistic pipelining (the bus can feed one chip while another
//!   programs),
//! * [`block`] — flash block state: a 4-byte page-state slot per page,
//!   append points, erase counts, free lists,
//! * [`device::FlashDevice`] — the assembled device plus utilization and
//!   write-amplification accounting.
//!
//! Flash management policy (address mapping, superblocks, garbage-collection
//! victim selection, isolation, harvesting) intentionally lives one layer up
//! in `fleetio-vssd`, mirroring how open-channel SSDs push the FTL to the
//! host.
//!
//! # Example
//!
//! ```
//! use fleetio_des::SimTime;
//! use fleetio_flash::{config::FlashConfig, device::FlashDevice};
//!
//! let mut dev = FlashDevice::new(FlashConfig::small_test());
//! let chan = fleetio_flash::addr::ChannelId(0);
//! let op = dev.read_page(SimTime::ZERO, chan, 0, 4096);
//! assert!(op.end > op.start);
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod block;
pub mod channel;
pub mod config;
pub mod device;
pub mod stats;
pub mod timing;

pub use addr::{BlockAddr, ChannelId, Lpa, Ppa};
pub use config::FlashConfig;
pub use device::{ChannelObs, FlashDevice};
pub use timing::FlashTiming;
