//! `fleetio-model`: model lifecycle for the FleetIO reproduction.
//!
//! FleetIO's deployment story (§3.7, Figure 17) separates *pre-training*
//! — one PPO model per workload type, trained offline on representative
//! traces — from *online fine-tuning* against live tenant traffic. This
//! crate provides the machinery between those phases. Everything it
//! writes is framed by the workspace's one binary codec,
//! [`fleetio_des::codec`] — the `FIOM` container (magic + version +
//! payload kind + length + CRC-32) over a flat little-endian payload in
//! which every float travels as raw IEEE-754 bits — so checkpoints
//! restore bit-exactly and any torn write or bit flip is detected
//! before a single field is interpreted. This crate owns the payloads
//! and their lifecycle:
//!
//! * [`ModelCheckpoint`] — a complete `PpoTrainer` snapshot (networks,
//!   Adam moments, observation-normalizer statistics, RNG state, update
//!   count, hyper-parameters) plus provenance ([`CheckpointMeta`]: seed
//!   and workload-type tag). Restoring and continuing training is
//!   bit-identical to never having stopped (`tests/determinism.rs`).
//! * [`TypingIndex`] — the serialized §3.4 workload-typing model
//!   (standard scaler + k-means centroids + one registry tag per
//!   cluster) used for nearest-centroid model selection at vSSD attach.
//! * [`ModelRegistry`] — a directory of checkpoints keyed by workload
//!   type, with a `last_good` slot per tag and crash-safe writes via
//!   [`atomic_write`] (the only sanctioned file-writing path in the
//!   simulation crates; see the `atomic-io` audit rule).
//! * [`FineTuneManager`] — guarded online fine-tuning: autosave on a
//!   simulated-time cadence, promote to `last_good` while the windowed
//!   mean reward holds the baseline, roll back when it regresses past a
//!   threshold. Lifecycle transitions emit
//!   [`fleetio_obs::ObsEvent::ModelLifecycle`] events.
//!
//! `fleetio model` (the workspace's `fleetio` binary) inspects and
//! verifies registries offline: `fleetio model verify <file>` exits
//! nonzero on any corrupt container, which CI uses to prove corruption
//! detection end to end.

#![forbid(unsafe_code)]

pub mod atomic;
pub mod checkpoint;
pub mod finetune;
pub mod registry;

pub use atomic::{atomic_write, AtomicBatch};
pub use checkpoint::{CheckpointMeta, ModelCheckpoint, TypingIndex};
pub use finetune::{FineTuneAction, FineTuneConfig, FineTuneManager};
pub use registry::{validate_tag, ModelRegistry, RegistryError};
