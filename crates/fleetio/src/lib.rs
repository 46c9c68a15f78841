//! FleetIO: RL-based multi-tenant SSD virtualization (ASPLOS '25).
//!
//! This crate is the paper's primary contribution, built on the workspace
//! substrates:
//!
//! * [`config`] — Table 3 hyper-parameters and FleetIO defaults,
//! * [`states`] — Table 1 RL-state extraction with 3-window history,
//! * [`actions`] — Table 2 RL actions and their discretization,
//! * [`reward`] — Equations 1 (per-vSSD) and 2 (multi-agent mixing),
//! * [`driver`] — the collocation driver feeding open-loop and closed-loop
//!   workloads into the vSSD engine window by window,
//! * `env` — the RL environment over a collocation,
//! * [`typing`] — workload-type clustering and per-type α fine-tuning
//!   (§3.4, Figure 6),
//! * [`agent`] — per-vSSD deployment agents and offline pre-training,
//! * [`bank`] — the one frozen-model decider: per-tenant histories over
//!   shared models, every window's decisions in one batched pass,
//! * [`warmstart`] — registry-backed model selection at vSSD attach
//!   time (typing index + checkpoint loading via `fleetio-model`),
//! * [`runspec`] — serializable run descriptions the deterministic run
//!   store (`fleetio-store`) records and replays from,
//! * [`baselines`] — Hardware/Software Isolation, Adaptive, SSDKeeper and
//!   Mixed Isolation comparison policies (§4.1),
//! * [`experiment`] — the evaluation harness reproducing every figure,
//! * [`mixes`] — Table 5 scalability mixes.

#![forbid(unsafe_code)]

pub mod actions;
pub mod agent;
pub mod bank;
pub mod baselines;
pub mod config;
pub mod driver;
pub mod env;
pub mod experiment;
pub mod mixes;
pub mod reward;
pub mod runspec;
pub mod states;
pub mod typing;
pub mod warmstart;

pub use actions::AgentAction;
pub use agent::{pretrain, pretrain_trainer, FleetIoAgent, PretrainedModel};
pub use bank::PolicyBank;
pub use config::FleetIoConfig;
pub use driver::{Colocation, TenantSpec};
pub use env::FleetIoEnv;
pub use reward::RewardParams;
pub use runspec::{FlashPreset, RunSpec};
pub use states::{StateHistory, StateVector};
