//! Reinforcement-learning substrate: PPO and multi-agent utilities.
//!
//! FleetIO trains one Proximal Policy Optimization (PPO) agent per vSSD
//! (§3.8: RLlib + PyTorch, hidden layers [50, 50], learning rate 1e-4,
//! discount 0.9, batch size 32). This crate implements the pieces from
//! scratch on top of [`fleetio_ml`]:
//!
//! * `env` — the multi-agent environment trait with multi-discrete
//!   action spaces,
//! * [`policy`] — a categorical multi-head PPO policy with a separate
//!   value network,
//! * [`buffer`] — rollout storage with Generalized Advantage Estimation,
//! * [`ppo`] — the clipped-surrogate PPO trainer,
//! * [`reward`] — the paper's multi-agent reward mixing (Equation 2),
//! * [`normalize`] — running observation normalization,
//! * [`parallel`] — parallel rollout collection on `fleetio_des::par` (the
//!   stand-in for the paper's Ray pre-training cluster).

#![forbid(unsafe_code)]

pub mod buffer;
pub mod env;
pub mod normalize;
pub mod parallel;
pub mod policy;
pub mod ppo;
pub mod reward;

pub use buffer::{RolloutBuffer, Transition};
pub use env::{MultiAgentEnv, StepResult};
pub use normalize::{NormalizerState, ObsNormalizer};
pub use policy::{PolicyState, PpoPolicy};
pub use ppo::{PpoConfig, PpoTrainer, TrainerState};
