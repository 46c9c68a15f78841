//! `pretrain`: `agent::pretrain_trainer` on two §3.8 scenarios —
//! behaviour cloning, serial warm-up iterations, then parallel rollout
//! rounds on two threads, each followed by a PPO update.
//!
//! The only workload where `rl` / `ml` (BC fit, GAE, minibatches, Adam)
//! run at all; still simulation-bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fleetio::agent::{pretrain_trainer, PretrainOptions, PretrainedModel};
use fleetio::{FleetIoConfig, TenantSpec};
use fleetio_ml::mlp::MlpState;
use fleetio_obs::prof;

use super::{pretrain_scenarios, Digest, MODEL_SEED};
use crate::probes;
use crate::runner::{RepOutput, Size, Workload};

/// Mean reward of the last training iteration. `PretrainOptions::progress`
/// is a plain `fn`, so the value leaves through a static; it is written
/// from the training thread only and published by the call returning.
static LAST_REWARD: AtomicU64 = AtomicU64::new(0);

fn note_reward(_iteration: usize, mean_reward: f64) {
    LAST_REWARD.store(mean_reward.to_bits(), Ordering::Relaxed);
}

/// The workload: scenarios and training budget.
pub struct Pretrain {
    cfg: FleetIoConfig,
    scenarios: Vec<Vec<TenantSpec>>,
    opts: PretrainOptions,
    updates: u64,
    model: Option<PretrainedModel>,
}

impl Pretrain {
    /// Set-up: SLO calibration of the two latency-sensitive tenants and
    /// the scenario layouts.
    pub fn setup(seed: u64, size: Size) -> Self {
        let cfg = FleetIoConfig::default();
        let (bc_rounds, iterations, windows_per_rollout) = match size {
            Size::Full => (2, 4, 12),
            Size::Smoke => (1, 2, 2),
        };
        let opts = PretrainOptions {
            bc_rounds,
            iterations,
            warmup_iterations: 1,
            windows_per_rollout,
            parallel: true,
            progress: Some(note_reward),
            ..PretrainOptions::default()
        };
        Pretrain {
            scenarios: pretrain_scenarios(&cfg, seed),
            cfg,
            opts,
            updates: 0,
            model: None,
        }
    }
}

fn hash_mlp(digest: &mut Digest, mlp: &MlpState) {
    for layer in &mlp.layers {
        for v in layer.w.iter().chain(&layer.b) {
            digest.u64(u64::from(v.to_bits()));
        }
    }
}

impl Workload for Pretrain {
    /// BC rounds and parallel rounds roll out every environment, a
    /// warm-up iteration one. Every rollout opens with `reset()`'s
    /// throwaway window, and the PPO collectors reset once more when the
    /// horizon ends — `vssd.run_until_calls_per_window` drifting off its
    /// whole-number value means this count no longer matches the crates.
    fn engine_windows(&self) -> u64 {
        let o = &self.opts;
        let envs = self.scenarios.len();
        let warmup = o.warmup_iterations.min(o.iterations);
        let bc_rollouts = o.bc_rounds * envs;
        let ppo_rollouts = warmup + (o.iterations - warmup) * envs;
        (bc_rollouts * (o.windows_per_rollout + 1) + ppo_rollouts * (o.windows_per_rollout + 2))
            as u64
    }

    fn rep(&mut self, _traced: bool) -> RepOutput {
        let t = Instant::now();
        let mut trainer = prof::time("pretrain.trainer", || {
            pretrain_trainer(&self.cfg, &self.scenarios, 0.5, self.opts, MODEL_SEED)
        });
        let wall = t.elapsed().as_secs_f64();
        let reward = f64::from_bits(LAST_REWARD.load(Ordering::Relaxed));
        let state = trainer.policy.export_state();
        let mut digest = Digest::default();
        digest.u64(trainer.updates()).f64(reward);
        hash_mlp(&mut digest, &state.actor);
        hash_mlp(&mut digest, &state.critic);
        self.updates = trainer.updates();
        trainer.normalizer.freeze();
        self.model = Some(PretrainedModel {
            policy: trainer.policy,
            normalizer: trainer.normalizer,
        });
        RepOutput {
            digest: digest.finish(),
            events: 0,
            exact: vec![("rl.final_mean_reward", reward)],
            timings: vec![(
                "rl.train_windows_per_s",
                self.engine_windows() as f64 / wall,
            )],
        }
    }

    fn check(&mut self) -> Vec<String> {
        let expected = self.opts.iterations as u64;
        if self.updates == expected {
            Vec::new()
        } else {
            vec![format!(
                "trainer performed {} updates, expected {expected}",
                self.updates
            )]
        }
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        let Some(model) = &self.model else {
            return Vec::new();
        };
        vec![
            ("rl.imitate_ms", probes::imitate_ms(&self.cfg, model)),
            (
                "rl.env_step_ms",
                probes::env_step_ms(&self.cfg, &self.scenarios[0]),
            ),
            (
                "rl.parallel_speedup_w2",
                probes::parallel_speedup_w2(
                    &self.cfg,
                    &self.scenarios,
                    model,
                    self.opts.windows_per_rollout.min(4),
                ),
            ),
        ]
    }
}
