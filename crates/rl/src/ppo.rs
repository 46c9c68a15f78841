//! Proximal Policy Optimization with a clipped surrogate objective.
//!
//! Hyper-parameter defaults follow Table 3 of the paper: learning rate
//! 1e-4, discount γ = 0.9, minibatch size 32, hidden layers [50, 50]
//! (the layers are fixed by the [`crate::PpoPolicy`] passed in).

use fleetio_des::rng::{Rng, SmallRng};
use fleetio_ml::mlp::{log_softmax, softmax};
use fleetio_ml::Adam;

use crate::buffer::{RolloutBuffer, Transition};
use crate::env::MultiAgentEnv;
use crate::normalize::{NormalizerState, ObsNormalizer};
use crate::parallel::rollout;
use crate::policy::{PolicyState, PpoPolicy};

/// PPO hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Actor learning rate (paper: 1e-4).
    pub lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Discount factor γ (paper: 0.9).
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// Clipping radius ε.
    pub clip: f64,
    /// Optimization epochs per update.
    pub epochs: usize,
    /// Minibatch size (paper: 32).
    pub minibatch: usize,
    /// Entropy bonus coefficient.
    pub entropy_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            lr: 1e-4,
            critic_lr: 1e-3,
            gamma: 0.9,
            lambda: 0.95,
            clip: 0.2,
            epochs: 4,
            minibatch: 32,
            entropy_coef: 0.01,
            max_grad_norm: 0.5,
        }
    }
}

impl PpoConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.lr <= 0.0
            || self.critic_lr <= 0.0
            || !self.lr.is_finite()
            || !self.critic_lr.is_finite()
        {
            return Err("learning rates must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.gamma) || !(0.0..=1.0).contains(&self.lambda) {
            return Err("gamma/lambda must be in [0, 1]".into());
        }
        if self.clip <= 0.0 {
            return Err("clip must be positive".into());
        }
        if self.epochs == 0 || self.minibatch == 0 {
            return Err("epochs/minibatch must be positive".into());
        }
        Ok(())
    }
}

/// Diagnostics from one PPO update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PpoStats {
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f64,
    /// Mean squared value error.
    pub value_loss: f64,
    /// Mean policy entropy.
    pub entropy: f64,
    /// Approximate KL divergence old‖new (mean of `logp_old − logp_new`
    /// over the update's samples, measured against the moving policy).
    pub kl: f64,
    /// Fraction of samples where the ratio was clipped.
    pub clip_fraction: f64,
    /// Mean reward of the transitions consumed by this update (raw
    /// per-step rewards, before GAE).
    pub mean_reward: f64,
    /// Transitions consumed.
    pub samples: usize,
}

/// The full serializable state of a [`PpoTrainer`]: policy, both Adam
/// optimizers, hyper-parameters, shuffle/sampling RNG, update counter and
/// observation-normalizer statistics. Produced by
/// [`PpoTrainer::export_state`], consumed by [`PpoTrainer::from_state`];
/// resuming from the round trip continues training **bit-identically**.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// Actor/critic networks and head layout.
    pub policy: PolicyState,
    /// Actor optimizer moments.
    pub actor_opt: fleetio_ml::AdamState,
    /// Critic optimizer moments.
    pub critic_opt: fleetio_ml::AdamState,
    /// Hyper-parameters.
    pub cfg: PpoConfig,
    /// Raw xoshiro256++ state of the trainer's RNG.
    pub rng: [u64; 4],
    /// Lifetime count of updates that consumed data.
    pub updates: u64,
    /// Observation-normalizer running statistics.
    pub normalizer: NormalizerState,
}

/// The PPO trainer: policy + optimizers + observation normalizer.
#[derive(Debug, Clone)]
pub struct PpoTrainer {
    /// The trained policy (shared across agents during pre-training).
    pub policy: PpoPolicy,
    /// The running observation normalizer.
    pub normalizer: ObsNormalizer,
    actor_opt: Adam,
    critic_opt: Adam,
    cfg: PpoConfig,
    rng: SmallRng,
    /// Lifetime count of [`PpoTrainer::update`] calls that consumed data.
    updates: u64,
}

impl PpoTrainer {
    /// Builds a trainer around `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(policy: PpoPolicy, obs_dim: usize, cfg: PpoConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid PPO config: {e}");
        }
        let actor_opt = Adam::new(policy.actor.n_params(), cfg.lr);
        let critic_opt = Adam::new(policy.critic.n_params(), cfg.critic_lr);
        PpoTrainer {
            policy,
            normalizer: ObsNormalizer::new(obs_dim, 10.0),
            actor_opt,
            critic_opt,
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            updates: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Lifetime count of updates that consumed data.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Snapshots everything training depends on, for checkpointing.
    pub fn export_state(&self) -> TrainerState {
        TrainerState {
            policy: self.policy.export_state(),
            actor_opt: self.actor_opt.export_state(),
            critic_opt: self.critic_opt.export_state(),
            cfg: self.cfg.clone(),
            rng: self.rng.state(),
            updates: self.updates,
            normalizer: self.normalizer.export_state(),
        }
    }

    /// Rebuilds a trainer from an exported state. The restored trainer
    /// continues training bit-identically to the snapshotted one.
    ///
    /// # Errors
    ///
    /// Returns a message when any component is internally inconsistent or
    /// the components disagree (optimizer moment counts vs. network sizes,
    /// normalizer width vs. policy observation width, zero RNG state).
    pub fn from_state(state: TrainerState) -> Result<PpoTrainer, String> {
        state.cfg.validate().map_err(|e| format!("config: {e}"))?;
        let policy = PpoPolicy::from_state(state.policy).map_err(|e| format!("policy: {e}"))?;
        let actor_opt =
            fleetio_ml::Adam::from_state(state.actor_opt).map_err(|e| format!("actor opt: {e}"))?;
        let critic_opt = fleetio_ml::Adam::from_state(state.critic_opt)
            .map_err(|e| format!("critic opt: {e}"))?;
        let normalizer =
            ObsNormalizer::from_state(state.normalizer).map_err(|e| format!("normalizer: {e}"))?;
        if actor_opt.n_params() != policy.actor.n_params() {
            return Err("actor optimizer sized for a different network".to_string());
        }
        if critic_opt.n_params() != policy.critic.n_params() {
            return Err("critic optimizer sized for a different network".to_string());
        }
        if normalizer.dim() != policy.actor.in_dim() {
            return Err(format!(
                "normalizer dim {} != policy obs dim {}",
                normalizer.dim(),
                policy.actor.in_dim()
            ));
        }
        if state.rng == [0, 0, 0, 0] {
            return Err("all-zero RNG state".to_string());
        }
        Ok(PpoTrainer {
            policy,
            normalizer,
            actor_opt,
            critic_opt,
            cfg: state.cfg,
            rng: SmallRng::from_state(state.rng),
            updates: state.updates,
        })
    }

    /// Collects `steps` environment steps with the trainer's RNG, updating
    /// the normalizer as it goes (see [`crate::parallel::collect_frozen`]
    /// for the frozen form). Every agent contributes its own transition
    /// sequence (bootstrapped at truncation), so the returned buffer is
    /// GAE-ready.
    pub fn collect_rollout<E: MultiAgentEnv>(
        &mut self,
        env: &mut E,
        steps: usize,
    ) -> RolloutBuffer {
        let _prof = fleetio_obs::prof::span("rollout.collect");
        let normalizer = &mut self.normalizer;
        let observe = |o: &[f32]| normalizer.observe(o);
        rollout(
            env,
            &self.policy,
            observe,
            steps,
            self.cfg.gamma,
            &mut self.rng,
        )
    }

    /// Runs one PPO update over `buffer` (GAE is computed here).
    pub fn update(&mut self, mut buffer: RolloutBuffer) -> PpoStats {
        let _prof = fleetio_obs::prof::span("ppo.update");
        {
            let _gae = fleetio_obs::prof::span("ppo.gae");
            buffer.compute_gae(self.cfg.gamma, self.cfg.lambda);
        }
        let n = buffer.len();
        if n == 0 {
            return PpoStats::default();
        }
        // Report the buffer's own mean reward so externally collected
        // buffers (parallel workers) are described correctly.
        let buffer_mean: f64 =
            buffer.transitions().iter().map(|t| t.reward).sum::<f64>() / n as f64;
        let mut stats = PpoStats {
            samples: n,
            mean_reward: buffer_mean,
            ..Default::default()
        };
        let mut stat_count = 0usize;
        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..self.cfg.epochs {
            self.rng.shuffle(&mut indices);
            for chunk in indices.chunks(self.cfg.minibatch) {
                let _mb_prof = fleetio_obs::prof::span("ppo.minibatch");
                let mut actor_grads = self.policy.actor.zero_grads();
                let mut critic_grads = self.policy.critic.zero_grads();
                for &i in chunk {
                    let t = &buffer.transitions()[i];
                    let (ploss, ent, logp_new, clipped) =
                        self.accumulate_policy_grad(t, &mut actor_grads);
                    let vloss = self.accumulate_value_grad(t, &mut critic_grads);
                    stats.policy_loss += ploss;
                    stats.value_loss += vloss;
                    stats.entropy += ent;
                    stats.kl += t.logp - logp_new;
                    if clipped {
                        stats.clip_fraction += 1.0;
                    }
                    stat_count += 1;
                }
                let scale = 1.0 / chunk.len() as f32;
                actor_grads.scale(scale);
                critic_grads.scale(scale);
                actor_grads.clip_norm(self.cfg.max_grad_norm);
                critic_grads.clip_norm(self.cfg.max_grad_norm);
                self.actor_opt.step(&mut self.policy.actor, &actor_grads);
                self.critic_opt.step(&mut self.policy.critic, &critic_grads);
            }
        }
        if stat_count > 0 {
            let c = stat_count as f64;
            stats.policy_loss /= c;
            stats.value_loss /= c;
            stats.entropy /= c;
            stats.kl /= c;
            stats.clip_fraction /= c;
        }
        self.updates += 1;
        stats
    }

    /// One iteration: collect a rollout and update. Returns diagnostics.
    pub fn train_iteration<E: MultiAgentEnv>(&mut self, env: &mut E, steps: usize) -> PpoStats {
        let buffer = self.collect_rollout(env, steps);
        self.update(buffer)
    }

    /// Accumulates the clipped-surrogate + entropy gradient for one sample.
    /// Returns `(policy_loss, entropy, logp_new, was_clipped)`.
    fn accumulate_policy_grad(
        &self,
        t: &Transition,
        grads: &mut fleetio_ml::MlpGrads,
    ) -> (f64, f64, f64, bool) {
        let cache = self.policy.actor.forward_cached(&t.obs);
        let logits = cache.output().to_vec();
        let heads = self.policy.split_heads(&logits);

        let mut logp_new = 0.0f64;
        let mut probs_per_head: Vec<Vec<f32>> = Vec::with_capacity(heads.len());
        let mut entropy = 0.0f64;
        for (head, &a) in heads.iter().zip(&t.action) {
            let lp = log_softmax(head);
            logp_new += f64::from(lp[a]);
            let p = softmax(head);
            entropy += -p
                .iter()
                .zip(&lp)
                .map(|(pi, lpi)| f64::from(pi * lpi))
                .sum::<f64>();
            probs_per_head.push(p);
        }
        entropy /= heads.len() as f64;

        let ratio = (logp_new - t.logp).exp();
        let adv = t.advantage;
        let clipped = (adv > 0.0 && ratio > 1.0 + self.cfg.clip)
            || (adv < 0.0 && ratio < 1.0 - self.cfg.clip);
        let surrogate = if clipped {
            ratio.clamp(1.0 - self.cfg.clip, 1.0 + self.cfg.clip) * adv
        } else {
            ratio * adv
        };
        let loss = -surrogate - self.cfg.entropy_coef * entropy;

        // dLoss/dlogits, concatenated across heads.
        let mut dlogits = vec![0.0f32; logits.len()];
        let mut off = 0;
        for (h, p) in probs_per_head.iter().enumerate() {
            let a = t.action[h];
            let head_h: f64 = -p
                .iter()
                .filter(|x| **x > 0.0)
                .map(|x| f64::from(*x) * f64::from(*x).ln())
                .sum::<f64>();
            for (i, &pi) in p.iter().enumerate() {
                let onehot = if i == a { 1.0 } else { 0.0 };
                // Surrogate gradient (zero when clipped).
                let dsurr = if clipped {
                    0.0
                } else {
                    adv * ratio * (onehot - f64::from(pi))
                };
                // Entropy gradient: dH/dz_i = −p_i (log p_i + H).
                let dent = if pi > 0.0 {
                    -f64::from(pi) * (f64::from(pi).ln() + head_h)
                } else {
                    0.0
                };
                dlogits[off + i] =
                    (-dsurr - self.cfg.entropy_coef * dent / probs_per_head.len() as f64) as f32;
            }
            off += p.len();
        }
        self.policy.actor.backward(&cache, &dlogits, grads);
        (loss, entropy, logp_new, clipped)
    }

    /// Accumulates the squared-error value gradient. Returns the loss.
    fn accumulate_value_grad(&self, t: &Transition, grads: &mut fleetio_ml::MlpGrads) -> f64 {
        let cache = self.policy.critic.forward_cached(&t.obs);
        let v = f64::from(cache.output()[0]);
        let err = v - t.ret;
        self.policy
            .critic
            .backward(&cache, &[(2.0 * err) as f32], grads);
        err * err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::BanditEnv;

    #[test]
    fn config_validation() {
        assert!(PpoConfig::default().validate().is_ok());
        let mut c = PpoConfig {
            gamma: 1.5,
            ..PpoConfig::default()
        };
        assert!(c.validate().is_err());
        c = PpoConfig::default();
        c.minibatch = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn update_on_empty_buffer_is_safe() {
        let mut rng = SmallRng::seed_from_u64(0);
        let policy = PpoPolicy::new(2, &[3], &[8], &mut rng);
        let mut trainer = PpoTrainer::new(policy, 2, PpoConfig::default(), 0);
        let stats = trainer.update(RolloutBuffer::new());
        assert_eq!(stats.samples, 0);
        // An empty update does not advance the counter.
        assert_eq!(trainer.updates(), 0);
    }

    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        // Run A: 6 uninterrupted iterations. Run B: 3 iterations, export →
        // restore, 3 more. The final full trainer states must match bit
        // for bit (Debug rendering compares every float exactly).
        let run = |interrupt: bool| -> String {
            let mut rng = SmallRng::seed_from_u64(17);
            let policy = PpoPolicy::new(2, &[3], &[8], &mut rng);
            let mut trainer = PpoTrainer::new(policy, 2, PpoConfig::default(), 17);
            let mut env = BanditEnv {
                steps: 0,
                horizon: 8,
            };
            for _ in 0..3 {
                trainer.train_iteration(&mut env, 16);
            }
            if interrupt {
                trainer =
                    PpoTrainer::from_state(trainer.export_state()).expect("exported state valid");
            }
            for _ in 0..3 {
                trainer.train_iteration(&mut env, 16);
            }
            assert_eq!(trainer.updates(), 6);
            format!("{:?}", trainer.export_state())
        };
        assert_eq!(run(false), run(true), "resume diverged from straight run");
    }

    #[test]
    fn from_state_rejects_cross_component_mismatch() {
        let mut rng = SmallRng::seed_from_u64(1);
        let policy = PpoPolicy::new(2, &[3], &[8], &mut rng);
        let trainer = PpoTrainer::new(policy, 2, PpoConfig::default(), 1);
        let mut bad = trainer.export_state();
        bad.actor_opt.m.push(0.0);
        bad.actor_opt.v.push(0.0);
        assert!(PpoTrainer::from_state(bad).is_err());
        let mut bad = trainer.export_state();
        bad.rng = [0; 4];
        assert!(PpoTrainer::from_state(bad).is_err());
        let mut bad = trainer.export_state();
        bad.cfg.minibatch = 0;
        assert!(PpoTrainer::from_state(bad).is_err());
        let mut bad = trainer.export_state();
        bad.normalizer.mean.push(0.0);
        bad.normalizer.m2.push(0.0);
        assert!(PpoTrainer::from_state(bad).is_err());
    }

    #[test]
    fn learns_bandit_task() {
        let mut rng = SmallRng::seed_from_u64(21);
        let policy = PpoPolicy::new(2, &[3], &[16], &mut rng);
        let cfg = PpoConfig {
            lr: 3e-3,
            critic_lr: 3e-3,
            ..Default::default()
        };
        let mut trainer = PpoTrainer::new(policy, 2, cfg, 7);
        let mut env = BanditEnv {
            steps: 0,
            horizon: 16,
        };
        let mut last = PpoStats::default();
        for _ in 0..60 {
            last = trainer.train_iteration(&mut env, 32);
        }
        // Near-perfect reward (each agent picks its own id).
        assert!(last.mean_reward > 0.9, "mean reward {}", last.mean_reward);
        // Greedy deployment behaviour matches.
        let greedy = |obs: &[f32]| {
            let norm = trainer.normalizer.normalize(obs);
            trainer.policy.act_greedy_batch(&norm, 1).remove(0)
        };
        let (a0, a1) = (greedy(&[1.0, 0.0]), greedy(&[0.0, 1.0]));
        assert_eq!(a0, vec![0]);
        assert_eq!(a1, vec![1]);
    }

    #[test]
    fn entropy_decreases_with_training() {
        let mut rng = SmallRng::seed_from_u64(5);
        let policy = PpoPolicy::new(2, &[3], &[16], &mut rng);
        let cfg = PpoConfig {
            lr: 3e-3,
            critic_lr: 3e-3,
            ..Default::default()
        };
        let mut trainer = PpoTrainer::new(policy, 2, cfg, 9);
        let mut env = BanditEnv {
            steps: 0,
            horizon: 16,
        };
        let first = trainer.train_iteration(&mut env, 32);
        for _ in 0..50 {
            trainer.train_iteration(&mut env, 32);
        }
        let last = trainer.train_iteration(&mut env, 32);
        assert!(
            last.entropy < first.entropy,
            "entropy did not shrink: {} -> {}",
            first.entropy,
            last.entropy
        );
    }

    #[test]
    fn rollout_shapes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let policy = PpoPolicy::new(2, &[3], &[8], &mut rng);
        let mut trainer = PpoTrainer::new(policy, 2, PpoConfig::default(), 1);
        let mut env = BanditEnv {
            steps: 0,
            horizon: 4,
        };
        let buf = trainer.collect_rollout(&mut env, 10);
        // 10 steps × 2 agents.
        assert_eq!(buf.len(), 20);
        // Episode boundaries: horizon 4 → dones at steps 4, 8 and the
        // truncated tail.
        let dones = buf.transitions().iter().filter(|t| t.done).count();
        assert_eq!(dones, 6); // 2 agents × (2 full episodes + 1 truncation)
    }
}
