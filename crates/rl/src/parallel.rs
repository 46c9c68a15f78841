//! Rollout collection (the stand-in for the paper's Ray cluster).
//!
//! One step loop, `rollout`, collects every PPO rollout. Its two callers
//! differ only in the row normalizer and the RNG they hand it:
//! [`collect_frozen`] passes a frozen normalizer and a seeded RNG, and
//! [`crate::PpoTrainer::collect_rollout`] the trainer's running
//! normalizer and its own RNG (the warm-up collections that feed the
//! statistics). [`collect_parallel_envs`] gives each worker an
//! environment and shares the current policy; the workers run
//! [`collect_frozen`] concurrently on the workspace's work queue
//! ([`fleetio_des::par`]), which returns the buffers in environment order
//! whatever the threads did. The normalizer is frozen there, so every
//! worker normalizes identically.

use fleetio_des::par;
use fleetio_des::rng::SmallRng;

use crate::buffer::{RolloutBuffer, Transition};
use crate::env::MultiAgentEnv;
use crate::normalize::ObsNormalizer;
use crate::policy::PpoPolicy;

/// The one rollout loop under every collector: `steps` environment steps
/// of `policy`, with each raw observation row passed through `normalize`
/// (in agent order, as the environment returns them) and every sampling
/// draw taken from `rng`. Every agent contributes its own transition
/// sequence, bootstrapped with the critic at truncation, so the returned
/// buffer is GAE-ready.
///
/// All per-agent inferences in a step run as one batched actor pass and
/// one batched critic pass; a row's result does not depend on the other
/// agents' rows, and the RNG draws keep the per-agent order.
pub(crate) fn rollout<E: MultiAgentEnv>(
    env: &mut E,
    policy: &PpoPolicy,
    mut normalize: impl FnMut(&[f32]) -> Vec<f32>,
    steps: usize,
    gamma: f64,
    rng: &mut SmallRng,
) -> RolloutBuffer {
    let n = env.n_agents();
    let mut rows =
        |raw: &[Vec<f32>]| -> Vec<Vec<f32>> { raw.iter().map(|o| normalize(o)).collect() };
    let mut per_agent: Vec<Vec<Transition>> = vec![Vec::new(); n];
    let mut obs = rows(&env.reset());
    for step in 0..steps {
        let flat: Vec<f32> = obs.concat();
        let values = policy.value_batch(&flat, n);
        let (actions, logps): (Vec<Vec<usize>>, Vec<f64>) =
            policy.sample_batch(&flat, n, rng).into_iter().unzip();
        let result = env.step(&actions);
        let next_obs = rows(&result.observations);
        let truncated = step + 1 == steps && !result.done;
        let bootstrap = if truncated {
            policy.value_batch(&next_obs.concat(), n)
        } else {
            Vec::new()
        };
        for (i, (action, logp)) in actions.into_iter().zip(logps).enumerate() {
            let mut reward = result.rewards[i];
            if truncated {
                reward += gamma * bootstrap[i];
            }
            per_agent[i].push(Transition {
                obs: std::mem::take(&mut obs[i]),
                action,
                logp,
                reward,
                value: values[i],
                done: result.done || truncated,
                advantage: 0.0,
                ret: 0.0,
            });
        }
        obs = next_obs;
        if result.done {
            obs = rows(&env.reset());
        }
    }
    let mut buffer = RolloutBuffer::new();
    for t in per_agent.into_iter().flatten() {
        buffer.push(t);
    }
    buffer
}

/// Collects one rollout from `env` with a frozen normalizer and an RNG
/// seeded from `seed`. Used by the parallel workers and reusable for
/// evaluation runs.
pub fn collect_frozen<E: MultiAgentEnv>(
    env: &mut E,
    policy: &PpoPolicy,
    normalizer: &ObsNormalizer,
    steps: usize,
    gamma: f64,
    seed: u64,
) -> RolloutBuffer {
    let mut rng = SmallRng::seed_from_u64(seed);
    rollout(
        env,
        policy,
        |o| normalizer.normalize(o),
        steps,
        gamma,
        &mut rng,
    )
}

/// Collects rollouts from long-lived environments in parallel (one thread
/// per env) and merges them. Worker `i` runs [`collect_frozen`] on
/// `envs[i]` with its own RNG stream derived from `seed`. The environments
/// persist across rounds, so continuing-task envs keep their state and
/// expensive setup is paid once.
pub fn collect_parallel_envs<E>(
    envs: &mut [E],
    policy: &PpoPolicy,
    normalizer: &ObsNormalizer,
    steps_per_env: usize,
    gamma: f64,
    seed: u64,
) -> RolloutBuffer
where
    E: MultiAgentEnv + Send,
{
    let n = envs.len();
    let buffers = par::map_mut(envs, n, 0..n, |i, env| {
        let _prof = fleetio_obs::prof::span("rollout.worker");
        let seed = seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9);
        collect_frozen(env, policy, normalizer, steps_per_env, gamma, seed)
    });
    // Concatenated in environment order, whatever the workers did.
    let mut merged = RolloutBuffer::new();
    for b in buffers {
        merged.extend(b);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::BanditEnv;
    use crate::ppo::{PpoConfig, PpoTrainer};

    fn policy() -> PpoPolicy {
        let mut rng = SmallRng::seed_from_u64(0);
        PpoPolicy::new(2, &[3], &[8], &mut rng)
    }

    #[test]
    fn frozen_collection_is_deterministic() {
        let p = policy();
        let norm = ObsNormalizer::new(2, 10.0);
        let mut e1 = BanditEnv {
            steps: 0,
            horizon: 8,
        };
        let mut e2 = BanditEnv {
            steps: 0,
            horizon: 8,
        };
        let a = collect_frozen(&mut e1, &p, &norm, 16, 0.9, 5);
        let b = collect_frozen(&mut e2, &p, &norm, 16, 0.9, 5);
        assert_eq!(a.transitions(), b.transitions());
    }

    #[test]
    fn persistent_env_collection_merges() {
        let p = policy();
        let norm = ObsNormalizer::new(2, 10.0);
        let mut envs: Vec<BanditEnv> = (0..3)
            .map(|_| BanditEnv {
                steps: 0,
                horizon: 8,
            })
            .collect();
        let a = collect_parallel_envs(&mut envs, &p, &norm, 10, 0.9, 1);
        assert_eq!(a.len(), 60);
        // Second round reuses the same envs.
        let b = collect_parallel_envs(&mut envs, &p, &norm, 10, 0.9, 2);
        assert_eq!(b.len(), 60);
    }

    #[test]
    fn parallel_rollouts_train_successfully() {
        let mut rng = SmallRng::seed_from_u64(13);
        let p = PpoPolicy::new(2, &[3], &[16], &mut rng);
        let cfg = PpoConfig {
            lr: 3e-3,
            critic_lr: 3e-3,
            ..Default::default()
        };
        let mut trainer = PpoTrainer::new(p, 2, cfg, 3);
        // Warm the normalizer serially once.
        let mut env = BanditEnv {
            steps: 0,
            horizon: 16,
        };
        let warm = trainer.collect_rollout(&mut env, 16);
        trainer.update(warm);
        trainer.normalizer.freeze();
        let mut envs: Vec<BanditEnv> = (0..4)
            .map(|_| BanditEnv {
                steps: 0,
                horizon: 16,
            })
            .collect();
        for round in 0..50 {
            let buf = collect_parallel_envs(
                &mut envs,
                &trainer.policy,
                &trainer.normalizer,
                16,
                trainer.config().gamma,
                100 + round,
            );
            trainer.update(buf);
        }
        let greedy = |obs: &[f32]| {
            let norm = trainer.normalizer.normalize(obs);
            trainer.policy.act_greedy_batch(&norm, 1).remove(0)
        };
        let (a0, a1) = (greedy(&[1.0, 0.0]), greedy(&[0.0, 1.0]));
        assert_eq!((a0, a1), (vec![0], vec![1]));
    }
}
