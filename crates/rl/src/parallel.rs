//! Parallel rollout collection (the stand-in for the paper's Ray cluster).
//!
//! Workers each own an environment instance and share the current
//! policy; they collect rollouts concurrently on the workspace's work
//! queue ([`fleetio_des::par`]), which returns the buffers in
//! environment order whatever the threads did. Observation-normalizer
//! statistics are frozen during parallel collection so every worker
//! normalizes identically (the trainer's serial warm-up collections feed
//! the statistics).

use fleetio_des::par;
use fleetio_des::rng::SmallRng;

use crate::buffer::{RolloutBuffer, Transition};
use crate::env::MultiAgentEnv;
use crate::normalize::ObsNormalizer;
use crate::policy::PpoPolicy;

/// Standardizes per-agent observation rows with one batched normalizer
/// apply (bit-identical per row to `normalizer.normalize`).
fn normalize_rows(normalizer: &ObsNormalizer, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let dim = normalizer.dim();
    let flat: Vec<f32> = rows.concat();
    let mut out = Vec::with_capacity(flat.len());
    normalizer.normalize_batch(&flat, &mut out);
    out.chunks_exact(dim).map(|c| c.to_vec()).collect()
}

/// Collects one rollout from `env` with a frozen normalizer. Used by the
/// parallel workers and reusable for evaluation runs.
///
/// All per-agent policy inferences in a step run as one batched actor
/// pass and one batched critic pass; RNG draws keep the per-agent order
/// of the serial loop, so the collected rollout is byte-identical to
/// per-agent inference while costing one matrix pass per network.
pub fn collect_frozen<E: MultiAgentEnv>(
    env: &mut E,
    policy: &PpoPolicy,
    normalizer: &ObsNormalizer,
    steps: usize,
    gamma: f64,
    seed: u64,
) -> RolloutBuffer {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = env.n_agents();
    let mut per_agent: Vec<Vec<Transition>> = vec![Vec::new(); n];
    let mut obs: Vec<Vec<f32>> = normalize_rows(normalizer, &env.reset());
    for step in 0..steps {
        let flat: Vec<f32> = obs.concat();
        let values = policy.value_batch(&flat, n);
        let mut actions = Vec::with_capacity(n);
        let mut logps = Vec::with_capacity(n);
        for (a, lp) in policy.sample_batch(&flat, n, &mut rng) {
            actions.push(a);
            logps.push(lp);
        }
        let result = env.step(&actions);
        let next_obs = normalize_rows(normalizer, &result.observations);
        let truncated = step + 1 == steps && !result.done;
        let bootstrap = if truncated {
            let next_flat: Vec<f32> = next_obs.concat();
            policy.value_batch(&next_flat, n)
        } else {
            Vec::new()
        };
        for i in 0..n {
            let mut reward = result.rewards[i];
            if truncated {
                reward += gamma * bootstrap[i];
            }
            per_agent[i].push(Transition {
                obs: std::mem::take(&mut obs[i]),
                action: actions[i].clone(),
                logp: logps[i],
                reward,
                value: values[i],
                done: result.done || truncated,
                advantage: 0.0,
                ret: 0.0,
            });
        }
        obs = next_obs;
        if result.done {
            obs = normalize_rows(normalizer, &env.reset());
        }
    }
    let mut buffer = RolloutBuffer::new();
    for seq in per_agent {
        for t in seq {
            buffer.push(t);
        }
    }
    buffer
}

/// Collects rollouts from several environments in parallel and merges
/// them. Each factory builds one worker's environment; workers run on
/// their own threads with distinct RNG streams derived from `seed`.
pub fn collect_parallel<E, F>(
    factories: Vec<F>,
    policy: &PpoPolicy,
    normalizer: &ObsNormalizer,
    steps_per_worker: usize,
    gamma: f64,
    seed: u64,
) -> RolloutBuffer
where
    E: MultiAgentEnv,
    F: FnOnce() -> E + Send,
{
    let mut factories: Vec<Option<F>> = factories.into_iter().map(Some).collect();
    let n = factories.len();
    let buffers = par::map_mut(&mut factories, n, 0..n, |i, factory| {
        let _prof = fleetio_obs::prof::span("rollout.worker");
        let mut env = factory.take().expect("the queue runs each item once")();
        let seed = worker_seed(seed, i);
        collect_frozen(&mut env, policy, normalizer, steps_per_worker, gamma, seed)
    });
    merge(buffers)
}

/// Collects rollouts from long-lived environments in parallel (one thread
/// per env) and merges them. Unlike [`collect_parallel`], the environments
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
        let seed = worker_seed(seed, i);
        collect_frozen(env, policy, normalizer, steps_per_env, gamma, seed)
    });
    merge(buffers)
}

/// Worker `i`'s RNG stream.
fn worker_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9)
}

/// Concatenates per-worker buffers in worker-index order.
fn merge(buffers: Vec<RolloutBuffer>) -> RolloutBuffer {
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
    fn parallel_collection_merges_all_workers() {
        let p = policy();
        let norm = ObsNormalizer::new(2, 10.0);
        let factories: Vec<Box<dyn FnOnce() -> BanditEnv + Send>> = (0..4)
            .map(|_| {
                Box::new(|| BanditEnv {
                    steps: 0,
                    horizon: 8,
                }) as _
            })
            .collect();
        let buf = collect_parallel(factories, &p, &norm, 10, 0.9, 3);
        // 4 workers × 10 steps × 2 agents.
        assert_eq!(buf.len(), 80);
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
        for round in 0..50 {
            let factories: Vec<Box<dyn FnOnce() -> BanditEnv + Send>> = (0..4)
                .map(|_| {
                    Box::new(|| BanditEnv {
                        steps: 0,
                        horizon: 16,
                    }) as _
                })
                .collect();
            let buf = collect_parallel(
                factories,
                &trainer.policy,
                &trainer.normalizer,
                16,
                trainer.config().gamma,
                100 + round,
            );
            trainer.update(buf);
        }
        let a0 = trainer
            .policy
            .act_greedy(&trainer.normalizer.normalize(&[1.0, 0.0]));
        let a1 = trainer
            .policy
            .act_greedy(&trainer.normalizer.normalize(&[0.0, 1.0]));
        assert_eq!((a0, a1), (vec![0], vec![1]));
    }
}
