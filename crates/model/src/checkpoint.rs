//! Checkpoint payloads: the PPO trainer snapshot and the typing index.
//!
//! Both payloads are plain data — no handles into live simulators — so a
//! checkpoint written on one host decodes on any other. Field order on
//! the wire is fixed; see each `encode` method for the layout. Restoring
//! runs every validation in the component `from_state` constructors, so
//! a payload that passes the container CRC can still be rejected here if
//! its pieces are mutually inconsistent.

use fleetio_des::codec::{Dec, DecodeError, Enc};
use fleetio_ml::{Activation, AdamState, DenseState, MlpState};
use fleetio_rl::ppo::TrainerState;
use fleetio_rl::{NormalizerState, PolicyState, PpoConfig};

/// Training provenance stored alongside the trainer state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMeta {
    /// Seed of the run that produced this model.
    pub seed: u64,
    /// Workload-type tag the model was trained for (registry key,
    /// `[a-z0-9_-]`, e.g. `lc1`).
    pub tag: String,
}

/// A complete, restorable PPO trainer checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCheckpoint {
    /// Provenance: seed and workload-type tag.
    pub meta: CheckpointMeta,
    /// Everything `PpoTrainer::from_state` needs to resume bit-identically.
    pub trainer: TrainerState,
}

impl ModelCheckpoint {
    /// Serializes the checkpoint payload (container framing is applied by
    /// the registry/CLI via [`fleetio_des::codec::encode_container`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut e = Enc::new(&mut out);
        e.u64(self.meta.seed);
        e.str(&self.meta.tag);
        encode_trainer(&mut e, &self.trainer);
        out
    }

    /// Deserializes a checkpoint payload, consuming every byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, trailing bytes, or any field that
    /// fails structural validation.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Dec::new(payload);
        let seed = d.u64()?;
        let tag = d.str()?;
        let trainer = decode_trainer(&mut d)?;
        d.finish()?;
        Ok(ModelCheckpoint {
            meta: CheckpointMeta { seed, tag },
            trainer,
        })
    }
}

fn encode_mlp(e: &mut Enc<'_>, s: &MlpState) {
    e.usize(s.layers.len());
    for layer in &s.layers {
        e.usize(layer.in_dim);
        e.usize(layer.out_dim);
        e.u8(layer.act.tag());
        e.f32s(&layer.w);
        e.f32s(&layer.b);
    }
}

fn decode_mlp(d: &mut Dec<'_>) -> Result<MlpState, DecodeError> {
    // Each layer needs at least dims + act + two length prefixes.
    let n = d.len(8 + 8 + 1 + 8 + 8)?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let in_dim = d.usize()?;
        let out_dim = d.usize()?;
        let act = Activation::from_tag(d.u8()?)
            .map_err(|t| DecodeError::Malformed(format!("activation tag {t}")))?;
        let w = d.f32s()?;
        let b = d.f32s()?;
        layers.push(DenseState {
            in_dim,
            out_dim,
            act,
            w,
            b,
        });
    }
    Ok(MlpState { layers })
}

fn encode_adam(e: &mut Enc<'_>, s: &AdamState) {
    e.f32(s.lr);
    e.f32(s.beta1);
    e.f32(s.beta2);
    e.f32(s.eps);
    e.f32s(&s.m);
    e.f32s(&s.v);
    e.u64(s.t);
}

fn decode_adam(d: &mut Dec<'_>) -> Result<AdamState, DecodeError> {
    Ok(AdamState {
        lr: d.f32()?,
        beta1: d.f32()?,
        beta2: d.f32()?,
        eps: d.f32()?,
        m: d.f32s()?,
        v: d.f32s()?,
        t: d.u64()?,
    })
}

fn encode_trainer(e: &mut Enc<'_>, s: &TrainerState) {
    encode_mlp(e, &s.policy.actor);
    encode_mlp(e, &s.policy.critic);
    e.usize(s.policy.action_dims.len());
    for &dim in &s.policy.action_dims {
        e.usize(dim);
    }
    encode_adam(e, &s.actor_opt);
    encode_adam(e, &s.critic_opt);
    e.f32(s.cfg.lr);
    e.f32(s.cfg.critic_lr);
    e.f64(s.cfg.gamma);
    e.f64(s.cfg.lambda);
    e.f64(s.cfg.clip);
    e.usize(s.cfg.epochs);
    e.usize(s.cfg.minibatch);
    e.f64(s.cfg.entropy_coef);
    e.f32(s.cfg.max_grad_norm);
    for &word in &s.rng {
        e.u64(word);
    }
    e.u64(s.updates);
    e.f64s(&s.normalizer.mean);
    e.f64s(&s.normalizer.m2);
    e.u64(s.normalizer.count);
    e.bool(s.normalizer.frozen);
    e.f64(s.normalizer.clip);
}

fn decode_trainer(d: &mut Dec<'_>) -> Result<TrainerState, DecodeError> {
    let actor = decode_mlp(d)?;
    let critic = decode_mlp(d)?;
    let n_heads = d.len(8)?;
    let mut action_dims = Vec::with_capacity(n_heads);
    for _ in 0..n_heads {
        action_dims.push(d.usize()?);
    }
    let actor_opt = decode_adam(d)?;
    let critic_opt = decode_adam(d)?;
    let cfg = PpoConfig {
        lr: d.f32()?,
        critic_lr: d.f32()?,
        gamma: d.f64()?,
        lambda: d.f64()?,
        clip: d.f64()?,
        epochs: d.usize()?,
        minibatch: d.usize()?,
        entropy_coef: d.f64()?,
        max_grad_norm: d.f32()?,
    };
    let rng = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
    let updates = d.u64()?;
    let normalizer = NormalizerState {
        mean: d.f64s()?,
        m2: d.f64s()?,
        count: d.u64()?,
        frozen: d.bool()?,
        clip: d.f64()?,
    };
    Ok(TrainerState {
        policy: PolicyState {
            actor,
            critic,
            action_dims,
        },
        actor_opt,
        critic_opt,
        cfg,
        rng,
        updates,
        normalizer,
    })
}

/// The workload-typing index: everything `fleetio`'s k-means typing model
/// needs to classify a new vSSD at attach time and map the result onto a
/// registry tag.
///
/// Mirrors `fleetio::typing::TypingModel` (§3.4 of the paper) without
/// depending on the `fleetio` crate: the scaler parameters, the k-means
/// centroids (in scaled space) and one registry tag per cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct TypingIndex {
    /// Per-feature means of the standardizing scaler.
    pub scaler_mean: Vec<f64>,
    /// Per-feature standard deviations of the scaler.
    pub scaler_std: Vec<f64>,
    /// K-means centroids in scaled feature space, one per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Registry tag per cluster (same order as `centroids`).
    pub cluster_tags: Vec<String>,
    /// A sample whose *squared* distance to every centroid (scaled
    /// space) exceeds this is declared unknown — the same squared-space
    /// semantics as `fleetio::typing::TypingModel`.
    pub unknown_distance: f64,
}

impl TypingIndex {
    /// Structural validation shared by constructors and `decode`.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let dim = self.scaler_mean.len();
        if dim == 0 {
            return Err("typing index has zero feature dimensions".into());
        }
        if self.scaler_std.len() != dim {
            return Err(format!(
                "scaler mean/std disagree: {dim} vs {}",
                self.scaler_std.len()
            ));
        }
        if self.centroids.is_empty() {
            return Err("typing index has no centroids".into());
        }
        if self.cluster_tags.len() != self.centroids.len() {
            return Err(format!(
                "{} centroids but {} cluster tags",
                self.centroids.len(),
                self.cluster_tags.len()
            ));
        }
        for c in &self.centroids {
            if c.len() != dim {
                return Err(format!("centroid dim {} != feature dim {dim}", c.len()));
            }
        }
        if !(self.unknown_distance.is_finite() && self.unknown_distance > 0.0) {
            return Err("unknown_distance must be positive and finite".into());
        }
        Ok(())
    }

    /// Serializes the typing-index payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut e = Enc::new(&mut out);
        e.f64s(&self.scaler_mean);
        e.f64s(&self.scaler_std);
        e.usize(self.centroids.len());
        for c in &self.centroids {
            e.f64s(c);
        }
        e.usize(self.cluster_tags.len());
        for t in &self.cluster_tags {
            e.str(t);
        }
        e.f64(self.unknown_distance);
        out
    }

    /// Deserializes and validates a typing-index payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, trailing bytes, or a structurally
    /// invalid index.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Dec::new(payload);
        let scaler_mean = d.f64s()?;
        let scaler_std = d.f64s()?;
        let n = d.len(8)?;
        let mut centroids = Vec::with_capacity(n);
        for _ in 0..n {
            centroids.push(d.f64s()?);
        }
        let n = d.len(8)?;
        let mut cluster_tags = Vec::with_capacity(n);
        for _ in 0..n {
            cluster_tags.push(d.str()?);
        }
        let unknown_distance = d.f64()?;
        d.finish()?;
        let index = TypingIndex {
            scaler_mean,
            scaler_std,
            centroids,
            cluster_tags,
            unknown_distance,
        };
        index.validate().map_err(DecodeError::Malformed)?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::SmallRng;
    use fleetio_rl::env::{MultiAgentEnv, StepResult};
    use fleetio_rl::{PpoPolicy, PpoTrainer};

    /// Tiny deterministic two-agent bandit env for building a real
    /// trainer to snapshot.
    struct ToyEnv {
        steps: usize,
    }

    impl MultiAgentEnv for ToyEnv {
        fn n_agents(&self) -> usize {
            2
        }
        fn obs_dim(&self) -> usize {
            2
        }
        fn action_dims(&self) -> Vec<usize> {
            vec![3]
        }
        fn reset(&mut self) -> Vec<Vec<f32>> {
            self.steps = 0;
            vec![vec![1.0, 0.0], vec![0.0, 1.0]]
        }
        fn step(&mut self, actions: &[Vec<usize>]) -> StepResult {
            self.steps += 1;
            let rewards = actions
                .iter()
                .enumerate()
                .map(|(i, a)| if a[0] == i { 1.0 } else { 0.0 })
                .collect();
            StepResult {
                observations: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
                rewards,
                done: self.steps >= 6,
            }
        }
    }

    fn trained_state() -> TrainerState {
        let mut rng = SmallRng::seed_from_u64(11);
        let policy = PpoPolicy::new(2, &[3], &[8], &mut rng);
        let mut trainer = PpoTrainer::new(policy, 2, PpoConfig::default(), 11);
        let mut env = ToyEnv { steps: 0 };
        for _ in 0..2 {
            trainer.train_iteration(&mut env, 32);
        }
        trainer.export_state()
    }

    #[test]
    fn model_checkpoint_roundtrips_bit_exact() {
        let ckpt = ModelCheckpoint {
            meta: CheckpointMeta {
                seed: 0xFEED,
                tag: "lc1".to_string(),
            },
            trainer: trained_state(),
        };
        let bytes = ckpt.encode();
        let back = ModelCheckpoint::decode(&bytes).expect("fresh checkpoint decodes");
        // Debug rendering compares every f32/f64 bit-exactly.
        assert_eq!(format!("{ckpt:?}"), format!("{back:?}"));
    }

    #[test]
    fn model_checkpoint_rejects_truncation_and_trailing() {
        let ckpt = ModelCheckpoint {
            meta: CheckpointMeta {
                seed: 1,
                tag: "bi".to_string(),
            },
            trainer: trained_state(),
        };
        let bytes = ckpt.encode();
        assert!(ModelCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            ModelCheckpoint::decode(&long),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    fn sample_index() -> TypingIndex {
        TypingIndex {
            scaler_mean: vec![1.0, 2.0],
            scaler_std: vec![0.5, 1.0],
            centroids: vec![vec![-1.0, 0.0], vec![1.0, 0.0]],
            cluster_tags: vec!["lc1".to_string(), "bi".to_string()],
            unknown_distance: 2.0,
        }
    }

    #[test]
    fn typing_index_roundtrips() {
        let idx = sample_index();
        let back = TypingIndex::decode(&idx.encode()).expect("fresh index decodes");
        assert_eq!(idx, back);
    }

    #[test]
    fn typing_index_validate_rejects_inconsistencies() {
        let mut bad = sample_index();
        bad.cluster_tags.pop();
        assert!(bad.validate().is_err());
        let mut bad = sample_index();
        bad.centroids[0].pop();
        assert!(bad.validate().is_err());
        let mut bad = sample_index();
        bad.unknown_distance = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = sample_index();
        bad.scaler_std.push(1.0);
        assert!(TypingIndex::decode(&bad.encode()).is_err());
    }
}
