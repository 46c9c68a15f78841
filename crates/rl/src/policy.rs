//! Categorical multi-head PPO policy with a separate value network.

use fleetio_des::rng::Rng;
use fleetio_ml::mlp::{log_softmax, softmax};
use fleetio_ml::{Activation, Mlp, MlpState};

/// A PPO actor-critic: one MLP produces the concatenated logits of every
/// discrete action head, a second MLP estimates the state value. Every
/// inference takes a row-major batch of observations, one row or many.
///
/// # Example
///
/// ```
/// use fleetio_rl::PpoPolicy;
///
/// let mut rng = fleetio_des::rng::SmallRng::seed_from_u64(0);
/// let policy = PpoPolicy::new(4, &[5, 3], &[50, 50], &mut rng);
/// let obs = [0.1, 0.2, -0.1, 0.0, 0.3, -0.2, 0.0, 0.1];
/// let sampled = policy.sample_batch(&obs, 2, &mut rng);
/// let (action, logp) = &sampled[0];
/// assert_eq!(action.len(), 2);
/// assert!(*logp < 0.0);
/// assert_eq!(policy.act_greedy_batch(&obs, 2).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PpoPolicy {
    pub(crate) actor: Mlp,
    pub(crate) critic: Mlp,
    action_dims: Vec<usize>,
}

/// The full serializable state of a [`PpoPolicy`]: both networks plus the
/// discrete head layout. Produced by [`PpoPolicy::export_state`], consumed
/// by [`PpoPolicy::from_state`]; the round trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyState {
    /// Actor network (concatenated head logits).
    pub actor: MlpState,
    /// Critic network (scalar value).
    pub critic: MlpState,
    /// Sizes of the discrete action heads.
    pub action_dims: Vec<usize>,
}

impl PpoPolicy {
    /// Builds a policy for `obs_dim` observations, `action_dims` discrete
    /// heads and the given hidden layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `action_dims` is empty.
    pub fn new<R: Rng>(
        obs_dim: usize,
        action_dims: &[usize],
        hidden: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(!action_dims.is_empty(), "need at least one action head");
        let logits: usize = action_dims.iter().sum();
        let mut actor_dims = vec![obs_dim];
        actor_dims.extend_from_slice(hidden);
        actor_dims.push(logits);
        let mut critic_dims = vec![obs_dim];
        critic_dims.extend_from_slice(hidden);
        critic_dims.push(1);
        PpoPolicy {
            actor: Mlp::new(&actor_dims, Activation::Tanh, Activation::Linear, rng),
            critic: Mlp::new(&critic_dims, Activation::Tanh, Activation::Linear, rng),
            action_dims: action_dims.to_vec(),
        }
    }

    /// Sizes of the discrete action heads.
    pub fn action_dims(&self) -> &[usize] {
        &self.action_dims
    }

    /// Snapshots actor, critic and head layout for checkpointing.
    pub fn export_state(&self) -> PolicyState {
        PolicyState {
            actor: self.actor.export_state(),
            critic: self.critic.export_state(),
            action_dims: self.action_dims.clone(),
        }
    }

    /// Rebuilds a policy from an exported state.
    ///
    /// # Errors
    ///
    /// Returns a message when networks or head layout are inconsistent
    /// (logit width ≠ sum of head sizes, critic not scalar, observation
    /// dimensions differing between actor and critic).
    pub fn from_state(state: PolicyState) -> Result<PpoPolicy, String> {
        if state.action_dims.is_empty() || state.action_dims.contains(&0) {
            return Err("action heads must be non-empty with positive sizes".to_string());
        }
        let actor = Mlp::from_state(state.actor).map_err(|e| format!("actor: {e}"))?;
        let critic = Mlp::from_state(state.critic).map_err(|e| format!("critic: {e}"))?;
        let logits: usize = state.action_dims.iter().sum();
        if actor.out_dim() != logits {
            return Err(format!(
                "actor emits {} logits but heads sum to {logits}",
                actor.out_dim()
            ));
        }
        if critic.out_dim() != 1 {
            return Err(format!("critic emits {} outputs, not 1", critic.out_dim()));
        }
        if actor.in_dim() != critic.in_dim() {
            return Err(format!(
                "actor obs dim {} != critic obs dim {}",
                actor.in_dim(),
                critic.in_dim()
            ));
        }
        Ok(PpoPolicy {
            actor,
            critic,
            action_dims: state.action_dims,
        })
    }

    /// Total trainable parameters (actor + critic).
    pub fn n_params(&self) -> usize {
        self.actor.n_params() + self.critic.n_params()
    }

    /// Splits concatenated logits into per-head slices.
    pub(crate) fn split_heads<'a>(&self, logits: &'a [f32]) -> Vec<&'a [f32]> {
        let mut out = Vec::with_capacity(self.action_dims.len());
        let mut off = 0;
        for d in &self.action_dims {
            out.push(&logits[off..off + d]);
            off += d;
        }
        out
    }

    /// Samples an action per head for a whole row-major batch of
    /// observations with one actor pass; returns `(action, log_prob)` per
    /// row. RNG draws happen row by row, head by head, one per head, so
    /// the batch consumes the stream exactly as one-row calls on each row
    /// in turn would, and `Mlp::forward_batch` gives each row the logits
    /// a one-row pass gives it.
    pub fn sample_batch<R: Rng>(
        &self,
        obs: &[f32],
        rows: usize,
        rng: &mut R,
    ) -> Vec<(Vec<usize>, f64)> {
        let logits = self.actor.forward_batch(obs, rows);
        let width = self.actor.out_dim();
        logits
            .chunks_exact(width.max(1))
            .map(|row_logits| self.sample_logits(row_logits, &mut *rng))
            .collect()
    }

    /// Draws one action per head from one row of actor logits (one RNG
    /// draw per head, in head order); returns `(action, log_prob)`.
    fn sample_logits<R: Rng>(&self, logits: &[f32], rng: &mut R) -> (Vec<usize>, f64) {
        let mut action = Vec::with_capacity(self.action_dims.len());
        let mut logp = 0.0f64;
        for head in self.split_heads(logits) {
            let probs = softmax(head);
            let mut u: f32 = rng.gen_range(0.0f32..1.0);
            let mut chosen = probs.len() - 1;
            for (i, p) in probs.iter().enumerate() {
                if u < *p {
                    chosen = i;
                    break;
                }
                u -= p;
            }
            let lp = log_softmax(head);
            logp += f64::from(lp[chosen]);
            action.push(chosen);
        }
        (action, logp)
    }

    /// Greedy (argmax) actions for a row-major batch with one actor
    /// pass: the deployment-time decision.
    pub fn act_greedy_batch(&self, obs: &[f32], rows: usize) -> Vec<Vec<usize>> {
        let logits = self.actor.forward_batch(obs, rows);
        let width = self.actor.out_dim();
        logits
            .chunks_exact(width.max(1))
            .map(|row_logits| {
                self.split_heads(row_logits)
                    .into_iter()
                    .map(|head| {
                        head.iter()
                            .enumerate()
                            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                            .map(|(i, _)| i)
                            .expect("non-empty head")
                    })
                    .collect()
            })
            .collect()
    }

    /// Critic value estimates for a row-major batch with one critic
    /// pass.
    pub fn value_batch(&self, obs: &[f32], rows: usize) -> Vec<f64> {
        self.critic
            .forward_batch(obs, rows)
            .into_iter()
            .map(f64::from)
            .collect()
    }
}

impl PpoPolicy {
    /// Behaviour cloning: fits the actor to `(observation, action)` pairs
    /// by cross-entropy over every head. Observations must already be
    /// normalized the same way later inference will normalize them.
    /// Returns the mean cross-entropy of the final epoch.
    ///
    /// Used to warm-start PPO from a scripted reference policy when the
    /// training budget is too small to discover long-horizon behaviours
    /// from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or shapes mismatch the policy.
    pub fn imitate(
        &mut self,
        samples: &[(Vec<f32>, Vec<usize>)],
        epochs: usize,
        minibatch: usize,
        lr: f32,
        seed: u64,
    ) -> f64 {
        assert!(!samples.is_empty(), "behaviour cloning needs samples");
        assert!(
            epochs > 0 && minibatch > 0,
            "epochs/minibatch must be positive"
        );
        let mut opt = fleetio_ml::Adam::new(self.actor.n_params(), lr);
        let mut rng = fleetio_des::rng::SmallRng::seed_from_u64(seed);
        let dims = self.action_dims.clone();
        let mut indices: Vec<usize> = (0..samples.len()).collect();
        let mut last_ce = 0.0;
        for _ in 0..epochs {
            rng.shuffle(&mut indices);
            let mut epoch_ce = 0.0;
            for chunk in indices.chunks(minibatch) {
                let mut grads = self.actor.zero_grads();
                for &i in chunk {
                    let (obs, action) = &samples[i];
                    let cache = self.actor.forward_cached(obs);
                    let logits = cache.output().to_vec();
                    let mut dlogits = vec![0.0f32; logits.len()];
                    let mut off = 0;
                    for (h, d) in dims.iter().enumerate() {
                        let head = &logits[off..off + d];
                        let p = softmax(head);
                        let lp = log_softmax(head);
                        let a = action[h];
                        epoch_ce -= f64::from(lp[a]);
                        for (j, pj) in p.iter().enumerate() {
                            let onehot = if j == a { 1.0 } else { 0.0 };
                            dlogits[off + j] = pj - onehot;
                        }
                        off += d;
                    }
                    self.actor.backward(&cache, &dlogits, &mut grads);
                }
                grads.scale(1.0 / chunk.len() as f32);
                grads.clip_norm(1.0);
                opt.step(&mut self.actor, &grads);
            }
            last_ce = epoch_ce / samples.len() as f64;
        }
        last_ce
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::SmallRng;

    fn policy() -> (PpoPolicy, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(11);
        let p = PpoPolicy::new(3, &[4, 2], &[8], &mut rng);
        (p, rng)
    }

    #[test]
    fn sample_respects_head_sizes() {
        let (p, mut rng) = policy();
        let obs: Vec<f32> = [0.1, 0.2, 0.3].repeat(50);
        for (a, logp) in p.sample_batch(&obs, 50, &mut rng) {
            assert!(a[0] < 4 && a[1] < 2);
            assert!(logp <= 0.0);
        }
    }

    /// Head probabilities: the softmax of each head's actor logits.
    fn head_probs(p: &PpoPolicy, obs: &[f32]) -> Vec<Vec<f32>> {
        let logits = p.actor.forward(obs);
        p.split_heads(&logits).into_iter().map(softmax).collect()
    }

    #[test]
    fn log_prob_matches_sampling_distribution() {
        let (p, mut rng) = policy();
        let obs = [0.5, -0.5, 0.0];
        let probs = head_probs(&p, &obs);
        let mut counts = [0usize; 4];
        let n = 40_000;
        for (a, logp) in p.sample_batch(&obs.repeat(n), n, &mut rng) {
            counts[a[0]] += 1;
            // Heads are independent: the joint log-probability is the
            // sum of the heads'.
            let analytic = f64::from(probs[0][a[0]].ln() + probs[1][a[1]].ln());
            assert!((logp - analytic).abs() < 1e-5, "{logp} vs {analytic}");
        }
        for (a0, &count) in counts.iter().enumerate() {
            let marginal = f64::from(probs[0][a0]);
            let freq = count as f64 / n as f64;
            assert!(
                (marginal - freq).abs() < 0.02,
                "head0={a0}: analytic {marginal:.3} vs empirical {freq:.3}"
            );
        }
    }

    #[test]
    fn greedy_picks_max_probability_action() {
        let (p, _) = policy();
        let obs = [0.2, 0.8, -0.3];
        let greedy = p.act_greedy_batch(&obs, 1).remove(0);
        let probs = head_probs(&p, &obs);
        // The greedy action must have the highest joint probability.
        let mut best = f32::NEG_INFINITY;
        let mut best_a = vec![0, 0];
        for a0 in 0..4 {
            for a1 in 0..2 {
                let joint = probs[0][a0] * probs[1][a1];
                if joint > best {
                    best = joint;
                    best_a = vec![a0, a1];
                }
            }
        }
        assert_eq!(greedy, best_a);
    }

    #[test]
    fn imitate_learns_state_conditional_mapping() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut p = PpoPolicy::new(2, &[3, 2], &[16], &mut rng);
        // Teach: obs [1,0] → (2, 0); obs [0,1] → (0, 1).
        let samples = vec![
            (vec![1.0, 0.0], vec![2usize, 0]),
            (vec![0.0, 1.0], vec![0usize, 1]),
        ];
        let ce = p.imitate(&samples, 300, 2, 1e-2, 5);
        assert!(ce < 0.1, "final cross-entropy {ce}");
        assert_eq!(
            p.act_greedy_batch(&[1.0, 0.0, 0.0, 1.0], 2),
            vec![vec![2, 0], vec![0, 1]]
        );
    }

    #[test]
    fn state_roundtrip_preserves_behaviour() {
        let (p, _) = policy();
        let back = PpoPolicy::from_state(p.export_state()).expect("valid state");
        let obs = [0.4, -0.1, 0.9];
        assert_eq!(p.act_greedy_batch(&obs, 1), back.act_greedy_batch(&obs, 1));
        assert_eq!(p.value_batch(&obs, 1), back.value_batch(&obs, 1));
        let sample = |q: &PpoPolicy| q.sample_batch(&obs, 1, &mut SmallRng::seed_from_u64(4));
        assert_eq!(sample(&p), sample(&back));
        assert_eq!(back.export_state(), p.export_state());
    }

    #[test]
    fn from_state_rejects_inconsistent_heads() {
        let (p, _) = policy();
        let mut bad = p.export_state();
        bad.action_dims = vec![4, 3]; // sums to 7, actor emits 6 logits
        assert!(PpoPolicy::from_state(bad).is_err());
        let mut bad = p.export_state();
        bad.action_dims.clear();
        assert!(PpoPolicy::from_state(bad).is_err());
        let mut bad = p.export_state();
        bad.critic.layers.last_mut().expect("has layers").out_dim = 2;
        assert!(PpoPolicy::from_state(bad).is_err());
    }

    /// A row's sample, value and greedy action must not depend on its
    /// batch neighbours: one-row calls on each row in turn give the same
    /// actions from the same RNG stream, bit-equal logps and values.
    #[test]
    fn batch_inference_matches_serial_calls() {
        let (p, _) = policy();
        let rows: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![0.3 * i as f32 - 1.0, 0.1 * i as f32, -0.5 + 0.2 * i as f32])
            .collect();
        let flat: Vec<f32> = rows.concat();

        let mut rng_a = SmallRng::seed_from_u64(99);
        let mut rng_b = SmallRng::seed_from_u64(99);
        let batched = p.sample_batch(&flat, rows.len(), &mut rng_a);
        for (row, (ba, blp)) in rows.iter().zip(&batched) {
            let (sa, slp) = p.sample_batch(row, 1, &mut rng_b).remove(0);
            assert_eq!(*ba, sa);
            assert_eq!(blp.to_bits(), slp.to_bits());
        }
        // Both paths drained the same number of rng draws.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());

        let values = p.value_batch(&flat, rows.len());
        let greedy = p.act_greedy_batch(&flat, rows.len());
        for ((row, v), g) in rows.iter().zip(&values).zip(&greedy) {
            assert_eq!(v.to_bits(), p.value_batch(row, 1)[0].to_bits());
            assert_eq!(*g, p.act_greedy_batch(row, 1)[0]);
        }
    }

    #[test]
    fn param_count_matches_paper_scale() {
        let mut rng = SmallRng::seed_from_u64(0);
        // FleetIO: 33 obs (11 states × 3 windows), [50, 50] hidden,
        // heads [5, 5, 3] → ~9 K parameters.
        let p = PpoPolicy::new(33, &[5, 5, 3], &[50, 50], &mut rng);
        assert!((7_000..12_000).contains(&p.n_params()), "{}", p.n_params());
    }
}
