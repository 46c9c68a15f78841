//! The Adam optimizer (Kingma & Ba, 2015).

use crate::mlp::{Mlp, MlpGrads};

/// The full serializable state of an [`Adam`] optimizer: hyper-parameters,
/// both moment vectors and the step count. Produced by
/// [`Adam::export_state`], consumed by [`Adam::from_state`]; resuming from
/// the round trip continues optimization bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator fuzz ε.
    pub eps: f32,
    /// First moments, one per parameter.
    pub m: Vec<f32>,
    /// Second moments, one per parameter.
    pub v: Vec<f32>,
    /// Steps taken (drives bias correction).
    pub t: u64,
}

/// Adam state for one network's parameters.
///
/// # Example
///
/// ```
/// use fleetio_ml::{Activation, Adam, Mlp};
///
/// let mut rng = fleetio_des::rng::SmallRng::seed_from_u64(7);
/// let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, &mut rng);
/// let mut opt = Adam::new(net.n_params(), 1e-2);
/// // Minimize (out − 1)² at a fixed input.
/// for _ in 0..300 {
///     let cache = net.forward_cached(&[0.5, -0.5]);
///     let err = cache.output()[0] - 1.0;
///     let mut grads = net.zero_grads();
///     net.backward(&cache, &[2.0 * err], &mut grads);
///     opt.step(&mut net, &grads);
/// }
/// assert!((net.forward(&[0.5, -0.5])[0] - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates Adam state for `n_params` parameters with learning rate
    /// `lr` and the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    ///
    /// # Panics
    ///
    /// Panics unless `lr` is strictly positive and finite.
    pub fn new(n_params: usize, lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Number of parameters this optimizer is sized for.
    pub fn n_params(&self) -> usize {
        self.m.len()
    }

    /// Snapshots the optimizer for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
        }
    }

    /// Rebuilds an optimizer from an exported state.
    ///
    /// # Errors
    ///
    /// Returns a message when the state is inconsistent (moment vectors of
    /// different lengths, non-positive learning rate, β outside [0, 1)).
    pub fn from_state(state: AdamState) -> Result<Adam, String> {
        if state.m.len() != state.v.len() {
            return Err(format!(
                "moment vectors disagree: {} vs {}",
                state.m.len(),
                state.v.len()
            ));
        }
        if !(state.lr.is_finite() && state.lr > 0.0) {
            return Err("learning rate must be positive".to_string());
        }
        for (name, b) in [("beta1", state.beta1), ("beta2", state.beta2)] {
            if !(0.0..1.0).contains(&b) {
                return Err(format!("{name} {b} outside [0, 1)"));
            }
        }
        Ok(Adam {
            lr: state.lr,
            beta1: state.beta1,
            beta2: state.beta2,
            eps: state.eps,
            m: state.m,
            v: state.v,
            t: state.t,
        })
    }

    /// Applies one Adam step to `net` using accumulated `grads`.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match the network this
    /// optimizer was sized for.
    pub fn step(&mut self, net: &mut Mlp, grads: &MlpGrads) {
        assert_eq!(
            self.m.len(),
            net.n_params(),
            "optimizer/network size mismatch"
        );
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        // First pass: update moments from gradients.
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (m, v) = (&mut self.m, &mut self.v);
        Mlp::visit_grads(grads, |i, g| {
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
        });
        // Second pass: apply bias-corrected update.
        let (lr, eps) = (self.lr, self.eps);
        let (m, v) = (&self.m, &self.v);
        net.visit_params_mut(|i, p| {
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Activation;
    use fleetio_des::rng::SmallRng;

    #[test]
    fn converges_on_regression_task() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Linear, &mut rng);
        let mut opt = Adam::new(net.n_params(), 5e-3);
        // Fit y = 2x on x ∈ {-1, -0.5, 0, 0.5, 1}.
        let data: Vec<(f32, f32)> = [-1.0f32, -0.5, 0.0, 0.5, 1.0]
            .iter()
            .map(|x| (*x, 2.0 * x))
            .collect();
        for _ in 0..2000 {
            let mut grads = net.zero_grads();
            for (x, y) in &data {
                let cache = net.forward_cached(&[*x]);
                let err = cache.output()[0] - y;
                net.backward(&cache, &[2.0 * err], &mut grads);
            }
            grads.scale(1.0 / data.len() as f32);
            opt.step(&mut net, &grads);
        }
        let mse: f32 = data
            .iter()
            .map(|(x, y)| {
                let p = net.forward(&[*x])[0];
                (p - y) * (p - y)
            })
            .sum::<f32>()
            / data.len() as f32;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn state_roundtrip_continues_identically() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, &mut rng);
        let mut opt = Adam::new(net.n_params(), 1e-2);
        let step = |net: &mut Mlp, opt: &mut Adam| {
            let cache = net.forward_cached(&[0.4, -0.2]);
            let err = cache.output()[0] - 1.0;
            let mut grads = net.zero_grads();
            net.backward(&cache, &[2.0 * err], &mut grads);
            opt.step(net, &grads);
        };
        for _ in 0..5 {
            step(&mut net, &mut opt);
        }
        let mut net2 = Mlp::from_state(net.export_state()).expect("valid");
        let mut opt2 = Adam::from_state(opt.export_state()).expect("valid");
        for _ in 0..5 {
            step(&mut net, &mut opt);
            step(&mut net2, &mut opt2);
        }
        assert_eq!(net.export_state(), net2.export_state());
        assert_eq!(opt.export_state(), opt2.export_state());
    }

    #[test]
    fn from_state_rejects_bad_fields() {
        let opt = Adam::new(4, 1e-3);
        let mut bad = opt.export_state();
        bad.v.pop();
        assert!(Adam::from_state(bad).is_err());
        let mut bad = opt.export_state();
        bad.lr = -1.0;
        assert!(Adam::from_state(bad).is_err());
        let mut bad = opt.export_state();
        bad.beta2 = 1.0;
        assert!(Adam::from_state(bad).is_err());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut net = Mlp::new(&[2, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let grads = net.zero_grads();
        let mut opt = Adam::new(3, 1e-3);
        opt.step(&mut net, &grads);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_panics() {
        let _ = Adam::new(10, -1.0);
    }
}
