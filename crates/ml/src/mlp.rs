//! Dense multi-layer perceptrons with manual backpropagation.
//!
//! The networks in FleetIO are small enough (≈9 K parameters) that plain
//! row-major passes over `Vec<f32>` weights are both simple and fast;
//! there is no tensor machinery here on purpose. Every forward pass, one
//! row or many, runs the one batched layer kernel.

use fleetio_des::rng::Rng;

/// Activation function applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (the default PPO hidden activation).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Identity (for output layers producing logits/values).
    Linear,
}

impl Activation {
    /// Stable small integer tag used by checkpoint serialization.
    pub fn tag(self) -> u8 {
        match self {
            Activation::Tanh => 0,
            Activation::Relu => 1,
            Activation::Linear => 2,
        }
    }

    /// Inverse of [`Activation::tag`].
    ///
    /// # Errors
    ///
    /// Returns the unknown tag back.
    pub fn from_tag(tag: u8) -> Result<Self, u8> {
        match tag {
            0 => Ok(Activation::Tanh),
            1 => Ok(Activation::Relu),
            2 => Ok(Activation::Linear),
            t => Err(t),
        }
    }

    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    fn grad_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }
}

/// One dense layer: `y = act(W x + b)`, with `W` stored row-major
/// (`out_dim × in_dim`).
#[derive(Debug, Clone)]
struct Dense {
    w: Vec<f32>,
    b: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
    act: Activation,
}

impl Dense {
    fn new<R: Rng>(in_dim: usize, out_dim: usize, act: Activation, rng: &mut R) -> Self {
        // Xavier/Glorot uniform initialization.
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Dense {
            w,
            b: vec![0.0; out_dim],
            in_dim,
            out_dim,
            act,
        }
    }

    /// Forward pass over `rows` row-major inputs at once, the layer's
    /// only kernel. Each row accumulates on its own, so a row's output
    /// does not depend on its neighbours in the batch; the batch only
    /// amortizes buffer management and keeps the weight matrix hot
    /// across consecutive rows.
    fn forward_batch(&self, xs: &[f32], rows: usize, out: &mut Vec<f32>) {
        out.clear();
        out.resize(rows * self.out_dim, 0.0);
        for (r, x) in xs.chunks_exact(self.in_dim).enumerate() {
            let y = &mut out[r * self.out_dim..(r + 1) * self.out_dim];
            for (o, yo) in y.iter_mut().enumerate() {
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                let z: f32 = row.iter().zip(x).map(|(w, x)| w * x).sum::<f32>() + self.b[o];
                *yo = self.act.apply(z);
            }
        }
    }
}

/// A multi-layer perceptron.
///
/// # Example
///
/// ```
/// use fleetio_ml::{Activation, Mlp};
///
/// let mut rng = fleetio_des::rng::SmallRng::seed_from_u64(0);
/// let net = Mlp::new(&[4, 8, 2], Activation::Tanh, Activation::Linear, &mut rng);
/// let out = net.forward(&[0.1, -0.2, 0.3, 0.0]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Cached per-layer activations from a forward pass (input first, output
/// last), needed by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    acts: Vec<Vec<f32>>,
}

impl MlpCache {
    /// The network output of the cached pass.
    pub fn output(&self) -> &[f32] {
        self.acts.last().expect("cache has output")
    }
}

/// Accumulated parameter gradients, shaped like an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpGrads {
    dw: Vec<Vec<f32>>,
    db: Vec<Vec<f32>>,
    /// Number of accumulated samples (for averaging).
    pub count: usize,
}

impl MlpGrads {
    /// Sets all gradients to zero.
    pub fn zero(&mut self) {
        for g in &mut self.dw {
            g.fill(0.0);
        }
        for g in &mut self.db {
            g.fill(0.0);
        }
        self.count = 0;
    }

    /// Scales all gradients by `s` (e.g. `1 / batch_size`).
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.dw {
            for v in g {
                *v *= s;
            }
        }
        for g in &mut self.db {
            for v in g {
                *v *= s;
            }
        }
    }

    /// Global L2 norm of all gradients.
    pub fn l2_norm(&self) -> f32 {
        let mut sum = 0.0f32;
        for g in self.dw.iter().chain(self.db.iter()) {
            for v in g {
                sum += v * v;
            }
        }
        sum.sqrt()
    }

    /// Clips the global gradient norm to `max_norm`.
    pub fn clip_norm(&mut self, max_norm: f32) {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

/// Serializable parameters of one dense layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseState {
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    /// Activation applied after the affine map.
    pub act: Activation,
    /// Row-major weights (`out_dim × in_dim`).
    pub w: Vec<f32>,
    /// Biases (`out_dim`).
    pub b: Vec<f32>,
}

/// The full serializable state of an [`Mlp`]: architecture + parameters.
/// Produced by [`Mlp::export_state`], consumed by [`Mlp::from_state`];
/// the round trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpState {
    /// Per-layer states, input side first.
    pub layers: Vec<DenseState>,
}

impl Mlp {
    /// Builds an MLP with layer sizes `dims` (input first), `hidden_act`
    /// between hidden layers and `out_act` on the final layer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new<R: Rng>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs input and output dims");
        assert!(dims.iter().all(|d| *d > 0), "zero-width layer");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() {
                    out_act
                } else {
                    hidden_act
                };
                Dense::new(w[0], w[1], act, rng)
            })
            .collect();
        Mlp { layers }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Runs a forward pass over one input, returning the output: a
    /// one-row [`Mlp::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input dimension.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim(), "input dimension mismatch");
        self.forward_batch(x, 1)
    }

    /// Runs one forward pass over a whole batch: `xs` holds `rows`
    /// observations row-major (`rows × in_dim`), the result is row-major
    /// `rows × out_dim`. Each row's output is bit-identical to a one-row
    /// pass over it, so N small per-agent inferences collapse into one
    /// matrix-shaped pass (one buffer round trip per *layer* instead of
    /// per *sample*) without changing any of them.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != rows * in_dim`.
    pub fn forward_batch(&self, xs: &[f32], rows: usize) -> Vec<f32> {
        assert_eq!(
            xs.len(),
            rows * self.in_dim(),
            "batch input dimension mismatch"
        );
        let mut cur = xs.to_vec();
        let mut next = Vec::new();
        for layer in &self.layers {
            layer.forward_batch(&cur, rows, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Runs a forward pass keeping per-layer activations for backprop.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input dimension.
    pub fn forward_cached(&self, x: &[f32]) -> MlpCache {
        assert_eq!(x.len(), self.in_dim(), "input dimension mismatch");
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        for layer in &self.layers {
            let mut next = Vec::new();
            layer.forward_batch(acts.last().expect("non-empty"), 1, &mut next);
            acts.push(next);
        }
        MlpCache { acts }
    }

    /// Allocates a zeroed gradient accumulator shaped like this network.
    pub fn zero_grads(&self) -> MlpGrads {
        MlpGrads {
            dw: self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            db: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            count: 0,
        }
    }

    /// Backpropagates `dloss_dout` (gradient of the loss w.r.t. the network
    /// output) through the cached pass, accumulating into `grads`.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the cache/network.
    // Index math over flat row-major weights; iterators obscure the layout.
    #[allow(clippy::needless_range_loop)]
    pub fn backward(&self, cache: &MlpCache, dloss_dout: &[f32], grads: &mut MlpGrads) {
        assert_eq!(
            dloss_dout.len(),
            self.out_dim(),
            "output grad dimension mismatch"
        );
        let mut delta: Vec<f32> = dloss_dout.to_vec();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let y = &cache.acts[li + 1];
            let x = &cache.acts[li];
            // d z = d out ∘ act'(y)
            for (d, yv) in delta.iter_mut().zip(y) {
                *d *= layer.act.grad_from_output(*yv);
            }
            // Accumulate dW, db; compute next delta = Wᵀ dz.
            let mut next_delta = vec![0.0f32; layer.in_dim];
            for o in 0..layer.out_dim {
                let dz = delta[o];
                grads.db[li][o] += dz;
                let row = o * layer.in_dim;
                for i in 0..layer.in_dim {
                    grads.dw[li][row + i] += dz * x[i];
                    next_delta[i] += layer.w[row + i] * dz;
                }
            }
            delta = next_delta;
        }
        grads.count += 1;
    }

    /// Applies a gradient step `p ← p − update(p, g)` where `update` is
    /// provided per parameter in network order (weights then biases, layer
    /// by layer). Used by [`crate::Adam`].
    pub(crate) fn visit_params_mut(&mut self, mut f: impl FnMut(usize, &mut f32)) {
        let mut idx = 0;
        for layer in &mut self.layers {
            for w in &mut layer.w {
                f(idx, w);
                idx += 1;
            }
            for b in &mut layer.b {
                f(idx, b);
                idx += 1;
            }
        }
    }

    /// Visits the gradients in the same order as
    /// [`Mlp::visit_params_mut`].
    pub(crate) fn visit_grads(grads: &MlpGrads, mut f: impl FnMut(usize, f32)) {
        let mut idx = 0;
        for (dw, db) in grads.dw.iter().zip(&grads.db) {
            for g in dw {
                f(idx, *g);
                idx += 1;
            }
            for g in db {
                f(idx, *g);
                idx += 1;
            }
        }
    }

    /// Snapshots architecture and parameters for checkpointing.
    pub fn export_state(&self) -> MlpState {
        MlpState {
            layers: self
                .layers
                .iter()
                .map(|l| DenseState {
                    in_dim: l.in_dim,
                    out_dim: l.out_dim,
                    act: l.act,
                    w: l.w.clone(),
                    b: l.b.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a network from an exported state, validating shapes.
    ///
    /// # Errors
    ///
    /// Returns a message when the state is internally inconsistent
    /// (mismatched layer widths or parameter vector lengths).
    pub fn from_state(state: MlpState) -> Result<Mlp, String> {
        if state.layers.is_empty() {
            return Err("MLP state has no layers".to_string());
        }
        let mut layers = Vec::with_capacity(state.layers.len());
        let mut prev_out: Option<usize> = None;
        for (i, l) in state.layers.into_iter().enumerate() {
            if l.in_dim == 0 || l.out_dim == 0 {
                return Err(format!("layer {i}: zero-width layer"));
            }
            if let Some(p) = prev_out {
                if p != l.in_dim {
                    return Err(format!(
                        "layer {i}: in_dim {} does not match previous out_dim {p}",
                        l.in_dim
                    ));
                }
            }
            if l.w.len() != l.in_dim * l.out_dim {
                return Err(format!(
                    "layer {i}: {} weights for {}x{}",
                    l.w.len(),
                    l.out_dim,
                    l.in_dim
                ));
            }
            if l.b.len() != l.out_dim {
                return Err(format!(
                    "layer {i}: {} biases for out_dim {}",
                    l.b.len(),
                    l.out_dim
                ));
            }
            prev_out = Some(l.out_dim);
            layers.push(Dense {
                w: l.w,
                b: l.b,
                in_dim: l.in_dim,
                out_dim: l.out_dim,
                act: l.act,
            });
        }
        Ok(Mlp { layers })
    }
}

/// Softmax over `logits`, numerically stabilized.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Natural log of softmax probabilities.
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|l| (l - max).exp()).sum::<f32>().ln();
    logits.iter().map(|l| l - max - log_sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::SmallRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let net = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Linear, &mut rng());
        let a = net.forward(&[0.1, 0.2, 0.3]);
        let b = net.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(a.len(), 2);
        assert_eq!(a, b);
        assert_eq!(net.n_params(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn paper_policy_size_is_about_9k_params() {
        // 33 inputs, [50, 50] hidden, 13 logits + separate value net ≈ 9 K.
        let policy = Mlp::new(
            &[33, 50, 50, 13],
            Activation::Tanh,
            Activation::Linear,
            &mut rng(),
        );
        let value = Mlp::new(
            &[33, 50, 50, 1],
            Activation::Tanh,
            Activation::Linear,
            &mut rng(),
        );
        let total = policy.n_params() + value.n_params();
        assert!((7_000..12_000).contains(&total), "total params {total}");
    }

    #[test]
    fn cached_forward_matches_plain() {
        let net = Mlp::new(&[4, 6, 3], Activation::Relu, Activation::Linear, &mut rng());
        let x = [0.5, -0.5, 0.25, 1.0];
        assert_eq!(net.forward(&x), net.forward_cached(&x).output());
    }

    #[test]
    fn numerical_gradient_check() {
        let mut r = rng();
        let net = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, &mut r);
        let x = [0.3f32, -0.7, 0.5];
        // Loss = sum of outputs → dL/dout = [1, 1].
        let cache = net.forward_cached(&x);
        let mut grads = net.zero_grads();
        net.backward(&cache, &[1.0, 1.0], &mut grads);

        // Numerically perturb a few parameters and compare.
        let eps = 1e-3f32;
        let loss = |n: &Mlp| -> f32 { n.forward(&x).iter().sum() };
        let mut checked = 0;
        for probe in [0usize, 5, 11, 16] {
            let mut plus = net.clone();
            let mut minus = net.clone();
            plus.visit_params_mut(|i, p| {
                if i == probe {
                    *p += eps;
                }
            });
            minus.visit_params_mut(|i, p| {
                if i == probe {
                    *p -= eps;
                }
            });
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let mut analytic = 0.0;
            Mlp::visit_grads(&grads, |i, g| {
                if i == probe {
                    analytic = g;
                }
            });
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "param {probe}: numeric {numeric} vs analytic {analytic}"
            );
            checked += 1;
        }
        assert_eq!(checked, 4);
    }

    #[test]
    fn grads_accumulate_scale_and_clip() {
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear, &mut rng());
        let mut grads = net.zero_grads();
        let c = net.forward_cached(&[1.0, -1.0]);
        net.backward(&c, &[1.0], &mut grads);
        net.backward(&c, &[1.0], &mut grads);
        assert_eq!(grads.count, 2);
        let norm2 = grads.l2_norm();
        grads.scale(0.5);
        assert!((grads.l2_norm() - norm2 * 0.5).abs() < 1e-5);
        grads.clip_norm(0.01);
        assert!(grads.l2_norm() <= 0.011);
        grads.zero();
        assert_eq!(grads.l2_norm(), 0.0);
    }

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Log-softmax consistency.
        let lp = log_softmax(&[1.0, 2.0, 3.0]);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let net = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, &mut rng());
        let state = net.export_state();
        let back = Mlp::from_state(state.clone()).expect("valid state");
        assert_eq!(back.export_state(), state);
        let x = [0.3, -0.9, 0.1];
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn from_state_rejects_inconsistent_shapes() {
        let net = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Linear, &mut rng());
        let mut bad = net.export_state();
        bad.layers[0].w.pop();
        assert!(Mlp::from_state(bad).is_err());
        let mut bad = net.export_state();
        bad.layers[1].in_dim = 4;
        assert!(Mlp::from_state(bad).is_err());
        assert!(Mlp::from_state(MlpState { layers: vec![] }).is_err());
    }

    #[test]
    fn activation_tags_roundtrip() {
        for act in [Activation::Tanh, Activation::Relu, Activation::Linear] {
            assert_eq!(Activation::from_tag(act.tag()), Ok(act));
        }
        assert_eq!(Activation::from_tag(9), Err(9));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_panics() {
        let net = Mlp::new(&[3, 2], Activation::Tanh, Activation::Linear, &mut rng());
        let _ = net.forward(&[1.0]);
    }

    /// Property: over seeded random shapes, activations and inputs, a
    /// row's output from a batched pass is bit-exact against a one-row
    /// pass over it — compared on the raw bit patterns, not float
    /// equality, so a kernel that let batch neighbours into a row's
    /// accumulation would fail here.
    #[test]
    fn forward_batch_is_bit_exact_per_row() {
        let mut r = SmallRng::seed_from_u64(0xBA7C);
        for case in 0..40u64 {
            let n_layers = 2 + (r.next_u64() % 3) as usize;
            let dims: Vec<usize> = (0..n_layers)
                .map(|_| 1 + (r.next_u64() % 9) as usize)
                .collect();
            let acts = [Activation::Tanh, Activation::Relu, Activation::Linear];
            let hidden = acts[(r.next_u64() % 3) as usize];
            let out = acts[(r.next_u64() % 3) as usize];
            let net = Mlp::new(&dims, hidden, out, &mut r);
            let rows = (r.next_u64() % 17) as usize;
            let xs: Vec<f32> = (0..rows * net.in_dim())
                .map(|_| r.gen_range(-3.0f32..3.0))
                .collect();
            let batched = net.forward_batch(&xs, rows);
            assert_eq!(batched.len(), rows * net.out_dim(), "case {case}");
            for (row, x) in xs.chunks_exact(net.in_dim().max(1)).enumerate() {
                let single = net.forward_batch(x, 1);
                let b = &batched[row * net.out_dim()..(row + 1) * net.out_dim()];
                for (i, (a, e)) in b.iter().zip(&single).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        e.to_bits(),
                        "case {case} row {row} out {i}: batched {a} vs single {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_batch_empty_batch_is_empty() {
        let net = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Linear, &mut rng());
        assert!(net.forward_batch(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch input dimension mismatch")]
    fn forward_batch_wrong_input_panics() {
        let net = Mlp::new(&[3, 2], Activation::Tanh, Activation::Linear, &mut rng());
        let _ = net.forward_batch(&[1.0, 2.0], 1);
    }
}
