//! Running observation normalization.
//!
//! Raw FleetIO states mix scales wildly (bytes/second against booleans and
//! percentages), which stalls MLP training. The normalizer tracks a running
//! mean/variance per feature and standardizes observations; it can be
//! frozen at deployment so inference is stationary.

/// Running per-feature mean/variance normalizer (Welford).
#[derive(Debug, Clone)]
pub struct ObsNormalizer {
    mean: Vec<f64>,
    m2: Vec<f64>,
    count: u64,
    frozen: bool,
    clip: f64,
}

/// The full serializable state of an [`ObsNormalizer`]. Produced by
/// [`ObsNormalizer::export_state`], consumed by
/// [`ObsNormalizer::from_state`]; the round trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizerState {
    /// Running per-feature means.
    pub mean: Vec<f64>,
    /// Running per-feature sums of squared deviations (Welford M2).
    pub m2: Vec<f64>,
    /// Observations folded in.
    pub count: u64,
    /// Whether statistics are frozen.
    pub frozen: bool,
    /// Output clip in standard deviations.
    pub clip: f64,
}

impl ObsNormalizer {
    /// Creates a normalizer for `dim` features, clipping outputs to
    /// ±`clip` standard deviations (10 by default in callers).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `clip` is not positive.
    pub fn new(dim: usize, clip: f64) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(clip > 0.0, "clip must be positive");
        ObsNormalizer {
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
            count: 0,
            frozen: false,
            clip,
        }
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Stops further statistics updates (deployment mode).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether statistics are frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Updates statistics with one raw observation (no-op when frozen).
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match.
    pub fn update(&mut self, obs: &[f32]) {
        assert_eq!(obs.len(), self.mean.len(), "dimension mismatch");
        if self.frozen {
            return;
        }
        self.count += 1;
        for (i, &x) in obs.iter().enumerate() {
            let x = f64::from(x);
            let delta = x - self.mean[i];
            self.mean[i] += delta / self.count as f64;
            self.m2[i] += delta * (x - self.mean[i]);
        }
    }

    /// Standardizes one observation using the current statistics: a
    /// one-row [`ObsNormalizer::normalize_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match.
    pub fn normalize(&self, obs: &[f32]) -> Vec<f32> {
        assert_eq!(obs.len(), self.mean.len(), "dimension mismatch");
        let mut out = Vec::with_capacity(obs.len());
        self.normalize_batch(obs, &mut out);
        out
    }

    /// Standardizes observations held row-major in one flat slice,
    /// appending the standardized rows to `out`: the normalizer's only
    /// per-feature loop. Fewer than two observations folded in pass rows
    /// through unchanged. Each feature is standardized on its own, so a
    /// row's result does not depend on the other rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the feature count.
    pub fn normalize_batch(&self, rows: &[f32], out: &mut Vec<f32>) {
        let dim = self.mean.len();
        assert_eq!(rows.len() % dim, 0, "batch is not whole rows");
        if self.count < 2 {
            out.extend_from_slice(rows);
            return;
        }
        out.reserve(rows.len());
        for row in rows.chunks_exact(dim) {
            for (i, &x) in row.iter().enumerate() {
                let var = self.m2[i] / self.count as f64;
                let std = var.sqrt().max(1e-8);
                let z = (f64::from(x) - self.mean[i]) / std;
                out.push(z.clamp(-self.clip, self.clip) as f32);
            }
        }
    }

    /// Convenience: update then normalize.
    pub fn observe(&mut self, obs: &[f32]) -> Vec<f32> {
        self.update(obs);
        self.normalize(obs)
    }

    /// Snapshots the running statistics for checkpointing.
    pub fn export_state(&self) -> NormalizerState {
        NormalizerState {
            mean: self.mean.clone(),
            m2: self.m2.clone(),
            count: self.count,
            frozen: self.frozen,
            clip: self.clip,
        }
    }

    /// Rebuilds a normalizer from an exported state.
    ///
    /// # Errors
    ///
    /// Returns a message when the state is inconsistent (empty or
    /// mismatched vectors, non-positive clip, negative M2).
    pub fn from_state(state: NormalizerState) -> Result<ObsNormalizer, String> {
        if state.mean.is_empty() {
            return Err("normalizer state has no features".to_string());
        }
        if state.mean.len() != state.m2.len() {
            return Err(format!(
                "mean/m2 length mismatch: {} vs {}",
                state.mean.len(),
                state.m2.len()
            ));
        }
        if !(state.clip.is_finite() && state.clip > 0.0) {
            return Err("clip must be positive".to_string());
        }
        if state.mean.iter().any(|x| !x.is_finite()) {
            return Err("non-finite mean entry".to_string());
        }
        if state.m2.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err("M2 entries must be finite and non-negative".to_string());
        }
        Ok(ObsNormalizer {
            mean: state.mean,
            m2: state.m2,
            count: state.count,
            frozen: state.frozen,
            clip: state.clip,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_stream() {
        let mut n = ObsNormalizer::new(1, 10.0);
        for i in 0..1000 {
            n.update(&[i as f32]);
        }
        // Values near the mean map near zero.
        let z = n.normalize(&[499.5]);
        assert!(z[0].abs() < 0.01, "z {z:?}");
        // One std above mean maps near 1.
        let z = n.normalize(&[499.5 + 288.7]);
        assert!((z[0] - 1.0).abs() < 0.05, "z {z:?}");
    }

    #[test]
    fn clipping_bounds_output() {
        let mut n = ObsNormalizer::new(1, 5.0);
        for i in 0..100 {
            n.update(&[i as f32]);
        }
        let z = n.normalize(&[1e9]);
        assert_eq!(z[0], 5.0);
    }

    #[test]
    fn freeze_stops_updates() {
        let mut n = ObsNormalizer::new(1, 10.0);
        n.update(&[0.0]);
        n.update(&[1.0]);
        n.freeze();
        let before = n.normalize(&[0.5]);
        for _ in 0..100 {
            n.update(&[100.0]);
        }
        assert_eq!(n.normalize(&[0.5]), before);
        assert_eq!(n.count(), 2);
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let mut n = ObsNormalizer::new(3, 7.0);
        for i in 0..50 {
            n.update(&[i as f32, -2.0 * i as f32, 0.5]);
        }
        let back = ObsNormalizer::from_state(n.export_state()).expect("valid state");
        assert_eq!(back.export_state(), n.export_state());
        let probe = [13.0, -5.0, 0.25];
        assert_eq!(n.normalize(&probe), back.normalize(&probe));
    }

    #[test]
    fn from_state_rejects_bad_fields() {
        let n = ObsNormalizer::new(2, 5.0);
        let mut bad = n.export_state();
        bad.m2.pop();
        assert!(ObsNormalizer::from_state(bad).is_err());
        let mut bad = n.export_state();
        bad.clip = 0.0;
        assert!(ObsNormalizer::from_state(bad).is_err());
        let mut bad = n.export_state();
        bad.m2[0] = -1.0;
        assert!(ObsNormalizer::from_state(bad).is_err());
    }

    /// A row standardized in a batch must be bit-exact against the same
    /// row standardized alone, both warmed and in the `count < 2`
    /// passthrough regime.
    #[test]
    fn normalize_batch_is_bit_exact_per_row() {
        let mut n = ObsNormalizer::new(3, 5.0);
        let probe: Vec<f32> = (0..12).map(|i| (i as f32) * 1.7 - 9.0).collect();
        for warmed in [false, true] {
            if warmed {
                for i in 0..40 {
                    n.update(&[i as f32, 0.25 * i as f32, -3.0 * i as f32]);
                }
            }
            let mut batched = Vec::new();
            n.normalize_batch(&probe, &mut batched);
            assert_eq!(batched.len(), probe.len());
            for (r, row) in probe.chunks_exact(3).enumerate() {
                let single = n.normalize(row);
                for (i, (a, e)) in batched[r * 3..(r + 1) * 3].iter().zip(&single).enumerate() {
                    assert_eq!(a.to_bits(), e.to_bits(), "warmed {warmed} row {r} col {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch is not whole rows")]
    fn normalize_batch_rejects_ragged_input() {
        let n = ObsNormalizer::new(3, 5.0);
        n.normalize_batch(&[1.0, 2.0], &mut Vec::new());
    }

    #[test]
    fn passthrough_until_two_samples() {
        let mut n = ObsNormalizer::new(2, 10.0);
        assert_eq!(n.normalize(&[3.0, 4.0]), vec![3.0, 4.0]);
        n.update(&[1.0, 1.0]);
        assert_eq!(n.normalize(&[3.0, 4.0]), vec![3.0, 4.0]);
    }
}
